//! The in-memory volume used by the benchmarks.
//!
//! The paper modified EFSL "to use an in-memory image rather than disk
//! operations, to not use a buffer cache, and to have a higher-performance
//! inner loop for file name lookup". This module keeps what that
//! benchmark measures: directories of 32-byte FAT entries held in memory,
//! which can be mapped into the simulated physical address space so that
//! searches generate cache traffic on the simulated machine.
//!
//! ## Host-side bookkeeping vs. modeled cost
//!
//! Directory *contents* are resolved two ways, and the distinction
//! matters. The **modeled** cost of a lookup — the per-entry compare
//! cycles the simulated machine pays in `lookup.rs`, exactly the paper's
//! Figure-3 inner loop — is untouched. The **host-side** bookkeeping
//! (which entry does this name live in? is this name taken? which slot is
//! free?) of a mutated directory reads its own entry bytes and a bitmap
//! of its live slots: a name resolves by comparing its 11 canonical 8.3
//! bytes ([`NameKey`]) against the live slots only, and first-fit takes
//! the lowest clear bit. Liveness comes from the bitmap, never from the
//! bytes: an unlinked slot keeps its name behind the `0xE5` deleted
//! marker, and a live name may itself begin with `0xE5`. A linear scan
//! of every entry survives only in this module's tests, as the oracle
//! `search` is checked against after seeded create / unlink / rename
//! churn.
//!
//! ## Synthetic and materialized directories
//!
//! A directory is *synthetic* from its creation until its first
//! mutation ([`Volume::create_entry`], [`Volume::unlink`] or
//! [`Volume::rename`], whether or not it succeeds): its handle, its live
//! count and its capacity describe it completely — slots `0..live` hold
//! the synthetic entries [`NameKey::synthetic`]`(i)` and every other
//! slot is zero — so it owns no bytes. [`Volume::read_entry`] builds the
//! entry asked for, a search decodes the name back to its serial
//! (`NameKey::synthetic_serial`), and `live_entries`, `free_slots` and
//! `remove_directory` answer from the counts. The first mutation
//! *materializes* the directory in one step: it allocates exactly the
//! directory's `byte_len` bytes holding the synthetic entries, and a
//! bitmap with bits `0..live` set; from then on those bytes and the
//! bitmap are the truth, and removing the directory frees them. Either
//! way every reader sees the same bytes.
//!
//! There is no volume-wide image and no cluster table: simulated
//! addresses come from [`Volume::map_into`], one region per directory,
//! so a volume costs its handles and the bytes of its mutated
//! directories. The one trace of a disk layout is each entry's
//! first-cluster field, a pure function of the directory's id and
//! capacity (see [`Volume::create_directory_with_capacity`]).
//!
//! ## The handle table
//!
//! Directories are identified by dense [`DirId`]s handed out
//! lowest-free-first, and a directory's id is its index in the volume's
//! table of handles. [`Volume::remove_directory`] empties that place and
//! reclaims the id, and the next directory created takes the lowest
//! reclaimed id, so reuse is deterministic and the table never holds
//! more places than the most directories ever live at once.

use o2_sim::{Addr, SimMemory};

use crate::dirent::{DirEntry, NameKey, DIRENT_SIZE, SYNTHETIC_SERIALS};

/// Dense directory identifier: the directory's index in its volume's
/// handle table.
pub type DirId = u32;

/// FAT's deleted-entry marker: the first name byte of an unlinked entry.
pub const DELETED_MARKER: u8 = 0xE5;

/// A directory created on the volume.
#[derive(Debug, Clone)]
pub struct DirectoryHandle {
    /// Dense id of the directory.
    pub index: DirId,
    /// Number of 32-byte entry slots (live entries plus free slots).
    pub entry_count: u32,
    /// Bytes occupied by the directory's entry slots.
    pub byte_len: usize,
    /// Simulated address of the directory data (set by
    /// [`Volume::map_into`]; zero until then).
    pub sim_addr: Addr,
    /// Simulated address of the directory's spin-lock word (set by
    /// [`Volume::map_into`]; zero until then).
    pub lock_addr: Addr,
}

impl DirectoryHandle {
    /// The object identifier used for CoreTime annotations: the simulated
    /// address of the directory data, as in the paper where an object is
    /// identified by address.
    pub fn object_id(&self) -> u64 {
        self.sim_addr
    }

    /// Simulated address of entry `i`.
    pub fn entry_addr(&self, i: u32) -> Addr {
        self.sim_addr + u64::from(i) * DIRENT_SIZE as u64
    }

    /// The first-cluster field (bytes 26–27) of every entry the
    /// directory holds; see [`Volume::create_directory_with_capacity`].
    fn entry_cluster(&self) -> u16 {
        let clusters = (u64::from(self.entry_count) * DIRENT_SIZE as u64)
            .div_ceil(4096)
            .max(1);
        (2 + u64::from(self.index) * clusters) as u16
    }
}

/// Errors from lookups and metadata operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// A directory index was out of range.
    NoSuchDirectory,
    /// An entry with the same (canonicalised 8.3) name already exists in
    /// the directory.
    DuplicateName,
    /// The named entry does not exist in the directory.
    NoSuchEntry,
    /// The directory has no free entry slot left.
    DirectoryFull,
    /// The directory still holds live entries and cannot be removed.
    DirectoryNotEmpty,
}

/// A materialized directory's storage: its entry bytes and which of its
/// slots hold a name.
#[derive(Debug, Clone)]
struct Entries {
    /// Exactly the directory's `byte_len` bytes; slot `i` starts at byte
    /// `i * DIRENT_SIZE`.
    bytes: Box<[u8]>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` holds a name.
    live: Box<[u64]>,
}

impl Entries {
    /// The storage of a synthetic directory: synthetic entries in slots
    /// `0..live`, every other slot zero.
    fn synthetic(handle: &DirectoryHandle, live: u32) -> Self {
        let mut bytes = vec![0u8; handle.byte_len].into_boxed_slice();
        for (i, entry) in (0..live).zip(bytes.chunks_exact_mut(DIRENT_SIZE)) {
            entry.copy_from_slice(&synthetic_entry(handle, i).encode());
        }
        let words = (handle.entry_count as usize).div_ceil(64);
        let mut entries = Self {
            bytes,
            live: vec![0; words].into_boxed_slice(),
        };
        (0..live).for_each(|i| entries.flip(i));
        entries
    }

    fn entry(&self, slot: u32) -> &[u8] {
        let at = slot as usize * DIRENT_SIZE;
        &self.bytes[at..at + DIRENT_SIZE]
    }

    fn entry_mut(&mut self, slot: u32) -> &mut [u8] {
        let at = slot as usize * DIRENT_SIZE;
        &mut self.bytes[at..at + DIRENT_SIZE]
    }

    /// Turns a free slot live or a live one free.
    fn flip(&mut self, slot: u32) {
        self.live[slot as usize / 64] ^= 1 << (slot % 64);
    }

    /// The live slot named `key`; free slots are never compared.
    fn find(&self, key: NameKey) -> Option<u32> {
        let key = key.bytes();
        for (base, &word) in (0u32..).step_by(64).zip(self.live.iter()) {
            let mut bits = word;
            while bits != 0 {
                let slot = base + bits.trailing_zeros();
                bits &= bits - 1;
                if self.entry(slot)[..key.len()] == key[..] {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// The lowest free slot: first-fit, exactly where a linear scan for a
    /// free entry would land.
    fn first_free(&self) -> Option<u32> {
        let slots = (self.bytes.len() / DIRENT_SIZE) as u32;
        (0u32..)
            .step_by(64)
            .zip(self.live.iter())
            .find(|&(_, &word)| word != u64::MAX)
            .map(|(base, word)| base + word.trailing_ones())
            .filter(|&slot| slot < slots)
    }
}

/// One live directory's storage: the handle, its live-entry count and,
/// once it is materialized, its entries.
#[derive(Debug, Clone)]
struct DirSlot {
    handle: DirectoryHandle,
    /// Slots holding a name; the other `entry_count - live` are free.
    live: u32,
    /// `None` while the directory is synthetic (see the module docs);
    /// `Some` once it is materialized.
    entries: Option<Entries>,
}

impl DirSlot {
    /// The directory's entries, materializing the directory first if it
    /// is still synthetic.
    fn materialize(&mut self) -> &mut Entries {
        self.entries
            .get_or_insert_with(|| Entries::synthetic(&self.handle, self.live))
    }
}

/// Synthetic entry `i` of the directory `handle` describes.
fn synthetic_entry(handle: &DirectoryHandle, i: u32) -> DirEntry {
    DirEntry::with_key(NameKey::synthetic(i), handle.entry_cluster(), 64)
}

/// The in-memory volume.
#[derive(Debug, Clone, Default)]
pub struct Volume {
    /// The handle table, indexed by [`DirId`]; a removed directory's
    /// place is `None` until its id is reused.
    dirs: Vec<Option<DirSlot>>,
    /// Reclaimed directory ids, kept sorted descending so `pop()` hands
    /// out the lowest id first (deterministic reuse).
    spare_ids: Vec<DirId>,
}

impl Volume {
    /// Builds the paper's benchmark volume: `n_dirs` directories with
    /// `files_per_dir` 32-byte entries each (1,000 in the paper). Nothing
    /// in it can fail; it returns a `Result` like the volume's other
    /// operations.
    pub fn build_benchmark(n_dirs: u32, files_per_dir: u32) -> Result<Self, VolumeError> {
        let mut v = Self::default();
        v.dirs.reserve(n_dirs as usize);
        for _ in 0..n_dirs {
            v.create_directory(files_per_dir);
        }
        Ok(v)
    }

    fn dir_slot(&self, dir: DirId) -> Result<&DirSlot, VolumeError> {
        self.dirs
            .get(dir as usize)
            .and_then(Option::as_ref)
            .ok_or(VolumeError::NoSuchDirectory)
    }

    fn dir_slot_mut(&mut self, dir: DirId) -> Result<&mut DirSlot, VolumeError> {
        self.dirs
            .get_mut(dir as usize)
            .and_then(Option::as_mut)
            .ok_or(VolumeError::NoSuchDirectory)
    }

    /// The live directories, in id order.
    pub fn directories(&self) -> impl Iterator<Item = &DirectoryHandle> + '_ {
        self.dirs.iter().flatten().map(|s| &s.handle)
    }

    /// Number of live directories.
    pub fn dir_count(&self) -> usize {
        self.dirs.len() - self.spare_ids.len()
    }

    /// A directory by dense id.
    pub fn directory(&self, index: DirId) -> Result<&DirectoryHandle, VolumeError> {
        self.dir_slot(index).map(|s| &s.handle)
    }

    /// Total bytes of directory data (the paper's "total data size" x-axis).
    pub fn total_directory_bytes(&self) -> u64 {
        self.directories().map(|d| d.byte_len as u64).sum()
    }

    /// Creates a directory populated with `files` synthetic entries and
    /// returns its dense id. Every slot is live; use
    /// [`Volume::create_directory_with_capacity`] for churn workloads
    /// that need headroom.
    pub fn create_directory(&mut self, files: u32) -> DirId {
        self.create_directory_with_capacity(files, files)
    }

    /// Creates a directory with `capacity` entry slots of which the first
    /// `live` hold synthetic entries; the rest are free for
    /// [`Volume::create_entry`]. The directory starts synthetic: it takes
    /// a handle and allocates no entry bytes (see the module docs).
    /// Returns the dense id — the lowest reclaimed id if any directory
    /// was removed, the next fresh one otherwise.
    ///
    /// Every entry of directory `id` carries the first-cluster field
    /// `2 + id · max(1, ⌈32 · capacity / 4096⌉)`: where a FAT16 volume of
    /// 4 KB clusters, handing each directory the clusters after the
    /// previous one's, would start it. That is the lookup benchmark's
    /// layout and fsmeta's, and a retired directory recreated with its
    /// id and capacity gets its value back. Nothing follows the field;
    /// past 16 bits, where FAT16 has no clusters left, it keeps the low
    /// 16 bits.
    ///
    /// # Panics
    ///
    /// Panics if `live` exceeds [`SYNTHETIC_SERIALS`]: beyond it
    /// synthetic names alias.
    pub fn create_directory_with_capacity(&mut self, live: u32, capacity: u32) -> DirId {
        let live = live.min(capacity);
        assert!(
            live <= SYNTHETIC_SERIALS,
            "{live} synthetic entries need serials of more than seven digits"
        );
        let id = self.spare_ids.pop().unwrap_or(self.dirs.len() as DirId);
        let dir = Some(DirSlot {
            handle: DirectoryHandle {
                index: id,
                entry_count: capacity,
                byte_len: capacity as usize * DIRENT_SIZE,
                sim_addr: 0,
                lock_addr: 0,
            },
            live,
            entries: None,
        });
        match self.dirs.get_mut(id as usize) {
            Some(place) => *place = dir,
            None => self.dirs.push(dir),
        }
        id
    }

    /// Removes an *empty* directory: frees its bytes and reclaims its
    /// [`DirId`] for the next [`Volume::create_directory`]. Errors with
    /// [`VolumeError::DirectoryNotEmpty`] while any live entry remains
    /// (unlink them first) and [`VolumeError::NoSuchDirectory`] for
    /// unknown or already-removed ids.
    pub fn remove_directory(&mut self, dir: DirId) -> Result<(), VolumeError> {
        if self.dir_slot(dir)?.live > 0 {
            return Err(VolumeError::DirectoryNotEmpty);
        }
        self.dirs[dir as usize] = None;
        let at = self.spare_ids.partition_point(|&i| i > dir);
        self.spare_ids.insert(at, dir);
        Ok(())
    }

    /// Reads entry `i` of directory `dir`: from its bytes once the
    /// directory is materialized, built from its description while it is
    /// synthetic. Errors with [`VolumeError::NoSuchEntry`] if `i` is not
    /// one of the directory's slots.
    pub fn read_entry(&self, dir: DirId, i: u32) -> Result<DirEntry, VolumeError> {
        let s = self.dir_slot(dir)?;
        let d = &s.handle;
        if i >= d.entry_count {
            return Err(VolumeError::NoSuchEntry);
        }
        Ok(match &s.entries {
            Some(entries) => DirEntry::decode(entries.entry(i)).expect("a whole entry"),
            None if i < s.live => synthetic_entry(d, i),
            None => DirEntry::decode(&[0; DIRENT_SIZE]).expect("a whole entry"),
        })
    }

    /// Entry slot holding `name` in directory `dir` (host-side: a decoded
    /// serial while the directory is synthetic, a scan of its live slots
    /// once it is materialized).
    pub fn find_entry(&self, dir: DirId, name: &str) -> Result<Option<u32>, VolumeError> {
        let s = self.dir_slot(dir)?;
        let key = NameKey::new(name);
        Ok(match &s.entries {
            Some(entries) => entries.find(key),
            None => key.synthetic_serial().filter(|&i| i < s.live),
        })
    }

    /// Live entries (slots holding a name) in directory `dir`.
    pub fn live_entries(&self, dir: DirId) -> Result<u32, VolumeError> {
        Ok(self.dir_slot(dir)?.live)
    }

    /// Free entry slots left in directory `dir`.
    pub fn free_slots(&self, dir: DirId) -> Result<u32, VolumeError> {
        let s = self.dir_slot(dir)?;
        Ok(s.handle.entry_count - s.live)
    }

    /// Creates a file entry named `name` in directory `dir`, taking the
    /// lowest free slot (first-fit, as a linear scan would). Errors with
    /// [`VolumeError::DuplicateName`] if the (canonicalised) name already
    /// exists and [`VolumeError::DirectoryFull`] if no slot is free.
    pub fn create_entry(&mut self, dir: DirId, name: &str, size: u32) -> Result<u32, VolumeError> {
        let key = NameKey::new(name);
        let s = self.dir_slot_mut(dir)?;
        let entry = DirEntry::with_key(key, s.handle.entry_cluster(), size);
        let entries = s.materialize();
        if entries.find(key).is_some() {
            return Err(VolumeError::DuplicateName);
        }
        let slot = entries.first_free().ok_or(VolumeError::DirectoryFull)?;
        entries.flip(slot);
        entries.entry_mut(slot).copy_from_slice(&entry.encode());
        s.live += 1;
        Ok(slot)
    }

    /// Removes the entry named `name` from directory `dir`, marking its
    /// slot with the FAT deleted marker (`0xE5`) and returning the slot to
    /// the free pool. Errors with [`VolumeError::NoSuchEntry`] if the name
    /// is not present.
    pub fn unlink(&mut self, dir: DirId, name: &str) -> Result<u32, VolumeError> {
        let s = self.dir_slot_mut(dir)?;
        let entries = s.materialize();
        let slot = entries
            .find(NameKey::new(name))
            .ok_or(VolumeError::NoSuchEntry)?;
        entries.flip(slot);
        entries.entry_mut(slot)[0] = DELETED_MARKER;
        s.live -= 1;
        Ok(slot)
    }

    /// Renames the entry `old` in directory `dir` to `new`, in place (the
    /// entry keeps its slot, cluster and size). Errors with
    /// [`VolumeError::NoSuchEntry`] if `old` is absent and
    /// [`VolumeError::DuplicateName`] if `new` is taken by *another*
    /// entry; renaming to a canonically equal name is a no-op success,
    /// as on a real FAT volume.
    pub fn rename(&mut self, dir: DirId, old: &str, new: &str) -> Result<u32, VolumeError> {
        let (old_key, new_key) = (NameKey::new(old), NameKey::new(new));
        let entries = self.dir_slot_mut(dir)?.materialize();
        let slot = entries.find(old_key).ok_or(VolumeError::NoSuchEntry)?;
        if old_key == new_key {
            // Canonically the same name: the stored bytes already match.
            return Ok(slot);
        }
        if entries.find(new_key).is_some() {
            return Err(VolumeError::DuplicateName);
        }
        let name = new_key.bytes();
        entries.entry_mut(slot)[..name.len()].copy_from_slice(name);
        Ok(slot)
    }

    /// Search of directory `dir` for `name`: the entry slot and the number
    /// of entries the benchmark's inner loop would examine to find it
    /// (slot + 1 — the modeled cost charged by `lookup.rs` is unchanged).
    /// Host-side the resolution is [`Volume::find_entry`]'s.
    pub fn search(&self, dir: DirId, name: &str) -> Result<Option<(u32, u32)>, VolumeError> {
        Ok(self.find_entry(dir, name)?.map(|i| (i, i + 1)))
    }

    /// Maps every directory (and a per-directory lock word) into the
    /// simulated address space. Each directory becomes its own region,
    /// labelled with the directory index, with DRAM homes spread round-robin
    /// across chips — the natural layout for interleaved shared data.
    pub fn map_into(&mut self, memory: &mut SimMemory) {
        // In id order, so region allocation is a pure function of the
        // directory set.
        for d in self.dirs.iter_mut().flatten().map(|s| &mut s.handle) {
            let region = memory.alloc(d.byte_len as u64, u64::from(d.index));
            d.sim_addr = region.addr;
            let lock_region = memory.alloc(64, 0xF000_0000 + u64::from(d.index));
            d.lock_addr = lock_region.addr;
        }
    }

    /// Whether [`Volume::map_into`] has been called.
    pub fn is_mapped(&self) -> bool {
        self.directories().all(|d| d.sim_addr != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirent::synthetic_name;

    /// The image scan `search` replaced, exactly like the benchmark's
    /// inner loop: the first entry whose name matches, and the number of
    /// entries examined to reach it. The oracle for `search`.
    fn search_linear(v: &Volume, dir: DirId, name: &str) -> Option<(u32, u32)> {
        let entries = v.directory(dir).unwrap().entry_count;
        (0..entries)
            .find(|&i| v.read_entry(dir, i).unwrap().matches(name))
            .map(|i| (i, i + 1))
    }

    /// Directory `d`'s bytes as every reader sees them (a synthetic
    /// directory's as materializing would build them).
    fn bytes_of(v: &Volume, d: DirId) -> Box<[u8]> {
        let s = v.dir_slot(d).unwrap();
        match &s.entries {
            Some(entries) => entries.bytes.clone(),
            None => Entries::synthetic(&s.handle, s.live).bytes,
        }
    }

    /// Every live directory's bytes, in id order.
    fn all_bytes(v: &Volume) -> Vec<Box<[u8]>> {
        v.directories().map(|d| bytes_of(v, d.index)).collect()
    }

    /// Materializes every directory of `v`, as a first mutation would.
    fn materialize_all(v: &mut Volume) {
        for s in v.dirs.iter_mut().flatten() {
            s.materialize();
        }
    }

    /// Ids of the materialized directories of `v`.
    fn materialized(v: &Volume) -> Vec<DirId> {
        v.dirs
            .iter()
            .flatten()
            .filter(|s| s.entries.is_some())
            .map(|s| s.handle.index)
            .collect()
    }

    /// FNV-1a, eight bytes at a time, over every directory's handle and
    /// bytes.
    fn volume_fingerprint(v: &Volume) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x100_0000_01b3);
        for d in v.directories() {
            mix(u64::from(d.index));
            mix(u64::from(d.entry_count));
            mix(d.byte_len as u64);
            for w in bytes_of(v, d.index).chunks_exact(8) {
                mix(u64::from_le_bytes(w.try_into().unwrap()));
            }
        }
        h
    }

    #[test]
    fn built_volumes_match_their_golden_fingerprints() {
        // The lookup volumes at two sizes and fsmeta's 4096 half-full
        // 64-slot directories, pinned byte for byte.
        let fsmeta = {
            let mut v = Volume::default();
            for _ in 0..4096 {
                v.create_directory_with_capacity(32, 64);
            }
            v
        };
        let got = [
            volume_fingerprint(&Volume::build_benchmark(3, 1000).unwrap()),
            volume_fingerprint(&Volume::build_benchmark(512, 1000).unwrap()),
            volume_fingerprint(&fsmeta),
        ];
        assert_eq!(
            got,
            [
                0x1ad3_0556_6c99_0538,
                0x5278_1ed6_9573_0925,
                0x22e7_1df4_0760_9325
            ],
            "{got:#018x?}"
        );
    }

    #[test]
    fn synthetic_directories_answer_like_materialized_ones() {
        // Full, half-full and empty directories; `written` has every one
        // materialized, `synthetic` none.
        let shapes = [(1000, 1000), (3, 8), (0, 8)];
        let build = || {
            let mut v = Volume::default();
            for (live, capacity) in shapes {
                v.create_directory_with_capacity(live, capacity);
            }
            v
        };
        let (mut synthetic, mut written) = (build(), build());
        materialize_all(&mut written);
        assert_eq!(materialized(&written), vec![0, 1, 2]);
        assert_eq!(all_bytes(&synthetic), all_bytes(&written));
        for (d, (live, capacity)) in (0..).zip(shapes) {
            for i in 0..=capacity {
                assert_eq!(
                    synthetic.read_entry(d, i),
                    written.read_entry(d, i),
                    "slot {i} of dir {d}"
                );
            }
            let names = [
                "f0000001.dat".to_string(),
                "F00000012.DAT".into(), // truncates onto serial 1
                synthetic_name(live),
                synthetic_name(live + 1),
                "F00000X1.DAT".into(),
                "FOO.TXT".into(),
            ];
            for name in &names {
                assert_eq!(
                    synthetic.search(d, name),
                    written.search(d, name),
                    "{name} in dir {d}"
                );
                assert_eq!(
                    synthetic.search(d, name).unwrap(),
                    search_linear(&synthetic, d, name)
                );
            }
            assert_eq!(synthetic.live_entries(d), written.live_entries(d));
            assert_eq!(synthetic.free_slots(d), written.free_slots(d));
        }
        assert_eq!(synthetic.search(0, "f0000001.dat").unwrap(), Some((1, 2)));
        assert_eq!(synthetic.search(1, "F00000012.DAT").unwrap(), Some((1, 2)));
        assert!(
            materialized(&synthetic).is_empty(),
            "reads must not materialize"
        );
        for d in 0..3 {
            assert_eq!(
                synthetic.remove_directory(d),
                written.remove_directory(d),
                "dir {d}"
            );
        }
        assert!(
            materialized(&synthetic).is_empty(),
            "removal must not materialize"
        );
        assert_eq!(
            synthetic.search(2, "FOO.TXT"),
            Err(VolumeError::NoSuchDirectory)
        );
        assert_eq!(volume_fingerprint(&synthetic), volume_fingerprint(&written));
    }

    #[test]
    fn only_a_mutation_materializes_a_directory() {
        let mut v = Volume::build_benchmark(512, 1000).unwrap();
        assert!(materialized(&v).is_empty(), "building materializes nothing");
        for d in (0..512).step_by(37) {
            v.read_entry(d, 999).unwrap();
            v.search(d, &synthetic_name(d)).unwrap();
            v.search(d, "NOPE.TXT").unwrap();
        }
        assert!(materialized(&v).is_empty(), "reads materialize nothing");
        // A mutation materializes its directory before it looks at the
        // names or the free slots, so even a refused one does.
        assert_eq!(
            v.create_entry(7, "NEW.TXT", 1),
            Err(VolumeError::DirectoryFull)
        );
        assert_eq!(materialized(&v), vec![7]);
        assert_eq!(v.unlink(7, &synthetic_name(3)), Ok(3));
        assert_eq!(v.create_entry(7, "NEW.TXT", 1), Ok(3));
        assert_eq!(materialized(&v), vec![7]);

        // One create in a directory with headroom materializes exactly it.
        let mut v = Volume::default();
        for _ in 0..8 {
            v.create_directory_with_capacity(3, 8);
        }
        assert_eq!(v.create_entry(5, "NEW.TXT", 1), Ok(3));
        assert_eq!(materialized(&v), vec![5]);
        assert_eq!(v.find_entry(5, "NEW.TXT").unwrap(), Some(3));
        assert_eq!(v.find_entry(5, &synthetic_name(2)).unwrap(), Some(2));
    }

    #[test]
    fn first_cluster_fields_follow_id_and_capacity_and_wrap_past_16_bits() {
        let field = |v: &Volume, d: DirId| v.read_entry(d, 0).unwrap().first_cluster;
        // 1,000 entries take eight 4 KB clusters, 64 take one.
        let v = Volume::build_benchmark(3, 1000).unwrap();
        assert_eq!([field(&v, 0), field(&v, 1), field(&v, 2)], [2, 10, 18]);
        let mut v = Volume::default();
        for _ in 0..3 {
            v.create_directory_with_capacity(1, 64);
        }
        assert_eq!([field(&v, 0), field(&v, 1), field(&v, 2)], [2, 3, 4]);
        // Written entries carry it too, and a retired directory recreated
        // with its id and capacity gets it back.
        assert_eq!(v.create_entry(1, "NEW.TXT", 1), Ok(1));
        assert_eq!(v.read_entry(1, 1).unwrap().first_cluster, 3);
        v.unlink(1, "NEW.TXT").unwrap();
        v.unlink(1, &synthetic_name(0)).unwrap();
        v.remove_directory(1).unwrap();
        assert_eq!(v.create_directory_with_capacity(1, 64), 1);
        assert_eq!(field(&v, 1), 3);
        // 16-cluster directories: id 4,095 starts at 65,522, and id 4,096
        // at 65,538, which keeps its low 16 bits.
        let v = Volume::build_benchmark(4_097, 2048).unwrap();
        assert_eq!((field(&v, 4_095), field(&v, 4_096)), (65_522, 2));
    }

    #[test]
    fn benchmark_volume_matches_paper_parameters() {
        let v = Volume::build_benchmark(20, 1000).unwrap();
        assert_eq!(v.dir_count(), 20);
        for d in v.directories() {
            assert_eq!(d.entry_count, 1000);
            assert_eq!(d.byte_len, 32_000);
        }
        assert_eq!(v.total_directory_bytes(), 20 * 32_000);
    }

    #[test]
    fn entries_round_trip_through_the_image() {
        let v = Volume::build_benchmark(3, 100).unwrap();
        let e = v.read_entry(2, 57).unwrap();
        assert!(e.matches(&synthetic_name(57)));
        assert_eq!(v.read_entry(0, 0).unwrap().display_name(), "F0000000.DAT");
        assert_eq!(v.read_entry(0, 100), Err(VolumeError::NoSuchEntry));
        assert_eq!(v.read_entry(9, 0), Err(VolumeError::NoSuchDirectory));
    }

    #[test]
    fn search_finds_files_and_counts_examined_entries() {
        let v = Volume::build_benchmark(2, 500).unwrap();
        let (idx, examined) = v.search(1, &synthetic_name(123)).unwrap().unwrap();
        assert_eq!(idx, 123);
        assert_eq!(examined, 124);
        assert_eq!(v.search(1, "MISSING.TXT").unwrap(), None);
    }

    #[test]
    fn search_agrees_with_the_linear_scan_it_replaced() {
        let mut v = Volume::build_benchmark(2, 200).unwrap();
        for i in (0..200).step_by(3) {
            v.unlink(0, &synthetic_name(i)).unwrap();
        }
        v.create_entry(0, "FRESH.TXT", 64).unwrap();
        v.rename(0, &synthetic_name(7), "MOVED.TXT").unwrap();
        let names: Vec<String> = (0..200)
            .map(synthetic_name)
            .chain(["FRESH.TXT".into(), "MOVED.TXT".into(), "NOPE.TXT".into()])
            .collect();
        for name in &names {
            assert_eq!(
                v.search(0, name).unwrap(),
                search_linear(&v, 0, name),
                "index and linear scan diverge on {name}"
            );
        }
    }

    #[test]
    fn seeded_churn_agrees_with_a_linear_model() {
        // fsmeta's shape: many small half-full directories, churned by a
        // seeded 45/35/20 create/unlink/rename tape. The model keeps, per
        // directory, the serial of the synthetic name in each slot and
        // answers every question by scanning; directory `d` only ever
        // holds names with serials below `next[d]`.
        const DIRS: u32 = 8;
        const CAPACITY: u32 = 64;
        const LIVE: u32 = 32;
        let mut v = Volume::default();
        let mut model: Vec<Vec<Option<u32>>> = Vec::new();
        for _ in 0..DIRS {
            v.create_directory_with_capacity(LIVE, CAPACITY);
            model.push((0..CAPACITY).map(|i| (i < LIVE).then_some(i)).collect());
        }
        let mut next = vec![LIVE; DIRS as usize];
        let mut rng: u64 = 0xF5_0002;
        for _ in 0..3_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = rng >> 33;
            let dir = (r % u64::from(DIRS)) as u32;
            let (slots, serial) = (&mut model[dir as usize], &mut next[dir as usize]);
            let live: Vec<u32> = (0..CAPACITY)
                .filter(|&i| slots[i as usize].is_some())
                .collect();
            let n = live.len() as u32;
            let roll = match n {
                0 => 0,
                CAPACITY => 45,
                _ => ((r >> 8) % 100) as u32,
            };
            // Only unlink and rename pick a victim, and an empty
            // directory always creates.
            let victim = || live[((r >> 16) % u64::from(n)) as usize];
            match roll {
                0..=44 => {
                    let free = slots.iter().position(Option::is_none).unwrap();
                    let got = v.create_entry(dir, &synthetic_name(*serial), 64);
                    assert_eq!(got, Ok(free as u32), "create in dir {dir}");
                    slots[free] = Some(*serial);
                    *serial += 1;
                }
                45..=79 => {
                    let at = victim();
                    let old = slots[at as usize].take().unwrap();
                    assert_eq!(v.unlink(dir, &synthetic_name(old)), Ok(at));
                }
                _ => {
                    let at = victim();
                    let old = slots[at as usize].replace(*serial).unwrap();
                    let got = v.rename(dir, &synthetic_name(old), &synthetic_name(*serial));
                    assert_eq!(got, Ok(at), "rename in dir {dir}");
                    *serial += 1;
                }
            }
        }
        for dir in 0..DIRS {
            let slots = &model[dir as usize];
            let live = slots.iter().flatten().count() as u32;
            assert_eq!(v.live_entries(dir).unwrap(), live, "dir {dir}");
            for serial in 0..next[dir as usize] {
                let name = synthetic_name(serial);
                let expected = slots
                    .iter()
                    .position(|&s| s == Some(serial))
                    .map(|i| (i as u32, i as u32 + 1));
                assert_eq!(
                    search_linear(&v, dir, &name),
                    expected,
                    "{name} in dir {dir}"
                );
                assert_eq!(
                    v.search(dir, &name).unwrap(),
                    expected,
                    "{name} in dir {dir}"
                );
            }
        }
    }

    #[test]
    fn map_into_assigns_simulated_addresses_and_locks() {
        let mut v = Volume::build_benchmark(4, 100).unwrap();
        assert!(!v.is_mapped());
        let mut mem = SimMemory::new(4, 64);
        v.map_into(&mut mem);
        assert!(v.is_mapped());
        let addrs: Vec<u64> = v.directories().map(|d| d.sim_addr).collect();
        let mut unique = addrs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), addrs.len());
        for d in v.directories() {
            assert_ne!(d.lock_addr, 0);
            assert_ne!(d.lock_addr, d.sim_addr);
            assert_eq!(d.object_id(), d.sim_addr);
            assert_eq!(d.entry_addr(2), d.sim_addr + 64);
        }
        // Directory regions are labelled with their index for Figure-2
        // style occupancy snapshots.
        let labels: Vec<u64> = mem
            .regions()
            .filter(|r| r.label < 0xF000_0000)
            .map(|r| r.label)
            .collect();
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capacity_directories_start_with_free_slots() {
        let mut v = Volume::default();
        let d = v.create_directory_with_capacity(3, 8);
        assert_eq!(v.live_entries(d).unwrap(), 3);
        assert_eq!(v.free_slots(d).unwrap(), 5);
        assert_eq!(v.directory(d).unwrap().entry_count, 8);
        // First-fit: the next create takes the lowest free slot.
        assert_eq!(v.create_entry(d, "NEW.DAT", 64).unwrap(), 3);
        assert_eq!(v.find_entry(d, "NEW.DAT").unwrap(), Some(3));
    }

    #[test]
    fn duplicate_name_create_is_rejected() {
        let mut v = Volume::default();
        let d = v.create_directory_with_capacity(2, 8);
        // Synthetic entry 0 exists; creating it again (in any case
        // spelling) is a duplicate, and the volume is unchanged.
        assert_eq!(
            v.create_entry(d, &synthetic_name(0), 64),
            Err(VolumeError::DuplicateName)
        );
        assert_eq!(
            v.create_entry(d, "f0000000.dat", 64),
            Err(VolumeError::DuplicateName)
        );
        assert_eq!(v.live_entries(d).unwrap(), 2);
        assert_eq!(v.free_slots(d).unwrap(), 6);
        // A fresh name still works, then immediately collides.
        v.create_entry(d, "A.TXT", 64).unwrap();
        assert_eq!(
            v.create_entry(d, "A.TXT", 64),
            Err(VolumeError::DuplicateName)
        );
    }

    #[test]
    fn unlink_of_missing_entry_is_rejected() {
        let mut v = Volume::default();
        let d = v.create_directory_with_capacity(2, 4);
        assert_eq!(v.unlink(d, "GHOST.TXT"), Err(VolumeError::NoSuchEntry));
        // Unlinking twice: the first succeeds, the second is missing.
        let slot = v.unlink(d, &synthetic_name(1)).unwrap();
        assert_eq!(slot, 1);
        assert_eq!(
            v.unlink(d, &synthetic_name(1)),
            Err(VolumeError::NoSuchEntry)
        );
        assert_eq!(v.live_entries(d).unwrap(), 1);
        // The freed slot carries the FAT deleted marker in the bytes.
        assert_eq!(bytes_of(&v, d)[DIRENT_SIZE], DELETED_MARKER);
        // Out-of-range directories error the same way as elsewhere.
        assert_eq!(v.unlink(99, "X.TXT"), Err(VolumeError::NoSuchDirectory));
    }

    #[test]
    fn unlinked_slots_are_reused_first_fit() {
        let mut v = Volume::default();
        let d = v.create_directory(6);
        assert_eq!(
            v.create_entry(d, "FULL.TXT", 1),
            Err(VolumeError::DirectoryFull)
        );
        v.unlink(d, &synthetic_name(4)).unwrap();
        v.unlink(d, &synthetic_name(2)).unwrap();
        // Lowest freed slot first, regardless of unlink order.
        assert_eq!(v.create_entry(d, "A.TXT", 1).unwrap(), 2);
        assert_eq!(v.create_entry(d, "B.TXT", 1).unwrap(), 4);
        assert_eq!(
            v.create_entry(d, "C.TXT", 1),
            Err(VolumeError::DirectoryFull)
        );
    }

    #[test]
    fn liveness_comes_from_the_bitmap_not_the_bytes() {
        let mut v = Volume::default();
        let d = v.create_directory_with_capacity(2, 8);
        // `好` is E5 A5 BD in UTF-8: the name's canonical first byte is
        // FAT's deleted marker, and unlinking leaves its bytes unchanged.
        let han = "好.TXT";
        assert_eq!(v.create_entry(d, han, 1), Ok(2));
        assert_eq!(v.find_entry(d, han).unwrap(), Some(2));
        assert_eq!(v.unlink(d, han), Ok(2));
        // What `tests/fsmeta_golden.rs` asks: the display name of every
        // slot, free ones included, is found only in a live slot. Slot 7
        // is zero, slot 2 deleted and still spelling `han`.
        for slot in [7, 2] {
            let name = v.read_entry(d, slot).unwrap().display_name();
            assert_eq!(v.find_entry(d, &name).unwrap(), None, "slot {slot}");
        }
        assert_eq!(bytes_of(&v, d)[2 * DIRENT_SIZE], DELETED_MARKER);
        assert_eq!(v.unlink(d, han), Err(VolumeError::NoSuchEntry));
        assert_eq!(v.create_entry(d, han, 1), Ok(2));
        assert_eq!(v.search(d, han).unwrap(), search_linear(&v, d, han));
        assert_eq!(v.live_entries(d).unwrap(), 3);
    }

    #[test]
    fn rename_moves_the_name_but_keeps_the_slot() {
        let mut v = Volume::default();
        let d = v.create_directory(4);
        let slot = v.rename(d, &synthetic_name(2), "NEW.DAT").unwrap();
        assert_eq!(slot, 2);
        assert_eq!(v.find_entry(d, "NEW.DAT").unwrap(), Some(2));
        assert_eq!(v.find_entry(d, &synthetic_name(2)).unwrap(), None);
        let e = v.read_entry(d, 2).unwrap();
        assert_eq!(e.display_name(), "NEW.DAT");
        assert_eq!(e.size, 64, "rename keeps the entry payload");
        // Error paths: missing source, taken destination.
        assert_eq!(
            v.rename(d, "GHOST.TXT", "X.TXT"),
            Err(VolumeError::NoSuchEntry)
        );
        assert_eq!(
            v.rename(d, &synthetic_name(1), "NEW.DAT"),
            Err(VolumeError::DuplicateName)
        );
        // Rename to a canonically equal name is a no-op success.
        assert_eq!(v.rename(d, "NEW.DAT", "new.dat"), Ok(2));
        assert_eq!(v.find_entry(d, "NEW.DAT").unwrap(), Some(2));
        assert_eq!(v.live_entries(d).unwrap(), 4);
    }

    /// Empties directory `d` by unlinking its synthetic entries `0..n`.
    fn drain(v: &mut Volume, d: DirId, n: u32) {
        for i in 0..n {
            v.unlink(d, &synthetic_name(i)).unwrap();
        }
    }

    #[test]
    fn remove_directory_rejects_non_empty_and_missing() {
        let mut v = Volume::default();
        let d = v.create_directory(3);
        assert_eq!(v.remove_directory(d), Err(VolumeError::DirectoryNotEmpty));
        assert_eq!(v.remove_directory(99), Err(VolumeError::NoSuchDirectory));
        drain(&mut v, d, 3);
        assert_eq!(v.remove_directory(d), Ok(()));
        // Gone: every per-directory operation reports NoSuchDirectory,
        // and removing twice fails the same way.
        assert_eq!(v.remove_directory(d), Err(VolumeError::NoSuchDirectory));
        assert_eq!(v.live_entries(d), Err(VolumeError::NoSuchDirectory));
        assert_eq!(v.search(d, "X.TXT"), Err(VolumeError::NoSuchDirectory));
        assert_eq!(
            v.create_entry(d, "X.TXT", 1),
            Err(VolumeError::NoSuchDirectory)
        );
        assert_eq!(v.dir_count(), 0);
    }

    #[test]
    fn remove_directory_reclaims_the_bytes_and_the_id() {
        let mut v = Volume::default();
        let a = v.create_directory(400);
        drain(&mut v, a, 400);
        assert_eq!(materialized(&v), vec![a]);
        v.remove_directory(a).unwrap();
        // The removed directory's bytes, deleted entries and all, went
        // with it.
        assert!(v.dirs.iter().all(Option::is_none));
        assert_eq!(v.dir_count(), 0);
        // The DirId comes back.
        let b = v.create_directory_with_capacity(2, 400);
        assert_eq!(b, a);
        assert_eq!(v.live_entries(b).unwrap(), 2);
        // The new directory is synthetic, and every read answers from its
        // description, before and after its first mutation.
        assert!(materialized(&v).is_empty());
        let mut fresh = Volume::default();
        fresh.create_directory_with_capacity(2, 400);
        let entries = |v: &Volume| -> Vec<DirEntry> {
            (0..400).map(|i| v.read_entry(0, i).unwrap()).collect()
        };
        assert_eq!(entries(&v), entries(&fresh));
        assert_eq!(v.create_entry(b, "NEW.TXT", 1), Ok(2));
        assert_eq!(fresh.create_entry(0, "NEW.TXT", 1), Ok(2));
        assert_eq!(entries(&v), entries(&fresh));
        assert_eq!(all_bytes(&v), all_bytes(&fresh));
    }

    #[test]
    fn a_larger_directory_in_a_smaller_ones_place_gets_its_own_bytes() {
        let mut v = Volume::default();
        let a = v.create_directory_with_capacity(0, 64);
        let b = v.create_directory_with_capacity(3, 64);
        assert_eq!(v.create_entry(b, "KEEP.TXT", 7), Ok(3));
        let bytes_of_b = |v: &Volume| -> Vec<DirEntry> {
            (0..64).map(|i| v.read_entry(b, i).unwrap()).collect()
        };
        let before = bytes_of_b(&v);
        v.remove_directory(a).unwrap();
        let c = v.create_directory_with_capacity(0, 256);
        assert_eq!(c, 0, "the lowest reclaimed id");
        assert_eq!(v.directory(c).unwrap().byte_len, 8192);
        for i in 0..256 {
            assert_eq!(v.create_entry(c, &synthetic_name(1000 + i), i), Ok(i));
        }
        for i in 0..256 {
            let e = v.read_entry(c, i).unwrap();
            assert!(e.matches(&synthetic_name(1000 + i)), "slot {i}");
            assert_eq!(e.size, i);
        }
        assert_eq!(bytes_of_b(&v), before);
        let mut mem = SimMemory::new(4, 64);
        v.map_into(&mut mem);
        let range = |d: DirId| {
            let h = v.directory(d).unwrap();
            h.sim_addr..h.sim_addr + h.byte_len as u64
        };
        let (rc, rb) = (range(c), range(b));
        assert!(
            rc.end <= rb.start || rb.end <= rc.start,
            "{rc:?} and {rb:?} overlap"
        );
    }

    #[test]
    fn reclaimed_ids_are_reused_lowest_first() {
        let mut v = Volume::default();
        for _ in 0..4 {
            v.create_directory(2);
        }
        drain(&mut v, 3, 2);
        v.remove_directory(3).unwrap();
        drain(&mut v, 1, 2);
        v.remove_directory(1).unwrap();
        assert_eq!(v.dir_count(), 2);
        assert_eq!(
            v.directories().map(|d| d.index).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // Lowest reclaimed id first, whatever the removal order: 1, then
        // 3, then a fresh 4.
        assert_eq!(v.create_directory(2), 1);
        assert_eq!(v.create_directory(2), 3);
        assert_eq!(v.create_directory(2), 4);
        assert_eq!(
            v.directories().map(|d| d.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        for d in 0..5 {
            assert_eq!(v.live_entries(d).unwrap(), 2, "dir {d}");
            assert_eq!(v.find_entry(d, &synthetic_name(0)).unwrap(), Some(0));
        }
    }
}
