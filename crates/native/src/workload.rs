//! Native workloads: real memory, deterministic op streams.
//!
//! A native workload owns per-object shards of real application state
//! (for the lookup workload, each directory's slice of a real in-memory
//! FAT [`Volume`] image) behind per-object spin locks — exactly the
//! paper's "per-directory spin lock" — and exposes two things to the
//! runtime:
//!
//! * a deterministic **op stream**: op `i` is a pure function of
//!   `(seed, i)`, so the set of operations never depends on the worker
//!   count or the schedule;
//! * an **executor** whose state updates are commutative (XOR
//!   accumulators and counter increments under the shard lock), so the
//!   final state is identical no matter which worker ran which op in
//!   which order.
//!
//! Wall-clock cost is real: a lookup really scans the directory image
//! byte-for-byte up to the target entry, the same inner loop whose
//! *modeled* cost the simulator charges.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use o2_fs::{LookupCost, Volume, DIRENT_SIZE};
use o2_runtime::ObjectDescriptor;
use o2_sim::AccessKind;

/// Base of the synthetic object-key address space (native objects are
/// never mapped into simulated memory, but policies and descriptors
/// still key objects by address, as the paper does).
const KEY_BASE: u64 = 0x1_0000_0000;

/// One operation of the deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeOp {
    /// Global index in the op stream.
    pub index: u64,
    /// Dense object id (directory index).
    pub object: u32,
    /// Target entry within the directory.
    pub entry: u32,
    /// Declared access kind.
    pub kind: AccessKind,
    /// Per-op random token: the commutative payload XOR-ed into the
    /// shard state by mutating ops.
    pub token: u64,
}

/// What executing one op cost, in terms the policy's monitor understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutedOp {
    /// Bytes of shard state the op actually touched.
    pub bytes_touched: u64,
    /// Modeled compute cycles (the simulator's cost model for the same
    /// op), reported to the policy as busy time.
    pub modeled_cycles: u64,
}

/// A workload the native runtime can drive.
pub trait NativeWorkload: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Number of objects (shards).
    fn n_objects(&self) -> u32;
    /// Descriptor registered with the policy for `object`.
    fn descriptor(&self, object: u32) -> ObjectDescriptor;
    /// External key (address) of `object`.
    fn key_of(&self, object: u32) -> u64 {
        KEY_BASE + u64::from(object) * 0x1_0000
    }
    /// Op `index` of the deterministic stream.
    fn op(&self, index: u64) -> NativeOp;
    /// Executes the op against real shard state (under the shard lock).
    fn execute(&self, op: &NativeOp) -> ExecutedOp;
    /// Touches the object's bytes (the native analogue of a background
    /// replica fill streaming an object into a cache); returns the bytes
    /// read.
    fn fill(&self, object: u32) -> u64;
    /// Order-independent digest of the final shard state.
    fn state_digest(&self) -> u64;
    /// Spin-lock acquisitions that found the lock held.
    fn lock_contention(&self) -> u64;
}

// ---- shard locking ---------------------------------------------------

/// A spin lock guarding one shard of workload state — the native
/// counterpart of the per-directory spin-lock word the simulator maps
/// into its address space.
pub struct SpinGuarded<T> {
    locked: AtomicBool,
    contention: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: `data` is only ever reached through `with`, which holds the
// spin lock for the duration of the borrow, so accesses are mutually
// exclusive; `T: Send` makes moving that access between threads sound.
unsafe impl<T: Send> Sync for SpinGuarded<T> {}

impl<T> SpinGuarded<T> {
    /// Wraps `data`.
    pub fn new(data: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            contention: AtomicU64::new(0),
            data: UnsafeCell::new(data),
        }
    }

    /// Runs `f` with exclusive access to the shard.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        while self.locked.swap(true, Ordering::Acquire) {
            self.contention.fetch_add(1, Ordering::Relaxed);
            // The host may be oversubscribed (more workers than CPUs):
            // yield instead of burning the holder's timeslice.
            std::thread::yield_now();
        }
        // SAFETY: the swap above left `locked` true, so this thread holds
        // the lock and is the only one reaching `data` until the store
        // below releases it.
        let result = f(unsafe { &mut *self.data.get() });
        self.locked.store(false, Ordering::Release);
        result
    }

    /// Acquisitions that found the lock held.
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

// ---- deterministic op randomness -------------------------------------

/// A splitmix64 stream seeded from `(seed, index)`: the op stream's
/// randomness is a pure function of the coordinates, never of thread
/// state, so any worker computes the same op `i`.
struct OpBits {
    state: u64,
}

impl OpBits {
    fn new(seed: u64, index: u64) -> Self {
        Self {
            state: seed ^ (index.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform f64 in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over a byte slice, for order-fixed state digests.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

// ---- the directory-lookup workload -----------------------------------

/// Specification of the native directory-lookup workload.
#[derive(Debug, Clone)]
pub struct NativeLookupSpec {
    /// Number of directories.
    pub n_dirs: u32,
    /// Entries per directory.
    pub entries_per_dir: u32,
    /// Fraction of lookups that also update the found entry.
    pub write_fraction: f64,
    /// Zipf exponent of directory popularity; `None` for uniform.
    pub zipf_exponent: Option<f64>,
    /// The simulator's cost model for the same inner loop (reported to
    /// the policy as modeled busy cycles).
    pub cost: LookupCost,
    /// Stream seed.
    pub seed: u64,
}

impl NativeLookupSpec {
    /// The paper-shaped default: uniform popularity over `n_dirs`
    /// directories of 1,000 entries, read-only.
    pub fn paper_default(n_dirs: u32, seed: u64) -> Self {
        Self {
            n_dirs: n_dirs.max(1),
            entries_per_dir: 1000,
            write_fraction: 0.0,
            zipf_exponent: None,
            cost: LookupCost::default(),
            seed,
        }
    }

    /// A small spec for tests and doctests.
    pub fn small(seed: u64) -> Self {
        Self {
            n_dirs: 8,
            entries_per_dir: 64,
            write_fraction: 0.1,
            zipf_exponent: None,
            cost: LookupCost::default(),
            seed,
        }
    }
}

/// One directory's shard: its slice of the real volume image plus the
/// commutative bookkeeping.
struct DirShard {
    /// The directory's raw FAT entry bytes, copied out of the built
    /// volume image (32 bytes per entry, 8.3 names at offset 0).
    image: Vec<u8>,
    /// Ops executed against this directory (commutative increment).
    op_counter: u64,
}

/// The directory-lookup workload over a real in-memory FAT volume.
///
/// Built from [`Volume::build_benchmark`]; each directory's image bytes
/// become one spin-locked shard. A lookup scans the image linearly,
/// comparing 11-byte 8.3 names exactly like the benchmark's inner loop;
/// a write-kind lookup additionally XORs its token into the found
/// entry's reserved bytes (commutative, so the final image is
/// schedule-invariant).
pub struct NativeLookup {
    spec: NativeLookupSpec,
    dirs: Vec<SpinGuarded<DirShard>>,
    /// 11-byte 8.3 name of each entry index (identical across dirs, as
    /// in the benchmark volume).
    names: Vec<[u8; 11]>,
    /// Zipf CDF over directories, empty for uniform popularity.
    zipf_cdf: Vec<f64>,
}

impl NativeLookup {
    /// Builds the volume and splits it into per-directory shards.
    pub fn build(spec: &NativeLookupSpec) -> Self {
        let volume = Volume::build_benchmark(spec.n_dirs, spec.entries_per_dir)
            .expect("benchmark volume construction failed");
        let mut dirs = Vec::with_capacity(spec.n_dirs as usize);
        let mut names = vec![[0u8; 11]; spec.entries_per_dir as usize];
        for d in volume.directories() {
            let mut image = vec![0u8; d.byte_len];
            for i in 0..d.entry_count {
                let entry = volume.read_entry(d.index, i).expect("entry in bounds");
                let off = i as usize * DIRENT_SIZE;
                image[off..off + DIRENT_SIZE].copy_from_slice(&entry.encode());
                if d.index == 0 {
                    names[i as usize].copy_from_slice(&image[off..off + 11]);
                }
            }
            dirs.push(SpinGuarded::new(DirShard {
                image,
                op_counter: 0,
            }));
        }
        let zipf_cdf = match spec.zipf_exponent {
            Some(exponent) => {
                let weights: Vec<f64> = (1..=spec.n_dirs)
                    .map(|k| 1.0 / f64::from(k).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        Self {
            spec: spec.clone(),
            dirs,
            names,
            zipf_cdf,
        }
    }

    /// The spec this workload was built from.
    pub fn spec(&self) -> &NativeLookupSpec {
        &self.spec
    }
}

impl NativeWorkload for NativeLookup {
    fn name(&self) -> &'static str {
        "lookup"
    }

    fn n_objects(&self) -> u32 {
        self.spec.n_dirs
    }

    fn descriptor(&self, object: u32) -> ObjectDescriptor {
        let size = u64::from(self.spec.entries_per_dir) * DIRENT_SIZE as u64;
        ObjectDescriptor::new(self.key_of(object), self.key_of(object), size)
            .read_mostly(self.spec.write_fraction < 0.5)
            .with_lock(object as usize)
    }

    fn op(&self, index: u64) -> NativeOp {
        let mut bits = OpBits::new(self.spec.seed, index);
        let object = if self.zipf_cdf.is_empty() {
            (bits.next() % u64::from(self.spec.n_dirs)) as u32
        } else {
            let u = bits.next_f64();
            self.zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.spec.n_dirs as usize - 1) as u32
        };
        let entry = (bits.next() % u64::from(self.spec.entries_per_dir)) as u32;
        let kind = if self.spec.write_fraction > 0.0 && bits.next_f64() < self.spec.write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        NativeOp {
            index,
            object,
            entry,
            kind,
            token: bits.next(),
        }
    }

    fn execute(&self, op: &NativeOp) -> ExecutedOp {
        let target = &self.names[op.entry as usize];
        let examined = u64::from(op.entry) + 1;
        self.dirs[op.object as usize].with(|dir| {
            // The benchmark inner loop: scan entries from the front,
            // comparing 8.3 names, until the target matches.
            let mut found = false;
            for i in 0..=op.entry as usize {
                let off = i * DIRENT_SIZE;
                if &dir.image[off..off + 11] == target {
                    found = true;
                    break;
                }
            }
            debug_assert!(found, "benchmark volumes always contain the target");
            if op.kind == AccessKind::Write {
                // Commutative update: XOR the op token into the entry's
                // reserved bytes (offsets 12..20 — the 8.3 name stays
                // intact, so future scans still match).
                let off = op.entry as usize * DIRENT_SIZE + 12;
                for (i, b) in op.token.to_le_bytes().iter().enumerate() {
                    dir.image[off + i] ^= b;
                }
            }
            dir.op_counter += 1;
        });
        ExecutedOp {
            bytes_touched: examined * DIRENT_SIZE as u64,
            modeled_cycles: self.spec.cost.fixed_overhead_cycles
                + examined * self.spec.cost.compare_cycles_per_entry,
        }
    }

    fn fill(&self, object: u32) -> u64 {
        self.dirs[object as usize].with(|dir| {
            let mut acc = 0u64;
            for &b in &dir.image {
                acc = acc.wrapping_add(u64::from(b));
            }
            // Keep the scan observable so it cannot be optimized out.
            std::hint::black_box(acc);
            dir.image.len() as u64
        })
    }

    fn state_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for dir in &self.dirs {
            dir.with(|d| {
                h = fnv1a(h, &d.op_counter.to_le_bytes());
                h = fnv1a(h, &d.image);
            });
        }
        h
    }

    fn lock_contention(&self) -> u64 {
        self.dirs.iter().map(SpinGuarded::contention).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_seed_and_index() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(11));
        let a: Vec<NativeOp> = (0..200).map(|i| wl.op(i)).collect();
        let b: Vec<NativeOp> = (0..200).map(|i| wl.op(i)).collect();
        assert_eq!(a, b);
        let other = NativeLookup::build(&NativeLookupSpec::small(12));
        let c: Vec<NativeOp> = (0..200).map(|i| other.op(i)).collect();
        assert_ne!(a, c);
        for op in &a {
            assert!(op.object < 8);
            assert!(op.entry < 64);
        }
        // write_fraction 0.1: some but not all ops are writes.
        let writes = a.iter().filter(|o| o.kind == AccessKind::Write).count();
        assert!(writes > 0 && writes < 60, "writes = {writes}");
    }

    #[test]
    fn execute_touches_exactly_the_scanned_bytes() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(3));
        let op = NativeOp {
            index: 0,
            object: 2,
            entry: 9,
            kind: AccessKind::Read,
            token: 0xDEAD_BEEF,
        };
        let done = wl.execute(&op);
        assert_eq!(done.bytes_touched, 10 * 32);
        let cost = LookupCost::default();
        assert_eq!(
            done.modeled_cycles,
            cost.fixed_overhead_cycles + 10 * cost.compare_cycles_per_entry
        );
    }

    #[test]
    fn commutative_writes_make_state_order_invariant() {
        let spec = NativeLookupSpec::small(5);
        let ops: Vec<NativeOp> = {
            let wl = NativeLookup::build(&spec);
            (0..500).map(|i| wl.op(i)).collect()
        };
        let digest_for = |order: &[NativeOp]| {
            let wl = NativeLookup::build(&spec);
            for op in order {
                wl.execute(op);
            }
            wl.state_digest()
        };
        let forward = digest_for(&ops);
        let mut reversed = ops.clone();
        reversed.reverse();
        assert_eq!(forward, digest_for(&reversed));
        // And executing a different stream produces a different digest.
        let mut mutated = ops;
        mutated.truncate(499);
        assert_ne!(forward, digest_for(&mutated));
    }

    #[test]
    fn zipf_popularity_skews_to_low_directories() {
        let mut spec = NativeLookupSpec::small(9);
        spec.n_dirs = 32;
        spec.zipf_exponent = Some(1.2);
        let wl = NativeLookup::build(&spec);
        let mut hist = vec![0u64; 32];
        for i in 0..20_000 {
            hist[wl.op(i).object as usize] += 1;
        }
        assert!(hist[0] > hist[5] && hist[5] > hist[20]);
    }

    #[test]
    fn fill_reads_the_whole_directory() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(1));
        assert_eq!(wl.fill(0), 64 * 32);
    }

    #[test]
    fn descriptors_carry_the_object_key_and_size() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(1));
        let d = wl.descriptor(3);
        assert_eq!(d.id, wl.key_of(3));
        assert_eq!(d.size, 64 * 32);
        assert_eq!(d.lock, Some(3));
        assert!(d.read_mostly);
    }
}
