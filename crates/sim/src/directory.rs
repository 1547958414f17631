//! The flat coherence directory: an open-addressed hash table from
//! [`LineAddr`] to [`LineHolders`], in 16-byte slots, never more than half
//! full.
//!
//! Every simulated cache miss and every write consults the directory, so it
//! sits squarely on the memory-system hot path. The table follows the
//! workspace's open-addressed recipe (power-of-two capacity, Fibonacci
//! hashing, linear probing, tombstone-free backward-shift deletion, probe
//! counting) but owns its slots: their layout, what marks one vacant and
//! how the table grows all rest on facts about this one user that a
//! generic key → value table cannot assume. Deletion matters here because
//! lines enter and leave the directory with every eviction;
//! backward-shifting keeps probe chains from growing under that churn.
//!
//! ## An exact index
//!
//! [`crate::machine::Machine`] keeps the directory *exact*: a core's bit is
//! set if and only if the line is in that core's L2 (the L1 is a subset of
//! the L2), a chip's bit if and only if the line is in that chip's L3, and
//! an entry leaves with the last copy of its line. The miss path relies on
//! it — a chip bit decides the L3 hit without scanning the 32-way set — and
//! `Machine::audit_coherence` checks it.
//!
//! ## The slot
//!
//! A slot is two words: `line | chips << 48` and `cores`. Line addresses
//! are below 2^48 (`SimMemory::alloc_on` checks where addresses are born)
//! and a machine has at most 16 chips and 64 cores
//! (`MachineConfig::validate`), so the key and both masks fit 16 bytes
//! where key + two `u64` masks took 24. Because an entry always has a
//! holder, *no holder* is free to mean *no entry*: a vacant slot is all-zero
//! bytes, no sentinel key is needed, and a fresh table is zeroed pages from
//! the allocator that cost nothing until touched. The only way to write a
//! slot is [`FlatDirectory::update`], one read-modify-write that inserts
//! with a line's first holder and removes with its last.
//!
//! ## Keys are grouped by eight
//!
//! Lines are touched in runs: a directory scan walks 32 KB, an object
//! 4 KB, and the victims those fills push out were themselves filled in
//! runs. Scattering every line on its own makes each of a miss's look-ups
//! a host cache miss, so the home slot is the Fibonacci hash of the line's
//! *group* (`line >> 3`) with the low three bits replaced by the line's:
//! eight consecutive lines home to eight adjacent slots, 128 bytes, two or
//! three host cache lines that the next seven misses of the run find warm.
//! Two groups that collide displace each other by a whole group, so chains
//! grow with the group — which is why the table must stay sparse.
//!
//! ## At most half full, doubling in place
//!
//! The table doubles as soon as an insertion leaves it more than half
//! full. Where a workload lands between two doublings is an accident, and
//! with grouped keys the accident was expensive: a table that grew at 7/8
//! left `scale_zipf` 73 % full, paying 32 slot inspections per line access
//! where `lookup_sweep`, half full, paid 2. At half full or less every
//! workload pays single digits. Half and eight are constants, not knobs.
//!
//! Twice the slots at two thirds the bytes is only affordable if growth
//! does not hold the old and the new table at once, so the table grows *in
//! place*: the slot vector is extended (the allocator remaps a large block
//! rather than copying it), and each entry is taken out and put back in
//! slot order, starting just past a vacant slot. The home slot is the low
//! bits of the hash, so an entry's new home is its old one or that plus the
//! old capacity; starting past a vacant slot means every cluster is
//! visited from its head, so an entry put back lands between its home and
//! the slot it came from — over slots already settled — or in the fresh
//! half. Allocate-and-copy measured `peak_rss_mb` +9.5 % on `scale_zipf`
//! and +6.4 % on `fsmeta_churn`; in place, the table is never larger than
//! the 24-byte table was at its rehash peak (16 × 2 < 24 × 1.5).
//!
//! Sizing the table from the cache geometry at `Machine::new` — it can
//! never hold more lines than there are L2 and L3 ways — was measured and
//! rejected: `scale_zipf` set-up went from 0.13 ms to 0.5–4 ms once the
//! allocator recycled the block and had to clear it, and the small
//! machines of the experiment matrix got 8–64 MB tables (`matrix_quick`
//! RSS +17 %).
//!
//! The table counts its probes (slot inspections, including those of a
//! growth step) so `Machine::mem_stats()` can report directory pressure.

use crate::cache::LineAddr;
use crate::config::MachineConfig;
use crate::memory::SimMemory;

/// `log2` of the lines that share one run of adjacent home slots.
const GROUP_BITS: u32 = 3;

/// The Fibonacci hashing multiplier (the golden ratio in 0.64 fixed point);
/// a copy of `o2_collections::FIB_MULT`, which this crate does not depend on.
const FIB_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Line addresses occupy the low 48 bits of a slot's first word; the chip
/// mask the 16 above.
const LINE_BITS: u32 = SimMemory::LINE_ADDR_BITS;
const LINE_MASK: u64 = (1 << LINE_BITS) - 1;
const _: () = assert!(LINE_BITS + MachineConfig::MAX_CHIPS == u64::BITS);

/// `[line | chips << 48, cores]`; all zero when vacant.
type Slot = [u64; 2];
const VACANT: Slot = [0, 0];

#[inline]
fn pack(line: LineAddr, holders: LineHolders) -> Slot {
    debug_assert!(line <= LINE_MASK, "line {line:#x} does not fit 48 bits");
    debug_assert!(!holders.is_empty(), "an entry always has a holder");
    [line | u64::from(holders.chips) << LINE_BITS, holders.cores]
}

#[inline]
fn line_of(slot: Slot) -> LineAddr {
    slot[0] & LINE_MASK
}

#[inline]
fn holders_of(slot: Slot) -> LineHolders {
    LineHolders {
        cores: slot[1],
        chips: (slot[0] >> LINE_BITS) as u16,
    }
}

/// Which caches hold a line right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineHolders {
    /// Bitmask of cores whose private (L1/L2) caches hold the line.
    pub cores: u64,
    /// Bitmask of chips whose shared L3 holds the line.
    pub chips: u16,
}

impl LineHolders {
    /// Whether no cache at all holds the line.
    pub fn is_empty(&self) -> bool {
        self.cores == 0 && self.chips == 0
    }

    /// Whether `core` (on `chip`) is the *only* holder: no other core's
    /// private cache and no other chip's L3 has a copy. (The holder's own
    /// chip may retain a victim copy in its L3 — a write never invalidates
    /// that one.)
    pub fn sole_holder(&self, core: u32, chip: u32) -> bool {
        self.cores == 1u64 << core && self.chips & !(1u16 << chip) == 0
    }
}

/// Open-addressed `LineAddr → LineHolders` table (see module docs).
#[derive(Debug, Clone)]
pub struct FlatDirectory {
    slots: Vec<Slot>,
    mask: usize,
    len: usize,
    probes: u64,
}

impl Default for FlatDirectory {
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl FlatDirectory {
    /// Creates a table with at least `cap` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(1 << GROUP_BITS);
        Self {
            slots: vec![VACANT; cap],
            mask: cap - 1,
            len: 0,
            probes: 0,
        }
    }

    /// Number of lines currently tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the directory tracks no lines at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots (power of two, at least twice [`FlatDirectory::len`]).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative slot inspections by [`FlatDirectory::update`], growth
    /// steps included.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The group's Fibonacci hash with its three lowest bits replaced by
    /// the line's.
    #[inline]
    fn home(&self, line: LineAddr) -> usize {
        const WITHIN: u64 = (1 << GROUP_BITS) - 1;
        let group = (line >> GROUP_BITS).wrapping_mul(FIB_MULT) >> 32;
        (group & !WITHIN | line & WITHIN) as usize & self.mask
    }

    /// The holders of a line, or `None` if untracked. Counts no probes: for
    /// diagnostics and assertions that must not skew
    /// [`FlatDirectory::probes`].
    pub fn peek(&self, line: LineAddr) -> Option<LineHolders> {
        let mut i = self.home(line);
        loop {
            let slot = self.slots[i];
            if slot == VACANT {
                return None;
            }
            if line_of(slot) == line {
                return Some(holders_of(slot));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The one read-modify-write: replaces the holders of `line` with
    /// `f(holders)` and returns the holders as they were. An untracked line
    /// has no holders (`LineHolders::default()`); giving it its first
    /// holder inserts the entry, and taking a line's last holder away
    /// removes it (backward-shifting the following cluster — no
    /// tombstones).
    #[inline]
    pub fn update(
        &mut self,
        line: LineAddr,
        f: impl FnOnce(LineHolders) -> LineHolders,
    ) -> LineHolders {
        let mut i = self.home(line);
        loop {
            self.probes += 1;
            let slot = self.slots[i];
            if slot == VACANT {
                let before = LineHolders::default();
                let after = f(before);
                if !after.is_empty() {
                    self.slots[i] = pack(line, after);
                    self.len += 1;
                    if self.len * 2 > self.slots.len() {
                        self.grow();
                    }
                }
                return before;
            }
            if line_of(slot) == line {
                let before = holders_of(slot);
                let after = f(before);
                if after.is_empty() {
                    self.remove_at(i);
                } else {
                    self.slots[i] = pack(line, after);
                }
                return before;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Vacates slot `hole` and shifts the following cluster back over it.
    fn remove_at(&mut self, mut hole: usize) {
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            self.probes += 1;
            let slot = self.slots[i];
            if slot == VACANT {
                break;
            }
            // The entry at `i` may move into the hole only if the hole lies
            // on its probe path, i.e. cyclically within [home, i).
            let h = self.home(line_of(slot));
            let on_path = if h <= i {
                h <= hole && hole < i
            } else {
                hole >= h || hole < i
            };
            if on_path {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = VACANT;
    }

    /// Doubles the table in place (see the module docs).
    #[cold]
    fn grow(&mut self) {
        let old_cap = self.slots.len();
        self.slots.resize(old_cap * 2, VACANT);
        self.mask = old_cap * 2 - 1;
        // No cluster spans a vacant slot, so walking the old half from just
        // past one meets every entry after all those between its home and
        // itself: by then they are settled, and the probe from its new home
        // ends at or before the slot it just left, or in the fresh half.
        let start = self.slots[..old_cap]
            .iter()
            .position(|&slot| slot == VACANT)
            .expect("a table half full has a vacant slot");
        for from in (start + 1..old_cap).chain(0..start) {
            let slot = std::mem::replace(&mut self.slots[from], VACANT);
            if slot == VACANT {
                continue;
            }
            let mut i = self.home(line_of(slot));
            loop {
                self.probes += 1;
                if self.slots[i] == VACANT {
                    self.slots[i] = slot;
                    break;
                }
                i = (i + 1) & self.mask;
            }
        }
    }

    /// Drops every entry (capacity is retained).
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.slots.fill(VACANT);
        self.len = 0;
    }

    /// Iterates over every tracked `(line, holders)` pair in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineHolders)> + '_ {
        self.slots
            .iter()
            .filter(|&&slot| slot != VACANT)
            .map(|&slot| (line_of(slot), holders_of(slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn cores(cores: u64) -> LineHolders {
        LineHolders { cores, chips: 0 }
    }

    /// Sets a line's holders outright; `LineHolders::default()` removes it.
    fn set(d: &mut FlatDirectory, line: LineAddr, holders: LineHolders) -> LineHolders {
        d.update(line, |_| holders)
    }

    /// Whether some entry sits below its home slot: its cluster runs off
    /// the end of the slot array and continues at slot 0.
    fn wraps(d: &FlatDirectory) -> bool {
        (0..d.capacity()).any(|i| d.slots[i] != VACANT && d.home(line_of(d.slots[i])) > i)
    }

    /// The table's own invariants, then full agreement with the oracle.
    fn check(d: &FlatDirectory, oracle: &HashMap<u64, LineHolders>, tag: &str) {
        assert!(d.len() * 2 <= d.capacity(), "{tag}: more than half full");
        assert!(d.capacity().is_power_of_two() && d.mask == d.capacity() - 1);
        let mut occupied = 0;
        for (i, &slot) in d.slots.iter().enumerate() {
            // Vacant ⇔ all-zero ⇔ no holder: no slot keeps a line without one.
            assert_eq!(
                slot == VACANT,
                holders_of(slot).is_empty(),
                "{tag}: slot {i}"
            );
            if slot == VACANT {
                continue;
            }
            occupied += 1;
            // Linear probing: nothing vacant between an entry and its home.
            let mut j = d.home(line_of(slot));
            while j != i {
                assert_ne!(d.slots[j], VACANT, "{tag}: hole at {j} before slot {i}");
                j = (j + 1) & d.mask;
            }
        }
        assert_eq!(occupied, d.len(), "{tag}: len");
        assert_eq!(d.len(), oracle.len(), "{tag}: len against the oracle");
        for (&line, &holders) in oracle {
            assert_eq!(d.peek(line), Some(holders), "{tag}: line {line:#x}");
        }
        let mut listed: Vec<_> = d.iter().map(|(l, h)| (l, h.cores, h.chips)).collect();
        listed.sort_unstable();
        let mut expected: Vec<_> = oracle.iter().map(|(&l, h)| (l, h.cores, h.chips)).collect();
        expected.sort_unstable();
        assert_eq!(listed, expected, "{tag}: iter()");
    }

    /// `count` groups (as the address of their first line) that home to
    /// the last eight slots of a table of `cap` slots.
    fn groups_homing_last(cap: usize, count: usize) -> Vec<u64> {
        let probe = FlatDirectory::with_capacity(cap);
        (0..u64::MAX)
            .map(|g| g << GROUP_BITS)
            .filter(|&base| probe.home(base) == cap - (1 << GROUP_BITS))
            .take(count)
            .collect()
    }

    /// A `HashMap`-oracle churn from 8 slots up: `pick` draws each step's
    /// run of lines and whether it is removed. One step in four goes
    /// instead to four groups that home to the last eight slots of the
    /// table as it is then, so that clusters run off the end of the slot
    /// array and growth finds them there. Everything is checked after every
    /// growth.
    fn churn(seed: u64, steps: u64, pick: impl Fn(&mut StdRng, u64) -> (u64, u64, bool)) {
        let mut d = FlatDirectory::with_capacity(8);
        let mut oracle: HashMap<u64, LineHolders> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tail = groups_homing_last(8, 4);
        let (mut growths, mut wrapped_growths) = (0, 0);
        for step in 0..steps {
            let (mut start, len, remove) = pick(&mut rng, step);
            if rng.gen_range(0u8..4) == 0 {
                start = tail[rng.gen_range(0..4usize)] + rng.gen_range(0..8u64);
            }
            for line in start..start + len {
                let core_bit = 1u64 << rng.gen_range(0..64u32);
                let chip_bit = 1u16 << rng.gen_range(0..16u32);
                let change = |h: LineHolders| match (remove, h.is_empty()) {
                    (true, _) => LineHolders::default(),
                    (false, true) => cores(core_bit),
                    // Toggle a chip, keep a core: never empties the entry.
                    (false, false) => LineHolders {
                        cores: h.cores | core_bit,
                        chips: h.chips ^ chip_bit,
                    },
                };
                let cap = d.capacity();
                // Only a table exactly half full can be about to grow.
                let wrapped = d.len() * 2 == cap && wraps(&d);
                let expected = oracle.get(&line).copied().unwrap_or_default();
                assert_eq!(
                    d.update(line, change),
                    expected,
                    "step {step}: line {line:#x}"
                );
                match change(expected) {
                    after if after.is_empty() => oracle.remove(&line),
                    after => oracle.insert(line, after),
                };
                assert!(
                    d.len() * 2 <= d.capacity(),
                    "step {step}: more than half full"
                );
                assert_eq!(d.len(), oracle.len(), "step {step}: len");
                if d.capacity() > cap {
                    assert_eq!(d.capacity(), cap * 2, "step {step}: doubles");
                    check(&d, &oracle, &format!("step {step}, grown to {}", cap * 2));
                    growths += 1;
                    wrapped_growths += u32::from(wrapped);
                    tail = groups_homing_last(cap * 2, 4);
                }
            }
        }
        check(&d, &oracle, "at the end");
        assert!(
            wrapped_growths >= 6,
            "{wrapped_growths} of {growths} growths met a wrapped cluster"
        );
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d = FlatDirectory::default();
        assert!(set(&mut d, 42, cores(0b1010)).is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d.peek(42), Some(cores(0b1010)));
        assert_eq!(d.peek(43), None);
        assert_eq!(set(&mut d, 42, LineHolders::default()), cores(0b1010));
        assert_eq!(d.len(), 0);
        assert_eq!(d.peek(42), None);
    }

    #[test]
    fn entry_is_stable_across_reinsertion() {
        let mut d = FlatDirectory::with_capacity(8);
        d.update(1, |h| LineHolders { chips: 7, ..h });
        d.update(1, |h| LineHolders { cores: 3, ..h });
        assert_eq!(d.len(), 1);
        assert_eq!(d.peek(1), Some(LineHolders { cores: 3, chips: 7 }));
    }

    #[test]
    fn update_inserts_with_the_first_holder_and_removes_with_the_last() {
        let mut d = FlatDirectory::with_capacity(8);
        // No holder before, none after: nothing is inserted.
        assert!(d.update(5, |h| h).is_empty());
        assert_eq!((d.len(), d.peek(5)), (0, None));
        assert!(d.slots.iter().all(|&s| s == VACANT));
        // Line 0 is a key like any other: its slot is not all-zero.
        for line in [0u64, 5, LINE_MASK] {
            assert!(d
                .update(line, |_| LineHolders {
                    cores: 0,
                    chips: 1 << 15
                })
                .is_empty());
            assert_eq!(d.peek(line).unwrap().chips, 1 << 15);
        }
        assert_eq!(d.len(), 3);
        // Swapping the only holder for another keeps the entry...
        let before = d.update(5, |_| cores(1 << 63));
        assert_eq!(
            before,
            LineHolders {
                cores: 0,
                chips: 1 << 15
            }
        );
        assert_eq!((d.len(), d.peek(5)), (3, Some(cores(1 << 63))));
        // ...and taking the last one away removes it, leaving zero bytes.
        for line in [0u64, 5, LINE_MASK] {
            assert!(!d.update(line, |_| LineHolders::default()).is_empty());
            assert_eq!(d.peek(line), None);
        }
        assert!(d.is_empty());
        assert!(d.slots.iter().all(|&s| s == VACANT));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut d = FlatDirectory::with_capacity(8);
        for line in 0..1000u64 {
            set(&mut d, line, cores(line + 1));
            assert!(
                d.len() * 2 <= d.capacity(),
                "half full at most, line {line}"
            );
        }
        assert_eq!(d.len(), 1000);
        assert_eq!(d.capacity(), 2048);
        for line in 0..1000u64 {
            assert_eq!(d.peek(line), Some(cores(line + 1)), "line {line}");
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_keys_reachable() {
        // Small table, four lines of one group each: clusters form.
        let mut d = FlatDirectory::with_capacity(8);
        let keys: Vec<u64> = (0..4).map(|i| i * 8).collect();
        for &k in &keys {
            set(&mut d, k, cores(k + 1));
        }
        assert_eq!(d.capacity(), 8);
        // Remove keys one by one; the remainder must stay reachable.
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(set(&mut d, k, LineHolders::default()), cores(k + 1));
            assert!(set(&mut d, k, LineHolders::default()).is_empty());
            for &rest in &keys[n + 1..] {
                assert_eq!(d.peek(rest), Some(cores(rest + 1)), "key {rest}");
            }
        }
        assert!(d.is_empty());
    }

    #[test]
    fn churn_against_hashmap_reference() {
        // Single lines over a key space that widens as the run goes on, so
        // clusters form and dissolve at every table size on the way up.
        churn(0x1234_5678_9abc_def0, 100_000, |rng, step| {
            let line = rng.gen_range(0..8 + step / 16);
            (line, 1, rng.gen_range(0u8..3) == 0)
        });
    }

    #[test]
    fn churn_of_consecutive_line_runs_against_hashmap_reference() {
        // The same churn in the shape the machine produces: runs of
        // consecutive lines enter and leave together, so whole groups of
        // eight collide, sit displaced behind each other and shift back.
        churn(0x0fed_cba9_8765_4321, 20_000, |rng, step| {
            let start = rng.gen_range(0..16 + step);
            (start, rng.gen_range(1..64u64), rng.gen_range(0u8..5) < 2)
        });
    }

    #[test]
    fn growth_rehomes_a_cluster_wrapped_around_the_end_in_place() {
        // Fill every table size from 16 to 1024 slots to exactly half with
        // groups that all home to its last eight slots — one cluster from
        // there around the end to slot cap/2 - 9 — and let one more line
        // double it, under the oracle's eye.
        for shift in 5..=10 {
            let cap = 1usize << shift;
            let mut d = FlatDirectory::with_capacity(cap);
            let mut oracle = HashMap::new();
            let groups = groups_homing_last(cap, cap / 16 + 1);
            let mut lines = groups.iter().flat_map(|&base| base..base + 8);
            for line in lines.by_ref().take(cap / 2) {
                set(&mut d, line, cores(line + 1));
                oracle.insert(line, cores(line + 1));
            }
            assert_eq!((d.capacity(), d.len()), (cap, cap / 2), "full to the brim");
            assert!(wraps(&d));
            assert_eq!(d.slots[cap / 2 - 8], VACANT, "one cluster, ending here");
            check(&d, &oracle, &format!("{cap} slots, before"));
            let line = lines.next().unwrap();
            set(&mut d, line, cores(line + 1));
            oracle.insert(line, cores(line + 1));
            assert_eq!(d.capacity(), cap * 2);
            check(&d, &oracle, &format!("{cap} slots, after"));
        }
    }

    #[test]
    fn groups_wrap_around_the_end_of_the_slot_array() {
        // Four groups that all home to the last eight slots of a 64-slot
        // table: three of them spill past the end and wrap to slot 0. Remove
        // them group by group in every order; the rest must stay reachable
        // and the backward shift must carry entries back across the wrap.
        const CAP: usize = 64;
        let groups = groups_homing_last(CAP, 4);
        let orders: [[usize; 4]; 6] = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
            [0, 2, 1, 3],
            [3, 0, 2, 1],
        ];
        for order in orders {
            let mut d = FlatDirectory::with_capacity(CAP);
            let mut oracle = HashMap::new();
            for &base in &groups {
                for line in base..base + 8 {
                    assert_eq!(d.home(line), CAP - 8 + (line & 7) as usize);
                    set(&mut d, line, cores(line));
                    oracle.insert(line, cores(line));
                }
            }
            assert_eq!(d.capacity(), CAP, "32 lines fit 64 slots");
            assert!(wraps(&d));
            check(&d, &oracle, "wrap: filled");
            for (n, &gi) in order.iter().enumerate() {
                // Odd lines first, so holes open in the middle of the cluster.
                for line in [1, 3, 5, 7, 0, 2, 4, 6].map(|i| groups[gi] + i) {
                    let gone = set(&mut d, line, LineHolders::default());
                    assert_eq!(
                        Some(gone),
                        oracle.remove(&line),
                        "order {order:?}: {line:#x}"
                    );
                    assert!(set(&mut d, line, LineHolders::default()).is_empty());
                }
                check(&d, &oracle, &format!("wrap: order {order:?} after {n}"));
            }
            assert!(d.is_empty());
        }
    }

    #[test]
    fn churn_of_runs_at_the_growth_threshold() {
        // Sequential lines up to exactly half full, then remove-a-run /
        // insert-a-fresh-run so the table stays one insertion short of
        // doubling: whole groups sit displaced behind other groups and
        // every removal shifts a cluster back.
        let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0005);
        let mut d = FlatDirectory::with_capacity(512);
        let mut oracle = HashMap::new();
        let mut next_line = 0u64;
        let mut refill = |d: &mut FlatDirectory, oracle: &mut HashMap<u64, LineHolders>| {
            while oracle.len() < 256 {
                set(d, next_line, cores(next_line + 1));
                oracle.insert(next_line, cores(next_line + 1));
                next_line += 1;
            }
            next_line
        };
        refill(&mut d, &mut oracle);
        for step in 0..4_000 {
            let newest = refill(&mut d, &mut oracle);
            let len = rng.gen_range(1..12u64);
            let start = rng.gen_range(newest.saturating_sub(1024)..newest - len);
            for line in start..start + len {
                let gone = set(&mut d, line, LineHolders::default());
                assert_eq!(
                    gone,
                    oracle.remove(&line).unwrap_or_default(),
                    "step {step}"
                );
            }
            if step % 500 == 0 {
                check(&d, &oracle, &format!("threshold churn step {step}"));
            }
        }
        assert_eq!(
            d.capacity(),
            512,
            "churn at half full must not grow the table"
        );
        check(&d, &oracle, "threshold churn");
    }

    #[test]
    fn eight_consecutive_lines_home_to_eight_adjacent_slots() {
        for cap in [64usize, 1 << 19] {
            let d = FlatDirectory::with_capacity(cap);
            for base in [0u64, 0x40, 0x1234_5678, (1 << 40) + 8] {
                let first = d.home(base);
                assert_eq!(first % 8, 0, "a group starts on a multiple of eight");
                for i in 0..8 {
                    assert_eq!(d.home(base + i), first + i as usize, "line {base:#x}+{i}");
                }
            }
        }
        // Neighbouring groups are scattered, not adjacent.
        let d = FlatDirectory::with_capacity(1 << 16);
        assert_ne!(d.home(8), d.home(0) + 8);
    }

    #[test]
    fn a_new_home_is_the_old_one_or_that_plus_the_old_capacity() {
        let (small, large) = (
            FlatDirectory::with_capacity(1 << 10),
            FlatDirectory::with_capacity(1 << 11),
        );
        let mut moved = 0;
        for line in (0..4096u64).map(|i| i * 0x9e5 + (i << 30)) {
            let (old, new) = (small.home(line), large.home(line));
            assert!(new == old || new == old + (1 << 10), "line {line:#x}");
            moved += usize::from(new != old);
        }
        assert!((1024..3072).contains(&moved), "{moved} of 4096 moved");
    }

    #[test]
    fn sole_holder_semantics() {
        let h = LineHolders {
            cores: 1 << 5,
            chips: 1 << 1,
        };
        assert!(h.sole_holder(5, 1));
        assert!(!h.sole_holder(5, 2), "foreign-chip L3 copy blocks");
        assert!(!h.sole_holder(4, 1));
        let shared = LineHolders {
            cores: (1 << 5) | (1 << 6),
            chips: 0,
        };
        assert!(!shared.sole_holder(5, 1));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut d = FlatDirectory::with_capacity(8);
        for line in 0..100u64 {
            set(&mut d, line, cores(1));
        }
        let cap = d.capacity();
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.capacity(), cap);
        assert_eq!(d.peek(5), None);
        assert!(d.slots.iter().all(|&s| s == VACANT));
        // Clearing an empty table is a no-op that keeps the capacity too.
        d.clear();
        assert_eq!((d.len(), d.capacity()), (0, cap));
    }

    #[test]
    fn probes_accumulate() {
        let mut d = FlatDirectory::default();
        assert_eq!(d.probes(), 0);
        set(&mut d, 9, cores(1));
        let after_insert = d.probes();
        assert!(after_insert > 0);
        d.peek(9);
        d.peek(10);
        assert_eq!(d.probes(), after_insert, "peek must not count");
        d.update(10, |h| h);
        assert!(d.probes() > after_insert, "a miss counts");
    }
}
