//! The flat coherence directory: an open-addressed hash table from
//! [`LineAddr`] to [`LineHolders`].
//!
//! Every simulated cache miss and every write consults the directory, so it
//! sits squarely on the memory-system hot path. The table is an
//! [`o2_collections::FlatTable`] — the workspace's shared open-addressed
//! recipe (power-of-two capacity, Fibonacci hashing, linear probing,
//! tombstone-free backward-shift deletion, inline slots), which this
//! directory originally hand-rolled before the recipe was extracted.
//! Deletion matters here because lines enter and leave the directory with
//! every eviction; backward-shifting keeps probe chains from growing under
//! that churn.
//!
//! ## An exact index
//!
//! [`crate::machine::Machine`] keeps the directory *exact*: a core's bit is
//! set if and only if the line is in that core's L2 (the L1 is a subset of
//! the L2), a chip's bit if and only if the line is in that chip's L3, and
//! no entry is empty. The miss path relies on it — a chip bit decides the
//! L3 hit without scanning the 32-way set — and
//! `Machine::audit_coherence` checks it.
//!
//! ## Keys are grouped by eight
//!
//! Lines are touched in runs: a directory scan walks 32 KB, an object
//! 4 KB, and the victims those fills push out were themselves filled in
//! runs. Scattering every line on its own makes each of a miss's
//! look-ups a host cache miss, so the table's key ([`LineKey`]) hashes
//! the line's *group* (`line >> 3`) and keeps the low three bits: eight
//! consecutive lines home to eight adjacent slots, 192 bytes, three host
//! cache lines that the next seven misses of the run find warm.
//!
//! Eight is a constant, not a knob. Two groups that collide displace each
//! other by a whole group, so chains grow with the group, and how much
//! that costs depends on how full the table is. On `lookup_sweep` (table
//! half full) a line access costs 2.1 slot inspections ungrouped and 1.9
//! grouped by 8, and grouping is worth about +40 % host events per second.
//! On `scale_zipf` (table about 7/8 full) it costs 8 ungrouped and 18 / 33
//! / 63 / 123 with groups of 4 / 8 / 16 / 32: inspections of adjacent
//! slots are cheap and host cache misses are not, so 8 runs level with
//! ungrouped there, 16 behind it, and 32 a third slower.
//!
//! The table counts its probes (slot inspections) so
//! `Machine::mem_stats()` can report directory pressure; read the count
//! with the above in mind — fewer look-ups, longer chains.

use o2_collections::{FlatKey, FlatTable, FIB_MULT};

use crate::cache::LineAddr;

/// `log2` of the lines that share one run of adjacent home slots.
const GROUP_BITS: u32 = 3;

/// The directory's table key: a line address whose home slot is
/// `fib(line >> 3) << 3 | line & 7` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineKey(LineAddr);

impl FlatKey for LineKey {
    const EMPTY: Self = LineKey(u64::MAX);

    /// The group's Fibonacci hash with the three lowest home bits (the
    /// table takes the home slot from bit 32 up) replaced by the line's.
    #[inline]
    fn hash(self) -> u64 {
        const WITHIN: u64 = (1 << GROUP_BITS) - 1;
        let group = (self.0 >> GROUP_BITS).wrapping_mul(FIB_MULT);
        group & !(WITHIN << 32) | (self.0 & WITHIN) << 32
    }
}

/// Which caches hold a line right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineHolders {
    /// Bitmask of cores whose private (L1/L2) caches hold the line.
    pub cores: u64,
    /// Bitmask of chips whose shared L3 holds the line.
    pub chips: u64,
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
        self.cores == 1u64 << core && self.chips & !(1u64 << chip) == 0
    }
}

/// Open-addressed `LineAddr → LineHolders` table (see module docs). Real
/// line addresses are byte addresses divided by the line size, so the
/// table's `u64::MAX` vacant-slot sentinel is unreachable.
#[derive(Debug, Clone)]
pub struct FlatDirectory {
    table: FlatTable<LineKey, LineHolders>,
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
        Self {
            table: FlatTable::with_capacity(cap),
        }
    }

    /// Number of lines currently tracked.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the directory tracks no lines at all.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Allocated slots (power of two).
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Cumulative slot inspections across all operations.
    pub fn probes(&self) -> u64 {
        self.table.probes()
    }

    /// The holders of a line, copied, or `None` if untracked.
    #[inline]
    pub fn get(&mut self, line: LineAddr) -> Option<LineHolders> {
        self.table.get(LineKey(line)).copied()
    }

    /// Like [`FlatDirectory::get`] but without counting probes: for
    /// diagnostics and assertions that must not skew
    /// [`FlatDirectory::probes`].
    pub fn peek(&self, line: LineAddr) -> Option<LineHolders> {
        self.table.peek(LineKey(line)).copied()
    }

    /// Mutable access to the holders of a line, if tracked.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut LineHolders> {
        self.table.get_mut(LineKey(line))
    }

    /// Mutable access to the holders of a line, inserting an empty entry if
    /// the line is untracked (the equivalent of `entry(..).or_default()`).
    #[inline]
    pub fn entry(&mut self, line: LineAddr) -> &mut LineHolders {
        self.table.entry(LineKey(line))
    }

    /// Removes a line, returning its holders if it was tracked. Deletion
    /// backward-shifts the following cluster — no tombstones.
    pub fn remove(&mut self, line: LineAddr) -> Option<LineHolders> {
        self.table.remove(LineKey(line))
    }

    /// Drops every entry (capacity is retained).
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Iterates over every tracked `(line, holders)` pair in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, LineHolders)> + '_ {
        self.table.iter().map(|(key, &holders)| (key.0, holders))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d = FlatDirectory::default();
        d.entry(42).cores = 0b1010;
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(42).unwrap().cores, 0b1010);
        assert_eq!(d.get(43), None);
        let h = d.remove(42).unwrap();
        assert_eq!(h.cores, 0b1010);
        assert_eq!(d.len(), 0);
        assert_eq!(d.get(42), None);
    }

    #[test]
    fn entry_is_stable_across_reinsertion() {
        let mut d = FlatDirectory::with_capacity(8);
        d.entry(1).chips = 7;
        d.entry(1).cores = 3;
        assert_eq!(d.len(), 1);
        let h = d.get(1).unwrap();
        assert_eq!((h.cores, h.chips), (3, 7));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut d = FlatDirectory::with_capacity(8);
        for line in 0..1000u64 {
            d.entry(line).cores = line;
        }
        assert_eq!(d.len(), 1000);
        assert!(d.capacity() >= 1024);
        for line in 0..1000u64 {
            assert_eq!(d.get(line).unwrap().cores, line, "line {line}");
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_keys_reachable() {
        // Small table, many keys: every cluster shape gets exercised.
        let mut d = FlatDirectory::with_capacity(8);
        let keys: Vec<u64> = (0..6).map(|i| i * 8).collect();
        for &k in &keys {
            d.entry(k).cores = k + 1;
        }
        // Remove keys one by one; the remainder must stay reachable.
        for (n, &k) in keys.iter().enumerate() {
            assert!(d.remove(k).is_some(), "key {k}");
            assert_eq!(d.remove(k), None);
            for &rest in &keys[n + 1..] {
                assert_eq!(d.get(rest).unwrap().cores, rest + 1, "key {rest}");
            }
        }
        assert!(d.is_empty());
    }

    #[test]
    fn churn_against_hashmap_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut d = FlatDirectory::with_capacity(8);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic seeded churn: inserts and removals over a small key
        // space so clusters form and dissolve repeatedly.
        let mut rng = StdRng::seed_from_u64(0x1234_5678_9abc_def0);
        let mut next = move || rng.gen::<u64>();
        for step in 0..100_000u64 {
            let key = next() % 512;
            if next() % 3 == 0 {
                let a = d.remove(key).map(|h| h.cores);
                let b = reference.remove(&key);
                assert_eq!(a, b, "remove diverged at step {step}");
            } else {
                d.entry(key).cores = step;
                reference.insert(key, step);
            }
            assert_eq!(d.len(), reference.len(), "len diverged at step {step}");
        }
        for (&k, &v) in &reference {
            assert_eq!(d.get(k).map(|h| h.cores), Some(v), "key {k}");
        }
    }

    #[test]
    fn churn_of_consecutive_line_runs_against_hashmap_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        // The same churn in the shape the machine produces: runs of
        // consecutive lines enter and leave together, so whole groups of
        // eight collide, sit displaced behind each other and shift back.
        let mut d = FlatDirectory::with_capacity(8);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(0x0fed_cba9_8765_4321);
        for step in 0..20_000u64 {
            let start = rng.gen_range(0..4096u64);
            let len = rng.gen_range(1..64u64);
            let remove = rng.gen_range(0u8..5) < 2;
            for line in start..start + len {
                if remove {
                    let a = d.remove(line).map(|h| h.cores);
                    assert_eq!(a, reference.remove(&line), "remove diverged at step {step}");
                } else {
                    d.entry(line).cores = step;
                    reference.insert(line, step);
                }
            }
            assert_eq!(d.len(), reference.len(), "len diverged at step {step}");
        }
        for (&k, &v) in &reference {
            assert_eq!(d.peek(k).map(|h| h.cores), Some(v), "line {k}");
        }
        let mut listed: Vec<u64> = d.iter().map(|(line, _)| line).collect();
        listed.sort_unstable();
        let mut expected: Vec<u64> = reference.keys().copied().collect();
        expected.sort_unstable();
        assert_eq!(listed, expected, "iter() hands back line addresses");
    }

    #[test]
    fn eight_consecutive_lines_home_to_eight_adjacent_slots() {
        for cap in [64usize, 1 << 19] {
            for base in [0u64, 0x40, 0x1234_5678, (1 << 40) + 8] {
                let base = base & !7;
                let home = |line: u64| (LineKey(line).hash() >> 32) as usize & (cap - 1);
                let first = home(base);
                assert_eq!(first % 8, 0, "a group starts on a multiple of eight");
                for i in 0..8 {
                    assert_eq!(home(base + i), first + i as usize, "line {base:#x}+{i}");
                }
            }
        }
        // Neighbouring groups are scattered, not adjacent.
        let home = |line: u64| (LineKey(line).hash() >> 32) as usize & 0xffff;
        assert_ne!(home(8), home(0) + 8);
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
            d.entry(line);
        }
        let cap = d.capacity();
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.capacity(), cap);
        assert_eq!(d.get(5), None);
    }

    #[test]
    fn probes_accumulate() {
        let mut d = FlatDirectory::default();
        let before = d.probes();
        d.entry(9);
        d.get(9);
        d.get(10);
        assert!(d.probes() > before);
    }
}
