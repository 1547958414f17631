//! Set-associative LRU caches at cache-line granularity.
//!
//! The simulator tracks *which* lines are resident in each cache so that
//! capacity effects — the heart of the paper's argument — are modelled
//! faithfully: a thread scheduler replicates hot data in many caches and
//! spills the rest to DRAM, while an O2 scheduler packs distinct objects
//! into distinct caches.
//!
//! ## Representation
//!
//! A cache is one flat slab of `sets × ways` slots (`Box<[Way]>`): the
//! slots of set `s` are `slab[s * ways .. (s + 1) * ways]`. Within a set
//! the valid ways form a prefix kept in recency order — a way's index *is*
//! its per-set LRU age: index 0 is the most recently used, the last valid
//! index the least, and vacant slots trail the prefix. A touch rotates the
//! way to the front (a no-op when it already is the MRU, the overwhelmingly
//! common case) and an eviction always takes the last way. A probe tests
//! each way once: a vacant slot matches no line, so it needs no test of its
//! own.
//!
//! A fill whose caller has just seen the probe miss — every fill on
//! [`crate::machine::Machine`]'s miss path — goes through
//! [`Cache::insert_absent`], which does not scan at all: the set is full
//! exactly when its last way is valid, and rotating the whole set one slot
//! towards the LRU end drops either that victim or a trailing vacant slot.
//! [`Cache::insert`] is the same rotation behind a presence scan.
//!
//! Compared to the previous `Vec<Vec<Way>>` + global-tick + reverse-index
//! `HashMap` representation this makes a probe one bounded scan of
//! contiguous memory with zero allocation after construction, and set
//! selection a mask when the set count is a power of two. Recency order
//! picks the *same* victims as global-timestamp LRU (only the relative
//! touch order within a set matters), which `tests/cache_equivalence.rs`
//! pins against the old implementation.

use crate::config::CacheGeometry;

/// A cache-line address (byte address divided by the line size).
pub type LineAddr = u64;

/// One slot of the slab: the line address packed with its dirty bit and
/// exclusivity hint into 8 bytes (`line << 2 | excl << 1 | dirty`). Line
/// addresses are byte addresses divided by the line size, so the top two
/// bits are always free, and the all-ones pattern is unreachable and
/// marks a vacant slot. Halving the slot size halves the slab footprint,
/// which keeps hot sets resident in the *host's* caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way(u64);

impl Way {
    const DIRTY: u64 = 0b01;
    /// Exclusivity hint maintained by [`crate::machine::Machine`]: set when
    /// this core is known to be the line's only holder, letting a write hit
    /// skip the coherence directory. Never affects replacement decisions.
    const EXCL: u64 = 0b10;
    const VACANT: Way = Way(u64::MAX);

    #[inline]
    fn new(line: LineAddr, dirty: bool) -> Self {
        Way(line << 2 | dirty as u64)
    }

    #[inline]
    fn line(self) -> LineAddr {
        self.0 >> 2
    }

    /// Whether this slot holds `line`. A vacant slot matches no real line
    /// (its line bits decode above any byte-address / line-size value).
    #[inline]
    fn is(self, line: LineAddr) -> bool {
        self.0 >> 2 == line
    }

    #[inline]
    fn is_vacant(self) -> bool {
        self.0 == u64::MAX
    }

    #[inline]
    fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    #[inline]
    fn excl(self) -> bool {
        self.0 & Self::EXCL != 0
    }
}

/// A single set-associative, write-back, LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets × ways` slots, set-major; each set is an MRU-first prefix.
    slab: Box<[Way]>,
    ways: usize,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (mask indexing), else 0.
    set_mask: u64,
    /// Whether `set_mask` is usable instead of `%`.
    pow2: bool,
    /// Number of resident lines (kept in sync with `slab`).
    resident: usize,
}

/// Result of probing a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line is resident.
    Hit,
    /// The line is not resident.
    Miss,
}

/// A line evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The line that was evicted.
    pub line: LineAddr,
    /// Whether the evicted line was dirty (had been written).
    pub dirty: bool,
}

impl Cache {
    /// Creates an empty cache with the given geometry and line size.
    pub fn new(geometry: CacheGeometry, line_size: u64) -> Self {
        let sets = geometry.sets(line_size) as usize;
        let ways = geometry.associativity as usize;
        let pow2 = sets.is_power_of_two();
        Self {
            slab: vec![Way::VACANT; sets * ways].into_boxed_slice(),
            ways,
            sets,
            set_mask: sets as u64 - 1,
            pow2,
            resident: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        if self.pow2 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// The slab slice holding `line`'s set.
    #[inline]
    fn set_slice_mut(&mut self, line: LineAddr) -> &mut [Way] {
        let base = self.set_of(line) * self.ways;
        &mut self.slab[base..base + self.ways]
    }

    #[inline]
    fn set_slice(&self, line: LineAddr) -> &[Way] {
        let base = self.set_of(line) * self.ways;
        &self.slab[base..base + self.ways]
    }

    /// Position of `line` in its set, or `None`. One test per way: a vacant
    /// way matches no line.
    #[inline]
    fn position(set: &[Way], line: LineAddr) -> Option<usize> {
        set.iter().position(|w| w.is(line))
    }

    /// Moves the way at `idx` to the front of its set (the MRU slot).
    #[inline]
    fn move_to_front(set: &mut [Way], idx: usize) {
        if idx != 0 {
            let w = set[idx];
            set.copy_within(0..idx, 1);
            set[0] = w;
        }
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Whether the line is currently resident (does not update LRU state).
    pub fn contains(&self, line: LineAddr) -> bool {
        Self::position(self.set_slice(line), line).is_some()
    }

    /// Probes for a line, updating LRU state on a hit.
    #[inline]
    pub fn probe_and_touch(&mut self, line: LineAddr) -> Probe {
        let set = self.set_slice_mut(line);
        match Self::position(set, line) {
            Some(idx) => {
                Self::move_to_front(set, idx);
                Probe::Hit
            }
            None => Probe::Miss,
        }
    }

    /// Write-hit fast path: probe, touch, and set the dirty bit in a single
    /// set scan. Returns the way's exclusivity hint on a hit.
    #[inline]
    pub fn touch_write(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_slice_mut(line);
        let idx = Self::position(set, line)?;
        Self::move_to_front(set, idx);
        set[0].0 |= Way::DIRTY;
        Some(set[0].excl())
    }

    /// Marks a resident line dirty (a write hit). Returns `false` if the
    /// line is not resident. Does not update LRU state.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let set = self.set_slice_mut(line);
        match Self::position(set, line) {
            Some(idx) => {
                set[idx].0 |= Way::DIRTY;
                true
            }
            None => false,
        }
    }

    /// Sets the exclusivity hint on a resident line. Returns whether the
    /// line was resident.
    pub fn set_excl(&mut self, line: LineAddr) -> bool {
        let set = self.set_slice_mut(line);
        match Self::position(set, line) {
            Some(idx) => {
                set[idx].0 |= Way::EXCL;
                true
            }
            None => false,
        }
    }

    /// Clears the exclusivity hint on a line, if resident.
    pub fn clear_excl(&mut self, line: LineAddr) {
        let set = self.set_slice_mut(line);
        if let Some(idx) = Self::position(set, line) {
            set[idx].0 &= !Way::EXCL;
        }
    }

    /// Inserts a line, evicting the LRU way of its set if the set is full.
    ///
    /// Inserting a line that is already resident only refreshes its LRU
    /// position and dirty bit; no eviction occurs. Newly inserted lines
    /// carry no exclusivity hint.
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        let set = self.set_slice_mut(line);
        if let Some(idx) = Self::position(set, line) {
            set[idx].0 |= dirty as u64 * Way::DIRTY;
            Self::move_to_front(set, idx);
            return None;
        }
        self.insert_absent(line, dirty)
    }

    /// [`Cache::insert`] for a line the caller knows is not resident (its
    /// probe has just missed, or an exact index says so): no presence scan.
    /// The set is full exactly when its last way is valid; rotating the
    /// whole set one slot drops that LRU victim, or a trailing vacant slot
    /// when there is room. Same victim and same slab as `insert`.
    pub fn insert_absent(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(
            !self.contains(line),
            "insert_absent: line {line:#x} is resident"
        );
        let ways = self.ways;
        let set = self.set_slice_mut(line);
        let last = set[ways - 1];
        set.copy_within(0..ways - 1, 1);
        set[0] = Way::new(line, dirty);
        if last.is_vacant() {
            self.resident += 1;
            None
        } else {
            Some(Evicted {
                line: last.line(),
                dirty: last.dirty(),
            })
        }
    }

    /// Removes a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let ways = self.ways;
        let set = self.set_slice_mut(line);
        let idx = Self::position(set, line)?;
        let dirty = set[idx].dirty();
        // Close the gap so the valid prefix stays dense and in order.
        set.copy_within(idx + 1..ways, idx);
        set[ways - 1] = Way::VACANT;
        self.resident -= 1;
        Some(dirty)
    }

    /// Removes every line from the cache.
    pub fn flush(&mut self) {
        self.slab.fill(Way::VACANT);
        self.resident = 0;
    }

    /// Iterates over every resident line.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slab
            .iter()
            .filter(|w| !w.is_vacant())
            .map(|w| w.line())
    }

    /// Iterates over the resident lines that carry the exclusivity hint
    /// (for [`crate::machine::Machine::audit_coherence`]).
    pub fn excl_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slab
            .iter()
            .filter(|w| !w.is_vacant() && w.excl())
            .map(|w| w.line())
    }

    /// Occupancy as a fraction of capacity (0.0–1.0).
    pub fn occupancy(&self) -> f64 {
        if self.capacity_lines() == 0 {
            0.0
        } else {
            self.resident as f64 / self.capacity_lines() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 8 lines, 2-way: 4 sets.
        Cache::new(CacheGeometry::new(8 * 64, 2), 64)
    }

    #[test]
    fn insert_then_probe_hits() {
        let mut c = small();
        assert_eq!(c.probe_and_touch(5), Probe::Miss);
        assert!(c.insert(5, false).is_none());
        assert_eq!(c.probe_and_touch(5), Probe::Hit);
        assert!(c.contains(5));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn capacity_and_sets() {
        let c = small();
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Two ways per set.
        c.insert(0, false);
        c.insert(4, false);
        // Touch 0 so that 4 becomes the LRU victim.
        c.probe_and_touch(0);
        let evicted = c.insert(8, false).expect("set was full");
        assert_eq!(evicted.line, 4);
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn reinserting_resident_line_does_not_evict() {
        let mut c = small();
        c.insert(0, false);
        c.insert(4, false);
        assert!(c.insert(0, true).is_none());
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = small();
        c.insert(0, true);
        c.insert(4, false);
        c.probe_and_touch(4);
        let evicted = c.insert(8, false).unwrap();
        assert_eq!(evicted.line, 0);
        assert!(evicted.dirty);
    }

    #[test]
    fn mark_dirty_only_hits_resident_lines() {
        let mut c = small();
        assert!(!c.mark_dirty(3));
        c.insert(3, false);
        assert!(c.mark_dirty(3));
        let d = c.invalidate(3).unwrap();
        assert!(d);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.insert(7, false);
        assert_eq!(c.invalidate(7), Some(false));
        assert_eq!(c.invalidate(7), None);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        for l in 0..8 {
            c.insert(l, false);
        }
        assert_eq!(c.resident_lines(), 8);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.occupancy(), 0.0);
    }

    #[test]
    fn occupancy_fraction() {
        let mut c = small();
        c.insert(1, false);
        c.insert(2, false);
        assert!((c.occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lines_iterator_reports_all_resident() {
        let mut c = small();
        c.insert(1, false);
        c.insert(2, false);
        c.insert(3, false);
        let mut lines: Vec<_> = c.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn touch_write_sets_dirty_and_reports_exclusivity() {
        let mut c = small();
        assert_eq!(c.touch_write(5), None);
        c.insert(5, false);
        assert_eq!(c.touch_write(5), Some(false));
        // The write made it dirty.
        assert_eq!(c.invalidate(5), Some(true));

        c.insert(6, false);
        assert!(c.set_excl(6));
        assert_eq!(c.touch_write(6), Some(true));
        c.clear_excl(6);
        assert_eq!(c.touch_write(6), Some(false));
    }

    #[test]
    fn excl_hint_does_not_survive_eviction_or_reinsert() {
        let mut c = small();
        c.insert(0, false);
        c.set_excl(0);
        // Reinsertion keeps residency; hint untouched by the LRU refresh.
        c.insert(0, false);
        assert_eq!(c.touch_write(0), Some(true));
        // Evict line 0 out of set 0 (2 ways): newly inserted lines carry
        // no hint, and a refill of 0 starts clean.
        c.insert(4, false);
        c.insert(8, false);
        assert!(!c.contains(0));
        c.insert(0, false);
        assert_eq!(c.touch_write(0), Some(false));
    }

    #[test]
    fn set_excl_misses_nonresident_lines() {
        let mut c = small();
        assert!(!c.set_excl(3));
        c.clear_excl(3); // no-op, must not panic
    }

    #[test]
    fn recency_order_evicts_the_true_lru() {
        // 1 set, 4 ways: pure LRU. Exercise a few touch orders and check
        // eviction picks the true LRU each time.
        let mut c = Cache::new(CacheGeometry::new(4 * 64, 4), 64);
        for l in 0..4 {
            c.insert(l, false);
        }
        c.probe_and_touch(0);
        c.probe_and_touch(2);
        c.probe_and_touch(0);
        // LRU order (oldest first) is now 1, 3, 2, 0.
        assert_eq!(c.insert(10, false).unwrap().line, 1);
        assert_eq!(c.insert(11, false).unwrap().line, 3);
        assert_eq!(c.insert(12, false).unwrap().line, 2);
        assert_eq!(c.insert(13, false).unwrap().line, 0);
    }

    #[test]
    fn a_vacant_way_matches_no_line() {
        // `position` tests each way once, with no vacancy check: nothing is
        // found in a flushed set or behind the valid prefix of a partly
        // filled one, whatever line is asked for.
        let mut c = Cache::new(CacheGeometry::new(4 * 64, 4), 64);
        let top = u64::MAX >> 2; // the vacant pattern's line bits
        for l in 0..4 {
            c.insert(l, true);
        }
        c.flush();
        for line in [0, 1, 3, top - 1, top >> 1] {
            assert!(!c.contains(line), "flushed set matched {line:#x}");
            assert_eq!(c.probe_and_touch(line), Probe::Miss);
        }
        c.insert(1, false);
        c.insert(2, false);
        assert!(c.contains(1) && c.contains(2));
        for line in [0, 3, 5, top - 1] {
            assert!(!c.contains(line), "partly filled set matched {line:#x}");
            assert_eq!(c.invalidate(line), None);
        }
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn insert_absent_fills_vacant_ways_then_evicts_the_lru() {
        let mut c = Cache::new(CacheGeometry::new(4 * 64, 4), 64);
        for l in 0..4 {
            assert!(c.insert_absent(l, l == 0).is_none(), "way {l} was free");
        }
        assert_eq!(c.resident_lines(), 4);
        c.probe_and_touch(0);
        // Recency (MRU first): 0, 3, 2, 1.
        assert_eq!(
            c.insert_absent(10, false),
            Some(Evicted {
                line: 1,
                dirty: false
            })
        );
        assert_eq!(c.insert_absent(11, false).unwrap().line, 2);
        assert_eq!(c.resident_lines(), 4);
        // A hole left by an invalidation is filled before anything is evicted.
        c.invalidate(10);
        assert!(c.insert_absent(12, false).is_none());
        assert_eq!(
            c.insert_absent(13, false),
            Some(Evicted {
                line: 3,
                dirty: false
            })
        );
        assert_eq!(
            c.insert_absent(14, false).unwrap(),
            Evicted {
                line: 0,
                dirty: true
            }
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is resident")]
    fn insert_absent_rejects_a_resident_line() {
        let mut c = small();
        c.insert(5, false);
        c.insert_absent(5, false);
    }

    #[test]
    fn excl_lines_skips_vacant_ways() {
        let mut c = small();
        assert_eq!(c.excl_lines().count(), 0, "vacant ways carry no hint");
        c.insert(1, false);
        c.insert(2, false);
        c.set_excl(2);
        assert_eq!(c.excl_lines().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn invalidate_in_the_middle_keeps_order_dense() {
        let mut c = Cache::new(CacheGeometry::new(4 * 64, 4), 64);
        for l in 0..4 {
            c.insert(l, false);
        }
        // Recency (MRU first): 3, 2, 1, 0. Remove 2.
        c.invalidate(2);
        assert_eq!(c.resident_lines(), 3);
        // Next two evictions: 0 then 1.
        assert!(c.insert(10, false).is_none(), "set has a free way");
        assert_eq!(c.insert(11, false).unwrap().line, 0);
        assert_eq!(c.insert(12, false).unwrap().line, 1);
    }
}
