//! Old-vs-new `Cache` equivalence, in the seeded-loop style of
//! `tests/properties.rs`.
//!
//! `reference` below is the pre-refactor cache verbatim: `Vec<Vec<Way>>`
//! sets, a global monotonic LRU tick, a `HashMap` reverse index and modulo
//! set selection. The production `o2_sim::Cache` (flat slab, per-set LRU
//! ages, mask indexing) is driven through the same ~10⁵ random
//! probe/insert/invalidate/mark-dirty/flush operations and must return the
//! identical `Probe`/`Evicted` sequence and the identical resident set at
//! every step. Each trace is replayed a second time with every insertion
//! of a non-resident line going through `Cache::insert_absent` — the
//! scan-free fill of the machine's miss path — against the same reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::sim::{Cache, CacheGeometry, LineAddr, Probe};

/// The pre-refactor implementation, kept as the executable specification.
mod reference {
    use std::collections::HashMap;

    use o2_suite::sim::{CacheGeometry, Evicted, LineAddr, Probe};

    #[derive(Debug, Clone, Copy)]
    struct Way {
        line: LineAddr,
        last_use: u64,
        dirty: bool,
    }

    #[derive(Debug, Clone)]
    pub struct RefCache {
        sets: Vec<Vec<Way>>,
        ways: usize,
        tick: u64,
        resident: usize,
        index: HashMap<LineAddr, usize>,
    }

    impl RefCache {
        pub fn new(geometry: CacheGeometry, line_size: u64) -> Self {
            let sets = geometry.sets(line_size) as usize;
            let ways = geometry.associativity as usize;
            Self {
                sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
                ways,
                tick: 0,
                resident: 0,
                index: HashMap::new(),
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        pub fn resident_lines(&self) -> usize {
            self.resident
        }

        pub fn contains(&self, line: LineAddr) -> bool {
            self.index.contains_key(&line)
        }

        pub fn probe_and_touch(&mut self, line: LineAddr) -> Probe {
            self.tick += 1;
            let set_idx = self.set_of(line);
            let tick = self.tick;
            let set = &mut self.sets[set_idx];
            if let Some(way) = set.iter_mut().find(|w| w.line == line) {
                way.last_use = tick;
                Probe::Hit
            } else {
                Probe::Miss
            }
        }

        pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
            let set_idx = self.set_of(line);
            if let Some(way) = self.sets[set_idx].iter_mut().find(|w| w.line == line) {
                way.dirty = true;
                true
            } else {
                false
            }
        }

        pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
            self.tick += 1;
            let tick = self.tick;
            let set_idx = self.set_of(line);
            let ways = self.ways;
            let set = &mut self.sets[set_idx];

            if let Some(way) = set.iter_mut().find(|w| w.line == line) {
                way.last_use = tick;
                way.dirty |= dirty;
                return None;
            }

            let mut evicted = None;
            if set.len() >= ways {
                let (victim_idx, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.last_use)
                    .expect("non-empty set");
                let victim = set.swap_remove(victim_idx);
                self.index.remove(&victim.line);
                self.resident -= 1;
                evicted = Some(Evicted {
                    line: victim.line,
                    dirty: victim.dirty,
                });
            }

            set.push(Way {
                line,
                last_use: tick,
                dirty,
            });
            self.index.insert(line, set_idx);
            self.resident += 1;
            evicted
        }

        pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
            let set_idx = self.index.remove(&line)?;
            let set = &mut self.sets[set_idx];
            let pos = set.iter().position(|w| w.line == line)?;
            let way = set.swap_remove(pos);
            self.resident -= 1;
            Some(way.dirty)
        }

        pub fn flush(&mut self) {
            for set in &mut self.sets {
                set.clear();
            }
            self.index.clear();
            self.resident = 0;
        }

        pub fn lines_sorted(&self) -> Vec<LineAddr> {
            let mut v: Vec<LineAddr> = self
                .sets
                .iter()
                .flat_map(|s| s.iter().map(|w| w.line))
                .collect();
            v.sort_unstable();
            v
        }
    }
}

fn lines_sorted(c: &Cache) -> Vec<LineAddr> {
    let mut v: Vec<LineAddr> = c.lines().collect();
    v.sort_unstable();
    v
}

/// Drives both implementations through `ops` random operations and asserts
/// identical observable behaviour at every step, once with `Cache::insert`
/// throughout and once with `Cache::insert_absent` wherever it applies.
fn drive(geometry: CacheGeometry, line_space: u64, ops: usize, seed: u64) {
    drive_with(geometry, line_space, ops, seed, false);
    drive_with(geometry, line_space, ops, seed, true);
}

fn drive_with(geometry: CacheGeometry, line_space: u64, ops: usize, seed: u64, absent: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut new = Cache::new(geometry, 64);
    let mut old = reference::RefCache::new(geometry, 64);
    assert_eq!(new.capacity_lines(), geometry.lines(64) as usize);

    for step in 0..ops {
        let line = rng.gen_range(0..line_space);
        match rng.gen_range(0u8..100) {
            0..=34 => {
                let a = new.probe_and_touch(line);
                let b = old.probe_and_touch(line);
                assert_eq!(a, b, "probe diverged at step {step} line {line}");
            }
            35..=74 => {
                let dirty = rng.gen_range(0u8..2) == 0;
                let a = if absent && !new.contains(line) {
                    new.insert_absent(line, dirty)
                } else {
                    new.insert(line, dirty)
                };
                let b = old.insert(line, dirty);
                assert_eq!(a, b, "eviction diverged at step {step} line {line}");
            }
            75..=89 => {
                let a = new.invalidate(line);
                let b = old.invalidate(line);
                assert_eq!(a, b, "invalidate diverged at step {step} line {line}");
            }
            90..=97 => {
                let a = new.mark_dirty(line);
                let b = old.mark_dirty(line);
                assert_eq!(a, b, "mark_dirty diverged at step {step} line {line}");
            }
            _ => {
                // Rare full flush so LRU state restarts mid-sequence.
                new.flush();
                old.flush();
            }
        }
        assert_eq!(new.resident_lines(), old.resident_lines(), "step {step}");
        assert_eq!(new.contains(line), old.contains(line), "step {step}");
        if step % 4096 == 0 {
            assert_eq!(lines_sorted(&new), old.lines_sorted(), "step {step}");
        }
    }
    assert_eq!(lines_sorted(&new), old.lines_sorted());
}

#[test]
fn equivalent_on_power_of_two_sets() {
    // 64 sets x 4 ways; line space 8x capacity for heavy conflict pressure.
    drive(
        CacheGeometry::new(64 * 4 * 64, 4),
        2048,
        100_000,
        0xcafe_0001,
    );
}

#[test]
fn equivalent_on_non_power_of_two_sets() {
    // 12 sets x 3 ways: exercises the modulo fallback path.
    drive(
        CacheGeometry::new(12 * 3 * 64, 3),
        400,
        100_000,
        0xcafe_0002,
    );
}

#[test]
fn equivalent_on_direct_mapped() {
    drive(CacheGeometry::new(32 * 64, 1), 256, 100_000, 0xcafe_0003);
}

#[test]
fn equivalent_on_fully_associative_single_set() {
    // One set, 16 ways: pure LRU, every insert contends.
    drive(CacheGeometry::new(16 * 64, 16), 64, 100_000, 0xcafe_0004);
}

#[test]
fn equivalent_under_tiny_line_space() {
    // Line space smaller than capacity: reinsertion/touch dominated.
    drive(CacheGeometry::new(16 * 4 * 64, 4), 48, 100_000, 0xcafe_0005);
}

/// The capacity-bug regression (satellite): every set must accept `ways`
/// lines without spurious eviction, including sets other than set 0.
#[test]
fn every_set_holds_full_associativity() {
    let mut c = Cache::new(CacheGeometry::new(8 * 4 * 64, 4), 64);
    for set in 0..8u64 {
        for way in 0..4u64 {
            assert!(
                c.insert(set + 8 * way, false).is_none(),
                "set {set} way {way} evicted early"
            );
        }
    }
    assert_eq!(c.resident_lines(), 32);
    assert_eq!(c.probe_and_touch(0), Probe::Hit);
}

/// `insert_absent` leaves the same slab as `insert`, not just the same
/// resident set: two caches fed the same trace, one through each, agree on
/// every later victim — on full sets and on sets with vacant ways.
#[test]
fn insert_absent_leaves_the_same_recency_order_as_insert() {
    let geometry = CacheGeometry::new(4 * 8 * 64, 8);
    let mut rng = StdRng::seed_from_u64(0xcafe_0006);
    let mut a = Cache::new(geometry, 64);
    let mut b = Cache::new(geometry, 64);
    for step in 0..50_000 {
        let line = rng.gen_range(0..96u64);
        match rng.gen_range(0u8..10) {
            0..=5 => {
                let dirty = rng.gen_range(0u8..2) == 0;
                let ea = a.insert(line, dirty);
                let eb = if b.contains(line) {
                    b.insert(line, dirty)
                } else {
                    b.insert_absent(line, dirty)
                };
                assert_eq!(ea, eb, "victim diverged at step {step} line {line}");
            }
            6..=7 => assert_eq!(a.probe_and_touch(line), b.probe_and_touch(line)),
            // Invalidations keep some sets partly filled.
            _ => assert_eq!(a.invalidate(line), b.invalidate(line)),
        }
        assert_eq!(
            a.lines().collect::<Vec<_>>(),
            b.lines().collect::<Vec<_>>(),
            "slab order diverged at step {step}"
        );
    }
}
