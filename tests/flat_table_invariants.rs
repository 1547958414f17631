//! Randomised invariant checks for `o2_collections::FlatTable`, the one
//! shared open-addressed table (Fibonacci hash, linear probe,
//! backward-shift deletion) behind the coherence directory, the object
//! interner, the co-access pair table and the fs name index.
//!
//! A `std::collections::HashMap` is the oracle: after **any** interleaved
//! sequence of insert / entry / remove / lookup operations the table must
//! agree with it on every key, on `len()`, and on the full iterated
//! contents — including under sustained deletion churn at high load
//! factor, where backward-shifting does the most work.
//!
//! The same checks run with [`RunKey`], a key whose hash keeps its low
//! three bits so that eight consecutive keys home to eight adjacent slots
//! — the shape of the coherence directory's key. Nothing in the table
//! assumes well-mixed homes, and these tests hold it to that: whole runs
//! collide, displace each other by a run, and wrap around the slot array.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::collections::{FlatKey, FlatTable, Interner, FIB_MULT};

const CASES: usize = 24;
const OPS_PER_CASE: usize = 4_000;

/// A key shaped like the coherence directory's: the hash of the key's
/// group of eight, with the three lowest home bits replaced by the key's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey(u64);

impl FlatKey for RunKey {
    const EMPTY: Self = RunKey(u64::MAX);

    fn hash(self) -> u64 {
        (self.0 >> 3).wrapping_mul(FIB_MULT) & !(7 << 32) | (self.0 & 7) << 32
    }
}

/// The slot a key homes to in a table of `capacity` slots.
fn home_of(key: RunKey, capacity: usize) -> usize {
    (key.hash() >> 32) as usize & (capacity - 1)
}

fn check_full_agreement<K>(table: &FlatTable<K, u64>, oracle: &HashMap<K, u64>, tag: &str)
where
    K: FlatKey + std::hash::Hash + std::fmt::Debug,
{
    assert_eq!(table.len(), oracle.len(), "{tag}: len diverged");
    // Every oracle entry is in the table (peek: no probe-count skew).
    for (&k, &v) in oracle {
        assert_eq!(table.peek(k), Some(&v), "{tag}: key {k:?} diverged");
    }
    // Every iterated entry is in the oracle exactly once.
    let mut seen = 0usize;
    for (k, &v) in table.iter() {
        assert_eq!(oracle.get(&k), Some(&v), "{tag}: stray key {k:?}");
        seen += 1;
    }
    assert_eq!(seen, oracle.len(), "{tag}: iter count diverged");
}

#[test]
fn random_op_sequences_agree_with_the_hashmap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0001);
    for case in 0..CASES {
        // Small starting capacity and a key space a few times the
        // capacity, so the table repeatedly crosses its 7/8 growth
        // threshold and probe clusters form, dissolve and shift.
        let key_space = 1u64 << rng.gen_range(4u32..9);
        let mut table: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for step in 0..OPS_PER_CASE {
            let key = rng.gen_range(0..key_space);
            match rng.gen_range(0u8..8) {
                // Removal at 3-in-8 keeps the table near its high-load
                // regime without ever fully draining it.
                0..=2 => {
                    let a = table.remove(key);
                    let b = oracle.remove(&key);
                    assert_eq!(a, b, "case {case} step {step}: remove");
                }
                3..=4 => {
                    let v = rng.gen::<u64>();
                    let a = table.insert(key, v);
                    let b = oracle.insert(key, v);
                    assert_eq!(a, b, "case {case} step {step}: insert");
                }
                5 => {
                    let add = rng.gen_range(1u64..100);
                    *table.entry(key) += add;
                    *oracle.entry(key).or_insert(0) += add;
                }
                6 => {
                    assert_eq!(
                        table.get(key).copied(),
                        oracle.get(&key).copied(),
                        "case {case} step {step}: get"
                    );
                }
                _ => {
                    let (v, inserted) = table.or_insert_with(key, || key * 3);
                    let expect_inserted = !oracle.contains_key(&key);
                    assert_eq!(inserted, expect_inserted, "case {case} step {step}");
                    assert_eq!(*v, *oracle.entry(key).or_insert(key * 3));
                }
            }
            assert_eq!(table.len(), oracle.len(), "case {case} step {step}: len");
        }
        check_full_agreement(&table, &oracle, &format!("case {case}"));
    }
}

#[test]
fn deletion_churn_at_high_load_factor_backward_shifts_correctly() {
    // Fill a table to just under its growth threshold, then churn
    // remove/insert pairs so it *stays* at maximum load: every removal
    // lands in long probe clusters and must backward-shift them without
    // losing or duplicating keys.
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0002);
    let mut table: FlatTable<u64, u64> = FlatTable::with_capacity(256);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let cap = table.capacity();
    let max_load = cap * 7 / 8 - 1; // stays below the growth trigger
    let mut keys: Vec<u64> = Vec::new();
    let mut next_key = 0u64;
    while oracle.len() < max_load {
        table.insert(next_key, next_key);
        oracle.insert(next_key, next_key);
        keys.push(next_key);
        next_key += 1;
    }
    assert_eq!(table.capacity(), cap, "setup must not trigger growth");
    for step in 0..20_000 {
        // Remove a random existing key (picked from a deterministic side
        // list, so failures reproduce), insert a fresh one.
        let victim = keys.swap_remove(rng.gen_range(0..keys.len()));
        assert_eq!(table.remove(victim), oracle.remove(&victim), "step {step}");
        table.insert(next_key, next_key);
        oracle.insert(next_key, next_key);
        keys.push(next_key);
        next_key += 1;
        assert_eq!(table.len(), max_load, "step {step}: load drifted");
    }
    assert_eq!(table.capacity(), cap, "churn must not grow a full table");
    check_full_agreement(&table, &oracle, "high-load churn");
}

#[test]
fn sequential_runs_of_grouped_keys_agree_with_the_hashmap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0004);
    for case in 0..CASES {
        // Keys come and go in runs of consecutive values, the way lines
        // enter and leave the directory; the key space is a few times the
        // starting capacity, so the table grows mid-run.
        let key_space = 1u64 << rng.gen_range(6u32..11);
        let mut table: FlatTable<RunKey, u64> = FlatTable::with_capacity(8);
        let mut oracle: HashMap<RunKey, u64> = HashMap::new();
        for step in 0..OPS_PER_CASE / 4 {
            let start = rng.gen_range(0..key_space);
            let len = rng.gen_range(1..24u64);
            let op = rng.gen_range(0u8..8);
            for k in (start..start + len).map(RunKey) {
                match op {
                    0..=2 => assert_eq!(
                        table.remove(k),
                        oracle.remove(&k),
                        "case {case} step {step}"
                    ),
                    3..=5 => {
                        let v = rng.gen::<u64>();
                        assert_eq!(
                            table.insert(k, v),
                            oracle.insert(k, v),
                            "case {case} step {step}"
                        );
                    }
                    6 => {
                        *table.entry(k) += 1;
                        *oracle.entry(k).or_insert(0) += 1;
                    }
                    _ => assert_eq!(table.get(k).copied(), oracle.get(&k).copied()),
                }
                assert_eq!(table.len(), oracle.len(), "case {case} step {step}: len");
            }
        }
        check_full_agreement(&table, &oracle, &format!("run case {case}"));
    }
}

#[test]
fn grouped_keys_churn_at_the_growth_threshold() {
    // Sequential keys up to one short of the 7/8 growth trigger, then
    // remove-a-run / insert-a-fresh-run so the table stays there: whole
    // groups sit displaced behind other groups and every removal shifts
    // a long cluster back.
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0005);
    let mut table: FlatTable<RunKey, u64> = FlatTable::with_capacity(512);
    let mut oracle: HashMap<RunKey, u64> = HashMap::new();
    let cap = table.capacity();
    let max_load = cap * 7 / 8 - 1;
    let mut next_key = 0u64;
    while oracle.len() < max_load {
        table.insert(RunKey(next_key), next_key);
        oracle.insert(RunKey(next_key), next_key);
        next_key += 1;
    }
    assert_eq!(table.capacity(), cap, "setup must not trigger growth");
    let mut oldest = 0u64;
    for step in 0..4_000 {
        // Drop a run from a random place, refill with fresh keys.
        let len = rng.gen_range(1..12u64);
        let start = rng.gen_range(oldest..next_key - len);
        let mut removed = 0;
        for k in (start..start + len).map(RunKey) {
            let a = table.remove(k);
            assert_eq!(a, oracle.remove(&k), "step {step}: remove {k:?}");
            removed += u64::from(a.is_some());
        }
        for _ in 0..removed {
            table.insert(RunKey(next_key), next_key);
            oracle.insert(RunKey(next_key), next_key);
            next_key += 1;
        }
        assert_eq!(table.len(), max_load, "step {step}: load drifted");
        if step % 500 == 0 {
            // Retire the oldest keys too, so the live set keeps moving.
            oldest += 64;
            check_full_agreement(&table, &oracle, &format!("threshold churn step {step}"));
        }
    }
    assert_eq!(table.capacity(), cap, "churn must not grow a full table");
    check_full_agreement(&table, &oracle, "threshold churn");
}

#[test]
fn grouped_keys_wrap_around_the_end_of_the_slot_array() {
    // Four groups that all home to the last eight slots of a 64-slot
    // table: three of them spill past the end and wrap to slot 0. Remove
    // them group by group in every order; the rest must stay reachable
    // and the backward shift must carry entries back across the wrap.
    const CAP: usize = 64;
    let groups: Vec<u64> = (0..10_000u64)
        .filter(|&g| home_of(RunKey(g << 3), CAP) == CAP - 8)
        .take(4)
        .collect();
    assert_eq!(groups.len(), 4);
    let orders: [[usize; 4]; 6] = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [1, 3, 0, 2],
        [2, 0, 3, 1],
        [0, 2, 1, 3],
        [3, 0, 2, 1],
    ];
    for order in orders {
        let mut table: FlatTable<RunKey, u64> = FlatTable::with_capacity(CAP);
        let mut oracle: HashMap<RunKey, u64> = HashMap::new();
        for &g in &groups {
            for k in (g << 3..(g << 3) + 8).map(RunKey) {
                assert_eq!(home_of(k, CAP), CAP - 8 + (k.0 & 7) as usize);
                table.insert(k, k.0);
                oracle.insert(k, k.0);
            }
        }
        assert_eq!(table.capacity(), CAP, "32 keys fit 64 slots");
        check_full_agreement(&table, &oracle, "wrap: filled");
        for (n, &gi) in order.iter().enumerate() {
            // Odd keys first, so holes open in the middle of the cluster.
            let base = groups[gi] << 3;
            for k in [1, 3, 5, 7, 0, 2, 4, 6].map(|i| RunKey(base + i)) {
                assert_eq!(table.remove(k), oracle.remove(&k), "order {order:?}: {k:?}");
                assert_eq!(table.remove(k), None);
            }
            check_full_agreement(&table, &oracle, &format!("wrap: order {order:?} after {n}"));
        }
        assert!(table.is_empty());
    }
}

#[test]
fn interner_agrees_with_a_hashmap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0003);
    let mut interner = Interner::with_capacity(8);
    let mut oracle: HashMap<u64, u32> = HashMap::new();
    for step in 0..50_000 {
        let key = rng.gen_range(0..4096u64);
        if rng.gen_range(0..4u8) == 0 {
            assert_eq!(
                interner.get(key),
                oracle.get(&key).copied(),
                "step {step}: get"
            );
        } else {
            let next = oracle.len() as u32;
            let (dense, new) = interner.intern(key);
            let expected = *oracle.entry(key).or_insert(next);
            assert_eq!((dense, new), (expected, expected == next), "step {step}");
        }
        assert_eq!(interner.len(), oracle.len(), "step {step}: len");
    }
}
