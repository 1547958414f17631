//! Randomised invariant checks for `o2_collections::FlatTable`, the one
//! shared open-addressed table (Fibonacci hash, linear probe) behind the
//! object interner.
//!
//! A `std::collections::HashMap` is the oracle: after **any** interleaved
//! sequence of insert / insert-if-absent / lookup operations the table
//! must agree with it on every key, on `len()`, and on the full iterated
//! contents, across every growth step.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::collections::{FlatTable, Interner};

const CASES: usize = 24;
const OPS_PER_CASE: usize = 4_000;

fn check_full_agreement(table: &FlatTable<u64, u64>, oracle: &HashMap<u64, u64>, tag: &str) {
    assert_eq!(table.len(), oracle.len(), "{tag}: len diverged");
    // Every oracle entry is in the table (peek: no probe-count skew).
    for (&k, &v) in oracle {
        assert_eq!(table.peek(k), Some(&v), "{tag}: key {k} diverged");
    }
    // Every iterated entry is in the oracle exactly once.
    let mut seen = 0usize;
    for (k, &v) in table.iter() {
        assert_eq!(oracle.get(&k), Some(&v), "{tag}: stray key {k}");
        seen += 1;
    }
    assert_eq!(seen, oracle.len(), "{tag}: iter count diverged");
}

#[test]
fn random_op_sequences_agree_with_the_hashmap_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF1A7_7AB1_E000_0001);
    for case in 0..CASES {
        // Small starting capacity and a key space many times the
        // capacity, so the table crosses its 7/8 growth threshold again
        // and again and probe clusters form.
        let key_space = 1u64 << rng.gen_range(4u32..9);
        let mut table: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for step in 0..OPS_PER_CASE {
            let key = rng.gen_range(0..key_space);
            match rng.gen_range(0u8..4) {
                0..=1 => {
                    let v = rng.gen::<u64>();
                    let a = table.insert(key, v);
                    let b = oracle.insert(key, v);
                    assert_eq!(a, b, "case {case} step {step}: insert");
                }
                2 => {
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
