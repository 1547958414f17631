//! Randomised invariant checks for the flat `AssignmentTable`.
//!
//! After **any** sequence of assign / release / move / replicate
//! operations the table must satisfy, on every core:
//!
//! * `used_bytes(core)` equals the sum of the sizes of the objects listed
//!   by `objects_on(core)`;
//! * `objects_on(core)` lists an object exactly once, and exactly when the
//!   object's replica set contains the core;
//! * an object's replica set never double-counts a core (primary and
//!   replicas never overlap): the primary appears in the set exactly once,
//!   and the set size equals the number of per-core listings;
//! * `free_bytes` is what the budget has left (`capacity - used_bytes`,
//!   zero on a core placed past its budget) and the global `len()` matches
//!   the number of objects with a primary.
//!
//! A second randomised test holds the placement rule the policy applies on
//! top of the table — first fit, else past the budget of the least-loaded
//! live core — to its contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::coretime::{place_balanced, place_over_budget, AssignmentTable};

const CASES: usize = 32;
const OPS_PER_CASE: usize = 400;
const OBJECTS: u32 = 48;

fn check_invariants(table: &AssignmentTable, sizes: &[u64]) {
    let cores = table.num_cores() as u32;
    let mut assigned_objects = 0usize;
    let mut listings_total = 0usize;
    for core in 0..cores {
        let on = table.objects_on(core);
        // No duplicates in the per-core listing.
        let mut seen = on.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), on.len(), "core {core} lists an object twice");
        // used_bytes equals the sum of sizes of the listed objects.
        let sum: u64 = on.iter().map(|&o| sizes[o as usize]).sum();
        assert_eq!(
            table.used_bytes(core),
            sum,
            "core {core} used_bytes out of sync with its object list"
        );
        assert_eq!(
            table.free_bytes(core),
            table.capacity(core).saturating_sub(table.used_bytes(core)),
            "core {core} bytes not conserved"
        );
        listings_total += on.len();
    }
    for object in 0..OBJECTS {
        let replicas = table.replicas(object);
        match table.primary(object) {
            Some(primary) => {
                assigned_objects += 1;
                // The primary is in the replica set (a bitmask cannot hold
                // it twice — that is the "primary and replicas never
                // overlap" invariant).
                assert!(
                    replicas.contains(primary),
                    "object {object}: primary {primary} missing from replica set"
                );
                // Set membership and the per-core listings agree exactly.
                for core in 0..cores {
                    let listed = table
                        .objects_on(core)
                        .iter()
                        .filter(|&&o| o == object)
                        .count();
                    let expected = usize::from(replicas.contains(core));
                    assert_eq!(
                        listed, expected,
                        "object {object} vs core {core}: replica set and per-core list disagree"
                    );
                }
            }
            None => {
                assert!(
                    replicas.is_empty(),
                    "object {object}: replicas without a primary"
                );
            }
        }
    }
    assert_eq!(table.len(), assigned_objects, "len() out of sync");
    // Every per-core listing is accounted for by some replica set.
    let replica_total: usize = (0..OBJECTS).map(|o| table.replicas(o).len()).sum();
    assert_eq!(listings_total, replica_total);
}

#[test]
fn random_op_sequences_preserve_all_invariants() {
    let mut rng = StdRng::seed_from_u64(0x7AB1_E000);
    for case in 0..CASES {
        let cores = rng.gen_range(1usize..8);
        let cap = rng.gen_range(10_000u64..100_000);
        let mut table = AssignmentTable::new(vec![cap; cores]);
        // Immutable per-object sizes, as the policy uses them (the caller
        // always passes the registry's size for the object).
        let sizes: Vec<u64> = (0..OBJECTS).map(|_| rng.gen_range(1u64..20_000)).collect();
        for step in 0..OPS_PER_CASE {
            let object = rng.gen_range(0u32..OBJECTS);
            let size = sizes[object as usize];
            let core = rng.gen_range(0u32..cores as u32);
            match rng.gen_range(0u8..4) {
                0 => {
                    let _ = table.assign(object, size, core);
                }
                1 => {
                    let _ = table.unassign(object);
                }
                2 => {
                    let _ = table.add_replica(object, core);
                }
                _ => {
                    // assign_unchecked is what over-budget placement
                    // uses; it may overflow but must stay consistent.
                    table.assign_unchecked(object, size, core);
                }
            }
            check_invariants(&table, &sizes);
            let _ = (case, step);
        }
    }
}

#[test]
fn replicate_then_move_then_release_never_leaks_bytes() {
    // A directed sequence covering the exact interleaving the policy
    // performs: assign → replicate widely → re-home (what `core_down`
    // does: release every copy, place the primary elsewhere) → unassign
    // (releases everything).
    let mut table = AssignmentTable::new(vec![10_000; 4]);
    let sizes: Vec<u64> = (0..OBJECTS).map(|_| 1_000).collect();
    assert!(table.assign(1, 1_000, 0));
    assert!(table.add_replica(1, 1));
    assert!(table.add_replica(1, 2));
    check_invariants(&table, &sizes);
    assert_eq!(table.total_assigned_bytes(), 3_000);
    // Re-homing the primary drops every replica.
    assert!(table.unassign(1));
    assert!(table.assign(1, 1_000, 3));
    check_invariants(&table, &sizes);
    assert_eq!(table.total_assigned_bytes(), 1_000);
    assert_eq!(table.replicas(1).len(), 1);
    assert!(table.unassign(1));
    check_invariants(&table, &sizes);
    assert_eq!(table.total_assigned_bytes(), 0);
}

#[test]
fn the_placement_rule_strands_only_what_no_live_core_could_hold() {
    // The rule `O2Policy` applies for a newly expensive object and for
    // every object a dead core held: first fit, else past the budget of
    // the least-loaded live core.
    let place = |table: &mut AssignmentTable, object: u32, size: u64| {
        place_balanced(table, object, size).or_else(|| place_over_budget(table, object, size))
    };
    let mut rng = StdRng::seed_from_u64(0x0BAD_6E70);
    for _case in 0..CASES {
        let cores = rng.gen_range(2u32..8);
        let cap = rng.gen_range(10_000u64..100_000);
        let mut table = AssignmentTable::new(vec![cap; cores as usize]);
        // A tenth of the objects are larger than a whole core's budget;
        // the rest oversubscribe the machine several times over.
        let sizes: Vec<u64> = (0..OBJECTS)
            .map(|_| rng.gen_range(cap / 8..cap + cap / 9))
            .collect();
        for _step in 0..OPS_PER_CASE {
            let object = rng.gen_range(0u32..OBJECTS);
            let size = sizes[object as usize];
            let live: Vec<u32> = (0..cores).filter(|&c| table.capacity(c) > 0).collect();
            match rng.gen_range(0u8..64) {
                0 if live.len() > 1 => {
                    // The fault plane takes a core offline: zero its
                    // budget, re-home what it held by the same rule.
                    let dead = live[rng.gen_range(0usize..live.len())];
                    table.set_capacity(dead, 0);
                    for o in table.objects_on(dead).to_vec() {
                        let charged = table.charged_bytes(o).expect("listed, so assigned");
                        table.unassign(o);
                        let home = place(&mut table, o, charged);
                        assert_eq!(home.is_some(), charged <= cap, "object {o} stranded");
                    }
                    assert_eq!(table.used_bytes(dead), 0);
                }
                1..=20 => {
                    let _ = table.unassign(object);
                }
                _ if !table.is_assigned(object) => {
                    let used: Vec<u64> = (0..cores).map(|c| table.used_bytes(c)).collect();
                    let fits_inside = live.iter().any(|&c| table.free_bytes(c) >= size);
                    match place(&mut table, object, size) {
                        None => assert!(size > cap, "object {object} fits a budget, unplaced"),
                        Some(core) => {
                            assert!(size <= cap);
                            assert!(live.contains(&core), "placed on offline core {core}");
                            assert_eq!(table.primary(object), Some(core));
                            if !fits_inside {
                                let least = live.iter().map(|&c| used[c as usize]).min();
                                assert_eq!(Some(used[core as usize]), least, "not least loaded");
                                assert_eq!(table.free_bytes(core), 0);
                            }
                            // Release is exact, over budget or not.
                            table.unassign(object);
                            assert_eq!(table.used_bytes(core), used[core as usize]);
                            assert_eq!(place(&mut table, object, size), Some(core));
                        }
                    }
                }
                _ => {}
            }
            check_invariants(&table, &sizes);
        }
    }
}
