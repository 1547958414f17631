//! The greedy first-fit "cache packing" algorithm (Section 4).
//!
//! "CoreTime uses a greedy first fit cache packing algorithm to decide
//! what core to assign an object to. [...] The cache packing algorithm
//! works by assigning each object that is expensive to fetch to a cache
//! with free space. The algorithm executes in Θ(n·log n) time, where n is
//! the number of objects."
//!
//! The policy places one object at a time, when monitoring finds it
//! expensive, so the paper's sort by expense never has a batch to sort.
//! Two forms are provided:
//!
//! * [`place_balanced`] — first fit into the per-core budgets, least-loaded
//!   core first;
//! * [`place_over_budget`] — what the policy falls back to when no core
//!   has room: an expensive object is never left to the hardware while a
//!   live core could hold it.

use o2_runtime::{CoreId, DenseObjectId};

use crate::table::AssignmentTable;

/// Balanced incremental placement: first fit over cores ordered by
/// ascending assigned bytes (ties broken by core id).
///
/// Plain first fit in core-index order (the literal reading of the paper's
/// algorithm) concentrates the first objects on the first cores, and
/// nothing spreads them afterwards (CoreTime has no epoch mover) — which
/// shows up as a migration hot-spot exactly as Section 4 predicts.
/// Visiting the least-loaded core first keeps the same greedy structure
/// while also satisfying the Section 3 requirement that the scheduler
/// "balance both objects and operations across caches and cores"; it is
/// the default used by [`crate::O2Policy`].
///
/// "First fit over cores in ascending `(used_bytes, core)` order" is the
/// least-loaded core among those with room, so one pass finds it — this
/// runs on the placement path, which is allocation-free end to end.
pub fn place_balanced(
    table: &mut AssignmentTable,
    object: DenseObjectId,
    size: u64,
) -> Option<CoreId> {
    let core = (0..table.num_cores() as CoreId)
        .filter(|&c| table.free_bytes(c) >= size)
        .min_by_key(|&c| (table.used_bytes(c), c))?;
    let ok = table.assign(object, size, core);
    debug_assert!(ok);
    Some(core)
}

/// Placement past the budget: assigns the object to the least-loaded core
/// (fewest assigned bytes, ties broken by core id) whose *whole* budget
/// could hold it, even though its remaining budget cannot.
///
/// The budget is an estimate of what a core's caches keep; being somewhat
/// over it costs that core some L3 or DRAM refills. Leaving the object
/// unassigned costs far more: its operations run on whichever core the
/// thread happens to be on, so all of them fetch it and the copies evict
/// what the packer placed. A core with a zero budget (taken offline by the
/// fault plane) never qualifies, and neither does any core for an object
/// larger than a core's budget — that object stays with the hardware.
pub fn place_over_budget(
    table: &mut AssignmentTable,
    object: DenseObjectId,
    size: u64,
) -> Option<CoreId> {
    let core = (0..table.num_cores() as CoreId)
        .filter(|&c| table.capacity(c) >= size.max(1))
        .min_by_key(|&c| (table.used_bytes(c), c))?;
    table.assign_unchecked(object, size, core);
    Some(core)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_objects_are_unplaced() {
        let mut t = AssignmentTable::new(vec![100, 100]);
        assert_eq!(place_balanced(&mut t, 1, 500), None);
        assert_eq!(place_over_budget(&mut t, 1, 500), None);
        assert!(!t.is_assigned(1));
    }

    #[test]
    fn empty_inputs() {
        let mut t = AssignmentTable::new(Vec::new());
        assert_eq!(place_balanced(&mut t, 1, 10), None);
        assert_eq!(place_over_budget(&mut t, 1, 10), None);
        assert!(t.is_empty());
    }

    #[test]
    fn place_balanced_spreads_equal_objects_across_cores() {
        let mut t = AssignmentTable::new(vec![100, 100, 100, 100]);
        for obj in 1..=4u32 {
            place_balanced(&mut t, obj, 60).expect("fits");
        }
        // One object per core rather than two on core 0 and two on core 1.
        for core in 0..4 {
            assert_eq!(t.objects_on(core).len(), 1, "core {core} unbalanced");
        }
        // A fifth object of the same size no longer fits anywhere.
        assert_eq!(place_balanced(&mut t, 5, 60), None);
        // A smaller one still does.
        assert!(place_balanced(&mut t, 6, 30).is_some());
    }

    #[test]
    fn over_budget_placement_picks_the_least_loaded_live_core() {
        let mut t = AssignmentTable::new(vec![100, 100, 100]);
        t.assign(1, 90, 0);
        t.assign(2, 80, 1);
        t.assign(3, 95, 2);
        // 60 bytes fit no core's remaining budget, but fit a whole budget.
        assert_eq!(place_balanced(&mut t, 4, 60), None);
        assert_eq!(place_over_budget(&mut t, 4, 60), Some(1));
        assert_eq!(t.used_bytes(1), 140);
        assert_eq!(t.free_bytes(1), 0);
        // Releasing it returns the core to exactly its old charge.
        assert!(t.unassign(4));
        assert_eq!(t.used_bytes(1), 80);
        // Larger than any core's whole budget: stays with the hardware.
        assert_eq!(place_over_budget(&mut t, 5, 101), None);
        assert!(!t.is_assigned(5));
        // An offlined core (budget zeroed) never receives overflow, even
        // when it is the emptiest.
        t.unassign(2);
        t.set_capacity(1, 0);
        assert_eq!(place_over_budget(&mut t, 6, 60), Some(0));
        for core in 0..3 {
            t.set_capacity(core, 0);
        }
        assert_eq!(place_over_budget(&mut t, 7, 1), None);
    }

    #[test]
    fn packing_respects_total_capacity() {
        // Property-style check: balanced placement never exceeds a
        // per-core budget, and an object is refused only when no core's
        // remaining budget could hold it.
        let caps = [120u64, 80, 60, 40];
        let mut t = AssignmentTable::new(caps.to_vec());
        for i in 0..50u32 {
            let size = 10 + u64::from(i % 7) * 5;
            let fits_somewhere = (0..4).any(|c| t.free_bytes(c) >= size);
            assert_eq!(place_balanced(&mut t, i, size).is_some(), fits_somewhere);
        }
        for (core, &cap) in caps.iter().enumerate() {
            let used = t.used_bytes(core as CoreId);
            assert!(used <= cap, "core over budget: {used} > {cap}");
        }
    }
}
