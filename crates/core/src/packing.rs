//! The greedy first-fit "cache packing" algorithm (Section 4).
//!
//! "CoreTime uses a greedy first fit cache packing algorithm to decide
//! what core to assign an object to. [...] The cache packing algorithm
//! works by assigning each object that is expensive to fetch to a cache
//! with free space. The algorithm executes in Θ(n·log n) time, where n is
//! the number of objects."
//!
//! Three forms are provided:
//!
//! * [`pack`] — the batch algorithm from the paper: sort objects by
//!   decreasing expense and first-fit each into the per-core budgets
//!   (dominated by the sort, hence Θ(n·log n));
//! * [`place_balanced`] — the incremental form used online by the policy
//!   when monitoring promotes a single object;
//! * [`place_over_budget`] — what the policy falls back to when no core
//!   has room: an expensive object is never left to the hardware while a
//!   live core could hold it.

use o2_runtime::{CoreId, DenseObjectId};

use crate::table::AssignmentTable;

/// An object to be packed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackItem {
    /// The object.
    pub object: DenseObjectId,
    /// Its size in bytes.
    pub size: u64,
    /// Its expense (expected fetch cost per operation); more expensive
    /// objects are packed first.
    pub expense: f64,
}

/// The outcome of a batch packing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Packing {
    /// Object → core assignments produced.
    pub placed: Vec<(DenseObjectId, CoreId)>,
    /// Objects that did not fit in any core's remaining budget; these stay
    /// under hardware management.
    pub unplaced: Vec<DenseObjectId>,
}

impl Packing {
    /// The core an object was packed onto, if any.
    pub fn core_of(&self, object: DenseObjectId) -> Option<CoreId> {
        self.placed
            .iter()
            .find(|(o, _)| *o == object)
            .map(|(_, c)| *c)
    }
}

/// Batch cache packing: sorts by decreasing expense (ties broken by object
/// id for determinism) and first-fits each object into the per-core
/// capacities.
pub fn pack(items: &[PackItem], capacities: &[u64]) -> Packing {
    let mut sorted: Vec<&PackItem> = items.iter().collect();
    sorted.sort_by(|a, b| {
        b.expense
            .partial_cmp(&a.expense)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.object.cmp(&b.object))
    });

    let mut free: Vec<u64> = capacities.to_vec();
    let mut out = Packing::default();
    for item in sorted {
        // First fit: scan cores in index order, take the first with space.
        let slot = free.iter().position(|&f| f >= item.size);
        match slot {
            Some(core) => {
                free[core] -= item.size;
                out.placed.push((item.object, core as CoreId));
            }
            None => out.unplaced.push(item.object),
        }
    }
    out
}

/// Balanced incremental placement: first fit over cores ordered by
/// ascending assigned bytes (ties broken by core id).
///
/// Plain first fit in core-index order (the literal reading of the paper's
/// algorithm) concentrates the first objects on the first
/// cores and relies entirely on the runtime rebalancer to spread them —
/// which shows up as a migration hot-spot exactly as Section 4 predicts.
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

    fn items(sizes_expenses: &[(u64, f64)]) -> Vec<PackItem> {
        sizes_expenses
            .iter()
            .enumerate()
            .map(|(i, &(size, expense))| PackItem {
                object: i as DenseObjectId + 1,
                size,
                expense,
            })
            .collect()
    }

    #[test]
    fn packs_most_expensive_first() {
        // Two cores of 100 bytes; three 60-byte objects with different
        // expenses: the two most expensive fit, the cheapest does not.
        let its = items(&[(60, 1.0), (60, 5.0), (60, 3.0)]);
        let p = pack(&its, &[100, 100]);
        assert_eq!(p.placed.len(), 2);
        assert_eq!(p.core_of(2), Some(0)); // most expensive -> first core
        assert_eq!(p.core_of(3), Some(1));
        assert_eq!(p.unplaced, vec![1]);
    }

    #[test]
    fn first_fit_fills_cores_in_order() {
        let its = items(&[(40, 4.0), (40, 3.0), (40, 2.0), (40, 1.0)]);
        let p = pack(&its, &[100, 100]);
        // 40+40 fit on core 0, the next two go to core 1.
        assert_eq!(p.core_of(1), Some(0));
        assert_eq!(p.core_of(2), Some(0));
        assert_eq!(p.core_of(3), Some(1));
        assert_eq!(p.core_of(4), Some(1));
        assert!(p.unplaced.is_empty());
    }

    #[test]
    fn oversized_objects_are_unplaced() {
        let its = items(&[(500, 10.0)]);
        let p = pack(&its, &[100, 100]);
        assert!(p.placed.is_empty());
        assert_eq!(p.unplaced, vec![1]);
    }

    #[test]
    fn equal_expense_is_deterministic_by_object_id() {
        let its = items(&[(50, 1.0), (50, 1.0), (50, 1.0)]);
        let a = pack(&its, &[100, 100]);
        let b = pack(&its, &[100, 100]);
        assert_eq!(a, b);
        assert_eq!(a.core_of(1), Some(0));
        assert_eq!(a.core_of(2), Some(0));
        assert_eq!(a.core_of(3), Some(1));
    }

    #[test]
    fn empty_inputs() {
        let p = pack(&[], &[100]);
        assert!(p.placed.is_empty() && p.unplaced.is_empty());
        let its = items(&[(10, 1.0)]);
        let p = pack(&its, &[]);
        assert_eq!(p.unplaced, vec![1]);
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
        // Property-style check: nothing placed can exceed per-core budgets.
        let its: Vec<PackItem> = (0..50u32)
            .map(|i| PackItem {
                object: i,
                size: 10 + u64::from(i % 7) * 5,
                expense: (i % 13) as f64,
            })
            .collect();
        let caps = [120u64, 80, 60, 40];
        let p = pack(&its, &caps);
        let mut used = vec![0u64; caps.len()];
        for (obj, core) in &p.placed {
            let size = its.iter().find(|it| it.object == *obj).unwrap().size;
            used[*core as usize] += size;
        }
        for (u, c) in used.iter().zip(caps.iter()) {
            assert!(u <= c, "core over budget: {u} > {c}");
        }
        assert_eq!(p.placed.len() + p.unplaced.len(), its.len());
    }
}
