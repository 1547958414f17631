//! Runtime monitoring decisions.
//!
//! "For each object, CoreTime counts the number of cache misses that occur
//! between a pair of CoreTime annotations and assumes the misses are caused
//! by fetching the object. [...] When there are many cache misses while
//! manipulating an object, CoreTime will assign the object to a cache [...]
//! otherwise, CoreTime will do nothing and the shared-memory hardware will
//! manage the object." (Section 4)
//!
//! The per-object miss statistics live in [`crate::object::ObjectRegistry`];
//! this module holds the decision logic that turns those statistics into an
//! assignment decision.

use crate::object::ObjectInfo;

/// Minimum smoothed private-cache misses per operation for an object to be
/// considered "expensive to fetch" (Section 4, runtime monitoring).
const MISS_THRESHOLD_PER_OP: f64 = 8.0;
/// Estimated cost of one private-cache miss, in cycles. The paper's
/// criterion: migrating an operation is only beneficial when the migration
/// cost is less than the cost of fetching the object from DRAM or a remote
/// cache.
const MISS_COST_ESTIMATE: u64 = 120;
/// Estimated one-way migration cost in cycles (the paper measured ~2000 on
/// the AMD system).
const MIGRATION_COST_ESTIMATE: u64 = 2000;

/// What the monitor wants to do with an object after an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Leave the object to the shared-memory hardware.
    LeaveToHardware,
    /// The object is expensive to fetch: assign it to a cache.
    Assign,
    /// The object is already assigned; keep it where it is.
    KeepAssigned,
}

/// Whether an object with the given smoothed miss rate is worth assigning:
/// the expected fetch cost per operation must exceed the migration cost.
pub fn migration_is_beneficial(ewma_misses_per_op: f64) -> bool {
    ewma_misses_per_op >= MISS_THRESHOLD_PER_OP
        && ewma_misses_per_op * MISS_COST_ESTIMATE as f64 > MIGRATION_COST_ESTIMATE as f64
}

/// Decides whether an object should be assigned to a cache.
///
/// The criteria follow Section 4: the object's smoothed miss rate must
/// exceed the threshold, and the expected per-operation fetch cost must
/// exceed the migration cost (otherwise migrating the operation cannot pay
/// off). The first operation that passes assigns the object. Waiting for
/// more history does not filter cold-start bursts on a many-core machine —
/// each further unassigned operation runs on another core whose caches
/// are just as cold — it only spreads the object over more caches first.
pub fn verdict(info: &ObjectInfo, already_assigned: bool) -> MonitorVerdict {
    if already_assigned {
        return MonitorVerdict::KeepAssigned;
    }
    if migration_is_beneficial(info.ewma_misses_per_op) {
        MonitorVerdict::Assign
    } else {
        MonitorVerdict::LeaveToHardware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectRegistry;

    fn info_with(misses_per_op: u64, ops: u64) -> ObjectInfo {
        let mut reg = ObjectRegistry::new(64);
        for _ in 0..ops {
            reg.record_op(1, 0x1000, misses_per_op, 1.0);
        }
        reg.get(1).unwrap().clone()
    }

    #[test]
    fn cheap_objects_stay_with_hardware() {
        let info = info_with(2, 10);
        assert_eq!(verdict(&info, false), MonitorVerdict::LeaveToHardware);
    }

    #[test]
    fn assigned_on_the_first_expensive_operation_never_on_a_cheap_one() {
        let first = info_with(300, 1);
        assert_eq!(verdict(&first, false), MonitorVerdict::Assign);
        // No amount of history promotes an object whose operations are
        // cheaper than a migration.
        for ops in [1, 5, 1000] {
            let cheap = info_with(2, ops);
            assert_eq!(
                verdict(&cheap, false),
                MonitorVerdict::LeaveToHardware,
                "assigned after {ops} cheap operations"
            );
        }
    }

    #[test]
    fn assigned_objects_are_kept() {
        let info = info_with(300, 5);
        assert_eq!(verdict(&info, true), MonitorVerdict::KeepAssigned);
    }

    #[test]
    fn marginal_objects_fail_the_cost_benefit_test() {
        // 10 misses/op * 120 cycles = 1200 < 2000-cycle migration.
        let info = info_with(10, 10);
        assert_eq!(verdict(&info, false), MonitorVerdict::LeaveToHardware);
    }
}
