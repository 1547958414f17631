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

use crate::config::CoreTimeConfig;
use crate::object::ObjectInfo;

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

/// Decides whether an object should be assigned to a cache.
///
/// The criteria follow Section 4: the object's smoothed miss rate must
/// exceed the threshold, and the expected per-operation fetch cost must
/// exceed the migration cost (otherwise migrating the operation cannot pay
/// off). The first operation that passes assigns the object. Waiting for
/// more history does not filter cold-start bursts on a many-core machine —
/// each further unassigned operation runs on another core whose caches
/// are just as cold — it only spreads the object over more caches first.
pub fn verdict(cfg: &CoreTimeConfig, info: &ObjectInfo, already_assigned: bool) -> MonitorVerdict {
    if already_assigned {
        return MonitorVerdict::KeepAssigned;
    }
    if cfg.migration_is_beneficial(info.ewma_misses_per_op) {
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
            reg.record_op(1, 0x1000, misses_per_op, 1.0, o2_runtime::AccessKind::Write);
        }
        reg.get(1).unwrap().clone()
    }

    #[test]
    fn cheap_objects_stay_with_hardware() {
        let cfg = CoreTimeConfig::default();
        let info = info_with(2, 10);
        assert_eq!(verdict(&cfg, &info, false), MonitorVerdict::LeaveToHardware);
    }

    #[test]
    fn assigned_on_the_first_expensive_operation_never_on_a_cheap_one() {
        let cfg = CoreTimeConfig::default();
        let first = info_with(300, 1);
        assert_eq!(verdict(&cfg, &first, false), MonitorVerdict::Assign);
        // No amount of history promotes an object whose operations are
        // cheaper than a migration.
        for ops in [1, 5, 1000] {
            let cheap = info_with(2, ops);
            assert_eq!(
                verdict(&cfg, &cheap, false),
                MonitorVerdict::LeaveToHardware,
                "assigned after {ops} cheap operations"
            );
        }
    }

    #[test]
    fn assigned_objects_are_kept() {
        let cfg = CoreTimeConfig::default();
        let info = info_with(300, 5);
        assert_eq!(verdict(&cfg, &info, true), MonitorVerdict::KeepAssigned);
    }

    #[test]
    fn marginal_objects_fail_the_cost_benefit_test() {
        let cfg = CoreTimeConfig::default();
        // 10 misses/op * 120 cycles = 1200 < 2000-cycle migration.
        let info = info_with(10, 10);
        assert_eq!(verdict(&cfg, &info, false), MonitorVerdict::LeaveToHardware);
    }
}
