//! Performance-pathology detection.
//!
//! "Cache packing might assign several popular objects to a single core and
//! threads will stall waiting to operate on the objects. For example,
//! several cores may migrate threads to the same core simultaneously. Our
//! current solution is to detect performance pathologies at runtime and to
//! improve performance by rearranging objects." (Section 4)
//!
//! The detector looks at per-core operation counts for the last epoch: if a
//! single core completed far more operations than the average (it is a
//! migration hot-spot), its less-popular objects are spread to the cores
//! that completed the fewest operations.

use o2_runtime::{CoreId, DenseObjectId};
use o2_sim::CounterDelta;

use crate::object::ObjectRegistry;
use crate::rebalance::Move;
use crate::table::AssignmentTable;

/// Operations-per-epoch imbalance factor that marks a hot core (a single
/// core receiving far more operations than average), and the
/// ops-per-busy-cycle shortfall that marks a slow one. The policy reuses it
/// as the announced-slowdown threshold past which a core stops receiving
/// migrations.
pub(crate) const PATHOLOGY_FACTOR: f64 = 3.0;
/// Maximum objects moved away from one hot core per epoch.
const PATHOLOGY_MAX_MOVES: usize = 2;

/// Detects operation hot-spots: cores whose completed-operation count this
/// epoch exceeds [`PATHOLOGY_FACTOR`] times the machine average.
pub fn hot_cores(deltas: &[CounterDelta]) -> Vec<CoreId> {
    if deltas.is_empty() {
        return Vec::new();
    }
    let total: u64 = deltas.iter().map(|d| d.operations_completed).sum();
    let mean = total as f64 / deltas.len() as f64;
    if mean <= 0.0 {
        return Vec::new();
    }
    deltas
        .iter()
        .enumerate()
        .filter(|(_, d)| d.operations_completed as f64 > PATHOLOGY_FACTOR * mean)
        .map(|(i, _)| i as CoreId)
        .collect()
}

/// Detects degraded cores: cores that were busy this epoch but completed
/// operations at less than `1 / PATHOLOGY_FACTOR` of the mean
/// ops-per-busy-cycle rate. This is the fault plane's detector — a core
/// the fault plan slowed down burns `slowdown × cost` cycles per
/// operation, so its rate collapses relative to its peers and CoreTime
/// stops migrating operations to it (data moves instead). Idle cores are
/// excluded: completing nothing while doing nothing is not degradation.
pub fn slow_cores(deltas: &[CounterDelta]) -> Vec<CoreId> {
    let rates: Vec<Option<f64>> = deltas
        .iter()
        .map(|d| (d.busy_cycles > 0).then(|| d.operations_completed as f64 / d.busy_cycles as f64))
        .collect();
    let live: Vec<f64> = rates.iter().flatten().copied().collect();
    if live.is_empty() {
        return Vec::new();
    }
    let mean = live.iter().sum::<f64>() / live.len() as f64;
    if mean <= 0.0 {
        return Vec::new();
    }
    rates
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Some(rate) if *rate < mean / PATHOLOGY_FACTOR))
        .map(|(i, _)| i as CoreId)
        .collect()
}

/// Plans moves that spread a hot core's objects (all but its single hottest
/// object, which stays) to the coldest cores with room.
pub fn plan(
    table: &AssignmentTable,
    registry: &ObjectRegistry,
    deltas: &[CounterDelta],
) -> Vec<Move> {
    let hot = hot_cores(deltas);
    if hot.is_empty() {
        return Vec::new();
    }
    // Receivers: the cores with the fewest completed operations, coldest
    // first.
    let mut receivers: Vec<CoreId> = (0..table.num_cores() as CoreId)
        .filter(|c| !hot.contains(c))
        .collect();
    receivers.sort_by_key(|&c| {
        (
            deltas
                .get(c as usize)
                .map(|d| d.operations_completed)
                .unwrap_or(0),
            c,
        )
    });
    if receivers.is_empty() {
        return Vec::new();
    }

    let mut free: Vec<u64> = (0..table.num_cores() as CoreId)
        .map(|c| table.free_bytes(c))
        .collect();
    let mut moves = Vec::new();

    for &from in &hot {
        let mut objs: Vec<DenseObjectId> = table.objects_on(from).to_vec();
        if objs.len() <= 1 {
            // A single popular object cannot be split by moving; replica
            // serving (Section 6.2) handles that case when it is on.
            continue;
        }
        // Keep the hottest object where it is, spread the rest (bounded per
        // epoch so one noisy sample cannot trigger a mass migration of
        // cached data).
        objs.sort_by_key(|&o| {
            (
                std::cmp::Reverse(registry.get(o).map(|i| i.ops_last_epoch).unwrap_or(0)),
                registry.key_of(o),
            )
        });
        let mut receiver_idx = 0usize;
        for &obj in objs.iter().skip(1).take(PATHOLOGY_MAX_MOVES) {
            let size = registry.get(obj).map(|i| i.size()).unwrap_or(0);
            if size == 0 {
                continue;
            }
            // Round-robin over receivers that still have room.
            let mut placed = false;
            for _ in 0..receivers.len() {
                let to = receivers[receiver_idx % receivers.len()];
                receiver_idx += 1;
                if to != from && free[to as usize] >= size {
                    free[to as usize] -= size;
                    moves.push(Move {
                        object: obj,
                        from,
                        to,
                        size,
                    });
                    placed = true;
                    break;
                }
            }
            if !placed {
                break;
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::ObjectDescriptor;

    fn ops_delta(ops: u64) -> CounterDelta {
        CounterDelta {
            busy_cycles: 100_000,
            operations_completed: ops,
            ..Default::default()
        }
    }

    #[test]
    fn hot_core_detection_uses_the_factor() {
        let deltas = vec![ops_delta(1000), ops_delta(10), ops_delta(10), ops_delta(10)];
        assert_eq!(hot_cores(&deltas), vec![0]);
        let even = vec![ops_delta(100); 4];
        assert!(hot_cores(&even).is_empty());
        assert!(hot_cores(&[]).is_empty());
    }

    #[test]
    fn slow_core_detection_compares_ops_per_busy_cycle() {
        let rate = |ops, busy| CounterDelta {
            busy_cycles: busy,
            operations_completed: ops,
            ..Default::default()
        };
        // Core 2 completes ops at 1/8 the rate of its peers: degraded.
        let deltas = vec![
            rate(800, 100_000),
            rate(800, 100_000),
            rate(100, 100_000),
            rate(800, 100_000),
        ];
        assert_eq!(slow_cores(&deltas), vec![2]);
        // An idle core (busy = 0) is parked, not degraded.
        let deltas = vec![rate(800, 100_000), rate(0, 0), rate(800, 100_000)];
        assert!(slow_cores(&deltas).is_empty());
        // Uniform rates: nothing is slow.
        assert!(slow_cores(&vec![rate(500, 100_000); 4]).is_empty());
        assert!(slow_cores(&[]).is_empty());
    }

    #[test]
    fn zero_ops_everywhere_is_not_a_pathology() {
        let deltas = vec![ops_delta(0); 4];
        assert!(hot_cores(&deltas).is_empty());
    }

    fn registry_with_ops(objs: &[(u32, u64, u64)]) -> ObjectRegistry {
        // (id, size, ops_last_epoch approximated by recording ops then rolling)
        let mut reg = ObjectRegistry::new(64);
        for &(id, size, ops) in objs {
            reg.register(
                id,
                ObjectDescriptor::new(u64::from(id), u64::from(id) * 0x10000, size),
            );
            for _ in 0..ops {
                reg.record_op(id, u64::from(id), 1, 0.3, o2_runtime::AccessKind::Write);
            }
        }
        reg.roll_epoch();
        reg
    }

    #[test]
    fn spreads_all_but_the_hottest_object() {
        let mut table = AssignmentTable::new(vec![100_000; 4]);
        let registry = registry_with_ops(&[(1, 10_000, 50), (2, 10_000, 20), (3, 10_000, 5)]);
        table.assign(1, 10_000, 0);
        table.assign(2, 10_000, 0);
        table.assign(3, 10_000, 0);
        let deltas = vec![ops_delta(900), ops_delta(10), ops_delta(10), ops_delta(10)];
        let moves = plan(&table, &registry, &deltas);
        // Objects 2 and 3 move away; object 1 (hottest) stays.
        let moved: Vec<DenseObjectId> = moves.iter().map(|m| m.object).collect();
        assert!(moved.contains(&2) && moved.contains(&3));
        assert!(!moved.contains(&1));
        for m in &moves {
            assert_eq!(m.from, 0);
            assert_ne!(m.to, 0);
        }
    }

    #[test]
    fn single_object_hot_core_is_left_alone() {
        let mut table = AssignmentTable::new(vec![100_000; 4]);
        let registry = registry_with_ops(&[(1, 10_000, 100)]);
        table.assign(1, 10_000, 0);
        let deltas = vec![ops_delta(900), ops_delta(10), ops_delta(10), ops_delta(10)];
        assert!(plan(&table, &registry, &deltas).is_empty());
    }
}
