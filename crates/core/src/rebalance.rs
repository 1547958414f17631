//! Counter-driven rebalancing.
//!
//! "CoreTime also uses hardware event counters to detect when too many
//! operations are assigned to a core or too many objects are assigned to a
//! cache. CoreTime tracks the number of idle cycles, loads from DRAM, and
//! loads from the L2 cache for each core. If a core is rarely idle or often
//! loads from DRAM, CoreTime will periodically move a portion of the
//! objects from that core's cache to the cache of a core that has more idle
//! cycles and rarely loads from the L2 cache." (Section 4)

use o2_runtime::{CoreId, DenseObjectId};
use o2_sim::CounterDelta;

use crate::object::ObjectRegistry;
use crate::table::AssignmentTable;

/// Idle fraction below which a core counts as saturated.
const LOW_IDLE_FRACTION: f64 = 0.02;
/// Idle fraction above which a core counts as under-used.
const HIGH_IDLE_FRACTION: f64 = 0.20;
/// DRAM loads per thousand busy cycles above which a core counts as
/// memory-starved.
const HIGH_DRAM_RATE: f64 = 20.0;
/// Fraction of an overloaded core's assigned bytes moved per rebalance.
const REBALANCE_MOVE_FRACTION: f64 = 0.25;

/// One planned object move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The object to move.
    pub object: DenseObjectId,
    /// The core it currently lives on.
    pub from: CoreId,
    /// The core it should move to.
    pub to: CoreId,
    /// Its size in bytes.
    pub size: u64,
}

/// Classification of a core's load for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreLoad {
    /// Rarely idle or frequently loading from DRAM.
    Overloaded,
    /// Plenty of idle cycles and few DRAM loads.
    Underloaded,
    /// Neither.
    Normal,
}

/// Classifies a core from its per-epoch counter delta.
pub fn classify(delta: &CounterDelta) -> CoreLoad {
    let idle = delta.idle_fraction();
    let dram_rate = delta.dram_load_rate();
    if idle < LOW_IDLE_FRACTION || dram_rate > HIGH_DRAM_RATE {
        CoreLoad::Overloaded
    } else if idle > HIGH_IDLE_FRACTION && dram_rate < HIGH_DRAM_RATE / 2.0 {
        CoreLoad::Underloaded
    } else {
        CoreLoad::Normal
    }
}

/// Plans rebalancing moves for one epoch.
///
/// For every overloaded core (most DRAM-bound first) the planner moves up
/// to [`REBALANCE_MOVE_FRACTION`] of its assigned bytes — coldest objects
/// first, so the hot object that made the core busy keeps its cache — to
/// underloaded cores with free budget.
pub fn plan(
    table: &AssignmentTable,
    registry: &ObjectRegistry,
    deltas: &[CounterDelta],
) -> Vec<Move> {
    let n = table.num_cores().min(deltas.len());
    let mut overloaded: Vec<CoreId> = Vec::new();
    let mut underloaded: Vec<CoreId> = Vec::new();
    for core in 0..n as CoreId {
        match classify(&deltas[core as usize]) {
            CoreLoad::Overloaded => {
                if !table.objects_on(core).is_empty() {
                    overloaded.push(core);
                }
            }
            CoreLoad::Underloaded => underloaded.push(core),
            CoreLoad::Normal => {}
        }
    }
    if overloaded.is_empty() || underloaded.is_empty() {
        return Vec::new();
    }

    // Most DRAM-starved overloaded cores first; ties broken by core id so
    // the plan is a pure function of the counter values.
    overloaded.sort_by_key(|&c| (std::cmp::Reverse(deltas[c as usize].dram_loads), c));
    // Most idle receivers first, same tie-break.
    underloaded.sort_by_key(|&c| (std::cmp::Reverse(deltas[c as usize].idle_cycles), c));

    let mut moves = Vec::new();
    let mut free: Vec<u64> = (0..table.num_cores() as CoreId)
        .map(|c| table.free_bytes(c))
        .collect();

    for &from in &overloaded {
        let budget = (table.used_bytes(from) as f64 * REBALANCE_MOVE_FRACTION) as u64;
        if budget == 0 {
            continue;
        }
        // Only an object some receiver still has room for can move, and
        // room only shrinks as the plan grows. Once the working set
        // outgrows the machine every budget is spent (placement then goes
        // past it), so this is usually nothing — rather than a sort of the
        // thousands of objects a core holds at scale.
        let room = underloaded
            .iter()
            .filter(|&&c| c != from)
            .map(|&c| free[c as usize])
            .max()
            .unwrap_or(0);
        if room == 0 {
            continue;
        }
        // Move the coldest objects first; ties broken by external key so
        // the victim order does not depend on the table's internal layout.
        let mut objs: Vec<DenseObjectId> = table
            .objects_on(from)
            .iter()
            .copied()
            .filter(|&o| {
                registry
                    .get(o)
                    .is_some_and(|i| (1..=room).contains(&i.size()))
            })
            .collect();
        objs.sort_by_key(|&o| {
            (
                registry.get(o).map(|i| i.ops_last_epoch).unwrap_or(0),
                registry.key_of(o),
            )
        });
        let mut moved = 0u64;
        for obj in objs {
            if moved >= budget {
                break;
            }
            let size = registry.get(obj).map(|i| i.size()).unwrap_or(0);
            // Find an underloaded core with room.
            if let Some(&to) = underloaded
                .iter()
                .find(|&&c| c != from && free[c as usize] >= size)
            {
                free[to as usize] -= size;
                moved += size;
                moves.push(Move {
                    object: obj,
                    from,
                    to,
                    size,
                });
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::ObjectDescriptor;

    fn delta(busy: u64, idle: u64, dram: u64) -> CounterDelta {
        CounterDelta {
            busy_cycles: busy,
            idle_cycles: idle,
            dram_loads: dram,
            ..Default::default()
        }
    }

    #[test]
    fn classification_thresholds() {
        // No idle time: overloaded.
        assert_eq!(classify(&delta(100_000, 0, 0)), CoreLoad::Overloaded);
        // Lots of DRAM loads: overloaded even with some idle time.
        assert_eq!(
            classify(&delta(100_000, 10_000, 4_000)),
            CoreLoad::Overloaded
        );
        // Mostly idle, no DRAM: underloaded.
        assert_eq!(classify(&delta(50_000, 50_000, 0)), CoreLoad::Underloaded);
        // In between: normal.
        assert_eq!(classify(&delta(95_000, 5_000, 10)), CoreLoad::Normal);
    }

    fn registry_with(sizes: &[(u32, u64)]) -> ObjectRegistry {
        let mut reg = ObjectRegistry::new(64);
        for &(id, size) in sizes {
            reg.register(
                id,
                ObjectDescriptor::new(u64::from(id), u64::from(id) * 0x10000, size),
            );
        }
        reg
    }

    #[test]
    fn moves_go_from_overloaded_to_underloaded() {
        let mut table = AssignmentTable::new(vec![10_000; 4]);
        let registry = registry_with(&[(1, 4000), (2, 4000), (3, 1000)]);
        table.assign(1, 4000, 0);
        table.assign(2, 4000, 0);
        table.assign(3, 1000, 1);
        // Core 0 overloaded (no idle, lots of DRAM), cores 2 and 3 idle.
        let deltas = vec![
            delta(200_000, 0, 2_000),
            delta(150_000, 30_000, 10),
            delta(50_000, 150_000, 0),
            delta(50_000, 150_000, 0),
        ];
        let moves = plan(&table, &registry, &deltas);
        assert!(!moves.is_empty());
        for m in &moves {
            assert_eq!(m.from, 0);
            assert!(m.to == 2 || m.to == 3);
        }
        // At most the configured fraction of core 0's bytes moves.
        let moved: u64 = moves.iter().map(|m| m.size).sum();
        assert!(moved <= (8000_f64 * REBALANCE_MOVE_FRACTION) as u64 + 4000);
    }

    #[test]
    fn no_moves_without_underloaded_receivers() {
        let mut table = AssignmentTable::new(vec![10_000; 2]);
        let registry = registry_with(&[(1, 4000)]);
        table.assign(1, 4000, 0);
        let deltas = vec![delta(200_000, 0, 2_000), delta(200_000, 0, 1_000)];
        assert!(plan(&table, &registry, &deltas).is_empty());
    }

    #[test]
    fn no_moves_when_nothing_is_assigned() {
        let table = AssignmentTable::new(vec![10_000; 2]);
        let registry = registry_with(&[]);
        let deltas = vec![delta(200_000, 0, 2_000), delta(10_000, 190_000, 0)];
        assert!(plan(&table, &registry, &deltas).is_empty());
    }

    #[test]
    fn receivers_must_have_free_space() {
        let mut table = AssignmentTable::new(vec![10_000, 1_000]);
        let registry = registry_with(&[(1, 4000), (2, 4000)]);
        table.assign(1, 4000, 0);
        table.assign(2, 4000, 0);
        let deltas = vec![delta(200_000, 0, 2_000), delta(10_000, 190_000, 0)];
        // Core 1 is idle but has only 1000 bytes of budget: nothing fits.
        assert!(plan(&table, &registry, &deltas).is_empty());
    }
}
