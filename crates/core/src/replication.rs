//! Read-only object replication (Section 6.2), as replica serving.
//!
//! "Sometimes it is better to replicate read-only objects and other times
//! it might be better to schedule more distinct objects." With serving on,
//! CoreTime replicates objects whose *measured* traffic is hot and
//! read-mostly into additional caches, so that reads of them run on
//! several cores, trading on-chip capacity for parallelism; a write drops
//! the extra copies.

use o2_runtime::{CoreId, DenseObjectId, ObjectId};

use crate::object::{ObjectInfo, ObjectRegistry};
use crate::table::AssignmentTable;

/// A planned replica creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replica {
    /// The object to replicate.
    pub object: DenseObjectId,
    /// The core that should receive the new copy.
    pub core: CoreId,
    /// Object size in bytes.
    pub size: u64,
}

/// Measured read fraction (EWMA) at or above which a hot object is served
/// from replicas. It sits well below an all-read 1.0 because the per-op
/// EWMA dips to ~0.67 right after each write even on a 95%-read object:
/// a lone write then costs one invalidation, not a round of migrations
/// before the demand fill re-qualifies.
const PROMOTE_READ_FRACTION: f64 = 0.60;

/// Measured read fraction (EWMA) below which a replicated object loses
/// its extra replicas at the epoch boundary. Kept well under
/// [`PROMOTE_READ_FRACTION`] so a borderline object does not flap between
/// promoted and demoted every epoch.
const DEMOTE_READ_FRACTION: f64 = 0.40;

/// Whether an object's measured traffic earns it replicas: at least
/// `hot_ops` operations in `ops` (an epoch's count) and a smoothed read
/// fraction at or above [`PROMOTE_READ_FRACTION`].
#[inline]
pub(crate) fn earns_replicas(info: &ObjectInfo, ops: u64, hot_ops: u64) -> bool {
    ops >= hot_ops && info.ewma_read_fraction >= PROMOTE_READ_FRACTION
}

/// The objects that earned replicas last epoch, hottest first (ties by
/// external key), with their last-epoch operation counts.
fn serving_head(hot_ops: u64, registry: &ObjectRegistry) -> Vec<(DenseObjectId, u64)> {
    let mut head: Vec<(DenseObjectId, u64, ObjectId)> = registry
        .active_last_epoch()
        .filter(|(_, info)| earns_replicas(info, info.ops_last_epoch, hot_ops))
        .map(|(id, info)| (id, info.ops_last_epoch, info.key()))
        .collect();
    head.sort_by_key(|&(_, ops, key)| (std::cmp::Reverse(ops), key));
    head.into_iter().map(|(id, ops, _)| (id, ops)).collect()
}

/// Plans replica drops for one epoch: every replicated object that was
/// operated on last epoch and whose smoothed read fraction fell below
/// `DEMOTE_READ_FRACTION` (0.40) loses its extra copies. Objects idle last
/// epoch keep their replicas — with no reads *or* writes there is no
/// evidence the mix changed.
pub fn plan_demotions(table: &AssignmentTable, registry: &ObjectRegistry) -> Vec<DenseObjectId> {
    let mut drops: Vec<(ObjectId, DenseObjectId)> = registry
        .active_last_epoch()
        .filter(|&(id, info)| {
            table.replicas(id).len() > 1 && info.ewma_read_fraction < DEMOTE_READ_FRACTION
        })
        .map(|(id, info)| (info.key(), id))
        .collect();
    drops.sort_unstable();
    drops.into_iter().map(|(_, id)| id).collect()
}

/// Plans replica creations for one epoch. An object hot enough to deserve
/// `k` copies gets all `k - existing` new replicas in this call, so a
/// newly hot head does not take `k` epochs to spread.
///
/// Candidates are the objects that earn replicas on last epoch's counts:
/// at least `hot_ops` operations and a smoothed read fraction of at least
/// `PROMOTE_READ_FRACTION` (0.60). The copy target scales with heat — `1 +
/// ops_last_epoch / hot_ops` copies, capped at `max_copies` (primary
/// included). New copies go to the cores with the most free budget among
/// those holding no copy and not in `avoid_mask` (offline or degraded
/// cores never receive replicas).
pub fn plan_promotions(
    hot_ops: u64,
    max_copies: u32,
    table: &AssignmentTable,
    registry: &ObjectRegistry,
    avoid_mask: u64,
) -> Vec<Replica> {
    let mut free: Vec<u64> = (0..table.num_cores() as CoreId)
        .map(|c| table.free_bytes(c))
        .collect();
    let mut plans = Vec::new();
    for (object, ops) in serving_head(hot_ops, registry) {
        let existing = table.replicas(object);
        if existing.is_empty() {
            continue;
        }
        let heat = 1 + ops / hot_ops;
        let target = heat.min(u64::from(max_copies)) as usize;
        if existing.len() >= target {
            continue;
        }
        // Invariant: `object` came from the table's assigned set above.
        let size = table
            .charged_bytes(object)
            .expect("assigned object has a charge");
        let mut holders = existing.mask();
        for _ in existing.len()..target {
            let core = (0..table.num_cores() as CoreId)
                .filter(|&c| {
                    holders & (1u64 << c) == 0
                        && avoid_mask & (1u64 << c) == 0
                        && free[c as usize] >= size
                })
                .max_by_key(|&c| free[c as usize]);
            let Some(core) = core else {
                break;
            };
            holders |= 1u64 << core;
            free[core as usize] -= size;
            plans.push(Replica { object, core, size });
        }
    }
    plans
}

/// Plans idle-time cache fills for one epoch: every copy (primary
/// included) of every object that earned replicas last epoch is
/// re-streamed into its core's caches by the engine the next time that
/// core has nothing runnable. This is the data-movement half of
/// promotion: bookkeeping alone leaves the first post-write read on each
/// core paying the remote refill inline, while a background fill absorbs
/// it into an arrival gap. Copies on avoided cores are skipped.
///
/// Hottest objects first (ties by external key), so a core that finds
/// only a short idle gap warms the head before the tail.
pub fn plan_fills(
    hot_ops: u64,
    table: &AssignmentTable,
    registry: &ObjectRegistry,
    avoid_mask: u64,
) -> Vec<(DenseObjectId, CoreId)> {
    let mut fills = Vec::new();
    for (object, _ops) in serving_head(hot_ops, registry) {
        let mut bits = table.replicas(object).mask() & !avoid_mask;
        while bits != 0 {
            let core = bits.trailing_zeros();
            bits &= bits - 1;
            fills.push((object, core));
        }
    }
    fills
}

/// Chooses which copy of a replicated object an operation should use: the
/// one closest to the requesting core (by chip hop distance), breaking ties
/// towards the lowest core id for determinism. Takes any core iterator, so
/// it consumes the assignment table's inline bitmask without allocating.
pub fn nearest_replica(
    replicas: impl IntoIterator<Item = CoreId>,
    from_core: CoreId,
    hops: impl Fn(CoreId, CoreId) -> u32,
) -> Option<CoreId> {
    replicas
        .into_iter()
        .min_by_key(|&c| (hops(from_core, c), c))
}

/// Replica selection for measured serving: still prefers the closest copy
/// (a hop-0 local copy always wins), but breaks distance ties by a
/// caller-supplied rotation counter instead of the lowest core id — the
/// tie-break that re-serialized a replicated head onto one copy. The
/// caller advances `rotor` once per selection, so equal-distance copies
/// receive requests round-robin, deterministically. Allocation-free: two
/// passes over the copies bitmask.
pub fn select_replica_rotated(
    mask: u64,
    from_core: CoreId,
    hops: impl Fn(CoreId, CoreId) -> u32,
    rotor: u64,
) -> Option<CoreId> {
    // A copy on the requesting core itself is unbeatable: zero hops *and*
    // no migration. The hop metric is chip-granular, so without this the
    // local copy would tie with its chip-mates at hop 0 and the rotor
    // would bounce requests between neighbours that all hold the data.
    if mask & (1u64 << from_core) != 0 {
        return Some(from_core);
    }
    let mut min_hops = u32::MAX;
    let mut ties = 0u64;
    let mut bits = mask;
    while bits != 0 {
        let c = bits.trailing_zeros();
        bits &= bits - 1;
        let h = hops(from_core, c);
        if h < min_hops {
            min_hops = h;
            ties = 1;
        } else if h == min_hops {
            ties += 1;
        }
    }
    if ties == 0 {
        return None;
    }
    let skip = rotor % ties;
    let mut seen = 0u64;
    let mut bits = mask;
    while bits != 0 {
        let c = bits.trailing_zeros();
        bits &= bits - 1;
        if hops(from_core, c) == min_hops {
            if seen == skip {
                return Some(c);
            }
            seen += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::{AccessKind, ObjectDescriptor};

    /// The heat floor of the unit tests: 64 operations per epoch earn a
    /// second copy.
    const HOT_OPS: u64 = 64;

    /// A four-core table holding one assigned 8 000-byte object (on core
    /// 0) whose last epoch saw `ops` operations of the given kind.
    fn setup(ops: u64, kind: AccessKind) -> (AssignmentTable, ObjectRegistry) {
        let mut table = AssignmentTable::new(vec![100_000; 4]);
        let mut registry = ObjectRegistry::new(64);
        registry.register(1, ObjectDescriptor::new(1, 0x1000, 8_000));
        for _ in 0..ops {
            registry.record_op(1, 1, 4, 0.3, kind);
        }
        registry.roll_epoch();
        table.assign(1, 8_000, 0);
        (table, registry)
    }

    #[test]
    fn hot_read_mostly_objects_gain_replicas() {
        let (table, registry) = setup(100, AccessKind::Read);
        let plans = plan_promotions(HOT_OPS, 4, &table, &registry, 0);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].object, 1);
        assert_ne!(plans[0].core, 0);
    }

    #[test]
    fn replica_count_is_capped() {
        let (mut table, registry) = setup(10_000, AccessKind::Read);
        table.add_replica(1, 1);
        assert!(plan_promotions(HOT_OPS, 2, &table, &registry, 0).is_empty());
    }

    #[test]
    fn plans_budget_with_the_charged_size_after_a_size_drift() {
        // The object was assigned at 8 000 bytes; a later re-registration
        // shrinks its registry size. The plan must still budget (and
        // report) the charged 8 000, since that is what add_replica will
        // charge.
        let (table, mut registry) = setup(100, AccessKind::Read);
        registry.register(1, ObjectDescriptor::new(1, 0x1000, 4_000));
        let plans = plan_promotions(HOT_OPS, 4, &table, &registry, 0);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].size, 8_000);
    }

    #[test]
    fn unassigned_objects_are_not_replicated() {
        let (mut table, registry) = setup(100, AccessKind::Read);
        table.unassign(1);
        assert!(plan_promotions(HOT_OPS, 4, &table, &registry, 0).is_empty());
    }

    #[test]
    fn max_replicas_counts_the_primary_as_a_copy() {
        // Boundary pin for the cap semantics: a cap of one copy means
        // "primary only" — even a blazing-hot object gains nothing.
        let (table, registry) = setup(10_000, AccessKind::Read);
        assert!(plan_promotions(HOT_OPS, 1, &table, &registry, 0).is_empty());
        // A cap of two admits exactly one extra copy beyond the primary,
        // however hot the object.
        assert_eq!(plan_promotions(HOT_OPS, 2, &table, &registry, 0).len(), 1);
    }

    #[test]
    fn promotion_replicates_proportionally_to_heat_in_one_call() {
        // 300 ops at a floor of 64 wants 1 + 300/64 = 5 total copies,
        // capped at 4: three new replicas appear in a single epoch, one per
        // remaining core.
        let (table, registry) = setup(300, AccessKind::Read);
        let plans = plan_promotions(HOT_OPS, 4, &table, &registry, 0);
        assert_eq!(plans.len(), 3);
        let mut cores: Vec<CoreId> = plans.iter().map(|p| p.core).collect();
        cores.sort_unstable();
        assert_eq!(cores, vec![1, 2, 3]);
        // Barely hot wants only 1 + 64/64 = 2 total copies.
        let (table, registry) = setup(64, AccessKind::Read);
        assert_eq!(plan_promotions(HOT_OPS, 4, &table, &registry, 0).len(), 1);
    }

    #[test]
    fn cold_or_writable_objects_are_not_replicated() {
        // Too few ops last epoch, or an all-write history (measured read
        // fraction 0.0 < 0.60): neither planner touches the object.
        for (ops, kind) in [(10, AccessKind::Read), (300, AccessKind::Write)] {
            let (mut table, registry) = setup(ops, kind);
            assert!(plan_promotions(HOT_OPS, 4, &table, &registry, 0).is_empty());
            table.add_replica(1, 1);
            assert!(plan_fills(HOT_OPS, &table, &registry, 0).is_empty());
        }
    }

    #[test]
    fn write_heavy_or_gated_objects_are_never_promoted() {
        // The gate's boundaries: exactly the floor qualifies, one op less
        // does not.
        let (_, registry) = setup(HOT_OPS, AccessKind::Read);
        let info = registry.get(1).unwrap();
        assert!(earns_replicas(info, HOT_OPS, HOT_OPS));
        assert!(!earns_replicas(info, HOT_OPS - 1, HOT_OPS));
        // Reads after a write history pass the gate only once the smoothed
        // read fraction has climbed back to the promote threshold.
        let mut registry = ObjectRegistry::new(64);
        registry.register(1, ObjectDescriptor::new(1, 0x1000, 8_000));
        registry.record_op(1, 1, 4, 0.3, AccessKind::Write);
        let mut reads = 0;
        while !earns_replicas(registry.get(1).unwrap(), HOT_OPS, HOT_OPS) {
            registry.record_op(1, 1, 4, 0.3, AccessKind::Read);
            reads += 1;
        }
        // 1 - 0.7^3 = 0.657 is the first fraction at or above 0.60.
        assert_eq!(reads, 3);
        assert!(registry.get(1).unwrap().ewma_read_fraction >= PROMOTE_READ_FRACTION);
    }

    #[test]
    fn avoided_cores_never_receive_promotions() {
        let (table, registry) = setup(10_000, AccessKind::Read);
        // Cores 1 and 2 are avoided (offline/degraded): only core 3 may
        // receive a copy.
        let plans = plan_promotions(HOT_OPS, 4, &table, &registry, 0b0110);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].core, 3);
    }

    #[test]
    fn demotion_drops_mixed_objects_but_spares_idle_and_read_heavy_ones() {
        // Mixed history → EWMA read fraction far below the demote
        // threshold → demoted.
        let (mut table, mut registry) = setup(100, AccessKind::Write);
        table.add_replica(1, 1);
        assert_eq!(plan_demotions(&table, &registry), vec![1]);
        // Idle last epoch: no evidence the mix changed, keep the copies.
        registry.roll_epoch();
        assert!(plan_demotions(&table, &registry).is_empty());
        // Read-heavy object above the demote threshold stays promoted.
        let (mut table, registry) = setup(100, AccessKind::Read);
        table.add_replica(1, 1);
        assert!(plan_demotions(&table, &registry).is_empty());
        // Unreplicated objects are never demotion candidates.
        let (table, registry) = setup(100, AccessKind::Write);
        assert!(plan_demotions(&table, &registry).is_empty());
    }

    #[test]
    fn fill_plan_lists_every_copy_of_the_serving_head_and_skips_avoided_cores() {
        let (mut table, registry) = setup(300, AccessKind::Read);
        table.add_replica(1, 1);
        table.add_replica(1, 3);
        // Every copy, the primary included, in ascending core order.
        assert_eq!(
            plan_fills(HOT_OPS, &table, &registry, 0),
            vec![(1, 0), (1, 1), (1, 3)]
        );
        // Copies on avoided cores are skipped, not re-targeted.
        assert_eq!(
            plan_fills(HOT_OPS, &table, &registry, 0b0001),
            vec![(1, 1), (1, 3)]
        );
        // A write-heavy object is below the promote threshold: its copies
        // are never re-streamed.
        let (mut table, registry) = setup(300, AccessKind::Write);
        table.add_replica(1, 1);
        assert!(plan_fills(HOT_OPS, &table, &registry, 0).is_empty());
    }

    #[test]
    fn rotated_selection_spreads_distance_ties_and_keeps_local_wins() {
        let hops = |a: CoreId, b: CoreId| u32::from((a / 4) != (b / 4));
        // Copies on 1, 2 and 6; requester on core 0 (chip 0): cores 1 and
        // 2 tie at hop 0 (same chip) and the rotor walks the tied pair
        // round-robin, deterministically.
        let mask = (1u64 << 1) | (1u64 << 2) | (1u64 << 6);
        assert_eq!(select_replica_rotated(mask, 0, hops, 0), Some(1));
        assert_eq!(select_replica_rotated(mask, 0, hops, 1), Some(2));
        assert_eq!(select_replica_rotated(mask, 0, hops, 2), Some(1));
        // A strictly closer copy wins regardless of the rotor.
        assert_eq!(select_replica_rotated(mask, 5, hops, 0), Some(6));
        assert_eq!(select_replica_rotated(mask, 5, hops, 7), Some(6));
        // Empty mask: nothing to pick.
        assert_eq!(select_replica_rotated(0, 0, hops, 3), None);
    }

    #[test]
    fn nearest_replica_prefers_same_chip() {
        // Pretend cores 0-3 are chip 0 and 4-7 chip 1.
        let hops = |a: CoreId, b: CoreId| u32::from((a / 4) != (b / 4));
        assert_eq!(nearest_replica([6, 2], 1, hops), Some(2));
        assert_eq!(nearest_replica([6, 2], 5, hops), Some(6));
        assert_eq!(nearest_replica([], 0, hops), None);
        // Tie: lowest core id wins.
        assert_eq!(nearest_replica([3, 1], 0, hops), Some(1));
    }
}
