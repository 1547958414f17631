//! `O2Policy`: the CoreTime scheduler as a runtime policy.
//!
//! This is the piece that ties the paper's design together:
//!
//! * `ct_start` performs a table lookup and migrates the operation to the
//!   core caching the object (Section 4, "Interface");
//! * `ct_end` attributes the operation's cache misses to the object and
//!   assigns the object to a cache when it is expensive to fetch
//!   (Section 4, "Runtime monitoring" + the greedy cache-packing
//!   algorithm);
//! * at every epoch boundary, once the fault plane has signalled, the
//!   policy re-runs the counter detector that flags slow cores.
//!
//! With [`CoreTimeConfig::run_in_place`] set, an operation on a core the
//! fault plane does not avoid runs where its thread is; the monitor and
//! the packer still assign objects, and an avoided core's operations
//! follow the migrate-to-home rule.
//!
//! As in the paper, an assigned object is never un-assigned for being
//! idle, and no epoch pass moves it for load: only the fault plane moves
//! or releases it.

use o2_metrics::{LatencyRecorder, LatencySummary};
use o2_runtime::{
    CoreId, DenseObjectId, EpochView, ObjectDescriptor, OpContext, Placement, PolicyCommand,
    SchedPolicy,
};
use o2_sim::{CounterDelta, MachineConfig};

use crate::config::CoreTimeConfig;
use crate::monitor::{verdict, MonitorVerdict};
use crate::object::ObjectRegistry;
use crate::packing;
use crate::table::AssignmentTable;

/// EWMA smoothing factor for per-object miss rates.
const EWMA_ALPHA: f64 = 0.3;
/// Fraction of each core's cache budget (L2 + its share of the L3) that
/// placement is allowed to fill.
const CAPACITY_FRACTION: f64 = 0.90;
/// How much slower than its peers a core must run before CoreTime stops
/// migrating operations to it: an announced slowdown of this factor or
/// more marks a core degraded, and the counter detector flags a core whose
/// operations-per-busy-cycle rate falls below the mean divided by it.
const SLOWDOWN_FACTOR: f64 = 3.0;

/// Counters describing what the policy has done, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct O2Stats {
    /// Objects assigned to caches by the monitor + packer.
    pub assignments: u64,
    /// Operations the policy asked to migrate.
    pub migrations_requested: u64,
    /// Operations that ran where the thread already was.
    pub local_operations: u64,
    /// Policy epochs processed.
    pub epochs: u64,
    /// `core_down` notifications received from the fault plane.
    pub core_down_events: u64,
    /// Objects re-placed onto live cores after an offlining.
    pub objects_rehomed: u64,
    /// Objects larger than any surviving core's whole budget, which fell
    /// back to hardware-managed caching.
    pub objects_stranded: u64,
    /// Migrations skipped because the target core was degraded — the
    /// "flip from migration to data movement" path.
    pub degraded_avoids: u64,
    /// Percentiles of per-operation busy cycles seen at `ct_end`, from the
    /// policy's fixed-memory latency histogram.
    pub op_latency: LatencySummary,
}

/// The fault plane's counter detector: cores that were busy this epoch
/// but completed operations at less than `1 / SLOWDOWN_FACTOR` of the mean
/// ops-per-busy-cycle rate. A core the fault plan slowed down burns
/// `slowdown × cost` cycles per operation, so its rate collapses relative
/// to its peers and CoreTime stops migrating operations to it (data moves
/// instead). Idle cores are excluded: completing nothing while doing
/// nothing is not degradation.
fn slow_cores(deltas: &[CounterDelta]) -> Vec<CoreId> {
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
        .filter(|(_, r)| matches!(r, Some(rate) if *rate < mean / SLOWDOWN_FACTOR))
        .map(|(i, _)| i as CoreId)
        .collect()
}

/// The CoreTime O2 scheduling policy.
pub struct O2Policy {
    cfg: CoreTimeConfig,
    registry: ObjectRegistry,
    table: AssignmentTable,
    stats: O2Stats,
    /// Cores the fault plane took permanently offline.
    offline_mask: u64,
    /// Cores whose announced slowdown crossed the degradation threshold
    /// ([`SLOWDOWN_FACTOR`] as a percentage of nominal cost).
    degraded_mask: u64,
    /// Cores the counter detector ([`slow_cores`]) flagged as slow,
    /// recomputed every epoch — the detector half of the fault plane.
    detected_mask: u64,
    /// Set (stickily) the first time the fault plane signals anything.
    /// The counter detector only runs when armed, so a zero-fault run
    /// stays bit-identical to one with no fault plane at all.
    fault_plane_armed: bool,
    /// Fixed-memory histogram of per-operation busy cycles, recorded at
    /// `ct_end`. Pure observation: it never feeds a placement decision.
    op_latency: LatencyRecorder,
}

impl O2Policy {
    /// Creates a CoreTime policy for a machine, using each core's
    /// L2-plus-L3-share budget scaled by [`CAPACITY_FRACTION`] as its
    /// packing capacity.
    pub fn new(machine: &MachineConfig, cfg: CoreTimeConfig) -> Self {
        let per_core = (machine.per_core_budget_bytes() as f64 * CAPACITY_FRACTION) as u64;
        let cores = machine.total_cores();
        Self {
            cfg,
            registry: ObjectRegistry::new(machine.line_size),
            table: AssignmentTable::new(vec![per_core; cores as usize]),
            stats: O2Stats::default(),
            offline_mask: 0,
            degraded_mask: 0,
            detected_mask: 0,
            fault_plane_armed: false,
            op_latency: LatencyRecorder::default(),
        }
    }

    /// Whether the fault plane rules `core` out: offline, announced slower
    /// than the threshold, or flagged by the counter detector this epoch.
    /// `ct_start` neither migrates to such a core nor runs in place on it.
    #[inline]
    fn avoids(&self, core: CoreId) -> bool {
        let mask = self.offline_mask | self.degraded_mask | self.detected_mask;
        core < 64 && (mask >> core) & 1 != 0
    }

    /// Creates a CoreTime policy with the default configuration.
    pub fn with_defaults(machine: &MachineConfig) -> Self {
        Self::new(machine, CoreTimeConfig::default())
    }

    /// The policy's activity counters, with the latency histogram summarized
    /// into `op_latency`.
    pub fn stats(&self) -> O2Stats {
        let mut s = self.stats;
        s.op_latency = self.op_latency.summary();
        s
    }

    /// The current object→core assignment table.
    pub fn table(&self) -> &AssignmentTable {
        &self.table
    }

    /// The object registry (monitoring state).
    pub fn registry(&self) -> &ObjectRegistry {
        &self.registry
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreTimeConfig {
        &self.cfg
    }

    /// Places a newly expensive object: greedy first fit, else past the
    /// budget of the least-loaded live core — only an object larger than a
    /// whole core's budget is left to the hardware.
    fn place_object(&mut self, object: DenseObjectId) {
        let Some(info) = self.registry.get(object) else {
            return;
        };
        let size = info.size();
        // Greedy first fit into the per-core budgets, visiting the
        // least-loaded core first so objects and the operations that
        // follow them stay balanced across cores (Section 3). With no room
        // anywhere the object is still assigned: unassigned, every core
        // would scan it and the copies would evict what was packed.
        if packing::place_balanced(&mut self.table, object, size)
            .or_else(|| packing::place_over_budget(&mut self.table, object, size))
            .is_some()
        {
            self.stats.assignments += 1;
        }
    }
}

impl SchedPolicy for O2Policy {
    fn name(&self) -> &'static str {
        "coretime"
    }

    fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
        self.registry.register(id, *object);
    }

    fn reserve_objects(&mut self, n: usize) {
        self.registry.reserve(n);
        self.table.reserve(n);
    }

    fn footprint_bytes(&self) -> u64 {
        self.registry.footprint_bytes()
            + self.table.footprint_bytes()
            + self.op_latency.footprint_bytes()
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        let target = if self.cfg.run_in_place && !self.avoids(ctx.core) {
            // In place: the operation runs where its thread is, and the
            // hardware fetches the object's lines.
            None
        } else {
            match self.table.primary(ctx.object) {
                // The hardware manages an unassigned object.
                None => None,
                // The home is offline, slowed or flagged by the counter
                // detector: run in place and let the object's lines move —
                // the flip from thread migration to data movement.
                Some(home) if self.avoids(home) => {
                    if home != ctx.core {
                        self.stats.degraded_avoids += 1;
                    }
                    None
                }
                Some(home) => Some(home),
            }
        };
        match target {
            Some(home) if home != ctx.core => {
                self.stats.migrations_requested += 1;
                Placement::On(home)
            }
            _ => {
                self.stats.local_operations += 1;
                Placement::Local
            }
        }
    }

    fn on_ct_end(&mut self, ctx: &OpContext<'_>, delta: &CounterDelta) {
        self.op_latency.record(delta.busy_cycles);
        let misses = delta.object_fetch_misses();
        let info = self
            .registry
            .record_op(ctx.object, ctx.object_key, misses, EWMA_ALPHA);
        let assigned = self.table.is_assigned(ctx.object);
        let decision = verdict(info, assigned);
        if decision == MonitorVerdict::Assign {
            self.place_object(ctx.object);
        }
    }

    fn on_epoch(&mut self, view: &EpochView<'_>) -> Vec<PolicyCommand> {
        self.stats.epochs += 1;
        // A core completing operations at a fraction of its peers' rate
        // per busy cycle is treated exactly like a core with an announced
        // slowdown — `ct_start` stops migrating there until the counters
        // recover. Recomputed from scratch each epoch so the flag clears
        // itself. Only armed runs pay for it: until the fault plane
        // signals something, placement must be bit-identical to a run
        // with no fault plane at all.
        if self.fault_plane_armed {
            self.detected_mask = 0;
            for core in slow_cores(view.deltas) {
                if core < 64 {
                    self.detected_mask |= 1u64 << core;
                }
            }
        }
        Vec::new()
    }

    fn core_down(&mut self, core: CoreId) {
        self.fault_plane_armed = true;
        self.stats.core_down_events += 1;
        if core < 64 {
            self.offline_mask |= 1u64 << core;
        }
        // Zero the dead core's packing budget so no packer (balanced or
        // over-budget) ever places there again, then re-home
        // everything it held onto the surviving cores by the placement
        // rule: first fit, else past the budget of the least-loaded live
        // core. Only an object larger than a surviving core's whole budget
        // is stranded — operations on it run wherever the thread is and
        // the hardware manages its lines.
        self.table.set_capacity(core, 0);
        let objects: Vec<DenseObjectId> = self.table.objects_on(core).to_vec();
        for object in objects {
            let Some(size) = self.table.charged_bytes(object) else {
                continue;
            };
            self.table.unassign(object);
            if packing::place_balanced(&mut self.table, object, size)
                .or_else(|| packing::place_over_budget(&mut self.table, object, size))
                .is_some()
            {
                self.stats.objects_rehomed += 1;
            } else {
                self.stats.objects_stranded += 1;
            }
        }
    }

    fn core_degraded(&mut self, core: CoreId, slowdown_percent: u32) {
        self.fault_plane_armed = true;
        if core >= 64 {
            return;
        }
        // A core announced at `SLOWDOWN_FACTOR`× nominal cost (or worse)
        // is no longer a profitable migration target.
        let threshold = (SLOWDOWN_FACTOR * 100.0) as u32;
        if slowdown_percent >= threshold {
            self.degraded_mask |= 1u64 << core;
        } else {
            self.degraded_mask &= !(1u64 << core);
        }
    }

    fn fault_stats(&self) -> o2_runtime::PolicyFaultStats {
        o2_runtime::PolicyFaultStats {
            core_down_events: self.stats.core_down_events,
            objects_rehomed: self.stats.objects_rehomed,
            objects_stranded: self.stats.objects_stranded,
            degraded_avoids: self.stats.degraded_avoids,
        }
    }
}

impl std::fmt::Debug for O2Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("O2Policy")
            .field("objects_known", &self.registry.len())
            .field("objects_assigned", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::{
        AccessKind, Action, BehaviourCtx, Engine, ObjectDescriptor, OpBehaviour, OpBuilder,
        OpGenerator, RuntimeConfig,
    };
    use o2_sim::{ContentionModel, Machine};

    fn quad_machine() -> Machine {
        let mut cfg = MachineConfig::quad4();
        cfg.contention = ContentionModel::None;
        Machine::new(cfg)
    }

    /// A generator that round-robins annotated scans over a set of objects.
    struct ScanGen {
        regions: Vec<(u64, u64, u64)>, // (object id, addr, size)
        next: usize,
        remaining: u64,
    }

    impl OpGenerator for ScanGen {
        fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<Action> {
            if self.remaining == 0 {
                return vec![];
            }
            self.remaining -= 1;
            let (id, addr, size) = self.regions[self.next % self.regions.len()];
            self.next += 1;
            OpBuilder::annotated(id)
                .read(addr, size)
                .compute(200)
                .finish()
        }
    }

    #[test]
    fn expensive_objects_become_assigned_and_operations_migrate() {
        let mut machine = quad_machine();
        // Four 256 KB objects: far larger than what stays in a 64 KB L1 and
        // big enough that scanning them misses heavily.
        let regions: Vec<(u64, u64, u64)> = (0..4)
            .map(|i| {
                let r = machine.memory_mut().alloc(256 * 1024, i);
                (r.addr, r.addr, r.size)
            })
            .collect();
        let policy = O2Policy::with_defaults(machine.config());
        let mut engine = Engine::new(machine, Box::new(policy), RuntimeConfig::default());
        for (id, addr, size) in &regions {
            engine.register_object(ObjectDescriptor::new(*id, *addr, *size));
        }
        // One thread per core scanning all four objects round-robin.
        for core in 0..4 {
            engine.spawn(
                core,
                Box::new(OpBehaviour::new(ScanGen {
                    regions: regions.clone(),
                    next: core as usize,
                    remaining: 60,
                })),
            );
        }
        engine.run_until_cycles(60_000_000);
        assert_eq!(engine.total_ops(), 240);
        // The policy should have assigned the objects and begun migrating
        // operations to them.
        let migrations: u64 = (0..4).map(|t| engine.thread_stats(t).migrations).sum();
        assert!(migrations > 0, "no operations migrated");
        let in_migrations: u64 = (0..4)
            .map(|c| engine.machine().counters(c).migrations_in)
            .sum();
        assert!(in_migrations > 0);
    }

    #[test]
    fn cheap_objects_are_never_assigned() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        // Simulate many cheap operations via the SchedPolicy interface.
        let desc = ObjectDescriptor::new(0x1000, 0x1000, 4096);
        policy.register_object(0, &desc);
        for _ in 0..50 {
            let ctx = OpContext {
                thread: 0,
                core: 0,
                home_core: 0,
                object: 0,
                object_key: 0x1000,
                kind: AccessKind::Write,
                now: 0,
                machine: &machine,
            };
            let delta = CounterDelta {
                l2_misses: 1,
                busy_cycles: 1000,
                ..Default::default()
            };
            policy.on_ct_end(&ctx, &delta);
        }
        assert!(policy.table().is_empty());
        assert_eq!(policy.stats().assignments, 0);
    }

    #[test]
    fn expensive_object_is_assigned_by_its_first_operation() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        policy.register_object(0, &ObjectDescriptor::new(0x1000, 0x1000, 32 * 1024));
        expensive_op(&mut policy, &machine, 0, 0x1000);
        assert!(policy.table().is_assigned(0));
        assert_eq!(policy.stats().assignments, 1);

        // Subsequent ct_start calls from another core now migrate.
        let ctx = OpContext {
            thread: 1,
            core: 3,
            home_core: 3,
            object: 0,
            object_key: 0x1000,
            kind: AccessKind::Write,
            now: 100,
            machine: &machine,
        };
        let placement = policy.on_ct_start(&ctx);
        assert!(matches!(placement, Placement::On(_)));
        assert_eq!(policy.stats().migrations_requested, 1);
    }

    /// Drives `on_ct_end` for one expensive operation on `(dense, key)`.
    fn expensive_op(policy: &mut O2Policy, machine: &Machine, dense: u32, key: u64) {
        let ctx = OpContext {
            thread: dense as usize,
            core: dense % 4,
            home_core: dense % 4,
            object: dense,
            object_key: key,
            kind: AccessKind::Write,
            now: 0,
            machine,
        };
        let delta = CounterDelta {
            l2_misses: 5_000,
            busy_cycles: 500_000,
            ..Default::default()
        };
        policy.on_ct_end(&ctx, &delta);
    }

    #[test]
    fn an_expensive_object_is_left_to_the_hardware_only_when_no_core_could_hold_it() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        let per_core = policy.table().capacity(0);
        // Every core over budget already: four fillers, then four more.
        for dense in 0..8u32 {
            let key = 0x1000 * (u64::from(dense) + 1);
            let size = per_core - 8 * 1024 * u64::from(dense % 4);
            policy.register_object(dense, &ObjectDescriptor::new(key, key, size));
            expensive_op(&mut policy, &machine, dense, key);
        }
        assert_eq!(policy.table().len(), 8);
        let used: Vec<u64> = (0..4).map(|c| policy.table().used_bytes(c)).collect();
        assert!(
            used.iter().all(|&u| u > per_core),
            "not over budget: {used:?}"
        );
        // One more that fits a whole budget goes to the least-loaded core
        // and is released at exactly what it was charged.
        let least = (0..4u32).min_by_key(|&c| (used[c as usize], c)).unwrap();
        policy.register_object(8, &ObjectDescriptor::new(0x9000, 0x9000, 64 * 1024));
        expensive_op(&mut policy, &machine, 8, 0x9000);
        assert_eq!(policy.table().primary(8), Some(least));
        assert_eq!(
            policy.table().used_bytes(least),
            used[least as usize] + 64 * 1024
        );
        // An object larger than a core's whole budget is never assigned,
        // however many expensive operations it sees.
        policy.register_object(9, &ObjectDescriptor::new(0xa000, 0xa000, per_core + 1));
        for _ in 0..3 {
            expensive_op(&mut policy, &machine, 9, 0xa000);
        }
        assert!(!policy.table().is_assigned(9));
        assert_eq!(policy.stats().assignments, 9);
    }

    #[test]
    fn core_down_strands_nothing_while_a_live_core_remains() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        let per_core = policy.table().capacity(0);
        // Four objects that each nearly fill a core: once one core dies
        // its object fits no survivor's remaining budget.
        for dense in 0..4u32 {
            let key = 0x1000 * (u64::from(dense) + 1);
            let size = per_core - 16 * 1024;
            policy.register_object(dense, &ObjectDescriptor::new(key, key, size));
            expensive_op(&mut policy, &machine, dense, key);
        }
        for dead in 0..3u32 {
            policy.core_down(dead);
            assert_eq!(policy.table().used_bytes(dead), 0);
            assert!(policy.table().objects_on(dead).is_empty());
            assert_eq!(policy.table().len(), 4, "an object lost its home");
        }
        assert_eq!(policy.stats().objects_stranded, 0);
        // Everything ended up on the one survivor, past its budget.
        for dense in 0..4u32 {
            assert_eq!(policy.table().primary(dense), Some(3));
        }
        // The last core going down leaves nowhere to go.
        policy.core_down(3);
        assert_eq!(policy.stats().objects_stranded, 4);
        assert!(policy.table().is_empty());
    }

    #[test]
    fn core_down_rehomes_objects_and_blocks_the_dead_core() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        policy.register_object(0, &ObjectDescriptor::new(0x1000, 0x1000, 32 * 1024));
        for _ in 0..5 {
            expensive_op(&mut policy, &machine, 0, 0x1000);
        }
        let dead = policy.table().primary(0).expect("object assigned");
        policy.core_down(dead);
        let s = policy.stats();
        assert_eq!(s.core_down_events, 1);
        assert_eq!(s.objects_rehomed, 1);
        assert_eq!(s.objects_stranded, 0);
        let new_home = policy.table().primary(0).expect("object re-homed");
        assert_ne!(new_home, dead);
        assert_eq!(policy.table().capacity(dead), 0);
        // ct_start now targets the new home, never the dead core.
        let ctx = OpContext {
            thread: 0,
            core: dead,
            home_core: dead,
            object: 0,
            object_key: 0x1000,
            kind: AccessKind::Write,
            now: 0,
            machine: &machine,
        };
        assert_eq!(policy.on_ct_start(&ctx), Placement::On(new_home));
        let fs = policy.fault_stats();
        assert_eq!(fs.core_down_events, 1);
        assert_eq!(fs.objects_rehomed, 1);
    }

    #[test]
    fn degraded_core_flips_migration_to_data_movement() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        policy.register_object(0, &ObjectDescriptor::new(0x1000, 0x1000, 32 * 1024));
        for _ in 0..5 {
            expensive_op(&mut policy, &machine, 0, 0x1000);
        }
        let home = policy.table().primary(0).expect("object assigned");
        let other = (home + 1) % 4;
        let ctx = OpContext {
            thread: 0,
            core: other,
            home_core: other,
            object: 0,
            object_key: 0x1000,
            kind: AccessKind::Write,
            now: 0,
            machine: &machine,
        };
        assert_eq!(policy.on_ct_start(&ctx), Placement::On(home));
        // A 4x slowdown crosses the default threshold (3x): run local.
        policy.core_degraded(home, 400);
        assert_eq!(policy.on_ct_start(&ctx), Placement::Local);
        assert_eq!(policy.stats().degraded_avoids, 1);
        // A mild slowdown below the threshold does not block migration,
        // and recovery (100) clears the flag.
        policy.core_degraded(home, 150);
        assert_eq!(policy.on_ct_start(&ctx), Placement::On(home));
        policy.core_degraded(home, 400);
        policy.core_degraded(home, 100);
        assert_eq!(policy.on_ct_start(&ctx), Placement::On(home));
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
    fn counter_detector_flags_and_clears_slow_cores() {
        let machine = quad_machine();
        let mut policy = O2Policy::with_defaults(machine.config());
        policy.register_object(0, &ObjectDescriptor::new(0x1000, 0x1000, 32 * 1024));
        for _ in 0..5 {
            expensive_op(&mut policy, &machine, 0, 0x1000);
        }
        let home = policy.table().primary(0).expect("object assigned");
        let other = (home + 1) % 4;
        // A sub-threshold degradation announcement arms the detector
        // without avoiding anything by itself.
        policy.core_degraded(home, 100);
        let rate = |ops, busy| CounterDelta {
            busy_cycles: busy,
            operations_completed: ops,
            ..Default::default()
        };
        // The assigned core completes ops at 1/10 its peers' per-cycle
        // rate: the armed detector flags it without any announced fault
        // crossing the threshold.
        let mut deltas = vec![rate(1000, 100_000); 4];
        deltas[home as usize] = rate(100, 100_000);
        policy.on_epoch(&EpochView {
            now: 100_000,
            machine: &machine,
            deltas: &deltas,
        });
        let ctx = OpContext {
            thread: 0,
            core: other,
            home_core: other,
            object: 0,
            object_key: 0x1000,
            kind: AccessKind::Write,
            now: 0,
            machine: &machine,
        };
        assert_eq!(policy.on_ct_start(&ctx), Placement::Local);
        assert!(policy.stats().degraded_avoids >= 1);
        // Rates even out: the next epoch clears the flag.
        policy.on_epoch(&EpochView {
            now: 200_000,
            machine: &machine,
            deltas: &vec![rate(1000, 100_000); 4],
        });
        assert_eq!(policy.on_ct_start(&ctx), Placement::On(home));
    }

    #[test]
    fn policy_name_and_debug() {
        let machine = quad_machine();
        let policy = O2Policy::with_defaults(machine.config());
        assert_eq!(policy.name(), "coretime");
        let dbg = format!("{policy:?}");
        assert!(dbg.contains("O2Policy"));
    }

    #[test]
    fn in_place_runs_healthy_cores_locally_and_avoided_ones_by_the_home_rule() {
        let machine = quad_machine();
        let mut policy = O2Policy::new(machine.config(), CoreTimeConfig::in_place());
        // Three equal objects placed in order land on cores 0, 1 and 2.
        for dense in 0..3u32 {
            let key = 0x1000 * (u64::from(dense) + 1);
            policy.register_object(dense, &ObjectDescriptor::new(key, key, 32 * 1024));
            expensive_op(&mut policy, &machine, dense, key);
        }
        assert_eq!(policy.table().primary(2), Some(2));
        let from_core_0 = |policy: &mut O2Policy, kind| {
            policy.on_ct_start(&OpContext {
                thread: 0,
                core: 0,
                home_core: 0,
                object: 2,
                object_key: 0x3000,
                kind,
                now: 0,
                machine: &machine,
            })
        };
        // A healthy core runs reads and writes where they are.
        for kind in [AccessKind::Read, AccessKind::Write] {
            assert_eq!(from_core_0(&mut policy, kind), Placement::Local);
        }
        // An avoided core's operations migrate to the object's home.
        policy.core_degraded(0, 400);
        assert_eq!(from_core_0(&mut policy, AccessKind::Read), Placement::On(2));
        // With the home avoided as well, they run locally, and the skipped
        // migration counts as a degraded avoid.
        policy.core_degraded(2, 400);
        assert_eq!(from_core_0(&mut policy, AccessKind::Read), Placement::Local);
        let s = policy.stats();
        assert_eq!(s.migrations_requested, 1);
        assert_eq!(s.local_operations, 3);
        assert_eq!(s.degraded_avoids, 1);
    }
}
