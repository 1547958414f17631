//! Static object partitioning: an oracle-style comparator.
//!
//! Objects are assigned to cores round-robin at registration time and never
//! move. This isolates the value of CoreTime's *dynamic* machinery
//! (event-counter monitoring that places an object by its first expensive
//! operation): on the uniform workload
//! static partitioning performs like CoreTime, but on shifting workloads
//! (Figure 4b) it cannot adapt.

use o2_runtime::{
    CoreId, DenseObjectId, ObjectDescriptor, ObjectId, OpContext, Placement, PolicyFaultStats,
    SchedPolicy,
};

/// Sentinel for "dense id not registered with this policy".
const UNASSIGNED: CoreId = CoreId::MAX;

/// Round-robin static partitioning of registered objects across cores.
///
/// The table is a plain slab indexed by the dense object id the runtime
/// hands out at registration, so `ct_start` is a single bounds-checked
/// array read.
#[derive(Debug, Clone)]
pub struct StaticPartition {
    cores: u32,
    next: u32,
    /// Core per dense object id (`UNASSIGNED` = not registered).
    by_object: Vec<CoreId>,
    /// External keys, kept for the reporting API only.
    keys: Vec<ObjectId>,
    registered: usize,
    /// Bitmask of cores the fault plane took offline; round-robin and the
    /// defined fallback (next live core, cyclically) skip these.
    offline_mask: u64,
    fault: PolicyFaultStats,
}

impl StaticPartition {
    /// Creates a static partitioner for a machine with `cores` cores.
    pub fn new(cores: u32) -> Self {
        Self {
            cores: cores.max(1),
            next: 0,
            by_object: Vec::new(),
            keys: Vec::new(),
            registered: 0,
            offline_mask: 0,
            fault: PolicyFaultStats::default(),
        }
    }

    fn is_offline(&self, core: CoreId) -> bool {
        core < 64 && self.offline_mask & (1u64 << core) != 0
    }

    /// The next live core after `core`, cyclically — the baseline's
    /// defined fallback when a pin points at a dead core.
    fn next_live(&self, core: CoreId) -> CoreId {
        for step in 1..=self.cores {
            let c = (core + step) % self.cores;
            if !self.is_offline(c) {
                return c;
            }
        }
        core
    }

    /// The core an object (by external key) was assigned to, if
    /// registered. A reporting/test helper, hence the linear scan; the
    /// scheduling path uses the dense-id slab. Gap slots in `keys` are
    /// zero-filled, so only slots with a real assignment are considered
    /// (an object whose key *is* zero must not be shadowed by a gap).
    pub fn assignment(&self, object: ObjectId) -> Option<CoreId> {
        self.by_object
            .iter()
            .zip(&self.keys)
            .find(|&(&core, &k)| core != UNASSIGNED && k == object)
            .map(|(&core, _)| core)
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.registered
    }

    /// Whether no objects are registered.
    pub fn is_empty(&self) -> bool {
        self.registered == 0
    }
}

impl SchedPolicy for StaticPartition {
    fn name(&self) -> &'static str {
        "static-partition"
    }

    fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
        let idx = id as usize;
        if idx >= self.by_object.len() {
            self.by_object.resize(idx + 1, UNASSIGNED);
            self.keys.resize(idx + 1, 0);
        }
        if self.by_object[idx] == UNASSIGNED {
            self.registered += 1;
        }
        let mut core = self.next % self.cores;
        if self.is_offline(core) {
            core = self.next_live(core);
        }
        self.by_object[idx] = core;
        self.keys[idx] = object.id;
        self.next += 1;
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        match self.by_object.get(ctx.object as usize).copied() {
            Some(core) if core != UNASSIGNED && core != ctx.core => Placement::On(core),
            _ => Placement::Local,
        }
    }

    fn core_down(&mut self, core: CoreId) {
        self.fault.core_down_events += 1;
        if core < 64 {
            self.offline_mask |= 1u64 << core;
        }
        // Static partitioning cannot re-pack; the defined fallback re-pins
        // every object on the dead core to the next live core, keeping the
        // partition static but total.
        let fallback = self.next_live(core);
        if fallback == core {
            return;
        }
        for slot in &mut self.by_object {
            if *slot == core {
                *slot = fallback;
                self.fault.objects_rehomed += 1;
            }
        }
    }

    fn fault_stats(&self) -> PolicyFaultStats {
        self.fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::{Engine, OpBuilder, RepeatBehaviour, RuntimeConfig};
    use o2_sim::{Machine, MachineConfig};

    #[test]
    fn registration_round_robins_across_cores() {
        let mut p = StaticPartition::new(4);
        for id in 0..8u32 {
            p.register_object(
                id,
                &ObjectDescriptor::new(u64::from(id), u64::from(id) * 0x1000, 64),
            );
        }
        assert_eq!(p.len(), 8);
        assert_eq!(p.assignment(0), Some(0));
        assert_eq!(p.assignment(1), Some(1));
        assert_eq!(p.assignment(4), Some(0));
        assert_eq!(p.assignment(7), Some(3));
        assert_eq!(p.assignment(99), None);
    }

    #[test]
    fn key_zero_is_not_shadowed_by_gap_slots() {
        // Dense id 0 is a gap (interned by the engine but never
        // registered); the object with external key 0 registers later
        // under dense id 1 and must still be reported.
        let mut p = StaticPartition::new(4);
        p.register_object(1, &ObjectDescriptor::new(0, 0x4000, 64));
        assert_eq!(p.assignment(0), Some(0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn operations_migrate_to_the_assigned_core() {
        let machine = Machine::new(MachineConfig::quad4());
        let p = StaticPartition::new(4);
        let mut engine = Engine::new(machine, Box::new(p), RuntimeConfig::default());
        // Registration goes through the engine so the policy sees the same
        // dense ids later operations carry.
        engine.register_object(ObjectDescriptor::new(0xA, 0xA, 64)); // -> core 0
        engine.register_object(ObjectDescriptor::new(0xB, 0xB, 64)); // -> core 1
        let op = OpBuilder::annotated(0xB).compute(100).finish();
        engine.spawn(3, Box::new(RepeatBehaviour::new(op, Some(5))));
        engine.run_until_cycles(10_000_000);
        // Every operation executes on the assigned core; with the default
        // runtime the thread stays there after the first migration.
        assert_eq!(engine.machine().counters(1).operations_completed, 5);
        assert!(engine.thread_stats(0).migrations >= 1);
        assert_eq!(engine.machine().counters(3).operations_completed, 0);
    }

    #[test]
    fn core_down_repins_objects_to_the_next_live_core() {
        let mut p = StaticPartition::new(4);
        for id in 0..8u32 {
            p.register_object(
                id,
                &ObjectDescriptor::new(u64::from(id), u64::from(id) * 0x1000, 64),
            );
        }
        // Cores 1's objects (ids 1 and 5) move to core 2; later
        // registrations skip the dead core too.
        p.core_down(1);
        assert_eq!(p.assignment(1), Some(2));
        assert_eq!(p.assignment(5), Some(2));
        assert_eq!(p.assignment(0), Some(0));
        let fs = p.fault_stats();
        assert_eq!(fs.core_down_events, 1);
        assert_eq!(fs.objects_rehomed, 2);
        p.register_object(8, &ObjectDescriptor::new(8, 0x9000, 64)); // rr -> 0
        p.register_object(9, &ObjectDescriptor::new(9, 0xA000, 64)); // rr -> dead 1 -> 2
        assert_eq!(p.assignment(8), Some(0));
        assert_eq!(p.assignment(9), Some(2));
    }

    #[test]
    fn unregistered_objects_run_locally() {
        let machine = Machine::new(MachineConfig::quad4());
        let p = StaticPartition::new(4);
        let mut engine = Engine::new(machine, Box::new(p), RuntimeConfig::default());
        let op = OpBuilder::annotated(0xDEAD).compute(100).finish();
        engine.spawn(2, Box::new(RepeatBehaviour::new(op, Some(5))));
        engine.run_until_cycles(1_000_000);
        assert_eq!(engine.machine().counters(2).operations_completed, 5);
        assert_eq!(engine.thread_stats(0).migrations, 0);
    }
}
