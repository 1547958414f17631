//! The scheduling-policy interface.
//!
//! The engine is policy-agnostic: at every `ct_start` it asks the installed
//! [`SchedPolicy`] where the operation should run, at every `ct_end` it
//! reports the event-counter delta observed during the operation, and at
//! every epoch boundary it hands the policy a machine-wide counter view and
//! applies the commands it returns (thread rehomings). CoreTime (`o2-core`) and the baselines
//! (`o2-baseline`) are both implementations of this trait, so any measured
//! difference between them is purely the scheduling policy — exactly the
//! comparison the paper makes.

use crate::action::ObjectDescriptor;
use crate::types::{CoreId, Cycles, DenseObjectId, ObjectId, ThreadId};
use o2_sim::{AccessKind, CounterDelta, Machine};

/// Where an operation should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Execute on the core the thread is already running on.
    Local,
    /// Migrate the thread to the given core for the duration of the
    /// operation.
    On(CoreId),
}

/// Context handed to the policy at `ct_start` and `ct_end`.
pub struct OpContext<'a> {
    /// The thread performing the operation.
    pub thread: ThreadId,
    /// The core the thread is currently on.
    pub core: CoreId,
    /// The thread's home core.
    pub home_core: CoreId,
    /// The object named by `ct_start`, as a dense id assigned by the
    /// engine's object index in first-touch order. Policies index their
    /// tables directly with this.
    pub object: DenseObjectId,
    /// The external key (address) the operation named. Only needed for
    /// reporting and for deterministic tie-breaking; the hot path uses
    /// [`OpContext::object`].
    pub object_key: ObjectId,
    /// The acting core's local clock.
    pub now: Cycles,
    /// Whether the operation reads the object or mutates it, as declared
    /// by `ct_start`. No shipped policy places by it.
    pub kind: AccessKind,
    /// Read-only view of the machine (configuration, counters, occupancy).
    pub machine: &'a Machine,
}

/// Machine-wide view handed to the policy at each epoch boundary.
pub struct EpochView<'a> {
    /// Virtual time of the epoch boundary.
    pub now: Cycles,
    /// Read-only view of the machine.
    pub machine: &'a Machine,
    /// Per-core counter deltas since the previous epoch.
    pub deltas: &'a [CounterDelta],
}

/// Commands a policy can issue at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyCommand {
    /// Change a thread's home core (used by thread-clustering baselines;
    /// takes effect the next time the thread is runnable on its home core).
    RehomeThread {
        /// The thread to move.
        thread: ThreadId,
        /// Its new home core.
        core: CoreId,
    },
}

/// Fault-handling counters a policy exposes through
/// [`SchedPolicy::fault_stats`]. The defaults are all zero; policies that
/// ignore faults (and rely on the engine's fallback re-pinning) report
/// zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyFaultStats {
    /// `core_down` notifications received.
    pub core_down_events: u64,
    /// Objects (or static pins) moved off a dead core onto live ones.
    pub objects_rehomed: u64,
    /// Objects that could not be re-placed after an offlining and fell
    /// back to hardware management.
    pub objects_stranded: u64,
    /// Migrations the policy skipped because the target core was degraded
    /// (the "migration flips to data movement" path).
    pub degraded_avoids: u64,
}

/// What [`SchedPolicy::replication_stats`] returns: a shim kept for the
/// benchmark harness, which still reads `replica_served`. No policy keeps
/// replicas, so every policy reports zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyReplicationStats {
    /// Operations served from a non-primary copy: always zero.
    pub replica_served: u64,
}

/// A scheduling policy.
///
/// All methods have defaults equivalent to a traditional thread scheduler:
/// never migrate, ignore monitoring data. This is deliberately the paper's
/// baseline ("Without CoreTime").
pub trait SchedPolicy {
    /// Human-readable policy name, used in reports.
    fn name(&self) -> &'static str;

    /// Called when an object is registered with the runtime: explicitly
    /// before or during a run, or — for an object of a declared region —
    /// at the first `ct_start` that names it, just before that
    /// operation's [`SchedPolicy::on_ct_start`]. `id` is the dense id the
    /// engine's object index assigned to `object.id`; it is the same id
    /// later operations on the object carry in [`OpContext::object`].
    fn register_object(&mut self, _id: DenseObjectId, _object: &ObjectDescriptor) {}

    /// Hint that roughly `n` more objects are about to be registered, so
    /// the policy can pre-size its per-object tables and stay
    /// allocation-free while they stream in. The default does nothing.
    fn reserve_objects(&mut self, _n: usize) {}

    /// Heap bytes held by the policy's per-object state, for the scale
    /// tier's audit of bytes per touched object. Policies without such
    /// state (the default) report zero.
    fn footprint_bytes(&self) -> u64 {
        0
    }

    /// Called at `ct_start`; returns where the operation should run.
    fn on_ct_start(&mut self, _ctx: &OpContext<'_>) -> Placement {
        Placement::Local
    }

    /// Called at `ct_end` with the counter delta observed on the core that
    /// executed the operation (the paper counts "the number of cache misses
    /// that occur between a pair of CoreTime annotations").
    fn on_ct_end(&mut self, _ctx: &OpContext<'_>, _delta: &CounterDelta) {}

    /// Called at every epoch boundary with per-core counter deltas;
    /// returns commands for the engine to apply.
    fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
        Vec::new()
    }

    /// Called when the fault plan takes a core permanently offline,
    /// *before* the engine drains the core's threads — so the policy can
    /// stop placing work there immediately. The default does nothing; the
    /// engine's fallback (re-pin to the next live core) covers policies
    /// that ignore this.
    fn core_down(&mut self, _core: CoreId) {}

    /// Called when a core's effective speed changes: `slowdown_percent`
    /// is the new cost multiplier in percent of nominal (400 = 4x
    /// slower); 100 means the core recovered. Also fired for an offlined
    /// core's slowdown window ending, if any.
    fn core_degraded(&mut self, _core: CoreId, _slowdown_percent: u32) {}

    /// Fault-handling counters, for diagnostics and experiments.
    fn fault_stats(&self) -> PolicyFaultStats {
        PolicyFaultStats::default()
    }

    /// Replica-serving counters: all zero, because no policy keeps
    /// replicas. A shim kept for the benchmark harness, which wraps and
    /// reads it.
    fn replication_stats(&self) -> PolicyReplicationStats {
        PolicyReplicationStats::default()
    }
}

/// The trivial policy: never migrate anything. This is the traditional
/// thread scheduler the paper compares against ("Without CoreTime").
#[derive(Debug, Default, Clone)]
pub struct NullPolicy;

impl SchedPolicy for NullPolicy {
    fn name(&self) -> &'static str {
        "thread-scheduler"
    }
}

/// A policy with a fixed object→core table, useful for tests and for
/// oracle/static-placement ablations.
#[derive(Debug, Default, Clone)]
pub struct StaticPolicy {
    assignments: std::collections::HashMap<ObjectId, CoreId>,
}

impl StaticPolicy {
    /// Creates an empty static policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns an object to a core.
    pub fn assign(&mut self, object: ObjectId, core: CoreId) {
        self.assignments.insert(object, core);
    }

    /// Number of assigned objects.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no objects are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

impl SchedPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static-placement"
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        // Static tables are keyed by the user-facing object key, so tests
        // and ablations can set them up without knowing intern order.
        match self.assignments.get(&ctx.object_key) {
            Some(&core) if core != ctx.core => Placement::On(core),
            _ => Placement::Local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::quad4())
    }

    fn ctx<'a>(machine: &'a Machine, object: ObjectId, core: CoreId) -> OpContext<'a> {
        OpContext {
            thread: 0,
            core,
            home_core: core,
            object: 0,
            object_key: object,
            now: 0,
            kind: AccessKind::Write,
            machine,
        }
    }

    #[test]
    fn null_policy_never_migrates() {
        let m = machine();
        let mut p = NullPolicy;
        assert_eq!(p.name(), "thread-scheduler");
        assert_eq!(p.on_ct_start(&ctx(&m, 0x1000, 2)), Placement::Local);
        assert!(p
            .on_epoch(&EpochView {
                now: 0,
                machine: &m,
                deltas: &[]
            })
            .is_empty());
    }

    #[test]
    fn static_policy_follows_its_table() {
        let m = machine();
        let mut p = StaticPolicy::new();
        assert!(p.is_empty());
        p.assign(0x1000, 3);
        assert_eq!(p.len(), 1);
        assert_eq!(p.on_ct_start(&ctx(&m, 0x1000, 0)), Placement::On(3));
        // Already on the right core: no migration.
        assert_eq!(p.on_ct_start(&ctx(&m, 0x1000, 3)), Placement::Local);
        // Unknown object: run locally.
        assert_eq!(p.on_ct_start(&ctx(&m, 0x2000, 0)), Placement::Local);
    }
}
