//! Driving an unchanged [`SchedPolicy`] from real threads.
//!
//! The simulator's policies receive an [`OpContext`] carrying a read-only
//! `&Machine` view (used for topology: chip membership, hop counts,
//! per-core cache budgets). The native runtime owns a [`PolicyHost`] — a
//! policy plus a fresh [`Machine`] sized to the worker count — behind one
//! mutex, and funnels every `ct_start` / `ct_end` / epoch call through
//! it. The policy cannot tell it is placing operations on real threads:
//! the interface, the ids and the counter deltas all look exactly as they
//! do under the simulator. What differs is spelled out in `DESIGN.md`
//! ("The native runtime"): the machine view's cycle counters stay at
//! zero, and counter deltas are synthesized from the bytes an op really
//! touched rather than simulated per-line.

use o2_runtime::{
    CounterDelta, EpochView, Machine, ObjectDescriptor, OpContext, Placement, PolicyCommand,
    SchedPolicy,
};
use o2_sim::{AccessKind, MachineConfig};

/// Identity of one native operation, as the policy sees it.
#[derive(Debug, Clone, Copy)]
pub struct OpIdentity {
    /// Submitting worker (doubles as thread id and home core).
    pub worker: usize,
    /// Dense object id (the workload's object index).
    pub object: u32,
    /// External object key (the descriptor address).
    pub key: u64,
    /// Virtual clock value for this call.
    pub now: u64,
    /// Declared access kind.
    pub kind: AccessKind,
}

/// A scheduling policy plus the machine view its callbacks expect.
pub struct PolicyHost {
    policy: Box<dyn SchedPolicy + Send>,
    machine: Machine,
}

impl PolicyHost {
    /// Wraps a policy with a machine view built from `cfg` (one simulated
    /// core per native worker).
    pub fn new(policy: Box<dyn SchedPolicy + Send>, cfg: &MachineConfig) -> Self {
        Self {
            policy,
            machine: Machine::new(cfg.clone()),
        }
    }

    /// The policy's name.
    pub fn name(&self) -> &'static str {
        self.policy.name()
    }

    /// Registers an object with the policy under its dense id.
    pub fn register(&mut self, id: u32, descriptor: &ObjectDescriptor) {
        self.policy.register_object(id, descriptor);
    }

    /// Pre-sizes the policy's per-object tables.
    pub fn reserve(&mut self, n: usize) {
        self.policy.reserve_objects(n);
    }

    /// `ct_start`: where should this operation run? Placements outside
    /// the worker range are clamped to local (defensive: the machine view
    /// has exactly one core per worker, so a well-formed policy never
    /// produces one).
    pub fn place(&mut self, op: &OpIdentity, workers: usize) -> Placement {
        let placement = self.policy.on_ct_start(&ctx(&self.machine, op));
        match placement {
            Placement::On(core) if (core as usize) < workers => placement,
            Placement::On(_) => Placement::Local,
            Placement::Local => Placement::Local,
        }
    }

    /// `ct_end`: reports the counter delta observed on the core that
    /// executed the operation (`executed_on`, which differs from the
    /// submitter when the op migrated).
    pub fn ct_end(&mut self, op: &OpIdentity, executed_on: usize, delta: &CounterDelta) {
        let mut view = ctx(&self.machine, op);
        view.core = executed_on as u32;
        self.policy.on_ct_end(&view, delta);
    }

    /// Epoch boundary: hands the policy per-worker deltas and returns its
    /// commands.
    pub fn epoch(&mut self, now: u64, deltas: &[CounterDelta]) -> Vec<PolicyCommand> {
        self.policy.on_epoch(&EpochView {
            now,
            machine: &self.machine,
            deltas,
        })
    }
}

/// Builds the [`OpContext`] the policy sees for `op` (a free function so
/// the machine borrow stays disjoint from the `&mut` policy borrow).
fn ctx<'a>(machine: &'a Machine, op: &OpIdentity) -> OpContext<'a> {
    OpContext {
        thread: op.worker,
        core: op.worker as u32,
        home_core: op.worker as u32,
        object: op.object,
        object_key: op.key,
        now: op.now,
        kind: op.kind,
        machine,
    }
}

/// Synthesizes the counter delta for an executed native op.
///
/// The paper's monitor counts "the number of cache misses that occur
/// between a pair of CoreTime annotations"; natively we cannot read the
/// PMU portably, so the delta is derived from what the op *demonstrably*
/// did: one line-sized miss per 64 bytes actually scanned, and the
/// modeled compute cycles as busy time. This keeps the delta a pure
/// function of the op (deterministic across schedules) while still being
/// proportional to real work, so the policy's verdict machinery fires
/// exactly as it does under the simulator.
pub fn synthetic_delta(bytes_touched: u64, busy_cycles: u64) -> CounterDelta {
    let lines = bytes_touched.div_ceil(64);
    CounterDelta {
        busy_cycles,
        idle_cycles: 0,
        l1_misses: lines,
        l2_misses: lines,
        l2_hits: 0,
        l3_hits: 0,
        l3_misses: lines,
        remote_cache_loads: 0,
        dram_loads: lines,
        operations_completed: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::NullPolicy;

    fn op(object: u32, worker: usize) -> OpIdentity {
        OpIdentity {
            worker,
            object,
            key: 0x1000 + u64::from(object) * 0x100,
            now: 0,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn null_policy_stays_local() {
        let cfg = crate::native_machine_config(4);
        let mut host = PolicyHost::new(Box::new(NullPolicy), &cfg);
        assert_eq!(host.name(), "thread-scheduler");
        assert_eq!(host.place(&op(0, 1), 4), Placement::Local);
        assert!(host.epoch(100, &[]).is_empty());
    }

    #[test]
    fn out_of_range_placements_are_clamped() {
        let cfg = crate::native_machine_config(2);
        let mut st = o2_runtime::StaticPolicy::new();
        st.assign(0x1000, 7); // points past the 2-worker machine
        let mut host = PolicyHost::new(Box::new(st), &cfg);
        assert_eq!(host.place(&op(0, 0), 2), Placement::Local);
    }

    #[test]
    fn synthetic_delta_is_proportional_to_bytes() {
        let d = synthetic_delta(4096, 500);
        assert_eq!(d.object_fetch_misses(), 64);
        assert_eq!(d.busy_cycles, 500);
        assert_eq!(d.operations_completed, 1);
        assert_eq!(synthetic_delta(1, 1).object_fetch_misses(), 1);
        assert_eq!(synthetic_delta(0, 1).object_fetch_misses(), 0);
    }
}
