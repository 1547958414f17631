//! `TimedPolicy` must be invisible: it forwards every `SchedPolicy`
//! method, and a run with it in place is bit-identical to one without.

use std::sync::{Arc, Mutex};

use o2_benchmark::trace::{PolicyClock, TimedPolicy, Trace};
use o2_benchmark::workloads::{fingerprint_line, policy, run_window};
use o2_experiments::PolicyKind;
use o2_runtime::{
    AccessKind, CoreId, CounterDelta, DenseObjectId, EpochView, Machine, ObjectDescriptor,
    OpContext, Placement, PolicyCommand, PolicyFaultStats, PolicyReplicationStats, SchedPolicy,
};
use o2_sim::MachineConfig;
use o2_workloads::{Experiment, WorkloadSpec};

/// Logs every call and answers with values no default would give.
struct Recording(Arc<Mutex<Vec<&'static str>>>);

impl Recording {
    fn log(&self, call: &'static str) {
        self.0.lock().unwrap().push(call);
    }
}

impl SchedPolicy for Recording {
    fn name(&self) -> &'static str {
        self.log("name");
        "recording"
    }
    fn register_object(&mut self, _: DenseObjectId, _: &ObjectDescriptor) {
        self.log("register_object");
    }
    fn reserve_objects(&mut self, _: usize) {
        self.log("reserve_objects");
    }
    fn footprint_bytes(&self) -> u64 {
        self.log("footprint_bytes");
        4242
    }
    fn on_ct_start(&mut self, _: &OpContext<'_>) -> Placement {
        self.log("on_ct_start");
        Placement::On(3)
    }
    fn on_ct_end(&mut self, _: &OpContext<'_>, _: &CounterDelta) {
        self.log("on_ct_end");
    }
    fn on_epoch(&mut self, _: &EpochView<'_>) -> Vec<PolicyCommand> {
        self.log("on_epoch");
        vec![PolicyCommand::RehomeThread { thread: 1, core: 2 }]
    }
    fn core_down(&mut self, _: CoreId) {
        self.log("core_down");
    }
    fn core_degraded(&mut self, _: CoreId, _: u32) {
        self.log("core_degraded");
    }
    fn fault_stats(&self) -> PolicyFaultStats {
        self.log("fault_stats");
        PolicyFaultStats {
            core_down_events: 7,
            ..PolicyFaultStats::default()
        }
    }
    fn replication_stats(&self) -> PolicyReplicationStats {
        self.log("replication_stats");
        PolicyReplicationStats {
            replica_served: 9,
            ..PolicyReplicationStats::default()
        }
    }
}

#[test]
fn forwards_every_method_and_its_result() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let clock = Arc::new(PolicyClock::default());
    let mut timed = TimedPolicy::wrap(Box::new(Recording(Arc::clone(&calls))), &clock);

    let machine = Machine::new(MachineConfig::quad4());
    let ctx = OpContext {
        thread: 0,
        core: 0,
        home_core: 0,
        object: 0,
        object_key: 0x1000,
        now: 0,
        kind: AccessKind::Read,
        machine: &machine,
    };
    assert_eq!(timed.name(), "recording");
    timed.register_object(0, &ObjectDescriptor::new(0x1000, 0x1000, 64));
    timed.reserve_objects(10);
    assert_eq!(timed.footprint_bytes(), 4242);
    assert_eq!(timed.on_ct_start(&ctx), Placement::On(3));
    timed.on_ct_end(&ctx, &CounterDelta::default());
    let commands = timed.on_epoch(&EpochView {
        now: 0,
        machine: &machine,
        deltas: &[],
    });
    assert_eq!(
        commands,
        [PolicyCommand::RehomeThread { thread: 1, core: 2 }]
    );
    timed.core_down(1);
    timed.core_degraded(1, 400);
    assert_eq!(timed.fault_stats().core_down_events, 7);
    assert_eq!(timed.replication_stats().replica_served, 9);

    // One entry per trait method, in call order: a method added to the
    // trait and not forwarded would fall through to its default and be
    // missing here (and this list must then grow with the trait).
    assert_eq!(
        *calls.lock().unwrap(),
        [
            "name",
            "register_object",
            "reserve_objects",
            "footprint_bytes",
            "on_ct_start",
            "on_ct_end",
            "on_epoch",
            "core_down",
            "core_degraded",
            "fault_stats",
            "replication_stats",
        ]
    );

    // The four timed entry points each counted their one call.
    let trace = Trace::new();
    trace.span("test", || clock.flush(&trace, "core"));
    for name in [
        "core.ct_start",
        "core.ct_end",
        "core.epoch",
        "core.register",
    ] {
        assert_eq!(trace.total(name).0, 1, "{name}");
    }
}

#[test]
fn wrapped_run_is_bit_identical_to_unwrapped() {
    let fingerprint = |clock: Option<&Arc<PolicyClock>>| {
        let mut spec = WorkloadSpec::paper_default(24);
        spec.machine = MachineConfig::quad4();
        spec.warmup_ops = 300;
        spec.measure_cycles = 600_000;
        spec.seed = 7;
        let (warmup, cycles) = (spec.warmup_ops, spec.measure_cycles);
        let policy = policy(PolicyKind::CoreTime, &spec.machine, clock);
        let mut exp = Experiment::build(spec, policy);
        let window = run_window(exp.engine_mut(), warmup, cycles);
        assert_eq!(window.failed, 0);
        fingerprint_line("cell", exp.engine(), window.ops, window.kops)
    };
    let clock = Arc::new(PolicyClock::default());
    let plain = fingerprint(None);
    assert_eq!(plain, fingerprint(Some(&clock)));
    assert!(plain.contains("ops="), "{plain}");
}
