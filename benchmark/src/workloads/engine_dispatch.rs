//! `engine_dispatch` — the event core and dispatch loop on their own.
//!
//! Three regimes on the 16-core machine with L1-resident data, so
//! `Machine::access` short-circuits and the engine itself does the work:
//! idle-heavy (1 busy core, 15 parked), saturated (32 threads, spin
//! locks, static-placement migrations) and bursty (a blocking-lock convoy
//! with long quiet gaps). A memory-model change should move nothing
//! here; an event-core change shows here first. The seed nudges compute
//! costs and the static placement, so inputs differ by seed without
//! changing regime.
//!
//! The simulated comparison is an untimed pair: the saturated regime's
//! operation stream under CoreTime and under the thread scheduler.

use o2_runtime::{
    Action, Engine, NullPolicy, ObjectDescriptor, OpBuilder, RepeatBehaviour, RuntimeConfig,
    SchedPolicy, StaticPolicy,
};
use o2_sim::{ContentionModel, Machine, MachineConfig};

use super::{
    fingerprint_line, policy, record_ns, run_window, small_setup, Counters, Layers, Model, Rep,
    SERIES,
};
use crate::sizes::{
    ENGINE_BURSTY_CYCLES, ENGINE_IDLE_CYCLES, ENGINE_MODEL_CYCLES, ENGINE_SATURATED_CYCLES,
};
use crate::trace::{timed, Trace};

type BoxedPolicy = Box<dyn SchedPolicy + Send>;

fn quiet_machine() -> Machine {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    Machine::new(cfg)
}

fn idle_heavy(seed: u64, policy: BoxedPolicy) -> Engine {
    let mut engine = Engine::new(quiet_machine(), policy, RuntimeConfig::default());
    let data = engine.machine_mut().memory_mut().alloc(64 * 1024, 0);
    let op = OpBuilder::annotated(0x1)
        .compute(600 + seed % 4)
        .read(data.addr, 4096)
        .finish();
    engine.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    engine
}

/// Object `i` of the saturated regime lives on this core.
fn saturated_home(seed: u64, i: u64) -> u32 {
    ((i * 5 + seed) % 16) as u32
}

fn saturated(seed: u64, policy: BoxedPolicy) -> Engine {
    let cfg = RuntimeConfig {
        quantum_cycles: 10_000,
        ..RuntimeConfig::default()
    };
    let mut engine = Engine::new(Machine::new(MachineConfig::amd16()), policy, cfg);
    let data = engine.machine_mut().memory_mut().alloc(1 << 20, 0);
    let locks: Vec<_> = (0..8)
        .map(|_| {
            let r = engine.machine_mut().memory_mut().alloc(64, 1);
            engine.register_lock(r.addr)
        })
        .collect();
    for i in 0..8u64 {
        // A no-op for the static policy; CoreTime (the model pair) learns
        // the objects' extents from it.
        let addr = data.addr + i * 4096;
        engine.register_object(ObjectDescriptor::new(0x1000 + i, addr, 1024));
    }
    for core in 0..16u32 {
        let lock = locks[(core % 8) as usize];
        let op = OpBuilder::annotated(0x1000 + u64::from(core % 8))
            .lock(lock)
            .compute(300 + seed % 4)
            .read(data.addr + u64::from(core) * 4096, 1024)
            .unlock(lock)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
        let spinner = vec![Action::Compute(500), Action::Yield];
        engine.spawn(core, Box::new(RepeatBehaviour::new(spinner, None)));
    }
    engine
}

fn static_placement(seed: u64) -> BoxedPolicy {
    let mut policy = StaticPolicy::new();
    for i in 0..8u64 {
        policy.assign(0x1000 + i, saturated_home(seed, i));
    }
    Box::new(policy)
}

fn bursty(seed: u64, policy: BoxedPolicy) -> Engine {
    let cfg = RuntimeConfig::default().with_blocking_locks();
    let mut engine = Engine::new(quiet_machine(), policy, cfg);
    let lock_region = engine.machine_mut().memory_mut().alloc(64, 0);
    let lock = engine.register_lock(lock_region.addr);
    // Every release hands the lock to the next waiter, so wake-ups come in
    // same-cycle storms; then the whole machine computes for 30k cycles.
    for core in 0..16u32 {
        let op = OpBuilder::annotated(0x2000 + u64::from(core))
            .lock(lock)
            .compute(150 + seed % 4)
            .unlock(lock)
            .compute(30_000)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
    }
    engine
}

pub fn rep(seed: u64, trace: Option<&Trace>) -> Rep {
    // The policies here decide nothing worth timing (a no-op and a table
    // look-up), so a traced rep records spans only.
    type Regime = (&'static str, u64, fn(u64) -> Engine);
    let regimes: [Regime; 3] = [
        ("idle_heavy", ENGINE_IDLE_CYCLES, |seed| {
            idle_heavy(seed, Box::new(NullPolicy))
        }),
        ("saturated", ENGINE_SATURATED_CYCLES, |seed| {
            saturated(seed, static_placement(seed))
        }),
        ("bursty", ENGINE_BURSTY_CYCLES, |seed| {
            bursty(seed, Box::new(NullPolicy))
        }),
    ];
    let mut rep = Rep::default();
    let mut counters = Counters::default();
    for (name, cycles, build) in regimes {
        let (mut engine, setup_s) = small_setup(trace, || build(seed));
        let (window, run_s) = timed(trace, "runtime.run", || run_window(&mut engine, 0, cycles));
        counters.add(&engine);
        rep.setup_s += setup_s;
        rep.run_s += run_s;
        rep.failed += window.failed;
        rep.fingerprint
            .push_str(&fingerprint_line(name, &engine, window.ops, window.kops));
    }
    rep.ops = counters.ops;
    rep.events = counters.events;
    rep.rate_s = rep.run_s;
    rep.attempted = counters.ops + rep.failed;
    rep.layers = counters.layers();
    rep
}

/// The untimed CoreTime / thread-scheduler pair over the saturated
/// regime's operation stream.
pub fn model(seed: u64, _rep: &Rep) -> Model {
    let machine = MachineConfig::amd16();
    let mut model = Model::default();
    for (kind, _) in SERIES {
        let mut engine = saturated(seed, policy(kind, &machine, None));
        let window = run_window(&mut engine, 0, ENGINE_MODEL_CYCLES);
        model.record(kind, window.kops, engine.sched_stats().op_latency);
    }
    model
}

pub fn micro(_seed: u64, _traced: &Rep) -> Layers {
    vec![record_ns()]
}
