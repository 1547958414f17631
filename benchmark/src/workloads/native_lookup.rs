//! `native_lookup` — CoreTime placing operations on real threads.
//!
//! `o2_native::run_native` over 64 directories of 128 entries, Zipf 1.1,
//! 5 % writes, two pinned workers, closed loop, under CoreTime and under
//! the thread scheduler. The only workload with real threads: the policy
//! mutex, the SPSC rings and pinning do the work and the simulator is
//! absent, so `coretime_vs_thread` here is measured wall-clock, not
//! simulated. An untimed simulator twin of the same spec supplies the
//! simulated metrics, which puts the model's prediction beside the
//! measurement.

use o2_experiments::PolicyKind;
use o2_native::host::OpIdentity;
use o2_native::{
    native_machine_config, pin_to_cpu, run_native, synthetic_delta, NativeConfig, NativeLookup,
    NativeLookupSpec, NativeWorkload, PolicyHost, SpscRing,
};
use o2_workloads::{Experiment, Popularity, WorkloadSpec};

use super::{
    clock_for, flush, ns_per_call, policy, run_window, small_setup, Check, Layers, Model, Rep,
    SERIES,
};
use crate::host::nproc;
use crate::sizes::{
    MICRO_OPS, NATIVE_DIRS, NATIVE_ENTRIES, NATIVE_MEASURE_OPS, NATIVE_MODEL_CYCLES,
    NATIVE_WARMUP_OPS, NATIVE_WORKERS, RING_ROUNDTRIPS,
};
use crate::trace::{timed, Trace};

const ZIPF_EXPONENT: f64 = 1.1;
const WRITE_FRACTION: f64 = 0.05;

fn lookup_spec(seed: u64) -> NativeLookupSpec {
    let mut spec = NativeLookupSpec::paper_default(NATIVE_DIRS, seed);
    spec.entries_per_dir = NATIVE_ENTRIES;
    spec.zipf_exponent = Some(ZIPF_EXPONENT);
    spec.write_fraction = WRITE_FRACTION;
    spec
}

fn native_config() -> NativeConfig {
    let mut cfg = NativeConfig::new(NATIVE_WORKERS);
    cfg.warmup_ops = NATIVE_WARMUP_OPS;
    cfg.measure_ops = NATIVE_MEASURE_OPS;
    cfg
}

pub fn rep(seed: u64, trace: Option<&Trace>) -> Rep {
    let spec = lookup_spec(seed);
    let cfg = native_config();
    let mut rep = Rep::default();
    let mut runs = Vec::new();
    for (kind, layer) in SERIES {
        // A fresh image per policy: both execute the same operation
        // stream against the same initial state.
        let (workload, setup_s) = small_setup(trace, || NativeLookup::build(&spec));
        let clock = clock_for(trace);
        let (m, run_s) = timed(trace, "native.run", || {
            let m = run_native(&workload, policy(kind, &cfg.machine, clock.as_ref()), &cfg);
            flush(trace, &clock, layer);
            m
        });
        rep.setup_s += setup_s;
        rep.run_s += run_s;
        rep.attempted += cfg.warmup_ops + cfg.measure_ops;
        rep.failed += cfg.measure_ops.saturating_sub(m.ops);
        rep.fingerprint.push_str(&format!(
            "{}: ops={} reads={} writes={} epochs={} digest={:#018x}\n",
            kind.label(),
            m.ops,
            m.reads,
            m.writes,
            m.epochs,
            m.state_digest
        ));
        runs.push(m);
    }
    let (ct, ts) = (&runs[0], &runs[1]);
    // What the native scheduler processes: two policy calls per operation,
    // two ring messages (descriptor, completion) per migration, epochs.
    rep.ops = ct.ops;
    rep.events = 2 * ct.ops + 2 * ct.migrations + ct.epochs;
    rep.rate_s = ct.wall_seconds;
    rep.model.measured_ratio = Some(ct.kops_per_sec() / ts.kops_per_sec());

    let mean = ct.ops as f64 / ct.workers as f64;
    let busiest = ct.per_worker_ops.iter().copied().max().unwrap_or(0) as f64;
    rep.layers = vec![
        (
            "native.migrations_per_op",
            ct.migrations as f64 / ct.ops.max(1) as f64,
        ),
        ("native.ring_full_local", ct.ring_full_local as f64),
        ("native.ring_depth_hwm", ct.ring_depth_hwm as f64),
        ("native.occupancy_imbalance", busiest / mean - 1.0),
        ("native.lock_contention", ct.lock_contention as f64),
    ];
    rep.checks = vec![
        Check::new(
            "state_digests_equal_across_policies",
            ct.state_digest == ts.state_digest,
            format!("{:#018x} vs {:#018x}", ct.state_digest, ts.state_digest),
        ),
        Check::new(
            "completed_equals_requested",
            runs.iter().all(|m| m.ops == cfg.measure_ops),
            format!("{} and {} of {}", ct.ops, ts.ops, cfg.measure_ops),
        ),
    ];
    rep.notes.push(format!(
        "{} workers on {} CPUs, {} pinned; coretime_vs_thread is measured wall-clock, the other \
         simulated metrics come from the simulator twin of the same spec",
        ct.workers,
        nproc(),
        ct.pinned_workers
    ));
    if nproc() < NATIVE_WORKERS {
        rep.notes.push(format!(
            "unresolved: {} workers share {} CPU(s), so timings measure the host's thread \
             switching rather than the runtime",
            NATIVE_WORKERS,
            nproc()
        ));
    }
    rep
}

/// The simulator's prediction for the same spec: identical directories,
/// popularity, write mix and seed on a machine with one core per worker.
pub fn model(seed: u64, rep: &Rep) -> Model {
    let machine = native_machine_config(NATIVE_WORKERS);
    let mut model = Model {
        measured_ratio: rep.model.measured_ratio,
        ..Model::default()
    };
    for (kind, _) in SERIES {
        let mut spec = WorkloadSpec::paper_default(NATIVE_DIRS);
        spec.machine = machine.clone();
        spec.entries_per_dir = NATIVE_ENTRIES;
        spec.popularity = Popularity::Zipf {
            exponent: ZIPF_EXPONENT,
        };
        spec.write_fraction = WRITE_FRACTION;
        spec.seed = seed;
        spec.measure_cycles = NATIVE_MODEL_CYCLES;
        let (warmup, cycles) = (spec.warmup_ops, spec.measure_cycles);
        let mut exp = Experiment::build(spec, policy(kind, &machine, None));
        let window = run_window(exp.engine_mut(), warmup, cycles);
        model.record(kind, window.kops, exp.engine().sched_stats().op_latency);
    }
    model
}

/// Round trips of one message over a pair of rings between two threads,
/// pinned like the runtime's workers so the ring is timed, not the host's
/// choice of where to run them.
fn ring_roundtrip_ns() -> f64 {
    if nproc() < 2 {
        return 0.0; // two spinning threads on one CPU time the scheduler's quantum
    }
    let there: SpscRing<u64> = SpscRing::with_capacity(256);
    let back: SpscRing<u64> = SpscRing::with_capacity(256);
    let wait = |ring: &SpscRing<u64>| loop {
        if let Some(v) = ring.pop() {
            return v;
        }
        std::hint::spin_loop();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pin_to_cpu(1);
            for _ in 0..RING_ROUNDTRIPS {
                let v = wait(&there);
                back.push(v).expect("ring holds one message at a time");
            }
        });
        pin_to_cpu(0);
        ns_per_call(RING_ROUNDTRIPS, |i| {
            there.push(i).expect("ring holds one message at a time");
            std::hint::black_box(wait(&back));
        })
    })
}

pub fn micro(seed: u64, _traced: &Rep) -> Layers {
    let workload = NativeLookup::build(&lookup_spec(seed));
    let machine = native_machine_config(NATIVE_WORKERS);
    let mut host = PolicyHost::new(policy(PolicyKind::CoreTime, &machine, None), &machine);
    host.reserve(workload.n_objects() as usize);
    for object in 0..workload.n_objects() {
        host.register(object, &workload.descriptor(object));
    }
    let ops: Vec<OpIdentity> = (0..MICRO_OPS)
        .map(|i| {
            let op = workload.op(i);
            OpIdentity {
                worker: (i % NATIVE_WORKERS as u64) as usize,
                object: op.object,
                key: workload.key_of(op.object),
                now: i * 200,
                kind: op.kind,
            }
        })
        .collect();
    let delta = synthetic_delta(u64::from(NATIVE_ENTRIES) * 32, 2_000);
    let place_ns = ns_per_call(MICRO_OPS, |i| {
        let op = &ops[i as usize];
        std::hint::black_box(host.place(op, NATIVE_WORKERS));
        host.ct_end(op, op.worker, &delta);
    });
    vec![
        ("native.ring_roundtrip_ns", ring_roundtrip_ns()),
        ("native.place_ns", place_ns),
    ]
}
