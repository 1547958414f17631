//! `fsmeta_churn` — metadata churn over many small directories.
//!
//! 4096 directories of 64 slots, 40/30/14/14/2 create / unlink / rename /
//! lookup / retire, closed loop, CoreTime and the thread scheduler. The
//! same layers as `lookup_sweep` used the other way: writes beside
//! reads, operations a tenth as long, `o2-fs` mutated on the host side,
//! and several times more policy calls per host second — a lookup gain
//! bought at churn's expense shows here.

use o2_fs::{synthetic_name, Volume};
use o2_workloads::{FsMetaExperiment, FsMetaSpec};

use super::{
    clock_for, fingerprint_line, flush, ns_per_call, policy, record_ns, Counters, Layers, Rep,
    SERIES,
};
use crate::sizes::{FSMETA_DIRS, FSMETA_MEASURE_CYCLES, MICRO_OPS};
use crate::trace::{timed, Trace};

pub fn rep(seed: u64, trace: Option<&Trace>) -> Rep {
    let mut rep = Rep::default();
    let mut counters = Counters::default();
    for (kind, layer) in SERIES {
        let mut spec = FsMetaSpec::paper_default(FSMETA_DIRS);
        spec.seed = seed;
        spec.measure_cycles = FSMETA_MEASURE_CYCLES;
        let clock = clock_for(trace);
        let (mut exp, setup_s) = timed(trace, "workloads.build", || {
            let policy = policy(kind, &spec.machine, clock.as_ref());
            let exp = FsMetaExperiment::build(spec, policy);
            flush(trace, &clock, layer);
            exp
        });
        let (m, run_s) = timed(trace, "runtime.run", || {
            let m = exp.run();
            flush(trace, &clock, layer);
            m
        });

        let engine = exp.engine();
        counters.add(engine);
        rep.setup_s += setup_s;
        rep.run_s += run_s;
        rep.fingerprint.push_str(&fingerprint_line(
            kind.label(),
            engine,
            m.window.ops,
            m.kres_per_sec(),
        ));
        rep.fingerprint
            .push_str(&format!("  {:?}\n", exp.meta_stats()));
        let latency = engine.sched_stats().op_latency;
        rep.model.record(kind, m.kres_per_sec(), latency);
    }
    rep.ops = counters.ops;
    rep.events = counters.events;
    rep.rate_s = rep.run_s;
    rep.attempted = counters.ops;
    rep.layers = counters.layers();
    rep.notes.push(format!(
        "coretime_vs_thread is simulated and below 1 by design: ops this short lose to the \
         ~2000-cycle migration; percentiles are service latency (closed loop), {} samples",
        rep.model.latency_count
    ));
    rep
}

pub fn micro(_seed: u64, _traced: &Rep) -> Layers {
    let spec = FsMetaSpec::paper_default(FSMETA_DIRS);
    let start = std::time::Instant::now();
    let mut volume = Volume::build_benchmark(spec.n_dirs, spec.initial_live_per_dir)
        .expect("benchmark volume construction failed");
    let volume_build_s = start.elapsed().as_secs_f64();

    // One rename, one unlink and one create per round, so every directory
    // ends each round as it began (the freed slot is the lowest, and
    // creation takes the lowest free slot).
    let n_dirs = u64::from(spec.n_dirs);
    let original = synthetic_name(0);
    let renamed = synthetic_name(9_000_000);
    let round_ns = ns_per_call(MICRO_OPS / 3, |i| {
        let dir = (i.wrapping_mul(0x9E37_79B9) % n_dirs) as u32;
        volume
            .rename(dir, &original, &renamed)
            .expect("entry exists");
        volume.unlink(dir, &renamed).expect("entry exists");
        volume
            .create_entry(dir, &original, 0)
            .expect("slot is free");
    });
    vec![
        ("fs.volume_build_s", volume_build_s),
        ("fs.churn_ns", round_ns / 3.0),
        record_ns(),
    ]
}
