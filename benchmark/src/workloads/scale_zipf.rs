//! `scale_zipf` — four million objects behind an open loop.
//!
//! `ScaleExperiment` over 4e6 4 KB objects, Zipf 1.1, 95 % reads, replica
//! serving on, Poisson arrivals at a mean gap of 8000 cycles per thread
//! (about three quarters of the closed loop's saturated rate, so queues
//! form and drain). The one workload where set-up — 4e6 `register_object`
//! calls through interner, registry and assignment table — is a third of
//! the wall, and where arrival-to-completion latency has a tail worth
//! reporting. One untimed thread-scheduler twin supplies the comparison.

use o2_collections::{FlatTable, Interner};
use o2_experiments::{scale_spec_for, serving_coretime_config, PolicyKind};
use o2_sim::Machine;
use o2_workloads::{ScaleExperiment, ScaleMeasurement, ScaleSpec, ZipfSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    clock_for, fingerprint_line, flush, maybe_timed, ns_per_call, record_ns, Check, Counters,
    Layers, Model, Rep,
};
use crate::sizes::{MICRO_OPS, SCALE_MEAN_GAP_CYCLES, SCALE_MEASURE_CYCLES, SCALE_OBJECTS};
use crate::stats::highest_percentile;
use crate::trace::{timed, Trace};

fn spec_for(seed: u64) -> ScaleSpec {
    let mut spec = scale_spec_for(SCALE_OBJECTS, seed);
    spec.open_loop_mean_gap = Some(SCALE_MEAN_GAP_CYCLES);
    spec.measure_cycles = SCALE_MEASURE_CYCLES;
    spec
}

/// Builds and runs one series; returns the experiment for its counters.
fn run_series(
    kind: PolicyKind,
    layer: &str,
    seed: u64,
    trace: Option<&Trace>,
) -> (ScaleExperiment, ScaleMeasurement, f64, f64) {
    let spec = spec_for(seed);
    let clock = clock_for(trace);
    let (mut exp, setup_s) = timed(trace, "workloads.build", || {
        let config = serving_coretime_config(kind, spec.n_objects);
        let policy = kind.build_with_coretime_config(&spec.machine, config);
        let exp = ScaleExperiment::build(spec, maybe_timed(policy, clock.as_ref()));
        flush(trace, &clock, layer);
        exp
    });
    let (m, run_s) = timed(trace, "runtime.run", || {
        let m = exp.run();
        flush(trace, &clock, layer);
        m
    });
    (exp, m, setup_s, run_s)
}

pub fn rep(seed: u64, trace: Option<&Trace>) -> Rep {
    let (exp, m, setup_s, run_s) = run_series(PolicyKind::CoreTime, "core", seed, trace);
    let engine = exp.engine();
    let arrival = m.arrival_latency.expect("open-loop run records arrivals");
    let mut counters = Counters::default();
    counters.add(engine);

    // Arrivals are Poisson at a known rate from cycle ~0 on every thread,
    // so the expected count needs no access to the generators.
    let threads = f64::from(exp.spec().total_threads());
    let expected_arrivals = threads * engine.max_clock() as f64 / SCALE_MEAN_GAP_CYCLES;
    let mut layers = counters.layers();
    layers.push((
        "workloads.open_loop_backlog",
        arrival.count as f64 / expected_arrivals,
    ));

    // The summary carries p50, p99 and p99.9: report the highest of them
    // that still has ten samples beyond it.
    let rule = highest_percentile(arrival.count);
    let (tail_label, tail_cycles) = match rule {
        Some(q) if q >= 0.999 => ("p99.9", arrival.p999),
        Some(q) if q >= 0.99 => ("p99", arrival.p99),
        _ => ("p50", arrival.p50),
    };
    let mut fingerprint = fingerprint_line("With CoreTime", engine, m.window.ops, m.kops_per_sec());
    fingerprint.push_str(&format!(
        "  arrival: {arrival:?} sleeps={} replication={:?}\n",
        m.sleeps, m.replication
    ));
    Rep {
        setup_s,
        run_s,
        ops: counters.ops,
        events: counters.events,
        rate_s: run_s,
        attempted: counters.ops,
        failed: 0,
        fingerprint,
        model: Model {
            ct_kops: m.kops_per_sec(),
            p50: arrival.p50,
            p99: arrival.p99,
            latency_count: arrival.count,
            ..Model::default()
        },
        layers,
        checks: vec![Check::new(
            "p99_has_ten_samples_beyond",
            rule.is_some_and(|q| q >= 0.99),
            format!("{} arrival latencies", arrival.count),
        )],
        notes: vec![format!(
            "open loop, Poisson, mean gap {SCALE_MEAN_GAP_CYCLES} cycles/thread (~75% of the \
             saturated rate); percentiles are arrival-to-completion over {} samples; highest \
             reportable by the ten-beyond rule: {tail_label} = {tail_cycles} cycles (max {})",
            arrival.count, arrival.max
        )],
        ..Rep::default()
    }
}

/// The untimed thread-scheduler twin.
pub fn model(seed: u64, rep: &Rep) -> Model {
    let (_, m, _, _) = run_series(PolicyKind::ThreadScheduler, "baseline", seed, None);
    let arrival = m.arrival_latency.expect("open-loop run records arrivals");
    Model {
        ts_kops: m.kops_per_sec(),
        ts_p50: arrival.p50,
        ts_p99: arrival.p99,
        ..rep.model.clone()
    }
}

pub fn micro(seed: u64, _traced: &Rep) -> Layers {
    // The object keys are addresses; lay them out as the experiment does.
    let spec = spec_for(seed);
    let mut machine = Machine::new(spec.machine.clone());
    let chips = u64::from(spec.machine.chips.max(1));
    let per_chip = spec.n_objects.div_ceil(chips);
    let bases: Vec<u64> = (0..chips)
        .map(|chip| {
            let bytes = per_chip * spec.object_size;
            machine.memory_mut().alloc_on(bytes, chip as u32, chip).addr
        })
        .collect();
    let key_of = |i: u64| bases[(i / per_chip) as usize] + (i % per_chip) * spec.object_size;

    let mut interner = Interner::default();
    interner.reserve(spec.n_objects as usize);
    let insert_ns = ns_per_call(spec.n_objects, |i| {
        std::hint::black_box(interner.intern(key_of(i)));
    });
    drop(interner);

    let sampler = ZipfSampler::new(spec.n_objects, spec.zipf_exponent);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(MICRO_OPS as usize);
    let zipf_sample_ns = ns_per_call(MICRO_OPS, |_| stream.push(sampler.sample(&mut rng)));

    let mut table: FlatTable<u64, u32> = FlatTable::default();
    table.reserve(spec.n_objects as usize);
    for i in 0..spec.n_objects {
        table.insert(key_of(i), i as u32);
    }
    let probes_before = table.probes();
    let get_ns = ns_per_call(MICRO_OPS, |i| {
        std::hint::black_box(table.get(key_of(stream[i as usize])));
    });
    let probe_steps = (table.probes() - probes_before) as f64 / MICRO_OPS as f64;

    vec![
        ("collections.insert_ns", insert_ns),
        ("collections.get_ns", get_ns),
        ("collections.probe_steps_per_get", probe_steps),
        ("workloads.zipf_sample_ns", zipf_sample_ns),
        record_ns(),
    ]
}
