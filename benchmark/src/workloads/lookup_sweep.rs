//! `lookup_sweep` — the paper's Figure 4(a).
//!
//! Uniform popularity over 1,000-entry directories, 16 simulated threads
//! in a closed loop, at a working set below, at and beyond on-chip
//! capacity, under CoreTime and under the thread scheduler. Host time
//! goes almost entirely to `o2-sim::Machine::access`; the policy is a few
//! percent. The ratio the paper claims (2-3x beyond one chip's cache) is
//! read at the largest size.

use std::rc::Rc;
use std::sync::Arc;

use o2_experiments::PolicyKind;
use o2_fs::{synthetic_name, Volume};
use o2_sim::{AccessKind, Machine};
use o2_workloads::{DirChooser, DirectoryLookupGen, Experiment, WorkloadSpec};

use super::{
    clock_for, fingerprint_line, flush, ns_per_call, policy, record_ns, run_window, Counters,
    Layers, Rep, SERIES,
};
use crate::sizes::{LOOKUP_CAPTURE_OPS, LOOKUP_MEASURE_CYCLES, LOOKUP_SIZES_KB, MICRO_OPS};
use crate::trace::{timed, CallClock, Capture, TimedGen, Trace};

fn spec_for(kb: u64, seed: u64) -> WorkloadSpec {
    let mut spec = WorkloadSpec::for_total_kb(kb);
    spec.seed = seed;
    spec.measure_cycles = LOOKUP_MEASURE_CYCLES;
    spec
}

pub fn rep(seed: u64, trace: Option<&Trace>) -> Rep {
    let mut rep = Rep::default();
    let mut counters = Counters::default();
    let largest = LOOKUP_SIZES_KB[LOOKUP_SIZES_KB.len() - 1];
    for kb in LOOKUP_SIZES_KB {
        for (kind, layer) in SERIES {
            let spec = spec_for(kb, seed);
            let (warmup, cycles) = (spec.warmup_ops, spec.measure_cycles);
            let clock = clock_for(trace);
            let gen_clock = Arc::new(CallClock::default());
            let capture = (trace.is_some() && kb == largest && kind != PolicyKind::CoreTime)
                .then(|| Capture::new(LOOKUP_CAPTURE_OPS));

            let (mut exp, setup_s) = timed(trace, "workloads.build", || {
                let policy = policy(kind, &spec.machine, clock.as_ref());
                let exp = match trace {
                    None => Experiment::build(spec, policy),
                    // The same generator `Experiment::build` installs,
                    // inside the timing wrapper; the fingerprint check
                    // holds this copy to the original bit for bit.
                    Some(_) => Experiment::build_with(spec, policy, |spec, dirs, t| {
                        let generator = DirectoryLookupGen::new(
                            Rc::clone(dirs),
                            DirChooser::new(spec.n_dirs, spec.popularity),
                            spec.lookup_cost,
                            spec.write_fraction,
                            spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9),
                            None,
                        );
                        Box::new(TimedGen::new(
                            Box::new(generator),
                            &gen_clock,
                            capture.as_ref(),
                        ))
                    }),
                };
                flush(trace, &clock, layer);
                exp
            });
            let (window, run_s) = timed(trace, "runtime.run", || {
                let window = run_window(exp.engine_mut(), warmup, cycles);
                flush(trace, &clock, layer);
                if let Some(trace) = trace {
                    trace.calls("workloads.next_op", &gen_clock);
                }
                window
            });

            let engine = exp.engine();
            counters.add(engine);
            rep.setup_s += setup_s;
            rep.run_s += run_s;
            rep.failed += window.failed;
            rep.fingerprint.push_str(&fingerprint_line(
                &format!("{kb}KB {}", kind.label()),
                engine,
                window.ops,
                window.kops,
            ));
            if kb == largest {
                let latency = engine.sched_stats().op_latency;
                rep.model.record(kind, window.kops, latency);
            }
            if let Some(capture) = capture {
                rep.capture = std::mem::take(&mut capture.borrow_mut().accesses);
            }
        }
    }
    rep.ops = counters.ops;
    rep.events = counters.events;
    rep.rate_s = rep.run_s;
    rep.attempted = counters.ops + rep.failed;
    rep.layers = counters.layers();
    rep.notes.push(format!(
        "coretime_vs_thread is simulated, at {largest} KB (the paper reports 2-3x there); \
         percentiles are service latency (closed loop), {} samples",
        rep.model.latency_count
    ));
    rep
}

pub fn micro(seed: u64, traced: &Rep) -> Layers {
    let spec = spec_for(LOOKUP_SIZES_KB[LOOKUP_SIZES_KB.len() - 1], seed);
    let start = std::time::Instant::now();
    let mut volume = Volume::build_benchmark(spec.n_dirs, spec.entries_per_dir)
        .expect("benchmark volume construction failed");
    let volume_build_s = start.elapsed().as_secs_f64();

    let (n_dirs, entries) = (u64::from(spec.n_dirs), u64::from(spec.entries_per_dir));
    let names: Vec<String> = (0..spec.entries_per_dir).map(synthetic_name).collect();
    let search_ns = ns_per_call(MICRO_OPS, |i| {
        let dir = (i.wrapping_mul(0x9E37_79B9) % n_dirs) as u32;
        let name = &names[(i.wrapping_mul(7919) % entries) as usize];
        std::hint::black_box(volume.search(dir, name).expect("directory exists"));
    });

    // Replays the accesses the largest thread-scheduler cell generated on
    // a machine with nothing else on it: the same addresses (the volume
    // maps deterministically), no engine, no policy.
    let mut machine = Machine::new(spec.machine.clone());
    volume.map_into(machine.memory_mut());
    let lines_of = |m: &Machine| {
        let c = m.snapshot_counters().aggregate();
        c.l1_hits + c.l1_misses
    };
    let start = std::time::Instant::now();
    for a in &traced.capture {
        let kind = if a.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        std::hint::black_box(machine.access(a.core, a.addr, a.len, kind));
    }
    let replay_ns = start.elapsed().as_nanos() as f64;
    let lines = lines_of(&machine).max(1);

    vec![
        ("fs.volume_build_s", volume_build_s),
        ("fs.search_ns", search_ns),
        ("sim.access_ns_per_line", replay_ns / lines as f64),
        record_ns(),
    ]
}
