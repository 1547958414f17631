//! The six workloads and what they share.
//!
//! A workload is three functions: `rep` does one full repetition (set-up
//! plus run) and is what gets timed; `model` completes the simulated
//! metrics from untimed twin runs, once per process; `micro` times direct
//! calls into single layers, in traced runs only.

use std::sync::Arc;

use o2_experiments::PolicyKind;
use o2_metrics::LatencySummary;
use o2_runtime::{Engine, SchedPolicy};
use o2_sim::MachineConfig;

use crate::sizes::{MICRO_OPS, SMALL_SETUP_SAMPLES, SMALL_SETUP_SECONDS};
use crate::trace::{CapturedAccess, PolicyClock, TimedPolicy, Trace};

pub mod engine_dispatch;
pub mod fsmeta_churn;
pub mod lookup_sweep;
pub mod matrix_quick;
pub mod native_lookup;
pub mod scale_zipf;

/// A named value of one layer, as `rep` and `micro` hand them back.
pub type Layers = Vec<(&'static str, f64)>;

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The simulated (or, natively, measured) comparison every workload
/// carries: one CoreTime series against one thread-scheduler series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Simulated throughput of the CoreTime series, kops/s.
    pub ct_kops: f64,
    /// Simulated throughput of the thread-scheduler series, kops/s.
    pub ts_kops: f64,
    /// Latency percentiles of the CoreTime series, in cycles, and how
    /// many samples the sketch held.
    pub p50: u64,
    pub p99: u64,
    pub latency_count: u64,
    /// The same percentiles of the thread-scheduler series (reported in
    /// the notes; where throughput is the offered load, as in an open
    /// loop, latency is where the two differ).
    pub ts_p50: u64,
    pub ts_p99: u64,
    /// CoreTime ÷ thread scheduler measured on real threads; when set it
    /// replaces the simulated ratio (`native_lookup` only).
    pub measured_ratio: Option<f64>,
}

impl Model {
    /// Files one finished series of the pair under its scheduler.
    pub fn record(&mut self, kind: PolicyKind, kops: f64, latency: LatencySummary) {
        if kind == PolicyKind::CoreTime {
            self.ct_kops = kops;
            self.p50 = latency.p50;
            self.p99 = latency.p99;
            self.latency_count = latency.count;
        } else {
            self.ts_kops = kops;
            self.ts_p50 = latency.p50;
            self.ts_p99 = latency.p99;
        }
    }

    pub fn ratio(&self) -> f64 {
        self.measured_ratio.unwrap_or(self.ct_kops / self.ts_kops)
    }
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds from specification to runnable experiment.
    pub setup_s: f64,
    /// Host seconds of everything after set-up.
    pub run_s: f64,
    /// Operations and scheduler events completed in `rate_s` host seconds
    /// (all of `run_s` for the simulator; the measured windows natively).
    pub ops: u64,
    pub events: u64,
    pub rate_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Everything deterministic about the rep, as text: equal seeds must
    /// give equal fingerprints, traced or not.
    pub fingerprint: String,
    pub model: Model,
    /// Counter-derived per-layer values (cheap, so always filled in).
    pub layers: Layers,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    /// Memory accesses captured for `sim.access_ns_per_line`
    /// (`lookup_sweep`'s traced rep only).
    pub capture: Vec<CapturedAccess>,
}

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub rep: fn(u64, Option<&Trace>) -> Rep,
    pub model: fn(u64, &Rep) -> Model,
    pub micro: fn(u64, &Rep) -> Layers,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lookup_sweep",
        why: "Figure 4(a): lookups at 0.5/4/16 MB, both schedulers; Machine::access does the work",
        rep: lookup_sweep::rep,
        model: |_, rep| rep.model.clone(),
        micro: lookup_sweep::micro,
    },
    Workload {
        name: "fsmeta_churn",
        why: "same layers the other way: short writes, fs mutation, 5x the policy calls per second",
        rep: fsmeta_churn::rep,
        model: |_, rep| rep.model.clone(),
        micro: fsmeta_churn::micro,
    },
    Workload {
        name: "scale_zipf",
        why: "4e6 objects, open loop: set-up is a third of the wall and latency has a real tail",
        rep: scale_zipf::rep,
        model: scale_zipf::model,
        micro: scale_zipf::micro,
    },
    Workload {
        name: "engine_dispatch",
        why: "L1-resident data: event core and dispatch loop alone, memory-model changes bypassed",
        rep: engine_dispatch::rep,
        model: engine_dispatch::model,
        micro: engine_dispatch::micro,
    },
    Workload {
        name: "native_lookup",
        why: "real threads: policy mutex, SPSC rings and pinning; the simulator is absent",
        rep: native_lookup::rep,
        model: native_lookup::model,
        micro: native_lookup::micro,
    },
    Workload {
        name: "matrix_quick",
        why: "what a user runs (o2 --all --quick): all 14 scenarios, five policies, every path",
        rep: matrix_quick::rep,
        model: matrix_quick::model,
        micro: matrix_quick::micro,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The two series every simulated comparison runs, with the layer (crate)
/// whose policy calls they time.
pub const SERIES: [(PolicyKind, &str); 2] = [
    (PolicyKind::CoreTime, "core"),
    (PolicyKind::ThreadScheduler, "baseline"),
];

/// `policy`, inside a [`TimedPolicy`] when a clock is given.
pub fn maybe_timed(
    policy: Box<dyn SchedPolicy + Send>,
    clock: Option<&Arc<PolicyClock>>,
) -> Box<dyn SchedPolicy + Send> {
    match clock {
        Some(clock) => TimedPolicy::wrap(policy, clock),
        None => policy,
    }
}

/// The default policy of `kind`, inside a [`TimedPolicy`] when a clock is
/// given.
pub fn policy(
    kind: PolicyKind,
    machine: &MachineConfig,
    clock: Option<&Arc<PolicyClock>>,
) -> Box<dyn SchedPolicy + Send> {
    maybe_timed(kind.build(machine), clock)
}

/// A policy clock for a traced rep, none otherwise.
pub fn clock_for(trace: Option<&Trace>) -> Option<Arc<PolicyClock>> {
    trace.map(|_| Arc::new(PolicyClock::default()))
}

/// Files the clock's aggregates under the span open now.
pub fn flush(trace: Option<&Trace>, clock: &Option<Arc<PolicyClock>>, layer: &str) {
    if let (Some(trace), Some(clock)) = (trace, clock) {
        clock.flush(trace, layer);
    }
}

/// What a measurement window on a harness-owned engine produced.
pub struct Window {
    pub ops: u64,
    pub kops: f64,
    pub failed: u64,
}

/// Warm-up then a window of `cycles`, through the fallible entry points:
/// the same two steps `Experiment::run` takes, with an `EngineError`
/// counted as a failed operation instead of a panic.
pub fn run_window(engine: &mut Engine, warmup_ops: u64, cycles: u64) -> Window {
    let mut failed = 0;
    let mut step = |result: Result<(), o2_runtime::EngineError>| {
        if let Err(e) = result {
            eprintln!("engine error: {e}");
            failed += 1;
        }
    };
    step(engine.try_run_until_ops(warmup_ops));
    let (start, before) = (engine.max_clock(), engine.total_ops());
    step(engine.try_run_until_cycles(start + cycles));
    let ops = engine.total_ops() - before;
    let seconds = cycles as f64 / (engine.machine().config().clock_ghz * 1e9);
    Window {
        ops,
        kops: ops as f64 / seconds / 1e3,
        failed,
    }
}

/// End-of-run counters of one or more engines, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub ops: u64,
    pub events: u64,
    pub stale: u64,
    pub parks: u64,
    pub sleeps: u64,
    pub migrations: u64,
    pub lines: u64,
    pub short_circuits: u64,
    pub dir_probes: u64,
    pub evictions: u64,
    pub replica_served: u64,
}

impl Counters {
    pub fn add(&mut self, engine: &Engine) {
        let sched = engine.sched_stats();
        let mem = engine.mem_stats();
        let cores = engine.machine().snapshot_counters().aggregate();
        self.ops += engine.total_ops();
        self.events += sched.events_processed;
        self.stale += sched.stale_events;
        self.parks += sched.parks;
        self.sleeps += sched.sleeps;
        self.migrations += cores.migrations_in;
        self.lines += cores.l1_hits + cores.l1_misses;
        self.short_circuits += mem.l1_short_circuits;
        self.dir_probes += mem.directory_probes;
        self.evictions += mem.evictions;
        self.replica_served += engine.policy().replication_stats().replica_served;
    }

    /// The counter-derived `sim.*`, `runtime.*` and `core.*` values.
    pub fn layers(&self) -> Layers {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        vec![
            ("sim.line_accesses", self.lines as f64),
            (
                "sim.l1_short_circuit_share",
                per(self.short_circuits, self.lines),
            ),
            (
                "sim.dir_probes_per_access",
                per(self.dir_probes, self.lines),
            ),
            ("sim.evictions_per_access", per(self.evictions, self.lines)),
            ("runtime.events", self.events as f64),
            ("runtime.events_per_op", per(self.events, self.ops)),
            ("runtime.parks", self.parks as f64),
            (
                "runtime.stale_event_share",
                per(self.stale, self.events + self.stale),
            ),
            ("runtime.migrations", self.migrations as f64),
            ("runtime.sleeps", self.sleeps as f64),
            (
                "core.replica_served_share",
                per(self.replica_served, self.ops),
            ),
        ]
    }
}

/// One line of a rep's fingerprint for a finished engine run.
pub fn fingerprint_line(label: &str, engine: &Engine, window_ops: u64, kops: f64) -> String {
    let sched = engine.sched_stats();
    format!(
        "{label}: ops={} window_ops={window_ops} events={} end_cycle={} kops_bits={:#018x} \
         p50={} p99={} p999={} max={}\n",
        engine.total_ops(),
        sched.events_processed,
        engine.max_clock(),
        kops.to_bits(),
        sched.op_latency.p50,
        sched.op_latency.p99,
        sched.op_latency.p999,
        sched.op_latency.max,
    )
}

/// Set-up that takes micro- or milliseconds: one span-recorded build in
/// a traced rep; otherwise the median of several (more when a build takes
/// microseconds), each dropped before the next is built so every build
/// after the first finds the allocator in the same state. Returns the
/// last value built.
pub fn small_setup<T>(trace: Option<&Trace>, mut build: impl FnMut() -> T) -> (T, f64) {
    if trace.is_some() {
        return crate::trace::timed(trace, "workloads.build", build);
    }
    let mut times = Vec::with_capacity(SMALL_SETUP_SAMPLES);
    loop {
        let start = std::time::Instant::now();
        let built = std::hint::black_box(build());
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= SMALL_SETUP_SAMPLES && times.iter().sum::<f64>() >= SMALL_SETUP_SECONDS {
            return (built, crate::stats::median(&times));
        }
    }
}

/// Nanoseconds per call of `f` over `n` calls (a direct per-layer timing).
pub fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = std::time::Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `metrics.record_ns`: the latency recorder every `ct_end` feeds.
pub fn record_ns() -> (&'static str, f64) {
    let mut recorder = o2_metrics::LatencyRecorder::new(1);
    let ns = ns_per_call(MICRO_OPS, |i| {
        recorder.record(std::hint::black_box(1_000 + (i * 7919) % 50_000));
    });
    std::hint::black_box(recorder.count());
    ("metrics.record_ns", ns)
}
