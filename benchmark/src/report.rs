//! Metric tables, the two kinds of run, and what gets printed.
//!
//! The tables here are the single list of metric names: `BENCHMARK.json`
//! is emitted from them (`--emit-benchmark-json`) and a test holds the
//! committed file to that output.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::peak_rss_mb;
use crate::json;
use crate::sizes::{DEFAULT_SECONDS, TRACE_BASE_REPS, TRACE_BASE_SECONDS};
use crate::stats::{median, quartiles};
use crate::trace::{timed, Trace};
use crate::workloads::{Check, Model, Rep, Workload, WORKLOADS};

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. One bound serves all six workloads,
    /// so the noisiest sets it: README.md ("On the bounds") has the spreads
    /// they were chosen against.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("wall_s", "s", "lower", 0.25),
    end_to_end("ops_per_host_s", "1/s", "higher", 0.25),
    end_to_end("host_events_per_s", "1/s", "higher", 0.25),
    end_to_end("peak_rss_mb", "MB", "lower", 0.15),
    end_to_end("sim_kops_per_s", "kops/s", "higher", 0.1),
    end_to_end("coretime_vs_thread", "ratio", "higher", 0.25),
    end_to_end("sim_p50_cycles", "cycles", "lower", 0.2),
    end_to_end("sim_p99_cycles", "cycles", "lower", 0.25),
];

/// A per-layer metric. A value of 0 on a workload means the layer is not
/// on that workload's path, or cannot be reached from outside there.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const LAYERS: [Layer; 60] = [
    layer("collections.insert_ns", "ns", "lower"),
    layer("collections.get_ns", "ns", "lower"),
    layer("collections.probe_steps_per_get", "count", "lower"),
    layer("sim.access_ns_per_line", "ns", "lower"),
    layer("sim.line_accesses", "count", "lower"),
    layer("sim.l1_short_circuit_share", "ratio", "higher"),
    layer("sim.dir_probes_per_access", "count", "lower"),
    layer("sim.evictions_per_access", "count", "lower"),
    layer("runtime.run_s", "s", "lower"),
    layer("runtime.self_s", "s", "lower"),
    layer("runtime.events", "count", "lower"),
    layer("runtime.events_per_op", "count", "lower"),
    layer("runtime.parks", "count", "lower"),
    layer("runtime.stale_event_share", "ratio", "lower"),
    layer("runtime.migrations", "count", "lower"),
    layer("runtime.sleeps", "count", "lower"),
    layer("core.ct_start_ns", "ns", "lower"),
    layer("core.ct_end_ns", "ns", "lower"),
    layer("core.epoch_us", "us", "lower"),
    layer("core.register_ns", "ns", "lower"),
    layer("core.calls", "count", "lower"),
    layer("core.policy_share", "ratio", "lower"),
    layer("core.replica_served_share", "ratio", "higher"),
    layer("fs.volume_build_s", "s", "lower"),
    layer("fs.search_ns", "ns", "lower"),
    layer("fs.churn_ns", "ns", "lower"),
    layer("workloads.build_s", "s", "lower"),
    layer("workloads.next_op_ns", "ns", "lower"),
    layer("workloads.zipf_sample_ns", "ns", "lower"),
    layer("workloads.open_loop_backlog", "ratio", "higher"),
    layer("metrics.record_ns", "ns", "lower"),
    layer("experiments.run_matrix_s", "s", "lower"),
    layer("experiments.render_s", "s", "lower"),
    layer("experiments.scenario_s.fig2", "s", "lower"),
    layer("experiments.scenario_s.fig4a", "s", "lower"),
    layer("experiments.scenario_s.fig4b", "s", "lower"),
    layer("experiments.scenario_s.ablation_migration", "s", "lower"),
    layer("experiments.scenario_s.ablation_hardware", "s", "lower"),
    layer("experiments.scenario_s.ablation_clustering", "s", "lower"),
    layer("experiments.scenario_s.ablation_replication", "s", "lower"),
    layer("experiments.scenario_s.ablation_replacement", "s", "lower"),
    layer("experiments.scenario_s.table_latency", "s", "lower"),
    layer("experiments.scenario_s.fig_fsmeta", "s", "lower"),
    layer("experiments.scenario_s.fig_fault", "s", "lower"),
    layer("experiments.scenario_s.fig_scale", "s", "lower"),
    layer("experiments.scenario_s.fig_web", "s", "lower"),
    layer("experiments.scenario_s.fig_native", "s", "lower"),
    layer("experiments.shard_efficiency", "ratio", "higher"),
    layer("native.ring_roundtrip_ns", "ns", "lower"),
    layer("native.place_ns", "ns", "lower"),
    layer("native.policy_hold_ns", "ns", "lower"),
    layer("native.policy_calls", "count", "lower"),
    layer("native.migrations_per_op", "ratio", "lower"),
    layer("native.ring_full_local", "count", "lower"),
    layer("native.ring_depth_hwm", "count", "lower"),
    layer("native.occupancy_imbalance", "ratio", "lower"),
    layer("native.lock_contention", "count", "lower"),
    layer("trace.timer_ns", "ns", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.accounted_pct", "%", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = LAYERS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One metric of one run: its samples reduced to median and quartiles.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Row {
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Self {
            name,
            unit,
            n: samples.len(),
            median,
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    /// The spans of the traced rep, as JSON.
    pub spans: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(r.name),
                    json::number(r.median),
                    json::string(r.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record kept in `results.json`: sample counts, quartiles,
    /// checks and notes beside the medians.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "      {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                     \"samples\": [{}]}}",
                    json::string(r.name),
                    json::string(r.unit),
                    r.n,
                    json::number(r.median),
                    json::number(r.q1),
                    json::number(r.q3),
                    r.samples
                        .iter()
                        .map(|&x| json::number(x))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "      {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json::string(&c.name),
                    c.ok,
                    json::string(&c.detail)
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| json::string(n)).collect();
        format!(
            "{{\n    \"workload\": {}, \"seed\": {}, \"traced\": {}, \"reps\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {},\n    \"metrics\": {{\n{}\n    }},\n    \
             \"checks\": [\n{}\n    ],\n    \"notes\": [{}]\n  }}",
            json::string(self.workload),
            self.seed,
            self.traced,
            self.reps,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",\n"),
            checks.join(",\n"),
            notes.join(", ")
        )
    }

    /// Every metric by name with unit, sample count, median and
    /// quartiles; then the checks and notes.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} rep{}, {}) ==",
            self.workload,
            self.seed,
            self.reps,
            if self.reps == 1 { "" } else { "s" },
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        println!(
            "{:<44} {:>7} {:>3} {:>16} {:>16} {:>16}",
            "metric", "unit", "n", "median", "q1", "q3"
        );
        for r in &self.rows {
            println!(
                "{:<44} {:>7} {:>3} {:>16.6} {:>16.6} {:>16.6}",
                r.name, r.unit, r.n, r.median, r.q1, r.q3
            );
        }
        println!(
            "ops_failed_share: {} failed of {} attempted",
            self.failed, self.attempted
        );
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("check {verdict} {} ({})", c.name, c.detail);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

/// The checks every workload shares, plus the reps' own (a check holds
/// only if it held in every rep).
fn collect_checks(reps: &[Rep], traced: Option<&Rep>) -> Vec<Check> {
    let first = &reps[0].fingerprint;
    let mut checks = vec![Check::new(
        "fingerprint_identical_across_reps",
        reps.iter().all(|r| r.fingerprint == *first),
        format!("{} reps", reps.len()),
    )];
    if let Some(traced) = traced {
        checks.push(Check::new(
            "traced_rep_bit_identical",
            traced.fingerprint == *first,
            "simulated results with the timing wrappers in place",
        ));
    }
    for rep in reps.iter().chain(traced) {
        for c in &rep.checks {
            match checks.iter_mut().find(|seen| seen.name == c.name) {
                Some(seen) if seen.ok => *seen = c.clone(),
                Some(_) => {}
                None => checks.push(c.clone()),
            }
        }
    }
    checks
}

fn wall(rep: &Rep) -> f64 {
    rep.setup_s + rep.run_s
}

/// An untraced run: repetitions for `seconds`, then the untimed model
/// twins, reduced to the end-to-end metrics.
pub fn run_end_to_end(wl: &'static Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut first_rep_rss_mb = 0.0;
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds as f64 {
        reps.push((wl.rep)(seed, None));
        if reps.len() == 1 {
            // What one pass of the workload needs. Later reps of the same
            // process only add allocator drift (tens of MB on the matrix,
            // whose every rep starts fresh threads), which no user sees.
            first_rep_rss_mb = peak_rss_mb();
        }
    }
    let model = (wl.model)(seed, &reps[0]);
    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let measured_ratios: Vec<f64> = reps.iter().filter_map(|r| r.model.measured_ratio).collect();
    let ratio = if measured_ratios.is_empty() {
        vec![model.ratio()]
    } else {
        measured_ratios
    };
    let samples: [Vec<f64>; 9] = [
        column(|r| r.setup_s),
        column(wall),
        column(|r| r.ops as f64 / r.rate_s),
        column(|r| r.events as f64 / r.rate_s),
        vec![first_rep_rss_mb],
        vec![model.ct_kops],
        ratio,
        vec![model.p50 as f64],
        vec![model.p99 as f64],
    ];
    let rows = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(m, s)| Row::of(m.name, m.unit, s))
        .collect();
    let mut notes = reps[0].notes.clone();
    notes.push(model_note(&model));
    Outcome {
        workload: wl.name,
        seed,
        traced: false,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        rows,
        checks: collect_checks(&reps, None),
        notes,
        spans: None,
    }
}

fn model_note(model: &Model) -> String {
    format!(
        "model pair: CoreTime {:.1} kops/s, p50 {} p99 {} cycles over {} samples; thread \
         scheduler {:.1} kops/s, p50 {} p99 {} cycles (simulated throughput ratio {:.3})",
        model.ct_kops,
        model.p50,
        model.p99,
        model.latency_count,
        model.ts_kops,
        model.ts_p50,
        model.ts_p99,
        model.ct_kops / model.ts_kops,
    )
}

/// A traced run: a few untraced reps as the base, one rep with the
/// wrappers timing, then the direct per-layer timings.
pub fn run_traced(wl: &'static Workload, seed: u64) -> Outcome {
    let start = Instant::now();
    let mut base = Vec::new();
    while base.is_empty()
        || (base.len() < TRACE_BASE_REPS && start.elapsed().as_secs_f64() < TRACE_BASE_SECONDS)
    {
        base.push((wl.rep)(seed, None));
    }
    let trace = Trace::new();
    let (traced, _) = timed(Some(&trace), "harness.rep", || (wl.rep)(seed, Some(&trace)));

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        assert!(
            LAYERS.iter().any(|l| l.name == name),
            "{name} is not a listed per-layer metric"
        );
        values.insert(name, value);
    };
    for &(name, value) in traced.layers.iter().chain(&(wl.micro)(seed, &traced)) {
        set(name, value);
    }

    // Time-derived values, from the spans.
    let own = trace.self_seconds();
    let own_of = |name: &str| own.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s);
    let (_, run_s) = trace.total("runtime.run");
    let (_, native_run_s) = trace.total("native.run");
    set("runtime.run_s", run_s);
    // Run span minus the policy and generator calls timed inside it. What
    // stays includes `Machine::access`: the engine calls it directly and
    // nothing outside the engine can time it apart.
    set("runtime.self_s", own_of("runtime.run"));
    set("workloads.build_s", trace.total("workloads.build").1);
    set(
        "workloads.next_op_ns",
        trace.mean_call_ns("workloads.next_op"),
    );
    set("core.ct_start_ns", trace.mean_call_ns("core.ct_start"));
    set("core.ct_end_ns", trace.mean_call_ns("core.ct_end"));
    set("core.epoch_us", trace.mean_call_ns("core.epoch") / 1e3);
    set("core.register_ns", trace.mean_call_ns("core.register"));
    let hot = ["core.ct_start", "core.ct_end", "core.epoch"].map(|n| trace.total(n));
    let hot_calls: u64 = hot.iter().map(|(n, _)| n).sum();
    let hot_s: f64 = hot.iter().map(|(_, s)| s).sum();
    set(
        "core.calls",
        (hot_calls + trace.total("core.register").0) as f64,
    );
    if run_s + native_run_s > 0.0 {
        set("core.policy_share", hot_s / (run_s + native_run_s));
    }
    if native_run_s > 0.0 {
        // Natively every policy call is made under the host's mutex, so
        // the time inside the wrapper is time the lock was held.
        set("native.policy_calls", hot_calls as f64);
        set(
            "native.policy_hold_ns",
            hot_s * 1e9 / hot_calls.max(1) as f64,
        );
    }
    let base_wall = median(&base.iter().map(wall).collect::<Vec<f64>>());
    let (_, rep_span_s) = trace.total("harness.rep");
    set("trace.timer_ns", trace.timer_ns);
    set(
        "trace.overhead_pct",
        (wall(&traced) - base_wall) / base_wall * 100.0,
    );
    set(
        "trace.accounted_pct",
        (rep_span_s - own_of("harness.rep")) / rep_span_s * 100.0,
    );

    let rows = LAYERS
        .iter()
        .map(|l| {
            Row::of(
                l.name,
                l.unit,
                &[values.get(l.name).copied().unwrap_or(0.0)],
            )
        })
        .collect();
    let mut notes = traced.notes.clone();
    notes.push(format!(
        "self seconds by span: {}",
        own.iter()
            .map(|(name, s)| format!("{name} {s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "traced wall {:.4} s against untraced median {:.4} s over {} rep(s); 0 marks a layer \
         that is not on this workload's path or cannot be timed from outside here",
        wall(&traced),
        base_wall,
        base.len()
    ));
    Outcome {
        workload: wl.name,
        seed,
        traced: true,
        reps: base.len() + 1,
        attempted: base.iter().chain([&traced]).map(|r| r.attempted).sum(),
        failed: base.iter().chain([&traced]).map(|r| r.failed).sum(),
        rows,
        checks: collect_checks(&base, Some(&traced)),
        notes,
        spans: Some(trace.to_json()),
    }
}

/// `results.json`: the host fingerprint and, per workload, the detail
/// records of its untraced and traced runs (as the children wrote them).
pub fn results_json(host: &str, entries: &[(&str, String, String)]) -> String {
    let workloads: Vec<String> = entries
        .iter()
        .map(|(name, end_to_end, per_layer)| {
            format!(
                "  {}: {{\n  \"end_to_end\": {end_to_end},\n  \"per_layer\": {per_layer}\n  }}",
                json::string(name)
            )
        })
        .collect();
    format!(
        "{{\n\"host\": {host},\n\"workloads\": {{\n{}\n}}\n}}\n",
        workloads.join(",\n")
    )
}
