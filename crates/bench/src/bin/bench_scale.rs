//! Million-object scale-tier benchmark → `BENCH_scale.json`.
//!
//! Runs the `fig_scale` workload (4 KB objects, Zipf(1.1) popularity,
//! 95% reads, `amd16`, specification from
//! [`o2_experiments::scale_spec_for`]) under CoreTime with replica
//! serving enabled at 1e5, 1e6 and 1e7 objects, and records per point:
//!
//! * simulated throughput (kops/s of virtual time) and host-side build /
//!   run wall seconds — the hot path must not fall off a cliff as the
//!   object count grows 100×;
//! * service-latency percentiles (`ct_start`→`ct_end` cycles) from the
//!   runtime's streaming sketch — constant space, no per-op samples;
//! * the footprint audit: objects touched (the only ones any table
//!   holds — the build declares one region per chip and registers
//!   nothing) and accounted bytes of object-indexed state per touched
//!   object (interner + registry + assignment table + sketches, from
//!   `Engine::footprint_bytes`), next to the process-level resident-set
//!   delta across build+run from `/proc/self/statm` (0 when the proc
//!   file is unavailable).
//!
//! After the closed-loop sweep, an **open-loop duel** re-runs the 1e6
//! point with Poisson arrivals (mean gap 8000 cycles per thread) under
//! CoreTime-with-serving and the thread scheduler, recording
//! arrival→completion percentiles and the background replica-fill
//! counters. This is the tail-latency half of the serving claim: the
//! fills run only in arrival gaps, so CoreTime's arrival p99 lands at or
//! below the thread scheduler's while the saturated sweep above stays an
//! exact tie.
//!
//! Methodology: all points run in one process on one host, in ascending
//! object-count order, seeds fixed, so the accounted numbers are exactly
//! reproducible and the RSS deltas are comparable across points (each
//! delta is measured against the RSS right before that point's build;
//! allocator reuse across points makes the deltas a floor, not a sum).

use std::time::Instant;

use o2_experiments::{scale_spec_for, serving_coretime_config, PolicyKind};
use o2_workloads::{ScaleExperiment, ScaleMeasurement};

/// Seed shared by every point (the spec derives per-thread streams).
const SEED: u64 = 0xbe9c_0005;

/// Object counts swept, ascending (the paper's "millions of objects").
const COUNTS: [u64; 3] = [100_000, 1_000_000, 10_000_000];

/// Resident set size in bytes from `/proc/self/statm`, or `None` when
/// the file is unavailable (non-Linux hosts).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

struct Outcome {
    m: ScaleMeasurement,
    warmup_ops: u64,
    build_seconds: f64,
    run_seconds: f64,
    resident_delta_bytes: u64,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"scale_{}\",\n",
                "      \"n_objects\": {},\n",
                "      \"policy\": \"{}\",\n",
                "      \"window_ops\": {},\n",
                "      \"kops_per_sec\": {:.1},\n",
                "      \"service_p50_cycles\": {},\n",
                "      \"service_p99_cycles\": {},\n",
                "      \"service_p999_cycles\": {},\n",
                "      \"service_max_cycles\": {},\n",
                "      \"latency_samples\": {},\n",
                "      \"warmup_ops\": {},\n",
                "      \"resident_delta_bytes\": {},\n",
                "      \"migrations\": {},\n",
                "      \"replica_promotions\": {},\n",
                "      \"replica_demotions\": {},\n",
                "      \"replica_invalidations\": {},\n",
                "      \"replica_served\": {},\n",
                "      \"touched_objects\": {},\n",
                "      \"accounted_bytes_per_touched_object\": {:.1},\n",
                "      \"build_wall_seconds\": {:.6},\n",
                "      \"run_wall_seconds\": {:.3}\n",
                "    }}"
            ),
            self.m.n_objects,
            self.m.n_objects,
            self.m.policy,
            self.m.window.ops,
            self.m.kops_per_sec(),
            self.m.service_latency.p50,
            self.m.service_latency.p99,
            self.m.service_latency.p999,
            self.m.service_latency.max,
            self.m.service_latency.count,
            self.warmup_ops,
            self.resident_delta_bytes,
            self.m.migrations,
            self.m.replication.promotions,
            self.m.replication.demotions,
            self.m.replication.invalidations,
            self.m.replication.replica_served,
            self.m.touched_objects,
            self.m.bytes_per_touched_object(),
            self.build_seconds,
            self.run_seconds,
        )
    }
}

fn run_point(n: u64) -> Outcome {
    let spec = scale_spec_for(n, SEED);
    let policy = PolicyKind::CoreTime.build_with_coretime_config(
        &spec.machine,
        serving_coretime_config(PolicyKind::CoreTime, n),
    );
    let warmup_ops = spec.warmup_ops;
    let rss_before = rss_bytes().unwrap_or(0);

    let build_start = Instant::now();
    let mut exp = ScaleExperiment::build(spec, policy);
    let build_seconds = build_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let m = exp.run();
    let run_seconds = run_start.elapsed().as_secs_f64().max(1e-9);
    let rss_after = rss_bytes().unwrap_or(0);

    let o = Outcome {
        m,
        warmup_ops,
        build_seconds,
        run_seconds,
        resident_delta_bytes: rss_after.saturating_sub(rss_before),
    };
    println!(
        "scale_{n:<9} {:>8} ops, {:>8.1} kops/s, p99 {:>6} cy, {:>6} touched, {:>6.1} B/touched accounted, {:>5.1} MB resident, replicas +{} -{} inv {} served {}, build {:.6}s run {:.2}s",
        o.m.window.ops,
        o.m.kops_per_sec(),
        o.m.service_latency.p99,
        o.m.touched_objects,
        o.m.bytes_per_touched_object(),
        o.resident_delta_bytes as f64 / (1024.0 * 1024.0),
        o.m.replication.promotions,
        o.m.replication.demotions,
        o.m.replication.invalidations,
        o.m.replication.replica_served,
        o.build_seconds,
        o.run_seconds,
    );
    o
}

/// Object count and per-thread Poisson mean gap of the open-loop duel.
const DUEL_OBJECTS: u64 = 1_000_000;
const DUEL_MEAN_GAP: f64 = 8_000.0;

/// One open-loop series: the policy, its arrival→completion percentiles
/// and the background-fill work it managed to hide in arrival gaps.
fn run_duel(kind: PolicyKind) -> String {
    let mut spec = scale_spec_for(DUEL_OBJECTS, SEED);
    spec.open_loop_mean_gap = Some(DUEL_MEAN_GAP);
    let policy =
        kind.build_with_coretime_config(&spec.machine, serving_coretime_config(kind, DUEL_OBJECTS));
    let mut exp = ScaleExperiment::build(spec, policy);
    let m = exp.run();
    let arr = m
        .arrival_latency
        .as_ref()
        .expect("open-loop run records arrival latency");
    let ss = exp.engine().sched_stats();
    println!(
        "duel {:<18} {:>8.1} kops/s, arrival p50 {:>6} p99 {:>7} cy, fills {} ({} cy)",
        kind.label(),
        m.kops_per_sec(),
        arr.p50,
        arr.p99,
        ss.replica_fills,
        ss.replica_fill_cycles,
    );
    format!(
        concat!(
            "      {{\n",
            "        \"policy\": \"{}\",\n",
            "        \"kops_per_sec\": {:.1},\n",
            "        \"arrival_p50_cycles\": {},\n",
            "        \"arrival_p99_cycles\": {},\n",
            "        \"arrival_p999_cycles\": {},\n",
            "        \"replica_fills\": {},\n",
            "        \"replica_fill_cycles\": {},\n",
            "        \"replica_promotions\": {},\n",
            "        \"replica_invalidations\": {},\n",
            "        \"replica_served\": {}\n",
            "      }}"
        ),
        m.policy,
        m.kops_per_sec(),
        arr.p50,
        arr.p99,
        arr.p999,
        ss.replica_fills,
        ss.replica_fill_cycles,
        m.replication.promotions,
        m.replication.invalidations,
        m.replication.replica_served,
    )
}

fn main() {
    let outcomes: Vec<Outcome> = COUNTS.iter().map(|&n| run_point(n)).collect();
    let body = outcomes
        .iter()
        .map(Outcome::json)
        .collect::<Vec<_>>()
        .join(",\n");
    let duel_body = [PolicyKind::CoreTime, PolicyKind::ThreadScheduler]
        .map(run_duel)
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"scale_tier\",\n",
            "  \"machine\": \"amd16\",\n",
            "  \"model\": \"open-loop-capable scale tier: computed object layout, ",
            "O(1) Zipf sampling, one object region per chip with first-touch ",
            "registration, streaming latency sketch, ",
            "95% reads served from measured-read-fraction replicas\",\n",
            "  \"methodology\": \"one process, ascending object counts, fixed seeds; ",
            "accounted = Engine::footprint_bytes / objects touched; resident = ",
            "/proc/self/statm RSS delta across build+run (floor, allocator reuse)\",\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"open_loop_duel\": {{\n",
            "    \"n_objects\": {},\n",
            "    \"mean_gap_cycles\": {:.1},\n",
            "    \"series\": [\n{}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        body, DUEL_OBJECTS, DUEL_MEAN_GAP, duel_body
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");
}
