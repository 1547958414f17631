//! The static scenario registry: every figure and table of the paper,
//! the Section-6 ablations, and the `fig_fsmeta` metadata-churn
//! comparison, each as a ~30-line registration over the shared
//! spec → policy → run → collect plumbing.

use std::rc::Rc;

use o2_core::CoreTimeConfig;
use o2_metrics::{crossover, mean_speedup_above, Series, SeriesTable};
use o2_sim::{snapshot, AccessKind, AccessOutcome, Machine, MachineConfig, OccupancySnapshot};
use o2_workloads::{
    run_scale, Experiment, FsMetaExperiment, FsMetaSpec, Measurement, PathLookupGen, Popularity,
    ScaleSpec, WebMix, WorkloadSpec,
};

use crate::policy::PolicyKind;
use crate::scenario::{CellResult, Scenario, SeriesDef, SweepPoint};

/// Whether quick mode was requested via the `O2_QUICK` environment
/// variable (reduced sweeps everywhere).
pub fn quick_mode() -> bool {
    std::env::var("O2_QUICK")
        .map(|v| v != "0" && !v.is_empty())
        .unwrap_or(false)
}

/// The total-data-size sweep of Figure 4 (kilobytes). The paper's x-axis
/// runs from a few hundred kilobytes to 20 MB.
fn fig4_sizes_kb(quick: bool) -> Vec<u64> {
    if quick {
        vec![128, 512, 2048, 8192, 16384]
    } else {
        vec![
            64, 128, 256, 512, 1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 20480,
        ]
    }
}

fn kb_points(sizes: &[u64]) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&kb| SweepPoint::scalar(kb, format!("{kb} KB")))
        .collect()
}

/// Builds, runs and measures one lookup-benchmark run.
fn measure_lookup(mut spec: WorkloadSpec, policy: PolicyKind, seed: u64) -> Measurement {
    spec.seed = seed;
    let boxed = policy.build(&spec.machine);
    Experiment::build(spec, boxed).run()
}

/// One lookup-benchmark cell: (total KB, thousands of resolutions/s).
fn run_lookup(spec: WorkloadSpec, policy: PolicyKind, seed: u64) -> CellResult {
    let m = measure_lookup(spec, policy, seed);
    CellResult::point(m.total_kb(), m.kres_per_sec())
}

fn policy_of(sc: &Scenario, series: usize) -> PolicyKind {
    sc.series[series]
        .policy
        .expect("series runs a scheduling policy")
}

/// The result column of the first series that runs `kind`: summaries
/// look their columns up by policy, so reordering (or deleting) a series
/// can never make one policy's numbers stand in for another's.
fn column<'t>(sc: &Scenario, table: &'t SeriesTable, kind: PolicyKind) -> &'t Series {
    let i = sc.series_of(kind).expect("scenario runs the policy");
    &table.series[i]
}

// ---- fig2 ------------------------------------------------------------

fn fig2_cell(sc: &Scenario, se: usize, _pt: usize, seed: u64) -> CellResult {
    let mut spec = WorkloadSpec::paper_default(20);
    spec.machine = MachineConfig::quad4();
    spec.warmup_ops = 6_000;
    spec.measure_cycles = 2_000_000;
    spec.seed = seed;
    let boxed = policy_of(sc, se).build(&spec.machine);
    let mut exp = Experiment::build(spec, boxed);
    let _ = exp.run();
    let regions = exp.directory_regions();
    let snap = snapshot(exp.engine().machine(), &regions);
    CellResult {
        x: 1.0,
        y: snap.distinct_on_chip() as f64,
        lines: describe_occupancy(&snap, &sc.series[se].label),
        migrations: None,
    }
}

fn describe_occupancy(snap: &OccupancySnapshot, label: &str) -> Vec<String> {
    let render = |dirs: &[u64]| {
        if dirs.is_empty() {
            "(none)".to_string()
        } else {
            dirs.iter()
                .map(|d| format!("dir{d}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
    };
    let mut lines = vec![format!("--- {label} ---")];
    for core in 0..snap.private.len() as u32 {
        lines.push(format!(
            "core {core} private caches (L1+L2): {}",
            render(&snap.resident_in_core(core))
        ));
    }
    for chip in 0..snap.l3.len() as u32 {
        lines.push(format!(
            "chip {chip} shared L3: {}",
            render(&snap.resident_in_l3(chip))
        ));
    }
    lines.push(format!("off-chip: {}", render(&snap.off_chip)));
    lines.push(format!(
        "distinct directories on-chip: {} of 20, duplication factor {:.2}",
        snap.distinct_on_chip(),
        snap.duplication_factor()
    ));
    lines
}

fn fig2() -> Scenario {
    Scenario {
        name: "fig2",
        title: "Figure 2: cache contents under a thread scheduler vs the O2 scheduler",
        description: "Cache occupancy: directory duplication with and without CoreTime",
        x_label: "Snapshot (y = distinct directories on-chip)",
        params: vec![
            ("machine".into(), "1 chip x 4 cores".into()),
            ("directories".into(), "20 of 1000 entries".into()),
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::ThreadScheduler),
            SeriesDef::policy(PolicyKind::CoreTime),
        ],
        points: vec![SweepPoint::ordinal(0, 0, "occupancy snapshot")],
        payload: 0,
        run: fig2_cell,
        summarize: Some(fig2_summary),
    }
}

/// The duplication factor a `fig2` cell printed in its detail lines.
fn duplication_factor(cell: &CellResult) -> Option<f64> {
    cell.lines.iter().find_map(|line| {
        line.split("duplication factor ")
            .nth(1)
            .and_then(|v| v.trim().parse().ok())
    })
}

fn fig2_summary(sc: &Scenario, table: &SeriesTable, cells: &[CellResult]) -> Vec<String> {
    let measured = |kind: PolicyKind| {
        let series = sc.series_of(kind).expect("fig2 runs the policy");
        let distinct = table.series[series].points[0].1;
        let dup = duplication_factor(&cells[series * sc.points.len()]);
        let text = match dup {
            Some(d) => format!("{distinct:.0} of 20 on-chip, duplication factor {d:.2}"),
            None => format!("{distinct:.0} of 20 on-chip"),
        };
        (distinct, dup, text)
    };
    let (ts_distinct, ts_dup, ts_text) = measured(PolicyKind::ThreadScheduler);
    let (o2_distinct, o2_dup, o2_text) = measured(PolicyKind::CoreTime);
    let verdict = if ts_distinct < o2_distinct {
        format!(
            "the thread scheduler loses {:.0} directories off-chip, as the paper says",
            o2_distinct - ts_distinct
        )
    } else {
        match (ts_dup, o2_dup) {
            (Some(t), Some(o)) => format!(
                "the thread scheduler loses no directory off-chip here; what it pays \
                 instead is {t:.2} on-chip copies of each line against the O2 \
                 scheduler's {o:.2}"
            ),
            _ => "the thread scheduler loses no directory off-chip here".to_string(),
        }
    };
    vec![format!(
        "Paper's claim: the thread scheduler keeps ~half the directories on-chip \
         (duplicated); the O2 scheduler keeps all of them, unduplicated. Measured: \
         thread scheduler {ts_text}; O2 {o2_text} — {verdict}."
    )]
}

// ---- fig4a / fig4b ---------------------------------------------------

/// `Scenario::payload` of the Figure 4 scenarios: which measurement
/// protocol the cells run.
///
/// Steady state (full mode) is 20 operations per directory of warm-up and
/// a 12M-cycle window; 60 operations per directory reads the same to 2 %.
/// The transient (quick mode, and what `WorkloadSpec::paper_default` sets)
/// is 6 per directory and 3M cycles — about ten operations per directory
/// in all, during which CoreTime is still paying each directory's first
/// fetch and the thread scheduler has not yet filled its caches with
/// duplicates.
const FIG4_TRANSIENT: u64 = 0;
const FIG4_STEADY_STATE: u64 = 1;

fn fig4_protocol(quick: bool) -> (u64, (String, String)) {
    let (payload, text) = if quick {
        (
            FIG4_TRANSIENT,
            "6 ops/directory warm-up (at least 2000), 3M-cycle window: a transient, \
             CoreTime is still converging (quick mode)",
        )
    } else {
        (
            FIG4_STEADY_STATE,
            "20 ops/directory warm-up (at least 2000), 12M-cycle window: steady state",
        )
    };
    (payload, ("protocol".into(), text.into()))
}

fn fig4_spec(sc: &Scenario, pt: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::for_total_kb(sc.points[pt].value);
    if sc.payload == FIG4_STEADY_STATE {
        spec.warmup_ops = (20 * u64::from(spec.n_dirs)).max(2_000);
        spec.measure_cycles = 12_000_000;
    }
    spec
}

/// Sizes at which Figure 4 prints where the window's lines came from.
const FIG4_DETAIL_KB: [u64; 4] = [4096, 8192, 12288, 16384];

fn fig4_cell(sc: &Scenario, se: usize, pt: usize, seed: u64, spec: WorkloadSpec) -> CellResult {
    let m = measure_lookup(spec, policy_of(sc, se), seed);
    let mut cell = CellResult::point(m.total_kb(), m.kres_per_sec());
    let kb = sc.points[pt].value;
    if FIG4_DETAIL_KB.contains(&kb) {
        cell.lines.push(format!(
            "{} @ {kb} KB, window only: {}",
            sc.series[se].label,
            m.window_counters.describe()
        ));
    }
    cell
}

fn fig4a_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    fig4_cell(sc, se, pt, seed, fig4_spec(sc, pt))
}

fn fig4b_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    fig4_cell(sc, se, pt, seed, fig4_spec(sc, pt).oscillating())
}

fn fig4a_summary(sc: &Scenario, table: &SeriesTable, _: &[CellResult]) -> Vec<String> {
    let with = column(sc, table, PolicyKind::CoreTime);
    let without = column(sc, table, PolicyKind::ThreadScheduler);
    let l3_kb = MachineConfig::amd16().l3.size_bytes / 1024;
    let mut notes = Vec::new();
    if let Some(s) = mean_speedup_above(with, without, (2 * l3_kb) as f64) {
        notes.push(format!(
            "mean CoreTime speedup beyond one chip's L3 ({} KB): {s:.2}x (paper: 2-3x)",
            2 * l3_kb
        ));
    }
    if let Some(x) = crossover(with, without, 1.5) {
        notes.push(format!(
            "CoreTime pulls ahead (>=1.5x) from ~{x:.0} KB onwards (paper: just above 2 MB)"
        ));
    }
    // The paper's curve is a plateau out to the aggregate on-chip capacity
    // (16 MB): read it as CoreTime at 16 MB against CoreTime at 8 MB.
    let near = |kb: f64| {
        with.points
            .iter()
            .find(|(x, _)| (x - kb).abs() < 0.01 * kb)
            .map(|&(_, y)| y)
    };
    if let (Some(at_8), Some(at_16)) = (near(8192.0), near(16384.0)) {
        notes.push(format!(
            "CoreTime at 16 MB holds {:.0}% of its 8 MB throughput ({at_16:.0} vs {at_8:.0}; \
             paper: a plateau out to the 16 MB of aggregate on-chip cache)",
            100.0 * at_16 / at_8
        ));
    }
    notes
}

fn fig4a(quick: bool) -> Scenario {
    let (payload, protocol) = fig4_protocol(quick);
    Scenario {
        name: "fig4a",
        title: "Figure 4(a): uniform directory popularity (1000s of resolutions/sec)",
        description: "Lookup throughput vs total data size, uniform popularity",
        x_label: "Total data size (KB)",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz".into(),
            ),
            ("entries per directory".into(), "1000".into()),
            ("entry size".into(), "32 bytes".into()),
            ("threads".into(), "1 per core (16)".into()),
            ("popularity".into(), "uniform".into()),
            protocol,
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::CoreTime),
            SeriesDef::policy(PolicyKind::ThreadScheduler),
        ],
        points: kb_points(&fig4_sizes_kb(quick)),
        payload,
        run: fig4a_cell,
        summarize: Some(fig4a_summary),
    }
}

fn fig4b(quick: bool) -> Scenario {
    let (payload, protocol) = fig4_protocol(quick);
    Scenario {
        name: "fig4b",
        title: "Figure 4(b): oscillating directory popularity (1000s of resolutions/sec)",
        description: "Lookup throughput vs total data size, oscillating active set",
        x_label: "Total data size (KB)",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz".into(),
            ),
            ("entries per directory".into(), "1000".into()),
            (
                "popularity".into(),
                "active set oscillates between all directories and 1/16 of them".into(),
            ),
            ("threads".into(), "1 per core (16)".into()),
            protocol,
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::CoreTime),
            SeriesDef::policy(PolicyKind::ThreadScheduler),
        ],
        points: kb_points(&fig4_sizes_kb(quick)),
        payload,
        run: fig4b_cell,
        summarize: Some(|sc, table, _| {
            let with = column(sc, table, PolicyKind::CoreTime);
            let without = column(sc, table, PolicyKind::ThreadScheduler);
            match mean_speedup_above(with, without, 2048.0) {
                Some(s) => vec![format!(
                    "mean CoreTime speedup beyond 2 MB: {s:.2}x (paper: more than 2x for most \
                     sizes; CoreTime's idle share above is the open item — in the low phase \
                     only n/16 directories are active)"
                )],
                None => Vec::new(),
            }
        }),
    }
}

// ---- ablations -------------------------------------------------------

fn ablation_migration_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let mut spec = WorkloadSpec::for_total_kb(sc.payload);
    spec.runtime = spec.runtime.with_migration_cost(sc.points[pt].value);
    let policy = policy_of(sc, se);
    // The thread-scheduler baseline never migrates, so its printed
    // parameter line promises a value independent of the x axis: give
    // every baseline cell the point-0 seed so the series is flat by
    // construction instead of wobbling with per-point seed noise.
    let seed = if policy == PolicyKind::ThreadScheduler {
        crate::scenario::derive_cell_seed(sc.name, &sc.series[se].label, 0)
    } else {
        seed
    };
    let r = run_lookup(spec, policy, seed);
    // x is the migration cost, not the (constant) working-set size.
    CellResult::point(sc.points[pt].x, r.y)
}

fn ablation_migration(quick: bool) -> Scenario {
    let costs: Vec<u64> = if quick {
        vec![500, 2000, 8000]
    } else {
        vec![250, 500, 1000, 2000, 4000, 8000, 16000, 32000]
    };
    Scenario {
        name: "ablation_migration",
        title: "Ablation A: sensitivity to thread-migration cost (8 MB working set)",
        description: "CoreTime benefit vs one-way migration cost (Section 6.1)",
        x_label: "One-way migration cost (cycles)",
        params: vec![
            ("total data size".into(), "8192 KB".into()),
            (
                "baseline".into(),
                "thread scheduler, independent of migration cost".into(),
            ),
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::CoreTime),
            SeriesDef::policy(PolicyKind::ThreadScheduler),
        ],
        points: costs
            .iter()
            .map(|&c| SweepPoint::scalar(c, format!("{c} cycles")))
            .collect(),
        payload: 8192,
        run: ablation_migration_cell,
        summarize: Some(|_, _, _| {
            vec![
                "Cheaper migration widens CoreTime's advantage; expensive migration \
                 erodes it, as Section 6.1 argues."
                    .into(),
            ]
        }),
    }
}

/// The machine shapes of the hardware ablation, in sweep order.
fn hardware_configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("amd16 (4x4)", MachineConfig::amd16()),
        ("8 chips x 4 cores", {
            let mut c = MachineConfig::amd16();
            c.chips = 8;
            c
        }),
        (
            "future 4x8 (bigger caches, slower DRAM)",
            MachineConfig::future(4, 8),
        ),
        ("future 8x8", MachineConfig::future(8, 8)),
    ]
}

fn ablation_hardware_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let mut spec = WorkloadSpec::for_total_kb(sc.payload);
    spec.machine = hardware_configs()[sc.points[pt].value as usize].1.clone();
    let r = run_lookup(spec, policy_of(sc, se), seed);
    CellResult::point(sc.points[pt].x, r.y)
}

fn ablation_hardware(quick: bool) -> Scenario {
    let total_kb: u64 = if quick { 8192 } else { 12288 };
    let mut params = vec![("total data size".into(), format!("{total_kb} KB"))];
    let points = hardware_configs()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            params.push(("machine".into(), format!("[{}] {name}", i + 1)));
            SweepPoint::ordinal(i, i as u64, *name)
        })
        .collect();
    Scenario {
        name: "ablation_hardware",
        title: "Ablation B: future multicores (more cores, larger caches, relatively slower DRAM)",
        description: "CoreTime advantage across machine shapes (Section 6.1)",
        x_label: "Machine (index)",
        params,
        series: vec![
            SeriesDef::policy(PolicyKind::CoreTime),
            SeriesDef::policy(PolicyKind::ThreadScheduler),
        ],
        points,
        payload: total_kb,
        run: ablation_hardware_cell,
        summarize: Some(ablation_hardware_summary),
    }
}

fn ablation_hardware_summary(sc: &Scenario, table: &SeriesTable, _: &[CellResult]) -> Vec<String> {
    let ct = &column(sc, table, PolicyKind::CoreTime).points;
    let ts = &column(sc, table, PolicyKind::ThreadScheduler).points;
    let ratios: Vec<f64> = ct
        .iter()
        .zip(ts)
        .map(|(c, t)| c.1 / t.1.max(1e-9))
        .collect();
    let per_machine = sc
        .points
        .iter()
        .zip(&ratios)
        .enumerate()
        .map(|(i, (p, r))| format!("[{}] {} {r:.2}x", i + 1, p.label))
        .collect::<Vec<_>>()
        .join(", ");
    let mut notes = vec![format!(
        "CoreTime vs the thread scheduler per machine: {per_machine}"
    )];
    if let Some((&base, rest)) = ratios.split_first() {
        let above: Vec<String> = rest
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > base)
            .map(|(i, _)| format!("[{}]", i + 2))
            .collect();
        let verdict = if above.len() == rest.len() {
            "every larger machine exceeds it, as Section 6.1 predicts".to_string()
        } else if above.is_empty() {
            "no larger machine exceeds it, against Section 6.1's prediction".to_string()
        } else {
            format!(
                "only {} of {} larger machines exceed it ({}), so the advantage does not \
                 grow uniformly with core count and cache capacity as Section 6.1 predicts",
                above.len(),
                rest.len(),
                above.join(", ")
            )
        };
        notes.push(format!(
            "against [1] {}'s {base:.2}x, {verdict}",
            sc.points[0].label
        ));
    }
    notes
}

fn ablation_clustering_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    run_lookup(
        WorkloadSpec::for_total_kb(sc.points[pt].value),
        policy_of(sc, se),
        seed,
    )
}

fn ablation_clustering() -> Scenario {
    Scenario {
        name: "ablation_clustering",
        title: "Ablation D: thread clustering vs object scheduling (uniform lookups, 8 MB)",
        description: "Thread clustering cannot help when every thread shares the working set",
        x_label: "Total data size (KB)",
        params: vec![("total data size".into(), "8192 KB".into())],
        series: vec![
            SeriesDef::policy(PolicyKind::ThreadScheduler),
            SeriesDef::policy(PolicyKind::ThreadClustering),
            SeriesDef::policy(PolicyKind::StaticPartition),
            SeriesDef::policy(PolicyKind::CoreTime),
        ],
        points: vec![SweepPoint::scalar(8192, "8192 KB")],
        payload: 0,
        run: ablation_clustering_cell,
        summarize: Some(|sc, table, _| {
            let y = |kind| column(sc, table, kind).points[0].1;
            vec![
                format!(
                    "thread scheduler {:.0}, thread clustering {:.0}, static partition {:.0}, \
                     CoreTime {:.0} kres/s",
                    y(PolicyKind::ThreadScheduler),
                    y(PolicyKind::ThreadClustering),
                    y(PolicyKind::StaticPartition),
                    y(PolicyKind::CoreTime)
                ),
                "Thread clustering cannot help because every thread shares the same \
                 working set (Section 2); scheduling objects does."
                    .into(),
            ]
        }),
    }
}

fn ablation_replication_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let spec =
        WorkloadSpec::for_total_kb(sc.points[pt].value).with_popularity(Popularity::Hotspot {
            hot_dirs: 4,
            hot_fraction: 0.85,
        });
    run_lookup(spec, policy_of(sc, se), seed)
}

fn ablation_replication() -> Scenario {
    Scenario {
        name: "ablation_replication",
        title: "Ablation C: CoreTime vs the thread scheduler on a hotspot workload",
        description: "Serializing hot directories on their owning cores vs duplicating them",
        x_label: "Total data size (KB)",
        params: vec![
            ("total data size".into(), "4096 KB".into()),
            ("hotspot".into(), "85% of lookups hit 4 directories".into()),
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::ThreadScheduler),
            SeriesDef::policy(PolicyKind::CoreTime),
        ],
        points: vec![SweepPoint::scalar(4096, "4096 KB")],
        payload: 0,
        run: ablation_replication_cell,
        summarize: Some(|sc, table, _| {
            let thread = column(sc, table, PolicyKind::ThreadScheduler).points[0].1;
            let coretime = column(sc, table, PolicyKind::CoreTime).points[0].1;
            let ratio = coretime / thread;
            let verdict = if ratio >= 1.0 {
                "homing each hot directory on one core still beats duplicating it in every cache"
            } else {
                "the hot directories' owning cores serialize their lookups, which costs more \
                 than the duplication it avoids"
            };
            vec![format!(
                "thread scheduler {thread:.0}, CoreTime {coretime:.0} kres/s: CoreTime runs at \
                 {ratio:.2}x the thread scheduler — {verdict}"
            )]
        }),
    }
}

fn ablation_replacement_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let spec = WorkloadSpec::for_total_kb(sc.points[pt].value)
        .with_popularity(Popularity::Zipf { exponent: 0.9 });
    run_lookup(spec, policy_of(sc, se), seed)
}

fn ablation_replacement(quick: bool) -> Scenario {
    let sizes: Vec<u64> = if quick {
        vec![20480]
    } else {
        vec![16384, 20480, 24576]
    };
    Scenario {
        name: "ablation_replacement",
        title: "Ablation E: CoreTime vs the thread scheduler beyond aggregate on-chip memory \
                (Zipf popularity)",
        description: "CoreTime once the working set no longer fits on-chip",
        x_label: "Total data size (KB)",
        params: vec![
            ("popularity".into(), "Zipf, exponent 0.9".into()),
            ("aggregate on-chip memory".into(), "16 MB".into()),
        ],
        series: vec![
            SeriesDef::policy(PolicyKind::ThreadScheduler),
            SeriesDef::policy(PolicyKind::CoreTime),
        ],
        points: kb_points(&sizes),
        payload: 0,
        run: ablation_replacement_cell,
        summarize: Some(|sc, table, _| {
            let thread = column(sc, table, PolicyKind::ThreadScheduler);
            let coretime = column(sc, table, PolicyKind::CoreTime);
            let vs_thread = mean_speedup_above(coretime, thread, 0.0).unwrap_or(f64::NAN);
            vec![format!(
                "Measured: CoreTime places what fits no budget past the budget of the \
                 least-loaded core and runs at {vs_thread:.2}x the thread scheduler (mean over \
                 the sizes)."
            )]
        }),
    }
}

// ---- table_latency ---------------------------------------------------

/// The access classes of the Section-5 table, with the paper's cycles.
const LATENCY_ROWS: [(&str, f64); 6] = [
    ("L1 hit", 3.0),
    ("L2 hit", 14.0),
    ("L3 hit", 75.0),
    ("remote cache, same chip", 127.0),
    ("most distant DRAM", 336.0),
    ("thread migration (round trip)", 2000.0),
];

/// Measures the cost of one access class by constructing the
/// corresponding cache state explicitly.
fn measured_latency(class: usize) -> u64 {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = o2_sim::ContentionModel::None;
    let mut m = Machine::new(cfg);
    let r = m.memory_mut().alloc_on(64, 0, 0);
    let line = m.line_of(r.addr);
    match class {
        0 => {
            m.access_line(0, line, AccessKind::Read);
            let (c, o) = m.access_line(0, line, AccessKind::Read);
            assert_eq!(o, AccessOutcome::L1Hit);
            c
        }
        1 => {
            m.access_line(0, line, AccessKind::Read);
            // Displace the line from the L1 with filler, then re-touch.
            let filler = m.memory_mut().alloc_on(128 * 1024, 0, 1);
            m.access(0, filler.addr, filler.size, AccessKind::Read);
            let (c, o) = m.access_line(0, line, AccessKind::Read);
            // The line may have been displaced to the L3 victim cache by
            // the filler; report whichever private-hierarchy cost was
            // observed.
            assert!(matches!(o, AccessOutcome::L2Hit | AccessOutcome::L3Hit));
            c
        }
        2 => {
            m.access_line(0, line, AccessKind::Read);
            // Push the line out of the private caches into the chip L3.
            let filler = m.memory_mut().alloc_on(1024 * 1024, 0, 1);
            m.access(0, filler.addr, filler.size, AccessKind::Read);
            let (c, o) = m.access_line(0, line, AccessKind::Read);
            assert!(o.is_private_miss());
            c
        }
        3 => {
            m.access_line(1, line, AccessKind::Read);
            let (c, o) = m.access_line(0, line, AccessKind::Read);
            assert!(matches!(o, AccessOutcome::RemoteCache { hops: 0, .. }));
            c
        }
        4 => {
            // Home chip 0; access from a core on the diagonally opposite
            // chip so the fill crosses two hops.
            let far = m.memory_mut().alloc_on(64, 0, 2);
            let far_line = m.line_of(far.addr);
            let (c, o) = m.access_line(12, far_line, AccessKind::Read);
            assert!(o.is_dram());
            c
        }
        _ => measured_migration_round_trip(),
    }
}

/// Measures the end-to-end cost of migrating a thread out and back by
/// running one empty annotated operation assigned to a remote core.
fn measured_migration_round_trip() -> u64 {
    use o2_runtime::{Engine, OpBuilder, RepeatBehaviour, RuntimeConfig, StaticPolicy};
    let mut mcfg = MachineConfig::amd16();
    mcfg.contention = o2_sim::ContentionModel::None;
    let machine = Machine::new(mcfg);
    let mut rcfg = RuntimeConfig::default();
    rcfg.return_home_after_op = true;
    let mut policy = StaticPolicy::new();
    policy.assign(0x1000, 1);
    let mut engine = Engine::new(machine, Box::new(policy), rcfg);
    let op = OpBuilder::annotated(0x1000).finish();
    engine.spawn(0, Box::new(RepeatBehaviour::new(op, Some(1))));
    engine.run_until_cycles(1_000_000);
    engine.thread_stats(0).migration_cycles
}

fn table_latency_cell(sc: &Scenario, se: usize, pt: usize, _seed: u64) -> CellResult {
    let class = sc.points[pt].value as usize;
    // Series 0 quotes the paper's table; series 1 measures the simulator.
    let y = if se == 0 {
        LATENCY_ROWS[class].1
    } else {
        measured_latency(class) as f64
    };
    CellResult::point(sc.points[pt].x, y)
}

fn table_latency() -> Scenario {
    Scenario {
        name: "table_latency",
        title: "Section 5 hardware parameters: paper vs simulator (cycles)",
        description: "Memory-access latencies and the migration round trip vs the paper's table",
        x_label: "Access class (1=L1, 2=L2, 3=L3, 4=remote same-chip, 5=far DRAM, 6=migration)",
        params: vec![("machine".into(), "4 chips x 4 cores (AMD-like)".into())],
        series: vec![
            SeriesDef::fixed("Paper (cycles)"),
            SeriesDef::fixed("Measured (cycles)"),
        ],
        points: LATENCY_ROWS
            .iter()
            .enumerate()
            .map(|(i, (label, _))| SweepPoint::ordinal(i, i as u64, *label))
            .collect(),
        payload: 0,
        run: table_latency_cell,
        summarize: Some(|_, _, _| {
            vec![
                "Rows 1-5 are the memory-system latencies quoted in Section 5; row 6 is \
                 the measured cost of migrating a thread to another core and back."
                    .into(),
            ]
        }),
    }
}

// ---- fig_fsmeta ------------------------------------------------------

fn fig_fsmeta_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let mut spec = FsMetaSpec::paper_default(sc.points[pt].value as u32);
    spec.seed = seed;
    let boxed = policy_of(sc, se).build(&spec.machine);
    let m = FsMetaExperiment::build(spec, boxed).run();
    CellResult::point(m.total_kb(), m.kres_per_sec())
}

fn fig_fsmeta(quick: bool) -> Scenario {
    let dir_counts: Vec<u64> = if quick {
        vec![1024, 4096]
    } else {
        vec![512, 1024, 2048, 4096, 8192]
    };
    Scenario {
        name: "fig_fsmeta",
        title:
            "fsmeta: metadata churn under CoreTime vs every baseline (1000s of metadata ops/sec)",
        description:
            "Does operation migration still win when directories are written, not just read?",
        x_label: "Total metadata size (KB)",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz".into(),
            ),
            ("directories".into(), "many small: 64 slots, 32 live".into()),
            (
                "op mix".into(),
                "40% create, 30% unlink, 14% rename, 14% lookup, 2% directory retire".into(),
            ),
            ("threads".into(), "1 per core (16)".into()),
        ],
        series: PolicyKind::ALL
            .iter()
            .copied()
            .map(SeriesDef::policy)
            .collect(),
        points: dir_counts
            .iter()
            .map(|&n| SweepPoint::scalar(n, format!("{n} directories")))
            .collect(),
        payload: 0,
        run: fig_fsmeta_cell,
        summarize: Some(|sc, table, _| {
            let mut notes = Vec::new();
            let coretime = column(sc, table, PolicyKind::CoreTime);
            let thread = column(sc, table, PolicyKind::ThreadScheduler);
            if let Some(s) = mean_speedup_above(coretime, thread, 2048.0) {
                let verdict = if s >= 1.0 {
                    "operation migration still pays off when the directories are written"
                } else {
                    "operation migration does NOT pay off here: metadata ops over these \
                     small directories are short relative to the ~2000-cycle migration, \
                     exactly the limit Section 6.1 names"
                };
                notes.push(format!(
                    "mean CoreTime speedup over the thread scheduler beyond 2 MB of \
                     metadata: {s:.2}x — {verdict}"
                ));
            }
            notes
        }),
    }
}

// ---- fig_fault -------------------------------------------------------

/// The three fault schedules of the robustness figure. Times are absolute
/// virtual cycles; the default run warms up for roughly 1–2M cycles, so
/// an edge at 800K–1.5M lands once objects are assigned and stays active
/// through the 3M-cycle measurement window.
fn fault_schedules() -> Vec<(&'static str, o2_sim::FaultPlan)> {
    use o2_sim::FaultPlan;
    vec![
        (
            "offline core 3",
            FaultPlan::empty().offline_core(1_500_000, 3),
        ),
        (
            "6x slowdown on core 2",
            FaultPlan::empty().slow_core(800_000, 2, 600, 0),
        ),
        (
            "lossy interconnect (25% loss, +40 cyc/hop)",
            FaultPlan::empty().degrade_interconnect(800_000, 250, 40, 0),
        ),
    ]
}

fn fig_fault_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let policy = policy_of(sc, se);
    let mut spec = WorkloadSpec::for_total_kb(sc.payload);
    spec.seed = seed;
    // The zero-fault twin: the same cell (same seed, same machine, same
    // policy) with an empty plan. "Throughput retained" is the faulted
    // run as a percentage of this.
    let healthy = {
        let boxed = policy.build(&spec.machine);
        Experiment::build(spec.clone(), boxed).run().kres_per_sec()
    };
    let plan = fault_schedules()[pt].1.clone();
    let boxed = policy.build(&spec.machine);
    let mut exp = Experiment::build(spec.with_fault_plan(plan), boxed);
    let faulted = exp.run().kres_per_sec();
    let retained = if healthy > 0.0 {
        100.0 * faulted / healthy
    } else {
        0.0
    };
    let sched = exp.engine().sched_stats();
    let fs = exp.engine().policy().fault_stats();
    CellResult {
        x: sc.points[pt].x,
        y: retained,
        lines: vec![format!(
            "{} / {}: healthy {healthy:.0} kres/s, faulted {faulted:.0} kres/s, \
             retained {retained:.1}% | engine: faults {} offlined {} slowed {} \
             retries {} failures {} repinned {} recovery {} cyc | policy: down {} \
             rehomed {} stranded {} avoids {}",
            sc.series[se].label,
            sc.points[pt].label,
            sched.faults_applied,
            sched.cores_offlined,
            sched.cores_slowed,
            sched.migration_retries,
            sched.migration_failures,
            sched.threads_repinned,
            sched.recovery_cycles,
            fs.core_down_events,
            fs.objects_rehomed,
            fs.objects_stranded,
            fs.degraded_avoids,
        )],
        migrations: None,
    }
}

fn fig_fault(quick: bool) -> Scenario {
    let total_kb: u64 = if quick { 2048 } else { 8192 };
    Scenario {
        name: "fig_fault",
        title: "Robustness: throughput retained under injected faults (% of the zero-fault run)",
        description: "CoreTime vs every baseline under core offlining, core slowdown and \
                      interconnect loss",
        x_label: "Fault schedule (1=offline core, 2=slow core, 3=lossy interconnect)",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz".into(),
            ),
            ("total data size".into(), format!("{total_kb} KB")),
            (
                "metric".into(),
                "faulted throughput / zero-fault throughput of the same cell, in %".into(),
            ),
        ],
        series: PolicyKind::ALL
            .iter()
            .copied()
            .map(SeriesDef::policy)
            .collect(),
        points: fault_schedules()
            .iter()
            .enumerate()
            .map(|(i, (name, _))| SweepPoint::ordinal(i, i as u64, *name))
            .collect(),
        payload: total_kb,
        run: fig_fault_cell,
        summarize: Some(|sc, table, _| {
            let mut notes = Vec::new();
            let coretime = column(sc, table, PolicyKind::CoreTime);
            let thread = column(sc, table, PolicyKind::ThreadScheduler);
            for (pt, label) in ["offline", "slowdown", "interconnect loss"]
                .iter()
                .enumerate()
            {
                let ct = coretime.points[pt].1;
                let ts = thread.points[pt].1;
                notes.push(format!(
                    "{label}: CoreTime retains {ct:.1}%, thread scheduler {ts:.1}%{}",
                    if ct > ts {
                        " — CoreTime's re-homing/avoidance wins"
                    } else {
                        ""
                    }
                ));
            }
            notes
        }),
    }
}

// ---- fig_scale -------------------------------------------------------

/// The scale-tier specification shared by `fig_scale` and `benchmark/`'s
/// `scale_zipf`: the machine and its on-chip budget stay fixed while the
/// object count sweeps three orders of magnitude past it.
pub fn scale_spec_for(n_objects: u64, seed: u64) -> ScaleSpec {
    let mut spec = ScaleSpec::new(n_objects);
    spec.machine = MachineConfig::amd16();
    // 4 KB objects: a full read spans 64 lines, so an off-chip object
    // costs enough that the monitor's verdict actually fires and the
    // policies differentiate — 64 B objects are too cheap to assign.
    spec.object_size = 4096;
    spec.zipf_exponent = 1.1;
    spec.compute_cycles = 150;
    spec.warmup_ops = 2_000;
    spec.measure_cycles = 2_000_000;
    // The scale tier models a read-mostly store (caches, key-value front
    // ends): 95% of operations on an object are reads, so the Zipf head
    // is exactly the shape replica serving exists for. A read_fraction of
    // 0 reproduces the pre-mix all-write stream bit-for-bit.
    spec.read_fraction = 0.95;
    spec.seed = seed;
    spec
}

/// The CoreTime configuration of the replica-serving scenarios
/// (`fig_scale`, `fig_web` and `benchmark/`'s `scale_zipf`):
/// [`CoreTimeConfig::with_serving`] for `n_objects` objects. Non-CoreTime
/// kinds ignore the configuration.
pub fn serving_coretime_config(_kind: PolicyKind, n_objects: u64) -> CoreTimeConfig {
    CoreTimeConfig::default().with_serving(n_objects)
}

/// A recorded quantile `q` of `count` samples, printed only when at least
/// ten samples lie beyond its rank (the rule `benchmark/` applies):
/// below that the rank falls among the last few samples, and the value
/// says little the maximum does not.
fn percentile_text(value: u64, q: f64, count: u64) -> String {
    if count as f64 * (1.0 - q) >= 10.0 - 1e-9 {
        value.to_string()
    } else {
        "n/a".into()
    }
}

fn fig_scale_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let n = sc.points[pt].value;
    let spec = scale_spec_for(n, seed);
    let machine = spec.machine.clone();
    let kind = policy_of(sc, se);
    let policy = kind.build_with_coretime_config(&machine, serving_coretime_config(kind, n));
    let m = run_scale(spec, policy);
    let lat = m.service_latency;
    let r = m.replication;
    CellResult {
        x: n as f64,
        y: m.kops_per_sec(),
        lines: vec![format!(
            "{} / {}: {:.0} kops/s, service latency p50 {} p99 {} p999 {} max {} cyc \
             over {} ops, footprint {:.2} MB over {} touched objects = {:.1} B/touched \
             object, {} migrations | \
             replicas: promoted {} demoted {} invalidated {} served {}",
            sc.series[se].label,
            sc.points[pt].label,
            m.kops_per_sec(),
            percentile_text(lat.p50, 0.50, lat.count),
            percentile_text(lat.p99, 0.99, lat.count),
            percentile_text(lat.p999, 0.999, lat.count),
            lat.max,
            lat.count,
            m.footprint_bytes as f64 / (1024.0 * 1024.0),
            m.touched_objects,
            m.bytes_per_touched_object(),
            m.migrations,
            r.promotions,
            r.demotions,
            r.invalidations,
            r.replica_served,
        )],
        migrations: Some(m.migrations),
    }
}

fn fig_scale(quick: bool) -> Scenario {
    let counts: Vec<u64> = if quick {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000, 10_000_000]
    };
    Scenario {
        name: "fig_scale",
        title: "Scale: throughput and tail latency from 1e4 to 1e7 objects, fixed on-chip budget",
        description: "Does per-object bookkeeping stay flat when the object count outgrows the \
                      on-chip caches by three orders of magnitude?",
        x_label: "Objects",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz, budget fixed".into(),
            ),
            (
                "objects".into(),
                "4 KB each, Zipf(1.1) popularity, 95% reads".into(),
            ),
            ("threads".into(), "1 per core (16), closed loop".into()),
            (
                "replication".into(),
                "CoreTime serves reads from replicas (measured read fraction, \
                 write-invalidate, rotated selection)"
                    .into(),
            ),
            (
                "latency".into(),
                "log-linear histogram percentiles (ct_start->ct_end), within 0.8% of the \
                 sample, no per-op samples"
                    .into(),
            ),
        ],
        series: PolicyKind::ALL
            .iter()
            .copied()
            .map(SeriesDef::policy)
            .collect(),
        points: counts
            .iter()
            .map(|&n| SweepPoint::scalar(n, format!("{n} objects")))
            .collect(),
        payload: 0,
        run: fig_scale_cell,
        summarize: Some(fig_scale_summary),
    }
}

fn fig_scale_summary(sc: &Scenario, table: &SeriesTable, cells: &[CellResult]) -> Vec<String> {
    let mut notes = Vec::new();
    let ct_series = sc
        .series_of(PolicyKind::CoreTime)
        .expect("fig_scale runs CoreTime");
    let ct = &table.series[ct_series].points;
    if let (Some(first), Some(last)) = (ct.first(), ct.last()) {
        if first.1 > 0.0 {
            notes.push(format!(
                "CoreTime retains {:.1}% of its {:.0}-object throughput at {:.0} objects",
                100.0 * last.1 / first.1,
                first.0,
                last.0
            ));
        }
    }
    let ts = &column(sc, table, PolicyKind::ThreadScheduler).points;
    // (objects, CoreTime / thread scheduler, CoreTime's cell).
    let ratios: Vec<(f64, f64, &CellResult)> = ct
        .iter()
        .zip(ts.iter())
        .zip(&cells[ct_series * sc.points.len()..])
        .filter(|((_, t), _)| t.1 > 0.0)
        .map(|((c, t), cell)| (c.0, c.1 / t.1, cell))
        .collect();
    if let Some(&last) = ratios.last() {
        let line = ratios
            .iter()
            .map(|(x, r, _)| format!("{r:.2}x at {x:.0}"))
            .collect::<Vec<_>>()
            .join(", ");
        notes.push(format!(
            "CoreTime vs the thread scheduler across the sweep: {line} objects"
        ));
        // The million-object cell is where the pre-replication policy
        // collapsed to ~0.4x; the verdict keys off it (or the largest cell
        // the sweep reaches in quick mode), and off what that cell
        // measured, not what CoreTime is expected to do.
        let (x, ratio, cell) = ratios
            .iter()
            .copied()
            .find(|&(x, _, _)| x >= 1e6)
            .unwrap_or(last);
        let verdict = match cell.migrations.expect("fig_scale cells count migrations") {
            0 => "it migrated no operation there: replica serving ran every read in place, \
                  so this compares the thread scheduler with and without replicas"
                .to_string(),
            n if ratio >= 1.0 => format!(
                "{n} migrations, and serving the read-mostly head from replicas keeps the \
                 hot objects parallel, so migration pays even at this scale"
            ),
            n => format!(
                "{n} migrations serialise the hot objects' home cores — the very limit \
                 Sections 6.1/6.2 name, which replica serving is meant to lift"
            ),
        };
        notes.push(format!(
            "at {x:.0} objects CoreTime runs at {ratio:.2}x the thread scheduler — {verdict}"
        ));
    }
    notes.push(format!(
        "objects are declared as one region per chip and registered by their first \
         ct_start, so every table holds touched objects only. Static partition deals \
         objects to cores in registration order, which is therefore first-touch order \
         (the Zipf head dealt round-robin), not address order: its column moved from \
         the eagerly registered recording (3486/2890/2521/2440 kops/s at 1e4..1e7); \
         the other {} series are bit-identical to it",
        sc.series.len() - 1
    ));
    notes
}

// ---- fig_web ---------------------------------------------------------

/// The web mix shared by every `fig_web` cell: 1 request in 10 is CGI
/// (write-kind final lookup plus a 4 000-cycle script burst), the rest are
/// static path resolutions made of read-kind lookups.
fn fig_web_mix() -> WebMix {
    WebMix {
        cgi_fraction: 0.10,
        cgi_compute_cycles: 4_000,
    }
}

fn fig_web_cell(sc: &Scenario, se: usize, pt: usize, seed: u64) -> CellResult {
    let kind = policy_of(sc, se);
    let mut spec = WorkloadSpec::for_total_kb(sc.points[pt].value);
    spec.seed = seed;
    let boxed = kind.build_with_coretime_config(
        &spec.machine,
        serving_coretime_config(kind, u64::from(spec.n_dirs)),
    );
    let mix = fig_web_mix();
    let mut exp = Experiment::build_with(spec, boxed, move |spec, dirs, t| {
        Box::new(PathLookupGen::new_mixed(
            Rc::clone(dirs),
            spec.lookup_cost,
            8, // hot top-level directories (the site's root sections)
            3, // components per path: /section/dir/file
            mix,
            spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9),
            None,
        ))
    });
    let m = exp.run();
    let r = exp.engine().policy().replication_stats();
    CellResult {
        x: m.total_kb(),
        y: m.kres_per_sec(),
        lines: vec![format!(
            "{} / {}: {:.0} kres/s, {} migrations, lock contention {} | \
             replicas: promoted {} demoted {} invalidated {} served {}",
            sc.series[se].label,
            sc.points[pt].label,
            m.kres_per_sec(),
            m.migrations,
            m.lock_contention,
            r.promotions,
            r.demotions,
            r.invalidations,
            r.replica_served,
        )],
        migrations: None,
    }
}

fn fig_web(quick: bool) -> Scenario {
    let sizes_kb: Vec<u64> = if quick {
        vec![512, 4096]
    } else {
        vec![512, 2048, 8192, 16384]
    };
    Scenario {
        name: "fig_web",
        title: "Web server: mixed static/CGI path resolution, CoreTime vs every baseline",
        description: "Multi-component path lookups over hot root directories — 90% static \
                      (read-kind) requests and 10% CGI (write-kind final component plus a \
                      script burst); the traffic the paper's Veal-and-Foong motivation \
                      describes",
        x_label: "Total directory data (KB)",
        params: vec![
            (
                "machine".into(),
                "4 chips x 4 cores (AMD-like), 2 GHz".into(),
            ),
            (
                "requests".into(),
                "3-component paths over 8 hot roots; 10% CGI with a 4 000-cycle script".into(),
            ),
            (
                "replication".into(),
                "CoreTime serves static lookups from replicas of the hot roots".into(),
            ),
        ],
        series: PolicyKind::ALL
            .iter()
            .copied()
            .map(SeriesDef::policy)
            .collect(),
        points: kb_points(&sizes_kb),
        payload: 0,
        run: fig_web_cell,
        summarize: Some(|sc, table, _| {
            let mut notes = Vec::new();
            if let (Some(ct), Some(ts)) = (
                column(sc, table, PolicyKind::CoreTime).points.last(),
                column(sc, table, PolicyKind::ThreadScheduler).points.last(),
            ) {
                if ts.1 > 0.0 {
                    notes.push(format!(
                        "at {:.0} KB CoreTime resolves paths at {:.2}x the thread \
                         scheduler under the static/CGI mix",
                        ct.0,
                        ct.1 / ts.1
                    ));
                }
            }
            notes
        }),
    }
}

// ---- the registry ----------------------------------------------------

/// Builds the full scenario registry. `quick` selects the reduced
/// sweeps (the `O2_QUICK` environment variable of the old binaries).
pub fn registry(quick: bool) -> Vec<Scenario> {
    vec![
        fig2(),
        fig4a(quick),
        fig4b(quick),
        ablation_migration(quick),
        ablation_hardware(quick),
        ablation_clustering(),
        ablation_replication(),
        ablation_replacement(quick),
        table_latency(),
        fig_fsmeta(quick),
        fig_fault(quick),
        fig_scale(quick),
        fig_web(quick),
    ]
}

/// Looks a scenario up by name.
pub fn find_scenario(scenarios: Vec<Scenario>, name: &str) -> Option<Scenario> {
    scenarios.into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cells_positive() {
        let scenarios = registry(false);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate scenario names");
        for s in &scenarios {
            assert!(s.cell_count() > 0, "{} has no cells", s.name);
            assert!(!s.description.is_empty());
        }
        // The registry covers the paper's figures and the ROADMAP item.
        for required in [
            "fig2",
            "fig4a",
            "fig4b",
            "ablation_migration",
            "ablation_hardware",
            "ablation_clustering",
            "ablation_replication",
            "ablation_replacement",
            "table_latency",
            "fig_fsmeta",
            "fig_fault",
            "fig_scale",
            "fig_web",
        ] {
            assert!(
                scenarios.iter().any(|s| s.name == required),
                "missing scenario {required}"
            );
        }
    }

    /// Runs `sc`'s summary over synthetic cells: `cell(kind, point)` gives
    /// the y value and migration count of each policy's cell.
    fn summarize_synthetic(
        sc: &Scenario,
        cell: impl Fn(PolicyKind, usize) -> (f64, u64),
    ) -> Vec<String> {
        let cell = &cell;
        let cells: Vec<CellResult> = sc
            .series
            .iter()
            .flat_map(|def| {
                let kind = def.policy.expect("policy series");
                sc.points.iter().enumerate().map(move |(pt, p)| {
                    let (y, migrations) = cell(kind, pt);
                    CellResult {
                        migrations: Some(migrations),
                        ..CellResult::point(p.x, y)
                    }
                })
            })
            .collect();
        let mut table = SeriesTable::new(sc.x_label);
        for (def, row) in sc.series.iter().zip(cells.chunks(sc.points.len())) {
            let mut series = Series::new(def.label.clone());
            for c in row {
                series.push(c.x, c.y);
            }
            table.add(series);
        }
        (sc.summarize.expect("summarized"))(sc, &table, &cells)
    }

    #[test]
    fn reordering_a_scenarios_series_leaves_its_notes_unchanged() {
        // Cell values depend on the policy and the point only, so
        // reversing the series reverses the table and the cells with them:
        // a summary that read columns by position would print another
        // policy's numbers.
        let notes = |sc: &Scenario| {
            summarize_synthetic(sc, |kind, pt| {
                let k = PolicyKind::ALL.iter().position(|&k| k == kind).unwrap() as u64;
                ((1000 + 100 * k + 7 * pt as u64) as f64, k * pt as u64)
            })
        };
        let mut checked = 0;
        for mut sc in registry(true).into_iter().chain(registry(false)) {
            if sc.summarize.is_none() || sc.series.iter().any(|s| s.policy.is_none()) {
                continue;
            }
            let before = notes(&sc);
            sc.series.reverse();
            assert_eq!(notes(&sc), before, "{}", sc.name);
            checked += 1;
        }
        // Every scenario but the latency table compares policies.
        assert_eq!(checked, 2 * (registry(true).len() - 1));
    }

    #[test]
    fn fig_scale_verdict_follows_the_migrations_its_cell_measured() {
        // CoreTime at 0.9x the thread scheduler at every point.
        let verdict = |migrations: u64| {
            summarize_synthetic(&fig_scale(true), |kind, _| {
                let y = if kind == PolicyKind::CoreTime {
                    900.0
                } else {
                    1000.0
                };
                (y, migrations)
            })
            .into_iter()
            .find(|n| n.contains("CoreTime runs at 0.90x"))
            .expect("a verdict")
        };
        assert!(verdict(0).contains("it migrated no operation there"));
        assert!(verdict(123).contains("123 migrations serialise"));
    }

    #[test]
    fn quick_mode_shrinks_the_sweeps() {
        let full: usize = registry(false).iter().map(Scenario::cell_count).sum();
        let quick: usize = registry(true).iter().map(Scenario::cell_count).sum();
        assert!(quick < full);
    }

    /// A shrunken `fig_scale` point for tests: same machine and mix, a
    /// smaller object count and window.
    fn small_scale_spec(open_gap: Option<f64>) -> ScaleSpec {
        let mut spec = scale_spec_for(20_000, 7);
        spec.warmup_ops = 500;
        spec.measure_cycles = 1_000_000;
        spec.open_loop_mean_gap = open_gap;
        spec
    }

    fn serving_scale_run(open_gap: Option<f64>) -> (o2_workloads::ScaleMeasurement, u64) {
        let spec = small_scale_spec(open_gap);
        let policy = PolicyKind::CoreTime.build_with_coretime_config(
            &spec.machine,
            serving_coretime_config(PolicyKind::CoreTime, spec.n_objects),
        );
        let mut exp = o2_workloads::ScaleExperiment::build(spec, policy);
        let m = exp.run();
        let fills = exp.engine().sched_stats().replica_fills;
        (m, fills)
    }

    #[test]
    fn closed_loop_serving_replicates_the_head_but_never_fills() {
        let (m, fills) = serving_scale_run(None);
        assert!(m.window.ops > 0);
        let r = m.replication;
        assert!(r.promotions > 0, "serving tier never replicated the head");
        assert!(r.replica_served > 0, "no operation used a replica");
        assert!(r.invalidations > 0, "writes never invalidated a copy");
        // Saturated cores have no idle gaps: background fills must not
        // steal cycles from runnable work, ever.
        assert_eq!(fills, 0, "a background fill ran in a closed loop");
        // Same seed, same run — replica serving stays deterministic.
        let (m2, fills2) = serving_scale_run(None);
        assert_eq!((m.window.ops, m.service_latency, r), {
            (m2.window.ops, m2.service_latency, m2.replication)
        });
        assert_eq!(fills2, 0);
    }

    #[test]
    fn open_loop_serving_hides_fills_in_arrival_gaps() {
        let (m, fills) = serving_scale_run(Some(8_000.0));
        assert!(m.sleeps > 0, "open loop never slept");
        assert!(
            fills > 0,
            "an idle open loop never drained a background fill"
        );
        assert!(m.replication.promotions > 0);
    }

    #[test]
    fn a_percentile_is_printed_only_with_ten_samples_beyond_it() {
        assert_eq!(percentile_text(14_446, 0.999, 9_999), "n/a");
        assert_eq!(percentile_text(14_446, 0.999, 10_000), "14446");
        assert_eq!(percentile_text(900, 0.99, 999), "n/a");
        assert_eq!(percentile_text(900, 0.99, 1_000), "900");
        assert_eq!(percentile_text(7, 0.50, 20), "7");
    }

    #[test]
    fn paper_latency_rows_match_section_5() {
        assert_eq!(LATENCY_ROWS[0].1, 3.0);
        assert_eq!(LATENCY_ROWS[5].1, 2000.0);
        let s = table_latency();
        assert_eq!(s.cell_count(), 12);
    }
}
