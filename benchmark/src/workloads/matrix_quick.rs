//! `matrix_quick` — what a user actually runs: `o2 --all --quick`.
//!
//! `registry(true)`, `run_matrix` over two jobs, both renderers, in
//! process. All 14 scenarios, five policies, the fault plane, the web and
//! replacement paths the focused workloads skip: the broad regression net.
//! The registry derives every cell's seed from names, so `--seed` only
//! reaches the latency probe in [`model`].

use o2_experiments::{
    registry, render_json, render_reports, run_matrix, MatrixRun, PolicyKind, ScenarioResult,
};
use o2_workloads::{Experiment, WorkloadSpec};

use super::{policy, run_window, small_setup, Check, Layers, Model, Rep};
use crate::report::LAYERS;
use crate::sizes::{LOOKUP_MEASURE_CYCLES, MATRIX_JOBS};
use crate::trace::{timed, Trace};

/// `fig_native` embeds measured wall-clock in its notes, so its rendered
/// bytes differ run to run; every other scenario must render identically.
const WALL_CLOCK_SCENARIO: &str = "fig_native";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scenario<'a>(run: &'a MatrixRun, name: &str) -> Option<&'a ScenarioResult> {
    run.scenarios.iter().find(|s| s.name == name)
}

pub fn rep(_seed: u64, trace: Option<&Trace>) -> Rep {
    let (scenarios, setup_s) = small_setup(trace, || registry(true));
    let cells: usize = scenarios.iter().map(|s| s.cell_count()).sum();
    let ((run, rendered_bytes, matrix_s, render_s), run_s) =
        timed(trace, "experiments.run", || {
            let (run, matrix_s) = timed(trace, "experiments.run_matrix", || {
                run_matrix(&scenarios, MATRIX_JOBS)
            });
            let ((text, json), render_s) = timed(trace, "experiments.render", || {
                (render_reports(&run), render_json(&run))
            });
            (run, text.len() + json.len(), matrix_s, render_s)
        });

    let deterministic = MatrixRun {
        scenarios: run
            .scenarios
            .iter()
            .filter(|s| s.name != WALL_CLOCK_SCENARIO)
            .cloned()
            .collect(),
    };
    let hash = fnv1a(render_json(&deterministic).as_bytes())
        ^ fnv1a(render_reports(&deterministic).as_bytes()).rotate_left(1);

    let mut rep = Rep {
        setup_s,
        run_s,
        ops: scenarios.len() as u64,
        events: cells as u64,
        rate_s: run_s,
        attempted: cells as u64,
        fingerprint: format!(
            "{} scenarios, {cells} cells, output hash without {WALL_CLOCK_SCENARIO} {hash:#018x}\n",
            scenarios.len()
        ),
        layers: vec![
            ("experiments.run_matrix_s", matrix_s),
            ("experiments.render_s", render_s),
        ],
        ..Rep::default()
    };
    rep.notes.push(format!(
        "an operation is a scenario and an event is a matrix cell; {rendered_bytes} bytes \
         rendered; simulated throughput and ratio are fig4a's largest point, percentiles come \
         from a harness-built probe of that cell"
    ));

    let last_y = |s: &ScenarioResult, series: usize| s.series[series].points.last().map(|p| p.1);
    match scenario(&run, "fig4a").map(|s| (last_y(s, 0), last_y(s, 1))) {
        Some((Some(ct), Some(ts))) => {
            rep.model.ct_kops = ct;
            rep.model.ts_kops = ts;
        }
        _ => rep.checks.push(Check::new(
            "fig4a_present",
            false,
            "the matrix has no fig4a series to read the headline from",
        )),
    }
    let latency_rows = scenario(&run, "table_latency").map(|s| {
        let ys = |i: usize| s.series[i].points.iter().map(|p| p.1).collect::<Vec<_>>();
        (ys(0), ys(1))
    });
    rep.checks.push(match latency_rows {
        Some((paper, measured)) => Check::new(
            "table_latency_matches_paper",
            !paper.is_empty() && paper == measured,
            format!("paper {paper:?}, measured {measured:?}"),
        ),
        None => Check::new("table_latency_matches_paper", false, "scenario missing"),
    });
    rep
}

/// Service-latency percentiles from a probe of the headline cell (fig4a,
/// CoreTime, 16384 KB), built here because `MatrixRun` carries none.
pub fn model(seed: u64, rep: &Rep) -> Model {
    let mut spec = WorkloadSpec::for_total_kb(16_384);
    spec.seed = seed;
    spec.measure_cycles = LOOKUP_MEASURE_CYCLES;
    let (warmup, cycles) = (spec.warmup_ops, spec.measure_cycles);
    let mut exp = Experiment::build(
        spec.clone(),
        policy(PolicyKind::CoreTime, &spec.machine, None),
    );
    run_window(exp.engine_mut(), warmup, cycles);
    let latency = exp.engine().sched_stats().op_latency;
    Model {
        p50: latency.p50,
        p99: latency.p99,
        latency_count: latency.count,
        ..rep.model.clone()
    }
}

/// Each scenario alone on one job, against the two-job wall of the
/// traced rep.
pub fn micro(_seed: u64, traced: &Rep) -> Layers {
    let mut out = Layers::new();
    let mut single_job_total = 0.0;
    for sc in registry(true) {
        let (_, seconds) = timed(None, sc.name, || run_matrix(std::slice::from_ref(&sc), 1));
        single_job_total += seconds;
        let listed = LAYERS
            .iter()
            .find(|l| l.name.strip_prefix("experiments.scenario_s.") == Some(sc.name));
        if let Some(layer) = listed {
            out.push((layer.name, seconds));
        }
    }
    let two_job_wall = traced
        .layers
        .iter()
        .find(|(name, _)| *name == "experiments.run_matrix_s")
        .map_or(0.0, |(_, s)| *s);
    if two_job_wall > 0.0 {
        out.push((
            "experiments.shard_efficiency",
            single_job_total / (MATRIX_JOBS as f64 * two_job_wall),
        ));
    }
    out
}
