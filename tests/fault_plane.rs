//! The fault plane end-to-end.
//!
//! Six contracts:
//!
//! * an **empty plan is free**: a run with `FaultPlan::empty()` installed
//!   is bit-identical to one where the fault plane was never touched;
//! * a **faulted run is deterministic**: the same seed and plan produce
//!   a pinned fingerprint, and the same matrix across worker counts
//!   (`--jobs 1` vs `--jobs 4`);
//! * **offlining drains and re-homes**: after a core goes down, CoreTime
//!   re-homes every object it held (none stranded) and the engine
//!   re-pins the core's threads;
//! * a **lossy interconnect retries**: migration sends over a degraded
//!   link retry with backoff and the retries are counted;
//! * a **slow core costs throughput**: a slowdown window strictly reduces
//!   completed work;
//! * a **golden seeded storm** is pinned end-to-end by fingerprint.

use o2_suite::experiments::{
    render_json, run_matrix, CellResult, PolicyKind, Scenario, SeriesDef, SweepPoint,
};
use o2_suite::prelude::*;
use o2_suite::runtime::{NullPolicy, RepeatBehaviour};
use o2_suite::sim::FaultPlan;

/// Folds every per-core counter of the machine plus the engine totals into
/// one FNV-1a fingerprint, so "bit-for-bit identical" is one comparison.
fn fingerprint(engine: &Engine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(engine.total_ops());
    mix(engine.max_clock());
    mix(engine.min_clock());
    mix(engine.locks().total_acquisitions());
    mix(engine.locks().total_contention());
    let stats = engine.sched_stats();
    for v in [
        stats.events_processed,
        stats.faults_applied,
        stats.cores_offlined,
        stats.cores_slowed,
        stats.migration_retries,
        stats.migration_failures,
        stats.threads_repinned,
        stats.recovery_cycles,
    ] {
        mix(v);
    }
    let n = engine.machine().config().total_cores();
    for core in 0..n {
        let c = engine.machine().counters(core);
        for v in [
            c.busy_cycles,
            c.l1_hits,
            c.l1_misses,
            c.l2_hits,
            c.l2_misses,
            c.l3_hits,
            c.l3_misses,
            c.remote_cache_loads,
            c.dram_loads,
            c.invalidations_sent,
            c.invalidations_received,
            c.interconnect_messages,
            c.migrations_in,
            c.migrations_out,
            c.operations_completed,
        ] {
            mix(v);
        }
        mix(engine.core_clock(core));
    }
    h
}

/// A small faulted lookup experiment on the quad-core machine: warm up,
/// then measure with the given plan active.
fn faulted_experiment(policy: PolicyKind, plan: FaultPlan) -> Experiment {
    let mut spec = WorkloadSpec::paper_default(16);
    spec.machine = MachineConfig::quad4();
    spec.warmup_ops = 600;
    spec.measure_cycles = 1_500_000;
    spec.seed = 0xFA_17;
    spec.fault_plan = plan;
    let boxed = policy.build(&spec.machine);
    Experiment::build(spec, boxed)
}

/// The storm used by the determinism tests: a slowdown window, a lossy
/// window, and one offlining, all inside the measurement window.
fn storm() -> FaultPlan {
    FaultPlan::empty()
        .slow_core(400_000, 1, 500, 600_000)
        .degrade_interconnect(500_000, 200, 30, 500_000)
        .offline_core(900_000, 2)
        .with_seed(0xDEAD_BEEF)
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    let build = |install: bool| {
        let machine = Machine::new(MachineConfig::quad4());
        let mut engine = Engine::new(machine, Box::new(NullPolicy), RuntimeConfig::default());
        if install {
            engine.set_fault_plan(&FaultPlan::empty());
        }
        let op = OpBuilder::annotated(0x1000)
            .compute(400)
            .read(0x2000, 2048)
            .finish();
        for core in 0..4 {
            engine.spawn(core, Box::new(RepeatBehaviour::new(op.clone(), Some(200))));
        }
        engine.run_until_cycles(2_000_000);
        engine
    };
    let untouched = build(false);
    let with_empty_plan = build(true);
    assert_eq!(fingerprint(&untouched), fingerprint(&with_empty_plan));
    assert_eq!(untouched.sched_stats(), with_empty_plan.sched_stats());
    assert_eq!(with_empty_plan.sched_stats().faults_applied, 0);
}

/// Fingerprint and measured-window ops of the CoreTime run under
/// [`storm`], captured at the commit that still had three event cores
/// (timing wheel, binary heap, cycle box), where all three produced
/// exactly these values — then re-captured once (from 0x967c_a491_e9c1_62b2
/// / 440) for CoreTime's two placement rules: assign on the first
/// operation that passes the benefit test, and place past the budget of
/// the least-loaded live core when nothing fits. The run uses CoreTime,
/// so its schedule moved; the engine did not change.
const GOLDEN_FAULTED_FINGERPRINT: u64 = 0xcdb2_e7ef_8681_948f;
const GOLDEN_FAULTED_WINDOW_OPS: u64 = 438;

#[test]
fn faulted_run_matches_golden() {
    let mut exp = faulted_experiment(PolicyKind::CoreTime, storm());
    let m = exp.run();
    assert_eq!(
        (fingerprint(exp.engine()), m.window.ops),
        (GOLDEN_FAULTED_FINGERPRINT, GOLDEN_FAULTED_WINDOW_OPS),
        "faulted run diverged from the golden run"
    );
}

/// An inline fig_fault-style scenario small enough for a test: two
/// policies, two fault schedules, real `Experiment` cells.
fn small_fault_scenario() -> Scenario {
    Scenario {
        name: "small_fault",
        title: "Small fault scenario (test only)",
        description: "fault-plane runner determinism test scenario",
        x_label: "Fault schedule",
        params: Vec::new(),
        series: vec![
            SeriesDef::policy(PolicyKind::CoreTime),
            SeriesDef::policy(PolicyKind::ThreadScheduler),
        ],
        points: vec![
            SweepPoint::ordinal(0, 0, "offline core 2"),
            SweepPoint::ordinal(1, 1, "slow core 1"),
        ],
        payload: 0,
        run: |sc, se, pt, seed| {
            let mut spec = WorkloadSpec::paper_default(16);
            spec.machine = MachineConfig::quad4();
            spec.warmup_ops = 300;
            spec.measure_cycles = 600_000;
            spec.seed = seed;
            spec.fault_plan = match sc.points[pt].value {
                0 => FaultPlan::empty().offline_core(400_000, 2),
                _ => FaultPlan::empty().slow_core(300_000, 1, 400, 0),
            };
            let policy = sc.series[se].policy.unwrap().build(&spec.machine);
            let m = Experiment::build(spec, policy).run();
            CellResult::point(sc.points[pt].x, m.kres_per_sec())
        },
        summarize: None,
    }
}

#[test]
fn fault_matrix_is_identical_across_worker_counts() {
    let serial = run_matrix(&[small_fault_scenario()], 1);
    let parallel = run_matrix(&[small_fault_scenario()], 4);
    assert_eq!(render_json(&serial), render_json(&parallel));
    for series in &serial.scenarios[0].series {
        for &(_, y) in &series.points {
            assert!(y > 0.0, "empty cell in {}", series.label);
        }
    }
}

#[test]
fn offlining_rehomes_every_object_and_repins_threads() {
    let plan = FaultPlan::empty().offline_core(700_000, 2);
    let mut exp = faulted_experiment(PolicyKind::CoreTime, plan);
    let m = exp.run();
    assert!(m.window.ops > 0);
    let engine = exp.engine();
    assert!(engine.core_offline(2));
    let stats = engine.sched_stats();
    assert_eq!(stats.cores_offlined, 1);
    assert!(
        stats.threads_repinned >= 1,
        "the dead core's thread was not re-pinned"
    );
    assert!(stats.recovery_cycles > 0);
    // CoreTime re-homed every object the dead core held: the counters
    // account for all of them and none were stranded.
    let fs = engine.policy().fault_stats();
    assert_eq!(fs.core_down_events, 1);
    assert!(
        fs.objects_rehomed > 0,
        "no objects re-homed off the dead core"
    );
    assert_eq!(fs.objects_stranded, 0, "objects stranded after offlining");
}

#[test]
fn lossy_interconnect_retries_migration_sends() {
    let plan = FaultPlan::empty()
        .degrade_interconnect(0, 300, 40, 0)
        .with_seed(7);
    let mut exp = faulted_experiment(PolicyKind::CoreTime, plan);
    let m = exp.run();
    assert!(m.window.ops > 0);
    let stats = exp.engine().sched_stats();
    assert!(
        stats.migration_retries > 0,
        "no migration was ever retried over a 30%-loss link"
    );
    assert!(exp.engine().machine().interconnect_stats().migrations_lost > 0);
}

#[test]
fn slowdown_window_reduces_throughput() {
    let healthy = faulted_experiment(PolicyKind::ThreadScheduler, FaultPlan::empty())
        .run()
        .window
        .ops;
    let slowed = faulted_experiment(
        PolicyKind::ThreadScheduler,
        FaultPlan::empty().slow_core(0, 1, 800, 0),
    )
    .run()
    .window
    .ops;
    assert!(
        slowed < healthy,
        "an 8x slowdown on core 1 did not reduce throughput ({slowed} vs {healthy})"
    );
}

/// Golden end-to-end fingerprint of one seeded fault storm. If this
/// changes, the fault plane's virtual-time behaviour changed — either
/// revert or deliberately re-capture (see `tests/event_scheduler.rs` for
/// the policy on golden values). Re-captured once (from
/// 0x0bef_47cf_947e_e4a1 / 1042) for CoreTime's two placement rules —
/// first-operation assignment and over-budget placement — which move this
/// CoreTime run's schedule without touching the fault plane.
const GOLDEN_STORM_FINGERPRINT: u64 = 0xf73e_73f7_5e50_cd44;
const GOLDEN_STORM_OPS: u64 = 1046;

#[test]
fn golden_seeded_storm_is_pinned() {
    let plan = FaultPlan::seeded_storm(0xC0FF_EE00, 4, 400_000, 300_000);
    let mut exp = faulted_experiment(PolicyKind::CoreTime, plan);
    exp.run();
    let engine = exp.engine();
    assert!(engine.sched_stats().faults_applied > 0);
    assert_eq!(
        (fingerprint(engine), engine.total_ops()),
        (GOLDEN_STORM_FINGERPRINT, GOLDEN_STORM_OPS),
        "seeded storm diverged from the golden run"
    );
}
