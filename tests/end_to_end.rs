//! End-to-end integration tests spanning every crate: they reproduce the
//! qualitative claims of the paper on scaled-down configurations so the
//! whole suite stays fast.

use o2_suite::prelude::*;
use o2_suite::sim::snapshot;

/// Builds a scaled-down Figure-4-style point: a quad-core machine and a
/// short measurement window.
fn small_point(n_dirs: u32, policy: Box<dyn SchedPolicy>) -> Measurement {
    let mut spec = WorkloadSpec::paper_default(n_dirs);
    spec.machine = MachineConfig::quad4();
    spec.warmup_ops = 1_500;
    spec.measure_cycles = 1_500_000;
    let mut exp = Experiment::build(spec, policy);
    exp.run()
}

/// One Figure-4 point on the paper's 16-core machine, warmed up for 12
/// operations per directory and measured over 6.4M cycles (about one full
/// oscillation of the Figure 4(b) workload at 16 MB): short of the
/// registry's steady-state protocol, long enough to be past the transient
/// that made this suite's old `> 1.3x` floor the most it could ask.
fn sixteen_core_point(total_kb: u64, oscillating: bool, coretime: bool) -> Measurement {
    let mut spec = WorkloadSpec::for_total_kb(total_kb);
    if oscillating {
        spec = spec.oscillating();
    }
    spec.warmup_ops = 12 * u64::from(spec.n_dirs);
    spec.measure_cycles = 6_400_000;
    let policy: Box<dyn SchedPolicy> = if coretime {
        CoreTime::policy(&spec.machine)
    } else {
        Box::new(ThreadScheduler::new())
    };
    Experiment::build(spec, policy).run()
}

#[test]
fn coretime_beats_the_thread_scheduler_when_the_working_set_exceeds_one_chip() {
    // 8 MB of directories is far more than one chip's L3 and well within
    // the 16 MB of aggregate on-chip memory; 16 MB is all of it. This is
    // the regime where the paper reports a 2-3x win for CoreTime, and a
    // plateau: it must not fall away before the caches are full.
    for (total_kb, floor) in [(8192, 2.0), (16384, 1.8)] {
        let without = sixteen_core_point(total_kb, false, false);
        let with = sixteen_core_point(total_kb, false, true);
        assert!(
            with.kres_per_sec() >= floor * without.kres_per_sec(),
            "{total_kb} KB: CoreTime {:.0} kres/s is under {floor}x the thread scheduler's {:.0}",
            with.kres_per_sec(),
            without.kres_per_sec()
        );
        // CoreTime actually migrated operations.
        assert!(with.migrations > 100);
        assert_eq!(without.migrations, 0);
    }
}

#[test]
fn coretime_follows_an_oscillating_working_set_that_fills_the_machine() {
    // Figure 4(b) at 16 MB: the active set shrinks to 1/16 of the
    // directories and grows back. CoreTime must at least match the thread
    // scheduler while following it.
    let without = sixteen_core_point(16384, true, false);
    let with = sixteen_core_point(16384, true, true);
    assert!(
        with.kres_per_sec() >= without.kres_per_sec(),
        "CoreTime {:.0} kres/s trails the thread scheduler's {:.0} kres/s",
        with.kres_per_sec(),
        without.kres_per_sec()
    );
}

#[test]
fn both_schedulers_are_comparable_when_everything_fits_in_one_cache() {
    // 8 directories = 256 KB: fits in any core's private cache, so CoreTime
    // cannot be much better (and must not be catastrophically worse).
    let without = small_point(8, Box::new(ThreadScheduler::new()));
    let with = small_point(8, CoreTime::policy(&MachineConfig::quad4()));
    let ratio = with.kres_per_sec() / without.kres_per_sec();
    assert!(
        (0.7..=2.0).contains(&ratio),
        "expected comparable throughput, got ratio {ratio:.2}"
    );
}

#[test]
fn coretime_reduces_data_duplication_across_caches() {
    let machine_cfg = MachineConfig::quad4();
    let build = |policy: Box<dyn SchedPolicy>| {
        let mut spec = WorkloadSpec::paper_default(20);
        spec.machine = machine_cfg.clone();
        spec.warmup_ops = 3_000;
        spec.measure_cycles = 1_000_000;
        let mut exp = Experiment::build(spec, policy);
        let _ = exp.run();
        let regions = exp.directory_regions();
        snapshot(exp.engine().machine(), &regions)
    };
    let thread_snapshot = build(Box::new(ThreadScheduler::new()));
    let o2_snapshot = build(CoreTime::policy(&machine_cfg));

    // The O2 scheduler keeps at least as many distinct directories on chip
    // and duplicates them less (Figure 2's claim).
    assert!(o2_snapshot.distinct_on_chip() >= thread_snapshot.distinct_on_chip());
    assert!(
        o2_snapshot.duplication_factor() <= thread_snapshot.duplication_factor() + 0.1,
        "O2 duplication {:.2} should not exceed thread-scheduler duplication {:.2}",
        o2_snapshot.duplication_factor(),
        thread_snapshot.duplication_factor()
    );
}

#[test]
fn annotated_operations_are_counted_identically_under_both_schedulers() {
    // The measurement methodology must not depend on the policy: running
    // the same bounded workload under both schedulers completes the same
    // number of operations.
    let run_ops = |policy: Box<dyn SchedPolicy>| {
        let mut spec = WorkloadSpec::paper_default(12);
        spec.machine = MachineConfig::quad4();
        spec.warmup_ops = 10;
        spec.measure_cycles = 400_000;
        let mut exp = Experiment::build(spec, policy);
        exp.engine_mut().run_until_ops(500);
        exp.engine().total_ops()
    };
    assert_eq!(run_ops(Box::new(ThreadScheduler::new())), 500);
    assert_eq!(run_ops(CoreTime::policy(&MachineConfig::quad4())), 500);
}

#[test]
fn experiments_are_deterministic_across_runs() {
    let run = || {
        let m = small_point(24, CoreTime::policy(&MachineConfig::quad4()));
        (m.window.ops, m.window.end, m.migrations, m.lock_contention)
    };
    assert_eq!(run(), run());
}

#[test]
fn oscillating_workload_still_completes_and_migrates() {
    let mut spec = WorkloadSpec::paper_default(48).oscillating();
    spec.machine = MachineConfig::quad4();
    spec.warmup_ops = 1_500;
    spec.measure_cycles = 1_500_000;
    let mut exp = Experiment::build(spec, CoreTime::policy(&MachineConfig::quad4()));
    let m = exp.run();
    assert!(m.window.ops > 0);
    assert!(m.migrations > 0);
}

#[test]
fn sixteen_core_machine_runs_the_paper_configuration() {
    // One (cheap) point on the full 16-core machine, exercising the
    // interconnect and all four chips.
    let mut spec = WorkloadSpec::for_total_kb(1024);
    spec.warmup_ops = 1_000;
    spec.measure_cycles = 800_000;
    let mut exp = Experiment::build(spec.clone(), CoreTime::policy(&spec.machine));
    let m = exp.run();
    assert!(m.window.ops > 0);
    assert_eq!(m.dram_loads.len(), 16);
    // Every chip saw some traffic.
    let machine = exp.engine().machine();
    for chip in 0..4 {
        let chip_busy: u64 = (0..4)
            .map(|c| machine.counters(chip * 4 + c).busy_cycles)
            .sum();
        assert!(chip_busy > 0, "chip {chip} never executed anything");
    }
}
