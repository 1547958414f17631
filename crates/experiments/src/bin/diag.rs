//! Diagnostic harness: prints detailed per-core and policy statistics for
//! a single Figure-4 point. Useful when calibrating the simulator.
//!
//! `cargo run --release -p o2-experiments --bin diag -- [total_kb] [coretime|baseline] [storm]`
//!
//! The optional third argument `storm` injects a seeded fault storm (one
//! slowdown window, one interconnect-degradation window, one offlining)
//! so the fault-plane telemetry below has something to show.

use o2_experiments::PolicyKind;
use o2_sim::FaultPlan;
use o2_workloads::{Experiment, WindowCounters, WorkloadSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let total_kb: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8192);
    let policy = match args.get(2).map(|s| s.as_str()) {
        Some("baseline") => PolicyKind::ThreadScheduler,
        _ => PolicyKind::CoreTime,
    };
    let mut spec = WorkloadSpec::for_total_kb(total_kb);
    if args.get(3).map(|s| s.as_str()) == Some("storm") {
        spec.fault_plan =
            FaultPlan::seeded_storm(0xD1A6, spec.machine.total_cores(), 1_000_000, 800_000);
    }
    let boxed = policy.build(&spec.machine);
    let mut exp = Experiment::build(spec.clone(), boxed);

    let m = exp.run();
    let engine = exp.engine();
    println!("policy            : {}", m.policy);
    println!("dirs              : {}", spec.n_dirs);
    println!("total KB          : {:.0}", m.total_kb());
    println!("window ops        : {}", m.window.ops);
    println!("window cycles     : {}", m.window.cycles());
    println!("kres/s            : {:.1}", m.kres_per_sec());
    println!("cycles/op         : {:.0}", m.window.cycles_per_op());
    println!("load imbalance    : {:.3}", m.window.load_imbalance());
    println!("lock contention   : {}", m.lock_contention);
    println!("migrations (in)   : {}", m.migrations);
    println!("interconnect      : {:?}", m.interconnect);
    // The measurement window alone: whole-run counters would fold the
    // cold start into every line.
    let w = m.window_counters;
    for ((level, lines), share) in WindowCounters::LEVELS
        .iter()
        .zip(w.lines)
        .zip(w.line_shares())
    {
        println!(
            "window {level:<6} lines: {lines:>12} ({:>5.1}%)",
            share * 100.0
        );
    }
    println!("window busy cycles: {:>12}", w.busy_cycles);
    println!(
        "window idle cycles: {:>12} ({:>5.1}%)",
        w.idle_cycles,
        w.idle_share() * 100.0
    );
    let thread_migrations: u64 = (0..spec.total_threads() as usize)
        .map(|t| engine.thread_stats(t).migrations)
        .sum();
    let migration_cycles: u64 = (0..spec.total_threads() as usize)
        .map(|t| engine.thread_stats(t).migration_cycles)
        .sum();
    let lock_wait: u64 = (0..spec.total_threads() as usize)
        .map(|t| engine.thread_stats(t).lock_wait_cycles)
        .sum();
    println!("thread migrations : {thread_migrations}");
    println!("migration cycles  : {migration_cycles}");
    println!("lock wait cycles  : {lock_wait}");
    println!("total ops (all)   : {}", engine.total_ops());

    let s = engine.sched_stats();
    println!("-- event queue --");
    println!("events processed  : {}", s.events_processed);
    println!("stale events      : {}", s.stale_events);
    println!("park wakeups      : {}", s.park_wakeups);
    println!("parks             : {}", s.parks);
    println!("lock wakeups      : {}", s.lock_wakeups);

    let f = engine.policy().fault_stats();
    println!("-- fault plane --");
    println!("faults applied    : {}", s.faults_applied);
    println!("cores offlined    : {}", s.cores_offlined);
    println!("cores slowed      : {}", s.cores_slowed);
    println!("migration retries : {}", s.migration_retries);
    println!("migration failures: {}", s.migration_failures);
    println!("threads re-pinned : {}", s.threads_repinned);
    println!("recovery cycles   : {}", s.recovery_cycles);
    println!("policy core-downs : {}", f.core_down_events);
    println!("objects re-homed  : {}", f.objects_rehomed);
    println!("objects stranded  : {}", f.objects_stranded);
    println!("degraded avoids   : {}", f.degraded_avoids);

    let r = engine.policy().replication_stats();
    println!("-- replica serving --");
    println!("promotions        : {}", r.promotions);
    println!("demotions         : {}", r.demotions);
    println!("invalidations     : {}", r.invalidations);
    println!("replica-served ops: {}", r.replica_served);
    println!("background fills  : {}", s.replica_fills);
    println!("fill cycles       : {}", s.replica_fill_cycles);
}
