//! The Figure 4(b) scenario in miniature: the set of directories the
//! application actually uses oscillates between all of them and a
//! sixteenth of them. CoreTime places each directory once, by its first
//! expensive operation, and never moves it for load; the example compares
//! it with the thread scheduler and with a static partition of the
//! directories, and says which of the three won.
//!
//! Run with `cargo run --release --example oscillating_popularity`.

use o2_suite::prelude::*;

fn run(label: &str, policy: Box<dyn SchedPolicy>) -> f64 {
    let mut spec = WorkloadSpec::for_total_kb(8192).oscillating();
    spec.warmup_ops = 4_000;
    spec.measure_cycles = 4_000_000;
    let mut experiment = Experiment::build(spec, policy);
    let m = experiment.run();
    println!(
        "{label:<20} {:>8.0}k resolutions/s   (operation migrations over the run: {})",
        m.kres_per_sec(),
        m.migrations
    );
    m.kres_per_sec()
}

fn main() {
    println!(
        "Oscillating popularity: 8 MB of directories, the active set shrinks to 1/16\n\
         and rotates every 400 operations per thread.\n"
    );
    let machine = MachineConfig::amd16();
    let without = run("Without CoreTime:", Box::new(ThreadScheduler::new()));
    let with = run("With CoreTime:", CoreTime::policy(&machine));
    let static_partition = run(
        "Static partition:",
        Box::new(StaticPartition::new(machine.total_cores())),
    );
    let vs_threads = with / without.max(1e-9);
    let vs_static = with / static_partition.max(1e-9);
    println!(
        "\nCoreTime vs thread scheduler: {vs_threads:.2}x; \
         CoreTime vs static partitioning: {vs_static:.2}x."
    );
    let verdict = |ratio: f64, other: &str| {
        if ratio >= 1.0 {
            format!("beats {other} by {ratio:.2}x")
        } else {
            format!("loses to {other} ({ratio:.2}x)")
        }
    };
    println!(
        "Under oscillating popularity CoreTime {} and {}.",
        verdict(vs_threads, "the thread scheduler"),
        verdict(vs_static, "static partitioning")
    );
}
