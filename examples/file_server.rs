//! A web/file-server style workload: every "request" resolves a
//! multi-component path (hot root directories, then a large set of leaf
//! directories), the scenario the paper's introduction motivates with
//! multicore web servers.
//!
//! Run with `cargo run --release --example file_server`.

use std::rc::Rc;

use o2_suite::prelude::*;
use o2_suite::runtime::OpBehaviour;
use o2_suite::workloads::{DirectorySet, PathLookupGen};

/// Builds the machine, the volume and one path-resolving thread per core
/// under the given policy, and returns throughput in requests per second.
fn serve(label: &str, policy: Box<dyn SchedPolicy>) -> f64 {
    let machine_cfg = MachineConfig::amd16();
    let mut machine = Machine::new(machine_cfg.clone());

    // 8 hot root directories plus 248 leaf directories, ~8 MB of entries.
    let mut volume = Volume::build_benchmark(256, 1000).expect("volume");
    volume.map_into(machine.memory_mut());

    let mut engine = Engine::new(machine, policy, RuntimeConfig::default());
    let mut locks = Vec::new();
    for dir in volume.directories() {
        let lock = engine.register_lock(dir.lock_addr);
        engine.register_object(o2_suite::fs::directory_descriptor(dir, lock));
        locks.push(lock);
    }
    let dirs = Rc::new(DirectorySet {
        dirs: volume.directories().cloned().collect(),
        locks,
    });

    for core in 0..machine_cfg.total_cores() {
        let gen = PathLookupGen::new(
            Rc::clone(&dirs),
            LookupCost::default(),
            8, // hot root directories
            3, // components per path
            1000 + u64::from(core),
            None,
        );
        engine.spawn(core, Box::new(OpBehaviour::new(gen)));
    }

    // Warm up, then measure.
    engine.run_until_ops(4_000);
    let window = engine.run_window(3_000_000);
    // Three lookups per request.
    let requests_per_sec = window.ops_per_second() / 3.0;
    println!(
        "{label:<22} {requests_per_sec:>12.0} requests/second  \
         ({:.0}k lookups/s, load imbalance {:.2})",
        window.kops_per_second(),
        window.load_imbalance()
    );
    requests_per_sec
}

fn main() {
    println!(
        "Path resolution: 16 cores, /root(8 dirs)/leaf(248 dirs)/file, 3 lookups per request\n"
    );
    let machine_cfg = MachineConfig::amd16();
    let without = serve("Without CoreTime:", Box::new(ThreadScheduler::new()));
    let with = serve("With CoreTime:", CoreTime::policy(&machine_cfg));
    let serving = serve(
        "CoreTime + serving:",
        CoreTime::policy_with(&machine_cfg, CoreTimeConfig::default().with_serving(256)),
    );
    println!(
        "\nSpeedup over the thread scheduler: {:.2}x (CoreTime), {:.2}x (serving reads of the \
         hot roots from replicas, §6.2)",
        with / without.max(1e-9),
        serving / without.max(1e-9)
    );
}
