//! Writing your own scheduling policy.
//!
//! The runtime consults a `SchedPolicy` at `ct_start`, `ct_end` and every
//! epoch; CoreTime is one implementation, the baselines are others. This
//! example implements a tiny "hash placement" policy — every object is
//! deterministically assigned to `hash(object) % cores` with no
//! monitoring at all — and compares it against CoreTime and the thread
//! scheduler on the paper's uniform lookup workload.
//!
//! Run with `cargo run --release --example custom_policy`.

use o2_suite::prelude::*;
use o2_suite::runtime::{OpContext, Placement};

/// Assigns every operation to `hash(object) % cores`, unconditionally.
struct HashPlacement {
    cores: u32,
}

impl SchedPolicy for HashPlacement {
    fn name(&self) -> &'static str {
        "hash-placement"
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        // A multiplicative hash of the object's address keeps neighbouring
        // directories apart.
        let target = ((ctx.object_key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33)
            % u64::from(self.cores)) as u32;
        if target == ctx.core {
            Placement::Local
        } else {
            Placement::On(target)
        }
    }
}

fn run(label: &str, policy: Box<dyn SchedPolicy>) -> f64 {
    let mut spec = WorkloadSpec::for_total_kb(8192);
    spec.warmup_ops = 3_000;
    spec.measure_cycles = 3_000_000;
    let mut experiment = Experiment::build(spec, policy);
    let m = experiment.run();
    println!("{label:<22} {:>8.0}k resolutions/s", m.kres_per_sec());
    m.kres_per_sec()
}

fn main() {
    println!("Custom policy comparison: 8 MB of directories, uniform lookups\n");
    let machine = MachineConfig::amd16();
    let without = run("Without CoreTime:", Box::new(ThreadScheduler::new()));
    let hashed = run(
        "Hash placement:",
        Box::new(HashPlacement {
            cores: machine.total_cores(),
        }),
    );
    let with = run("With CoreTime:", CoreTime::policy(&machine));
    println!(
        "\nHash placement gets {:.2}x over the baseline just by partitioning objects;\n\
         CoreTime gets {:.2}x and additionally only migrates operations whose objects\n\
         are actually expensive to fetch.",
        hashed / without.max(1e-9),
        with / without.max(1e-9)
    );
}
