//! Experiment assembly and measurement.
//!
//! Builds the whole stack for one benchmark run — simulated machine, FAT
//! volume mapped into simulated memory, runtime engine under a chosen
//! scheduling policy, one lookup thread per core — runs a warm-up phase and
//! a measurement window, and reports throughput in the units of Figure 4
//! (thousands of resolutions per second).

use std::rc::Rc;

use o2_fs::{directory_descriptor, Volume};
use o2_runtime::{Engine, OpBehaviour, OpGenerator, RunWindow, SchedPolicy};
use o2_sim::{CoreCounters, InterconnectStats, Machine, Region};

use crate::behaviour::{DirectoryLookupGen, DirectorySet};
use crate::distribution::DirChooser;
use crate::spec::WorkloadSpec;

/// A fully constructed benchmark run.
pub struct Experiment {
    spec: WorkloadSpec,
    engine: Engine,
    volume: Volume,
    dirs: Rc<DirectorySet>,
}

/// What the whole machine did during the measurement window alone: the
/// difference between the all-core counter totals just before and just
/// after it. Whole-run counters fold the cold start into every number —
/// at 16 MB the warm-up's compulsory DRAM loads outnumber the window's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Line accesses satisfied by each level, in [`WindowCounters::LEVELS`]
    /// order.
    pub lines: [u64; 5],
    /// Cycles the cores spent executing work.
    pub busy_cycles: u64,
    /// Cycles the cores spent with nothing runnable.
    pub idle_cycles: u64,
}

impl WindowCounters {
    /// Where a line access can be satisfied, nearest first.
    pub const LEVELS: [&'static str; 5] = ["L1", "L2", "L3", "remote", "DRAM"];

    fn between(before: &CoreCounters, after: &CoreCounters) -> Self {
        Self {
            lines: [
                after.l1_hits - before.l1_hits,
                after.l2_hits - before.l2_hits,
                after.l3_hits - before.l3_hits,
                after.remote_cache_loads - before.remote_cache_loads,
                after.dram_loads - before.dram_loads,
            ],
            busy_cycles: after.busy_cycles - before.busy_cycles,
            idle_cycles: after.idle_cycles - before.idle_cycles,
        }
    }

    /// Fraction of the window's line accesses each level satisfied (all
    /// zero for an empty window).
    pub fn line_shares(&self) -> [f64; 5] {
        let total = self.lines.iter().sum::<u64>().max(1) as f64;
        self.lines.map(|n| n as f64 / total)
    }

    /// Fraction of the window's core cycles that were idle.
    pub fn idle_share(&self) -> f64 {
        self.idle_cycles as f64 / (self.busy_cycles + self.idle_cycles).max(1) as f64
    }

    /// One line for reports: per-level shares, then the idle share.
    pub fn describe(&self) -> String {
        let shares = self.line_shares();
        let levels: Vec<String> = Self::LEVELS
            .iter()
            .zip(shares)
            .map(|(level, share)| format!("{level} {:.1}%", share * 100.0))
            .collect();
        format!(
            "lines {}; cores idle {:.1}%",
            levels.join(", "),
            self.idle_share() * 100.0
        )
    }
}

/// The measurement produced by [`Experiment::run`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Name of the scheduling policy that produced the measurement.
    pub policy: String,
    /// Total directory data in bytes (the x-axis of Figure 4).
    pub total_bytes: u64,
    /// The measurement window.
    pub window: RunWindow,
    /// Machine-wide line accesses and core cycles of the window alone.
    pub window_counters: WindowCounters,
    /// Spin-lock acquisitions that found the lock held.
    pub lock_contention: u64,
    /// Interconnect statistics accumulated over the whole run.
    pub interconnect: InterconnectStats,
    /// DRAM loads during the whole run, per core.
    pub dram_loads: Vec<u64>,
    /// Operation migrations performed by the runtime over the whole run.
    pub migrations: u64,
}

impl Measurement {
    /// Throughput in thousands of resolutions per second (the y-axis of
    /// Figure 4).
    pub fn kres_per_sec(&self) -> f64 {
        self.window.kops_per_second()
    }

    /// Total data size in kilobytes (the x-axis of Figure 4).
    pub fn total_kb(&self) -> f64 {
        self.total_bytes as f64 / 1024.0
    }
}

impl Experiment {
    /// Builds an experiment from a specification and a scheduling policy.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid or the volume cannot be
    /// built (e.g. an absurd directory count).
    pub fn build(spec: WorkloadSpec, policy: Box<dyn SchedPolicy>) -> Self {
        Self::build_with(spec, policy, |spec, dirs, t| {
            let chooser = DirChooser::new(spec.n_dirs, spec.popularity);
            Box::new(DirectoryLookupGen::new(
                Rc::clone(dirs),
                chooser,
                spec.lookup_cost,
                spec.write_fraction,
                spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9),
                None,
            ))
        })
    }

    /// Builds an experiment with a caller-supplied per-thread generator.
    ///
    /// The factory receives the spec, the shared directory set and the
    /// thread index, and returns that thread's operation generator. This is
    /// how alternative workloads (e.g. the web-server path-resolution mix)
    /// reuse the standard volume construction, object registration and
    /// fault-plan plumbing.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid or the volume cannot be
    /// built.
    pub fn build_with<F>(spec: WorkloadSpec, policy: Box<dyn SchedPolicy>, mut make_gen: F) -> Self
    where
        F: FnMut(&WorkloadSpec, &Rc<DirectorySet>, u32) -> Box<dyn OpGenerator>,
    {
        spec.validate().expect("invalid workload specification");
        let mut machine = Machine::new(spec.machine.clone());

        let mut volume = Volume::build_benchmark(spec.n_dirs, spec.entries_per_dir)
            .expect("benchmark volume construction failed");
        volume.map_into(machine.memory_mut());

        let mut engine = Engine::new(machine, policy, spec.runtime);

        // Register every directory (and its spin lock) with the runtime and
        // the policy, as the annotated application would.
        let mut locks = Vec::with_capacity(volume.dir_count());
        for dir in volume.directories() {
            let lock = engine.register_lock(dir.lock_addr);
            engine.register_object(directory_descriptor(dir, lock));
            locks.push(lock);
        }
        let dirs = Rc::new(DirectorySet {
            dirs: volume.directories().cloned().collect(),
            locks,
        });

        // One lookup thread per core (times threads_per_core), mirroring
        // "a thread on each core repeatedly looking up a randomly chosen
        // file from a randomly chosen directory".
        for t in 0..spec.total_threads() {
            let core = t % spec.machine.total_cores();
            let gen = make_gen(&spec, &dirs, t);
            engine.spawn(core, Box::new(OpBehaviour::new(gen)));
        }

        // Install the fault schedule last, so an `at = 0` edge still fires
        // after every thread exists. An empty plan is a no-op.
        engine.set_fault_plan(&spec.fault_plan);

        Self {
            spec,
            engine,
            volume,
            dirs,
        }
    }

    /// The underlying engine (e.g. for cache-occupancy snapshots).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The benchmark volume.
    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    /// The specification this experiment was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The directory set shared by the workload threads.
    pub fn directories(&self) -> &DirectorySet {
        &self.dirs
    }

    /// The simulated-memory regions of the benchmark directories (labelled
    /// with the directory index), for occupancy snapshots.
    pub fn directory_regions(&self) -> Vec<Region> {
        self.engine
            .machine()
            .memory()
            .regions()
            .filter(|r| r.label < 0xF000_0000)
            .copied()
            .collect()
    }

    /// Runs the warm-up phase followed by the measurement window and
    /// returns the measurement.
    pub fn run(&mut self) -> Measurement {
        let total_bytes = self.volume.total_directory_bytes();
        let (warmup_ops, measure_cycles) = (self.spec.warmup_ops, self.spec.measure_cycles);
        measure(&mut self.engine, warmup_ops, measure_cycles, total_bytes)
    }
}

/// The measurement protocol every experiment shares: `warmup_ops`
/// operations unmeasured, then one `measure_cycles` window.
pub(crate) fn measure(
    engine: &mut Engine,
    warmup_ops: u64,
    measure_cycles: u64,
    total_bytes: u64,
) -> Measurement {
    engine.run_until_ops(warmup_ops);
    let before = engine.machine().snapshot_counters().aggregate();
    let window = engine.run_window(measure_cycles);
    let machine = engine.machine();
    let after = machine.snapshot_counters().aggregate();
    let cores = 0..machine.config().total_cores();
    Measurement {
        policy: engine.policy().name().to_string(),
        total_bytes,
        window,
        window_counters: WindowCounters::between(&before, &after),
        lock_contention: engine.locks().total_contention(),
        interconnect: machine.interconnect_stats(),
        dram_loads: cores
            .clone()
            .map(|c| machine.counters(c).dram_loads)
            .collect(),
        migrations: cores.map(|c| machine.counters(c).migrations_in).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::NullPolicy;
    use o2_sim::ContentionModel;

    fn small_spec(n_dirs: u32) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_default(n_dirs);
        // Keep unit tests fast: a smaller machine and shorter windows.
        spec.machine = o2_sim::MachineConfig::quad4();
        spec.machine.contention = ContentionModel::None;
        spec.warmup_ops = 200;
        spec.measure_cycles = 500_000;
        spec
    }

    #[test]
    fn build_registers_every_directory_and_spawns_one_thread_per_core() {
        let spec = small_spec(8);
        let exp = Experiment::build(spec, Box::new(NullPolicy));
        assert_eq!(exp.directories().len(), 8);
        assert_eq!(exp.engine().live_threads(), 4);
        assert_eq!(exp.directory_regions().len(), 8);
        assert!(exp.volume().is_mapped());
    }

    #[test]
    fn run_produces_nonzero_throughput() {
        let mut exp = Experiment::build(small_spec(8), Box::new(NullPolicy));
        let m = exp.run();
        assert!(m.window.ops > 0);
        assert!(m.kres_per_sec() > 0.0);
        assert_eq!(m.total_bytes, 8 * 32_000);
        assert_eq!(m.policy, "thread-scheduler");
        assert_eq!(m.dram_loads.len(), 4);
    }

    #[test]
    fn window_counters_cover_the_window_and_nothing_before_it() {
        let spec = small_spec(8);
        let w = Experiment::build(spec.clone(), Box::new(NullPolicy))
            .run()
            .window_counters;
        // The same run by hand, reading the machine at the window's edges.
        let mut exp = Experiment::build(spec.clone(), Box::new(NullPolicy));
        exp.engine_mut().run_until_ops(spec.warmup_ops);
        let warm = exp.engine().machine().snapshot_counters().aggregate();
        exp.engine_mut().run_window(spec.measure_cycles);
        let end = exp.engine().machine().snapshot_counters().aggregate();
        assert_eq!(w.lines[0], end.l1_hits - warm.l1_hits);
        assert_eq!(w.lines[4], end.dram_loads - warm.dram_loads);
        assert_eq!(w.busy_cycles, end.busy_cycles - warm.busy_cycles);
        assert_eq!(w.idle_cycles, end.idle_cycles - warm.idle_cycles);
        // The cold start stays out: 8 x 32 KB fits the quad's caches, so
        // most of the run's DRAM loads happened during the warm-up.
        assert!(warm.dram_loads > 0 && w.lines[4] < warm.dram_loads);
        assert_eq!(w.lines.iter().sum::<u64>(), {
            (end.l1_hits + end.l1_misses) - (warm.l1_hits + warm.l1_misses)
        });
        // Four cores over a 500k-cycle window (a core's last operation may
        // run a little past the edge).
        let cycles = w.busy_cycles + w.idle_cycles;
        assert!((2_000_000..2_100_000).contains(&cycles), "{cycles}");
        assert!((w.line_shares().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.describe().starts_with("lines L1 "), "{}", w.describe());
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut exp = Experiment::build(small_spec(6), Box::new(NullPolicy));
            let m = exp.run();
            (m.window.ops, m.window.end, m.lock_contention)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_give_different_interleavings() {
        let run = |seed| {
            let mut spec = small_spec(6);
            spec.seed = seed;
            let mut exp = Experiment::build(spec, Box::new(NullPolicy));
            exp.run().window.ops
        };
        // Throughput will be similar but the exact op count differs.
        assert_ne!(run(1), run(2));
    }
}
