//! The million-object scale tier.
//!
//! The directory benchmark tops out at a few thousand objects: every
//! directory is a mapped FAT volume with entries, locks and lookup costs.
//! This module strips the workload down to what the scale question needs —
//! `n` fixed-size objects, a Zipfian access stream, one annotated
//! read+compute operation per request — so the object count can sweep
//! from 1e4 to 1e7 while everything around it stays constant:
//!
//! * object addresses are computed, not stored: a handful of large
//!   per-chip regions and an index→address formula, no per-object `Vec`
//!   anywhere on the workload side;
//! * the popularity distribution is sampled in O(1) per draw by Hörmann &
//!   Derflinger rejection-inversion ([`ZipfSampler`]), instead of the
//!   O(n) CDF scan the directory chooser uses — at 1e7 objects a CDF scan
//!   would dominate the run;
//! * objects are declared, not registered: one `Engine::register_region`
//!   per chip, whatever the object count, and an object costs state in
//!   the runtime and the policy only from the first `ct_start` that names
//!   it — so set-up is O(chips), tables grow by amortised doubling inside
//!   the run as objects are touched, and the experiment reports the
//!   accounted bytes per *touched* object from `footprint_bytes`;
//! * latency comes from fixed-memory histograms — the runtime's
//!   service-latency recorder, plus (in open-loop mode) the shared
//!   arrival→completion recorder of [`crate::open_loop::OpenLoopGen`].

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_metrics::{LatencyRecorder, LatencySummary};
use o2_runtime::{
    AccessKind, BehaviourCtx, Engine, ObjectRegion, OpBehaviour, OpBuilder, OpGenerator,
    PolicyReplicationStats, RunWindow, RuntimeConfig, SchedPolicy,
};
use o2_sim::{Machine, MachineConfig};

use crate::open_loop::OpenLoopGen;

/// Specification of a scale-tier run.
#[derive(Debug, Clone)]
pub struct ScaleSpec {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Runtime configuration (migration costs, epoch length, ...).
    pub runtime: RuntimeConfig,
    /// Number of objects (the sweep axis; up to 1e7).
    pub n_objects: u64,
    /// Size of every object in bytes.
    pub object_size: u64,
    /// Worker threads per core.
    pub threads_per_core: u32,
    /// Zipf exponent of the access popularity.
    pub zipf_exponent: f64,
    /// Compute cycles per operation, after the object read.
    pub compute_cycles: u64,
    /// Base seed; per-thread streams derive from it.
    pub seed: u64,
    /// Operations to complete before the measurement window.
    pub warmup_ops: u64,
    /// Length of the measurement window in cycles.
    pub measure_cycles: u64,
    /// Mean inter-arrival gap in cycles per thread: `Some` switches the
    /// workload to open-loop arrivals, `None` keeps the closed loop.
    pub open_loop_mean_gap: Option<f64>,
    /// Fraction of operations that declare themselves reads at `ct_start`
    /// (the rest are writes). A read-heavy mix is what lets a
    /// replica-serving policy spread the Zipf head across cores; writes
    /// force invalidation. `0.0` reproduces the old all-write stream
    /// without consuming any extra randomness.
    pub read_fraction: f64,
}

impl ScaleSpec {
    /// A scale run over `n_objects` with defaults sized for tests; the
    /// experiment layer overrides machine and windows.
    pub fn new(n_objects: u64) -> Self {
        Self {
            machine: MachineConfig::quad4(),
            runtime: RuntimeConfig::default(),
            n_objects,
            object_size: 64,
            threads_per_core: 1,
            zipf_exponent: 1.1,
            compute_cycles: 150,
            seed: 42,
            warmup_ops: 1_000,
            measure_cycles: 1_000_000,
            open_loop_mean_gap: None,
            read_fraction: 0.0,
        }
    }

    /// Total worker threads.
    pub fn total_threads(&self) -> u32 {
        self.machine.total_cores() * self.threads_per_core.max(1)
    }

    /// Checks the specification for nonsense values.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_objects == 0 {
            return Err("n_objects must be at least 1".into());
        }
        if self.object_size == 0 {
            return Err("object_size must be at least 1 byte".into());
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent > 0.0) {
            return Err("zipf_exponent must be positive".into());
        }
        if let Some(gap) = self.open_loop_mean_gap {
            if !(gap.is_finite() && gap > 0.0) {
                return Err("open_loop_mean_gap must be positive".into());
            }
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err("read_fraction must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Computed object layout: per-chip base addresses plus an
/// index→address formula. Deliberately O(chips), not O(objects).
#[derive(Debug)]
struct ObjectMap {
    bases: Vec<u64>,
    per_chip: u64,
    object_size: u64,
}

impl ObjectMap {
    fn addr_of(&self, index: u64) -> u64 {
        let chip = (index / self.per_chip) as usize;
        self.bases[chip] + (index % self.per_chip) * self.object_size
    }
}

/// O(1) Zipf sampling over `{0, .., n-1}` by rejection inversion
/// (Hörmann & Derflinger, "Rejection-inversion to generate variates from
/// monotone discrete distributions", 1996). The directory chooser's CDF
/// scan is O(n) per draw and precomputes an O(n) table — fine for a few
/// thousand directories, fatal for 1e7 objects.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    exponent: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

/// `log(1+x)/x`, continuous at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 + x * x / 3.0
    }
}

/// `(exp(x)-1)/x`, continuous at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 + x * x / 6.0
    }
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the exponent is not finite and positive.
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n >= 1, "zipf sampler needs at least one rank");
        assert!(
            exponent.is_finite() && exponent > 0.0,
            "zipf exponent must be positive"
        );
        let h_x1 = Self::h_integral(1.5, exponent) - 1.0;
        let h_n = Self::h_integral(n as f64 + 0.5, exponent);
        let threshold = 2.0
            - Self::h_integral_inverse(
                Self::h_integral(2.5, exponent) - Self::h(2.0, exponent),
                exponent,
            );
        Self {
            n,
            exponent,
            h_x1,
            h_n,
            threshold,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Primitive of the rank weight `h(x) = x^-exponent`.
    fn h_integral(x: f64, e: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - e) * log_x) * log_x
    }

    fn h(x: f64, e: f64) -> f64 {
        (-e * x.ln()).exp()
    }

    fn h_integral_inverse(x: f64, e: f64) -> f64 {
        let mut t = x * (1.0 - e);
        // Clamp round-off: t may dip just below the codomain edge.
        if t < -1.0 {
            t = -1.0;
        }
        (helper1(t) * x).exp()
    }

    /// Draws a 0-based rank (0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inverse(u, self.exponent);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.threshold
                || u >= Self::h_integral(k + 0.5, self.exponent) - Self::h(k, self.exponent)
            {
                return k as u64 - 1;
            }
        }
    }
}

/// The per-thread scale generator: draw a Zipf rank, read that object,
/// compute, all inside one annotated operation. No locks — at this tier
/// the interesting contention is for cache capacity, not for entries.
pub struct ScaleGen {
    map: Rc<ObjectMap>,
    zipf: ZipfSampler,
    compute_cycles: u64,
    read_fraction: f64,
    rng: StdRng,
    ops_generated: u64,
    max_ops: Option<u64>,
}

impl ScaleGen {
    /// Draws this operation's declared access kind. The degenerate mixes
    /// (all-write, all-read) consume no randomness, so a `read_fraction`
    /// of exactly 0 leaves the legacy operation stream byte-identical.
    fn draw_kind(&mut self) -> AccessKind {
        if self.read_fraction <= 0.0 {
            return AccessKind::Write;
        }
        // Short-circuit: an all-read mix also consumes no randomness.
        if self.read_fraction >= 1.0 || self.rng.gen::<f64>() < self.read_fraction {
            AccessKind::Read
        } else {
            AccessKind::Write
        }
    }
}

impl OpGenerator for ScaleGen {
    fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<o2_runtime::Action> {
        if let Some(max) = self.max_ops {
            if self.ops_generated >= max {
                return Vec::new();
            }
        }
        self.ops_generated += 1;
        let index = self.zipf.sample(&mut self.rng);
        let addr = self.map.addr_of(index);
        let kind = self.draw_kind();
        OpBuilder::annotated_kind(addr, kind)
            .read(addr, self.map.object_size)
            .compute(self.compute_cycles)
            .finish()
    }
}

/// The measurement produced by [`ScaleExperiment::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMeasurement {
    /// Name of the scheduling policy.
    pub policy: String,
    /// Objects in the run (the sweep axis).
    pub n_objects: u64,
    /// The measurement window.
    pub window: RunWindow,
    /// Service latency (`ct_start`→`ct_end`) percentiles from the
    /// runtime's recorder.
    pub service_latency: LatencySummary,
    /// Arrival→completion percentiles; `None` in closed-loop runs.
    pub arrival_latency: Option<LatencySummary>,
    /// Accounted heap bytes of the object-indexed state (runtime index +
    /// policy tables + latency histograms).
    pub footprint_bytes: u64,
    /// Distinct objects operated on since the engine was built — the
    /// only ones any table holds state for.
    pub touched_objects: u64,
    /// `IdleUntil` sleeps taken (nonzero only in open-loop runs that
    /// keep up with the offered load).
    pub sleeps: u64,
    /// Operation migrations performed over the whole run.
    pub migrations: u64,
    /// Replica promotion/demotion/invalidation/serving counters from the
    /// policy (all zero for policies without replica serving).
    pub replication: PolicyReplicationStats,
}

impl ScaleMeasurement {
    /// Throughput in thousands of operations per second.
    pub fn kops_per_sec(&self) -> f64 {
        self.window.kops_per_second()
    }

    /// Accounted bytes of object-indexed state per touched object.
    pub fn bytes_per_touched_object(&self) -> f64 {
        self.footprint_bytes as f64 / self.touched_objects.max(1) as f64
    }
}

/// A fully constructed scale-tier run.
pub struct ScaleExperiment {
    spec: ScaleSpec,
    engine: Engine,
    arrival_latency: Option<Rc<RefCell<LatencyRecorder>>>,
}

impl ScaleExperiment {
    /// Builds the machine, the object space and the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid.
    pub fn build(spec: ScaleSpec, policy: Box<dyn SchedPolicy>) -> Self {
        spec.validate().expect("invalid scale specification");
        let mut machine = Machine::new(spec.machine.clone());

        // A handful of large memory regions — one per chip — instead of
        // one region (or worse, one allocation) per object. Regions are
        // metadata, but 1e7 of them would still cost a BTree node per
        // object on every address lookup.
        let chips = spec.machine.chips.max(1) as u64;
        let per_chip = spec.n_objects.div_ceil(chips);
        let bases: Vec<u64> = (0..chips)
            .map(|chip| {
                machine
                    .memory_mut()
                    .alloc_on(per_chip * spec.object_size, chip as u32, chip)
                    .addr
            })
            .collect();
        let map = Rc::new(ObjectMap {
            bases,
            per_chip,
            object_size: spec.object_size,
        });

        let mut engine = Engine::new(machine, policy, spec.runtime);

        // Likewise one object region per chip that holds objects (with
        // few objects the last chips hold none): an object is registered
        // by the first `ct_start` that names it.
        for (chip, &base) in map.bases.iter().enumerate() {
            let count = per_chip.min(spec.n_objects.saturating_sub(chip as u64 * per_chip));
            if count == 0 {
                break;
            }
            engine
                .register_region(ObjectRegion {
                    base,
                    stride: spec.object_size,
                    size: spec.object_size,
                    count,
                })
                .unwrap_or_else(|e| panic!("scale object region rejected: {e}"));
        }

        let arrival_latency = spec
            .open_loop_mean_gap
            .map(|_| Rc::new(RefCell::new(LatencyRecorder::default())));

        for t in 0..spec.total_threads() {
            let core = t % spec.machine.total_cores();
            let gen = ScaleGen {
                map: Rc::clone(&map),
                zipf: ZipfSampler::new(spec.n_objects, spec.zipf_exponent),
                compute_cycles: spec.compute_cycles,
                read_fraction: spec.read_fraction,
                rng: StdRng::seed_from_u64(spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9)),
                ops_generated: 0,
                max_ops: None,
            };
            match (&arrival_latency, spec.open_loop_mean_gap) {
                (Some(rec), Some(gap)) => {
                    let wrapped = OpenLoopGen::new(
                        gen,
                        gap,
                        spec.seed
                            .wrapping_add(0xA5A5_A5A5)
                            .wrapping_add(u64::from(t)),
                        Rc::clone(rec),
                    );
                    engine.spawn(core, Box::new(OpBehaviour::new(wrapped)));
                }
                _ => {
                    engine.spawn(core, Box::new(OpBehaviour::new(gen)));
                }
            }
        }

        Self {
            spec,
            engine,
            arrival_latency,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The specification this run was built from.
    pub fn spec(&self) -> &ScaleSpec {
        &self.spec
    }

    /// Runs warm-up then the measurement window and reports.
    pub fn run(&mut self) -> ScaleMeasurement {
        self.engine.run_until_ops(self.spec.warmup_ops);
        let window = self.engine.run_window(self.spec.measure_cycles);
        let stats = self.engine.sched_stats();
        let migrations = (0..self.spec.machine.total_cores())
            .map(|c| self.engine.machine().counters(c).migrations_in)
            .sum();
        ScaleMeasurement {
            policy: self.engine.policy().name().to_string(),
            n_objects: self.spec.n_objects,
            window,
            service_latency: stats.op_latency,
            arrival_latency: self.arrival_latency.as_ref().map(|r| r.borrow().summary()),
            footprint_bytes: self.engine.footprint_bytes(),
            touched_objects: self.engine.object_index().len() as u64,
            sleeps: stats.sleeps,
            migrations,
            replication: self.engine.policy().replication_stats(),
        }
    }
}

/// Convenience: build and run in one call.
pub fn run_scale(spec: ScaleSpec, policy: Box<dyn SchedPolicy>) -> ScaleMeasurement {
    ScaleExperiment::build(spec, policy).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DirChooser;
    use crate::spec::Popularity;
    use o2_runtime::{NullPolicy, ObjectDescriptor};
    use o2_sim::ContentionModel;

    fn small_spec(n: u64) -> ScaleSpec {
        let mut spec = ScaleSpec::new(n);
        spec.machine.contention = ContentionModel::None;
        spec.warmup_ops = 200;
        spec.measure_cycles = 400_000;
        spec
    }

    #[test]
    fn zipf_sampler_matches_the_cdf_chooser() {
        // The O(1) rejection-inversion sampler and the O(n) CDF chooser
        // target the same distribution; at small n their histograms must
        // agree with the exact weights and with each other.
        let n = 50u64;
        let exponent = 1.2;
        let samples = 200_000u64;
        let sampler = ZipfSampler::new(n, exponent);
        let mut rng = StdRng::seed_from_u64(9);
        let mut h_fast = vec![0u64; n as usize];
        for _ in 0..samples {
            h_fast[sampler.sample(&mut rng) as usize] += 1;
        }
        let chooser = DirChooser::new(n as u32, Popularity::Zipf { exponent });
        let mut rng = StdRng::seed_from_u64(10);
        let mut h_cdf = vec![0u64; n as usize];
        for _ in 0..samples {
            h_cdf[chooser.choose(&mut rng, 0) as usize] += 1;
        }
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut tv_fast = 0.0;
        let mut tv_cdf = 0.0;
        for i in 0..n as usize {
            let exact = weights[i] / total;
            tv_fast += (h_fast[i] as f64 / samples as f64 - exact).abs();
            tv_cdf += (h_cdf[i] as f64 / samples as f64 - exact).abs();
        }
        assert!(tv_fast / 2.0 < 0.01, "sampler off the exact law: {tv_fast}");
        assert!(tv_cdf / 2.0 < 0.01, "chooser off the exact law: {tv_cdf}");
        // Head probabilities agree tightly between the two methods.
        for i in 0..10 {
            let a = h_fast[i] as f64;
            let b = h_cdf[i] as f64;
            assert!(
                (a - b).abs() / b.max(1.0) < 0.1,
                "rank {i}: sampler {a} vs chooser {b}"
            );
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_in_range() {
        let sampler = ZipfSampler::new(1_000_000, 0.99);
        let seq = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..200)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = seq(3);
        assert_eq!(a, seq(3));
        assert_ne!(a, seq(4));
        assert!(a.iter().all(|&k| k < 1_000_000));
        // Exponent exactly 1 exercises the continuous-at-one helpers.
        let s1 = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            assert!(s1.sample(&mut rng) < 100);
        }
        let single = ZipfSampler::new(1, 1.3);
        assert_eq!(single.sample(&mut rng), 0);
    }

    #[test]
    fn closed_loop_scale_run_reports_throughput_and_footprint() {
        let mut exp = ScaleExperiment::build(small_spec(2_000), Box::new(NullPolicy));
        let m = exp.run();
        assert!(m.window.ops > 0);
        assert!(m.kops_per_sec() > 0.0);
        assert_eq!(m.n_objects, 2_000);
        assert!(m.footprint_bytes > 0);
        assert!(m.touched_objects > 0 && m.touched_objects <= 2_000);
        assert!(m.bytes_per_touched_object() > 0.0);
        assert_eq!(m.service_latency.count, m.window.ops + 200);
        assert!(m.service_latency.p50 > 0);
        assert!(m.arrival_latency.is_none());
        assert_eq!(m.sleeps, 0, "closed loop must never sleep");
    }

    #[test]
    fn open_loop_scale_run_sleeps_and_records_arrival_latency() {
        let mut spec = small_spec(500);
        // A mean gap far above the service time: the system keeps up,
        // threads sleep between requests.
        spec.open_loop_mean_gap = Some(5_000.0);
        let mut exp = ScaleExperiment::build(spec, Box::new(NullPolicy));
        let m = exp.run();
        assert!(m.window.ops > 0);
        assert!(m.sleeps > 0, "open loop under light load must sleep");
        let arrival = m.arrival_latency.expect("arrival latency present");
        assert!(arrival.count > 0);
        assert!(arrival.p50 > 0);
    }

    #[test]
    fn overload_shows_up_as_queueing_delay() {
        // Arrivals far faster than service: arrival→completion latency
        // must dwarf the service latency, which is the whole point of the
        // open loop.
        let mut spec = small_spec(500);
        spec.open_loop_mean_gap = Some(10.0);
        let mut exp = ScaleExperiment::build(spec, Box::new(NullPolicy));
        let m = exp.run();
        let arrival = m.arrival_latency.expect("arrival latency present");
        assert!(
            arrival.p99 > m.service_latency.p99.saturating_mul(5),
            "queueing delay invisible: arrival p99 {} vs service p99 {}",
            arrival.p99,
            m.service_latency.p99
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut exp = ScaleExperiment::build(small_spec(1_000), Box::new(NullPolicy));
            let m = exp.run();
            (m.window.ops, m.window.end, m.service_latency)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn state_is_paid_per_object_touched_not_per_object_that_exists() {
        // Same seed, same operation budget, a hundred times the objects.
        // An operation touches at most one object, so the index can never
        // hold more objects than operations were started; and because no
        // table is sized by the population, the accounted footprint of
        // the two runs must be of the same order, not 100x apart.
        let footprint_at = |n: u64| {
            let mut exp = ScaleExperiment::build(small_spec(n), Box::new(NullPolicy));
            exp.engine.run_until_ops(3_000);
            let started = exp.engine.total_ops() + u64::from(exp.spec.total_threads());
            let touched = exp.engine.object_index().len() as u64;
            assert!(touched > 0, "{n} objects: nothing touched");
            assert!(
                touched <= started,
                "{n} objects: {touched} interned by {started} operations"
            );
            exp.engine.footprint_bytes()
        };
        let (small, large) = (footprint_at(10_000), footprint_at(1_000_000));
        assert!(
            small <= 2 * large && large <= 2 * small,
            "footprint follows the population: {small} B at 1e4 vs {large} B at 1e6 objects"
        );
    }

    /// The build this tier used to have: every object registered before
    /// the run, in index order. Explicit registration wins over a region,
    /// so this is `build` plus the eager loop.
    fn build_eager(spec: ScaleSpec, policy: Box<dyn SchedPolicy>) -> ScaleExperiment {
        let mut exp = ScaleExperiment::build(spec, policy);
        let regions = exp.engine.object_index().regions().to_vec();
        for r in regions {
            for i in 0..r.count {
                let addr = r.base + i * r.stride;
                exp.engine
                    .register_object(ObjectDescriptor::new(addr, addr, r.size));
            }
        }
        assert_eq!(
            exp.engine.object_index().len() as u64,
            exp.spec.n_objects,
            "the regions must cover every object exactly once"
        );
        exp
    }

    #[test]
    fn region_build_is_in_lockstep_with_eager_registration() {
        // Registering an object at its first `ct_start` instead of before
        // the run changes dense ids and registration epochs, and nothing
        // a policy decides may depend on either. Static partitioning is
        // absent by design: it deals objects to cores in registration
        // order, so it *is* a function of that order.
        use o2_baseline::{ThreadClustering, ThreadScheduler};
        use o2_core::{CoreTime, CoreTimeConfig};

        const N_OBJECTS: u64 = 20_000;
        type Build = fn(&MachineConfig) -> Box<dyn SchedPolicy>;
        let policies: [(&str, Build); 4] = [
            ("coretime", |m| CoreTime::policy(m)),
            ("coretime serving", |m| {
                CoreTime::policy_with(m, CoreTimeConfig::default().with_serving(N_OBJECTS))
            }),
            ("thread scheduler", |_| Box::new(ThreadScheduler::new())),
            ("thread clustering", |m| {
                Box::new(ThreadClustering::new(m.chips, m.cores_per_chip))
            }),
        ];
        for (name, build) in policies {
            for open_gap in [None, Some(8_000.0)] {
                for seed in [7, 42] {
                    let mut spec = ScaleSpec::new(N_OBJECTS);
                    spec.machine = MachineConfig::amd16();
                    spec.object_size = 4096;
                    spec.read_fraction = 0.95;
                    spec.warmup_ops = 2_000;
                    spec.measure_cycles = 2_000_000;
                    spec.open_loop_mean_gap = open_gap;
                    spec.seed = seed;
                    let region = ScaleExperiment::build(spec.clone(), build(&spec.machine)).run();
                    let eager = build_eager(spec.clone(), build(&spec.machine)).run();
                    assert!(region.window.ops > 0);
                    assert!(region.touched_objects < eager.touched_objects);
                    // Everything but the state that is now pay-per-touch.
                    let expected = ScaleMeasurement {
                        footprint_bytes: region.footprint_bytes,
                        touched_objects: region.touched_objects,
                        ..eager
                    };
                    assert_eq!(
                        region, expected,
                        "{name}, open loop {open_gap:?}, seed {seed}"
                    );
                }
            }
        }
    }
}
