//! Workload specifications.

use o2_fs::LookupCost;
use o2_runtime::RuntimeConfig;
use o2_sim::{FaultPlan, MachineConfig};

/// How threads choose which directory to look up in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every directory is equally likely (Figure 4a).
    Uniform,
    /// The set of accessed directories oscillates between all `n` and
    /// `n / shrink_factor` of them, switching every `period_ops`
    /// operations per thread; the active subset rotates each low phase so
    /// the scheduler must follow it (Figure 4b).
    Oscillating {
        /// Operations per thread between phase switches.
        period_ops: u64,
        /// Shrink factor of the low phase (16 in the paper).
        shrink_factor: u32,
    },
    /// Zipfian popularity with the given exponent (skewed workloads, the
    /// beyond-on-chip-capacity ablation).
    Zipf {
        /// The Zipf exponent (larger = more skew).
        exponent: f64,
    },
    /// A fixed fraction of lookups goes to a small set of hot directories
    /// (used by the replication ablation).
    Hotspot {
        /// Number of hot directories.
        hot_dirs: u32,
        /// Fraction of operations that target the hot set (0.0–1.0).
        hot_fraction: f64,
    },
}

/// A complete description of one benchmark run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Runtime (migration/locking/epoch) parameters.
    pub runtime: RuntimeConfig,
    /// Number of directories.
    pub n_dirs: u32,
    /// Entries per directory (1,000 in the paper).
    pub entries_per_dir: u32,
    /// Threads spawned per core (1 in the paper).
    pub threads_per_core: u32,
    /// Directory popularity distribution.
    pub popularity: Popularity,
    /// Cost model of the lookup inner loop.
    pub lookup_cost: LookupCost,
    /// Fraction of operations that also update the found entry (0.0 for the
    /// paper's read-only lookup benchmark).
    pub write_fraction: f64,
    /// RNG seed; every thread derives its own stream from it.
    pub seed: u64,
    /// Operations to run before measuring (lets caches warm up and lets
    /// CoreTime's monitoring assign objects).
    pub warmup_ops: u64,
    /// Length of the measurement window, in cycles.
    pub measure_cycles: u64,
    /// Deterministic fault schedule injected during the run. The default
    /// (empty) plan is guaranteed not to perturb the simulation — runs
    /// stay bit-identical to a build without the fault plane.
    pub fault_plan: FaultPlan,
}

impl WorkloadSpec {
    /// The paper's file-system benchmark on the default 16-core machine:
    /// one thread per core repeatedly looking up a random file in a random
    /// directory of 1,000 32-byte entries.
    pub fn paper_default(n_dirs: u32) -> Self {
        Self {
            machine: MachineConfig::amd16(),
            runtime: RuntimeConfig::default(),
            n_dirs: n_dirs.max(1),
            entries_per_dir: 1000,
            threads_per_core: 1,
            popularity: Popularity::Uniform,
            lookup_cost: LookupCost::default(),
            write_fraction: 0.0,
            seed: 42,
            warmup_ops: (6 * n_dirs as u64).max(2_000),
            measure_cycles: 3_000_000,
            fault_plan: FaultPlan::empty(),
        }
    }

    /// Installs a fault schedule for the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Derives the directory count from a target total data size in
    /// kilobytes (the x-axis of Figure 4), given 32-byte entries.
    pub fn for_total_kb(total_kb: u64) -> Self {
        let bytes_per_dir = 1000u64 * 32;
        let n_dirs = ((total_kb * 1024) / bytes_per_dir).max(1) as u32;
        Self::paper_default(n_dirs)
    }

    /// Total directory bytes this spec will create.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.n_dirs) * u64::from(self.entries_per_dir) * 32
    }

    /// Total directory data in kilobytes.
    pub fn total_kb(&self) -> u64 {
        self.total_bytes() / 1024
    }

    /// Total number of workload threads.
    pub fn total_threads(&self) -> u32 {
        self.machine.total_cores() * self.threads_per_core
    }

    /// Switches the popularity distribution.
    pub fn with_popularity(mut self, popularity: Popularity) -> Self {
        self.popularity = popularity;
        self
    }

    /// Uses the oscillating distribution of Figure 4(b) with the paper's
    /// 16x shrink factor. The period is short enough that several full
    /// oscillations happen inside one measurement window.
    pub fn oscillating(mut self) -> Self {
        self.popularity = Popularity::Oscillating {
            period_ops: 120,
            shrink_factor: 16,
        };
        self
    }

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        self.runtime.validate()?;
        if self.n_dirs == 0 || self.entries_per_dir == 0 {
            return Err("need at least one directory with at least one entry".into());
        }
        if self.threads_per_core == 0 {
            return Err("need at least one thread per core".into());
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err("write_fraction must be in [0, 1]".into());
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be positive".into());
        }
        match self.popularity {
            Popularity::Oscillating {
                period_ops,
                shrink_factor,
            } => {
                if period_ops == 0 || shrink_factor == 0 {
                    return Err("oscillation parameters must be positive".into());
                }
            }
            Popularity::Zipf { exponent } => {
                if exponent <= 0.0 {
                    return Err("zipf exponent must be positive".into());
                }
            }
            Popularity::Hotspot {
                hot_dirs,
                hot_fraction,
            } => {
                if hot_dirs == 0 || !(0.0..=1.0).contains(&hot_fraction) {
                    return Err("invalid hotspot parameters".into());
                }
            }
            Popularity::Uniform => {}
        }
        self.fault_plan.validate(self.machine.total_cores())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5() {
        let s = WorkloadSpec::paper_default(64);
        assert_eq!(s.entries_per_dir, 1000);
        assert_eq!(s.threads_per_core, 1);
        assert_eq!(s.machine.total_cores(), 16);
        assert_eq!(s.total_threads(), 16);
        assert_eq!(s.total_bytes(), 64 * 32_000);
        s.validate().unwrap();
    }

    #[test]
    fn for_total_kb_computes_directory_count() {
        let s = WorkloadSpec::for_total_kb(2_048); // 2 MB
        assert_eq!(s.n_dirs, 65); // 2 MiB / 32,000 B
        assert!(s.total_kb() >= 2_000 && s.total_kb() <= 2_100);
        // Tiny sizes still get one directory.
        assert_eq!(WorkloadSpec::for_total_kb(1).n_dirs, 1);
    }

    #[test]
    fn oscillating_builder_uses_the_papers_shrink_factor() {
        let s = WorkloadSpec::paper_default(64).oscillating();
        match s.popularity {
            Popularity::Oscillating { shrink_factor, .. } => assert_eq!(shrink_factor, 16),
            other => panic!("unexpected popularity {other:?}"),
        }
        s.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut s = WorkloadSpec::paper_default(8);
        s.write_fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_default(8);
        s.threads_per_core = 0;
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_default(8);
        s.popularity = Popularity::Zipf { exponent: -1.0 };
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_default(8);
        s.popularity = Popularity::Hotspot {
            hot_dirs: 0,
            hot_fraction: 0.5,
        };
        assert!(s.validate().is_err());
        let mut s = WorkloadSpec::paper_default(8);
        s.measure_cycles = 0;
        assert!(s.validate().is_err());
    }
}
