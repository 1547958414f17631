//! # o2-workloads — benchmark workloads and experiment assembly
//!
//! Reproduces the synthetic workloads of the paper's evaluation
//! (Section 5) and the motivating web-server workload (Section 2):
//!
//! * [`spec`] — declarative workload specifications (machine, directory
//!   count, popularity distribution, cost model, seeds);
//! * [`distribution`] — uniform, oscillating (Figure 4b), Zipf and hotspot
//!   directory-popularity distributions;
//! * [`behaviour`] — the directory-lookup thread of Figures 1/3: pick a
//!   random directory and file, search it under the directory spin lock,
//!   inside `ct_start`/`ct_end`;
//! * [`webserver`] — multi-component path resolution, the workload the
//!   paper's introduction motivates;
//! * [`fsmeta`] — file-metadata churn (create / rename / unlink across
//!   many small directories), exercising the volume's materialized
//!   directories, their live-slot bookkeeping and directory removal
//!   end-to-end;
//! * [`open_loop`] — a Poisson arrival process that wraps any generator,
//!   so latency includes queueing delay instead of just service time;
//! * [`scale`] — the million-object tier: computed object layout, O(1)
//!   Zipf sampling, objects registered at first touch and fixed-memory
//!   latency histograms;
//! * [`experiment`] — builds machine + volume + engine + threads for a
//!   spec and a policy, runs warm-up and a measurement window, and reports
//!   throughput in the paper's units (thousands of resolutions per second).
//!
//! ```
//! use o2_workloads::{Experiment, WorkloadSpec};
//! use o2_runtime::NullPolicy;
//!
//! let mut spec = WorkloadSpec::paper_default(4);
//! spec.machine = o2_sim::MachineConfig::quad4();
//! spec.warmup_ops = 50;
//! spec.measure_cycles = 200_000;
//! let mut exp = Experiment::build(spec, Box::new(NullPolicy));
//! let m = exp.run();
//! assert!(m.kres_per_sec() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviour;
pub mod distribution;
pub mod experiment;
pub mod fsmeta;
pub mod open_loop;
pub mod scale;
pub mod spec;
pub mod webserver;

pub use behaviour::{DirectoryLookupGen, DirectorySet};
pub use distribution::DirChooser;
pub use experiment::{Experiment, Measurement, WindowCounters};
pub use fsmeta::{FsMetaExperiment, FsMetaGen, FsMetaSpec, FsMetaStats};
pub use open_loop::OpenLoopGen;
pub use scale::{run_scale, ScaleExperiment, ScaleGen, ScaleMeasurement, ScaleSpec, ZipfSampler};
pub use spec::{Popularity, WorkloadSpec};
pub use webserver::{PathLookupGen, WebMix};
