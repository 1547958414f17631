//! # o2-experiments — the experiment matrix
//!
//! Every claim of the paper is comparative — CoreTime against thread
//! scheduling, thread clustering and static partitioning, swept over
//! working-set sizes, machine shapes and ablation knobs. This crate
//! turns that matrix into data:
//!
//! * [`policy`] — [`PolicyKind`], the closed set of scheduling policies a
//!   scenario can compare;
//! * [`scenario`] — [`Scenario`]: a name, a set of series (one per
//!   policy or configuration), a sweep axis, and a cell function that
//!   builds and runs one `(series, point)` experiment from scratch;
//! * [`registry`] — the static registry covering every figure, table and
//!   ablation of the paper plus `fig_fsmeta` (metadata churn);
//! * [`runner`] — the sharded matrix runner: cells fan out across OS
//!   threads with `std::thread::scope`, each worker building its whole
//!   experiment inside the thread, and results are collected in
//!   cell-index order so the output is bit-identical to a serial run;
//! * [`output`] — plain-text reports (via `o2-metrics`) and a
//!   deterministic JSON rendering.
//!
//! Seeds are derived per cell ([`scenario::derive_cell_seed`]) from the
//! scenario name, the series label and the point index, so every cell's
//! placement and interleaving is a pure function of the cell — never of
//! worker scheduling.
//!
//! Two binaries sit on top: `o2`, the matrix driver (`o2 --list`,
//! `o2 --run <scenario> --jobs N`, `o2 --all --json <path>`), and `diag`,
//! the per-point calibration diagnostic for one Figure-4 cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod policy;
pub mod registry;
pub mod runner;
pub mod scenario;

pub use output::{render_json, render_reports};
pub use policy::PolicyKind;
pub use registry::{find_scenario, quick_mode, registry, scale_spec_for, serving_coretime_config};
pub use runner::{run_matrix, MatrixRun, ScenarioResult, SeriesResult};
pub use scenario::{derive_cell_seed, CellResult, Scenario, SeriesDef, SweepPoint};
