//! # o2-metrics — measurement and reporting utilities
//!
//! Small, dependency-free helpers used by the benchmark harness and the
//! integration tests: summary statistics ([`stats`]), the fixed-memory
//! cycle-domain latency recorder ([`sketch`]), named data series and
//! text/CSV tables ([`series`]),
//! series comparisons — speedups and crossover points — ([`compare`]) and
//! experiment reports rendered as markdown or plain text ([`report`]).
//!
//! ```
//! use o2_metrics::{Series, SeriesTable};
//!
//! let mut with = Series::new("With CoreTime");
//! with.push(4096.0, 2400.0);
//! let mut table = SeriesTable::new("Total data size (KB)");
//! table.add(with);
//! assert!(table.render_csv().contains("4096,2400"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod report;
pub mod series;
pub mod sketch;
pub mod stats;

pub use compare::{crossover, mean_speedup_above, speedup_series};
pub use report::Report;
pub use series::{Series, SeriesTable};
pub use sketch::{LatencyRecorder, LatencySummary};
pub use stats::{percentile, percentile_sorted, Summary};
