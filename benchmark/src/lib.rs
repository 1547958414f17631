//! # o2-benchmark — one benchmark for o2-suite
//!
//! Six named workloads, nine end-to-end metrics (plus the failed/attempted
//! count every result carries) and per-layer numbers timed from outside,
//! through the crates' public surface only. `benchmark/run.sh` is the one
//! command; `README.md` beside it says what each workload and metric is
//! for and which layer should move which number.
//!
//! * [`sizes`] — every rep, size and cycle constant;
//! * [`workloads`] — the six workloads;
//! * [`trace`] — spans, `TimedPolicy`, `TimedGen`;
//! * [`report`] — metric tables, the two kinds of run, output;
//! * [`stats`], [`json`], [`host`] — quartiles, JSON, host fingerprint.

pub mod host;
pub mod json;
pub mod report;
pub mod sizes;
pub mod stats;
pub mod trace;
pub mod workloads;
