//! # o2-baseline — comparator scheduling policies
//!
//! The paper evaluates CoreTime against the traditional thread scheduler
//! ("Without CoreTime") and argues in Sections 2 and 7 that thread
//! clustering cannot help the directory-lookup workload. This crate
//! provides those comparators, plus a static-partitioning oracle, all as
//! [`o2_runtime::SchedPolicy`] implementations so experiments can swap
//! them freely:
//!
//! * [`ThreadScheduler`] — never migrates; data placement is left to the
//!   hardware. This is the paper's baseline.
//! * [`ThreadClustering`] — sharing-aware thread placement (Tam et al.),
//!   used to substantiate the claim that clustering does not help when all
//!   threads share one working set.
//! * [`StaticPartition`] — objects assigned round-robin at registration and
//!   never moved; isolates the value of CoreTime's dynamic monitoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod static_partition;
pub mod thread_sched;

pub use clustering::ThreadClustering;
pub use static_partition::StaticPartition;
pub use thread_sched::ThreadScheduler;
