//! # o2-core — CoreTime, an O2 (objects-and-operations) scheduler
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Reinventing Scheduling for Multicore Systems"* (HotOS 2009): a
//! scheduler that assigns **data objects to on-chip caches** and migrates
//! **operations** (annotated regions of a thread) to the core that caches
//! the object they manipulate, instead of assigning threads to cores and
//! letting the hardware place data implicitly.
//!
//! The pieces map to the paper as follows:
//!
//! | Paper (Section 4)              | Module |
//! |--------------------------------|--------|
//! | `ct_start`/`ct_end` lookup     | [`policy`] (`O2Policy::on_ct_start`) + [`table`] |
//! | greedy first-fit cache packing | [`packing`] |
//! | event-counter monitoring       | [`monitor`] + [`object`] |
//! | §6.2 read-only replication     | [`replication`] (replica serving) |
//! | slow-core detection (fault plane) | [`policy`] (`O2Policy::on_epoch`) |
//!
//! Section 4's two epoch movers — moving objects off cores that are rarely
//! idle or load often from DRAM, and spreading migration hot-spots — are
//! not implemented: both were built, measured on paired seeds, and deleted
//! because neither moved a result (DESIGN.md, "Deleted: the §4 epoch
//! movers").
//!
//! [`CoreTimeConfig`] switches replica serving and sets its heat floor;
//! the Section 4 thresholds and cost estimates are constants in the module
//! that reads each.
//!
//! The scheduler is expressed as an [`o2_runtime::SchedPolicy`], so it can
//! be swapped against the baselines in `o2-baseline` without touching the
//! workload, exactly as the paper's evaluation compares "With CoreTime"
//! and "Without CoreTime".
//!
//! ## Quick start
//!
//! ```
//! use o2_core::CoreTime;
//! use o2_runtime::{Engine, ObjectDescriptor, OpBuilder, RepeatBehaviour, RuntimeConfig};
//! use o2_sim::{Machine, MachineConfig};
//!
//! let machine_cfg = MachineConfig::quad4();
//! let mut machine = Machine::new(machine_cfg.clone());
//! let data = machine.memory_mut().alloc(128 * 1024, 0);
//!
//! let mut engine = Engine::new(machine, CoreTime::policy(&machine_cfg), RuntimeConfig::default());
//! engine.register_object(ObjectDescriptor::new(data.addr, data.addr, data.size));
//!
//! // A thread that repeatedly scans the object inside ct_start/ct_end.
//! let op = OpBuilder::annotated(data.addr).read(data.addr, data.size).finish();
//! engine.spawn(0, Box::new(RepeatBehaviour::new(op, Some(20))));
//! engine.run_until_cycles(50_000_000);
//! assert_eq!(engine.total_ops(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod monitor;
pub mod object;
pub mod packing;
pub mod policy;
pub mod replication;
pub mod table;

pub use builder::CoreTime;
pub use config::CoreTimeConfig;
pub use monitor::MonitorVerdict;
pub use object::{ObjectInfo, ObjectRegistry};
pub use packing::{place_balanced, place_over_budget};
pub use policy::{O2Policy, O2Stats};
pub use table::AssignmentTable;
