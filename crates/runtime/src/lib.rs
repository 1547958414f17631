//! # o2-runtime — the cooperative runtime under the O2 scheduler
//!
//! The paper's CoreTime "creates one pthread per core, tied to the core
//! with `sched_setaffinity()` [...] and provides cooperative threading
//! within each core's pthread". This crate reproduces that runtime on top
//! of the [`o2_sim`] machine model, in virtual time:
//!
//! * one virtual core per simulated core, each with its own run queue and
//!   local cycle clock, driven by an event-queue scheduler that parks
//!   idle cores ([`engine`]),
//! * cooperative threads written as action state machines
//!   ([`action`], [`behaviour`], [`thread`]),
//! * the paper's migration mechanism — save the context to a shared
//!   buffer, let the destination core poll for it, restore it there —
//!   expressed as explicit costs plus an interconnect transfer,
//! * per-object spin locks that live in simulated memory and therefore
//!   generate real coherence traffic ([`sync`]),
//! * a pluggable [`policy::SchedPolicy`] consulted at `ct_start`,
//!   `ct_end` and every epoch — CoreTime and the baseline schedulers are
//!   just different implementations of this trait.
//!
//! ## Example
//!
//! ```
//! use o2_runtime::{Action, Engine, NullPolicy, OpBuilder, RepeatBehaviour, RuntimeConfig};
//! use o2_sim::{Machine, MachineConfig};
//!
//! let machine = Machine::new(MachineConfig::quad4());
//! let mut engine = Engine::new(machine, Box::new(NullPolicy), RuntimeConfig::default());
//! let op = OpBuilder::annotated(0x1000).compute(500).finish();
//! engine.spawn(0, Box::new(RepeatBehaviour::new(op, Some(10))));
//! engine.run_until_cycles(1_000_000);
//! assert_eq!(engine.total_ops(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod behaviour;
pub mod config;
pub mod engine;
pub mod error;
pub mod object_index;
pub mod policy;
pub mod stats;
pub mod sync;
pub mod thread;
pub mod types;

pub use action::{Action, ObjectDescriptor};
pub use behaviour::{
    BehaviourCtx, FixedBehaviour, OpBehaviour, OpBuilder, OpGenerator, RepeatBehaviour,
    ThreadBehaviour,
};
pub use config::RuntimeConfig;
pub use engine::Engine;
pub use error::EngineError;
pub use object_index::{ObjectIndex, ObjectRegion, RegionError};
// Surfaced by `ObjectIndex::try_intern`, so callers can match it without
// depending on o2-collections directly.
pub use o2_collections::IdSpaceExhausted;
pub use policy::{
    EpochView, NullPolicy, OpContext, Placement, PolicyCommand, PolicyFaultStats,
    PolicyReplicationStats, SchedPolicy, StaticPolicy,
};
pub use stats::{RunWindow, SchedStats};
pub use sync::{LockError, LockInfo, LockRegistry};
pub use thread::{OpRecord, Thread, ThreadState, ThreadStats};
pub use types::{CoreId, Cycles, DenseObjectId, LockId, ObjectId, ThreadId};

// Re-exported for convenience: policies receive these simulator types in
// their callbacks, fault plans are installed through the engine, and
// `ct_start` annotations carry the simulator's access kind.
pub use o2_sim::{
    AccessKind, CounterDelta, FaultEvent, FaultKind, FaultPlan, LinkDegradation, Machine, MemStats,
};
