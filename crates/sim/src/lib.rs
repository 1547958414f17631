//! # o2-sim — a deterministic multicore memory-system simulator
//!
//! This crate is the hardware substrate for the CoreTime / O2-scheduling
//! reproduction of *"Reinventing Scheduling for Multicore Systems"*
//! (Boyd-Wickizer, Morris, Kaashoek — HotOS 2009).
//!
//! The paper's evaluation runs on a 16-core AMD machine (four quad-core
//! 2 GHz Opteron chips on a square interconnect) and relies on hardware
//! event counters for runtime monitoring. This crate models exactly that
//! machine in software:
//!
//! * per-core set-associative L1 and L2 caches and a per-chip victim L3
//!   ([`cache`], [`machine`]),
//! * a flat open-addressed coherence directory ([`directory`]) and a
//!   hop-based interconnect with optional contention modelling
//!   ([`interconnect`]),
//! * the measured latencies from Section 5 of the paper as the default
//!   cost model ([`config`], [`latency`]),
//! * per-core event counters equivalent to the AMD performance counters
//!   CoreTime reads ([`counters`]),
//! * a simulated physical address space with NUMA home nodes ([`memory`]),
//! * helpers to map cache contents back to application objects for
//!   Figure-2 style reports ([`occupancy`]).
//!
//! Everything is deterministic: the simulator has no dependence on wall
//! clock time, threads or host hardware.
//!
//! ## Example
//!
//! ```
//! use o2_sim::{Machine, MachineConfig, AccessKind};
//!
//! let mut machine = Machine::new(MachineConfig::amd16());
//! let region = machine.memory_mut().alloc(4096, 0);
//! // First touch goes to DRAM...
//! let cold = machine.access(0, region.addr, 4096, AccessKind::Read);
//! // ...the second touch hits in the L1/L2.
//! let warm = machine.access(0, region.addr, 4096, AccessKind::Read);
//! assert!(warm < cold);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod counters;
pub mod directory;
pub mod fault;
pub mod interconnect;
pub mod latency;
pub mod machine;
pub mod memory;
pub mod occupancy;

pub use cache::{Cache, Evicted, LineAddr, Probe};
pub use config::{CacheGeometry, ContentionModel, LatencyConfig, MachineConfig};
pub use counters::{CoreCounters, CounterDelta, MachineCounters, MemStats};
pub use directory::{FlatDirectory, LineHolders};
pub use fault::{FaultEvent, FaultKind, FaultPlan, LinkDegradation};
pub use interconnect::{Interconnect, InterconnectStats, MessageKind};
pub use latency::{AccessOutcome, LatencyModel};
pub use machine::{AccessKind, Machine};
pub use memory::{Addr, HomePolicy, Region, SimMemory};
pub use occupancy::{snapshot, snapshot_with_threshold, OccupancySnapshot, Residency};
