//! # o2-native — the O2 scheduler on real cores
//!
//! Everything else in this workspace *predicts*: the simulator executes
//! the paper's workloads in deterministic virtual time. This crate
//! *executes*: `std::thread` workers pinned to host cores (via a raw
//! `sched_setaffinity` syscall on Linux, with a graceful no-pin fallback
//! elsewhere), each owning a shard of application state, exchanging
//! operation-migration messages over bounded SPSC rings — the
//! message-passing-server idiom, driven by the **same**
//! [`o2_runtime::SchedPolicy`] implementations the simulator uses.
//! CoreTime, the thread scheduler, static partitioning and clustering
//! place operations on real threads unchanged; "migrate" now means
//! enqueueing an op descriptor onto another core's ring instead of
//! simulating cache traffic.
//!
//! The crate carries one workload, [`NativeLookup`]: the paper's
//! directory lookup over real in-memory FAT entries. It is measured end
//! to end by the benchmark's `native_lookup` workload
//! (`benchmark/run.sh --workload native_lookup`), which runs CoreTime
//! and the thread scheduler on pinned workers beside a simulator twin of
//! the same spec. The experiment matrix does not depend on this crate,
//! so its output stays a pure function of its seeds.
//!
//! ## Determinism contract
//!
//! Real time is not virtual time: wall-clock durations, per-worker
//! occupancy, ring depths and migration counts all vary run to run and
//! with the worker count, and are **reported, never asserted**. What *is*
//! deterministic — asserted by tests and CI — is the work itself: the op
//! stream is a pure function of `(seed, op index)`, and every state
//! update an op performs is commutative (XOR accumulators, counter
//! increments under the object's spin lock), so op counts and the final
//! shard state are identical across reruns, worker counts and policies
//! no matter how the policy scatters the ops.
//!
//! ```
//! use o2_native::{run_native, NativeConfig, NativeLookup, NativeLookupSpec};
//! use o2_runtime::NullPolicy;
//!
//! let wl = NativeLookup::build(&NativeLookupSpec::small(7));
//! let mut cfg = NativeConfig::new(2);
//! cfg.warmup_ops = 200;
//! cfg.measure_ops = 1_000;
//! let m = run_native(&wl, Box::new(NullPolicy), &cfg);
//! assert_eq!(m.ops, 1_000);
//! ```

// The ring buffer and the raw affinity syscall need `unsafe`; everything
// else in the crate is safe code. Each unsafe block documents its
// invariant.
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod host;
pub mod ring;
pub mod runtime;
pub mod workload;

pub use affinity::{available_cpus, pin_to_cpu};
pub use host::{synthetic_delta, PolicyHost};
pub use ring::SpscRing;
pub use runtime::{native_machine_config, run_native, NativeConfig, NativeMeasurement};
pub use workload::{ExecutedOp, NativeLookup, NativeLookupSpec, NativeOp, NativeWorkload};
