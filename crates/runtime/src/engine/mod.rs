//! The cooperative execution engine.
//!
//! The engine mirrors the paper's CoreTime runtime structure: one virtual
//! core per simulated core (the paper pins one pthread per core with
//! `sched_setaffinity`), cooperative threads multiplexed on each core,
//! a shared migration buffer with polling at the destination, and a
//! pluggable [`SchedPolicy`] consulted at every `ct_start`/`ct_end` and at
//! periodic epochs.
//!
//! Execution is a deterministic discrete-event simulation. One min-queue
//! of `(wake_cycle, core)` events drives one run loop: the engine always
//! takes the event with the smallest wake cycle (ties broken by the lower
//! core id, exactly the order the original smallest-clock scan produced),
//! steps that core once, and reschedules it at its returned next wake
//! time. Cores with nothing to run are **parked** — they own no queue
//! entry and consume zero work per step — and are explicitly woken by
//! thread spawns, migration-inbox arrivals, lock releases (when
//! [`RuntimeConfig`]'s `blocking_locks` is enabled) and epoch boundaries.
//! Idle time is credited to parked cores in bulk when they wake, at each
//! epoch boundary, and when a run ends, so counters read exactly as if the
//! core had idled cycle by cycle.
//!
//! The code is cut along scheduler/executor lines. `events` decides *when*
//! a core runs — the queue, stale-entry discard and the run loop live
//! there and nowhere else; `exec` decides *what* a core does when it runs
//! (thread pick, actions, locks, `ct_start`/`ct_end`, migration); `epoch`
//! fires policy epochs, applies their commands and runs background
//! replica fills; `fault` is the fault plane. This file holds the state
//! they share and the public surface.

mod epoch;
mod events;
mod exec;
mod fault;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;

use self::events::EventQueue;
use self::fault::{FaultEdge, NO_FAULT_PENDING};
use crate::action::ObjectDescriptor;
use crate::behaviour::ThreadBehaviour;
use crate::config::RuntimeConfig;
use crate::error::EngineError;
use crate::object_index::{ObjectIndex, ObjectRegion, RegionError};
use crate::policy::SchedPolicy;
use crate::stats::{RunWindow, SchedStats};
use crate::sync::LockRegistry;
use crate::thread::{Thread, ThreadStats};
use crate::types::{CoreId, Cycles, DenseObjectId, LockId, ThreadId};
use o2_metrics::LatencyRecorder;
use o2_sim::{Machine, MachineCounters, MemStats};

/// A thread in transit to a core's migration inbox.
#[derive(Debug, Clone, Copy)]
struct Incoming {
    thread: ThreadId,
    ready_at: Cycles,
}

/// A thread asleep on an [`Action::IdleUntil`](crate::Action), waiting for
/// its owning core's clock to reach `wake_at`.
#[derive(Debug, Clone, Copy)]
struct Sleeper {
    thread: ThreadId,
    wake_at: Cycles,
}

/// Per-core scheduler state.
#[derive(Debug, Default)]
struct CoreState {
    clock: Cycles,
    run_queue: VecDeque<ThreadId>,
    current: Option<ThreadId>,
    inbox: Vec<Incoming>,
    /// Threads sleeping on `IdleUntil` until the clock reaches their wake
    /// cycle; like the inbox, a wake-up source for a parked core.
    sleepers: Vec<Sleeper>,
    /// Background replica fills queued by
    /// [`PolicyCommand::FillReplica`](crate::PolicyCommand::FillReplica),
    /// drained one object per step whenever the core has nothing
    /// runnable. Cleared at every epoch boundary: a fill the core never
    /// found an idle gap for is superseded by the next epoch's plan.
    fill_queue: VecDeque<DenseObjectId>,
    quantum_used: Cycles,
}

/// The cooperative runtime engine.
pub struct Engine {
    machine: Machine,
    cfg: RuntimeConfig,
    cores: Vec<CoreState>,
    threads: Vec<Thread>,
    /// Where each thread currently lives (core whose queue/current/inbox
    /// holds it); `None` once the thread is done.
    locations: Vec<Option<CoreId>>,
    locks: LockRegistry,
    policy: Box<dyn SchedPolicy>,
    /// Interns sparse object keys into dense ids and holds the descriptor
    /// slab; consulted on every `ct_start`.
    objects: ObjectIndex,
    live_threads: usize,
    total_ops: u64,
    next_epoch: Cycles,
    epoch_base: MachineCounters,
    /// The pending `(wake_cycle, core)` events; see [`events`].
    events: EventQueue,
    sched_stats: SchedStats,
    /// The expanded fault schedule, sorted by cycle; `next_fault_idx`
    /// walks it as edges fire.
    fault_edges: Vec<FaultEdge>,
    next_fault_idx: usize,
    /// Cycle of the next pending fault edge — [`NO_FAULT_PENDING`] when
    /// none, which makes every fault gate in the run loop a no-op compare.
    next_fault_at: Cycles,
    /// Seed handed to the interconnect for migration-loss draws.
    fault_seed: u64,
    /// Per-core cost multiplier in percent of nominal (100 = healthy).
    core_slowdown: Vec<u32>,
    /// Cores taken permanently offline by the fault plan.
    core_offline: Vec<bool>,
    /// Service-latency histogram: every `ct_end` records the operation's
    /// `ct_start`→`ct_end` span. Fixed memory regardless of run length;
    /// summarized into [`SchedStats::op_latency`].
    op_latency: LatencyRecorder,
}

impl Engine {
    /// Creates an engine driving `machine` under the given policy.
    pub fn new(machine: Machine, policy: Box<dyn SchedPolicy>, cfg: RuntimeConfig) -> Self {
        cfg.validate().expect("invalid runtime configuration");
        let n = machine.config().total_cores() as usize;
        let epoch_base = machine.snapshot_counters();
        let next_epoch = cfg.epoch_cycles;
        Self {
            machine,
            cfg,
            cores: (0..n).map(|_| CoreState::default()).collect(),
            threads: Vec::new(),
            locations: Vec::new(),
            locks: LockRegistry::new(),
            policy,
            objects: ObjectIndex::default(),
            live_threads: 0,
            total_ops: 0,
            next_epoch,
            epoch_base,
            events: EventQueue::new(n),
            sched_stats: SchedStats::default(),
            fault_edges: Vec::new(),
            next_fault_idx: 0,
            next_fault_at: NO_FAULT_PENDING,
            fault_seed: 0,
            core_slowdown: vec![100; n],
            core_offline: vec![false; n],
            op_latency: LatencyRecorder::default(),
        }
    }

    // ---- construction / registration --------------------------------------

    /// Spawns a thread homed on `home_core` and returns its id. If the
    /// fault plan has already taken that core offline, the thread homes
    /// on the next live core instead.
    pub fn spawn(&mut self, home_core: CoreId, behaviour: Box<dyn ThreadBehaviour>) -> ThreadId {
        assert!(
            (home_core as usize) < self.cores.len(),
            "home core {home_core} out of range"
        );
        let home_core = if self.core_offline[home_core as usize] {
            self.fallback_core(home_core)
        } else {
            home_core
        };
        let id = self.threads.len();
        self.threads.push(Thread::new(id, home_core, behaviour));
        self.locations.push(Some(home_core));
        self.cores[home_core as usize].run_queue.push_back(id);
        self.live_threads += 1;
        // A spawn is a wake-up source: un-park the home core.
        let at = self.cores[home_core as usize].clock;
        self.wake_core(home_core as usize, at);
        id
    }

    /// Registers a schedulable object: interns its key into a dense id,
    /// stores the descriptor, and informs the policy. Returns the dense id
    /// under which the policy will see all operations on the object.
    pub fn register_object(&mut self, desc: ObjectDescriptor) -> DenseObjectId {
        let dense = self.objects.register(desc);
        self.policy.register_object(dense, &desc);
        dense
    }

    /// Declares a uniform range of schedulable objects in O(1), however
    /// many objects it spans. No state is spent on an object of the
    /// region until the first `ct_start` names it; that `ct_start` interns
    /// the key, fills in the descriptor and informs the policy through
    /// [`SchedPolicy::register_object`] before asking it for a placement.
    /// Objects that carry attributes of their own (a lock, the
    /// `read_mostly` hint) still go through [`Engine::register_object`],
    /// which wins over a region holding the same key.
    pub fn register_region(&mut self, region: ObjectRegion) -> Result<(), RegionError> {
        self.objects.register_region(region)
    }

    /// Heap bytes of per-object scheduler state: the object index, the
    /// policy's tables, and the latency histogram. Divide by
    /// `object_index().len()` for the scale tier's audit of bytes per
    /// touched object.
    pub fn footprint_bytes(&self) -> u64 {
        self.objects.footprint_bytes()
            + self.policy.footprint_bytes()
            + self.op_latency.footprint_bytes()
    }

    /// Registers a spin lock whose word lives at `addr`.
    pub fn register_lock(&mut self, addr: u64) -> LockId {
        self.locks.register(addr)
    }

    // ---- accessors ---------------------------------------------------------

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the simulated machine (e.g. to allocate memory
    /// before running, or to flush the caches between phases).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The installed scheduling policy.
    pub fn policy(&self) -> &dyn SchedPolicy {
        self.policy.as_ref()
    }

    /// The object index: dense id assignments and the descriptor slab.
    pub fn object_index(&self) -> &ObjectIndex {
        &self.objects
    }

    /// Total operations completed since the engine was created.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Statistics of one thread.
    pub fn thread_stats(&self, thread: ThreadId) -> ThreadStats {
        self.threads[thread].stats
    }

    /// Number of threads that have not exited yet.
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// The lock registry (contention statistics).
    pub fn locks(&self) -> &LockRegistry {
        &self.locks
    }

    /// Local clock of one core.
    pub fn core_clock(&self, core: CoreId) -> Cycles {
        self.cores[core as usize].clock
    }

    /// Largest core clock (the frontier of virtual time).
    pub fn max_clock(&self) -> Cycles {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Smallest core clock.
    pub fn min_clock(&self) -> Cycles {
        self.cores.iter().map(|c| c.clock).min().unwrap_or(0)
    }

    /// Scheduler statistics: events processed, stale entries discarded,
    /// parked-core wake-ups, fault and fill counters, and the
    /// service-latency summary.
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats {
            op_latency: self.op_latency.summary(),
            ..self.sched_stats
        }
    }

    /// The engine's service-latency recorder (`ct_start` →
    /// `ct_end` spans, in cycles).
    pub fn op_latency(&self) -> &LatencyRecorder {
        &self.op_latency
    }

    /// Memory-system totals of the underlying machine: coherence-directory
    /// pressure, L1 short-circuits and cache evictions. The memory-side
    /// counterpart of [`Engine::sched_stats`].
    pub fn mem_stats(&self) -> MemStats {
        self.machine.mem_stats()
    }

    // ---- running -----------------------------------------------------------

    /// Runs until every core's clock reaches `limit` (or all threads exit).
    /// Panics on a behaviour error; see [`Engine::try_run_until_cycles`].
    pub fn run_until_cycles(&mut self, limit: Cycles) {
        self.try_run_until_cycles(limit)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Runs until `n` additional operations have completed (or all threads
    /// exit). Panics on a behaviour error; see
    /// [`Engine::try_run_until_ops`].
    pub fn run_until_ops(&mut self, n: u64) {
        self.try_run_until_ops(n).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`Engine::run_until_cycles`]: behaviour misuse
    /// (unbalanced annotations, unknown locks) surfaces as
    /// [`EngineError`] instead of a panic.
    pub fn try_run_until_cycles(&mut self, limit: Cycles) -> Result<(), EngineError> {
        let result = self.run_loop(limit, u64::MAX);
        // Cores that are still parked were idle for the rest of the run.
        let settle_to = if self.live_threads == 0 {
            self.max_clock().min(limit)
        } else {
            limit
        };
        self.settle_idle_cores(settle_to);
        result
    }

    /// Fallible form of [`Engine::run_until_ops`].
    pub fn try_run_until_ops(&mut self, n: u64) -> Result<(), EngineError> {
        let target = self.total_ops.saturating_add(n);
        let result = self.run_loop(Cycles::MAX, target);
        let settle_to = self.max_clock();
        self.settle_idle_cores(settle_to);
        result
    }

    /// Runs a measurement window of `cycles` cycles starting at the current
    /// virtual-time frontier and returns the observed throughput.
    pub fn run_window(&mut self, cycles: Cycles) -> RunWindow {
        let start = self.max_clock();
        let ops_before = self.total_ops;
        let per_core_before: Vec<u64> = (0..self.cores.len())
            .map(|c| self.machine.counters(c as u32).operations_completed)
            .collect();
        self.run_until_cycles(start + cycles);
        let end = self.max_clock().max(start + cycles).min(
            // If all threads exited early the frontier may be short of the
            // limit; use the actual frontier in that case.
            if self.live_threads == 0 {
                self.max_clock().max(start)
            } else {
                start + cycles
            },
        );
        let per_core_ops: Vec<u64> = (0..self.cores.len())
            .map(|c| {
                self.machine
                    .counters(c as u32)
                    .operations_completed
                    .saturating_sub(per_core_before[c])
            })
            .collect();
        RunWindow {
            start,
            end: end.max(start),
            ops: self.total_ops - ops_before,
            per_core_ops,
            clock_ghz: self.machine.config().clock_ghz,
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.policy.name())
            .field("threads", &self.threads.len())
            .field("live_threads", &self.live_threads)
            .field("total_ops", &self.total_ops)
            .field("max_clock", &self.max_clock())
            .finish()
    }
}
