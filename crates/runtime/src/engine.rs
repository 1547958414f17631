//! The cooperative execution engine.
//!
//! The engine mirrors the paper's CoreTime runtime structure: one virtual
//! core per simulated core (the paper pins one pthread per core with
//! `sched_setaffinity`), cooperative threads multiplexed on each core,
//! a shared migration buffer with polling at the destination, and a
//! pluggable [`SchedPolicy`] consulted at every `ct_start`/`ct_end` and at
//! periodic epochs.
//!
//! Execution is a deterministic discrete-event simulation. A min-queue of
//! `(wake_cycle, core)` events drives the run loop: the engine always pops
//! the event with the smallest wake cycle (ties broken by the lower core
//! id, exactly the order the original smallest-clock scan produced), steps
//! that core once, and reschedules it at its returned next wake time. The
//! queue itself is selectable through [`RuntimeConfig`]'s `event_core`: a
//! hierarchical [`TimingWheel`](crate::wheel::TimingWheel) (the default —
//! O(1) bucket inserts, batched same-cycle dispatch), the previous
//! `BinaryHeap` (kept as the recorded-baseline comparator), or a
//! queue-less *cycle box* that re-scans every core's pending wake each
//! step — O(cores) per event, but trivially correct, so it doubles as a
//! lockstep debugging reference. All three produce bit-identical runs.
//! Cores with nothing to run are **parked** — they own no heap entry and
//! consume zero work per step — and are explicitly woken by thread spawns,
//! migration-inbox arrivals, lock releases (when [`RuntimeConfig`]'s
//! `blocking_locks` is enabled) and epoch boundaries. Idle time is
//! credited to parked cores in bulk when they wake, at each epoch
//! boundary, and when a run ends, so counters read exactly as if the core
//! had idled cycle by cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::action::{Action, ObjectDescriptor};
use crate::behaviour::{BehaviourCtx, ThreadBehaviour};
use crate::config::{EventCoreKind, RuntimeConfig};
use crate::error::EngineError;
use crate::object_index::{ObjectIndex, ObjectRegion, RegionError};
use crate::policy::{EpochView, OpContext, Placement, PolicyCommand, SchedPolicy};
use crate::stats::{RunWindow, SchedStats};
use crate::sync::LockRegistry;
use crate::thread::{OpRecord, Thread, ThreadState, ThreadStats};
use crate::types::{CoreId, Cycles, DenseObjectId, LockId, ObjectId, ThreadId};
use crate::wheel::TimingWheel;
use o2_metrics::LatencyRecorder;
use o2_sim::{
    AccessKind, FaultKind, FaultPlan, LinkDegradation, Machine, MachineCounters, MemStats,
};

/// Sentinel in `sched_wake` marking a parked core (no pending wake).
/// `Cycles::MAX` is unreachable as a real wake cycle.
const PARKED: Cycles = Cycles::MAX;

/// The engine's event queue, in one of the three selectable forms.
///
/// `Scan` (the cycle box) holds no state of its own: `sched_wake` *is*
/// the queue, and the engine finds the minimum by scanning it — the
/// smallest-clock lockstep idiom the event queue originally replaced.
enum EventQueue {
    Wheel(TimingWheel),
    Heap(BinaryHeap<Reverse<(Cycles, usize)>>),
    Scan,
}

impl EventQueue {
    fn push(&mut self, at: Cycles, core: usize) {
        match self {
            EventQueue::Wheel(w) => w.push(at, core),
            EventQueue::Heap(h) => h.push(Reverse((at, core))),
            EventQueue::Scan => {}
        }
    }

    /// The raw minimum entry — possibly stale. `None` in scan mode.
    fn peek(&mut self) -> Option<(Cycles, usize)> {
        match self {
            EventQueue::Wheel(w) => w.peek(),
            EventQueue::Heap(h) => h.peek().map(|&Reverse(e)| e),
            EventQueue::Scan => None,
        }
    }

    fn pop(&mut self) -> Option<(Cycles, usize)> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Scan => None,
        }
    }
}

/// A thread in transit to a core's migration inbox.
#[derive(Debug, Clone, Copy)]
struct Incoming {
    thread: ThreadId,
    ready_at: Cycles,
}

/// A thread asleep on an [`Action::IdleUntil`], waiting for its owning
/// core's clock to reach `wake_at`.
#[derive(Debug, Clone, Copy)]
struct Sleeper {
    thread: ThreadId,
    wake_at: Cycles,
}

/// Seed of the engine's service-latency sketch. Fixed (not configurable):
/// determinism requires the same compaction schedule in every run.
const OP_LATENCY_SEED: u64 = 0x6f32_5f6c_6174_656e;

/// One expanded edge of the fault plan: a window start, a window end, or
/// a permanent offlining, applied when the virtual-time frontier reaches
/// `at`. [`FaultKind`] windows with a duration expand to a start and an
/// end edge.
#[derive(Debug, Clone, Copy)]
struct FaultEdge {
    at: Cycles,
    action: FaultAction,
}

#[derive(Debug, Clone, Copy)]
enum FaultAction {
    SlowStart { core: usize, percent: u32 },
    SlowEnd { core: usize },
    Offline { core: usize },
    DegradeStart { deg: LinkDegradation },
    DegradeEnd,
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
    /// Background replica fills queued by [`PolicyCommand::FillReplica`],
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
    /// The event queue: `(wake_cycle, core)` entries, popped smallest
    /// first. Stale entries (superseded by an earlier wake-up) are
    /// discarded lazily when they surface.
    events: EventQueue,
    /// The wake cycle each core is currently scheduled at ([`PARKED`]
    /// while parked). Used to recognise stale queue entries.
    sched_wake: Vec<Cycles>,
    sched_stats: SchedStats,
    /// The expanded fault schedule, sorted by cycle; `next_fault_idx`
    /// walks it as edges fire.
    fault_edges: Vec<FaultEdge>,
    next_fault_idx: usize,
    /// Cycle of the next pending fault edge — `Cycles::MAX` when none,
    /// which makes every fault gate in the run loops a no-op compare.
    next_fault_at: Cycles,
    /// Seed handed to the interconnect for migration-loss draws.
    fault_seed: u64,
    /// Per-core cost multiplier in percent of nominal (100 = healthy).
    core_slowdown: Vec<u32>,
    /// Cores taken permanently offline by the fault plan.
    core_offline: Vec<bool>,
    /// Streaming service-latency sketch: every `ct_end` records the
    /// operation's `ct_start`→`ct_end` span. Constant memory regardless
    /// of run length; summarized into [`SchedStats::op_latency`].
    op_latency: LatencyRecorder,
}

impl Engine {
    /// Creates an engine driving `machine` under the given policy.
    pub fn new(machine: Machine, policy: Box<dyn SchedPolicy>, cfg: RuntimeConfig) -> Self {
        cfg.validate().expect("invalid runtime configuration");
        let n = machine.config().total_cores() as usize;
        let epoch_base = machine.snapshot_counters();
        let next_epoch = cfg.epoch_cycles;
        let events = match cfg.event_core {
            EventCoreKind::Wheel => EventQueue::Wheel(TimingWheel::new()),
            EventCoreKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            EventCoreKind::CycleBox => EventQueue::Scan,
        };
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
            events,
            sched_wake: vec![PARKED; n],
            sched_stats: SchedStats::default(),
            fault_edges: Vec::new(),
            next_fault_idx: 0,
            next_fault_at: PARKED,
            fault_seed: 0,
            core_slowdown: vec![100; n],
            core_offline: vec![false; n],
            op_latency: LatencyRecorder::new(OP_LATENCY_SEED),
        }
    }

    /// Installs a fault plan: expands it into a sorted edge schedule the
    /// run loops consume. Events targeting out-of-range cores are
    /// dropped (validate plans against the machine beforehand to catch
    /// them). An empty plan leaves the engine bit-identical to one that
    /// never had a fault plane at all.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let n = self.cores.len();
        let mut edges: Vec<FaultEdge> = Vec::new();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::SlowCore {
                    core,
                    percent,
                    duration,
                } => {
                    if (core as usize) < n {
                        edges.push(FaultEdge {
                            at: ev.at,
                            action: FaultAction::SlowStart {
                                core: core as usize,
                                percent: percent.max(1),
                            },
                        });
                        if duration > 0 {
                            edges.push(FaultEdge {
                                at: ev.at.saturating_add(duration),
                                action: FaultAction::SlowEnd {
                                    core: core as usize,
                                },
                            });
                        }
                    }
                }
                FaultKind::OfflineCore { core } => {
                    if (core as usize) < n {
                        edges.push(FaultEdge {
                            at: ev.at,
                            action: FaultAction::Offline {
                                core: core as usize,
                            },
                        });
                    }
                }
                FaultKind::DegradeInterconnect {
                    loss_per_mille,
                    extra_cycles_per_hop,
                    duration,
                } => {
                    edges.push(FaultEdge {
                        at: ev.at,
                        action: FaultAction::DegradeStart {
                            deg: LinkDegradation {
                                loss_per_mille,
                                extra_cycles_per_hop,
                            },
                        },
                    });
                    if duration > 0 {
                        edges.push(FaultEdge {
                            at: ev.at.saturating_add(duration),
                            action: FaultAction::DegradeEnd,
                        });
                    }
                }
            }
        }
        // Stable sort: edges at the same cycle apply in plan order.
        edges.sort_by_key(|e| e.at);
        self.fault_seed = plan.seed;
        self.next_fault_idx = 0;
        self.next_fault_at = edges.first().map_or(PARKED, |e| e.at);
        self.fault_edges = edges;
    }

    /// Whether the fault plan has taken `core` offline.
    pub fn core_offline(&self, core: CoreId) -> bool {
        self.core_offline[core as usize]
    }

    /// The core's current cost multiplier in percent (100 = healthy).
    pub fn core_slowdown(&self, core: CoreId) -> u32 {
        self.core_slowdown[core as usize]
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
    /// policy's tables, and the latency sketch. Divide by
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

    /// Scheduler statistics: events processed, parked-core wake-ups, and —
    /// when the timing-wheel event core is active — wheel telemetry.
    pub fn sched_stats(&self) -> SchedStats {
        let mut s = self.sched_stats;
        if let EventQueue::Wheel(w) = &self.events {
            let ws = w.stats();
            s.wheel_occupancy_hwm = ws.occupancy_hwm;
            s.wheel_cascades = ws.cascades;
            s.wheel_overflows = ws.overflow_inserts;
            s.wheel_max_batch = ws.max_batch;
        }
        s.op_latency = self.op_latency.summary();
        s
    }

    /// The engine's streaming service-latency recorder (`ct_start` →
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

    /// The main loop: dispatches events strictly before `limit` until
    /// `ops_target` operations have completed or every thread exits.
    fn run_loop(&mut self, limit: Cycles, ops_target: u64) -> Result<(), EngineError> {
        match self.cfg.event_core {
            EventCoreKind::Wheel => self.run_loop_wheel(limit, ops_target),
            EventCoreKind::Heap | EventCoreKind::CycleBox => {
                self.run_loop_classic(limit, ops_target)
            }
        }
    }

    /// The pre-wheel loop shape, kept verbatim for the heap baseline and
    /// the cycle box: pop → dispatch → epoch check, one queue round-trip
    /// per event.
    fn run_loop_classic(&mut self, limit: Cycles, ops_target: u64) -> Result<(), EngineError> {
        self.prime_event_queue();
        while self.live_threads > 0 && self.total_ops < ops_target {
            let Some((wake, core)) = self.pop_event(limit) else {
                break;
            };
            match self.dispatch(core, wake)? {
                Some(next) => self.wake_core(core, next),
                None => self.sched_stats.parks += 1,
            }
            self.maybe_faults();
            self.maybe_epoch(limit);
        }
        Ok(())
    }

    /// The wheel loop: identical dispatch order to the classic loop with
    /// two structural savings, both order-preserving.
    ///
    /// 1. The per-event epoch check costs one integer compare against the
    ///    already-peeked frontier instead of a second queue peek: the old
    ///    `maybe_epoch` after dispatch N and this loop's check before pop
    ///    N+1 see the same frontier and the same engine state.
    /// 2. *Run-ahead*: when a dispatched core's next wake is provably the
    ///    global minimum — it precedes the raw queue head (a lower bound
    ///    on every valid entry), the next epoch boundary, and the run
    ///    limit — the engine dispatches it directly, skipping the
    ///    push/pop round-trip whose outcome is already known.
    fn run_loop_wheel(&mut self, limit: Cycles, ops_target: u64) -> Result<(), EngineError> {
        self.prime_event_queue();
        if self.live_threads == 0 || self.total_ops >= ops_target {
            return Ok(());
        }
        let mut first = true;
        loop {
            let mut head = self.next_valid_event();
            // The post-dispatch fault/epoch checks of the classic loop,
            // moved to just before the next pop (no engine state changes
            // between those two points). Never fire before the first
            // dispatch.
            if !first {
                if let Some((frontier, _)) = head {
                    if frontier >= self.next_fault_at {
                        // Fault edges may park the head's core (an
                        // offlining) or wake another one (the drain), so
                        // the head must be re-peeked — unlike epochs.
                        self.apply_faults_up_to(frontier);
                        head = self.next_valid_event();
                    }
                }
                if let Some((frontier, _)) = head {
                    if frontier >= self.next_epoch {
                        // Epoch commands can wake a parked core *at* the
                        // boundary (a background replica fill), which may
                        // precede the pre-epoch head — re-peek so the
                        // classic loop's pop-the-minimum order is kept.
                        self.catch_up_epochs(frontier, limit);
                        head = self.next_valid_event();
                    }
                }
            }
            first = false;
            if self.live_threads == 0 || self.total_ops >= ops_target {
                return Ok(());
            }
            let Some((wake, core)) = head else {
                return Ok(());
            };
            if wake >= limit {
                return Ok(());
            }
            self.take_event(wake, core);
            let mut wake = wake;
            loop {
                let Some(next) = self.dispatch(core, wake)? else {
                    self.sched_stats.parks += 1;
                    break;
                };
                // A self-wake during dispatch (a same-core lock hand-off)
                // re-armed the core already; merge via the normal path.
                if self.sched_wake[core] != PARKED {
                    self.wake_core(core, next);
                    break;
                }
                if next < self.next_epoch
                    && next < self.next_fault_at
                    && next < limit
                    && self.total_ops < ops_target
                    && self.live_threads > 0
                {
                    let is_min = match self.events.peek() {
                        None => true,
                        Some(raw_head) => (next, core) < raw_head,
                    };
                    if is_min {
                        // The fault gate (frontier < next_fault_at), the
                        // epoch check (frontier < next_epoch) and the pop
                        // (this entry is the minimum) are all decided;
                        // dispatch again without touching the queue.
                        self.sched_stats.events_processed += 1;
                        wake = next;
                        continue;
                    }
                }
                self.wake_core(core, next);
                break;
            }
        }
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

    // ---- the event queue ---------------------------------------------------

    /// Schedules (or re-schedules, if `at` is earlier than the pending
    /// entry) a wake-up for `core`. Never moves a wake-up later: a core
    /// already scheduled to act at or before `at` is left alone.
    fn wake_core(&mut self, core: usize, at: Cycles) {
        let at = at.max(self.cores[core].clock);
        // A parked core's sentinel compares above every real cycle, so one
        // compare covers both "parked" and "pending but later".
        if at < self.sched_wake[core] {
            self.sched_wake[core] = at;
            self.events.push(at, core);
        }
    }

    /// Schedules every core that has something to do. Called at the start
    /// of each run so that spawns and registrations performed between runs
    /// take effect; cores with nothing to do stay parked.
    fn prime_event_queue(&mut self) {
        for i in 0..self.cores.len() {
            if let Some(at) = self.core_next_wake(i) {
                self.wake_core(i, at);
            }
        }
    }

    /// The next cycle at which `core` has something to do: immediately if
    /// it has runnable threads (or a background fill that fits the gap
    /// before its next arrival), at the earliest inbox arrival or sleeper
    /// wake if it is only waiting, `None` (park) otherwise.
    fn core_next_wake(&self, core: usize) -> Option<Cycles> {
        let c = &self.cores[core];
        if c.current.is_some() || !c.run_queue.is_empty() || self.fill_ready(core) {
            Some(c.clock)
        } else {
            c.inbox
                .iter()
                .map(|inc| inc.ready_at)
                .chain(c.sleepers.iter().map(|s| s.wake_at))
                .min()
                .map(|ready| ready.max(c.clock))
        }
    }

    /// Whether `core` should start its next queued background fill now:
    /// only when the gap until the earliest pending arrival (inbox or
    /// sleeper) covers a conservative estimate of the fill's streaming
    /// cost, so a fill never sits in front of work that is about to
    /// land. With no pending arrival the core is fully idle and any fill
    /// may run.
    fn fill_ready(&self, core: usize) -> bool {
        let c = &self.cores[core];
        let Some(&object) = c.fill_queue.front() else {
            return false;
        };
        let pending = c
            .inbox
            .iter()
            .map(|inc| inc.ready_at)
            .chain(c.sleepers.iter().map(|s| s.wake_at))
            .min();
        match pending {
            None => true,
            Some(at) => {
                // ~2 cycles/byte comfortably bounds a cold streamed fetch
                // (a cold 4 KB stream measures ~1.6 cycles/byte); warm
                // re-streams cost far less, so this only defers fills,
                // never starves them.
                let estimate = self.objects.descriptor(object).size.saturating_mul(2);
                at.max(c.clock) - c.clock >= estimate
            }
        }
    }

    /// The next valid pending event — the single validity path shared by
    /// `pop_event`, `peek_valid_wake` and the wheel loop. In the queued
    /// modes this peeks the queue and lazily discards stale entries
    /// (superseded by an earlier re-wake); in cycle-box mode it scans
    /// `sched_wake` directly, so nothing is ever stale. The entry is not
    /// consumed: pair with [`Engine::take_event`] to dispatch it.
    fn next_valid_event(&mut self) -> Option<(Cycles, usize)> {
        if matches!(self.events, EventQueue::Scan) {
            return self
                .sched_wake
                .iter()
                .enumerate()
                .filter(|&(_, &wake)| wake != PARKED)
                .map(|(core, &wake)| (wake, core))
                .min();
        }
        loop {
            let (wake, core) = self.events.peek()?;
            if self.sched_wake[core] == wake {
                return Some((wake, core));
            }
            self.events.pop();
            self.sched_stats.stale_events += 1;
        }
    }

    /// Consumes the event returned by [`Engine::next_valid_event`].
    fn take_event(&mut self, wake: Cycles, core: usize) {
        if !matches!(self.events, EventQueue::Scan) {
            let popped = self.events.pop();
            debug_assert_eq!(popped, Some((wake, core)));
        }
        self.sched_wake[core] = PARKED;
        self.sched_stats.events_processed += 1;
    }

    /// Pops the next valid event strictly before `limit`. Events at or
    /// past `limit` are left pending for a later run.
    fn pop_event(&mut self, limit: Cycles) -> Option<(Cycles, usize)> {
        let (wake, core) = self.next_valid_event()?;
        if wake >= limit {
            return None;
        }
        self.take_event(wake, core);
        Some((wake, core))
    }

    /// The wake cycle of the next valid pending event. This is the
    /// frontier the epoch gate compares against: parked cores are
    /// conceptually *at* the frontier, so they never hold an epoch back.
    fn peek_valid_wake(&mut self) -> Option<Cycles> {
        self.next_valid_event().map(|(wake, _)| wake)
    }

    /// Processes one event: advances a woken parked core's clock (crediting
    /// the gap as idle time), steps the core once, and returns the cycle at
    /// which it next needs to run (`None` parks it). The caller re-queues.
    fn dispatch(&mut self, core_idx: usize, wake: Cycles) -> Result<Option<Cycles>, EngineError> {
        if wake > self.cores[core_idx].clock {
            // A wake cycle ahead of the core's clock means the core had
            // nothing runnable and was woken by an arrival (migration,
            // lock hand-off, rehome): the skipped span is idle time. Note
            // the work that woke it may already be queued — a busy core is
            // always scheduled at exactly its own clock, so it can never
            // reach this branch.
            let idle = wake - self.cores[core_idx].clock;
            self.cores[core_idx].clock = wake;
            self.machine.counters_mut(core_idx as CoreId).idle_cycles += idle;
            self.sched_stats.park_wakeups += 1;
        } else if self.cores[core_idx].current.is_none()
            && self.cores[core_idx].run_queue.is_empty()
        {
            // Woken at its own clock with nothing queued yet (an inbox
            // arrival that is ready now).
            self.sched_stats.park_wakeups += 1;
        }
        self.step_core(core_idx)
    }

    /// Fast-forwards every core that has nothing runnable to `up_to`,
    /// crediting the skipped span as idle cycles — the bulk equivalent of
    /// the cycle-by-cycle idling the pre-event-queue engine performed. A
    /// core with a pending wake-up (an in-flight migration arrival) is
    /// never advanced past that wake, exactly as the old engine capped an
    /// idle core's clock at its earliest inbox `ready_at`.
    fn settle_idle_cores(&mut self, up_to: Cycles) {
        for i in 0..self.cores.len() {
            let c = &self.cores[i];
            if c.current.is_none() && c.run_queue.is_empty() && c.clock < up_to {
                let target = up_to.min(self.sched_wake[i]);
                if target > c.clock {
                    let idle = target - c.clock;
                    self.cores[i].clock = target;
                    self.machine.counters_mut(i as CoreId).idle_cycles += idle;
                }
            }
        }
    }

    // ---- internals ---------------------------------------------------------

    /// Advances one core by one scheduling decision or action and returns
    /// the cycle at which it next needs to run (`None` parks the core).
    fn step_core(&mut self, core_idx: usize) -> Result<Option<Cycles>, EngineError> {
        let core_id = core_idx as CoreId;
        self.machine.set_time_hint(self.cores[core_idx].clock);
        if !self.cores[core_idx].inbox.is_empty() {
            self.accept_inbox(core_idx);
        }
        if !self.cores[core_idx].sleepers.is_empty() {
            self.wake_sleepers(core_idx);
        }

        // One borrow of the core state covers thread pick and quantum
        // rotation (this is the hottest scaffolding in the run loop).
        let (tid, before) = {
            let core = &mut self.cores[core_idx];
            // Pick a thread to run if the core has none.
            match core.current {
                Some(_) => {}
                None => {
                    if let Some(next) = core.run_queue.pop_front() {
                        core.current = Some(next);
                        core.quantum_used = 0;
                    } else if self.fill_ready(core_idx) {
                        // Nothing runnable and a background fill fits in
                        // the gap before the next arrival: stream one
                        // replica into this core's caches and look again —
                        // runnable work that lands meanwhile takes
                        // priority over the remaining fills.
                        let at = self.run_one_fill(core_idx);
                        return Ok(Some(at));
                    } else {
                        // Nothing runnable: wait for the inbox or park.
                        return Ok(self.core_next_wake(core_idx));
                    }
                }
            }

            // Round-robin rotation when the quantum is exhausted.
            // Invariant: `current` is `Some` here — the match above either
            // found it populated or populated it from a non-empty queue.
            if core.quantum_used >= self.cfg.quantum_cycles && !core.run_queue.is_empty() {
                let cur = core.current.take().expect("current thread");
                core.run_queue.push_back(cur);
                let next = core.run_queue.pop_front().expect("non-empty queue");
                core.current = Some(next);
                core.quantum_used = 0;
            }

            (core.current.expect("current thread"), core.clock)
        };

        // Fetch the next action: deferred (lock retries, resumptions) first.
        let action = {
            let thread = &mut self.threads[tid];
            let action = if let Some(a) = thread.deferred.pop_front() {
                a
            } else {
                let ctx = BehaviourCtx {
                    thread: tid,
                    core: core_id,
                    home_core: thread.home_core,
                    now: before,
                    ops_completed: thread.stats.ops_completed,
                };
                thread.behaviour.next_action(&ctx)
            };
            thread.stats.actions_executed += 1;
            action
        };
        self.execute(core_idx, tid, action)?;

        let core = &mut self.cores[core_idx];
        core.quantum_used += core.clock - before;
        Ok(self.core_next_wake(core_idx))
    }

    /// Scales a cycle cost by the core's fault-injected slowdown. The
    /// healthy path (multiplier 100) is a single compare and returns `n`
    /// unchanged, so zero-fault runs are arithmetically untouched.
    #[inline]
    fn scaled_cycles(&self, core_idx: usize, n: Cycles) -> Cycles {
        let pct = self.core_slowdown[core_idx];
        if pct == 100 {
            n
        } else {
            n.saturating_mul(u64::from(pct)) / 100
        }
    }

    /// Wakes sleepers whose target cycle has been reached, in the order
    /// they went to sleep (a deterministic queue order).
    fn wake_sleepers(&mut self, core_idx: usize) {
        let clock = self.cores[core_idx].clock;
        let mut due: Vec<ThreadId> = Vec::new();
        self.cores[core_idx].sleepers.retain(|s| {
            if s.wake_at <= clock {
                due.push(s.thread);
                false
            } else {
                true
            }
        });
        for tid in due {
            self.threads[tid].state = ThreadState::Runnable;
            self.cores[core_idx].run_queue.push_back(tid);
        }
    }

    /// Accepts migrated-in threads whose context transfer has completed.
    fn accept_inbox(&mut self, core_idx: usize) {
        if self.cores[core_idx].inbox.is_empty() {
            return;
        }
        let core_id = core_idx as CoreId;
        let clock = self.cores[core_idx].clock;
        let mut arrived: Vec<ThreadId> = Vec::new();
        self.cores[core_idx].inbox.retain(|inc| {
            if inc.ready_at <= clock {
                arrived.push(inc.thread);
                false
            } else {
                true
            }
        });
        for tid in arrived {
            // Restoring the context costs the destination core cycles
            // (scaled if the destination itself is running slow).
            let restore = self.scaled_cycles(core_idx, self.cfg.restore_context_cycles);
            self.cores[core_idx].clock += restore;
            self.machine.counters_mut(core_id).busy_cycles += restore;
            self.machine.counters_mut(core_id).migrations_in += 1;
            let thread = &mut self.threads[tid];
            thread.state = ThreadState::Runnable;
            thread.stats.migration_cycles += restore;
            // Re-capture the counter base on the executing core so misses
            // during transit are not attributed to the object.
            if let Some(op) = thread.current_op.as_mut() {
                if op.counter_base_pending && op.exec_core == core_id {
                    op.counter_base = *self.machine.counters(core_id);
                    op.counter_base_pending = false;
                }
            }
            self.locations[tid] = Some(core_id);
            self.cores[core_idx].run_queue.push_back(tid);
        }
    }

    /// Executes one action of thread `tid` on core `core_idx`.
    fn execute(
        &mut self,
        core_idx: usize,
        tid: ThreadId,
        action: Action,
    ) -> Result<(), EngineError> {
        let core_id = core_idx as CoreId;
        match action {
            Action::Compute(n) => {
                let n = self.scaled_cycles(core_idx, n);
                self.cores[core_idx].clock += n;
                self.machine.counters_mut(core_id).busy_cycles += n;
            }
            Action::Read { addr, len } => {
                let cost = self.machine.access(core_id, addr, len, AccessKind::Read);
                let scaled = self.scaled_cycles(core_idx, cost);
                if scaled > cost {
                    // Keep busy accounting in step with the clock: the
                    // machine already charged `cost` busy cycles.
                    self.machine.counters_mut(core_id).busy_cycles += scaled - cost;
                }
                self.cores[core_idx].clock += scaled;
            }
            Action::Write { addr, len } => {
                let cost = self.machine.access(core_id, addr, len, AccessKind::Write);
                let scaled = self.scaled_cycles(core_idx, cost);
                if scaled > cost {
                    self.machine.counters_mut(core_id).busy_cycles += scaled - cost;
                }
                self.cores[core_idx].clock += scaled;
            }
            Action::Lock(lock) => self.exec_lock(core_idx, tid, lock)?,
            Action::Unlock(lock) => self.exec_unlock(core_idx, tid, lock)?,
            Action::CtStart(object, kind) => self.exec_ct_start(core_idx, tid, object, kind)?,
            Action::CtEnd => self.exec_ct_end(core_idx, tid)?,
            Action::Yield => {
                let cost = self.scaled_cycles(core_idx, self.cfg.yield_cycles);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles += cost;
                if !self.cores[core_idx].run_queue.is_empty() {
                    self.cores[core_idx].run_queue.push_back(tid);
                    self.cores[core_idx].current = None;
                }
            }
            Action::IdleUntil(at) => {
                if at > self.cores[core_idx].clock {
                    self.threads[tid].state = ThreadState::Sleeping;
                    self.cores[core_idx].sleepers.push(Sleeper {
                        thread: tid,
                        wake_at: at,
                    });
                    self.cores[core_idx].current = None;
                    self.sched_stats.sleeps += 1;
                }
            }
            Action::Exit => {
                self.threads[tid].state = ThreadState::Done;
                self.locations[tid] = None;
                self.cores[core_idx].current = None;
                self.live_threads -= 1;
            }
        }
        Ok(())
    }

    fn exec_lock(
        &mut self,
        core_idx: usize,
        tid: ThreadId,
        lock: LockId,
    ) -> Result<(), EngineError> {
        let core_id = core_idx as CoreId;
        let addr = self
            .locks
            .info(lock)
            .ok_or(EngineError::UnregisteredLock { thread: tid, lock })?
            .addr;
        // Invariant: `info` above proved the lock id is registered.
        let acquired = self
            .locks
            .try_acquire(lock, tid)
            .expect("lock id verified above");
        if acquired {
            let cost = self.scaled_cycles(core_idx, self.cfg.lock_op_cycles)
                + self.machine.access(core_id, addr, 8, AccessKind::Write);
            self.cores[core_idx].clock += cost;
            self.machine.counters_mut(core_id).busy_cycles +=
                self.scaled_cycles(core_idx, self.cfg.lock_op_cycles);
        } else {
            // The lock is held by another thread.
            // Invariant: `try_acquire` returned false, so a holder exists.
            let holder = self.locks.holder(lock).expect("contended lock has holder");
            let holder_here = self.locations[holder] == Some(core_id);
            // Retry the acquisition next time this thread runs.
            self.threads[tid].defer_front(Action::Lock(lock));
            if self.cfg.blocking_locks {
                // Block instead of spinning: charge the failed probe, then
                // sleep until the holder's release wakes this thread (and,
                // if need be, un-parks this core).
                let cost = self.scaled_cycles(core_idx, self.cfg.lock_spin_cycles)
                    + self.machine.access(core_id, addr, 8, AccessKind::Read);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles +=
                    self.scaled_cycles(core_idx, self.cfg.lock_spin_cycles);
                self.threads[tid].stats.lock_wait_cycles += cost;
                self.threads[tid].state = ThreadState::Blocked;
                self.locks.push_waiter(lock, tid);
                self.cores[core_idx].current = None;
            } else if holder_here && !self.cores[core_idx].run_queue.is_empty() {
                // Spinning would deadlock a cooperative core: yield to let
                // the holder make progress.
                let cost = self.scaled_cycles(core_idx, self.cfg.yield_cycles);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles += cost;
                self.cores[core_idx].run_queue.push_back(tid);
                self.cores[core_idx].current = None;
            } else {
                // Spin: re-read the lock word and burn the retry cost.
                let cost = self.scaled_cycles(core_idx, self.cfg.lock_spin_cycles)
                    + self.machine.access(core_id, addr, 8, AccessKind::Read);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles +=
                    self.scaled_cycles(core_idx, self.cfg.lock_spin_cycles);
                self.threads[tid].stats.lock_wait_cycles += cost;
            }
        }
        Ok(())
    }

    fn exec_unlock(
        &mut self,
        core_idx: usize,
        tid: ThreadId,
        lock: LockId,
    ) -> Result<(), EngineError> {
        let core_id = core_idx as CoreId;
        let addr = self
            .locks
            .info(lock)
            .ok_or(EngineError::UnregisteredLock { thread: tid, lock })?
            .addr;
        self.locks
            .release(lock, tid)
            .map_err(|e| EngineError::LockReleaseFailed {
                thread: tid,
                lock,
                error: e,
            })?;
        let cost = self.scaled_cycles(core_idx, self.cfg.lock_op_cycles)
            + self.machine.access(core_id, addr, 8, AccessKind::Write);
        self.cores[core_idx].clock += cost;
        self.machine.counters_mut(core_id).busy_cycles +=
            self.scaled_cycles(core_idx, self.cfg.lock_op_cycles);
        // A release is a wake-up source: hand the lock's first waiter back
        // to its core's run queue and un-park that core if necessary.
        if self.cfg.blocking_locks {
            if let Some(waiter) = self.locks.pop_waiter(lock) {
                // Invariant: a blocked thread keeps its location until it
                // exits; offlining relocates blocked threads explicitly.
                let dest = self.locations[waiter].expect("blocked thread lives on a core");
                self.threads[waiter].state = ThreadState::Runnable;
                self.cores[dest as usize].run_queue.push_back(waiter);
                // The waiter cannot observe the release before it happened:
                // wake no earlier than the releasing core's clock.
                let at = self.cores[core_idx]
                    .clock
                    .max(self.cores[dest as usize].clock);
                self.wake_core(dest as usize, at);
                self.sched_stats.lock_wakeups += 1;
            }
        }
        Ok(())
    }

    fn exec_ct_start(
        &mut self,
        core_idx: usize,
        tid: ThreadId,
        object_key: ObjectId,
        kind: AccessKind,
    ) -> Result<(), EngineError> {
        let core_id = core_idx as CoreId;
        if self.threads[tid].in_operation() {
            return Err(EngineError::NestedCtStart { thread: tid });
        }
        // Interning is the "table lookup" of the paper's ct_start: one
        // probe of the flat index, after which the policy works purely
        // with dense ids. Id-space exhaustion surfaces as a typed error
        // rather than a wrapped or aliased dense id.
        let (object, first_touch) =
            self.objects
                .try_touch(object_key)
                .map_err(|e| EngineError::ObjectIdsExhausted {
                    thread: tid,
                    limit: e.limit,
                })?;
        if let Some(desc) = first_touch {
            // First touch of an object in a declared region: this is its
            // registration, so the policy hears of it before it places
            // the operation.
            self.policy.register_object(object, desc);
        }
        let now = self.cores[core_idx].clock;
        self.threads[tid].current_op = Some(OpRecord {
            object,
            kind,
            exec_core: core_id,
            started_at: now,
            counter_base: *self.machine.counters(core_id),
            counter_base_pending: false,
            migrated: false,
        });

        let ctx = OpContext {
            thread: tid,
            core: core_id,
            home_core: self.threads[tid].home_core,
            object,
            object_key,
            now,
            kind,
            machine: &self.machine,
        };
        let placement = self.policy.on_ct_start(&ctx);

        if let Placement::On(dest) = placement {
            let valid = (dest as usize) < self.cores.len();
            debug_assert!(valid, "policy placed an operation on invalid core {dest}");
            if valid && dest != core_id && self.cfg.migration_enabled {
                // The send can fail over a lossy interconnect (or be
                // redirected off an offlined core): only a completed
                // migration marks the op as executing remotely.
                if let Some(landed) = self.migrate(core_idx, tid, dest) {
                    if let Some(op) = self.threads[tid].current_op.as_mut() {
                        op.exec_core = landed;
                        op.migrated = true;
                        op.counter_base_pending = true;
                    }
                    self.threads[tid].stats.migrations += 1;
                }
            }
        }
        Ok(())
    }

    fn exec_ct_end(&mut self, core_idx: usize, tid: ThreadId) -> Result<(), EngineError> {
        let core_id = core_idx as CoreId;
        let op = self.threads[tid]
            .current_op
            .take()
            .ok_or(EngineError::CtEndWithoutCtStart { thread: tid })?;
        let delta = self.machine.counters(core_id).delta_since(&op.counter_base);
        // Service latency in cycles: ct_start (on the starting core) to
        // ct_end (here). Clocks only move forward across a migration, so
        // the span is non-negative; saturate for safety.
        self.op_latency
            .record(self.cores[core_idx].clock.saturating_sub(op.started_at));
        let ctx = OpContext {
            thread: tid,
            core: core_id,
            home_core: self.threads[tid].home_core,
            object: op.object,
            object_key: self.objects.key_of(op.object),
            now: self.cores[core_idx].clock,
            kind: op.kind,
            machine: &self.machine,
        };
        self.policy.on_ct_end(&ctx, &delta);

        self.machine.counters_mut(core_id).operations_completed += 1;
        self.threads[tid].stats.ops_completed += 1;
        self.total_ops += 1;

        // Return to the home core when the runtime is configured to do so
        // (the paper's original design) or when a rehome command (e.g. from
        // a thread-clustering policy) arrived while the thread was running.
        let home = self.threads[tid].home_core;
        let rehome = self.threads[tid].rehome_pending;
        if (self.cfg.return_home_after_op || rehome)
            && self.cfg.migration_enabled
            && home != core_id
        {
            self.threads[tid].rehome_pending = false;
            if self.migrate(core_idx, tid, home).is_some() {
                self.threads[tid].stats.returns_home += 1;
            }
        } else if rehome && home == core_id {
            self.threads[tid].rehome_pending = false;
        }
        Ok(())
    }

    /// Moves thread `tid` (currently running on `core_idx`) to `dest`: saves
    /// the context, charges the transfer, and enqueues it in the
    /// destination's migration inbox.
    ///
    /// Over a fault-degraded interconnect the context message can be lost;
    /// the sender then retries with doubling backoff (charged as busy time
    /// on the source core) up to `migration_max_retries` attempts or the
    /// `migration_timeout_cycles` budget, whichever runs out first. An
    /// offlined destination is silently redirected to the next live core.
    /// Returns the core the thread actually landed on, or `None` if the
    /// migration was abandoned (the thread stays where it is).
    fn migrate(&mut self, core_idx: usize, tid: ThreadId, dest: CoreId) -> Option<CoreId> {
        let core_id = core_idx as CoreId;
        // Never deliver to a dead core: fall back to the next live one.
        let dest = if self.core_offline[dest as usize] {
            self.fallback_core(dest)
        } else {
            dest
        };
        if dest == core_id {
            return None;
        }

        // Resolve the wire transfer first: on a healthy link this is one
        // infallible send, exactly the pre-fault-plane behaviour.
        let mut wire = self.machine.try_migration_transfer(core_id, dest);
        if wire.is_none() {
            let mut backoff = self.cfg.migration_retry_backoff_cycles;
            let mut waited: Cycles = 0;
            for _ in 0..self.cfg.migration_max_retries {
                if waited.saturating_add(backoff) > self.cfg.migration_timeout_cycles {
                    break;
                }
                self.sched_stats.migration_retries += 1;
                // The backoff wait burns time on the source core.
                self.cores[core_idx].clock += backoff;
                self.machine.counters_mut(core_id).busy_cycles += backoff;
                self.threads[tid].stats.migration_cycles += backoff;
                waited += backoff;
                backoff = backoff.saturating_mul(2);
                self.machine.set_time_hint(self.cores[core_idx].clock);
                wire = self.machine.try_migration_transfer(core_id, dest);
                if wire.is_some() {
                    break;
                }
            }
        }
        let Some(wire) = wire else {
            // Retries exhausted or timed out: run the operation locally.
            self.sched_stats.migration_failures += 1;
            return None;
        };

        let save = self.scaled_cycles(core_idx, self.cfg.save_context_cycles);
        self.cores[core_idx].clock += save;
        self.machine.counters_mut(core_id).busy_cycles += save;
        self.machine.counters_mut(core_id).migrations_out += 1;

        // Average polling delay at the destination.
        let poll_wait = self.cfg.poll_interval_cycles / 2;
        let ready_at = self.cores[core_idx].clock + wire + poll_wait;

        let thread = &mut self.threads[tid];
        thread.state = ThreadState::Migrating;
        thread.stats.migration_cycles += save + wire + poll_wait;

        self.locations[tid] = Some(dest);
        self.cores[dest as usize].inbox.push(Incoming {
            thread: tid,
            ready_at,
        });
        self.cores[core_idx].current = None;
        // A migration arrival is a wake-up source for the (possibly
        // parked) destination core.
        self.wake_core(dest as usize, ready_at);
        Some(dest)
    }

    /// Fires policy epochs once the virtual-time frontier has crossed the
    /// next epoch boundary. The frontier is the wake cycle of the next
    /// pending event; parked cores sit at the frontier by definition and
    /// never delay an epoch. A single long action can carry the frontier
    /// across several boundaries at once, so this catches up in a loop —
    /// every boundary fires exactly once, in order.
    ///
    /// `limit` is the current run's cycle bound: in the old engine idle
    /// cores never advanced past the limit, so while any core is idle no
    /// boundary beyond the limit may fire (nor may idle clocks be settled
    /// past it).
    fn maybe_epoch(&mut self, limit: Cycles) {
        loop {
            match self.peek_valid_wake() {
                Some(frontier) if frontier >= self.next_epoch => {}
                _ => return,
            }
            if !self.fire_one_epoch(limit) {
                return;
            }
        }
    }

    /// The wheel loop's epoch catch-up: the frontier was already peeked,
    /// so boundaries fire against the passed value instead of re-peeking.
    /// Epoch commands can only create events *past* the frontier (a
    /// rehome's `ready_at` exceeds the involved cores' clocks, which are
    /// at or past the frontier), so the frontier is constant across the
    /// catch-up and re-peeking each iteration — what `maybe_epoch` does —
    /// would observe the same value.
    fn catch_up_epochs(&mut self, frontier: Cycles, limit: Cycles) {
        while frontier >= self.next_epoch {
            if !self.fire_one_epoch(limit) {
                return;
            }
        }
    }

    /// Fires the boundary at `next_epoch`, unless `limit` gates it.
    /// Returns whether it fired.
    fn fire_one_epoch(&mut self, limit: Cycles) -> bool {
        if self.next_epoch > limit
            && self
                .cores
                .iter()
                .any(|c| c.current.is_none() && c.run_queue.is_empty())
        {
            return false;
        }
        // Epoch boundaries are a wake-up source for idle accounting:
        // bring every parked core's clock (and idle counter) up to the
        // boundary so the policy's per-core deltas include their idle
        // time.
        self.settle_idle_cores(self.next_epoch.min(limit));
        let snapshot = self.machine.snapshot_counters();
        let deltas = snapshot.delta_since(&self.epoch_base);
        let view = EpochView {
            now: self.next_epoch,
            machine: &self.machine,
            deltas: &deltas,
        };
        let commands = self.policy.on_epoch(&view);
        self.epoch_base = snapshot;
        self.next_epoch += self.cfg.epoch_cycles;
        // Fills the cores found no idle gap for during the last epoch are
        // stale — the policy just re-planned from fresh counters.
        for core in &mut self.cores {
            core.fill_queue.clear();
        }
        for cmd in commands {
            self.apply_command(cmd);
        }
        true
    }

    /// Streams one queued background fill into `core_idx`'s caches: a
    /// plain read of the object's bytes through the normal memory system
    /// (so directory state, sharing downgrades and streaming discounts are
    /// all the real ones), charged to the core's clock. Only ever called
    /// when the core has nothing runnable, so the cost lands in what would
    /// have been an idle gap. Returns the core's advanced clock.
    fn run_one_fill(&mut self, core_idx: usize) -> Cycles {
        let core_id = core_idx as CoreId;
        // Invariant: the caller checked the queue is non-empty.
        let object = self.cores[core_idx]
            .fill_queue
            .pop_front()
            .expect("pending background fill");
        let desc = *self.objects.descriptor(object);
        if desc.size > 0 {
            self.machine.set_time_hint(self.cores[core_idx].clock);
            let cost = self
                .machine
                .access(core_id, desc.addr, desc.size, AccessKind::Read);
            let scaled = self.scaled_cycles(core_idx, cost);
            if scaled > cost {
                self.machine.counters_mut(core_id).busy_cycles += scaled - cost;
            }
            self.cores[core_idx].clock += scaled;
            self.sched_stats.replica_fills += 1;
            self.sched_stats.replica_fill_cycles += scaled;
        }
        self.cores[core_idx].clock
    }

    fn apply_command(&mut self, cmd: PolicyCommand) {
        match cmd {
            PolicyCommand::FillReplica { object, core } => {
                let idx = core as usize;
                if idx < self.cores.len()
                    && !self.core_offline[idx]
                    && (object as usize) < self.objects.len()
                {
                    self.cores[idx].fill_queue.push_back(object);
                    // A parked core whose next arrival leaves room can
                    // start filling right away.
                    if let Some(at) = self.core_next_wake(idx) {
                        self.wake_core(idx, at);
                    }
                }
            }
            PolicyCommand::RehomeThread { thread, core } => {
                if thread >= self.threads.len() || (core as usize) >= self.cores.len() {
                    return;
                }
                if self.threads[thread].is_done() {
                    return;
                }
                // A rehome onto an offlined core lands on its fallback.
                let core = if self.core_offline[core as usize] {
                    self.fallback_core(core)
                } else {
                    core
                };
                self.threads[thread].home_core = core;
                // If the thread is sitting in a run queue (not currently
                // running and not mid-migration), move it physically now;
                // otherwise it will move at its next ct_end.
                let loc = match self.locations[thread] {
                    Some(l) => l,
                    None => return,
                };
                if loc == core {
                    return;
                }
                let loc_idx = loc as usize;
                let running_there = self.cores[loc_idx].current == Some(thread);
                let queued_pos = self.cores[loc_idx]
                    .run_queue
                    .iter()
                    .position(|&t| t == thread);
                if !running_there {
                    if let Some(pos) = queued_pos {
                        self.cores[loc_idx].run_queue.remove(pos);
                        let ready_at = self.cores[loc_idx]
                            .clock
                            .max(self.cores[core as usize].clock)
                            + self.cfg.expected_migration_cycles();
                        self.threads[thread].state = ThreadState::Migrating;
                        self.locations[thread] = Some(core);
                        self.cores[core as usize]
                            .inbox
                            .push(Incoming { thread, ready_at });
                        self.wake_core(core as usize, ready_at);
                    }
                } else {
                    // The thread is running right now: move it at its next
                    // ct_end (the next point where its context is small).
                    self.threads[thread].rehome_pending = true;
                }
            }
        }
    }

    // ---- the fault plane ---------------------------------------------------

    /// The classic loop's post-dispatch fault check: a no-op single
    /// compare while no fault plan is installed (or all edges fired).
    fn maybe_faults(&mut self) {
        if self.next_fault_at == PARKED {
            return;
        }
        if let Some(frontier) = self.peek_valid_wake() {
            if frontier >= self.next_fault_at {
                self.apply_faults_up_to(frontier);
            }
        }
    }

    /// Applies every pending fault edge at or before `frontier`, in
    /// schedule order.
    fn apply_faults_up_to(&mut self, frontier: Cycles) {
        while self.next_fault_at <= frontier {
            let edge = self.fault_edges[self.next_fault_idx];
            self.next_fault_idx += 1;
            self.next_fault_at = self
                .fault_edges
                .get(self.next_fault_idx)
                .map_or(PARKED, |e| e.at);
            self.apply_fault(edge);
        }
    }

    fn apply_fault(&mut self, edge: FaultEdge) {
        self.sched_stats.faults_applied += 1;
        match edge.action {
            FaultAction::SlowStart { core, percent } => {
                if !self.core_offline[core] {
                    self.core_slowdown[core] = percent;
                    self.sched_stats.cores_slowed += 1;
                    self.policy.core_degraded(core as CoreId, percent);
                }
            }
            FaultAction::SlowEnd { core } => {
                if !self.core_offline[core] && self.core_slowdown[core] != 100 {
                    self.core_slowdown[core] = 100;
                    self.policy.core_degraded(core as CoreId, 100);
                }
            }
            FaultAction::Offline { core } => self.offline_core(core, edge.at),
            FaultAction::DegradeStart { deg } => {
                self.machine
                    .set_interconnect_degradation(Some(deg), self.fault_seed);
            }
            FaultAction::DegradeEnd => {
                self.machine
                    .set_interconnect_degradation(None, self.fault_seed);
            }
        }
    }

    /// The next live core after `core` in cyclic id order — where an
    /// offlined core's work goes. Falls back to `core` itself only if
    /// every other core is down (a state `FaultPlan::validate` rejects).
    fn fallback_core(&self, core: CoreId) -> CoreId {
        let n = self.cores.len();
        for step in 1..n {
            let c = (core as usize + step) % n;
            if !self.core_offline[c] {
                return c as CoreId;
            }
        }
        core
    }

    /// Takes a core permanently offline at virtual time `at`: notifies
    /// the policy (so placements stop targeting it), then drains its
    /// running thread, run queue, and in-flight inbox arrivals to the
    /// next live core, re-pins the homes of every thread homed there, and
    /// parks the core forever.
    fn offline_core(&mut self, core: usize, at: Cycles) {
        if self.core_offline[core] {
            return;
        }
        if self.core_offline.iter().filter(|&&down| !down).count() <= 1 {
            // The last live core cannot go down: the work has nowhere to
            // drain. (FaultPlan::validate rejects such plans up front.)
            return;
        }
        self.core_offline[core] = true;
        self.core_slowdown[core] = 100;
        self.sched_stats.cores_offlined += 1;
        // Policy first: CoreTime re-homes the dead core's objects before
        // any drained thread issues its next ct_start.
        self.policy.core_down(core as CoreId);

        let fallback = self.fallback_core(core as CoreId);
        let dest = fallback as usize;

        // Drain the runnable threads: current first, then queue order —
        // a deterministic order for the fallback core's inbox.
        let mut drained: Vec<ThreadId> = Vec::new();
        if let Some(cur) = self.cores[core].current.take() {
            drained.push(cur);
        }
        while let Some(t) = self.cores[core].run_queue.pop_front() {
            drained.push(t);
        }
        let in_flight: Vec<Incoming> = std::mem::take(&mut self.cores[core].inbox);

        let base = self.cores[core].clock.max(self.cores[dest].clock);
        let ready_at = base + self.cfg.expected_migration_cycles();
        let mut last_ready = at;
        for tid in drained {
            self.threads[tid].state = ThreadState::Migrating;
            self.threads[tid].home_core = fallback;
            self.locations[tid] = Some(fallback);
            self.cores[dest].inbox.push(Incoming {
                thread: tid,
                ready_at,
            });
            self.wake_core(dest, ready_at);
            self.sched_stats.threads_repinned += 1;
            last_ready = last_ready.max(ready_at);
        }
        for inc in in_flight {
            // An arrival already in transit is re-routed: it completes its
            // original transfer, then pays one more migration to reach the
            // fallback core.
            let rerouted = inc.ready_at.max(base) + self.cfg.expected_migration_cycles();
            self.locations[inc.thread] = Some(fallback);
            self.threads[inc.thread].home_core = fallback;
            self.cores[dest].inbox.push(Incoming {
                thread: inc.thread,
                ready_at: rerouted,
            });
            self.wake_core(dest, rerouted);
            self.sched_stats.threads_repinned += 1;
            last_ready = last_ready.max(rerouted);
        }
        // Sleepers finish their sleep in transit and land on the fallback
        // core one migration after their wake cycle.
        let sleeping: Vec<Sleeper> = std::mem::take(&mut self.cores[core].sleepers);
        for s in sleeping {
            let rerouted = s.wake_at.max(base) + self.cfg.expected_migration_cycles();
            self.threads[s.thread].state = ThreadState::Migrating;
            self.threads[s.thread].home_core = fallback;
            self.locations[s.thread] = Some(fallback);
            self.cores[dest].inbox.push(Incoming {
                thread: s.thread,
                ready_at: rerouted,
            });
            self.wake_core(dest, rerouted);
            self.sched_stats.threads_repinned += 1;
            last_ready = last_ready.max(rerouted);
        }
        // Threads homed on the dead core but currently elsewhere (blocked,
        // migrated out, or queued on another core) re-pin their homes; a
        // blocked thread's recorded location moves too, so a later lock
        // hand-off wakes a live core.
        for t in 0..self.threads.len() {
            if self.threads[t].is_done() {
                continue;
            }
            if self.threads[t].home_core == core as CoreId {
                self.threads[t].home_core = fallback;
            }
            if self.locations[t] == Some(core as CoreId) {
                self.locations[t] = Some(fallback);
            }
        }
        // The dead core never dispatches again.
        self.sched_wake[core] = PARKED;
        self.sched_stats.recovery_cycles += last_ready.saturating_sub(at);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviour::{FixedBehaviour, OpBuilder, RepeatBehaviour};
    use crate::policy::{NullPolicy, StaticPolicy};
    use o2_sim::{ContentionModel, MachineConfig};

    fn machine() -> Machine {
        let mut cfg = MachineConfig::quad4();
        cfg.contention = ContentionModel::None;
        Machine::new(cfg)
    }

    fn engine(policy: Box<dyn SchedPolicy>) -> Engine {
        Engine::new(machine(), policy, RuntimeConfig::default())
    }

    #[test]
    fn compute_advances_the_clock() {
        let mut e = engine(Box::new(NullPolicy));
        e.spawn(
            0,
            Box::new(FixedBehaviour::new(vec![Action::Compute(1000)])),
        );
        e.run_until_cycles(10_000);
        assert!(e.core_clock(0) >= 1000);
        assert_eq!(e.live_threads(), 0);
        assert_eq!(e.machine().counters(0).busy_cycles, 1000);
    }

    #[test]
    fn memory_actions_go_through_the_machine() {
        let mut e = engine(Box::new(NullPolicy));
        let region = e.machine_mut().memory_mut().alloc(4096, 0);
        e.spawn(
            1,
            Box::new(FixedBehaviour::new(vec![
                Action::Read {
                    addr: region.addr,
                    len: 4096,
                },
                Action::Read {
                    addr: region.addr,
                    len: 4096,
                },
            ])),
        );
        e.run_until_cycles(1_000_000);
        let ctr = e.machine().counters(1);
        assert!(ctr.dram_loads > 0);
        assert!(ctr.l1_hits > 0);
        // The memory-system totals surface through the engine: the second
        // pass over the region is all L1 short-circuits.
        let ms = e.mem_stats();
        assert!(ms.l1_short_circuits >= 64);
        assert!(ms.directory_entries > 0);
    }

    #[test]
    fn annotated_ops_are_counted() {
        let mut e = engine(Box::new(NullPolicy));
        let op = OpBuilder::annotated(0x1000).compute(100).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(5))));
        e.run_until_cycles(1_000_000);
        assert_eq!(e.total_ops(), 5);
        assert_eq!(e.thread_stats(0).ops_completed, 5);
        assert_eq!(e.machine().counters(0).operations_completed, 5);
    }

    #[test]
    fn run_until_ops_stops_at_target() {
        let mut e = engine(Box::new(NullPolicy));
        let op = OpBuilder::annotated(0x1000).compute(10).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
        e.run_until_ops(100);
        assert!(e.total_ops() >= 100);
        assert!(e.total_ops() < 110);
    }

    #[test]
    fn static_policy_migrates_operations_and_returns_home() {
        let mut cfg = RuntimeConfig::default();
        cfg.return_home_after_op = true;
        let mut e = Engine::new(
            machine(),
            Box::new({
                let mut p = StaticPolicy::new();
                p.assign(0x1000, 3);
                p
            }),
            cfg,
        );
        let op = OpBuilder::annotated(0x1000).compute(500).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(4))));
        e.run_until_cycles(10_000_000);
        let stats = e.thread_stats(0);
        assert_eq!(stats.ops_completed, 4);
        assert_eq!(stats.migrations, 4);
        assert_eq!(stats.returns_home, 4);
        // The compute cycles of the operations landed on core 3.
        assert!(e.machine().counters(3).busy_cycles >= 4 * 500);
        assert_eq!(e.machine().counters(3).operations_completed, 4);
        assert_eq!(e.machine().counters(0).operations_completed, 0);
        assert!(e.machine().counters(0).migrations_out >= 4);
        assert!(e.machine().counters(3).migrations_in >= 4);
    }

    #[test]
    fn disabling_migration_keeps_operations_local() {
        let mut p = StaticPolicy::new();
        p.assign(0x1000, 3);
        let mut e = Engine::new(
            machine(),
            Box::new(p),
            RuntimeConfig::default().without_migration(),
        );
        let op = OpBuilder::annotated(0x1000).compute(500).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(4))));
        e.run_until_cycles(10_000_000);
        assert_eq!(e.thread_stats(0).migrations, 0);
        assert_eq!(e.machine().counters(0).operations_completed, 4);
    }

    #[test]
    fn migration_cost_is_roughly_the_papers_2000_cycles() {
        // One op that migrates from core 0 to core 1 and back, with zero
        // compute: the migration cycles accounted by the runtime for the
        // round trip should land near the paper's measured 2000 cycles.
        let mut cfg = RuntimeConfig::default();
        cfg.return_home_after_op = true;
        let mut p = StaticPolicy::new();
        p.assign(0x1000, 1);
        let mut e = Engine::new(machine(), Box::new(p), cfg);
        let op = OpBuilder::annotated(0x1000).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(1))));
        e.run_until_cycles(100_000);
        let stats = e.thread_stats(0);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.returns_home, 1);
        let round_trip = stats.migration_cycles;
        assert!(
            (1400..=3000).contains(&round_trip),
            "round-trip migration cost {round_trip} outside the expected band"
        );
    }

    #[test]
    fn lock_contention_across_cores_spins() {
        let mut e = engine(Box::new(NullPolicy));
        let lock_region = e.machine_mut().memory_mut().alloc(64, 99);
        let lock = e.register_lock(lock_region.addr);
        // Two threads on different cores hammer the same lock.
        for core in 0..2 {
            let op = OpBuilder::new()
                .lock(lock)
                .compute(2000)
                .unlock(lock)
                .build();
            e.spawn(core, Box::new(RepeatBehaviour::new(op, Some(20))));
        }
        e.run_until_cycles(2_000_000);
        assert!(e.locks().total_contention() > 0);
        assert_eq!(e.locks().total_acquisitions(), 40);
        let waits: u64 = (0..2).map(|t| e.thread_stats(t).lock_wait_cycles).sum();
        assert!(waits > 0);
    }

    #[test]
    fn same_core_lock_contention_yields_instead_of_deadlocking() {
        let mut e = engine(Box::new(NullPolicy));
        let lock_region = e.machine_mut().memory_mut().alloc(64, 99);
        let lock = e.register_lock(lock_region.addr);
        // Two threads on the SAME core share a lock; cooperative scheduling
        // must interleave them rather than deadlock.
        for _ in 0..2 {
            let op = OpBuilder::new()
                .lock(lock)
                .compute(1000)
                .unlock(lock)
                .build();
            e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(10))));
        }
        e.run_until_cycles(10_000_000);
        assert_eq!(e.live_threads(), 0, "threads must run to completion");
        assert_eq!(e.locks().total_acquisitions(), 20);
    }

    #[test]
    fn yield_rotates_threads_on_a_core() {
        let mut e = engine(Box::new(NullPolicy));
        let a = e.spawn(
            0,
            Box::new(RepeatBehaviour::new(
                vec![Action::Compute(100), Action::Yield],
                Some(10),
            )),
        );
        let b = e.spawn(
            0,
            Box::new(RepeatBehaviour::new(
                vec![Action::Compute(100), Action::Yield],
                Some(10),
            )),
        );
        e.run_until_cycles(1_000_000);
        assert_eq!(e.thread_stats(a).actions_executed, 21);
        assert_eq!(e.thread_stats(b).actions_executed, 21);
        assert_eq!(e.live_threads(), 0);
    }

    #[test]
    fn run_window_reports_throughput() {
        let mut e = engine(Box::new(NullPolicy));
        let op = OpBuilder::annotated(0x1000).compute(1000).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
        let w = e.run_window(1_000_000);
        // ~1000 ops in 1M cycles (one op per ~1000 cycles).
        assert!(w.ops > 800 && w.ops < 1100, "ops = {}", w.ops);
        assert!(w.kops_per_second() > 0.0);
        assert_eq!(w.per_core_ops.iter().sum::<u64>(), w.ops);
    }

    #[test]
    fn idle_cores_accumulate_idle_cycles() {
        let mut e = engine(Box::new(NullPolicy));
        let op = OpBuilder::annotated(0x1).compute(100).finish();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
        e.run_until_cycles(100_000);
        // Cores 1-3 had no threads: all their time is idle.
        for core in 1..4 {
            assert!(e.machine().counters(core).idle_cycles >= 90_000);
        }
        assert_eq!(e.machine().counters(0).idle_cycles, 0);
    }

    #[test]
    fn epoch_callback_fires() {
        struct EpochCounter {
            epochs: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl SchedPolicy for EpochCounter {
            fn name(&self) -> &'static str {
                "epoch-counter"
            }
            fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
                self.epochs.set(self.epochs.get() + 1);
                Vec::new()
            }
        }
        let epochs = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut cfg = RuntimeConfig::default();
        cfg.epoch_cycles = 10_000;
        let mut e = Engine::new(
            machine(),
            Box::new(EpochCounter {
                epochs: epochs.clone(),
            }),
            cfg,
        );
        for core in 0..4 {
            e.spawn(
                core,
                Box::new(RepeatBehaviour::new(vec![Action::Compute(100)], None)),
            );
        }
        e.run_until_cycles(100_000);
        assert!(epochs.get() >= 8, "epochs fired: {}", epochs.get());
    }

    #[test]
    fn rehome_command_moves_queued_threads() {
        struct RehomeOnce {
            done: bool,
        }
        impl SchedPolicy for RehomeOnce {
            fn name(&self) -> &'static str {
                "rehome-once"
            }
            fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
                if self.done {
                    Vec::new()
                } else {
                    self.done = true;
                    vec![PolicyCommand::RehomeThread { thread: 1, core: 2 }]
                }
            }
        }
        let mut cfg = RuntimeConfig::default();
        cfg.epoch_cycles = 5_000;
        let mut e = Engine::new(machine(), Box::new(RehomeOnce { done: false }), cfg);
        // Two threads on core 0; thread 1 gets rehomed to core 2.
        for _ in 0..2 {
            e.spawn(
                0,
                Box::new(RepeatBehaviour::new(
                    vec![Action::Compute(200), Action::Yield],
                    None,
                )),
            );
        }
        e.run_until_cycles(200_000);
        assert!(e.machine().counters(2).busy_cycles > 0);
        assert!(e.machine().counters(2).migrations_in >= 1);
    }

    #[test]
    fn region_objects_are_registered_by_their_first_ct_start() {
        /// Logs `register_object` and `on_ct_start` calls in order.
        struct Recorder {
            log: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
        }
        impl SchedPolicy for Recorder {
            fn name(&self) -> &'static str {
                "recorder"
            }
            fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
                self.log.borrow_mut().push(format!(
                    "register {id} key {:#x} size {}",
                    object.id, object.size
                ));
            }
            fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
                self.log.borrow_mut().push(format!("start {}", ctx.object));
                Placement::Local
            }
        }
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut e = engine(Box::new(Recorder { log: log.clone() }));
        let region = ObjectRegion {
            base: 0x4000,
            stride: 0x100,
            size: 0x80,
            count: 1 << 20,
        };
        assert_eq!(e.register_region(region), Ok(()));
        assert_eq!(
            e.register_region(region),
            Err(RegionError::Overlap { existing: region })
        );
        assert!(
            log.borrow().is_empty(),
            "declaring a region registers nothing"
        );
        assert!(e.object_index().is_empty());

        // Object 5 twice, then an off-stride key inside the span, then
        // object 0.
        let op = |key| OpBuilder::annotated(key).compute(10).finish();
        let ops = [op(0x4500), op(0x4500), op(0x4501), op(0x4000)].concat();
        e.spawn(0, Box::new(FixedBehaviour::new(ops)));
        e.run_until_cycles(100_000);
        assert_eq!(e.total_ops(), 4);
        assert_eq!(
            *log.borrow(),
            [
                "register 0 key 0x4500 size 128",
                "start 0",
                "start 0",
                "start 1",
                "register 2 key 0x4000 size 128",
                "start 2",
            ]
        );
        assert_eq!(e.object_index().len(), 3);
    }

    #[test]
    #[should_panic(expected = "ct_end without ct_start")]
    fn ct_end_without_start_panics() {
        let mut e = engine(Box::new(NullPolicy));
        e.spawn(0, Box::new(FixedBehaviour::new(vec![Action::CtEnd])));
        e.run_until_cycles(10_000);
    }

    #[test]
    #[should_panic(expected = "ct_start inside an operation")]
    fn nested_ct_start_panics() {
        let mut e = engine(Box::new(NullPolicy));
        e.spawn(
            0,
            Box::new(FixedBehaviour::new(vec![
                Action::CtStart(1, AccessKind::Write),
                Action::CtStart(2, AccessKind::Write),
            ])),
        );
        e.run_until_cycles(10_000);
    }

    #[test]
    fn determinism_same_seeded_run_twice() {
        let run = || {
            let mut p = StaticPolicy::new();
            p.assign(0x1000, 2);
            p.assign(0x2000, 3);
            let mut e = engine(Box::new(p));
            for core in 0..4u32 {
                let obj = if core % 2 == 0 { 0x1000 } else { 0x2000 };
                let op = OpBuilder::annotated(obj).compute(300).finish();
                e.spawn(core, Box::new(RepeatBehaviour::new(op, Some(50))));
            }
            e.run_until_cycles(5_000_000);
            (
                e.total_ops(),
                e.max_clock(),
                e.machine().counters(2).busy_cycles,
                e.machine().counters(3).migrations_in,
            )
        };
        assert_eq!(run(), run());
    }

    /// Queues a background fill of object 0 into each listed core at
    /// every epoch boundary.
    struct FillEveryEpoch(Vec<CoreId>);

    impl SchedPolicy for FillEveryEpoch {
        fn name(&self) -> &'static str {
            "fill-every-epoch"
        }
        fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
            self.0
                .iter()
                .map(|&core| PolicyCommand::FillReplica { object: 0, core })
                .collect()
        }
    }

    #[test]
    fn background_fills_run_on_idle_cores_and_never_on_busy_ones() {
        let mut e = Engine::new(
            machine(),
            Box::new(FillEveryEpoch(vec![0, 1])),
            RuntimeConfig::default(),
        );
        let region = e.machine_mut().memory_mut().alloc(4096, 0);
        e.register_object(ObjectDescriptor::new(0x1000, region.addr, region.size));
        // Core 0 never has a gap: an endless compute loop. Core 1 has no
        // thread at all, so only it can drain its fill queue.
        e.spawn(
            0,
            Box::new(RepeatBehaviour::new(vec![Action::Compute(1_000)], None)),
        );
        e.run_until_cycles(1_000_000);
        let ss = e.sched_stats();
        assert!(ss.replica_fills > 0, "idle core 1 never ran its fills");
        assert!(ss.replica_fill_cycles > 0);
        // The fill streamed the object through core 1's memory system and
        // was charged to core 1's clock.
        let c1 = e.machine().counters(1);
        assert!(c1.dram_loads + c1.l1_hits + c1.l2_hits > 0);
        // The saturated core never loaded a line: its queued fills were
        // discarded at each boundary, not squeezed in.
        let c0 = e.machine().counters(0);
        assert_eq!(c0.dram_loads, 0);
        assert_eq!(c0.l1_hits + c0.l2_hits + c0.l3_hits, 0);
    }

    /// A thread that sleeps `gap` cycles between tiny compute bursts —
    /// an open-loop stand-in with a controllable arrival gap.
    struct GapSleeper {
        gap: Cycles,
        rounds: u64,
    }

    impl crate::behaviour::OpGenerator for GapSleeper {
        fn next_op(&mut self, ctx: &crate::behaviour::BehaviourCtx) -> Vec<Action> {
            if self.rounds == 0 {
                return vec![];
            }
            self.rounds -= 1;
            vec![Action::IdleUntil(ctx.now + self.gap), Action::Compute(100)]
        }
    }

    #[test]
    fn fills_respect_the_gap_to_the_next_arrival() {
        // The fill estimate for a 4 KB object is size * 2 = 8192 cycles.
        // A thread waking every 3000 cycles never leaves room, so the
        // fill must stay queued; 50_000-cycle gaps fit it comfortably.
        let run = |gap: Cycles| {
            let mut e = Engine::new(
                machine(),
                Box::new(FillEveryEpoch(vec![0])),
                RuntimeConfig::default(),
            );
            let region = e.machine_mut().memory_mut().alloc(4096, 0);
            e.register_object(ObjectDescriptor::new(0x1000, region.addr, region.size));
            e.spawn(
                0,
                Box::new(crate::behaviour::OpBehaviour::new(GapSleeper {
                    gap,
                    rounds: 1_000,
                })),
            );
            e.run_until_cycles(600_000);
            e.sched_stats().replica_fills
        };
        assert_eq!(run(3_000), 0, "a fill ran in front of an imminent wake");
        assert!(run(50_000) > 0, "wide gaps never fit a fill");
    }
}
