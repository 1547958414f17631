//! The native runtime: pinned workers, migration rings, closed loop.
//!
//! `run_native` spawns one `std::thread` worker per configured core,
//! pins each to its CPU (best effort), and drives the workload's
//! deterministic op stream through the policy:
//!
//! 1. a worker claims the next global op index and asks the policy where
//!    to run it (`ct_start`);
//! 2. `Local` (or its own core) → it executes the op right here;
//! 3. `On(other)` → it enqueues an op descriptor on `rings[self][other]`
//!    and waits for the matching `Done` — **while serving any ops other
//!    workers migrated to it**, so the mesh can never deadlock;
//! 4. whoever executed the op reports the counter delta (`ct_end`) and
//!    the submitter advances the global completed count, firing an epoch
//!    callback at every `epoch_every_ops` boundary.
//!
//! Each worker keeps at most one op outstanding (the paper's synchronous
//! server loop), so `completed == limit` also proves no message is still
//! in flight — which is what lets the warmup and measured phases be
//! separated by plain barriers.
//!
//! Timing comes from `Instant` pairs recorded per worker inside the
//! measured phase; the reported wall time spans the earliest start to
//! the latest end. Timing and occupancy vary run to run and are
//! reported, never asserted — see the crate docs for the determinism
//! contract.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use o2_runtime::{CounterDelta, Placement, PolicyCommand, SchedPolicy};
use o2_sim::MachineConfig;

use crate::affinity::pin_to_cpu;
use crate::host::{synthetic_delta, OpIdentity, PolicyHost};
use crate::ring::SpscRing;
use crate::workload::NativeWorkload;

/// Virtual cycles the clock advances per completed operation (the
/// policies only need a monotonic epoch clock, not real time).
const CYCLES_PER_OP: u64 = 200;

/// Configuration of one native run.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Worker (and simulated-core) count, clamped to `1..=64`.
    pub workers: usize,
    /// Ops executed before measurement starts (cache and policy warmup).
    pub warmup_ops: u64,
    /// Ops executed inside the measured window.
    pub measure_ops: u64,
    /// Epoch callback period in completed measured ops (0 disables).
    pub epoch_every_ops: u64,
    /// Capacity of each migration ring (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Whether to attempt pinning workers to CPUs.
    pub pin: bool,
    /// Machine view handed to the policy (one core per worker).
    pub machine: MachineConfig,
}

impl NativeConfig {
    /// Defaults for `workers` workers: 1k warmup, 20k measured ops,
    /// epochs every 2k ops, 256-slot rings, pinning on.
    pub fn new(workers: usize) -> Self {
        let workers = workers.clamp(1, 64);
        Self {
            workers,
            warmup_ops: 1_000,
            measure_ops: 20_000,
            epoch_every_ops: 2_000,
            ring_capacity: 256,
            pin: true,
            machine: native_machine_config(workers),
        }
    }
}

/// The machine view for a native run: one chip with one simulated core
/// per worker, otherwise the paper's AMD geometry. The policies read
/// only topology and cache budgets from it; its cycle counters stay at
/// zero.
pub fn native_machine_config(workers: usize) -> MachineConfig {
    let mut cfg = MachineConfig::amd16();
    cfg.chips = 1;
    cfg.cores_per_chip = workers.clamp(1, 64) as u32;
    cfg
}

/// What one native run measured. Wall-clock numbers vary run to run;
/// the op counts and the state digest do not.
#[derive(Debug, Clone)]
pub struct NativeMeasurement {
    /// Policy name.
    pub policy: String,
    /// Worker count.
    pub workers: usize,
    /// Workers whose affinity mask the kernel accepted.
    pub pinned_workers: usize,
    /// Measured ops completed (equals the configured `measure_ops`).
    pub ops: u64,
    /// Measured ops declared `AccessKind::Read`.
    pub reads: u64,
    /// Measured ops declared `AccessKind::Write`.
    pub writes: u64,
    /// Earliest worker start to latest worker end, in seconds.
    pub wall_seconds: f64,
    /// Measured ops that crossed a ring to another worker.
    pub migrations: u64,
    /// Measured migrations refused by a full ring and run locally.
    pub ring_full_local: u64,
    /// Ops *executed* by each worker during the measured phase
    /// (occupancy; sums to `ops`).
    pub per_worker_ops: Vec<u64>,
    /// Deepest any migration ring ever got.
    pub ring_depth_hwm: usize,
    /// Epoch callbacks delivered during the measured phase.
    pub epochs: u64,
    /// `RehomeThread` commands received (recorded only: workers stay
    /// pinned, the native analogue of rehoming is the migration itself).
    pub rehomes_recorded: u64,
    /// Order-independent digest of the final workload state.
    pub state_digest: u64,
    /// Spin-lock acquisitions that found a shard lock held.
    pub lock_contention: u64,
}

impl NativeMeasurement {
    /// Measured throughput in thousands of ops per second.
    pub fn kops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_seconds.max(1e-9) / 1e3
    }
}

/// A migration message. `Op` asks the receiver to execute stream index
/// `index` on behalf of `submitter`; `Done` releases the submitter.
enum Msg {
    Op { index: u64, submitter: usize },
    Done,
}

/// One phase's claim/completion counters. Op indices `base..base+limit`
/// belong to the phase; `issued` allocates them, `completed` counts ops
/// whose submitter has been released.
struct Phase {
    base: u64,
    limit: u64,
    clock_base: u64,
    issued: AtomicU64,
    completed: AtomicU64,
    measured: bool,
}

impl Phase {
    fn new(base: u64, limit: u64, measured: bool) -> Self {
        Self {
            base,
            limit,
            clock_base: base,
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            measured,
        }
    }

    fn now(&self) -> u64 {
        (self.clock_base + self.completed.load(Ordering::Relaxed)) * CYCLES_PER_OP + 1
    }
}

/// Everything the workers share.
struct Shared<'a> {
    wl: &'a dyn NativeWorkload,
    cfg: &'a NativeConfig,
    host: Mutex<PolicyHost>,
    /// `rings[src][dst]`: written only by `src`, read only by `dst`.
    rings: Vec<Vec<SpscRing<Msg>>>,
    /// Per-worker counter-delta accumulators for the epoch view.
    deltas: Vec<Mutex<CounterDelta>>,
    /// Measured start/end of each worker, as offsets from `origin`.
    spans: Vec<Mutex<(Duration, Duration)>>,
    origin: Instant,
    barrier: Barrier,
    pinned: AtomicUsize,
    reads: AtomicU64,
    writes: AtomicU64,
    migrations: AtomicU64,
    ring_full_local: AtomicU64,
    per_worker_ops: Vec<AtomicU64>,
    epochs: AtomicU64,
    rehomes: AtomicU64,
}

impl<'a> Shared<'a> {
    fn accumulate(&self, worker: usize, delta: &CounterDelta) {
        let mut acc = self.deltas[worker].lock().expect("delta accumulator");
        acc.busy_cycles += delta.busy_cycles;
        acc.idle_cycles += delta.idle_cycles;
        acc.l1_misses += delta.l1_misses;
        acc.l2_misses += delta.l2_misses;
        acc.l2_hits += delta.l2_hits;
        acc.l3_hits += delta.l3_hits;
        acc.l3_misses += delta.l3_misses;
        acc.remote_cache_loads += delta.remote_cache_loads;
        acc.dram_loads += delta.dram_loads;
        acc.operations_completed += delta.operations_completed;
    }

    /// Executes op `index` on `executor` for `submitter`: runs the real
    /// work, reports `ct_end`, and books the occupancy.
    fn execute(&self, phase: &Phase, index: u64, submitter: usize, executor: usize) {
        let op = self.wl.op(index);
        let done = self.wl.execute(&op);
        let delta = synthetic_delta(done.bytes_touched, done.modeled_cycles);
        self.accumulate(executor, &delta);
        let identity = OpIdentity {
            worker: submitter,
            object: op.object,
            key: self.wl.key_of(op.object),
            now: phase.now(),
            kind: op.kind,
        };
        self.host
            .lock()
            .expect("policy host")
            .ct_end(&identity, executor, &delta);
        if phase.measured {
            self.per_worker_ops[executor].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains every ring addressed to `me`: migrated ops are executed
    /// (their `Done` goes into `pending` if the return ring is full);
    /// returns whether a `Done` for `me` arrived.
    fn drain_incoming(&self, phase: &Phase, me: usize, pending: &mut Vec<usize>) -> bool {
        let mut got_done = false;
        for src in 0..self.cfg.workers {
            if src == me {
                continue;
            }
            while let Some(msg) = self.rings[src][me].pop() {
                match msg {
                    Msg::Op { index, submitter } => {
                        self.execute(phase, index, submitter, me);
                        if self.rings[me][submitter].push(Msg::Done).is_err() {
                            pending.push(submitter);
                        }
                    }
                    Msg::Done => got_done = true,
                }
            }
        }
        got_done
    }

    /// Retries `Done` pushes that found a full ring.
    fn flush_pending(&self, me: usize, pending: &mut Vec<usize>) {
        pending.retain(|&dst| self.rings[me][dst].push(Msg::Done).is_err());
    }

    /// Epoch boundary at completed-count `at`: snapshot-and-reset the
    /// per-worker deltas, let the policy speak, apply its commands.
    fn run_epoch(&self, phase: &Phase, at: u64) {
        let deltas: Vec<CounterDelta> = self
            .deltas
            .iter()
            .map(|m| std::mem::take(&mut *m.lock().expect("delta accumulator")))
            .collect();
        let now = (phase.clock_base + at) * CYCLES_PER_OP + 1;
        let commands = self.host.lock().expect("policy host").epoch(now, &deltas);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        for command in commands {
            match command {
                PolicyCommand::RehomeThread { .. } => {
                    // Workers are pinned; rehoming is what the migration
                    // rings already do per-op. Recorded, not acted on.
                    self.rehomes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Submits op `index` from worker `me` and blocks (serving incoming
    /// work) until it completes somewhere.
    fn submit(&self, phase: &Phase, me: usize, index: u64, pending: &mut Vec<usize>) {
        let op = self.wl.op(index);
        if phase.measured {
            match op.kind {
                o2_sim::AccessKind::Read => self.reads.fetch_add(1, Ordering::Relaxed),
                o2_sim::AccessKind::Write => self.writes.fetch_add(1, Ordering::Relaxed),
            };
        }
        let identity = OpIdentity {
            worker: me,
            object: op.object,
            key: self.wl.key_of(op.object),
            now: phase.now(),
            kind: op.kind,
        };
        let placement = self
            .host
            .lock()
            .expect("policy host")
            .place(&identity, self.cfg.workers);
        let dest = match placement {
            Placement::On(core) if core as usize != me => Some(core as usize),
            _ => None,
        };
        match dest {
            None => self.execute(phase, index, me, me),
            Some(dst) => {
                if self.rings[me][dst]
                    .push(Msg::Op {
                        index,
                        submitter: me,
                    })
                    .is_ok()
                {
                    if phase.measured {
                        self.migrations.fetch_add(1, Ordering::Relaxed);
                    }
                    // Closed loop: wait for our Done while serving the
                    // mesh so no pair of waiting workers can deadlock.
                    loop {
                        let got = self.drain_incoming(phase, me, pending);
                        self.flush_pending(me, pending);
                        if got {
                            break;
                        }
                        std::thread::yield_now();
                    }
                } else {
                    // Full ring: run it here rather than block the loop.
                    if phase.measured {
                        self.ring_full_local.fetch_add(1, Ordering::Relaxed);
                    }
                    self.execute(phase, index, me, me);
                }
            }
        }
        let completed = phase.completed.fetch_add(1, Ordering::AcqRel) + 1;
        if phase.measured
            && self.cfg.epoch_every_ops > 0
            && completed % self.cfg.epoch_every_ops == 0
        {
            self.run_epoch(phase, completed);
        }
    }

    /// One phase of worker `me`'s life: claim indices until the phase is
    /// exhausted, then keep serving the mesh until every op completed.
    fn run_phase(&self, phase: &Phase, me: usize, pending: &mut Vec<usize>) {
        loop {
            let got_done = self.drain_incoming(phase, me, pending);
            debug_assert!(!got_done, "Done with no outstanding op");
            self.flush_pending(me, pending);
            let claim = phase.issued.fetch_add(1, Ordering::Relaxed);
            if claim >= phase.limit {
                break;
            }
            self.submit(phase, me, phase.base + claim, pending);
        }
        // Out of ops to submit — but workers still in their loop may
        // migrate to us, so serve the mesh until the phase fully drains.
        while phase.completed.load(Ordering::Acquire) < phase.limit {
            self.drain_incoming(phase, me, pending);
            self.flush_pending(me, pending);
            std::thread::yield_now();
        }
        debug_assert!(pending.is_empty(), "Done in flight after phase drain");
    }

    fn worker_main(&self, me: usize, warmup: &Phase, measured: &Phase) {
        if self.cfg.pin && pin_to_cpu(me) {
            self.pinned.fetch_add(1, Ordering::Relaxed);
        }
        let mut pending: Vec<usize> = Vec::new();
        self.barrier.wait();
        self.run_phase(warmup, me, &mut pending);
        // All warmup ops completed ⇒ no message in flight; the barrier
        // makes the phase switch atomic across workers.
        self.barrier.wait();
        let start = self.origin.elapsed();
        self.run_phase(measured, me, &mut pending);
        let end = self.origin.elapsed();
        *self.spans[me].lock().expect("span slot") = (start, end);
    }
}

/// Runs `workload` under `policy` on real threads and reports what
/// happened. See the module docs for the protocol.
pub fn run_native(
    workload: &dyn NativeWorkload,
    policy: Box<dyn SchedPolicy + Send>,
    cfg: &NativeConfig,
) -> NativeMeasurement {
    let cfg = {
        let mut c = cfg.clone();
        c.workers = c.workers.clamp(1, 64);
        c
    };
    let mut host = PolicyHost::new(policy, &cfg.machine);
    let policy_name = host.name().to_string();
    host.reserve(workload.n_objects() as usize);
    for object in 0..workload.n_objects() {
        host.register(object, &workload.descriptor(object));
    }

    let w = cfg.workers;
    let shared = Shared {
        wl: workload,
        cfg: &cfg,
        host: Mutex::new(host),
        rings: (0..w)
            .map(|_| {
                (0..w)
                    .map(|_| SpscRing::with_capacity(cfg.ring_capacity))
                    .collect()
            })
            .collect(),
        deltas: (0..w)
            .map(|_| Mutex::new(CounterDelta::default()))
            .collect(),
        spans: (0..w)
            .map(|_| Mutex::new((Duration::ZERO, Duration::ZERO)))
            .collect(),
        origin: Instant::now(),
        barrier: Barrier::new(w),
        pinned: AtomicUsize::new(0),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
        migrations: AtomicU64::new(0),
        ring_full_local: AtomicU64::new(0),
        per_worker_ops: (0..w).map(|_| AtomicU64::new(0)).collect(),
        epochs: AtomicU64::new(0),
        rehomes: AtomicU64::new(0),
    };
    let warmup = Phase::new(0, cfg.warmup_ops, false);
    let measured = Phase::new(cfg.warmup_ops, cfg.measure_ops, true);

    std::thread::scope(|scope| {
        for me in 0..w {
            let shared = &shared;
            let warmup = &warmup;
            let measured = &measured;
            scope.spawn(move || shared.worker_main(me, warmup, measured));
        }
    });

    let spans: Vec<(Duration, Duration)> = shared
        .spans
        .iter()
        .map(|m| *m.lock().expect("span slot"))
        .collect();
    let first_start = spans.iter().map(|s| s.0).min().unwrap_or(Duration::ZERO);
    let last_end = spans.iter().map(|s| s.1).max().unwrap_or(Duration::ZERO);
    let ring_depth_hwm = shared
        .rings
        .iter()
        .flatten()
        .map(SpscRing::depth_high_water)
        .max()
        .unwrap_or(0);

    NativeMeasurement {
        policy: policy_name,
        workers: w,
        pinned_workers: shared.pinned.load(Ordering::Relaxed),
        ops: measured.completed.load(Ordering::Relaxed),
        reads: shared.reads.load(Ordering::Relaxed),
        writes: shared.writes.load(Ordering::Relaxed),
        wall_seconds: last_end.saturating_sub(first_start).as_secs_f64(),
        migrations: shared.migrations.load(Ordering::Relaxed),
        ring_full_local: shared.ring_full_local.load(Ordering::Relaxed),
        per_worker_ops: shared
            .per_worker_ops
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        ring_depth_hwm,
        epochs: shared.epochs.load(Ordering::Relaxed),
        rehomes_recorded: shared.rehomes.load(Ordering::Relaxed),
        state_digest: workload.state_digest(),
        lock_contention: workload.lock_contention(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{NativeLookup, NativeLookupSpec};
    use o2_runtime::NullPolicy;

    fn quick_cfg(workers: usize) -> NativeConfig {
        let mut cfg = NativeConfig::new(workers);
        cfg.warmup_ops = 100;
        cfg.measure_ops = 2_000;
        cfg.epoch_every_ops = 500;
        cfg
    }

    #[test]
    fn completes_exactly_the_configured_ops() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(3));
        let m = run_native(&wl, Box::new(NullPolicy), &quick_cfg(2));
        assert_eq!(m.ops, 2_000);
        assert_eq!(m.reads + m.writes, 2_000);
        assert_eq!(m.per_worker_ops.iter().sum::<u64>(), 2_000);
        assert_eq!(m.workers, 2);
        assert_eq!(m.epochs, 4);
        assert_eq!(m.policy, "thread-scheduler");
        assert!(m.wall_seconds >= 0.0);
        assert!(m.kops_per_sec() > 0.0);
    }

    #[test]
    fn null_policy_never_migrates() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(3));
        let m = run_native(&wl, Box::new(NullPolicy), &quick_cfg(3));
        assert_eq!(m.migrations, 0);
        assert_eq!(m.ring_full_local, 0);
        assert_eq!(m.ring_depth_hwm, 0);
    }

    #[test]
    fn static_partition_migrates_and_stays_deterministic() {
        let spec = NativeLookupSpec::small(9);
        let run = |workers: usize| {
            let wl = NativeLookup::build(&spec);
            let mut st = o2_runtime::StaticPolicy::new();
            for object in 0..wl.spec().n_dirs {
                st.assign(o2_native_key(&wl, object), object % workers as u32);
            }
            run_native(&wl, Box::new(st), &quick_cfg(workers))
        };
        let a = run(2);
        let b = run(2);
        let c = run(3);
        // Timings differ; the work does not.
        assert_eq!(a.state_digest, b.state_digest);
        assert_eq!(a.state_digest, c.state_digest);
        assert_eq!(a.ops, c.ops);
        assert_eq!(a.reads, c.reads);
        assert_eq!(a.writes, c.writes);
        // With 2+ workers and round-robin homes, some ops must migrate.
        assert!(a.migrations > 0);
    }

    fn o2_native_key(wl: &NativeLookup, object: u32) -> u64 {
        use crate::workload::NativeWorkload;
        wl.key_of(object)
    }

    #[test]
    fn single_worker_runs_degenerately_but_correctly() {
        let wl = NativeLookup::build(&NativeLookupSpec::small(5));
        let m = run_native(&wl, Box::new(NullPolicy), &quick_cfg(1));
        assert_eq!(m.ops, 2_000);
        assert_eq!(m.per_worker_ops, vec![2_000]);
        assert_eq!(m.migrations, 0);
    }

    #[test]
    fn machine_config_has_one_core_per_worker() {
        let cfg = native_machine_config(6);
        assert_eq!(cfg.chips, 1);
        assert_eq!(cfg.cores_per_chip, 6);
        assert!(native_machine_config(500).cores_per_chip <= 64);
    }
}
