//! The executor: *what* a core does when the event source runs it.
//!
//! [`Engine::step_core`] accepts arrivals, picks a thread, fetches its
//! next action and executes it; everything an action can do — memory
//! accesses, locks, `ct_start`/`ct_end`, migration, sleeping — is here.
//! The executor never sees the event queue: it reports the core's next
//! wake cycle and calls [`Engine::wake_core`] when it makes work for
//! another core.

use super::{Engine, Incoming, Sleeper};
use crate::action::Action;
use crate::behaviour::BehaviourCtx;
use crate::error::EngineError;
use crate::policy::{OpContext, Placement};
use crate::thread::{OpRecord, ThreadState};
use crate::types::{CoreId, Cycles, LockId, ObjectId, ThreadId};
use o2_sim::AccessKind;

/// Cycles burned per spin-lock retry while the lock is held by a thread
/// on a *different* core.
const LOCK_SPIN_CYCLES: Cycles = 60;
/// Cycles charged for a successful lock acquire / release, in addition to
/// the memory access on the lock word.
const LOCK_OP_CYCLES: Cycles = 20;
/// Cycles charged for a voluntary yield.
const YIELD_CYCLES: Cycles = 20;
/// How many times a migration send is retried when the context message is
/// lost on a degraded interconnect (fault injection). The first attempt is
/// not a retry.
const MIGRATION_MAX_RETRIES: u32 = 4;
/// Backoff charged on the source core before the first migration retry;
/// doubles on each subsequent retry.
const MIGRATION_RETRY_BACKOFF_CYCLES: Cycles = 200;
/// Total backoff budget for one migration: once the accumulated backoff
/// would pass this, the migration times out and the operation runs where
/// the thread already is.
const MIGRATION_TIMEOUT_CYCLES: Cycles = 8_000;

impl Engine {
    /// Advances one core by one scheduling decision or action and returns
    /// the cycle at which it next needs to run (`None` parks the core).
    pub(super) fn step_core(&mut self, core_idx: usize) -> Result<Option<Cycles>, EngineError> {
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
    pub(super) fn scaled_cycles(&self, core_idx: usize, n: Cycles) -> Cycles {
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

    /// The next cycle at which `core` has something to do: immediately if
    /// it has runnable threads (or a background fill that fits the gap
    /// before its next arrival), at the earliest inbox arrival or sleeper
    /// wake if it is only waiting, `None` (park) otherwise.
    pub(super) fn core_next_wake(&self, core: usize) -> Option<Cycles> {
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
                let cost = self.scaled_cycles(core_idx, YIELD_CYCLES);
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
            let cost = self.scaled_cycles(core_idx, LOCK_OP_CYCLES)
                + self.machine.access(core_id, addr, 8, AccessKind::Write);
            self.cores[core_idx].clock += cost;
            self.machine.counters_mut(core_id).busy_cycles +=
                self.scaled_cycles(core_idx, LOCK_OP_CYCLES);
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
                let cost = self.scaled_cycles(core_idx, LOCK_SPIN_CYCLES)
                    + self.machine.access(core_id, addr, 8, AccessKind::Read);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles +=
                    self.scaled_cycles(core_idx, LOCK_SPIN_CYCLES);
                self.threads[tid].stats.lock_wait_cycles += cost;
                self.threads[tid].state = ThreadState::Blocked;
                self.locks.push_waiter(lock, tid);
                self.cores[core_idx].current = None;
            } else if holder_here && !self.cores[core_idx].run_queue.is_empty() {
                // Spinning would deadlock a cooperative core: yield to let
                // the holder make progress.
                let cost = self.scaled_cycles(core_idx, YIELD_CYCLES);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles += cost;
                self.cores[core_idx].run_queue.push_back(tid);
                self.cores[core_idx].current = None;
            } else {
                // Spin: re-read the lock word and burn the retry cost.
                let cost = self.scaled_cycles(core_idx, LOCK_SPIN_CYCLES)
                    + self.machine.access(core_id, addr, 8, AccessKind::Read);
                self.cores[core_idx].clock += cost;
                self.machine.counters_mut(core_id).busy_cycles +=
                    self.scaled_cycles(core_idx, LOCK_SPIN_CYCLES);
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
        let cost = self.scaled_cycles(core_idx, LOCK_OP_CYCLES)
            + self.machine.access(core_id, addr, 8, AccessKind::Write);
        self.cores[core_idx].clock += cost;
        self.machine.counters_mut(core_id).busy_cycles +=
            self.scaled_cycles(core_idx, LOCK_OP_CYCLES);
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
            if valid && dest != core_id {
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
        if (self.cfg.return_home_after_op || rehome) && home != core_id {
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
    /// on the source core) up to `MIGRATION_MAX_RETRIES` attempts or the
    /// `MIGRATION_TIMEOUT_CYCLES` budget, whichever runs out first. An
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
            let mut backoff = MIGRATION_RETRY_BACKOFF_CYCLES;
            let mut waited: Cycles = 0;
            for _ in 0..MIGRATION_MAX_RETRIES {
                if waited.saturating_add(backoff) > MIGRATION_TIMEOUT_CYCLES {
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
}
