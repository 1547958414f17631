//! The event source: *when* each core runs next.
//!
//! One `BinaryHeap` of `(wake_cycle, core)` entries plus `sched_wake`,
//! the wake cycle each core is currently scheduled at. A core holds at
//! most one live entry; re-waking it earlier pushes a second entry and
//! the superseded one is discarded when it surfaces (`stale_events`).
//! This is the only module that knows a heap exists — the executor, the
//! epoch code and the fault plane schedule through [`Engine::wake_core`]
//! and never see the queue.
//!
//! In debug builds every event taken from the heap, and every run-ahead
//! decision, is checked against an O(cores) minimum scan of `sched_wake`
//! — the smallest-clock lockstep the queue replaced, kept as the oracle.
//! Release builds compile the scan out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Engine;
use crate::error::EngineError;
use crate::types::{CoreId, Cycles};

/// Sentinel in `sched_wake` marking a parked core (no pending wake).
/// `Cycles::MAX` is unreachable as a real wake cycle.
const PARKED: Cycles = Cycles::MAX;

/// The engine's event queue.
pub(super) struct EventQueue {
    /// `(wake_cycle, core)` entries, popped smallest first (ties to the
    /// lower core id). May hold stale entries.
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
    /// The wake cycle each core is currently scheduled at ([`PARKED`]
    /// while parked). A heap entry is live iff it equals its core's
    /// `sched_wake`.
    sched_wake: Vec<Cycles>,
}

impl EventQueue {
    pub(super) fn new(cores: usize) -> Self {
        Self {
            heap: BinaryHeap::new(),
            sched_wake: vec![PARKED; cores],
        }
    }

    /// The debug-build oracle: the earliest scheduled `(wake, core)` found
    /// by scanning every core, with no queue involved.
    fn min_by_scan(&self) -> Option<(Cycles, usize)> {
        self.sched_wake
            .iter()
            .enumerate()
            .filter(|&(_, &wake)| wake != PARKED)
            .map(|(core, &wake)| (wake, core))
            .min()
    }
}

impl Engine {
    /// Schedules (or re-schedules, if `at` is earlier than the pending
    /// entry) a wake-up for `core`. Never moves a wake-up later: a core
    /// already scheduled to act at or before `at` is left alone.
    pub(super) fn wake_core(&mut self, core: usize, at: Cycles) {
        let at = at.max(self.cores[core].clock);
        // A parked core's sentinel compares above every real cycle, so one
        // compare covers both "parked" and "pending but later".
        if at < self.events.sched_wake[core] {
            self.events.sched_wake[core] = at;
            self.events.heap.push(Reverse((at, core)));
        }
    }

    /// Drops `core`'s pending wake-up, if any (its heap entry goes stale).
    pub(super) fn unschedule_core(&mut self, core: usize) {
        self.events.sched_wake[core] = PARKED;
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

    /// The next valid pending event: peeks the heap, lazily discarding
    /// stale entries (superseded by an earlier re-wake). Its wake cycle is
    /// the frontier the fault and epoch gates compare against — parked
    /// cores are conceptually *at* the frontier, so they never hold an
    /// epoch back. The entry is not consumed: pair with
    /// [`Engine::take_event`] to dispatch it.
    fn next_valid_event(&mut self) -> Option<(Cycles, usize)> {
        loop {
            let &Reverse((wake, core)) = self.events.heap.peek()?;
            if self.events.sched_wake[core] == wake {
                return Some((wake, core));
            }
            self.events.heap.pop();
            self.sched_stats.stale_events += 1;
        }
    }

    /// Consumes the event returned by [`Engine::next_valid_event`].
    fn take_event(&mut self, wake: Cycles, core: usize) {
        debug_assert_eq!(
            Some((wake, core)),
            self.events.min_by_scan(),
            "dispatching an event that is not the earliest scheduled wake"
        );
        let popped = self.events.heap.pop();
        debug_assert_eq!(popped, Some(Reverse((wake, core))));
        self.events.sched_wake[core] = PARKED;
        self.sched_stats.events_processed += 1;
    }

    /// The main loop: dispatches events strictly before `limit` until
    /// `ops_target` operations have completed or every thread exits.
    ///
    /// Each round peeks the frontier (the next valid event), applies the
    /// fault edges and fires the epoch boundaries it has reached, then
    /// takes the event and dispatches its core. Two details are part of
    /// the pinned dispatch order:
    ///
    /// 1. The fault and epoch gates belong to the dispatch that moved the
    ///    frontier, so a run never opens with them: a boundary the
    ///    previous run's `limit` held back fires after this run's first
    ///    dispatch.
    /// 2. *Run-ahead*: when a dispatched core's next wake is provably the
    ///    global minimum — it precedes the raw heap head (a lower bound
    ///    on every valid entry), the next fault edge, the next epoch
    ///    boundary and the run limit — the engine dispatches it again
    ///    directly, skipping a push/pop round-trip whose outcome is
    ///    already known.
    pub(super) fn run_loop(&mut self, limit: Cycles, ops_target: u64) -> Result<(), EngineError> {
        self.prime_event_queue();
        if self.live_threads == 0 || self.total_ops >= ops_target {
            return Ok(());
        }
        let mut first = true;
        loop {
            let mut head = self.next_valid_event();
            if !first {
                if let Some((frontier, _)) = head {
                    if frontier >= self.next_fault_at {
                        // Fault edges may park the head's core (an
                        // offlining) or wake another one (the drain), so
                        // the head must be re-peeked.
                        self.apply_faults_up_to(frontier);
                        head = self.next_valid_event();
                    }
                }
                if let Some((frontier, _)) = head {
                    if frontier >= self.next_epoch {
                        // Epoch commands can wake a parked core (a thread
                        // rehomed onto it), which may precede the
                        // pre-epoch head — re-peek so the minimum is what
                        // gets dispatched.
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
                if self.events.sched_wake[core] != PARKED {
                    self.wake_core(core, next);
                    break;
                }
                if next < self.next_epoch
                    && next < self.next_fault_at
                    && next < limit
                    && self.total_ops < ops_target
                    && self.live_threads > 0
                {
                    let is_min = match self.events.heap.peek() {
                        None => true,
                        Some(&Reverse(raw_head)) => (next, core) < raw_head,
                    };
                    if is_min {
                        // The fault gate (frontier < next_fault_at), the
                        // epoch check (frontier < next_epoch) and the pop
                        // (this entry is the minimum) are all decided;
                        // dispatch again without touching the queue.
                        debug_assert!(
                            self.events
                                .min_by_scan()
                                .map_or(true, |earliest| (next, core) < earliest),
                            "run-ahead past an earlier scheduled wake"
                        );
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
    pub(super) fn settle_idle_cores(&mut self, up_to: Cycles) {
        for i in 0..self.cores.len() {
            let c = &self.cores[i];
            if c.current.is_none() && c.run_queue.is_empty() && c.clock < up_to {
                let target = up_to.min(self.events.sched_wake[i]);
                if target > c.clock {
                    let idle = target - c.clock;
                    self.cores[i].clock = target;
                    self.machine.counters_mut(i as CoreId).idle_cycles += idle;
                }
            }
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::policy::NullPolicy;
    use o2_sim::{Machine, MachineConfig};

    /// The oracle is live: if `sched_wake` and the heap ever disagree —
    /// here a wake recorded for core 2 that never reached the heap, as a
    /// scheduling path bypassing `wake_core` would leave it — taking the
    /// heap's head trips the scan check instead of dispatching out of
    /// order.
    #[test]
    #[should_panic(expected = "not the earliest scheduled wake")]
    fn dispatching_a_non_minimum_event_trips_the_debug_oracle() {
        let machine = Machine::new(MachineConfig::quad4());
        let mut e = Engine::new(machine, Box::new(NullPolicy), RuntimeConfig::default());
        e.wake_core(0, 100);
        e.wake_core(1, 50);
        e.events.sched_wake[2] = 10;
        let (wake, core) = e.next_valid_event().expect("two events are pending");
        assert_eq!((wake, core), (50, 1));
        e.take_event(wake, core);
    }
}
