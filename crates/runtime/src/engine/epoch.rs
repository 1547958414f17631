//! Policy epochs, the commands they return, and background replica
//! fills — the work the engine does *between* operations on the policy's
//! behalf.

use super::{Engine, Incoming};
use crate::policy::{EpochView, PolicyCommand};
use crate::thread::ThreadState;
use crate::types::{CoreId, Cycles};
use o2_sim::AccessKind;

impl Engine {
    /// Fires every epoch boundary the virtual-time frontier has reached.
    /// The frontier is the wake cycle of the next pending event, peeked by
    /// the run loop; parked cores sit at the frontier by definition and
    /// never delay an epoch. A single long action can carry the frontier
    /// across several boundaries at once, so this catches up in a loop —
    /// every boundary fires exactly once, in order, against the one peeked
    /// frontier. Commands may schedule wake-ups as early as the boundary
    /// itself, so the run loop re-peeks afterwards.
    ///
    /// `limit` is the current run's cycle bound: idle cores never advance
    /// past the limit, so while any core is idle no boundary beyond the
    /// limit may fire (nor may idle clocks be settled past it).
    pub(super) fn catch_up_epochs(&mut self, frontier: Cycles, limit: Cycles) {
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

    /// Whether `core` should start its next queued background fill now:
    /// only when the gap until the earliest pending arrival (inbox or
    /// sleeper) covers a conservative estimate of the fill's streaming
    /// cost, so a fill never sits in front of work that is about to
    /// land. With no pending arrival the core is fully idle and any fill
    /// may run.
    pub(super) fn fill_ready(&self, core: usize) -> bool {
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

    /// Streams one queued background fill into `core_idx`'s caches: a
    /// plain read of the object's bytes through the normal memory system
    /// (so directory state, sharing downgrades and streaming discounts are
    /// all the real ones), charged to the core's clock. Only ever called
    /// when the core has nothing runnable, so the cost lands in what would
    /// have been an idle gap. Returns the core's advanced clock.
    pub(super) fn run_one_fill(&mut self, core_idx: usize) -> Cycles {
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
}
