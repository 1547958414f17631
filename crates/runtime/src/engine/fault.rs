//! The fault plane: a [`FaultPlan`] expanded into a sorted schedule of
//! edges (slowdown windows, interconnect degradation, permanent core
//! offlinings) that the run loop applies when the virtual-time frontier
//! reaches them.

use super::{Engine, Incoming, Sleeper};
use crate::thread::ThreadState;
use crate::types::{CoreId, Cycles, ThreadId};
use o2_sim::{FaultKind, FaultPlan, LinkDegradation};

/// `next_fault_at` when no fault edge is pending: above every real cycle,
/// so the run loop's fault gate is a compare that never passes.
pub(super) const NO_FAULT_PENDING: Cycles = Cycles::MAX;

/// One expanded edge of the fault plan: a window start, a window end, or
/// a permanent offlining, applied when the virtual-time frontier reaches
/// `at`. [`FaultKind`] windows with a duration expand to a start and an
/// end edge.
#[derive(Debug, Clone, Copy)]
pub(super) struct FaultEdge {
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

impl Engine {
    /// Installs a fault plan: expands it into a sorted edge schedule the
    /// run loop consumes. Events targeting out-of-range cores are
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
        self.next_fault_at = edges.first().map_or(NO_FAULT_PENDING, |e| e.at);
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

    /// Applies every pending fault edge at or before `frontier`, in
    /// schedule order.
    pub(super) fn apply_faults_up_to(&mut self, frontier: Cycles) {
        while self.next_fault_at <= frontier {
            let edge = self.fault_edges[self.next_fault_idx];
            self.next_fault_idx += 1;
            self.next_fault_at = self
                .fault_edges
                .get(self.next_fault_idx)
                .map_or(NO_FAULT_PENDING, |e| e.at);
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
    pub(super) fn fallback_core(&self, core: CoreId) -> CoreId {
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
        self.unschedule_core(core);
        self.sched_stats.recovery_cycles += last_ready.saturating_sub(at);
    }
}
