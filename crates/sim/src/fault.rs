//! Declarative, deterministic fault schedules.
//!
//! A [`FaultPlan`] is a seed-derived list of timed hardware misbehaviours
//! — core slowdown over a cycle window, permanent core offlining, and
//! interconnect degradation (extra per-hop latency plus probabilistic
//! loss of migration messages). The plan is pure data: the runtime engine
//! consumes it from its run loop, so the same plan and seed always
//! replay the same faults at the same virtual cycles, on any host and at
//! any `--jobs` count.
//!
//! All quantities are integers (percent, per-mille, cycles) so plans stay
//! `Eq`/hashable and comparisons never touch floating point.

/// What a single scheduled fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The core's cycle costs are multiplied by `percent`/100 for
    /// `duration` cycles (`0` = for the rest of the run). `percent` is
    /// clamped to at least 101 by [`FaultPlan::validate`]; 100 would be a
    /// no-op.
    SlowCore {
        /// The affected core.
        core: u32,
        /// Cost multiplier in percent of nominal (400 = 4x slower).
        percent: u32,
        /// Window length in cycles; `0` means permanent.
        duration: u64,
    },
    /// The core goes offline permanently: it never dispatches again and
    /// its threads drain to the next live core.
    OfflineCore {
        /// The core taken down.
        core: u32,
    },
    /// The interconnect degrades for `duration` cycles (`0` = for the
    /// rest of the run): migration messages are lost with probability
    /// `loss_per_mille`/1000 per send, and every message pays
    /// `extra_cycles_per_hop` additional latency per hop.
    DegradeInterconnect {
        /// Migration-message loss probability in per-mille (0..=1000).
        loss_per_mille: u32,
        /// Additional latency charged per hop while degraded.
        extra_cycles_per_hop: u64,
        /// Window length in cycles; `0` means permanent.
        duration: u64,
    },
}

/// One scheduled fault: `kind` takes effect once the virtual-time
/// frontier reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual cycle at which the fault takes effect.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The steady-state parameters of a degraded interconnect (the expanded
/// form of [`FaultKind::DegradeInterconnect`] the interconnect model
/// consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDegradation {
    /// Migration-message loss probability in per-mille (0..=1000).
    pub loss_per_mille: u32,
    /// Additional latency charged per hop while degraded.
    pub extra_cycles_per_hop: u64,
}

/// A deterministic schedule of hardware faults.
///
/// The default plan is empty and the engine treats it as "no fault plane
/// at all": no gates fire, no random draws happen, and runs are
/// bit-identical to a build without the subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the loss draws of a degraded interconnect. Unused (and
    /// never drawn from) unless a [`FaultKind::DegradeInterconnect`]
    /// window is active.
    pub seed: u64,
    /// The scheduled events, in any order; consumers sort by `at`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, behavior-invisible.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a permanent core offlining at cycle `at`.
    pub fn offline_core(mut self, at: u64, core: u32) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::OfflineCore { core },
        });
        self
    }

    /// Adds a core slowdown window: `percent` of nominal cost (400 = 4x)
    /// for `duration` cycles starting at `at` (`duration` 0 = permanent).
    pub fn slow_core(mut self, at: u64, core: u32, percent: u32, duration: u64) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::SlowCore {
                core,
                percent,
                duration,
            },
        });
        self
    }

    /// Adds an interconnect degradation window starting at `at`.
    pub fn degrade_interconnect(
        mut self,
        at: u64,
        loss_per_mille: u32,
        extra_cycles_per_hop: u64,
        duration: u64,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DegradeInterconnect {
                loss_per_mille,
                extra_cycles_per_hop,
                duration,
            },
        });
        self
    }

    /// Sets the loss-draw seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A seed-derived "fault storm": one core slowdown window, one lossy
    /// interconnect window, and one permanent core offlining, spaced
    /// `spacing` cycles apart starting at `start`. Which cores are hit
    /// and how hard is a pure function of `seed`, so the same seed
    /// always reproduces the same storm.
    pub fn seeded_storm(seed: u64, total_cores: u32, start: u64, spacing: u64) -> Self {
        assert!(total_cores >= 2, "a storm needs at least two cores");
        let draw = |n: u64| splitmix64(seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let slow_core = (draw(1) % u64::from(total_cores)) as u32;
        let slow_percent = 200 + (draw(2) % 4) as u32 * 100; // 2x..5x
        let loss = 100 + (draw(3) % 400) as u32; // 10%..50% per-mille scaled
        let extra = 50 + draw(4) % 200;
        // Offline a different core than the slowed one so both faults bite.
        let dead_core = {
            let c = (draw(5) % u64::from(total_cores)) as u32;
            if c == slow_core {
                (c + 1) % total_cores
            } else {
                c
            }
        };
        FaultPlan::empty()
            .with_seed(seed)
            .slow_core(start, slow_core, slow_percent, spacing * 2)
            .degrade_interconnect(start + spacing, loss, extra, spacing * 2)
            .offline_core(start + 2 * spacing, dead_core)
    }

    /// Checks the plan against a machine with `total_cores` cores.
    /// Returns a description of the first problem found.
    pub fn validate(&self, total_cores: u32) -> Result<(), String> {
        for ev in &self.events {
            match ev.kind {
                FaultKind::SlowCore { core, percent, .. } => {
                    if core >= total_cores {
                        return Err(format!("SlowCore targets core {core} of {total_cores}"));
                    }
                    if percent <= 100 {
                        return Err(format!(
                            "SlowCore percent {percent} must exceed 100 (a speed-up is not a fault)"
                        ));
                    }
                }
                FaultKind::OfflineCore { core } => {
                    if core >= total_cores {
                        return Err(format!("OfflineCore targets core {core} of {total_cores}"));
                    }
                }
                FaultKind::DegradeInterconnect { loss_per_mille, .. } => {
                    if loss_per_mille > 1000 {
                        return Err(format!(
                            "DegradeInterconnect loss {loss_per_mille} per-mille exceeds 1000"
                        ));
                    }
                }
            }
        }
        let offlined = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::OfflineCore { .. }))
            .count() as u32;
        if offlined >= total_cores {
            return Err(format!(
                "plan offlines {offlined} of {total_cores} cores; at least one must survive"
            ));
        }
        Ok(())
    }
}

/// The splitmix64 finalizer: the one-shot mixing function used for all
/// fault-plane randomness (storm generation, interconnect loss draws).
/// Stateless, so draws are reproducible from (seed, draw index) alone.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::empty(), FaultPlan::default());
    }

    #[test]
    fn builders_accumulate_events() {
        let plan = FaultPlan::empty()
            .slow_core(1_000, 2, 400, 50_000)
            .degrade_interconnect(2_000, 250, 100, 10_000)
            .offline_core(3_000, 1);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[2].at, 3_000);
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::empty().offline_core(0, 9).validate(4).is_err());
        assert!(FaultPlan::empty()
            .slow_core(0, 0, 100, 0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::empty()
            .degrade_interconnect(0, 1500, 0, 0)
            .validate(4)
            .is_err());
        // Offlining every core leaves the work nowhere to go.
        let all_dead = FaultPlan::empty()
            .offline_core(0, 0)
            .offline_core(0, 1)
            .offline_core(0, 2)
            .offline_core(0, 3);
        assert!(all_dead.validate(4).is_err());
    }

    #[test]
    fn seeded_storm_is_deterministic_and_valid() {
        let a = FaultPlan::seeded_storm(7, 16, 100_000, 200_000);
        let b = FaultPlan::seeded_storm(7, 16, 100_000, 200_000);
        assert_eq!(a, b);
        assert!(a.validate(16).is_ok());
        assert_eq!(a.events.len(), 3);
        // A different seed produces a different storm.
        let c = FaultPlan::seeded_storm(8, 16, 100_000, 200_000);
        assert_ne!(a, c);
    }
}
