//! CoreTime configuration.
//!
//! Only one switch is configurable, because it is the one thing the
//! scenarios vary: whether an operation on a healthy core runs where its
//! thread is. It is off for the paper's figures and on for the scale and
//! web scenarios. The thresholds and cost estimates no caller varies are
//! named constants next to the one module that reads each: the benefit
//! test in [`crate::monitor`], and the smoothing factor, packing share and
//! slowdown factor in [`crate::policy`].

/// Tunable parameters of the CoreTime O2 scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreTimeConfig {
    /// Run every operation where its thread is while the thread's core is
    /// not avoided by the fault plane; an avoided core's operations follow
    /// the migrate-to-home rule. Off by default: every operation on an
    /// assigned object then migrates to its home.
    pub run_in_place: bool,
}

impl CoreTimeConfig {
    /// The configuration of the scale and web scenarios: operations on
    /// healthy cores run in place.
    pub fn in_place() -> Self {
        Self { run_in_place: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_sets_the_one_switch() {
        assert!(!CoreTimeConfig::default().run_in_place);
        assert!(CoreTimeConfig::in_place().run_in_place);
    }

    #[test]
    fn benefit_test_matches_the_papers_criterion() {
        use crate::monitor::migration_is_beneficial;
        // 250 misses/op at ~120 cycles each is far more than 2000 cycles.
        assert!(migration_is_beneficial(250.0));
        // 4 misses/op is under the floor.
        assert!(!migration_is_beneficial(4.0));
        // 10 misses/op clears the floor but not the cost comparison
        // (10 * 120 = 1200 < 2000).
        assert!(!migration_is_beneficial(10.0));
    }
}
