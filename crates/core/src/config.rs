//! CoreTime configuration.
//!
//! Only replica serving is configurable, because it is the one thing the
//! scenarios vary: off for the paper's figures, on (with a heat floor
//! that grows with the object count) for the scale and web scenarios. The
//! thresholds and cost estimates no caller varies are named constants
//! next to the one module that reads each: the benefit test in
//! [`crate::monitor`], the promote/demote read fractions in
//! [`crate::replication`], and the smoothing factor, packing share and
//! slowdown factor in [`crate::policy`].

/// Tunable parameters of the CoreTime O2 scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreTimeConfig {
    /// Serve reads from replicas of the hot read-mostly head (Section
    /// 6.2), judged by each object's *measured* read fraction: promotion
    /// replicates the head proportionally to its heat, a write invalidates
    /// every non-primary copy at `ct_start`, and replica selection rotates
    /// across equal-distance copies. Off by default: every operation on an
    /// assigned object then migrates to its one home.
    pub serve_from_replicas: bool,
    /// Operations per epoch at or above which an object is hot enough to
    /// earn replicas under serving; an object earns one copy per multiple
    /// of it, up to one per core. Read only when serving is on.
    pub replication_hot_ops: u64,
}

impl Default for CoreTimeConfig {
    /// Serving off; the heat floor is the one [`Self::with_serving`] picks
    /// below a million objects.
    fn default() -> Self {
        Self {
            serve_from_replicas: false,
            replication_hot_ops: 2,
        }
    }
}

impl CoreTimeConfig {
    /// Measured-read-fraction replica serving for `n_objects` objects, on
    /// top of `self`: the configuration of the replica-serving scenarios.
    pub fn with_serving(mut self, n_objects: u64) -> Self {
        self.serve_from_replicas = true;
        // The scale tier's epochs see a few hundred ops total, so the Zipf
        // head musters tens of ops per epoch: a heat unit of a few ops
        // lets promotion spread the head across the machine in one epoch.
        // The floor scales with the object count: a Zipf(1.1) head over
        // 1e7 objects is colder and wider than over 1e5, so floor 2 would
        // over-fill the replica set with barely-warm objects and churn it.
        self.replication_hot_ops = match n_objects {
            n if n < 1_000_000 => 2,
            n if n < 10_000_000 => 4,
            _ => 8,
        };
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication_hot_ops == 0 {
            return Err("replication_hot_ops must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        CoreTimeConfig::default().validate().unwrap();
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

    #[test]
    fn validate_rejects_bad_values() {
        let mut c = CoreTimeConfig::default().with_serving(1);
        assert!(c.validate().is_ok());
        c.replication_hot_ops = 0;
        assert!(c.validate().is_err(), "a zero heat floor must fail");
    }

    #[test]
    fn serving_scales_its_heat_floor_with_the_object_count() {
        let floor = |n| {
            let c = CoreTimeConfig::default().with_serving(n);
            c.validate().unwrap();
            assert!(c.serve_from_replicas);
            c.replication_hot_ops
        };
        assert_eq!(
            [floor(10_000), floor(1_000_000), floor(10_000_000)],
            [2, 4, 8]
        );
    }
}
