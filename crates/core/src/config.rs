//! CoreTime configuration.
//!
//! Only the Section-6.2 extension switches and the replication knobs that
//! the presets set to different values are configurable. The thresholds
//! and cost estimates no caller varies are named constants next to the one
//! module that reads each: the benefit test in [`crate::monitor`], the
//! load classes in [`crate::rebalance`], the hot-spot factor in
//! [`crate::pathology`], and the smoothing factor, packing share, epoch
//! signal floor and clustering threshold in [`crate::policy`].

/// Tunable parameters of the CoreTime O2 scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTimeConfig {
    /// Enable replication of read-mostly objects (Section 6.2).
    pub enable_replication: bool,
    /// Maximum **total copies** of a replicated object, the primary
    /// included: `max_replicas = 4` means one primary plus at most three
    /// extra replicas.
    pub max_replicas: u32,
    /// Operations per epoch above which a read-mostly object is considered
    /// hot enough to replicate.
    pub replication_hot_ops: u64,
    /// Serve operations from replicas based on the *measured* per-object
    /// read fraction instead of the static `read_mostly` hint: promotion
    /// replicates the hot head proportionally to its heat, a write
    /// invalidates every non-primary copy at `ct_start`, and replica
    /// selection rotates across equal-distance copies. Requires
    /// `enable_replication`. Off by default so the legacy hint-driven
    /// replication path stays bit-identical.
    pub serve_from_replicas: bool,
    /// Measured read fraction (EWMA) at or above which a hot object is
    /// promoted to extra replicas when `serve_from_replicas` is on.
    pub replica_promote_read_fraction: f64,
    /// Measured read fraction (EWMA) below which a replicated object loses
    /// its extra replicas at the epoch boundary. Kept well under the
    /// promotion threshold so a borderline object does not flap between
    /// promoted and demoted every epoch.
    pub replica_demote_read_fraction: f64,
    /// Enable object clustering: objects used together are co-located
    /// (Section 6.2).
    pub enable_clustering: bool,
    /// Enable frequency-based admission when the expensive working set is
    /// larger than the total on-chip budget (Section 6.2).
    pub enable_replacement: bool,
}

impl Default for CoreTimeConfig {
    fn default() -> Self {
        Self {
            enable_replication: false,
            max_replicas: 4,
            replication_hot_ops: 64,
            serve_from_replicas: false,
            replica_promote_read_fraction: 0.90,
            replica_demote_read_fraction: 0.60,
            enable_clustering: false,
            enable_replacement: false,
        }
    }
}

impl CoreTimeConfig {
    /// Enables every Section-6.2 extension (replication, clustering and
    /// frequency-based replacement).
    pub fn with_all_extensions() -> Self {
        Self {
            enable_replication: true,
            enable_clustering: true,
            enable_replacement: true,
            ..Self::default()
        }
    }

    /// Measured-read-fraction replica serving for `n_objects` objects on
    /// `cores` cores, on top of `self`'s other settings: the configuration
    /// of the replica-serving scenarios. `max_replicas` equals the core
    /// count, so the hottest object can earn a local copy everywhere.
    pub fn with_serving(mut self, n_objects: u64, cores: u32) -> Self {
        self.enable_replication = true;
        self.serve_from_replicas = true;
        self.max_replicas = cores;
        // The scale tier's epochs see a few hundred ops total, so the Zipf
        // head musters tens of ops per epoch, not the hint-planner's 64: a
        // much lower heat unit lets promotion spread the head across the
        // machine in one epoch. The floor scales with the object count: a
        // Zipf(1.1) head over 1e7 objects is colder and wider than over
        // 1e5, so floor 2 would over-fill the replica set with barely-warm
        // objects and churn it.
        self.replication_hot_ops = match n_objects {
            n if n < 1_000_000 => 2,
            n if n < 10_000_000 => 4,
            _ => 8,
        };
        // The promote gate sits below the default 0.90 because the per-op
        // EWMA dips to ~0.67 right after each write even on a 95%-read
        // object; 0.60/0.40 keeps the hysteresis band while tolerating that
        // jitter, so a lone write costs one invalidation but not a round of
        // migrations before the demand-fill re-qualifies.
        self.replica_promote_read_fraction = 0.60;
        self.replica_demote_read_fraction = 0.40;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_replicas == 0 {
            return Err("max_replicas must be at least 1".into());
        }
        if self.serve_from_replicas && !self.enable_replication {
            return Err("serve_from_replicas requires enable_replication".into());
        }
        if !(0.0..=1.0).contains(&self.replica_promote_read_fraction)
            || !(0.0..=1.0).contains(&self.replica_demote_read_fraction)
        {
            return Err("replica read-fraction thresholds must be in [0, 1]".into());
        }
        if self.replica_demote_read_fraction > self.replica_promote_read_fraction {
            return Err(
                "replica_demote_read_fraction must not exceed the promote threshold".into(),
            );
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
        CoreTimeConfig::with_all_extensions().validate().unwrap();
    }

    #[test]
    fn extensions_preset_enables_everything() {
        let c = CoreTimeConfig::with_all_extensions();
        assert!(c.enable_replication && c.enable_clustering && c.enable_replacement);
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
        let mut c = CoreTimeConfig::default();
        c.max_replicas = 0;
        assert!(c.validate().is_err());
        let mut c = CoreTimeConfig::default();
        c.serve_from_replicas = true;
        assert!(c.validate().is_err(), "serving needs enable_replication");
        c.enable_replication = true;
        assert!(c.validate().is_ok());
        c.replica_demote_read_fraction = 0.95;
        assert!(c.validate().is_err(), "demote above promote must fail");
        let mut c = CoreTimeConfig::default();
        c.replica_promote_read_fraction = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn serving_scales_its_heat_floor_with_the_object_count() {
        let floor = |n| {
            let c = CoreTimeConfig::default().with_serving(n, 16);
            c.validate().unwrap();
            assert_eq!(c.max_replicas, 16);
            c.replication_hot_ops
        };
        assert_eq!(
            [floor(10_000), floor(1_000_000), floor(10_000_000)],
            [2, 4, 8]
        );
    }

    #[test]
    fn extensions_preset_keeps_replica_serving_off() {
        // The legacy hint-driven replication path (what the golden storms
        // pin) must stay the default even with every extension enabled;
        // measured-read-fraction serving is a separate opt-in.
        assert!(!CoreTimeConfig::with_all_extensions().serve_from_replicas);
    }
}
