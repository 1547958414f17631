//! Runtime configuration: migration costs, polling, locking and epoch
//! parameters. The costs no caller varies (lock, yield and migration-retry
//! cycles) are constants in `engine/exec.rs`, the one module that charges
//! them.

use crate::types::Cycles;

/// Tunable parameters of the cooperative runtime.
///
/// The defaults are calibrated so that a migrate-out/migrate-back round
/// trip (save context, transfer, destination poll delay, restore context,
/// twice) costs roughly the 2000 cycles the paper measured on the AMD
/// system; the `table_latency` harness verifies this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Cycles to save a thread context into the shared migration buffer.
    pub save_context_cycles: Cycles,
    /// Cycles to restore a thread context from the migration buffer.
    pub restore_context_cycles: Cycles,
    /// Interval at which a destination core polls its migration inbox; on
    /// average a migrating thread waits half of this on top of the
    /// save/transfer/restore costs.
    pub poll_interval_cycles: Cycles,
    /// Whether a migrated thread returns to its home core after `ct_end`.
    /// The paper's `ct_end` only marks the thread "ready to run on another
    /// core"; leaving it where it is until the next `ct_start` decides a
    /// destination saves one migration per operation, so this defaults to
    /// `false`.
    pub return_home_after_op: bool,
    /// Interval between policy epochs, where a policy sees the machine-wide
    /// counters and may issue commands.
    pub epoch_cycles: Cycles,
    /// Round-robin quantum for threads sharing a core.
    pub quantum_cycles: Cycles,
    /// When `true`, a thread that finds a lock held *blocks* (its core can
    /// park) and the holder's release wakes it, instead of the default
    /// paper-faithful spinning. Spinning burns cycles and coherence
    /// traffic; blocking models a runtime with sleeping mutexes.
    pub blocking_locks: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            save_context_cycles: 400,
            restore_context_cycles: 400,
            poll_interval_cycles: 400,
            return_home_after_op: false,
            epoch_cycles: 200_000,
            quantum_cycles: 50_000,
            blocking_locks: false,
        }
    }
}

impl RuntimeConfig {
    /// Expected one-way migration cost excluding the interconnect transfer:
    /// context save + average poll delay + context restore.
    pub fn expected_migration_cycles(&self) -> Cycles {
        self.save_context_cycles + self.poll_interval_cycles / 2 + self.restore_context_cycles
    }

    /// Scales every migration-related cost so that the expected one-way
    /// migration cost becomes approximately `target` cycles. Used by the
    /// migration-cost ablation (Section 6.1 discusses how hardware support
    /// such as active messages could reduce this cost).
    pub fn with_migration_cost(mut self, target: Cycles) -> Self {
        let current = self.expected_migration_cycles().max(1);
        let scale = target as f64 / current as f64;
        self.save_context_cycles = ((self.save_context_cycles as f64) * scale).round() as u64;
        self.restore_context_cycles = ((self.restore_context_cycles as f64) * scale).round() as u64;
        self.poll_interval_cycles =
            (((self.poll_interval_cycles as f64) * scale).round() as u64).max(2);
        self
    }

    /// Makes contended locks block (and park their core) instead of
    /// spinning; the holder's release wakes the first waiter.
    pub fn with_blocking_locks(mut self) -> Self {
        self.blocking_locks = true;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_cycles == 0 {
            return Err("epoch_cycles must be positive".into());
        }
        if self.quantum_cycles == 0 {
            return Err("quantum_cycles must be positive".into());
        }
        if self.poll_interval_cycles == 0 {
            return Err("poll_interval_cycles must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_migration_round_trip_is_about_2000_cycles() {
        let cfg = RuntimeConfig::default();
        let one_way = cfg.expected_migration_cycles();
        assert!(
            (1500..=2500).contains(&(2 * one_way)),
            "expected ~2000 cycle round trip, got {}",
            2 * one_way
        );
        cfg.validate().unwrap();
    }

    #[test]
    fn with_migration_cost_scales_towards_target() {
        let cfg = RuntimeConfig::default().with_migration_cost(8000);
        let c = cfg.expected_migration_cycles();
        assert!((7000..=9000).contains(&c), "got {c}");

        let cheap = RuntimeConfig::default().with_migration_cost(200);
        let c = cheap.expected_migration_cycles();
        assert!(c <= 400, "got {c}");
        cheap.validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_intervals() {
        let mut cfg = RuntimeConfig::default();
        cfg.epoch_cycles = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RuntimeConfig::default();
        cfg.quantum_cycles = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RuntimeConfig::default();
        cfg.poll_interval_cycles = 0;
        assert!(cfg.validate().is_err());
    }
}
