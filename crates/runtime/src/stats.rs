//! Run statistics and throughput computation.

use crate::types::Cycles;
use o2_metrics::LatencySummary;

/// Statistics of the event-driven scheduler loop.
///
/// The interesting property these expose: `events_processed` scales with
/// the amount of *work*, not with `cores × cycles` — a machine where 15 of
/// 16 cores are parked processes no more events than a single-core run of
/// the same workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events popped from the queue and dispatched to a core.
    pub events_processed: u64,
    /// Superseded heap entries discarded without dispatching.
    pub stale_events: u64,
    /// Dispatches that woke a core with no runnable thread (migration
    /// arrivals, lock hand-offs, spawns onto a parked core).
    pub park_wakeups: u64,
    /// Times a core was parked (left the event queue entirely).
    pub parks: u64,
    /// Blocked threads handed a lock and woken by a release.
    pub lock_wakeups: u64,
    /// Fault-plan edges applied (window starts and ends each count once).
    pub faults_applied: u64,
    /// Cores taken permanently offline by the fault plan.
    pub cores_offlined: u64,
    /// Core slowdown windows opened by the fault plan.
    pub cores_slowed: u64,
    /// Migration sends retried after a loss on a degraded interconnect.
    pub migration_retries: u64,
    /// Migrations abandoned after the retry budget or timeout ran out.
    pub migration_failures: u64,
    /// Threads drained off an offlined core and re-pinned to a live one.
    pub threads_repinned: u64,
    /// Cycles between each offlining and the arrival of its last drained
    /// thread at the fallback core — how long recovery took.
    pub recovery_cycles: u64,
    /// Threads put to sleep by an [`Action::IdleUntil`](crate::Action)
    /// with a future target (open-loop arrival waits).
    pub sleeps: u64,
    /// Background replica fills completed: objects streamed into a core's
    /// caches while that core had nothing runnable (replica serving's
    /// idle-time data movement). Zero in any saturated run.
    pub replica_fills: u64,
    /// Cycles spent on background replica fills, charged to otherwise
    /// idle cores.
    pub replica_fill_cycles: u64,
    /// Percentiles of per-operation service latency (`ct_start` →
    /// `ct_end`, in cycles on the executing core), from the engine's
    /// fixed-memory latency histogram.
    pub op_latency: LatencySummary,
}

/// Result of running the engine over a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunWindow {
    /// Virtual time at the start of the window.
    pub start: Cycles,
    /// Virtual time at the end of the window.
    pub end: Cycles,
    /// Operations completed during the window (machine-wide).
    pub ops: u64,
    /// Operations completed during the window, per core.
    pub per_core_ops: Vec<u64>,
    /// Core clock frequency in GHz, used to convert cycles to seconds.
    pub clock_ghz: f64,
}

impl RunWindow {
    /// Length of the window in cycles.
    pub fn cycles(&self) -> Cycles {
        self.end.saturating_sub(self.start)
    }

    /// Window length in seconds of virtual time.
    pub fn seconds(&self) -> f64 {
        self.cycles() as f64 / (self.clock_ghz * 1e9)
    }

    /// Operations per second of virtual time.
    pub fn ops_per_second(&self) -> f64 {
        let s = self.seconds();
        if s <= 0.0 {
            0.0
        } else {
            self.ops as f64 / s
        }
    }

    /// Throughput in the units of Figure 4: thousands of resolutions per
    /// second.
    pub fn kops_per_second(&self) -> f64 {
        self.ops_per_second() / 1000.0
    }

    /// Average cycles per completed operation.
    pub fn cycles_per_op(&self) -> f64 {
        if self.ops == 0 {
            f64::INFINITY
        } else {
            self.cycles() as f64 / self.ops as f64
        }
    }

    /// Coefficient of variation of per-core operation counts: 0 means the
    /// load was perfectly balanced across cores.
    pub fn load_imbalance(&self) -> f64 {
        let n = self.per_core_ops.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.per_core_ops.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_core_ops
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> RunWindow {
        RunWindow {
            start: 1_000,
            end: 2_001_000,
            ops: 4_000,
            per_core_ops: vec![1_000, 1_000, 1_000, 1_000],
            clock_ghz: 2.0,
        }
    }

    #[test]
    fn throughput_conversion() {
        let w = window();
        assert_eq!(w.cycles(), 2_000_000);
        // 2M cycles at 2 GHz = 1 ms; 4000 ops in 1 ms = 4M ops/s.
        assert!((w.seconds() - 0.001).abs() < 1e-12);
        assert!((w.ops_per_second() - 4.0e6).abs() < 1.0);
        assert!((w.kops_per_second() - 4000.0).abs() < 1e-6);
        assert!((w.cycles_per_op() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn perfectly_balanced_load_has_zero_imbalance() {
        assert_eq!(window().load_imbalance(), 0.0);
    }

    #[test]
    fn imbalanced_load_is_detected() {
        let mut w = window();
        w.per_core_ops = vec![4000, 0, 0, 0];
        assert!(w.load_imbalance() > 1.0);
    }

    #[test]
    fn zero_ops_gives_infinite_cycles_per_op() {
        let mut w = window();
        w.ops = 0;
        assert!(w.cycles_per_op().is_infinite());
        assert_eq!(w.ops_per_second(), 0.0);
    }

    #[test]
    fn empty_window_is_safe() {
        let w = RunWindow {
            start: 10,
            end: 10,
            ops: 0,
            per_core_ops: vec![],
            clock_ghz: 2.0,
        };
        assert_eq!(w.cycles(), 0);
        assert_eq!(w.ops_per_second(), 0.0);
        assert_eq!(w.load_imbalance(), 0.0);
    }
}
