//! Per-core hardware event counters.
//!
//! CoreTime relies on AMD event counters to detect objects that are
//! expensive to fetch and to detect overloaded cores (Section 4, "Runtime
//! monitoring"). The simulator maintains the equivalent counters for every
//! event it charges cycles for, and exposes them through cheap copyable
//! snapshots so a scheduling policy can compute deltas across an operation
//! or an epoch, exactly as the paper's runtime does with raw counter reads.

/// Event counters for a single core.
///
/// All fields are cumulative since the machine was created (or since the
/// last [`CoreCounters::reset`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Cycles spent executing work (compute + memory stalls).
    pub busy_cycles: u64,
    /// Cycles spent with no runnable thread.
    pub idle_cycles: u64,
    /// Loads/stores that hit in the local L1.
    pub l1_hits: u64,
    /// Loads/stores that missed in the local L1.
    pub l1_misses: u64,
    /// Accesses satisfied by the local L2.
    pub l2_hits: u64,
    /// Accesses that missed in the local L2.
    pub l2_misses: u64,
    /// Accesses satisfied by the chip-local shared L3.
    pub l3_hits: u64,
    /// Accesses that missed in the chip-local L3.
    pub l3_misses: u64,
    /// Accesses satisfied by a cache belonging to another core or chip.
    pub remote_cache_loads: u64,
    /// Accesses satisfied by DRAM.
    pub dram_loads: u64,
    /// Lines invalidated in other caches because this core wrote them.
    pub invalidations_sent: u64,
    /// Lines invalidated in this core's caches by another core's write.
    pub invalidations_received: u64,
    /// Interconnect messages originated by this core (coherence plus data).
    pub interconnect_messages: u64,
    /// Threads migrated onto this core.
    pub migrations_in: u64,
    /// Threads migrated away from this core.
    pub migrations_out: u64,
    /// Operations (annotated regions) completed on this core.
    pub operations_completed: u64,
}

impl CoreCounters {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total cache misses visible to software: accesses that left the
    /// core's private caches (the signal CoreTime attributes to objects).
    pub fn private_cache_misses(&self) -> u64 {
        self.l2_misses
    }

    /// Loads that left the chip entirely (remote caches or DRAM).
    pub fn off_chip_loads(&self) -> u64 {
        self.remote_cache_loads + self.dram_loads
    }

    /// Computes the per-field difference `self - earlier`, saturating at
    /// zero so that a reset between snapshots never produces garbage.
    pub fn delta_since(&self, earlier: &CoreCounters) -> CounterDelta {
        CounterDelta {
            busy_cycles: self.busy_cycles.saturating_sub(earlier.busy_cycles),
            idle_cycles: self.idle_cycles.saturating_sub(earlier.idle_cycles),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            l3_hits: self.l3_hits.saturating_sub(earlier.l3_hits),
            l3_misses: self.l3_misses.saturating_sub(earlier.l3_misses),
            remote_cache_loads: self
                .remote_cache_loads
                .saturating_sub(earlier.remote_cache_loads),
            dram_loads: self.dram_loads.saturating_sub(earlier.dram_loads),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            operations_completed: self
                .operations_completed
                .saturating_sub(earlier.operations_completed),
        }
    }

    /// Adds another counter set into this one (used for machine-wide
    /// aggregation).
    pub fn accumulate(&mut self, other: &CoreCounters) {
        self.busy_cycles += other.busy_cycles;
        self.idle_cycles += other.idle_cycles;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l3_hits += other.l3_hits;
        self.l3_misses += other.l3_misses;
        self.remote_cache_loads += other.remote_cache_loads;
        self.dram_loads += other.dram_loads;
        self.invalidations_sent += other.invalidations_sent;
        self.invalidations_received += other.invalidations_received;
        self.interconnect_messages += other.interconnect_messages;
        self.migrations_in += other.migrations_in;
        self.migrations_out += other.migrations_out;
        self.operations_completed += other.operations_completed;
    }
}

/// Difference between two counter snapshots, covering the fields CoreTime's
/// monitoring actually consumes (Section 4): cache misses per operation,
/// idle cycles, DRAM loads and L2 loads per epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterDelta {
    /// Busy cycles elapsed.
    pub busy_cycles: u64,
    /// Idle cycles elapsed.
    pub idle_cycles: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses (accesses that left the private caches).
    pub l2_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Loads satisfied by remote caches.
    pub remote_cache_loads: u64,
    /// Loads satisfied by DRAM.
    pub dram_loads: u64,
    /// Operations completed.
    pub operations_completed: u64,
}

impl CounterDelta {
    /// Misses attributed to fetching the object manipulated during the
    /// window: everything that left the private caches.
    pub fn object_fetch_misses(&self) -> u64 {
        self.l2_misses
    }

    /// Loads that had to leave the chip (remote cache or DRAM).
    pub fn off_chip_loads(&self) -> u64 {
        self.remote_cache_loads + self.dram_loads
    }
}

/// Machine-wide memory-system totals, exposed by `Machine::mem_stats()`
/// the same way scheduler behaviour is exposed by `Engine::sched_stats()`.
///
/// These are *simulator* diagnostics (how hard the host is working per
/// simulated access), not architectural counters: directory probes count
/// slot inspections in the flat coherence directory, and short-circuits
/// count accesses resolved entirely by the L1 fast path without touching
/// the directory or interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Slot inspections performed by the flat coherence directory.
    pub directory_probes: u64,
    /// Lines currently tracked by the directory.
    pub directory_entries: u64,
    /// Allocated directory slots (power of two).
    pub directory_capacity: u64,
    /// Accesses resolved entirely by the L1-hit short-circuit.
    pub l1_short_circuits: u64,
    /// Lines evicted from any cache (L1 drops, L2 spills, L3 victims).
    pub evictions: u64,
}

/// A snapshot of every core's counters, taken at a specific point in
/// virtual time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// One entry per core, indexed by core id.
    pub cores: Vec<CoreCounters>,
}

impl MachineCounters {
    /// Creates an all-zero snapshot for `n` cores.
    pub fn new(n: usize) -> Self {
        Self {
            cores: vec![CoreCounters::default(); n],
        }
    }

    /// Number of cores covered by the snapshot.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Sums every core's counters into a single machine-wide set.
    pub fn aggregate(&self) -> CoreCounters {
        let mut total = CoreCounters::default();
        for c in &self.cores {
            total.accumulate(c);
        }
        total
    }

    /// Per-core deltas relative to an earlier snapshot.
    pub fn delta_since(&self, earlier: &MachineCounters) -> Vec<CounterDelta> {
        self.cores
            .iter()
            .zip(earlier.cores.iter())
            .map(|(now, before)| now.delta_since(before))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreCounters {
        CoreCounters {
            busy_cycles: 1000,
            idle_cycles: 250,
            l1_hits: 90,
            l1_misses: 20,
            l2_hits: 12,
            l2_misses: 8,
            l3_hits: 5,
            l3_misses: 3,
            remote_cache_loads: 1,
            dram_loads: 2,
            invalidations_sent: 4,
            invalidations_received: 6,
            interconnect_messages: 9,
            migrations_in: 1,
            migrations_out: 2,
            operations_completed: 7,
        }
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let before = CoreCounters {
            busy_cycles: 400,
            dram_loads: 1,
            ..Default::default()
        };
        let now = sample();
        let d = now.delta_since(&before);
        assert_eq!(d.busy_cycles, 600);
        assert_eq!(d.dram_loads, 1);
        assert_eq!(d.l2_misses, 8);
        assert_eq!(d.operations_completed, 7);
    }

    #[test]
    fn delta_saturates_rather_than_underflowing() {
        let before = sample();
        let now = CoreCounters::default();
        let d = now.delta_since(&before);
        assert_eq!(d.busy_cycles, 0);
        assert_eq!(d.dram_loads, 0);
    }

    #[test]
    fn aggregate_sums_all_cores() {
        let mut m = MachineCounters::new(3);
        m.cores[0] = sample();
        m.cores[2] = sample();
        let agg = m.aggregate();
        assert_eq!(agg.busy_cycles, 2000);
        assert_eq!(agg.dram_loads, 4);
        assert_eq!(agg.operations_completed, 14);
    }

    #[test]
    fn machine_delta_is_per_core() {
        let mut before = MachineCounters::new(2);
        let mut now = MachineCounters::new(2);
        before.cores[1].dram_loads = 5;
        now.cores[1].dram_loads = 9;
        now.cores[0].busy_cycles = 100;
        let ds = now.delta_since(&before);
        assert_eq!(ds[0].busy_cycles, 100);
        assert_eq!(ds[1].dram_loads, 4);
    }

    #[test]
    fn off_chip_and_fetch_miss_helpers() {
        let d = CounterDelta {
            l2_misses: 10,
            remote_cache_loads: 3,
            dram_loads: 4,
            busy_cycles: 1000,
            ..Default::default()
        };
        assert_eq!(d.object_fetch_misses(), 10);
        assert_eq!(d.off_chip_loads(), 7);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = sample();
        c.reset();
        assert_eq!(c, CoreCounters::default());
    }
}
