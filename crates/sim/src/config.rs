//! Machine configuration: topology, cache geometry and latency parameters.
//!
//! The default configuration, [`MachineConfig::amd16`], reproduces the
//! 16-core AMD system described in Section 5 of the paper: four quad-core
//! 2 GHz Opteron chips connected by a square interconnect, per-core L1 and
//! L2 caches, a shared per-chip L3, and the measured access latencies
//! (L1 3 cycles, L2 14 cycles, L3 75 cycles, remote accesses 127–336
//! cycles).

/// Geometry of a single cache (or of each instance of a replicated cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set). Use a large value for a
    /// fully-associative cache.
    pub associativity: u32,
}

impl CacheGeometry {
    /// Creates a new cache geometry.
    pub const fn new(size_bytes: u64, associativity: u32) -> Self {
        Self {
            size_bytes,
            associativity,
        }
    }

    /// Number of lines this cache can hold for a given line size.
    pub fn lines(&self, line_size: u64) -> u64 {
        self.size_bytes / line_size
    }

    /// Number of sets for a given line size.
    pub fn sets(&self, line_size: u64) -> u64 {
        let lines = self.lines(line_size);
        let ways = u64::from(self.associativity).max(1);
        (lines / ways).max(1)
    }
}

/// Raw latency parameters of the memory system, in cycles.
///
/// The defaults are the measured values reported in Section 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Hit in the local L1 cache.
    pub l1_hit: u64,
    /// Hit in the local L2 cache.
    pub l2_hit: u64,
    /// Hit in the chip-local shared L3 cache.
    pub l3_hit: u64,
    /// Effective cost of an L3 hit that continues a sequential stream
    /// (the L2 prefetcher hides most of the L3 latency for linear scans).
    pub l3_streamed: u64,
    /// Fetch from the cache of another core on the same chip.
    pub remote_cache_same_chip: u64,
    /// Fetch from a cache on an adjacent chip (one interconnect hop).
    pub remote_cache_one_hop: u64,
    /// Fetch from a cache on the diagonally opposite chip (two hops).
    pub remote_cache_two_hops: u64,
    /// Load from the DRAM bank attached to the local chip.
    pub dram_local: u64,
    /// Load from the DRAM bank attached to an adjacent chip.
    pub dram_one_hop: u64,
    /// Load from the most distant DRAM bank (two hops).
    pub dram_two_hops: u64,
    /// Effective cost of a DRAM load that continues a sequential stream
    /// (models hardware prefetching / memory-level parallelism).
    pub dram_streamed: u64,
    /// Effective cost of a remote-cache load that continues a sequential
    /// stream.
    pub remote_streamed: u64,
    /// Cost added to a write that must invalidate copies in other caches,
    /// per invalidated cache.
    pub invalidate_per_copy: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self {
            l1_hit: 3,
            l2_hit: 14,
            l3_hit: 75,
            l3_streamed: 30,
            remote_cache_same_chip: 127,
            remote_cache_one_hop: 200,
            remote_cache_two_hops: 270,
            dram_local: 230,
            dram_one_hop: 280,
            dram_two_hops: 336,
            dram_streamed: 120,
            remote_streamed: 90,
            invalidate_per_copy: 20,
        }
    }
}

/// Interconnect contention model.
///
/// The paper notes that cache-coherence broadcasts "can saturate system
/// interconnects for some workloads"; the linear model adds a latency
/// penalty proportional to recent interconnect utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContentionModel {
    /// No contention modelling: every message pays only its base latency.
    None,
    /// Linear queueing penalty: each message pays an extra
    /// `slope * utilization` cycles where utilization is the fraction of
    /// recent cycles the interconnect was busy (0.0–1.0).
    Linear {
        /// Extra cycles charged at 100% utilization.
        slope: u64,
        /// Length of the utilization accounting window in cycles.
        window: u64,
    },
}

impl Default for ContentionModel {
    fn default() -> Self {
        ContentionModel::Linear {
            slope: 100,
            window: 100_000,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of chips (sockets).
    pub chips: u32,
    /// Cores per chip.
    pub cores_per_chip: u32,
    /// Cache line size in bytes.
    pub line_size: u64,
    /// Per-core L1 data cache.
    pub l1: CacheGeometry,
    /// Per-core L2 cache.
    pub l2: CacheGeometry,
    /// Per-chip shared L3 cache (victim cache of the chip's L2s).
    pub l3: CacheGeometry,
    /// Memory-system latencies.
    pub latency: LatencyConfig,
    /// Interconnect contention model.
    pub contention: ContentionModel,
    /// Core clock frequency in GHz (used to convert cycles to seconds).
    pub clock_ghz: f64,
}

impl MachineConfig {
    /// Most chips a machine may have (the width of the chip mask in a
    /// coherence-directory slot).
    pub const MAX_CHIPS: u32 = 16;
    /// Most cores a machine may have (the width of the directory's core
    /// mask).
    pub const MAX_CORES: u32 = 64;

    /// The 16-core AMD system of Section 5: four quad-core 2 GHz Opteron
    /// chips, 64 KB L1, 512 KB L2 per core, 2 MB shared L3 per chip.
    pub fn amd16() -> Self {
        Self {
            chips: 4,
            cores_per_chip: 4,
            line_size: 64,
            l1: CacheGeometry::new(64 * 1024, 8),
            l2: CacheGeometry::new(512 * 1024, 16),
            l3: CacheGeometry::new(2 * 1024 * 1024, 32),
            latency: LatencyConfig::default(),
            contention: ContentionModel::default(),
            clock_ghz: 2.0,
        }
    }

    /// A small single-chip quad-core machine, as used by the worked example
    /// in Section 2 and Figure 2 of the paper.
    pub fn quad4() -> Self {
        Self {
            chips: 1,
            cores_per_chip: 4,
            ..Self::amd16()
        }
    }

    /// A hypothetical future multicore (Section 6.1): more cores, larger
    /// per-core caches, relatively more expensive DRAM.
    pub fn future(chips: u32, cores_per_chip: u32) -> Self {
        let mut cfg = Self::amd16();
        cfg.chips = chips;
        cfg.cores_per_chip = cores_per_chip;
        cfg.l2 = CacheGeometry::new(1024 * 1024, 16);
        cfg.l3 = CacheGeometry::new(4 * 1024 * 1024, 32);
        cfg.latency.dram_local = 400;
        cfg.latency.dram_one_hop = 480;
        cfg.latency.dram_two_hops = 560;
        cfg.latency.dram_streamed = 200;
        cfg
    }

    /// Total number of cores in the machine.
    pub fn total_cores(&self) -> u32 {
        self.chips * self.cores_per_chip
    }

    /// The chip a core belongs to.
    pub fn chip_of(&self, core: u32) -> u32 {
        core / self.cores_per_chip
    }

    /// The cores belonging to a chip.
    pub fn cores_of_chip(&self, chip: u32) -> impl Iterator<Item = u32> {
        let start = chip * self.cores_per_chip;
        start..start + self.cores_per_chip
    }

    /// Aggregate on-chip memory: all L2s plus all L3s (the AMD L3 is a
    /// victim cache, so L2 and L3 contents are distinct). For the default
    /// configuration this is the 16 MB figure quoted in the paper.
    pub fn aggregate_on_chip_bytes(&self) -> u64 {
        u64::from(self.total_cores()) * self.l2.size_bytes
            + u64::from(self.chips) * self.l3.size_bytes
    }

    /// Per-core cache budget used by the cache-packing algorithm: the
    /// private L2 plus an even share of the chip's L3.
    pub fn per_core_budget_bytes(&self) -> u64 {
        self.l2.size_bytes + self.l3.size_bytes / u64::from(self.cores_per_chip)
    }

    /// Converts a cycle count to seconds at the configured clock rate.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Validates internal consistency; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.chips == 0 || self.cores_per_chip == 0 {
            return Err("machine must have at least one chip and one core per chip".into());
        }
        // The coherence directory keeps a line's holders in a 64-bit core
        // mask and a 16-bit chip mask.
        if self.chips > Self::MAX_CHIPS {
            return Err(format!(
                "{} chips; at most {} are supported",
                self.chips,
                Self::MAX_CHIPS
            ));
        }
        if u64::from(self.chips) * u64::from(self.cores_per_chip) > u64::from(Self::MAX_CORES) {
            return Err(format!(
                "{} x {} cores; at most {} are supported",
                self.chips,
                self.cores_per_chip,
                Self::MAX_CORES
            ));
        }
        if !self.line_size.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_size
            ));
        }
        for (name, geom) in [("L1", self.l1), ("L2", self.l2), ("L3", self.l3)] {
            if geom.size_bytes < self.line_size {
                return Err(format!("{name} smaller than one line"));
            }
            if geom.size_bytes % self.line_size != 0 {
                return Err(format!("{name} size not a multiple of the line size"));
            }
            if geom.associativity == 0 {
                return Err(format!("{name} associativity must be at least 1"));
            }
        }
        if self.clock_ghz <= 0.0 {
            return Err("clock rate must be positive".into());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::amd16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amd16_matches_paper_parameters() {
        let cfg = MachineConfig::amd16();
        assert_eq!(cfg.total_cores(), 16);
        assert_eq!(cfg.chips, 4);
        assert_eq!(cfg.latency.l1_hit, 3);
        assert_eq!(cfg.latency.l2_hit, 14);
        assert_eq!(cfg.latency.l3_hit, 75);
        assert_eq!(cfg.latency.remote_cache_same_chip, 127);
        assert_eq!(cfg.latency.dram_two_hops, 336);
        // 16 x 512 KB L2 + 4 x 2 MB L3 = 16 MB aggregate on-chip memory.
        assert_eq!(cfg.aggregate_on_chip_bytes(), 16 * 1024 * 1024);
        cfg.validate().expect("default config must validate");
    }

    #[test]
    fn per_core_budget_is_l2_plus_l3_share() {
        let cfg = MachineConfig::amd16();
        assert_eq!(cfg.per_core_budget_bytes(), 512 * 1024 + 512 * 1024);
    }

    #[test]
    fn chip_of_maps_cores_to_chips() {
        let cfg = MachineConfig::amd16();
        assert_eq!(cfg.chip_of(0), 0);
        assert_eq!(cfg.chip_of(3), 0);
        assert_eq!(cfg.chip_of(4), 1);
        assert_eq!(cfg.chip_of(15), 3);
        let cores: Vec<u32> = cfg.cores_of_chip(2).collect();
        assert_eq!(cores, vec![8, 9, 10, 11]);
    }

    #[test]
    fn quad4_is_single_chip() {
        let cfg = MachineConfig::quad4();
        assert_eq!(cfg.total_cores(), 4);
        assert_eq!(cfg.chips, 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = MachineConfig::amd16();
        cfg.line_size = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::amd16();
        cfg.chips = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::amd16();
        cfg.l1 = CacheGeometry::new(32, 0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_machine_shape() {
        // The largest shapes the directory's masks can describe pass...
        MachineConfig::future(16, 4).validate().unwrap();
        MachineConfig::future(1, 64).validate().unwrap();
        MachineConfig::future(8, 8).validate().unwrap();
        // ...a 17th chip or a 65th core is an error, not a panic.
        let err = MachineConfig::future(17, 1).validate().unwrap_err();
        assert!(err.contains("17 chips") && err.contains("16"), "{err}");
        let err = MachineConfig::future(5, 13).validate().unwrap_err();
        assert!(err.contains("5 x 13 cores") && err.contains("64"), "{err}");
        // A core count that overflows `u32` is still just too many cores.
        assert!(MachineConfig::future(16, u32::MAX).validate().is_err());
    }

    #[test]
    fn cache_geometry_sets_and_lines() {
        let g = CacheGeometry::new(64 * 1024, 8);
        assert_eq!(g.lines(64), 1024);
        assert_eq!(g.sets(64), 128);
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let cfg = MachineConfig::amd16();
        let s = cfg.cycles_to_seconds(2_000_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
