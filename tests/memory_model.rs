//! Golden equivalence tests for the memory-system fast path.
//!
//! The flat-directory / flat-cache refactor must be *invisible* to the
//! model: hit/miss/eviction sequences and every per-core counter have to
//! be bit-for-bit identical to the pre-refactor `HashMap`-based
//! implementation. Exactly as `tests/event_scheduler.rs` pins the engine
//! refactor with a golden fingerprint, these tests pin the memory system:
//! the constants below were captured from the pre-refactor model (global
//! `HashMap` directory, `Vec<Vec<Way>>` caches, modulo set indexing) and
//! the refactored model must reproduce them exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::sim::{AccessKind, AccessOutcome, ContentionModel, Machine, MachineConfig};

/// FNV-1a fold, same shape as the engine golden test.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn mix_outcome(&mut self, cost: u64, out: AccessOutcome) {
        self.mix(cost);
        let tag = match out {
            AccessOutcome::L1Hit => 1,
            AccessOutcome::L2Hit => 2,
            AccessOutcome::L3Hit => 3,
            AccessOutcome::RemoteCache { hops, streamed } => {
                0x10 | u64::from(hops) << 8 | u64::from(streamed) << 16
            }
            AccessOutcome::Dram { hops, streamed } => {
                0x20 | u64::from(hops) << 8 | u64::from(streamed) << 16
            }
        };
        self.mix(tag);
    }
    fn mix_machine(&mut self, m: &Machine) {
        for core in 0..m.config().total_cores() {
            let c = m.counters(core);
            for v in [
                c.busy_cycles,
                c.l1_hits,
                c.l1_misses,
                c.l2_hits,
                c.l2_misses,
                c.l3_hits,
                c.l3_misses,
                c.remote_cache_loads,
                c.dram_loads,
                c.invalidations_sent,
                c.invalidations_received,
                c.interconnect_messages,
            ] {
                self.mix(v);
            }
        }
        // Pin the *contents* of every cache, not just the counters, so a
        // divergent eviction decision cannot cancel out. Sorted: iteration
        // order over a cache is representation-defined, residency is not.
        for core in 0..m.config().total_cores() {
            let mut l1 = m.l1_lines(core);
            l1.sort_unstable();
            let mut l2 = m.l2_lines(core);
            l2.sort_unstable();
            self.mix(l1.len() as u64);
            for l in l1 {
                self.mix(l);
            }
            self.mix(l2.len() as u64);
            for l in l2 {
                self.mix(l);
            }
        }
        for chip in 0..m.config().chips {
            let mut l3 = m.l3_lines(chip);
            l3.sort_unstable();
            self.mix(l3.len() as u64);
            for l in l3 {
                self.mix(l);
            }
        }
    }
}

/// A seeded access storm on the paper's 16-core machine: private working
/// sets (L1-friendly), a shared read-mostly region, a write-shared line set
/// (invalidation traffic), and sequential sweeps large enough to force L2
/// and L3 evictions. Every (cost, outcome) pair is folded into the
/// fingerprint, so the hit/miss/eviction *sequence* is pinned, not just the
/// totals.
fn run_storm(cfg: MachineConfig, seed: u64, accesses: usize) -> (u64, Machine) {
    let mut m = Machine::new(cfg);
    let cores = m.config().total_cores();
    let private: Vec<_> = (0..cores)
        .map(|c| m.memory_mut().alloc(32 * 1024, u64::from(c)))
        .collect();
    let shared = m.memory_mut().alloc(256 * 1024, 100);
    let hot = m.memory_mut().alloc(64 * 8, 101);
    // Sized to overflow the private L2 but fit the chip L3s, so L2 victims
    // are re-touched in the L3 (victim-cache hits) as well as evicted.
    let sweep = m.memory_mut().alloc(1024 * 1024, 102);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut fp = Fingerprint::new();
    let mut i = 0usize;
    while i < accesses {
        let core = rng.gen_range(0..cores);
        m.set_time_hint((i as u64) * 50);
        match rng.gen_range(0u8..10) {
            // Private-set reads and writes: the L1-hit regime.
            0..=3 => {
                let r = &private[core as usize];
                let off = rng.gen_range(0..r.size - 64);
                let kind = if rng.gen_range(0u8..4) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let line = m.line_of(r.addr + off);
                let (cost, out) = m.access_line(core, line, kind);
                fp.mix_outcome(cost, out);
                i += 1;
            }
            // Shared read-mostly region.
            4..=5 => {
                let off = rng.gen_range(0..shared.size - 64);
                let line = m.line_of(shared.addr + off);
                let (cost, out) = m.access_line(core, line, AccessKind::Read);
                fp.mix_outcome(cost, out);
                i += 1;
            }
            // Hot write-shared lines: ping-pong + invalidations.
            6..=7 => {
                let off = 64 * rng.gen_range(0..8u64);
                let line = m.line_of(hot.addr + off);
                let kind = if rng.gen_range(0u8..2) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let (cost, out) = m.access_line(core, line, kind);
                fp.mix_outcome(cost, out);
                i += 1;
            }
            // Sequential sweep chunk through the multi-line `access` path:
            // streams, DRAM fills, capacity evictions.
            _ => {
                let start = rng.gen_range(0..sweep.size - 4096);
                let cost = m.access(core, sweep.addr + start, 2048, AccessKind::Read);
                fp.mix(cost);
                i += 32;
            }
        }
    }
    fp.mix_machine(&m);
    // The miss path trusts the directory to index the caches exactly.
    m.audit_coherence()
        .expect("coherence audit after the storm");
    (fp.0, m)
}

/// Golden fingerprints captured from the pre-refactor memory model
/// (commit with `HashMap` directory + `Vec<Vec<Way>>` caches). The
/// refactored fast path must reproduce them bit-for-bit.
const GOLDEN_AMD16: u64 = 0xb9d5_b778_d665_7861;
const GOLDEN_AMD16_CONTENTION: u64 = 0x6b2c_72bd_7160_ffff;
const GOLDEN_QUAD4: u64 = 0x13b0_8984_31a3_5320;

#[test]
fn storm_amd16_matches_pre_refactor_model() {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let (fp, m) = run_storm(cfg, 0x51ab_0001, 60_000);
    println!("amd16 fingerprint=0x{fp:016x}");
    // Sanity: the storm exercised the hierarchy broadly (the paper-sized
    // L2 is too large for victim-L3 hits here; the quad4 storm covers those).
    let agg = m.snapshot_counters().aggregate();
    assert!(agg.l1_hits > 0 && agg.l2_hits > 0);
    assert!(agg.remote_cache_loads > 0 && agg.dram_loads > 0);
    assert!(agg.invalidations_sent > 0);
    assert_eq!(fp, GOLDEN_AMD16);
}

#[test]
fn storm_with_contention_matches_pre_refactor_model() {
    let (fp, _) = run_storm(MachineConfig::amd16(), 0x51ab_0002, 40_000);
    println!("amd16+contention fingerprint=0x{fp:016x}");
    assert_eq!(fp, GOLDEN_AMD16_CONTENTION);
}

#[test]
fn storm_quad4_matches_pre_refactor_model() {
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    // Tiny caches: maximum eviction pressure per access.
    cfg.l1 = o2_suite::sim::CacheGeometry::new(2 * 1024, 2);
    cfg.l2 = o2_suite::sim::CacheGeometry::new(8 * 1024, 4);
    cfg.l3 = o2_suite::sim::CacheGeometry::new(64 * 1024, 8);
    let (fp, m) = run_storm(cfg, 0x51ab_0003, 40_000);
    println!("quad4 fingerprint=0x{fp:016x}");
    // Every tier fires here, including victim-L3 hits.
    let agg = m.snapshot_counters().aggregate();
    assert!(agg.l1_hits > 0 && agg.l2_hits > 0 && agg.l3_hits > 0);
    assert!(agg.dram_loads > 0 && agg.invalidations_sent > 0);
    assert_eq!(fp, GOLDEN_QUAD4);
}

/// Same config + seed twice → identical run (no hidden state in the
/// directory or caches).
#[test]
fn storm_is_deterministic() {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let (a, _) = run_storm(cfg.clone(), 7, 10_000);
    let (b, _) = run_storm(cfg, 7, 10_000);
    assert_eq!(a, b);
}

/// The directory is an exact index of cache contents — the miss path reads
/// a chip bit instead of scanning the L3 — and that is a tested invariant.
/// Mixed reads, writes, multi-line accesses and flushes on 2 chips x 2
/// cores, the audit every 64 steps, on two geometries: one small enough
/// that every eviction path (L1 drop, L2 spill, L3 victim, L3 refresh of a
/// line a same-chip peer spilled first) fires within hundreds of steps, and
/// one with enough ways (1280) that the directory's table must double in
/// place under the traffic, audited at the step it does.
#[test]
fn directory_stays_an_exact_index_under_random_traffic() {
    use o2_suite::sim::CacheGeometry;
    let tiny = (
        CacheGeometry::new(16 * 64, 4),
        CacheGeometry::new(32 * 64, 8),
    );
    let wide = (
        CacheGeometry::new(64 * 64, 4),
        CacheGeometry::new(512 * 64, 8),
    );
    for (l2, l3) in [tiny, wide] {
        let mut cfg = MachineConfig::amd16();
        cfg.chips = 2;
        cfg.cores_per_chip = 2;
        cfg.l1 = CacheGeometry::new(4 * 64, 2);
        cfg.l2 = l2;
        cfg.l3 = l3;
        cfg.contention = ContentionModel::None;
        // Four times the machine's L2 and L3 lines: constant eviction.
        let span = 4 * (4 * l2.lines(64) + 2 * l3.lines(64));
        for seed in [0xa0d1_0001u64, 0xa0d1_0002, 0xa0d1_0003] {
            let mut m = Machine::new(cfg.clone());
            let arena = m.memory_mut().alloc(span * 64, 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut flushes = 0;
            let initial_capacity = m.mem_stats().directory_capacity;
            let mut capacity = initial_capacity;
            for step in 0..20_000u32 {
                let core = rng.gen_range(0..4u32);
                let kind = if rng.gen_range(0u8..3) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                // Half the traffic goes to a 64-line hot set so lines are
                // shared, written while shared, and spilled by two peers.
                let span = if rng.gen_range(0u8..2) == 0 { 64 } else { span };
                let addr = arena.addr + 64 * rng.gen_range(0..span - 8u64);
                match rng.gen_range(0u32..800) {
                    0 => {
                        m.flush_all_caches();
                        flushes += 1;
                    }
                    1..=240 => {
                        m.access(core, addr + 17, rng.gen_range(1..8u64) * 64, kind);
                    }
                    _ => {
                        m.access_line(core, m.line_of(addr), kind);
                    }
                }
                let slots = m.mem_stats().directory_capacity;
                let grew = std::mem::replace(&mut capacity, slots) != slots;
                if step % 64 == 0 || grew {
                    m.audit_coherence()
                        .unwrap_or_else(|e| panic!("seed {seed:#x} step {step}: {e}"));
                }
            }
            m.audit_coherence()
                .unwrap_or_else(|e| panic!("seed {seed:#x} at the end: {e}"));
            let agg = m.snapshot_counters().aggregate();
            assert!(agg.l2_hits > 0 && agg.l3_hits > 0 && agg.dram_loads > 0);
            assert!(agg.remote_cache_loads > 0 && agg.invalidations_sent > 0);
            assert!(flushes > 0 && m.mem_stats().evictions > 0);
            assert_eq!(
                capacity > initial_capacity,
                (l2, l3) == wide,
                "seed {seed:#x}: {capacity} directory slots at the end"
            );
        }
    }
}

/// Every core of the 16-core machine streams its own region until every L2
/// and every L3 way is valid. The regions are disjoint, so the directory
/// then tracks exactly as many lines as the machine has L2 and L3 ways —
/// the most it can between two accesses — in a table still at most half
/// full (the audit checks both bounds).
#[test]
fn directory_tracks_a_full_machine_in_a_half_full_table() {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let ways = cfg.aggregate_on_chip_bytes() / cfg.line_size;
    let mut m = Machine::new(cfg);
    // One L2 plus a core's share of the chip's L3, and half as much again.
    let regions: Vec<_> = (0..16)
        .map(|core| m.memory_mut().alloc(1536 * 1024, core))
        .collect();
    let full = |m: &Machine| {
        (0..16).all(|core| m.l2_occupancy(core) == 1.0)
            && (0..4).all(|chip| m.l3_occupancy(chip) == 1.0)
    };
    let mut passes = 0;
    while !full(&m) {
        assert!(passes < 4, "caches not full after {passes} passes");
        for (core, region) in regions.iter().enumerate() {
            m.access(core as u32, region.addr, region.size, AccessKind::Read);
        }
        passes += 1;
        m.audit_coherence()
            .unwrap_or_else(|e| panic!("after pass {passes}: {e}"));
    }
    let stats = m.mem_stats();
    assert_eq!(stats.directory_entries, ways, "one entry per way");
    // A fill tracks its line before its L3 victim's entry goes, so a full
    // machine peaks one entry above its ways: past half of 2 x ways slots.
    assert!(stats.directory_capacity <= 4 * ways, "{stats:?}");
}
