//! Memory-system throughput benchmark → `BENCH_memory.json`.
//!
//! Drives `Machine::access` / `Machine::access_line` directly (no engine,
//! no policy) so the numbers isolate the memory-system hot path: cache
//! probes, the coherence directory, and invalidation traffic. Three
//! fixed-pattern scenarios on the paper's 16-core AMD machine:
//!
//! * `read_heavy` — every core re-reads a private L1-resident working set:
//!   the L1-hit regime the short-circuit exists for.
//! * `write_shared` — cores read and write a handful of shared lines:
//!   directory lookups, invalidation broadcasts, ping-ponging ownership.
//! * `capacity_thrash` — sequential sweeps over a working set far larger
//!   than the private caches: fills, evictions, L3 victim traffic.
//!
//! Each scenario also reports directory probes (slot inspections) per
//! line access and, at the end of the run, the directory's entries, slots
//! and their ratio (at most 0.5: which side of a doubling the scenario
//! sits on is read here, not inferred from probe counts) — counts,
//! identical on every host. The wall-clock figures
//! are this host's, this run's: compare them only against another build
//! run alternately on the same machine (`benchmark/run.sh` does that).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_sim::{AccessKind, ContentionModel, Machine, MachineConfig};

struct Outcome {
    name: &'static str,
    line_accesses: u64,
    simulated_cycles: u64,
    directory_probes: u64,
    directory_entries: u64,
    directory_capacity: u64,
    wall_seconds: f64,
}

impl Outcome {
    fn ops_per_sec(&self) -> f64 {
        self.line_accesses as f64 / self.wall_seconds
    }

    fn probes_per_line_access(&self) -> f64 {
        self.directory_probes as f64 / self.line_accesses as f64
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"line_accesses\": {},\n",
                "      \"simulated_cycles\": {},\n",
                "      \"dir_probes_per_line_access\": {:.3},\n",
                "      \"directory_entries\": {},\n",
                "      \"directory_capacity\": {},\n",
                "      \"directory_load\": {:.3},\n",
                "      \"wall_seconds\": {:.6},\n",
                "      \"sim_ops_per_wall_second\": {:.0}\n",
                "    }}"
            ),
            self.name,
            self.line_accesses,
            self.simulated_cycles,
            self.probes_per_line_access(),
            self.directory_entries,
            self.directory_capacity,
            self.directory_entries as f64 / self.directory_capacity as f64,
            self.wall_seconds,
            self.ops_per_sec(),
        )
    }
}

fn machine() -> Machine {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    Machine::new(cfg)
}

fn finish(name: &'static str, m: &Machine, line_accesses: u64, start: Instant) -> Outcome {
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    let ms = m.mem_stats();
    let o = Outcome {
        name,
        line_accesses,
        simulated_cycles: m.snapshot_counters().aggregate().busy_cycles,
        directory_probes: ms.directory_probes,
        directory_entries: ms.directory_entries,
        directory_capacity: ms.directory_capacity,
        wall_seconds,
    };
    println!(
        "{name:<16} {line_accesses:>10} line accesses in {wall_seconds:.3}s ({:.0} sim-ops/s, {:.3} dir probes/line access)",
        o.ops_per_sec(),
        o.probes_per_line_access()
    );
    println!(
        "{:<16} dir_probes={} dir_entries={} dir_slots={} l1_short_circuits={} evictions={}",
        "",
        ms.directory_probes,
        ms.directory_entries,
        ms.directory_capacity,
        ms.l1_short_circuits,
        ms.evictions
    );
    o
}

/// Every core loops over a private 16 KB working set (fits L1): after the
/// first lap everything is an L1 hit.
fn read_heavy(iters: u64) -> Outcome {
    let mut m = machine();
    let regions: Vec<_> = (0..16u32)
        .map(|c| m.memory_mut().alloc(16 * 1024, u64::from(c)))
        .collect();
    let lines_per_set = 16 * 1024 / 64;
    let start = Instant::now();
    let mut n = 0u64;
    for i in 0..iters {
        for core in 0..16u32 {
            let r = &regions[core as usize];
            let line = r.addr / 64 + (i % lines_per_set);
            m.access_line(core, line, AccessKind::Read);
            n += 1;
        }
    }
    finish("read_heavy", &m, n, start)
}

/// Cores take turns reading and writing 64 shared lines: the coherence
/// directory and the invalidation path dominate.
fn write_shared(iters: u64) -> Outcome {
    let mut m = machine();
    let shared = m.memory_mut().alloc(64 * 64, 0);
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let start = Instant::now();
    let mut n = 0u64;
    for _ in 0..iters {
        let core = rng.gen_range(0..16u32);
        let line = shared.addr / 64 + rng.gen_range(0..64u64);
        let kind = if rng.gen_range(0..4u8) == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        m.access_line(core, line, kind);
        n += 1;
    }
    finish("write_shared", &m, n, start)
}

/// Sequential 4 KB sweeps over a 8 MB set: far larger than L1+L2, so the
/// fill/evict/spill path and the directory churn constantly.
fn capacity_thrash(iters: u64) -> Outcome {
    let mut m = machine();
    let big = m.memory_mut().alloc(8 * 1024 * 1024, 0);
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let start = Instant::now();
    let mut n = 0u64;
    for _ in 0..iters {
        let core = rng.gen_range(0..16u32);
        let off = rng.gen_range(0..big.size - 4096);
        m.access(core, big.addr + off, 4096, AccessKind::Read);
        n += 4096 / 64;
    }
    finish("capacity_thrash", &m, n, start)
}

fn main() {
    let outcomes = [
        read_heavy(1_000_000),
        write_shared(1_000_000),
        capacity_thrash(40_000),
    ];
    let body = outcomes
        .iter()
        .map(Outcome::json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"memory_system\",\n",
            "  \"machine\": \"amd16\",\n",
            "  \"model\": \"exact-index flat directory (16-byte slots, keys grouped by 8, at most half full) + flat set-associative caches + L1 short-circuit\",\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        body
    );
    std::fs::write("BENCH_memory.json", &json).expect("write BENCH_memory.json");
    println!("wrote BENCH_memory.json");
}
