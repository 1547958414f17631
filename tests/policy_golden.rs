//! Golden fingerprints of the CoreTime decision path.
//!
//! These tests drive `O2Policy` directly through the `SchedPolicy`
//! interface with seeded synthetic operation storms and pin the policy's
//! observable behaviour — every placement decision, the `O2Stats` counters
//! after every epoch, and the final assignment table — to values captured
//! from the implementation **before** the dense-id/flat-table refactor.
//! Any change to a placement decision, a stats counter, or an assignment
//! changes the fingerprint.
//!
//! The storms identify objects by external keys (addresses, as the paper
//! does) and mirror the engine's interning: dense ids are assigned in
//! first-touch order exactly as `Engine`'s object index does, so the same
//! storm drives the pre- and post-refactor policy identically. Everything
//! that enters the fingerprint (object keys, core ids, stats) is
//! representation-independent.
//!
//! To re-capture after an *intentional* behaviour change:
//! `O2_PRINT_FINGERPRINTS=1 cargo test --test policy_golden -- --nocapture`

use o2_core::{CoreTimeConfig, O2Policy, O2Stats};
use o2_metrics::LatencySummary;
use o2_runtime::{
    AccessKind, DenseObjectId, EpochView, ObjectDescriptor, ObjectIndex, OpContext, Placement,
    PolicyCommand, SchedPolicy,
};
use o2_sim::{CounterDelta, Machine, MachineConfig};

/// FNV-1a over little-endian u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Deterministic 64-bit LCG (constants from Knuth); top bits returned.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Drives one policy instance through a storm, mirroring the engine's
/// `ct_start`/`ct_end`/epoch protocol and interning object keys in
/// first-touch order the way `Engine` does.
struct Storm {
    machine: Machine,
    policy: O2Policy,
    keys: Vec<u64>,
    index: ObjectIndex,
    ops_by_core: Vec<u64>,
    misses_by_core: Vec<u64>,
    hash: Fnv,
    epoch: u64,
}

impl Storm {
    fn new(machine_cfg: MachineConfig, cfg: CoreTimeConfig) -> Self {
        let machine = Machine::new(machine_cfg);
        let policy = O2Policy::new(machine.config(), cfg);
        let cores = machine.config().total_cores() as usize;
        Storm {
            machine,
            policy,
            keys: Vec::new(),
            index: ObjectIndex::default(),
            ops_by_core: vec![0; cores],
            misses_by_core: vec![0; cores],
            hash: Fnv::new(),
            epoch: 0,
        }
    }

    /// The engine's object index: dense ids in first-touch order.
    fn intern(&mut self, key: u64) -> DenseObjectId {
        let dense = self.index.intern(key);
        if dense as usize == self.keys.len() {
            self.keys.push(key);
        }
        dense
    }

    fn register(&mut self, key: u64, size: u64) {
        let dense = self.intern(key);
        let desc = ObjectDescriptor::new(key, key, size);
        self.policy.register_object(dense, &desc);
    }

    /// One annotated operation of the given access kind: `ct_start`
    /// (recording the placement decision), then `ct_end` on the core the
    /// operation executed on.
    fn op(&mut self, thread: usize, core: u32, key: u64, misses: u64, kind: AccessKind) {
        let dense = self.intern(key);
        let start_ctx = OpContext {
            thread,
            core,
            home_core: core,
            object: dense,
            object_key: key,
            kind,
            now: 0,
            machine: &self.machine,
        };
        let placement = self.policy.on_ct_start(&start_ctx);
        let exec_core = match placement {
            Placement::Local => {
                self.hash.u64(u64::MAX);
                core
            }
            Placement::On(c) => {
                self.hash.u64(u64::from(c));
                c
            }
        };
        let delta = CounterDelta {
            l2_misses: misses,
            busy_cycles: 2_000 + misses * 60,
            dram_loads: misses / 3,
            operations_completed: 1,
            ..Default::default()
        };
        let end_ctx = OpContext {
            thread,
            core: exec_core,
            home_core: core,
            object: dense,
            object_key: key,
            kind,
            now: 0,
            machine: &self.machine,
        };
        self.policy.on_ct_end(&end_ctx, &delta);
        self.ops_by_core[exec_core as usize] += 1;
        self.misses_by_core[exec_core as usize] += misses;
    }

    /// Fires one policy epoch with per-core deltas synthesized from the
    /// operations since the previous epoch: busy scales with work done,
    /// the laggards get the difference as idle time, and DRAM loads follow
    /// the misses.
    fn run_epoch(&mut self) {
        let busy: Vec<u64> = self
            .ops_by_core
            .iter()
            .zip(&self.misses_by_core)
            .map(|(&o, &m)| o * 2_000 + m * 60)
            .collect();
        let frontier = busy.iter().copied().max().unwrap_or(0);
        let deltas: Vec<CounterDelta> = (0..busy.len())
            .map(|c| CounterDelta {
                busy_cycles: busy[c],
                idle_cycles: frontier - busy[c] + 1_000,
                l2_misses: self.misses_by_core[c],
                dram_loads: self.misses_by_core[c] / 3,
                operations_completed: self.ops_by_core[c],
                ..Default::default()
            })
            .collect();
        self.fire_epoch(deltas);
    }

    fn fire_epoch(&mut self, deltas: Vec<CounterDelta>) {
        self.epoch += 1;
        let view = EpochView {
            now: self.epoch * 1_000_000,
            machine: &self.machine,
            deltas: &deltas,
        };
        // Replica serving asks the engine for idle-time fills; each one is
        // part of the decision path. CoreTime never rehomes a thread.
        for command in self.policy.on_epoch(&view) {
            match command {
                PolicyCommand::FillReplica { object, core } => {
                    self.hash.u64(self.keys[object as usize]);
                    self.hash.u64(u64::from(core));
                }
                PolicyCommand::RehomeThread { .. } => panic!("CoreTime rehomed a thread"),
            }
        }
        self.hash_stats();
        self.ops_by_core.iter_mut().for_each(|o| *o = 0);
        self.misses_by_core.iter_mut().for_each(|m| *m = 0);
    }

    fn hash_stats(&mut self) {
        let s = self.policy.stats();
        for v in [
            s.assignments,
            // Idle decay is gone; its counter's slot stays so storms that
            // never decayed keep their fingerprints.
            0,
            // So are the rebalancer and the hot-spot spreader (the two epoch
            // movers), the hint-driven replica planner and frequency
            // replacement.
            0,
            0,
            0,
            0,
            s.migrations_requested,
            s.local_operations,
            s.epochs,
        ] {
            self.hash.u64(v);
        }
    }

    /// Folds the final assignment table into the fingerprint, in external
    /// key order with sorted replica lists — independent of the table's
    /// internal layout.
    fn finish(mut self) -> (u64, O2Stats) {
        self.hash_stats();
        let mut keyed: Vec<(u64, DenseObjectId)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(dense, &key)| (key, dense as DenseObjectId))
            .collect();
        keyed.sort_unstable();
        for (key, dense) in keyed {
            self.hash.u64(key);
            let table = self.policy.table();
            match table.primary(dense) {
                Some(core) => self.hash.u64(u64::from(core)),
                None => self.hash.u64(u64::MAX),
            }
            for r in table.replicas(dense).iter() {
                self.hash.u64(u64::from(r));
            }
        }
        for core in 0..self.machine.config().total_cores() {
            self.hash.u64(self.policy.table().used_bytes(core));
        }
        (self.hash.0, self.policy.stats())
    }
}

/// Storm 1 — migration-heavy: a modest working set that fits the amd16
/// packing budget, hammered from every core. Exercises the `ct_start`
/// lookup and assignment.
fn storm_migration_heavy() -> (u64, O2Stats) {
    let mut s = Storm::new(MachineConfig::amd16(), CoreTimeConfig::default());
    let keys: Vec<u64> = (0..48u64).map(|i| 0x10_0000 + i * 0x1_0000).collect();
    for (i, &k) in keys.iter().enumerate() {
        s.register(k, 32 * 1024 + (i as u64 % 5) * 8 * 1024);
    }
    let mut rng = Lcg(0x5eed_0001);
    for i in 0..24_000u64 {
        let r = rng.next();
        let obj = if r % 10 < 7 {
            keys[(r >> 8) as usize % 8]
        } else {
            keys[(r >> 8) as usize % keys.len()]
        };
        let core = ((r >> 16) % 16) as u32;
        let thread = ((r >> 24) % 32) as usize;
        let misses = 150 + (obj >> 16) % 180;
        s.op(thread, core, obj, misses, AccessKind::Write);
        if (i + 1) % 3_000 == 0 {
            s.run_epoch();
        }
    }
    s.finish()
}

/// Storm 2 — epoch churn: far more expensive objects than the quad4
/// budget holds, with the hot window shifting every epoch. Exercises
/// placement past the budget and the registry's epoch accounting. Half
/// the objects are never registered, so the estimated-size path is
/// covered too.
fn storm_epoch_churn() -> (u64, O2Stats) {
    let mut s = Storm::new(MachineConfig::quad4(), CoreTimeConfig::default());
    let keys: Vec<u64> = (0..160u64).map(|i| 0x200_0000 + i * 0x2_0000).collect();
    for (i, &k) in keys.iter().enumerate() {
        if i % 2 == 0 {
            s.register(k, 64 * 1024 + (i as u64 % 7) * 16 * 1024);
        }
    }
    // Four hot objects larger than any core's packing budget: they can
    // never be placed, not even past a budget, so they
    // stay with the hardware however expensive their operations are.
    let whales: Vec<u64> = (0..4u64).map(|i| 0x800_0000 + i * 0x80_0000).collect();
    for &w in &whales {
        s.register(w, 2 * 1024 * 1024);
    }
    let mut rng = Lcg(0x5eed_0002);
    for i in 0..20_000u64 {
        let r = rng.next();
        let epoch_phase = (i / 1_000) as usize;
        let window = 24usize;
        let base = (epoch_phase * 8) % keys.len();
        let obj = if r % 16 == 0 {
            whales[(r >> 8) as usize % whales.len()]
        } else {
            keys[(base + (r as usize % window)) % keys.len()]
        };
        let core = ((r >> 16) % 4) as u32;
        let thread = ((r >> 24) % 8) as usize;
        let misses = 900 + (obj >> 17) % 300;
        s.op(thread, core, obj, misses, AccessKind::Write);
        if (i + 1) % 1_000 == 0 {
            s.run_epoch();
        }
    }
    s.finish()
}

/// Storm 3 — replica serving: the serving configuration of the scale
/// scenarios on amd16, a skewed working set read 95% of the time, and a
/// core that turns slow halfway through and later recovers. Exercises the
/// demand fill, first-write invalidation, the epoch demote/promote/fill
/// planners and, while the slow core is avoided, rotated selection
/// across the copies its reads cannot use locally.
fn storm_serving() -> (u64, O2Stats) {
    let keys: Vec<u64> = (0..64u64).map(|i| 0x40_0000 + i * 0x1_0000).collect();
    let mut s = Storm::new(
        MachineConfig::amd16(),
        CoreTimeConfig::default().with_serving(keys.len() as u64),
    );
    for (i, &k) in keys.iter().enumerate() {
        s.register(k, 16 * 1024 + (i as u64 % 4) * 8 * 1024);
    }
    let mut rng = Lcg(0x5eed_0003);
    for i in 0..20_000u64 {
        if i == 8_000 {
            s.policy.core_degraded(5, 400);
        }
        if i == 14_000 {
            s.policy.core_degraded(5, 100);
        }
        let r = rng.next();
        // Half the operations go to an eight-object head.
        let obj = if r % 2 == 0 {
            keys[(r >> 8) as usize % 8]
        } else {
            keys[(r >> 8) as usize % keys.len()]
        };
        let core = ((r >> 16) % 16) as u32;
        let thread = ((r >> 24) % 16) as usize;
        // One operation in twenty writes.
        let kind = if rng.next() % 20 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let misses = 120 + (obj >> 16) % 200;
        s.op(thread, core, obj, misses, kind);
        if (i + 1) % 2_000 == 0 {
            s.run_epoch();
        }
    }
    s.finish()
}

/// Expected `(fingerprint, O2Stats)` per storm. First captured from the
/// pre-refactor implementation (HashMap assignment table, HashMap
/// registry, HashMap co-access tracker) with the deterministic tie-breaks
/// applied, and held bit-for-bit through every refactor since.
///
/// Re-captured once, for two deliberate changes of placement rule: an
/// object is assigned by the *first* operation that passes the benefit
/// test (`min_ops_before_assign` is gone), and an expensive object that
/// fits no core's remaining budget is assigned past the budget of the
/// least-loaded live core instead of being left unplaced. Every storm
/// moved because each assigns its objects two operations earlier; only
/// `epoch_churn` oversubscribes the budget, which is where the second
/// rule shows (assignments 193 -> 300).
///
/// `epoch_churn` was re-captured once more when idle decay was deleted: it
/// is the storm built to open decay's gate, and the only one that ever
/// released an assignment. The other three never decayed and kept their
/// fingerprints.
///
/// When co-access clustering, frequency replacement and the hint-driven
/// replica planner were deleted, `epoch_churn` (which ran with replacement
/// on) was re-captured under the default configuration, and a `serving`
/// storm replaced the `clustering` storm, which ran every deleted
/// extension. Both constants were captured on the implementation *before*
/// the deletion, so the code that remains reproduces them rather than
/// re-capturing itself. `migration_heavy` and `pathology` kept theirs.
///
/// When the two epoch movers (the counter-driven rebalancer and the
/// hot-spot spreader) were deleted, `migration_heavy`, `epoch_churn` and
/// `serving` — the three storms the rebalancer acted in — were re-captured
/// on the implementation *before* the deletion with only the movers' calls
/// removed, and the `pathology` storm, built to open the spreader's gate,
/// went with it.
///
/// `stats.op_latency` pins only `count` and `max`, which are exact under
/// any latency recorder. Placement never reads latency (the policy's
/// recorder is pure observation), so the percentiles, which depend on the
/// recorder's resolution, say nothing about a decision. The fingerprint
/// never included latency.
struct Golden {
    name: &'static str,
    run: fn() -> (u64, O2Stats),
    fingerprint: u64,
    stats: O2Stats,
}

const CAPTURE_ENV: &str = "O2_PRINT_FINGERPRINTS";

/// `stats` with the latency percentiles cleared: the part a [`Golden`]
/// pins.
fn pinned(mut stats: O2Stats) -> O2Stats {
    let LatencySummary { count, max, .. } = stats.op_latency;
    stats.op_latency = LatencySummary {
        count,
        max,
        ..LatencySummary::default()
    };
    stats
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            name: "migration_heavy",
            run: storm_migration_heavy,
            fingerprint: 0x679bb0422859f999,
            stats: O2Stats {
                assignments: 48,
                migrations_requested: 22450,
                local_operations: 1550,
                epochs: 8,
                op_latency: LatencySummary {
                    count: 24000,
                    max: 14780,
                    ..LatencySummary::default()
                },
                ..O2Stats::default()
            },
        },
        Golden {
            name: "epoch_churn",
            run: storm_epoch_churn,
            fingerprint: 0xb28ee041c55e889f,
            stats: O2Stats {
                assignments: 160,
                migrations_requested: 14051,
                local_operations: 5949,
                epochs: 20,
                op_latency: LatencySummary {
                    count: 20000,
                    max: 73940,
                    ..LatencySummary::default()
                },
                ..O2Stats::default()
            },
        },
        Golden {
            name: "serving",
            run: storm_serving,
            fingerprint: 0x3ce9dd8e62a25b6e,
            stats: O2Stats {
                assignments: 64,
                migrations_requested: 317,
                local_operations: 19683,
                epochs: 10,
                degraded_avoids: 155,
                replica_promotions: 6997,
                replica_demotions: 0,
                replica_invalidations: 6530,
                replica_served: 15000,
                op_latency: LatencySummary {
                    count: 20000,
                    max: 16820,
                    ..LatencySummary::default()
                },
                ..O2Stats::default()
            },
        },
    ]
}

#[test]
fn storms_reproduce_the_prerefactor_fingerprints() {
    let capture = std::env::var(CAPTURE_ENV)
        .map(|v| v == "1")
        .unwrap_or(false);
    for g in goldens() {
        let (fp, stats) = (g.run)();
        let stats = pinned(stats);
        if capture {
            println!("{}: fingerprint = {:#018x}", g.name, fp);
            println!("{}: stats = {:?}", g.name, stats);
            continue;
        }
        assert_eq!(
            fp, g.fingerprint,
            "{}: decision-path fingerprint diverged from the pre-refactor capture",
            g.name
        );
        assert_eq!(
            stats, g.stats,
            "{}: O2Stats diverged from the pre-refactor capture",
            g.name
        );
    }
}

#[test]
fn storms_are_deterministic_within_a_build() {
    // The fingerprint is a pure function of the seed: two runs in the same
    // process must agree (this is what satellite-1's tie-break fixes
    // guarantee — before them, HashMap iteration order leaked into decay
    // and move planning).
    for g in goldens() {
        assert_eq!((g.run)().0, (g.run)().0, "{} not deterministic", g.name);
    }
}
