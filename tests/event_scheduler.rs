//! Tests for the event-driven engine: determinism, parked-core wakeups,
//! zero-work idle cores, and bit-for-bit equivalence with the pre-refactor
//! smallest-clock scheduler on a saturated run.

use o2_suite::prelude::*;
use o2_suite::runtime::{NullPolicy, RepeatBehaviour, StaticPolicy};
use o2_suite::sim::ContentionModel;

/// Folds every per-core counter of the machine plus the engine totals into
/// one FNV-1a fingerprint, so "bit-for-bit identical" is one comparison.
fn fingerprint(engine: &Engine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(engine.total_ops());
    mix(engine.max_clock());
    mix(engine.min_clock());
    mix(engine.locks().total_acquisitions());
    mix(engine.locks().total_contention());
    let n = engine.machine().config().total_cores();
    for core in 0..n {
        let c = engine.machine().counters(core);
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
            c.migrations_in,
            c.migrations_out,
            c.operations_completed,
        ] {
            mix(v);
        }
        mix(engine.core_clock(core));
    }
    h
}

/// A saturated 16-core scenario: every core runs two threads forever —
/// one doing annotated lock-protected reads whose object is pinned to
/// another core (so operations migrate), one doing plain compute + yield
/// (so quanta rotate). No core is ever idle, which is exactly the regime
/// where the event queue must reproduce the old smallest-clock order.
fn saturated_engine() -> Engine {
    let machine = Machine::new(MachineConfig::amd16());
    let mut cfg = RuntimeConfig::default();
    cfg.epoch_cycles = 100_000;
    cfg.quantum_cycles = 10_000;
    let mut policy = StaticPolicy::new();
    for i in 0..8u64 {
        policy.assign(0x1000 + i, ((i * 5) % 16) as u32);
    }
    let mut engine = Engine::new(machine, Box::new(policy), cfg);
    let data = engine.machine_mut().memory_mut().alloc(1 << 20, 0);
    let locks: Vec<_> = (0..8)
        .map(|_| {
            let r = engine.machine_mut().memory_mut().alloc(64, 1);
            engine.register_lock(r.addr)
        })
        .collect();
    for core in 0..16u32 {
        let obj = 0x1000 + u64::from(core % 8);
        let lock = locks[(core % 8) as usize];
        let op = OpBuilder::annotated(obj)
            .lock(lock)
            .compute(300)
            .read(data.addr + u64::from(core) * 4096, 1024)
            .unlock(lock)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
        engine.spawn(
            core,
            Box::new(RepeatBehaviour::new(
                vec![Action::Compute(500), Action::Yield],
                None,
            )),
        );
    }
    engine
}

/// Fingerprint of the saturated scenario after 1.5M cycles, captured from
/// the pre-refactor engine (the O(cores) smallest-clock scan) at commit
/// time. The event-driven engine must reproduce it exactly.
const PRE_REFACTOR_SATURATED_FINGERPRINT: u64 = 0x9d48_13c2_1de4_cda3;
const PRE_REFACTOR_SATURATED_TOTAL_OPS: u64 = 28_864;

#[test]
fn saturated_run_matches_pre_refactor_order_bit_for_bit() {
    let mut engine = saturated_engine();
    engine.run_until_cycles(1_500_000);
    println!(
        "fingerprint=0x{:016x} total_ops={}",
        fingerprint(&engine),
        engine.total_ops()
    );
    assert_eq!(engine.total_ops(), PRE_REFACTOR_SATURATED_TOTAL_OPS);
    assert_eq!(fingerprint(&engine), PRE_REFACTOR_SATURATED_FINGERPRINT);
}

/// `(fingerprint, total_ops)` of the three scenarios below, captured at
/// the last commit that had three interchangeable event cores (timing
/// wheel, binary heap, cycle box), where all three produced exactly these
/// values. They carry what the cross-core equivalence tests checked:
/// parks and lock hand-off wake-ups, migration arrivals, and — new — the
/// queue at its largest.
const CONVOY_GOLDEN: (u64, u64) = (0xba2c_3274_633c_f5d5, 2_335);
const MIGRATION_STORM_GOLDEN: (u64, u64) = (0x2608_bd0a_b60d_7b9a, 85_892);
const MANY_CORE_GOLDEN: (u64, u64) = (0x1d79_c505_329e_c9eb, 225_551);

/// An idle-heavy blocking-lock convoy: 16 threads queue on one lock, so
/// the run is mostly parks, lock hand-off wake-ups and long idle gaps.
#[test]
fn blocking_lock_convoy_matches_golden() {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(NullPolicy),
        RuntimeConfig::default().with_blocking_locks(),
    );
    let word = engine.machine_mut().memory_mut().alloc(64, 9);
    let lock = engine.register_lock(word.addr);
    for core in 0..16u32 {
        let op = OpBuilder::annotated(0x2000 + u64::from(core))
            .lock(lock)
            .compute(100 + u64::from(core) * 7)
            .unlock(lock)
            .compute(20_000)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
    }
    engine.run_until_cycles(3_000_000);
    assert_eq!((fingerprint(&engine), engine.total_ops()), CONVOY_GOLDEN);
}

/// A migration storm: every object is pinned off its thread's home core.
#[test]
fn migration_storm_matches_golden() {
    let mut policy = StaticPolicy::new();
    for i in 0..16u64 {
        policy.assign(0x3000 + i, ((i * 7 + 3) % 16) as u32);
    }
    let mut engine = Engine::new(
        Machine::new(MachineConfig::amd16()),
        Box::new(policy),
        RuntimeConfig::default(),
    );
    let data = engine.machine_mut().memory_mut().alloc(1 << 20, 0);
    for core in 0..16u32 {
        let op = OpBuilder::annotated(0x3000 + u64::from(core))
            .compute(200 + u64::from(core) * 11)
            .read(data.addr + u64::from(core) * 8192, 2048)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
    }
    engine.run_until_cycles(2_000_000);
    assert_eq!(
        (fingerprint(&engine), engine.total_ops()),
        MIGRATION_STORM_GOLDEN
    );
}

/// The event queue at its largest: 64 cores (`MachineConfig::MAX_CORES`),
/// every one migrating out and accepting arrivals, every fourth also
/// rotating a second thread.
#[test]
fn sixty_four_core_run_matches_golden() {
    let mut policy = StaticPolicy::new();
    for i in 0..64u64 {
        policy.assign(0x4000 + i, ((i * 13 + 5) % 64) as u32);
    }
    let mut engine = Engine::new(
        Machine::new(MachineConfig::future(8, 8)),
        Box::new(policy),
        RuntimeConfig::default(),
    );
    let data = engine.machine_mut().memory_mut().alloc(1 << 20, 0);
    for core in 0..64u32 {
        let op = OpBuilder::annotated(0x4000 + u64::from(core))
            .compute(150 + u64::from(core) * 3)
            .read(data.addr + u64::from(core) * 4096, 1024)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
        if core % 4 == 0 {
            engine.spawn(
                core,
                Box::new(RepeatBehaviour::new(
                    vec![Action::Compute(500), Action::Yield],
                    None,
                )),
            );
        }
    }
    engine.run_until_cycles(1_000_000);
    assert_eq!((fingerprint(&engine), engine.total_ops()), MANY_CORE_GOLDEN);
}

#[test]
fn identical_configs_produce_identical_results() {
    let run = || {
        let mut engine = saturated_engine();
        engine.run_until_cycles(400_000);
        (fingerprint(&engine), engine.total_ops())
    };
    assert_eq!(run(), run());
}

/// With 15 of 16 cores idle, the scheduler processes events only for the
/// one busy core: parked cores consume zero work in the main loop, yet
/// their idle accounting is exact.
#[test]
fn parked_cores_consume_no_scheduler_work() {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(NullPolicy),
        RuntimeConfig::default(),
    );
    let op = OpBuilder::annotated(0x1).compute(1000).finish();
    engine.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    engine.run_until_cycles(1_000_000);

    let stats = engine.sched_stats();
    // Core 0 executes ~3 actions per ~1000-cycle operation, so ~3k events.
    // The old engine additionally idle-stepped 15 cores every 400 cycles:
    // >= 37,500 extra iterations. Parked cores must contribute none.
    assert!(
        stats.events_processed < 10_000,
        "scheduler did O(cores) work: {stats:?}"
    );
    // Idle accounting is still exact: every parked core idled the full run.
    for core in 1..16 {
        assert_eq!(engine.machine().counters(core).idle_cycles, 1_000_000);
        assert_eq!(engine.core_clock(core), 1_000_000);
    }
    assert_eq!(engine.machine().counters(0).idle_cycles, 0);
}

/// A migration arrival un-parks the destination core.
#[test]
fn parked_core_is_woken_by_migration_arrival() {
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    let mut policy = StaticPolicy::new();
    policy.assign(0x1000, 3);
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(policy),
        RuntimeConfig::default(),
    );
    let op = OpBuilder::annotated(0x1000).compute(500).finish();
    engine.spawn(0, Box::new(RepeatBehaviour::new(op, Some(3))));
    engine.run_until_cycles(10_000_000);

    // The operations executed on the (initially parked) core 3; without
    // `return_home_after_op` the thread migrates once and stays there.
    assert_eq!(engine.machine().counters(3).operations_completed, 3);
    assert_eq!(engine.thread_stats(0).migrations, 1);
    assert!(
        engine.sched_stats().park_wakeups >= 1,
        "core 3 was never woken from park: {:?}",
        engine.sched_stats()
    );
    // Core 3 was idle before the first arrival, and that idle time was
    // credited even though it never spun in the scheduler loop.
    assert!(engine.machine().counters(3).idle_cycles > 0);
}

/// With blocking locks, a contended waiter parks its core and the
/// holder's release wakes it.
#[test]
fn parked_core_is_woken_by_lock_release() {
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(NullPolicy),
        RuntimeConfig::default().with_blocking_locks(),
    );
    let word = engine.machine_mut().memory_mut().alloc(64, 9);
    let lock = engine.register_lock(word.addr);
    // Thread A (core 0, stepped first) takes the lock and holds it for a
    // long compute; thread B (core 1) immediately contends, blocks, and
    // its core parks until A's release wakes it.
    let hold = OpBuilder::new()
        .lock(lock)
        .compute(50_000)
        .unlock(lock)
        .build();
    let want = OpBuilder::new()
        .lock(lock)
        .compute(100)
        .unlock(lock)
        .build();
    engine.spawn(0, Box::new(RepeatBehaviour::new(hold, Some(1))));
    engine.spawn(1, Box::new(RepeatBehaviour::new(want, Some(1))));
    engine.run_until_cycles(10_000_000);

    assert_eq!(engine.live_threads(), 0, "both threads must finish");
    assert_eq!(engine.locks().total_acquisitions(), 2);
    let stats = engine.sched_stats();
    assert_eq!(stats.lock_wakeups, 1, "{stats:?}");
    assert!(stats.park_wakeups >= 1, "{stats:?}");
    // Core 1 slept through most of A's 50k-cycle critical section instead
    // of spinning: nearly all of its wait shows up as idle, not busy.
    assert!(
        engine.machine().counters(1).idle_cycles > 40_000,
        "core 1 should have parked through the critical section, idle = {}",
        engine.machine().counters(1).idle_cycles
    );
    // And the waiter did not burn its wait spinning.
    assert!(engine.thread_stats(1).lock_wait_cycles < 1_000);
}

/// Blocking locks on a *shared* core: the waiter blocks, the holder keeps
/// the core busy, and the release hands the lock over without the core
/// ever parking. Both threads run to completion.
#[test]
fn blocking_locks_hand_off_on_a_shared_core() {
    let mut engine = Engine::new(
        Machine::new(MachineConfig::quad4()),
        Box::new(NullPolicy),
        RuntimeConfig::default().with_blocking_locks(),
    );
    let word = engine.machine_mut().memory_mut().alloc(64, 9);
    let lock = engine.register_lock(word.addr);
    for _ in 0..2 {
        let op = OpBuilder::new()
            .lock(lock)
            .compute(1000)
            .unlock(lock)
            .build();
        engine.spawn(0, Box::new(RepeatBehaviour::new(op, Some(10))));
    }
    engine.run_until_cycles(10_000_000);
    assert_eq!(engine.live_threads(), 0);
    assert_eq!(engine.locks().total_acquisitions(), 20);
}

/// A long action that carries the frontier past the run limit must not
/// drag parked cores (or epochs) beyond the limit: `run_until_cycles(n)`
/// leaves idle cores at exactly `n`.
#[test]
fn epochs_never_advance_idle_cores_past_the_run_limit() {
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(NullPolicy),
        RuntimeConfig::default(), // epoch_cycles = 200_000
    );
    // One action crossing both the 100k limit and the 200k epoch boundary.
    engine.spawn(
        0,
        Box::new(RepeatBehaviour::new(vec![Action::Compute(300_000)], None)),
    );
    engine.run_until_cycles(100_000);
    for core in 1..4 {
        assert_eq!(engine.core_clock(core), 100_000);
        assert_eq!(engine.machine().counters(core).idle_cycles, 100_000);
    }
}

/// Sparse events (long compute actions) must not skip epoch boundaries:
/// every boundary the frontier crosses fires exactly once, just as the
/// old engine's 400-cycle idle stepping guaranteed.
#[test]
fn sparse_events_still_fire_every_epoch() {
    struct CountEpochs(std::rc::Rc<std::cell::Cell<u32>>);
    impl SchedPolicy for CountEpochs {
        fn name(&self) -> &'static str {
            "count-epochs"
        }
        fn on_epoch(
            &mut self,
            _view: &o2_suite::runtime::EpochView<'_>,
        ) -> Vec<o2_suite::runtime::PolicyCommand> {
            self.0.set(self.0.get() + 1);
            Vec::new()
        }
    }
    let epochs = std::rc::Rc::new(std::cell::Cell::new(0));
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    let mut rcfg = RuntimeConfig::default();
    rcfg.epoch_cycles = 10_000;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(CountEpochs(epochs.clone())),
        rcfg,
    );
    // 50k-cycle actions: each event crosses ~5 epoch boundaries.
    engine.spawn(
        0,
        Box::new(RepeatBehaviour::new(vec![Action::Compute(50_000)], None)),
    );
    engine.run_until_cycles(1_000_000);
    assert!(
        epochs.get() >= 95,
        "expected ~100 epochs over 1M cycles at 10k/epoch, got {}",
        epochs.get()
    );
}

/// Same-config determinism for an idle-heavy run (1 busy core of 16).
#[test]
fn idle_heavy_run_is_deterministic() {
    let run = || {
        let mut cfg = MachineConfig::amd16();
        cfg.contention = ContentionModel::None;
        let mut engine = Engine::new(
            Machine::new(cfg),
            Box::new(NullPolicy),
            RuntimeConfig::default(),
        );
        let op = OpBuilder::annotated(0x1).compute(700).finish();
        engine.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
        engine.run_until_cycles(2_000_000);
        (fingerprint(&engine), engine.total_ops())
    };
    assert_eq!(run(), run());
}
