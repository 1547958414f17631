//! Engine unit tests. Each drives a whole engine through its public
//! surface (`spawn`, `run_until_*`, the accessors), so they sit together
//! rather than beside one of the files they all cross.

use super::*;
use crate::action::Action;
use crate::behaviour::{FixedBehaviour, OpBuilder, RepeatBehaviour};
use crate::policy::{EpochView, NullPolicy, OpContext, Placement, PolicyCommand, StaticPolicy};
use o2_sim::{AccessKind, ContentionModel, MachineConfig};

fn machine() -> Machine {
    let mut cfg = MachineConfig::quad4();
    cfg.contention = ContentionModel::None;
    Machine::new(cfg)
}

fn engine(policy: Box<dyn SchedPolicy>) -> Engine {
    Engine::new(machine(), policy, RuntimeConfig::default())
}

#[test]
fn compute_advances_the_clock() {
    let mut e = engine(Box::new(NullPolicy));
    e.spawn(
        0,
        Box::new(FixedBehaviour::new(vec![Action::Compute(1000)])),
    );
    e.run_until_cycles(10_000);
    assert!(e.core_clock(0) >= 1000);
    assert_eq!(e.live_threads(), 0);
    assert_eq!(e.machine().counters(0).busy_cycles, 1000);
}

#[test]
fn memory_actions_go_through_the_machine() {
    let mut e = engine(Box::new(NullPolicy));
    let region = e.machine_mut().memory_mut().alloc(4096, 0);
    e.spawn(
        1,
        Box::new(FixedBehaviour::new(vec![
            Action::Read {
                addr: region.addr,
                len: 4096,
            },
            Action::Read {
                addr: region.addr,
                len: 4096,
            },
        ])),
    );
    e.run_until_cycles(1_000_000);
    let ctr = e.machine().counters(1);
    assert!(ctr.dram_loads > 0);
    assert!(ctr.l1_hits > 0);
    // The memory-system totals surface through the engine: the second
    // pass over the region is all L1 short-circuits.
    let ms = e.mem_stats();
    assert!(ms.l1_short_circuits >= 64);
    assert!(ms.directory_entries > 0);
}

#[test]
fn annotated_ops_are_counted() {
    let mut e = engine(Box::new(NullPolicy));
    let op = OpBuilder::annotated(0x1000).compute(100).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(5))));
    e.run_until_cycles(1_000_000);
    assert_eq!(e.total_ops(), 5);
    assert_eq!(e.thread_stats(0).ops_completed, 5);
    assert_eq!(e.machine().counters(0).operations_completed, 5);
}

#[test]
fn run_until_ops_stops_at_target() {
    let mut e = engine(Box::new(NullPolicy));
    let op = OpBuilder::annotated(0x1000).compute(10).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    e.run_until_ops(100);
    assert!(e.total_ops() >= 100);
    assert!(e.total_ops() < 110);
}

#[test]
fn static_policy_migrates_operations_and_returns_home() {
    let mut cfg = RuntimeConfig::default();
    cfg.return_home_after_op = true;
    let mut e = Engine::new(
        machine(),
        Box::new({
            let mut p = StaticPolicy::new();
            p.assign(0x1000, 3);
            p
        }),
        cfg,
    );
    let op = OpBuilder::annotated(0x1000).compute(500).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(4))));
    e.run_until_cycles(10_000_000);
    let stats = e.thread_stats(0);
    assert_eq!(stats.ops_completed, 4);
    assert_eq!(stats.migrations, 4);
    assert_eq!(stats.returns_home, 4);
    // The compute cycles of the operations landed on core 3.
    assert!(e.machine().counters(3).busy_cycles >= 4 * 500);
    assert_eq!(e.machine().counters(3).operations_completed, 4);
    assert_eq!(e.machine().counters(0).operations_completed, 0);
    assert!(e.machine().counters(0).migrations_out >= 4);
    assert!(e.machine().counters(3).migrations_in >= 4);
}

#[test]
fn migration_cost_is_roughly_the_papers_2000_cycles() {
    // One op that migrates from core 0 to core 1 and back, with zero
    // compute: the migration cycles accounted by the runtime for the
    // round trip should land near the paper's measured 2000 cycles.
    let mut cfg = RuntimeConfig::default();
    cfg.return_home_after_op = true;
    let mut p = StaticPolicy::new();
    p.assign(0x1000, 1);
    let mut e = Engine::new(machine(), Box::new(p), cfg);
    let op = OpBuilder::annotated(0x1000).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(1))));
    e.run_until_cycles(100_000);
    let stats = e.thread_stats(0);
    assert_eq!(stats.migrations, 1);
    assert_eq!(stats.returns_home, 1);
    let round_trip = stats.migration_cycles;
    assert!(
        (1400..=3000).contains(&round_trip),
        "round-trip migration cost {round_trip} outside the expected band"
    );
}

#[test]
fn lock_contention_across_cores_spins() {
    let mut e = engine(Box::new(NullPolicy));
    let lock_region = e.machine_mut().memory_mut().alloc(64, 99);
    let lock = e.register_lock(lock_region.addr);
    // Two threads on different cores hammer the same lock.
    for core in 0..2 {
        let op = OpBuilder::new()
            .lock(lock)
            .compute(2000)
            .unlock(lock)
            .build();
        e.spawn(core, Box::new(RepeatBehaviour::new(op, Some(20))));
    }
    e.run_until_cycles(2_000_000);
    assert!(e.locks().total_contention() > 0);
    assert_eq!(e.locks().total_acquisitions(), 40);
    let waits: u64 = (0..2).map(|t| e.thread_stats(t).lock_wait_cycles).sum();
    assert!(waits > 0);
}

#[test]
fn same_core_lock_contention_yields_instead_of_deadlocking() {
    let mut e = engine(Box::new(NullPolicy));
    let lock_region = e.machine_mut().memory_mut().alloc(64, 99);
    let lock = e.register_lock(lock_region.addr);
    // Two threads on the SAME core share a lock; cooperative scheduling
    // must interleave them rather than deadlock.
    for _ in 0..2 {
        let op = OpBuilder::new()
            .lock(lock)
            .compute(1000)
            .unlock(lock)
            .build();
        e.spawn(0, Box::new(RepeatBehaviour::new(op, Some(10))));
    }
    e.run_until_cycles(10_000_000);
    assert_eq!(e.live_threads(), 0, "threads must run to completion");
    assert_eq!(e.locks().total_acquisitions(), 20);
}

#[test]
fn yield_rotates_threads_on_a_core() {
    let mut e = engine(Box::new(NullPolicy));
    let a = e.spawn(
        0,
        Box::new(RepeatBehaviour::new(
            vec![Action::Compute(100), Action::Yield],
            Some(10),
        )),
    );
    let b = e.spawn(
        0,
        Box::new(RepeatBehaviour::new(
            vec![Action::Compute(100), Action::Yield],
            Some(10),
        )),
    );
    e.run_until_cycles(1_000_000);
    assert_eq!(e.thread_stats(a).actions_executed, 21);
    assert_eq!(e.thread_stats(b).actions_executed, 21);
    assert_eq!(e.live_threads(), 0);
}

#[test]
fn run_window_reports_throughput() {
    let mut e = engine(Box::new(NullPolicy));
    let op = OpBuilder::annotated(0x1000).compute(1000).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    let w = e.run_window(1_000_000);
    // ~1000 ops in 1M cycles (one op per ~1000 cycles).
    assert!(w.ops > 800 && w.ops < 1100, "ops = {}", w.ops);
    assert!(w.kops_per_second() > 0.0);
    assert_eq!(w.per_core_ops.iter().sum::<u64>(), w.ops);
}

#[test]
fn idle_cores_accumulate_idle_cycles() {
    let mut e = engine(Box::new(NullPolicy));
    let op = OpBuilder::annotated(0x1).compute(100).finish();
    e.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    e.run_until_cycles(100_000);
    // Cores 1-3 had no threads: all their time is idle.
    for core in 1..4 {
        assert!(e.machine().counters(core).idle_cycles >= 90_000);
    }
    assert_eq!(e.machine().counters(0).idle_cycles, 0);
}

#[test]
fn epoch_callback_fires() {
    struct EpochCounter {
        epochs: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl SchedPolicy for EpochCounter {
        fn name(&self) -> &'static str {
            "epoch-counter"
        }
        fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
            self.epochs.set(self.epochs.get() + 1);
            Vec::new()
        }
    }
    let epochs = std::rc::Rc::new(std::cell::Cell::new(0));
    let mut cfg = RuntimeConfig::default();
    cfg.epoch_cycles = 10_000;
    let mut e = Engine::new(
        machine(),
        Box::new(EpochCounter {
            epochs: epochs.clone(),
        }),
        cfg,
    );
    for core in 0..4 {
        e.spawn(
            core,
            Box::new(RepeatBehaviour::new(vec![Action::Compute(100)], None)),
        );
    }
    e.run_until_cycles(100_000);
    assert!(epochs.get() >= 8, "epochs fired: {}", epochs.get());
}

#[test]
fn rehome_command_moves_queued_threads() {
    struct RehomeOnce {
        done: bool,
    }
    impl SchedPolicy for RehomeOnce {
        fn name(&self) -> &'static str {
            "rehome-once"
        }
        fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
            if self.done {
                Vec::new()
            } else {
                self.done = true;
                vec![PolicyCommand::RehomeThread { thread: 1, core: 2 }]
            }
        }
    }
    let mut cfg = RuntimeConfig::default();
    cfg.epoch_cycles = 5_000;
    let mut e = Engine::new(machine(), Box::new(RehomeOnce { done: false }), cfg);
    // Two threads on core 0; thread 1 gets rehomed to core 2.
    for _ in 0..2 {
        e.spawn(
            0,
            Box::new(RepeatBehaviour::new(
                vec![Action::Compute(200), Action::Yield],
                None,
            )),
        );
    }
    e.run_until_cycles(200_000);
    assert!(e.machine().counters(2).busy_cycles > 0);
    assert!(e.machine().counters(2).migrations_in >= 1);
}

#[test]
fn region_objects_are_registered_by_their_first_ct_start() {
    /// Logs `register_object` and `on_ct_start` calls in order.
    struct Recorder {
        log: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    }
    impl SchedPolicy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
            self.log.borrow_mut().push(format!(
                "register {id} key {:#x} size {}",
                object.id, object.size
            ));
        }
        fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
            self.log.borrow_mut().push(format!("start {}", ctx.object));
            Placement::Local
        }
    }
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut e = engine(Box::new(Recorder { log: log.clone() }));
    let region = ObjectRegion {
        base: 0x4000,
        stride: 0x100,
        size: 0x80,
        count: 1 << 20,
    };
    assert_eq!(e.register_region(region), Ok(()));
    assert_eq!(
        e.register_region(region),
        Err(RegionError::Overlap { existing: region })
    );
    assert!(
        log.borrow().is_empty(),
        "declaring a region registers nothing"
    );
    assert!(e.object_index().is_empty());

    // Object 5 twice, then an off-stride key inside the span, then
    // object 0.
    let op = |key| OpBuilder::annotated(key).compute(10).finish();
    let ops = [op(0x4500), op(0x4500), op(0x4501), op(0x4000)].concat();
    e.spawn(0, Box::new(FixedBehaviour::new(ops)));
    e.run_until_cycles(100_000);
    assert_eq!(e.total_ops(), 4);
    assert_eq!(
        *log.borrow(),
        [
            "register 0 key 0x4500 size 128",
            "start 0",
            "start 0",
            "start 1",
            "register 2 key 0x4000 size 128",
            "start 2",
        ]
    );
    assert_eq!(e.object_index().len(), 3);
}

#[test]
fn ct_end_without_start_is_a_typed_error() {
    let mut e = engine(Box::new(NullPolicy));
    e.spawn(0, Box::new(FixedBehaviour::new(vec![Action::CtEnd])));
    assert_eq!(
        e.try_run_until_cycles(10_000),
        Err(EngineError::CtEndWithoutCtStart { thread: 0 })
    );
}

#[test]
fn nested_ct_start_is_a_typed_error() {
    let mut e = engine(Box::new(NullPolicy));
    e.spawn(
        0,
        Box::new(FixedBehaviour::new(vec![
            Action::CtStart(1, AccessKind::Write),
            Action::CtStart(2, AccessKind::Write),
        ])),
    );
    assert_eq!(
        e.try_run_until_cycles(10_000),
        Err(EngineError::NestedCtStart { thread: 0 })
    );
}

#[test]
fn determinism_same_seeded_run_twice() {
    let run = || {
        let mut p = StaticPolicy::new();
        p.assign(0x1000, 2);
        p.assign(0x2000, 3);
        let mut e = engine(Box::new(p));
        for core in 0..4u32 {
            let obj = if core % 2 == 0 { 0x1000 } else { 0x2000 };
            let op = OpBuilder::annotated(obj).compute(300).finish();
            e.spawn(core, Box::new(RepeatBehaviour::new(op, Some(50))));
        }
        e.run_until_cycles(5_000_000);
        (
            e.total_ops(),
            e.max_clock(),
            e.machine().counters(2).busy_cycles,
            e.machine().counters(3).migrations_in,
        )
    };
    assert_eq!(run(), run());
}
