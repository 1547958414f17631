//! Lockstep: the native driver does not distort the policy interface.
//!
//! The same recorded op trace is fed to two instances of the same
//! policy — one driven directly, exactly as the simulator's engine
//! calls it (`on_ct_start` / `on_ct_end` / `on_epoch` against a
//! `Machine` view), and one through the native runtime's [`PolicyHost`]
//! shim. Placement decisions and epoch commands must be identical call
//! for call; anything else would mean the native runtime feeds policies
//! different contexts than the simulator does.

use o2_core::{CoreTime, CoreTimeConfig};
use o2_native::host::OpIdentity;
use o2_native::{synthetic_delta, NativeLookup, NativeLookupSpec, NativeWorkload, PolicyHost};
use o2_runtime::{
    CounterDelta, EpochView, Machine, OpContext, Placement, PolicyCommand, SchedPolicy,
};

const WORKERS: usize = 4;
const OPS: u64 = 2_000;
const EPOCH_EVERY: u64 = 250;

/// One recorded trace entry: who submitted which op when.
struct TraceOp {
    submitter: usize,
    object: u32,
    key: u64,
    now: u64,
    kind: o2_sim::AccessKind,
    bytes: u64,
    cycles: u64,
}

fn record_trace() -> Vec<TraceOp> {
    let mut spec = NativeLookupSpec::small(1234);
    spec.n_dirs = 12;
    spec.zipf_exponent = Some(1.2);
    let wl = NativeLookup::build(&spec);
    (0..OPS)
        .map(|index| {
            let op = wl.op(index);
            let done = wl.execute(&op);
            TraceOp {
                submitter: (index % WORKERS as u64) as usize,
                object: op.object,
                key: wl.key_of(op.object),
                now: index * 200 + 1,
                kind: op.kind,
                bytes: done.bytes_touched,
                cycles: done.modeled_cycles,
            }
        })
        .collect()
}

/// What one driver saw the policy do.
#[derive(Debug, PartialEq)]
struct Driven {
    /// Every `ct_start` placement, in trace order.
    placements: Vec<Placement>,
    /// Every epoch command, in epoch order.
    commands: Vec<PolicyCommand>,
}

fn add(acc: &mut CounterDelta, d: &CounterDelta) {
    acc.busy_cycles += d.busy_cycles;
    acc.idle_cycles += d.idle_cycles;
    acc.l1_misses += d.l1_misses;
    acc.l2_misses += d.l2_misses;
    acc.l2_hits += d.l2_hits;
    acc.l3_hits += d.l3_hits;
    acc.l3_misses += d.l3_misses;
    acc.remote_cache_loads += d.remote_cache_loads;
    acc.dram_loads += d.dram_loads;
    acc.operations_completed += d.operations_completed;
}

/// Drives the policy the way the simulator's engine does.
fn drive_directly(mut policy: Box<dyn SchedPolicy + Send>, trace: &[TraceOp]) -> Driven {
    let machine = Machine::new(o2_native::native_machine_config(WORKERS));
    let mut deltas = vec![CounterDelta::default(); WORKERS];
    let mut placements = Vec::with_capacity(trace.len());
    let mut commands = Vec::new();
    for (i, t) in trace.iter().enumerate() {
        let mut ctx = OpContext {
            thread: t.submitter,
            core: t.submitter as u32,
            home_core: t.submitter as u32,
            object: t.object,
            object_key: t.key,
            now: t.now,
            kind: t.kind,
            machine: &machine,
        };
        let placement = policy.on_ct_start(&ctx);
        placements.push(placement);
        let executed = match placement {
            Placement::On(core) if (core as usize) < WORKERS => core as usize,
            _ => t.submitter,
        };
        let delta = synthetic_delta(t.bytes, t.cycles);
        ctx.core = executed as u32;
        policy.on_ct_end(&ctx, &delta);
        add(&mut deltas[executed], &delta);
        if (i as u64 + 1) % EPOCH_EVERY == 0 {
            commands.extend(policy.on_epoch(&EpochView {
                now: t.now,
                machine: &machine,
                deltas: &deltas,
            }));
            deltas = vec![CounterDelta::default(); WORKERS];
        }
    }
    Driven {
        placements,
        commands,
    }
}

/// Drives an identical policy through the native runtime's shim.
fn drive_through_host(policy: Box<dyn SchedPolicy + Send>, trace: &[TraceOp]) -> Driven {
    let cfg = o2_native::native_machine_config(WORKERS);
    let mut host = PolicyHost::new(policy, &cfg);
    let mut deltas = vec![CounterDelta::default(); WORKERS];
    let mut placements = Vec::with_capacity(trace.len());
    let mut commands = Vec::new();
    for (i, t) in trace.iter().enumerate() {
        let identity = OpIdentity {
            worker: t.submitter,
            object: t.object,
            key: t.key,
            now: t.now,
            kind: t.kind,
        };
        let placement = host.place(&identity, WORKERS);
        placements.push(placement);
        let executed = match placement {
            Placement::On(core) => core as usize,
            Placement::Local => t.submitter,
        };
        let delta = synthetic_delta(t.bytes, t.cycles);
        host.ct_end(&identity, executed, &delta);
        add(&mut deltas[executed], &delta);
        if (i as u64 + 1) % EPOCH_EVERY == 0 {
            commands.extend(host.epoch(t.now, &deltas));
            deltas = vec![CounterDelta::default(); WORKERS];
        }
    }
    Driven {
        placements,
        commands,
    }
}

fn register_all(policy: &mut dyn SchedPolicy) {
    let mut spec = NativeLookupSpec::small(1234);
    spec.n_dirs = 12;
    spec.zipf_exponent = Some(1.2);
    let wl = NativeLookup::build(&spec);
    policy.reserve_objects(wl.n_objects() as usize);
    for object in 0..wl.n_objects() {
        policy.register_object(object, &wl.descriptor(object));
    }
}

fn lockstep_for(make: impl Fn() -> Box<dyn SchedPolicy + Send>) -> (Driven, Driven) {
    let trace = record_trace();
    let mut direct = make();
    register_all(direct.as_mut());
    let mut hosted = make();
    register_all(hosted.as_mut());
    (
        drive_directly(direct, &trace),
        drive_through_host(hosted, &trace),
    )
}

#[test]
fn coretime_places_identically_under_sim_and_native_drivers() {
    let machine = o2_native::native_machine_config(WORKERS);
    let (direct, hosted) = lockstep_for(|| CoreTime::policy(&machine));
    assert_eq!(direct.placements.len(), hosted.placements.len());
    assert_eq!(direct, hosted);
    // The trace must actually exercise migration for the test to mean
    // anything.
    assert!(
        direct
            .placements
            .iter()
            .any(|p| matches!(p, Placement::On(_))),
        "CoreTime never migrated on this trace"
    );
}

#[test]
fn coretime_serving_places_identically_under_both_drivers() {
    let machine = o2_native::native_machine_config(WORKERS);
    let (direct, hosted) =
        lockstep_for(|| CoreTime::policy_with(&machine, CoreTimeConfig::in_place()));
    assert_eq!(direct, hosted);
    // No core is avoided on this trace, so every operation runs in place.
    assert!(direct.placements.iter().all(|&p| p == Placement::Local));
}

#[test]
fn static_partition_places_identically_under_both_drivers() {
    let machine = o2_native::native_machine_config(WORKERS);
    let (direct, hosted) =
        lockstep_for(|| Box::new(o2_baseline::StaticPartition::new(machine.total_cores())));
    assert_eq!(direct, hosted);
    assert!(direct
        .placements
        .iter()
        .any(|p| matches!(p, Placement::On(_))));
}
