//! The crate's determinism contract, end to end and under a real
//! policy: op counts and the final shard state are identical across
//! reruns, worker counts and policies, even though timings, migrations
//! and occupancy are free to vary.

use o2_baseline::{StaticPartition, ThreadClustering, ThreadScheduler};
use o2_core::{CoreTime, CoreTimeConfig};
use o2_native::{
    run_native, NativeConfig, NativeLookup, NativeLookupSpec, NativeMeasurement, NativeWorkload,
};
use o2_runtime::SchedPolicy;

fn cfg(workers: usize) -> NativeConfig {
    let mut cfg = NativeConfig::new(workers);
    cfg.warmup_ops = 200;
    cfg.measure_ops = 4_000;
    cfg.epoch_every_ops = 1_000;
    cfg
}

/// The small lookup's write share: its descriptors are read-mostly.
const FEW_WRITES: f64 = 0.1;

/// A write share past one half makes the lookup's descriptors
/// write-shared (`read_mostly(false)`).
const WRITE_SHARED: f64 = 0.9;

fn small_spec(write_fraction: f64) -> NativeLookupSpec {
    let mut spec = NativeLookupSpec::small(42);
    spec.n_dirs = 16;
    spec.zipf_exponent = Some(1.1);
    spec.write_fraction = write_fraction;
    spec
}

fn run_lookup(workers: usize, write_fraction: f64) -> NativeMeasurement {
    let wl = NativeLookup::build(&small_spec(write_fraction));
    let machine = o2_native::native_machine_config(workers);
    run_native(&wl, CoreTime::policy(&machine), &cfg(workers))
}

/// The invariants every run must satisfy regardless of schedule.
fn assert_counts(m: &NativeMeasurement, workers: usize) {
    assert_eq!(m.ops, 4_000);
    assert_eq!(m.reads + m.writes, m.ops);
    assert_eq!(m.per_worker_ops.len(), workers);
    assert_eq!(m.per_worker_ops.iter().sum::<u64>(), m.ops);
    assert_eq!(m.epochs, 4);
}

#[test]
fn lookup_under_coretime_is_deterministic_across_reruns() {
    let a = run_lookup(2, FEW_WRITES);
    let b = run_lookup(2, FEW_WRITES);
    assert_counts(&a, 2);
    assert_counts(&b, 2);
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
}

#[test]
fn lookup_under_coretime_is_deterministic_across_worker_counts() {
    let digests: Vec<u64> = [1, 2, 3]
        .into_iter()
        .map(|w| {
            let m = run_lookup(w, FEW_WRITES);
            assert_counts(&m, w);
            m.state_digest
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}

#[test]
fn write_shared_lookup_is_deterministic_across_worker_counts() {
    let run = |workers: usize| {
        let m = run_lookup(workers, WRITE_SHARED);
        assert_counts(&m, workers);
        assert!(m.writes > m.reads, "writes {} reads {}", m.writes, m.reads);
        m.state_digest
    };
    let two = run(2);
    assert_eq!(two, run(1));
    assert_eq!(two, run(3));
    // Replay the warm-up and measured ops on one thread, last op first.
    // Most entries are written more than once, so an update that did not
    // commute would leave the stream's first writer in place here and a
    // later one in every threaded run.
    let replay = NativeLookup::build(&small_spec(WRITE_SHARED));
    assert!(!replay.descriptor(0).read_mostly);
    for index in (0..(200 + 4_000)).rev() {
        replay.execute(&replay.op(index));
    }
    assert_eq!(two, replay.state_digest());
}

#[test]
fn executed_state_matches_a_sequential_replay() {
    // The final digest of a threaded run equals replaying the same op
    // stream sequentially — the strongest form of "the schedule does not
    // change the work".
    let threaded = run_lookup(3, FEW_WRITES);

    let wl = NativeLookup::build(&small_spec(FEW_WRITES));
    for index in 0..(200 + 4_000) {
        let op = wl.op(index);
        wl.execute(&op);
    }
    assert_eq!(threaded.state_digest, wl.state_digest());
}

/// Every policy the experiment matrix compares, by name.
fn every_policy(workers: usize) -> Vec<(&'static str, Box<dyn SchedPolicy + Send>)> {
    let m = o2_native::native_machine_config(workers);
    vec![
        ("coretime", CoreTime::policy(&m)),
        (
            "coretime-serving",
            CoreTime::policy_with(&m, CoreTimeConfig::default().with_serving(64)),
        ),
        ("thread-scheduler", Box::new(ThreadScheduler::new())),
        (
            "thread-clustering",
            Box::new(ThreadClustering::new(m.chips, m.cores_per_chip)),
        ),
        (
            "static-partition",
            Box::new(StaticPartition::new(m.total_cores())),
        ),
    ]
}

/// A fresh lookup at `write_fraction`: the same op stream against the
/// same initial state every time. Zipf-popular 4 KB directories are
/// expensive enough that CoreTime assigns them and migrates operations to
/// their owners.
fn workload(write_fraction: f64) -> NativeLookup {
    let mut spec = NativeLookupSpec::paper_default(64, 0x000a_ce0f_ba5e);
    spec.entries_per_dir = 128;
    spec.zipf_exponent = Some(1.1);
    spec.write_fraction = write_fraction;
    NativeLookup::build(&spec)
}

#[test]
fn every_policy_leaves_the_same_state_and_only_coretime_migrates_lookups() {
    // How many migrations happen depends on the schedule; whether any
    // happen is the policy's decision.
    let workers = 2;
    for write_fraction in [0.05, WRITE_SHARED] {
        let mut digests = Vec::new();
        for (policy, p) in every_policy(workers) {
            let m = run_native(&workload(write_fraction), p, &cfg(workers));
            assert_counts(&m, workers);
            digests.push((policy, m.state_digest));
            match policy {
                "coretime" => assert!(m.migrations > 0, "CoreTime never migrated"),
                "thread-scheduler" => assert_eq!(m.migrations, 0),
                // Read-mostly traffic earns replicas, and their fills run
                // on the workers before the digest is taken.
                "coretime-serving" if write_fraction < 0.5 => {
                    assert!(m.fills_completed > 0, "serving never filled a replica")
                }
                _ => {}
            }
        }
        assert!(
            digests.iter().all(|&(_, d)| d == digests[0].1),
            "write fraction {write_fraction}: state digests diverged across policies: \
             {digests:#x?}"
        );
    }
}
