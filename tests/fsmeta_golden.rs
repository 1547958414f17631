//! Golden fingerprint of the `fsmeta` metadata-churn workload.
//!
//! `fsmeta` drives create / rename / unlink churn — plus occasional
//! whole-directory retirement through `Volume::remove_directory` and
//! `DirId` reuse — through the engine, with the volume's host-side
//! bookkeeping on each directory's entry bytes and live-slot bitmap, so
//! this run pins, end-to-end: the engine's virtual-time interleaving,
//! the modeled costs of the metadata operations, and the final state of
//! every directory (live entries, free slots, per-slot names). Any change
//! to the churn mix, the volume's slot-allocation order (first-fit), the
//! handle table's id reuse, which slots a name lookup treats as live, or
//! the engine's scheduling changes the fingerprint.
//!
//! To re-capture after an *intentional* behaviour change:
//! `O2_PRINT_FINGERPRINTS=1 cargo test --test fsmeta_golden -- --nocapture`

use o2_suite::runtime::NullPolicy;
use o2_suite::sim::{ContentionModel, MachineConfig};
use o2_suite::workloads::{FsMetaExperiment, FsMetaSpec};

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

fn spec() -> FsMetaSpec {
    let mut spec = FsMetaSpec::paper_default(12);
    // Small machine and windows so the golden run stays fast; contention
    // off so the fingerprint is a function of the documented cost model.
    spec.machine = MachineConfig::quad4();
    spec.machine.contention = ContentionModel::None;
    spec.capacity_per_dir = 16;
    spec.initial_live_per_dir = 8;
    spec.warmup_ops = 200;
    spec.measure_cycles = 500_000;
    spec
}

fn run_fingerprint() -> u64 {
    let mut exp = FsMetaExperiment::build(spec(), Box::new(NullPolicy));
    let m = exp.run();
    let stats = exp.meta_stats();
    let mut f = Fnv::new();
    f.u64(m.window.ops);
    f.u64(m.window.end);
    f.u64(m.lock_contention);
    f.u64(stats.created);
    f.u64(stats.unlinked);
    f.u64(stats.renamed);
    f.u64(stats.lookups);
    f.u64(stats.dirs_recycled);
    f.u64(stats.drained);
    for &n in &exp.live_counts() {
        f.u64(u64::from(n));
    }
    // The final contents of every directory, slot by slot: which slots
    // are live, and under which (canonicalised) names. Every slot's
    // display name is asked for, free ones included, so a lookup that
    // compared free slots' stale bytes would change the fingerprint.
    exp.with_volume(|v| {
        for dir in 0..v.dir_count() as u32 {
            let d = v.directory(dir).unwrap();
            for slot in 0..d.entry_count {
                let e = v.read_entry(dir, slot).unwrap();
                let name = e.display_name();
                let live = v.find_entry(dir, &name).unwrap() == Some(slot);
                f.u64(u64::from(live));
                if live {
                    let mut h = Fnv::new();
                    for b in name.bytes() {
                        h.u64(u64::from(b));
                    }
                    f.u64(h.0);
                }
            }
            f.u64(u64::from(v.live_entries(dir).unwrap()));
            f.u64(u64::from(v.free_slots(dir).unwrap()));
        }
    });
    f.0
}

/// Captured when the directory-retirement arm entered the churn mix
/// (PR 5, alongside `Volume::remove_directory`). The workload, the
/// volume's first-fit slot allocation, the handle table's id reuse and
/// the live-slot name lookup must keep reproducing it bit-for-bit.
const GOLDEN_FINGERPRINT: u64 = 0xea93_785b_40a7_b663;

#[test]
fn fsmeta_run_is_deterministic() {
    assert_eq!(run_fingerprint(), run_fingerprint());
}

#[test]
fn fsmeta_matches_the_golden_fingerprint() {
    let got = run_fingerprint();
    if std::env::var("O2_PRINT_FINGERPRINTS").is_ok() {
        println!("fsmeta fingerprint: {got:#018x}");
    }
    assert_eq!(
        got, GOLDEN_FINGERPRINT,
        "fsmeta behaviour changed; if intentional, re-capture with \
         O2_PRINT_FINGERPRINTS=1"
    );
}
