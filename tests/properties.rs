//! Randomised property tests for the core data structures and invariants.
//!
//! These were originally written against `proptest`; the workspace builds
//! offline, so they are expressed as seeded-loop properties instead: each
//! test draws many random cases from a fixed-seed [`StdRng`] and asserts
//! the same invariants. Failures are reproducible by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_suite::coretime::{place_balanced, AssignmentTable};
use o2_suite::fs::{split_8_3, synthetic_name, DirEntry, Fat, Volume, DIRENT_SIZE};
use o2_suite::sim::{AccessKind, Cache, CacheGeometry, ContentionModel, Machine, MachineConfig};

const CASES: usize = 48;

fn rng_for(test: u64) -> StdRng {
    StdRng::seed_from_u64(0x0510_7E57 ^ test)
}

/// Balanced placement never overflows any core's budget, refuses an
/// object only when no core has room for it, and every object it places
/// is in the table.
#[test]
fn packing_respects_budgets() {
    let mut rng = rng_for(1);
    for _ in 0..CASES {
        let n_items = rng.gen_range(1u32..80);
        let n_cores = rng.gen_range(1usize..16);
        let capacities: Vec<u64> = (0..n_cores).map(|_| rng.gen_range(1u64..500_000)).collect();
        let mut table = AssignmentTable::new(capacities.clone());
        for object in 0..n_items {
            let size = rng.gen_range(1u64..200_000);
            let room = (0..n_cores as u32).any(|c| table.free_bytes(c) >= size);
            let placed = place_balanced(&mut table, object, size);
            assert_eq!(placed.is_some(), room, "object {object} of {size} B");
            assert_eq!(table.is_assigned(object), room);
        }
        for (core, &cap) in capacities.iter().enumerate() {
            let used = table.used_bytes(core as u32);
            assert!(used <= cap, "core over budget: {used} > {cap}");
        }
    }
}

/// Assignment-table bookkeeping: used + free always equals capacity,
/// regardless of the operation sequence.
#[test]
fn assignment_table_accounting_is_conserved() {
    let mut rng = rng_for(2);
    for _ in 0..CASES {
        let mut table = AssignmentTable::new(vec![100_000; 4]);
        let mut sizes = std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1usize..200) {
            let obj = rng.gen_range(0u32..32);
            let size = rng.gen_range(1u64..5000);
            let core = rng.gen_range(0u32..4);
            if rng.gen_range(0u8..2) == 0 {
                let size = *sizes.entry(obj).or_insert(size);
                let _ = table.assign(obj, size, core);
            } else if sizes.contains_key(&obj) {
                let _ = table.unassign(obj);
            }
            for c in 0..4u32 {
                assert_eq!(table.used_bytes(c) + table.free_bytes(c), table.capacity(c));
            }
        }
    }
}

/// A cache never holds more lines than its capacity and never reports a
/// line it did not insert.
#[test]
fn cache_capacity_is_never_exceeded() {
    let mut rng = rng_for(3);
    for _ in 0..CASES {
        let mut cache = Cache::new(CacheGeometry::new(64 * 64, 4), 64);
        let mut inserted = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(1usize..500) {
            let line = rng.gen_range(0u64..10_000);
            cache.insert(line, false);
            inserted.insert(line);
            assert!(cache.resident_lines() <= cache.capacity_lines());
        }
        for line in cache.lines() {
            assert!(inserted.contains(&line));
        }
    }
}

/// FAT chains produced by consecutive allocations never share clusters.
#[test]
fn fat_chains_are_disjoint() {
    let mut rng = rng_for(4);
    for _ in 0..CASES {
        let counts: Vec<usize> = (0..rng.gen_range(1usize..20))
            .map(|_| rng.gen_range(1usize..20))
            .collect();
        let total: usize = counts.iter().sum();
        let mut fat = Fat::new(total + 8);
        let mut seen = std::collections::HashSet::new();
        for count in counts {
            let first = fat.alloc_chain(count).unwrap();
            let chain = fat.chain(first).unwrap();
            assert_eq!(chain.len(), count);
            for cluster in chain {
                assert!(seen.insert(cluster), "cluster {cluster} allocated twice");
            }
        }
    }
}

/// Directory entries survive an encode/decode round trip for arbitrary
/// names and metadata.
#[test]
fn dirent_round_trips() {
    const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = rng_for(5);
    let word = |rng: &mut StdRng, min: usize, max: usize| {
        let len = rng.gen_range(min..max + 1);
        (0..len)
            .map(|_| ALNUM[rng.gen_range(0usize..ALNUM.len())] as char)
            .collect::<String>()
    };
    for _ in 0..4 * CASES {
        let name = word(&mut rng, 1, 12);
        let ext = word(&mut rng, 0, 3);
        let cluster = rng.gen_range(2u16..0xFFF0);
        let size = rng.gen::<u32>();
        let full = if ext.is_empty() {
            name.clone()
        } else {
            format!("{name}.{ext}")
        };
        let entry = DirEntry::file(&full, cluster, size);
        let decoded = DirEntry::decode(&entry.encode()).unwrap();
        assert_eq!(entry, decoded);
        let (n, e) = split_8_3(&full);
        assert_eq!(decoded.name, n);
        assert_eq!(decoded.ext, e);
    }
}

/// Searching any existing file in a benchmark volume finds it at the right
/// index having examined exactly index + 1 entries.
#[test]
fn volume_search_finds_every_file() {
    let mut rng = rng_for(6);
    for _ in 0..CASES {
        let dirs = rng.gen_range(1u32..6);
        let files = rng.gen_range(1u32..200);
        let probe = rng.gen_range(0u32..200);
        let volume = Volume::build_benchmark(dirs, files).unwrap();
        let target = probe % files;
        let dir = probe % dirs;
        let name = synthetic_name(target);
        let (idx, examined) = volume.search(dir, &name).unwrap().unwrap();
        assert_eq!(idx, target);
        assert_eq!(examined, target + 1);
        assert_eq!(
            volume.total_directory_bytes(),
            u64::from(dirs) * u64::from(files) * DIRENT_SIZE as u64
        );
    }
}

/// Simulator sanity for arbitrary small access patterns: costs are always
/// at least the L1 latency, re-reading the same address twice in a row is
/// never slower the second time, and counters add up.
#[test]
fn machine_access_costs_are_sane() {
    let mut rng = rng_for(7);
    for _ in 0..CASES {
        let mut cfg = MachineConfig::quad4();
        cfg.contention = ContentionModel::None;
        let mut machine = Machine::new(cfg);
        let region = machine.memory_mut().alloc(32_768 + 64, 0);
        let n_accesses = rng.gen_range(1usize..100);
        for _ in 0..n_accesses {
            let offset = rng.gen_range(0u64..32_768);
            let kind = if rng.gen::<bool>() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let first = machine.access(0, region.addr + offset, 8, kind);
            let second = machine.access(0, region.addr + offset, 8, AccessKind::Read);
            assert!(first >= 3);
            assert!(second <= first);
        }
        // Every access touches one or two lines (8-byte accesses may cross
        // a line boundary), so the counters bracket the access count.
        let counters = machine.counters(0);
        let line_touches = counters.l1_hits + counters.l1_misses;
        assert!(line_touches >= 2 * n_accesses as u64);
        assert!(line_touches <= 4 * n_accesses as u64);
    }
}
