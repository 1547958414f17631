//! The `fsmeta` workload: file-metadata churn across many small
//! directories.
//!
//! The paper's benchmark only *reads* directories. Real file servers also
//! create, rename and unlink entries, and those operations are exactly
//! what materializes the volume's directories and frees their slots
//! (a cleared live bit and the `0xE5` marker on unlink). This workload drives
//! that churn end-to-end through the engine: each thread repeatedly picks
//! a directory and performs a create / unlink / rename / lookup — or,
//! with a small probability, retires the *whole directory* and recreates
//! it empty (exercising [`o2_fs::Volume::remove_directory`] and `DirId`
//! reuse) — with the host-side bookkeeping going through
//! [`o2_fs::Volume`]'s live-slot scan and the *modeled* cost staying the
//! paper's Figure-3 shape — take the directory lock, scan entries up to
//! the touched slot, write the 32-byte entry (for mutations), unlock,
//! all inside `ct_start`/`ct_end`.
//!
//! The volume is shared by every thread (`Rc<RefCell<…>>`): the engine is
//! single-threaded in host terms and executes threads in deterministic
//! virtual-time order, so the churn — and therefore the whole run — is a
//! pure function of the spec.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_fs::{lookup_actions, synthetic_name, DirId, LookupCost, Volume, DIRENT_SIZE};
use o2_runtime::{
    Action, BehaviourCtx, Engine, LockId, ObjectDescriptor, OpBehaviour, OpBuilder, OpGenerator,
    RuntimeConfig, SchedPolicy,
};
use o2_sim::{Machine, MachineConfig};

use crate::behaviour::DirectorySet;
use crate::experiment::{measure, Measurement};

/// A complete description of one metadata-churn run.
#[derive(Debug, Clone)]
pub struct FsMetaSpec {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Runtime (migration/locking/epoch) parameters.
    pub runtime: RuntimeConfig,
    /// Number of directories (many and small, unlike the lookup
    /// benchmark's few and large).
    pub n_dirs: u32,
    /// Entry slots per directory.
    pub capacity_per_dir: u32,
    /// Entries alive in each directory at the start.
    pub initial_live_per_dir: u32,
    /// Threads spawned per core.
    pub threads_per_core: u32,
    /// Cost model of the scan inner loop (shared with lookups).
    pub lookup_cost: LookupCost,
    /// RNG seed; every thread derives its own stream from it.
    pub seed: u64,
    /// Operations to run before measuring.
    pub warmup_ops: u64,
    /// Length of the measurement window, in cycles.
    pub measure_cycles: u64,
}

impl FsMetaSpec {
    /// A default churn setup: many 64-slot directories, half full, one
    /// thread per core on the paper's 16-core machine.
    pub fn paper_default(n_dirs: u32) -> Self {
        Self {
            machine: MachineConfig::amd16(),
            runtime: RuntimeConfig::default(),
            n_dirs: n_dirs.max(1),
            capacity_per_dir: 64,
            initial_live_per_dir: 32,
            threads_per_core: 1,
            lookup_cost: LookupCost::default(),
            seed: 42,
            warmup_ops: (6 * n_dirs as u64).max(2_000),
            measure_cycles: 3_000_000,
        }
    }

    /// Total number of workload threads.
    pub fn total_threads(&self) -> u32 {
        self.machine.total_cores() * self.threads_per_core
    }

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate()?;
        self.runtime.validate()?;
        if self.n_dirs == 0 || self.capacity_per_dir == 0 {
            return Err("need at least one directory with at least one slot".into());
        }
        if self.initial_live_per_dir > self.capacity_per_dir {
            return Err("initial_live_per_dir exceeds capacity_per_dir".into());
        }
        if self.threads_per_core == 0 {
            return Err("need at least one thread per core".into());
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be positive".into());
        }
        Ok(())
    }
}

/// Counters of what the churn actually did (host-side ground truth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsMetaStats {
    /// Entries created.
    pub created: u64,
    /// Entries unlinked (one at a time).
    pub unlinked: u64,
    /// Entries renamed.
    pub renamed: u64,
    /// Pure lookups (including deliberate misses).
    pub lookups: u64,
    /// Whole directories retired and recreated in place.
    pub dirs_recycled: u64,
    /// Entries drained while retiring directories.
    pub drained: u64,
}

/// Shared mutable state of one churn run: the volume plus the live-name
/// tracking the generators need to pick unlink/rename victims.
struct FsState {
    volume: Volume,
    /// Serial numbers of the live synthetic names, per directory.
    live: Vec<Vec<u32>>,
    /// Next unused serial per directory (names are never reused, so every
    /// create/rename target is fresh by construction).
    next_serial: Vec<u32>,
    stats: FsMetaStats,
}

impl FsState {
    /// Hands out the next fresh serial for `dir`. `synthetic_name`
    /// formats serials as `F{serial:07}.DAT`, so at 10^7 the 8.3
    /// truncation would alias earlier names and silently break the
    /// fresh-by-construction invariant — fail loudly instead (no
    /// realistic measurement window gets anywhere near it).
    fn fresh_serial(&mut self, dir: u32) -> u32 {
        let serial = self.next_serial[dir as usize];
        assert!(
            serial < 10_000_000,
            "fsmeta serial space exhausted in directory {dir}"
        );
        self.next_serial[dir as usize] = serial + 1;
        serial
    }
}

/// The per-thread metadata-churn generator.
pub struct FsMetaGen {
    state: Rc<RefCell<FsState>>,
    dirs: Rc<DirectorySet>,
    cost: LookupCost,
    /// Entry slots per directory, needed to recreate retired directories.
    capacity: u32,
    rng: StdRng,
    ops_generated: u64,
    max_ops: Option<u64>,
}

impl FsMetaGen {
    fn new(
        state: Rc<RefCell<FsState>>,
        dirs: Rc<DirectorySet>,
        cost: LookupCost,
        capacity: u32,
        seed: u64,
        max_ops: Option<u64>,
    ) -> Self {
        Self {
            state,
            dirs,
            cost,
            capacity,
            rng: StdRng::seed_from_u64(seed),
            ops_generated: 0,
            max_ops,
        }
    }

    /// The modeled action sequence of a mutating metadata op: scan to the
    /// touched slot under the directory lock, then write the 32-byte
    /// entry. Same cost model as a lookup plus the entry write.
    fn mutation_actions(&self, dir: DirId, lock: LockId, slot: u32) -> Vec<Action> {
        let handle = &self.dirs.dirs[dir as usize];
        let examined = u64::from(slot.min(handle.entry_count.saturating_sub(1)) + 1);
        OpBuilder::annotated(handle.object_id())
            .compute(self.cost.fixed_overhead_cycles)
            .lock(lock)
            .read(handle.sim_addr, examined * DIRENT_SIZE as u64)
            .compute(examined * self.cost.compare_cycles_per_entry)
            .write(handle.entry_addr(slot), DIRENT_SIZE as u64)
            .unlock(lock)
            .finish()
    }
}

impl OpGenerator for FsMetaGen {
    fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<Action> {
        if let Some(max) = self.max_ops {
            if self.ops_generated >= max {
                return Vec::new();
            }
        }
        if self.dirs.is_empty() {
            return Vec::new();
        }
        let dir = self.rng.gen_range(0..self.dirs.len() as u32);
        let lock = self.dirs.locks[dir as usize];
        let roll = self.rng.gen_range(0..100u32);
        self.ops_generated += 1;

        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let live_n = st.live[dir as usize].len();
        let free_n = st.volume.free_slots(dir).expect("valid directory") as usize;

        // Keep the mix away from the walls: an empty directory can only
        // create, a full one can only unlink; otherwise 40% create,
        // 30% unlink, 14% rename, 14% lookup, 2% whole-directory
        // retirement.
        let choice = if live_n == 0 {
            0
        } else if free_n == 0 {
            40
        } else {
            roll
        };
        match choice {
            0..=39 => {
                let serial = st.fresh_serial(dir);
                let name = synthetic_name(serial);
                let slot = st
                    .volume
                    .create_entry(dir, &name, 64)
                    .expect("fsmeta create on a directory with free slots");
                st.live[dir as usize].push(serial);
                st.stats.created += 1;
                self.mutation_actions(dir, lock, slot)
            }
            40..=69 => {
                let pick = self.rng.gen_range(0..live_n);
                let serial = st.live[dir as usize].swap_remove(pick);
                let name = synthetic_name(serial);
                let slot = st
                    .volume
                    .unlink(dir, &name)
                    .expect("fsmeta unlink of a live entry");
                st.stats.unlinked += 1;
                self.mutation_actions(dir, lock, slot)
            }
            70..=83 => {
                let pick = self.rng.gen_range(0..live_n);
                let old_serial = st.live[dir as usize][pick];
                let new_serial = st.fresh_serial(dir);
                let slot = st
                    .volume
                    .rename(
                        dir,
                        &synthetic_name(old_serial),
                        &synthetic_name(new_serial),
                    )
                    .expect("fsmeta rename of a live entry to a fresh name");
                st.live[dir as usize][pick] = new_serial;
                st.stats.renamed += 1;
                self.mutation_actions(dir, lock, slot)
            }
            84..=97 => {
                st.stats.lookups += 1;
                let handle = &self.dirs.dirs[dir as usize];
                if roll == 97 {
                    // A deliberate miss: scans the whole directory.
                    let target = st.next_serial[dir as usize];
                    debug_assert_eq!(
                        st.volume.search(dir, &synthetic_name(target)).expect("dir"),
                        None
                    );
                    return lookup_actions(handle, lock, u32::MAX, &self.cost);
                }
                let pick = self.rng.gen_range(0..live_n);
                let serial = st.live[dir as usize][pick];
                let (slot, _) = st
                    .volume
                    .search(dir, &synthetic_name(serial))
                    .expect("valid directory")
                    .expect("live entry resolves");
                lookup_actions(handle, lock, slot, &self.cost)
            }
            _ => {
                // Retire the whole directory: drain the remaining live
                // entries, remove it (freeing its bytes and reclaiming
                // its DirId) and recreate it empty under the same id.
                // The simulated region and lock of the directory are
                // fixed at build time in `self.dirs`, so only the
                // host-side bookkeeping is torn down and rebuilt.
                let drained: Vec<u32> = st.live[dir as usize].drain(..).collect();
                let mut slots = Vec::with_capacity(drained.len());
                for serial in &drained {
                    let slot = st
                        .volume
                        .unlink(dir, &synthetic_name(*serial))
                        .expect("fsmeta drain of a live entry");
                    slots.push(slot);
                }
                st.volume
                    .remove_directory(dir)
                    .expect("drained directory is empty");
                let recreated = st.volume.create_directory_with_capacity(0, self.capacity);
                assert_eq!(recreated, dir, "the freed DirId slot is reused immediately");
                st.stats.drained += drained.len() as u64;
                st.stats.dirs_recycled += 1;
                // Modeled cost: scan the whole directory under its lock,
                // write each drained entry's deleted marker, then the
                // directory metadata itself.
                let handle = &self.dirs.dirs[dir as usize];
                let mut op = OpBuilder::annotated(handle.object_id())
                    .compute(self.cost.fixed_overhead_cycles)
                    .lock(lock)
                    .read(
                        handle.sim_addr,
                        u64::from(handle.entry_count) * DIRENT_SIZE as u64,
                    )
                    .compute(u64::from(handle.entry_count) * self.cost.compare_cycles_per_entry);
                for &slot in &slots {
                    op = op.write(handle.entry_addr(slot), DIRENT_SIZE as u64);
                }
                op.write(handle.sim_addr, DIRENT_SIZE as u64)
                    .unlock(lock)
                    .finish()
            }
        }
    }
}

/// A fully constructed metadata-churn run.
pub struct FsMetaExperiment {
    spec: FsMetaSpec,
    engine: Engine,
    state: Rc<RefCell<FsState>>,
    dirs: Rc<DirectorySet>,
}

impl FsMetaExperiment {
    /// Builds the experiment: volume of `n_dirs` small directories mapped
    /// into simulated memory, engine under `policy`, one churn thread per
    /// core (times `threads_per_core`).
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid.
    pub fn build(spec: FsMetaSpec, policy: Box<dyn SchedPolicy>) -> Self {
        spec.validate().expect("invalid fsmeta specification");
        let mut machine = Machine::new(spec.machine.clone());

        let mut volume = Volume::default();
        for _ in 0..spec.n_dirs {
            volume.create_directory_with_capacity(spec.initial_live_per_dir, spec.capacity_per_dir);
        }
        volume.map_into(machine.memory_mut());

        let mut engine = Engine::new(machine, policy, spec.runtime);
        let mut locks = Vec::with_capacity(volume.dir_count());
        for dir in volume.directories() {
            let lock = engine.register_lock(dir.lock_addr);
            // Metadata churn writes the directories, so unlike the lookup
            // benchmark they are not read-mostly.
            engine.register_object(
                ObjectDescriptor::new(dir.object_id(), dir.sim_addr, dir.byte_len as u64)
                    .with_lock(lock),
            );
            locks.push(lock);
        }
        let dirs = Rc::new(DirectorySet {
            dirs: volume.directories().cloned().collect(),
            locks,
        });
        let state = Rc::new(RefCell::new(FsState {
            live: (0..spec.n_dirs)
                .map(|_| (0..spec.initial_live_per_dir).collect())
                .collect(),
            next_serial: vec![spec.initial_live_per_dir; spec.n_dirs as usize],
            stats: FsMetaStats::default(),
            volume,
        }));

        for t in 0..spec.total_threads() {
            let core = t % spec.machine.total_cores();
            let gen = FsMetaGen::new(
                Rc::clone(&state),
                Rc::clone(&dirs),
                spec.lookup_cost,
                spec.capacity_per_dir,
                spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9),
                None,
            );
            engine.spawn(core, Box::new(OpBehaviour::new(gen)));
        }

        Self {
            spec,
            engine,
            state,
            dirs,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The specification this experiment was built from.
    pub fn spec(&self) -> &FsMetaSpec {
        &self.spec
    }

    /// The directory set shared by the workload threads.
    pub fn directories(&self) -> &DirectorySet {
        &self.dirs
    }

    /// What the churn has done so far (host-side ground truth).
    pub fn meta_stats(&self) -> FsMetaStats {
        self.state.borrow().stats
    }

    /// Runs `f` against the shared volume (e.g. to fingerprint its final
    /// state in tests).
    pub fn with_volume<R>(&self, f: impl FnOnce(&Volume) -> R) -> R {
        f(&self.state.borrow().volume)
    }

    /// Live entries per directory, in dense-id order.
    pub fn live_counts(&self) -> Vec<u32> {
        let st = self.state.borrow();
        st.live.iter().map(|l| l.len() as u32).collect()
    }

    /// Runs the warm-up phase followed by the measurement window and
    /// returns the measurement (same shape as the lookup benchmark's).
    pub fn run(&mut self) -> Measurement {
        let total_bytes = self.state.borrow().volume.total_directory_bytes();
        let (warmup_ops, measure_cycles) = (self.spec.warmup_ops, self.spec.measure_cycles);
        measure(&mut self.engine, warmup_ops, measure_cycles, total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::NullPolicy;
    use o2_sim::ContentionModel;

    fn small_spec() -> FsMetaSpec {
        let mut spec = FsMetaSpec::paper_default(12);
        spec.machine = o2_sim::MachineConfig::quad4();
        spec.machine.contention = ContentionModel::None;
        spec.capacity_per_dir = 16;
        spec.initial_live_per_dir = 8;
        spec.warmup_ops = 200;
        spec.measure_cycles = 500_000;
        spec
    }

    #[test]
    fn churn_exercises_every_op_kind_and_stays_consistent() {
        let mut exp = FsMetaExperiment::build(small_spec(), Box::new(NullPolicy));
        let m = exp.run();
        assert!(m.window.ops > 0);
        let stats = exp.meta_stats();
        assert!(stats.created > 0, "no creates: {stats:?}");
        assert!(stats.unlinked > 0, "no unlinks: {stats:?}");
        assert!(stats.renamed > 0, "no renames: {stats:?}");
        assert!(stats.lookups > 0, "no lookups: {stats:?}");
        assert!(
            stats.dirs_recycled > 0,
            "no directories recycled: {stats:?}"
        );
        assert!(stats.drained > 0, "no entries drained: {stats:?}");
        // The host-side live tracking and the volume's flat index agree.
        let live = exp.live_counts();
        exp.with_volume(|v| {
            for (dir, &n) in live.iter().enumerate() {
                assert_eq!(v.live_entries(dir as u32).unwrap(), n, "dir {dir}");
                assert_eq!(
                    v.free_slots(dir as u32).unwrap(),
                    16 - n,
                    "dir {dir} slots not conserved"
                );
            }
        });
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut exp = FsMetaExperiment::build(small_spec(), Box::new(NullPolicy));
            let m = exp.run();
            (
                m.window.ops,
                m.window.end,
                exp.meta_stats(),
                exp.live_counts(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_churn_differently() {
        let run = |seed| {
            let mut spec = small_spec();
            spec.seed = seed;
            let mut exp = FsMetaExperiment::build(spec, Box::new(NullPolicy));
            exp.run();
            exp.meta_stats()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut s = small_spec();
        s.initial_live_per_dir = s.capacity_per_dir + 1;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.n_dirs = 0;
        assert!(s.validate().is_err());
        let mut s = small_spec();
        s.measure_cycles = 0;
        assert!(s.validate().is_err());
    }
}
