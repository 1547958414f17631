//! Thread clustering (Tam et al., EuroSys 2007) as a comparator.
//!
//! The related-work section of the paper argues that "thread clustering
//! will not improve performance since all threads look up files in the same
//! directories": clustering co-locates threads with similar working sets on
//! the same chip so they can share a cache, but when every thread shares
//! the *same* working set there is nothing to separate. This policy
//! implements sharing-aware thread placement so the claim can be tested.

use std::collections::{HashMap, HashSet};

use o2_runtime::{
    CoreId, CounterDelta, DenseObjectId, EpochView, OpContext, Placement, PolicyCommand,
    SchedPolicy, ThreadId,
};

/// Sharing-aware thread clustering.
///
/// The policy observes which objects each thread operates on. At every
/// epoch it greedily groups threads with high working-set overlap (Jaccard
/// similarity above a threshold) and rehomes each group onto the cores of a
/// single chip. Operations themselves never migrate.
#[derive(Debug)]
pub struct ThreadClustering {
    chips: u32,
    cores_per_chip: u32,
    similarity_threshold: f64,
    /// Objects each thread touched since the last epoch (dense ids).
    access_sets: HashMap<ThreadId, HashSet<DenseObjectId>>,
    /// Number of rehoming rounds performed (at most one per epoch when the
    /// clustering changes).
    reclusterings: u64,
    /// Last computed placement, to avoid issuing redundant commands.
    last_placement: HashMap<ThreadId, CoreId>,
}

impl ThreadClustering {
    /// Creates a clustering policy for a machine topology.
    pub fn new(chips: u32, cores_per_chip: u32) -> Self {
        Self {
            chips: chips.max(1),
            cores_per_chip: cores_per_chip.max(1),
            similarity_threshold: 0.5,
            access_sets: HashMap::new(),
            reclusterings: 0,
            last_placement: HashMap::new(),
        }
    }

    /// Sets the Jaccard-similarity threshold for putting two threads in the
    /// same cluster.
    pub fn with_similarity_threshold(mut self, threshold: f64) -> Self {
        self.similarity_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// Number of times the placement was recomputed and changed.
    pub fn reclusterings(&self) -> u64 {
        self.reclusterings
    }

    fn similarity(a: &HashSet<DenseObjectId>, b: &HashSet<DenseObjectId>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        let union = a.union(b).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Greedy clustering: seed a cluster with the first unassigned thread,
    /// pull in every thread whose similarity to the seed crosses the
    /// threshold. Threads with an empty observation window are skipped —
    /// there is no evidence to move them on.
    fn cluster(&self) -> Vec<Vec<ThreadId>> {
        let mut threads: Vec<ThreadId> = self
            .access_sets
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .map(|(t, _)| *t)
            .collect();
        threads.sort_unstable();
        let mut unassigned: Vec<ThreadId> = threads;
        let mut clusters = Vec::new();
        while let Some(seed) = unassigned.first().copied() {
            let seed_set = &self.access_sets[&seed];
            let (members, rest): (Vec<ThreadId>, Vec<ThreadId>) =
                unassigned.iter().copied().partition(|t| {
                    *t == seed
                        || Self::similarity(seed_set, &self.access_sets[t])
                            >= self.similarity_threshold
                });
            clusters.push(members);
            unassigned = rest;
        }
        clusters
    }
}

impl SchedPolicy for ThreadClustering {
    fn name(&self) -> &'static str {
        "thread-clustering"
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        self.access_sets
            .entry(ctx.thread)
            .or_default()
            .insert(ctx.object);
        Placement::Local
    }

    fn on_ct_end(&mut self, _ctx: &OpContext<'_>, _delta: &CounterDelta) {}

    fn on_epoch(&mut self, _view: &EpochView<'_>) -> Vec<PolicyCommand> {
        if self.access_sets.is_empty() {
            return Vec::new();
        }
        let clusters = self.cluster();
        // Assign clusters to chips round-robin, and threads to the chip's
        // cores round-robin. The per-chip cursor carries on where the
        // chip's previous cluster stopped, so small clusters sharing a
        // chip spread over its cores instead of stacking on the first.
        let mut placement: HashMap<ThreadId, CoreId> = HashMap::new();
        let mut next_core = vec![0u32; self.chips as usize];
        for (i, cluster) in clusters.iter().enumerate() {
            let chip = (i as u32) % self.chips;
            let cursor = &mut next_core[chip as usize];
            for &thread in cluster {
                placement.insert(thread, chip * self.cores_per_chip + *cursor);
                *cursor = (*cursor + 1) % self.cores_per_chip;
            }
        }
        // Emit in thread order: HashMap iteration order is randomized per
        // process, and the engine applies rehomings in command order, so
        // an unsorted emission makes the whole run nondeterministic.
        let mut changes: Vec<(ThreadId, CoreId)> = placement
            .iter()
            .filter(|(t, c)| self.last_placement.get(*t) != Some(*c))
            .map(|(&thread, &core)| (thread, core))
            .collect();
        changes.sort_unstable();
        let commands: Vec<PolicyCommand> = changes
            .into_iter()
            .map(|(thread, core)| PolicyCommand::RehomeThread { thread, core })
            .collect();
        if !commands.is_empty() {
            self.reclusterings += 1;
            self.last_placement = placement;
        }
        // Start a fresh observation window.
        for set in self.access_sets.values_mut() {
            set.clear();
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::{Engine, OpBuilder, RepeatBehaviour, RuntimeConfig};
    use o2_sim::{Machine, MachineConfig};

    #[test]
    fn similarity_is_jaccard() {
        let a: HashSet<DenseObjectId> = [1, 2, 3].into_iter().collect();
        let b: HashSet<DenseObjectId> = [2, 3, 4].into_iter().collect();
        let s = ThreadClustering::similarity(&a, &b);
        assert!((s - 0.5).abs() < 1e-9);
        let empty = HashSet::new();
        assert_eq!(ThreadClustering::similarity(&empty, &empty), 0.0);
    }

    #[test]
    fn disjoint_working_sets_form_separate_clusters() {
        let mut p = ThreadClustering::new(4, 4);
        p.access_sets.insert(0, [1, 2].into_iter().collect());
        p.access_sets.insert(1, [1, 2].into_iter().collect());
        p.access_sets.insert(2, [8, 9].into_iter().collect());
        let clusters = p.cluster();
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().any(|c| c.contains(&0) && c.contains(&1)));
        assert!(clusters.iter().any(|c| c == &vec![2]));
    }

    #[test]
    fn shared_working_sets_end_up_in_one_cluster() {
        // The paper's argument: when every thread uses every directory,
        // clustering degenerates to a single cluster.
        let mut p = ThreadClustering::new(4, 4);
        for t in 0..8usize {
            p.access_sets.insert(t, (0..20u32).collect());
        }
        let clusters = p.cluster();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 8);
    }

    #[test]
    fn epoch_emits_rehome_commands_once_until_placement_changes() {
        let machine = Machine::new(MachineConfig::amd16());
        let mut p = ThreadClustering::new(4, 4);
        p.access_sets.insert(0, [1].into_iter().collect());
        p.access_sets.insert(1, [1].into_iter().collect());
        p.access_sets.insert(2, [99].into_iter().collect());
        let deltas = vec![CounterDelta::default(); 16];
        let view = EpochView {
            now: 0,
            machine: &machine,
            deltas: &deltas,
        };
        let cmds = p.on_epoch(&view);
        assert!(!cmds.is_empty());
        assert_eq!(p.reclusterings(), 1);
        // Threads 0 and 1 go to the same chip, thread 2 to a different one.
        let core_of = |cmds: &[PolicyCommand], t: ThreadId| {
            cmds.iter()
                .find_map(|c| match c {
                    PolicyCommand::RehomeThread { thread, core } if *thread == t => Some(*core),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(core_of(&cmds, 0) / 4, core_of(&cmds, 1) / 4);
        assert_ne!(core_of(&cmds, 0) / 4, core_of(&cmds, 2) / 4);
        // Nothing new observed: next epoch issues no commands.
        let view = EpochView {
            now: 1,
            machine: &machine,
            deltas: &deltas,
        };
        assert!(p.on_epoch(&view).is_empty());
    }

    #[test]
    fn singleton_clusters_spread_over_every_core() {
        // Sixteen threads with disjoint working sets form sixteen
        // one-thread clusters: four per chip, one per core. No core may
        // run two of them while another core runs none.
        let machine = Machine::new(MachineConfig::amd16());
        let mut p = ThreadClustering::new(4, 4);
        for t in 0..16usize {
            p.access_sets
                .insert(t, [t as DenseObjectId].into_iter().collect());
        }
        let deltas = vec![CounterDelta::default(); 16];
        let cmds = p.on_epoch(&EpochView {
            now: 0,
            machine: &machine,
            deltas: &deltas,
        });
        let mut per_core = [0u32; 16];
        for c in &cmds {
            if let PolicyCommand::RehomeThread { core, .. } = c {
                per_core[*core as usize] += 1;
            }
        }
        assert_eq!(per_core, [1; 16], "threads per core: {per_core:?}");
    }

    #[test]
    fn end_to_end_threads_are_rehomed_by_the_engine() {
        let machine = Machine::new(MachineConfig::amd16());
        let mut cfg = RuntimeConfig::default();
        cfg.epoch_cycles = 20_000;
        let mut engine = Engine::new(machine, Box::new(ThreadClustering::new(4, 4)), cfg);
        // Two groups of threads with disjoint object sets, spawned
        // interleaved across chips.
        for t in 0..8u32 {
            let obj = if t % 2 == 0 { 0x100 } else { 0x200 };
            let op = OpBuilder::annotated(obj).compute(300).finish();
            engine.spawn(t % 16, Box::new(RepeatBehaviour::new(op, Some(400))));
        }
        engine.run_until_cycles(2_000_000);
        let total_migrations: u64 = (0..16)
            .map(|c| engine.machine().counters(c).migrations_in)
            .sum();
        assert!(total_migrations > 0, "clustering never rehomed any thread");
        assert!(engine.total_ops() > 0);
    }
}
