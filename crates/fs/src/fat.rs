//! The file allocation table: cluster chains.
//!
//! Allocation is first-fit: a chain of `count` clusters is the lowest
//! `count` free clusters, linked in ascending order. The table keeps a
//! low-water mark, the lowest cluster that may still be free; every data
//! cluster below it is allocated. [`Fat::alloc_chain`] scans from the
//! mark and moves it past the last cluster it takes, and
//! [`Fat::free_chain`] lowers it to the lowest cluster it frees, so the
//! choice is the one a scan from cluster 2 makes, in time linear in the
//! clusters handed out rather than in the clusters already taken.

/// Marker for a free cluster.
pub const FAT_FREE: u16 = 0x0000;
/// End-of-chain marker.
pub const FAT_EOC: u16 = 0xFFFF;
/// First usable data cluster (clusters 0 and 1 are reserved, as in FAT16).
pub const FIRST_DATA_CLUSTER: u16 = 2;
/// Most data clusters a table holds: ids run from [`FIRST_DATA_CLUSTER`]
/// and stay below [`FAT_EOC`], since linking a cluster whose id is the
/// end-of-chain marker would cut its chain short there.
pub const MAX_DATA_CLUSTERS: usize = (FAT_EOC - FIRST_DATA_CLUSTER) as usize;

/// A FAT16-style allocation table.
#[derive(Debug, Clone)]
pub struct Fat {
    entries: Vec<u16>,
    /// The low-water mark: no data cluster below it is free.
    low_water: usize,
}

/// Errors from FAT operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatError {
    /// Not enough free clusters to satisfy an allocation.
    OutOfSpace,
    /// A cluster index outside the table (or a reserved cluster) was used.
    InvalidCluster,
}

impl Fat {
    /// Creates a table with `clusters` total clusters (including the two
    /// reserved ones), clamped to at most [`MAX_DATA_CLUSTERS`] data
    /// clusters.
    pub fn new(clusters: usize) -> Self {
        let reserved = FIRST_DATA_CLUSTER as usize;
        let mut entries = vec![FAT_FREE; clusters.clamp(reserved, reserved + MAX_DATA_CLUSTERS)];
        // Reserved clusters carry media/EOC markers, as on a real volume.
        entries[0] = 0xFFF8;
        entries[1] = FAT_EOC;
        Self {
            entries,
            low_water: reserved,
        }
    }

    /// Total clusters in the table.
    pub fn total_clusters(&self) -> usize {
        self.entries.len()
    }

    /// Number of free data clusters.
    pub fn free_clusters(&self) -> usize {
        self.entries[FIRST_DATA_CLUSTER as usize..]
            .iter()
            .filter(|&&e| e == FAT_FREE)
            .count()
    }

    /// Allocates a chain of the lowest `count` free clusters and returns
    /// the first. The clusters are linked in ascending order and
    /// terminated with an end-of-chain marker. The scan starts at the
    /// low-water mark, below which nothing is free.
    pub fn alloc_chain(&mut self, count: usize) -> Result<u16, FatError> {
        if count == 0 {
            return Err(FatError::InvalidCluster);
        }
        let free: Vec<u16> = (self.low_water..self.entries.len())
            .filter(|&c| self.entries[c] == FAT_FREE)
            .take(count)
            .map(|c| c as u16)
            .collect();
        if free.len() < count {
            return Err(FatError::OutOfSpace);
        }
        for w in free.windows(2) {
            self.entries[w[0] as usize] = w[1];
        }
        let last = *free.last().expect("non-empty");
        self.entries[last as usize] = FAT_EOC;
        // Every free cluster from the mark up to `last` was just taken.
        self.low_water = usize::from(last) + 1;
        Ok(free[0])
    }

    /// Follows a chain from `first`, returning every cluster in order.
    pub fn chain(&self, first: u16) -> Result<Vec<u16>, FatError> {
        let data_clusters = self.entries.len() - usize::from(FIRST_DATA_CLUSTER);
        let mut out = Vec::new();
        let mut cur = first;
        loop {
            if cur < FIRST_DATA_CLUSTER || (cur as usize) >= self.entries.len() {
                return Err(FatError::InvalidCluster);
            }
            if out.len() == data_clusters {
                // A chain with more links than the table has data
                // clusters revisits one: a cycle, which only corruption
                // makes; report it as invalid.
                return Err(FatError::InvalidCluster);
            }
            out.push(cur);
            let next = self.entries[cur as usize];
            if next == FAT_EOC {
                break;
            }
            if next == FAT_FREE {
                return Err(FatError::InvalidCluster);
            }
            cur = next;
        }
        Ok(out)
    }

    /// Frees an entire chain starting at `first`, lowering the low-water
    /// mark to the lowest cluster freed.
    pub fn free_chain(&mut self, first: u16) -> Result<usize, FatError> {
        let chain = self.chain(first)?;
        for &c in &chain {
            self.entries[c as usize] = FAT_FREE;
            self.low_water = self.low_water.min(c.into());
        }
        Ok(chain.len())
    }

    /// Raw FAT entry for a cluster (for tests and image serialization).
    pub fn entry(&self, cluster: u16) -> Option<u16> {
        self.entries.get(cluster as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocator before the low-water mark, kept as the oracle: the
    /// lowest `count` free clusters, found by a scan from cluster 2 on
    /// every call.
    fn alloc_scanning_from_cluster_2(fat: &mut Fat, count: usize) -> Result<u16, FatError> {
        if count == 0 {
            return Err(FatError::InvalidCluster);
        }
        let free: Vec<u16> = (FIRST_DATA_CLUSTER..fat.entries.len() as u16)
            .filter(|&c| fat.entries[c as usize] == FAT_FREE)
            .take(count)
            .collect();
        if free.len() < count {
            return Err(FatError::OutOfSpace);
        }
        for w in free.windows(2) {
            fat.entries[w[0] as usize] = w[1];
        }
        fat.entries[*free.last().expect("non-empty") as usize] = FAT_EOC;
        Ok(free[0])
    }

    #[test]
    fn seeded_churn_allocates_what_a_scan_from_cluster_2_allocates() {
        // Chains of 1–16 clusters, frees of random live chains and runs to
        // exhaustion, on a table small enough to fill and fragment. Both
        // allocators must return the same first cluster or refuse on the
        // same call, the tables must agree entry for entry after every
        // step, and the mark must have nothing free below it.
        let mut fat = Fat::new(258);
        let mut oracle = fat.clone();
        let mut live: Vec<u16> = Vec::new();
        let mut rng: u64 = 0xFA7_0045;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let (mut refusals, mut exhaustions, mut frees) = (0, 0, 0);
        for step in 0..20_000 {
            let roll = next() % 100;
            if roll < 45 && !live.is_empty() {
                let first = live.swap_remove((next() % live.len() as u64) as usize);
                assert_eq!(
                    fat.free_chain(first),
                    oracle.free_chain(first),
                    "step {step}"
                );
                frees += 1;
            } else {
                // One allocation, or (5 %) allocations until a single
                // cluster is refused.
                let exhaust = roll >= 95;
                loop {
                    let count = 1 + (next() % 16) as usize;
                    let got = fat.alloc_chain(count);
                    assert_eq!(
                        got,
                        alloc_scanning_from_cluster_2(&mut oracle, count),
                        "step {step}: {count} clusters"
                    );
                    match got {
                        Ok(first) => live.push(first),
                        Err(_) => refusals += 1,
                    }
                    if !exhaust || (got.is_err() && count == 1) {
                        break;
                    }
                }
                exhaustions += usize::from(exhaust);
            }
            assert_eq!(fat.entries, oracle.entries, "step {step}");
            let below = &fat.entries[FIRST_DATA_CLUSTER as usize..fat.low_water];
            assert!(
                !below.contains(&FAT_FREE),
                "step {step}: free below the mark"
            );
        }
        assert!(refusals > 100 && exhaustions > 100 && frees > 1000);
    }

    #[test]
    fn a_freed_cluster_is_handed_out_first_again() {
        // fsmeta's retire path: a one-cluster directory is freed below the
        // mark and the next directory created takes its cluster back.
        let mut fat = Fat::new(16);
        let dirs: Vec<u16> = (0..5).map(|_| fat.alloc_chain(1).unwrap()).collect();
        assert_eq!(dirs, [2, 3, 4, 5, 6]);
        fat.free_chain(dirs[3]).unwrap();
        fat.free_chain(dirs[1]).unwrap();
        assert_eq!(fat.alloc_chain(1), Ok(3));
        // A longer chain fills the remaining hole, then goes on past the
        // clusters handed out so far.
        let first = fat.alloc_chain(2).unwrap();
        assert_eq!(fat.chain(first), Ok(vec![5, 7]));
        assert_eq!(fat.alloc_chain(1), Ok(8));
    }

    #[test]
    fn a_chain_pointing_back_into_itself_is_invalid() {
        // A chain over every data cluster is as long as a chain can be and
        // reads back whole; rewriting its last entry to point back into it
        // makes it a cycle, which must not read back at all.
        let mut fat = Fat::new(10);
        let first = fat.alloc_chain(8).unwrap();
        let chain = fat.chain(first).unwrap();
        assert_eq!(chain.len(), 8);
        let last = *chain.last().unwrap();
        fat.entries[last as usize] = chain[3];
        assert_eq!(fat.chain(first), Err(FatError::InvalidCluster));
        assert_eq!(fat.free_chain(first), Err(FatError::InvalidCluster));
        fat.entries[first as usize] = first;
        assert_eq!(fat.chain(first), Err(FatError::InvalidCluster));
    }

    #[test]
    fn new_table_reserves_two_clusters() {
        let fat = Fat::new(16);
        assert_eq!(fat.total_clusters(), 16);
        assert_eq!(fat.free_clusters(), 14);
        assert_ne!(fat.entry(0), Some(FAT_FREE));
        assert_ne!(fat.entry(1), Some(FAT_FREE));
    }

    #[test]
    fn alloc_chain_links_clusters_in_order() {
        let mut fat = Fat::new(16);
        let first = fat.alloc_chain(3).unwrap();
        let chain = fat.chain(first).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0], first);
        assert_eq!(fat.free_clusters(), 11);
        // Consecutive allocation returns consecutive clusters on a fresh
        // volume (which keeps directory data contiguous, as the benchmark
        // assumes).
        assert_eq!(chain, vec![first, first + 1, first + 2]);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut fat = Fat::new(32);
        let a = fat.alloc_chain(5).unwrap();
        let b = fat.alloc_chain(5).unwrap();
        let ca = fat.chain(a).unwrap();
        let cb = fat.chain(b).unwrap();
        assert!(ca.iter().all(|c| !cb.contains(c)));
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut fat = Fat::new(8);
        assert_eq!(fat.alloc_chain(100), Err(FatError::OutOfSpace));
        assert_eq!(fat.alloc_chain(0), Err(FatError::InvalidCluster));
    }

    #[test]
    fn free_chain_releases_clusters() {
        let mut fat = Fat::new(16);
        let first = fat.alloc_chain(4).unwrap();
        assert_eq!(fat.free_clusters(), 10);
        assert_eq!(fat.free_chain(first), Ok(4));
        assert_eq!(fat.free_clusters(), 14);
        assert_eq!(fat.chain(first), Err(FatError::InvalidCluster));
    }

    #[test]
    fn chain_rejects_reserved_and_out_of_range_clusters() {
        let fat = Fat::new(16);
        assert_eq!(fat.chain(0), Err(FatError::InvalidCluster));
        assert_eq!(fat.chain(1), Err(FatError::InvalidCluster));
        assert_eq!(fat.chain(999), Err(FatError::InvalidCluster));
    }

    #[test]
    fn tables_stop_below_the_end_of_chain_marker() {
        // Asking for one more data cluster than fits, or for 70,000 (which
        // once wrapped to a 4,466-entry table), yields the largest table:
        // every id up to 0xFFFE is handed out and every chain, including
        // the one ending at 0xFFFE, reads back at full length.
        for data_clusters in [MAX_DATA_CLUSTERS, MAX_DATA_CLUSTERS + 1, 70_000] {
            let mut fat = Fat::new(data_clusters + 2);
            assert_eq!(fat.total_clusters(), usize::from(FAT_EOC));
            assert_eq!(fat.free_clusters(), MAX_DATA_CLUSTERS);
            let mut last = 0;
            for len in (0..MAX_DATA_CLUSTERS)
                .step_by(1000)
                .map(|at| 1000.min(MAX_DATA_CLUSTERS - at))
            {
                let first = fat.alloc_chain(len).unwrap();
                let chain = fat.chain(first).unwrap();
                assert_eq!(chain.len(), len, "{data_clusters} clusters");
                last = *chain.last().unwrap();
            }
            assert_eq!(last, FAT_EOC - 1);
            assert_eq!(fat.alloc_chain(1), Err(FatError::OutOfSpace));
        }
    }
}
