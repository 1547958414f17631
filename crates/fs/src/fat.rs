//! The file allocation table: cluster chains.

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
        Self { entries }
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

    /// Allocates a chain of `count` clusters and returns the first cluster.
    /// The clusters are linked in allocation order and terminated with an
    /// end-of-chain marker.
    pub fn alloc_chain(&mut self, count: usize) -> Result<u16, FatError> {
        if count == 0 {
            return Err(FatError::InvalidCluster);
        }
        let free: Vec<u16> = (FIRST_DATA_CLUSTER..self.entries.len() as u16)
            .filter(|&c| self.entries[c as usize] == FAT_FREE)
            .take(count)
            .collect();
        if free.len() < count {
            return Err(FatError::OutOfSpace);
        }
        for w in free.windows(2) {
            self.entries[w[0] as usize] = w[1];
        }
        self.entries[*free.last().expect("non-empty") as usize] = FAT_EOC;
        Ok(free[0])
    }

    /// Follows a chain from `first`, returning every cluster in order.
    pub fn chain(&self, first: u16) -> Result<Vec<u16>, FatError> {
        let mut out = Vec::new();
        let mut cur = first;
        loop {
            if cur < FIRST_DATA_CLUSTER || (cur as usize) >= self.entries.len() {
                return Err(FatError::InvalidCluster);
            }
            if out.contains(&cur) {
                // A cycle indicates corruption; report it as invalid.
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

    /// Frees an entire chain starting at `first`.
    pub fn free_chain(&mut self, first: u16) -> Result<usize, FatError> {
        let chain = self.chain(first)?;
        let n = chain.len();
        for c in chain {
            self.entries[c as usize] = FAT_FREE;
        }
        Ok(n)
    }

    /// Raw FAT entry for a cluster (for tests and image serialization).
    pub fn entry(&self, cluster: u16) -> Option<u16> {
        self.entries.get(cluster as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
