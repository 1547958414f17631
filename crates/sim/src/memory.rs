//! The simulated physical address space: a bump allocator with per-region
//! NUMA home chips.
//!
//! Every object a workload touches is first allocated here so the machine
//! knows which chip's DRAM bank backs each line (and therefore how far a
//! DRAM fill has to travel).

/// A simulated byte address.
pub type Addr = u64;

/// An allocated region of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Chip whose DRAM bank backs the region.
    pub home_chip: u32,
    /// Optional caller-assigned label (e.g. a directory index).
    pub label: u64,
}

impl Region {
    /// Whether the region contains the address.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.addr && addr < self.addr + self.size
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Addr {
        self.addr + self.size
    }
}

/// NUMA placement policy for new allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomePolicy {
    /// Regions are spread round-robin across chips (the default; matches
    /// Linux interleaved allocation for shared data).
    RoundRobin,
    /// All regions live on one chip's DRAM.
    Fixed(u32),
}

/// The simulated memory: allocator plus address-to-home-chip lookup.
#[derive(Debug, Clone)]
pub struct SimMemory {
    chips: u32,
    line_size: u64,
    next: Addr,
    next_chip: u32,
    policy: HomePolicy,
    /// Regions in ascending address order: the bump allocator only ever
    /// appends above the last one.
    regions: Vec<Region>,
}

impl SimMemory {
    /// Base address of the first allocation. Non-zero so that address 0 can
    /// serve as a sentinel.
    pub const BASE: Addr = 0x1000;

    /// Line addresses (byte address divided by line size) fit this many
    /// bits: a cache way packs two flag bits beside one, a coherence
    /// directory slot a 16-bit chip mask.
    pub const LINE_ADDR_BITS: u32 = 48;

    /// Creates an empty memory for a machine with `chips` chips.
    pub fn new(chips: u32, line_size: u64) -> Self {
        Self {
            chips: chips.max(1),
            line_size,
            next: Self::BASE,
            next_chip: 0,
            policy: HomePolicy::RoundRobin,
            regions: Vec::new(),
        }
    }

    /// Sets the NUMA placement policy for subsequent allocations.
    pub fn set_policy(&mut self, policy: HomePolicy) {
        self.policy = policy;
    }

    /// Allocates `size` bytes aligned to a cache line, returning the region.
    pub fn alloc(&mut self, size: u64, label: u64) -> Region {
        let home = match self.policy {
            HomePolicy::RoundRobin => {
                let c = self.next_chip;
                self.next_chip = (self.next_chip + 1) % self.chips;
                c
            }
            HomePolicy::Fixed(c) => c.min(self.chips - 1),
        };
        self.alloc_on(size, home, label)
    }

    /// Allocates `size` bytes whose DRAM home is the given chip.
    ///
    /// # Panics
    ///
    /// Panics if the region would reach line address
    /// 2^[`SimMemory::LINE_ADDR_BITS`]: every address the machine is handed
    /// is born here, so the caches and the coherence directory rely on the
    /// bits above without checking per access.
    pub fn alloc_on(&mut self, size: u64, home_chip: u32, label: u64) -> Region {
        let size = size.max(1);
        // Align the start to a line boundary so distinct regions never share
        // a cache line (false sharing is modelled explicitly when wanted).
        let addr = round_up(self.next, self.line_size);
        let last_line = addr.checked_add(size - 1).map(|last| last / self.line_size);
        assert!(
            last_line.is_some_and(|line| line >> Self::LINE_ADDR_BITS == 0),
            "allocating {size} bytes at {addr:#x} leaves the {}-bit line address space",
            Self::LINE_ADDR_BITS
        );
        let region = Region {
            addr,
            size,
            home_chip: home_chip.min(self.chips - 1),
            label,
        };
        self.next = addr + round_up(size, self.line_size);
        debug_assert!(
            self.regions.last().map_or(true, |r| r.end() <= addr),
            "regions must stay sorted by address"
        );
        self.regions.push(region);
        region
    }

    /// The region containing an address, if any.
    pub fn region_of(&self, addr: Addr) -> Option<Region> {
        let after = self.regions.partition_point(|r| r.addr <= addr);
        self.regions[..after]
            .last()
            .copied()
            .filter(|r| r.contains(addr))
    }

    /// The chip whose DRAM bank backs an address. Unallocated addresses are
    /// treated as interleaved by line across chips.
    pub fn home_chip(&self, addr: Addr) -> u32 {
        match self.region_of(addr) {
            Some(r) => r.home_chip,
            None => ((addr / self.line_size) % u64::from(self.chips)) as u32,
        }
    }

    /// The chip whose DRAM bank backs a cache line (a byte address divided
    /// by the line size). Hot-path variant of [`SimMemory::home_chip`] for
    /// callers that already work in line addresses.
    pub fn home_chip_of_line(&self, line: u64) -> u32 {
        self.home_chip(line * self.line_size)
    }

    /// Total bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Number of regions allocated.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Iterates over every allocated region in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// Line size used for alignment.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }
}

fn round_up(v: u64, to: u64) -> u64 {
    debug_assert!(to.is_power_of_two());
    (v + to - 1) & !(to - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = SimMemory::new(4, 64);
        let a = m.alloc(100, 0);
        let b = m.alloc(10, 1);
        assert_eq!(a.addr % 64, 0);
        assert_eq!(b.addr % 64, 0);
        assert!(b.addr >= a.addr + 128, "regions must not share lines");
        assert_eq!(m.region_count(), 2);
        assert_eq!(m.allocated_bytes(), 110);
    }

    #[test]
    fn round_robin_home_chips() {
        let mut m = SimMemory::new(4, 64);
        let homes: Vec<u32> = (0..8).map(|i| m.alloc(64, i).home_chip).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn fixed_policy_pins_home_chip() {
        let mut m = SimMemory::new(4, 64);
        m.set_policy(HomePolicy::Fixed(2));
        for i in 0..4 {
            assert_eq!(m.alloc(64, i).home_chip, 2);
        }
    }

    #[test]
    fn alloc_on_clamps_to_valid_chip() {
        let mut m = SimMemory::new(2, 64);
        let r = m.alloc_on(64, 99, 0);
        assert_eq!(r.home_chip, 1);
    }

    #[test]
    fn region_of_finds_containing_region() {
        let mut m = SimMemory::new(4, 64);
        let a = m.alloc(200, 7);
        assert_eq!(m.region_of(a.addr), Some(a));
        assert_eq!(m.region_of(a.addr + 199), Some(a));
        assert_eq!(m.region_of(a.addr + 200), None);
        assert_eq!(m.region_of(0), None);
    }

    #[test]
    fn home_chip_of_unallocated_addresses_interleaves() {
        let m = SimMemory::new(4, 64);
        let c0 = m.home_chip(0);
        let c1 = m.home_chip(64);
        let c2 = m.home_chip(128);
        assert_ne!(c0, c1);
        assert_ne!(c1, c2);
        assert!(c0 < 4 && c1 < 4 && c2 < 4);
    }

    #[test]
    fn region_end_and_contains() {
        let r = Region {
            addr: 128,
            size: 64,
            home_chip: 0,
            label: 0,
        };
        assert!(r.contains(128));
        assert!(r.contains(191));
        assert!(!r.contains(192));
        assert_eq!(r.end(), 192);
    }

    #[test]
    fn alloc_fills_the_line_address_space_to_the_last_line() {
        let mut m = SimMemory::new(1, 64);
        let space = 64u64 << SimMemory::LINE_ADDR_BITS;
        let r = m.alloc(space - SimMemory::BASE, 0);
        assert_eq!((r.end() - 1) / 64, (1 << SimMemory::LINE_ADDR_BITS) - 1);
    }

    #[test]
    #[should_panic(expected = "48-bit line address space")]
    fn alloc_past_the_line_address_space_panics() {
        let mut m = SimMemory::new(1, 64);
        m.alloc((64u64 << SimMemory::LINE_ADDR_BITS) - SimMemory::BASE, 0);
        m.alloc(1, 1);
    }

    #[test]
    #[should_panic(expected = "48-bit line address space")]
    fn alloc_that_overflows_the_byte_address_panics() {
        SimMemory::new(1, 64).alloc(u64::MAX, 0);
    }

    #[test]
    fn zero_sized_alloc_becomes_one_byte() {
        let mut m = SimMemory::new(1, 64);
        let r = m.alloc(0, 0);
        assert_eq!(r.size, 1);
    }
}
