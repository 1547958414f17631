//! The object→core assignment table consulted by `ct_start`.
//!
//! "`ct_start(o)` performs a table lookup to determine if the object `o`
//! is scheduled to a specific core" (Section 4). The table also tracks how
//! many bytes each core's cache budget has been packed with, which is what
//! the greedy cache-packing algorithm consumes.
//!
//! The table is a flat slab indexed by dense object id: one
//! [`AssignmentSlot`] per object holding the primary core and an inline
//! bitmask of every core with a copy. The `ct_start` lookup is two array
//! reads and the whole decision path allocates nothing — the previous
//! implementation kept a `HashMap<ObjectId, Vec<CoreId>>` and paid a hash
//! plus a heap-allocated core list per object.

use o2_runtime::{CoreId, DenseObjectId};

/// Sentinel primary core for "not assigned".
const NO_CORE: CoreId = CoreId::MAX;

/// Per-object assignment state: the primary core, a bitmask of every
/// core holding a copy (primary included), and the bytes each copy was
/// charged at. Kept inline in the table's slab.
///
/// Recording the charged size in the slot makes release exact: an
/// object's *registry* size may drift after assignment (the estimated
/// size of an auto-registered object grows towards the largest observed
/// footprint), and releasing at the drifted size would corrupt the
/// per-core byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentSlot {
    primary: CoreId,
    cores: u64,
    bytes: u64,
}

impl AssignmentSlot {
    const VACANT: AssignmentSlot = AssignmentSlot {
        primary: NO_CORE,
        cores: 0,
        bytes: 0,
    };

    fn is_assigned(&self) -> bool {
        self.primary != NO_CORE
    }
}

/// The set of cores holding an object, as an inline bitmask. Iteration is
/// in ascending core order; all set operations are branch-free bit tricks,
/// so `ct_start` never touches the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreSet(u64);

impl CoreSet {
    /// Whether no core holds the object.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores holding the object.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `core` holds a copy.
    pub fn contains(self, core: CoreId) -> bool {
        core < 64 && self.0 & (1u64 << core) != 0
    }

    /// The cores in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let core = bits.trailing_zeros();
            bits &= bits - 1;
            Some(core)
        })
    }

    /// The raw bitmask.
    pub fn mask(self) -> u64 {
        self.0
    }
}

/// The assignment table: object → one primary core plus optional replicas.
#[derive(Debug, Clone)]
pub struct AssignmentTable {
    /// Assignment slot per dense object id.
    slots: Vec<AssignmentSlot>,
    /// Bytes of objects assigned to each core.
    used_bytes: Vec<u64>,
    /// Per-core capacity budgets in bytes.
    capacities: Vec<u64>,
    /// Objects assigned to each core (primary or replica), in assignment
    /// order. Its one production reader is `O2Policy::core_down`, which
    /// re-homes a dead core's objects in this order; the per-operation
    /// path never reads it.
    per_core: Vec<Vec<DenseObjectId>>,
    /// Number of currently assigned objects.
    assigned: usize,
}

impl AssignmentTable {
    /// Creates a table for cores with the given capacity budgets.
    pub fn new(capacities: Vec<u64>) -> Self {
        let n = capacities.len();
        assert!(n <= 64, "AssignmentTable supports at most 64 cores");
        Self {
            slots: Vec::new(),
            used_bytes: vec![0; n],
            capacities,
            per_core: vec![Vec::new(); n],
            assigned: 0,
        }
    }

    /// Number of cores covered by the table.
    pub fn num_cores(&self) -> usize {
        self.capacities.len()
    }

    /// Pre-sizes the slot slab for `additional` more dense ids.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(
            additional.saturating_sub(self.slots.capacity().saturating_sub(self.slots.len())),
        );
    }

    /// Heap bytes held by the table: the per-object slot slab, the
    /// per-core byte counters, and the per-core assignment lists. The
    /// slot slab dominates at scale: one fixed-size [`AssignmentSlot`]
    /// per dense id, no per-object heap lists.
    pub fn footprint_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<AssignmentSlot>()) as u64
            + ((self.used_bytes.capacity() + self.capacities.capacity())
                * std::mem::size_of::<u64>()) as u64
            + self
                .per_core
                .iter()
                .map(|v| (v.capacity() * std::mem::size_of::<DenseObjectId>()) as u64)
                .sum::<u64>()
    }

    #[inline]
    fn slot(&self, object: DenseObjectId) -> AssignmentSlot {
        self.slots
            .get(object as usize)
            .copied()
            .unwrap_or(AssignmentSlot::VACANT)
    }

    #[inline]
    fn slot_mut(&mut self, object: DenseObjectId) -> &mut AssignmentSlot {
        let idx = object as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, AssignmentSlot::VACANT);
        }
        &mut self.slots[idx]
    }

    /// The primary core an object is assigned to, if any.
    #[inline]
    pub fn primary(&self, object: DenseObjectId) -> Option<CoreId> {
        let s = self.slot(object);
        s.is_assigned().then_some(s.primary)
    }

    /// Every core holding the object (primary included), as a bitmask set.
    #[inline]
    pub fn replicas(&self, object: DenseObjectId) -> CoreSet {
        CoreSet(self.slot(object).cores)
    }

    /// Whether the object is assigned anywhere.
    #[inline]
    pub fn is_assigned(&self, object: DenseObjectId) -> bool {
        self.slot(object).is_assigned()
    }

    /// Number of assigned objects.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Whether no objects are assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Free bytes remaining in a core's budget.
    #[inline]
    pub fn free_bytes(&self, core: CoreId) -> u64 {
        self.capacities[core as usize].saturating_sub(self.used_bytes[core as usize])
    }

    /// Bytes currently assigned to a core.
    #[inline]
    pub fn used_bytes(&self, core: CoreId) -> u64 {
        self.used_bytes[core as usize]
    }

    /// Capacity budget of a core.
    pub fn capacity(&self, core: CoreId) -> u64 {
        self.capacities[core as usize]
    }

    /// Changes a core's capacity budget. The fault plane zeroes a dead
    /// core's budget so every packer (balanced, replacement, over-budget)
    /// naturally skips it; existing assignments are not touched — the
    /// caller re-homes them.
    pub fn set_capacity(&mut self, core: CoreId, bytes: u64) {
        self.capacities[core as usize] = bytes;
    }

    /// Objects assigned (primary or replica) to a core, in assignment
    /// order — the order in which `O2Policy::core_down` re-homes them, so
    /// changing it moves the placements of runs that take a core offline.
    pub fn objects_on(&self, core: CoreId) -> &[DenseObjectId] {
        &self.per_core[core as usize]
    }

    /// Assigns an object of `size` bytes to `core` as its primary location.
    /// Any previous assignment (including replicas) is removed first.
    /// Returns `false` (leaving the table unchanged) if the core lacks
    /// space.
    pub fn assign(&mut self, object: DenseObjectId, size: u64, core: CoreId) -> bool {
        if self.free_bytes(core) < size && !self.replicas(object).contains(core) {
            return false;
        }
        self.unassign(object);
        self.place(object, size, core);
        true
    }

    /// Forces an assignment even if it overflows the core's budget (used by
    /// [`crate::packing::place_over_budget`] when no core has room).
    pub fn assign_unchecked(&mut self, object: DenseObjectId, size: u64, core: CoreId) {
        self.unassign(object);
        self.place(object, size, core);
    }

    fn place(&mut self, object: DenseObjectId, size: u64, core: CoreId) {
        self.used_bytes[core as usize] += size;
        self.per_core[core as usize].push(object);
        *self.slot_mut(object) = AssignmentSlot {
            primary: core,
            cores: 1u64 << core,
            bytes: size,
        };
        self.assigned += 1;
    }

    /// The bytes an object was charged at when it was assigned (the size
    /// of each of its copies in the budget accounting), if assigned.
    pub fn charged_bytes(&self, object: DenseObjectId) -> Option<u64> {
        let s = self.slot(object);
        s.is_assigned().then_some(s.bytes)
    }

    /// Adds a replica of an already-assigned object on another core,
    /// charged at the same size as the primary copy. Returns `false` if
    /// the object is unassigned, the core lacks space, or the core
    /// already holds a copy.
    pub fn add_replica(&mut self, object: DenseObjectId, core: CoreId) -> bool {
        let s = self.slot(object);
        if !s.is_assigned() || CoreSet(s.cores).contains(core) || self.free_bytes(core) < s.bytes {
            return false;
        }
        self.slot_mut(object).cores |= 1u64 << core;
        self.used_bytes[core as usize] += s.bytes;
        self.per_core[core as usize].push(object);
        true
    }

    /// Drops every non-primary copy of an object, releasing exactly the
    /// bytes each copy was charged at while leaving the primary assignment
    /// untouched. This is the first-write invalidation path: a write to a
    /// replicated object must retire the stale copies before it runs.
    /// Returns the number of copies dropped (zero if the object is
    /// unassigned or unreplicated).
    pub fn drop_replicas(&mut self, object: DenseObjectId) -> u32 {
        let s = self.slot(object);
        if !s.is_assigned() {
            return 0;
        }
        let extras = s.cores & !(1u64 << s.primary);
        if extras == 0 {
            return 0;
        }
        for core in CoreSet(extras).iter() {
            let c = core as usize;
            self.used_bytes[c] = self.used_bytes[c].saturating_sub(s.bytes);
            self.per_core[c].retain(|&o| o != object);
        }
        self.slot_mut(object).cores = 1u64 << s.primary;
        extras.count_ones()
    }

    /// Removes an object (and all its replicas) from the table, releasing
    /// exactly the bytes each copy was charged at. Returns whether it was
    /// assigned.
    pub fn unassign(&mut self, object: DenseObjectId) -> bool {
        let s = self.slot(object);
        if !s.is_assigned() {
            return false;
        }
        for core in CoreSet(s.cores).iter() {
            let c = core as usize;
            self.used_bytes[c] = self.used_bytes[c].saturating_sub(s.bytes);
            self.per_core[c].retain(|&o| o != object);
        }
        *self.slot_mut(object) = AssignmentSlot::VACANT;
        self.assigned -= 1;
        true
    }

    /// Total bytes assigned across all cores (replicas counted).
    pub fn total_assigned_bytes(&self) -> u64 {
        self.used_bytes.iter().sum()
    }

    /// Total capacity across all cores.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AssignmentTable {
        AssignmentTable::new(vec![1000, 1000, 1000, 1000])
    }

    #[test]
    fn assign_and_lookup() {
        let mut t = table();
        assert!(t.assign(7, 400, 2));
        assert_eq!(t.primary(7), Some(2));
        assert!(t.is_assigned(7));
        assert_eq!(t.used_bytes(2), 400);
        assert_eq!(t.free_bytes(2), 600);
        assert_eq!(t.objects_on(2), &[7]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn assign_fails_when_core_is_full() {
        let mut t = table();
        assert!(t.assign(1, 800, 0));
        assert!(!t.assign(2, 300, 0));
        assert_eq!(t.primary(2), None);
        assert_eq!(t.used_bytes(0), 800);
    }

    #[test]
    fn unassign_releases_capacity() {
        let mut t = table();
        t.assign(1, 500, 0);
        assert!(t.unassign(1));
        assert!(!t.unassign(1));
        assert_eq!(t.free_bytes(0), 1000);
        assert!(t.is_empty());
    }

    #[test]
    fn replicas_occupy_space_on_each_core() {
        let mut t = table();
        t.assign(1, 300, 0);
        assert!(t.add_replica(1, 1));
        assert!(t.add_replica(1, 2));
        // Already replicated there.
        assert!(!t.add_replica(1, 1));
        assert_eq!(t.replicas(1).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(t.replicas(1).len(), 3);
        assert!(t.replicas(1).contains(2));
        assert!(!t.replicas(1).contains(3));
        assert_eq!(t.total_assigned_bytes(), 900);
        // Unassign removes every copy.
        t.unassign(1);
        assert_eq!(t.total_assigned_bytes(), 0);
        assert!(t.objects_on(1).is_empty());
        assert!(t.replicas(1).is_empty());
    }

    #[test]
    fn replica_of_unassigned_object_fails() {
        let mut t = table();
        assert!(!t.add_replica(5, 0));
    }

    #[test]
    fn drop_replicas_keeps_the_primary_and_frees_each_copys_budget() {
        let mut t = table();
        t.assign(1, 300, 0);
        assert!(t.add_replica(1, 1));
        assert!(t.add_replica(1, 3));
        assert_eq!(t.total_assigned_bytes(), 900);
        assert_eq!(t.drop_replicas(1), 2);
        assert_eq!(t.primary(1), Some(0));
        assert_eq!(t.replicas(1).iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(t.used_bytes(0), 300, "the primary copy stays charged");
        assert_eq!(t.used_bytes(1), 0);
        assert_eq!(t.used_bytes(3), 0);
        assert!(t.objects_on(1).is_empty());
        assert!(t.objects_on(3).is_empty());
        // Unreplicated and unassigned objects drop nothing.
        assert_eq!(t.drop_replicas(1), 0);
        assert_eq!(t.drop_replicas(9), 0);
    }

    #[test]
    fn assign_unchecked_can_overflow() {
        let mut t = table();
        t.assign_unchecked(1, 5000, 0);
        assert_eq!(t.used_bytes(0), 5000);
        assert_eq!(t.free_bytes(0), 0);
        assert_eq!(t.primary(1), Some(0));
    }

    #[test]
    fn totals() {
        let t = table();
        assert_eq!(t.total_capacity(), 4000);
        assert_eq!(t.total_assigned_bytes(), 0);
        assert_eq!(t.num_cores(), 4);
    }

    #[test]
    fn reassigning_same_object_to_same_core_keeps_single_copy() {
        let mut t = table();
        t.assign(1, 400, 2);
        assert!(t.assign(1, 400, 2));
        assert_eq!(t.used_bytes(2), 400);
        assert_eq!(t.objects_on(2), &[1]);
    }

    #[test]
    fn release_uses_the_charged_size_not_a_drifted_one() {
        // An auto-registered object's estimated size can grow after it
        // was assigned; release must subtract exactly what was charged,
        // never the drifted registry size.
        let mut t = table();
        t.assign(1, 400, 2);
        t.assign(2, 300, 2);
        assert_eq!(t.charged_bytes(1), Some(400));
        assert!(t.unassign(1));
        assert_eq!(t.used_bytes(2), 300, "object 2's bytes must survive");
        assert_eq!(t.charged_bytes(1), None);
        // Replicas are charged at the primary's assign-time size too.
        t.assign(3, 250, 0);
        assert!(t.add_replica(3, 1));
        assert_eq!(t.used_bytes(1), 250);
        t.unassign(3);
        assert_eq!(t.used_bytes(0) + t.used_bytes(1), 0);
        assert_eq!(t.used_bytes(2), 300);
    }

    #[test]
    fn lookups_past_the_slab_end_are_unassigned() {
        let t = table();
        assert_eq!(t.primary(1_000_000), None);
        assert!(t.replicas(1_000_000).is_empty());
        assert!(!t.is_assigned(1_000_000));
    }

    #[test]
    fn core_set_iteration_is_ascending() {
        let s = CoreSet(0b1010_0001);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(CoreSet::default().is_empty());
    }
}
