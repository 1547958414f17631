//! The object registry: everything CoreTime knows about each schedulable
//! object.
//!
//! The paper's `ct_start` identifies an object by address; sizes come from
//! registration (or are estimated from observed misses) and per-object
//! fetch costs come from the event-counter monitoring.
//!
//! The registry is a slab indexed by dense object id with **incremental
//! epoch state**: a dirty list of the objects touched this epoch (so
//! `roll_epoch` and `hottest` never scan the whole slab), idleness derived
//! from a per-object last-active stamp, and an intrusive list ordered by
//! last activity (so `idle_objects` walks exactly the idle prefix). The
//! previous implementation kept a `HashMap` and re-scanned every object at
//! every epoch boundary.

use o2_runtime::{AccessKind, DenseObjectId, ObjectDescriptor, ObjectId};

/// Sentinel for "no neighbour" in the intrusive idle list.
const NONE: u32 = u32::MAX;

/// Per-object bookkeeping.
#[derive(Debug, Clone)]
pub struct ObjectInfo {
    /// Registration-time description (address range, hints). Objects that
    /// were never registered get a synthesized descriptor.
    pub desc: ObjectDescriptor,
    /// Smoothed private-cache misses per operation on this object.
    pub ewma_misses_per_op: f64,
    /// Smoothed fraction of operations that declared themselves reads at
    /// `ct_start` (1.0 = all reads). This is the *measured* replacement
    /// for the static `read_mostly` hint: replica promotion and demotion
    /// key off it when `serve_from_replicas` is enabled.
    pub ewma_read_fraction: f64,
    /// Total operations observed.
    pub ops_total: u64,
    /// Operations observed during the current epoch.
    pub ops_this_epoch: u64,
    /// Operations observed during the previous epoch (used by replication
    /// and pathology heuristics).
    pub ops_last_epoch: u64,
    /// Whether the size in `desc` was estimated from misses rather than
    /// registered.
    pub size_estimated: bool,
    /// The roll count up to which this object counts as active: idleness
    /// is `rolls_completed - last_active_roll`, computed lazily instead of
    /// aged by a whole-registry scan.
    last_active_roll: u64,
    /// Whether the object is already on the current epoch's dirty list.
    in_dirty: bool,
    /// Whether this slab slot holds a real object.
    present: bool,
    /// Intrusive idle-list links (ordered by `last_active_roll`).
    prev: u32,
    next: u32,
}

impl ObjectInfo {
    fn new(desc: ObjectDescriptor, size_estimated: bool, last_active_roll: u64) -> Self {
        Self {
            desc,
            ewma_misses_per_op: 0.0,
            ewma_read_fraction: 0.0,
            ops_total: 0,
            ops_this_epoch: 0,
            ops_last_epoch: 0,
            size_estimated,
            last_active_roll,
            in_dirty: false,
            present: true,
            prev: NONE,
            next: NONE,
        }
    }

    const VACANT: ObjectInfo = ObjectInfo {
        desc: ObjectDescriptor {
            id: 0,
            addr: 0,
            size: 0,
            read_mostly: false,
            lock: None,
        },
        ewma_misses_per_op: 0.0,
        ewma_read_fraction: 0.0,
        ops_total: 0,
        ops_this_epoch: 0,
        ops_last_epoch: 0,
        size_estimated: false,
        last_active_roll: 0,
        in_dirty: false,
        present: false,
        prev: NONE,
        next: NONE,
    };

    /// Effective size in bytes used for packing decisions.
    pub fn size(&self) -> u64 {
        self.desc.size
    }

    /// The object's external key (the address it is named by).
    pub fn key(&self) -> ObjectId {
        self.desc.id
    }

    /// Expected fetch cost per operation (misses times an assumed per-miss
    /// cost), the "expense" the packing algorithm sorts by.
    pub fn expense(&self, miss_cost: u64) -> f64 {
        self.ewma_misses_per_op * miss_cost as f64
    }
}

/// Registry of every object CoreTime has seen, indexed by dense id.
#[derive(Debug)]
pub struct ObjectRegistry {
    slots: Vec<ObjectInfo>,
    line_size: u64,
    /// Number of present objects.
    known: usize,
    /// Epoch rolls completed so far.
    rolls: u64,
    /// Objects operated on during the current epoch.
    dirty_this: Vec<DenseObjectId>,
    /// Objects operated on during the previous epoch (exactly the set
    /// with `ops_last_epoch > 0`).
    dirty_last: Vec<DenseObjectId>,
    /// Head/tail of the intrusive list ordered by `last_active_roll`
    /// (least recently active first).
    head: u32,
    tail: u32,
    /// First object on the list stamped `rolls + 1`, i.e. operated on
    /// this epoch (`NONE` if there is none yet). Stamps are only ever
    /// `rolls` (registration) or `rolls + 1` (operation), so these
    /// objects form the list's suffix and every other object precedes it.
    first_active: u32,
}

impl Default for ObjectRegistry {
    /// An empty registry with a 64-byte line size. A derived `Default`
    /// would zero the intrusive-list sentinels (`NONE` is `u32::MAX`) and
    /// corrupt the idle list on first insert, so this delegates to
    /// [`ObjectRegistry::new`].
    fn default() -> Self {
        Self::new(64)
    }
}

impl ObjectRegistry {
    /// Creates an empty registry; `line_size` is used to estimate the size
    /// of unregistered objects from their miss counts.
    pub fn new(line_size: u64) -> Self {
        Self {
            slots: Vec::new(),
            line_size: line_size.max(1),
            known: 0,
            rolls: 0,
            dirty_this: Vec::new(),
            dirty_last: Vec::new(),
            head: NONE,
            tail: NONE,
            first_active: NONE,
        }
    }

    /// Number of known objects.
    pub fn len(&self) -> usize {
        self.known
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }

    /// Epoch rolls completed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.rolls
    }

    /// Pre-sizes the slab for `additional` more dense ids, so registering
    /// them in ascending order never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(
            additional.saturating_sub(self.slots.capacity().saturating_sub(self.slots.len())),
        );
    }

    /// Heap bytes held by the registry: the info slab plus both dirty
    /// lists (capacities, not lengths — an upper bound on live data).
    pub fn footprint_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<ObjectInfo>()) as u64
            + ((self.dirty_this.capacity() + self.dirty_last.capacity())
                * std::mem::size_of::<DenseObjectId>()) as u64
    }

    fn ensure_slot(&mut self, id: DenseObjectId) {
        let idx = id as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, ObjectInfo::VACANT);
        }
    }

    // ---- the idle list -----------------------------------------------------

    fn unlink(&mut self, id: DenseObjectId) {
        let (prev, next) = {
            let info = &self.slots[id as usize];
            (info.prev, info.next)
        };
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        let info = &mut self.slots[id as usize];
        info.prev = NONE;
        info.next = NONE;
    }

    /// Links `id` into the list between `prev` and `next`, which must be
    /// neighbours (`NONE` standing for the respective end of the list).
    fn link_between(&mut self, id: DenseObjectId, prev: u32, next: u32) {
        self.slots[id as usize].prev = prev;
        self.slots[id as usize].next = next;
        if prev == NONE {
            self.head = id;
        } else {
            self.slots[prev as usize].next = id;
        }
        if next == NONE {
            self.tail = id;
        } else {
            self.slots[next as usize].prev = id;
        }
    }

    /// Inserts an object stamped `rolls + 1` (operated on this epoch): the
    /// newest stamp there is, so it goes to the tail.
    fn push_active(&mut self, id: DenseObjectId) {
        if self.first_active == NONE {
            self.first_active = id;
        }
        self.link_between(id, self.tail, NONE);
    }

    /// Inserts an object stamped `rolls` (registered this epoch): behind
    /// everything stamped earlier or alike, ahead of the objects operated
    /// on this epoch. `first_active` marks that boundary, so a mid-run
    /// registration does not walk past every object active this epoch.
    fn insert_registered(&mut self, id: DenseObjectId) {
        let next = self.first_active;
        let prev = if next == NONE {
            self.tail
        } else {
            self.slots[next as usize].prev
        };
        self.link_between(id, prev, next);
    }

    // ---- registration and monitoring --------------------------------------

    /// Registers an object explicitly (from [`ObjectDescriptor`]) under its
    /// dense id.
    pub fn register(&mut self, id: DenseObjectId, desc: ObjectDescriptor) {
        self.ensure_slot(id);
        let rolls = self.rolls;
        let info = &mut self.slots[id as usize];
        if info.present {
            info.desc = desc;
            info.size_estimated = false;
        } else {
            *info = ObjectInfo::new(desc, false, rolls);
            self.known += 1;
            self.insert_registered(id);
        }
    }

    /// Looks up an object.
    #[inline]
    pub fn get(&self, id: DenseObjectId) -> Option<&ObjectInfo> {
        self.slots.get(id as usize).filter(|info| info.present)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: DenseObjectId) -> Option<&mut ObjectInfo> {
        self.slots.get_mut(id as usize).filter(|info| info.present)
    }

    /// The external key of an object (zero if unknown).
    #[inline]
    pub fn key_of(&self, id: DenseObjectId) -> ObjectId {
        self.get(id).map(|info| info.desc.id).unwrap_or(0)
    }

    /// Epochs since the object was last operated on (or registered).
    pub fn idle_epochs(&self, id: DenseObjectId) -> u64 {
        self.get(id)
            .map(|info| self.rolls.saturating_sub(info.last_active_roll))
            .unwrap_or(0)
    }

    /// Records one completed operation on an object, updating its smoothed
    /// miss rate and its smoothed read fraction (`kind` is the access kind
    /// the operation declared at `ct_start`), and returns a reference to
    /// the updated info.
    ///
    /// Unknown objects are auto-registered (the paper: "`ct_start`
    /// automatically adds an object to the table if the object is
    /// expensive to fetch") under their external `key`, with a size
    /// estimated from the observed misses.
    pub fn record_op(
        &mut self,
        id: DenseObjectId,
        key: ObjectId,
        misses: u64,
        alpha: f64,
        kind: AccessKind,
    ) -> &ObjectInfo {
        self.ensure_slot(id);
        let line_size = self.line_size;
        let active_stamp = self.rolls + 1;
        if !self.slots[id as usize].present {
            let mut desc = ObjectDescriptor::new(key, key, misses.max(1) * line_size);
            desc.read_mostly = false;
            self.slots[id as usize] = ObjectInfo::new(desc, true, active_stamp);
            self.known += 1;
            self.push_active(id);
        } else if self.slots[id as usize].last_active_roll != active_stamp {
            // Not yet stamped for this epoch, so not in the active suffix
            // `first_active` points into.
            self.slots[id as usize].last_active_roll = active_stamp;
            self.unlink(id);
            self.push_active(id);
        }
        let info = &mut self.slots[id as usize];
        if info.size_estimated {
            // Refine the size estimate towards the largest observed
            // per-operation footprint.
            info.desc.size = info.desc.size.max(misses.max(1) * line_size);
        }
        let is_read = if kind == AccessKind::Read { 1.0 } else { 0.0 };
        if info.ops_total == 0 {
            info.ewma_misses_per_op = misses as f64;
            info.ewma_read_fraction = is_read;
        } else {
            info.ewma_misses_per_op =
                alpha * misses as f64 + (1.0 - alpha) * info.ewma_misses_per_op;
            info.ewma_read_fraction = alpha * is_read + (1.0 - alpha) * info.ewma_read_fraction;
        }
        info.ops_total += 1;
        info.ops_this_epoch += 1;
        if !info.in_dirty {
            info.in_dirty = true;
            self.dirty_this.push(id);
        }
        &self.slots[id as usize]
    }

    /// Rolls per-epoch statistics: `ops_this_epoch` moves to
    /// `ops_last_epoch` for the objects touched this epoch, last epoch's
    /// leftovers are cleared, and idleness advances implicitly (it is
    /// derived from the per-object stamp). Cost is proportional to the
    /// objects *touched*, not to the registry size.
    pub fn roll_epoch(&mut self) {
        self.rolls += 1;
        // What was stamped `rolls + 1` is now stamped `rolls`.
        self.first_active = NONE;
        // Objects active last epoch but not this one lose their
        // `ops_last_epoch` credit.
        for i in 0..self.dirty_last.len() {
            let id = self.dirty_last[i] as usize;
            if !self.slots[id].in_dirty {
                self.slots[id].ops_last_epoch = 0;
            }
        }
        for i in 0..self.dirty_this.len() {
            let id = self.dirty_this[i] as usize;
            let info = &mut self.slots[id];
            info.ops_last_epoch = info.ops_this_epoch;
            info.ops_this_epoch = 0;
            info.in_dirty = false;
        }
        std::mem::swap(&mut self.dirty_this, &mut self.dirty_last);
        self.dirty_this.clear();
    }

    /// Iterates over all known objects (slab order, i.e. ascending dense
    /// id). Epoch-path consumers should prefer
    /// [`ObjectRegistry::active_last_epoch`].
    pub fn iter(&self) -> impl Iterator<Item = (DenseObjectId, &ObjectInfo)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, info)| info.present)
            .map(|(i, info)| (i as DenseObjectId, info))
    }

    /// The objects operated on during the previous epoch — exactly the set
    /// with `ops_last_epoch > 0`, without scanning the slab.
    pub fn active_last_epoch(&self) -> impl Iterator<Item = (DenseObjectId, &ObjectInfo)> {
        self.dirty_last.iter().filter_map(move |&id| {
            let info = &self.slots[id as usize];
            (info.present && info.ops_last_epoch > 0).then_some((id, info))
        })
    }

    /// Objects that have been idle for at least `epochs` epochs, longest
    /// idle first, ties broken by external key — a deterministic order, so
    /// the decay budget in [`crate::O2Policy`] always releases the same
    /// assignments for the same operation history. Walks only the idle
    /// prefix of the activity-ordered list.
    pub fn idle_objects(&self, epochs: u64) -> Vec<DenseObjectId> {
        let mut out = Vec::new();
        self.idle_objects_into(epochs, &mut out);
        out
    }

    /// Allocation-reusing form of [`ObjectRegistry::idle_objects`].
    pub fn idle_objects_into(&self, epochs: u64, out: &mut Vec<DenseObjectId>) {
        out.clear();
        let mut cursor = self.head;
        while cursor != NONE {
            let info = &self.slots[cursor as usize];
            if self.rolls.saturating_sub(info.last_active_roll) < epochs {
                break;
            }
            out.push(cursor);
            cursor = info.next;
        }
        out.sort_by_key(|&id| {
            let info = &self.slots[id as usize];
            (
                std::cmp::Reverse(self.rolls.saturating_sub(info.last_active_roll)),
                info.desc.id,
            )
        });
    }

    /// The up-to-`n` objects with the most operations last epoch (ties by
    /// external key). Only objects that were actually operated on last
    /// epoch qualify; the registry no longer pads the result with idle
    /// objects, because it never scans them.
    pub fn hottest(&self, n: usize) -> Vec<DenseObjectId> {
        let mut v: Vec<(u64, ObjectId, DenseObjectId)> = self
            .active_last_epoch()
            .map(|(id, info)| (info.ops_last_epoch, info.desc.id, id))
            .collect();
        v.sort_by_key(|&(ops, key, _)| (std::cmp::Reverse(ops), key));
        v.into_iter().take(n).map(|(_, _, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_lookup() {
        let mut reg = ObjectRegistry::new(64);
        reg.register(0, ObjectDescriptor::new(0x1000, 0x1000, 32 * 1024));
        assert_eq!(reg.len(), 1);
        let info = reg.get(0).unwrap();
        assert_eq!(info.size(), 32 * 1024);
        assert_eq!(info.key(), 0x1000);
        assert!(!info.size_estimated);
        assert_eq!(info.ops_total, 0);
        assert!(reg.get(5).is_none());
    }

    #[test]
    fn record_op_updates_ewma() {
        let mut reg = ObjectRegistry::new(64);
        reg.register(1, ObjectDescriptor::new(1, 0x1000, 4096));
        reg.record_op(1, 1, 100, 0.5, AccessKind::Write);
        assert!((reg.get(1).unwrap().ewma_misses_per_op - 100.0).abs() < 1e-9);
        reg.record_op(1, 1, 0, 0.5, AccessKind::Write);
        assert!((reg.get(1).unwrap().ewma_misses_per_op - 50.0).abs() < 1e-9);
        assert_eq!(reg.get(1).unwrap().ops_total, 2);
    }

    #[test]
    fn unknown_objects_are_auto_registered_with_estimated_size() {
        let mut reg = ObjectRegistry::new(64);
        reg.record_op(3, 0x9000, 500, 0.3, AccessKind::Write);
        let info = reg.get(3).unwrap();
        assert!(info.size_estimated);
        assert_eq!(info.key(), 0x9000);
        assert_eq!(info.size(), 500 * 64);
        // A later, larger footprint grows the estimate.
        reg.record_op(3, 0x9000, 800, 0.3, AccessKind::Write);
        assert_eq!(reg.get(3).unwrap().size(), 800 * 64);
    }

    #[test]
    fn explicit_registration_overrides_estimates() {
        let mut reg = ObjectRegistry::new(64);
        reg.record_op(0, 0x9000, 10, 0.3, AccessKind::Write);
        reg.register(0, ObjectDescriptor::new(0x9000, 0x9000, 1234));
        let info = reg.get(0).unwrap();
        assert_eq!(info.size(), 1234);
        assert!(!info.size_estimated);
        // Operation history is preserved.
        assert_eq!(info.ops_total, 1);
    }

    #[test]
    fn epoch_roll_tracks_idleness_and_last_epoch_ops() {
        let mut reg = ObjectRegistry::new(64);
        reg.register(1, ObjectDescriptor::new(0x10, 0, 64));
        reg.register(2, ObjectDescriptor::new(0x20, 64, 64));
        reg.record_op(1, 0x10, 5, 0.3, AccessKind::Write);
        reg.roll_epoch();
        assert_eq!(reg.get(1).unwrap().ops_last_epoch, 1);
        assert_eq!(reg.idle_epochs(1), 0);
        assert_eq!(reg.idle_epochs(2), 1);
        reg.roll_epoch();
        assert_eq!(reg.get(1).unwrap().ops_last_epoch, 0, "credit expires");
        reg.roll_epoch();
        assert_eq!(reg.idle_objects(3), vec![2]);
        assert_eq!(reg.idle_objects(4), Vec::<DenseObjectId>::new());
        // Object 1 idles two epochs behind object 2.
        assert_eq!(reg.idle_objects(2), vec![2, 1]);
    }

    #[test]
    fn idle_objects_order_is_longest_idle_then_key() {
        let mut reg = ObjectRegistry::new(64);
        for id in 0..4u32 {
            // Keys descend so the key tie-break is visible.
            reg.register(id, ObjectDescriptor::new(0x100 - u64::from(id), 0, 64));
        }
        reg.roll_epoch();
        reg.record_op(0, 0x100, 1, 0.3, AccessKind::Write); // object 0 active in epoch 2
        reg.roll_epoch();
        // Objects 1..3 idle 2 epochs (tie broken by key: 3 has the
        // smallest key), object 0 idle 0.
        assert_eq!(reg.idle_objects(1), vec![3, 2, 1]);
        assert_eq!(reg.idle_objects(2), vec![3, 2, 1]);
    }

    #[test]
    fn hottest_orders_by_last_epoch_ops() {
        let mut reg = ObjectRegistry::new(64);
        for id in 1..=3u32 {
            reg.register(
                id,
                ObjectDescriptor::new(u64::from(id), u64::from(id) * 0x1000, 64),
            );
        }
        for _ in 0..5 {
            reg.record_op(2, 2, 1, 0.3, AccessKind::Write);
        }
        for _ in 0..2 {
            reg.record_op(3, 3, 1, 0.3, AccessKind::Write);
        }
        reg.roll_epoch();
        assert_eq!(reg.hottest(2), vec![2, 3]);
        assert_eq!(reg.hottest(10), vec![2, 3], "idle objects never qualify");
    }

    #[test]
    fn active_last_epoch_is_exactly_the_touched_set() {
        let mut reg = ObjectRegistry::new(64);
        for id in 0..10u32 {
            reg.register(id, ObjectDescriptor::new(u64::from(id), 0, 64));
        }
        reg.record_op(3, 3, 1, 0.3, AccessKind::Write);
        reg.record_op(7, 7, 1, 0.3, AccessKind::Write);
        reg.record_op(3, 3, 1, 0.3, AccessKind::Write);
        reg.roll_epoch();
        let active: Vec<DenseObjectId> = reg.active_last_epoch().map(|(id, _)| id).collect();
        assert_eq!(active, vec![3, 7]);
        reg.roll_epoch();
        assert_eq!(reg.active_last_epoch().count(), 0);
    }

    #[test]
    fn expense_scales_with_miss_cost() {
        let mut reg = ObjectRegistry::new(64);
        reg.record_op(0, 7, 10, 1.0, AccessKind::Write);
        let info = reg.get(0).unwrap();
        assert!((info.expense(100) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn default_registry_has_working_idle_list_and_line_size() {
        // A derived Default would zero head/tail (the sentinel is
        // u32::MAX) and send idle_objects into a self-loop.
        let mut reg = ObjectRegistry::default();
        reg.record_op(0, 0x1000, 5, 0.3, AccessKind::Write);
        reg.roll_epoch();
        reg.roll_epoch();
        assert_eq!(reg.idle_objects(1), vec![0]);
        assert_eq!(reg.get(0).unwrap().size(), 5 * 64, "64-byte lines");
    }

    #[test]
    fn mid_run_registration_keeps_the_idle_list_ordered() {
        let mut reg = ObjectRegistry::new(64);
        reg.register(0, ObjectDescriptor::new(0xA, 0, 64));
        reg.roll_epoch();
        reg.roll_epoch();
        // Object 1 registers two epochs later; object 2 is touched now.
        reg.register(1, ObjectDescriptor::new(0xB, 0, 64));
        reg.record_op(2, 0xC, 1, 0.3, AccessKind::Write);
        reg.roll_epoch();
        // Idle: object 0 for 3 epochs, object 1 for 1, object 2 for 0.
        assert_eq!(reg.idle_objects(1), vec![0, 1]);
        assert_eq!(reg.idle_objects(3), vec![0]);
    }

    #[test]
    fn registrations_land_just_ahead_of_this_epochs_active_objects() {
        // The exact list order (not just the idle sets) across
        // registrations interleaved with operations and a roll: where the
        // walk back from the tail used to put each object.
        fn order(reg: &ObjectRegistry) -> Vec<DenseObjectId> {
            let mut out = Vec::new();
            let mut cursor = reg.head;
            while cursor != NONE {
                out.push(cursor);
                cursor = reg.slots[cursor as usize].next;
            }
            let mut back = Vec::new();
            let mut cursor = reg.tail;
            while cursor != NONE {
                back.push(cursor);
                cursor = reg.slots[cursor as usize].prev;
            }
            back.reverse();
            assert_eq!(out, back, "forward and backward links disagree");
            out
        }
        let desc = |id: u32| ObjectDescriptor::new(u64::from(id), 0, 64);
        let mut reg = ObjectRegistry::new(64);
        reg.register(0, desc(0));
        reg.record_op(1, 1, 1, 0.3, AccessKind::Write);
        reg.record_op(2, 2, 1, 0.3, AccessKind::Write);
        reg.register(3, desc(3));
        assert_eq!(order(&reg), vec![0, 3, 1, 2]);
        reg.roll_epoch();
        // Nothing is active yet this epoch: a registration goes last.
        reg.register(4, desc(4));
        assert_eq!(order(&reg), vec![0, 3, 1, 2, 4]);
        reg.record_op(0, 0, 1, 0.3, AccessKind::Write);
        reg.register(5, desc(5));
        reg.record_op(3, 3, 1, 0.3, AccessKind::Write);
        reg.register(6, desc(6));
        assert_eq!(order(&reg), vec![1, 2, 4, 5, 6, 0, 3]);
        // Operating on the object just ahead of the boundary moves it
        // behind it; the boundary itself stays.
        reg.record_op(6, 6, 1, 0.3, AccessKind::Write);
        reg.register(7, desc(7));
        assert_eq!(order(&reg), vec![1, 2, 4, 5, 7, 0, 3, 6]);
    }
}
