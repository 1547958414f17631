//! The object registry: everything CoreTime knows about each schedulable
//! object.
//!
//! The paper's `ct_start` identifies an object by address; sizes come from
//! registration (or are estimated from observed misses) and per-object
//! fetch costs come from the event-counter monitoring.
//!
//! The registry is a slab indexed by dense object id with **incremental
//! epoch state**: a dirty list of the objects touched this epoch, so
//! `roll_epoch` and `active_last_epoch` never scan the whole slab.

use o2_runtime::{AccessKind, DenseObjectId, ObjectDescriptor, ObjectId};

/// Per-object bookkeeping.
#[derive(Debug, Clone)]
pub struct ObjectInfo {
    /// Registration-time description (address range, hints). Objects that
    /// were never registered get a synthesized descriptor.
    pub desc: ObjectDescriptor,
    /// Smoothed private-cache misses per operation on this object.
    pub ewma_misses_per_op: f64,
    /// Smoothed fraction of operations that declared themselves reads at
    /// `ct_start` (1.0 = all reads). Replica promotion and demotion key
    /// off it when `serve_from_replicas` is enabled.
    pub ewma_read_fraction: f64,
    /// Total operations observed.
    pub ops_total: u64,
    /// Operations observed during the current epoch.
    pub ops_this_epoch: u64,
    /// Operations observed during the previous epoch (read by replica
    /// serving's heat test).
    pub ops_last_epoch: u64,
    /// Whether the size in `desc` was estimated from misses rather than
    /// registered.
    pub size_estimated: bool,
    /// Whether the object is already on the current epoch's dirty list.
    in_dirty: bool,
    /// Whether this slab slot holds a real object.
    present: bool,
}

impl ObjectInfo {
    fn new(desc: ObjectDescriptor, size_estimated: bool) -> Self {
        Self {
            desc,
            ewma_misses_per_op: 0.0,
            ewma_read_fraction: 0.0,
            ops_total: 0,
            ops_this_epoch: 0,
            ops_last_epoch: 0,
            size_estimated,
            in_dirty: false,
            present: true,
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
        in_dirty: false,
        present: false,
    };

    /// Effective size in bytes used for packing decisions.
    pub fn size(&self) -> u64 {
        self.desc.size
    }

    /// The object's external key (the address it is named by).
    pub fn key(&self) -> ObjectId {
        self.desc.id
    }
}

/// Registry of every object CoreTime has seen, indexed by dense id.
#[derive(Debug)]
pub struct ObjectRegistry {
    slots: Vec<ObjectInfo>,
    line_size: u64,
    /// Number of present objects.
    known: usize,
    /// Objects operated on during the current epoch.
    dirty_this: Vec<DenseObjectId>,
    /// Objects operated on during the previous epoch (exactly the set
    /// with `ops_last_epoch > 0`).
    dirty_last: Vec<DenseObjectId>,
}

impl Default for ObjectRegistry {
    /// An empty registry with a 64-byte line size. A derived `Default`
    /// would zero the line size, so this delegates to
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
            dirty_this: Vec::new(),
            dirty_last: Vec::new(),
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

    /// Registers an object explicitly (from [`ObjectDescriptor`]) under its
    /// dense id.
    pub fn register(&mut self, id: DenseObjectId, desc: ObjectDescriptor) {
        self.ensure_slot(id);
        let info = &mut self.slots[id as usize];
        if info.present {
            info.desc = desc;
            info.size_estimated = false;
        } else {
            *info = ObjectInfo::new(desc, false);
            self.known += 1;
        }
    }

    /// Looks up an object.
    #[inline]
    pub fn get(&self, id: DenseObjectId) -> Option<&ObjectInfo> {
        self.slots.get(id as usize).filter(|info| info.present)
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
        if !self.slots[id as usize].present {
            let desc = ObjectDescriptor::new(key, key, misses.max(1) * line_size);
            self.slots[id as usize] = ObjectInfo::new(desc, true);
            self.known += 1;
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
    /// `ops_last_epoch` for the objects touched this epoch and last epoch's
    /// leftovers are cleared. Cost is proportional to the objects
    /// *touched*, not to the registry size.
    pub fn roll_epoch(&mut self) {
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

    /// The objects operated on during the previous epoch — exactly the set
    /// with `ops_last_epoch > 0`, without scanning the slab.
    pub fn active_last_epoch(&self) -> impl Iterator<Item = (DenseObjectId, &ObjectInfo)> {
        self.dirty_last.iter().filter_map(move |&id| {
            let info = &self.slots[id as usize];
            (info.present && info.ops_last_epoch > 0).then_some((id, info))
        })
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
        assert_eq!(reg.get(2).unwrap().ops_last_epoch, 0);
        reg.roll_epoch();
        assert_eq!(reg.get(1).unwrap().ops_last_epoch, 0, "credit expires");
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
    fn default_registry_has_working_idle_list_and_line_size() {
        // A derived Default would zero the line size and estimate every
        // unregistered object at zero bytes.
        let mut reg = ObjectRegistry::default();
        reg.record_op(0, 0x1000, 5, 0.3, AccessKind::Write);
        reg.roll_epoch();
        reg.roll_epoch();
        assert_eq!(reg.get(0).unwrap().size(), 5 * 64, "64-byte lines");
    }
}
