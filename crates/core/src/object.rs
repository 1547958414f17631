//! The object registry: everything CoreTime knows about each schedulable
//! object.
//!
//! The paper's `ct_start` identifies an object by address; sizes come from
//! registration (or are estimated from observed misses) and per-object
//! fetch costs come from the event-counter monitoring.
//!
//! The registry is a slab indexed by dense object id. It keeps no epoch
//! state: nothing CoreTime decides reads a per-epoch count.

use o2_runtime::{DenseObjectId, ObjectDescriptor, ObjectId};

/// Per-object bookkeeping.
#[derive(Debug, Clone)]
pub struct ObjectInfo {
    /// Registration-time description (address range, hints). Objects that
    /// were never registered get a synthesized descriptor.
    pub desc: ObjectDescriptor,
    /// Smoothed private-cache misses per operation on this object.
    pub ewma_misses_per_op: f64,
    /// Total operations observed.
    pub ops_total: u64,
    /// Whether the size in `desc` was estimated from misses rather than
    /// registered.
    pub size_estimated: bool,
    /// Whether this slab slot holds a real object.
    present: bool,
}

impl ObjectInfo {
    fn new(desc: ObjectDescriptor, size_estimated: bool) -> Self {
        Self {
            desc,
            ewma_misses_per_op: 0.0,
            ops_total: 0,
            size_estimated,
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
        ops_total: 0,
        size_estimated: false,
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

    /// Heap bytes held by the registry: the info slab (its capacity, not
    /// its length — an upper bound on live data).
    pub fn footprint_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<ObjectInfo>()) as u64
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
    /// miss rate, and returns a reference to the updated info.
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
        if info.ops_total == 0 {
            info.ewma_misses_per_op = misses as f64;
        } else {
            info.ewma_misses_per_op =
                alpha * misses as f64 + (1.0 - alpha) * info.ewma_misses_per_op;
        }
        info.ops_total += 1;
        &self.slots[id as usize]
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
        reg.record_op(1, 1, 100, 0.5);
        assert!((reg.get(1).unwrap().ewma_misses_per_op - 100.0).abs() < 1e-9);
        reg.record_op(1, 1, 0, 0.5);
        assert!((reg.get(1).unwrap().ewma_misses_per_op - 50.0).abs() < 1e-9);
        assert_eq!(reg.get(1).unwrap().ops_total, 2);
    }

    #[test]
    fn unknown_objects_are_auto_registered_with_estimated_size() {
        let mut reg = ObjectRegistry::new(64);
        reg.record_op(3, 0x9000, 500, 0.3);
        let info = reg.get(3).unwrap();
        assert!(info.size_estimated);
        assert_eq!(info.key(), 0x9000);
        assert_eq!(info.size(), 500 * 64);
        // A later, larger footprint grows the estimate.
        reg.record_op(3, 0x9000, 800, 0.3);
        assert_eq!(reg.get(3).unwrap().size(), 800 * 64);
    }

    #[test]
    fn explicit_registration_overrides_estimates() {
        let mut reg = ObjectRegistry::new(64);
        reg.record_op(0, 0x9000, 10, 0.3);
        reg.register(0, ObjectDescriptor::new(0x9000, 0x9000, 1234));
        let info = reg.get(0).unwrap();
        assert_eq!(info.size(), 1234);
        assert!(!info.size_estimated);
        // Operation history is preserved.
        assert_eq!(info.ops_total, 1);
    }

    #[test]
    fn default_registry_has_working_idle_list_and_line_size() {
        // A derived Default would zero the line size and estimate every
        // unregistered object at zero bytes.
        let mut reg = ObjectRegistry::default();
        reg.record_op(0, 0x1000, 5, 0.3);
        assert_eq!(reg.get(0).unwrap().size(), 5 * 64, "64-byte lines");
    }
}
