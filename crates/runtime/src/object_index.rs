//! The object index: interns sparse object keys (addresses) into dense
//! ids and stores the descriptor slab.
//!
//! Every `ct_start` consults this table, so it runs on the workspace's
//! shared flat recipe rather than `std::collections::HashMap`: an
//! [`o2_collections::Interner`] (open addressing over a power-of-two slot
//! array, Fibonacci hashing, linear probing, all state inline in one
//! allocation) paired with [`o2_collections::Slab`]s for the per-id
//! payloads. Keys are never removed (an object, once seen, keeps its
//! dense id for the lifetime of the engine), which keeps the table
//! tombstone-free by construction.
//!
//! State is paid per object *touched*, not per object that exists: a
//! uniform range of objects is declared once as an [`ObjectRegion`]
//! (O(1), however many objects it spans) and an object in it gets its
//! dense id and descriptor the first time a `ct_start` names it — the
//! paper's "`ct_start` adds the object to the table".

use o2_collections::{IdSpaceExhausted, Interner, Slab};

use crate::action::ObjectDescriptor;
use crate::types::{DenseObjectId, ObjectId};

/// Sentinel for an empty slot. Object keys are addresses, so `u64::MAX`
/// is unreachable.
const EMPTY: ObjectId = ObjectId::MAX;

/// A uniform range of registered objects: `count` objects of `size`
/// bytes each, the `i`-th keyed (and addressed) at `base + i * stride`.
/// Declaring one costs O(1); its objects materialise on first touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRegion {
    /// Key of the first object.
    pub base: ObjectId,
    /// Distance between consecutive object keys.
    pub stride: u64,
    /// Size of every object's data in bytes.
    pub size: u64,
    /// Number of objects.
    pub count: u64,
}

/// Why [`ObjectIndex::register_region`] rejected a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// `stride` is zero: every object would share one key.
    ZeroStride,
    /// `size` is zero: a registered object must have data to schedule.
    ZeroSize,
    /// `count` is zero: the region names no object.
    ZeroCount,
    /// `base + count * stride` does not fit below the reserved key
    /// `u64::MAX`.
    KeySpaceOverflow,
    /// The region's key span `[base, base + count * stride)` intersects
    /// that of an already registered region.
    Overlap {
        /// The region already holding part of the span.
        existing: ObjectRegion,
    },
    /// The region alone names more objects than the index has dense ids.
    TooManyObjects {
        /// The rejected region's object count.
        count: u64,
        /// The dense-id limit of the index.
        limit: u32,
    },
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::ZeroStride => write!(f, "object region has a zero stride"),
            RegionError::ZeroSize => write!(f, "object region has zero-sized objects"),
            RegionError::ZeroCount => write!(f, "object region has no objects"),
            RegionError::KeySpaceOverflow => {
                write!(f, "object region runs past the end of the key space")
            }
            RegionError::Overlap { existing } => write!(
                f,
                "object region overlaps the region of {} objects at {:#x}",
                existing.count, existing.base
            ),
            RegionError::TooManyObjects { count, limit } => write!(
                f,
                "object region names {count} objects but only {limit} dense ids exist"
            ),
        }
    }
}

impl std::error::Error for RegionError {}

impl ObjectRegion {
    /// One past the last key the stride reaches; checked by
    /// [`ObjectIndex::register_region`] not to overflow.
    fn end(&self) -> ObjectId {
        self.base + self.count * self.stride
    }

    /// Whether `key` names one of the region's objects: inside the span
    /// and on the stride.
    fn contains(&self, key: ObjectId) -> bool {
        key >= self.base && key < self.end() && (key - self.base) % self.stride == 0
    }
}

/// Interns object keys to dense ids and owns the descriptor slab.
#[derive(Debug, Clone)]
pub struct ObjectIndex {
    interner: Interner,
    /// Declared regions, sorted by base, key spans pairwise disjoint.
    /// Searched only when a key is interned for the first time.
    regions: Vec<ObjectRegion>,
    /// Descriptor per dense id; synthesized (zero-sized, key-addressed)
    /// for a key outside every region until it is explicitly registered.
    descs: Slab<ObjectDescriptor>,
    /// Whether each dense id's descriptor is a registered one.
    registered: Slab<bool>,
}

impl Default for ObjectIndex {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

impl ObjectIndex {
    /// Creates an index with at least `cap` slots (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_id_limit(cap, u32::MAX)
    }

    /// Creates an index whose dense-id space is capped at `limit` ids
    /// (instead of the full `u32` range). Used by exhaustion tests; real
    /// engines keep the default limit.
    pub fn with_id_limit(cap: usize, limit: u32) -> Self {
        Self {
            interner: Interner::with_id_limit(cap, limit),
            regions: Vec::new(),
            descs: Slab::with_capacity(cap),
            registered: Slab::with_capacity(cap),
        }
    }

    /// Declares a uniform range of objects in O(1). Nothing is interned
    /// here: an object of the region gets its dense id and descriptor
    /// (`size` bytes at its key) at the first `ct_start` that names it. A
    /// key inside the span but off the stride stays an unregistered key,
    /// and a key that already has a dense id — interned or explicitly
    /// registered — keeps the descriptor it has.
    pub fn register_region(&mut self, region: ObjectRegion) -> Result<(), RegionError> {
        if region.stride == 0 {
            return Err(RegionError::ZeroStride);
        }
        if region.size == 0 {
            return Err(RegionError::ZeroSize);
        }
        if region.count == 0 {
            return Err(RegionError::ZeroCount);
        }
        let limit = self.interner.id_limit();
        if region.count > u64::from(limit) {
            return Err(RegionError::TooManyObjects {
                count: region.count,
                limit,
            });
        }
        // `u64::MAX` is the reserved key, so the span must end below it.
        region
            .count
            .checked_mul(region.stride)
            .and_then(|span| region.base.checked_add(span))
            .filter(|&end| end < EMPTY)
            .ok_or(RegionError::KeySpaceOverflow)?;
        // Sorted and disjoint, so sorted by end too: everything before
        // `at` lies below the new region, and the region at `at` is the
        // only one that can reach into it.
        let at = self.regions.partition_point(|r| r.end() <= region.base);
        if let Some(&existing) = self.regions.get(at).filter(|r| r.base < region.end()) {
            return Err(RegionError::Overlap { existing });
        }
        self.regions.insert(at, region);
        Ok(())
    }

    /// The declared regions, in ascending key order.
    pub fn regions(&self) -> &[ObjectRegion] {
        &self.regions
    }

    /// The declared region holding `key` as one of its objects, if any.
    fn region_of(&self, key: ObjectId) -> Option<&ObjectRegion> {
        let after = self.regions.partition_point(|r| r.base <= key);
        self.regions[..after].last().filter(|r| r.contains(key))
    }

    /// Heap bytes held by the index: the interner's slot array, both
    /// per-id slabs and the region list. Measured from capacities, so it
    /// is an upper bound on live data.
    pub fn footprint_bytes(&self) -> u64 {
        self.interner.footprint_bytes()
            + self.descs.footprint_bytes()
            + self.registered.footprint_bytes()
            + (self.regions.capacity() * std::mem::size_of::<ObjectRegion>()) as u64
    }

    /// Number of distinct objects interned so far.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether no object has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Dense id of `key`, interning it (with a synthesized descriptor) on
    /// first sight. Dense ids are assigned contiguously in first-touch
    /// order, so they index straight into the slabs kept by policies.
    #[inline]
    pub fn intern(&mut self, key: ObjectId) -> DenseObjectId {
        self.try_intern(key)
            .unwrap_or_else(|e| panic!("object index: {e}"))
    }

    /// Fallible form of [`ObjectIndex::intern`]: a previously unseen key
    /// with no dense id left below the limit returns the typed
    /// [`IdSpaceExhausted`] error instead of panicking. Already-interned
    /// keys always resolve.
    #[inline]
    pub fn try_intern(&mut self, key: ObjectId) -> Result<DenseObjectId, IdSpaceExhausted> {
        self.try_touch(key).map(|(dense, _)| dense)
    }

    /// The `ct_start` lookup: [`ObjectIndex::try_intern`], which also
    /// returns the descriptor when this call was the first touch of an
    /// object in a declared region — the one moment the caller has to
    /// announce the object to whoever keeps per-object state. Known keys
    /// never consult the regions.
    #[inline]
    pub fn try_touch(
        &mut self,
        key: ObjectId,
    ) -> Result<(DenseObjectId, Option<&ObjectDescriptor>), IdSpaceExhausted> {
        // A hard assert (not debug-only): `u64::MAX` is the vacant-slot
        // sentinel, and letting it through would silently alias the key
        // to whatever dense id sits in the first vacant slot probed.
        assert_ne!(key, EMPTY, "object key u64::MAX is reserved");
        let (dense, new) = self.interner.try_intern(key)?;
        Ok((dense, if new { self.admit(key) } else { None }))
    }

    /// Gives a key interned a moment ago its slab entries: the region's
    /// descriptor (returned) if the key is an object of one, a
    /// synthesized one otherwise. Out of line because it runs once per
    /// object, which keeps the known-key path of `ct_start` as short as
    /// it was before regions existed.
    #[cold]
    #[inline(never)]
    fn admit(&mut self, key: ObjectId) -> Option<&ObjectDescriptor> {
        let size = self.region_of(key).map(|r| r.size);
        let dense = self
            .descs
            .push(ObjectDescriptor::new(key, key, size.unwrap_or(0)));
        self.registered.push(size.is_some());
        size.and(self.descs.get(dense))
    }

    /// Dense id of `key` if it has been seen before.
    #[inline]
    pub fn get(&self, key: ObjectId) -> Option<DenseObjectId> {
        self.interner.get(key)
    }

    /// Interns `desc.id` and records the descriptor; returns the dense id.
    pub fn register(&mut self, desc: ObjectDescriptor) -> DenseObjectId {
        let dense = self.intern(desc.id);
        self.descs[dense] = desc;
        self.registered[dense] = true;
        dense
    }

    /// The descriptor of a dense id (synthesized if never registered).
    #[inline]
    pub fn descriptor(&self, dense: DenseObjectId) -> &ObjectDescriptor {
        &self.descs[dense]
    }

    /// The external key of a dense id.
    #[inline]
    pub fn key_of(&self, dense: DenseObjectId) -> ObjectId {
        self.descs[dense].id
    }

    /// Whether a dense id carries a registered descriptor — registered
    /// explicitly or materialised from a declared region — rather than
    /// the one synthesized for an unknown key at `ct_start`.
    pub fn is_registered(&self, dense: DenseObjectId) -> bool {
        self.registered[dense]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_assigns_dense_ids_in_first_touch_order() {
        let mut idx = ObjectIndex::default();
        assert_eq!(idx.intern(0x9000), 0);
        assert_eq!(idx.intern(0x1000), 1);
        assert_eq!(idx.intern(0x9000), 0, "stable on re-intern");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.key_of(0), 0x9000);
        assert_eq!(idx.key_of(1), 0x1000);
        assert_eq!(idx.get(0x1000), Some(1));
        assert_eq!(idx.get(0x2000), None);
    }

    #[test]
    fn register_overwrites_the_synthesized_descriptor() {
        let mut idx = ObjectIndex::default();
        let d = idx.intern(0x5000);
        assert!(!idx.is_registered(d));
        assert_eq!(idx.descriptor(d).size, 0);
        let d2 = idx.register(ObjectDescriptor::new(0x5000, 0x5000, 4096));
        assert_eq!(d, d2, "registration keeps the interned dense id");
        assert!(idx.is_registered(d));
        assert_eq!(idx.descriptor(d).size, 4096);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut idx = ObjectIndex::with_capacity(8);
        for key in 0..1000u64 {
            assert_eq!(idx.intern(key * 64), key as DenseObjectId);
        }
        assert_eq!(idx.len(), 1000);
        for key in 0..1000u64 {
            assert_eq!(idx.get(key * 64), Some(key as DenseObjectId), "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_sentinel_key_is_rejected() {
        ObjectIndex::default().intern(u64::MAX);
    }

    #[test]
    fn exhaustion_is_a_typed_error_and_existing_keys_survive() {
        let mut idx = ObjectIndex::with_id_limit(8, 3);
        for key in 0..3u64 {
            assert_eq!(idx.try_intern(key * 64), Ok(key as DenseObjectId));
        }
        let err = idx.try_intern(0x9999).unwrap_err();
        assert_eq!(err.limit, 3);
        // At the limit, re-interning a known key still resolves.
        assert_eq!(idx.try_intern(64), Ok(1));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn footprint_follows_the_objects_touched() {
        let mut idx = ObjectIndex::with_capacity(8);
        idx.register_region(region(0x1000, 64, 1 << 30)).unwrap();
        let declared = idx.footprint_bytes();
        assert!(declared > 0);
        assert!(
            declared < 4096,
            "declaring a region must not pay per object: {declared} bytes"
        );
        for i in 0..1000u64 {
            idx.intern(0x1000 + i * 64);
        }
        assert!(idx.footprint_bytes() > declared);
        assert_eq!(idx.len(), 1000);
    }

    /// `count` objects of 48 bytes, `stride` apart, from `base`.
    fn region(base: ObjectId, stride: u64, count: u64) -> ObjectRegion {
        ObjectRegion {
            base,
            stride,
            size: 48,
            count,
        }
    }

    #[test]
    fn region_objects_materialise_on_first_touch() {
        let mut idx = ObjectIndex::default();
        idx.register_region(region(0x1000, 64, 10)).unwrap();
        assert!(idx.is_empty(), "declaring a region interns nothing");

        // The last object is touched first: dense ids follow touch order.
        let (last, desc) = idx.try_touch(0x1000 + 9 * 64).unwrap();
        assert_eq!(last, 0);
        assert_eq!(
            desc.copied(),
            Some(ObjectDescriptor::new(0x1240, 0x1240, 48))
        );
        assert!(idx.is_registered(last));
        let (first, desc) = idx.try_touch(0x1000).unwrap();
        assert_eq!(first, 1);
        assert_eq!(desc.map(|d| (d.id, d.size)), Some((0x1000, 48)));

        // Only the first touch announces the object.
        assert_eq!(idx.try_touch(0x1000).unwrap(), (first, None));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn keys_off_the_region_stay_unregistered() {
        let mut idx = ObjectIndex::default();
        idx.register_region(region(0x1000, 64, 10)).unwrap();
        // One past the end, just below the base, and inside the span
        // but off the stride.
        for key in [0x1000 + 10 * 64, 0x1000 - 64, 0x1000 + 65] {
            let (dense, desc) = idx.try_touch(key).unwrap();
            assert_eq!(desc, None, "key {key:#x}");
            assert!(!idx.is_registered(dense), "key {key:#x}");
            assert_eq!(idx.descriptor(dense).size, 0, "key {key:#x}");
        }
    }

    #[test]
    fn explicit_registration_wins_over_the_region() {
        let mut idx = ObjectIndex::default();
        idx.register_region(region(0x1000, 64, 10)).unwrap();
        let explicit = ObjectDescriptor::new(0x1040, 0x1040, 4096).read_mostly(true);
        let dense = idx.register(explicit);
        // Before its first touch and after: the explicit descriptor
        // stays, and the touch announces nothing.
        assert_eq!(idx.try_touch(0x1040).unwrap(), (dense, None));
        assert_eq!(*idx.descriptor(dense), explicit);

        // An object already materialised can still be re-registered.
        let (touched, _) = idx.try_touch(0x1080).unwrap();
        idx.register(ObjectDescriptor::new(0x1080, 0x1080, 7));
        assert_eq!(idx.descriptor(touched).size, 7);
    }

    #[test]
    fn regions_are_searched_in_key_order_whatever_the_registration_order() {
        let mut idx = ObjectIndex::default();
        for base in [0x30_0000, 0x10_0000, 0x20_0000] {
            idx.register_region(ObjectRegion {
                base,
                stride: 0x100,
                size: base >> 16,
                count: 16,
            })
            .unwrap();
        }
        for base in [0x10_0000u64, 0x20_0000, 0x30_0000] {
            let (_, desc) = idx.try_touch(base + 0xF00).unwrap();
            assert_eq!(desc.map(|d| d.size), Some(base >> 16));
            let (_, desc) = idx.try_touch(base + 0x1000).unwrap();
            assert_eq!(desc, None, "one past the end of {base:#x}");
        }
    }

    #[test]
    fn malformed_regions_are_typed_errors() {
        let mut idx = ObjectIndex::with_id_limit(8, 100);
        let ok = region(0x1000, 64, 10);
        assert_eq!(
            idx.register_region(ObjectRegion { stride: 0, ..ok }),
            Err(RegionError::ZeroStride)
        );
        assert_eq!(
            idx.register_region(ObjectRegion { size: 0, ..ok }),
            Err(RegionError::ZeroSize)
        );
        assert_eq!(
            idx.register_region(ObjectRegion { count: 0, ..ok }),
            Err(RegionError::ZeroCount)
        );
        assert_eq!(
            idx.register_region(ObjectRegion { count: 101, ..ok }),
            Err(RegionError::TooManyObjects {
                count: 101,
                limit: 100
            })
        );
        // The span may not reach the reserved key, let alone wrap.
        assert_eq!(
            idx.register_region(region(u64::MAX - 640, 64, 10)),
            Err(RegionError::KeySpaceOverflow)
        );
        assert_eq!(
            idx.register_region(region(8, u64::MAX / 2, 3)),
            Err(RegionError::KeySpaceOverflow)
        );
        assert_eq!(idx.register_region(region(u64::MAX - 641, 64, 10)), Ok(()));

        assert_eq!(idx.register_region(ok), Ok(()));
        // Overlap from below, from above, and exact; abutting is fine.
        for base in [0x1000 - 64, 0x1000 + 9 * 64, 0x1000] {
            assert_eq!(
                idx.register_region(region(base, 64, 10)),
                Err(RegionError::Overlap { existing: ok }),
                "base {base:#x}"
            );
        }
        assert_eq!(idx.register_region(region(0x1000 + 640, 64, 10)), Ok(()));
        assert_eq!(idx.register_region(region(0x1000 - 640, 64, 10)), Ok(()));
        assert!(idx.is_empty(), "no region, accepted or not, interns a key");
    }

    #[test]
    fn get_of_the_sentinel_key_is_none() {
        let mut idx = ObjectIndex::default();
        idx.intern(1);
        assert_eq!(idx.get(u64::MAX), None);
    }

    #[test]
    fn colliding_keys_stay_distinct() {
        // Keys a multiple of the initial capacity apart collide in the
        // low bits; Fibonacci hashing plus probing must keep them apart.
        let mut idx = ObjectIndex::with_capacity(8);
        let keys: Vec<u64> = (1..=64u64).map(|i| i * 8).collect();
        for &k in &keys {
            idx.intern(k);
        }
        let mut seen: Vec<DenseObjectId> = keys.iter().map(|&k| idx.get(k).unwrap()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), keys.len());
    }
}
