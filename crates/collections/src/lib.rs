//! # o2-collections — the one flat table
//!
//! Three crates of this workspace independently hand-rolled the same
//! open-addressed hash-table recipe before it was extracted here: the
//! simulator's coherence directory, the runtime's object interner, and
//! CoreTime's co-access pair table. (The directory has since gone back to
//! a table of its own — 16-byte slots that double in place, see
//! `o2-sim::directory` — because nothing else wants its layout, and the
//! pair table went with the co-access clustering it served.) The recipe:
//!
//! * **Power-of-two capacity, mask indexing.** The home slot of a key is
//!   `(hash(key) >> 32) & (capacity - 1)` where `hash` is Fibonacci
//!   hashing — one multiply by `0x9e37_79b9_7f4a_7c15`, keeping the high
//!   bits that the mask would otherwise discard. Collisions probe
//!   linearly, which is sequential in memory.
//! * **Inline slots.** A slot is the key plus the value, in one flat
//!   allocation; a probe touches at most a cache line or two, and nothing
//!   on the lookup/insert/remove path allocates.
//! * **Tombstone-free deletion.** [`FlatTable::remove`] backward-shifts
//!   the following cluster instead of leaving tombstones, so probe chains
//!   never grow from churn. Users that never remove (the interner) are
//!   tombstone-free by construction and simply never call it.
//! * **Probe counting.** Every slot inspection on the counting paths is
//!   tallied so hot-path users can report pressure;
//!   [`FlatTable::peek`] is the non-counting lookup for
//!   diagnostics that must not skew the statistics.
//!
//! Empty slots are marked with a sentinel key ([`FlatKey::EMPTY`]) rather
//! than a side bitmap — every user has a key value that cannot occur
//! (`u64::MAX` for object addresses and packed id pairs).
//!
//! [`Interner`] and [`Slab`] build the dense-id idiom on top: sparse
//! `u64` keys are interned to contiguous `u32` ids in first-touch order,
//! and per-id payloads live in plain indexable slabs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Index, IndexMut};

/// The Fibonacci hashing multiplier (the golden ratio in 0.64 fixed
/// point), shared by every table built on this crate. `o2-sim`'s
/// coherence directory keeps its own copy, since that crate depends on
/// no other workspace crate.
pub const FIB_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A key storable in a [`FlatTable`].
///
/// Implementations provide the sentinel marking an empty slot (a value
/// that can never be inserted) and a 64-bit hash whose *high* 32 bits are
/// well mixed — the table derives the home slot from them.
pub trait FlatKey: Copy + Eq {
    /// The vacant-slot sentinel. Inserting it is a logic error (checked
    /// in debug builds).
    const EMPTY: Self;

    /// Full 64-bit hash of the key. The table uses `(hash >> 32) & mask`.
    fn hash(self) -> u64;
}

/// `u64` keys hash with a single Fibonacci multiply — exactly the recipe
/// the object interner and pair table always used.
impl FlatKey for u64 {
    const EMPTY: Self = u64::MAX;

    #[inline]
    fn hash(self) -> u64 {
        self.wrapping_mul(FIB_MULT)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot<K, V> {
    key: K,
    value: V,
}

/// Open-addressed `K → V` table (see crate docs for the recipe).
#[derive(Debug, Clone)]
pub struct FlatTable<K: FlatKey, V: Copy + Default> {
    slots: Box<[Slot<K, V>]>,
    mask: usize,
    len: usize,
    probes: u64,
}

impl<K: FlatKey, V: Copy + Default> Default for FlatTable<K, V> {
    fn default() -> Self {
        Self::with_capacity(64)
    }
}

impl<K: FlatKey, V: Copy + Default> FlatTable<K, V> {
    /// Creates a table with at least `cap` slots (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(8);
        Self {
            slots: Self::vacant_slots(cap),
            mask: cap - 1,
            len: 0,
            probes: 0,
        }
    }

    fn vacant_slots(cap: usize) -> Box<[Slot<K, V>]> {
        vec![
            Slot {
                key: K::EMPTY,
                value: V::default(),
            };
            cap
        ]
        .into_boxed_slice()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated slots (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative slot inspections across all counting operations
    /// (everything except [`FlatTable::peek`], [`FlatTable::iter`] and
    /// [`FlatTable::clear`]).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Grows the table up front so that `additional` more entries fit
    /// without crossing the 7/8 load factor — pre-sizing for callers that
    /// know their population (the scale tier), so steady-state inserts
    /// never reallocate.
    pub fn reserve(&mut self, additional: usize) {
        let mut cap = self.capacity();
        while (self.len + additional + 1) * 8 > cap * 7 {
            cap *= 2;
        }
        if cap > self.capacity() {
            self.rehash_to(cap);
        }
    }

    /// Heap bytes held by the slot array (capacity × slot size).
    pub fn footprint_bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<Slot<K, V>>()) as u64
    }

    #[inline]
    fn home(&self, key: K) -> usize {
        (key.hash() >> 32) as usize & self.mask
    }

    /// Index of the slot holding `key`, if present, counting probes.
    #[inline]
    fn find(&mut self, key: K) -> Option<usize> {
        debug_assert!(key != K::EMPTY, "the vacant-slot sentinel is not a key");
        let mut i = self.home(key);
        loop {
            self.probes += 1;
            let k = self.slots[i].key;
            if k == key {
                return Some(i);
            }
            if k == K::EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value of `key`, or `None` if absent.
    #[inline]
    pub fn get(&mut self, key: K) -> Option<&V> {
        self.find(key).map(|i| &self.slots[i].value)
    }

    /// Like [`FlatTable::get`] but without counting probes: for
    /// diagnostics and assertions that must not skew
    /// [`FlatTable::probes`].
    pub fn peek(&self, key: K) -> Option<&V> {
        debug_assert!(key != K::EMPTY, "the vacant-slot sentinel is not a key");
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return Some(&self.slots[i].value);
            }
            if k == K::EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Mutable access to the value of `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.find(key).map(move |i| &mut self.slots[i].value)
    }

    /// Mutable access to the value of `key`, inserting `make()` if the
    /// key is absent. Returns the value and whether an insertion
    /// happened.
    ///
    /// The growth check (at 7/8 load, so probe chains stay short) runs
    /// before the probe, exactly as in the original three tables.
    #[inline]
    pub fn or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> (&mut V, bool) {
        debug_assert!(key != K::EMPTY, "the vacant-slot sentinel is not a key");
        if (self.len + 1) * 8 > self.capacity() * 7 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            self.probes += 1;
            let k = self.slots[i].key;
            if k == key {
                return (&mut self.slots[i].value, false);
            }
            if k == K::EMPTY {
                self.slots[i] = Slot { key, value: make() };
                self.len += 1;
                return (&mut self.slots[i].value, true);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts or overwrites, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (slot, inserted) = self.or_insert_with(key, || value);
        if inserted {
            None
        } else {
            Some(std::mem::replace(slot, value))
        }
    }

    /// Removes a key, returning its value if it was present. Deletion
    /// backward-shifts the following cluster — no tombstones.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let mut hole = self.find(key)?;
        let removed = self.slots[hole].value;
        self.len -= 1;
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            self.probes += 1;
            let k = self.slots[i].key;
            if k == K::EMPTY {
                break;
            }
            // The entry at `i` may move into the hole only if the hole lies
            // on its probe path, i.e. cyclically within [home(k), i).
            let h = self.home(k);
            let on_path = if h <= i {
                h <= hole && hole < i
            } else {
                hole >= h || hole < i
            };
            if on_path {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
        }
        self.slots[hole] = Slot {
            key: K::EMPTY,
            value: V::default(),
        };
        Some(removed)
    }

    /// Drops every entry (capacity is retained).
    pub fn clear(&mut self) {
        self.slots.fill(Slot {
            key: K::EMPTY,
            value: V::default(),
        });
        self.len = 0;
    }

    /// Iterates over every stored `(key, value)` pair in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.key != K::EMPTY)
            .map(|s| (s.key, &s.value))
    }

    fn grow(&mut self) {
        self.rehash_to(self.capacity() * 2);
    }

    fn rehash_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap > self.capacity());
        let old = std::mem::replace(&mut self.slots, Self::vacant_slots(new_cap));
        self.mask = new_cap - 1;
        for slot in old.iter().filter(|s| s.key != K::EMPTY) {
            // Plain reinsertion; the table is known not to contain the key.
            let mut i = self.home(slot.key);
            loop {
                self.probes += 1;
                if self.slots[i].key == K::EMPTY {
                    self.slots[i] = *slot;
                    break;
                }
                i = (i + 1) & self.mask;
            }
        }
    }
}

/// The interner's dense-id space is exhausted: a new key would need an id
/// at or beyond the interner's limit (`u32::MAX` by default — the last
/// `u32` is reserved as a niche/sentinel by dense-id consumers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpaceExhausted {
    /// The interner's id limit (ids `0..limit` are assignable).
    pub limit: u32,
}

impl std::fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dense-id space exhausted: all {} ids below the limit are assigned",
            self.limit
        )
    }
}

impl std::error::Error for IdSpaceExhausted {}

/// Interns sparse `u64` keys into dense `u32` ids, assigned contiguously
/// in first-touch order so they index straight into [`Slab`]s.
///
/// Keys are never removed — an interned key keeps its dense id for the
/// lifetime of the interner — which keeps the underlying table
/// tombstone-free by construction.
///
/// Ids below the id limit (`u32::MAX` by default, since consumers use the
/// all-ones `u32` as a sentinel) are assignable; once they run out,
/// [`Interner::try_intern`] reports [`IdSpaceExhausted`] for unseen keys
/// instead of silently wrapping the 32-bit counter.
#[derive(Debug, Clone)]
pub struct Interner {
    table: FlatTable<u64, u32>,
    id_limit: u32,
}

impl Default for Interner {
    fn default() -> Self {
        Self::with_capacity(64)
    }
}

impl Interner {
    /// Creates an interner with at least `cap` slots.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            table: FlatTable::with_capacity(cap),
            id_limit: u32::MAX,
        }
    }

    /// Creates an interner whose assignable ids are `0..limit` — a
    /// synthetic small id space for exercising the exhaustion path in
    /// tests without interning four billion keys.
    pub fn with_id_limit(cap: usize, limit: u32) -> Self {
        Self {
            table: FlatTable::with_capacity(cap),
            id_limit: limit,
        }
    }

    /// The id limit: ids `0..limit` are assignable.
    pub fn id_limit(&self) -> u32 {
        self.id_limit
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no key has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Pre-sizes the table for `additional` more keys, so steady-state
    /// interning never reallocates.
    pub fn reserve(&mut self, additional: usize) {
        self.table.reserve(additional);
    }

    /// Heap bytes held by the interner's table.
    pub fn footprint_bytes(&self) -> u64 {
        self.table.footprint_bytes()
    }

    /// Dense id of `key`, interning it on first sight. Returns the id and
    /// whether this call was the first sight.
    ///
    /// Panics when the dense-id space is exhausted; use
    /// [`Interner::try_intern`] to handle that as a typed error.
    #[inline]
    pub fn intern(&mut self, key: u64) -> (u32, bool) {
        self.try_intern(key)
            .expect("interner dense-id space exhausted")
    }

    /// Dense id of `key`, interning it on first sight, or
    /// [`IdSpaceExhausted`] if the key is unseen and every assignable id
    /// is taken. Returns the id and whether this call was the first
    /// sight.
    #[inline]
    pub fn try_intern(&mut self, key: u64) -> Result<(u32, bool), IdSpaceExhausted> {
        // A hard assert (not debug-only): `u64::MAX` is the vacant-slot
        // sentinel, and letting it through would silently alias the key
        // to whatever dense id sits in the first vacant slot probed.
        assert_ne!(key, u64::MAX, "interner key u64::MAX is reserved");
        if self.table.len() as u64 >= u64::from(self.id_limit) {
            // At the limit: existing keys still resolve, new ones error
            // instead of wrapping the 32-bit counter.
            return match self.table.get(key) {
                Some(&dense) => Ok((dense, false)),
                None => Err(IdSpaceExhausted {
                    limit: self.id_limit,
                }),
            };
        }
        let next = self.table.len() as u32;
        let (dense, new) = self.table.or_insert_with(key, || next);
        Ok((*dense, new))
    }

    /// Dense id of `key` if it has been seen before.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        if key == u64::MAX {
            // The sentinel would "match" any vacant slot.
            return None;
        }
        self.table.peek(key).copied()
    }
}

/// Dense-id-indexed storage: the slab side of the interner idiom. Ids are
/// `u32` (matching [`Interner`] dense ids) and assigned by push order.
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    items: Vec<T>,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Creates an empty slab with room for `cap` items.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
        }
    }

    /// Pre-sizes the slab for `additional` more items.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }

    /// Heap bytes held by the slab (capacity × item size).
    pub fn footprint_bytes(&self) -> u64 {
        (self.items.capacity() * std::mem::size_of::<T>()) as u64
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends an item, returning its dense id.
    pub fn push(&mut self, item: T) -> u32 {
        let id = self.items.len() as u32;
        self.items.push(item);
        id
    }

    /// The item with dense id `id`, if in bounds.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.items.get(id as usize)
    }

    /// Mutable access to the item with dense id `id`, if in bounds.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        self.items.get_mut(id as usize)
    }

    /// Iterates over the items in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.items.iter()
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, id: u32) -> &T {
        &self.items[id as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, id: u32) -> &mut T {
        &mut self.items[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FlatTable<u64, u64> = FlatTable::default();
        t.insert(42, 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(42), Some(&7));
        assert_eq!(t.get(43), None);
        assert_eq!(t.remove(42), Some(7));
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(42), None);
    }

    #[test]
    fn or_insert_with_reports_insertion() {
        let mut t: FlatTable<u64, u32> = FlatTable::with_capacity(8);
        let (v, new) = t.or_insert_with(5, || 99);
        assert_eq!((*v, new), (99, true));
        let (v, new) = t.or_insert_with(5, || 11);
        assert_eq!((*v, new), (99, false));
        assert_eq!(t.insert(5, 3), Some(99));
        assert_eq!(t.insert(6, 4), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity() >= 1024);
        for k in 0..1000u64 {
            assert_eq!(t.get(k), Some(&k), "key {k}");
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_keys_reachable() {
        // Small table, many keys that collide in the low bits: every
        // cluster shape gets exercised.
        let mut t: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        let keys: Vec<u64> = (0..6).map(|i| i * 8).collect();
        for &k in &keys {
            t.insert(k, k + 1);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(t.remove(k), Some(k + 1), "key {k}");
            assert_eq!(t.remove(k), None);
            for &rest in &keys[n + 1..] {
                assert_eq!(t.get(rest), Some(&(rest + 1)), "key {rest}");
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn probes_accumulate_but_peek_does_not_count() {
        let mut t: FlatTable<u64, u64> = FlatTable::default();
        t.insert(9, 0);
        let after_insert = t.probes();
        assert!(after_insert > 0);
        t.peek(9);
        t.peek(10);
        assert_eq!(t.probes(), after_insert, "peek must not count");
        t.get(9);
        assert!(t.probes() > after_insert);
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut t: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        for k in 0..100u64 {
            t.insert(k, 0);
        }
        let cap = t.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn interner_assigns_first_touch_order() {
        let mut i = Interner::with_capacity(8);
        assert_eq!(i.intern(0x9000), (0, true));
        assert_eq!(i.intern(0x1000), (1, true));
        assert_eq!(i.intern(0x9000), (0, false), "stable on re-intern");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(0x1000), Some(1));
        assert_eq!(i.get(0x2000), None);
        assert_eq!(i.get(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn interner_rejects_the_sentinel_key() {
        Interner::default().intern(u64::MAX);
    }

    #[test]
    fn interner_errors_at_the_id_limit_instead_of_wrapping() {
        // Synthetic 4-id space: the boundary behaviour of the real
        // u32::MAX limit without four billion inserts.
        let mut i = Interner::with_id_limit(8, 4);
        for k in 0..4u64 {
            assert_eq!(i.try_intern(0x100 + k), Ok((k as u32, true)));
        }
        // At the limit: existing keys still resolve to their ids...
        assert_eq!(i.try_intern(0x102), Ok((2, false)));
        assert_eq!(i.get(0x103), Some(3));
        // ...but a fifth distinct key gets the typed error, repeatably,
        // and never a wrapped or aliased id.
        assert_eq!(i.try_intern(0x999), Err(IdSpaceExhausted { limit: 4 }));
        assert_eq!(i.try_intern(0x999), Err(IdSpaceExhausted { limit: 4 }));
        assert_eq!(i.len(), 4);
        assert_eq!(i.get(0x999), None);
        // One id below the limit everything still works.
        let mut near = Interner::with_id_limit(8, 4);
        for k in 0..3u64 {
            near.try_intern(k).unwrap();
        }
        assert_eq!(near.try_intern(3), Ok((3, true)));
        let msg = IdSpaceExhausted { limit: 4 }.to_string();
        assert!(msg.contains("dense-id space exhausted"), "{msg}");
    }

    #[test]
    fn reserve_presizes_so_inserts_never_grow() {
        let mut t: FlatTable<u64, u64> = FlatTable::with_capacity(8);
        t.reserve(1000);
        let cap = t.capacity();
        assert!(cap >= 1024 + 512, "7/8 load headroom: {cap}");
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        assert_eq!(t.capacity(), cap, "pre-sized inserts must not grow");
        assert_eq!(t.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(t.get(k), Some(&k));
        }
        assert_eq!(t.footprint_bytes(), (cap * 16) as u64);
    }

    #[test]
    fn slab_push_and_index() {
        let mut s: Slab<&str> = Slab::new();
        assert_eq!(s.push("a"), 0);
        assert_eq!(s.push("b"), 1);
        assert_eq!(s[1], "b");
        s[0] = "c";
        assert_eq!(s.get(0), Some(&"c"));
        assert_eq!(s.get(9), None);
        assert_eq!(s.iter().count(), 2);
    }
}
