//! Annotated directory-lookup operations.
//!
//! This is the bridge between the file system and the runtime: given a
//! directory and a target file, it produces the action sequence of one
//! benchmark operation — `ct_start(dir)`, take the directory's spin lock,
//! scan the entries up to the match, pay the name-comparison cost, unlock,
//! `ct_end()` — mirroring Figure 3 of the paper.

use o2_runtime::{AccessKind, Action, LockId, ObjectDescriptor, OpBuilder};

use crate::dirent::DIRENT_SIZE;
use crate::volume::{DirectoryHandle, Volume, VolumeError};

/// Cost model for the lookup inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupCost {
    /// Cycles of computation per entry examined (name comparison and loop
    /// overhead). The paper's EFSL-derived lookup has a
    /// "higher-performance inner loop"; an 8.3 comparison is two 8-byte
    /// compares plus loop overhead, ~8 cycles per entry, which also
    /// reproduces the paper's absolute throughput range on the default
    /// machine.
    pub compare_cycles_per_entry: u64,
    /// Fixed per-operation overhead (random number generation, call
    /// overhead) charged once per lookup.
    pub fixed_overhead_cycles: u64,
}

impl Default for LookupCost {
    fn default() -> Self {
        Self {
            compare_cycles_per_entry: 8,
            fixed_overhead_cycles: 120,
        }
    }
}

/// A fully described lookup operation, ready to be turned into actions.
#[derive(Debug, Clone, Copy)]
pub struct LookupOp {
    /// Directory index within the volume.
    pub dir_index: u32,
    /// Index of the entry being looked up.
    pub entry_index: u32,
    /// Entries that will be examined (entry_index + 1 for a hit).
    pub entries_examined: u32,
}

/// Builds the annotated action sequence for one lookup, using the
/// directory's registered lock.
///
/// The object named in the annotation is the directory's simulated address
/// (its [`DirectoryHandle::object_id`]); the read covers exactly the bytes
/// the linear search touches.
pub fn lookup_actions(
    dir: &DirectoryHandle,
    lock: LockId,
    entry_index: u32,
    cost: &LookupCost,
) -> Vec<Action> {
    lookup_actions_kind(dir, lock, entry_index, cost, AccessKind::Write)
}

/// Like [`lookup_actions`] but with an explicit access kind.
///
/// The kind reaches the policy at `ct_start`: a read-kind lookup declares
/// that the operation will not mutate the directory. `lookup_actions`
/// defaults to [`AccessKind::Write`], the conservative choice.
pub fn lookup_actions_kind(
    dir: &DirectoryHandle,
    lock: LockId,
    entry_index: u32,
    cost: &LookupCost,
    kind: AccessKind,
) -> Vec<Action> {
    let examined = entry_index.min(dir.entry_count.saturating_sub(1)) + 1;
    let bytes = u64::from(examined) * DIRENT_SIZE as u64;
    OpBuilder::annotated_kind(dir.object_id(), kind)
        .compute(cost.fixed_overhead_cycles)
        .lock(lock)
        .read(dir.sim_addr, bytes)
        .compute(u64::from(examined) * cost.compare_cycles_per_entry)
        .unlock(lock)
        .finish()
}

/// Builds the action sequence for an *unannotated* lookup (no
/// `ct_start`/`ct_end`). Used to show that the baseline's behaviour is not
/// an artifact of the annotations themselves.
pub fn lookup_actions_unannotated(
    dir: &DirectoryHandle,
    lock: LockId,
    entry_index: u32,
    cost: &LookupCost,
) -> Vec<Action> {
    let examined = entry_index.min(dir.entry_count.saturating_sub(1)) + 1;
    let bytes = u64::from(examined) * DIRENT_SIZE as u64;
    OpBuilder::new()
        .compute(cost.fixed_overhead_cycles)
        .lock(lock)
        .read(dir.sim_addr, bytes)
        .compute(u64::from(examined) * cost.compare_cycles_per_entry)
        .unlock(lock)
        .build()
}

/// Performs the lookup against the actual volume image (functional check,
/// independent of the simulation) and returns the operation description.
pub fn resolve(
    volume: &Volume,
    dir_index: u32,
    name: &str,
) -> Result<Option<LookupOp>, VolumeError> {
    match volume.search(dir_index, name)? {
        Some((entry_index, examined)) => Ok(Some(LookupOp {
            dir_index,
            entry_index,
            entries_examined: examined,
        })),
        None => Ok(None),
    }
}

/// The object descriptor for a directory, for registration with the
/// runtime and the scheduling policy.
pub fn directory_descriptor(dir: &DirectoryHandle, lock: LockId) -> ObjectDescriptor {
    ObjectDescriptor::new(dir.object_id(), dir.sim_addr, dir.byte_len as u64)
        .read_mostly(true)
        .with_lock(lock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirent::synthetic_name;
    use o2_sim::SimMemory;

    fn mapped_volume() -> Volume {
        let mut v = Volume::build_benchmark(2, 100).unwrap();
        let mut mem = SimMemory::new(4, 64);
        v.map_into(&mut mem);
        v
    }

    #[test]
    fn actions_cover_exactly_the_scanned_bytes() {
        let v = mapped_volume();
        let dir = v.directory(0).unwrap();
        let cost = LookupCost::default();
        let actions = lookup_actions(dir, 3, 9, &cost);
        // ct_start, fixed compute, lock, read, compare compute, unlock, ct_end
        assert_eq!(actions.len(), 7);
        assert_eq!(
            actions[0],
            Action::CtStart(dir.object_id(), o2_runtime::AccessKind::Write)
        );
        assert_eq!(actions[6], Action::CtEnd);
        match actions[3] {
            Action::Read { addr, len } => {
                assert_eq!(addr, dir.sim_addr);
                assert_eq!(len, 10 * 32);
            }
            ref other => panic!("expected read, got {other:?}"),
        }
        match actions[4] {
            Action::Compute(c) => assert_eq!(c, 10 * cost.compare_cycles_per_entry),
            ref other => panic!("expected compute, got {other:?}"),
        }
    }

    #[test]
    fn kind_aware_lookup_changes_only_the_annotation() {
        let v = mapped_volume();
        let dir = v.directory(0).unwrap();
        let cost = LookupCost::default();
        let write = lookup_actions(dir, 3, 9, &cost);
        let read = lookup_actions_kind(dir, 3, 9, &cost, AccessKind::Read);
        assert_eq!(read[0], Action::CtStart(dir.object_id(), AccessKind::Read));
        // Everything after the ct_start is identical to the write form.
        assert_eq!(read[1..], write[1..]);
    }

    #[test]
    fn unannotated_actions_have_no_ct_markers() {
        let v = mapped_volume();
        let dir = v.directory(1).unwrap();
        let actions = lookup_actions_unannotated(dir, 0, 5, &LookupCost::default());
        assert!(actions.iter().all(|a| !a.is_annotation()));
        assert_eq!(actions.len(), 5);
    }

    #[test]
    fn entry_index_is_clamped_to_the_directory() {
        let v = mapped_volume();
        let dir = v.directory(0).unwrap();
        let actions = lookup_actions(dir, 0, 10_000, &LookupCost::default());
        match actions[3] {
            Action::Read { len, .. } => assert_eq!(len, 100 * 32),
            ref other => panic!("expected read, got {other:?}"),
        }
    }

    #[test]
    fn resolve_checks_the_real_image() {
        let v = mapped_volume();
        let op = resolve(&v, 1, &synthetic_name(42)).unwrap().unwrap();
        assert_eq!(op.entry_index, 42);
        assert_eq!(op.entries_examined, 43);
        assert_eq!(op.dir_index, 1);
        assert!(resolve(&v, 1, "NOPE.TXT").unwrap().is_none());
        assert!(resolve(&v, 9, "X").is_err());
    }

    #[test]
    fn descriptor_reflects_the_directory() {
        let v = mapped_volume();
        let dir = v.directory(0).unwrap();
        let d = directory_descriptor(dir, 7);
        assert_eq!(d.id, dir.object_id());
        assert_eq!(d.size, dir.byte_len as u64);
        assert_eq!(d.lock, Some(7));
        assert!(d.read_mostly);
    }
}
