//! The "instruction set" of a runtime thread.
//!
//! Rust cannot suspend an arbitrary function mid-body without OS threads,
//! so workload threads are expressed as state machines that emit a stream
//! of [`Action`]s. The structure mirrors the paper's programming model
//! directly: compute, memory accesses, per-object locks, and the
//! `ct_start` / `ct_end` annotations that bracket an operation on an
//! object (Figure 3 of the paper).

use crate::types::{Cycles, LockId, ObjectId};
use o2_sim::{AccessKind, Addr};

/// A single step of a thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Execute `cycles` of pure computation (no memory traffic).
    Compute(u64),
    /// Read `len` bytes starting at `addr`.
    Read {
        /// Starting byte address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
    },
    /// Write `len` bytes starting at `addr`.
    Write {
        /// Starting byte address.
        addr: Addr,
        /// Length in bytes.
        len: u64,
    },
    /// Acquire a registered spin lock (retries until it succeeds).
    Lock(LockId),
    /// Release a registered spin lock.
    Unlock(LockId),
    /// `ct_start(object)`: begin an operation on an object, declaring
    /// whether the operation reads or mutates it. The scheduling policy may
    /// migrate the thread to the core caching the object; the access kind
    /// reaches the policy with the operation.
    CtStart(ObjectId, AccessKind),
    /// `ct_end()`: finish the current operation. If the thread migrated,
    /// it becomes ready to run on its home core again.
    CtEnd,
    /// Voluntarily yield the core to another runnable thread.
    Yield,
    /// Sleep until the core's clock reaches the given cycle, releasing the
    /// core to other runnable threads in the meantime. A target at or
    /// before the current clock is a no-op. Open-loop arrival processes
    /// use this to wait for the next request without burning busy cycles.
    IdleUntil(Cycles),
    /// Terminate the thread.
    Exit,
}

impl Action {
    /// Whether this action touches memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Action::Read { .. } | Action::Write { .. })
    }

    /// Whether this action is a scheduling annotation.
    pub fn is_annotation(&self) -> bool {
        matches!(self, Action::CtStart(..) | Action::CtEnd)
    }
}

/// Description of a schedulable object, supplied when the object is
/// registered with the runtime (and forwarded to the scheduling policy).
///
/// The paper's CoreTime learns object identity from the `ct_start`
/// argument and sizes/costs from event counters; the descriptor carries the
/// statically known part (address range) plus optional hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectDescriptor {
    /// The object's identity (its base address, as in the paper).
    pub id: ObjectId,
    /// First byte of the object's data.
    pub addr: Addr,
    /// Size of the object's data in bytes.
    pub size: u64,
    /// Hint: the object is read-mostly. No scheduling policy reads it.
    pub read_mostly: bool,
    /// The spin lock guarding the object, if any.
    pub lock: Option<LockId>,
}

impl ObjectDescriptor {
    /// Creates a descriptor for an object spanning `[addr, addr + size)`.
    pub fn new(id: ObjectId, addr: Addr, size: u64) -> Self {
        Self {
            id,
            addr,
            size,
            read_mostly: false,
            lock: None,
        }
    }

    /// Marks the object as read-mostly.
    pub fn read_mostly(mut self, value: bool) -> Self {
        self.read_mostly = value;
        self
    }

    /// Associates a guarding lock.
    pub fn with_lock(mut self, lock: LockId) -> Self {
        self.lock = Some(lock);
        self
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Addr {
        self.addr + self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(Action::Read { addr: 0, len: 64 }.is_memory());
        assert!(Action::Write { addr: 0, len: 64 }.is_memory());
        assert!(!Action::Compute(10).is_memory());
        assert!(Action::CtStart(1, AccessKind::Write).is_annotation());
        assert!(Action::CtStart(1, AccessKind::Read).is_annotation());
        assert!(Action::CtEnd.is_annotation());
        assert!(!Action::Yield.is_annotation());
    }

    #[test]
    fn descriptor_builder() {
        let d = ObjectDescriptor::new(0x1000, 0x1000, 4096)
            .read_mostly(true)
            .with_lock(3);
        assert_eq!(d.id, 0x1000);
        assert_eq!(d.end(), 0x2000);
        assert!(d.read_mostly);
        assert_eq!(d.lock, Some(3));
    }
}
