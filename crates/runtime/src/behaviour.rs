//! Thread behaviours: the code a thread "runs", expressed as an action
//! stream.

use std::collections::VecDeque;

use crate::action::Action;
use crate::types::{CoreId, Cycles, ThreadId};
use o2_sim::AccessKind;

/// Read-only context handed to a behaviour when it is asked for its next
/// action.
#[derive(Debug, Clone, Copy)]
pub struct BehaviourCtx {
    /// The thread's identifier.
    pub thread: ThreadId,
    /// The core the thread is currently executing on.
    pub core: CoreId,
    /// The thread's home core.
    pub home_core: CoreId,
    /// The executing core's local clock.
    pub now: Cycles,
    /// Operations this thread has completed so far.
    pub ops_completed: u64,
}

/// The code of a thread.
///
/// The engine repeatedly asks for the next [`Action`]; returning
/// [`Action::Exit`] terminates the thread.
pub trait ThreadBehaviour {
    /// Produces the thread's next action.
    fn next_action(&mut self, ctx: &BehaviourCtx) -> Action;
}

/// Generates one *operation* (a batch of actions, typically bracketed by
/// `CtStart`/`CtEnd`) at a time.
///
/// Most workloads are loops around a single operation — exactly the shape
/// of the directory-lookup pseudo-code in Figures 1 and 3 of the paper —
/// so this is the most convenient way to write them. Wrap a generator in
/// [`OpBehaviour`] to obtain a [`ThreadBehaviour`].
pub trait OpGenerator {
    /// Produces the actions of the next operation, or an empty vector to
    /// terminate the thread.
    fn next_op(&mut self, ctx: &BehaviourCtx) -> Vec<Action>;
}

impl OpGenerator for Box<dyn OpGenerator> {
    fn next_op(&mut self, ctx: &BehaviourCtx) -> Vec<Action> {
        (**self).next_op(ctx)
    }
}

/// Adapts an [`OpGenerator`] into a [`ThreadBehaviour`] by buffering one
/// operation at a time.
pub struct OpBehaviour<G> {
    generator: G,
    queue: VecDeque<Action>,
}

impl<G: OpGenerator> OpBehaviour<G> {
    /// Wraps a generator.
    pub fn new(generator: G) -> Self {
        Self {
            generator,
            queue: VecDeque::new(),
        }
    }

    /// Access to the wrapped generator.
    pub fn generator(&self) -> &G {
        &self.generator
    }

    /// Mutable access to the wrapped generator.
    pub fn generator_mut(&mut self) -> &mut G {
        &mut self.generator
    }
}

impl<G: OpGenerator> ThreadBehaviour for OpBehaviour<G> {
    fn next_action(&mut self, ctx: &BehaviourCtx) -> Action {
        if let Some(a) = self.queue.pop_front() {
            return a;
        }
        let op = self.generator.next_op(ctx);
        if op.is_empty() {
            return Action::Exit;
        }
        self.queue = op.into();
        self.queue.pop_front().unwrap_or(Action::Exit)
    }
}

/// A behaviour that plays back a fixed list of actions and then exits.
/// Useful in tests.
#[derive(Debug, Clone)]
pub struct FixedBehaviour {
    actions: VecDeque<Action>,
}

impl FixedBehaviour {
    /// Creates a behaviour from a list of actions. An `Exit` is appended
    /// automatically if absent.
    pub fn new(actions: Vec<Action>) -> Self {
        let mut actions: VecDeque<Action> = actions.into();
        if actions.back() != Some(&Action::Exit) {
            actions.push_back(Action::Exit);
        }
        Self { actions }
    }
}

impl ThreadBehaviour for FixedBehaviour {
    fn next_action(&mut self, _ctx: &BehaviourCtx) -> Action {
        self.actions.pop_front().unwrap_or(Action::Exit)
    }
}

/// A behaviour that repeats a fixed operation a given number of times
/// (or forever when constructed with `None`). Useful in tests and
/// micro-benchmarks.
#[derive(Debug, Clone)]
pub struct RepeatBehaviour {
    op: Vec<Action>,
    remaining: Option<u64>,
    /// Replay position within `op`; starting past the end forces the
    /// repetition bookkeeping on the first call. Index replay keeps this
    /// allocation-free — it sits on the engine's hottest path (a
    /// compute+yield thread re-enters it every other action).
    pos: usize,
}

impl RepeatBehaviour {
    /// Repeats `op` `times` times (forever if `None`).
    pub fn new(op: Vec<Action>, times: Option<u64>) -> Self {
        let pos = op.len();
        Self {
            op,
            remaining: times,
            pos,
        }
    }
}

impl ThreadBehaviour for RepeatBehaviour {
    fn next_action(&mut self, _ctx: &BehaviourCtx) -> Action {
        if let Some(&a) = self.op.get(self.pos) {
            self.pos += 1;
            return a;
        }
        match self.remaining {
            Some(0) => return Action::Exit,
            Some(ref mut n) => *n -= 1,
            None => {}
        }
        if self.op.is_empty() {
            return Action::Exit;
        }
        self.pos = 1;
        self.op[0]
    }
}

/// Builder for the action list of one annotated operation, mirroring the
/// `ct_start` / body / `ct_end` structure of Figure 3.
#[derive(Debug, Default, Clone)]
pub struct OpBuilder {
    actions: Vec<Action>,
}

impl OpBuilder {
    /// Starts an empty operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an operation annotated with `ct_start(object)`.
    ///
    /// The operation is declared as a *write* (the conservative default).
    /// Use [`OpBuilder::annotated_read`] or [`OpBuilder::annotated_kind`]
    /// for read-only operations.
    pub fn annotated(object: u64) -> Self {
        Self::annotated_kind(object, AccessKind::Write)
    }

    /// Starts a read-only operation annotated with `ct_start(object)`.
    pub fn annotated_read(object: u64) -> Self {
        Self::annotated_kind(object, AccessKind::Read)
    }

    /// Starts an operation annotated with `ct_start(object)` and an
    /// explicit access kind.
    pub fn annotated_kind(object: u64, kind: AccessKind) -> Self {
        Self {
            actions: vec![Action::CtStart(object, kind)],
        }
    }

    /// Appends a lock acquisition.
    pub fn lock(mut self, lock: usize) -> Self {
        self.actions.push(Action::Lock(lock));
        self
    }

    /// Appends a lock release.
    pub fn unlock(mut self, lock: usize) -> Self {
        self.actions.push(Action::Unlock(lock));
        self
    }

    /// Appends a read.
    pub fn read(mut self, addr: u64, len: u64) -> Self {
        self.actions.push(Action::Read { addr, len });
        self
    }

    /// Appends a write.
    pub fn write(mut self, addr: u64, len: u64) -> Self {
        self.actions.push(Action::Write { addr, len });
        self
    }

    /// Appends pure computation.
    pub fn compute(mut self, cycles: u64) -> Self {
        self.actions.push(Action::Compute(cycles));
        self
    }

    /// Appends an arbitrary action.
    pub fn push(mut self, action: Action) -> Self {
        self.actions.push(action);
        self
    }

    /// Finishes the operation with `ct_end()` (only if it was annotated).
    pub fn finish(mut self) -> Vec<Action> {
        if matches!(self.actions.first(), Some(Action::CtStart(..))) {
            self.actions.push(Action::CtEnd);
        }
        self.actions
    }

    /// Returns the actions without appending `ct_end`.
    pub fn build(self) -> Vec<Action> {
        self.actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BehaviourCtx {
        BehaviourCtx {
            thread: 0,
            core: 0,
            home_core: 0,
            now: 0,
            ops_completed: 0,
        }
    }

    #[test]
    fn fixed_behaviour_appends_exit() {
        let mut b = FixedBehaviour::new(vec![Action::Compute(5)]);
        assert_eq!(b.next_action(&ctx()), Action::Compute(5));
        assert_eq!(b.next_action(&ctx()), Action::Exit);
        assert_eq!(b.next_action(&ctx()), Action::Exit);
    }

    #[test]
    fn repeat_behaviour_counts_repetitions() {
        let mut b = RepeatBehaviour::new(vec![Action::Compute(1), Action::Yield], Some(2));
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(b.next_action(&ctx()));
        }
        assert_eq!(
            seen,
            vec![
                Action::Compute(1),
                Action::Yield,
                Action::Compute(1),
                Action::Yield,
                Action::Exit,
                Action::Exit
            ]
        );
    }

    #[test]
    fn repeat_behaviour_with_empty_op_exits() {
        let mut b = RepeatBehaviour::new(vec![], Some(5));
        assert_eq!(b.next_action(&ctx()), Action::Exit);
    }

    #[test]
    fn op_builder_brackets_annotated_ops() {
        let op = OpBuilder::annotated(0x42)
            .lock(1)
            .read(0x42, 128)
            .compute(10)
            .unlock(1)
            .finish();
        assert_eq!(op.first(), Some(&Action::CtStart(0x42, AccessKind::Write)));
        assert_eq!(op.last(), Some(&Action::CtEnd));
        assert_eq!(op.len(), 6);
    }

    #[test]
    fn op_builder_read_annotation_carries_the_kind() {
        let op = OpBuilder::annotated_read(0x42).read(0x42, 128).finish();
        assert_eq!(op.first(), Some(&Action::CtStart(0x42, AccessKind::Read)));
        assert_eq!(op.last(), Some(&Action::CtEnd));
        let op = OpBuilder::annotated_kind(0x43, AccessKind::Write).finish();
        assert_eq!(op.first(), Some(&Action::CtStart(0x43, AccessKind::Write)));
    }

    #[test]
    fn op_builder_unannotated_has_no_ct_end() {
        let op = OpBuilder::new().read(0x100, 64).finish();
        assert_eq!(
            op,
            vec![Action::Read {
                addr: 0x100,
                len: 64
            }]
        );
    }

    struct CountedGen {
        ops: u64,
    }

    impl OpGenerator for CountedGen {
        fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<Action> {
            if self.ops == 0 {
                return vec![];
            }
            self.ops -= 1;
            OpBuilder::annotated(7).compute(3).finish()
        }
    }

    #[test]
    fn op_behaviour_drains_generator_then_exits() {
        let mut b = OpBehaviour::new(CountedGen { ops: 2 });
        let mut actions = Vec::new();
        loop {
            let a = b.next_action(&ctx());
            actions.push(a);
            if a == Action::Exit {
                break;
            }
        }
        let ct_starts = actions
            .iter()
            .filter(|a| matches!(a, Action::CtStart(..)))
            .count();
        let ct_ends = actions
            .iter()
            .filter(|a| matches!(a, Action::CtEnd))
            .count();
        assert_eq!(ct_starts, 2);
        assert_eq!(ct_ends, 2);
        assert_eq!(actions.last(), Some(&Action::Exit));
    }
}
