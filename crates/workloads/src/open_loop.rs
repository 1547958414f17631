//! Open-loop request arrivals.
//!
//! The closed-loop benchmark threads issue the next operation the moment
//! the previous one completes, so measured "latency" is pure service time
//! and the system can never build a queue. An open-loop workload decouples
//! the two: requests arrive on their own schedule (here a Poisson process
//! — i.i.d. exponential gaps from a seeded generator), and when the system
//! falls behind, the backlog and therefore the *queueing delay* become
//! visible in the latency distribution.
//!
//! [`OpenLoopGen`] wraps any [`OpGenerator`]:
//!
//! * each wrapped operation is stamped with its *arrival* time, drawn from
//!   the arrival process — never re-synchronised to the completion clock,
//!   which is exactly what makes the loop open;
//! * if the arrival is still in the future the operation is prefixed with
//!   an [`Action::IdleUntil`], putting the thread to sleep (releasing the
//!   core) until the request "exists";
//! * if the arrival is already in the past the operation starts
//!   immediately — it was queued, and the time it spent waiting is part of
//!   its latency;
//! * when an operation completes, `arrival → completion` is recorded into
//!   a shared fixed-memory [`LatencyRecorder`] histogram, so the
//!   experiment can report p50/p99/p999 without storing a sample per
//!   request.
//!
//! The wrapper is purely additive: workloads that do not opt in never
//! construct it, and no existing generator changes behaviour.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use o2_metrics::LatencyRecorder;
use o2_runtime::{Action, BehaviourCtx, Cycles, OpGenerator};

/// Wraps a generator with a Poisson arrival process and arrival-stamped
/// latency recording.
pub struct OpenLoopGen<G> {
    inner: G,
    rng: StdRng,
    mean_gap: f64,
    /// Arrival time of the next operation to issue; `None` until the
    /// first call anchors the stream at the thread's start time.
    next_arrival: Option<Cycles>,
    /// Arrival stamp of the operation currently in flight, recorded
    /// against the completion clock on the next call.
    in_flight: Option<Cycles>,
    latency: Rc<RefCell<LatencyRecorder>>,
}

impl<G: OpGenerator> OpenLoopGen<G> {
    /// Wraps `inner` with exponential inter-arrival gaps of
    /// `mean_gap_cycles`, recording arrival→completion latencies into
    /// `latency` (shared, so many threads can feed one distribution).
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_cycles` is not finite and positive.
    pub fn new(
        inner: G,
        mean_gap_cycles: f64,
        seed: u64,
        latency: Rc<RefCell<LatencyRecorder>>,
    ) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles > 0.0,
            "open-loop mean gap must be a positive number of cycles"
        );
        Self {
            inner,
            rng: StdRng::seed_from_u64(seed),
            mean_gap: mean_gap_cycles,
            next_arrival: None,
            in_flight: None,
            latency,
        }
    }

    /// A fresh shared recorder for one experiment's latency distribution.
    pub fn recorder() -> Rc<RefCell<LatencyRecorder>> {
        Rc::default()
    }

    /// The wrapped generator.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Exponential inter-arrival gap, at least one cycle so consecutive
    /// arrivals stay distinct in the integer cycle domain.
    fn draw_gap(&mut self) -> Cycles {
        let u: f64 = self.rng.gen();
        let gap = -(1.0 - u).ln() * self.mean_gap;
        (gap.round() as Cycles).max(1)
    }
}

impl<G: OpGenerator> OpGenerator for OpenLoopGen<G> {
    fn next_op(&mut self, ctx: &BehaviourCtx) -> Vec<Action> {
        // The previous operation completed at `ctx.now`; its latency runs
        // from arrival, so queueing delay is included.
        if let Some(arrived) = self.in_flight.take() {
            self.latency
                .borrow_mut()
                .record(ctx.now.saturating_sub(arrived));
        }
        let arrival = match self.next_arrival {
            Some(a) => a,
            // Anchor the arrival stream at the thread's first activation.
            None => ctx.now + self.draw_gap(),
        };
        let ops = self.inner.next_op(ctx);
        if ops.is_empty() {
            return ops;
        }
        // The next arrival advances from this one, never from `ctx.now`:
        // a slow server does not slow the offered load down.
        self.next_arrival = Some(arrival + self.draw_gap());
        self.in_flight = Some(arrival);
        if arrival > ctx.now {
            let mut with_wait = Vec::with_capacity(ops.len() + 1);
            with_wait.push(Action::IdleUntil(arrival));
            with_wait.extend(ops);
            with_wait
        } else {
            ops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_runtime::OpBuilder;

    /// A trivial inner generator: fixed-cost compute ops on one object.
    struct ComputeGen {
        remaining: u64,
        cost: u64,
    }

    impl OpGenerator for ComputeGen {
        fn next_op(&mut self, _ctx: &BehaviourCtx) -> Vec<Action> {
            if self.remaining == 0 {
                return Vec::new();
            }
            self.remaining -= 1;
            OpBuilder::annotated(0x1000).compute(self.cost).finish()
        }
    }

    fn ctx_at(now: Cycles) -> BehaviourCtx {
        BehaviourCtx {
            thread: 0,
            core: 0,
            home_core: 0,
            now,
            ops_completed: 0,
        }
    }

    #[test]
    fn future_arrivals_sleep_and_backlogged_arrivals_do_not() {
        let rec = OpenLoopGen::<ComputeGen>::recorder();
        let mut g = OpenLoopGen::new(
            ComputeGen {
                remaining: 100,
                cost: 10,
            },
            1_000.0,
            7,
            Rc::clone(&rec),
        );
        // First op: arrival strictly after now=0, so it must sleep first.
        let op = g.next_op(&ctx_at(0));
        let Some(Action::IdleUntil(at)) = op.first() else {
            panic!("expected a leading IdleUntil, got {:?}", op.first());
        };
        assert!(*at > 0);
        // Pretend the server is extremely slow: by `now`, many arrivals
        // are queued, so ops start immediately with no sleep.
        let op = g.next_op(&ctx_at(1_000_000));
        assert!(
            matches!(op.first(), Some(Action::CtStart(..))),
            "backlogged arrival must not sleep"
        );
    }

    #[test]
    fn latency_includes_queueing_delay() {
        let rec = OpenLoopGen::<ComputeGen>::recorder();
        let mut g = OpenLoopGen::new(
            ComputeGen {
                remaining: 100,
                cost: 10,
            },
            100.0,
            7,
            Rc::clone(&rec),
        );
        let _ = g.next_op(&ctx_at(0));
        // The first arrival happened within a few hundred cycles of 0; if
        // completion is only observed much later, the recorded latency
        // carries the whole wait.
        let _ = g.next_op(&ctx_at(50_000));
        let max = rec.borrow().summary().max;
        assert!(
            max > 40_000,
            "queueing delay missing from latency: max {max}"
        );
        assert_eq!(rec.borrow().count(), 1);
    }

    #[test]
    fn arrival_stream_is_deterministic_and_open() {
        let arrivals = |seed| {
            let rec = OpenLoopGen::<ComputeGen>::recorder();
            let mut g = OpenLoopGen::new(
                ComputeGen {
                    remaining: 50,
                    cost: 10,
                },
                500.0,
                seed,
                rec,
            );
            // Completion times do not influence arrivals: feed an
            // arbitrary completion clock and collect the sleep targets.
            (0..50u64)
                .filter_map(|i| match g.next_op(&ctx_at(i)).first() {
                    Some(Action::IdleUntil(at)) => Some(*at),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let a = arrivals(3);
        assert_eq!(a, arrivals(3));
        assert_ne!(a, arrivals(4));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals must advance");
    }

    #[test]
    fn gap_mean_is_close_to_the_configured_mean() {
        let rec = OpenLoopGen::<ComputeGen>::recorder();
        let mut g = OpenLoopGen::new(
            ComputeGen {
                remaining: 0,
                cost: 0,
            },
            1_000.0,
            11,
            rec,
        );
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| g.draw_gap()).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1_000.0).abs() < 50.0,
            "exponential gap mean off: {mean}"
        );
    }

    #[test]
    fn inner_exhaustion_ends_the_stream() {
        let rec = OpenLoopGen::<ComputeGen>::recorder();
        let mut g = OpenLoopGen::new(
            ComputeGen {
                remaining: 1,
                cost: 10,
            },
            100.0,
            5,
            rec,
        );
        assert!(!g.next_op(&ctx_at(0)).is_empty());
        assert!(g.next_op(&ctx_at(100)).is_empty());
        assert!(g.next_op(&ctx_at(200)).is_empty());
    }
}
