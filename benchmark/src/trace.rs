//! Spans and timing wrappers, all on the harness's side of the API.
//!
//! A traced rep records a span (`name, start, end, parent`) around each
//! call into a layer, and a per-call aggregate (`count, total_ns`) for
//! calls too short and too many to keep one by one: the policy's
//! `ct_start`/`ct_end`/epoch/register (through [`TimedPolicy`], a
//! delegating `SchedPolicy`) and the generator's `next_op` (through
//! [`TimedGen`]). Spans stay in memory until the run ends. A layer's self
//! time is its span minus what its children cover.
//!
//! Untraced reps build none of this: the policy and the generator are
//! the ones users get, and only the two outer `Instant` reads remain.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use o2_runtime::{
    Action, BehaviourCtx, CoreId, CounterDelta, DenseObjectId, EpochView, ObjectDescriptor,
    OpContext, OpGenerator, Placement, PolicyCommand, PolicyFaultStats, PolicyReplicationStats,
    SchedPolicy,
};

use crate::json;

/// One recorded span. `count == 0` marks an ordinary span; a per-call
/// aggregate has `count` calls totalling `total_ns` and borrows its
/// parent's interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
    pub total_ns: u64,
}

impl Span {
    /// Nanoseconds this span covers.
    pub fn covered_ns(&self) -> u64 {
        if self.count > 0 {
            self.total_ns
        } else {
            self.end_ns - self.start_ns
        }
    }
}

/// The in-memory span store of one traced run.
pub struct Trace {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    /// What one `Instant::now()` … `elapsed()` pair reports around
    /// nothing: the share of every timed call that is the timer itself.
    pub timer_ns: f64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            timer_ns: calibrate_timer_ns(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span open now.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                count: 0,
                total_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Files a per-call aggregate under the span open now, draining
    /// `clock` and taking the timer's own share off every call.
    pub fn calls(&self, name: &str, clock: &CallClock) {
        let (count, raw_ns) = clock.drain();
        if count == 0 {
            return;
        }
        let parent = self.stack.borrow().last().copied();
        let (start_ns, end_ns) = match parent {
            Some(p) => (self.spans.borrow()[p].start_ns, self.now_ns()),
            None => (self.now_ns(), self.now_ns()),
        };
        let timer = (count as f64 * self.timer_ns) as u64;
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            count,
            total_ns: raw_ns.saturating_sub(timer),
        });
    }

    /// `(calls, seconds covered)` summed over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        let spans = self.spans.borrow();
        let hits = spans.iter().filter(|s| s.name == name);
        hits.fold((0, 0.0), |(n, s), span| {
            (n + span.count.max(1), s + span.covered_ns() as f64 / 1e9)
        })
    }

    /// Mean nanoseconds per call of the aggregate `name` (0 if absent).
    pub fn mean_call_ns(&self, name: &str) -> f64 {
        match self.total(name) {
            (0, _) => 0.0,
            (n, s) => s * 1e9 / n as f64,
        }
    }

    /// Self seconds (span minus children) summed by span name, in the
    /// order names first appear.
    pub fn self_seconds(&self) -> Vec<(String, f64)> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(|s| s.covered_ns() as f64).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.covered_ns() as f64;
            }
        }
        let mut by_name: Vec<(String, f64)> = Vec::new();
        for (s, ns) in spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some(entry) => entry.1 += ns / 1e9,
                None => by_name.push((s.name.clone(), ns / 1e9)),
            }
        }
        by_name
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let items: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {parent}, \"count\": {}, \"total_ns\": {}}}",
                    json::string(&s.name),
                    s.start_ns,
                    s.end_ns,
                    s.count,
                    s.total_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", items.join(",\n  "))
    }
}

/// Median reading of an empty `Instant` pair, in nanoseconds.
fn calibrate_timer_ns() -> f64 {
    let mut samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..1_000 {
                std::hint::black_box(Instant::now().elapsed());
            }
            start.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `f`, and records the interval as a span when tracing. This is
/// the one clock both the end-to-end metrics and the trace read, so the
/// traced and untraced paths differ only by the span's bookkeeping.
pub fn timed<R>(trace: Option<&Trace>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = match trace {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// Count and total nanoseconds of one kind of call. Atomics because the
/// native runtime calls the policy from worker threads (under its mutex);
/// `Relaxed` because the values publish nothing but themselves and are
/// read only after the run has joined.
#[derive(Debug, Default)]
pub struct CallClock {
    count: AtomicU64,
    ns: AtomicU64,
}

impl CallClock {
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.count.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        out
    }

    fn drain(&self) -> (u64, u64) {
        (self.count.swap(0, Relaxed), self.ns.swap(0, Relaxed))
    }
}

/// The four timed entry points of a scheduling policy.
#[derive(Debug, Default)]
pub struct PolicyClock {
    pub ct_start: CallClock,
    pub ct_end: CallClock,
    pub epoch: CallClock,
    pub register: CallClock,
}

impl PolicyClock {
    /// Files all four aggregates under the span open now, as
    /// `<layer>.ct_start`, `<layer>.ct_end`, `<layer>.epoch` and
    /// `<layer>.register`.
    pub fn flush(&self, trace: &Trace, layer: &str) {
        trace.calls(&format!("{layer}.ct_start"), &self.ct_start);
        trace.calls(&format!("{layer}.ct_end"), &self.ct_end);
        trace.calls(&format!("{layer}.epoch"), &self.epoch);
        trace.calls(&format!("{layer}.register"), &self.register);
    }
}

/// A `SchedPolicy` that forwards every method to the policy it wraps and
/// times the four that sit on a hot or set-up path.
pub struct TimedPolicy {
    inner: Box<dyn SchedPolicy + Send>,
    clock: Arc<PolicyClock>,
}

impl TimedPolicy {
    pub fn wrap(
        inner: Box<dyn SchedPolicy + Send>,
        clock: &Arc<PolicyClock>,
    ) -> Box<dyn SchedPolicy + Send> {
        Box::new(Self {
            inner,
            clock: Arc::clone(clock),
        })
    }
}

impl SchedPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
        let inner = &mut self.inner;
        self.clock
            .register
            .time(|| inner.register_object(id, object));
    }

    fn reserve_objects(&mut self, n: usize) {
        self.inner.reserve_objects(n);
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        let inner = &mut self.inner;
        self.clock.ct_start.time(|| inner.on_ct_start(ctx))
    }

    fn on_ct_end(&mut self, ctx: &OpContext<'_>, delta: &CounterDelta) {
        let inner = &mut self.inner;
        self.clock.ct_end.time(|| inner.on_ct_end(ctx, delta));
    }

    fn on_epoch(&mut self, view: &EpochView<'_>) -> Vec<PolicyCommand> {
        let inner = &mut self.inner;
        self.clock.epoch.time(|| inner.on_epoch(view))
    }

    fn core_down(&mut self, core: CoreId) {
        self.inner.core_down(core);
    }

    fn core_degraded(&mut self, core: CoreId, slowdown_percent: u32) {
        self.inner.core_degraded(core, slowdown_percent);
    }

    fn fault_stats(&self) -> PolicyFaultStats {
        self.inner.fault_stats()
    }

    fn replication_stats(&self) -> PolicyReplicationStats {
        self.inner.replication_stats()
    }
}

/// One memory action of a generated operation, as the capture keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedAccess {
    pub core: CoreId,
    pub addr: u64,
    pub len: u64,
    pub write: bool,
}

/// Memory actions of the first `limit_ops` operations a set of
/// generators produced, in generation order.
#[derive(Debug)]
pub struct Capture {
    pub accesses: Vec<CapturedAccess>,
    ops_left: usize,
}

impl Capture {
    pub fn new(limit_ops: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self {
            accesses: Vec::new(),
            ops_left: limit_ops,
        }))
    }
}

/// An `OpGenerator` that forwards to the generator it wraps, times
/// `next_op`, and optionally captures the memory actions it returned.
pub struct TimedGen {
    inner: Box<dyn OpGenerator>,
    clock: Arc<CallClock>,
    capture: Option<Rc<RefCell<Capture>>>,
}

impl TimedGen {
    pub fn new(
        inner: Box<dyn OpGenerator>,
        clock: &Arc<CallClock>,
        capture: Option<&Rc<RefCell<Capture>>>,
    ) -> Self {
        Self {
            inner,
            clock: Arc::clone(clock),
            capture: capture.map(Rc::clone),
        }
    }
}

impl OpGenerator for TimedGen {
    fn next_op(&mut self, ctx: &BehaviourCtx) -> Vec<Action> {
        let inner = &mut self.inner;
        let op = self.clock.time(|| inner.next_op(ctx));
        if let Some(capture) = &self.capture {
            let mut capture = capture.borrow_mut();
            if capture.ops_left > 0 {
                capture.ops_left -= 1;
                for action in &op {
                    let (addr, len, write) = match *action {
                        Action::Read { addr, len } => (addr, len, false),
                        Action::Write { addr, len } => (addr, len, true),
                        _ => continue,
                    };
                    capture.accesses.push(CapturedAccess {
                        core: ctx.core,
                        addr,
                        len,
                        write,
                    });
                }
            }
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let trace = Trace::new();
        trace.span("outer", || {
            trace.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            let clock = CallClock::default();
            for _ in 0..10 {
                clock.time(|| std::thread::sleep(std::time::Duration::from_millis(1)));
            }
            trace.calls("calls", &clock);
        });
        let own = trace.self_seconds();
        let get = |name: &str| own.iter().find(|(n, _)| n == name).unwrap().1;
        let (outer_n, outer_s) = trace.total("outer");
        assert_eq!(outer_n, 1);
        assert!(get("inner") >= 0.005);
        assert_eq!(trace.total("calls").0, 10);
        assert!(trace.mean_call_ns("calls") >= 0.9e6);
        // Parts sum to the whole.
        let sum = get("outer") + get("inner") + get("calls");
        assert!((sum - outer_s).abs() < 1e-9, "{sum} vs {outer_s}");
        assert!(get("outer") < 0.005, "outer kept its children's time");
        assert!(json::parse(&trace.to_json()).is_ok());
    }

    #[test]
    fn timer_calibration_is_plausible() {
        let t = Trace::new().timer_ns;
        assert!(t > 0.0 && t < 10_000.0, "{t} ns per Instant pair");
    }
}
