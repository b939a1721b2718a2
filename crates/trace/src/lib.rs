//! First-party runtime telemetry for the Hermes workspace.
//!
//! The serving paths (`Engine`, `hermes-pool`, the retrievers) emit
//! *events* — span begin/end pairs, pre-timed complete spans, and
//! counter samples — into **lock-free per-thread ring buffers**. A
//! drain ([`snapshot`]) collects every thread's events into a
//! [`TraceSnapshot`], from which the analysis side derives per-span
//! log2 latency histograms ([`hist::LogHistogram`]), counter summaries,
//! and a Chrome trace-event JSON ([`export::to_chrome_json`]) loadable
//! in Perfetto or `chrome://tracing`.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled cost ≈ one branch.** Every public recording entry point
//!    starts with a single `Relaxed` atomic load ([`is_enabled`]); when
//!    telemetry is off (the default) nothing else runs — no clock read,
//!    no buffer touch, no allocation. The repo benchmark's `trace.*`
//!    probes record the residual cost.
//! 2. **No locks on the hot path.** Each thread owns a single-producer
//!    ring; the producer publishes with a release store on the head
//!    index, the (registry-serialized) drainer acknowledges with a
//!    release store on the tail. A full ring drops new events and counts
//!    them ([`TraceSnapshot::dropped`]) rather than blocking or growing.
//! 3. **Deterministic under test.** Timestamps flow through an
//!    injectable [`clock::Clock`]; installing a [`clock::TestClock`]
//!    makes span durations exact constants.
//! 4. **Zero dependencies**, per the workspace hermeticity policy: std
//!    atomics only, plus `hermes-math` for the histogram bucket rule.
//!
//! # Span nesting
//!
//! Span guards are `!Send` and close in drop order, so begin/end events
//! on one thread form a well-nested stack — exactly the Chrome trace
//! format's `B`/`E` semantics. Work fanned out on `hermes-pool` records
//! on the worker's own ring (its own `tid`); nested fan-outs that the
//! pool runs inline simply nest their spans on the caller's thread.
//!
//! # Examples
//!
//! ```
//! use hermes_trace as trace;
//!
//! trace::clear();
//! trace::enable();
//! {
//!     let mut span = trace::span("work");
//!     span.arg("items", 3);
//!     trace::counter("items_done", 3);
//! } // span end recorded here
//! trace::disable();
//!
//! let snap = trace::snapshot();
//! let spans = snap.spans().unwrap();
//! assert!(spans.iter().any(|s| s.name == "work"));
//! assert_eq!(snap.counters()["items_done"].sum, 3);
//! ```

pub mod clock;
pub mod export;
pub mod hist;
pub mod json;
pub mod names;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hist::LogHistogram;

/// Maximum key/value argument pairs one event can carry.
pub const MAX_ARGS: usize = 4;

/// Events one thread can buffer before new ones are dropped (and
/// counted). 8192 events × ~120 B ≈ 1 MB per recording thread.
pub const RING_CAPACITY: usize = 8192;

/// One `name = value` annotation on an event (scanned codes, cluster
/// ids, queue depths). Static names keep recording allocation-free.
pub type Arg = (&'static str, u64);

/// A fixed-capacity, copyable argument list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArgSet {
    len: u8,
    items: [Arg; MAX_ARGS],
}

impl ArgSet {
    /// Builds from a slice; excess arguments beyond [`MAX_ARGS`] are
    /// silently dropped (telemetry never fails the instrumented path).
    pub fn from_slice(args: &[Arg]) -> Self {
        let mut set = ArgSet::default();
        for &a in args {
            set.push(a.0, a.1);
        }
        set
    }

    /// Appends one argument (dropped if full).
    pub fn push(&mut self, key: &'static str, value: u64) {
        if (self.len as usize) < MAX_ARGS {
            self.items[self.len as usize] = (key, value);
            self.len += 1;
        }
    }

    /// The recorded arguments.
    pub fn as_slice(&self) -> &[Arg] {
        &self.items[..self.len as usize]
    }

    /// Looks up an argument by key.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.as_slice()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

/// What one event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`). Closed by the next matching [`EventKind::End`]
    /// on the same thread.
    Begin,
    /// The innermost open span on this thread closed (`ph: "E"`).
    End,
    /// A pre-timed span (`ph: "X"`); `value` is its duration in ns. Used
    /// where begin/end guards can't live on the stack (pool idle time).
    Complete,
    /// A counter sample (`ph: "C"`); `value` is the sampled amount.
    Counter,
}

/// One telemetry event, as stored in the ring: fixed-size, `Copy`,
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event type.
    pub kind: EventKind,
    /// Span or counter name (static so recording never allocates).
    pub name: &'static str,
    /// Timestamp from the global [`clock::Clock`], ns.
    pub ts_ns: u64,
    /// Duration (`Complete`) or sampled amount (`Counter`); 0 for spans.
    pub value: u64,
    /// Recording thread, as assigned at ring registration (1-based).
    pub tid: u32,
    /// Annotations.
    pub args: ArgSet,
}

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is recording. One `Relaxed` load — this is the
/// entire disabled-path cost of every instrumentation site.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording. Spans already begun still record their end events
/// so buffered begin/end pairs stay matched.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-thread rings + registry
// ---------------------------------------------------------------------------

/// A single-producer ring: the owning thread pushes, the (serialized)
/// drainer pops. Slots are `Copy` events behind `UnsafeCell`; the
/// head/tail release-acquire pair orders slot writes against reads.
struct Ring {
    tid: u32,
    thread_name: String,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[std::cell::UnsafeCell<Event>]>,
}

// SAFETY: slot `i` is written only by the owner thread while
// `head - tail < capacity` guarantees the drainer is not reading it, and
// read only by the drainer for indices below a head it acquired.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

const DUMMY_EVENT: Event = Event {
    kind: EventKind::Counter,
    name: "",
    ts_ns: 0,
    value: 0,
    tid: 0,
    args: ArgSet {
        len: 0,
        items: [("", 0); MAX_ARGS],
    },
};

impl Ring {
    fn new(tid: u32, thread_name: String) -> Self {
        Ring {
            tid,
            thread_name,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| std::cell::UnsafeCell::new(DUMMY_EVENT))
                .collect(),
        }
    }

    /// Owner-thread push. Never blocks: a full ring drops the event.
    fn push(&self, mut ev: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.tid = self.tid;
        // SAFETY: only the owner writes, and the capacity check above
        // proves the drainer has acknowledged this slot.
        unsafe {
            *self.slots[head % RING_CAPACITY].get() = ev;
        }
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Drainer-side pop of everything published so far. Callers hold the
    /// registry lock, so there is exactly one concurrent drainer.
    fn drain_into(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            // SAFETY: `tail < head` (acquired) means the owner published
            // this slot and will not rewrite it until tail advances.
            out.push(unsafe { *self.slots[tail % RING_CAPACITY].get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

struct Registry {
    rings: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicU32,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(1),
    })
}

thread_local! {
    /// This thread's ring, registered on first recorded event. The Arc
    /// also lives in the registry, so events survive thread exit.
    static LOCAL_RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
}

/// The calling thread's ring, registering it on first use. Leaks one
/// `Arc` clone per recording thread into a `'static` reference — rings
/// are deliberately immortal so a drain never races thread teardown.
fn local_ring() -> &'static Ring {
    LOCAL_RING.with(|cell| {
        if let Some(ring) = cell.get() {
            return ring;
        }
        let reg = registry();
        let tid = reg.next_tid.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        let ring = Arc::new(Ring::new(tid, name));
        reg.rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&ring));
        let leaked: &'static Ring = Box::leak(Box::new(ring));
        cell.set(Some(leaked));
        leaked
    })
}

fn record(ev: Event) {
    local_ring().push(ev);
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// An open span. Records a begin event at creation (when telemetry is
/// enabled) and the matching end event — carrying any [`Span::arg`]
/// annotations — on drop. `!Send`, so begin and end always land on the
/// same thread's ring and nest LIFO.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct Span {
    name: &'static str,
    active: bool,
    args: ArgSet,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Span {
    /// Annotates the span's end event (e.g. work counts known only once
    /// the stage finishes). No-op on an inactive (disabled-at-begin)
    /// span.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.active {
            self.args.push(key, value);
        }
    }

    /// Whether this span recorded a begin event.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // End events are recorded even if telemetry was disabled
        // mid-span, so every buffered Begin stays matched.
        if self.active {
            record(Event {
                kind: EventKind::End,
                name: self.name,
                ts_ns: clock::now_ns(),
                value: 0,
                tid: 0,
                args: self.args,
            });
        }
    }
}

/// Opens a span named `name`. When telemetry is disabled this is a
/// single branch returning an inert guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, &[])
}

/// Opens a span whose begin event carries `args`.
#[inline]
pub fn span_with(name: &'static str, args: &[Arg]) -> Span {
    if !is_enabled() {
        return Span {
            name,
            active: false,
            args: ArgSet::default(),
            _not_send: std::marker::PhantomData,
        };
    }
    record(Event {
        kind: EventKind::Begin,
        name,
        ts_ns: clock::now_ns(),
        value: 0,
        tid: 0,
        args: ArgSet::from_slice(args),
    });
    Span {
        name,
        active: true,
        args: ArgSet::default(),
        _not_send: std::marker::PhantomData,
    }
}

/// Reads the global clock — for callers assembling [`complete`] events
/// around scopes that cannot hold a [`Span`] guard. Prefer gating the
/// read behind [`is_enabled`] so disabled paths never touch the clock.
pub fn now_ns() -> u64 {
    clock::now_ns()
}

/// Records a pre-timed span (`start_ns` + `dur_ns`), for scopes that
/// cannot hold a guard — e.g. pool idle time measured across a condvar
/// wait.
#[inline]
pub fn complete(name: &'static str, start_ns: u64, dur_ns: u64) {
    if !is_enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Complete,
        name,
        ts_ns: start_ns,
        value: dur_ns,
        tid: 0,
        args: ArgSet::default(),
    });
}

/// [`complete`] with annotations on the event — the serving layer uses
/// this to stamp request ids and priority classes onto pre-timed
/// request/batch spans.
#[inline]
pub fn complete_with(name: &'static str, start_ns: u64, dur_ns: u64, args: &[Arg]) {
    if !is_enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Complete,
        name,
        ts_ns: start_ns,
        value: dur_ns,
        tid: 0,
        args: ArgSet::from_slice(args),
    });
}

/// Records one counter sample.
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    record(Event {
        kind: EventKind::Counter,
        name,
        ts_ns: clock::now_ns(),
        value,
        tid: 0,
        args: ArgSet::default(),
    });
}

// ---------------------------------------------------------------------------
// Snapshot / drain
// ---------------------------------------------------------------------------

/// One matched begin/end (or complete) span from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Start timestamp, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Begin-event args followed by end-event args.
    pub args: Vec<Arg>,
}

/// Counter roll-up across a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSummary {
    /// Samples recorded.
    pub samples: u64,
    /// Sum of sampled values (the monotonic-counter reading).
    pub sum: u64,
    /// Largest single sample (the gauge reading, e.g. peak queue depth).
    pub max: u64,
}

/// Everything drained from the rings at one point in time, plus the
/// thread table needed to interpret it.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All events, ordered by timestamp (stable within a thread).
    pub events: Vec<Event>,
    /// `tid -> thread name` for every thread that ever recorded.
    pub threads: BTreeMap<u32, String>,
    /// Events lost to full rings since the previous drain.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Builds a snapshot from raw events (no global state) — the hook
    /// for downstream crates' deterministic tests. Thread names default
    /// to `thread-<tid>`.
    pub fn from_events(events: Vec<Event>) -> Self {
        let mut threads = BTreeMap::new();
        for ev in &events {
            threads
                .entry(ev.tid)
                .or_insert_with(|| format!("thread-{}", ev.tid));
        }
        TraceSnapshot {
            events,
            threads,
            dropped: 0,
        }
    }

    /// Matches begin/end pairs (per-thread stacks, Chrome `B`/`E`
    /// semantics) and inlines complete events.
    ///
    /// # Errors
    ///
    /// An end without an open begin, a name mismatch at the top of a
    /// thread's stack, or a begin left open all return a description of
    /// the first violation — the property the trace validation test
    /// pins.
    pub fn spans(&self) -> Result<Vec<SpanRecord>, String> {
        let mut stacks: BTreeMap<u32, Vec<(&'static str, u64, ArgSet)>> = BTreeMap::new();
        let mut spans = Vec::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Begin => {
                    stacks
                        .entry(ev.tid)
                        .or_default()
                        .push((ev.name, ev.ts_ns, ev.args));
                }
                EventKind::End => {
                    let stack = stacks.entry(ev.tid).or_default();
                    let Some((name, start_ns, begin_args)) = stack.pop() else {
                        return Err(format!(
                            "end event `{}` on tid {} with no open span",
                            ev.name, ev.tid
                        ));
                    };
                    if name != ev.name {
                        return Err(format!(
                            "span mismatch on tid {}: begin `{name}` closed by end `{}`",
                            ev.tid, ev.name
                        ));
                    }
                    let mut args: Vec<Arg> = begin_args.as_slice().to_vec();
                    args.extend_from_slice(ev.args.as_slice());
                    spans.push(SpanRecord {
                        name,
                        tid: ev.tid,
                        start_ns,
                        dur_ns: ev.ts_ns.saturating_sub(start_ns),
                        args,
                    });
                }
                EventKind::Complete => spans.push(SpanRecord {
                    name: ev.name,
                    tid: ev.tid,
                    start_ns: ev.ts_ns,
                    dur_ns: ev.value,
                    args: ev.args.as_slice().to_vec(),
                }),
                EventKind::Counter => {}
            }
        }
        for (tid, stack) in &stacks {
            if let Some((name, _, _)) = stack.last() {
                return Err(format!("span `{name}` on tid {tid} never ended"));
            }
        }
        Ok(spans)
    }

    /// Per-span-name duration histograms (ns), derived from the matched
    /// spans.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::spans`] matching failures.
    pub fn histograms(&self) -> Result<BTreeMap<&'static str, LogHistogram>, String> {
        let mut out: BTreeMap<&'static str, LogHistogram> = BTreeMap::new();
        for span in self.spans()? {
            out.entry(span.name).or_default().record(span.dur_ns);
        }
        Ok(out)
    }

    /// Per-counter-name roll-ups.
    pub fn counters(&self) -> BTreeMap<&'static str, CounterSummary> {
        let mut out: BTreeMap<&'static str, CounterSummary> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Counter {
                let c = out.entry(ev.name).or_default();
                c.samples += 1;
                c.sum += ev.value;
                c.max = c.max.max(ev.value);
            }
        }
        out
    }

    /// Whether the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Drains every thread's ring into a [`TraceSnapshot`]. Typically called
/// with telemetry disabled (or quiescent) so in-flight spans have
/// closed; an open span at drain time surfaces as a
/// [`TraceSnapshot::spans`] error, not a panic.
pub fn snapshot() -> TraceSnapshot {
    let rings = registry()
        .rings
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut events = Vec::new();
    let mut threads = BTreeMap::new();
    let mut dropped = 0u64;
    for ring in rings.iter() {
        ring.drain_into(&mut events);
        threads.insert(ring.tid, ring.thread_name.clone());
        dropped += ring.dropped.swap(0, Ordering::Relaxed);
    }
    // Stable: preserves per-ring (= per-thread) order among equal
    // timestamps, so each thread's event sequence stays intact.
    events.sort_by_key(|e| e.ts_ns);
    TraceSnapshot {
        events,
        threads,
        dropped,
    }
}

/// Drops all buffered events and resets drop counters. Test isolation
/// helper; also useful before a measured run to shed warmup events.
pub fn clear() {
    let _ = snapshot();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use std::sync::MutexGuard;

    /// Global telemetry state (enable flag, rings, clock) is
    /// process-wide; tests that record serialize on this.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fresh(step: u64) -> MutexGuard<'static, ()> {
        let g = guard();
        clear();
        clock::install_clock(Arc::new(TestClock::new(1_000, step)));
        enable();
        g
    }

    fn teardown() {
        disable();
        clock::reset_clock();
        clear();
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = guard();
        clear();
        disable();
        {
            let mut s = span("ghost");
            s.arg("x", 1);
            counter("ghost_counter", 7);
            complete("ghost_complete", 0, 5);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn span_guard_records_matched_pair_with_args() {
        let _g = fresh(10);
        {
            let mut s = span_with("stage", &[("shards", 4)]);
            s.arg("scanned", 123);
        }
        disable();
        let snap = snapshot();
        let spans = snap.spans().expect("matched");
        teardown();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.name, "stage");
        assert_eq!(s.dur_ns, 10); // one clock step between begin and end
        assert!(s.args.contains(&("shards", 4)));
        assert!(s.args.contains(&("scanned", 123)));
    }

    #[test]
    fn nested_spans_match_inner_first() {
        let _g = fresh(1);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
        }
        disable();
        let snap = snapshot();
        let spans = snap.spans().expect("matched");
        teardown();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        // Inner closes first, so it appears first in span order.
        assert_eq!(names, vec!["inner", "outer"]);
        assert!(spans[1].dur_ns > spans[0].dur_ns);
    }

    #[test]
    fn counters_roll_up_sum_and_max() {
        let _g = fresh(1);
        counter("scanned", 10);
        counter("scanned", 30);
        counter("scanned", 20);
        disable();
        let snap = snapshot();
        teardown();
        let c = snap.counters()["scanned"];
        assert_eq!(c.samples, 3);
        assert_eq!(c.sum, 60);
        assert_eq!(c.max, 30);
    }

    #[test]
    fn histograms_use_deterministic_clock_durations() {
        let _g = fresh(100);
        for _ in 0..4 {
            let _s = span("op"); // each span: exactly one 100 ns step
        }
        disable();
        let snap = snapshot();
        teardown();
        let h = &snap.histograms().expect("matched")["op"];
        assert_eq!(h.count(), 4);
        // 100 ns lands in bucket [64,128): every percentile reads 64.
        assert_eq!(h.p50(), 64);
        assert_eq!(h.p99(), 64);
    }

    #[test]
    fn cross_thread_events_carry_distinct_tids() {
        let _g = fresh(1);
        {
            let _main = span("main_work");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span("worker_work");
                });
            });
        }
        disable();
        let snap = snapshot();
        teardown();
        let spans = snap.spans().expect("matched");
        let main_tid = spans.iter().find(|s| s.name == "main_work").unwrap().tid;
        let worker_tid = spans.iter().find(|s| s.name == "worker_work").unwrap().tid;
        assert_ne!(main_tid, worker_tid);
        assert!(snap.threads.contains_key(&main_tid));
        assert!(snap.threads.contains_key(&worker_tid));
    }

    #[test]
    fn unmatched_events_are_reported_not_panicked() {
        let end_only = TraceSnapshot::from_events(vec![Event {
            kind: EventKind::End,
            name: "dangling",
            ts_ns: 5,
            value: 0,
            tid: 1,
            args: ArgSet::default(),
        }]);
        assert!(end_only.spans().unwrap_err().contains("no open span"));

        let begin_only = TraceSnapshot::from_events(vec![Event {
            kind: EventKind::Begin,
            name: "open",
            ts_ns: 5,
            value: 0,
            tid: 1,
            args: ArgSet::default(),
        }]);
        assert!(begin_only.spans().unwrap_err().contains("never ended"));
    }

    #[test]
    fn ring_overflow_drops_and_counts_instead_of_blocking() {
        let _g = fresh(1);
        for _ in 0..(RING_CAPACITY + 100) {
            counter("flood", 1);
        }
        disable();
        let snap = snapshot();
        teardown();
        assert_eq!(snap.events.len(), RING_CAPACITY);
        assert_eq!(snap.dropped, 100);
    }

    #[test]
    fn clear_empties_buffers() {
        let _g = fresh(1);
        counter("x", 1);
        disable();
        clear();
        let snap = snapshot();
        teardown();
        assert!(snap.is_empty());
    }

    #[test]
    fn argset_caps_at_max_args() {
        let mut a = ArgSet::default();
        for i in 0..(MAX_ARGS as u64 + 3) {
            a.push("k", i);
        }
        assert_eq!(a.as_slice().len(), MAX_ARGS);
        assert_eq!(a.get("k"), Some(0));
        assert_eq!(a.get("missing"), None);
    }
}
