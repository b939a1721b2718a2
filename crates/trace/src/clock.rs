//! Injectable time sources.
//!
//! Every event timestamp in the telemetry layer flows through one
//! process-global [`Clock`]. Production uses [`MonotonicClock`]
//! (`std::time::Instant` against a process-start origin); tests install
//! a [`TestClock`] whose reads advance by a fixed step, which makes span
//! durations — and therefore histogram percentiles — exact constants a
//! fixture can hand-compute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's origin. Successive reads from one
    /// thread must be non-decreasing.
    fn now_ns(&self) -> u64;
}

/// Wall clock: `Instant::elapsed` against an origin captured when the
/// clock is created (for the global default: first telemetry use).
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose zero is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years of process uptime.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic clock for tests: every read returns the previous value
/// plus a fixed step, starting at `start`. Reads are globally ordered
/// (one atomic), so a single-threaded test sees exactly
/// `start, start+step, start+2*step, ...`.
#[derive(Debug)]
pub struct TestClock {
    next: AtomicU64,
    step: u64,
}

impl TestClock {
    /// A clock that yields `start`, `start+step`, `start+2*step`, ...
    pub fn new(start: u64, step: u64) -> Self {
        TestClock {
            next: AtomicU64::new(start),
            step,
        }
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.next.fetch_add(self.step, Ordering::Relaxed)
    }
}

/// The installed override, if any; `None` means the lazily created
/// monotonic default.
fn override_slot() -> &'static RwLock<Option<Arc<dyn Clock>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Clock>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn default_clock() -> &'static MonotonicClock {
    static DEFAULT: OnceLock<MonotonicClock> = OnceLock::new();
    DEFAULT.get_or_init(MonotonicClock::new)
}

/// Replaces the global clock (typically with a [`TestClock`]). Affects
/// every subsequently recorded event, process-wide — callers that need
/// isolation serialize their tests.
pub fn install_clock(clock: Arc<dyn Clock>) {
    *override_slot()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(clock);
}

/// Restores the default monotonic clock.
pub fn reset_clock() {
    *override_slot()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Reads the global clock, taking the override slot's read lock (an
/// uncontended atomic in production). Recording sites call it only with
/// telemetry enabled, but `hermes_trace::now_ns` exposes it to callers
/// that time work unconditionally — the serving dispatch reads it at
/// every phase boundary of every batch — so it is on the request path
/// whether or not tracing is on.
pub(crate) fn now_ns() -> u64 {
    let guard = override_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match guard.as_ref() {
        Some(clock) => clock.now_ns(),
        None => default_clock().now_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn test_clock_steps_deterministically() {
        let c = TestClock::new(100, 7);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.now_ns(), 107);
        assert_eq!(c.now_ns(), 114);
    }
}
