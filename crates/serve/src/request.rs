//! Request, priority and disposition types shared across the serving
//! layer.

use hermes_core::search::SearchOutcome;
use hermes_obs::ShedCause;

/// SLO class of a request. Ordering is scheduling order: the admission
/// queue always dispatches every queued `Interactive` request before any
/// `Standard` one, and `Standard` before `Batch` (FIFO within a class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-critical foreground traffic (tightest SLO).
    Interactive,
    /// Default traffic.
    Standard,
    /// Throughput-oriented background traffic (no latency SLO).
    Batch,
}

/// Number of priority classes — sizes per-class arrays.
pub const PRIORITY_CLASSES: usize = 3;

impl Priority {
    /// All classes, scheduling order (highest first).
    pub const ALL: [Priority; PRIORITY_CLASSES] =
        [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Dense index for per-class arrays: `Interactive = 0`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label for tables and traces.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// One search request as the serving layer sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-assigned identity; sheds and completions refer back to it.
    pub id: u64,
    /// Serving-layer request id, minted by [`Server::submit`] at
    /// admission (dense, starting at 1, unique per server) — the key
    /// every trace event and [`hermes_obs::RequestTimeline`] of this
    /// request carries. `0` until admission. Unlike [`Request::id`],
    /// which the caller chooses and may reuse, `rid` is unambiguous
    /// within one server's run.
    ///
    /// [`Server::submit`]: crate::Server::submit
    pub rid: u64,
    /// The query vector.
    pub query: Vec<f32>,
    /// SLO class.
    pub priority: Priority,
    /// Arrival time on the serving clock, nanoseconds.
    pub arrival_ns: u64,
    /// Latest acceptable *dispatch* time: a request whose batch would
    /// start after this instant is expired, never sent to the engine.
    /// `None` = no deadline.
    pub deadline_ns: Option<u64>,
}

impl Request {
    /// A request with no deadline.
    pub fn new(id: u64, query: Vec<f32>, priority: Priority, arrival_ns: u64) -> Self {
        Request {
            id,
            rid: 0,
            query,
            priority,
            arrival_ns,
            deadline_ns: None,
        }
    }

    /// Sets the dispatch deadline.
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Whether a dispatch starting at `start_ns` would violate the
    /// deadline.
    pub fn expired_at(&self, start_ns: u64) -> bool {
        self.deadline_ns.is_some_and(|d| start_ns > d)
    }
}

/// One shed request — surfaced exactly once, never executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// The rejected request, returned to the caller intact.
    pub request: Request,
    /// Why it was shed.
    pub reason: ShedCause,
    /// When the decision was made: admission time for
    /// [`ShedCause::QueueFull`], the would-be dispatch time for
    /// [`ShedCause::Expired`].
    pub at_ns: u64,
}

/// One finished request with its timing and (for engine backends) its
/// search result.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request as submitted.
    pub request: Request,
    /// When its batch started executing.
    pub start_ns: u64,
    /// When its batch finished (`start_ns + service`).
    pub finish_ns: u64,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// The search result — `Some` for engine backends, `None` for
    /// synthetic queue-model backends that execute nothing.
    pub outcome: Option<SearchOutcome>,
}

impl Completion {
    /// Queueing delay before dispatch, nanoseconds.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns - self.request.arrival_ns
    }

    /// End-to-end latency (wait + service), nanoseconds.
    pub fn sojourn_ns(&self) -> u64 {
        self.finish_ns - self.request.arrival_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_is_scheduling_order() {
        assert!(Priority::Interactive < Priority::Standard);
        assert!(Priority::Standard < Priority::Batch);
        assert_eq!(Priority::Interactive.index(), 0);
        assert_eq!(Priority::Batch.index(), 2);
    }

    #[test]
    fn deadline_is_on_dispatch_start() {
        let r = Request::new(1, vec![0.0], Priority::Standard, 100).with_deadline_ns(150);
        assert!(!r.expired_at(150));
        assert!(r.expired_at(151));
        let no_deadline = Request::new(2, vec![0.0], Priority::Standard, 100);
        assert!(!no_deadline.expired_at(u64::MAX));
    }

    #[test]
    fn completion_timings() {
        let c = Completion {
            request: Request::new(1, vec![0.0], Priority::Standard, 100),
            start_ns: 130,
            finish_ns: 180,
            batch_size: 2,
            outcome: None,
        };
        assert_eq!(c.wait_ns(), 30);
        assert_eq!(c.sojourn_ns(), 80);
    }
}
