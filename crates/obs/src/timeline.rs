//! Per-request causal timelines and the phase taxonomy they decompose
//! into.
//!
//! A [`RequestTimeline`] is the single artifact that explains *why one
//! request was slow*: every instant of its sojourn (arrival → finish, on
//! the serving layer's virtual clock) is attributed to exactly one
//! [`Phase`], so the phase durations always sum back to the measured
//! sojourn — the *balance invariant* that makes per-phase percentile
//! tables trustworthy. Timelines are built by the serving loop at
//! completion time from quantities it already owns (arrival, dispatch
//! start, finish) plus the backend's service-time decomposition, so
//! constructing one allocates nothing and never perturbs execution.

use std::fmt;

/// Identity of one request inside the observability layer, minted by the
/// serving loop at admission (monotonically increasing per server, from
/// 1). `0` means "not yet admitted". Distinct from the caller-assigned
/// `Request::id`, which may collide across load generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Named slice of a request's sojourn. Every nanosecond between arrival
/// and finish lands in exactly one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Arrival → dispatch start: admission-queue wait, including
    /// head-of-line blocking and batch-formation stall.
    QueueWait,
    /// Exact + semantic cache probes (cache-fronted backends only).
    CacheProbe,
    /// Route stage: per-shard sampling (or centroid scoring) + ranking.
    Route,
    /// Deep search: the coalesced per-shard scatter plus the top-k
    /// gather/merge.
    Deep,
    /// Service time not attributed to a finer phase (lock handoff,
    /// result assembly, backends that don't decompose).
    Residual,
}

/// Number of phases — sizes per-phase arrays.
pub const PHASES: usize = 5;

impl Phase {
    /// All phases, timeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::QueueWait,
        Phase::CacheProbe,
        Phase::Route,
        Phase::Deep,
        Phase::Residual,
    ];

    /// Dense index for per-phase arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Snake-case label for tables, dumps and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue_wait",
            Phase::CacheProbe => "cache_probe",
            Phase::Route => "route",
            Phase::Deep => "deep",
            Phase::Residual => "residual",
        }
    }
}

/// Nanoseconds per phase — the backend's service decomposition and the
/// timeline's full sojourn decomposition share this layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseNs(pub [u64; PHASES]);

impl PhaseNs {
    /// All-zero decomposition.
    pub fn new() -> Self {
        PhaseNs::default()
    }

    /// Adds `ns` to `phase`.
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.0[phase.index()] = self.0[phase.index()].saturating_add(ns);
    }

    /// Duration attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.0[phase.index()]
    }

    /// Sum over all phases.
    pub fn total(&self) -> u64 {
        self.0.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }
}

/// How the cache layer answered one request (when one is present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePath {
    /// Served from the exact bit-pattern layer.
    ExactHit,
    /// Served a stored near-duplicate's outcome — the approximate
    /// ("served-stale") path the SLO accounting counts separately.
    SemanticHit,
    /// Computed by the engine (cache miss, or no cache at all).
    Computed,
}

impl CachePath {
    /// Snake-case label for dumps and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            CachePath::ExactHit => "exact_hit",
            CachePath::SemanticHit => "semantic_hit",
            CachePath::Computed => "computed",
        }
    }
}

/// Why a request left the system without completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Turned away at admission: the queue was full.
    QueueFull,
    /// Deadline passed before dispatch (at the door or in the queue).
    Expired,
}

impl ShedCause {
    /// Snake-case label for dumps and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::QueueFull => "queue_full",
            ShedCause::Expired => "expired",
        }
    }
}

/// The complete observable life of one completed request: identity,
/// class, the virtual-time instants of its lifecycle events, and the
/// balanced phase decomposition of its sojourn.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTimeline {
    /// Observability id minted at admission.
    pub id: RequestId,
    /// Caller-assigned request id (for joining against completions).
    pub caller_id: u64,
    /// Priority-class index (0 = highest).
    pub class: usize,
    /// Priority-class label.
    pub class_label: &'static str,
    /// Arrival on the serving clock, ns.
    pub arrival_ns: u64,
    /// Dispatch start, ns.
    pub start_ns: u64,
    /// Completion, ns.
    pub finish_ns: u64,
    /// Requests sharing the dispatched batch.
    pub batch_size: usize,
    /// How the cache layer answered, when one was present.
    pub cache: CachePath,
    /// Dispatch deadline the request carried, if any.
    pub deadline_ns: Option<u64>,
    /// Balanced sojourn decomposition: `phases.total() == sojourn_ns()`.
    pub phases: PhaseNs,
}

impl RequestTimeline {
    /// Builds a balanced timeline for a request dispatched at `start_ns`
    /// and finished at `finish_ns`, given the backend's decomposition of
    /// the batch's service time (`service_phases`; its `QueueWait` and
    /// `Residual` slots are ignored).
    ///
    /// Balance is enforced by construction: queue wait is
    /// `start − arrival`, the named service phases are clamped so their
    /// cumulative sum never exceeds the service time, and the remainder
    /// becomes [`Phase::Residual`] — so `phases.total()` equals the
    /// measured sojourn exactly, whatever the backend reported.
    #[allow(clippy::too_many_arguments)]
    pub fn from_dispatch(
        id: RequestId,
        caller_id: u64,
        class: usize,
        class_label: &'static str,
        arrival_ns: u64,
        start_ns: u64,
        finish_ns: u64,
        batch_size: usize,
        service_phases: &PhaseNs,
        cache: CachePath,
        deadline_ns: Option<u64>,
    ) -> Self {
        let service = finish_ns.saturating_sub(start_ns);
        let mut phases = PhaseNs::new();
        phases.add(Phase::QueueWait, start_ns.saturating_sub(arrival_ns));
        let mut attributed = 0u64;
        for phase in [Phase::CacheProbe, Phase::Route, Phase::Deep] {
            let ns = service_phases
                .get(phase)
                .min(service.saturating_sub(attributed));
            phases.add(phase, ns);
            attributed += ns;
        }
        phases.add(Phase::Residual, service - attributed);
        RequestTimeline {
            id,
            caller_id,
            class,
            class_label,
            arrival_ns,
            start_ns,
            finish_ns,
            batch_size,
            cache,
            deadline_ns,
            phases,
        }
    }

    /// End-to-end latency (arrival → finish), ns.
    pub fn sojourn_ns(&self) -> u64 {
        self.finish_ns - self.arrival_ns
    }

    /// Queueing delay (arrival → dispatch), ns.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns
    }

    /// Backend service time its batch charged, ns.
    pub fn service_ns(&self) -> u64 {
        self.finish_ns - self.start_ns
    }

    /// The balance invariant: phase durations sum to the sojourn.
    pub fn is_balanced(&self) -> bool {
        self.phases.total() == self.sojourn_ns()
    }

    /// Whether the completion met `target_ns` (sojourn-based SLO).
    pub fn met_target(&self, target_ns: u64) -> bool {
        self.sojourn_ns() <= target_ns
    }

    /// Renders the timeline as a two-line machine-parseable record — the
    /// flight-recorder dump format
    /// ([`crate::recorder::parse_dump`] reads it back).
    pub fn render(&self) -> String {
        format!(
            "request rid={} caller={} class={} arrival={} start={} finish={} \
             sojourn={} batch={} cache={}\n  phases{}\n",
            self.id.0,
            self.caller_id,
            self.class_label,
            self.arrival_ns,
            self.start_ns,
            self.finish_ns,
            self.sojourn_ns(),
            self.batch_size,
            self.cache.label(),
            Phase::ALL
                .iter()
                .map(|p| format!(" {}={}", p.label(), self.phases.get(*p)))
                .collect::<String>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(arrival: u64, start: u64, finish: u64, svc: PhaseNs) -> RequestTimeline {
        RequestTimeline::from_dispatch(
            RequestId(7),
            3,
            0,
            "interactive",
            arrival,
            start,
            finish,
            2,
            &svc,
            CachePath::Computed,
            None,
        )
    }

    #[test]
    fn balanced_by_construction_with_exact_breakdown() {
        let mut svc = PhaseNs::new();
        svc.add(Phase::Route, 30);
        svc.add(Phase::Deep, 60);
        let tl = timeline(100, 150, 250, svc);
        assert!(tl.is_balanced());
        assert_eq!(tl.phases.get(Phase::QueueWait), 50);
        assert_eq!(tl.phases.get(Phase::Route), 30);
        assert_eq!(tl.phases.get(Phase::Deep), 60);
        assert_eq!(tl.phases.get(Phase::Residual), 10);
        assert_eq!(tl.sojourn_ns(), 150);
    }

    #[test]
    fn balanced_even_when_backend_overreports() {
        // Backend claims more phase time than the service interval: the
        // clamp keeps the timeline balanced.
        let mut svc = PhaseNs::new();
        svc.add(Phase::CacheProbe, 40);
        svc.add(Phase::Route, 500);
        svc.add(Phase::Deep, 500);
        let tl = timeline(0, 10, 110, svc);
        assert!(tl.is_balanced());
        assert_eq!(tl.phases.get(Phase::CacheProbe), 40);
        assert_eq!(tl.phases.get(Phase::Route), 60);
        assert_eq!(tl.phases.get(Phase::Deep), 0);
        assert_eq!(tl.phases.get(Phase::Residual), 0);
    }

    #[test]
    fn zero_service_timeline_is_queue_wait_only() {
        let tl = timeline(5, 25, 25, PhaseNs::new());
        assert!(tl.is_balanced());
        assert_eq!(tl.sojourn_ns(), 20);
        assert_eq!(tl.phases.get(Phase::QueueWait), 20);
    }

    #[test]
    fn render_carries_every_phase() {
        let mut svc = PhaseNs::new();
        svc.add(Phase::Deep, 7);
        let text = timeline(0, 1, 9, svc).render();
        for p in Phase::ALL {
            assert!(text.contains(p.label()), "missing {}", p.label());
        }
        assert!(text.contains("rid=7"));
        assert!(text.contains("sojourn=9"));
    }
}
