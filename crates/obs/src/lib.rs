//! `hermes-obs` — request-scoped observability for the serving stack.
//!
//! The serving layer answers *what* happened (outcomes, counters); this
//! crate answers *why it took that long*, per request. It is built from
//! four pieces, each usable alone:
//!
//! | module | artifact | question it answers |
//! |---|---|---|
//! | [`timeline`] | [`RequestTimeline`] | where did *this* request's time go? |
//! | [`attribution`] | [`Attribution`] | which phase dominates the p99, per class? |
//! | [`recorder`] | [`FlightRecorder`] | show me the actual slowest requests |
//! | [`slo`] | [`SloTracker`] | are we burning the error budget? |
//! | [`registry`] | [`MetricsRegistry`] | one store every aggregate exports into |
//!
//! The registry is the one path from an aggregate to any output: the
//! observer ([`Observer::export`]), the serving layer
//! (`serve::export_serve_report`, `serve::export_cache_stats`) and a
//! trace snapshot ([`fold_trace_counters`] + [`fold_trace_spans`]) each
//! export into it once, under names and help lines declared once in
//! [`hermes_trace::names`]; its text exposition
//! ([`MetricsRegistry::render_text`]) and the CLI's ASCII tables
//! (`hermes_metrics::registry_tables`) are both views of it.
//!
//! [`Observer`] bundles them behind the two entry points the serving
//! loop calls — [`Observer::on_completion`] and [`Observer::on_shed`].
//! The [`RequestId`]s that thread through trace spans are minted by the
//! serving loop at admission (`serve::Server::submit`), not here. Three
//! properties are load-bearing and tested across the workspace:
//!
//! 1. **Balance** — every timeline's phase durations sum exactly to its
//!    measured sojourn ([`RequestTimeline::is_balanced`]); the observer
//!    counts violations instead of panicking.
//! 2. **Non-interference** — serving results are bit-identical with the
//!    observer attached or absent; observation only reads quantities the
//!    serving loop already computes.
//! 3. **Determinism** — seeded runs render byte-identical attribution
//!    tables, flight dumps, and text expositions.

pub mod attribution;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod timeline;

use hermes_trace::names;

pub use attribution::{Attribution, Breakdown, ClassAttribution};
pub use recorder::{parse_dump, DumpSummary, FlightRecorder};
pub use registry::{
    fold_trace_counters, fold_trace_spans, metric_name, parse_text, MetricsRegistry,
    ParsedExposition, Sample, Series,
};
pub use slo::{ClassSlo, SloCounters, SloPolicy, SloTracker};
pub use timeline::{CachePath, Phase, PhaseNs, RequestId, RequestTimeline, ShedCause, PHASES};

/// Configuration of one [`Observer`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Priority-class labels, class-index order (0 = highest priority).
    pub class_labels: Vec<&'static str>,
    /// SLO targets / burn-window policy.
    pub slo: SloPolicy,
    /// Slowest-N capacity of the flight recorder.
    pub flight_capacity: usize,
    /// Reservoir-sample capacity of the flight recorder.
    pub reservoir_capacity: usize,
    /// Seed for the reservoir's coin flips.
    pub seed: u64,
}

impl ObsConfig {
    /// A config for `class_labels` with no latency targets, a 1% budget,
    /// and a 32 + 64 flight recorder seeded from `seed`.
    pub fn new(class_labels: Vec<&'static str>, seed: u64) -> Self {
        let classes = class_labels.len();
        ObsConfig {
            class_labels,
            slo: SloPolicy::new(vec![None; classes]),
            flight_capacity: 32,
            reservoir_capacity: 64,
            seed,
        }
    }

    /// Replaces the SLO policy.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Resizes the flight recorder.
    pub fn with_recorder(mut self, flight: usize, reservoir: usize) -> Self {
        self.flight_capacity = flight;
        self.reservoir_capacity = reservoir;
        self
    }
}

/// The bundled per-server observability state: attribution, flight
/// recording, and SLO accounting behind two calls.
#[derive(Debug, Clone)]
pub struct Observer {
    attribution: Attribution,
    recorder: FlightRecorder,
    slo: SloTracker,
    completed: u64,
    unbalanced: u64,
}

impl Observer {
    /// An observer per `config`.
    pub fn new(config: ObsConfig) -> Self {
        Observer {
            attribution: Attribution::new(&config.class_labels),
            recorder: FlightRecorder::new(
                config.flight_capacity,
                config.reservoir_capacity,
                config.seed,
            ),
            slo: SloTracker::new(&config.class_labels, config.slo),
            completed: 0,
            unbalanced: 0,
        }
    }

    /// Folds one completed request's timeline into every consumer.
    pub fn on_completion(&mut self, tl: &RequestTimeline) {
        self.completed += 1;
        if !tl.is_balanced() {
            self.unbalanced += 1;
        }
        self.attribution.record(tl);
        self.recorder.record(tl);
        self.slo.on_completion(tl);
    }

    /// Folds one shed/expiry in.
    pub fn on_shed(&mut self, class: usize, at_ns: u64, cause: ShedCause) {
        self.slo.on_shed(class, at_ns, cause);
    }

    /// Tail-attribution tables.
    pub fn attribution(&self) -> &Attribution {
        &self.attribution
    }

    /// Flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// SLO accounting.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Completed requests folded in.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Timelines that violated the balance invariant (should be 0; a
    /// nonzero value is a serving-loop bug surfaced, not hidden).
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced
    }

    /// Exports the observer's state into `reg`: per-class sojourn and
    /// per-phase histograms, SLO counters and burn gauges, and the
    /// balance-violation counter.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.set_counter(names::OBS_REQUESTS_COMPLETED, &[], self.completed);
        reg.set_counter(names::OBS_TIMELINES_UNBALANCED, &[], self.unbalanced);
        for class in self.attribution.classes() {
            if class.count() == 0 {
                continue;
            }
            let labels = [("class", class.label())];
            reg.set_histogram(names::SERVE_SOJOURN_NS, &labels, class.sojourn());
            for phase in Phase::ALL {
                reg.set_histogram(
                    names::SERVE_PHASE_NS,
                    &[("class", class.label()), ("phase", phase.label())],
                    class.phase_histogram(phase),
                );
            }
        }
        for (i, class) in self.slo.classes().iter().enumerate() {
            let labels = [("class", class.label())];
            let c = class.counters();
            for (name, value) in [
                (names::SLO_SERVED, c.served),
                (names::SLO_DEADLINE_HIT, c.deadline_hit),
                (names::SLO_DEADLINE_MISS, c.deadline_miss),
                (names::SLO_SHED_QUEUE_FULL, c.shed_queue_full),
                (names::SLO_EXPIRED, c.expired),
                (names::SLO_SERVED_STALE, c.served_stale),
            ] {
                reg.set_counter(name, &labels, value);
            }
            reg.set_gauge(names::SLO_BURN_RATE, &labels, self.slo.burn_rate(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer() -> Observer {
        Observer::new(
            ObsConfig::new(vec!["interactive", "batch"], 7)
                .with_slo(SloPolicy::new(vec![Some(100), None]))
                .with_recorder(4, 4),
        )
    }

    fn tl(id: u64, class: usize, arrival: u64, start: u64, finish: u64) -> RequestTimeline {
        let mut svc = PhaseNs::new();
        svc.add(Phase::Deep, finish.saturating_sub(start) / 2);
        RequestTimeline::from_dispatch(
            RequestId(id),
            1,
            class,
            ["interactive", "batch"][class],
            arrival,
            start,
            finish,
            1,
            &svc,
            CachePath::Computed,
            None,
        )
    }

    #[test]
    fn completion_feeds_every_consumer() {
        let mut obs = observer();
        for i in 0..10u64 {
            let t = tl(
                i + 1,
                (i % 2) as usize,
                i * 10,
                i * 10 + 5,
                i * 10 + 5 + 20 * (i + 1),
            );
            obs.on_completion(&t);
        }
        obs.on_shed(0, 500, ShedCause::QueueFull);
        assert_eq!(obs.completed(), 10);
        assert_eq!(obs.unbalanced(), 0);
        assert_eq!(obs.attribution().total(), 10);
        assert_eq!(obs.recorder().seen(), 10);
        assert_eq!(obs.slo().classes()[0].counters().shed_queue_full, 1);
    }

    #[test]
    fn export_renders_parseable_deterministic_exposition() {
        let run = || {
            let mut obs = observer();
            for i in 0..25u64 {
                let t = tl(
                    i + 1,
                    (i % 2) as usize,
                    i * 7,
                    i * 7 + 3,
                    i * 7 + 3 + 40 + i,
                );
                obs.on_completion(&t);
            }
            let mut reg = MetricsRegistry::new();
            obs.export(&mut reg);
            reg.render_text()
        };
        let text = run();
        assert_eq!(text, run(), "seeded export must be byte-identical");
        let parsed = parse_text(&text).unwrap();
        assert!(parsed.metrics >= 5);
        assert!(text.contains("hermes_slo_burn_rate{class=\"interactive\"}"));
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{class=\"interactive\",le="));
    }
}
