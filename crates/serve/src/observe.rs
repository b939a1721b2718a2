//! Glue between the serving loop and `hermes-obs`: canonical observer
//! configuration for the serving priority classes, plus the one exporter
//! of each serving-layer aggregate ([`ServeReport`], [`CacheStats`])
//! into a [`MetricsRegistry`], under names declared in [`names`].
//!
//! The dependency direction is deliberate: `hermes-obs` knows nothing
//! about serving types (it sits next to `hermes-trace` in the layering),
//! so the folding lives here, where both sides are visible.

use hermes_cache::CacheStats;
use hermes_obs::{MetricsRegistry, ObsConfig};
use hermes_trace::names;

use crate::request::Priority;
use crate::server::ServeReport;

/// The canonical [`ObsConfig`] for a serving run: one class per
/// [`Priority`], labelled with [`Priority::label`], recorder seeded from
/// `seed`. Targets default to none; attach them with
/// [`ObsConfig::with_slo`].
pub fn obs_config(seed: u64) -> ObsConfig {
    ObsConfig::new(Priority::ALL.iter().map(|p| p.label()).collect(), seed)
}

/// Folds a [`ServeReport`]'s totals and queueing-delay histogram into
/// `reg`. Per-class sojourns are the observer's to export
/// ([`hermes_obs::Observer::export`]).
pub fn export_serve_report(reg: &mut MetricsRegistry, report: &ServeReport) {
    for (name, value) in [
        (names::SERVE_ADMITTED, report.admitted),
        (names::SERVE_COMPLETED, report.completed),
        (names::SERVE_SHED_FULL, report.shed_full),
        (names::SERVE_EXPIRED, report.expired),
        (names::SERVE_BATCHES, report.batches),
        (names::SERVE_SHARED_VISITS, report.shared_visits),
    ] {
        reg.set_counter(name, &[], value as u64);
    }
    reg.set_gauge(names::SERVE_BUSY_FRACTION, &[], report.busy_fraction());
    reg.set_gauge(names::SERVE_MEAN_BATCH_SIZE, &[], report.mean_batch_size());
    reg.set_histogram(names::SERVE_WAIT_NS, &[], &report.wait);
}

/// Folds [`CacheStats`] counters into `reg` under the canonical
/// [`names`] constants — the names the trace layer's cache streams
/// carry, so a scrape and a trace snapshot can never disagree on what a
/// hit is called.
pub fn export_cache_stats(reg: &mut MetricsRegistry, stats: &CacheStats) {
    for (name, value) in [
        (names::CACHE_HIT_EXACT, stats.exact_hits),
        (names::CACHE_HIT_SEMANTIC, stats.semantic_hits),
        (names::CACHE_MISS, stats.misses),
        (names::CACHE_STALE, stats.stale),
        (names::CACHE_EVICT, stats.evictions),
        (names::CACHE_INSERTIONS, stats.insertions),
    ] {
        reg.set_counter(name, &[], value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::parse_text;
    use hermes_trace::hist::LogHistogram;

    #[test]
    fn obs_config_mirrors_priority_classes() {
        let cfg = obs_config(9);
        assert_eq!(cfg.class_labels, vec!["interactive", "standard", "batch"]);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn report_and_cache_export_render_parseable() {
        let mut sojourn = LogHistogram::new();
        let mut wait = LogHistogram::new();
        for v in [100u64, 220, 90_000] {
            sojourn.record(v);
            wait.record(v / 10);
        }
        let report = ServeReport {
            admitted: 4,
            completed: 3,
            shed_full: 1,
            expired: 0,
            batches: 2,
            shared_visits: 5,
            sojourn,
            wait,
            busy_ns: 500,
            makespan_ns: 1_000,
        };
        let stats = CacheStats {
            exact_hits: 2,
            semantic_hits: 1,
            misses: 3,
            stale: 0,
            insertions: 3,
            evictions: 0,
        };
        let mut reg = MetricsRegistry::new();
        export_serve_report(&mut reg, &report);
        export_cache_stats(&mut reg, &stats);
        let text = reg.render_text();
        parse_text(&text).unwrap();
        assert!(text.contains("hermes_serve_admitted_total 4"));
        assert!(text.contains("hermes_serve_busy_fraction 0.5"));
        assert!(text.contains("hermes_cache_hit_exact_total 2"));
        assert!(text.contains("hermes_serve_wait_ns_count 3"));
    }
}
