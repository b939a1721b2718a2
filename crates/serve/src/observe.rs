//! Glue between the serving loop and `hermes-obs`: canonical observer
//! configuration for the serving priority classes, plus exporters that
//! fold the serving layer's own aggregates ([`ServeReport`],
//! [`CacheStats`]) into a [`MetricsRegistry`] under the same names the
//! observer exports — one scrapeable page for the whole stack.
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

/// Help text for a counter stream, resolved from the canonical
/// [`names::COUNTERS`] registry.
fn help_for(name: &str) -> &'static str {
    names::COUNTERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, h)| *h)
        .unwrap_or("Serving counter")
}

/// Folds a [`ServeReport`]'s totals and latency histograms into `reg`.
/// Per-class sojourn histograms land under the same
/// `serve.sojourn_ns{class=…}` series the observer exports — both are
/// derived from the same completions, so the overlap is consistent by
/// construction.
pub fn export_serve_report(reg: &mut MetricsRegistry, report: &ServeReport) {
    reg.set_counter(
        "serve.admitted",
        "Requests accepted into the queue",
        &[],
        report.admitted as u64,
    );
    reg.set_counter(
        "serve.completed",
        "Requests completed",
        &[],
        report.completed as u64,
    );
    reg.set_counter(
        "serve.shed_full",
        "Requests shed at admission (queue full)",
        &[],
        report.shed_full as u64,
    );
    reg.set_counter(
        "serve.expired",
        "Admitted requests expired before dispatch",
        &[],
        report.expired as u64,
    );
    reg.set_counter(
        "serve.batches",
        "Dispatches executed",
        &[],
        report.batches as u64,
    );
    reg.set_counter(
        "serve.shared_visits",
        "Shard visits saved by coalescing",
        &[],
        report.shared_visits as u64,
    );
    reg.set_gauge(
        "serve.busy_fraction",
        "Fraction of the run the backend was busy",
        &[],
        report.busy_fraction(),
    );
    reg.set_gauge(
        "serve.mean_batch_size",
        "Mean requests per dispatch",
        &[],
        report.mean_batch_size(),
    );
    reg.set_histogram(
        "serve.wait_ns",
        "Queueing delay (arrival to dispatch), ns",
        &[],
        &report.wait,
    );
    for (p, hist) in Priority::ALL.iter().zip(&report.sojourn_by_class) {
        if hist.count() == 0 {
            continue;
        }
        reg.set_histogram(
            "serve.sojourn_ns",
            "Request sojourn (arrival to finish), ns",
            &[("class", p.label())],
            hist,
        );
    }
}

/// Folds [`CacheStats`] counters into `reg` under the canonical
/// [`names`] constants — the same streams the trace layer records, so a
/// scrape and a trace snapshot can never disagree on what a hit is
/// called.
pub fn export_cache_stats(reg: &mut MetricsRegistry, stats: &CacheStats) {
    let pairs: [(&str, u64); 5] = [
        (names::CACHE_HIT_EXACT, stats.exact_hits),
        (names::CACHE_HIT_SEMANTIC, stats.semantic_hits),
        (names::CACHE_MISS, stats.misses),
        (names::CACHE_STALE, stats.stale),
        (names::CACHE_EVICT, stats.evictions),
    ];
    for (name, value) in pairs {
        reg.set_counter(name, help_for(name), &[], value);
    }
    reg.set_counter(
        "cache.insertions",
        "Fresh outcomes inserted into the cache",
        &[],
        stats.insertions,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::parse_text;
    use hermes_trace::hist::LogHistogram;

    #[test]
    fn obs_config_mirrors_priority_classes() {
        let cfg = obs_config(9);
        assert_eq!(
            cfg.class_labels,
            vec!["interactive", "standard", "batch"]
        );
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
        let mut by_class: [LogHistogram; crate::request::PRIORITY_CLASSES] = Default::default();
        by_class[0] = sojourn.clone();
        let report = ServeReport {
            admitted: 4,
            completed: 3,
            shed_full: 1,
            expired: 0,
            batches: 2,
            shared_visits: 5,
            sojourn,
            wait,
            sojourn_by_class: by_class,
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
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{class=\"interactive\",le="));
    }
}
