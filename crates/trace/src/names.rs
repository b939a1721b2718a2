//! The canonical registry of telemetry names and their help lines.
//!
//! Every `counter`/`span`/`complete` site in the workspace names its
//! stream with a constant from this module, every aggregate exporter
//! names its metrics with one, and every consumer — the
//! `MetricsRegistry` exposition, the `hermes-metrics` registry tables,
//! grep-driven humans — resolves the same constants. A name that exists
//! only as a string literal at a recording site can silently drift from
//! the name a report looks up; a name that exists once here cannot.
//!
//! Each constant is declared together with its help line, which is its
//! first doc line and its row in [`COUNTERS`], [`SPANS`] or [`METRICS`];
//! [`help`] resolves any exported metric name — declared or derived —
//! to the `# HELP` text `MetricsRegistry::render_text` emits.

use std::borrow::Cow;

/// Declares `name => help` constants and the table pairing them.
macro_rules! declare {
    ($(#[$table_doc:meta])* $table:ident {
        $($(#[$doc:meta])* $id:ident = $name:literal => $help:literal;)*
    }) => {
        $(
            #[doc = $help]
            $(#[$doc])*
            pub const $id: &str = $name;
        )*
        $(#[$table_doc])*
        pub const $table: &[(&str, &str)] = &[$(($id, $help)),*];
    };
}

declare! {
    /// Every counter stream (`EventKind::Counter`): `(name, help)`.
    COUNTERS {
        /// One sample per hit.
        CACHE_HIT_EXACT = "cache.hit_exact" => "Exact bit-pattern cache hits";
        CACHE_HIT_SEMANTIC = "cache.hit_semantic" => "Near-duplicate semantic cache hits";
        CACHE_MISS = "cache.miss" => "Cache lookups that found nothing servable";
        CACHE_STALE = "cache.stale" => "Entries evicted as generation-stale";
        CACHE_EVICT = "cache.evict" => "Entries evicted by capacity pressure";
        /// Sampled after each accepted arrival.
        SERVE_QUEUE_DEPTH = "serve.queue_depth" => "Admission-queue depth samples";
        /// One sample per stolen task.
        POOL_STEAL = "pool.steal" => "Pool tasks stolen";
        POOL_QUEUE_DEPTH = "pool.queue_depth" => "Pool shared-cursor depth at steal time";
        INDEX_SCANNED_CODES = "index.scanned_codes" => "Codes scanned per index probe";
    }
}

declare! {
    /// Every span stream (Begin/End and Complete): `(name, help)`.
    SPANS {
        /// A lone query is a batch of one.
        ENGINE_EXECUTE = "engine.execute"
            => "Engine pipeline executions (route, scatter, gather) of one batch";
        ENGINE_ROUTE = "engine.route" => "Route stage of one batch";
        /// The coarse keys of each distinct cluster, every query's probe
        /// counts, one shard task per distinct cluster and wave.
        ENGINE_SCATTER = "engine.scatter" => "Scatter half of one batch's deep stage";
        ENGINE_GATHER = "engine.gather" => "Gather half of the deep stage, one per query";
        SHARD_SAMPLE = "shard.sample" => "Route-stage sampling scans of a shard, one span per batch";
        /// Scans every query of the batch routed to the shard, back to
        /// back.
        SHARD_DEEP = "shard.deep" => "Deep scans of a shard, one span per batch and wave";
        /// Pre-timed, virtual time.
        SERVE_BATCH = "serve.batch" => "Dispatched serving batches";
        /// Pre-timed, virtual time.
        SERVE_REQUEST = "serve.request" => "Completed request sojourns";
        /// Zero duration.
        SERVE_SHED = "serve.shed" => "Requests turned away (queue full or expired)";
        CACHE_BATCH = "cache.batch" => "Cache-fronted batches through CachedBackend";
        RAG_RETRIEVE = "rag.retrieve" => "End-to-end retrievals through the rag retriever";
        /// One per cursor claim (a grain of one or more items).
        POOL_TASK = "pool.task" => "Pool tasks run";
        /// Pre-timed.
        POOL_IDLE = "pool.idle" => "Pool worker idle time across a condvar wait";
    }
}

declare! {
    /// Every metric an aggregate exporter writes (`serve::export_serve_report`,
    /// `serve::export_cache_stats`, `Observer::export`, the trace folds'
    /// snapshot totals) beyond the counter streams: `(name, help)`.
    METRICS {
        SERVE_ADMITTED = "serve.admitted" => "Requests accepted into the queue";
        SERVE_COMPLETED = "serve.completed" => "Requests completed";
        SERVE_SHED_FULL = "serve.shed_full" => "Requests shed at admission (queue full)";
        SERVE_EXPIRED = "serve.expired" => "Admitted requests expired before dispatch";
        SERVE_BATCHES = "serve.batches" => "Dispatches executed";
        SERVE_SHARED_VISITS = "serve.shared_visits" => "Shard visits saved by coalescing";
        SERVE_BUSY_FRACTION = "serve.busy_fraction" => "Fraction of the run the backend was busy";
        SERVE_MEAN_BATCH_SIZE = "serve.mean_batch_size" => "Mean requests per dispatch";
        SERVE_WAIT_NS = "serve.wait_ns" => "Queueing delay (arrival to dispatch), ns";
        SERVE_SOJOURN_NS = "serve.sojourn_ns" => "Request sojourn (arrival to finish), ns";
        SERVE_PHASE_NS = "serve.phase_ns" => "Per-phase sojourn attribution, ns";
        CACHE_INSERTIONS = "cache.insertions" => "Fresh outcomes inserted into the cache";
        OBS_REQUESTS_COMPLETED = "obs.requests_completed" => "Requests folded into the observer";
        OBS_TIMELINES_UNBALANCED = "obs.timelines_unbalanced"
            => "Timelines violating the balance invariant (0 = healthy)";
        SLO_SERVED = "slo.served" => "Requests completed";
        SLO_DEADLINE_HIT = "slo.deadline_hit" => "Completions within the class target";
        SLO_DEADLINE_MISS = "slo.deadline_miss" => "Completions over the class target";
        SLO_SHED_QUEUE_FULL = "slo.shed_queue_full" => "Requests shed at admission (queue full)";
        SLO_EXPIRED = "slo.expired" => "Requests expired before dispatch";
        SLO_SERVED_STALE = "slo.served_stale" => "Completions answered from the semantic cache";
        SLO_BURN_RATE = "slo.burn_rate" => "Error-budget burn over the sliding window";
        TRACE_EVENTS = "trace.events" => "Events in the folded trace snapshot";
        TRACE_DROPPED = "trace.dropped" => "Events lost to full trace rings before the snapshot";
        TRACE_THREADS = "trace.threads" => "Threads that recorded into the trace rings";
    }
}

// --- Span/event argument keys ------------------------------------------------

/// The serving-layer request id an event belongs to.
pub const ARG_REQUEST_ID: &str = "request_id";
/// Priority-class index (0 = interactive) of the request.
pub const ARG_CLASS: &str = "class";
/// Requests sharing the dispatched batch.
pub const ARG_BATCH_SIZE: &str = "batch_size";
/// The cluster a shard span scanned.
pub const ARG_CLUSTER: &str = "cluster";
/// First item index of a pool task.
pub const ARG_START: &str = "start";

/// Span args that identify rather than measure: the trace span fold
/// sums every other arg into a `span.<name>.<arg>` counter.
pub const IDENTIFIER_ARGS: &[&str] = &[ARG_REQUEST_ID, ARG_CLASS, ARG_CLUSTER, ARG_START];

/// The help line of an exported metric (dotted name): a declared name's
/// own line; for a series derived from a declared stream — a counter
/// stream folded as `counter.<stream>`, `…_sum` and `…_max`, a span
/// stream folded as `span.<stream>_ns` and `span.<stream>.<arg>` — the
/// stream's line and what was derived. `None` for an undeclared name.
pub fn help(metric: &str) -> Option<Cow<'static, str>> {
    let find = |table: &[(&str, &'static str)], name: &str| {
        table.iter().find(|(n, _)| *n == name).map(|&(_, h)| h)
    };
    if let Some(h) = find(METRICS, metric).or_else(|| find(COUNTERS, metric)) {
        return Some(Cow::Borrowed(h));
    }
    if let Some(stream) = metric.strip_prefix("counter.") {
        let (base, derived) = match (stream.strip_suffix("_sum"), stream.strip_suffix("_max")) {
            (Some(base), _) => (base, "sum of samples"),
            (_, Some(base)) => (base, "max sample"),
            _ => (stream, "samples"),
        };
        return find(COUNTERS, base).map(|h| Cow::Owned(format!("{h} ({derived})")));
    }
    let rest = metric.strip_prefix("span.")?;
    SPANS.iter().find_map(|&(span, h)| {
        let tail = rest.strip_prefix(span)?;
        match tail.strip_prefix('.') {
            Some(arg) => Some(Cow::Owned(format!("{h}: sum of {arg} args"))),
            None => (tail == "_ns").then(|| Cow::Owned(format!("{h}: duration, ns"))),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registry_is_unique_and_matches_constants() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, help) in COUNTERS.iter().chain(SPANS).chain(METRICS) {
            assert!(seen.insert(*name), "duplicate name {name}");
            assert!(!help.is_empty());
        }
        assert!(seen.contains(CACHE_HIT_EXACT));
        assert!(seen.contains(SERVE_QUEUE_DEPTH));
        assert!(seen.contains(POOL_STEAL));
        assert!(seen.contains(INDEX_SCANNED_CODES));
    }

    #[test]
    fn names_are_dotted_lowercase() {
        for (name, _) in COUNTERS.iter().chain(SPANS).chain(METRICS) {
            assert!(name.contains('.'), "{name} should be namespaced");
            assert_eq!(*name, name.to_lowercase());
        }
    }

    #[test]
    fn derived_series_take_their_stream_help() {
        for (metric, want) in [
            (SERVE_SOJOURN_NS, "Request sojourn (arrival to finish), ns"),
            (CACHE_MISS, "Cache lookups that found nothing servable"),
            ("counter.pool.steal", "Pool tasks stolen (samples)"),
            (
                "counter.pool.steal_sum",
                "Pool tasks stolen (sum of samples)",
            ),
            ("counter.pool.steal_max", "Pool tasks stolen (max sample)"),
            (
                "span.shard.deep_ns",
                "Deep scans of a shard, one span per batch and wave: duration, ns",
            ),
            (
                "span.shard.deep.scanned_codes",
                "Deep scans of a shard, one span per batch and wave: sum of scanned_codes args",
            ),
        ] {
            assert_eq!(help(metric).as_deref(), Some(want), "{metric}");
        }
        for undeclared in [
            "work",
            "counter.codes",
            "span.work_ns",
            "span.shard.deeper_ns",
        ] {
            assert!(help(undeclared).is_none(), "{undeclared}");
        }
    }
}
