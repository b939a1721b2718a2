//! The canonical registry of telemetry name strings.
//!
//! Every `counter`/`span`/`complete` site in the workspace names its
//! stream with a constant from this module, and every consumer — the
//! `hermes-metrics` trace/cache reports, the `hermes-obs` Prometheus
//! exposition, grep-driven humans — resolves the same constants. A name
//! that exists only as a string literal at a recording site can silently
//! drift from the name a report looks up; a name that exists once here
//! cannot.
//!
//! [`COUNTERS`] additionally pairs each counter name with a help line,
//! which is what `MetricsRegistry::render_text` emits as the metric's
//! `# HELP` text.

// --- Counter streams (EventKind::Counter) ---------------------------------

/// Exact bit-pattern cache hit (one sample per hit).
pub const CACHE_HIT_EXACT: &str = "cache.hit_exact";
/// Near-duplicate semantic cache hit.
pub const CACHE_HIT_SEMANTIC: &str = "cache.hit_semantic";
/// Cache lookup that found nothing servable.
pub const CACHE_MISS: &str = "cache.miss";
/// Entry evicted because its generation version was stale.
pub const CACHE_STALE: &str = "cache.stale";
/// Entry evicted by capacity pressure.
pub const CACHE_EVICT: &str = "cache.evict";
/// Admission-queue depth, sampled after each accepted arrival.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Work-stealing pool: one sample per stolen task.
pub const POOL_STEAL: &str = "pool.steal";
/// Work-stealing pool: remaining shared-cursor depth at steal time.
pub const POOL_QUEUE_DEPTH: &str = "pool.queue_depth";
/// Codes scanned by one index probe.
pub const INDEX_SCANNED_CODES: &str = "index.scanned_codes";

/// Every counter stream in the workspace: `(name, help)`. The single
/// source the text exposition renders from, so a counter recorded under
/// a constant above is always exported and described consistently.
pub const COUNTERS: &[(&str, &str)] = &[
    (CACHE_HIT_EXACT, "Exact bit-pattern cache hits"),
    (CACHE_HIT_SEMANTIC, "Near-duplicate semantic cache hits"),
    (CACHE_MISS, "Cache lookups that found nothing servable"),
    (CACHE_STALE, "Entries evicted as generation-stale"),
    (CACHE_EVICT, "Entries evicted by capacity pressure"),
    (SERVE_QUEUE_DEPTH, "Admission-queue depth samples"),
    (POOL_STEAL, "Pool tasks stolen"),
    (POOL_QUEUE_DEPTH, "Pool shared-cursor depth at steal time"),
    (INDEX_SCANNED_CODES, "Codes scanned per index probe"),
];

// --- Span streams (Begin/End and Complete) --------------------------------

/// One full engine pipeline execution (route ▸ scatter ▸ gather) of a
/// batch; a lone query is a batch of one.
pub const ENGINE_EXECUTE: &str = "engine.execute";
/// Route stage of one batch.
pub const ENGINE_ROUTE: &str = "engine.route";
/// Scatter half of one batch's deep stage: the coarse keys of each
/// distinct cluster, every query's probe counts, one group scan per
/// distinct cluster.
pub const ENGINE_SCATTER: &str = "engine.scatter";
/// Gather half of the deep stage, one per query.
pub const ENGINE_GATHER: &str = "engine.gather";
/// One route-stage sampling probe of a shard.
pub const SHARD_SAMPLE: &str = "shard.sample";
/// One deep search of a shard, serving every query of the batch routed to it.
pub const SHARD_DEEP: &str = "shard.deep";
/// One dispatched serving batch (pre-timed, virtual time).
pub const SERVE_BATCH: &str = "serve.batch";
/// One completed request's sojourn (pre-timed, virtual time).
pub const SERVE_REQUEST: &str = "serve.request";
/// One request turned away (queue full / expired), zero duration.
pub const SERVE_SHED: &str = "serve.shed";
/// One cache-fronted batch through `CachedBackend`.
pub const CACHE_BATCH: &str = "cache.batch";
/// One end-to-end retrieval through the `rag` retriever.
pub const RAG_RETRIEVE: &str = "rag.retrieve";
/// Pool worker idle time across a condvar wait (pre-timed).
pub const POOL_IDLE: &str = "pool.idle";

// --- Common span/event argument keys --------------------------------------

/// The serving-layer request id an event belongs to.
pub const ARG_REQUEST_ID: &str = "request_id";
/// Priority-class index (0 = interactive) of the request.
pub const ARG_CLASS: &str = "class";
/// Requests sharing the dispatched batch.
pub const ARG_BATCH_SIZE: &str = "batch_size";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registry_is_unique_and_matches_constants() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, help) in COUNTERS {
            assert!(seen.insert(*name), "duplicate counter name {name}");
            assert!(!help.is_empty());
        }
        assert!(seen.contains(CACHE_HIT_EXACT));
        assert!(seen.contains(SERVE_QUEUE_DEPTH));
        assert!(seen.contains(POOL_STEAL));
        assert!(seen.contains(INDEX_SCANNED_CODES));
    }

    #[test]
    fn names_are_dotted_lowercase() {
        for (name, _) in COUNTERS {
            assert!(name.contains('.'), "{name} should be namespaced");
            assert_eq!(*name, name.to_lowercase());
        }
    }
}
