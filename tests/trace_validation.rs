//! End-to-end validation of the runtime telemetry layer: a traced
//! `hierarchical_search` workload must (a) leave search results
//! bit-identical, (b) produce a well-formed event stream — every begin
//! matched by an end on its thread, tids resolving to known threads,
//! span args carrying the engine's scanned-code accounting — and (c)
//! export Chrome trace-event JSON that the in-repo parser accepts with
//! the structure Perfetto requires.
//!
//! Telemetry state (enable flag, rings, clock) is process-global, so
//! every test here serializes on one mutex — this file is its own test
//! process, so nothing else records concurrently.

use std::sync::{Mutex, MutexGuard};

use hermes::prelude::*;
use hermes::trace::{self, json::Json};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn build_store() -> (ClusteredStore, Vec<Vec<f32>>) {
    let corpus = Corpus::generate(CorpusSpec::new(1_200, 24, 6).with_seed(11));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(12));
    let cfg = HermesConfig::new(6)
        .with_seed(13)
        .with_clusters_to_search(3)
        .with_routing(Routing::DocumentSampling);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let qs = queries
        .embeddings()
        .iter_rows()
        .map(<[f32]>::to_vec)
        .collect();
    (store, qs)
}

/// Runs the workload with telemetry off then on, asserts bit-identity,
/// and returns the traced snapshot.
fn traced_run(store: &ClusteredStore, queries: &[Vec<f32>]) -> trace::TraceSnapshot {
    trace::clear();
    let baseline = store.batch_hierarchical_search(queries, 0).unwrap();
    trace::enable();
    let traced = store.batch_hierarchical_search(queries, 0);
    trace::disable();
    let snap = trace::snapshot();
    assert_eq!(
        baseline,
        traced.unwrap(),
        "telemetry must not perturb results"
    );
    snap
}

#[test]
fn traced_search_produces_balanced_spans_with_work_args() {
    let _g = guard();
    let (store, queries) = build_store();
    let outcomes = store.batch_hierarchical_search(&queries, 0).unwrap();
    let snap = traced_run(&store, &queries);
    assert_eq!(snap.dropped, 0, "workload must fit the rings");

    // (b) every begin has a matching end — spans() errors otherwise.
    let spans = snap.spans().expect("balanced begin/end per thread");

    // One engine.execute span per query, args carrying the same work
    // totals SearchStats reported.
    let executes: Vec<_> = spans.iter().filter(|s| s.name == "engine.execute").collect();
    assert_eq!(executes.len(), queries.len());
    let arg = |s: &trace::SpanRecord, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("span {} missing arg {key}", s.name))
    };
    let mut route_args: Vec<u64> = executes.iter().map(|s| arg(s, "route_scanned")).collect();
    let mut deep_args: Vec<u64> = executes.iter().map(|s| arg(s, "deep_scanned")).collect();
    let mut route_stats: Vec<u64> = outcomes
        .iter()
        .map(|o| o.stats.route.scanned_codes as u64)
        .collect();
    let mut deep_stats: Vec<u64> = outcomes
        .iter()
        .map(|o| o.stats.deep.scanned_codes as u64)
        .collect();
    // Queries complete in steal order, so compare as multisets.
    route_args.sort_unstable();
    deep_args.sort_unstable();
    route_stats.sort_unstable();
    deep_stats.sort_unstable();
    assert_eq!(route_args, route_stats, "route_scanned args match stats");
    assert_eq!(deep_args, deep_stats, "deep_scanned args match stats");

    // Per-query stage spans nest under execute: route, scatter, gather.
    for stage in ["engine.route", "engine.scatter", "engine.gather"] {
        assert_eq!(
            spans.iter().filter(|s| s.name == stage).count(),
            queries.len(),
            "{stage}"
        );
    }
    // Every deep-searched shard recorded a span with its cluster id and
    // scan count; their per-query sum is pinned by the multiset check
    // above, so just check presence and arg shape here.
    let deeps: Vec<_> = spans.iter().filter(|s| s.name == "shard.deep").collect();
    assert_eq!(deeps.len(), queries.len() * 3, "3 deep shards per query");
    let clusters = store.num_clusters() as u64;
    for s in &deeps {
        assert!(arg(s, "cluster") < clusters);
        let _ = arg(s, "scanned_codes");
    }
    // Document-sampling routing samples every shard once per query.
    assert_eq!(
        spans.iter().filter(|s| s.name == "shard.sample").count(),
        queries.len() * store.num_clusters()
    );

    // (b) tids map to known threads: the submitting (test) thread plus
    // pool workers. With HERMES_THREADS=1 the pool spawns no workers and
    // everything records on the test thread — so assert resolution, not
    // worker presence.
    for s in &spans {
        let name = snap
            .threads
            .get(&s.tid)
            .unwrap_or_else(|| panic!("span {} on unregistered tid {}", s.name, s.tid));
        assert!(
            name.starts_with("hermes-pool-") || !name.is_empty(),
            "unexpected thread name {name:?}"
        );
    }
    if hermes::pool::Pool::global().threads() > 1 {
        assert!(
            spans.iter().any(|s| snap.threads[&s.tid].starts_with("hermes-pool-")),
            "multi-thread pool must record spans on worker threads"
        );
    }

    // Pool instrumentation rode along with the batch — but only when the
    // global pool actually parallelizes (a width-1 pool, e.g. under
    // HERMES_THREADS=1 or on a single-CPU machine, runs every map inline
    // and records no steals by design; the dedicated-pool test below
    // covers the worker paths regardless of machine width).
    if hermes::pool::Pool::global().threads() > 1 {
        let counters = snap.counters();
        assert!(counters.contains_key("pool.steal"));
        assert!(counters.contains_key("pool.queue_depth"));
    }
}

#[test]
fn pool_workers_record_task_steal_and_idle_events() {
    let _g = guard();
    trace::clear();
    let pool = hermes::pool::Pool::new(4);
    let items: Vec<u64> = (0..64).collect();
    let plain = pool.parallel_map(&items, |x| x * 7);
    trace::enable();
    let traced = pool.parallel_map(&items, |x| x * 7);
    // A second job makes the workers wake from a traced condvar wait, so
    // pool.idle complete-events are recorded too.
    let traced_again = pool.parallel_map(&items, |x| x * 7);
    trace::disable();
    // Join the workers so no ring has an in-flight event at drain time.
    drop(pool);
    assert_eq!(plain, traced, "telemetry must not perturb results");
    assert_eq!(plain, traced_again);

    let snap = trace::snapshot();
    let spans = snap.spans().expect("balanced begin/end per thread");
    let tasks: Vec<_> = spans.iter().filter(|s| s.name == "pool.task").collect();
    assert!(!tasks.is_empty());
    for t in &tasks {
        let args: std::collections::BTreeMap<_, _> = t.args.iter().copied().collect();
        assert!(args.contains_key("start"), "pool.task needs a start arg");
        assert!(args["len"] >= 1, "pool.task grain length");
        assert!(
            snap.threads.contains_key(&t.tid),
            "task on unregistered tid {}",
            t.tid
        );
    }
    assert!(
        spans.iter().any(|s| s.name == "pool.idle"
            && snap.threads[&s.tid].starts_with("hermes-pool-")),
        "workers waking from a traced wait record idle time"
    );
    let counters = snap.counters();
    assert!(counters["pool.steal"].sum >= 1);
    // Queue depth drains to zero by the last claim of each job.
    assert!(counters["pool.queue_depth"].samples >= 1);
    trace::clear();
}

#[test]
fn chrome_export_is_parseable_and_well_formed() {
    let _g = guard();
    let (store, queries) = build_store();
    let snap = traced_run(&store, &queries);
    let text = trace::export::to_chrome_json(&snap);

    let doc = trace::json::parse(&text).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Chrome-format shape: every event has ph/pid/tid/name; B events pair
    // with E events per tid; X events carry dur; M events name threads.
    let mut depth: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut named_tids = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let name = ev.get("name").and_then(Json::as_str).expect("name").to_string();
        assert!(ev.get("pid").is_some(), "pid required");
        match ph {
            "M" => {
                assert_eq!(name, "thread_name");
                named_tids.insert(tid);
            }
            "B" => depth.entry(tid).or_default().push(name),
            "E" => {
                let open = depth.entry(tid).or_default().pop().expect("E without B");
                assert_eq!(open, name, "interleaved B/E on tid {tid}");
            }
            "X" => {
                assert!(ev.get("dur").is_some(), "X event needs dur");
                assert!(ev.get("ts").is_some());
            }
            "C" => {
                assert!(ev.get("args").and_then(|a| a.get("value")).is_some());
            }
            other => panic!("unexpected ph {other:?}"),
        }
        if ph != "M" {
            assert!(named_tids.contains(&tid), "event on unnamed tid {tid}");
        }
    }
    for (tid, open) in depth {
        assert!(open.is_empty(), "tid {tid} left spans open: {open:?}");
    }
}

#[test]
fn deterministic_histograms_under_test_clock() {
    let _g = guard();
    // With a fixed-step clock every clock read advances time by exactly
    // `step`, so span durations are exact integers and the histogram
    // percentiles are hand-computable.
    trace::clear();
    trace::clock::install_clock(std::sync::Arc::new(trace::clock::TestClock::new(0, 100)));
    trace::enable();
    for _ in 0..20 {
        // Begin reads the clock once, end once: every span lasts 100 ns.
        let _s = trace::span("fixed");
    }
    trace::disable();
    let snap = trace::snapshot();
    trace::clock::reset_clock();
    let hists = snap.histograms().unwrap();
    let h = &hists["fixed"];
    assert_eq!(h.count(), 20);
    assert_eq!(h.sum(), 2_000);
    // 100 ns falls in bucket [64, 128): every percentile reads its floor.
    assert_eq!(h.p50(), 64);
    assert_eq!(h.p95(), 64);
    assert_eq!(h.p99(), 64);
    trace::clear();
}

/// `VectorIndex::search` is the bare `search_with_stats` scan with
/// telemetry off and on; on, each call records one
/// `index.scanned_codes` sample.
#[test]
fn index_search_counts_scanned_codes_without_changing_hits() {
    let _g = guard();
    let corpus = Corpus::generate(CorpusSpec::new(500, 16, 4).with_seed(14));
    let index = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);
    let params = SearchParams::new();
    let queries: Vec<&[f32]> = corpus.embeddings().iter_rows().take(8).collect();
    trace::clear();
    for q in &queries {
        let bare = index.search_with_stats(q, 10, &params).unwrap().0;
        assert_eq!(index.search(q, 10, &params).unwrap(), bare, "disabled");
        trace::enable();
        let enabled = index.search(q, 10, &params);
        trace::disable();
        assert_eq!(enabled.unwrap(), bare, "enabled");
    }
    let counters = trace::snapshot().counters();
    let scanned = &counters[trace::names::INDEX_SCANNED_CODES];
    assert_eq!(scanned.samples, queries.len() as u64);
    assert_eq!(scanned.sum, (queries.len() * corpus.len()) as u64);
    trace::clear();
}

#[test]
fn disabled_workload_records_nothing() {
    let _g = guard();
    let (store, queries) = build_store();
    trace::clear();
    trace::disable();
    store.batch_hierarchical_search(&queries, 0).unwrap();
    assert!(trace::snapshot().is_empty());
}
