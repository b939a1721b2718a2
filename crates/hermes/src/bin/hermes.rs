//! `hermes` — command-line front end for the reproduction.
//!
//! Mirrors the paper artifact's workflow (Appendix A.5): offline index
//! construction, accuracy evaluation and online serving, as subcommands:
//!
//! ```text
//! hermes build  --docs 20000 --dim 64 --topics 10 --clusters 10 --out store.hpgs
//! hermes info   --store store.hpgs
//! hermes search --store store.hpgs --query "what is in the datastore" --k 5
//! hermes eval   --docs 10000 --dim 48 --topics 10 --clusters 10 --queries 40
//! hermes plan   --tokens 100000000000 --batch 128 --stride 16
//! hermes trace  --queries 40 --out trace.json
//! hermes stats  --queries 40
//! ```
//!
//! `trace` and `stats` run a synthetic hierarchical-search workload
//! twice — telemetry off, then on — assert the results are
//! bit-identical, and emit the captured events as Chrome trace-event
//! JSON (Perfetto-loadable) or as ASCII tables. `stats` runs the queries
//! as cluster-coalesced batches of 8; its span durations, counter
//! streams and per-stage scan sums (`span.shard.deep.scanned_codes`,
//! `…rescored_codes`) are the snapshot folded into a `MetricsRegistry`.
//! Every table of counters, gauges and distributions a subcommand
//! prints is `hermes_metrics::registry_tables` over such a registry.
//! The `trace` path re-parses its own output before writing it, so it
//! doubles as the `verify.sh` telemetry smoke test.

use std::collections::HashMap;
use std::process::ExitCode;

use hermes::datagen::scale::format_tokens;
use hermes::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "build" => cmd_build(&opts),
        "info" => cmd_info(&opts),
        "search" => cmd_search(&opts),
        "eval" => cmd_eval(&opts),
        "plan" => cmd_plan(&opts),
        "trace" => cmd_trace(&opts),
        "stats" => cmd_stats(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "report" => cmd_report(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "hermes — Hermes RAG-at-scale reproduction CLI

USAGE:
  hermes build  --out <file> [--docs N] [--dim D] [--topics T]
                [--clusters C] [--deep M] [--seed S]
  hermes info   --store <file>
  hermes search --store <file> --query <text> [--k K]
  hermes eval   [--docs N] [--dim D] [--topics T] [--clusters C]
                [--deep M] [--queries Q] [--seed S]
  hermes plan   --tokens <count> [--batch B] [--stride S] [--nprobe P]
  hermes trace  --out <file> [--docs N] [--dim D] [--topics T]
                [--clusters C] [--deep M] [--queries Q] [--seed S]
                [--threads T]
  hermes stats  [--docs N] [--dim D] [--topics T] [--clusters C]
                [--deep M] [--queries Q] [--seed S] [--threads T]
                [--cache] [--adaptive] [--requests R]
  hermes report [--docs N] [--dim D] [--topics T] [--clusters C]
                [--deep M] [--queries Q] [--seed S] [--threads T]
                [--requests R] [--qps RATE] [--capacity C]
                [--max-batch B] [--slo-us US] [--metrics-path FILE]
                [--recorder-path FILE]
  hermes loadgen [--docs N] [--dim D] [--topics T] [--clusters C]
                [--deep M] [--queries Q] [--seed S] [--threads T]
                [--requests R] [--qps RATE] [--users U] [--think-us US]
                [--capacity C] [--max-batch B] [--slo-us US] [--smoke]
                [--churn]

`stats --cache` replays a Zipf-repeated query stream through the
semantic cache and prints its hit/miss/stale/eviction counters; `--adaptive`
runs per-query adaptive retrieval depth under document-sampling routing
(the depth bands are calibrated on sample scores) and prints the
chosen-depth histogram (the flags compose). Both verify served results against
standalone engine execution before reporting.

`loadgen` and `report` attach a per-request observer and print the
session's metrics: serving totals, per-class sojourn and phase
distributions, deadline hit/miss, shed/expired counts and the SLO burn
rate per class. `report` runs one observed open-loop session and adds
its SLO targets, a tail-latency phase-attribution table, the
flight-recorder dump of the slowest requests, and a Prometheus-style
text exposition of the same metrics (re-parsed before it is written,
so it doubles as the verify.sh obs smoke test);
`--metrics-path`/`--recorder-path` write the artifacts to files.

`loadgen` drives closed and open loops and asserts every served result
bit-identical to standalone engine execution (--smoke shrinks the
workload for CI). `loadgen --churn` instead mutates the
store (inserts/removes) while serving and rebalances it live through
a generation-swapped cell, asserting the incremental store is
bit-identical to a stop-the-world rebalance at every generation
boundary.

Defaults: docs 20000, dim 64, topics 10, clusters 10, deep 3, k 5,
queries 40, seed 42, batch 128, stride 16, nprobe 128, threads 0
(full pool width); serving: requests 200, qps 500, users 8, think-us 0,
capacity 64, max-batch 8, no SLO. Every count (docs, dim, topics,
clusters, deep, k, queries, requests, capacity, max-batch, users, batch,
nprobe) must be at least 1, and --qps a finite rate above 0.";

type Flags = HashMap<String, String>;

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["smoke", "churn", "cache", "adaptive"];

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
        if BOOL_FLAGS.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} is missing a value"))?;
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn get_usize(opts: &Flags, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer, got `{v}`")),
        None => Ok(default),
    }
}

/// A count flag: an integer of at least 1.
fn get_count(opts: &Flags, key: &str, default: usize) -> Result<usize, String> {
    match get_usize(opts, key, default)? {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

/// A rate flag: a finite number above 0.
fn get_rate(opts: &Flags, key: &str, default: f64) -> Result<f64, String> {
    let rate = match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} wants a number, got `{v}`"))?,
        None => default,
    };
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(format!("--{key} must be a finite number above 0, got `{rate}`"))
    }
}

fn get_u64(opts: &Flags, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key} wants an integer, got `{v}`")),
        None => Ok(default),
    }
}

fn require<'a>(opts: &'a Flags, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn build_config(opts: &Flags) -> Result<(CorpusSpec, HermesConfig), String> {
    let docs = get_count(opts, "docs", 20_000)?;
    let dim = get_count(opts, "dim", 64)?;
    let topics = get_count(opts, "topics", 10)?;
    let clusters = get_count(opts, "clusters", 10)?;
    let deep = get_count(opts, "deep", 3)?;
    let k = get_count(opts, "k", 5)?;
    let seed = get_u64(opts, "seed", 42)?;
    let spec = CorpusSpec::new(docs, dim, topics).with_seed(seed);
    let cfg = HermesConfig::new(clusters)
        .with_clusters_to_search(deep)
        .with_k(k)
        .with_seed(seed.wrapping_add(1));
    cfg.validate().map_err(|e| e.to_string())?;
    Ok((spec, cfg))
}

fn cmd_build(opts: &Flags) -> Result<(), String> {
    let out = require(opts, "out")?;
    let (spec, cfg) = build_config(opts)?;
    println!(
        "generating corpus: {} docs, {} dims, {} topics (seed {})",
        spec.num_docs, spec.dim, spec.num_topics, spec.seed
    );
    let scenario = Scenario::new(spec);
    println!("building clustered store ({} clusters)...", cfg.num_clusters);
    let store = scenario.store(&cfg).map_err(|e| e.to_string())?;
    store.save(out).map_err(|e| e.to_string())?;
    println!(
        "saved {} ({} docs, {} clusters, imbalance {:.2}x, {:.1} MB resident)",
        out,
        store.len(),
        store.num_clusters(),
        store.imbalance(),
        store.memory_bytes() as f64 / 1e6,
    );
    Ok(())
}

fn load_store(opts: &Flags) -> Result<ClusteredStore, String> {
    let path = require(opts, "store")?;
    ClusteredStore::load(path).map_err(|e| format!("cannot load `{path}`: {e}"))
}

fn cmd_info(opts: &Flags) -> Result<(), String> {
    let store = load_store(opts)?;
    let cfg = store.config();
    println!(
        "clusters {}  docs {}  imbalance {:.2}x  resident {:.1} MB  generation {}  tombstones {}",
        store.num_clusters(),
        store.len(),
        store.imbalance(),
        store.memory_bytes() as f64 / 1e6,
        store.generation(),
        store.tombstones(),
    );
    println!(
        "config: sample nProbe {}, deep nProbe {}, deep clusters {}, k {}, codec {}, metric {}",
        cfg.sample_nprobe, cfg.deep_nprobe, cfg.clusters_to_search, cfg.k, cfg.codec, cfg.metric
    );
    match &cfg.adaptive {
        Some(a) => println!(
            "adaptive depth: on (clusters {}..{}, deep nProbe {}..{}, entropy weight {}‰)",
            a.min_clusters, a.max_clusters, a.min_deep_nprobe, a.max_deep_nprobe,
            a.entropy_weight_permille
        ),
        None => println!(
            "adaptive depth: off — persisted stores load with fixed knobs; \
             opt in per deployment (`stats --adaptive`, HermesConfig::with_adaptive)"
        ),
    }
    for info in store.cluster_infos() {
        println!(
            "  cluster {:>2}: {:>8} docs  {:>10.2} KB  {:>6} tombstones  drift {:.3}",
            info.cluster,
            info.size,
            info.memory_bytes as f64 / 1e3,
            info.tombstones,
            info.drift,
        );
    }
    Ok(())
}

fn cmd_search(opts: &Flags) -> Result<(), String> {
    let store = load_store(opts)?;
    let query_text = require(opts, "query")?;
    let k = get_count(opts, "k", store.config().k)?;
    let dim = store.split_centroids_mat().cols();
    let query = HashEncoder::new(dim).encode(query_text);
    let out = store.hierarchical_search(&query).map_err(|e| e.to_string())?;
    println!(
        "routed to clusters {:?} (of {:?})",
        out.searched_clusters(), out.ranked_clusters
    );
    for (rank, hit) in out.hits.iter().take(k).enumerate() {
        println!("  {:>2}. doc {:>10}  score {:+.4}", rank + 1, hit.id, hit.score);
    }
    println!(
        "work: {} route + {} deep codes scanned",
        out.sample_cost().scanned_codes,
        out.deep_cost().scanned_codes
    );
    Ok(())
}

fn cmd_eval(opts: &Flags) -> Result<(), String> {
    let (spec, cfg) = build_config(opts)?;
    let num_queries = get_count(opts, "queries", 40)?;
    let scenario = Scenario::new(spec).with_queries(QuerySpec::new(num_queries));
    let truth = scenario.truth(cfg.metric, cfg.k);

    println!(
        "strategy        mean NDCG@{}   codes/query   route share",
        cfg.k
    );
    for kind in [
        RetrieverKind::Monolithic,
        RetrieverKind::NaiveSplit,
        RetrieverKind::CentroidRouted,
        RetrieverKind::Hermes,
    ] {
        let retriever = Retriever::build(kind, scenario.corpus.embeddings(), &cfg)
            .map_err(|e| e.to_string())?;
        let mut ndcg_sum = 0.0;
        let mut cost = CostBreakdown::new();
        for (q, truth) in scenario.queries.iter().zip(&truth) {
            let r = retriever.retrieve(q).map_err(|e| e.to_string())?;
            let ids: Vec<u64> = r.hits.iter().map(|n| n.id).collect();
            ndcg_sum += ndcg_at_k(truth, &ids, cfg.k);
            cost.record(r.route_codes, r.scanned_codes - r.route_codes);
        }
        println!(
            "{:<15} {:>8.3}     {:>10.0}       {:>5.1}%",
            kind.to_string(),
            ndcg_sum / num_queries as f64,
            cost.mean_codes_per_query(),
            cost.route_share() * 100.0
        );
    }
    Ok(())
}

/// Runs the `eval`-shaped synthetic workload twice — telemetry off,
/// then on — asserts bit-identical outcomes, and returns the drained
/// trace snapshot. Shared by `trace` and `stats`: `trace` executes the
/// queries one by one, `stats` (`coalesced`) as the serving layer
/// dispatches them — cluster-coalesced batches of [`STATS_BATCH`] — so
/// its scan-work table shows what the batch's queries shared.
fn run_traced_workload(
    opts: &Flags,
    coalesced: bool,
) -> Result<hermes::trace::TraceSnapshot, String> {
    let (spec, cfg) = build_config(opts)?;
    let num_queries = get_count(opts, "queries", 40)?;
    let threads = get_usize(opts, "threads", 0)?;
    println!(
        "tracing hierarchical search: {} docs, {} clusters, {} queries",
        spec.num_docs, cfg.num_clusters, num_queries
    );
    let scenario = Scenario::new(spec).with_queries(QuerySpec::new(num_queries));
    let store = scenario.store(&cfg).map_err(|e| e.to_string())?;
    let qs = &scenario.queries;
    hermes::trace::clear();
    let baseline = store
        .batch_hierarchical_search(qs, threads)
        .map_err(|e| e.to_string())?;
    hermes::trace::enable();
    let traced = if coalesced {
        let engine = Engine::for_store(&store);
        qs.chunks(STATS_BATCH)
            .map(|batch| engine.execute_coalesced(batch, threads))
            .collect::<Result<Vec<_>, _>>()
            .map(|batches| batches.concat())
    } else {
        store.batch_hierarchical_search(qs, threads)
    };
    hermes::trace::disable();
    let snap = hermes::trace::snapshot();
    if traced.map_err(|e| e.to_string())? != baseline {
        return Err("telemetry perturbed search results (bit-identity violated)".into());
    }
    Ok(snap)
}

/// Queries per coalesced batch of the `stats` workload — the serving
/// layer's default `--max-batch`.
const STATS_BATCH: usize = 8;

fn cmd_trace(opts: &Flags) -> Result<(), String> {
    let out_path = require(opts, "out")?;
    let snap = run_traced_workload(opts, false)?;
    let spans = snap
        .spans()
        .map_err(|e| format!("unbalanced trace: {e}"))?;
    let json_text = hermes::trace::export::to_chrome_json(&snap);
    // Prove the export is loadable before writing it out.
    let doc = hermes::trace::json::parse(&json_text)
        .map_err(|e| format!("exporter emitted invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("exported JSON is missing the traceEvents array")?;
    std::fs::write(out_path, &json_text).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!(
        "wrote {out_path}: {} trace events ({} spans on {} threads, {} dropped)",
        events.len(),
        spans.len(),
        snap.threads.len(),
        snap.dropped
    );
    println!("results bit-identical with telemetry on and off");
    Ok(())
}

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let use_cache = get_bool(opts, "cache");
    let use_adaptive = get_bool(opts, "adaptive");
    if use_cache || use_adaptive {
        return cmd_stats_cached(opts, use_cache, use_adaptive);
    }
    let snap = run_traced_workload(opts, true)?;
    let mut reg = MetricsRegistry::new();
    hermes::obs::fold_trace_counters(&mut reg, &snap);
    hermes::obs::fold_trace_spans(&mut reg, &snap)
        .map_err(|e| format!("unbalanced trace: {e}"))?;
    print_tables("trace", &reg);
    Ok(())
}

/// `stats --cache` / `--adaptive`: replay a Zipf-repeated query stream
/// through the serving backend — cache-fronted and/or depth-adaptive —
/// verify every completion against standalone engine execution, and
/// print the exported cache counters and the chosen-depth histogram.
fn cmd_stats_cached(opts: &Flags, use_cache: bool, use_adaptive: bool) -> Result<(), String> {
    use hermes::serve::{Backend, Request};
    use std::sync::Arc;

    let (spec, mut cfg) = build_config(opts)?;
    let pool_size = get_count(opts, "queries", 40)?;
    let requests = get_count(opts, "requests", 200)?;
    let threads = get_usize(opts, "threads", 0)?;
    if use_adaptive {
        // Fixed knobs become the ceiling; easy queries may pay as little
        // as one cluster at half the deep nProbe. The depth bands are
        // calibrated on sample scores, and under document sampling the
        // searched clusters are exactly the chosen depth.
        cfg = cfg.with_routing(Routing::DocumentSampling).with_adaptive(AdaptiveConfig::new(
            1,
            cfg.clusters_to_search,
            (cfg.deep_nprobe / 2).max(1),
            cfg.deep_nprobe,
        ));
        cfg.validate().map_err(|e| e.to_string())?;
    }
    println!(
        "replaying {requests} Zipf-repeated requests over a {pool_size}-query pool \
         ({} docs, {} clusters, cache {}, adaptive {})",
        spec.num_docs,
        cfg.num_clusters,
        if use_cache { "on" } else { "off" },
        if use_adaptive { "on" } else { "off" },
    );
    let scenario = Scenario::new(spec);
    let pool = scenario.query_set(QuerySpec::new(pool_size).with_seed(spec.seed.wrapping_add(7)));
    let store = scenario.store(&cfg).map_err(|e| e.to_string())?;
    let stream = query_stream(
        &pool,
        StreamSpec::repeated(requests).with_seed(spec.seed.wrapping_add(13)),
    );

    let cell = Arc::new(GenerationCell::new(store));
    let cached =
        use_cache.then(|| CachedBackend::new(cell.clone(), threads, CacheConfig::default()));
    let plain = GenerationBackend::new(cell.clone(), threads);
    let mut outcomes = Vec::with_capacity(stream.len());
    for (batch_no, chunk) in stream.chunks(8).enumerate() {
        let reqs: Vec<Request> = chunk
            .iter()
            .enumerate()
            .map(|(j, q)| {
                Request::new((batch_no * 8 + j) as u64, q.clone(), Priority::Standard, 0)
            })
            .collect();
        let out = match &cached {
            Some(b) => b.run(&reqs),
            None => plain.run(&reqs),
        }
        .map_err(|e| e.to_string())?;
        outcomes.extend(out.outcomes);
    }

    // Every completion either equals standalone recomputation or is an
    // (accounted) semantic hit serving the stored query's outcome.
    let snapshot = cell.current();
    let engine = Engine::for_store(&snapshot);
    let mut histogram = DepthHistogram::new();
    let mut divergent = 0u64;
    for (q, got) in stream.iter().zip(&outcomes) {
        histogram.record(got.searched_clusters().len());
        if *got != engine.execute(q).map_err(|e| e.to_string())? {
            divergent += 1;
        }
    }
    let semantic_hits = cached.as_ref().map_or(0, |b| b.cache_stats().semantic_hits);
    if divergent > semantic_hits {
        return Err(format!(
            "{divergent} completions diverged from standalone execution \
             but only {semantic_hits} semantic hits can explain divergence"
        ));
    }

    if let Some(backend) = &cached {
        let mut reg = MetricsRegistry::new();
        hermes::serve::export_cache_stats(&mut reg, &backend.cache_stats());
        print_tables("semantic cache", &reg);
    }
    if use_adaptive {
        print!("{}", histogram.table("adaptive retrieval depth").render());
    }
    println!(
        "verified {} completions against standalone execution \
         ({divergent} served as semantic near-duplicates)",
        outcomes.len()
    );
    Ok(())
}

fn get_bool(opts: &Flags, key: &str) -> bool {
    opts.get(key).is_some_and(|v| v != "false")
}

/// The serving workload every serving subcommand shares: the common
/// flags' scenario — its store and queries — and the server knobs.
struct ServeSetup {
    store: ClusteredStore,
    queries: Vec<Vec<f32>>,
    threads: usize,
    requests: usize,
    qps: f64,
    server_cfg: hermes::serve::ServerConfig,
    slo_ns: Option<u64>,
    seed: u64,
}

fn build_serve_setup(opts: &Flags) -> Result<ServeSetup, String> {
    let (spec, cfg) = build_config(opts)?;
    let num_queries = get_count(opts, "queries", 40)?;
    let threads = get_usize(opts, "threads", 0)?;
    let requests = get_count(opts, "requests", 200)?;
    let qps = get_rate(opts, "qps", 500.0)?;
    let server_cfg = hermes::serve::ServerConfig {
        queue_capacity: get_count(opts, "capacity", 64)?,
        max_batch: get_count(opts, "max-batch", 8)?,
    };
    let slo_us = get_u64(opts, "slo-us", 0)?;
    let scenario = Scenario::new(spec).with_queries(QuerySpec::new(num_queries));
    let store = scenario.store(&cfg).map_err(|e| e.to_string())?;
    Ok(ServeSetup {
        store,
        queries: scenario.queries,
        threads,
        requests,
        qps,
        server_cfg,
        slo_ns: (slo_us > 0).then_some(slo_us * 1_000),
        seed: spec.seed,
    })
}

/// The priority mix the serving subcommands offer: half standard, a
/// quarter each interactive and batch.
fn priority_mix() -> Vec<hermes::serve::Priority> {
    use hermes::serve::Priority;
    vec![
        Priority::Interactive,
        Priority::Standard,
        Priority::Standard,
        Priority::Batch,
    ]
}

/// One observed serving session's registry: the observer's export and
/// the serve report's — the metrics the serving subcommands print and
/// `--metrics-path` writes.
fn serve_registry(obs: &Observer, report: &hermes::serve::ServeReport) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    obs.export(&mut reg);
    hermes::serve::export_serve_report(&mut reg, report);
    reg
}

fn print_tables(title: &str, reg: &MetricsRegistry) {
    for table in hermes::metrics::registry_tables(reg, title) {
        print!("{}", table.render());
    }
}

/// The observer's per-class SLO targets, `-` for best effort.
fn slo_targets(obs: &Observer) -> String {
    let target = |c: &hermes::obs::ClassSlo| c.target_ns().map_or("-".into(), |t| t.to_string());
    let targets: Vec<String> =
        obs.slo().classes().iter().map(|c| format!("{} {}", c.label(), target(c))).collect();
    format!("slo targets (ns): {}", targets.join(", "))
}

/// The observer the serving subcommands attach: the serving classes, the
/// session's SLO targets, a 64 + 64 flight recorder.
fn serve_observer(setup: &ServeSetup) -> Observer {
    Observer::new(
        hermes::serve::obs_config(setup.seed)
            .with_slo(slo_policy(setup.slo_ns))
            .with_recorder(64, 64),
    )
}

/// Deadline targets the observed subcommands fall back to when
/// `--slo-us` is not given: 50 ms interactive, 500 ms standard,
/// best-effort batch. An explicit `--slo-us` applies to interactive
/// and standard alike, matching the deadline the loadgen spec stamps
/// on every request.
fn slo_policy(slo_ns: Option<u64>) -> SloPolicy {
    match slo_ns {
        Some(t) => SloPolicy::new(vec![Some(t), Some(t), None]),
        None => SloPolicy::new(vec![Some(50_000_000), Some(500_000_000), None]),
    }
}

/// Renders `reg`'s text exposition, re-parses it (shape, histogram
/// monotonicity), and writes it.
fn write_exposition(path: &str, reg: &MetricsRegistry) -> Result<(), String> {
    let text = reg.render_text();
    let parsed = hermes::obs::parse_text(&text)
        .map_err(|e| format!("exposition failed to re-parse: {e}"))?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "wrote {path}: {} metrics, {} samples (re-parsed clean)",
        parsed.metrics, parsed.samples
    );
    Ok(())
}

/// One open-loop session with a request observer attached, every served
/// outcome verified bit-identical to standalone engine execution and
/// every timeline checked for phase balance.
struct ObservedRun {
    load: hermes::serve::LoadReport,
    obs: Observer,
}

fn run_observed_open_loop(setup: &ServeSetup) -> Result<ObservedRun, String> {
    let engine = Engine::for_store(&setup.store);
    let mut server = hermes::serve::Server::new(
        hermes::serve::EngineBackend::new(engine, setup.threads),
        setup.server_cfg,
    )
    .with_observer(serve_observer(setup));
    let mut spec = hermes::serve::OpenLoopSpec::new(setup.requests, setup.qps)
        .with_seed(setup.seed.wrapping_add(11))
        .with_priority_cycle(priority_mix());
    if let Some(slo) = setup.slo_ns {
        spec = spec.with_slo_ns(slo);
    }
    let load = hermes::serve::run_open_loop(&mut server, &setup.queries, &spec)
        .map_err(|e| e.to_string())?;
    let obs = server.take_observer().expect("the observer is attached above");
    for c in &load.completions {
        let standalone = engine.execute(&c.request.query).map_err(|e| e.to_string())?;
        if c.outcome.as_ref() != Some(&standalone) {
            return Err(format!(
                "request {} diverged from standalone engine execution under observation",
                c.request.id
            ));
        }
    }
    if obs.unbalanced() > 0 {
        return Err(format!(
            "{} request timelines violated phase balance",
            obs.unbalanced()
        ));
    }
    Ok(ObservedRun { load, obs })
}

/// `report`: the end-to-end observability roll-up for one observed
/// open-loop session — tail-latency phase attribution, SLO accounting,
/// the flight recorder's slowest requests, and the text exposition —
/// each artifact re-parsed before it is printed or written.
fn cmd_report(opts: &Flags) -> Result<(), String> {
    let setup = build_serve_setup(opts)?;
    println!(
        "observability report: {} requests over a {}-query pool (queue {}, max batch {})",
        setup.requests,
        setup.queries.len(),
        setup.server_cfg.queue_capacity,
        setup.server_cfg.max_batch
    );
    let run = run_observed_open_loop(&setup)?;
    let reg = serve_registry(&run.obs, &run.load.serve);
    println!("{}", slo_targets(&run.obs));
    print_tables("open loop", &reg);
    print!(
        "{}",
        hermes::metrics::phase_breakdown_table(run.obs.attribution()).render()
    );

    // Flight dump: the parser re-checks every record's balance invariant.
    let dump = run.obs.recorder().render_dump();
    let summary = hermes::obs::parse_dump(&dump)
        .map_err(|e| format!("flight dump failed to re-parse: {e}"))?;
    if summary.unbalanced > 0 {
        return Err(format!(
            "{} flight records violate phase balance",
            summary.unbalanced
        ));
    }
    match opts.get("recorder-path") {
        Some(path) => {
            std::fs::write(path, &dump).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!(
                "wrote {path}: {} flight records over {} requests (re-parsed clean)",
                summary.records, summary.seen
            );
        }
        None => print!("{dump}"),
    }

    match opts.get("metrics-path") {
        Some(path) => write_exposition(path, &reg)?,
        None => {
            let parsed = hermes::obs::parse_text(&reg.render_text())
                .map_err(|e| format!("exposition failed to re-parse: {e}"))?;
            println!(
                "exposition: {} metrics, {} samples (pass --metrics-path to write it)",
                parsed.metrics, parsed.samples
            );
        }
    }
    println!(
        "verified {} served results against standalone execution; all timelines balanced",
        run.load.completions.len()
    );
    Ok(())
}

fn cmd_loadgen(opts: &Flags) -> Result<(), String> {
    let smoke = get_bool(opts, "smoke");
    let users = get_count(opts, "users", 8)?;
    let think_us = get_u64(opts, "think-us", 0)?;
    let mut setup = build_serve_setup(opts)?;
    if smoke && !opts.contains_key("requests") {
        setup.requests = 60;
    }
    if get_bool(opts, "churn") {
        // Churn wants mutation volume comparable to shard size; default
        // to a smaller corpus than the read-only loops unless the user
        // pinned one.
        let mut churn_opts = opts.clone();
        churn_opts
            .entry("docs".to_string())
            .or_insert_with(|| if smoke { "2000" } else { "6000" }.to_string());
        churn_opts
            .entry("clusters".to_string())
            .or_insert_with(|| "5".to_string());
        let churn_setup = build_serve_setup(&churn_opts)?;
        return cmd_loadgen_churn(&churn_setup, smoke);
    }
    let engine = Engine::for_store(&setup.store);

    let mut closed_spec = hermes::serve::ClosedLoopSpec::new(setup.requests, users)
        .with_think_ns(think_us * 1_000)
        .with_priority_cycle(priority_mix());
    let mut open_spec = hermes::serve::OpenLoopSpec::new(setup.requests, setup.qps)
        .with_seed(setup.seed.wrapping_add(11))
        .with_priority_cycle(priority_mix());
    if let Some(slo) = setup.slo_ns {
        closed_spec = closed_spec.with_slo_ns(slo);
        open_spec = open_spec.with_slo_ns(slo);
    }

    let server = || {
        hermes::serve::Server::new(
            hermes::serve::EngineBackend::new(engine, setup.threads),
            setup.server_cfg,
        )
        .with_observer(serve_observer(&setup))
    };
    let mut closed_server = server();
    let closed = hermes::serve::run_closed_loop(&mut closed_server, &setup.queries, &closed_spec)
        .map_err(|e| e.to_string())?;
    let mut open_server = server();
    let open = hermes::serve::run_open_loop(&mut open_server, &setup.queries, &open_spec)
        .map_err(|e| e.to_string())?;

    // The bar that makes this a verification step, not just a driver:
    // every batched/coalesced completion must carry exactly the outcome
    // the standalone engine produces for its query.
    let mut checked = 0usize;
    for c in closed.completions.iter().chain(open.completions.iter()) {
        let standalone = engine.execute(&c.request.query).map_err(|e| e.to_string())?;
        if c.outcome.as_ref() != Some(&standalone) {
            return Err(format!(
                "request {} diverged from standalone engine execution",
                c.request.id
            ));
        }
        checked += 1;
    }
    for (title, mut server, report) in [
        ("closed loop", closed_server, &closed.serve),
        ("open loop", open_server, &open.serve),
    ] {
        let obs = server.take_observer().expect("the observer is attached above");
        print_tables(title, &serve_registry(&obs, report));
    }
    println!("served results bit-identical to standalone execution ({checked} requests checked)");
    Ok(())
}

/// Mutate-while-serving verification: a seeded stream of inserts,
/// removes and queries runs through a generation-swapped server while
/// the rebalancer splits/merges live. A stop-the-world twin applies the
/// identical op stream offline; at every generation boundary the two
/// stores must be **bit-identical** (paged images compared byte for
/// byte), and every served completion must match standalone engine
/// execution on its dispatch generation.
fn cmd_loadgen_churn(setup: &ServeSetup, smoke: bool) -> Result<(), String> {
    use hermes::math::rng::SeededRng;
    use hermes::serve::Request;
    use std::sync::Arc;

    let ops = if smoke { 900 } else { 2_600 };
    println!(
        "churn loadgen: {} docs, {} clusters, {} seeded ops (inserts/removes/queries)",
        setup.store.len(),
        setup.store.num_clusters(),
        ops
    );

    let cell = Arc::new(GenerationCell::new(setup.store.clone()));
    let mut reference = setup.store.clone();
    let rebalancer = Rebalancer::new(hermes::core::RebalanceConfig {
        max_imbalance: 3.0,
        ..Default::default()
    });
    let mut server = hermes::serve::Server::new(
        GenerationBackend::new(cell.clone(), setup.threads),
        setup.server_cfg,
    );

    let mut rng = SeededRng::new(setup.seed.wrapping_add(23));
    let mut next_id = 1_000_000u64;
    let mut inserted: Vec<u64> = Vec::new();
    let mut now_ns = 0u64;
    let mut queries_checked = 0usize;
    let mut boundaries = 0usize;

    for op in 0..ops {
        now_ns += 2_000;
        let roll = rng.gen_range(0u32..100);
        if roll < 60 {
            // Topical insert: pile onto cluster 0's (running) centroid so
            // the skew the rebalancer must repair actually builds up.
            let mut v = cell.current().split_centroid(0).to_vec();
            for x in v.iter_mut() {
                *x += (rng.next_f32() - 0.5) * 0.05;
            }
            let id = next_id;
            next_id += 1;
            let live_c = cell.mutate(|s| s.insert(id, &v)).map_err(|e| e.to_string())?;
            let ref_c = reference.insert(id, &v).map_err(|e| e.to_string())?;
            if live_c != ref_c {
                return Err(format!("insert {id} routed to {live_c} live vs {ref_c} offline"));
            }
            inserted.push(id);
        } else if roll < 72 {
            if !inserted.is_empty() {
                let i = rng.gen_range(0..inserted.len());
                let id = inserted.swap_remove(i);
                let live_c = cell.mutate(|s| s.remove(id));
                let ref_c = reference.remove(id);
                if live_c != ref_c {
                    return Err(format!("remove {id}: {live_c:?} live vs {ref_c:?} offline"));
                }
            }
        } else {
            let q = setup.queries[rng.gen_range(0..setup.queries.len())].clone();
            server.run_until(now_ns).map_err(|e| e.to_string())?;
            let _ = server.submit(Request::new(op as u64, q, Priority::Standard, now_ns));
            // Drain immediately so the completion's dispatch generation
            // is the one published right now.
            server.run_until(u64::MAX).map_err(|e| e.to_string())?;
            let snapshot = cell.current();
            let engine = Engine::for_store(&snapshot);
            for done in server.take_completions() {
                let standalone = engine.execute(&done.request.query).map_err(|e| e.to_string())?;
                if done.outcome.as_ref() != Some(&standalone) {
                    return Err(format!(
                        "request {} diverged from standalone execution on its generation",
                        done.request.id
                    ));
                }
                queries_checked += 1;
            }
        }

        // Rebalance checkpoint: run up to two incremental steps, each
        // published via an atomic generation swap, the twin stopped-world.
        if op % 64 == 63 {
            for _ in 0..2 {
                let live = cell.current();
                let Some(action) = rebalancer.next_action(&live) else {
                    break;
                };
                let ref_action = rebalancer
                    .next_action(&reference)
                    .ok_or("offline twin quiescent while live store wants rebalancing")?;
                if ref_action != action {
                    return Err(format!(
                        "action divergence: {action:?} live vs {ref_action:?} offline"
                    ));
                }
                let next = rebalancer.apply(&live, action).map_err(|e| e.to_string())?;
                cell.swap(next);
                reference = rebalancer.apply(&reference, ref_action).map_err(|e| e.to_string())?;
                boundaries += 1;

                let live = cell.current();
                if live.to_paged_bytes() != reference.to_paged_bytes() {
                    return Err(format!(
                        "generation {} boundary: incremental store diverged from stop-the-world twin",
                        live.generation()
                    ));
                }
            }
        }
    }
    server.run_until(u64::MAX).map_err(|e| e.to_string())?;

    if boundaries == 0 {
        return Err("churn workload never triggered a rebalance — no boundary was verified".into());
    }
    let live = cell.current();
    if live.to_paged_bytes() != reference.to_paged_bytes() {
        return Err("final state diverged from stop-the-world twin".into());
    }
    println!(
        "served {} queries during churn, all bit-identical to their generation",
        queries_checked
    );
    println!(
        "verified {} generation boundaries bit-identical to stop-the-world rebalance \
         (final: {} clusters, {} docs, generation {}, epoch {})",
        boundaries,
        live.num_clusters(),
        live.len(),
        live.generation(),
        cell.epoch()
    );
    Ok(())
}

fn cmd_plan(opts: &Flags) -> Result<(), String> {
    let tokens = get_u64(opts, "tokens", 0)?;
    if tokens == 0 {
        return Err("--tokens is required (e.g. --tokens 100000000000)".into());
    }
    let batch = get_count(opts, "batch", 128)?;
    let stride = get_usize(opts, "stride", 16)? as u32;
    let nprobe = get_count(opts, "nprobe", 128)?;
    let planner = ClusterPlanner::default();
    let per = planner.max_cluster_tokens(batch, nprobe, 512, stride);
    let nodes = planner.nodes_required(tokens, batch, nprobe, 512, stride);
    println!(
        "datastore {}  batch {batch}  stride {stride}  nProbe {nprobe}",
        format_tokens(tokens)
    );
    println!(
        "max cluster size hiding under inference: {}",
        format_tokens(per)
    );
    println!("nodes required: {nodes} ({} per node)", format_tokens(tokens / nodes as u64));
    let retrieval = RetrievalModel::default();
    println!(
        "monolithic search: {:.2} s/batch  |  per-cluster search: {:.3} s/batch",
        retrieval.batch_latency(tokens, batch, nprobe),
        retrieval.batch_latency(tokens / nodes as u64, batch, nprobe)
    );
    Ok(())
}
