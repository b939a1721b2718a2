//! Pins the staged scatter–gather execution engine to the sequential
//! shard loops it replaced: for every routing mode, codec and thread
//! count, the engine must reproduce the legacy semantics **bit for bit**
//! — hits (ids and scores), cluster rankings, per-stage cost totals, and
//! the first-error-in-input-order contract.
//!
//! The legacy behaviour is reimplemented here from the pre-engine code:
//! plain `search()` per shard plus a second `probe_stats()` costing pass
//! (the engine gets the same numbers inline from `search_with_stats`).
//! If the engine ever drifts (a reordered merge, a changed clamp, a racy
//! accumulation), these properties fail.

use hermes::core::exec::Engine;
use hermes::core::search::SearchOutcome;
use hermes::math::topk::merge_topk;
use hermes::prelude::*;
use hermes_testkit::prelude::*;

const THREADS: &[usize] = &[0, 1, 4, 64];

fn tk_cfg() -> Config {
    Config::from_env().with_cases(8)
}

/// What the pre-engine sequential implementation produced for one query.
struct LegacyOutcome {
    hits: Vec<Neighbor>,
    ranked_clusters: Vec<usize>,
    searched_clusters: Vec<usize>,
    sample_codes: usize,
    sample_clusters: usize,
    deep_codes: usize,
    deep_clusters: usize,
}

/// The original routing loop: sequential shard-by-shard sampling with a
/// separate `probe_stats` costing pass, or centroid scoring, then the
/// shared score-desc / id-asc sort.
fn legacy_route(store: &ClusteredStore, query: &[f32]) -> (Vec<usize>, usize, usize) {
    let cfg = store.config();
    let n = store.num_clusters();
    let (mut scored, scanned, touched) = match cfg.routing {
        Routing::DocumentSampling => {
            let params = SearchParams::new().with_nprobe(cfg.sample_nprobe);
            let mut scored = Vec::with_capacity(n);
            let mut scanned = 0usize;
            for c in 0..n {
                let shard = store.shard(c);
                let hits = shard.search(query, 1, &params).unwrap();
                scanned += shard.probe_stats(query, cfg.sample_nprobe).scanned_codes;
                scored.push((c, hits.first().map_or(f32::NEG_INFINITY, |h| h.score)));
            }
            (scored, scanned, n)
        }
        Routing::CentroidOnly => {
            let scored = (0..n)
                .map(|c| (c, cfg.metric.similarity(query, store.split_centroid(c))))
                .collect();
            (scored, n, n)
        }
        Routing::Unranked => return ((0..n).collect(), 0, 0),
    };
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    (
        scored.into_iter().map(|(c, _)| c).collect(),
        scanned,
        touched,
    )
}

/// The original hierarchical search: route, then a sequential deep-search
/// loop over the top-m shards, costed with `probe_stats`.
fn legacy_search(store: &ClusteredStore, query: &[f32]) -> LegacyOutcome {
    let cfg = *store.config();
    let (ranked, sample_codes, sample_clusters) = legacy_route(store, query);
    let m = cfg.clusters_to_search.min(ranked.len());
    let searched: Vec<usize> = ranked[..m].to_vec();
    let params = SearchParams::new().with_nprobe(cfg.deep_nprobe);
    let mut per_cluster = Vec::with_capacity(m);
    let mut deep_codes = 0usize;
    for &c in &searched {
        let shard = store.shard(c);
        per_cluster.push(shard.search(query, cfg.k, &params).unwrap());
        deep_codes += shard.probe_stats(query, cfg.deep_nprobe).scanned_codes;
    }
    LegacyOutcome {
        hits: merge_topk(&per_cluster, cfg.k),
        ranked_clusters: ranked,
        searched_clusters: searched,
        sample_codes,
        sample_clusters,
        deep_codes,
        deep_clusters: m,
    }
}

fn routings() -> [Routing; 3] {
    [
        Routing::DocumentSampling,
        Routing::CentroidOnly,
        Routing::Unranked,
    ]
}

fn codecs() -> [CodecSpec; 2] {
    [CodecSpec::Flat, CodecSpec::Sq8]
}

/// Hits (score bits included), rankings, searched sets and both stages'
/// cost totals of `out` are exactly the legacy implementation's.
fn same_as_legacy(want: &LegacyOutcome, out: &SearchOutcome, ctx: &str) -> Result<(), String> {
    prop_assert!(want.hits == out.hits, "hits diverge at {ctx}");
    prop_assert!(
        want.ranked_clusters == out.ranked_clusters,
        "ranking diverges at {ctx}"
    );
    prop_assert!(
        want.searched_clusters == out.searched_clusters,
        "searched set diverges at {ctx}"
    );
    prop_assert!(
        want.sample_codes == out.sample_cost().scanned_codes
            && want.sample_clusters == out.sample_cost().clusters_touched,
        "route cost diverges at {ctx}: legacy {}/{} vs {:?}",
        want.sample_codes,
        want.sample_clusters,
        out.sample_cost()
    );
    prop_assert!(
        want.deep_codes == out.deep_cost().scanned_codes
            && want.deep_clusters == out.deep_cost().clusters_touched,
        "deep cost diverges at {ctx}: legacy {}/{} vs {:?}",
        want.deep_codes,
        want.deep_clusters,
        out.deep_cost()
    );
    Ok(())
}

/// Engine output — the query-major batch at every schedule, and the
/// shard-major group scatter (`execute_coalesced`) on the whole batch, a
/// batch of one and a batch holding the same query twice — is
/// bit-identical to the legacy sequential implementation for all routing
/// × codec combinations.
#[test]
fn engine_matches_legacy_for_all_modes_codecs_and_threads() {
    let strat = tuple3(u64_in(0..40), usize_in(1..5), usize_in(1..7));
    check_with(
        "engine_matches_legacy_for_all_modes_codecs_and_threads",
        &tk_cfg(),
        &strat,
        |&(seed, m, k)| {
            let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(seed));
            let qs: Vec<Vec<f32>> = corpus
                .embeddings()
                .iter_rows()
                .take(4)
                .map(<[f32]>::to_vec)
                .collect();
            for routing in routings() {
                for codec in codecs() {
                    let cfg = HermesConfig::new(4)
                        .with_clusters_to_search(m)
                        .with_k(k)
                        .with_seed(seed)
                        .with_routing(routing)
                        .with_codec(codec);
                    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
                    let legacy: Vec<LegacyOutcome> =
                        qs.iter().map(|q| legacy_search(&store, q)).collect();
                    let engine = Engine::for_store(&store);
                    let all: Vec<usize> = (0..qs.len()).collect();
                    let twice = [0usize, 1, 0];
                    let twice_qs = twice.map(|i| qs[i].as_slice());
                    for &threads in THREADS {
                        // (path, which legacy outcome each result answers, results)
                        let batch = store.batch_hierarchical_search(&qs, threads);
                        let group = engine.execute_coalesced(&qs, threads);
                        let one = engine.execute_coalesced(&qs[..1], threads);
                        let dup = engine.execute_coalesced(&twice_qs, threads);
                        let paths = [
                            ("batch", &all[..], batch),
                            ("group", &all[..], group),
                            ("group of one", &all[..1], one),
                            ("group with a repeat", &twice[..], dup),
                        ];
                        for (path, picks, got) in paths {
                            let got = got.unwrap();
                            prop_assert!(got.len() == picks.len(), "{path}: one outcome per query");
                            for (&i, out) in picks.iter().zip(&got) {
                                let ctx = format!("{routing:?}/{codec:?}/threads={threads}/{path}");
                                same_as_legacy(&legacy[i], out, &ctx)?;
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// `search_all_clusters` is the engine's exhaustive plan and must equal a
/// legacy full fan-out (no routing cost, every cluster searched in index
/// order).
#[test]
fn exhaustive_plan_matches_legacy_full_fanout() {
    check_with(
        "exhaustive_plan_matches_legacy_full_fanout",
        &tk_cfg(),
        &u64_in(0..40),
        |&seed| {
            let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(seed));
            // `clusters_to_search` must be valid at build time; the
            // exhaustive plan widens it to every cluster on its own.
            let cfg = HermesConfig::new(4)
                .with_seed(seed)
                .with_routing(Routing::Unranked)
                .with_clusters_to_search(4);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let q = corpus.embeddings().row(1);
            let want = legacy_search(&store, q);
            let out = store.search_all_clusters(q).unwrap();
            prop_assert_eq!(&want.hits, &out.hits);
            prop_assert_eq!(&want.searched_clusters, &out.searched_clusters);
            prop_assert_eq!(out.sample_cost().scanned_codes, 0);
            prop_assert_eq!(want.deep_codes, out.deep_cost().scanned_codes);
            Ok(())
        },
    );
}

/// The engine's per-query work totals equal what each shard reports from
/// the scan itself — no path re-walks the coarse quantizer after
/// searching, and the two accountings must agree exactly.
#[test]
fn per_shard_stats_sum_to_stage_totals() {
    check_with(
        "per_shard_stats_sum_to_stage_totals",
        &tk_cfg(),
        &tuple2(u64_in(0..40), usize_in(1..5)),
        |&(seed, m)| {
            let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(seed));
            let cfg = HermesConfig::new(4).with_clusters_to_search(m).with_seed(seed);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let out = store.hierarchical_search(corpus.embeddings().row(2)).unwrap();
            prop_assert_eq!(out.stats.per_shard_scanned.len(), out.searched_clusters.len());
            prop_assert_eq!(
                out.stats.per_shard_scanned.iter().sum::<usize>(),
                out.deep_cost().scanned_codes
            );
            prop_assert!(out.stats.gather_candidates >= out.hits.len());
            prop_assert_eq!(
                out.total_scanned_codes(),
                out.sample_cost().scanned_codes + out.deep_cost().scanned_codes
            );
            Ok(())
        },
    );
}

/// A malformed query in the middle of a batch yields the same error a
/// sequential loop hits first — in *input* order, for every routing mode
/// and thread count, even with a second bad query later in the batch.
#[test]
fn first_error_in_input_order_is_preserved() {
    let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(3));
    // CentroidOnly scores centroids with a panicking distance kernel, so a
    // malformed query panics identically in legacy and engine code — the
    // Result-based ordering contract applies to the other two modes.
    for routing in [Routing::DocumentSampling, Routing::Unranked] {
        let cfg = HermesConfig::new(4).with_seed(3).with_routing(routing);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let good = |i: usize| corpus.embeddings().row(i).to_vec();
        // Bad query (wrong dim 3) mid-batch, another (dim 1) at the end.
        let batch = vec![good(0), vec![1.0f32, 2.0, 3.0], good(1), vec![9.0f32]];
        let sequential_err = batch
            .iter()
            .map(|q| store.hierarchical_search(q))
            .find_map(Result::err)
            .unwrap();
        for &threads in THREADS {
            let got = store.batch_hierarchical_search(&batch, threads).unwrap_err();
            assert_eq!(got, sequential_err, "{routing:?}/threads={threads}");
        }
    }
}
