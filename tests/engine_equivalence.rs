//! Pins the staged scatter–gather execution engine to the sequential
//! shard loops it replaced: for every routing mode, codec and thread
//! count, the engine must reproduce the legacy semantics **bit for bit**
//! — hits (ids and scores), cluster rankings, per-stage cost totals, and
//! the first-error-in-input-order contract.
//!
//! The legacy behaviour is reimplemented here from the pre-engine code:
//! one `search_with_stats` per shard, its `ScanStats` standing in for
//! the separate costing pass the legacy code ran (the two agree: the
//! index's own tests pin a search's stats to the lengths of the lists
//! its coarse keys select).
//! If the engine ever drifts (a reordered merge, a changed clamp, a racy
//! accumulation), these properties fail.
//!
//! That loop probes `deep_nprobe` lists in every routed shard, so it is
//! the oracle of [`ProbeAllocation::PerShard`]. The default,
//! [`ProbeAllocation::Pooled`], has an oracle of its own
//! ([`pooled_search`]): the budget rule written out over one query at a
//! time — keys per shard, a full sort, the first `B` — with one ordinary
//! `search_with_stats` per shard that got a share. The default routing,
//! [`Routing::NearestLists`], has a third ([`nearest_lists_search`]):
//! every shard's keys sorted together, the first `B`, and again one
//! ordinary search per shard at the number of lists it got.

use hermes::core::exec::Engine;
use hermes::core::search::{SearchOutcome, SearchPhaseCost};
use hermes::index::{CoarseKeys, ScanStats};
use hermes::kmeans::{probe_key_centroid, probe_key_distance, probe_key_squared_distance};
use hermes::math::topk::merge_topk;
use hermes::prelude::*;
use hermes_testkit::prelude::*;

const THREADS: &[usize] = &[0, 1, 2, 4, 64];

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

/// The original routing loop: sequential shard-by-shard sampling, costed
/// with each sample search's own `ScanStats`, or centroid scoring, then
/// the shared score-desc / id-asc sort.
fn legacy_route(store: &ClusteredStore, query: &[f32]) -> (Vec<usize>, usize, usize) {
    let (ranked, _, scanned, touched) = legacy_route_scored(store, query);
    (ranked, scanned, touched)
}

/// [`legacy_route`], also returning the scores in rank order (none when
/// unranked).
fn legacy_route_scored(
    store: &ClusteredStore,
    query: &[f32],
) -> (Vec<usize>, Vec<f32>, usize, usize) {
    let cfg = store.config();
    let n = store.num_clusters();
    let (mut scored, scanned, touched) = match cfg.routing {
        Routing::DocumentSampling => {
            let params = SearchParams::new().with_nprobe(cfg.sample_nprobe);
            let mut scored = Vec::with_capacity(n);
            let mut scanned = 0usize;
            for c in 0..n {
                let shard = store.shard(c);
                let (hits, stats) = shard.search_with_stats(query, 1, &params).unwrap();
                scanned += stats.scanned_codes;
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
        Routing::Unranked => return ((0..n).collect(), Vec::new(), 0, 0),
        Routing::NearestLists => unreachable!("nearest-lists routing has its own oracle"),
    };
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let (ranked, scores) = scored.into_iter().unzip();
    (ranked, scores, scanned, touched)
}

/// The original hierarchical search: route, then a sequential deep-search
/// loop over the top-m shards, costed with each search's `ScanStats`.
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
        let (hits, stats) = shard.search_with_stats(query, cfg.k, &params).unwrap();
        per_cluster.push(hits);
        deep_codes += stats.scanned_codes;
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
        want.searched_clusters == out.searched_clusters(),
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
                        .with_codec(codec)
                        .with_probe_allocation(ProbeAllocation::PerShard);
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
            prop_assert_eq!(&want.searched_clusters[..], out.searched_clusters());
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
            let cfg = HermesConfig::new(4)
                .with_clusters_to_search(m)
                .with_seed(seed);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let out = store
                .hierarchical_search(corpus.embeddings().row(2))
                .unwrap();
            prop_assert_eq!(out.stats.per_shard.len(), out.searched_clusters().len());
            prop_assert_eq!(
                out.stats.per_shard_scanned().sum::<usize>(),
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
    for routing in [
        Routing::NearestLists,
        Routing::DocumentSampling,
        Routing::CentroidOnly,
        Routing::Unranked,
    ] {
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
            let got = store
                .batch_hierarchical_search(&batch, threads)
                .unwrap_err();
            assert_eq!(got, sequential_err, "{routing:?}/threads={threads}");
        }
    }
}

/// The pooled budget rule, one query at a time from public calls only:
/// route as the legacy loop does, take the coarse keys of each routed
/// shard, sort every `(distance bits, rank position, list)` of them
/// together, keep the first `B` — a full share of `deep_nprobe` for the
/// leader, half a share rounded up for each further shard, a share never
/// more than the shard's lists — and search each shard alone at the
/// number of lists it kept, or not at all if it kept none.
fn pooled_search(store: &ClusteredStore, query: &[f32]) -> SearchOutcome {
    let cfg = *store.config();
    let (ranked, scores, sample_codes, sample_clusters) = legacy_route_scored(store, query);
    let (m, deep_nprobe) = match cfg.adaptive {
        Some(adaptive) => {
            let choice = DifficultyEstimator::new(adaptive).depth(&scores);
            (choice.clusters, choice.deep_nprobe)
        }
        None => (cfg.clusters_to_search, cfg.deep_nprobe),
    };
    let searched = ranked[..m.min(ranked.len())].to_vec();
    let mut pool = Vec::new();
    let mut budget = 0;
    for (pos, &c) in searched.iter().enumerate() {
        let shard = store.shard(c);
        let keys = query_keys(shard, query);
        assert_eq!(keys.len(), shard.nlist());
        let pair = |&key| (probe_key_distance(key), pos, probe_key_centroid(key));
        pool.extend(keys.iter().map(pair));
        let share = deep_nprobe.min(shard.nlist());
        budget += if pos == 0 { share } else { share.div_ceil(2) };
    }
    pool.sort();
    pool.truncate(budget);
    let per_shard: Vec<(Vec<Neighbor>, ScanStats)> = searched
        .iter()
        .enumerate()
        .map(
            |(pos, &c)| match pool.iter().filter(|pair| pair.1 == pos).count() {
                0 => (Vec::new(), ScanStats::default()),
                lists => {
                    let params = SearchParams::new().with_nprobe(lists);
                    store
                        .shard(c)
                        .search_with_stats(query, cfg.k, &params)
                        .unwrap()
                }
            },
        )
        .collect();
    SearchOutcome {
        hits: merge_topk(per_shard.iter().map(|(hits, _)| hits), cfg.k),
        ranked_clusters: ranked,
        stats: SearchStats {
            route: SearchPhaseCost {
                scanned_codes: sample_codes,
                clusters_touched: sample_clusters,
            },
            deep: SearchPhaseCost {
                scanned_codes: per_shard.iter().map(|(_, s)| s.scanned_codes).sum(),
                clusters_touched: per_shard
                    .iter()
                    .filter(|(_, s)| s.probed_partitions > 0)
                    .count(),
            },
            gather_candidates: gather_candidates(&per_shard, cfg.k),
            per_shard: per_shard.iter().map(|&(_, stats)| stats).collect(),
            deep_nprobe,
        },
    }
}

/// The hits the gather merges from `per_shard` (rank order): all of the
/// leader's, and those of every other shard that score at least the
/// leader's k-th, if it has k hits and that score is a number. No other
/// hit can enter the top-k, and the engine's other shards return no
/// other.
fn gather_candidates(per_shard: &[(Vec<Neighbor>, ScanStats)], k: usize) -> usize {
    let Some(((leader, _), others)) = per_shard.split_first() else {
        return 0;
    };
    let floor = (k.checked_sub(1).and_then(|last| leader.get(last)))
        .map(|hit| hit.score)
        .filter(|score| !score.is_nan());
    let counted = |hit: &&Neighbor| floor.is_none_or(|floor| hit.score >= floor);
    let others: usize = (others.iter())
        .map(|(hits, _)| hits.iter().filter(counted).count())
        .sum();
    leader.len() + others
}

/// Every engine path over `qs` — query-major batch, shard-major group,
/// a group of one, a group holding a query twice — at every width
/// equals `want`, whole outcomes, stats included.
fn every_path_equals(
    store: &ClusteredStore,
    qs: &[Vec<f32>],
    want: &[SearchOutcome],
    ctx: &str,
) -> Result<(), String> {
    let engine = Engine::for_store(store);
    let all: Vec<usize> = (0..qs.len()).collect();
    let twice = [0usize, 1, 0];
    let twice_qs = twice.map(|i| qs[i].as_slice());
    for &threads in THREADS {
        let paths = [
            (
                "batch",
                &all[..],
                store.batch_hierarchical_search(qs, threads),
            ),
            ("group", &all[..], engine.execute_coalesced(qs, threads)),
            (
                "group of one",
                &all[..1],
                engine.execute_coalesced(&qs[..1], threads),
            ),
            (
                "group with a repeat",
                &twice[..],
                engine.execute_coalesced(&twice_qs, threads),
            ),
        ];
        for (path, picks, got) in paths {
            let got = got.unwrap();
            prop_assert!(got.len() == picks.len(), "{path}: one outcome per query");
            for (&i, out) in picks.iter().zip(&got) {
                prop_assert!(
                    &want[i] == out,
                    "{ctx}/threads={threads}/{path}: query {i}\n want {:?}\n  got {:?}",
                    want[i],
                    out
                );
            }
        }
    }
    Ok(())
}

/// A store, the same store after removes and inserts (rows deleted from
/// its lists), and that one after its largest cluster was split.
fn store_variants(store: ClusteredStore, corpus: &Corpus) -> Vec<(&'static str, ClusteredStore)> {
    let mut churned = store.clone();
    let removed = (0..corpus.embeddings().rows() as u64).step_by(5);
    for id in removed.clone() {
        assert!(churned.remove(id).is_some());
    }
    for (i, row) in corpus.embeddings().iter_rows().enumerate().take(40) {
        let fresh: Vec<f32> = row.iter().map(|x| x * 0.9).collect();
        churned.insert(50_000 + i as u64, &fresh).unwrap();
    }
    assert_eq!(churned.len(), store.len() - removed.count() + 40);
    let sizes = churned.cluster_sizes();
    let largest = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap();
    let split = Rebalancer::default()
        .apply(&churned, RebalanceAction::Split { cluster: largest })
        .unwrap();
    vec![("built", store), ("churned", churned), ("split", split)]
}

/// `ProbeAllocation::Pooled` — whole batch, batch of one, duplicated
/// query, every width, both codecs, both scoring routing modes, adaptive
/// depth on and off, on a fresh store, one with rows removed and one after
/// a split — is its sequential oracle bit for bit, stats included. Every
/// shard here has fewer lists than `deep_nprobe` (and than the adaptive
/// ceiling), so shares are list counts throughout.
#[test]
fn pooled_engine_matches_its_sequential_oracle() {
    let strat = tuple3(u64_in(0..40), usize_in(1..5), usize_in(1..7));
    check_with(
        "pooled_engine_matches_its_sequential_oracle",
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
            for routing in [Routing::DocumentSampling, Routing::CentroidOnly] {
                for codec in codecs() {
                    for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 4, 200))] {
                        let mut cfg = HermesConfig::new(4)
                            .with_clusters_to_search(m)
                            .with_k(k)
                            .with_seed(seed)
                            .with_routing(routing)
                            .with_codec(codec);
                        cfg.adaptive = adaptive;
                        prop_assert!(cfg.probe_allocation == ProbeAllocation::Pooled);
                        let built = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
                        for (variant, store) in store_variants(built, &corpus) {
                            let want: Vec<SearchOutcome> =
                                qs.iter().map(|q| pooled_search(&store, q)).collect();
                            let ctx = format!("{routing:?}/{codec:?}/{adaptive:?}/{variant}");
                            every_path_equals(&store, &qs, &want, &ctx)?;
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// With one routed shard the pool is that shard: `Pooled` at `m = 1` is
/// `PerShard` — hence the parent engine — outcome for outcome. And a
/// ranking without scores has no leader: `Unranked` runs per shard
/// whatever the allocation says.
#[test]
fn pooled_is_per_shard_at_one_cluster_and_when_unranked() {
    check_with(
        "pooled_is_per_shard_at_one_cluster_and_when_unranked",
        &tk_cfg(),
        &tuple2(u64_in(0..40), usize_in(1..200)),
        |&(seed, deep_nprobe)| {
            let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(seed));
            let qs: Vec<Vec<f32>> = corpus
                .embeddings()
                .iter_rows()
                .take(6)
                .map(<[f32]>::to_vec)
                .collect();
            for (routing, m) in [
                (Routing::DocumentSampling, 1),
                (Routing::CentroidOnly, 1),
                (Routing::Unranked, 3),
            ] {
                let pooled = HermesConfig::new(4)
                    .with_clusters_to_search(m)
                    .with_deep_nprobe(deep_nprobe)
                    .with_seed(seed)
                    .with_routing(routing);
                let store = ClusteredStore::build(corpus.embeddings(), &pooled).unwrap();
                let per_shard = pooled.with_probe_allocation(ProbeAllocation::PerShard);
                let want = Engine::new(&store, &per_shard)
                    .execute_batch(&qs, 1)
                    .unwrap();
                every_path_equals(&store, &qs, &want, &format!("{routing:?}/m={m}"))?;
            }
            Ok(())
        },
    );
}

/// A distance tie exactly at the cut. Two shards hold the same six
/// points (round-robin split of a corpus with every row twice) and one
/// list per point, so every list of the follower ties, to the bit, with
/// a list of the leader; the budget is 6 + 3 = 9 of 12, which cuts the
/// fifth-nearest pair in two. The tie goes to the better-ranked shard —
/// 5 lists and 4, whatever else is in the batch and at every width.
#[test]
fn a_distance_tie_at_the_cut_goes_to_the_better_ranked_shard() {
    let points: Vec<Vec<f32>> = (0..6)
        .map(|i| vec![1.0 + i as f32, 0.5 * i as f32])
        .collect();
    let rows: Vec<Vec<f32>> = points.iter().flat_map(|p| [p.clone(), p.clone()]).collect();
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(2)
        .with_k(3)
        .with_codec(CodecSpec::Flat)
        .with_split(SplitStrategy::RoundRobin)
        .with_routing(Routing::DocumentSampling);
    let store = ClusteredStore::build(&Mat::from_rows(&rows), &cfg).unwrap();
    let query = vec![0.9f32, 0.1];
    let distances = |c: usize| {
        let mut d: Vec<u32> = query_keys(store.shard(c), &query)
            .iter()
            .map(|&k| probe_key_distance(k))
            .collect();
        d.sort_unstable();
        d
    };
    assert_eq!(store.shard(0).nlist(), 6);
    assert_eq!(distances(0), distances(1), "the shards' lists tie pairwise");
    assert!(
        distances(0).windows(2).all(|w| w[0] < w[1]),
        "six distinct distances"
    );

    let want = pooled_search(&store, &query);
    assert_eq!(
        want.searched_clusters(),
        [0, 1],
        "equal samples rank by cluster id"
    );
    assert_eq!(want.stats.per_shard_probed().collect::<Vec<_>>(), [5, 4]);
    let others: Vec<Vec<f32>> = points.iter().map(|p| vec![p[1], p[0]]).collect();
    let engine = Engine::for_store(&store);
    for &threads in THREADS {
        assert_eq!(
            engine.execute_coalesced(&[&query[..]], threads).unwrap()[0],
            want
        );
        let mut batch = others.clone();
        batch.insert(3, query.clone());
        assert_eq!(engine.execute_coalesced(&batch, threads).unwrap()[3], want);
        assert_eq!(engine.execute_batch(&batch, threads).unwrap()[3], want);
    }
}

/// The benchmark's `--smoke` shape: 3 000 x 24 in ten shards of about
/// 69 lists each under `deep_nprobe` 128, so every share is a list count
/// (69 + 35 + 35, not 128 + 64 + 64) and a third of the routed lists
/// stay unprobed.
#[test]
fn shares_are_capped_at_list_counts_on_the_smoke_shape() {
    let corpus = Corpus::generate(CorpusSpec::new(3_000, 24, 10).with_seed(7));
    let cfg = HermesConfig::new(10)
        .with_k(10)
        .with_seed(8)
        .with_routing(Routing::DocumentSampling);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let nlists: Vec<usize> = (0..10).map(|c| store.shard(c).nlist()).collect();
    assert!(nlists.iter().all(|&n| n < cfg.deep_nprobe), "{nlists:?}");
    let queries = QuerySet::generate(&corpus, QuerySpec::new(12).with_seed(9)).to_vecs();
    let want: Vec<SearchOutcome> = queries.iter().map(|q| pooled_search(&store, q)).collect();
    for out in &want {
        let share = |c: &usize| nlists[*c];
        let budget = share(&out.searched_clusters()[0])
            + out.searched_clusters()[1..]
                .iter()
                .map(|c| share(c).div_ceil(2))
                .sum::<usize>();
        assert_eq!(out.stats.per_shard_probed().sum::<usize>(), budget);
    }
    every_path_equals(&store, &queries, &want, "smoke shape").unwrap();
}

/// What the budget rule is for: at `m = 3` pooling streams at most 0.8
/// of the deep codes of the per-shard engine and finds no less of the
/// exact top-10.
#[test]
fn pooled_recall_is_no_lower_on_fewer_codes() {
    let corpus = Corpus::generate(CorpusSpec::new(8_000, 16, 8).with_seed(21));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(64).with_seed(22)).to_vecs();
    let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);
    let truth = hermes::metrics::ground_truth(&oracle, &queries, 10).unwrap();
    let pooled = HermesConfig::new(8)
        .with_deep_nprobe(32)
        .with_k(10)
        .with_seed(23)
        .with_routing(Routing::DocumentSampling);
    let store = ClusteredStore::build(corpus.embeddings(), &pooled).unwrap();
    assert!((0..8).all(|c| store.shard(c).nlist() > 2 * pooled.deep_nprobe));
    let measure = |cfg: &HermesConfig| {
        let outs = Engine::new(&store, cfg).execute_batch(&queries, 1).unwrap();
        let recall: f64 = (outs.iter().zip(&truth))
            .map(|(out, t)| recall_at_k(t, &hermes::metrics::ranking::ids(&out.hits), 10))
            .sum();
        let codes: usize = outs.iter().map(|out| out.deep_cost().scanned_codes).sum();
        (recall / outs.len() as f64, codes)
    };
    let (pooled_recall, pooled_codes) = measure(&pooled);
    let (recall, codes) = measure(&pooled.with_probe_allocation(ProbeAllocation::PerShard));
    assert!(
        pooled_recall >= recall,
        "recall {pooled_recall:.4} pooled vs {recall:.4} per shard"
    );
    assert!(
        pooled_codes * 10 <= codes * 8,
        "deep codes {pooled_codes} pooled vs {codes} per shard"
    );
}

/// The nearest-lists rule, one query at a time from public calls only:
/// every shard's coarse keys, its nearest one ranking it — (distance
/// bits, cluster id), an empty shard last — and scoring it by the negated
/// squared distance; the budget `B` of the `m` first-ranked shards as
/// [`pooled_search`] counts it; then every `(distance bits, cluster,
/// list)` of every shard sorted together and the first `B` kept under
/// `Pooled`, or each of the `m` shards' own full share under `PerShard`;
/// and each shard that kept lists searched alone at that many.
fn nearest_lists_search(
    store: &ClusteredStore,
    cfg: &HermesConfig,
    query: &[f32],
) -> SearchOutcome {
    let n = store.num_clusters();
    let keys: Vec<Vec<u64>> = (0..n)
        .map(|c| match store.shard(c).len() {
            0 => Vec::new(),
            _ => query_keys(store.shard(c), query),
        })
        .collect();
    let nearest = |c: usize| keys[c].iter().min().copied();
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by_key(|&c| {
        (
            nearest(c).map_or(u64::MAX, |k| u64::from(probe_key_distance(k))),
            c,
        )
    });
    let scores: Vec<f32> = ranked
        .iter()
        .map(|&c| nearest(c).map_or(f32::NEG_INFINITY, |k| -probe_key_squared_distance(k)))
        .collect();
    let (m, deep_nprobe) = match cfg.adaptive {
        Some(adaptive) => {
            let choice = DifficultyEstimator::new(adaptive).depth(&scores);
            (choice.clusters, choice.deep_nprobe)
        }
        None => (cfg.clusters_to_search, cfg.deep_nprobe),
    };
    let share = |c: usize| deep_nprobe.max(1).min(keys[c].len());
    let leaders = &ranked[..m.min(n)];
    let mut lists = vec![0usize; n];
    match cfg.probe_allocation {
        ProbeAllocation::Pooled => {
            let budget: usize = leaders
                .iter()
                .enumerate()
                .map(|(r, &c)| {
                    if r == 0 {
                        share(c)
                    } else {
                        share(c).div_ceil(2)
                    }
                })
                .sum();
            let mut pairs: Vec<(u32, usize, usize)> = (0..n)
                .flat_map(|c| {
                    let pair =
                        move |&key: &u64| (probe_key_distance(key), c, probe_key_centroid(key));
                    keys[c].iter().map(pair)
                })
                .collect();
            pairs.sort();
            for &(_, c, _) in pairs.iter().take(budget) {
                lists[c] += 1;
            }
        }
        ProbeAllocation::PerShard => {
            for &c in leaders {
                lists[c] = share(c);
            }
        }
    }
    let searched = match cfg.probe_allocation {
        ProbeAllocation::Pooled => ranked.iter().take_while(|&&c| lists[c] > 0).count(),
        ProbeAllocation::PerShard => leaders.len(),
    };
    let per_shard: Vec<(Vec<Neighbor>, ScanStats)> = ranked[..searched]
        .iter()
        .map(|&c| match lists[c] {
            0 => (Vec::new(), ScanStats::default()),
            lists => {
                let params = SearchParams::new().with_nprobe(lists);
                store
                    .shard(c)
                    .search_with_stats(query, cfg.k, &params)
                    .unwrap()
            }
        })
        .collect();
    let scored_centroids = (0..n).map(|c| keys[c].len()).sum();
    SearchOutcome {
        hits: merge_topk(per_shard.iter().map(|(hits, _)| hits), cfg.k),
        ranked_clusters: ranked,
        stats: SearchStats {
            route: SearchPhaseCost {
                scanned_codes: scored_centroids,
                clusters_touched: n,
            },
            deep: SearchPhaseCost {
                scanned_codes: per_shard.iter().map(|(_, s)| s.scanned_codes).sum(),
                clusters_touched: per_shard
                    .iter()
                    .filter(|(_, s)| s.probed_partitions > 0)
                    .count(),
            },
            gather_candidates: gather_candidates(&per_shard, cfg.k),
            per_shard: per_shard.iter().map(|&(_, stats)| stats).collect(),
            deep_nprobe,
        },
    }
}

/// Every engine path over `qs` at every width equals the nearest-lists
/// oracle under `cfg`.
fn nearest_lists_paths_equal(
    store: &ClusteredStore,
    cfg: &HermesConfig,
    qs: &[Vec<f32>],
    ctx: &str,
) -> Result<Vec<SearchOutcome>, String> {
    let want: Vec<SearchOutcome> = qs
        .iter()
        .map(|q| nearest_lists_search(store, cfg, q))
        .collect();
    let engine = Engine::new(store, cfg);
    let twice = [0usize, 1, 0];
    let twice_qs = twice.map(|i| qs[i].as_slice());
    for &threads in THREADS {
        let all: Vec<usize> = (0..qs.len()).collect();
        let paths = [
            ("batch", &all[..], engine.execute_batch(qs, threads)),
            ("group", &all[..], engine.execute_coalesced(qs, threads)),
            (
                "group of one",
                &all[..1],
                engine.execute_coalesced(&qs[..1], threads),
            ),
            (
                "group with a repeat",
                &twice[..],
                engine.execute_coalesced(&twice_qs, threads),
            ),
        ];
        for (path, picks, got) in paths {
            let got = got.unwrap();
            prop_assert!(got.len() == picks.len(), "{path}: one outcome per query");
            for (&i, out) in picks.iter().zip(&got) {
                prop_assert!(
                    &want[i] == out,
                    "{ctx}/threads={threads}/{path}: query {i}\n want {:?}\n  got {:?}",
                    want[i],
                    out
                );
            }
        }
    }
    Ok(want)
}

/// `Routing::NearestLists` — whole batch, batch of one, duplicated query,
/// every width, both codecs, both allocations, adaptive depth on and off,
/// on a fresh store, one with rows removed and one after a split — is its
/// sequential oracle bit for bit, stats included. Under `Pooled` the
/// searched shards are exactly the ranked prefix that holds a chosen
/// list, the lists probed add up to the budget of the depth chosen, and
/// the route costs one code per scored list centroid.
#[test]
fn nearest_lists_engine_matches_its_sequential_oracle() {
    let strat = tuple3(u64_in(0..40), usize_in(1..5), usize_in(1..7));
    check_with(
        "nearest_lists_engine_matches_its_sequential_oracle",
        &tk_cfg(),
        &strat,
        |&(seed, m, k)| {
            let corpus = Corpus::generate(CorpusSpec::new(350, 8, 4).with_seed(seed));
            let qs: Vec<Vec<f32>> = corpus
                .embeddings()
                .iter_rows()
                .step_by(37)
                .take(5)
                .map(<[f32]>::to_vec)
                .collect();
            let built_cfg = HermesConfig::new(4)
                .with_clusters_to_search(m)
                .with_k(k)
                .with_seed(seed);
            prop_assert!(built_cfg.routing == Routing::NearestLists);
            for codec in codecs() {
                let built =
                    ClusteredStore::build(corpus.embeddings(), &built_cfg.with_codec(codec))
                        .unwrap();
                for (variant, store) in store_variants(built, &corpus) {
                    let n = store.num_clusters();
                    let nlists: Vec<usize> = (0..n).map(|c| store.shard(c).nlist()).collect();
                    for allocation in [ProbeAllocation::Pooled, ProbeAllocation::PerShard] {
                        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 4, 24))] {
                            let mut cfg = store.config().with_probe_allocation(allocation);
                            cfg.adaptive = adaptive;
                            let ctx = format!("{codec:?}/{variant}/{allocation:?}/{adaptive:?}");
                            let outs = nearest_lists_paths_equal(&store, &cfg, &qs, &ctx)?;
                            let engine = Engine::new(&store, &cfg);
                            for (q, out) in qs.iter().zip(&outs) {
                                let route = engine.route(q).unwrap();
                                prop_assert_eq!(
                                    route.cost.scanned_codes,
                                    nlists.iter().sum::<usize>()
                                );
                                prop_assert_eq!(&route.ranked_clusters, &out.ranked_clusters);
                                if allocation == ProbeAllocation::PerShard {
                                    continue;
                                }
                                // The prefix: every searched shard holds a
                                // chosen list (the oracle checks no other
                                // shard does).
                                prop_assert!(out.stats.per_shard_probed().all(|l| l > 0), "{ctx}");
                                let (m, deep_nprobe) = match adaptive {
                                    None => (m, cfg.deep_nprobe),
                                    Some(a) => {
                                        let choice =
                                            DifficultyEstimator::new(a).depth(&route.ranked_scores);
                                        (choice.clusters, choice.deep_nprobe)
                                    }
                                };
                                prop_assert_eq!(out.stats.deep_nprobe, deep_nprobe);
                                let share = |c: &usize| deep_nprobe.min(nlists[*c]);
                                let leaders = &route.ranked_clusters[..m.min(n)];
                                let budget = share(&leaders[0])
                                    + leaders[1..]
                                        .iter()
                                        .map(|c| share(c).div_ceil(2))
                                        .sum::<usize>();
                                let probed: usize = out.stats.per_shard_probed().sum();
                                prop_assert!(
                                    probed == budget,
                                    "{ctx}: {probed} lists, budget {budget}"
                                );
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// A distance tie exactly at the nearest-lists cut, between shards ranked
/// the other way round. Each shard holds three points, one list each:
/// shard 1's nearest is nearer (1 against 4), so it ranks first, and the
/// two shards tie, to the bit, at 9 and at 25. The budget is 3 + 2 = 5 of
/// 6 pairs, which cuts the pair at 25 in two: the tie goes to the lower
/// cluster id, not the better rank — shard 0 probes all three lists and
/// the leader two, whatever else is in the batch and at every width.
#[test]
fn a_nearest_lists_tie_at_the_cut_goes_to_the_lower_cluster_id() {
    // Round robin: even rows to shard 0, odd rows to shard 1.
    let rows = [
        [2.0f32, 0.0],
        [1.0, 0.0],
        [-3.0, 0.0],
        [0.0, 3.0],
        [0.0, -5.0],
        [5.0, 0.0],
    ];
    let rows: Vec<Vec<f32>> = rows.iter().map(|r| r.to_vec()).collect();
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(2)
        .with_k(2)
        .with_codec(CodecSpec::Flat)
        .with_split(SplitStrategy::RoundRobin);
    let store = ClusteredStore::build(&Mat::from_rows(&rows), &cfg).unwrap();
    let query = vec![0.0f32, 0.0];
    let distances = |c: usize| {
        let mut d: Vec<f32> = query_keys(store.shard(c), &query)
            .iter()
            .map(|&k| probe_key_squared_distance(k))
            .collect();
        d.sort_by(f32::total_cmp);
        d
    };
    assert_eq!(distances(0), [4.0, 9.0, 25.0]);
    assert_eq!(distances(1), [1.0, 9.0, 25.0]);

    let want = nearest_lists_search(&store, &cfg, &query);
    assert_eq!(want.ranked_clusters, [1, 0], "the nearer list ranks first");
    assert_eq!(want.stats.per_shard_probed().collect::<Vec<_>>(), [2, 3]);
    let others: Vec<Vec<f32>> = rows.iter().map(|r| vec![r[1] + 0.5, r[0]]).collect();
    let engine = Engine::for_store(&store);
    for &threads in THREADS {
        assert_eq!(
            engine.execute_coalesced(&[&query[..]], threads).unwrap()[0],
            want
        );
        let mut batch = others.clone();
        batch.insert(3, query.clone());
        assert_eq!(engine.execute_coalesced(&batch, threads).unwrap()[3], want);
        assert_eq!(engine.execute_batch(&batch, threads).unwrap()[3], want);
    }
}

/// One query's coarse keys in `shard`, one per list in list order.
fn query_keys(shard: &IvfIndex, query: &[f32]) -> Vec<u64> {
    let mut keys = CoarseKeys::default();
    shard.coarse_keys([query].into_iter(), &mut keys);
    keys.query(0).unwrap().to_vec()
}
