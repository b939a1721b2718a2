//! Pins the three acceptance contracts of the adaptive-depth +
//! semantic-cache layer:
//!
//! 1. **Adaptive off ≡ fixed knobs.** A [`HermesConfig`] with `adaptive:
//!    None` is bit-identical to the pre-adaptive engine, and a *pinned*
//!    adaptive policy (floor == ceiling == the fixed knobs) is
//!    bit-identical too — across `execute`, `execute_batch`, and
//!    `execute_coalesced` at several widths. Turning the feature on
//!    without giving it headroom must change nothing.
//! 2. **Exact cache hits ≡ recomputation.** Every exact hit served by
//!    [`CachedBackend`] equals what the engine would compute for that
//!    query against the generation current at dispatch; semantic hits
//!    are bounded by the semantic-hit counter and equal the *stored*
//!    query's exact outcome.
//! 3. **Generation safety.** Neither a swap nor an in-place mutation can
//!    ever serve a pre-publish entry: post-publish answers are always
//!    recomputed against the new store.
//!
//! These are the invariants `ext_adaptive` leans on when it reports
//! scanned-code savings and cache hit rates — if any drift, the bench's
//! numbers stop being comparable to the fixed-knob baseline.

use std::sync::Arc;

use hermes::prelude::*;
use hermes::serve::{Backend, Request};

fn setup(seed: u64) -> (ClusteredStore, Vec<Vec<f32>>, HermesConfig) {
    let corpus = Corpus::generate(CorpusSpec::new(1_200, 16, 6).with_seed(seed));
    let cfg = HermesConfig::new(6)
        .with_clusters_to_search(2)
        .with_k(8)
        .with_seed(seed + 1);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let queries = QuerySet::generate(&corpus, QuerySpec::new(12).with_seed(seed + 2)).to_vecs();
    (store, queries, cfg)
}

fn requests(queries: &[Vec<f32>]) -> Vec<Request> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| Request::new(i as u64, q.clone(), Priority::Standard, 0))
        .collect()
}

/// Contract 1: `adaptive: None` and a pinned adaptive policy both
/// reproduce the fixed-knob engine bit for bit on every execution path,
/// under either probe allocation.
#[test]
fn adaptive_off_and_pinned_adaptive_match_fixed_knob_search() {
    let (store, queries, cfg) = setup(401);
    for allocation in [ProbeAllocation::Pooled, ProbeAllocation::PerShard] {
        let fixed = cfg.with_probe_allocation(allocation);
        let pinned = AdaptiveConfig::new(
            cfg.clusters_to_search,
            cfg.clusters_to_search,
            cfg.deep_nprobe,
            cfg.deep_nprobe,
        );
        let configs = [
            HermesConfig { adaptive: None, ..fixed },
            fixed.with_adaptive(pinned),
            // The difficulty band rescales *where* in [floor, ceiling] a
            // query lands; with floor == ceiling knobs it must be inert.
            fixed.with_adaptive(pinned.with_difficulty_band_permille(300, 700)),
        ];

        let baseline = Engine::new(&store, &fixed);
        let reference: Vec<_> = queries
            .iter()
            .map(|q| baseline.execute(q).unwrap())
            .collect();

        for config in &configs {
            let engine = Engine::new(&store, config);
            for (q, want) in queries.iter().zip(&reference) {
                assert_eq!(engine.execute(q).unwrap(), *want, "{allocation:?}: execute diverged");
            }
            for threads in [1, 2, 4] {
                assert_eq!(
                    engine.execute_batch(&queries, threads).unwrap(),
                    reference,
                    "{allocation:?}: execute_batch diverged at {threads} threads"
                );
                assert_eq!(
                    engine.execute_coalesced(&queries, threads).unwrap(),
                    reference,
                    "{allocation:?}: execute_coalesced diverged at {threads} threads"
                );
            }
        }
    }
}

/// Contract 1b: an adaptive policy with real headroom still returns the
/// same *depth* the estimator promises — the recorded stats are the
/// estimator's choice, never silently clamped elsewhere.
#[test]
fn adaptive_depth_equals_the_estimator_choice() {
    let (store, queries, cfg) = setup(407);
    let adaptive = AdaptiveConfig::new(1, 4, 16, cfg.deep_nprobe)
        .with_difficulty_band_permille(200, 900);
    let adaptive_cfg = cfg
        .with_adaptive(adaptive)
        .with_routing(Routing::DocumentSampling);
    let engine = Engine::new(&store, &adaptive_cfg);
    let estimator = DifficultyEstimator::new(adaptive);
    for q in &queries {
        let outcome = engine.execute(q).unwrap();
        let route = engine.route(q).unwrap();
        let choice = estimator.depth(&route.ranked_scores);
        assert_eq!(outcome.searched_clusters().len(), choice.clusters);
        assert_eq!(outcome.stats.deep_nprobe, choice.deep_nprobe);
    }
}

/// Contract 2: every exact hit is bit-identical to recomputing the query
/// against the generation current at dispatch time.
#[test]
fn exact_cache_hits_are_bit_identical_to_recomputation() {
    let (store, queries, _) = setup(411);
    let cell = Arc::new(GenerationCell::new(store));
    let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default().exact_only());
    let reqs = requests(&queries);

    backend.run(&reqs).unwrap(); // cold: fill
    let warm = backend.run(&reqs).unwrap(); // warm: all exact hits
    let stats = backend.cache_stats();
    assert_eq!(stats.exact_hits, queries.len() as u64);
    assert_eq!(stats.semantic_hits, 0, "exact_only never serves semantically");

    let current = cell.current();
    let engine = Engine::for_store(&current);
    for (q, got) in queries.iter().zip(&warm.outcomes) {
        assert_eq!(*got, engine.execute(q).unwrap(), "hit differs from recompute");
    }
}

/// Contract 2b: with the semantic layer on, divergence from per-query
/// recomputation is bounded by the semantic-hit count, and each such hit
/// equals the *stored* query's exact outcome.
#[test]
fn semantic_hits_serve_the_stored_outcome_and_are_bounded() {
    let (store, queries, _) = setup(419);
    let cell = Arc::new(GenerationCell::new(store));
    let backend = CachedBackend::new(
        cell.clone(),
        1,
        CacheConfig::default().with_semantic_threshold(0.995),
    );
    backend.run(&requests(&queries)).unwrap();

    let near: Vec<Vec<f32>> = queries
        .iter()
        .map(|q| {
            let mut v = q.clone();
            v[0] += 1e-4;
            v
        })
        .collect();
    let out = backend.run(&requests(&near)).unwrap();
    let stats = backend.cache_stats();
    assert!(stats.semantic_hits > 0, "perturbation stayed under threshold");

    let current = cell.current();
    let engine = Engine::for_store(&current);
    let mut divergent = 0u64;
    for (i, got) in out.outcomes.iter().enumerate() {
        let recompute = engine.execute(&near[i]).unwrap();
        if *got != recompute {
            divergent += 1;
            // A divergent completion must be some stored query's exact
            // outcome — the semantic layer's only approximation.
            assert_eq!(*got, engine.execute(&queries[i]).unwrap());
        }
    }
    assert!(divergent <= stats.semantic_hits, "unexplained divergence");
}

/// Contract 2c: replayed repeated-Zipf streams (`StreamSpec::repeated`)
/// hit. With the whole pool fitting in the cache, at least 30 % of the
/// requests are served from it; with the pool at four times the cache,
/// the cache evicts and its exact hits alone match or beat an
/// exact-match LRU of the same capacity on the same stream.
#[test]
fn repeated_streams_clear_the_hit_floor_and_lru_over_capacity() {
    let corpus = Corpus::generate(CorpusSpec::new(1_200, 16, 6).with_seed(437));
    let cfg = HermesConfig::new(6)
        .with_clusters_to_search(2)
        .with_k(8)
        .with_seed(438);
    let cell = Arc::new(GenerationCell::new(
        ClusteredStore::build(corpus.embeddings(), &cfg).unwrap(),
    ));
    let small = CacheConfig::default().with_capacity(16);
    for (pool_size, length, cache_cfg) in [(60, 600, CacheConfig::default()), (64, 1_000, small)] {
        let pool = QuerySet::generate(&corpus, QuerySpec::new(pool_size).with_seed(439));
        let stream = query_stream(&pool, StreamSpec::repeated(length).with_seed(440));
        let backend = CachedBackend::new(cell.clone(), 1, cache_cfg);
        for request in requests(&stream) {
            backend.run(std::slice::from_ref(&request)).unwrap();
        }
        let stats = backend.cache_stats();
        if cache_cfg.capacity >= pool_size {
            assert!(stats.hit_rate() >= 0.30, "hit rate {:.3}", stats.hit_rate());
            continue;
        }
        let mut lru = hermes::datagen::LruModel::new(cache_cfg.capacity);
        let lru_hits = stream
            .iter()
            .filter(|q| lru.request(q.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()))
            .count();
        assert!(stats.evictions > 0, "the cache never evicted");
        let exact_rate = stats.exact_hits as f64 / stats.lookups() as f64;
        let lru_rate = lru_hits as f64 / length as f64;
        assert!(
            exact_rate >= lru_rate,
            "exact hit rate {exact_rate:.4} below the LRU model's {lru_rate:.4}"
        );
    }
}

/// Contract 3: a generation swap invalidates everything — post-swap
/// batches are recomputed against the new store, never served stale.
#[test]
fn generation_swap_never_serves_a_pre_swap_entry() {
    let (store_a, queries, _) = setup(423);
    // A differently-built store over a different corpus: pre- and
    // post-swap answers genuinely differ, so staleness would be visible.
    let (store_b, _, _) = setup(431);
    let cell = Arc::new(GenerationCell::new(store_a));
    let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
    let reqs = requests(&queries);

    backend.run(&reqs).unwrap();
    backend.run(&reqs).unwrap();
    assert!(backend.cache_stats().hits() > 0, "cache warmed pre-swap");
    let pre_version = cell.version();

    cell.swap(store_b);
    assert!(cell.version() > pre_version, "swap bumps the version stamp");

    let current = cell.current();
    let engine = Engine::for_store(&current);
    let fresh = engine.execute_batch(&queries, 1).unwrap();
    let post = backend.run(&reqs).unwrap();
    assert_eq!(post.outcomes, fresh, "post-swap answers come from store B");
    assert!(backend.cache_stats().stale > 0, "old entries stale-evicted");
}

/// Contract 3b: in-place churn (no epoch bump) invalidates just the
/// same — the stamp counts every publish, not only swaps.
#[test]
fn in_place_mutation_never_serves_a_pre_publish_entry() {
    let (store, queries, _) = setup(433);
    let cell = Arc::new(GenerationCell::new(store));
    let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
    let reqs = requests(&queries);
    backend.run(&reqs).unwrap();
    backend.run(&reqs).unwrap();

    let epoch = cell.epoch();
    let v = cell.current().split_centroid(0).to_vec();
    cell.mutate(|st| st.insert(77_777, &v).unwrap());
    assert_eq!(cell.epoch(), epoch, "churn does not bump the epoch");

    let current = cell.current();
    let engine = Engine::for_store(&current);
    let fresh = engine.execute_batch(&queries, 1).unwrap();
    let post = backend.run(&reqs).unwrap();
    assert_eq!(post.outcomes, fresh, "post-churn answers are recomputed");
    assert!(backend.cache_stats().stale > 0, "old entries stale-evicted");
}
