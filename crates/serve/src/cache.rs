//! Cache-fronted serving backend: the [`SemanticCache`] wired between
//! the dispatch loop and the engine.
//!
//! [`CachedBackend`] resolves a [`GenerationCell`] the way
//! [`GenerationBackend`](crate::GenerationBackend) does and hands the
//! shared serving pipeline (`server::dispatch`) a [`SemanticCache`] of
//! [`SearchOutcome`]s to consult before it touches any shard:
//!
//! 1. **Exact probe** — every query is probed by bit pattern. Hits are
//!    answered immediately: zero routing, zero scatter.
//! 2. **Semantic probe** — the remaining queries are routed once; each
//!    route's top cluster buckets a near-duplicate lookup. Hits return
//!    the stored query's outcome.
//! 3. **Compute** — true misses are deep-searched on the routes already
//!    paid for, and every fresh outcome is inserted for the next batch.
//!
//! **Invalidation:** entries are stamped with
//! [`GenerationCell::version`], which counts *every* publish — swaps
//! *and* in-place churn mutations. A lookup from any other version
//! evicts the entry and recomputes, so a generation swap can never serve
//! a pre-swap result (`tests/adaptive_cache_equivalence.rs` pins this).
//!
//! **Exactness:** an exact hit is byte-for-byte the outcome the engine
//! produced at the same version — recomputing it now would produce the
//! same bits (the engine is deterministic). A semantic hit is exact *for
//! the stored query*; serving it for a probe within `1 − threshold`
//! cosine is the layer's explicit approximation, disabled entirely by
//! [`CacheConfig::exact_only`].
//!
//! **Poisoning:** the cache is locked through
//! [`hermes_cache::lock_recovering`], so a panic under the lock costs the
//! cached entries, never a later request.

use std::sync::{Arc, Mutex};

use hermes_cache::{lock_recovering, CacheConfig, CacheStats, SemanticCache};
use hermes_core::exec::Engine;
use hermes_core::search::SearchOutcome;
use hermes_core::HermesError;
use hermes_obs::CachePath;
use hermes_trace::names;

use crate::generation::GenerationCell;
use crate::request::Request;
use crate::server::{dispatch, Backend, BatchOutcome};

/// A [`Backend`] that serves repeated and near-duplicate queries from a
/// [`SemanticCache`] and computes only the true misses.
pub struct CachedBackend {
    cell: Arc<GenerationCell>,
    threads: usize,
    cache: Mutex<SemanticCache<SearchOutcome>>,
}

impl CachedBackend {
    /// A cache of `cache_cfg` in front of whatever generation `cell`
    /// publishes at dispatch time, with inter-query fan-out `threads`
    /// (`0` = full pool, `1` = inline).
    pub fn new(cell: Arc<GenerationCell>, threads: usize, cache_cfg: CacheConfig) -> Self {
        CachedBackend {
            cell,
            threads,
            cache: Mutex::new(SemanticCache::new(cache_cfg)),
        }
    }

    /// The shared cell.
    pub fn cell(&self) -> &Arc<GenerationCell> {
        &self.cell
    }

    /// Cache accounting so far.
    pub fn cache_stats(&self) -> CacheStats {
        lock_recovering(&self.cache).stats()
    }
}

impl Backend for CachedBackend {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let mut sp =
            hermes_trace::span_with(names::CACHE_BATCH, &[("queries", batch.len() as u64)]);
        let store = self.cell.current();
        let version = self.cell.version();
        let mut cache = lock_recovering(&self.cache);
        let out = dispatch(
            &Engine::for_store(&store),
            self.threads,
            Some((&mut cache, version)),
            batch,
        )?;
        if sp.is_active() {
            let computed = out
                .cache_paths
                .iter()
                .filter(|&&p| p == CachePath::Computed);
            sp.arg("hits", cache.stats().hits());
            sp.arg("computed", computed.count() as u64);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use hermes_core::HermesConfig;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};

    fn setup() -> (Vec<Vec<f32>>, Arc<GenerationCell>) {
        let corpus = Corpus::generate(CorpusSpec::new(600, 12, 5).with_seed(91));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(92));
        let cfg = HermesConfig::new(5)
            .with_clusters_to_search(2)
            .with_seed(93);
        let store = hermes_core::ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        (queries.to_vecs(), Arc::new(GenerationCell::new(store)))
    }

    fn requests(queries: &[Vec<f32>]) -> Vec<Request> {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| Request::new(i as u64, q.clone(), Priority::Standard, 0))
            .collect()
    }

    #[test]
    fn cold_batch_matches_uncached_engine_and_warm_repeat_hits() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);

        let store = cell.current();
        let engine = Engine::for_store(&store);
        let reference = engine.execute_batch(&queries, 1).unwrap();

        let cold = backend.run(&reqs).unwrap();
        assert_eq!(cold.outcomes, reference, "cold pass computes everything");
        assert_eq!(backend.cache_stats().misses, queries.len() as u64);

        let warm = backend.run(&reqs).unwrap();
        assert_eq!(warm.outcomes, reference, "warm pass is bit-identical");
        assert_eq!(backend.cache_stats().exact_hits, queries.len() as u64);
        assert_eq!(warm.distinct_clusters, 0, "no shard was touched");
    }

    #[test]
    fn a_poisoned_cache_is_emptied_and_serving_goes_on() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);
        backend.run(&reqs).unwrap();
        let before = backend.cache_stats();

        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = backend.cache.lock().unwrap();
                panic!("poisoning the cache lock on purpose");
            })
            .join()
        });
        assert!(panicked.is_err() && backend.cache.is_poisoned());

        let store = cell.current();
        let reference = Engine::for_store(&store)
            .execute_batch(&queries, 1)
            .unwrap();
        let out = backend.run(&reqs).unwrap();
        assert_eq!(out.outcomes, reference, "served as misses, bit-identical");
        assert!(!backend.cache.is_poisoned(), "recovered on first use");
        let after = backend.cache_stats();
        assert_eq!(after.exact_hits, before.exact_hits, "the cache was emptied");
        assert_eq!(after.misses, before.misses + queries.len() as u64);
        assert_eq!(backend.run(&reqs).unwrap().outcomes, reference);
        assert_eq!(backend.cache_stats().exact_hits, queries.len() as u64);
    }

    #[test]
    fn mutation_invalidates_every_prior_entry() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let reqs = requests(&queries);
        backend.run(&reqs).unwrap();
        backend.run(&reqs).unwrap();
        assert!(backend.cache_stats().hits() > 0);

        // In-place churn (no generation bump on the store) must still
        // invalidate: version counts every publish.
        let v = cell.current().split_centroid(0).to_vec();
        cell.mutate(|st| st.insert(88_888, &v).unwrap());

        let store = cell.current();
        let engine = Engine::for_store(&store);
        let fresh = engine.execute_batch(&queries, 1).unwrap();
        let post = backend.run(&reqs).unwrap();
        assert_eq!(post.outcomes, fresh, "post-churn answers are recomputed");
        let stats = backend.cache_stats();
        assert!(stats.stale > 0, "prior entries were stale-evicted");
    }

    #[test]
    fn semantic_layer_serves_stored_outcome_for_near_duplicates() {
        let (queries, cell) = setup();
        let backend = CachedBackend::new(
            cell.clone(),
            1,
            CacheConfig::default().with_semantic_threshold(0.99),
        );
        backend.run(&requests(&queries)).unwrap();

        // Perturb each query far below the threshold distance.
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
        assert!(stats.semantic_hits > 0, "near-duplicates hit semantically");

        // Every semantic hit equals the stored query's exact outcome.
        let store = cell.current();
        let engine = Engine::for_store(&store);
        let reference = engine.execute_batch(&queries, 1).unwrap();
        for (i, (got, want)) in out.outcomes.iter().zip(&reference).enumerate() {
            if got == want {
                continue; // semantic hit: stored outcome served verbatim
            }
            // Otherwise this query missed (fell under threshold) and was
            // computed exactly for the perturbed vector.
            assert_eq!(*got, engine.execute(&near[i]).unwrap());
        }
    }
}
