//! Cache-fronted serving backend: the [`SemanticCache`] wired between
//! the dispatch loop and the engine.
//!
//! [`CachedBackend`] wraps a [`GenerationCell`] the way
//! [`GenerationBackend`](crate::GenerationBackend) does, but consults a
//! [`SemanticCache`] of [`SearchOutcome`]s before touching any shard.
//! One dispatched batch flows through three phases:
//!
//! 1. **Exact phase** — every query is probed by bit pattern. Hits are
//!    answered immediately: zero routing, zero scatter.
//! 2. **Semantic phase** — the remaining queries are routed once
//!    ([`Engine::route_batch`]); each route's top cluster buckets a
//!    near-duplicate lookup. Hits return the stored query's outcome.
//! 3. **Compute phase** — true misses reuse their phase-2 routes via
//!    [`Engine::execute_coalesced_routed`] (the route stage is never
//!    paid twice), and every fresh outcome is inserted for the next
//!    batch.
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

use std::sync::{Arc, Mutex, MutexGuard};

use hermes_cache::{CacheConfig, CacheStats, SemanticCache};
use hermes_core::exec::Engine;
use hermes_core::search::SearchOutcome;
use hermes_core::HermesError;
use hermes_obs::{CachePath, Phase, PhaseNs};
use hermes_trace::names;

use crate::batch::coalesce_groups;
use crate::generation::GenerationCell;
use crate::request::Request;
use crate::server::{Backend, BatchOutcome};

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
        self.lock_cache().stats()
    }

    /// The cache, whatever happened to an earlier holder of its lock. A
    /// panic under the lock may have stopped an update half-way, but the
    /// contents are only ever a shortcut to what the engine recomputes:
    /// empty them (accounting kept) and serve on, instead of failing
    /// every later request on the poison flag.
    fn lock_cache(&self) -> MutexGuard<'_, SemanticCache<SearchOutcome>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            cache.clear();
            self.cache.clear_poison();
            cache
        })
    }
}

impl Backend for CachedBackend {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let mut sp = hermes_trace::span_with(names::CACHE_BATCH, &[("queries", batch.len() as u64)]);
        let store = self.cell.current();
        let version = self.cell.version();
        let engine = Engine::for_store(&store);
        let queries: Vec<Vec<f32>> = batch.iter().map(|r| r.query.clone()).collect();
        let mut phases = PhaseNs::new();
        let mut cache_paths = vec![CachePath::Computed; queries.len()];
        let t0 = hermes_trace::now_ns();

        let mut slots: Vec<Option<SearchOutcome>> = vec![None; queries.len()];
        let mut cache = self.lock_cache();

        // Phase 1: exact bit-pattern hits.
        for (slot, q) in slots.iter_mut().zip(&queries) {
            *slot = cache.lookup_exact(q, version).cloned();
        }
        for (path, slot) in cache_paths.iter_mut().zip(&slots) {
            if slot.is_some() {
                *path = CachePath::ExactHit;
            }
        }
        let t_exact = hermes_trace::now_ns();
        phases.add(Phase::CacheProbe, t_exact.saturating_sub(t0));
        let missed: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();

        // Phase 2+3: route the misses once; the route both buckets the
        // semantic lookup and feeds the coalesced scatter of what's left.
        let mut executed_searched: Vec<Vec<usize>> = Vec::new();
        if !missed.is_empty() {
            let miss_queries: Vec<Vec<f32>> = missed.iter().map(|&i| queries[i].clone()).collect();
            let routes = engine.route_batch(&miss_queries, self.threads)?;
            let t_route = hermes_trace::now_ns();
            phases.add(Phase::Route, t_route.saturating_sub(t_exact));
            let mut compute: Vec<(usize, Vec<f32>)> = Vec::new();
            let mut compute_routes = Vec::new();
            for ((&i, q), route) in missed.iter().zip(miss_queries).zip(routes) {
                match cache.lookup_semantic(&q, route.top_cluster(), version) {
                    Some(hit) => {
                        slots[i] = Some(hit.payload);
                        cache_paths[i] = CachePath::SemanticHit;
                    }
                    None => {
                        compute.push((i, q));
                        compute_routes.push(route);
                    }
                }
            }
            let t_semantic = hermes_trace::now_ns();
            phases.add(Phase::CacheProbe, t_semantic.saturating_sub(t_route));
            if !compute.is_empty() {
                let compute_queries: Vec<Vec<f32>> =
                    compute.iter().map(|(_, q)| q.clone()).collect();
                let outcomes = engine.execute_coalesced_routed(
                    &compute_queries,
                    compute_routes,
                    self.threads,
                )?;
                for ((i, q), outcome) in compute.into_iter().zip(outcomes) {
                    let bucket = outcome.ranked_clusters.first().copied();
                    cache.insert(q, bucket, version, outcome.clone());
                    executed_searched.push(outcome.searched_clusters.clone());
                    slots[i] = Some(outcome);
                }
                phases.add(Phase::Deep, hermes_trace::now_ns().saturating_sub(t_semantic));
            }
        }
        let stats = cache.stats();
        drop(cache);
        let service_ns = hermes_trace::now_ns().saturating_sub(t0);

        let outcomes: Vec<SearchOutcome> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled by a hit or a computation"))
            .collect();
        // Coalescing accounting covers only the work actually executed —
        // cache hits touched no shard.
        let plan = coalesce_groups(&executed_searched);
        sp.arg("hits", stats.hits());
        sp.arg("computed", executed_searched.len() as u64);
        Ok(BatchOutcome {
            outcomes,
            service_ns,
            distinct_clusters: plan.distinct_clusters,
            shared_visits: plan.shared_visits(),
            phases,
            cache_paths,
        })
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
        let reference = Engine::for_store(&store).execute_batch(&queries, 1).unwrap();
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
