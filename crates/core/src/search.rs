//! Search outcome types and the [`ClusteredStore`] convenience entry
//! points of the hierarchical search (paper Section 4.2).
//!
//! Each method lets one [`Engine`] run the store's [`HermesConfig`] (or,
//! for the exhaustive baseline, a variant of it); callers that need other
//! knobs, a fan-out cap or the two stages apart construct an [`Engine`]
//! directly.

use hermes_math::Neighbor;

use crate::config::{HermesConfig, ProbeAllocation, Routing};
use crate::exec::{Engine, SearchStats};
use crate::store::ClusteredStore;
use crate::HermesError;

/// Work performed by one search stage, in scanned codes — the quantity
/// the performance model converts to latency and joules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchPhaseCost {
    /// Vector codes scored during this stage.
    pub scanned_codes: usize,
    /// Clusters touched during this stage.
    pub clusters_touched: usize,
}

/// Outcome of one executed search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Global top-k hits, best first.
    pub hits: Vec<Neighbor>,
    /// All clusters ranked by routing score, best first.
    pub ranked_clusters: Vec<usize>,
    /// Per-stage work record, filled in by the engine as the stages ran.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The clusters that received a deep search: the prefix of
    /// `ranked_clusters` that `stats.per_shard` is aligned with.
    pub fn searched_clusters(&self) -> &[usize] {
        &self.ranked_clusters[..self.stats.per_shard.len()]
    }

    /// Route-stage (sampling/centroid-ranking) work.
    pub fn sample_cost(&self) -> SearchPhaseCost {
        self.stats.route
    }

    /// Scatter-stage (deep-search) work, summed over searched clusters.
    pub fn deep_cost(&self) -> SearchPhaseCost {
        self.stats.deep
    }

    /// Codes scanned across all stages.
    pub fn total_scanned_codes(&self) -> usize {
        self.stats.total_scanned_codes()
    }
}

impl ClusteredStore {
    /// Runs the full hierarchical search for `query` using the store's
    /// configuration (sample `nProbe`, deep `nProbe`, `clusters_to_search`,
    /// `k`). The query's per-shard samples and deep searches fan out on
    /// the shared pool (intra-query parallelism); results are
    /// bit-identical to a sequential shard loop.
    ///
    /// # Errors
    ///
    /// Propagates index errors (dimension mismatch, empty shards).
    pub fn hierarchical_search(&self, query: &[f32]) -> Result<SearchOutcome, HermesError> {
        Engine::for_store(self).execute(query)
    }

    /// Runs hierarchical searches for a whole batch on the shared
    /// work-stealing executor ([`hermes_pool::Pool::global`]): one query
    /// per steal from an atomic cursor — how the paper's retriever
    /// consumes batches, but robust to the skewed per-query cost its
    /// Zipf traces produce (static chunks strand threads; stealing does
    /// not).
    ///
    /// `threads` caps the fan-out: `0` uses the pool's full width
    /// (`HERMES_THREADS` or the machine's parallelism), `1` runs inline
    /// and sequentially, `t > 1` uses at most `t` threads. Results are
    /// bit-identical to the sequential loop for every setting, and a
    /// panicking worker re-raises its original payload on the caller.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    pub fn batch_hierarchical_search(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        Engine::for_store(self).execute_batch(queries, threads)
    }

    /// Runs the routing + deep-search for every query and returns how
    /// often each cluster was deep-searched — the access-frequency trace
    /// of Figures 13/18 and the input to the DVFS study.
    ///
    /// `threads` caps the per-query fan-out as in
    /// [`Self::batch_hierarchical_search`]; the accumulation itself is
    /// sequential in input order, so counts are deterministic for any
    /// setting.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    pub fn access_histogram(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<usize>, HermesError> {
        let mut counts = vec![0usize; self.num_clusters()];
        for out in self.batch_hierarchical_search(queries, threads)? {
            for &c in out.searched_clusters() {
                counts[c] += 1;
            }
        }
        Ok(counts)
    }

    /// Exhaustively deep-searches *all* clusters and merges — the naive
    /// distributed baseline Hermes is compared against (Figure 18): no
    /// routing, every cluster in index order at the full `deep_nprobe`,
    /// no adaptive depth.
    ///
    /// # Errors
    ///
    /// Propagates index errors.
    pub fn search_all_clusters(&self, query: &[f32]) -> Result<SearchOutcome, HermesError> {
        let exhaustive = HermesConfig {
            routing: Routing::Unranked,
            probe_allocation: ProbeAllocation::PerShard,
            clusters_to_search: self.num_clusters(),
            adaptive: None,
            ..*self.config()
        };
        Engine::new(self, &exhaustive).execute(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitStrategy;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
    use hermes_index::{FlatIndex, SearchParams, VectorIndex};
    use hermes_metrics::{ndcg_at_k, ranking::ids};
    use hermes_quant::CodecSpec;

    fn setup() -> (Corpus, QuerySet) {
        let corpus = Corpus::generate(CorpusSpec::new(1200, 24, 8).with_seed(7));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(30).with_seed(8));
        (corpus, queries)
    }

    fn truth(corpus: &Corpus, query: &[f32], k: usize) -> Vec<u64> {
        let flat = FlatIndex::new(corpus.embeddings().clone(), hermes_math::Metric::InnerProduct);
        ids(&flat.search(query, k, &SearchParams::new()).unwrap())
    }

    #[test]
    fn hierarchical_search_returns_k_hits() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8)
            .with_seed(1)
            .with_k(5)
            .with_routing(Routing::DocumentSampling);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = store
            .hierarchical_search(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out.hits.len(), 5);
        assert_eq!(out.searched_clusters().len(), 3);
        assert_eq!(out.ranked_clusters.len(), 8);
        assert!(out.sample_cost().scanned_codes > 0);
        assert!(out.deep_cost().scanned_codes > out.sample_cost().scanned_codes);
        assert_eq!(
            out.total_scanned_codes(),
            out.sample_cost().scanned_codes + out.deep_cost().scanned_codes
        );
    }

    #[test]
    fn searched_clusters_are_prefix_of_ranking() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8)
            .with_seed(1)
            .with_routing(Routing::DocumentSampling);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = store
            .hierarchical_search(queries.embeddings().row(3))
            .unwrap();
        assert_eq!(out.searched_clusters(), &out.ranked_clusters[..3]);
    }

    #[test]
    fn hermes_matches_full_search_quality_with_3_of_8_clusters() {
        // The Figure 11 headline: document-sampled routing reaches
        // iso-accuracy with a small number of deep-searched clusters.
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_codec(CodecSpec::Sq8);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let mut scores = Vec::new();
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            let got = store.hierarchical_search(q).unwrap();
            scores.push(ndcg_at_k(&t, &ids(&got.hits), 5));
        }
        let mean = hermes_metrics::ranking::mean(scores);
        assert!(mean > 0.85, "Hermes NDCG {mean}");
    }

    #[test]
    fn sampling_routing_beats_round_robin_split() {
        let (corpus, queries) = setup();
        let hermes_cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(2);
        let naive_cfg = hermes_cfg
            .with_split(SplitStrategy::RoundRobin)
            .with_routing(Routing::Unranked);
        let hermes = ClusteredStore::build(corpus.embeddings(), &hermes_cfg).unwrap();
        let naive = ClusteredStore::build(corpus.embeddings(), &naive_cfg).unwrap();
        let mut h_sum = 0.0;
        let mut n_sum = 0.0;
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            h_sum += ndcg_at_k(&t, &ids(&hermes.hierarchical_search(q).unwrap().hits), 5);
            n_sum += ndcg_at_k(&t, &ids(&naive.hierarchical_search(q).unwrap().hits), 5);
        }
        assert!(
            h_sum > n_sum * 1.2,
            "hermes {h_sum} vs naive {n_sum}: clustered routing should win clearly"
        );
    }

    #[test]
    fn document_sampling_not_worse_than_centroid_ranking() {
        let (corpus, queries) = setup();
        let base = HermesConfig::new(8).with_seed(1).with_clusters_to_search(2);
        let sampled = ClusteredStore::build(corpus.embeddings(), &base).unwrap();
        let centroid = ClusteredStore::build(
            corpus.embeddings(),
            &base.with_routing(Routing::CentroidOnly),
        )
        .unwrap();
        let mut s_sum = 0.0;
        let mut c_sum = 0.0;
        for q in queries.embeddings().iter_rows() {
            let t = truth(&corpus, q, 5);
            s_sum += ndcg_at_k(&t, &ids(&sampled.hierarchical_search(q).unwrap().hits), 5);
            c_sum += ndcg_at_k(&t, &ids(&centroid.hierarchical_search(q).unwrap().hits), 5);
        }
        assert!(s_sum >= c_sum * 0.97, "sampling {s_sum} vs centroid {c_sum}");
    }

    #[test]
    fn search_all_clusters_recovers_union_quality() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_codec(CodecSpec::Flat);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        for q in queries.embeddings().iter_rows().take(10) {
            let t = truth(&corpus, q, 5);
            let all = store.search_all_clusters(q).unwrap();
            // Full fan-out over Flat-coded shards with nprobe 128 is
            // essentially exact.
            let ndcg = ndcg_at_k(&t, &ids(&all.hits), 5);
            assert!(ndcg > 0.95, "ndcg {ndcg}");
        }
    }

    #[test]
    fn search_all_clusters_has_no_route_cost() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = store
            .search_all_clusters(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out.sample_cost(), SearchPhaseCost::default());
        assert_eq!(out.deep_cost().clusters_touched, 8);
        assert_eq!(out.searched_clusters(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn more_clusters_searched_never_reduces_ndcg_much() {
        let (corpus, queries) = setup();
        let mut prev = 0.0f64;
        for m in [1usize, 3, 8] {
            let cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(m);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let mut sum = 0.0;
            for q in queries.embeddings().iter_rows() {
                let t = truth(&corpus, q, 5);
                sum += ndcg_at_k(&t, &ids(&store.hierarchical_search(q).unwrap().hits), 5);
            }
            assert!(sum >= prev - 0.5, "m={m}: {sum} < {prev}");
            prev = sum;
        }
    }

    #[test]
    fn route_and_search_agree_on_cluster_ranking() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let q = queries.embeddings().row(5);
        let route = Engine::for_store(&store).route(q).unwrap();
        let out = store.hierarchical_search(q).unwrap();
        assert_eq!(route.ranked_clusters, out.ranked_clusters);
    }

    #[test]
    fn access_histogram_counts_deep_searches() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_routing(Routing::DocumentSampling);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .take(10)
            .map(<[f32]>::to_vec)
            .collect();
        let hist = store.access_histogram(&qs, 0).unwrap();
        assert_eq!(hist.len(), 8);
        assert_eq!(hist.iter().sum::<usize>(), 10 * 3);
    }

    #[test]
    fn batch_search_matches_sequential() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .take(8)
            .map(<[f32]>::to_vec)
            .collect();
        let sequential: Vec<_> = qs
            .iter()
            .map(|q| store.hierarchical_search(q).unwrap())
            .collect();
        // 0 = full pool width, 1 = inline, 4 = capped, 64 = oversubscribed;
        // every schedule must be bit-identical to the sequential loop.
        for threads in [0usize, 1, 4, 64] {
            let batched = store.batch_hierarchical_search(&qs, threads).unwrap();
            assert_eq!(sequential, batched, "threads={threads}");
        }
    }

    #[test]
    fn batch_search_propagates_errors() {
        let (corpus, _) = setup();
        let cfg = HermesConfig::new(4).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let bad = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
        assert!(store.batch_hierarchical_search(&bad, 2).is_err());
    }

    #[test]
    fn batch_error_is_sequential_first_error_mid_batch() {
        // One wrong-dimension query in the middle of an otherwise good
        // batch: the reported error must be the first in *input* order
        // (the 2-dim mismatch, not the later 1-dim one), matching what a
        // sequential loop raises — for every thread cap.
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(4).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let good = |i: usize| queries.embeddings().row(i).to_vec();
        let batch = vec![good(0), vec![1.0f32, 2.0], good(1), vec![3.0f32]];
        let sequential_err = batch
            .iter()
            .map(|q| store.hierarchical_search(q))
            .find_map(Result::err)
            .unwrap();
        assert!(matches!(sequential_err, HermesError::Index(_)));
        for threads in [0usize, 2, 16] {
            let batch_err = store.batch_hierarchical_search(&batch, threads).unwrap_err();
            assert_eq!(batch_err, sequential_err, "threads={threads}");
        }
    }

    #[test]
    fn access_histogram_matches_sequential_accumulation() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(8).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let qs: Vec<Vec<f32>> = queries
            .embeddings()
            .iter_rows()
            .map(<[f32]>::to_vec)
            .collect();
        let mut expected = vec![0usize; store.num_clusters()];
        for q in &qs {
            for &c in store.hierarchical_search(q).unwrap().searched_clusters() {
                expected[c] += 1;
            }
        }
        for threads in [0usize, 1, 4] {
            assert_eq!(
                store.access_histogram(&qs, threads).unwrap(),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let (corpus, _) = setup();
        let store =
            ClusteredStore::build(corpus.embeddings(), &HermesConfig::new(4).with_seed(1))
                .unwrap();
        let err = store.hierarchical_search(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, HermesError::Index(_)));
    }
}
