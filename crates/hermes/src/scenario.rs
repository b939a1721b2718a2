//! One synthetic workload: corpus, queries, store and ground truth.
//!
//! The paper-figure binaries in `hermes-bench` and the `hermes` CLI build
//! every workload they measure here, so the seed rule, the query hand-off
//! and the truth oracle are decided in one place.

use hermes_core::{ClusteredStore, HermesConfig, HermesError};
use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
use hermes_index::FlatIndex;
use hermes_math::Metric;

/// A synthetic workload: a corpus and the queries drawn over its topics.
///
/// Seed rule: the corpus is generated at its spec's seed and the queries
/// at that seed + 1, whatever seed the query spec carries.
///
/// ```
/// use hermes::prelude::*;
///
/// let scenario = Scenario::new(CorpusSpec::new(500, 8, 4).with_seed(1))
///     .with_queries(QuerySpec::new(3));
/// let store = scenario.store(&HermesConfig::new(2).with_clusters_to_search(1))?;
/// let truth = scenario.truth(Metric::InnerProduct, 5);
/// assert_eq!(truth.len(), scenario.queries.len());
/// assert_eq!(store.len(), scenario.corpus.len());
/// # Ok::<(), hermes::core::HermesError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// The query vectors; empty until [`Scenario::with_queries`].
    pub queries: Vec<Vec<f32>>,
}

impl Scenario {
    /// Generates the corpus `spec` describes, at its seed, with no queries.
    pub fn new(spec: CorpusSpec) -> Self {
        Scenario {
            corpus: Corpus::generate(spec),
            queries: Vec::new(),
        }
    }

    /// Draws the scenario's queries: `spec` at the corpus seed + 1.
    pub fn with_queries(mut self, spec: QuerySpec) -> Self {
        let seed = self.corpus.spec().seed.wrapping_add(1);
        self.queries = self.query_set(spec.with_seed(seed)).to_vecs();
        self
    }

    /// A further query set over the corpus at `spec`'s own seed: the pool
    /// a query stream replays, or a second set a mixed workload appends
    /// to [`Scenario::queries`].
    pub fn query_set(&self, spec: QuerySpec) -> QuerySet {
        QuerySet::generate(&self.corpus, spec)
    }

    /// A store over the corpus, built as `config` says.
    pub fn store(&self, config: &HermesConfig) -> Result<ClusteredStore, HermesError> {
        ClusteredStore::build(self.corpus.embeddings(), config)
    }

    /// The exact top-`k` ids of every query under `metric`, from a
    /// brute-force [`FlatIndex`] scan of the corpus.
    pub fn truth(&self, metric: Metric, k: usize) -> Vec<Vec<u64>> {
        let oracle = FlatIndex::new(self.corpus.embeddings().clone(), metric);
        hermes_metrics::ground_truth(&oracle, &self.queries, k)
            .expect("queries are drawn over the corpus, so the dimensions match")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_queries_and_truth_follow_the_seed_rule() {
        let spec = CorpusSpec::new(500, 8, 4).with_seed(11);
        let query_spec = QuerySpec::new(7).with_spread(0.2);
        let s = Scenario::new(spec).with_queries(query_spec.with_seed(999));

        let corpus = Corpus::generate(spec);
        let queries = QuerySet::generate(&corpus, query_spec.with_seed(12)).to_vecs();
        let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::L2);
        let truth = hermes_metrics::ground_truth(&oracle, &queries, 3).unwrap();

        assert_eq!(
            s.corpus.embeddings().as_slice(),
            corpus.embeddings().as_slice()
        );
        assert_eq!(s.corpus.topic_of(), corpus.topic_of());
        let bits = |qs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            qs.iter()
                .map(|q| q.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&s.queries), bits(&queries));
        assert_eq!(s.truth(Metric::L2, 3), truth);
        assert!(truth.iter().all(|t| t.len() == 3));
    }

    #[test]
    fn store_is_the_directly_built_store() {
        let spec = CorpusSpec::new(600, 8, 4).with_seed(5);
        let config = HermesConfig::new(3).with_clusters_to_search(2).with_seed(6);
        let direct = ClusteredStore::build(Corpus::generate(spec).embeddings(), &config).unwrap();
        let built = Scenario::new(spec).store(&config).unwrap();
        assert_eq!(built.to_paged_bytes(), direct.to_paged_bytes());
    }
}
