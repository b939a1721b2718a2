//! Unified front over the retrieval strategies the paper compares.

use hermes_core::{ClusteredStore, HermesConfig, HermesError, Routing, SplitStrategy};
use hermes_index::{IvfIndex, SearchParams, VectorIndex};
use hermes_math::{Mat, Neighbor};

/// Which search strategy a [`Retriever`] runs (the four curves of
/// Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrieverKind {
    /// Single IVF index over the whole datastore.
    Monolithic,
    /// Round-robin split searched without routing (deep search on the
    /// first `clusters_to_search` clusters).
    NaiveSplit,
    /// K-means split routed by split-centroid similarity.
    CentroidRouted,
    /// K-means split routed by document sampling — Hermes proper.
    Hermes,
}

impl std::fmt::Display for RetrieverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RetrieverKind::Monolithic => "Monolithic",
            RetrieverKind::NaiveSplit => "Split",
            RetrieverKind::CentroidRouted => "Centroid-Based",
            RetrieverKind::Hermes => "Hermes",
        };
        f.write_str(s)
    }
}

/// Result of one retrieval call with work accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieval {
    /// Top-k hits, best first.
    pub hits: Vec<Neighbor>,
    /// Vector codes scored to produce them, all stages included.
    pub scanned_codes: usize,
    /// The route-stage share of `scanned_codes` (sampling or centroid
    /// ranking; 0 for monolithic and unrouted strategies).
    pub route_codes: usize,
}

enum Backend {
    Monolithic(Box<IvfIndex>),
    Clustered(Box<ClusteredStore>),
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Monolithic(_) => f.write_str("Backend::Monolithic"),
            Backend::Clustered(_) => f.write_str("Backend::Clustered"),
        }
    }
}

/// A retrieval strategy instantiated over a concrete corpus.
///
/// # Examples
///
/// ```
/// use hermes_core::HermesConfig;
/// use hermes_math::Mat;
/// use hermes_rag::{Retriever, RetrieverKind};
///
/// let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![(i % 4) as f32, 1.0]).collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(4).with_clusters_to_search(2);
/// let retriever = Retriever::build(RetrieverKind::Hermes, &data, &cfg)?;
/// let r = retriever.retrieve(&[1.0, 1.0])?;
/// assert_eq!(r.hits.len(), cfg.k);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug)]
pub struct Retriever {
    kind: RetrieverKind,
    config: HermesConfig,
    backend: Backend,
}

impl Retriever {
    /// Builds a retriever of `kind` over `data`. The `config` supplies
    /// every knob (cluster count, nProbes, k, codec, metric, seed); kinds
    /// that ignore a knob (e.g. monolithic ignores cluster count) simply
    /// don't read it.
    ///
    /// # Errors
    ///
    /// Propagates configuration and index-build failures.
    pub fn build(
        kind: RetrieverKind,
        data: &Mat,
        config: &HermesConfig,
    ) -> Result<Self, HermesError> {
        let backend = match kind {
            RetrieverKind::Monolithic => {
                let index = IvfIndex::builder()
                    .codec(config.codec)
                    .metric(config.metric)
                    .seed(config.seed)
                    .build(data)?;
                Backend::Monolithic(Box::new(index))
            }
            RetrieverKind::NaiveSplit => {
                let cfg = config
                    .with_split(SplitStrategy::RoundRobin)
                    .with_routing(Routing::Unranked);
                Backend::Clustered(Box::new(ClusteredStore::build(data, &cfg)?))
            }
            RetrieverKind::CentroidRouted => {
                let cfg = config.with_routing(Routing::CentroidOnly);
                Backend::Clustered(Box::new(ClusteredStore::build(data, &cfg)?))
            }
            RetrieverKind::Hermes => {
                let cfg = config.with_routing(Routing::DocumentSampling);
                Backend::Clustered(Box::new(ClusteredStore::build(data, &cfg)?))
            }
        };
        Ok(Retriever {
            kind,
            config: *config,
            backend,
        })
    }

    /// The strategy this retriever runs.
    pub fn kind(&self) -> RetrieverKind {
        self.kind
    }

    /// The configuration it was built with.
    pub fn config(&self) -> &HermesConfig {
        &self.config
    }

    /// The embedding dimensionality served.
    pub fn dim(&self) -> usize {
        match &self.backend {
            Backend::Monolithic(index) => index.dim(),
            Backend::Clustered(store) => store.shard(0).dim(),
        }
    }

    /// Resident index bytes.
    pub fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Monolithic(index) => index.memory_bytes(),
            Backend::Clustered(store) => store.memory_bytes(),
        }
    }

    /// Retrieves the configured top-k for `query`.
    ///
    /// When telemetry is enabled, the call is wrapped in a
    /// `rag.retrieve` span whose end event carries the same
    /// `route_codes` / `scanned_codes` accounting as the returned
    /// [`Retrieval`] — the end-to-end latency envelope the per-stage
    /// engine spans nest under.
    ///
    /// # Errors
    ///
    /// Propagates index errors (dimension mismatch, empty index).
    pub fn retrieve(&self, query: &[f32]) -> Result<Retrieval, HermesError> {
        let mut sp = hermes_trace::span(hermes_trace::names::RAG_RETRIEVE);
        let out = self.retrieve_inner(query)?;
        sp.arg("route_codes", out.route_codes as u64);
        sp.arg("scanned_codes", out.scanned_codes as u64);
        Ok(out)
    }

    fn retrieve_inner(&self, query: &[f32]) -> Result<Retrieval, HermesError> {
        match &self.backend {
            Backend::Monolithic(index) => {
                let params = SearchParams::new().with_nprobe(self.config.deep_nprobe);
                // The scan reports its own work — no second pass over the
                // coarse quantizer to price it.
                let (hits, stats) = index.search_with_stats(query, self.config.k, &params)?;
                Ok(Retrieval {
                    hits,
                    scanned_codes: stats.scanned_codes,
                    route_codes: 0,
                })
            }
            Backend::Clustered(store) => {
                let out = store.hierarchical_search(query)?;
                Ok(Retrieval {
                    scanned_codes: out.total_scanned_codes(),
                    route_codes: out.sample_cost().scanned_codes,
                    hits: out.hits,
                })
            }
        }
    }

    /// Reranks hits by exact inner product against `query` and returns the
    /// single best chunk id — the paper prepends the nearest of the 5
    /// retrieved chunks (Section 5). Hits already carry inner-product
    /// scores, so this selects the max; exposed for clarity at the
    /// pipeline layer.
    pub fn best_of(hits: &[Neighbor]) -> Option<u64> {
        hits.iter()
            .max_by(|a, b| {
                a.score
                    .partial_cmp(&b.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
    use hermes_index::FlatIndex;
    use hermes_metrics::{ndcg_at_k, ranking::ids};

    fn setup() -> (Corpus, QuerySet, HermesConfig) {
        let corpus = Corpus::generate(CorpusSpec::new(800, 16, 8).with_seed(2));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(20).with_seed(3));
        let cfg = HermesConfig::new(8).with_seed(4).with_clusters_to_search(3);
        (corpus, queries, cfg)
    }

    #[test]
    fn all_kinds_build_and_retrieve() {
        let (corpus, queries, cfg) = setup();
        for kind in [
            RetrieverKind::Monolithic,
            RetrieverKind::NaiveSplit,
            RetrieverKind::CentroidRouted,
            RetrieverKind::Hermes,
        ] {
            let r = Retriever::build(kind, corpus.embeddings(), &cfg).unwrap();
            let out = r.retrieve(queries.embeddings().row(0)).unwrap();
            assert_eq!(out.hits.len(), cfg.k, "{kind}");
            assert!(out.scanned_codes > 0, "{kind}");
            assert!(out.route_codes <= out.scanned_codes, "{kind}");
        }
    }

    #[test]
    fn route_codes_reflect_routing_strategy() {
        let (corpus, queries, cfg) = setup();
        let q = queries.embeddings().row(1);
        let mono = Retriever::build(RetrieverKind::Monolithic, corpus.embeddings(), &cfg).unwrap();
        assert_eq!(mono.retrieve(q).unwrap().route_codes, 0);
        let split = Retriever::build(RetrieverKind::NaiveSplit, corpus.embeddings(), &cfg).unwrap();
        assert_eq!(split.retrieve(q).unwrap().route_codes, 0);
        // Centroid routing scores exactly one vector per cluster.
        let centroid =
            Retriever::build(RetrieverKind::CentroidRouted, corpus.embeddings(), &cfg).unwrap();
        assert_eq!(centroid.retrieve(q).unwrap().route_codes, 8);
        // Document sampling probes real lists, so it costs more than that.
        let hermes = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &cfg).unwrap();
        assert!(hermes.retrieve(q).unwrap().route_codes > 8);
    }

    #[test]
    fn hermes_scans_fewer_codes_than_monolithic() {
        let (corpus, queries, cfg) = setup();
        let mono = Retriever::build(RetrieverKind::Monolithic, corpus.embeddings(), &cfg).unwrap();
        let hermes = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &cfg).unwrap();
        let mut mono_codes = 0usize;
        let mut hermes_codes = 0usize;
        for q in queries.embeddings().iter_rows() {
            mono_codes += mono.retrieve(q).unwrap().scanned_codes;
            hermes_codes += hermes.retrieve(q).unwrap().scanned_codes;
        }
        assert!(
            hermes_codes < mono_codes,
            "hermes {hermes_codes} vs mono {mono_codes}"
        );
    }

    #[test]
    fn quality_ordering_matches_figure_11() {
        let (corpus, queries, cfg) = setup();
        let flat = FlatIndex::new(corpus.embeddings().clone(), cfg.metric);
        let mut ndcg = std::collections::HashMap::new();
        for kind in [
            RetrieverKind::Monolithic,
            RetrieverKind::NaiveSplit,
            RetrieverKind::Hermes,
        ] {
            let r = Retriever::build(kind, corpus.embeddings(), &cfg).unwrap();
            let mut sum = 0.0;
            for q in queries.embeddings().iter_rows() {
                let truth = ids(&flat.search(q, cfg.k, &SearchParams::new()).unwrap());
                sum += ndcg_at_k(&truth, &ids(&r.retrieve(q).unwrap().hits), cfg.k);
            }
            ndcg.insert(format!("{kind}"), sum / queries.len() as f64);
        }
        let h = ndcg["Hermes"];
        let s = ndcg["Split"];
        let m = ndcg["Monolithic"];
        assert!(h > s, "hermes {h} vs split {s}");
        assert!(h > m - 0.1, "hermes {h} should be near monolithic {m}");
    }

    #[test]
    fn best_of_picks_highest_score() {
        let hits = vec![
            Neighbor::new(1, 0.2),
            Neighbor::new(2, 0.9),
            Neighbor::new(3, 0.5),
        ];
        assert_eq!(Retriever::best_of(&hits), Some(2));
        assert_eq!(Retriever::best_of(&[]), None);
    }

    #[test]
    fn memory_is_reported_for_both_backends() {
        let (corpus, _, cfg) = setup();
        let mono = Retriever::build(RetrieverKind::Monolithic, corpus.embeddings(), &cfg).unwrap();
        let hermes = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &cfg).unwrap();
        assert!(mono.memory_bytes() > 0);
        assert!(hermes.memory_bytes() > 0);
    }
}
