//! # Hermes — RAG at scale, reproduced in Rust
//!
//! This is the facade crate of a from-scratch reproduction of *"Hermes:
//! Algorithm-System Co-design for Efficient Retrieval-Augmented Generation
//! At Scale"* (ISCA 2025). It re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `hermes-core` | datastore disaggregation + the scatter–gather query-execution engine (the contribution) |
//! | [`cache`] | `hermes-cache` | exact + near-duplicate semantic result cache with generation invalidation |
//! | [`index`] | `hermes-index` | Flat / IVF / HNSW ANN indices (FAISS substitute) |
//! | [`quant`] | `hermes-quant` | SQ8/SQ4/PQ/OPQ codecs |
//! | [`kmeans`] | `hermes-kmeans` | Lloyd's K-means + seed-swept splitting |
//! | [`datagen`] | `hermes-datagen` | synthetic corpora, queries, scale accounting |
//! | [`rag`] | `hermes-rag` | strided RAG pipeline, baselines, quality model |
//! | [`serve`] | `hermes-serve` | online serving: admission control, SLO scheduling, coalesced dynamic batching |
//! | [`perfmodel`] | `hermes-perfmodel` | calibrated CPU/GPU/LLM cost models |
//! | [`sim`] | `hermes-sim` | multi-node serving simulator |
//! | [`metrics`] | `hermes-metrics` | NDCG/recall, energy accounting, reports |
//! | [`obs`] | `hermes-obs` | per-request timelines, tail attribution, SLO burn, metrics exposition |
//! | [`trace`] | `hermes-trace` | runtime telemetry: spans, counters, Chrome trace export |
//! | [`math`] | `hermes-math` | distances, top-k, matrices, stats, RNG |
//!
//! [`scenario`] builds the synthetic workloads — corpus, queries, store,
//! ground truth — that the CLI and the paper-figure binaries measure.
//!
//! # Quickstart
//!
//! ```
//! use hermes::prelude::*;
//!
//! // 1. A corpus with topical structure (stands in for Common Crawl).
//! let corpus = Corpus::generate(CorpusSpec::new(2_000, 32, 10).with_seed(1));
//!
//! // 2. Split it into 10 clustered IVF indices, Hermes-style, ranked
//! //    at query time by document sampling (the paper's routing).
//! let config = HermesConfig::new(10)
//!     .with_clusters_to_search(3)
//!     .with_seed(2)
//!     .with_routing(Routing::DocumentSampling);
//! let store = ClusteredStore::build(corpus.embeddings(), &config)?;
//!
//! // 3. Hierarchical search: sample all clusters, deep-search the top 3.
//! let queries = QuerySet::generate(&corpus, QuerySpec::new(4).with_seed(3));
//! let outcome = store.hierarchical_search(queries.embeddings().row(0))?;
//! assert_eq!(outcome.hits.len(), config.k);
//! assert_eq!(outcome.searched_clusters().len(), 3);
//! # Ok::<(), hermes::core::HermesError>(())
//! ```

pub use hermes_cache as cache;
pub use hermes_core as core;
pub use hermes_datagen as datagen;
pub use hermes_index as index;
pub use hermes_kmeans as kmeans;
pub use hermes_math as math;
pub use hermes_metrics as metrics;
pub use hermes_obs as obs;
pub use hermes_perfmodel as perfmodel;
pub use hermes_pool as pool;
pub use hermes_quant as quant;
pub use hermes_rag as rag;
pub use hermes_serve as serve;
pub use hermes_sim as sim;
pub use hermes_trace as trace;

pub mod scenario;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use hermes_cache::{CacheConfig, CacheStats, SemanticCache};
    pub use hermes_core::{
        AdaptiveConfig, ClusteredStore, DepthChoice, DifficultyEstimator, Engine, HermesConfig,
        PagedStoreReader, PersistError, ProbeAllocation, RebalanceAction, RebalanceConfig,
        Rebalancer, Routing, SearchStats, SplitStrategy,
    };
    pub use hermes_datagen::{
        query_stream, ChunkStore, Corpus, CorpusSpec, DatastoreScale, QuerySet, QuerySpec,
        StreamKind, StreamSpec,
    };
    pub use hermes_index::{FlatIndex, HnswIndex, IvfIndex, SearchParams, VectorIndex};
    pub use hermes_math::{simd_level, Mat, Metric, Neighbor, SimdLevel};
    pub use hermes_metrics::{ndcg_at_k, recall_at_k, CostBreakdown, DepthHistogram, EnergyMeter};
    pub use hermes_obs::{
        Attribution, FlightRecorder, MetricsRegistry, ObsConfig, Observer, RequestTimeline,
        SloPolicy, SloTracker,
    };
    pub use hermes_perfmodel::{
        ClusterPlanner, CpuPlatform, EncoderModel, GpuPlatform, InferenceModel, LlmModel,
        RetrievalModel,
    };
    pub use hermes_quant::{Codec, CodecSpec};
    pub use hermes_rag::{HashEncoder, RagPipeline, Retriever, RetrieverKind};
    pub use hermes_serve::{
        CachedBackend, ClosedLoopSpec, EngineBackend, GenerationBackend, GenerationCell,
        OpenLoopSpec, Priority, Server, ServerConfig,
    };
    pub use hermes_sim::{
        Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
    };

    pub use crate::scenario::Scenario;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable() {
        #[allow(unused_imports)]
        use crate::prelude::*;
    }
}
