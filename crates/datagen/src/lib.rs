//! Synthetic data generation — the stand-in for the paper's datasets.
//!
//! The paper evaluates on SPHERE (a pre-encoded Common Crawl subset) with
//! TriviaQA and Natural Questions queries. Those assets are not available
//! offline, so this crate generates workloads with the *properties the
//! Hermes mechanisms exploit*, each controlled explicitly:
//!
//! * **Topical cluster structure** ([`corpus`]): documents are drawn from
//!   a mixture of Gaussian topics, so K-means disaggregation can discover
//!   coherent partitions — the property behind Figure 11's accuracy gap
//!   between clustered and naively split datastores.
//! * **Skewed query interest** ([`query`], [`zipf`]): queries concentrate
//!   on popular topics with Zipf-like frequencies, producing the cluster
//!   access-frequency imbalance of Figure 13.
//! * **Token-scale accounting** ([`scale`]): maps datastore token counts
//!   (100M…1T) to chunk counts and index bytes so the performance model
//!   can reason about sizes no laptop can materialize.
//! * **Chunk payloads** ([`chunks`]): deterministic synthetic document
//!   chunks for the RAG augmentation step.
//! * **Arrival processes** ([`arrivals`]): seeded Poisson arrival streams
//!   shared by the queueing simulator and the serving-layer load
//!   generator, so oracle comparisons see bit-identical traces.
//! * **Temporal repetition** ([`workload`]): repeated / bursty / drifting
//!   query streams with seeded replay — the locality structure the
//!   semantic result cache exploits (and the regime that defeats it).

pub mod arrivals;
pub mod chunks;
pub mod corpus;
pub mod query;
pub mod scale;
pub mod workload;
pub mod zipf;

pub use arrivals::{poisson_arrival_times_ns, poisson_arrival_times_s};
pub use chunks::ChunkStore;
pub use corpus::{Corpus, CorpusSpec};
pub use query::{QuerySet, QuerySpec};
pub use scale::DatastoreScale;
pub use workload::{query_stream, LruModel, StreamKind, StreamSpec};
pub use zipf::ZipfSampler;
