//! The Hermes core: datastore disaggregation and hierarchical search
//! (paper Section 4).
//!
//! Hermes replaces a single monolithic IVF index with a [`ClusteredStore`]
//! of `C` smaller indices, one per K-means document cluster, each sized to
//! hide its search latency under LLM inference. Queries then run the
//! two-phase [`ClusteredStore::hierarchical_search`]:
//!
//! 1. **Sample** — every cluster is probed cheaply (low `nProbe`, k = 1),
//!    retrieving one representative document per cluster.
//! 2. **Rank** — clusters are ordered by their sampled document's
//!    similarity to the query (more faithful than comparing top-level
//!    centroids, the paper's Figure 11 ablation).
//! 3. **Deep search** — only the top `m` clusters are searched in depth
//!    (high `nProbe`).
//! 4. **Rerank** — per-cluster results merge into the global top-k.
//!
//! All four steps run inside one query-execution engine
//! ([`exec::Engine`]) as two stages over a borrowed batch of queries:
//! **route** ([`exec::Engine::route_batch`], steps 1–2) ranks the clusters
//! for every query and chooses its deep lists, and **deep**
//! ([`exec::Engine::deep_batch`], steps 3–4) searches each distinct
//! routed cluster once for all the queries routed to it — fanned out on the shared work-stealing pool, so even a single
//! query (a batch of one) uses every core — then merges per-shard hits in
//! each query's rank order while folding per-stage work into
//! [`exec::SearchStats`]. The engine reads its knobs from a
//! [`HermesConfig`] — the store's own, or a caller's variant of it — and
//! the [`ClusteredStore`] methods (and the `hermes-rag` baselines built on
//! them) are thin wrappers that run the store's.
//!
//! The module split mirrors the design: [`config`] (Table 2 knobs),
//! [`store`] (splitting + per-cluster indices), [`exec`] (the
//! engine and its work accounting), [`search`] (the store-level entry
//! points).

pub mod adaptive;
pub mod config;
pub mod exec;
pub mod persist;
pub mod rebalance;
pub mod search;
pub mod store;

pub use adaptive::{AdaptiveConfig, DepthChoice, Difficulty, DifficultyEstimator};
pub use config::{HermesConfig, ProbeAllocation, Routing, SplitStrategy};
pub use exec::{Engine, RouteOutcome, SearchStats};
pub use persist::{PagedStoreReader, PersistError, PAGE_SIZE};
pub use rebalance::{RebalanceAction, RebalanceConfig, Rebalancer};
pub use search::{SearchOutcome, SearchPhaseCost};
pub use store::{ClusterInfo, ClusteredStore};

/// Errors from store construction and search.
#[derive(Debug, Clone, PartialEq)]
pub enum HermesError {
    /// Underlying index failure.
    Index(hermes_index::IndexError),
    /// Invalid configuration value.
    InvalidConfig(String),
}

impl std::fmt::Display for HermesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HermesError::Index(e) => write!(f, "index error: {e}"),
            HermesError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for HermesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HermesError::Index(e) => Some(e),
            HermesError::InvalidConfig(_) => None,
        }
    }
}

impl From<hermes_index::IndexError> for HermesError {
    fn from(e: hermes_index::IndexError) -> Self {
        HermesError::Index(e)
    }
}
