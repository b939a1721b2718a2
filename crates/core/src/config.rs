//! Hermes configuration — the tunable parameters of the paper's Table 2,
//! plus the two query-time policies this repo adds on top of them: the
//! per-query depth choice ([`AdaptiveConfig`]) and how the deep stage's
//! probes are spread over a query's routed shards ([`ProbeAllocation`]:
//! the paper's `deep_nprobe` in every shard, or — the default — one
//! budget of `(m + 1) / 2` shares of `deep_nprobe` per query, spent on
//! the nearest `(shard, list)` pairs wherever they are). Neither changes
//! what a built store contains, so neither is persisted with it. The
//! routing ([`Routing`]) is persisted; its default is this repo's
//! nearest-lists routing, and the paper-figure binaries pin the paper's
//! document sampling.

use hermes_math::Metric;
use hermes_quant::CodecSpec;

use crate::adaptive::AdaptiveConfig;

/// How the datastore is split into per-node clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitStrategy {
    /// K-means on document embeddings with a multi-seed imbalance sweep —
    /// the Hermes splitting procedure (Section 4.1). The fields control
    /// the sweep: how many seeds, and what fraction of documents the
    /// per-seed clustering sees.
    KMeansSweep {
        /// Number of seeds evaluated.
        seeds: u64,
        /// Subsample fraction for the sweep (the paper uses 1–2%).
        sample_fraction: f64,
    },
    /// Single-seed K-means without a sweep (ablation point).
    KMeansSingle,
    /// Round-robin assignment, giving equal-size clusters with no topical
    /// coherence — the paper's "Split" baseline.
    RoundRobin,
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::KMeansSweep {
            seeds: 8,
            sample_fraction: 0.1,
        }
    }
}

/// How clusters are ranked, and how the deep stage's lists are chosen.
///
/// The serving default is [`Routing::NearestLists`]; the paper-figure
/// binaries pin [`Routing::DocumentSampling`], the paper's design
/// (`hermes_bench::standard_config`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Document sampling: probe each cluster's index cheaply and rank by
    /// the best retrieved document — the Hermes routing (Section 4.2).
    DocumentSampling,
    /// Rank clusters by the similarity of their split centroid — the
    /// "Centroid-Based" ablation of Figure 11.
    CentroidOnly,
    /// No ranking: clusters searched in index order (the naive-split
    /// baseline's behavior when combined with `SplitStrategy::RoundRobin`).
    Unranked,
    /// Rank clusters by their nearest inverted list, and choose the deep
    /// stage's lists in the same pass. One pass over every shard's list
    /// centroids scores each `(shard, list)` pair by coarse L2 distance
    /// (all shards' centroids live in one embedding space); a shard ranks
    /// by its nearest pair, ties by cluster id, and scores the negated
    /// squared distance of it. The query's budget is
    /// [`ProbeAllocation`]'s, counted over the `clusters_to_search`
    /// first-ranked shards; under [`ProbeAllocation::Pooled`] it goes to
    /// the nearest pairs over **all** shards (ties by cluster id, then
    /// list), so `clusters_to_search` sizes the budget but does not cap
    /// how many shards the deep stage touches; under
    /// [`ProbeAllocation::PerShard`] each of those shards takes its own
    /// full share. The shards holding a chosen list are a prefix of the
    /// ranking, and the chosen lists travel to the deep stage in the
    /// route, which scans exactly them. No sample scan runs: measured on
    /// the benchmark's store this finds more of the true top-10 than
    /// sampling on as many rows (EXPERIMENTS.md, "Route from the coarse
    /// keys").
    #[default]
    NearestLists,
}

/// How the deep stage spends inverted-list probes over the `m` shards a
/// query is routed to.
///
/// Every shard's coarse centroids live in the one embedding space, so the
/// `(shard, list)` pairs of a query's routed shards have one distance
/// order. Measured on the benchmark's store the true top-10 sits
/// 68 / 18 / 7 % in the rank-1 / 2 / 3 shard and a shard at `nProbe` 128
/// still finds only 0.95 of what it holds: recall is bounded by depth
/// *in the leader*, and a fixed depth in every follower mostly streams
/// rows that cannot place (EXPERIMENTS.md, "One probe budget per query").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeAllocation {
    /// Each routed shard probes its own `deep_nprobe` nearest lists — the
    /// paper's deep stage (Section 4.2, Figures 11–12).
    PerShard,
    /// One budget per query, spent on the nearest `(shard, list)` pairs
    /// of its routed shards whichever shard they are in. The budget is
    /// `deep_nprobe` for the leader plus **half** of it (rounded up) for
    /// each further routed shard — `(m + 1) / 2` shares instead of `m`,
    /// each share capped at its shard's list count — so no number is
    /// added to tune, `m = 1` is [`ProbeAllocation::PerShard`] exactly,
    /// and a follower whose lists all lie beyond the cut is not scanned
    /// at all. Under [`Routing::NearestLists`] the same budget goes to the
    /// nearest pairs over *every* shard, so `m` sizes it without capping
    /// the shards searched. Queries routed without a ranking
    /// ([`Routing::Unranked`], `search_all_clusters`) have no leader and
    /// run per shard.
    #[default]
    Pooled,
}

/// Full Hermes configuration (Table 2: latency/accuracy, node scaling and
/// memory-efficiency knobs).
///
/// # Examples
///
/// ```
/// use hermes_core::HermesConfig;
/// let cfg = HermesConfig::new(10).with_clusters_to_search(3);
/// assert_eq!(cfg.num_clusters, 10);
/// assert_eq!(cfg.clusters_to_search, 3);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HermesConfig {
    /// Number of search indices the datastore is split into (one per
    /// node).
    pub num_clusters: usize,
    /// `nProbe` of the coarse sampling search (paper DSE optimum: 8);
    /// read only under [`Routing::DocumentSampling`].
    pub sample_nprobe: usize,
    /// `nProbe` of the in-depth search (paper DSE optimum: 128): the
    /// depth of every routed shard under [`ProbeAllocation::PerShard`],
    /// the share the query's budget is computed from under
    /// [`ProbeAllocation::Pooled`].
    pub deep_nprobe: usize,
    /// How many top-ranked clusters receive a deep search (paper: 3).
    pub clusters_to_search: usize,
    /// Documents returned per query (paper: 5).
    pub k: usize,
    /// Storage codec of every per-cluster IVF index (paper: SQ8).
    pub codec: CodecSpec,
    /// Similarity metric (the paper reranks by inner product).
    pub metric: Metric,
    /// Splitting procedure.
    pub split: SplitStrategy,
    /// Cluster-ranking procedure.
    pub routing: Routing,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-query adaptive-depth policy (`None` = the paper's fixed
    /// Table 2 knobs). A **query-time** knob: it shapes how much work
    /// each search does, never what the store contains, so persistence
    /// deliberately does not serialize it — stores loaded from disk come
    /// back with `None` and callers opt in per deployment.
    pub adaptive: Option<AdaptiveConfig>,
    /// How deep-stage probes are spread over the routed shards. A
    /// query-time knob like `adaptive`, and like it not persisted: a
    /// loaded store comes back with the default.
    pub probe_allocation: ProbeAllocation,
}

impl HermesConfig {
    /// Paper defaults for a datastore split `num_clusters` ways: sample
    /// `nProbe` 8, deep `nProbe` 128, 3 deep clusters, k = 5, SQ8 — with
    /// the deep probes pooled per query ([`ProbeAllocation::Pooled`]) and
    /// the clusters ranked by their nearest lists
    /// ([`Routing::NearestLists`]) rather than by the paper's document
    /// sampling, which the paper-figure binaries pin.
    pub fn new(num_clusters: usize) -> Self {
        HermesConfig {
            num_clusters,
            sample_nprobe: 8,
            deep_nprobe: 128,
            clusters_to_search: 3,
            k: 5,
            codec: CodecSpec::Sq8,
            metric: Metric::InnerProduct,
            split: SplitStrategy::default(),
            routing: Routing::default(),
            seed: 0,
            adaptive: None,
            probe_allocation: ProbeAllocation::default(),
        }
    }

    /// Sets the number of deep-searched clusters.
    pub fn with_clusters_to_search(mut self, m: usize) -> Self {
        self.clusters_to_search = m;
        self
    }

    /// Sets the sampling `nProbe`.
    pub fn with_sample_nprobe(mut self, nprobe: usize) -> Self {
        self.sample_nprobe = nprobe;
        self
    }

    /// Sets the deep-search `nProbe`.
    pub fn with_deep_nprobe(mut self, nprobe: usize) -> Self {
        self.deep_nprobe = nprobe;
        self
    }

    /// Sets the documents retrieved per query.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the storage codec.
    pub fn with_codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the splitting strategy.
    pub fn with_split(mut self, split: SplitStrategy) -> Self {
        self.split = split;
        self
    }

    /// Sets the routing strategy.
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-query adaptive depth (see [`AdaptiveConfig`]).
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Sets how deep-stage probes are spread over the routed shards.
    pub fn with_probe_allocation(mut self, allocation: ProbeAllocation) -> Self {
        self.probe_allocation = allocation;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HermesError::InvalidConfig`] if any count is zero,
    /// `clusters_to_search > num_clusters`, or a sweep fraction is outside
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<(), crate::HermesError> {
        use crate::HermesError::InvalidConfig;
        if self.num_clusters == 0 {
            return Err(InvalidConfig("num_clusters must be positive".into()));
        }
        if self.clusters_to_search == 0 || self.clusters_to_search > self.num_clusters {
            return Err(InvalidConfig(format!(
                "clusters_to_search {} must be in 1..={}",
                self.clusters_to_search, self.num_clusters
            )));
        }
        if self.sample_nprobe == 0 || self.deep_nprobe == 0 {
            return Err(InvalidConfig("nProbe values must be positive".into()));
        }
        if self.k == 0 {
            return Err(InvalidConfig("k must be positive".into()));
        }
        if let SplitStrategy::KMeansSweep {
            seeds,
            sample_fraction,
        } = self.split
        {
            if seeds == 0 {
                return Err(InvalidConfig("sweep needs at least one seed".into()));
            }
            if !(0.0..=1.0).contains(&sample_fraction) || sample_fraction == 0.0 {
                return Err(InvalidConfig(format!(
                    "sample_fraction {sample_fraction} must be in (0, 1]"
                )));
            }
        }
        if let Some(adaptive) = &self.adaptive {
            adaptive.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_design_points() {
        let cfg = HermesConfig::new(10);
        assert_eq!(cfg.sample_nprobe, 8);
        assert_eq!(cfg.deep_nprobe, 128);
        assert_eq!(cfg.clusters_to_search, 3);
        assert_eq!(cfg.k, 5);
        assert_eq!(cfg.codec, CodecSpec::Sq8);
        assert_eq!(cfg.probe_allocation, ProbeAllocation::Pooled);
        assert_eq!(cfg.routing, Routing::NearestLists);
        cfg.validate().unwrap();
    }

    #[test]
    fn over_searching_rejected() {
        let cfg = HermesConfig::new(4).with_clusters_to_search(5);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_values_rejected() {
        assert!(HermesConfig::new(0).validate().is_err());
        assert!(HermesConfig::new(4).with_k(0).validate().is_err());
        assert!(HermesConfig::new(4).with_sample_nprobe(0).validate().is_err());
    }

    #[test]
    fn adaptive_knobs_validated_through_config() {
        let good = HermesConfig::new(8).with_adaptive(AdaptiveConfig::new(1, 3, 16, 128));
        good.validate().unwrap();
        let inverted = HermesConfig::new(8).with_adaptive(AdaptiveConfig::new(3, 1, 16, 128));
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn bad_sweep_fraction_rejected() {
        let cfg = HermesConfig::new(4).with_split(SplitStrategy::KMeansSweep {
            seeds: 4,
            sample_fraction: 0.0,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_chain_sets_all_fields() {
        let cfg = HermesConfig::new(8)
            .with_sample_nprobe(4)
            .with_deep_nprobe(64)
            .with_clusters_to_search(2)
            .with_k(10)
            .with_metric(Metric::L2)
            .with_routing(Routing::CentroidOnly)
            .with_seed(99);
        assert_eq!(cfg.sample_nprobe, 4);
        assert_eq!(cfg.deep_nprobe, 64);
        assert_eq!(cfg.clusters_to_search, 2);
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.metric, Metric::L2);
        assert_eq!(cfg.routing, Routing::CentroidOnly);
        assert_eq!(cfg.seed, 99);
    }
}
