//! Node topology for a simulated deployment.

use hermes_datagen::ZipfSampler;
use hermes_perfmodel::{CpuPlatform, EncoderModel, InferenceModel, RetrievalModel};

/// One retrieval node hosting one cluster shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterNode {
    /// Tokens stored in this node's index.
    pub tokens: u64,
    /// Probability that a deep search lands on this cluster (Figure 13's
    /// access frequencies). Must sum to ~1 across nodes.
    pub access_freq: f64,
    /// Platform override for heterogeneous fleets; `None` uses the
    /// deployment-wide platform.
    pub platform: Option<CpuPlatform>,
}

/// A full serving deployment: retrieval nodes plus the GPU inference and
/// encoder models.
///
/// # Examples
///
/// ```
/// use hermes_sim::Deployment;
/// let d = Deployment::uniform(100_000_000_000, 10);
/// assert_eq!(d.nodes.len(), 10);
/// assert_eq!(d.total_tokens(), 100_000_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Retrieval nodes, one cluster each.
    pub nodes: Vec<ClusterNode>,
    /// Latency/power model of the CPU platform every node runs.
    pub retrieval: RetrievalModel,
    /// LLM inference model (GPU side).
    pub inference: InferenceModel,
    /// Query encoder model.
    pub encoder: EncoderModel,
}

impl Deployment {
    /// `num_nodes` equal clusters with uniform access frequencies on the
    /// default platform/models.
    pub fn uniform(total_tokens: u64, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "deployment needs nodes");
        let base = total_tokens / num_nodes as u64;
        let nodes = (0..num_nodes)
            .map(|i| ClusterNode {
                tokens: if i == num_nodes - 1 {
                    base + total_tokens % num_nodes as u64
                } else {
                    base
                },
                access_freq: 1.0 / num_nodes as f64,
                platform: None,
            })
            .collect();
        Deployment {
            nodes,
            retrieval: RetrievalModel::default(),
            inference: InferenceModel::default(),
            encoder: EncoderModel::default(),
        }
    }

    /// A skewed deployment reproducing Figure 13: cluster sizes vary up to
    /// `size_imbalance` (max/min ratio) and access frequencies follow a
    /// Zipf law with exponent `access_skew`, permuted so size and
    /// popularity are not aligned.
    pub fn skewed(
        total_tokens: u64,
        num_nodes: usize,
        size_imbalance: f64,
        access_skew: f64,
        seed: u64,
    ) -> Self {
        assert!(num_nodes > 0, "deployment needs nodes");
        assert!(size_imbalance >= 1.0, "imbalance ratio below 1");
        // Sizes interpolate linearly between min and max, then normalize.
        let min_w = 1.0;
        let max_w = size_imbalance;
        let weights: Vec<f64> = (0..num_nodes)
            .map(|i| {
                if num_nodes == 1 {
                    1.0
                } else {
                    min_w + (max_w - min_w) * i as f64 / (num_nodes - 1) as f64
                }
            })
            .collect();
        let wsum: f64 = weights.iter().sum();

        let zipf = ZipfSampler::new(num_nodes, access_skew);
        let mut freq: Vec<f64> = (0..num_nodes).map(|r| zipf.mass(r)).collect();
        // Permute popularity ranks deterministically so the largest
        // cluster is not automatically the hottest.
        {
            let mut rng = hermes_math::rng::seeded_rng(seed);
            rng.shuffle(&mut freq);
        }

        let nodes = (0..num_nodes)
            .map(|i| ClusterNode {
                tokens: (total_tokens as f64 * weights[i] / wsum) as u64,
                access_freq: freq[i],
                platform: None,
            })
            .collect();
        Deployment {
            nodes,
            retrieval: RetrievalModel::default(),
            inference: InferenceModel::default(),
            encoder: EncoderModel::default(),
        }
    }

    /// Replaces the retrieval platform on every node.
    pub fn with_platform(mut self, platform: CpuPlatform) -> Self {
        self.retrieval = RetrievalModel::new(platform);
        self
    }

    /// Replaces the inference model.
    pub fn with_inference(mut self, inference: InferenceModel) -> Self {
        self.inference = inference;
        self
    }

    /// Sets per-node access frequencies from measured deep-search traces
    /// (values are normalized to sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `freqs.len() != nodes.len()` or the frequencies sum to 0.
    pub fn with_access_freqs(mut self, freqs: &[f64]) -> Self {
        assert_eq!(freqs.len(), self.nodes.len(), "one frequency per node");
        let sum: f64 = freqs.iter().sum();
        assert!(sum > 0.0, "frequencies sum to zero");
        for (node, &f) in self.nodes.iter_mut().zip(freqs) {
            node.access_freq = f / sum;
        }
        self
    }

    /// Sets per-node access frequencies from a raw deep-search access
    /// histogram, e.g. the output of
    /// `ClusteredStore::access_histogram(queries, threads)` — the counts
    /// are normalized to frequencies summing to 1.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != nodes.len()` or the counts sum to 0.
    pub fn with_access_counts(self, counts: &[usize]) -> Self {
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        self.with_access_freqs(&freqs)
    }

    /// Builds a heterogeneous fleet: each cluster gets its own platform.
    /// Clusters are matched to platforms largest-to-fastest (greedy
    /// longest-processing-time placement), so the biggest shard lands on
    /// the quickest CPU and the deep-phase straggler is minimized.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_tokens` and `platforms` differ in length or are
    /// empty.
    pub fn heterogeneous(cluster_tokens: &[u64], platforms: &[CpuPlatform]) -> Self {
        assert!(!cluster_tokens.is_empty(), "deployment needs nodes");
        assert_eq!(
            cluster_tokens.len(),
            platforms.len(),
            "one platform per cluster"
        );
        let n = cluster_tokens.len();
        // Order clusters by size (desc) and platforms by speed (asc
        // latency factor = fastest first), then zip.
        let mut cluster_order: Vec<usize> = (0..n).collect();
        cluster_order.sort_by_key(|&i| std::cmp::Reverse(cluster_tokens[i]));
        let mut platform_order: Vec<usize> = (0..n).collect();
        platform_order.sort_by(|&a, &b| {
            platforms[a]
                .latency_factor
                .partial_cmp(&platforms[b].latency_factor)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut nodes = vec![
            ClusterNode {
                tokens: 0,
                access_freq: 1.0 / n as f64,
                platform: None,
            };
            n
        ];
        for (&ci, &pi) in cluster_order.iter().zip(&platform_order) {
            nodes[ci] = ClusterNode {
                tokens: cluster_tokens[ci],
                access_freq: 1.0 / n as f64,
                platform: Some(platforms[pi].clone()),
            };
        }
        Deployment {
            nodes,
            retrieval: RetrievalModel::default(),
            inference: InferenceModel::default(),
            encoder: EncoderModel::default(),
        }
    }

    /// The retrieval model governing `node` (its override or the
    /// deployment default).
    pub fn node_model(&self, node: usize) -> RetrievalModel {
        match &self.nodes[node].platform {
            Some(p) => RetrievalModel::new(p.clone()),
            None => self.retrieval.clone(),
        }
    }

    /// Total tokens across nodes.
    pub fn total_tokens(&self) -> u64 {
        self.nodes.iter().map(|n| n.tokens).sum()
    }

    /// Number of retrieval nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_preserves_tokens() {
        let d = Deployment::uniform(1_000_000_007, 3);
        assert_eq!(d.total_tokens(), 1_000_000_007);
        assert_eq!(d.num_nodes(), 3);
    }

    #[test]
    fn uniform_frequencies_sum_to_one() {
        let d = Deployment::uniform(1_000, 8);
        let sum: f64 = d.nodes.iter().map(|n| n.access_freq).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_deployment_matches_figure_13_shape() {
        // Figure 13: largest cluster ~2x the smallest; hottest cluster
        // accessed >2x more than the coldest.
        let d = Deployment::skewed(100_000_000_000, 10, 2.0, 0.8, 42);
        let sizes: Vec<u64> = d.nodes.iter().map(|n| n.tokens).collect();
        let ratio = *sizes.iter().max().unwrap() as f64 / *sizes.iter().min().unwrap() as f64;
        assert!((1.8..2.2).contains(&ratio), "size ratio {ratio}");
        let freqs: Vec<f64> = d.nodes.iter().map(|n| n.access_freq).collect();
        let fr =
            freqs.iter().cloned().fold(0.0, f64::max) / freqs.iter().cloned().fold(1.0, f64::min);
        assert!(fr > 2.0, "freq ratio {fr}");
    }

    #[test]
    fn with_access_freqs_normalizes() {
        let d = Deployment::uniform(100, 2).with_access_freqs(&[3.0, 1.0]);
        assert!((d.nodes[0].access_freq - 0.75).abs() < 1e-9);
        assert!((d.nodes[1].access_freq - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one frequency per node")]
    fn mismatched_freqs_rejected() {
        let _ = Deployment::uniform(100, 2).with_access_freqs(&[1.0]);
    }

    #[test]
    fn with_access_counts_matches_freqs() {
        let from_counts = Deployment::uniform(100, 3).with_access_counts(&[6, 2, 0]);
        let from_freqs = Deployment::uniform(100, 3).with_access_freqs(&[6.0, 2.0, 0.0]);
        for (a, b) in from_counts.nodes.iter().zip(&from_freqs.nodes) {
            assert_eq!(a.access_freq, b.access_freq);
        }
        assert!((from_counts.nodes[0].access_freq - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "frequencies sum to zero")]
    fn all_zero_counts_rejected() {
        let _ = Deployment::uniform(100, 2).with_access_counts(&[0, 0]);
    }

    #[test]
    fn heterogeneous_puts_biggest_cluster_on_fastest_platform() {
        let tokens = [5_000_000_000u64, 20_000_000_000, 10_000_000_000];
        let platforms = vec![
            CpuPlatform::xeon_silver_4316(), // slowest of the three
            CpuPlatform::xeon_gold_6448y(),
            CpuPlatform::xeon_platinum_8380(), // fastest
        ];
        let d = Deployment::heterogeneous(&tokens, &platforms);
        // Cluster 1 (20B, biggest) must run on the Platinum part.
        let p1 = d.nodes[1].platform.as_ref().unwrap();
        assert_eq!(p1.name, "Xeon Platinum 8380");
        // Cluster 0 (5B, smallest) gets the slowest part.
        let p0 = d.nodes[0].platform.as_ref().unwrap();
        assert_eq!(p0.name, "Xeon Silver 4316");
        assert_eq!(d.total_tokens(), 35_000_000_000);
    }

    #[test]
    fn lpt_placement_beats_worst_case_placement() {
        // Wall latency of a full fan-out is the max per-node latency;
        // size-aware placement must not be worse than the anti-placement.
        let tokens = [30_000_000_000u64, 5_000_000_000];
        let fast = CpuPlatform::xeon_platinum_8380();
        let slow = CpuPlatform::xeon_silver_4316();
        let good = Deployment::heterogeneous(&tokens, &[fast.clone(), slow.clone()]);
        let wall = |d: &Deployment| {
            (0..d.num_nodes())
                .map(|i| d.node_model(i).batch_latency(d.nodes[i].tokens, 128, 128))
                .fold(0.0f64, f64::max)
        };
        // Anti-placement: biggest cluster on the slow node.
        let mut bad = good.clone();
        bad.nodes[0].platform = Some(slow);
        bad.nodes[1].platform = Some(fast);
        assert!(wall(&good) < wall(&bad));
    }

    #[test]
    fn node_model_falls_back_to_deployment_default() {
        let d = Deployment::uniform(1_000, 2).with_platform(CpuPlatform::neoverse_n1());
        assert_eq!(d.node_model(0).platform().name, "Neoverse-N1");
    }

    #[test]
    #[should_panic(expected = "one platform per cluster")]
    fn heterogeneous_checks_lengths() {
        let _ = Deployment::heterogeneous(&[1, 2], &[CpuPlatform::xeon_gold_6448y()]);
    }
}
