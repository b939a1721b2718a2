//! Cluster-size planning: pick split sizes so retrieval hides under
//! inference (paper Figures 10 and 19).
//!
//! Because Hermes pipelines retrieval for the next stride under the
//! current stride's LLM work, the retrieval latency of one cluster only
//! needs to stay below the per-stride inference latency. The planner
//! inverts the retrieval latency model to find the largest cluster (in
//! tokens) satisfying that bound, which determines how many nodes a
//! datastore of a given size needs.

use crate::cpu::RetrievalModel;
use crate::gpu::InferenceModel;

/// Plans per-node cluster sizes for retrieval/inference overlap.
///
/// # Examples
///
/// ```
/// use hermes_perfmodel::{ClusterPlanner, InferenceModel, RetrievalModel};
///
/// let planner = ClusterPlanner::new(RetrievalModel::default(), InferenceModel::default());
/// let tokens = planner.max_cluster_tokens(128, 128, 512, 16);
/// assert!(tokens > 1_000_000_000, "{tokens}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlanner {
    retrieval: RetrievalModel,
    inference: InferenceModel,
}

impl ClusterPlanner {
    /// Builds a planner over the given device models.
    pub fn new(retrieval: RetrievalModel, inference: InferenceModel) -> Self {
        ClusterPlanner {
            retrieval,
            inference,
        }
    }

    /// Per-stride inference latency available to hide retrieval: decoding
    /// `stride` tokens for the batch (prefill happens once and is excluded,
    /// making the bound conservative mid-generation).
    pub fn stride_budget_s(&self, batch: usize, stride: u32) -> f64 {
        self.inference.decode_latency(batch, stride)
    }

    /// Largest per-cluster token count whose deep search (at `nprobe`)
    /// still hides under the per-stride decode latency. `input_tokens`
    /// contributes nothing mid-stride but is kept for the Figure 19 sweep,
    /// where longer inputs raise per-stride latency via re-prefill of
    /// grown context (modeled as a 10% surcharge per 512 input tokens).
    pub fn max_cluster_tokens(
        &self,
        batch: usize,
        nprobe: usize,
        input_tokens: u32,
        stride: u32,
    ) -> u64 {
        let surcharge = 1.0 + 0.1 * (input_tokens as f64 / 512.0);
        let budget = self.stride_budget_s(batch, stride) * surcharge;
        self.invert_latency(batch, nprobe, budget)
    }

    /// Number of nodes needed to serve `total_tokens` with retrieval fully
    /// hidden (at least one).
    pub fn nodes_required(
        &self,
        total_tokens: u64,
        batch: usize,
        nprobe: usize,
        input_tokens: u32,
        stride: u32,
    ) -> usize {
        let per = self
            .max_cluster_tokens(batch, nprobe, input_tokens, stride)
            .max(1);
        total_tokens.div_ceil(per).max(1) as usize
    }

    /// Retrieval latency minus the stride budget — the paper's "pipeline
    /// gap" (Figure 10); positive values mean retrieval is exposed.
    pub fn pipeline_gap_s(
        &self,
        cluster_tokens: u64,
        batch: usize,
        nprobe: usize,
        stride: u32,
    ) -> f64 {
        self.retrieval.batch_latency(cluster_tokens, batch, nprobe)
            - self.stride_budget_s(batch, stride)
    }

    fn invert_latency(&self, batch: usize, nprobe: usize, budget_s: f64) -> u64 {
        // Latency is affine increasing in tokens; binary search the bound.
        let mut lo = 0u64;
        let mut hi = 4_000_000_000_000u64; // 4T tokens upper bound
        if self.retrieval.batch_latency(hi, batch, nprobe) <= budget_s {
            return hi;
        }
        while hi - lo > 1_000_000 {
            let mid = lo + (hi - lo) / 2;
            if self.retrieval.batch_latency(mid, batch, nprobe) <= budget_s {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl Default for ClusterPlanner {
    fn default() -> Self {
        ClusterPlanner::new(RetrievalModel::default(), InferenceModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_way_split_of_100b_hides_retrieval() {
        // Figure 10's example: 100B tokens split into 10 clusters of 10B
        // keeps per-cluster search inside the inference budget at batch 128.
        let p = ClusterPlanner::default();
        let gap = p.pipeline_gap_s(10_000_000_000, 128, 128, 16);
        assert!(gap < 0.1, "gap {gap}");
    }

    #[test]
    fn monolithic_100b_does_not_hide() {
        let p = ClusterPlanner::default();
        let gap = p.pipeline_gap_s(100_000_000_000, 128, 128, 16);
        assert!(gap > 1.0, "gap {gap}");
    }

    #[test]
    fn longer_inputs_allow_larger_clusters() {
        // Figure 19: cluster size grows with input length at fixed output.
        let p = ClusterPlanner::default();
        let short = p.max_cluster_tokens(128, 128, 32, 16);
        let long = p.max_cluster_tokens(128, 128, 2048, 16);
        assert!(long > short);
    }

    #[test]
    fn max_cluster_tokens_respects_budget() {
        let p = ClusterPlanner::default();
        let tokens = p.max_cluster_tokens(128, 128, 512, 16);
        assert!(p.pipeline_gap_s(tokens, 128, 128, 16) <= 0.12);
    }

    #[test]
    fn nodes_required_covers_datastore() {
        let p = ClusterPlanner::default();
        let nodes = p.nodes_required(100_000_000_000, 128, 128, 512, 16);
        let per = p.max_cluster_tokens(128, 128, 512, 16);
        assert!(nodes as u64 * per >= 100_000_000_000);
        assert!((2..=32).contains(&nodes), "nodes {nodes}");
    }
}
