//! Cluster-overlap analysis of a formed batch.
//!
//! The engine's deep stage ([`hermes_core::exec::Engine::deep_batch`])
//! turns `requests × m` deep searches into one task per *distinct*
//! cluster. This module computes the shape of that sharing for a batch:
//! which requests ride the same shard visits (connected components over
//! shared clusters) and how many shard visits coalescing saves — the
//! numbers the server's telemetry and the `ext_serving` bench report.

use std::collections::BTreeMap;

/// Sharing structure of one batch, derived from each request's routed
/// (top-m) cluster list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Connected components of requests linked by shared clusters:
    /// each group lists request indices ascending; groups are ordered by
    /// their smallest member. Requests in one group share at least one
    /// chain of overlapping shard visits; requests in different groups
    /// touch disjoint clusters.
    pub groups: Vec<Vec<usize>>,
    /// Distinct clusters across the batch — the number of scatter tasks
    /// a dispatch runs.
    pub distinct_clusters: usize,
    /// Total deep searches the batch performs (`Σ` per-request cluster
    /// counts) — the number of scatter tasks the same requests would
    /// run one at a time.
    pub total_deep_searches: usize,
}

impl BatchPlan {
    /// Shard visits saved by coalescing: `total - distinct`.
    pub fn shared_visits(&self) -> usize {
        self.total_deep_searches - self.distinct_clusters
    }
}

/// Groups batch members by cluster overlap (union–find over request
/// indices, linked through each cluster's first user). Deterministic:
/// requests are processed in index order, clusters in the given order.
pub fn coalesce_groups(searched: &[Vec<usize>]) -> BatchPlan {
    let mut parent: Vec<usize> = (0..searched.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }

    let mut first_user: BTreeMap<usize, usize> = BTreeMap::new();
    let mut total = 0usize;
    for (qi, clusters) in searched.iter().enumerate() {
        total += clusters.len();
        for &c in clusters {
            match first_user.get(&c) {
                None => {
                    first_user.insert(c, qi);
                }
                Some(&other) => {
                    let (a, b) = (find(&mut parent, qi), find(&mut parent, other));
                    if a != b {
                        // Attach the larger root to the smaller so group
                        // identity follows the earliest member.
                        let (lo, hi) = (a.min(b), a.max(b));
                        parent[hi] = lo;
                    }
                }
            }
        }
    }

    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for qi in 0..searched.len() {
        let root = find(&mut parent, qi);
        by_root.entry(root).or_default().push(qi);
    }
    BatchPlan {
        groups: by_root.into_values().collect(),
        distinct_clusters: first_user.len(),
        total_deep_searches: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_requests_form_singleton_groups() {
        let plan = coalesce_groups(&[vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(plan.groups, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(plan.distinct_clusters, 5);
        assert_eq!(plan.total_deep_searches, 5);
        assert_eq!(plan.shared_visits(), 0);
    }

    #[test]
    fn overlap_chains_merge_transitively() {
        // 0–1 share cluster 1; 1–2 share cluster 5; 3 is alone.
        let plan = coalesce_groups(&[vec![0, 1], vec![1, 5], vec![5, 9], vec![7]]);
        assert_eq!(plan.groups, vec![vec![0, 1, 2], vec![3]]);
        assert_eq!(plan.distinct_clusters, 5);
        assert_eq!(plan.total_deep_searches, 7);
        assert_eq!(plan.shared_visits(), 2);
    }

    #[test]
    fn identical_routing_collapses_to_one_group() {
        let plan = coalesce_groups(&[vec![2, 4], vec![2, 4], vec![2, 4]]);
        assert_eq!(plan.groups, vec![vec![0, 1, 2]]);
        assert_eq!(plan.distinct_clusters, 2);
        assert_eq!(plan.total_deep_searches, 6);
        assert_eq!(plan.shared_visits(), 4);
    }

    #[test]
    fn empty_batch_is_empty_plan() {
        let plan = coalesce_groups(&[]);
        assert!(plan.groups.is_empty());
        assert_eq!(plan.distinct_clusters, 0);
        assert_eq!(plan.total_deep_searches, 0);
    }
}
