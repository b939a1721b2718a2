//! Ranked-retrieval quality metrics.
//!
//! The paper evaluates retrieval quality with Normalized Discounted
//! Cumulative Gain (NDCG), using the documents returned by an exhaustive
//! brute-force search as ground truth (Section 5). Relevance is graded by
//! ground-truth rank: the true nearest neighbor has the highest grade,
//! the k-th a grade of 1, anything outside the truth list a grade of 0.

use hermes_math::Neighbor;

/// Graded relevance of `doc` given the ground-truth ranking: `k` for the
/// top hit down to `1` for the k-th, `0` for misses.
fn grade(truth: &[u64], doc: u64) -> f64 {
    match truth.iter().position(|&t| t == doc) {
        Some(rank) => (truth.len() - rank) as f64,
        None => 0.0,
    }
}

/// NDCG@k of `retrieved` against the brute-force `truth` ranking.
///
/// Returns a value in `[0, 1]`; `1.0` means the retrieved prefix is
/// exactly the ideal ordering. An empty truth list yields `1.0` (nothing
/// to get wrong), matching the convention used by the paper's scripts.
///
/// # Examples
///
/// ```
/// use hermes_metrics::ndcg_at_k;
/// let truth = [10, 11, 12];
/// assert_eq!(ndcg_at_k(&truth, &[10, 11, 12], 3), 1.0);
/// assert!(ndcg_at_k(&truth, &[12, 11, 10], 3) < 1.0);
/// assert_eq!(ndcg_at_k(&truth, &[1, 2, 3], 3), 0.0);
/// ```
pub fn ndcg_at_k(truth: &[u64], retrieved: &[u64], k: usize) -> f64 {
    if truth.is_empty() || k == 0 {
        return 1.0;
    }
    let k = k.min(truth.len());
    let dcg: f64 = retrieved
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, &doc)| grade(truth, doc) / ((i + 2) as f64).log2())
        .sum();
    // Ideal DCG: grades k, k-1, ... 1 in order.
    let idcg: f64 = (0..k)
        .map(|i| (truth.len() - i) as f64 / ((i + 2) as f64).log2())
        .sum();
    (dcg / idcg).clamp(0.0, 1.0)
}

/// Fraction of the top-`k` ground-truth documents present anywhere in
/// `retrieved` — the paper's recall metric for Table 1.
pub fn recall_at_k(truth: &[u64], retrieved: &[u64], k: usize) -> f64 {
    if truth.is_empty() || k == 0 {
        return 1.0;
    }
    let k = k.min(truth.len());
    let hits = truth[..k].iter().filter(|t| retrieved.contains(t)).count();
    hits as f64 / k as f64
}

/// Position-insensitive overlap between two top-`k` lists.
pub fn overlap_at_k(a: &[u64], b: &[u64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let ka = k.min(a.len());
    if ka == 0 {
        return 1.0;
    }
    let hits = a[..ka]
        .iter()
        .filter(|x| b[..k.min(b.len())].contains(x))
        .count();
    hits as f64 / ka as f64
}

/// Extracts the id list from search hits — adapter from index output to
/// the metric functions.
pub fn ids(hits: &[Neighbor]) -> Vec<u64> {
    hits.iter().map(|n| n.id).collect()
}

/// Mean of a metric over a query set.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_scores_one() {
        assert_eq!(ndcg_at_k(&[1, 2, 3, 4], &[1, 2, 3, 4], 4), 1.0);
    }

    #[test]
    fn reversed_ranking_scores_below_one_but_above_zero() {
        let s = ndcg_at_k(&[1, 2, 3, 4], &[4, 3, 2, 1], 4);
        assert!(s > 0.5 && s < 1.0, "{s}");
    }

    #[test]
    fn disjoint_ranking_scores_zero() {
        assert_eq!(ndcg_at_k(&[1, 2, 3], &[7, 8, 9], 3), 0.0);
    }

    #[test]
    fn swapping_top_two_hurts_more_than_bottom_two() {
        let truth = [1, 2, 3, 4];
        let top_swap = ndcg_at_k(&truth, &[2, 1, 3, 4], 4);
        let bottom_swap = ndcg_at_k(&truth, &[1, 2, 4, 3], 4);
        assert!(top_swap < bottom_swap);
    }

    #[test]
    fn ndcg_monotone_in_added_correct_results() {
        let truth = [1, 2, 3, 4, 5];
        let partial = ndcg_at_k(&truth, &[1, 2], 5);
        let fuller = ndcg_at_k(&truth, &[1, 2, 3], 5);
        assert!(fuller > partial);
    }

    #[test]
    fn empty_truth_is_vacuously_perfect() {
        assert_eq!(ndcg_at_k(&[], &[1, 2], 3), 1.0);
        assert_eq!(recall_at_k(&[], &[1], 3), 1.0);
    }

    #[test]
    fn recall_counts_membership_not_order() {
        assert_eq!(recall_at_k(&[1, 2, 3, 4], &[4, 3, 2, 1], 4), 1.0);
        assert_eq!(recall_at_k(&[1, 2, 3, 4], &[1, 2, 9, 9], 4), 0.5);
    }

    #[test]
    fn recall_limits_to_available_truth() {
        assert_eq!(recall_at_k(&[1, 2], &[1, 2], 10), 1.0);
    }

    #[test]
    fn overlap_is_symmetric_for_equal_length_lists() {
        let a = [1, 2, 3, 4];
        let b = [3, 4, 5, 6];
        assert_eq!(overlap_at_k(&a, &b, 4), overlap_at_k(&b, &a, 4));
        assert_eq!(overlap_at_k(&a, &b, 4), 0.5);
    }

    #[test]
    fn ids_extracts_in_order() {
        let hits = vec![Neighbor::new(5, 0.9), Neighbor::new(2, 0.8)];
        assert_eq!(ids(&hits), vec![5, 2]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(Vec::<f64>::new()), 0.0);
        assert_eq!(mean(vec![1.0, 2.0, 3.0]), 2.0);
    }
}
