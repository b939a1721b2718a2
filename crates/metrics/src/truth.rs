//! Parallel brute-force ground-truth and batch-metric computation.
//!
//! The paper's NDCG oracle is an exhaustive [`FlatIndex`] scan per query
//! (Section 5) — by far the slowest part of the bench harness, since it
//! scores every stored vector for every query. Both helpers here fan out
//! on the shared work-stealing executor ([`hermes_pool::Pool::global`])
//! with deterministic, input-ordered results.
//!
//! [`FlatIndex`]: hermes_index::FlatIndex

use hermes_index::{IndexError, SearchParams, VectorIndex};
use hermes_pool::Pool;

use crate::ranking::{ids, ndcg_at_k};

/// Computes the exact top-`k` id list for every query against `oracle`
/// (normally a [`hermes_index::FlatIndex`] over the full corpus), one
/// query per steal on the global pool.
///
/// # Errors
///
/// Propagates the first per-query search error in input order.
pub fn ground_truth(
    oracle: &dyn VectorIndex,
    queries: &[Vec<f32>],
    k: usize,
) -> Result<Vec<Vec<u64>>, IndexError> {
    Pool::global().try_parallel_map(queries, |q| {
        oracle
            .search(q, k, &SearchParams::new())
            .map(|hits| ids(&hits))
    })
}

/// NDCG@k for every `(truth, retrieved)` pair, fanned out on the global
/// pool; output order matches input order.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn batch_ndcg_at_k(truth: &[Vec<u64>], retrieved: &[Vec<u64>], k: usize) -> Vec<f64> {
    assert_eq!(
        truth.len(),
        retrieved.len(),
        "one ground-truth list per retrieved list"
    );
    Pool::global().parallel_map_index(truth.len(), |i| ndcg_at_k(&truth[i], &retrieved[i], k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_index::FlatIndex;
    use hermes_math::{Mat, Metric};

    fn grid_corpus(n: usize) -> Mat {
        Mat::from_rows(
            &(0..n)
                .map(|i| vec![(i % 13) as f32, (i / 13) as f32, (i % 7) as f32])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn ground_truth_matches_sequential_oracle() {
        let data = grid_corpus(400);
        let oracle = FlatIndex::new(data.clone(), Metric::L2);
        let queries: Vec<Vec<f32>> = (0..37).map(|i| data.row(i * 10).to_vec()).collect();
        let parallel = ground_truth(&oracle, &queries, 5).unwrap();
        let sequential: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| ids(&oracle.search(q, 5, &SearchParams::new()).unwrap()))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn ground_truth_propagates_first_error_in_order() {
        let data = grid_corpus(50);
        let oracle = FlatIndex::new(data.clone(), Metric::L2);
        let queries = vec![
            data.row(0).to_vec(),
            vec![1.0, 2.0], // wrong dimension, first in input order
            data.row(1).to_vec(),
            vec![9.9], // wrong dimension, later
        ];
        let err = ground_truth(&oracle, &queries, 3).unwrap_err();
        assert_eq!(
            err,
            IndexError::DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn batch_ndcg_matches_scalar_calls() {
        let truth: Vec<Vec<u64>> = (0..25).map(|i| vec![i, i + 1, i + 2]).collect();
        let retrieved: Vec<Vec<u64>> = (0..25).map(|i| vec![i + 1, i, 99]).collect();
        let batch = batch_ndcg_at_k(&truth, &retrieved, 3);
        for i in 0..25 {
            assert_eq!(batch[i], ndcg_at_k(&truth[i], &retrieved[i], 3));
        }
    }
}
