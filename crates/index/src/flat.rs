//! Exact brute-force index — the ground-truth oracle.

use hermes_math::{Mat, Metric, Neighbor, TopK};

use crate::{IndexError, ScanStats, SearchParams, VectorIndex};

/// Brute-force exact index over raw `f32` vectors.
///
/// Every recall and NDCG number in the evaluation harness is computed
/// against a `FlatIndex` oracle, matching the paper's use of exhaustive
/// search as ground truth (Section 5).
///
/// # Examples
///
/// ```
/// use hermes_math::{Mat, Metric};
/// use hermes_index::{FlatIndex, SearchParams, VectorIndex};
///
/// let data = Mat::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![5.0, 5.0]]);
/// let index = FlatIndex::new(data, Metric::L2);
/// let hits = index.search(&[0.9, 0.9], 1, &SearchParams::new())?;
/// assert_eq!(hits[0].id, 1);
/// # Ok::<(), hermes_index::IndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: Mat,
    ids: Vec<u64>,
    metric: Metric,
}

impl FlatIndex {
    /// Wraps a vector set with implicit ids `0..n`.
    pub fn new(data: Mat, metric: Metric) -> Self {
        let ids = (0..data.rows() as u64).collect();
        FlatIndex { data, ids, metric }
    }

    /// Wraps a vector set with caller-provided ids, one per row — say, a
    /// slice of a larger id space, as an exact oracle for a shard.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != data.rows()`.
    pub fn with_ids(data: Mat, ids: Vec<u64>, metric: Metric) -> Self {
        assert_eq!(ids.len(), data.rows(), "one id per row required");
        FlatIndex { data, ids, metric }
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn len(&self) -> usize {
        self.data.rows()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn memory_bytes(&self) -> usize {
        self.data.rows() * self.data.cols() * 4 + self.ids.len() * 8
    }

    fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        _params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ScanStats), IndexError> {
        if query.len() != self.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim(),
                got: query.len(),
            });
        }
        if self.is_empty() {
            return Err(IndexError::Empty);
        }
        // Blocked scan: score BLOCK rows at a time, then let the fused
        // compare-and-compact in `push_block` drop sub-threshold scores
        // before they ever touch the heap. Bit-identical to the old
        // per-row `similarity` + `push` loop.
        let mut top = TopK::new(k.max(1).min(self.len()));
        let dim = self.dim();
        if dim == 0 {
            // Degenerate zero-dim store: every row scores identically.
            for &id in &self.ids {
                top.push(id, self.metric.similarity(query, &[]));
            }
            let mut out = top.into_sorted_vec();
            out.truncate(k);
            return Ok((
                out,
                ScanStats {
                    scanned_codes: self.data.rows(),
                    probed_partitions: 1,
                },
            ));
        }
        let mut scores = [0.0f32; hermes_math::block::BLOCK];
        let data = self.data.as_slice();
        for (chunk, ids) in data
            .chunks(hermes_math::block::BLOCK * dim)
            .zip(self.ids.chunks(hermes_math::block::BLOCK))
        {
            let out = &mut scores[..ids.len()];
            self.metric.similarity_block(query, chunk, dim, out);
            top.push_block(ids, out);
        }
        let mut out = top.into_sorted_vec();
        out.truncate(k);
        // A flat scan scores every vector, one partition total.
        let stats = ScanStats {
            scanned_codes: self.data.rows(),
            probed_partitions: 1,
        };
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Mat {
        Mat::from_rows(&(0..n).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>())
    }

    #[test]
    fn finds_exact_neighbors_in_order() {
        let index = FlatIndex::new(grid(10), Metric::L2);
        let hits = index.search(&[4.2, 0.0], 3, &SearchParams::new()).unwrap();
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![4, 5, 3]);
    }

    #[test]
    fn k_larger_than_index_returns_all() {
        let index = FlatIndex::new(grid(3), Metric::L2);
        let hits = index.search(&[0.0, 0.0], 10, &SearchParams::new()).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn custom_ids_are_returned() {
        let index = FlatIndex::with_ids(grid(3), vec![100, 200, 300], Metric::L2);
        let hits = index.search(&[2.0, 0.0], 1, &SearchParams::new()).unwrap();
        assert_eq!(hits[0].id, 300);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let index = FlatIndex::new(grid(3), Metric::L2);
        let err = index.search(&[1.0], 1, &SearchParams::new()).unwrap_err();
        assert!(matches!(err, IndexError::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_index_is_an_error() {
        let index = FlatIndex::new(Mat::zeros(0, 2), Metric::L2);
        let err = index
            .search(&[0.0, 0.0], 1, &SearchParams::new())
            .unwrap_err();
        assert_eq!(err, IndexError::Empty);
    }

    #[test]
    fn memory_accounts_vectors_and_ids() {
        let index = FlatIndex::new(grid(10), Metric::L2);
        assert_eq!(index.memory_bytes(), 10 * 2 * 4 + 10 * 8);
    }

    #[test]
    fn batch_search_matches_single_search() {
        let index = FlatIndex::new(grid(20), Metric::L2);
        let queries: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 + 0.1, 0.0]).collect();
        let single: Vec<_> = queries
            .iter()
            .map(|q| index.search(q, 2, &SearchParams::new()).unwrap())
            .collect();
        let batched = index
            .batch_search(&queries, 2, &SearchParams::new(), 4)
            .unwrap();
        assert_eq!(single, batched);
    }
}
