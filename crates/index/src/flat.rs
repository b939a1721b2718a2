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
    /// Tombstone bitmap, one flag per stored row. Dead rows stay resident
    /// (and are still scored — per-row scores are position-independent,
    /// so skipping them *after* scoring keeps live-row results
    /// bit-identical) until [`VectorIndex::compact`] reclaims them.
    dead: Vec<bool>,
    dead_count: usize,
}

impl FlatIndex {
    /// Wraps a vector set with implicit ids `0..n`.
    pub fn new(data: Mat, metric: Metric) -> Self {
        let ids = (0..data.rows() as u64).collect();
        let dead = vec![false; data.rows()];
        FlatIndex {
            data,
            ids,
            metric,
            dead,
            dead_count: 0,
        }
    }

    /// Wraps a vector set with caller-provided ids, one per row — say, a
    /// slice of a larger id space, as an exact oracle for a shard.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != data.rows()`.
    pub fn with_ids(data: Mat, ids: Vec<u64>, metric: Metric) -> Self {
        assert_eq!(ids.len(), data.rows(), "one id per row required");
        let dead = vec![false; data.rows()];
        FlatIndex {
            data,
            ids,
            metric,
            dead,
            dead_count: 0,
        }
    }

    /// Borrow the underlying vectors (live and tombstoned rows).
    pub fn vectors(&self) -> &Mat {
        &self.data
    }

    /// Borrow the id table (live and tombstoned rows).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn len(&self) -> usize {
        self.data.rows() - self.dead_count
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn memory_bytes(&self) -> usize {
        // Tombstoned rows still occupy storage until compaction; the
        // bitmap itself costs one byte per row.
        self.data.rows() * self.data.cols() * 4 + self.ids.len() * 8 + self.dead.len()
    }

    fn insert(&mut self, id: u64, v: &[f32]) -> Result<(), IndexError> {
        if self.data.rows() > 0 && v.len() != self.dim() {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim(),
                got: v.len(),
            });
        }
        self.data.push_row(v);
        self.ids.push(id);
        self.dead.push(false);
        Ok(())
    }

    fn remove(&mut self, id: u64) -> bool {
        for (i, &stored) in self.ids.iter().enumerate() {
            if stored == id && !self.dead[i] {
                self.dead[i] = true;
                self.dead_count += 1;
                return true;
            }
        }
        false
    }

    fn tombstones(&self) -> usize {
        self.dead_count
    }

    fn compact(&mut self) {
        if self.dead_count == 0 {
            return;
        }
        // Rebuild dense storage preserving relative live order: per-row
        // scores depend only on the row's values, so post-compaction
        // searches stay bit-identical to the tombstoned scan.
        let cols = self.data.cols();
        let mut rows = Vec::with_capacity(self.len() * cols);
        let mut ids = Vec::with_capacity(self.len());
        for (i, row) in self.data.iter_rows().enumerate() {
            if !self.dead[i] {
                rows.extend_from_slice(row);
                ids.push(self.ids[i]);
            }
        }
        let n = ids.len();
        self.data = Mat::from_flat(n, cols, rows);
        self.ids = ids;
        self.dead = vec![false; n];
        self.dead_count = 0;
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
            for (i, &id) in self.ids.iter().enumerate() {
                if !self.dead[i] {
                    top.push(id, self.metric.similarity(query, &[]));
                }
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
        let mut live_ids = [0u64; hermes_math::block::BLOCK];
        let mut live_scores = [0.0f32; hermes_math::block::BLOCK];
        let data = self.data.as_slice();
        for ((chunk, ids), dead) in data
            .chunks(hermes_math::block::BLOCK * dim)
            .zip(self.ids.chunks(hermes_math::block::BLOCK))
            .zip(self.dead.chunks(hermes_math::block::BLOCK))
        {
            let out = &mut scores[..ids.len()];
            self.metric.similarity_block(query, chunk, dim, out);
            if self.dead_count == 0 {
                top.push_block(ids, out);
            } else {
                // Lazy tombstone skip: whole blocks are scored with the
                // unchanged kernel (per-row scores are independent), dead
                // (id, score) pairs are compacted out before admission —
                // live rows see the exact bits the dense scan produces.
                let mut n = 0usize;
                for (j, (&id, &s)) in ids.iter().zip(out.iter()).enumerate() {
                    if !dead[j] {
                        live_ids[n] = id;
                        live_scores[n] = s;
                        n += 1;
                    }
                }
                top.push_block(&live_ids[..n], &live_scores[..n]);
            }
        }
        let mut out = top.into_sorted_vec();
        out.truncate(k);
        // A flat scan scores every resident vector (tombstoned rows are
        // scored then skipped), one partition total.
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
        let err = index.search(&[0.0, 0.0], 1, &SearchParams::new()).unwrap_err();
        assert_eq!(err, IndexError::Empty);
    }

    #[test]
    fn memory_accounts_vectors_ids_and_tombstone_bitmap() {
        let index = FlatIndex::new(grid(10), Metric::L2);
        assert_eq!(index.memory_bytes(), 10 * 2 * 4 + 10 * 8 + 10);
    }

    #[test]
    fn insert_then_search_finds_new_row() {
        let mut index = FlatIndex::new(grid(5), Metric::L2);
        index.insert(99, &[100.0, 0.0]).unwrap();
        assert_eq!(index.len(), 6);
        let hits = index.search(&[100.0, 0.0], 1, &SearchParams::new()).unwrap();
        assert_eq!(hits[0].id, 99);
    }

    #[test]
    fn removed_rows_never_surface_and_live_results_are_identical() {
        let index = FlatIndex::new(grid(40), Metric::L2);
        let mut mutated = index.clone();
        assert!(mutated.remove(4));
        assert!(mutated.remove(5));
        assert!(!mutated.remove(4), "double remove must be a no-op");
        assert_eq!(mutated.len(), 38);
        assert_eq!(mutated.tombstones(), 2);
        let hits = mutated.search(&[4.2, 0.0], 3, &SearchParams::new()).unwrap();
        assert!(hits.iter().all(|h| h.id != 4 && h.id != 5));
        // Bit-identical to an index built from the surviving rows only.
        let survivors: Vec<Vec<f32>> = (0..40)
            .filter(|&i| i != 4 && i != 5)
            .map(|i| vec![i as f32, 0.0])
            .collect();
        let surviving_ids: Vec<u64> = (0..40u64).filter(|&i| i != 4 && i != 5).collect();
        let rebuilt = FlatIndex::with_ids(Mat::from_rows(&survivors), surviving_ids, Metric::L2);
        assert_eq!(
            hits,
            rebuilt.search(&[4.2, 0.0], 3, &SearchParams::new()).unwrap()
        );
    }

    #[test]
    fn compact_reclaims_storage_and_preserves_results() {
        let mut index = FlatIndex::new(grid(33), Metric::L2);
        for id in [0u64, 13, 32] {
            assert!(index.remove(id));
        }
        let before = index.search(&[10.1, 0.0], 5, &SearchParams::new()).unwrap();
        let mem_before = index.memory_bytes();
        index.compact();
        assert_eq!(index.tombstones(), 0);
        assert_eq!(index.len(), 30);
        assert!(index.memory_bytes() < mem_before);
        let after = index.search(&[10.1, 0.0], 5, &SearchParams::new()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn all_rows_removed_is_empty() {
        let mut index = FlatIndex::new(grid(2), Metric::L2);
        assert!(index.remove(0));
        assert!(index.remove(1));
        assert!(index.is_empty());
        assert_eq!(
            index.search(&[0.0, 0.0], 1, &SearchParams::new()).unwrap_err(),
            IndexError::Empty
        );
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
