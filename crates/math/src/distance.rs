//! Distance and similarity kernels.
//!
//! All indices in the workspace rank candidates by a *similarity* in which
//! **greater is better**. For inner-product and cosine that is the raw
//! score; for Euclidean it is the negated squared distance. Folding the
//! orientation into one convention keeps every downstream heap, ranker and
//! NDCG computation branch-free.

/// The metric used to compare embedding vectors.
///
/// # Examples
///
/// ```
/// use hermes_math::Metric;
/// let a = [1.0f32, 0.0];
/// let b = [0.0f32, 1.0];
/// assert!(Metric::L2.similarity(&a, &b) < Metric::L2.similarity(&a, &a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Euclidean distance; similarity is `-||a-b||^2`.
    L2,
    /// Dot product; the paper re-ranks retrieved chunks by inner product.
    #[default]
    InnerProduct,
    /// Cosine similarity (inner product of normalized vectors).
    Cosine,
}

impl Metric {
    /// Similarity between `a` and `b` under this metric (greater = closer).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths — in release builds
    /// too. This used to be a `debug_assert!` that silently truncated to
    /// the shorter slice in release; hot scan loops now go through
    /// [`Metric::similarity_block`], which validates once per block, so
    /// the per-call check here is off every fast path.
    #[inline]
    pub fn similarity(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        match self {
            Metric::L2 => -l2_sq(a, b),
            Metric::InnerProduct => inner_product(a, b),
            Metric::Cosine => cosine(a, b),
        }
    }

    /// Similarity of `query` against each row of a contiguous row-major
    /// block — the blocked form of [`Metric::similarity`], dispatching to
    /// the [`crate::block`] kernels at the process-wide
    /// [`simd_level`](crate::simd::simd_level). At
    /// [`SimdLevel::Scalar`](crate::simd::SimdLevel) `out[i]` is
    /// bit-identical to `self.similarity(query, row_i)`; at a SIMD level
    /// it is bit-identical to that level's lane-ordered reduction
    /// reference and within the pinned ULP bound of the scalar value
    /// (the tier-B contract in [`crate::block`]). Dimensions are
    /// validated once per block instead of once per vector.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim` or `rows.len() != out.len() * dim`.
    #[inline]
    pub fn similarity_block(self, query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
        self.similarity_block_at(crate::simd::simd_level(), query, rows, dim, out);
    }

    /// [`Metric::similarity_block`] at an explicit dispatch level — the
    /// seam equivalence suites use to pin every runnable kernel in one
    /// process. The L2 sign flip is a scalar unary negation at every
    /// level, so it never perturbs the contract.
    #[inline]
    pub fn similarity_block_at(
        self,
        level: crate::simd::SimdLevel,
        query: &[f32],
        rows: &[f32],
        dim: usize,
        out: &mut [f32],
    ) {
        match self {
            Metric::L2 => {
                crate::block::l2_sq_block_at(level, query, rows, dim, out);
                for o in out.iter_mut() {
                    *o = -*o;
                }
            }
            Metric::InnerProduct => {
                crate::block::inner_product_block_at(level, query, rows, dim, out)
            }
            Metric::Cosine => crate::block::cosine_block_at(level, query, rows, dim, out),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Metric::L2 => "l2",
            Metric::InnerProduct => "ip",
            Metric::Cosine => "cosine",
        };
        f.write_str(name)
    }
}

/// Squared Euclidean distance `||a - b||^2`.
///
/// Unrolled by chunks of 4 so the autovectorizer reliably emits SIMD on the
/// target CPUs without `unsafe` or architecture-specific intrinsics.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            let d = a[base + lane] - b[base + lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Dot product `a · b`.
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Euclidean norm `||a||`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    inner_product(a, a).sqrt()
}

/// Cosine similarity; `0.0` when either vector is all-zero.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    inner_product(a, b) / (na * nb)
}

/// Normalizes `v` in place to unit length; leaves all-zero vectors alone.
#[inline]
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// `out[i] += v[i]` — accumulate a vector into a running sum.
#[inline]
pub fn add_assign(out: &mut [f32], v: &[f32]) {
    debug_assert_eq!(out.len(), v.len());
    for (o, x) in out.iter_mut().zip(v) {
        *o += *x;
    }
}

/// `out[i] *= s` — in-place scalar multiply.
#[inline]
pub fn scale(out: &mut [f32], s: f32) {
    for o in out.iter_mut() {
        *o *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_of_identical_vectors_is_zero() {
        let v = [1.0, -2.5, 3.25, 0.0, 9.0];
        assert_eq!(l2_sq(&v, &v), 0.0);
    }

    #[test]
    fn l2_matches_hand_computation() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(l2_sq(&a, &b), 9.0 + 16.0);
    }

    #[test]
    fn inner_product_matches_hand_computation() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(inner_product(&a, &b), 35.0);
    }

    #[test]
    fn cosine_is_one_for_parallel_vectors() {
        let a = [2.0, 0.0, 0.0];
        let b = [7.5, 0.0, 0.0];
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        assert_eq!(cosine(&a, &b), 0.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector() {
        let mut v = vec![0.0; 8];
        normalize(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn metric_similarity_orients_l2_correctly() {
        let q = [0.0, 0.0];
        let near = [0.1, 0.1];
        let far = [5.0, 5.0];
        assert!(Metric::L2.similarity(&q, &near) > Metric::L2.similarity(&q, &far));
    }

    #[test]
    fn metric_display_is_stable() {
        assert_eq!(Metric::L2.to_string(), "l2");
        assert_eq!(Metric::InnerProduct.to_string(), "ip");
        assert_eq!(Metric::Cosine.to_string(), "cosine");
    }

    #[test]
    fn add_assign_and_scale_compose_to_mean() {
        let mut acc = vec![0.0; 3];
        add_assign(&mut acc, &[1.0, 2.0, 3.0]);
        add_assign(&mut acc, &[3.0, 2.0, 1.0]);
        scale(&mut acc, 0.5);
        assert_eq!(acc, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn similarity_rejects_length_mismatch_even_in_release() {
        let _ = Metric::InnerProduct.similarity(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn similarity_block_at_scalar_matches_similarity_for_all_metrics() {
        let query = [0.5f32, -1.0, 2.0, 0.25, -0.125];
        let rows = [1.0f32, 2.0, 3.0, 4.0, 5.0, -1.0, 0.0, 1.0, 0.5, 2.5];
        let mut out = [0.0f32; 2];
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            metric.similarity_block_at(crate::simd::SimdLevel::Scalar, &query, &rows, 5, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = metric.similarity(&query, &rows[i * 5..(i + 1) * 5]);
                assert_eq!(o.to_bits(), want.to_bits(), "{metric} row {i}");
            }
        }
    }

    #[test]
    fn similarity_block_orientation_is_uniform_across_levels() {
        // Whatever the dispatch level, L2 similarities stay negated and
        // ordering-compatible with the scalar metric.
        let query = [0.25f32, -0.5, 1.5, 2.0, -1.0, 0.125, 3.0];
        let rows: Vec<f32> = (0..7 * 6).map(|i| (i as f32).sin()).collect();
        let mut scalar = [0.0f32; 6];
        Metric::L2.similarity_block_at(
            crate::simd::SimdLevel::Scalar,
            &query,
            &rows,
            7,
            &mut scalar,
        );
        for level in crate::simd::SimdLevel::available() {
            let mut out = [0.0f32; 6];
            Metric::L2.similarity_block_at(level, &query, &rows, 7, &mut out);
            for (o, s) in out.iter().zip(&scalar) {
                assert!(*o <= 0.0, "{level}: L2 similarity must be non-positive");
                assert!((o - s).abs() <= 1e-4 * s.abs().max(1.0), "{level}");
            }
        }
    }

    #[test]
    fn kernels_handle_non_multiple_of_four_lengths() {
        for len in [1usize, 2, 3, 5, 7, 9, 17] {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..len).map(|i| (i * 2) as f32).collect();
            let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_ip: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((l2_sq(&a, &b) - naive_l2).abs() < 1e-4, "len {len}");
            assert!((inner_product(&a, &b) - naive_ip).abs() < 1e-4, "len {len}");
        }
    }
}
