//! Metric-level tier-B references: what each SIMD dispatch level must
//! return for a similarity, expressed as [`lane_ordered_fold`]s.
//!
//! [`crate::ulp::lane_ordered_fold`] pins the *reduction shape*; this
//! module pins how the three metrics compose reductions at a given
//! [`SimdLevel`] — lane count and fusion mode from the level, the L2
//! negation and cosine zero-vector convention from
//! [`Metric::similarity`], and the cosine query norm always computed by
//! the scalar kernel (as the real kernels do, so `na` is bit-identical
//! across levels). The property and fuzz suites compare every kernel
//! against these functions bit-for-bit, and kernels across levels
//! against each other within the pinned ULP bound using
//! [`similarity_scale`] as the cancellation-aware scale.

use crate::ulp::lane_ordered_fold;
use hermes_math::distance::norm;
use hermes_math::{Metric, SimdLevel};

/// Lane-ordered dot product at `level`'s lane count and fusion mode.
pub fn reference_inner_product(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
    assert_eq!(q.len(), x.len());
    let lanes = level.lanes();
    if level.fused() {
        lane_ordered_fold(q.len(), lanes, |acc, i| x[i].mul_add(q[i], acc))
    } else {
        lane_ordered_fold(q.len(), lanes, |acc, i| acc + q[i] * x[i])
    }
}

/// Lane-ordered squared Euclidean distance at `level`.
pub fn reference_l2_sq(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
    assert_eq!(q.len(), x.len());
    let lanes = level.lanes();
    if level.fused() {
        lane_ordered_fold(q.len(), lanes, |acc, i| {
            let d = q[i] - x[i];
            d.mul_add(d, acc)
        })
    } else {
        lane_ordered_fold(q.len(), lanes, |acc, i| {
            let d = q[i] - x[i];
            acc + d * d
        })
    }
}

/// Lane-ordered squared norm at `level`.
pub fn reference_sq_norm(level: SimdLevel, x: &[f32]) -> f32 {
    reference_inner_product(level, x, x)
}

/// What `Metric::similarity_block_at(level, ..)` must return per row,
/// bit for bit: greater-is-better orientation, L2 negated, cosine with
/// the scalar-kernel query norm and the zero-vector → `0.0` convention.
pub fn reference_similarity(level: SimdLevel, metric: Metric, q: &[f32], x: &[f32]) -> f32 {
    match metric {
        Metric::InnerProduct => reference_inner_product(level, q, x),
        Metric::L2 => -reference_l2_sq(level, q, x),
        Metric::Cosine => {
            let na = norm(q);
            let nb = reference_sq_norm(level, x).sqrt();
            if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                reference_inner_product(level, q, x) / (na * nb)
            }
        }
    }
}

/// The cancellation-aware scale for cross-level ULP comparison of a
/// similarity: the reduction's total variation Σ|termᵢ| (computed in
/// f64), divided through by the norms for cosine. Feed this to
/// [`crate::ulp::ulp_within_scaled`] — under heavy cancellation the
/// result's own magnitude underestimates the rounding error budget, the
/// total variation does not. L2 terms are non-negative squares, so its
/// scale is simply the distance itself.
pub fn similarity_scale(metric: Metric, q: &[f32], x: &[f32]) -> f32 {
    assert_eq!(q.len(), x.len());
    match metric {
        Metric::InnerProduct => q
            .iter()
            .zip(x)
            .map(|(a, b)| (*a as f64 * *b as f64).abs())
            .sum::<f64>() as f32,
        Metric::L2 => q
            .iter()
            .zip(x)
            .map(|(a, b)| {
                let d = *a as f64 - *b as f64;
                d * d
            })
            .sum::<f64>() as f32,
        Metric::Cosine => {
            let na = q.iter().map(|a| *a as f64 * *a as f64).sum::<f64>().sqrt();
            let nb = x.iter().map(|b| *b as f64 * *b as f64).sum::<f64>().sqrt();
            if na == 0.0 || nb == 0.0 {
                return 0.0;
            }
            let tv = q
                .iter()
                .zip(x)
                .map(|(a, b)| (*a as f64 * *b as f64).abs())
                .sum::<f64>();
            (tv / (na * nb)) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::rng::seeded_rng;

    #[test]
    fn scalar_reference_is_bit_identical_to_metric_similarity() {
        let mut rng = seeded_rng(0x5EED);
        for dim in [1usize, 3, 4, 7, 8, 17, 33, 80] {
            let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let x: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                let want = metric.similarity(&q, &x);
                let got = reference_similarity(SimdLevel::Scalar, metric, &q, &x);
                assert_eq!(got.to_bits(), want.to_bits(), "{metric} dim {dim}");
            }
        }
    }

    #[test]
    fn cosine_reference_keeps_the_zero_vector_convention() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon] {
            assert_eq!(
                reference_similarity(level, Metric::Cosine, &[0.0; 4], &[1.0; 4]),
                0.0
            );
            assert_eq!(
                reference_similarity(level, Metric::Cosine, &[1.0; 4], &[0.0; 4]),
                0.0
            );
        }
    }

    #[test]
    fn similarity_scale_dominates_the_result_magnitude() {
        let q = [1.0f32, -2.0, 3.0, -4.0, 5.0];
        let x = [0.5f32, 0.25, -0.125, 2.0, -1.0];
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let s = similarity_scale(metric, &q, &x);
            let v = metric.similarity(&q, &x);
            assert!(s >= v.abs() * 0.999, "{metric}: scale {s} vs result {v}");
        }
    }

    #[test]
    fn similarity_scale_is_large_under_cancellation() {
        // Near-opposite contributions: the IP result is ~0 but the scale
        // stays at the total variation.
        let q = [1.0e6f32, 1.0];
        let x = [1.0f32, -1.0e6];
        assert!(similarity_scale(Metric::InnerProduct, &q, &x) > 1.9e6);
        assert!(Metric::InnerProduct.similarity(&q, &x).abs() < 1.0);
    }
}
