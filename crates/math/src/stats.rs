//! Summary statistics shared by the metrics and performance-model crates.

/// Numerically stable single-pass mean/variance/min/max accumulator
/// (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use hermes_math::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`0.0` for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Batch percentile summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation.
    pub max: f64,
}

/// Computes `p50`/`p95`/`p99`/`max` using nearest-rank interpolation.
///
/// Returns `None` for an empty sample.
pub fn percentiles(sample: &[f64]) -> Option<Percentiles> {
    if sample.is_empty() {
        return None;
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let at = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Some(Percentiles {
        p50: at(0.50),
        p95: at(0.95),
        p99: at(0.99),
        max: *v.last().expect("non-empty"),
    })
}

/// Ratio of the largest to the smallest value — the paper's proxy for
/// K-means cluster-size imbalance (Section 4.1).
///
/// Returns `None` if `sizes` is empty or contains a zero.
pub fn imbalance_ratio(sizes: &[usize]) -> Option<f64> {
    let min = *sizes.iter().min()?;
    let max = *sizes.iter().max()?;
    if min == 0 {
        None
    } else {
        Some(max as f64 / min as f64)
    }
}

/// Ordinary least-squares fit `y ≈ slope·x + intercept`.
///
/// Returns `(slope, intercept, r_squared)`; `None` for fewer than two
/// points or zero variance in `x`. Used to verify the linear scaling laws
/// (retrieval latency/energy/memory vs datastore size) and to calibrate
/// device models from measurements.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<(f64, f64, f64)> {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / nf;
    let mean_y: f64 = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some((slope, intercept, r2))
}

/// Index of the log2 bucket holding `v`: `0` for `v <= 1`, otherwise
/// `floor(log2(v))` — so bucket `i` covers `[2^i, 2^(i+1))` and a fixed
/// array of 64 buckets spans every `u64`. This is the bucketing rule of
/// the telemetry layer's latency histograms (`hermes-trace`), kept here
/// so the math crate owns every numeric convention in one place.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Lower bound of log2 bucket `i` (the inverse of [`log2_bucket`]):
/// `0` for bucket 0, else `2^i`. Histogram percentile readouts report
/// this value, which makes fixtures exactly computable by hand.
#[inline]
pub fn log2_bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Normalized Shannon entropy of a nonnegative weight vector: `0.0` when
/// all mass sits on one weight, `1.0` for a uniform distribution (the raw
/// entropy divided by `ln(len)`). Non-finite or nonpositive weights carry
/// no mass; a vector with no mass at all returns `1.0` — "no information"
/// reads as maximal uncertainty, which is the conservative answer for the
/// routing-confidence estimator built on this.
pub fn normalized_entropy(weights: &[f64]) -> f64 {
    if weights.len() < 2 {
        return 0.0;
    }
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return 1.0;
    }
    let h: f64 = weights
        .iter()
        .filter(|w| w.is_finite() && **w > 0.0)
        .map(|&w| {
            let p = w / total;
            -p * p.ln()
        })
        .sum();
    (h / (weights.len() as f64).ln()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_matches_sequential_push() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let p = percentiles(&v).unwrap();
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
    }

    #[test]
    fn percentiles_empty_is_none() {
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn imbalance_ratio_matches_paper_definition() {
        assert_eq!(imbalance_ratio(&[50, 100]), Some(2.0));
        assert_eq!(imbalance_ratio(&[10, 10, 10]), Some(1.0));
        assert_eq!(imbalance_ratio(&[0, 5]), None);
        assert_eq!(imbalance_ratio(&[]), None);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let (slope, intercept, r2) = linear_fit(&xs, &ys).unwrap();
        assert!((slope - 3.0).abs() < 1e-12);
        assert!((intercept + 7.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_reports_poor_r2_for_noise() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..40).map(|i| ((i * 7919) % 13) as f64).collect();
        let (_, _, r2) = linear_fit(&xs, &ys).unwrap();
        assert!(r2 < 0.5, "r2 {r2}");
    }

    #[test]
    fn linear_fit_degenerate_inputs_are_none() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn log2_bucket_covers_powers_and_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(4), 2);
        assert_eq!(log2_bucket(1023), 9);
        assert_eq!(log2_bucket(1024), 10);
        assert_eq!(log2_bucket(u64::MAX), 63);
        for i in 1..64usize {
            assert_eq!(log2_bucket(log2_bucket_floor(i)), i);
            assert_eq!(log2_bucket(log2_bucket_floor(i) - 1), i - 1);
        }
    }

    #[test]
    fn log2_bucket_floor_inverts_bucketing() {
        assert_eq!(log2_bucket_floor(0), 0);
        assert_eq!(log2_bucket_floor(1), 2);
        assert_eq!(log2_bucket_floor(10), 1024);
        assert_eq!(log2_bucket_floor(63), 1u64 << 63);
    }

    #[test]
    fn normalized_entropy_spans_unit_interval() {
        assert!((normalized_entropy(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(normalized_entropy(&[5.0, 0.0, 0.0]), 0.0);
        let mid = normalized_entropy(&[8.0, 2.0, 1.0, 1.0]);
        assert!(mid > 0.0 && mid < 1.0, "mid={mid}");
    }

    #[test]
    fn normalized_entropy_degenerate_inputs() {
        // Fewer than two weights carry no ranking uncertainty at all.
        assert_eq!(normalized_entropy(&[]), 0.0);
        assert_eq!(normalized_entropy(&[3.0]), 0.0);
        // No usable mass (all zero / non-finite) reads as maximal
        // uncertainty.
        assert_eq!(normalized_entropy(&[0.0, 0.0]), 1.0);
        assert_eq!(normalized_entropy(&[f64::NAN, f64::NEG_INFINITY]), 1.0);
        // Non-finite entries are skipped, not propagated.
        let h = normalized_entropy(&[1.0, f64::NAN, 1.0]);
        assert!(h.is_finite());
    }
}
