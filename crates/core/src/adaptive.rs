//! Adaptive retrieval depth: per-query `m` / deep-`nProbe` selection
//! from the route stage's confidence signals (ROADMAP item 3).
//!
//! Hermes fixes `clusters_to_search` and the deep `nProbe` per deployment
//! (Table 2), so an easy query — one whose routing scores concentrate on
//! a single cluster — pays the same deep-search cost as a hard one whose
//! scores are nearly uniform. The route stage already produces the signal
//! needed to tell them apart: the per-cluster score distribution that
//! ranks the clusters (sample scores under document sampling, negated
//! nearest-list distances under nearest-lists routing; the calibration
//! bands in this repo were fitted on sample scores). [`DifficultyEstimator`] turns
//! two features of that distribution into a difficulty score in `[0, 1]`:
//!
//! * **top-1/top-2 margin** — how far the best cluster's score sits above
//!   the runner-up, normalized by the full score spread. A wide margin
//!   means the ranking is confident and a shallow search suffices.
//! * **entropy** — the normalized Shannon entropy
//!   ([`hermes_math::stats::normalized_entropy`]) of the scores' mass
//!   above the worst cluster. Flat distributions (high entropy) mean the
//!   relevant documents are spread across clusters and the search must go
//!   wide and deep.
//!
//! The policy then interpolates `clusters_to_search` and deep `nProbe`
//! linearly between the [`AdaptiveConfig`] floor and ceiling knobs. The
//! whole path is a **deterministic pure function of the routing scores**:
//! no RNG, no clocks, no global state — the same scores always produce
//! the same depth, so adaptive runs stay bit-reproducible and the
//! equivalence suite can pin them.
//!
//! With `AdaptiveConfig` absent (`HermesConfig::adaptive == None`) the
//! engine is bit-identical to the fixed-knob pipeline; with it present,
//! routing modes that produce no scores (`Routing::Unranked`) fall back
//! to the fixed knobs per query.

use crate::HermesError;

/// Floor/ceiling knobs of the adaptive-depth policy.
///
/// All fields are integers (the weight is in permille) so the config
/// stays `Copy + Eq + Hash`-able and trivially bit-stable across
/// platforms.
///
/// # Examples
///
/// ```
/// use hermes_core::adaptive::AdaptiveConfig;
/// let cfg = AdaptiveConfig::new(1, 3, 16, 128);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.min_clusters, 1);
/// assert_eq!(cfg.max_deep_nprobe, 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptiveConfig {
    /// Deep-searched clusters for the easiest query (difficulty 0).
    pub min_clusters: usize,
    /// Deep-searched clusters for the hardest query (difficulty 1);
    /// clamped to the store's cluster count at execution time.
    pub max_clusters: usize,
    /// Deep-search `nProbe` for the easiest query.
    pub min_deep_nprobe: usize,
    /// Deep-search `nProbe` for the hardest query.
    pub max_deep_nprobe: usize,
    /// Weight of the entropy signal versus the margin signal, in permille
    /// (`0` = margin only, `1000` = entropy only).
    pub entropy_weight_permille: u32,
    /// Difficulty at (and below) which the floor knobs apply, in permille.
    /// Together with [`difficulty_ceiling_permille`] this calibrates the
    /// response curve to the workload: raw blended difficulty rarely
    /// spans all of `[0, 1]` (sampled cluster scores keep some mass
    /// everywhere), so the observed band is re-normalized onto the full
    /// knob range before interpolation.
    ///
    /// [`difficulty_ceiling_permille`]: AdaptiveConfig::difficulty_ceiling_permille
    pub difficulty_floor_permille: u32,
    /// Difficulty at (and above) which the ceiling knobs apply, in
    /// permille. Must exceed the floor.
    pub difficulty_ceiling_permille: u32,
}

impl AdaptiveConfig {
    /// Default blend: margin and entropy weighted equally.
    pub const DEFAULT_ENTROPY_WEIGHT_PERMILLE: u32 = 500;

    /// Builds a policy spanning `[min_clusters, max_clusters]` ×
    /// `[min_deep_nprobe, max_deep_nprobe]` with the default signal blend.
    pub fn new(
        min_clusters: usize,
        max_clusters: usize,
        min_deep_nprobe: usize,
        max_deep_nprobe: usize,
    ) -> Self {
        AdaptiveConfig {
            min_clusters,
            max_clusters,
            min_deep_nprobe,
            max_deep_nprobe,
            entropy_weight_permille: Self::DEFAULT_ENTROPY_WEIGHT_PERMILLE,
            difficulty_floor_permille: 0,
            difficulty_ceiling_permille: 1000,
        }
    }

    /// Sets the entropy-vs-margin blend (permille, clamped to 1000).
    pub fn with_entropy_weight_permille(mut self, permille: u32) -> Self {
        self.entropy_weight_permille = permille.min(1000);
        self
    }

    /// Calibrates the difficulty band (permille): blended difficulties at
    /// or below `floor` take the floor knobs, at or above `ceiling` the
    /// ceiling knobs, with linear response in between.
    pub fn with_difficulty_band_permille(mut self, floor: u32, ceiling: u32) -> Self {
        self.difficulty_floor_permille = floor;
        self.difficulty_ceiling_permille = ceiling;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] if a floor is zero, a floor
    /// exceeds its ceiling, or the weight exceeds 1000 permille.
    pub fn validate(&self) -> Result<(), HermesError> {
        use crate::HermesError::InvalidConfig;
        if self.min_clusters == 0 || self.min_deep_nprobe == 0 {
            return Err(InvalidConfig("adaptive floors must be positive".into()));
        }
        if self.min_clusters > self.max_clusters {
            return Err(InvalidConfig(format!(
                "adaptive min_clusters {} exceeds max_clusters {}",
                self.min_clusters, self.max_clusters
            )));
        }
        if self.min_deep_nprobe > self.max_deep_nprobe {
            return Err(InvalidConfig(format!(
                "adaptive min_deep_nprobe {} exceeds max_deep_nprobe {}",
                self.min_deep_nprobe, self.max_deep_nprobe
            )));
        }
        if self.entropy_weight_permille > 1000 {
            return Err(InvalidConfig(format!(
                "adaptive entropy weight {} must be ≤ 1000 permille",
                self.entropy_weight_permille
            )));
        }
        if self.difficulty_floor_permille >= self.difficulty_ceiling_permille
            || self.difficulty_ceiling_permille > 1000
        {
            return Err(InvalidConfig(format!(
                "adaptive difficulty band {}..{} must be increasing and ≤ 1000 permille",
                self.difficulty_floor_permille, self.difficulty_ceiling_permille
            )));
        }
        Ok(())
    }
}

/// The per-query depth an [`AdaptiveConfig`] policy chose, plus the
/// difficulty signals behind the choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthChoice {
    /// Clusters to deep-search (before the store-size clamp).
    pub clusters: usize,
    /// Deep-search `nProbe`.
    pub deep_nprobe: usize,
    /// Blended difficulty in `[0, 1]`.
    pub difficulty: f64,
}

/// Difficulty signals extracted from one query's routing scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Difficulty {
    /// Top-1/top-2 margin normalized by the score spread, in `[0, 1]`
    /// (large = confident ranking).
    pub margin: f64,
    /// Normalized entropy of the score mass above the worst cluster, in
    /// `[0, 1]` (large = flat, uncertain ranking).
    pub entropy: f64,
}

impl Difficulty {
    /// Extracts the signals from best-first routing scores. Non-finite
    /// scores (empty shards sample as `-inf`) carry no mass; with fewer
    /// than two finite scores the ranking says nothing and both signals
    /// read maximally hard.
    pub fn from_scores(scores: &[f32]) -> Self {
        let finite: Vec<f64> = scores
            .iter()
            .filter(|s| s.is_finite())
            .map(|&s| s as f64)
            .collect();
        if finite.len() < 2 {
            return Difficulty {
                margin: 0.0,
                entropy: 1.0,
            };
        }
        let best = finite[0];
        let second = finite[1];
        let worst = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let spread = best - worst;
        let margin = if spread > 0.0 {
            ((best - second) / spread).clamp(0.0, 1.0)
        } else {
            // All scores identical: no information in the ranking.
            0.0
        };
        // Mass above the worst score; the worst cluster itself contributes
        // nothing, matching its zero chance of being deep-searched first.
        let weights: Vec<f64> = finite.iter().map(|&s| s - worst).collect();
        let entropy = hermes_math::stats::normalized_entropy(&weights);
        Difficulty { margin, entropy }
    }

    /// Blends the two signals into one difficulty score in `[0, 1]`:
    /// `(1 - margin)` weighted against `entropy` by the config's permille
    /// knob.
    pub fn blend(&self, entropy_weight_permille: u32) -> f64 {
        let w = f64::from(entropy_weight_permille.min(1000)) / 1000.0;
        ((1.0 - self.margin) * (1.0 - w) + self.entropy * w).clamp(0.0, 1.0)
    }
}

/// A calibrated [`AdaptiveConfig`] policy: scores in, [`DepthChoice`] out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DifficultyEstimator {
    cfg: AdaptiveConfig,
}

impl DifficultyEstimator {
    /// Binds the policy knobs.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        DifficultyEstimator { cfg }
    }

    /// Picks the per-query depth for best-first routing `scores` — a
    /// deterministic pure function (same scores ⇒ same choice).
    pub fn depth(&self, scores: &[f32]) -> DepthChoice {
        let difficulty = Difficulty::from_scores(scores).blend(self.cfg.entropy_weight_permille);
        // Re-normalize the blended difficulty onto the calibrated band so
        // the knob range is actually exercised by the workload's scores.
        let floor = f64::from(self.cfg.difficulty_floor_permille) / 1000.0;
        let ceiling = f64::from(self.cfg.difficulty_ceiling_permille.max(1)) / 1000.0;
        let t = if ceiling > floor {
            ((difficulty - floor) / (ceiling - floor)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        DepthChoice {
            clusters: interpolate(self.cfg.min_clusters, self.cfg.max_clusters, t),
            deep_nprobe: interpolate(self.cfg.min_deep_nprobe, self.cfg.max_deep_nprobe, t),
            difficulty,
        }
    }
}

/// Linear interpolation between `lo` and `hi` at `t ∈ [0, 1]`, rounded to
/// the nearest integer. Endpoints are exact: `t = 0 ⇒ lo`, `t = 1 ⇒ hi`.
fn interpolate(lo: usize, hi: usize, t: f64) -> usize {
    debug_assert!(lo <= hi);
    let span = (hi - lo) as f64;
    lo + (span * t.clamp(0.0, 1.0)).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(min_m: usize, max_m: usize, min_p: usize, max_p: usize) -> DifficultyEstimator {
        DifficultyEstimator::new(AdaptiveConfig::new(min_m, max_m, min_p, max_p))
    }

    #[test]
    fn confident_scores_pick_the_floor() {
        // One dominant cluster, the rest flat at the bottom: margin ≈ 1,
        // entropy ≈ 0.
        let choice = est(1, 4, 16, 128).depth(&[10.0, 0.01, 0.005, 0.0]);
        assert_eq!(choice.clusters, 1);
        assert!(choice.deep_nprobe <= 32, "nprobe={}", choice.deep_nprobe);
        assert!(choice.difficulty < 0.25, "difficulty={}", choice.difficulty);
    }

    #[test]
    fn flat_scores_pick_the_ceiling() {
        let choice = est(1, 4, 16, 128).depth(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(choice.clusters, 4);
        assert_eq!(choice.deep_nprobe, 128);
        assert_eq!(choice.difficulty, 1.0);
    }

    #[test]
    fn depth_is_monotone_in_difficulty() {
        let e = est(1, 5, 8, 256);
        // The runner-up climbing toward the leader (tail fixed) raises
        // both signals — margin shrinks, the top-2 mass flattens — so
        // depth must never decrease along the family.
        let mut last = e.depth(&[10.0, 0.0, 0.0, 0.0]);
        for x in [2.5f32, 5.0, 7.5, 10.0] {
            let next = e.depth(&[10.0, x, 0.0, 0.0]);
            assert!(next.difficulty >= last.difficulty - 1e-9, "x={x}");
            assert!(next.clusters >= last.clusters, "x={x}");
            assert!(next.deep_nprobe >= last.deep_nprobe, "x={x}");
            last = next;
        }
    }

    #[test]
    fn estimator_is_a_pure_function_of_scores() {
        let e = est(1, 4, 16, 128);
        let scores = [3.0, 2.5, 1.0, -0.5, -2.0];
        let a = e.depth(&scores);
        for _ in 0..100 {
            assert_eq!(e.depth(&scores), a);
        }
    }

    #[test]
    fn non_finite_and_degenerate_scores_go_deep() {
        let e = est(1, 4, 16, 128);
        // Empty-shard samples (-inf) and NaNs carry no information.
        for scores in [
            vec![],
            vec![1.0],
            vec![f32::NEG_INFINITY, f32::NEG_INFINITY],
            vec![f32::NAN, f32::NAN, f32::NAN],
            vec![2.0, f32::NAN, f32::NEG_INFINITY],
        ] {
            let choice = e.depth(&scores);
            assert_eq!(choice.clusters, 4, "scores={scores:?}");
            assert_eq!(choice.deep_nprobe, 128, "scores={scores:?}");
        }
    }

    #[test]
    fn entropy_weight_extremes_isolate_each_signal() {
        // A near-tied top pair over a long dead tail: the margin signal
        // reads very hard (top-2 gap ≈ 0) while the entropy signal reads
        // moderate (mass concentrated on just two of ten clusters), so
        // the two weight extremes must disagree.
        let mut scores = vec![10.0f32, 9.9];
        scores.extend(std::iter::repeat(0.1).take(8));
        let margin_only = DifficultyEstimator::new(
            AdaptiveConfig::new(1, 4, 16, 128).with_entropy_weight_permille(0),
        )
        .depth(&scores);
        let entropy_only = DifficultyEstimator::new(
            AdaptiveConfig::new(1, 4, 16, 128).with_entropy_weight_permille(1000),
        )
        .depth(&scores);
        assert!(entropy_only.difficulty < margin_only.difficulty);
        assert!(entropy_only.clusters <= margin_only.clusters);
        assert!(margin_only.difficulty > 0.9, "near-tie must read hard");
    }

    #[test]
    fn interpolation_hits_exact_endpoints() {
        assert_eq!(interpolate(2, 7, 0.0), 2);
        assert_eq!(interpolate(2, 7, 1.0), 7);
        assert_eq!(interpolate(3, 3, 0.7), 3);
        assert_eq!(interpolate(2, 7, -1.0), 2);
        assert_eq!(interpolate(2, 7, 2.0), 7);
    }

    #[test]
    fn validate_rejects_inverted_and_zero_knobs() {
        assert!(AdaptiveConfig::new(0, 3, 16, 128).validate().is_err());
        assert!(AdaptiveConfig::new(1, 3, 0, 128).validate().is_err());
        assert!(AdaptiveConfig::new(4, 3, 16, 128).validate().is_err());
        assert!(AdaptiveConfig::new(1, 3, 129, 128).validate().is_err());
        assert!(AdaptiveConfig::new(1, 3, 16, 128).validate().is_ok());
        let mut bad = AdaptiveConfig::new(1, 3, 16, 128);
        bad.entropy_weight_permille = 1001;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_difficulty_bands() {
        let base = AdaptiveConfig::new(1, 3, 16, 128);
        assert!(base.with_difficulty_band_permille(500, 500).validate().is_err());
        assert!(base.with_difficulty_band_permille(700, 300).validate().is_err());
        assert!(base.with_difficulty_band_permille(0, 1001).validate().is_err());
        assert!(base.with_difficulty_band_permille(400, 900).validate().is_ok());
    }

    #[test]
    fn difficulty_band_renormalizes_the_response() {
        // Moderately hard scores land mid-band under the identity
        // calibration; shifting the band around them swings the choice
        // between the floor and ceiling knobs without touching the raw
        // difficulty estimate.
        let scores = [10.0f32, 7.0, 3.0, 0.0];
        let base = AdaptiveConfig::new(1, 4, 16, 128);
        let plain = DifficultyEstimator::new(base).depth(&scores);
        let eased = DifficultyEstimator::new(base.with_difficulty_band_permille(800, 1000))
            .depth(&scores);
        let hardened = DifficultyEstimator::new(base.with_difficulty_band_permille(100, 200))
            .depth(&scores);
        assert!(plain.difficulty > 0.2 && plain.difficulty < 0.8);
        assert_eq!(eased.difficulty, plain.difficulty, "signal unchanged");
        assert_eq!(eased.clusters, 1, "band above the signal → floor");
        assert_eq!(eased.deep_nprobe, 16);
        assert_eq!(hardened.clusters, 4, "band below the signal → ceiling");
        assert_eq!(hardened.deep_nprobe, 128);
    }
}
