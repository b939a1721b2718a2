//! Generation-quality model: perplexity vs model size, retrieval stride
//! and retrieval quality (paper Figure 5).
//!
//! The paper cites prior work (In-Context RALM, PipeRAG, RETRO) showing
//! that retrieving more frequently (smaller stride) lowers perplexity,
//! letting a retrieval-augmented model match a plain model of ~2x the
//! parameters. We model that trade-off analytically: a power-law in
//! parameters (scaling-laws shape) plus a logarithmic penalty in stride
//! for retrieval-augmented models, modulated by retrieval quality (NDCG).
//! Constants are set so the Figure 5 qualitative anchors hold; this model
//! feeds no latency/energy result — it only regenerates Figure 5 and lets
//! PipeRAG-style stride tuning reason about quality.

/// Analytic perplexity model.
///
/// # Examples
///
/// ```
/// use hermes_rag::PerplexityModel;
/// let m = PerplexityModel::default();
/// // More frequent retrieval (smaller stride) lowers perplexity.
/// assert!(m.rag_perplexity(0.578, 4, 1.0) < m.rag_perplexity(0.578, 64, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerplexityModel {
    /// Perplexity of a 1B-parameter plain LM on the reference corpus.
    pub base_ppl_1b: f64,
    /// Power-law exponent of perplexity vs parameters.
    pub param_exponent: f64,
    /// Fractional perplexity reduction from perfect retrieval at the
    /// smallest stride.
    pub retrieval_benefit: f64,
    /// How quickly the benefit decays as the stride grows (per doubling).
    pub stride_decay: f64,
}

impl PerplexityModel {
    /// Model with constants matching Figure 5's qualitative anchors.
    pub fn new() -> Self {
        PerplexityModel {
            base_ppl_1b: 22.0,
            param_exponent: 0.13,
            retrieval_benefit: 0.32,
            stride_decay: 0.055,
        }
    }

    /// Perplexity of a plain (non-retrieval) LM with `params_b` billion
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params_b` is not positive.
    pub fn lm_perplexity(&self, params_b: f64) -> f64 {
        assert!(params_b > 0.0, "parameter count must be positive");
        self.base_ppl_1b * params_b.powf(-self.param_exponent)
    }

    /// Perplexity of a retrieval-augmented LM retrieving every `stride`
    /// tokens with retrieval quality `ndcg` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `ndcg` is outside `[0, 1]`.
    pub fn rag_perplexity(&self, params_b: f64, stride: u32, ndcg: f64) -> f64 {
        assert!(stride > 0, "stride must be positive");
        assert!((0.0..=1.0).contains(&ndcg), "ndcg out of range: {ndcg}");
        let base = self.lm_perplexity(params_b);
        // Benefit is largest at stride 4 (the prior-work optimum) and
        // decays with each doubling beyond it.
        let doublings = (stride.max(4) as f64 / 4.0).log2();
        let benefit = (self.retrieval_benefit - self.stride_decay * doublings).max(0.0) * ndcg;
        base * (1.0 - benefit)
    }
}

impl Default for PerplexityModel {
    fn default() -> Self {
        PerplexityModel::new()
    }
}

/// Latency-vs-stride helper: number of retrievals a generation performs.
pub fn retrievals_for(output_tokens: u32, stride: u32) -> u32 {
    (output_tokens / stride.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_models_have_lower_perplexity() {
        let m = PerplexityModel::default();
        assert!(m.lm_perplexity(1.5) < m.lm_perplexity(0.762));
    }

    #[test]
    fn smaller_strides_help() {
        let m = PerplexityModel::default();
        let mut prev = f64::NEG_INFINITY;
        for stride in [4u32, 8, 16, 32, 64] {
            let ppl = m.rag_perplexity(0.578, stride, 1.0);
            assert!(ppl > prev, "stride {stride}");
            prev = ppl;
        }
    }

    #[test]
    fn retro_at_stride_4_matches_double_size_lm() {
        // Figure 5's anchor: RETRO 578M at stride 4 ≈ GPT-2 1.5B.
        let m = PerplexityModel::default();
        let retro = m.rag_perplexity(0.578, 4, 1.0);
        let gpt2_xl = m.lm_perplexity(1.5);
        assert!(
            retro <= gpt2_xl * 1.05,
            "RETRO {retro} should be near GPT-2 1.5B {gpt2_xl}"
        );
    }

    #[test]
    fn worse_retrieval_reduces_the_benefit() {
        let m = PerplexityModel::default();
        let good = m.rag_perplexity(9.0, 16, 0.95);
        let bad = m.rag_perplexity(9.0, 16, 0.5);
        let none = m.rag_perplexity(9.0, 16, 0.0);
        assert!(good < bad);
        assert!(bad < none);
        assert!((none - m.lm_perplexity(9.0)).abs() < 1e-9);
    }

    #[test]
    fn benefit_never_goes_negative_at_huge_strides() {
        let m = PerplexityModel::default();
        let ppl = m.rag_perplexity(1.0, 4096, 1.0);
        assert!(ppl <= m.lm_perplexity(1.0) + 1e-9);
    }

    #[test]
    fn retrieval_count_matches_paper_12x_cost_ratio() {
        // Stride 4 vs 64 over 256 tokens: 64 vs 4 retrievals (16x more),
        // the mechanism behind the paper's 12.12x E2E blow-up.
        assert_eq!(retrievals_for(256, 4), 64);
        assert_eq!(retrievals_for(256, 64), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_ndcg_rejected() {
        PerplexityModel::default().rag_perplexity(1.0, 4, 1.5);
    }
}
