//! Calibration constants and the paper anchors they reproduce.
//!
//! The paper's own at-scale numbers come from its multi-node analysis tool
//! fed with single-node measurements. We seed the same tool with the
//! published measurements. Where the paper's numbers disagree with each
//! other (they come from different runs and configurations), we calibrate
//! to the *mutually consistent subset* below and record the residuals in
//! EXPERIMENTS.md:
//!
//! * Figure 4: IVF over 10B tokens, batch 128, `nProbe` 128 → **0.97 s /
//!   131 QPS**; HNSW → 0.40 s / 321 QPS; memory 71 GB vs 166 GB.
//! * Figure 6 (right): end-to-end latency at stride 16, 256 output
//!   tokens, batch 32 → **12.0 s @ 100M, 101.8 s @ 100B, 909.1 s @ 1T**.
//! * Figure 7: single CPU at 100B tokens → **5.69 QPS**, ≈**1124 J per
//!   batch**; 1T-token IVF-SQ8 index ≈ **10 TB**.
//! * Section 3: A6000 Ada + Gemma2-9B → prefill **132 QPS @ 2.2 J/query**,
//!   decode **67 QPS per 16-token stride**.
//!
//! Fitting those jointly gives a per-batch IVF retrieval latency of
//! `0.561 s × (tokens / 10B)` at batch 32 / `nProbe` 128 with a batch
//! exponent of 0.4: then batch 128 @ 10B = 0.561·4^0.4 ≈ 0.97 s (Fig 4),
//! batch 32 @ 100B = 5.61 s → 5.7 QPS and 200 W × 5.61 s ≈ 1122 J
//! (Fig 7), and 16 strides × 5.61 s + ~11 s of inference ≈ 101 s E2E at
//! 100B (Fig 6). The "5.62 s at 10B" reading of Figure 6's TTFT bar is
//! inconsistent with all three of those and is treated as the 100B point.

/// IVF-SQ8 retrieval seconds per batch of 32 queries per 10B tokens at
/// `nProbe` 128 on the reference CPU (Xeon Gold 6448Y, 32 cores).
pub const RETRIEVAL_S_PER_10B_BATCH32: f64 = 0.561;

/// Reference datastore size for the retrieval anchor.
pub const RETRIEVAL_REF_TOKENS: f64 = 10e9;

/// Reference batch size for CPU anchors.
pub const REF_BATCH: f64 = 32.0;

/// Latency grows as `(batch / 32)^0.4`: FAISS work-stealing overlaps
/// queries well, so QPS improves with batch (Fig 4: 0.97 s at batch 128
/// vs 0.561 s at batch 32).
pub const CPU_BATCH_EXPONENT: f64 = 0.4;

/// Reference `nProbe` for the retrieval anchor.
pub const REF_NPROBE: f64 = 128.0;

/// Fraction of search work independent of `nProbe` (centroid ranking,
/// result heap); the rest scales linearly with probed lists. Matches the
/// ≈9× sample-vs-deep latency gap of Figure 12 at nProbe 8 vs 128.
pub const NPROBE_FIXED_FRACTION: f64 = 0.05;

/// Per-batch latency floor (seconds) — dispatch and reduction overheads
/// keep tiny clusters from searching in zero time.
pub const RETRIEVAL_FLOOR_S: f64 = 0.002;

/// Mean package power of the reference CPU while searching, watts.
/// 200 W × 5.61 s ≈ 1122 J reproduces Figure 7's ≈1124 J per 100B-token
/// batch.
pub const CPU_SEARCH_POWER_W: f64 = 200.0;

/// CPU idle (static) power fraction of search power; used by the DVFS
/// model's floor.
pub const CPU_STATIC_FRACTION: f64 = 0.3;

/// Exponent of the dynamic-power/frequency relation `P_dyn ∝ f^2.7`
/// (voltage tracks frequency).
pub const DVFS_POWER_EXPONENT: f64 = 2.7;

/// A6000 Ada prefill: 132 QPS at batch 32, 512 input tokens, Gemma2-9B →
/// 0.242 s per batch.
pub const PREFILL_S_BATCH32: f64 = 32.0 / 132.0;

/// A6000 Ada decode: 67 QPS per 16-token stride at batch 32 → 0.478 s per
/// stride per batch.
pub const DECODE_STRIDE_S_BATCH32: f64 = 32.0 / 67.0;

/// Prefill is compute-bound: latency ≈ linear in batch.
pub const GPU_PREFILL_BATCH_EXPONENT: f64 = 0.95;

/// Decode is memory-bound: batching amortizes weight reads.
pub const GPU_DECODE_BATCH_EXPONENT: f64 = 0.5;

/// Prefill power ≈ full board power (2.2 J/query × 132 QPS ≈ 290 W on a
/// 300 W A6000 Ada).
pub const GPU_PREFILL_POWER_FRACTION: f64 = 0.97;

/// Decode utilization is lower (memory-bound).
pub const GPU_DECODE_POWER_FRACTION: f64 = 0.60;

/// BGE-large query encoding per batch of 32, seconds (fills the residual
/// between stage sums and Figure 6's 12.0 s E2E at 100M tokens).
pub const ENCODE_S_BATCH32: f64 = 0.15;

/// Encoder batch exponent.
pub const ENCODE_BATCH_EXPONENT: f64 = 0.6;

/// Encoder board power, watts.
pub const ENCODE_POWER_W: f64 = 100.0;

/// Reference model size (Gemma2-9B) in billions of parameters.
pub const REF_PARAMS_B: f64 = 9.0;

/// Reference input/output lengths.
pub const REF_INPUT_TOKENS: f64 = 512.0;
/// Tokens per retrieval stride at the reference point.
pub const REF_STRIDE_TOKENS: f64 = 16.0;

/// Prefill latency scales sub-linearly with parameter count (bigger
/// models use the GPU better).
pub const PREFILL_PARAM_EXPONENT: f64 = 0.9;

/// Decode latency scales ≈ linearly with parameter count (weight reads).
pub const DECODE_PARAM_EXPONENT: f64 = 1.0;

/// Tensor-parallel efficiency: speedup ≈ `tp^0.8` for prefill.
pub const TP_PREFILL_EXPONENT: f64 = 0.8;

/// Tensor-parallel efficiency for decode (communication-heavier).
pub const TP_DECODE_EXPONENT: f64 = 0.6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch128_retrieval_matches_figure_4() {
        let latency = RETRIEVAL_S_PER_10B_BATCH32 * (128.0f64 / REF_BATCH).powf(CPU_BATCH_EXPONENT);
        assert!((latency - 0.97).abs() < 0.03, "{latency}");
    }

    #[test]
    fn batch32_100b_matches_figure_7_qps_and_joules() {
        let latency = RETRIEVAL_S_PER_10B_BATCH32 * 10.0;
        let qps = 32.0 / latency;
        assert!((qps - 5.69).abs() < 0.2, "{qps}");
        let joules = CPU_SEARCH_POWER_W * latency;
        assert!((joules - 1124.0).abs() < 30.0, "{joules}");
    }

    #[test]
    fn prefill_anchor_matches_2_2_joules_per_query() {
        let joules_per_query = 300.0 * GPU_PREFILL_POWER_FRACTION * PREFILL_S_BATCH32 / 32.0;
        assert!((joules_per_query - 2.2).abs() < 0.1, "{joules_per_query}");
    }
}
