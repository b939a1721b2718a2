//! GPU platforms, LLM inference cost models and the query encoder.

use crate::calibration as cal;

/// A GPU platform for LLM inference.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPlatform {
    /// Marketing name used in reports.
    pub name: String,
    /// FP16 throughput, TFLOPS (prefill is compute-bound).
    pub tflops: f64,
    /// Memory bandwidth, GB/s (decode is memory-bound).
    pub mem_bw_gbs: f64,
    /// Board power limit, watts.
    pub tdp_w: f64,
    /// Device memory, GB (determines how many GPUs a model needs).
    pub memory_gb: f64,
}

impl GpuPlatform {
    /// NVIDIA RTX 6000 Ada ("A6000 Ada" in the paper): 91 TFLOPS @ 300 W.
    pub fn a6000_ada() -> Self {
        GpuPlatform {
            name: "A6000 Ada".to_string(),
            tflops: 91.0,
            mem_bw_gbs: 960.0,
            tdp_w: 300.0,
            memory_gb: 48.0,
        }
    }

    /// NVIDIA L4: 31 TFLOPS @ 140 W (the paper's inference-class part).
    pub fn l4() -> Self {
        GpuPlatform {
            name: "L4".to_string(),
            tflops: 31.0,
            mem_bw_gbs: 300.0,
            tdp_w: 140.0,
            memory_gb: 24.0,
        }
    }
}

impl Default for GpuPlatform {
    fn default() -> Self {
        GpuPlatform::a6000_ada()
    }
}

/// An open-source LLM from the paper's evaluation (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub struct LlmModel {
    /// Model name used in reports.
    pub name: String,
    /// Parameter count in billions.
    pub params_b: f64,
}

impl LlmModel {
    /// Phi-1.5, 1.3B parameters.
    pub fn phi_1_5() -> Self {
        LlmModel {
            name: "Phi 1.5 (1.3B)".to_string(),
            params_b: 1.3,
        }
    }

    /// Gemma2-9B — the paper's reference inference model.
    pub fn gemma2_9b() -> Self {
        LlmModel {
            name: "Gemma2 (9B)".to_string(),
            params_b: 9.0,
        }
    }

    /// OPT-30B — the large model requiring two A6000 Ada GPUs.
    pub fn opt_30b() -> Self {
        LlmModel {
            name: "OPT (30B)".to_string(),
            params_b: 30.0,
        }
    }

    /// FP16 weight bytes.
    pub fn weight_bytes(&self) -> f64 {
        self.params_b * 1e9 * 2.0
    }

    /// Minimum number of `gpu`s needed to hold the weights plus ~40%
    /// activation/KV-cache headroom — reproduces the paper's placements
    /// (OPT-30B needs 2× A6000 Ada; Gemma2-9B needs 2× L4).
    pub fn gpus_required(&self, gpu: &GpuPlatform) -> usize {
        let need_gb = self.weight_bytes() * 1.4 / 1e9;
        (need_gb / gpu.memory_gb).ceil().max(1.0) as usize
    }
}

impl Default for LlmModel {
    fn default() -> Self {
        LlmModel::gemma2_9b()
    }
}

/// Calibrated LLM inference latency/energy model (prefill + decode) for a
/// model on one or more GPUs with tensor parallelism.
///
/// # Examples
///
/// ```
/// use hermes_perfmodel::{GpuPlatform, InferenceModel, LlmModel};
///
/// let inf = InferenceModel::new(LlmModel::gemma2_9b(), GpuPlatform::a6000_ada());
/// // Section 3 anchor: prefill 132 QPS at batch 32, 512 input tokens.
/// let qps = 32.0 / inf.prefill_latency(32, 512);
/// assert!((qps - 132.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceModel {
    llm: LlmModel,
    gpu: GpuPlatform,
    tensor_parallel: usize,
}

impl InferenceModel {
    /// Places `llm` on as many `gpu`s as its weights require.
    pub fn new(llm: LlmModel, gpu: GpuPlatform) -> Self {
        let tp = llm.gpus_required(&gpu);
        InferenceModel {
            llm,
            gpu,
            tensor_parallel: tp,
        }
    }

    /// The model being served.
    pub fn llm(&self) -> &LlmModel {
        &self.llm
    }

    /// The GPU platform.
    pub fn gpu(&self) -> &GpuPlatform {
        &self.gpu
    }

    /// Number of GPUs used.
    pub fn num_gpus(&self) -> usize {
        self.tensor_parallel
    }

    /// Seconds to prefill a batch with `input_tokens` context each.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn prefill_latency(&self, batch: usize, input_tokens: u32) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let param_scale = (self.llm.params_b / cal::REF_PARAMS_B).powf(cal::PREFILL_PARAM_EXPONENT);
        let len_scale = input_tokens as f64 / cal::REF_INPUT_TOKENS;
        let batch_scale = (batch as f64 / cal::REF_BATCH).powf(cal::GPU_PREFILL_BATCH_EXPONENT);
        let gpu_scale = GpuPlatform::a6000_ada().tflops / self.gpu.tflops;
        let tp_speedup = (self.tensor_parallel as f64).powf(cal::TP_PREFILL_EXPONENT);
        cal::PREFILL_S_BATCH32 * param_scale * len_scale * batch_scale * gpu_scale / tp_speedup
    }

    /// Seconds to decode `tokens` output tokens for a batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn decode_latency(&self, batch: usize, tokens: u32) -> f64 {
        assert!(batch > 0, "batch must be positive");
        let param_scale = (self.llm.params_b / cal::REF_PARAMS_B).powf(cal::DECODE_PARAM_EXPONENT);
        let len_scale = tokens as f64 / cal::REF_STRIDE_TOKENS;
        let batch_scale = (batch as f64 / cal::REF_BATCH).powf(cal::GPU_DECODE_BATCH_EXPONENT);
        let gpu_scale = GpuPlatform::a6000_ada().mem_bw_gbs / self.gpu.mem_bw_gbs;
        let tp_speedup = (self.tensor_parallel as f64).powf(cal::TP_DECODE_EXPONENT);
        cal::DECODE_STRIDE_S_BATCH32 * param_scale * len_scale * batch_scale * gpu_scale
            / tp_speedup
    }

    /// Board power during prefill, watts (all GPUs).
    pub fn prefill_power(&self) -> f64 {
        self.gpu.tdp_w * cal::GPU_PREFILL_POWER_FRACTION * self.tensor_parallel as f64
    }

    /// Board power during decode, watts (all GPUs).
    pub fn decode_power(&self) -> f64 {
        self.gpu.tdp_w * cal::GPU_DECODE_POWER_FRACTION * self.tensor_parallel as f64
    }

    /// Joules to prefill one batch.
    pub fn prefill_energy(&self, batch: usize, input_tokens: u32) -> f64 {
        self.prefill_power() * self.prefill_latency(batch, input_tokens)
    }

    /// Joules to decode `tokens` for one batch.
    pub fn decode_energy(&self, batch: usize, tokens: u32) -> f64 {
        self.decode_power() * self.decode_latency(batch, tokens)
    }
}

impl Default for InferenceModel {
    fn default() -> Self {
        InferenceModel::new(LlmModel::default(), GpuPlatform::default())
    }
}

/// The query encoder (BGE-large stand-in) used before every retrieval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderModel {
    /// Seconds per batch of 32 queries.
    pub s_batch32: f64,
    /// Board power while encoding, watts.
    pub power_w: f64,
}

impl EncoderModel {
    /// The calibrated BGE-large encoder.
    pub fn bge_large() -> Self {
        EncoderModel {
            s_batch32: cal::ENCODE_S_BATCH32,
            power_w: cal::ENCODE_POWER_W,
        }
    }

    /// Seconds to encode a batch of queries.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn latency(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be positive");
        self.s_batch32 * (batch as f64 / cal::REF_BATCH).powf(cal::ENCODE_BATCH_EXPONENT)
    }

    /// Joules to encode a batch.
    pub fn energy(&self, batch: usize) -> f64 {
        self.power_w * self.latency(batch)
    }
}

impl Default for EncoderModel {
    fn default() -> Self {
        EncoderModel::bge_large()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_anchor_matches_section_3() {
        let inf = InferenceModel::default();
        let qps = 32.0 / inf.prefill_latency(32, 512);
        assert!((qps - 132.0).abs() < 5.0, "{qps}");
    }

    #[test]
    fn decode_anchor_matches_section_3() {
        let inf = InferenceModel::default();
        let qps = 32.0 / inf.decode_latency(32, 16);
        assert!((qps - 67.0).abs() < 3.0, "{qps}");
    }

    #[test]
    fn prefill_energy_near_2_2_joules_per_query() {
        let inf = InferenceModel::default();
        let per_query = inf.prefill_energy(32, 512) / 32.0;
        assert!((per_query - 2.2).abs() < 0.2, "{per_query}");
    }

    #[test]
    fn opt_30b_needs_two_a6000() {
        assert_eq!(
            LlmModel::opt_30b().gpus_required(&GpuPlatform::a6000_ada()),
            2
        );
    }

    #[test]
    fn gemma_needs_two_l4() {
        assert_eq!(LlmModel::gemma2_9b().gpus_required(&GpuPlatform::l4()), 2);
    }

    #[test]
    fn phi_fits_on_one_gpu() {
        assert_eq!(
            LlmModel::phi_1_5().gpus_required(&GpuPlatform::a6000_ada()),
            1
        );
        assert_eq!(LlmModel::phi_1_5().gpus_required(&GpuPlatform::l4()), 1);
    }

    #[test]
    fn bigger_models_are_slower() {
        let gpu = GpuPlatform::a6000_ada();
        let phi = InferenceModel::new(LlmModel::phi_1_5(), gpu.clone());
        let gemma = InferenceModel::new(LlmModel::gemma2_9b(), gpu.clone());
        let opt = InferenceModel::new(LlmModel::opt_30b(), gpu);
        assert!(phi.decode_latency(32, 16) < gemma.decode_latency(32, 16));
        assert!(gemma.decode_latency(32, 16) < opt.decode_latency(32, 16));
    }

    #[test]
    fn l4_is_slower_than_a6000_for_gemma() {
        let a6000 = InferenceModel::new(LlmModel::gemma2_9b(), GpuPlatform::a6000_ada());
        let l4 = InferenceModel::new(LlmModel::gemma2_9b(), GpuPlatform::l4());
        assert!(l4.prefill_latency(32, 512) > a6000.prefill_latency(32, 512));
        // ... but draws less board power per GPU.
        assert!(GpuPlatform::l4().tdp_w < GpuPlatform::a6000_ada().tdp_w);
    }

    #[test]
    fn prefill_scales_with_input_length() {
        let inf = InferenceModel::default();
        let short = inf.prefill_latency(32, 256);
        let long = inf.prefill_latency(32, 2048);
        assert!((long / short - 8.0).abs() < 0.5);
    }

    #[test]
    fn encoder_latency_grows_sublinearly_with_batch() {
        let e = EncoderModel::bge_large();
        let l32 = e.latency(32);
        let l128 = e.latency(128);
        assert!(l128 > l32);
        assert!(l128 < 4.0 * l32);
    }
}
