//! CPU retrieval platforms and the IVF latency/power model.

use crate::calibration as cal;

/// A CPU platform the retrieval stage can run on.
///
/// The presets mirror the platforms of the paper's Figure 20; the
/// `latency_factor` is relative to the reference Xeon Gold 6448Y at the
/// same batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPlatform {
    /// Marketing name used in reports.
    pub name: String,
    /// Physical cores available for search threads.
    pub cores: u32,
    /// Nominal frequency, GHz.
    pub freq_ghz: f64,
    /// Search latency multiplier relative to the Xeon Gold 6448Y.
    pub latency_factor: f64,
    /// Package power while searching at full frequency, watts.
    pub search_power_w: f64,
    /// Memory capacity, GB (bounds the largest index a node can host).
    pub memory_gb: f64,
}

impl CpuPlatform {
    /// Intel Xeon Gold 6448Y — the paper's reference retrieval CPU.
    pub fn xeon_gold_6448y() -> Self {
        CpuPlatform {
            name: "Xeon Gold 6448Y".to_string(),
            cores: 32,
            freq_ghz: 2.3,
            latency_factor: 1.0,
            search_power_w: cal::CPU_SEARCH_POWER_W,
            memory_gb: 512.0,
        }
    }

    /// Intel Xeon Platinum 8380 — the fastest platform in Figure 20.
    pub fn xeon_platinum_8380() -> Self {
        CpuPlatform {
            name: "Xeon Platinum 8380".to_string(),
            cores: 40,
            freq_ghz: 2.3,
            latency_factor: 0.72,
            search_power_w: 270.0,
            memory_gb: 512.0,
        }
    }

    /// Intel Xeon Silver 4316 — the slower Intel part in Figure 20.
    pub fn xeon_silver_4316() -> Self {
        CpuPlatform {
            name: "Xeon Silver 4316".to_string(),
            cores: 20,
            freq_ghz: 2.3,
            latency_factor: 1.65,
            search_power_w: 150.0,
            memory_gb: 256.0,
        }
    }

    /// Ampere/ARM Neoverse-N1 — slower per core but 80 cores, so larger
    /// batches recover throughput (Figure 20's BS=128 series).
    pub fn neoverse_n1() -> Self {
        CpuPlatform {
            name: "Neoverse-N1".to_string(),
            cores: 80,
            freq_ghz: 3.0,
            latency_factor: 2.3,
            search_power_w: 180.0,
            memory_gb: 256.0,
        }
    }

    /// Calibrates a platform's `latency_factor` from measured search
    /// latencies — the single-node measurement step of the paper's
    /// methodology (Figure 15). Each sample is
    /// `(tokens, batch, nprobe, measured_seconds)`; the factor is the
    /// mean ratio of measurement to the reference model's prediction.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-positive latencies.
    pub fn calibrated(
        name: &str,
        samples: &[(u64, usize, usize, f64)],
        search_power_w: f64,
        cores: u32,
        memory_gb: f64,
    ) -> CpuPlatform {
        assert!(!samples.is_empty(), "calibration needs measurements");
        let reference = RetrievalModel::new(CpuPlatform::xeon_gold_6448y());
        let mut ratio_sum = 0.0;
        for &(tokens, batch, nprobe, measured) in samples {
            assert!(measured > 0.0, "latencies must be positive");
            ratio_sum += measured / reference.batch_latency(tokens, batch, nprobe);
        }
        CpuPlatform {
            name: name.to_string(),
            cores,
            freq_ghz: 0.0,
            latency_factor: ratio_sum / samples.len() as f64,
            search_power_w,
            memory_gb,
        }
    }

    /// All Figure 20 presets.
    pub fn figure_20_platforms() -> Vec<CpuPlatform> {
        vec![
            CpuPlatform::neoverse_n1(),
            CpuPlatform::xeon_gold_6448y(),
            CpuPlatform::xeon_platinum_8380(),
            CpuPlatform::xeon_silver_4316(),
        ]
    }
}

impl Default for CpuPlatform {
    fn default() -> Self {
        CpuPlatform::xeon_gold_6448y()
    }
}

/// Calibrated IVF-SQ8 retrieval latency/energy model for one CPU node.
///
/// Latency per batch is linear in datastore tokens (the paper's observed
/// scaling, Figures 6/7), sub-linear in batch size (work-stealing overlap)
/// and affine in `nProbe` (a fixed centroid-ranking component plus list
/// scanning).
///
/// # Examples
///
/// ```
/// use hermes_perfmodel::{CpuPlatform, RetrievalModel};
///
/// let model = RetrievalModel::new(CpuPlatform::xeon_gold_6448y());
/// // Figure 4 anchor: 10B tokens, batch 128, nProbe 128 ≈ 0.97 s.
/// let latency = model.batch_latency(10_000_000_000, 128, 128);
/// assert!((latency - 0.97).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalModel {
    platform: CpuPlatform,
}

impl RetrievalModel {
    /// Builds the model for `platform`.
    pub fn new(platform: CpuPlatform) -> Self {
        RetrievalModel { platform }
    }

    /// The modeled platform.
    pub fn platform(&self) -> &CpuPlatform {
        &self.platform
    }

    /// Seconds to search one batch against an index of `tokens` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `nprobe` is zero.
    pub fn batch_latency(&self, tokens: u64, batch: usize, nprobe: usize) -> f64 {
        assert!(batch > 0, "batch must be positive");
        assert!(nprobe > 0, "nprobe must be positive");
        let size_scale = tokens as f64 / cal::RETRIEVAL_REF_TOKENS;
        let batch_scale = (batch as f64 / cal::REF_BATCH).powf(cal::CPU_BATCH_EXPONENT);
        let nprobe_scale = cal::NPROBE_FIXED_FRACTION
            + (1.0 - cal::NPROBE_FIXED_FRACTION) * (nprobe as f64 / cal::REF_NPROBE);
        cal::RETRIEVAL_FLOOR_S
            + cal::RETRIEVAL_S_PER_10B_BATCH32
                * size_scale
                * batch_scale
                * nprobe_scale
                * self.platform.latency_factor
    }

    /// Queries per second at the given operating point.
    pub fn throughput_qps(&self, tokens: u64, batch: usize, nprobe: usize) -> f64 {
        batch as f64 / self.batch_latency(tokens, batch, nprobe)
    }

    /// Joules consumed searching one batch at full frequency, with the
    /// whole package busy (the monolithic/naive case).
    pub fn batch_energy(&self, tokens: u64, batch: usize, nprobe: usize) -> f64 {
        self.platform.search_power_w * self.batch_latency(tokens, batch, nprobe)
    }

    /// Static (frequency/load independent) package power, watts.
    pub fn static_power_w(&self) -> f64 {
        self.platform.search_power_w * cal::CPU_STATIC_FRACTION
    }

    /// Dynamic power of one busy core, watts.
    pub fn active_core_power_w(&self) -> f64 {
        self.platform.search_power_w * (1.0 - cal::CPU_STATIC_FRACTION) / self.platform.cores as f64
    }

    /// Single-core seconds to scan the index once for one query — FAISS
    /// schedules one thread per query, so a query's work is one core
    /// busy for this long regardless of batch size.
    pub fn per_query_scan_s(&self, tokens: u64, nprobe: usize) -> f64 {
        // At the reference point (batch = cores = 32) wall latency equals
        // per-query single-core latency: every query has its own core.
        self.batch_latency(tokens, 32, nprobe)
    }

    /// Work-based energy for `queries` queries against `tokens` tokens
    /// while the node is powered for `wall_s` seconds:
    /// `static · wall + core_power · Σ per-query work`. Reduces to
    /// [`Self::batch_energy`] at the calibration anchor (batch 32, all
    /// cores busy for the whole wall time).
    pub fn work_energy(&self, tokens: u64, queries: usize, nprobe: usize, wall_s: f64) -> f64 {
        self.static_power_w() * wall_s
            + self.active_core_power_w() * queries as f64 * self.per_query_scan_s(tokens, nprobe)
    }

    /// Whether an IVF-SQ8 index of `tokens` tokens fits in node memory.
    pub fn fits_in_memory(&self, tokens: u64) -> bool {
        let bytes = hermes_datagen::DatastoreScale::paper(tokens).index_bytes_sq8();
        (bytes as f64) <= self.platform.memory_gb * 1e9
    }
}

impl Default for RetrievalModel {
    fn default() -> Self {
        RetrievalModel::new(CpuPlatform::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B10: u64 = 10_000_000_000;
    const B100: u64 = 100_000_000_000;
    const T1: u64 = 1_000_000_000_000;

    #[test]
    fn latency_is_linear_in_tokens() {
        let m = RetrievalModel::default();
        let l10 = m.batch_latency(B10, 32, 128);
        let l100 = m.batch_latency(B100, 32, 128);
        let ratio = l100 / l10;
        assert!((9.5..10.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn figure_7_qps_anchor_holds() {
        let m = RetrievalModel::default();
        let qps = m.throughput_qps(B100, 32, 128);
        assert!((qps - 5.69).abs() < 0.3, "{qps}");
    }

    #[test]
    fn figure_7_energy_anchor_holds() {
        let m = RetrievalModel::default();
        let joules = m.batch_energy(B100, 32, 128);
        assert!((1050.0..1200.0).contains(&joules), "{joules}");
    }

    #[test]
    fn larger_batches_improve_throughput() {
        let m = RetrievalModel::default();
        assert!(m.throughput_qps(B10, 128, 128) > m.throughput_qps(B10, 32, 128));
    }

    #[test]
    fn sampling_nprobe_is_much_cheaper_than_deep() {
        let m = RetrievalModel::default();
        let sample = m.batch_latency(B10, 128, 8);
        let deep = m.batch_latency(B10, 128, 128);
        let ratio = deep / sample;
        assert!((5.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn platform_factors_order_latency() {
        let gold = RetrievalModel::new(CpuPlatform::xeon_gold_6448y());
        let platinum = RetrievalModel::new(CpuPlatform::xeon_platinum_8380());
        let silver = RetrievalModel::new(CpuPlatform::xeon_silver_4316());
        let arm = RetrievalModel::new(CpuPlatform::neoverse_n1());
        let l = |m: &RetrievalModel| m.batch_latency(B10, 128, 128);
        assert!(l(&platinum) < l(&gold));
        assert!(l(&gold) < l(&silver));
        assert!(l(&silver) < l(&arm));
    }

    #[test]
    fn one_tb_index_does_not_fit_but_10b_does() {
        let m = RetrievalModel::default();
        assert!(m.fits_in_memory(B10));
        assert!(!m.fits_in_memory(T1));
    }

    #[test]
    fn tiny_cluster_latency_floors_above_zero() {
        let m = RetrievalModel::default();
        assert!(m.batch_latency(1, 32, 1) >= 0.002);
    }

    #[test]
    fn calibration_recovers_a_known_latency_factor() {
        // Synthesize measurements from a hypothetical CPU 1.4x slower
        // than the reference; calibration must recover the factor.
        let truth = 1.4;
        let reference = RetrievalModel::default();
        let samples: Vec<(u64, usize, usize, f64)> = [
            (B10, 32usize, 128usize),
            (B10, 128, 128),
            (B100, 32, 64),
            (2 * B10, 64, 8),
        ]
        .iter()
        .map(|&(t, b, np)| (t, b, np, truth * reference.batch_latency(t, b, np)))
        .collect();
        let platform = CpuPlatform::calibrated("custom", &samples, 180.0, 24, 256.0);
        assert!((platform.latency_factor - truth).abs() < 1e-9);
        let model = RetrievalModel::new(platform);
        let predicted = model.batch_latency(B10, 32, 128);
        assert!((predicted / reference.batch_latency(B10, 32, 128) - truth).abs() < 0.01);
    }

    #[test]
    fn latency_scaling_law_is_verifiably_linear() {
        // The property the whole at-scale extrapolation rests on.
        let m = RetrievalModel::default();
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 1e10).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&t| m.batch_latency(t as u64, 32, 128))
            .collect();
        let (_, _, r2) = hermes_math::stats::linear_fit(&xs, &ys).unwrap();
        assert!(r2 > 0.9999, "r2 {r2}");
    }

    #[test]
    fn work_energy_matches_batch_energy_at_anchor() {
        // Batch 32 on 32 cores keeps every core busy the whole time, so the
        // two energy accountings must coincide (±2%).
        let m = RetrievalModel::default();
        let wall = m.batch_latency(B100, 32, 128);
        let work = m.work_energy(B100, 32, 128, wall);
        let pkg = m.batch_energy(B100, 32, 128);
        assert!((work - pkg).abs() / pkg < 0.02, "{work} vs {pkg}");
    }

    #[test]
    fn work_energy_scales_with_queries_not_wall_time_alone() {
        let m = RetrievalModel::default();
        let wall = 10.0;
        let light = m.work_energy(B10, 12, 128, wall);
        let heavy = m.work_energy(B10, 120, 128, wall);
        assert!(heavy > 5.0 * light - m.static_power_w() * wall * 5.0);
        assert!(heavy > light);
    }
}
