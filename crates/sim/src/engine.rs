//! The multi-node aggregation engine.
//!
//! Computes per-stride stage latencies from the device models, composes
//! them under the chosen pipeline policy, and charges energy with the
//! work-based CPU model plus the DVFS policy under study.

use hermes_metrics::EnergyMeter;
use hermes_perfmodel::DvfsModel;

use crate::deployment::Deployment;
use crate::report::{SimReport, StageSpan};

/// How retrieval is organized across nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrievalScheme {
    /// One node holds the whole datastore (the paper's baseline).
    Monolithic,
    /// The datastore is sharded over all nodes; every query searches every
    /// node and results are aggregated (naive distribution).
    NaiveDistributed,
    /// Hermes: cheap sampling on all nodes ranks clusters; each query
    /// deep-searches only the top `clusters_to_search`.
    Hermes {
        /// Deep-searched clusters per query.
        clusters_to_search: usize,
        /// Sampling-phase `nProbe`.
        sample_nprobe: usize,
    },
}

/// Prior-work optimizations layered on the pipeline (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelinePolicy {
    /// PipeRAG: overlap each stride's retrieval (plus re-encode/re-prefill)
    /// with the previous stride's decode.
    pub pipelined: bool,
    /// RAGCache: cache document KV tensors so re-prefill after the first
    /// stride is free (the paper assumes an ideal 100% hit rate).
    pub prefix_cache: bool,
}

impl PipelinePolicy {
    /// Unoptimized baseline.
    pub fn baseline() -> Self {
        PipelinePolicy::default()
    }

    /// PipeRAG only.
    pub fn piperag() -> Self {
        PipelinePolicy {
            pipelined: true,
            prefix_cache: false,
        }
    }

    /// RAGCache only.
    pub fn ragcache() -> Self {
        PipelinePolicy {
            pipelined: false,
            prefix_cache: true,
        }
    }

    /// Both optimizations (the "Hermes/PipeRAG/RAGCache" bars).
    pub fn combined() -> Self {
        PipelinePolicy {
            pipelined: true,
            prefix_cache: true,
        }
    }
}

/// DVFS policy applied to retrieval nodes (Figure 21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DvfsMode {
    /// All nodes at maximum frequency; early finishers idle at static
    /// power.
    #[default]
    Off,
    /// Baseline DVFS: each node stretches its deep search to the latency
    /// of the slowest node in the batch.
    SlowestCluster,
    /// Enhanced DVFS: nodes stretch to the pipelined inference latency,
    /// since retrieval finishing before the GPU buys nothing.
    InferenceBound,
}

/// Serving configuration shared by all schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Queries per batch (paper default 128; characterization uses 32).
    pub batch: usize,
    /// Input prompt tokens (paper default 512).
    pub input_tokens: u32,
    /// Generated output tokens (paper default 256).
    pub output_tokens: u32,
    /// Retrieval stride in tokens (paper default 16).
    pub stride: u32,
    /// Deep-search / monolithic `nProbe` (paper default 128).
    pub nprobe: usize,
}

impl ServingConfig {
    /// Paper defaults: batch 128, 512 in, 256 out, stride 16, `nProbe` 128.
    pub fn paper_default() -> Self {
        ServingConfig {
            batch: 128,
            input_tokens: 512,
            output_tokens: 256,
            stride: 16,
            nprobe: 128,
        }
    }

    /// Sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the stride length.
    pub fn with_stride(mut self, stride: u32) -> Self {
        self.stride = stride;
        self
    }

    /// Number of retrieval strides for a full generation (at least 1).
    pub fn strides(&self) -> u32 {
        (self.output_tokens / self.stride.max(1)).max(1)
    }
}

/// Per-stride retrieval cost for one scheme on one deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalCost {
    /// Wall latency of the retrieval phase(s), seconds.
    pub latency_s: f64,
    /// Joules per batch across all nodes (including idle static power).
    pub joules: f64,
    /// Steady-state throughput bound, queries/second (bottleneck stage).
    pub qps: f64,
}

/// The multi-node analysis tool.
///
/// # Examples
///
/// ```
/// use hermes_sim::{Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig};
///
/// let sim = MultiNodeSim::new(Deployment::uniform(1_000_000_000_000, 10));
/// let serving = ServingConfig::paper_default();
/// let base = sim.run(&serving, RetrievalScheme::Monolithic, PipelinePolicy::baseline(), DvfsMode::Off);
/// let hermes = sim.run(
///     &serving,
///     RetrievalScheme::Hermes { clusters_to_search: 3, sample_nprobe: 8 },
///     PipelinePolicy::combined(),
///     DvfsMode::Off,
/// );
/// assert!(base.e2e_s / hermes.e2e_s > 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiNodeSim {
    deployment: Deployment,
    dvfs: DvfsModel,
}

impl MultiNodeSim {
    /// Builds the tool over a deployment.
    pub fn new(deployment: Deployment) -> Self {
        MultiNodeSim {
            deployment,
            dvfs: DvfsModel::default(),
        }
    }

    /// The deployment under analysis.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Retrieval-only cost of one batch under `scheme` (Figures 18/20).
    ///
    /// `budget_s` is the DVFS stretch budget; pass `None` for
    /// [`DvfsMode::Off`]-style full-speed operation.
    pub fn retrieval_cost(
        &self,
        serving: &ServingConfig,
        scheme: RetrievalScheme,
        dvfs_mode: DvfsMode,
        inference_budget_s: f64,
    ) -> RetrievalCost {
        let d = &self.deployment;
        let retr = &d.retrieval;
        let b = serving.batch;
        match scheme {
            RetrievalScheme::Monolithic => {
                let tokens = d.total_tokens();
                let latency = retr.batch_latency(tokens, b, serving.nprobe);
                let joules = retr.work_energy(tokens, b, serving.nprobe, latency);
                RetrievalCost {
                    latency_s: latency,
                    joules,
                    qps: b as f64 / latency,
                }
            }
            RetrievalScheme::NaiveDistributed => {
                // Every node searches the full batch in parallel.
                let lats: Vec<f64> = d
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, n)| d.node_model(i).batch_latency(n.tokens, b, serving.nprobe))
                    .collect();
                let wall = lats.iter().cloned().fold(0.0, f64::max);
                let joules = self.deep_phase_energy(
                    &lats,
                    &vec![b; d.nodes.len()],
                    serving.nprobe,
                    wall,
                    dvfs_mode,
                    inference_budget_s,
                );
                RetrievalCost {
                    latency_s: wall,
                    joules,
                    qps: b as f64 / wall,
                }
            }
            RetrievalScheme::Hermes {
                clusters_to_search,
                sample_nprobe,
            } => {
                let m = clusters_to_search.clamp(1, d.nodes.len());
                // Phase 1: sampling on every node (k=1, low nProbe), full
                // batch fan-out.
                let sample_lats: Vec<f64> = d
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, n)| d.node_model(i).batch_latency(n.tokens, b, sample_nprobe))
                    .collect();
                let sample_wall = sample_lats.iter().cloned().fold(0.0, f64::max);
                let mut sample_joules = 0.0;
                for (i, (n, lat)) in d.nodes.iter().zip(&sample_lats).enumerate() {
                    let node_model = d.node_model(i);
                    sample_joules += node_model.work_energy(n.tokens, b, sample_nprobe, *lat)
                        + node_model.static_power_w() * (sample_wall - lat);
                }

                // Phase 2: each query deep-searches its top-m clusters;
                // node load follows the access frequencies.
                let loads: Vec<usize> = spread_deep_load(d, b, m);
                let deep_lats: Vec<f64> = d
                    .nodes
                    .iter()
                    .enumerate()
                    .zip(&loads)
                    .map(|((i, n), &q)| {
                        if q == 0 {
                            0.0
                        } else {
                            d.node_model(i).batch_latency(n.tokens, q, serving.nprobe)
                        }
                    })
                    .collect();
                let deep_wall = deep_lats.iter().cloned().fold(0.0, f64::max);
                let deep_joules = self.deep_phase_energy(
                    &deep_lats,
                    &loads,
                    serving.nprobe,
                    deep_wall,
                    dvfs_mode,
                    inference_budget_s,
                );
                let latency = sample_wall + deep_wall;
                RetrievalCost {
                    latency_s: latency,
                    joules: sample_joules + deep_joules,
                    // Sampling and deep phases pipeline across batches in
                    // steady state; the slower phase bounds throughput.
                    qps: b as f64 / sample_wall.max(deep_wall),
                }
            }
        }
    }

    fn deep_phase_energy(
        &self,
        lats: &[f64],
        loads: &[usize],
        nprobe: usize,
        wall: f64,
        dvfs_mode: DvfsMode,
        inference_budget_s: f64,
    ) -> f64 {
        let d = &self.deployment;
        let mut joules = 0.0;
        for (i, ((node, &lat), &q)) in d.nodes.iter().zip(lats).zip(loads).enumerate() {
            let retr = d.node_model(i);
            if q == 0 {
                joules += retr.static_power_w() * wall;
                continue;
            }
            let budget = match dvfs_mode {
                DvfsMode::Off => lat,
                DvfsMode::SlowestCluster => wall,
                DvfsMode::InferenceBound => wall.max(inference_budget_s),
            };
            // Work-based busy energy, scaled by the DVFS stretch factor.
            let full_speed = retr.work_energy(node.tokens, q, nprobe, lat);
            let busy = full_speed * self.dvfs.energy(1.0, lat, budget) / lat.max(1e-12);
            // Idle static power is charged only within the retrieval
            // phase itself; a node stretched past the phase wall by DVFS
            // is busy (at reduced power) instead of idling.
            let elapsed = lat / self.dvfs.frequency_for_budget(lat, budget);
            let idle = retr.static_power_w() * (wall - elapsed).max(0.0);
            joules += busy + idle;
        }
        joules
    }

    /// Full pipeline simulation of one batch.
    pub fn run(
        &self,
        serving: &ServingConfig,
        scheme: RetrievalScheme,
        policy: PipelinePolicy,
        dvfs_mode: DvfsMode,
    ) -> SimReport {
        let d = &self.deployment;
        let b = serving.batch;
        let strides = serving.strides();

        let encode_s = d.encoder.latency(b);
        let prefill_s = d.inference.prefill_latency(b, serving.input_tokens);
        let decode_s = d.inference.decode_latency(b, serving.stride);
        let inference_budget = decode_s + if policy.prefix_cache { 0.0 } else { prefill_s };
        let rc = self.retrieval_cost(serving, scheme, dvfs_mode, inference_budget);

        // Re-prefill cost on strides 2..: free with an ideal prefix cache.
        let reprefill_s = if policy.prefix_cache { 0.0 } else { prefill_s };

        let ttft = encode_s + rc.latency_s + prefill_s;
        let per_stride_work = encode_s + rc.latency_s + reprefill_s;
        // Steady state: with batches pipelined back to back, throughput is
        // bound by the slowest stage of a stride (CPU retrieval chain vs
        // GPU decode); without pipelining, stages serialize.
        let bottleneck = if policy.pipelined {
            per_stride_work.max(decode_s)
        } else {
            per_stride_work + decode_s
        };
        let sustained_qps = b as f64 / bottleneck;
        let e2e = if policy.pipelined {
            // Strides 2.. overlap their retrieval work with the previous
            // stride's decode.
            ttft + decode_s + (strides as f64 - 1.0) * per_stride_work.max(decode_s)
        } else {
            ttft + decode_s + (strides as f64 - 1.0) * (per_stride_work + decode_s)
        };

        // Energy: every stride encodes, retrieves and decodes; prefill is
        // paid per stride unless cached (then once).
        let mut energy = EnergyMeter::new();
        energy.record_joules("encode", d.encoder.energy(b) * strides as f64);
        energy.record_joules("retrieval", rc.joules * strides as f64);
        let prefill_count = if policy.prefix_cache {
            1.0
        } else {
            strides as f64
        };
        energy.record_joules(
            "prefill",
            d.inference.prefill_energy(b, serving.input_tokens) * prefill_count,
        );
        energy.record_joules(
            "decode",
            d.inference.decode_energy(b, serving.stride) * strides as f64,
        );

        // Timeline of the first two strides for Figure 8.
        let mut timeline = Vec::new();
        let mut t = 0.0;
        timeline.push(StageSpan::new("encode", t, t + encode_s));
        t += encode_s;
        timeline.push(StageSpan::new("retrieval", t, t + rc.latency_s));
        t += rc.latency_s;
        timeline.push(StageSpan::new("prefill", t, t + prefill_s));
        t += prefill_s;
        timeline.push(StageSpan::new("decode", t, t + decode_s));
        if strides > 1 {
            if policy.pipelined {
                // Next stride's retrieval work starts alongside decode.
                timeline.push(StageSpan::new("retrieval", t, t + per_stride_work));
                let next = t + per_stride_work.max(decode_s);
                timeline.push(StageSpan::new("decode", next, next + decode_s));
            } else {
                let mut u = t + decode_s;
                timeline.push(StageSpan::new("encode", u, u + encode_s));
                u += encode_s;
                timeline.push(StageSpan::new("retrieval", u, u + rc.latency_s));
                u += rc.latency_s;
                if reprefill_s > 0.0 {
                    timeline.push(StageSpan::new("prefill", u, u + reprefill_s));
                    u += reprefill_s;
                }
                timeline.push(StageSpan::new("decode", u, u + decode_s));
            }
        }

        SimReport {
            ttft_s: ttft,
            e2e_s: e2e,
            retrieval_per_stride_s: rc.latency_s,
            encode_s,
            prefill_s,
            decode_per_stride_s: decode_s,
            strides,
            energy,
            retrieval_qps: rc.qps,
            sustained_qps,
            timeline,
        }
    }
}

/// Distributes `batch * m` deep searches over nodes by access frequency,
/// capping per-node load at the batch size (a query never searches the
/// same cluster twice).
fn spread_deep_load(d: &Deployment, batch: usize, m: usize) -> Vec<usize> {
    let total = batch * m;
    let mut loads: Vec<usize> = d
        .nodes
        .iter()
        .map(|n| ((total as f64 * n.access_freq).round() as usize).min(batch))
        .collect();
    // Repair rounding drift while respecting the per-node cap.
    let mut assigned: usize = loads.iter().sum();
    let mut i = 0;
    while assigned < total && i < 10 * loads.len() {
        let idx = i % loads.len();
        if loads[idx] < batch {
            loads[idx] += 1;
            assigned += 1;
        }
        i += 1;
    }
    while assigned > total {
        let idx = loads
            .iter()
            .enumerate()
            .max_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .expect("non-empty");
        if loads[idx] == 0 {
            break;
        }
        loads[idx] -= 1;
        assigned -= 1;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: u64 = 1_000_000_000_000;
    const B100: u64 = 100_000_000_000;
    const B1: u64 = 1_000_000_000;

    fn hermes3() -> RetrievalScheme {
        RetrievalScheme::Hermes {
            clusters_to_search: 3,
            sample_nprobe: 8,
        }
    }

    #[test]
    fn hermes_e2e_speedup_at_1t_is_near_9x() {
        let sim = MultiNodeSim::new(Deployment::uniform(T1, 10));
        let s = ServingConfig::paper_default();
        let base = sim.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        let hermes = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
        let speedup = base.e2e_s / hermes.e2e_s;
        assert!((6.0..15.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn hermes_energy_saving_at_1t_near_2x() {
        let sim = MultiNodeSim::new(Deployment::uniform(T1, 10));
        let s = ServingConfig::paper_default();
        let base = sim.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        let hermes = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
        let saving = base.total_joules() / hermes.total_joules();
        assert!((1.5..3.0).contains(&saving), "saving {saving}");
    }

    #[test]
    fn ttft_improvement_at_1t_near_9x() {
        let sim = MultiNodeSim::new(Deployment::uniform(T1, 10));
        let s = ServingConfig::paper_default();
        let base = sim.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        let hermes = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
        let speedup = base.ttft_s / hermes.ttft_s;
        assert!((5.0..14.0).contains(&speedup), "TTFT speedup {speedup}");
    }

    #[test]
    fn small_datastores_see_smaller_gains() {
        let s = ServingConfig::paper_default();
        let gain_at = |tokens: u64| {
            let sim = MultiNodeSim::new(Deployment::uniform(tokens, 10));
            let base = sim.run(
                &s,
                RetrievalScheme::Monolithic,
                PipelinePolicy::baseline(),
                DvfsMode::Off,
            );
            let hermes = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
            base.e2e_s / hermes.e2e_s
        };
        assert!(gain_at(B1) < gain_at(B100));
        assert!(gain_at(B100) < gain_at(T1) * 1.2);
    }

    #[test]
    fn shorter_strides_amplify_hermes_gains() {
        let sim = MultiNodeSim::new(Deployment::uniform(T1, 10));
        let gain_at = |stride: u32| {
            let s = ServingConfig::paper_default().with_stride(stride);
            let base = sim.run(
                &s,
                RetrievalScheme::Monolithic,
                PipelinePolicy::baseline(),
                DvfsMode::Off,
            );
            let hermes = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
            base.e2e_s / hermes.e2e_s
        };
        assert!(gain_at(4) >= gain_at(64));
    }

    #[test]
    fn piperag_hides_retrieval_only_when_small() {
        let s = ServingConfig::paper_default().with_batch(32);
        // Small store: pipelining hides retrieval almost fully.
        let small = MultiNodeSim::new(Deployment::uniform(100_000_000, 1));
        let seq = small.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        let pipe = small.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::piperag(),
            DvfsMode::Off,
        );
        let small_gain = seq.e2e_s / pipe.e2e_s;
        assert!(small_gain > 1.3, "{small_gain}");
        // Large store: retrieval dwarfs decode; pipelining gains fade.
        let large = MultiNodeSim::new(Deployment::uniform(B100, 1));
        let seq_l = large.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        let pipe_l = large.run(
            &s,
            RetrievalScheme::Monolithic,
            PipelinePolicy::piperag(),
            DvfsMode::Off,
        );
        let large_gain = seq_l.e2e_s / pipe_l.e2e_s;
        assert!(large_gain < small_gain, "{large_gain} vs {small_gain}");
        assert!(large_gain < 1.25, "{large_gain}");
    }

    #[test]
    fn ragcache_gain_shrinks_with_datastore_size() {
        let s = ServingConfig::paper_default().with_batch(32);
        let gain_at = |tokens: u64| {
            let sim = MultiNodeSim::new(Deployment::uniform(tokens, 1));
            let seq = sim.run(
                &s,
                RetrievalScheme::Monolithic,
                PipelinePolicy::baseline(),
                DvfsMode::Off,
            );
            let cache = sim.run(
                &s,
                RetrievalScheme::Monolithic,
                PipelinePolicy::ragcache(),
                DvfsMode::Off,
            );
            seq.e2e_s / cache.e2e_s
        };
        assert!(gain_at(100_000_000) > gain_at(B100));
    }

    #[test]
    fn e2e_matches_figure_6_anchors_at_batch_32() {
        // Baseline monolithic, stride 16, 256 out: ≈12 s @ 100M,
        // ≈102 s @ 100B, ≈909 s @ 1T.
        let s = ServingConfig::paper_default().with_batch(32);
        let e2e_at = |tokens: u64| {
            MultiNodeSim::new(Deployment::uniform(tokens, 1))
                .run(
                    &s,
                    RetrievalScheme::Monolithic,
                    PipelinePolicy::baseline(),
                    DvfsMode::Off,
                )
                .e2e_s
        };
        let e100m = e2e_at(100_000_000);
        let e100b = e2e_at(B100);
        let e1t = e2e_at(T1);
        assert!((9.0..16.0).contains(&e100m), "100M: {e100m}");
        assert!((85.0..120.0).contains(&e100b), "100B: {e100b}");
        assert!((800.0..1000.0).contains(&e1t), "1T: {e1t}");
    }

    #[test]
    fn naive_distribution_is_fast_but_energy_hungry() {
        let sim = MultiNodeSim::new(Deployment::uniform(B100, 10));
        let s = ServingConfig::paper_default();
        let mono = sim.retrieval_cost(&s, RetrievalScheme::Monolithic, DvfsMode::Off, 0.0);
        let naive = sim.retrieval_cost(&s, RetrievalScheme::NaiveDistributed, DvfsMode::Off, 0.0);
        assert!(naive.latency_s < mono.latency_s / 5.0);
        assert!(
            naive.joules > mono.joules * 0.8,
            "naive {} mono {}",
            naive.joules,
            mono.joules
        );
    }

    #[test]
    fn hermes_beats_naive_throughput_and_energy_near_paper_ratios() {
        // Figure 18: 3 of 10 clusters → ≈1.81x QPS and ≈1.77x energy.
        let sim = MultiNodeSim::new(Deployment::uniform(B100, 10));
        let s = ServingConfig::paper_default();
        let naive = sim.retrieval_cost(&s, RetrievalScheme::NaiveDistributed, DvfsMode::Off, 0.0);
        let hermes = sim.retrieval_cost(&s, hermes3(), DvfsMode::Off, 0.0);
        let qps_gain = hermes.qps / naive.qps;
        let energy_gain = naive.joules / hermes.joules;
        assert!((1.2..2.6).contains(&qps_gain), "qps gain {qps_gain}");
        assert!(
            (1.4..2.6).contains(&energy_gain),
            "energy gain {energy_gain}"
        );
    }

    #[test]
    fn energy_grows_with_clusters_searched() {
        let sim = MultiNodeSim::new(Deployment::uniform(B100, 10));
        let s = ServingConfig::paper_default();
        let mut prev = 0.0;
        for m in 1..=10 {
            let cost = sim.retrieval_cost(
                &s,
                RetrievalScheme::Hermes {
                    clusters_to_search: m,
                    sample_nprobe: 8,
                },
                DvfsMode::Off,
                0.0,
            );
            assert!(cost.joules > prev, "m={m}");
            prev = cost.joules;
        }
    }

    #[test]
    fn dvfs_saves_energy_and_enhanced_saves_more() {
        let sim = MultiNodeSim::new(Deployment::skewed(B100, 10, 2.0, 0.8, 7));
        let s = ServingConfig::paper_default();
        let budget = 2.0; // generous inference budget
        let off = sim.retrieval_cost(&s, hermes3(), DvfsMode::Off, budget);
        let slow = sim.retrieval_cost(&s, hermes3(), DvfsMode::SlowestCluster, budget);
        let inf = sim.retrieval_cost(&s, hermes3(), DvfsMode::InferenceBound, budget * 10.0);
        assert!(slow.joules <= off.joules);
        assert!(inf.joules < slow.joules);
        // DVFS must not change the reported wall latency budget violation.
        assert_eq!(off.latency_s, slow.latency_s);
    }

    #[test]
    fn spread_load_conserves_total_queries() {
        let d = Deployment::skewed(B100, 10, 2.0, 1.0, 3);
        let loads = spread_deep_load(&d, 128, 3);
        assert_eq!(loads.iter().sum::<usize>(), 128 * 3);
        assert!(loads.iter().all(|&l| l <= 128));
    }

    #[test]
    fn strides_count_is_output_over_stride() {
        assert_eq!(ServingConfig::paper_default().strides(), 16);
        assert_eq!(ServingConfig::paper_default().with_stride(4).strides(), 64);
    }

    #[test]
    fn sustained_qps_dominates_e2e_qps() {
        // Back-to-back pipelined batches amortize TTFT, so sustained
        // throughput is at least the single-batch E2E throughput.
        let sim = MultiNodeSim::new(Deployment::uniform(B100, 10));
        let s = ServingConfig::paper_default();
        for policy in [PipelinePolicy::baseline(), PipelinePolicy::combined()] {
            let r = sim.run(&s, hermes3(), policy, DvfsMode::Off);
            assert!(
                r.sustained_qps >= r.e2e_qps(s.batch),
                "sustained {} < e2e {}",
                r.sustained_qps,
                r.e2e_qps(s.batch)
            );
        }
    }

    #[test]
    fn pipelining_improves_sustained_throughput() {
        let sim = MultiNodeSim::new(Deployment::uniform(B1, 10));
        let s = ServingConfig::paper_default();
        let seq = sim.run(&s, hermes3(), PipelinePolicy::ragcache(), DvfsMode::Off);
        let pipe = sim.run(&s, hermes3(), PipelinePolicy::combined(), DvfsMode::Off);
        assert!(pipe.sustained_qps > seq.sustained_qps);
    }

    #[test]
    fn timeline_spans_are_ordered_per_resource() {
        let sim = MultiNodeSim::new(Deployment::uniform(B1, 10));
        let r = sim.run(
            &ServingConfig::paper_default(),
            hermes3(),
            PipelinePolicy::combined(),
            DvfsMode::Off,
        );
        assert!(!r.timeline.is_empty());
        for span in &r.timeline {
            assert!(span.end_s >= span.start_s);
        }
    }
}
