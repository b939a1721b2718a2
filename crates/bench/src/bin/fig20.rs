//! Figure 20: CPU platform comparison — retrieval time per batch and
//! throughput vs clusters searched, across Neoverse-N1 (batch 32 and
//! 128), Xeon Gold 6448Y, Platinum 8380 and Silver 4316, against the
//! Gemma2-9B inference latency line.

use hermes::metrics::{Row, Table};
use hermes::perfmodel::{CpuPlatform, InferenceModel};
use hermes::sim::{Deployment, DvfsMode, MultiNodeSim, RetrievalScheme, ServingConfig};
use hermes_bench::emit;

const TOKENS: u64 = 100_000_000_000; // 10 nodes x 10B tokens (the paper's split)

fn cost_for(platform: CpuPlatform, batch: usize, m: usize) -> (f64, f64) {
    let deployment = Deployment::uniform(TOKENS, 10).with_platform(platform);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default().with_batch(batch);
    let cost = sim.retrieval_cost(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: m,
            sample_nprobe: 8,
        },
        DvfsMode::Off,
        0.0,
    );
    (cost.latency_s, cost.qps)
}

fn main() {
    let configs: Vec<(String, CpuPlatform, usize)> = vec![
        ("Neoverse-N1 (BS=32)".into(), CpuPlatform::neoverse_n1(), 32),
        (
            "Neoverse-N1 (BS=128)".into(),
            CpuPlatform::neoverse_n1(),
            128,
        ),
        ("Gold 6448Y".into(), CpuPlatform::xeon_gold_6448y(), 128),
        (
            "Platinum 8380".into(),
            CpuPlatform::xeon_platinum_8380(),
            128,
        ),
        ("Silver 4316".into(), CpuPlatform::xeon_silver_4316(), 128),
    ];
    let inference = InferenceModel::default();
    let decode_128 = inference.decode_latency(128, 16);

    let mut latency = Table::new(
        "Figure 20 (left) — time per batch (s) vs clusters searched",
        &[
            "clusters",
            &configs[0].0,
            &configs[1].0,
            &configs[2].0,
            &configs[3].0,
            &configs[4].0,
        ],
    );
    let mut qps = Table::new(
        "Figure 20 (right) — throughput (QPS) vs clusters searched",
        &[
            "clusters",
            &configs[0].0,
            &configs[1].0,
            &configs[2].0,
            &configs[3].0,
            &configs[4].0,
        ],
    );
    for m in [1usize, 2, 4, 6, 8, 10] {
        let mut lat_cells = Vec::new();
        let mut qps_cells = Vec::new();
        for (_, platform, batch) in &configs {
            let (l, q) = cost_for(platform.clone(), *batch, m);
            lat_cells.push(format!("{l:.3}"));
            qps_cells.push(format!("{q:.0}"));
        }
        latency.push(Row::new(m.to_string(), lat_cells));
        qps.push(Row::new(m.to_string(), qps_cells));
    }
    latency.push(Row::new(
        "Gemma2-9B inference (stride)",
        vec![format!("{decode_128:.3}"); 5],
    ));
    emit("fig20_latency", &[&latency]);
    emit("fig20_qps", &[&qps]);

    let (plat_l, plat_q) = cost_for(CpuPlatform::xeon_platinum_8380(), 128, 3);
    let (arm32, _) = cost_for(CpuPlatform::neoverse_n1(), 32, 3);
    let (arm128, arm128_q) = cost_for(CpuPlatform::neoverse_n1(), 128, 3);
    println!(
        "shape check: Platinum 8380 leads ({plat_l:.3}s, {plat_q:.0} QPS at 3\n\
         clusters; paper 0.084-0.13s, 249-379 QPS); the ARM part is slower\n\
         per batch ({arm32:.3}s at BS=32) but recovers throughput at BS=128\n\
         ({arm128_q:.0} QPS over {arm128:.3}s) thanks to its core count."
    );
}
