//! Figure 14: normalized end-to-end latency and energy of Baseline,
//! RAGCache, PipeRAG, Hermes and Hermes+both, swept over batch size,
//! datastore size and stride length (multi-node analysis tool).

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{report::normalize_to_max, Row, Table};
use hermes::sim::{
    Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
};
use hermes_bench::emit;

const SYSTEMS: [&str; 5] = [
    "Baseline",
    "RAGCache",
    "PipeRAG",
    "Hermes",
    "Hermes/PipeRAG/RAGCache",
];

fn run_all(sim: &MultiNodeSim, serving: &ServingConfig) -> Vec<(f64, f64)> {
    let hermes = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };
    [
        (RetrievalScheme::Monolithic, PipelinePolicy::baseline()),
        (RetrievalScheme::Monolithic, PipelinePolicy::ragcache()),
        (RetrievalScheme::Monolithic, PipelinePolicy::piperag()),
        (hermes, PipelinePolicy::baseline()),
        (hermes, PipelinePolicy::combined()),
    ]
    .into_iter()
    .map(|(scheme, policy)| {
        let r = sim.run(serving, scheme, policy, DvfsMode::Off);
        (r.e2e_s, r.total_joules())
    })
    .collect()
}

fn push_norm(table: &mut Table, label: String, values: &[f64]) {
    let norm = normalize_to_max(values);
    table.push(Row::new(
        label,
        norm.iter().map(|v| format!("{v:.3}")).collect(),
    ));
}

fn main() {
    let tokens_default = 10_000_000_000u64;

    // --- Sweep 1: batch size (datastore 10B over 10 nodes, stride 16). ---
    let sim = MultiNodeSim::new(Deployment::uniform(tokens_default, 10));
    let mut lat = Table::new(
        "Figure 14 — normalized E2E latency vs batch size (10B tokens)",
        &[
            "batch", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2], SYSTEMS[3], SYSTEMS[4],
        ],
    );
    let mut energy = Table::new(
        "Figure 14 — normalized E2E energy vs batch size (10B tokens)",
        &[
            "batch", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2], SYSTEMS[3], SYSTEMS[4],
        ],
    );
    for batch in [32usize, 64, 128, 256] {
        let serving = ServingConfig::paper_default().with_batch(batch);
        let results = run_all(&sim, &serving);
        push_norm(
            &mut lat,
            batch.to_string(),
            &results.iter().map(|r| r.0).collect::<Vec<_>>(),
        );
        push_norm(
            &mut energy,
            batch.to_string(),
            &results.iter().map(|r| r.1).collect::<Vec<_>>(),
        );
    }
    emit("fig14_batch_latency", &[&lat]);
    emit("fig14_batch_energy", &[&energy]);

    // --- Sweep 2: datastore size (batch 128, stride 16). ---
    let mut lat = Table::new(
        "Figure 14 — normalized E2E latency vs datastore size (batch 128)",
        &[
            "datastore",
            SYSTEMS[0],
            SYSTEMS[1],
            SYSTEMS[2],
            SYSTEMS[3],
            SYSTEMS[4],
        ],
    );
    let mut energy = Table::new(
        "Figure 14 — normalized E2E energy vs datastore size (batch 128)",
        &[
            "datastore",
            SYSTEMS[0],
            SYSTEMS[1],
            SYSTEMS[2],
            SYSTEMS[3],
            SYSTEMS[4],
        ],
    );
    let mut headline = (0.0f64, 0.0f64);
    for tokens in [
        1_000_000_000u64,
        10_000_000_000,
        100_000_000_000,
        1_000_000_000_000,
    ] {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 10));
        let serving = ServingConfig::paper_default();
        let results = run_all(&sim, &serving);
        if tokens == 1_000_000_000_000 {
            headline = (results[0].0 / results[4].0, results[0].1 / results[4].1);
        }
        push_norm(
            &mut lat,
            format_tokens(tokens),
            &results.iter().map(|r| r.0).collect::<Vec<_>>(),
        );
        push_norm(
            &mut energy,
            format_tokens(tokens),
            &results.iter().map(|r| r.1).collect::<Vec<_>>(),
        );
    }
    emit("fig14_size_latency", &[&lat]);
    emit("fig14_size_energy", &[&energy]);

    // --- Sweep 3: stride length (10B tokens, batch 128). ---
    let sim = MultiNodeSim::new(Deployment::uniform(tokens_default, 10));
    let mut lat = Table::new(
        "Figure 14 — normalized E2E latency vs stride (10B tokens, batch 128)",
        &[
            "stride", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2], SYSTEMS[3], SYSTEMS[4],
        ],
    );
    let mut energy = Table::new(
        "Figure 14 — normalized E2E energy vs stride (10B tokens, batch 128)",
        &[
            "stride", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2], SYSTEMS[3], SYSTEMS[4],
        ],
    );
    for stride in [4u32, 8, 16, 32, 64] {
        let serving = ServingConfig::paper_default().with_stride(stride);
        let results = run_all(&sim, &serving);
        push_norm(
            &mut lat,
            stride.to_string(),
            &results.iter().map(|r| r.0).collect::<Vec<_>>(),
        );
        push_norm(
            &mut energy,
            stride.to_string(),
            &results.iter().map(|r| r.1).collect::<Vec<_>>(),
        );
    }
    emit("fig14_stride_latency", &[&lat]);
    emit("fig14_stride_energy", &[&energy]);

    println!(
        "shape check: Hermes+PipeRAG+RAGCache wins everywhere; at 1T tokens\n\
         the combined system is {:.2}x faster and {:.2}x more energy-efficient\n\
         than the monolithic baseline (paper: up to 9.33x / 2.10x).",
        headline.0, headline.1
    );
}
