//! Figure 6: TTFT and end-to-end latency of the baseline RAG pipeline vs
//! datastore size (batch 32, stride 16, 512 in / 256 out, Gemma2-9B).

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{Row, Table};
use hermes::sim::{
    Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
};
use hermes_bench::emit;

fn main() {
    let serving = ServingConfig::paper_default().with_batch(32);

    let mut ttft = Table::new(
        "Figure 6 (left) — TTFT breakdown, baseline monolithic RAG (batch 32)",
        &[
            "datastore",
            "encode (s)",
            "retrieval (s)",
            "prefill (s)",
            "TTFT (s)",
            "retrieval share",
        ],
    );
    for tokens in [10_000_000_000u64, 100_000_000_000] {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 1));
        let r = sim.run(
            &serving,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        ttft.push(Row::new(
            format_tokens(tokens),
            vec![
                format!("{:.3}", r.encode_s),
                format!("{:.2}", r.retrieval_per_stride_s),
                format!("{:.3}", r.prefill_s),
                format!("{:.2}", r.ttft_s),
                format!("{:.1}%", 100.0 * r.retrieval_per_stride_s / r.ttft_s),
            ],
        ));
    }
    emit("fig06_ttft", &[&ttft]);

    let paper_e2e = [
        (100_000_000u64, 12.0),
        (10_000_000_000, f64::NAN),
        (100_000_000_000, 101.8),
        (1_000_000_000_000, 909.1),
    ];
    let mut e2e = Table::new(
        "Figure 6 (right) — E2E latency, baseline RAG (stride 16, 256 out)",
        &["datastore", "paper (s)", "measured (s)"],
    );
    for (tokens, paper) in paper_e2e {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 1));
        let r = sim.run(
            &serving,
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
            DvfsMode::Off,
        );
        e2e.push(Row::new(
            format_tokens(tokens),
            vec![
                if paper.is_nan() {
                    "-".to_string()
                } else {
                    format!("{paper:.1}")
                },
                format!("{:.1}", r.e2e_s),
            ],
        ));
    }
    emit("fig06_e2e", &[&e2e]);

    println!(
        "shape check: retrieval dominates TTFT at >=10B tokens and E2E grows\n\
         ~linearly with datastore size, reaching minutes at 1T."
    );
}
