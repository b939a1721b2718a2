//! Figure 16: normalized TTFT latency at 1B/10B/1T tokens — the paper's
//! 9.1x TTFT improvement at the trillion-token scale.

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{Row, Table};
use hermes::sim::{
    Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
};
use hermes_bench::emit;

fn main() {
    let serving = ServingConfig::paper_default();
    let hermes = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };

    let mut table = Table::new(
        "Figure 16 — TTFT, normalized to the monolithic baseline",
        &[
            "datastore",
            "Baseline",
            "Hermes",
            "Hermes/PipeRAG/RAGCache",
            "speedup",
        ],
    );
    let mut t1_speedup = 0.0;
    for tokens in [1_000_000_000u64, 10_000_000_000, 1_000_000_000_000] {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 10));
        let base = sim
            .run(
                &serving,
                RetrievalScheme::Monolithic,
                PipelinePolicy::baseline(),
                DvfsMode::Off,
            )
            .ttft_s;
        let h = sim
            .run(&serving, hermes, PipelinePolicy::baseline(), DvfsMode::Off)
            .ttft_s;
        let hc = sim
            .run(&serving, hermes, PipelinePolicy::combined(), DvfsMode::Off)
            .ttft_s;
        if tokens == 1_000_000_000_000 {
            t1_speedup = base / hc;
        }
        table.push(Row::new(
            format_tokens(tokens),
            vec![
                "1.000".to_string(),
                format!("{:.3}", h / base),
                format!("{:.3}", hc / base),
                format!("{:.2}x", base / hc),
            ],
        ));
    }
    emit("fig16", &[&table]);

    println!(
        "shape check: TTFT speedup grows with datastore size, reaching\n\
         {t1_speedup:.2}x at 1T tokens (paper: 9.1x). Pipelining/caching cannot\n\
         help TTFT — the first retrieval is on the critical path — so the\n\
         gain comes entirely from Hermes' distributed hierarchical search."
    );
}
