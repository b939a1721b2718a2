//! Figure 5: perplexity vs retrieval stride (quality model) alongside the
//! retrieval latency cost of striding at 10B / 100B tokens.

use hermes::metrics::{Row, Table};
use hermes::perfmodel::RetrievalModel;
use hermes::rag::quality::{retrievals_for, PerplexityModel};
use hermes::rag::PerplexityModel as _Alias;
use hermes_bench::emit;

fn main() {
    let _ = std::marker::PhantomData::<_Alias>;
    let ppl = PerplexityModel::default();
    let retrieval = RetrievalModel::default();

    let mut quality = Table::new(
        "Figure 5 (left) — perplexity vs stride",
        &[
            "stride",
            "GPT-2 762M (no RAG)",
            "GPT-2 1.5B (no RAG)",
            "RETRO-style 578M + retrieval",
        ],
    );
    for stride in [4u32, 8, 16, 32, 64] {
        quality.push(Row::new(
            stride.to_string(),
            vec![
                format!("{:.2}", ppl.lm_perplexity(0.762)),
                format!("{:.2}", ppl.lm_perplexity(1.5)),
                format!("{:.2}", ppl.rag_perplexity(0.578, stride, 0.95)),
            ],
        ));
    }
    emit("fig05_quality", &[&quality]);

    let mut latency = Table::new(
        "Figure 5 (right) — total retrieval seconds for 256 output tokens (batch 32)",
        &["stride", "retrievals", "10B tokens", "100B tokens"],
    );
    for stride in [4u32, 8, 16, 32, 64] {
        let n = retrievals_for(256, stride);
        latency.push(Row::new(
            stride.to_string(),
            vec![
                n.to_string(),
                format!(
                    "{:.2}",
                    n as f64 * retrieval.batch_latency(10_000_000_000, 32, 128)
                ),
                format!(
                    "{:.1}",
                    n as f64 * retrieval.batch_latency(100_000_000_000, 32, 128)
                ),
            ],
        ));
    }
    emit("fig05_latency", &[&latency]);

    let r4 = retrievals_for(256, 4) as f64 * retrieval.batch_latency(100_000_000_000, 32, 128);
    let r64 = retrievals_for(256, 64) as f64 * retrieval.batch_latency(100_000_000_000, 32, 128);
    println!(
        "shape check: RETRO-style 578M at stride 4 ({:.2}) matches GPT-2 1.5B ({:.2});\n\
         stride 4 vs 64 at 100B costs {:.1}x more retrieval time (paper: 12.12x E2E blow-up).",
        ppl.rag_perplexity(0.578, 4, 0.95),
        ppl.lm_perplexity(1.5),
        r4 / r64
    );
}
