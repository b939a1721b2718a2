//! RAG serving comparison: run the strided generation pipeline over every
//! retrieval strategy and project at-scale latency/energy with the
//! multi-node model — the workload of the paper's evaluation (Section 6).
//!
//! ```text
//! cargo run -p hermes --release --example rag_serving
//! ```

use hermes::metrics::{Row, Table};
use hermes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Functional pipeline on a real (small) corpus. ---
    let corpus = Corpus::generate(CorpusSpec::new(10_000, 32, 10).with_seed(5));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(6));
    let config = HermesConfig::new(10)
        .with_clusters_to_search(3)
        .with_seed(7);
    let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);

    let mut table = Table::new(
        "Strategy comparison (10k-doc corpus, stride 16, 128 output tokens)",
        &["strategy", "mean NDCG@5", "codes/query", "strides"],
    );
    for kind in [
        RetrieverKind::Monolithic,
        RetrieverKind::NaiveSplit,
        RetrieverKind::CentroidRouted,
        RetrieverKind::Hermes,
    ] {
        let retriever = Retriever::build(kind, corpus.embeddings(), &config)?;
        let pipeline = RagPipeline::new(retriever, ChunkStore::new(100))
            .with_output_tokens(128)
            .with_stride(16);
        let mut ndcg_sum = 0.0;
        let mut codes = 0usize;
        let mut strides = 0usize;
        for (qi, q) in queries.embeddings().iter_rows().enumerate() {
            let t = pipeline.generate(q, qi as u64)?;
            codes += t.total_scanned_codes();
            strides += t.strides.len();
            let truth: Vec<u64> = oracle
                .search(q, config.k, &SearchParams::new())?
                .iter()
                .map(|n| n.id)
                .collect();
            ndcg_sum += ndcg_at_k(&truth, &t.strides[0].retrieved, config.k);
        }
        table.push(Row::new(
            kind.to_string(),
            vec![
                format!("{:.3}", ndcg_sum / queries.len() as f64),
                format!("{}", codes / strides),
                format!("{}", strides / queries.len()),
            ],
        ));
    }
    println!("{}", table.render());

    // --- At-scale projection with the multi-node analysis tool. ---
    let sim = MultiNodeSim::new(Deployment::uniform(1_000_000_000_000, 10));
    let serving = ServingConfig::paper_default();
    let mut proj = Table::new(
        "Projected serving at 1T tokens (batch 128, stride 16)",
        &["system", "TTFT (s)", "E2E (s)", "energy (kJ)"],
    );
    let runs = [
        (
            "Baseline (monolithic)",
            RetrievalScheme::Monolithic,
            PipelinePolicy::baseline(),
        ),
        (
            "PipeRAG",
            RetrievalScheme::Monolithic,
            PipelinePolicy::piperag(),
        ),
        (
            "RAGCache",
            RetrievalScheme::Monolithic,
            PipelinePolicy::ragcache(),
        ),
        (
            "Hermes",
            RetrievalScheme::Hermes {
                clusters_to_search: 3,
                sample_nprobe: 8,
            },
            PipelinePolicy::baseline(),
        ),
        (
            "Hermes+PipeRAG+RAGCache",
            RetrievalScheme::Hermes {
                clusters_to_search: 3,
                sample_nprobe: 8,
            },
            PipelinePolicy::combined(),
        ),
    ];
    let base = sim.run(&serving, runs[0].1, runs[0].2, DvfsMode::Off).e2e_s;
    for (name, scheme, policy) in runs {
        let r = sim.run(&serving, scheme, policy, DvfsMode::Off);
        proj.push(Row::new(
            format!("{name} ({:.2}x)", base / r.e2e_s),
            vec![
                format!("{:.1}", r.ttft_s),
                format!("{:.1}", r.e2e_s),
                format!("{:.0}", r.total_joules() / 1e3),
            ],
        ));
    }
    println!("{}", proj.render());
    Ok(())
}
