//! Figure 10: dataset disaggregation — K-means seed sweep on a real
//! corpus (left) and search latency vs cluster size against the Gemma2-9B
//! inference latency line (right, the "pipeline gap").

use hermes::datagen::scale::format_tokens;
use hermes::datagen::CorpusSpec;
use hermes::kmeans::{KMeansConfig, SeedSweep};
use hermes::metrics::{Row, Table};
use hermes::perfmodel::{InferenceModel, RetrievalModel};
use hermes::scenario::Scenario;
use hermes_bench::{emit, BENCH_SEED};

fn main() {
    // Left: disaggregation quality — sweep seeds on a subsample and show
    // the imbalance the winner achieves (the paper reports a best gap of
    // ~2x between largest and smallest cluster).
    let scenario = Scenario::new(CorpusSpec::new(30_000, 32, 10).with_seed(BENCH_SEED));
    let sweep = SeedSweep::new(KMeansConfig::new(10).with_seed(BENCH_SEED), 8)
        .with_subsample(0.02, BENCH_SEED);
    let result = sweep.run(scenario.corpus.embeddings());

    let mut sweep_table = Table::new(
        "Figure 10 (left) — K-means seed sweep on a 2% subsample",
        &["seed", "imbalance (max/min)", "inertia"],
    );
    for o in &result.outcomes {
        let marker = if o.seed == result.best_seed {
            " <- best"
        } else {
            ""
        };
        sweep_table.push(Row::new(
            format!("{:#x}{marker}", o.seed),
            vec![format!("{:.2}", o.imbalance), format!("{:.1}", o.inertia)],
        ));
    }
    emit("fig10_sweep", &[&sweep_table]);

    // Right: pipeline gap per cluster size.
    let retrieval = RetrievalModel::default();
    let inference = InferenceModel::default();
    let decode = inference.decode_latency(128, 16);
    let mut gap = Table::new(
        "Figure 10 (right) — search latency vs Gemma2-9B stride latency (batch 128)",
        &[
            "cluster size",
            "search (s)",
            "inference stride (s)",
            "hidden?",
        ],
    );
    for tokens in [
        10_000_000u64,
        100_000_000,
        1_000_000_000,
        10_000_000_000,
        100_000_000_000,
    ] {
        let search = retrieval.batch_latency(tokens, 128, 128);
        gap.push(Row::new(
            format_tokens(tokens),
            vec![
                format!("{search:.3}"),
                format!("{decode:.3}"),
                (search <= decode).to_string(),
            ],
        ));
    }
    emit("fig10_gap", &[&gap]);

    println!(
        "shape check: a 10B-token cluster is the largest that hides under\n\
         Gemma2-9B decode at batch 128, so 100B => 10 clusters (paper's example)."
    );
}
