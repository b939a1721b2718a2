//! Capacity planning: size Hermes clusters so retrieval hides under LLM
//! inference across serving scenarios (paper Figures 10 and 19).
//!
//! ```text
//! cargo run -p hermes --release --example capacity_planner
//! ```

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{Row, Table};
use hermes::prelude::*;

fn main() {
    let planner = ClusterPlanner::default();

    // Figure 19 style: optimal cluster size vs input length (fixed 32-token
    // output per stride window) and vs batch size.
    let mut by_input = Table::new(
        "Max cluster size for retrieval/inference overlap (Gemma2-9B, A6000)",
        &["batch", "input 32", "input 256", "input 2048"],
    );
    for batch in [16usize, 32, 64, 128, 256] {
        let cells: Vec<String> = [32u32, 256, 2048]
            .iter()
            .map(|&input| format_tokens(planner.max_cluster_tokens(batch, 128, input, 16)))
            .collect();
        by_input.push(Row::new(format!("{batch}"), cells));
    }
    println!("{}", by_input.render());

    // Node counts for datastores of interest.
    let mut nodes = Table::new(
        "Nodes required to fully hide retrieval (batch 128, stride 16)",
        &["datastore", "nodes", "per-node tokens"],
    );
    for tokens in [10_000_000_000u64, 100_000_000_000, 1_000_000_000_000] {
        let n = planner.nodes_required(tokens, 128, 128, 512, 16);
        nodes.push(Row::new(
            format_tokens(tokens),
            vec![n.to_string(), format_tokens(tokens / n as u64)],
        ));
    }
    println!("{}", nodes.render());

    // Figure 10 style: the pipeline gap per cluster size.
    let mut gap = Table::new(
        "Pipeline gap by cluster size (negative = retrieval fully hidden)",
        &["cluster size", "search latency (s)", "gap vs decode (s)"],
    );
    let retrieval = RetrievalModel::default();
    for tokens in [
        10_000_000u64,
        100_000_000,
        1_000_000_000,
        10_000_000_000,
        100_000_000_000,
    ] {
        gap.push(Row::new(
            format_tokens(tokens),
            vec![
                format!("{:.3}", retrieval.batch_latency(tokens, 128, 128)),
                format!("{:+.3}", planner.pipeline_gap_s(tokens, 128, 128, 16)),
            ],
        ));
    }
    println!("{}", gap.render());

    // Memory feasibility per platform.
    let mut mem = Table::new(
        "Does a 10B-token IVF-SQ8 shard fit in node memory?",
        &["platform", "fits 10B", "fits 100B"],
    );
    for platform in CpuPlatform::figure_20_platforms() {
        let model = RetrievalModel::new(platform.clone());
        mem.push(Row::new(
            platform.name.clone(),
            vec![
                model.fits_in_memory(10_000_000_000).to_string(),
                model.fits_in_memory(100_000_000_000).to_string(),
            ],
        ));
    }
    println!("{}", mem.render());
}
