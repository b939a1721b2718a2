//! Figure 19: how the optimal Hermes cluster size scales with serving
//! scenario — input length, output length and batch size — so retrieval
//! hides under inference.

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{Row, Table};
use hermes::perfmodel::{ClusterPlanner, InferenceModel};
use hermes_bench::emit;

fn main() {
    let planner = ClusterPlanner::default();
    let inference = InferenceModel::default();

    // Left panel analogue: batch x context-length heatmap of max cluster
    // size, for short-output (32,4) and long-output (256,32) scenarios.
    for (label, input, stride) in [("out32_stride4", 32u32, 4u32), ("out256_stride32", 256, 32)] {
        let mut table = Table::new(
            format!("Figure 19 — max cluster tokens, scenario {label}"),
            &["batch", "cluster size"],
        );
        for batch in [8usize, 16, 32, 64, 128, 256] {
            table.push(Row::new(
                batch.to_string(),
                vec![format_tokens(
                    planner.max_cluster_tokens(batch, 128, input, stride),
                )],
            ));
        }
        emit(&format!("fig19_{label}"), &[&table]);
    }

    // Right panel analogue: input-length sweep at fixed output.
    let mut table = Table::new(
        "Figure 19 — max cluster tokens vs input length (batch 128, stride 16)",
        &["input tokens", "prefill (s)", "cluster size"],
    );
    let mut shortest = 0u64;
    let mut longest = 0u64;
    for input in [32u32, 256, 512, 1024, 2048] {
        let size = planner.max_cluster_tokens(128, 128, input, 16);
        if input == 32 {
            shortest = size;
        }
        longest = size;
        table.push(Row::new(
            input.to_string(),
            vec![
                format!("{:.2}", inference.prefill_latency(128, input)),
                format_tokens(size),
            ],
        ));
    }
    emit("fig19_input_sweep", &[&table]);

    println!(
        "shape check: longer inputs leave more inference time to hide\n\
         retrieval, so clusters grow from {} to {} tokens as input goes\n\
         32 -> 2048 (the paper's 34B -> 114B trend), reducing the nodes a\n\
         given datastore needs.",
        format_tokens(shortest),
        format_tokens(longest)
    );
}
