//! Figure 8: how far PipeRAG (pipelining) and RAGCache (prefix caching)
//! carry at small vs at-scale datastores — stage timelines plus the
//! speedup-vs-size panel.

use hermes::datagen::scale::format_tokens;
use hermes::metrics::{Row, Table};
use hermes::sim::{
    Deployment, DvfsMode, MultiNodeSim, PipelinePolicy, RetrievalScheme, ServingConfig,
};
use hermes_bench::emit;

fn main() {
    let serving = ServingConfig::paper_default().with_batch(32);

    // Timelines (first two strides) for a small and an at-scale store.
    for (label, tokens) in [
        ("small_100M", 100_000_000u64),
        ("at_scale_100B", 100_000_000_000),
    ] {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 1));
        let mut table = Table::new(
            format!("Figure 8 — stage timeline, {label} datastore"),
            &["policy", "stage", "start (s)", "end (s)"],
        );
        for (name, policy) in [
            ("baseline", PipelinePolicy::baseline()),
            ("prefix caching", PipelinePolicy::ragcache()),
            ("pipelining", PipelinePolicy::piperag()),
        ] {
            let r = sim.run(&serving, RetrievalScheme::Monolithic, policy, DvfsMode::Off);
            for span in &r.timeline {
                table.push(Row::new(
                    name,
                    vec![
                        span.stage.clone(),
                        format!("{:.3}", span.start_s),
                        format!("{:.3}", span.end_s),
                    ],
                ));
            }
            println!("-- {name} ({label}) --");
            println!("{}", hermes::sim::report::render_timeline(&r.timeline, 64));
        }
        emit(&format!("fig08_timeline_{label}"), &[&table]);
    }

    // Right panel: speedup over the unoptimized baseline vs datastore size.
    let mut speedups = Table::new(
        "Figure 8 (right) — E2E speedup over baseline vs datastore size",
        &["datastore", "PipeRAG", "RAGCache"],
    );
    let mut first_pipe = 0.0;
    let mut last_pipe = 0.0;
    for tokens in [
        100_000_000u64,
        1_000_000_000,
        10_000_000_000,
        100_000_000_000,
        1_000_000_000_000,
    ] {
        let sim = MultiNodeSim::new(Deployment::uniform(tokens, 1));
        let base = sim
            .run(
                &serving,
                RetrievalScheme::Monolithic,
                PipelinePolicy::baseline(),
                DvfsMode::Off,
            )
            .e2e_s;
        let pipe = base
            / sim
                .run(
                    &serving,
                    RetrievalScheme::Monolithic,
                    PipelinePolicy::piperag(),
                    DvfsMode::Off,
                )
                .e2e_s;
        let cache = base
            / sim
                .run(
                    &serving,
                    RetrievalScheme::Monolithic,
                    PipelinePolicy::ragcache(),
                    DvfsMode::Off,
                )
                .e2e_s;
        if tokens == 100_000_000 {
            first_pipe = pipe;
        }
        last_pipe = pipe;
        speedups.push(Row::new(
            format_tokens(tokens),
            vec![format!("{pipe:.2}x"), format!("{cache:.2}x")],
        ));
    }
    emit("fig08_speedup", &[&speedups]);

    println!(
        "shape check: both optimizations help at 100M (pipelining {first_pipe:.2}x,\n\
         paper up to 1.62x) and fade toward 1.0x at 1T ({last_pipe:.2}x) as\n\
         retrieval dominates."
    );
}
