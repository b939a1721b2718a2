//! Extension experiment (beyond the paper's figures): TTFT *tail* latency
//! under load. The paper's Takeaway 2 argues TTFT variance hurts
//! production QoS; this bench models it by queueing batches against each
//! retrieval scheme's service time (M/D/1, seeded): how the schemes'
//! capacity gap turns into a p99 gap at equal relative load.
//!
//! The measured side — which phase owns the p99 sojourn as offered load
//! approaches saturation — is `ext_serving`'s observed open-loop sweep.

use hermes::metrics::{Row, Table};
use hermes::sim::{
    queueing::simulate_md1, Deployment, DvfsMode, MultiNodeSim, RetrievalScheme, ServingConfig,
};
use hermes_bench::{emit, BENCH_SEED};

const TOKENS: u64 = 100_000_000_000;

fn model_table() -> (Table, f64, f64) {
    let sim = MultiNodeSim::new(Deployment::uniform(TOKENS, 10));
    let serving = ServingConfig::paper_default();

    let schemes = [
        ("Monolithic", RetrievalScheme::Monolithic),
        ("Naive distributed", RetrievalScheme::NaiveDistributed),
        (
            "Hermes (3 of 10)",
            RetrievalScheme::Hermes {
                clusters_to_search: 3,
                sample_nprobe: 8,
            },
        ),
    ];

    let mut table = Table::new(
        "Extension — retrieval sojourn time under load (M/D/1, 20k batches)",
        &[
            "scheme",
            "service (s)",
            "max stable batches/s",
            "p50 @70% load",
            "p99 @70% load",
            "delayed frac",
        ],
    );
    let mut hermes_cap = 0.0;
    let mut mono_cap = 0.0;
    for (name, scheme) in schemes {
        let service = sim
            .retrieval_cost(&serving, scheme, DvfsMode::Off, 0.0)
            .latency_s;
        let capacity = 1.0 / service;
        if name.starts_with("Hermes") {
            hermes_cap = capacity;
        }
        if name == "Monolithic" {
            mono_cap = capacity;
        }
        let report = simulate_md1(0.7 * capacity, service, 20_000, BENCH_SEED);
        table.push(Row::new(
            name,
            vec![
                format!("{service:.2}"),
                format!("{capacity:.3}"),
                format!("{:.2}", report.sojourn.p50),
                format!("{:.2}", report.sojourn.p99),
                format!("{:.2}", report.delayed_fraction),
            ],
        ));
    }
    (table, hermes_cap, mono_cap)
}

fn main() {
    let (model, hermes_cap, mono_cap) = model_table();
    emit("ext_tail_latency", &[&model]);

    println!(
        "shape check: Hermes sustains {:.1}x the monolithic batch arrival\n\
         rate before saturating; at equal (70%) relative load its absolute\n\
         p99 sojourn is an order of magnitude lower, which is what keeps\n\
         production TTFT tails bounded (Takeaway 2).",
        hermes_cap / mono_cap
    );
}
