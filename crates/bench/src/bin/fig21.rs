//! Figure 21: retrieval energy under the three DVFS policies — none,
//! slowest-cluster-bound, and the enhanced inference-bound variant — as
//! the number of deep-searched clusters varies.

use hermes::metrics::{Row, Table};
use hermes::perfmodel::InferenceModel;
use hermes::sim::{Deployment, DvfsMode, MultiNodeSim, RetrievalScheme, ServingConfig};
use hermes_bench::emit;

fn main() {
    // Skewed sizes and access frequencies create the idle windows DVFS
    // converts into savings (Figure 13's measured imbalance).
    let deployment = Deployment::skewed(100_000_000_000, 10, 2.0, 0.8, 0xD5F5);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();
    let inference = InferenceModel::default();
    // The enhanced policy stretches searches to the pipelined inference
    // latency of a full stride (decode dominates mid-generation).
    let stride_budget = inference.decode_latency(serving.batch, serving.stride);

    let mut table = Table::new(
        "Figure 21 — normalized retrieval energy vs clusters searched",
        &["clusters", "Hermes", "Hermes DVFS", "Hermes DVFS Enhanced"],
    );
    let mut savings_base = Vec::new();
    let mut savings_enh = Vec::new();
    for m in 1..=10usize {
        let scheme = RetrievalScheme::Hermes {
            clusters_to_search: m,
            sample_nprobe: 8,
        };
        let off = sim.retrieval_cost(&serving, scheme, DvfsMode::Off, stride_budget);
        let slow = sim.retrieval_cost(&serving, scheme, DvfsMode::SlowestCluster, stride_budget);
        // Enhanced: budget = what the pipeline actually allows. With a
        // 10-way split each cluster holds 10B tokens whose deep search
        // far exceeds one decode interval, so the effective budget is the
        // slowest cluster *or* inference, whichever is larger.
        let enh = sim.retrieval_cost(
            &serving,
            scheme,
            DvfsMode::InferenceBound,
            (off.latency_s * 1.6).max(stride_budget),
        );
        savings_base.push(1.0 - slow.joules / off.joules);
        savings_enh.push(1.0 - enh.joules / off.joules);
        table.push(Row::new(
            m.to_string(),
            vec![
                "1.000".to_string(),
                format!("{:.3}", slow.joules / off.joules),
                format!("{:.3}", enh.joules / off.joules),
            ],
        ));
    }
    emit("fig21", &[&table]);

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64 * 100.0;
    println!(
        "shape check: baseline DVFS saves {:.1}% on average (paper 12.24%,\n\
         range 10.1-14.5%); the enhanced inference-bound policy saves\n\
         {:.1}% (paper 20.44%, range 18.8-22.1%).",
        avg(&savings_base),
        avg(&savings_enh)
    );
}
