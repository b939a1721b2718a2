//! Trace analysis: measure cluster size and access-frequency imbalance on
//! an NQ-like query workload, then feed the trace into the DVFS energy
//! study (paper Figures 13 and 21).
//!
//! ```text
//! cargo run -p hermes --release --example trace_analysis
//! ```

use hermes::metrics::{Row, Table};
use hermes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Real clustered store + skewed query workload.
    let corpus = Corpus::generate(CorpusSpec::new(20_000, 32, 10).with_seed(9));
    let queries = QuerySet::generate(
        &corpus,
        QuerySpec::new(400).with_seed(10).with_interest_skew(1.0),
    );
    let config = HermesConfig::new(10)
        .with_clusters_to_search(3)
        .with_seed(11);
    let store = ClusteredStore::build(corpus.embeddings(), &config)?;

    // Collect the deep-search access trace (queries fan out on the pool;
    // pass 1 instead of 0 to force a sequential run).
    let qs: Vec<Vec<f32>> = queries
        .embeddings()
        .iter_rows()
        .map(<[f32]>::to_vec)
        .collect();
    let accesses = store.access_histogram(&qs, 0)?;

    let mut table = Table::new(
        "Cluster size and access frequency (Figure 13 analogue)",
        &["cluster", "docs", "deep-search hits"],
    );
    for (c, &hits) in accesses.iter().enumerate() {
        table.push(Row::new(
            format!("{c}"),
            vec![store.cluster_sizes()[c].to_string(), hits.to_string()],
        ));
    }
    println!("{}", table.render());
    let size_imb = store.imbalance();
    let max_a = *accesses.iter().max().unwrap() as f64;
    let min_a = (*accesses.iter().min().unwrap()).max(1) as f64;
    println!(
        "size imbalance {size_imb:.2}x, access imbalance {:.2}x\n",
        max_a / min_a
    );

    // Feed the measured trace into the DVFS study.
    let deployment = Deployment::uniform(100_000_000_000, 10).with_access_counts(&accesses);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();
    let scheme = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };
    let decode = InferenceModel::default().decode_latency(serving.batch, serving.stride);

    let mut dvfs = Table::new(
        "DVFS energy on the measured trace (Figure 21 analogue)",
        &["policy", "retrieval J/batch", "saving"],
    );
    let off = sim.retrieval_cost(&serving, scheme, DvfsMode::Off, decode);
    for (name, mode, budget) in [
        ("no DVFS", DvfsMode::Off, decode),
        ("DVFS (slowest cluster)", DvfsMode::SlowestCluster, decode),
        (
            "DVFS enhanced (inference-bound)",
            DvfsMode::InferenceBound,
            decode * 8.0,
        ),
    ] {
        let cost = sim.retrieval_cost(&serving, scheme, mode, budget);
        dvfs.push(Row::new(
            name,
            vec![
                format!("{:.0}", cost.joules),
                format!("{:.1}%", (1.0 - cost.joules / off.joules) * 100.0),
            ],
        ));
    }
    println!("{}", dvfs.render());
    Ok(())
}
