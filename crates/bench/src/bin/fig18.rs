//! Figure 18: retrieval throughput and energy per batch vs the number of
//! clusters deep-searched — Hermes vs the naive all-cluster fan-out.
//! Access frequencies come from a *measured* trace on a real store.

use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::metrics::{Row, Table};
use hermes::scenario::Scenario;
use hermes::sim::{Deployment, DvfsMode, MultiNodeSim, RetrievalScheme, ServingConfig};
use hermes_bench::{emit, standard_config, BENCH_SEED};

fn measured_trace() -> Vec<usize> {
    let scenario = Scenario::new(CorpusSpec::new(20_000, 32, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(300).with_interest_skew(1.0));
    let store = scenario.store(&standard_config()).expect("store");
    store.access_histogram(&scenario.queries, 0).expect("trace")
}

fn main() {
    let trace = measured_trace();
    let deployment = Deployment::uniform(100_000_000_000, 10).with_access_counts(&trace);
    let sim = MultiNodeSim::new(deployment);
    let serving = ServingConfig::paper_default();

    let naive = sim.retrieval_cost(
        &serving,
        RetrievalScheme::NaiveDistributed,
        DvfsMode::Off,
        0.0,
    );

    let mut table = Table::new(
        "Figure 18 — retrieval QPS and J/batch vs clusters searched (10 nodes, NQ-like trace)",
        &[
            "clusters searched",
            "QPS",
            "J/batch",
            "QPS vs naive",
            "energy vs naive",
        ],
    );
    let mut at3 = (0.0, 0.0);
    for m in 1..=10usize {
        let cost = sim.retrieval_cost(
            &serving,
            RetrievalScheme::Hermes {
                clusters_to_search: m,
                sample_nprobe: 8,
            },
            DvfsMode::Off,
            0.0,
        );
        let qps_gain = cost.qps / naive.qps;
        let energy_gain = naive.joules / cost.joules;
        if m == 3 {
            at3 = (qps_gain, energy_gain);
        }
        table.push(Row::new(
            m.to_string(),
            vec![
                format!("{:.1}", cost.qps),
                format!("{:.0}", cost.joules),
                format!("{qps_gain:.2}x"),
                format!("{energy_gain:.2}x"),
            ],
        ));
    }
    table.push(Row::new(
        "naive (all 10, no sampling)",
        vec![
            format!("{:.1}", naive.qps),
            format!("{:.0}", naive.joules),
            "1.00x".to_string(),
            "1.00x".to_string(),
        ],
    ));
    emit("fig18", &[&table]);

    println!(
        "shape check: at 3 clusters Hermes delivers {:.2}x the naive throughput\n\
         and {:.2}x its energy efficiency (paper: 1.81x and 1.77x); both\n\
         advantages shrink monotonically as more clusters are searched.",
        at3.0, at3.1
    );
}
