//! Figure 13: cluster size and access-frequency imbalance, measured by
//! running an NQ-like skewed query workload through a real Hermes store.
//! Includes the seed-sweep ablation DESIGN.md calls out.

use hermes::core::SplitStrategy;
use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::metrics::{Row, Table};
use hermes::scenario::Scenario;
use hermes_bench::{emit, standard_config, BENCH_SEED};

fn main() {
    let scenario = Scenario::new(
        CorpusSpec::new(30_000, 32, 10)
            .with_seed(BENCH_SEED)
            .with_size_skew(0.5),
    )
    .with_queries(QuerySpec::new(500).with_interest_skew(1.0));
    let cfg = standard_config();
    let store = scenario.store(&cfg).expect("build store");
    let accesses = store.access_histogram(&scenario.queries, 0).expect("trace");

    let mut table = Table::new(
        "Figure 13 — cluster size (docs) and deep-search access frequency",
        &["cluster", "size (docs)", "accesses"],
    );
    for (c, &hits) in accesses.iter().enumerate() {
        table.push(Row::new(
            c.to_string(),
            vec![store.cluster_sizes()[c].to_string(), hits.to_string()],
        ));
    }
    emit("fig13", &[&table]);

    let size_imb = store.imbalance();
    let max_a = *accesses.iter().max().unwrap() as f64;
    let min_a = (*accesses.iter().min().unwrap()).max(1) as f64;
    println!(
        "shape check: size imbalance {size_imb:.2}x (paper ~2x), access\n\
         imbalance {:.2}x (paper >2x) — the inputs to the DVFS study.",
        max_a / min_a
    );

    // Ablation: seed-swept vs single-seed splitting imbalance, averaged
    // over several corpora (a single instance is dominated by luck).
    let mut single_sum = 0.0;
    let mut sweep_sum = 0.0;
    let mut sweep_wins = 0usize;
    const TRIALS: u64 = 5;
    for trial in 0..TRIALS {
        let trial_scenario = Scenario::new(
            CorpusSpec::new(12_000, 32, 10)
                .with_seed(BENCH_SEED + 100 + trial)
                .with_size_skew(0.5),
        );
        let trial_cfg = cfg.with_seed(BENCH_SEED + 200 + trial);
        let single = trial_scenario
            .store(&trial_cfg.with_split(SplitStrategy::KMeansSingle))
            .expect("single-seed store");
        let swept = trial_scenario.store(&trial_cfg).expect("swept store");
        single_sum += single.imbalance();
        sweep_sum += swept.imbalance();
        if swept.imbalance() <= single.imbalance() {
            sweep_wins += 1;
        }
    }
    let mut ablation = Table::new(
        format!("Ablation — splitting strategy vs size imbalance (mean of {TRIALS} corpora)"),
        &["strategy", "mean imbalance", "sweep wins"],
    );
    ablation.push(Row::new(
        "K-means, single seed",
        vec![format!("{:.2}", single_sum / TRIALS as f64), "-".into()],
    ));
    ablation.push(Row::new(
        "K-means, 8-seed sweep (Hermes)",
        vec![
            format!("{:.2}", sweep_sum / TRIALS as f64),
            format!("{sweep_wins}/{TRIALS}"),
        ],
    ));
    let rr = scenario
        .store(&cfg.with_split(SplitStrategy::RoundRobin))
        .expect("round-robin store");
    ablation.push(Row::new(
        "Round-robin (no topical coherence)",
        vec![format!("{:.2}", rr.imbalance()), "-".into()],
    ));
    emit("fig13_ablation", &[&ablation]);
}
