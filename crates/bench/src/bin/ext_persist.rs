//! Extension experiment: persistence — cold start and rebalance pause.
//!
//! Two scaling claims the mutable/persistent store must hold:
//!
//! * **Cold start is independent of store size.** Opening a paged
//!   (`HPGS`) image with [`PagedStoreReader::open`] reads the header,
//!   the per-page checksum table, and the meta section — never the
//!   shard payloads — so an opened reader can answer `num_clusters` /
//!   `cluster_sizes` / `generation` immediately and materialize shards
//!   lazily. The bench compares that against a full load of the same
//!   image ([`ClusteredStore::load`], every shard materialized), and
//!   asserts the paged open is **at least 5x faster at the largest
//!   store** (in practice it is orders of magnitude).
//! * **Rebalance pause is a per-cluster cost, not a per-store cost.**
//!   One incremental [`Rebalancer`] step cuts a single shard in two,
//!   so its pause grows with the *cluster* size while a stop-the-world
//!   `rebuild` grows with the *store* size. The table reports both so
//!   the gap is visible across the sweep.

use hermes::core::{ClusteredStore, HermesConfig, PagedStoreReader, RebalanceConfig, Rebalancer};
use hermes::datagen::CorpusSpec;
use hermes::math::rng::seeded_rng;
use hermes::metrics::{Row, Table};
use hermes::scenario::Scenario;
use hermes_bench::{emit, ratio, time_it, BENCH_SEED};

fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (out, t) = time_it(&mut f);
        std::hint::black_box(out);
        best = best.min(t);
    }
    best
}

fn main() {
    let (sizes, dim, topics, clusters, reps) = ([5_000, 20_000, 60_000], 48, 10, 10, 7);

    let mut table = Table::new(
        format!(
            "Extension — persistence: cold start and rebalance pause vs store size \
             ({dim} dims, {topics} topics, {clusters} clusters, best of {reps}, \
             seed {BENCH_SEED:#x})"
        ),
        &[
            "docs",
            "image (MB)",
            "open (ms)",
            "full load (ms)",
            "open speedup",
            "one shard (ms)",
            "rebalance step (ms)",
            "full rebuild (ms)",
        ],
    );

    let dir = std::env::temp_dir();
    let paged_path = dir.join(format!("hermes_ext_persist_{}.hpgs", std::process::id()));

    let mut final_speedup = 0.0f64;
    for (i, &docs) in sizes.iter().enumerate() {
        let scenario =
            Scenario::new(CorpusSpec::new(docs, dim, topics).with_seed(BENCH_SEED + 80 + i as u64));
        let config = HermesConfig::new(clusters)
            .with_clusters_to_search(3)
            .with_seed(BENCH_SEED + 81);
        let mut store = scenario.store(&config).unwrap();

        // Skew the store (a burst of near-duplicate inserts piling onto
        // cluster 0's running centroid) so the rebalancer has real work.
        let mut rng = seeded_rng(BENCH_SEED + 82 + i as u64);
        for j in 0..docs / 2 {
            let v: Vec<f32> = store
                .split_centroid(0)
                .iter()
                .map(|&c| c + (rng.next_f32() - 0.5) * 0.05)
                .collect();
            store.insert(1_000_000 + j as u64, &v).unwrap();
        }

        // -- Cold start: paged open vs a full load of every shard.
        store.save(&paged_path).unwrap();
        let image_mb = std::fs::metadata(&paged_path).unwrap().len() as f64 / (1024.0 * 1024.0);

        let open_s = best_of(reps, || PagedStoreReader::open(&paged_path).unwrap());
        let full_s = best_of(reps, || ClusteredStore::load(&paged_path).unwrap());
        let shard_s = best_of(reps, || {
            let mut reader = PagedStoreReader::open(&paged_path).unwrap();
            reader.load_shard(0).unwrap()
        }) - open_s;

        // An opened reader answers metadata queries without touching
        // shard pages — sanity-check it agrees with the live store.
        let reader = PagedStoreReader::open(&paged_path).unwrap();
        assert_eq!(reader.num_clusters(), store.num_clusters());
        assert_eq!(reader.len(), store.len());
        assert_eq!(reader.generation(), store.generation());

        // -- Rebalance: one incremental step vs stop-the-world rebuild.
        let reb = Rebalancer::new(RebalanceConfig {
            max_imbalance: 2.5,
            ..RebalanceConfig::default()
        });
        let action = reb.next_action(&store);
        assert!(action.is_some(), "skewed store must need rebalancing");
        let step_s = best_of(reps, || reb.apply(&store, action.unwrap()).unwrap());
        let rebuild_s = best_of(1.max(reps / 2), || reb.rebuild(&store).unwrap());

        let speedup = full_s / open_s;
        final_speedup = speedup;
        table.push(Row::new(
            format!("{docs}"),
            vec![
                format!("{image_mb:.1}"),
                ms(open_s),
                ms(full_s),
                ratio(full_s, open_s),
                ms(shard_s.max(0.0)),
                ms(step_s),
                ms(rebuild_s),
            ],
        ));
    }
    std::fs::remove_file(&paged_path).ok();

    assert!(
        final_speedup >= 5.0,
        "cold start must be at least 5x faster than a full load \
         at the largest store (got {final_speedup:.1}x)"
    );

    emit("ext_persist", &[&table]);
    println!(
        "paged open touched only header + checksum table + meta pages \
         ({final_speedup:.0}x faster than a full load at the largest store);\n\
         one rebalance step cuts a single shard while rebuild walks \
         the whole store."
    );
}
