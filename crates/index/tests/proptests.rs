//! Property-based tests for the ANN indices, on `hermes-testkit`.

use hermes_index::{
    f16_bits_to_f32, f32_to_f16_bits, FlatIndex, HnswIndex, IvfIndex, SearchParams, VectorIndex,
    VectorStorage,
};
use hermes_math::{Mat, Metric};
use hermes_quant::CodecSpec;
use hermes_testkit::prelude::*;

/// Row data for a matrix with 2..max_n rows of width `dim`.
fn data_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    vec_of(vec_of(f32_in(-100.0..100.0), dim..dim + 1), 2..max_n)
}

fn cfg() -> Config {
    Config::from_env().with_cases(24)
}

/// IVF with a lossless codec and a full probe is exactly brute force.
#[test]
fn full_probe_flat_ivf_is_exact() {
    let strat = tuple2(data_strategy(60, 4), usize_in(0..60));
    check_with("full_probe_flat_ivf_is_exact", &cfg(), &strat, |(rows, qi)| {
        let data = Mat::from_rows(rows);
        let qi = qi % data.rows();
        let ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let params = SearchParams::new().with_nprobe(4);
        let a = ivf.search(data.row(qi), 3, &params).unwrap();
        let b = flat.search(data.row(qi), 3, &SearchParams::new()).unwrap();
        prop_assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        Ok(())
    });
}

/// The searching-one's-own-vector property: a stored vector's top-1
/// under L2 with full probe is itself (or an exact duplicate).
#[test]
fn self_query_returns_self_or_duplicate() {
    let strat = tuple2(data_strategy(40, 4), usize_in(0..40));
    check_with(
        "self_query_returns_self_or_duplicate",
        &cfg(),
        &strat,
        |(rows, qi)| {
            let data = Mat::from_rows(rows);
            let qi = qi % data.rows();
            let ivf = IvfIndex::builder()
                .nlist(2)
                .codec(CodecSpec::Flat)
                .metric(Metric::L2)
                .build(&data)
                .unwrap();
            let hits = ivf
                .search(data.row(qi), 1, &SearchParams::new().with_nprobe(2))
                .unwrap();
            let top = hits[0].id as usize;
            prop_assert_eq!(data.row(top), data.row(qi));
            Ok(())
        },
    );
}

/// Persistence round-trips preserve every search result.
#[test]
fn ivf_persistence_is_lossless() {
    check_with(
        "ivf_persistence_is_lossless",
        &cfg(),
        &data_strategy(40, 4),
        |rows| {
            let data = Mat::from_rows(rows);
            let ivf = IvfIndex::builder()
                .nlist(3)
                .codec(CodecSpec::Sq8)
                .build(&data)
                .unwrap();
            let loaded = IvfIndex::from_bytes(&ivf.to_bytes()).unwrap();
            let params = SearchParams::new().with_nprobe(3);
            for qi in 0..data.rows().min(5) {
                prop_assert_eq!(
                    ivf.search(data.row(qi), 3, &params).unwrap(),
                    loaded.search(data.row(qi), 3, &params).unwrap()
                );
            }
            Ok(())
        },
    );
}

/// f16 round trip keeps relative error within half-precision bounds
/// for normal-range values.
#[test]
fn f16_round_trip_error_bound() {
    check_with(
        "f16_round_trip_error_bound",
        &cfg(),
        &f32_in(-60000.0..60000.0),
        |&x| {
            let rt = f16_bits_to_f32(f32_to_f16_bits(x));
            if x.abs() > 1e-3 {
                prop_assert!(((rt - x) / x).abs() < 1e-3, "{x} -> {rt}");
            } else {
                prop_assert!((rt - x).abs() < 1e-3);
            }
            Ok(())
        },
    );
}

/// Builds all three index families over the same data.
fn all_families(data: &Mat) -> Vec<(&'static str, Box<dyn VectorIndex>)> {
    vec![
        (
            "flat",
            Box::new(FlatIndex::new(data.clone(), Metric::L2)) as Box<dyn VectorIndex>,
        ),
        (
            "ivf",
            Box::new(
                IvfIndex::builder()
                    .nlist(3)
                    .codec(CodecSpec::Sq8)
                    .metric(Metric::L2)
                    .build(data)
                    .unwrap(),
            ),
        ),
        (
            "hnsw",
            Box::new(
                HnswIndex::builder()
                    .m(4)
                    .metric(Metric::L2)
                    .storage(VectorStorage::F32)
                    .build(data)
                    .unwrap(),
            ),
        ),
    ]
}

/// Pooled batch search is bit-identical to the sequential loop for every
/// index family and any thread cap (0 = full pool, 1 = inline, n > pool
/// width = oversubscribed).
#[test]
fn batch_search_equals_sequential_for_all_families() {
    let strat = tuple2(data_strategy(40, 4), usize_in(0..9));
    check_with(
        "batch_search_equals_sequential_for_all_families",
        &cfg(),
        &strat,
        |(rows, threads)| {
            let data = Mat::from_rows(rows);
            let queries: Vec<Vec<f32>> = data.iter_rows().map(<[f32]>::to_vec).collect();
            let params = SearchParams::new().with_nprobe(3).with_ef_search(16);
            for (family, index) in all_families(&data) {
                let sequential: Vec<_> = queries
                    .iter()
                    .map(|q| index.search(q, 3, &params).unwrap())
                    .collect();
                let batched = index.batch_search(&queries, 3, &params, *threads).unwrap();
                prop_assert!(
                    sequential == batched,
                    "family {family} diverged at threads={threads}"
                );
            }
            Ok(())
        },
    );
}

/// A wrong-dimension query mid-batch surfaces as the same first-in-input-
/// order error the sequential loop reports, for every index family.
#[test]
fn batch_search_propagates_first_error_in_input_order() {
    let strat = tuple2(data_strategy(30, 4), usize_in(0..6));
    check_with(
        "batch_search_propagates_first_error_in_input_order",
        &cfg(),
        &strat,
        |(rows, threads)| {
            let data = Mat::from_rows(rows);
            let params = SearchParams::new().with_nprobe(3);
            // Good, bad (3-dim), good, bad (1-dim): the 3-dim mismatch
            // at index 1 must win regardless of schedule.
            let queries = vec![
                data.row(0).to_vec(),
                vec![1.0, 2.0, 3.0],
                data.row(1).to_vec(),
                vec![9.0],
            ];
            for (family, index) in all_families(&data) {
                let sequential_err = queries
                    .iter()
                    .map(|q| index.search(q, 2, &params))
                    .find_map(Result::err)
                    .unwrap();
                let batch_err = index
                    .batch_search(&queries, 2, &params, *threads)
                    .unwrap_err();
                prop_assert!(
                    sequential_err == batch_err,
                    "family {family} reported a different error at threads={threads}"
                );
            }
            Ok(())
        },
    );
}

/// HNSW always returns unique ids sorted best-first.
#[test]
fn hnsw_results_are_unique_and_sorted() {
    let strat = tuple2(data_strategy(50, 4), usize_in(1..10));
    check_with(
        "hnsw_results_are_unique_and_sorted",
        &cfg(),
        &strat,
        |(rows, k)| {
            let data = Mat::from_rows(rows);
            let index = HnswIndex::builder()
                .m(4)
                .metric(Metric::L2)
                .storage(VectorStorage::F32)
                .build(&data)
                .unwrap();
            let hits = index
                .search(data.row(0), *k, &SearchParams::new().with_ef_search(32))
                .unwrap();
            prop_assert!(hits.len() <= *k);
            for w in hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            let mut ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), hits.len());
            Ok(())
        },
    );
}

/// A group scan answers every query exactly as a scan of that query
/// alone — hit ids, score bits, `ScanStats`, errors — for groups of
/// 1..=9, every codec and metric, between 2 and 40 lists over at most
/// 120 rows (so row plans cross many short — 1-code, sub-tile — lists,
/// or few long ones), tombstoned lists, mixed `nprobe`, duplicate
/// queries and a query that errors in the middle of the group.
#[test]
fn search_group_equals_per_query_search() {
    let strat = tuple3(data_strategy(120, 6), u64_any(), usize_in(1..10));
    check_with(
        "search_group_equals_per_query_search",
        &Config::from_env().with_cases(12),
        &strat,
        |(rows, pick, group)| {
            let data = Mat::from_rows(rows);
            let n = data.rows();
            let codecs = [
                CodecSpec::Flat,
                CodecSpec::Sq8,
                CodecSpec::Sq4,
                CodecSpec::Pq { m: 2 },
            ];
            let bad = [0.5f32; 3];
            let nlist = 2 + (*pick % 39) as usize;
            let metric =
                [Metric::InnerProduct, Metric::L2, Metric::Cosine][(*pick / 64 % 3) as usize];
            for codec in codecs {
                let mut index = IvfIndex::builder()
                    .nlist(nlist)
                    .codec(codec)
                    .metric(metric)
                    .seed(*pick)
                    .build(&data)
                    .unwrap();
                for id in (0..n as u64).step_by(3) {
                    index.remove(id);
                }
                // `group` queries drawn (with repeats) from the rows,
                // one of them replaced by a wrong-dimension query.
                let mut queries: Vec<&[f32]> = (0..*group)
                    .map(|i| data.row((*pick as usize).wrapping_add(i * 5) % n.min(4 + i)))
                    .collect();
                let broken = *pick as usize % queries.len();
                if *group > 2 {
                    queries[broken] = &bad;
                }
                let queries: Vec<(&[f32], usize)> = queries
                    .into_iter()
                    .enumerate()
                    .map(|(i, q)| (q, 1 + (i * 7) % 41))
                    .collect();
                let scan = index.search_group(&queries, 4);
                prop_assert_eq!(scan.results.len(), queries.len());
                for (&(q, nprobe), got) in queries.iter().zip(&scan.results) {
                    let want =
                        index.search_with_stats(q, 4, &SearchParams::new().with_nprobe(nprobe));
                    match (got, &want) {
                        (Ok((hits, stats)), Ok((want_hits, want_stats))) => {
                            prop_assert_eq!(stats, want_stats);
                            prop_assert_eq!(hits.len(), want_hits.len());
                            for (g, w) in hits.iter().zip(want_hits) {
                                prop_assert_eq!(g.id, w.id);
                                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                            }
                        }
                        (got, want) => prop_assert_eq!(got, want),
                    }
                }
            }
            Ok(())
        },
    );
}
