//! Property-based tests for the ANN indices, on `hermes-testkit`.

use hermes_index::{
    f16_bits_to_f32, f32_to_f16_bits, FlatIndex, HnswIndex, IvfIndex, SearchParams, VectorIndex,
    VectorStorage,
};
use hermes_kmeans::probe_key_centroid;
use hermes_math::rng::seeded_rng;
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

/// Each query's lists (from the index's own coarse keys): its nearest
/// `nprobe`, in list order.
fn nearest_lists(index: &IvfIndex, queries: &[&[f32]], nprobe: usize) -> Vec<Vec<u32>> {
    let keys = index.coarse_keys(queries.iter().copied());
    (0..queries.len())
        .map(|qi| {
            let mut keys = keys.query(qi).unwrap().to_vec();
            keys.sort_unstable();
            keys.truncate(nprobe);
            let mut lists: Vec<u32> = keys
                .iter()
                .map(|&key| probe_key_centroid(key) as u32)
                .collect();
            lists.sort_unstable();
            lists
        })
        .collect()
}

/// `search_lists` with a floor `t` answers the hits of the unfloored
/// scan that score at least `t`, with the same `ScanStats`: floors −∞ and
/// NaN (no floor), the exact k-th score, a score two hits tie at, one
/// inside the answer and one above it — every codec and metric, lists
/// with tombstones, codes on both sides of the 32 bytes the AVX2 integer
/// kernel needs, and all floors of a query in one group.
#[test]
fn a_floored_list_scan_is_the_unfloored_answer_cut_at_the_floor() {
    let strat = tuple3(u64_any(), usize_in(1..12), usize_in(40..300));
    check_with(
        "a_floored_list_scan_is_the_unfloored_answer_cut_at_the_floor",
        &Config::from_env().with_cases(12),
        &strat,
        |&(seed, k, n)| {
            let mut rng = seeded_rng(seed);
            let dim = [8, 40][(seed % 2) as usize];
            let mut rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
                .collect();
            // Every fourth row a copy of one of three: their scores tie
            // to the bit.
            for i in (0..n).step_by(4) {
                rows[i] = rows[1 + i % 3].clone();
            }
            let data = Mat::from_rows(&rows);
            let far: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
            let queries = [data.row(1), data.row(n / 2), &far[..]];
            for codec in [
                CodecSpec::Flat,
                CodecSpec::Sq8,
                CodecSpec::Sq4,
                CodecSpec::Pq { m: 4 },
            ] {
                for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
                    let mut index = IvfIndex::builder()
                        .nlist(6)
                        .codec(codec)
                        .metric(metric)
                        .seed(seed)
                        .build(&data)
                        .unwrap();
                    for id in (0..n as u64).step_by(5) {
                        index.remove(id);
                    }
                    let lists = nearest_lists(&index, &queries, 1 + seed as usize % 6);
                    let unfloored: Vec<(&[f32], &[u32], f32)> = (queries.iter().zip(&lists))
                        .map(|(&q, lists)| (q, &lists[..], f32::NEG_INFINITY))
                        .collect();
                    let plain = index.search_lists(&unfloored, k);
                    let mut floored = Vec::new();
                    let mut wants = Vec::new();
                    for (&(q, lists, _), result) in unfloored.iter().zip(&plain.results) {
                        let (hits, stats) = result.as_ref().unwrap();
                        let mut floors = vec![f32::NEG_INFINITY, f32::NAN];
                        floors.extend(hits.get(k - 1).map(|hit| hit.score));
                        floors.extend(
                            hits.windows(2)
                                .find(|w| w[0].score == w[1].score)
                                .map(|w| w[0].score),
                        );
                        floors.extend(hits.get(hits.len() / 2).map(|hit| hit.score));
                        floors.extend(hits.first().map(|hit| hit.score.next_up()));
                        for floor in floors {
                            let kept = hits
                                .iter()
                                .filter(|hit| floor.is_nan() || hit.score >= floor);
                            wants.push((kept.copied().collect::<Vec<_>>(), *stats, floor));
                            floored.push((q, lists, floor));
                        }
                    }
                    let scan = index.search_lists(&floored, k);
                    for (got, (want, want_stats, floor)) in scan.results.iter().zip(&wants) {
                        let ctx = format!("{codec:?} {metric:?} k={k} floor {floor}");
                        let (hits, stats) = got.as_ref().unwrap();
                        prop_assert!(stats == want_stats, "{ctx}: stats");
                        prop_assert!(
                            hits.len() == want.len(),
                            "{ctx}: {} hits, want {}",
                            hits.len(),
                            want.len()
                        );
                        for (g, w) in hits.iter().zip(want) {
                            prop_assert!(
                                g.id == w.id && g.score.to_bits() == w.score.to_bits(),
                                "{ctx}: {g:?} != {w:?}"
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// A floor at the query's own k-th score leaves the exact kernel less
/// to rescore: an SQ8 scan under inner product and cosine (where the
/// bound filters) rescores no more rows with it than without, query by
/// query, and fewer over the group. A scan that ignored its floor would
/// rescore exactly as many.
#[test]
fn a_floor_rescores_fewer_rows() {
    let mut rng = seeded_rng(0xF100);
    let (n, dim, k) = (3000, 40, 10);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect();
    let data = Mat::from_rows(&rows);
    let queries: Vec<&[f32]> = (0..16).map(|i| data.row(i * 97)).collect();
    for metric in [Metric::InnerProduct, Metric::Cosine] {
        let index = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Sq8)
            .metric(metric)
            .seed(7)
            .build(&data)
            .unwrap();
        let lists = nearest_lists(&index, &queries, 3);
        let (mut with, mut without) = (0, 0);
        for (&q, lists) in queries.iter().zip(&lists) {
            let plain = index.search_lists(&[(q, &lists[..], f32::NEG_INFINITY)], k);
            let kth = plain.results[0].as_ref().unwrap().0[k - 1].score;
            let floored = index.search_lists(&[(q, &lists[..], kth)], k);
            assert_eq!(
                floored.results, plain.results,
                "{metric:?}: the floor is the k-th score"
            );
            assert!(
                floored.rescored_codes <= plain.rescored_codes,
                "{metric:?}: {} rescored with the floor, {} without",
                floored.rescored_codes,
                plain.rescored_codes
            );
            (with, without) = (
                with + floored.rescored_codes,
                without + plain.rescored_codes,
            );
        }
        assert!(
            with < without,
            "{metric:?}: {with} rescored with floors, {without} without"
        );
    }
}
