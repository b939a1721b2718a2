//! Property-based integration tests over the cross-crate invariants the
//! Hermes design relies on, on `hermes-testkit`.

use hermes::prelude::*;
use hermes_testkit::prelude::*;

fn small_corpus(seed: u64, docs: usize, topics: usize) -> Corpus {
    Corpus::generate(CorpusSpec::new(docs, 8, topics).with_seed(seed))
}

fn cfg() -> Config {
    Config::from_env().with_cases(16)
}

/// Hierarchical search always returns exactly `k` hits (the corpus is
/// larger than `k`), sorted best first, with unique ids.
#[test]
fn search_output_is_well_formed() {
    let strat = tuple3(u64_in(0..50), usize_in(1..8), usize_in(1..4));
    check_with(
        "search_output_is_well_formed",
        &cfg(),
        &strat,
        |&(seed, k, m)| {
            let corpus = small_corpus(seed, 300, 4);
            let cfg = HermesConfig::new(4)
                .with_clusters_to_search(m)
                .with_k(k)
                .with_seed(seed);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let out = store
                .hierarchical_search(corpus.embeddings().row(0))
                .unwrap();
            prop_assert_eq!(out.hits.len(), k);
            for w in out.hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            let mut ids: Vec<u64> = out.hits.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), k);
            Ok(())
        },
    );
}

/// Searching more clusters never shrinks the scanned work, and the
/// ranked list is always a permutation of all clusters.
#[test]
fn deep_work_is_monotone_in_clusters_searched() {
    check_with(
        "deep_work_is_monotone_in_clusters_searched",
        &cfg(),
        &u64_in(0..30),
        |&seed| {
            let corpus = small_corpus(seed, 400, 5);
            let q = corpus.embeddings().row(1).to_vec();
            let mut prev = 0usize;
            for m in 1..=5 {
                let cfg = HermesConfig::new(5)
                    .with_clusters_to_search(m)
                    .with_seed(seed);
                let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
                let out = store.hierarchical_search(&q).unwrap();
                prop_assert!(out.deep_cost().scanned_codes >= prev || m == 1);
                prev = out.deep_cost().scanned_codes;
                let mut ranked = out.ranked_clusters.clone();
                ranked.sort_unstable();
                prop_assert_eq!(ranked, (0..5).collect::<Vec<_>>());
            }
            Ok(())
        },
    );
}

/// Deep-searching *all* `C` clusters with a lossless codec and full
/// probes is exactly a flat search of the union of the shards.
#[test]
fn full_deep_search_equals_flat_search_of_union() {
    let strat = tuple2(u64_in(0..30), usize_in(2..6));
    check_with(
        "full_deep_search_equals_flat_search_of_union",
        &cfg(),
        &strat,
        |&(seed, c)| {
            let corpus = small_corpus(seed, 250, 4);
            let cfg = HermesConfig::new(c)
                .with_clusters_to_search(c) // m = C: no routing pruning
                .with_codec(CodecSpec::Flat)
                .with_k(5)
                .with_seed(seed);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let flat = FlatIndex::new(corpus.embeddings().clone(), cfg.metric);
            for qi in [0usize, 7, 99] {
                let q = corpus.embeddings().row(qi);
                let hier = store.hierarchical_search(q).unwrap();
                let exact = flat.search(q, 5, &SearchParams::new()).unwrap();
                let got: Vec<u64> = hier.hits.iter().map(|n| n.id).collect();
                let want: Vec<u64> = exact.iter().map(|n| n.id).collect();
                prop_assert_eq!(got, want);
                for (h, e) in hier.hits.iter().zip(&exact) {
                    prop_assert!(
                        (h.score - e.score).abs() <= 1e-4 * e.score.abs().max(1.0),
                        "score drift at id {}: {} vs {}",
                        h.id,
                        h.score,
                        e.score
                    );
                }
            }
            Ok(())
        },
    );
}

/// Cluster sizes always partition the corpus.
#[test]
fn split_partitions_the_corpus() {
    let strat = tuple2(u64_in(0..30), usize_in(2..8));
    check_with(
        "split_partitions_the_corpus",
        &cfg(),
        &strat,
        |&(seed, c)| {
            let corpus = small_corpus(seed, 350, 4);
            let cfg = HermesConfig::new(c)
                .with_clusters_to_search(1)
                .with_seed(seed);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            prop_assert_eq!(store.cluster_sizes().iter().sum::<usize>(), 350);
            Ok(())
        },
    );
}

/// The retrieval latency model is monotone in every argument.
#[test]
fn latency_model_is_monotone() {
    let strat = tuple3(
        u64_in(1_000_000..1_000_000_000),
        usize_in(1..256),
        usize_in(1..128),
    );
    check_with(
        "latency_model_is_monotone",
        &cfg(),
        &strat,
        |&(tokens, batch, nprobe)| {
            let m = RetrievalModel::default();
            let base = m.batch_latency(tokens, batch, nprobe);
            prop_assert!(m.batch_latency(tokens * 2, batch, nprobe) > base);
            prop_assert!(m.batch_latency(tokens, batch + 8, nprobe) > base);
            prop_assert!(m.batch_latency(tokens, batch, nprobe + 8) > base);
            prop_assert!(base > 0.0);
            Ok(())
        },
    );
}

/// Simulated E2E latency always dominates TTFT, and energy is
/// positive and finite.
#[test]
fn sim_invariants_hold() {
    let strat = tuple3(u64_in(1..2_000), usize_in(1..16), usize_in(2..7));
    check_with(
        "sim_invariants_hold",
        &cfg(),
        &strat,
        |&(tokens_b, nodes, stride_pow)| {
            let sim = MultiNodeSim::new(Deployment::uniform(tokens_b * 1_000_000_000, nodes));
            let serving = ServingConfig::paper_default().with_stride(1 << stride_pow);
            let scheme = RetrievalScheme::Hermes {
                clusters_to_search: 3.min(nodes),
                sample_nprobe: 8,
            };
            for policy in [PipelinePolicy::baseline(), PipelinePolicy::combined()] {
                let r = sim.run(&serving, scheme, policy, DvfsMode::Off);
                prop_assert!(r.e2e_s >= r.ttft_s);
                prop_assert!(r.total_joules() > 0.0);
                prop_assert!(r.total_joules().is_finite());
                prop_assert!(r.retrieval_qps > 0.0);
            }
            Ok(())
        },
    );
}

/// NDCG and recall stay in [0, 1] for arbitrary id lists.
#[test]
fn metrics_stay_in_unit_interval() {
    let strat = tuple3(
        vec_of(u64_in(0..50), 0..10),
        vec_of(u64_in(0..50), 0..10),
        usize_in(1..10),
    );
    check_with(
        "metrics_stay_in_unit_interval",
        &cfg(),
        &strat,
        |(truth, got, k)| {
            let n = ndcg_at_k(truth, got, *k);
            let r = recall_at_k(truth, got, *k);
            prop_assert!((0.0..=1.0).contains(&n), "ndcg {}", n);
            prop_assert!((0.0..=1.0).contains(&r), "recall {}", r);
            Ok(())
        },
    );
}

/// The blocked scoring kernels obey the two-tier equivalence contract
/// for every metric, at every dimension from 1 to 80 — odd tails,
/// partial tiles and partial blocks included — and at **every dispatch
/// level that can run on this machine**:
///
/// * at [`SimdLevel::Scalar`] the block kernels return exactly the same
///   bits as the scalar [`Metric::similarity`] kernels (the contract
///   that lets every scan path switch to blocks without moving a single
///   search result),
/// * every level is bit-identical to its deterministic lane-ordered
///   reduction reference ([`reference_similarity`]), and
/// * any two levels agree within the pinned 256-ULP bound, measured
///   against the cancellation-aware [`similarity_scale`].
#[test]
fn blocked_kernels_obey_the_two_tier_contract() {
    const MAX_ULP: u64 = 256;
    let strat = tuple2(u64_in(0..50), usize_in(1..81));
    check_with(
        "blocked_kernels_obey_the_two_tier_contract",
        &cfg(),
        &strat,
        |&(seed, dim)| {
            let mut rng = hermes::math::rng::seeded_rng(seed);
            // 13 rows: not a multiple of the tile (4), SIMD lane (4/8) or
            // block width.
            let n = 13usize;
            let query: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let rows: Vec<f32> = (0..n * dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let levels = SimdLevel::available();
            let mut per_level = vec![vec![0.0f32; n]; levels.len()];
            for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                for (out, &level) in per_level.iter_mut().zip(&levels) {
                    metric.similarity_block_at(level, &query, &rows, dim, out);
                    for (i, got) in out.iter().enumerate() {
                        let row = &rows[i * dim..(i + 1) * dim];
                        let want = reference_similarity(level, metric, &query, row);
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "{} {} dim {} row {}: {} vs lane-ordered reference {}",
                            level,
                            metric,
                            dim,
                            i,
                            got,
                            want
                        );
                        if level == SimdLevel::Scalar {
                            let scalar = metric.similarity(&query, row);
                            prop_assert!(
                                got.to_bits() == scalar.to_bits(),
                                "scalar {} dim {} row {}: {} vs {}",
                                metric,
                                dim,
                                i,
                                got,
                                scalar
                            );
                        }
                    }
                }
                for li in 1..levels.len() {
                    for i in 0..n {
                        let row = &rows[i * dim..(i + 1) * dim];
                        let scale = similarity_scale(metric, &query, row);
                        prop_assert!(
                            ulp_within_scaled(per_level[0][i], per_level[li][i], MAX_ULP, scale),
                            "{} vs {} {} dim {} row {}: {} vs {} (scale {})",
                            levels[0],
                            levels[li],
                            metric,
                            dim,
                            i,
                            per_level[0][i],
                            per_level[li][i],
                            scale
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// `QueryScorer::score_block` agrees bit-for-bit with per-code
/// `QueryScorer::score` for every codec family and metric — at **every
/// dispatch level**. Quantized scoring is tier A of the equivalence
/// contract: integer dequantization and table lookups reassociate
/// nothing, so SQ8 and ADC block scores are pinned to the exact bits of
/// the scalar path on every CPU.
#[test]
fn scorer_block_matches_per_code_scoring() {
    check_with(
        "scorer_block_matches_per_code_scoring",
        &cfg(),
        &u64_in(0..30),
        |&seed| {
            let corpus = small_corpus(seed, 120, 3);
            for spec in [
                CodecSpec::Flat,
                CodecSpec::Sq8,
                CodecSpec::Sq4,
                CodecSpec::Pq { m: 2 },
            ] {
                let codec = Codec::train(spec, corpus.embeddings(), seed);
                let mut codes = Vec::new();
                for row in corpus.embeddings().iter_rows() {
                    codec.encode_into(row, &mut codes);
                }
                let query = corpus.embeddings().row(1);
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    let scorer = codec.query_scorer(query, metric);
                    let cs = scorer.code_size();
                    let mut out = vec![0.0f32; corpus.embeddings().rows()];
                    scorer.score_block(&codes, &mut out);
                    for (i, got) in out.iter().enumerate() {
                        let want = scorer.score(&codes[i * cs..(i + 1) * cs]);
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "{} {} code {}: {} vs {}",
                            spec,
                            metric,
                            i,
                            got,
                            want
                        );
                    }
                    for level in SimdLevel::available() {
                        let mut at = vec![0.0f32; corpus.embeddings().rows()];
                        scorer.score_block_at(level, &codes, &mut at);
                        for (i, (a, b)) in at.iter().zip(&out).enumerate() {
                            prop_assert!(
                                a.to_bits() == b.to_bits(),
                                "{} {} {} code {}: {} vs {}",
                                level,
                                spec,
                                metric,
                                i,
                                a,
                                b
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// The SQ8 scan filter on trained codecs and encoded corpus rows (the
/// `hermes-quant` proptests draw synthetic quantizers and codes): the
/// integer sums are the same numbers at every dispatch level, the bound
/// built from them is never below the exact score, and a top-k fed only
/// the rows the bound cannot rule out — an exact warm-up, then block by
/// block against the selector's threshold — is the top-k of all rows,
/// ids and score bits. Dimensions: the benchmark's `--smoke` and full
/// shapes and one with a 32-byte step plus tail; queries at the corpus's
/// scale and far off it.
#[test]
fn sq8_bound_filter_keeps_the_exact_top_k() {
    use hermes::math::TopK;
    let strat = tuple2(u64_in(0..40), usize_in(0..3));
    check_with(
        "sq8_bound_filter_keeps_the_exact_top_k",
        &cfg(),
        &strat,
        |&(seed, shape)| {
            let dim = [24, 40, 64][shape];
            let corpus = Corpus::generate(CorpusSpec::new(400, dim, 4).with_seed(seed));
            let data = corpus.embeddings();
            let codec = Codec::train(CodecSpec::Sq8, data, seed);
            let mut codes = Vec::new();
            for row in data.iter_rows() {
                codec.encode_into(row, &mut codes);
            }
            let ids: Vec<u64> = (0..data.rows() as u64).collect();
            for (metric, scale) in [
                (Metric::InnerProduct, 1.0f32),
                (Metric::Cosine, 1.0),
                (Metric::InnerProduct, 1e-12),
                (Metric::InnerProduct, 3e7),
            ] {
                let query: Vec<f32> = data
                    .row(seed as usize % 400)
                    .iter()
                    .map(|x| x * scale)
                    .collect();
                let scorer = codec.query_scorer(&query, metric);
                let Some(bound) = scorer.bound() else {
                    return Err(format!(
                        "no bound for a finite query, d{dim} {metric} x{scale}"
                    ));
                };
                let mut scores = vec![0.0f32; ids.len()];
                scorer.score_block(&codes, &mut scores);
                let mut sums = vec![0i32; ids.len()];
                bound.sums(&[&codes], &mut sums);
                for level in SimdLevel::available() {
                    let mut at = vec![0i32; ids.len()];
                    bound.sums_at(level, &[&codes], &mut at);
                    prop_assert!(at == sums, "d{dim} {metric} sums at {level}");
                }
                for (i, (&sum, &score)) in sums.iter().zip(&scores).enumerate() {
                    prop_assert!(
                        bound.upper(sum) >= f64::from(score),
                        "d{dim} {metric} x{scale} row {i}: bound {} below score {score}",
                        bound.upper(sum)
                    );
                }
                for k in [1usize, 10] {
                    let mut all = TopK::new(k);
                    all.push_block(&ids, &scores);
                    let mut filtered = TopK::new(k);
                    filtered.push_block(&ids[..32], &scores[..32]);
                    let mut kept = 0;
                    for block in (32..ids.len())
                        .step_by(64)
                        .map(|at| at..(at + 64).min(ids.len()))
                    {
                        let floor = bound.floor(filtered.threshold()).unwrap_or(i32::MIN);
                        for i in block.filter(|&i| sums[i] >= floor) {
                            filtered.push(ids[i], scores[i]);
                            kept += 1;
                        }
                    }
                    let bits = |top: TopK| -> Vec<(u64, u32)> {
                        let hits = top.into_sorted_vec();
                        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                    };
                    prop_assert!(bits(filtered) == bits(all), "d{dim} {metric} x{scale} k{k}");
                    // The filter is worth having: most rows never reach f32.
                    prop_assert!(
                        kept * 2 < ids.len(),
                        "d{dim} {metric} x{scale} k{k}: kept {kept}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Codec round-trips preserve dimensionality and stay finite.
#[test]
fn codec_round_trip_shape() {
    check_with("codec_round_trip_shape", &cfg(), &u64_in(0..20), |&seed| {
        let corpus = small_corpus(seed, 300, 3);
        for spec in [
            CodecSpec::Flat,
            CodecSpec::Sq8,
            CodecSpec::Sq4,
            CodecSpec::Pq { m: 2 },
        ] {
            let codec = Codec::train(spec, corpus.embeddings(), seed);
            let decoded = codec.decode(&codec.encode(corpus.embeddings().row(0)));
            prop_assert_eq!(decoded.len(), 8);
            prop_assert!(decoded.iter().all(|x| x.is_finite()));
        }
        Ok(())
    });
}
