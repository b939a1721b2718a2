//! Mutation-equivalence property suite: randomized insert / remove
//! interleavings on an IVF shard and on the clustered store, pinned
//! against an index built from exactly the surviving rows.
//!
//! The IVF shard is the one index that changes after its build
//! (`IvfIndex::add` / `IvfIndex::take`; Flat and HNSW are built once).
//! The contract under test is the removal bit-identity rule: a churned
//! shard is, byte for byte, the shard its survivors make when added in
//! order onto its centroids and codec, so it answers **bit for bit** like
//! it. Runs under every `HERMES_SIMD` level via the verify.sh sweep —
//! that comparison pits a path against *itself* (same kernels on both
//! sides), so mutation must not perturb a single score bit at any level;
//! the one cross-path check (IVF vs flat oracle) is ULP-bounded instead.

use hermes::index::{InvertedList, IvfParts, ScanStats};
use hermes::prelude::*;
use hermes_testkit::prelude::*;

fn cfg() -> Config {
    Config::from_env().with_cases(12)
}

/// Deterministic op stream: inserts (fresh ids) and removes (random live
/// id), 55 : 35.
struct Churn {
    rng: hermes::math::rng::SeededRng,
    dim: usize,
    next_id: u64,
}

enum Op {
    Insert(u64, Vec<f32>),
    Remove(u64),
}

impl Churn {
    fn new(seed: u64, dim: usize) -> Self {
        Churn {
            rng: hermes::math::rng::SeededRng::new(seed),
            dim,
            next_id: 10_000,
        }
    }

    fn vector(&mut self) -> Vec<f32> {
        (0..self.dim)
            .map(|_| self.rng.next_f32() * 2.0 - 1.0)
            .collect()
    }

    /// Next op given the currently-live id list.
    fn next(&mut self, live: &[u64]) -> Op {
        let roll = self.rng.gen_range(0u32..90);
        if roll < 55 || live.len() < 4 {
            let id = self.next_id;
            self.next_id += 1;
            Op::Insert(id, self.vector())
        } else {
            let i = self.rng.gen_range(0..live.len());
            Op::Remove(live[i])
        }
    }
}

/// Applies `ops` churn steps to `index`, mirroring them into a
/// `survivors` list of (id, vector) in insertion order.
fn churn_index(
    index: &mut IvfIndex,
    churn: &mut Churn,
    ops: usize,
    survivors: &mut Vec<(u64, Vec<f32>)>,
) {
    for _ in 0..ops {
        let live: Vec<u64> = survivors.iter().map(|(id, _)| *id).collect();
        match churn.next(&live) {
            Op::Insert(id, v) => {
                index.add(id, &v).unwrap();
                survivors.push((id, v));
            }
            Op::Remove(id) => {
                assert!(index.take(id).is_some(), "live id {id} must be removable");
                let i = survivors.iter().position(|(s, _)| *s == id).unwrap();
                survivors.remove(i);
            }
        }
    }
}

/// IVF: a churned index equals the index its survivors make when added,
/// in survival order, onto its own centroids and codec — removal keeps
/// the order of the other rows, and the build assigns rows the way `add`
/// does — in its image bytes and in every answer (hits, score bits,
/// `ScanStats`) at any probe depth, also once its image is read back.
#[test]
fn ivf_random_interleavings_compact_and_serialize_bit_identically() {
    let strat = tuple3(u64_in(0..1_000), usize_in(30..100), usize_in(1..6));
    check_with(
        "ivf_random_interleavings_compact_and_serialize_bit_identically",
        &cfg(),
        &strat,
        |&(seed, ops, k)| {
            let dim = 10;
            let mut churn = Churn::new(seed, dim);
            let seed_rows: Vec<Vec<f32>> = (0..60).map(|_| churn.vector()).collect();
            let mut index = IvfIndex::builder()
                .nlist(6)
                .codec(CodecSpec::Sq8)
                .seed(seed)
                .build(&Mat::from_rows(&seed_rows))
                .unwrap();
            let mut survivors: Vec<(u64, Vec<f32>)> = (0..60u64).zip(seed_rows).collect();
            churn_index(&mut index, &mut churn, ops, &mut survivors);

            let parts = index.clone().into_parts();
            let mut reference = IvfIndex::from_parts(IvfParts {
                lists: vec![InvertedList::default(); parts.lists.len()],
                ..parts
            })
            .unwrap();
            for (id, v) in &survivors {
                reference.add(*id, v).unwrap();
            }
            let image = index.to_bytes();
            prop_assert!(
                image == reference.to_bytes(),
                "the churned image differs from the reference's"
            );
            let reloaded = IvfIndex::from_bytes(&image).unwrap();

            let q = churn.vector();
            for nprobe in [1, 3, 6] {
                let params = SearchParams::new().with_nprobe(nprobe);
                let want = answer_bits(&reference, &q, k, &params);
                prop_assert_eq!(answer_bits(&index, &q, k, &params), want);
                prop_assert_eq!(answer_bits(&reloaded, &q, k, &params), want);
            }
            Ok(())
        },
    );
}

/// A search's hits, each score as its bits, and its `ScanStats`.
fn answer_bits(
    index: &IvfIndex,
    q: &[f32],
    k: usize,
    params: &SearchParams,
) -> (Vec<(u64, u32)>, ScanStats) {
    let (hits, stats) = index.search_with_stats(q, k, params).unwrap();
    (
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect(),
        stats,
    )
}

/// IVF with a lossless codec at full probe depth agrees with the brute
/// force flat oracle over the surviving rows. The two sides are
/// *different kernels* (inverted-list scan vs flat scan), so their f32
/// accumulation orders differ per SIMD level and scores may drift by a
/// few ULP — the comparison is the cross-path analogue of the cross-level
/// contract: same ids up to boundary ties, scores within a tight ULP
/// envelope. (Bitwise identity under mutation is pinned path-vs-itself
/// by the other suites in this file.)
#[test]
fn ivf_full_probe_matches_flat_oracle_on_survivors() {
    let strat = tuple2(u64_in(0..1_000), usize_in(20..70));
    check_with(
        "ivf_full_probe_matches_flat_oracle_on_survivors",
        &cfg(),
        &strat,
        |&(seed, ops)| {
            let dim = 8;
            let k = 5;
            let mut churn = Churn::new(seed, dim);
            let seed_rows: Vec<Vec<f32>> = (0..40).map(|_| churn.vector()).collect();
            let mut index = IvfIndex::builder()
                .nlist(5)
                .codec(CodecSpec::Flat)
                .seed(seed)
                .build(&Mat::from_rows(&seed_rows))
                .unwrap();
            let mut survivors: Vec<(u64, Vec<f32>)> = (0..40u64).zip(seed_rows).collect();
            churn_index(&mut index, &mut churn, ops, &mut survivors);

            let oracle = FlatIndex::with_ids(
                Mat::from_rows(&survivors.iter().map(|(_, v)| v.clone()).collect::<Vec<_>>()),
                survivors.iter().map(|(id, _)| *id).collect(),
                Metric::InnerProduct,
            );
            let q = churn.vector();
            let params = SearchParams::new().with_nprobe(usize::MAX);
            let got = index.search(&q, k, &params).unwrap();
            let want = oracle.search(&q, k, &SearchParams::new()).unwrap();
            prop_assert_eq!(got.len(), want.len());

            const ULP_TOL: u64 = 16;
            let score_of =
                |hits: &[Neighbor], id: u64| hits.iter().find(|n| n.id == id).map(|n| n.score);
            let got_thr = got.last().map_or(f32::NEG_INFINITY, |n| n.score);
            let want_thr = want.last().map_or(f32::NEG_INFINITY, |n| n.score);
            for (side, other, other_thr) in [(&got, &want, want_thr), (&want, &got, got_thr)] {
                for n in side.iter() {
                    match score_of(other, n.id) {
                        Some(w) => prop_assert!(
                            ulp_within(n.score, w, ULP_TOL),
                            "id {} scored {:?} vs {:?} ({} ULP apart)",
                            n.id,
                            n.score,
                            w,
                            max_ulp_distance(n.score, w)
                        ),
                        // Admission flipped between the paths: only legal
                        // as a tie at the k-th score on both sides.
                        None => prop_assert!(
                            ulp_within(n.score, other_thr, ULP_TOL),
                            "id {} admitted on one side only, but its score \
                             {:?} is not a boundary tie with {:?}",
                            n.id,
                            n.score,
                            other_thr
                        ),
                    }
                }
            }
            Ok(())
        },
    );
}

/// ClusteredStore: under random churn the live count, per-cluster sizes
/// and shard contents stay mutually consistent. (Churned-store results
/// are pinned by `engine_equivalence`'s `churned` variant and by
/// `incremental_rebalance_matches_stop_the_world_at_every_boundary`.)
#[test]
fn store_churn_keeps_sizes_shards_and_results_consistent() {
    let strat = tuple2(u64_in(0..500), usize_in(30..120));
    check_with(
        "store_churn_keeps_sizes_shards_and_results_consistent",
        &cfg(),
        &strat,
        |&(seed, ops)| {
            let corpus = Corpus::generate(CorpusSpec::new(300, 10, 4).with_seed(seed));
            let cfg = HermesConfig::new(4)
                .with_clusters_to_search(2)
                .with_seed(seed);
            let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let mut churn = Churn::new(seed ^ 0xbeef, 10);
            let mut inserted: Vec<u64> = Vec::new();
            for _ in 0..ops {
                match churn.next(&inserted) {
                    Op::Insert(id, v) => {
                        store.insert(id, &v).unwrap();
                        inserted.push(id);
                    }
                    Op::Remove(id) => {
                        prop_assert!(store.remove(id).is_some());
                        let i = inserted.iter().position(|s| *s == id).unwrap();
                        inserted.remove(i);
                    }
                }
            }
            prop_assert_eq!(store.len(), 300 + inserted.len());
            let infos = store.cluster_infos();
            for (c, info) in infos.iter().enumerate() {
                prop_assert_eq!(info.size, store.cluster_sizes()[c]);
                prop_assert_eq!(info.size, store.shard(c).len());
            }
            Ok(())
        },
    );
}

/// Rebalancing under churn: every incremental step is a pure function of
/// store state, so step-by-step application equals the stop-the-world
/// rebuild prefix at every generation boundary — compared bit for bit
/// through the paged image.
#[test]
fn incremental_rebalance_matches_stop_the_world_at_every_boundary() {
    let strat = u64_in(0..200);
    check_with(
        "incremental_rebalance_matches_stop_the_world_at_every_boundary",
        &Config::from_env().with_cases(6),
        &strat,
        |&seed| {
            let corpus = Corpus::generate(CorpusSpec::new(400, 10, 4).with_seed(seed));
            let cfg = HermesConfig::new(4)
                .with_clusters_to_search(2)
                .with_seed(seed);
            let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            // Skew one cluster so the rebalancer has work to do.
            let hot = store.split_centroid(0).to_vec();
            let mut rng = hermes::math::rng::SeededRng::new(seed);
            for i in 0..700u64 {
                let mut v = hot.clone();
                for x in v.iter_mut() {
                    *x += (rng.next_f32() - 0.5) * 0.05;
                }
                store.insert(70_000 + i, &v).unwrap();
            }

            let r = Rebalancer::new(RebalanceConfig {
                max_imbalance: 2.0,
                ..RebalanceConfig::default()
            });
            // Incremental path: one step at a time from the live store.
            let mut incremental = store.clone();
            let mut boundaries = 0usize;
            while let Some(next) = r.step(&incremental) {
                incremental = next.unwrap();
                boundaries += 1;
                // Stop-the-world path: rebuild from scratch, paused after
                // the same number of steps.
                let mut offline = store.clone();
                for _ in 0..boundaries {
                    offline = match r.step(&offline) {
                        Some(next) => next.unwrap(),
                        None => break,
                    };
                }
                prop_assert_eq!(incremental.generation(), offline.generation());
                prop_assert_eq!(incremental.to_paged_bytes(), offline.to_paged_bytes());
                if boundaries >= 6 {
                    break;
                }
            }
            prop_assert!(boundaries > 0);
            Ok(())
        },
    );
}
