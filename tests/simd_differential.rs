//! Differential fuzzing of the SIMD dispatch levels against each other
//! and against the lane-ordered references, on adversarial float values:
//! signed zeros, subnormals, exact ones, and large magnitudes that force
//! catastrophic cancellation. Complements `properties.rs` (which fuzzes
//! well-behaved uniform data) by aiming at exactly the inputs where a
//! sloppy vector kernel diverges from scalar semantics — sign-of-zero
//! bugs, flush-to-zero assumptions, and reassociation error blowup.
//!
//! Three invariants per generated case:
//!
//! 1. every runnable dispatch level is **bit-identical** to its
//!    deterministic lane-ordered reduction reference,
//! 2. any two levels agree within the pinned 256-ULP bound, measured
//!    against the cancellation-aware total-variation scale, and
//! 3. top-k admission over the block scores selects the **same id set**
//!    at every level, except for provable boundary ties (ids whose
//!    scores sit within the cross-level tolerance of the k-th score).
//!
//! Plus tier A: an SQ8 codec *trained on the adversarial data itself*
//! must score bit-identically at every level, every query-tile width
//! and every code count.

use hermes::math::rng::SeededRng;
use hermes::math::TopK;
use hermes::prelude::*;
use hermes_testkit::prelude::*;

/// The pinned tier-B cross-level bound (see DESIGN.md).
const MAX_ULP: u64 = 256;

const METRICS: [Metric; 3] = [Metric::L2, Metric::InnerProduct, Metric::Cosine];

/// One differential case: a query and a row block of the same width.
#[derive(Clone, Debug)]
struct Case {
    dim: usize,
    query: Vec<f32>,
    rows: Vec<Vec<f32>>,
}

impl Case {
    fn flat_rows(&self) -> Vec<f32> {
        self.rows.iter().flat_map(|r| r.iter().copied()).collect()
    }
}

/// Draws one element from the adversarial palette. Magnitudes are capped
/// at 3e17 so every reduction (including L2's squared differences at the
/// max dim of 128) stays finite — overflow behaviour is not part of the
/// kernel contract.
fn adversarial_value(rng: &mut SeededRng) -> f32 {
    let sign = if rng.next_u64() & 1 == 0 {
        1.0f32
    } else {
        -1.0f32
    };
    match rng.next_u64() % 8 {
        0 => sign * 0.0,                              // signed zero
        1 => sign * 1.0e-41,                          // subnormal
        2 => sign * f32::from_bits(1),                // smallest subnormal
        3 => sign * 1.0,                              // exact tie fodder
        4 => sign * rng.gen_range(1.0e15f32..3.0e17), // cancellation
        5 => sign * (1.0 + rng.next_f32()),           // near-one
        _ => rng.next_f32() * 2.0 - 1.0,              // uniform
    }
}

/// Strategy for [`Case`]: dims 1..=128 (crossing every lane, tile and
/// block remainder), 1..=70 rows (every ragged tail of one and two
/// 8-code tiles, past a 64-row block). Shrinks by dropping row halves, single
/// rows, halving the dimension, and zeroing individual elements — each
/// candidate is still a well-formed case, so the runner's greedy shrink
/// converges on a minimal adversarial example.
struct AdversarialCase;

/// Caps per-position shrink candidates so shrinking stays fast.
const MAX_SHRINK_SITES: usize = 16;

impl Strategy for AdversarialCase {
    type Value = Case;

    fn generate(&self, rng: &mut SeededRng) -> Case {
        let dim = rng.gen_range(1usize..129);
        let n = rng.gen_range(1usize..71);
        let query = (0..dim).map(|_| adversarial_value(rng)).collect();
        let rows = (0..n)
            .map(|_| (0..dim).map(|_| adversarial_value(rng)).collect())
            .collect();
        Case { dim, query, rows }
    }

    fn shrink(&self, case: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        // 1. Drop rows: back half, front half, then singles.
        if case.rows.len() > 1 {
            let half = case.rows.len() / 2;
            out.push(Case {
                rows: case.rows[..half].to_vec(),
                ..case.clone()
            });
            out.push(Case {
                rows: case.rows[half..].to_vec(),
                ..case.clone()
            });
            for i in 0..case.rows.len().min(MAX_SHRINK_SITES) {
                let mut rows = case.rows.clone();
                rows.remove(i);
                out.push(Case {
                    rows,
                    ..case.clone()
                });
            }
        }
        // 2. Halve the dimension (truncate query and every row).
        for nd in [case.dim / 2, case.dim - 1] {
            if nd >= 1 && nd < case.dim {
                out.push(Case {
                    dim: nd,
                    query: case.query[..nd].to_vec(),
                    rows: case.rows.iter().map(|r| r[..nd].to_vec()).collect(),
                });
            }
        }
        // 3. Zero individual elements (query first, then rows).
        for i in 0..case.dim.min(MAX_SHRINK_SITES) {
            if case.query[i] != 0.0 {
                let mut query = case.query.clone();
                query[i] = 0.0;
                out.push(Case {
                    query,
                    ..case.clone()
                });
            }
        }
        for r in 0..case.rows.len().min(4) {
            for i in 0..case.dim.min(MAX_SHRINK_SITES / 2) {
                if case.rows[r][i] != 0.0 {
                    let mut rows = case.rows.clone();
                    rows[r][i] = 0.0;
                    out.push(Case {
                        rows,
                        ..case.clone()
                    });
                }
            }
        }
        out
    }
}

fn cfg(cases: u32) -> Config {
    Config::from_env().with_cases(cases)
}

/// Invariants 1 and 2: per-level bit-exactness against the lane-ordered
/// reference, and the pinned cross-level ULP bound, on adversarial data.
#[test]
fn adversarial_blocks_match_references_and_ulp_bound() {
    check_with(
        "adversarial_blocks_match_references_and_ulp_bound",
        &cfg(32),
        &AdversarialCase,
        |case| {
            let flat = case.flat_rows();
            let n = case.rows.len();
            let levels = SimdLevel::available();
            let mut per_level = vec![vec![0.0f32; n]; levels.len()];
            for metric in METRICS {
                for (out, &level) in per_level.iter_mut().zip(&levels) {
                    metric.similarity_block_at(level, &case.query, &flat, case.dim, out);
                    for (i, got) in out.iter().enumerate() {
                        let want = reference_similarity(level, metric, &case.query, &case.rows[i]);
                        prop_assert!(
                            got.to_bits() == want.to_bits(),
                            "{} {} dim {} row {}: {:e} ({:#010x}) vs reference {:e} ({:#010x})",
                            level,
                            metric,
                            case.dim,
                            i,
                            got,
                            got.to_bits(),
                            want,
                            want.to_bits()
                        );
                    }
                }
                for li in 1..levels.len() {
                    for (i, row) in case.rows.iter().enumerate() {
                        let scale = similarity_scale(metric, &case.query, row);
                        prop_assert!(
                            ulp_within_scaled(per_level[0][i], per_level[li][i], MAX_ULP, scale),
                            "{} vs {} {} dim {} row {}: {:e} vs {:e} (scale {:e})",
                            levels[0],
                            levels[li],
                            metric,
                            case.dim,
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

/// Invariant 3: after `TopK` admission over the block scores, every
/// level selects the same id set, up to boundary ties. An id admitted at
/// one level but not another must sit within the provable cross-level
/// tolerance (2·256 ULP at the worst row scale) of *both* levels' k-th
/// scores — any wider disagreement is a real kernel divergence.
#[test]
fn adversarial_top_k_sets_agree_across_levels() {
    check_with(
        "adversarial_top_k_sets_agree_across_levels",
        &cfg(32),
        &AdversarialCase,
        |case| {
            let flat = case.flat_rows();
            let n = case.rows.len();
            let k = (n / 2).max(1);
            let levels = SimdLevel::available();
            for metric in METRICS {
                // Worst-case per-row drift bound, shared by all rows.
                let scale_max = case
                    .rows
                    .iter()
                    .map(|r| similarity_scale(metric, &case.query, r))
                    .fold(0.0f32, f32::max);
                let tol = 2.0 * MAX_ULP as f64 * ulp_at(scale_max) as f64;
                let mut scores = Vec::with_capacity(levels.len());
                let mut admitted = Vec::with_capacity(levels.len());
                let mut thresholds = Vec::with_capacity(levels.len());
                for &level in &levels {
                    let mut out = vec![0.0f32; n];
                    metric.similarity_block_at(level, &case.query, &flat, case.dim, &mut out);
                    let mut tk = TopK::new(k);
                    for (i, &s) in out.iter().enumerate() {
                        tk.push(i as u64, s);
                    }
                    let sorted = tk.into_sorted_vec();
                    thresholds.push(sorted.last().map_or(f32::NEG_INFINITY, |nb| nb.score));
                    admitted.push(sorted.iter().map(|nb| nb.id).collect::<Vec<u64>>());
                    scores.push(out);
                }
                for li in 1..levels.len() {
                    for (&id, (side, other)) in admitted[0]
                        .iter()
                        .filter(|id| !admitted[li].contains(id))
                        .map(|id| (id, (0usize, li)))
                        .chain(
                            admitted[li]
                                .iter()
                                .filter(|id| !admitted[0].contains(id))
                                .map(|id| (id, (li, 0usize))),
                        )
                    {
                        // `id` was admitted at `side` but lost at `other`:
                        // only legal as a boundary tie at both levels.
                        for l in [side, other] {
                            let gap = (scores[l][id as usize] as f64 - thresholds[l] as f64).abs();
                            prop_assert!(
                                gap <= tol,
                                "{} {}: id {} flips admission between {} and {} \
                                 but is {:e} from the k-th score at {} (tol {:e})",
                                metric,
                                case.dim,
                                id,
                                levels[side],
                                levels[other],
                                gap,
                                levels[l],
                                tol
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Tier A on hostile data: an SQ8 codec trained on the adversarial rows
/// themselves must score bit-identically to per-code scoring at every
/// dispatch level, for every prefix length of the code block, cut into
/// 1..=6 segments the way a row plan cuts it into inverted lists (empty
/// segments included, tiles straddling the cuts) — dequantization does
/// no reassociation, so not even subnormal mins or astronomical scales
/// may move a bit, and which codes share a tile never shows.
#[test]
fn sq8_trained_on_adversarial_data_is_bit_identical_across_levels() {
    check_with(
        "sq8_trained_on_adversarial_data_is_bit_identical_across_levels",
        &cfg(16),
        &AdversarialCase,
        |case| {
            let mat = Mat::from_rows(&case.rows);
            let codec = Codec::train(CodecSpec::Sq8, &mat, 7);
            let mut codes = Vec::new();
            for row in &case.rows {
                codec.encode_into(row, &mut codes);
            }
            for metric in METRICS {
                let scorer = codec.query_scorer(&case.query, metric);
                let cs = scorer.code_size();
                let want: Vec<f32> = codes.chunks_exact(cs).map(|c| scorer.score(c)).collect();
                for level in SimdLevel::available() {
                    for n in 0..=case.rows.len() {
                        let mut got = vec![0.0f32; n];
                        let cuts = 1 + (n + 1) % 6;
                        let segments: Vec<&[u8]> = (0..cuts)
                            .map(|j| &codes[n * j / cuts * cs..n * (j + 1) / cuts * cs])
                            .collect();
                        scorer.score_segments_at(level, &segments, &mut got);
                        for i in 0..n {
                            let (g, w) = (got[i], want[i]);
                            prop_assert!(
                                g.to_bits() == w.to_bits(),
                                "{} {} n{} code {}: {:e} ({:#010x}) vs {:e} ({:#010x})",
                                level,
                                metric,
                                n,
                                i,
                                g,
                                g.to_bits(),
                                w,
                                w.to_bits()
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// The multi-row L2 argmin (the K-means sweep kernel) on hostile data:
/// the case's rows, a repeat of the first and a NaN and an infinite row
/// as the centroid table; the query, every centroid itself (distance 0,
/// duplicate included, so ties must go to the lowest index) and rows
/// poisoned with NaN / ±Inf as the data, taken as a subset in reverse
/// with a repeat. At every runnable level each result equals the
/// level's single-query block kernel followed by a plain strict-`<`
/// scan — index and distance bits — and the one-row `nearest_row_l2_at`.
#[test]
fn adversarial_multi_row_argmin_matches_the_per_row_scan() {
    use hermes::math::block::{l2_sq_block_at, nearest_row_l2_at, nearest_rows_l2_at};
    check_with(
        "adversarial_multi_row_argmin_matches_the_per_row_scan",
        &cfg(32),
        &AdversarialCase,
        |case| {
            let dim = case.dim;
            let poisoned = |at: usize, v: f32| {
                let mut row = case.query.clone();
                row[at % dim] = v;
                row
            };
            let mut table = case.rows.clone();
            table.push(case.rows[0].clone());
            table.push(poisoned(1, f32::NAN));
            table.push(poisoned(2, f32::INFINITY));
            let table = Mat::from_rows(&table);
            let mut data = vec![case.query.clone()];
            data.extend(table.iter_rows().map(<[f32]>::to_vec));
            data.push(poisoned(0, f32::NAN));
            data.push(poisoned(3, f32::NEG_INFINITY));
            let data = Mat::from_rows(&data);
            let mut rows: Vec<u32> = (0..data.rows() as u32).rev().collect();
            rows.push(1);
            for level in SimdLevel::available() {
                let mut got = vec![(0u32, 0.0f32); rows.len()];
                nearest_rows_l2_at(level, data.as_slice(), &rows, &table, &mut got);
                let mut dists = vec![0.0f32; table.rows()];
                for (&r, &(c, d)) in rows.iter().zip(&got) {
                    let row = data.row(r as usize);
                    l2_sq_block_at(level, row, table.as_slice(), dim, &mut dists);
                    let mut want = (0u32, f32::INFINITY);
                    for (i, &x) in dists.iter().enumerate() {
                        if x < want.1 {
                            want = (i as u32, x);
                        }
                    }
                    prop_assert!(
                        (c, d.to_bits()) == (want.0, want.1.to_bits()),
                        "{} dim {} k {} row {}: ({}, {:e}) vs the scan's ({}, {:e})",
                        level,
                        dim,
                        table.rows(),
                        r,
                        c,
                        d,
                        want.0,
                        want.1
                    );
                    let one = nearest_row_l2_at(level, row, &table);
                    prop_assert!(
                        (one.0 as u32, one.1.to_bits()) == (c, d.to_bits()),
                        "{} dim {} row {}: the one-row call differs",
                        level,
                        dim,
                        r
                    );
                }
            }
            Ok(())
        },
    );
}
