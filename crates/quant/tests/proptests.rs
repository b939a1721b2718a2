//! Property tests of the SQ8 integer upper bound ([`Sq8Bound`]) on
//! `hermes-testkit`: random quantizers, queries and codes — dimensions
//! 1..=100, constant (zero-scale) dimensions, all-0 and all-255 codes,
//! sparse queries and queries with one dominant component, magnitudes
//! from 1e-20 to 1e18 — against the three things a scan relies on: the
//! bound is never below the exact score, its integer part is the same
//! number at every dispatch level, and a block filtered by it admits
//! exactly what the block scored in full admits.

use std::cell::Cell;

use hermes_math::rng::{seeded_rng, SeededRng};
use hermes_math::{Mat, Metric, SimdLevel, TopK};
use hermes_quant::{Codec, CodecSpec, QueryScorer, Sq8Bound};
use hermes_testkit::prelude::*;

/// Dimensions every run visits: the benchmark's `--smoke` shape (24),
/// its full shape (64) and both sides of the kernel's 32-byte step.
const DIMS: [usize; 12] = [1, 2, 7, 24, 31, 32, 33, 63, 64, 65, 96, 100];
const CODES: usize = 48;

struct Case {
    codec: Codec,
    query: Vec<f32>,
    /// `CODES` codes: all-0, all-255, random ones, and one of those twice
    /// (a tie on score).
    codes: Vec<u8>,
    dim: usize,
}

fn case(seed: u64) -> Case {
    let mut rng = seeded_rng(seed);
    let dim = match rng.gen_range(0..3usize) {
        0 => rng.gen_range(1..101usize),
        _ => DIMS[rng.gen_range(0..DIMS.len())],
    };
    let magnitude = |rng: &mut SeededRng| 10f32.powi(rng.gen_range(-20..19i64) as i32);
    let (data_mag, query_mag) = (magnitude(&mut rng), magnitude(&mut rng));
    // Two training rows pin every dimension's `min` and `max`; one
    // dimension in five is constant, which trains to scale 0.
    let lo: Vec<f32> = (0..dim)
        .map(|_| (rng.next_f32() * 2.0 - 1.0) * data_mag)
        .collect();
    let hi: Vec<f32> = lo
        .iter()
        .map(|&lo| match rng.gen_range(0..5usize) {
            0 => lo,
            _ => lo + rng.next_f32() * data_mag,
        })
        .collect();
    let codec = Codec::train(CodecSpec::Sq8, &Mat::from_rows(&[lo, hi]), 0);
    // Dense, sparse, or all but one component four orders smaller.
    let shape = rng.gen_range(0..3usize);
    let dominant = rng.gen_range(0..dim);
    let query: Vec<f32> = (0..dim)
        .map(|d| {
            let x = (rng.next_f32() * 2.0 - 1.0) * query_mag;
            match shape {
                1 if rng.gen_range(0..2usize) == 0 => 0.0,
                2 if d != dominant => x * 1e-4,
                _ => x,
            }
        })
        .collect();
    let mut codes = vec![0u8; CODES * dim];
    rng.fill(&mut codes[2 * dim..]);
    codes[dim..2 * dim].fill(255);
    codes.copy_within(2 * dim..3 * dim, 3 * dim);
    Case {
        codec,
        query,
        codes,
        dim,
    }
}

/// The scorer's bound sums of `codes`, checked equal at every level.
fn sums(bound: &Sq8Bound, codes: &[u8], n: usize) -> Result<Vec<i32>, String> {
    let mut want = vec![0i32; n];
    bound.sums_at(SimdLevel::Scalar, &[codes], &mut want);
    for level in SimdLevel::available() {
        // Whole, and cut where a list boundary could fall.
        let stride = codes.len() / n;
        for cut in [0, 1, n / 3] {
            let mut got = vec![i32::MIN; n];
            let segments = [&codes[..cut * stride], &codes[cut * stride..]];
            bound.sums_at(level, &segments, &mut got);
            prop_assert!(got == want, "{level} cut at {cut}: {got:?} vs {want:?}");
        }
    }
    Ok(want)
}

/// Runs `property` on the inner-product and cosine scorers of random
/// cases, and requires that most of them had a bound to test.
fn for_bounded_scorers(
    name: &str,
    property: impl Fn(&Case, &QueryScorer<'_>, &Sq8Bound) -> Result<(), String>,
) {
    let (bounded, all) = (Cell::new(0u32), Cell::new(0u32));
    check(name, &u64_any(), |&seed| {
        let case = case(seed);
        for metric in [Metric::InnerProduct, Metric::Cosine] {
            let scorer = case.codec.query_scorer(&case.query, metric);
            all.set(all.get() + 1);
            // Absent only where a score could overflow (1e18 x 1e18 x
            // 100 dimensions) or the query is zero.
            if let Some(bound) = scorer.bound() {
                bounded.set(bounded.get() + 1);
                property(&case, &scorer, bound)?;
            }
        }
        Ok(())
    });
    assert!(
        bounded.get() * 4 >= all.get() * 3,
        "only {} of {} scorers had a bound",
        bounded.get(),
        all.get()
    );
}

#[test]
fn the_bound_is_never_below_the_score_and_its_sums_agree_at_every_level() {
    for_bounded_scorers("bound_dominates_score", |case, scorer, bound| {
        let sums = sums(bound, &case.codes, CODES)?;
        for (i, code) in case.codes.chunks_exact(case.dim).enumerate() {
            let (score, upper) = (scorer.score(code), bound.upper(sums[i]));
            prop_assert!(score.is_finite(), "a bounded scorer scored {score}");
            prop_assert!(
                upper >= f64::from(score),
                "d{} code {i}: bound {upper:e} below score {score:e}",
                case.dim
            );
        }
        Ok(())
    });
}

#[test]
fn a_floor_rules_out_only_codes_strictly_below_the_threshold() {
    for_bounded_scorers("floor_is_conservative", |case, scorer, bound| {
        let sums = sums(bound, &case.codes, CODES)?;
        let scores: Vec<f32> = case
            .codes
            .chunks_exact(case.dim)
            .map(|code| scorer.score(code))
            .collect();
        // Every score is a threshold (a tie), and its neighbours.
        let thresholds = scores
            .iter()
            .flat_map(|&s| [s, s.next_up(), s.next_down()])
            .chain([f32::INFINITY, f32::MAX, f32::MIN]);
        for threshold in thresholds {
            let Some(floor) = bound.floor(threshold) else {
                return Err(format!("no floor at threshold {threshold:e}"));
            };
            for (i, &score) in scores.iter().enumerate() {
                prop_assert!(
                    sums[i] >= floor || score < threshold,
                    "d{} code {i}: ruled out at {score:e} vs {threshold:e}",
                    case.dim
                );
            }
        }
        // Thresholds that rule nothing out.
        prop_assert_eq!(bound.floor(f32::NEG_INFINITY), None);
        prop_assert_eq!(bound.floor(f32::NAN), None);
        Ok(())
    });
}

#[test]
fn a_filtered_block_admits_exactly_what_the_full_block_admits() {
    for_bounded_scorers("filter_then_push_block", |case, scorer, bound| {
        let sums = sums(bound, &case.codes, CODES)?;
        let scores: Vec<f32> = case
            .codes
            .chunks_exact(case.dim)
            .map(|code| scorer.score(code))
            .collect();
        // Ids fall as rows go, so the later of two tied rows wins the tie.
        let ids: Vec<u64> = (0..CODES as u64).rev().collect();
        for k in [1usize, 10] {
            let (mut full, mut filtered) = (TopK::new(k), TopK::new(k));
            for block in (0..CODES).step_by(8).map(|at| at..at + 8) {
                full.push_block(&ids[block.clone()], &scores[block.clone()]);
                match bound.floor(filtered.threshold()) {
                    None => filtered.push_block(&ids[block.clone()], &scores[block]),
                    Some(floor) => {
                        let kept = block.filter(|&i| sums[i] >= floor);
                        let (ids, scores): (Vec<u64>, Vec<f32>) =
                            kept.map(|i| (ids[i], scores[i])).unzip();
                        filtered.push_block(&ids, &scores);
                    }
                }
                let bits = |top: &TopK| -> Vec<(u64, u32)> {
                    let hits = top.clone().into_sorted_vec();
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                prop_assert!(bits(&filtered) == bits(&full), "d{} k{k}", case.dim);
            }
        }
        Ok(())
    });
}

#[test]
fn only_finite_sq8_inner_product_scorers_have_a_bound() {
    let data = Mat::from_rows(&[vec![-1.0f32; 8], vec![1.0; 8], vec![0.25; 8]]);
    let query = [0.5f32, -0.25, 0.125, 1.0, -1.0, 0.75, 0.0, 0.3];
    for spec in [
        CodecSpec::Flat,
        CodecSpec::Sq8,
        CodecSpec::Sq4,
        CodecSpec::Pq { m: 2 },
    ] {
        let codec = Codec::train(spec, &data, 1);
        for metric in [Metric::InnerProduct, Metric::Cosine, Metric::L2] {
            let bounded = spec == CodecSpec::Sq8 && metric != Metric::L2;
            let scorer = codec.query_scorer(&query, metric);
            assert_eq!(scorer.bound().is_some(), bounded, "{spec} {metric}");
        }
    }
    let sq8 = Codec::train(CodecSpec::Sq8, &data, 1);
    let with = |at: usize, x: f32| {
        let mut q = query;
        q[at] = x;
        q
    };
    for hostile in [
        [0.0; 8],
        [f32::NAN; 8],
        with(3, f32::NAN),
        with(0, f32::INFINITY),
        with(7, f32::NEG_INFINITY),
        // Finite, but a score would overflow.
        [f32::MAX; 8],
        with(2, f32::MAX),
    ] {
        let scorer = sq8.query_scorer(&hostile, Metric::InnerProduct);
        assert!(scorer.bound().is_none(), "{hostile:?}");
    }
    // So does a quantizer whose decoded values overflow on their own.
    let wide = Mat::from_rows(&[vec![-f32::MAX; 8], vec![f32::MAX; 8]]);
    let codec = Codec::train(CodecSpec::Sq8, &wide, 1);
    assert!(codec
        .query_scorer(&query, Metric::InnerProduct)
        .bound()
        .is_none());
}
