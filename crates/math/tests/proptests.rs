//! Property-based tests for the math substrate, on `hermes-testkit`.

use hermes_math::stats::{linear_fit, OnlineStats};
use hermes_math::wire::{Reader, Writer};
use hermes_math::{Mat, Metric, Neighbor, TopK};
use hermes_testkit::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    f32_in(-1e6..1e6)
}

/// TopK agrees with sort-then-truncate for any input.
#[test]
fn topk_equals_sort_truncate() {
    let strat = tuple2(vec_of(finite_f32(), 1..200), usize_in(1..20));
    check("topk_equals_sort_truncate", &strat, |(scores, k)| {
        let mut top = TopK::new(*k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i as u64, s);
        }
        let got = top.into_sorted_vec();

        let mut all: Vec<Neighbor> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Neighbor::new(i as u64, s))
            .collect();
        all.sort();
        all.truncate(*k);
        prop_assert_eq!(got, all);
        Ok(())
    });
}

/// Similarity is symmetric for the symmetric metrics.
#[test]
fn l2_and_cosine_are_symmetric() {
    let strat = tuple2(vec_of(finite_f32(), 8..9), vec_of(finite_f32(), 8..9));
    check("l2_and_cosine_are_symmetric", &strat, |(a, b)| {
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let ab = metric.similarity(a, b);
            let ba = metric.similarity(b, a);
            prop_assert!((ab - ba).abs() <= 1e-3 * ab.abs().max(1.0), "{metric}");
        }
        Ok(())
    });
}

/// Self-similarity under L2 is maximal.
#[test]
fn l2_self_similarity_dominates() {
    let strat = tuple2(vec_of(finite_f32(), 6..7), vec_of(finite_f32(), 6..7));
    check("l2_self_similarity_dominates", &strat, |(a, b)| {
        prop_assert!(Metric::L2.similarity(a, a) >= Metric::L2.similarity(a, b));
        Ok(())
    });
}

/// Rotation followed by transpose recovers the input for orthonormal
/// matrices.
#[test]
fn orthonormal_rotation_is_invertible() {
    let strat = tuple2(
        vec_of(vec_of(f32_in(-1.0..1.0), 6..7), 6..7),
        vec_of(f32_in(-10.0..10.0), 6..7),
    );
    // Near-degenerate rows found by the old proptest run; keep it pinned.
    let regression = (
        vec![
            vec![
                -0.83440214,
                -0.3624748,
                0.41711116,
                0.75543004,
                -0.54768384,
                0.47014242,
            ],
            vec![
                0.0,
                -0.84116113,
                0.72943574,
                0.03454585,
                -0.5941334,
                0.9393982,
            ],
            vec![
                0.906539,
                0.9324757,
                -0.19172081,
                0.09651843,
                -0.6482588,
                0.1287739,
            ],
            vec![
                -0.23186162,
                -0.40684626,
                -0.12194871,
                0.5677976,
                -0.03420545,
                0.52390254,
            ],
            vec![
                0.81454706, 0.7872395, 0.9897278, 0.8538393, -0.1400392, 0.07080147,
            ],
            vec![
                -0.2554111,
                0.14306785,
                0.027532531,
                0.22620943,
                -0.84322053,
                0.33031172,
            ],
        ],
        vec![4.7791104, 0.0, 0.0, 0.0, 9.56704, 0.0],
    );
    check_with_regressions(
        "orthonormal_rotation_is_invertible",
        &Config::from_env(),
        &strat,
        &[regression],
        |(seed_rows, v)| {
            let mut m = Mat::from_rows(seed_rows);
            m.orthonormalize_rows();
            let back = m.transpose_vec(&m.mat_vec(v));
            for (x, y) in back.iter().zip(v) {
                // Gram-Schmidt on near-degenerate random rows loses a few
                // bits; allow a relative single-precision tolerance.
                prop_assert!((x - y).abs() < 1e-2 * y.abs().max(1.0), "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Wire round-trip is lossless for arbitrary payloads.
#[test]
fn wire_round_trips_arbitrary_payloads() {
    let strat = tuple3(
        vec_of(u64_any(), 0..64),
        tuple2(vec_of(finite_f32(), 0..32), vec_of(u64_any(), 0..32)),
        u64_any(),
    );
    check(
        "wire_round_trips_arbitrary_payloads",
        &strat,
        |(raw, (floats, ids), x)| {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let mut w = Writer::new();
            w.header("PROP", 1);
            w.u64(*x);
            w.bytes(&bytes);
            w.f32s(floats);
            w.u64s(ids);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            r.header("PROP", 1).unwrap();
            prop_assert_eq!(r.u64().unwrap(), *x);
            prop_assert_eq!(r.bytes().unwrap(), bytes);
            prop_assert_eq!(&r.f32s().unwrap(), floats);
            prop_assert_eq!(&r.u64s().unwrap(), ids);
            prop_assert!(r.is_exhausted());
            Ok(())
        },
    );
}

/// Truncating a valid wire buffer anywhere never panics — it errors.
#[test]
fn wire_truncation_never_panics() {
    let strat = tuple2(vec_of(finite_f32(), 1..32), f64_in(0.0..1.0));
    check(
        "wire_truncation_never_panics",
        &strat,
        |(floats, cut_frac)| {
            let mut w = Writer::new();
            w.f32s(floats);
            w.u64s(&[1, 2, 3]);
            let buf = w.finish();
            let cut = ((buf.len() as f64) * cut_frac) as usize;
            let mut r = Reader::new(&buf[..cut]);
            // Either both reads succeed (cut at the very end) or one errors.
            let _ = r.f32s().and_then(|_| r.u64s());
            Ok(())
        },
    );
}

/// OnlineStats matches naive two-pass computation.
#[test]
fn online_stats_matches_naive() {
    let strat = vec_of(f64_in(-1e3..1e3), 2..100);
    check("online_stats_matches_naive", &strat, |xs| {
        let mut s = OnlineStats::new();
        for &x in xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-5);
        Ok(())
    });
}

/// A perfect line always fits with r² = 1 regardless of slope.
#[test]
fn linear_fit_is_exact_on_lines() {
    let strat = tuple2(f64_in(-100.0..100.0), f64_in(-100.0..100.0));
    check(
        "linear_fit_is_exact_on_lines",
        &strat,
        |&(slope, intercept)| {
            let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            let (s, i, r2) = linear_fit(&xs, &ys).unwrap();
            prop_assert!((s - slope).abs() < 1e-6);
            prop_assert!((i - intercept).abs() < 1e-5);
            prop_assert!(r2 > 1.0 - 1e-9 || slope.abs() < 1e-12);
            Ok(())
        },
    );
}

/// Tier A for the segment kernels: for every code count `0..=70` (empty,
/// sub-tile, every ragged tail of one and two tiles, past a 64-code
/// block) cut at random into `1..=6` segments (empty and 1-code segments
/// included, so tiles straddle boundaries), dimension `1..=80`
/// (non-multiples of the 8-byte transpose chunk included), both metrics
/// and every runnable dispatch level, each SQ8 score is bit-identical to
/// the plain scalar walk — `acc + q[d] * (min[d] + code[d] * scale[d])`
/// folded over `d`, no tiling, no FMA — and each ADC score to the
/// in-order table walk.
#[test]
fn sq8_query_tiles_are_bit_identical_to_the_scalar_walk() {
    use hermes_math::block::{adc_block_at, sq8_ip_segments_at, sq8_l2_segments_at};
    use hermes_math::rng::seeded_rng;
    use hermes_math::simd::SimdLevel;

    let strat = tuple3(usize_in(1..81), usize_in(0..71), u64_any());
    let cfg = Config::from_env().with_cases(256);
    check_with(
        "sq8_query_tiles_are_bit_identical_to_the_scalar_walk",
        &cfg,
        &strat,
        |&(dim, n, seed)| {
            let mut rng = seeded_rng(seed);
            let query: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
            let mins: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 1.0).collect();
            // A zero scale is what a constant training dimension yields.
            let scales: Vec<f32> = (0..dim)
                .map(|d| {
                    if d % 7 == 3 {
                        0.0
                    } else {
                        rng.next_f32() / 64.0
                    }
                })
                .collect();
            let codes: Vec<u8> = (0..n * dim)
                .map(|_| (rng.next_u64() & 0xFF) as u8)
                .collect();
            // `dim` doubles as the ADC subspace count.
            let tables: Vec<f32> = (0..dim * 256).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let mut cuts: Vec<usize> = (0..rng.next_u64() % 6)
                .map(|_| (rng.next_u64() % (n as u64 + 1)) as usize)
                .collect();
            cuts.extend([0, n]);
            cuts.sort_unstable();
            let segments: Vec<&[u8]> = cuts
                .windows(2)
                .map(|w| &codes[w[0] * dim..w[1] * dim])
                .collect();
            let walk = |l2: bool, q: &[f32], code: &[u8]| -> f32 {
                let mut acc = 0.0f32;
                for d in 0..dim {
                    let val = mins[d] + code[d] as f32 * scales[d];
                    if l2 {
                        let diff = q[d] - val;
                        acc += diff * diff;
                    } else {
                        acc += q[d] * val;
                    }
                }
                if l2 {
                    -acc
                } else {
                    acc
                }
            };
            for level in SimdLevel::available() {
                let mut got = vec![f32::NAN; n];
                for l2 in [false, true] {
                    if l2 {
                        sq8_l2_segments_at(level, &query, &mins, &scales, &segments, &mut got);
                    } else {
                        sq8_ip_segments_at(level, &query, &mins, &scales, &segments, &mut got);
                    }
                    for i in 0..n {
                        let want = walk(l2, &query, &codes[i * dim..(i + 1) * dim]);
                        prop_assert!(
                            got[i].to_bits() == want.to_bits(),
                            "{} l2={} dim {} n {} cuts {:?} code {}: {:e} vs {:e}",
                            level,
                            l2,
                            dim,
                            n,
                            cuts,
                            i,
                            got[i],
                            want
                        );
                    }
                }
                let mut got = vec![f32::NAN; n];
                adc_block_at(level, &tables, dim, &segments, &mut got);
                for (i, g) in got.iter().enumerate() {
                    let mut want = 0.0f32;
                    for (sub, &c) in codes[i * dim..(i + 1) * dim].iter().enumerate() {
                        want += tables[sub * 256 + c as usize];
                    }
                    prop_assert!(
                        g.to_bits() == want.to_bits(),
                        "{} adc m {} n {} cuts {:?} code {}: {:e} vs {:e}",
                        level,
                        dim,
                        n,
                        cuts,
                        i,
                        g,
                        want
                    );
                }
            }
            Ok(())
        },
    );
}
