//! The benchmark's estimators: exact order statistics, quiet replay,
//! fastest-k pass pooling and min-of-interleaved-builds.
//!
//! Machine noise on a shared box is one-sided — a noisy neighbour only
//! ever *slows* work down — and a run replays one identical seeded trace
//! several times. So the estimators take, for every piece of the trace,
//! the fastest of its replays ([`quiet`]) instead of averaging the noise
//! in: per request for latency, per block of operations for throughput,
//! per build for set-up. The finer the piece, the more likely one of its
//! replays ran undisturbed. Every pass time is still printed, so the
//! noise stays visible next to the number it was filtered from.

/// How many of a traced run's passes are pooled into per-layer metrics.
pub const POOLED_PASSES: usize = 3;

/// Quiet replay: the pointwise minimum over `replays` — element `j` of
/// the result is the smallest `replays[p][j]` over all passes `p` that
/// have an element `j` other than `missing`. Positions no replay filled
/// stay `missing`.
pub fn quiet(replays: &[&[u64]], missing: u64) -> Vec<u64> {
    let len = replays.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|j| {
            replays
                .iter()
                .filter_map(|r| r.get(j).copied().filter(|&v| v != missing))
                .min()
                .unwrap_or(missing)
        })
        .collect()
}

/// Exact `q`-quantile (nearest rank, `q` in `[0, 1]`) of `values`.
/// Sorts in place; `None` on an empty slice. Unlike the serving layer's
/// log2 `LogHistogram`, the answer is an actual sample, so a 10% shift
/// in the system moves it.
pub fn percentile(values: &mut [u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Indices of the `k` smallest wall times, fastest first (ties broken by
/// pass order, so selection is deterministic).
pub fn fastest(walls_ns: &[u64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls_ns.len()).collect();
    order.sort_by_key(|&i| (walls_ns[i], i));
    order.truncate(k);
    order
}

/// `setup_s` estimator: the minimum of the builds interleaved through
/// the run (before pass 0, at one third, at two thirds).
pub fn min_build_s(builds_s: &[f64]) -> f64 {
    builds_s.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the
/// benchmark driver computes spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// Wall nanoseconds of `f`.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Median wall nanoseconds of `reps` calls of `f` (each call timed on
/// its own) — the estimator of every micro-probe.
pub fn median_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<u64> = (0..reps).map(|i| time_ns(|| f(i)).1).collect();
    percentile(&mut samples, 0.5).unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_known_vectors() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        let mut odd = vec![30, 10, 20];
        assert_eq!(percentile(&mut odd, 0.5), Some(20));
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // Not a bucket floor: 1000 and 1023 share a log2 bucket.
        let mut close = vec![1000, 1023, 1023, 1023];
        assert_eq!(percentile(&mut close, 0.25), Some(1000));
        assert_eq!(percentile(&mut close, 0.5), Some(1023));
    }

    #[test]
    fn quiet_replay_takes_each_position_from_its_fastest_pass() {
        const X: u64 = u64::MAX;
        let a = [500, 900, X, 410, 77];
        let b = [520, 400, X, X, 70];
        let c = [480, 950, X, 430];
        assert_eq!(quiet(&[&a, &b, &c], X), vec![480, 400, X, 410, 70]);
        assert_eq!(quiet(&[&a], X), a.to_vec());
        assert_eq!(quiet(&[], X), Vec::<u64>::new());
        // A stall that hits a different request in every pass vanishes:
        // no single pass is clean, the quiet replay is.
        let stalled: Vec<Vec<u64>> = (0..4)
            .map(|p| {
                (0..4)
                    .map(|j| if j == p { 9_000 } else { 100 + j as u64 })
                    .collect()
            })
            .collect();
        let views: Vec<&[u64]> = stalled.iter().map(Vec::as_slice).collect();
        assert_eq!(quiet(&views, X), vec![100, 101, 102, 103]);
    }

    #[test]
    fn fastest_selects_the_quiet_passes() {
        let walls = [900, 500, 700, 500, 2000, 600];
        assert_eq!(fastest(&walls, 3), vec![1, 3, 5]);
        assert_eq!(fastest(&walls, 10).len(), 6);
        assert_eq!(fastest(&[], 3), Vec::<usize>::new());
    }

    #[test]
    fn setup_is_the_min_of_interleaved_builds() {
        assert_eq!(min_build_s(&[1.93, 1.88, 2.41]), 1.88);
        assert_eq!(min_build_s(&[2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert_eq!(median(&[16.0, 1.0, 8.0, 2.0, 4.0]), 4.0);
    }
}
