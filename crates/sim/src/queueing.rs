//! Open-loop load simulation: Poisson batch arrivals against the
//! retrieval service time, yielding tail latencies.
//!
//! The paper's Takeaway 2 motivates Hermes with TTFT *quality of
//! service*: "variations and imbalances in the TTFT can adversely affect
//! the quality of service". A fixed service time only shows the mean;
//! under load, queueing inflates the tail. This module runs a
//! deterministic single-server queue (arrivals seeded, service time from
//! the retrieval cost model) and reports waiting + service percentiles.
//!
//! Arrival streams come from [`hermes_datagen::arrivals`], the same
//! generator the serving layer's load generator uses — so
//! `tests/serving_oracle.rs` can drive `hermes-serve` and this model
//! with bit-identical traces and compare the results directly. The
//! trace-level entry point is [`simulate_queue_on_arrivals`]; the
//! seeded Poisson wrappers [`simulate_md1`] / [`simulate_md1_trace`]
//! build on it.

use hermes_datagen::arrivals::poisson_arrival_times_s;
use hermes_math::stats::{percentiles, Percentiles};

/// Result of a queueing run.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Offered load: arrival rate × service time (ρ). Stable only < 1.
    pub utilization: f64,
    /// Sojourn-time percentiles (wait + service), seconds.
    pub sojourn: Percentiles,
    /// Fraction of batches that waited at all.
    pub delayed_fraction: f64,
}

/// Per-request output of a queueing run — everything [`QueueReport`]
/// aggregates, before aggregation. The serving-oracle test compares the
/// server's measured behaviour against these exact values.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueTrace {
    /// Sojourn time (wait + service) of each request, in arrival order,
    /// seconds.
    pub sojourns: Vec<f64>,
    /// Measured busy fraction: total service time over the span from
    /// time 0 to the last departure. Approaches offered ρ as the run
    /// lengthens (when ρ < 1).
    pub busy_fraction: f64,
    /// Fraction of requests that waited at all.
    pub delayed_fraction: f64,
    /// Departure time of the last request, seconds.
    pub makespan_s: f64,
}

impl QueueTrace {
    /// Sojourn percentiles over the whole trace.
    pub fn sojourn_percentiles(&self) -> Percentiles {
        percentiles(&self.sojourns).expect("trace is non-empty")
    }
}

/// Runs a single FIFO server with deterministic `service_s` per request
/// over an explicit, non-decreasing arrival-time trace (seconds).
///
/// This is the D/1 half of M/D/1 with the arrival process factored out:
/// feed it [`poisson_arrival_times_s`] and it *is* `simulate_md1`; feed
/// it the trace a server was driven with and it predicts what that
/// server should have measured.
///
/// # Panics
///
/// Panics if `service_s` is not positive or `arrivals_s` is empty.
pub fn simulate_queue_on_arrivals(arrivals_s: &[f64], service_s: f64) -> QueueTrace {
    assert!(service_s > 0.0, "service time must be positive");
    assert!(!arrivals_s.is_empty(), "need at least one arrival");

    let mut server_free_at = 0.0f64;
    let mut sojourns = Vec::with_capacity(arrivals_s.len());
    let mut delayed = 0usize;
    for &arrival in arrivals_s {
        let start = arrival.max(server_free_at);
        if start > arrival {
            delayed += 1;
        }
        let done = start + service_s;
        server_free_at = done;
        sojourns.push(done - arrival);
    }
    let busy = arrivals_s.len() as f64 * service_s;
    QueueTrace {
        sojourns,
        busy_fraction: busy / server_free_at,
        delayed_fraction: delayed as f64 / arrivals_s.len() as f64,
        makespan_s: server_free_at,
    }
}

/// [`simulate_md1`] with per-request resolution: seeded Poisson arrivals
/// at `rate_per_s` through [`simulate_queue_on_arrivals`].
///
/// # Panics
///
/// Panics if `service_s` or `rate_per_s` is not positive or
/// `num_batches` is zero.
pub fn simulate_md1_trace(
    rate_per_s: f64,
    service_s: f64,
    num_batches: usize,
    seed: u64,
) -> QueueTrace {
    let arrivals = poisson_arrival_times_s(rate_per_s, num_batches, seed);
    simulate_queue_on_arrivals(&arrivals, service_s)
}

/// Simulates `num_batches` Poisson batch arrivals at `rate_per_s` against
/// a deterministic `service_s` per batch (M/D/1), seeded for
/// reproducibility.
///
/// # Panics
///
/// Panics if `service_s` or `rate_per_s` is not positive or
/// `num_batches` is zero.
///
/// # Examples
///
/// ```
/// use hermes_sim::queueing::simulate_md1;
/// // Light load: hardly any queueing above the service time.
/// let light = simulate_md1(0.1, 1.0, 2_000, 7);
/// assert!(light.sojourn.p50 < 1.5);
/// // Heavy load: the tail inflates.
/// let heavy = simulate_md1(0.9, 1.0, 2_000, 7);
/// assert!(heavy.sojourn.p99 > light.sojourn.p99);
/// ```
pub fn simulate_md1(rate_per_s: f64, service_s: f64, num_batches: usize, seed: u64) -> QueueReport {
    let trace = simulate_md1_trace(rate_per_s, service_s, num_batches, seed);
    QueueReport {
        utilization: rate_per_s * service_s,
        sojourn: trace.sojourn_percentiles(),
        delayed_fraction: trace.delayed_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sojourn_never_below_service_time() {
        let r = simulate_md1(0.5, 2.0, 1_000, 1);
        assert!(r.sojourn.p50 >= 2.0 - 1e-9);
    }

    #[test]
    fn tail_grows_with_utilization() {
        let lo = simulate_md1(0.2, 1.0, 5_000, 2);
        let mid = simulate_md1(0.6, 1.0, 5_000, 2);
        let hi = simulate_md1(0.9, 1.0, 5_000, 2);
        assert!(lo.sojourn.p99 <= mid.sojourn.p99);
        assert!(mid.sojourn.p99 < hi.sojourn.p99);
        assert!(lo.delayed_fraction < hi.delayed_fraction);
    }

    #[test]
    fn md1_mean_wait_tracks_pollaczek_khinchine() {
        // M/D/1 mean wait = ρ·s / (2(1-ρ)); check within sampling noise.
        let rho = 0.7;
        let s = 1.0;
        let r = simulate_md1(rho / s, s, 200_000, 3);
        let expected_sojourn = s + rho * s / (2.0 * (1.0 - rho));
        // Percentiles give p50; compare p50 of an M/D/1 loosely via the
        // mean bound: p50 <= mean*2 and >= service.
        assert!(r.sojourn.p50 >= s);
        assert!(
            r.sojourn.p50 < expected_sojourn * 2.0,
            "p50 {} vs bound {}",
            r.sojourn.p50,
            expected_sojourn * 2.0
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = simulate_md1(0.5, 1.0, 100, 9);
        let b = simulate_md1(0.5, 1.0, 100, 9);
        assert_eq!(a.sojourn, b.sojourn);
    }

    #[test]
    fn trace_aggregates_match_report() {
        let trace = simulate_md1_trace(0.6, 1.0, 2_000, 5);
        let report = simulate_md1(0.6, 1.0, 2_000, 5);
        assert_eq!(trace.sojourn_percentiles(), report.sojourn);
        assert_eq!(trace.delayed_fraction, report.delayed_fraction);
        assert_eq!(trace.sojourns.len(), 2_000);
    }

    #[test]
    fn busy_fraction_approaches_offered_load() {
        let trace = simulate_md1_trace(0.5, 1.0, 50_000, 8);
        assert!(
            (trace.busy_fraction - 0.5).abs() < 0.02,
            "busy fraction {} vs offered 0.5",
            trace.busy_fraction
        );
    }

    #[test]
    fn explicit_arrivals_idle_server_has_pure_service_sojourns() {
        // Arrivals spaced wider than the service time never queue.
        let arrivals = [1.0, 3.0, 5.0, 7.0];
        let trace = simulate_queue_on_arrivals(&arrivals, 1.5);
        assert!(trace.sojourns.iter().all(|&s| (s - 1.5).abs() < 1e-12));
        assert_eq!(trace.delayed_fraction, 0.0);
        assert!((trace.makespan_s - 8.5).abs() < 1e-12);
    }

    #[test]
    fn explicit_arrivals_back_to_back_queueing_is_exact() {
        // All arrive at t=0.1: sojourns are 0.9, 1.9, 2.9 (service 1.0).
        let arrivals = [0.1, 0.1, 0.1];
        let trace = simulate_queue_on_arrivals(&arrivals, 1.0);
        let expect = [1.0, 2.0, 3.0];
        for (s, e) in trace.sojourns.iter().zip(&expect) {
            assert!((s - e).abs() < 1e-12, "{s} vs {e}");
        }
        assert!((trace.delayed_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = simulate_md1(0.0, 1.0, 10, 1);
    }
}
