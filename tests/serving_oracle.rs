//! Verifies the serving layer against the `hermes_sim` queueing oracle.
//!
//! Both sides consume the *same* seeded Poisson arrival trace from
//! [`hermes_datagen::arrivals`]: the server is driven with the
//! nanosecond rendering ([`poisson_arrival_times_ns`]), the simulator
//! with the seconds trace ([`poisson_arrival_times_s`]). With
//! `max_batch = 1` and a deterministic service time the server *is* the
//! D/1 recurrence `done = max(arrival, prev_done) + s` that
//! [`simulate_queue_on_arrivals`] computes, so the comparison is
//! near-exact — the only divergence is the one-time rounding of each
//! arrival to integer nanoseconds.
//!
//! Tolerances (rationale in `EXPERIMENTS.md`, "Serving oracle"):
//! - per-request sojourn: ≤ 2 ns (arrival rounding ≤ 0.5 ns propagates
//!   through `max(·)` without accumulating; f64 error is ≪ 1 ns);
//! - busy fraction / exact percentiles: ≤ 1e-6 relative;
//! - `LogHistogram` percentiles: within 2× of truth (log2 bucket floors);
//! - measured utilization vs offered ρ: ≤ 0.05 absolute (finite trace).
//!
//! The `TestClock` variant closes the loop on real execution: with
//! telemetry disabled the engine makes **zero** clock reads, so an
//! auto-advancing [`TestClock`] makes [`EngineBackend`]'s service
//! measurement exactly `step` ns per dispatch — a real engine serving
//! real queries, timed deterministically, matching the oracle.

use std::sync::{Arc, Mutex, MutexGuard};

use hermes::datagen::{poisson_arrival_times_ns, poisson_arrival_times_s};
use hermes::math::stats::percentiles;
use hermes::obs::ShedCause;
use hermes::prelude::*;
use hermes::serve::{run_open_loop, Completion, FixedServiceBackend, OpenLoopSpec};
use hermes::sim::simulate_queue_on_arrivals;
use hermes::trace::clock::TestClock;

/// Clock installation is process-global; tests that install one hold
/// this lock and restore the default on drop (even under panic).
static CLOCK_LOCK: Mutex<()> = Mutex::new(());

struct ClockGuard<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl<'a> ClockGuard<'a> {
    fn install(clock: Arc<dyn hermes::trace::clock::Clock>) -> Self {
        let guard = CLOCK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        hermes::trace::clock::install_clock(clock);
        ClockGuard(guard)
    }
}

impl Drop for ClockGuard<'_> {
    fn drop(&mut self) {
        hermes::trace::clock::reset_clock();
    }
}

fn fixed_server(service_ns: u64, capacity: usize) -> Server<FixedServiceBackend> {
    Server::new(
        FixedServiceBackend::new(service_ns),
        ServerConfig {
            queue_capacity: capacity,
            max_batch: 1,
        },
    )
}

/// Completions in arrival (= id) order; single-class FIFO dispatch means
/// they already are, which this asserts.
fn sojourns_ns_in_arrival_order(completions: &[Completion]) -> Vec<u64> {
    for (i, c) in completions.iter().enumerate() {
        assert_eq!(c.request.id, i as u64, "FIFO dispatch order broken");
    }
    completions.iter().map(|c| c.sojourn_ns()).collect()
}

fn assert_close_rel(got: f64, want: f64, rel: f64, what: &str) {
    let denom = want.abs().max(1e-12);
    assert!(
        ((got - want) / denom).abs() <= rel,
        "{what}: got {got}, oracle says {want}"
    );
}

#[test]
fn fixed_service_server_matches_sim_trace_per_request() {
    // ρ = 0.7: real queueing, stable queue.
    let service_ns = 1_000_000u64; // 1 ms
    let service_s = service_ns as f64 * 1e-9;
    let rate_qps = 700.0;
    let n = 5_000;
    let seed = 42;

    let mut server = fixed_server(service_ns, usize::MAX >> 1);
    let spec = OpenLoopSpec::new(n, rate_qps).with_seed(seed);
    let report = run_open_loop(&mut server, &[vec![0.0]], &spec).unwrap();
    assert_eq!(report.completions.len(), n, "nothing may shed at ρ=0.7");

    let oracle = simulate_queue_on_arrivals(&poisson_arrival_times_s(rate_qps, n, seed), service_s);

    // Per-request sojourns match to within arrival-rounding (≤ 2 ns on
    // millisecond-scale sojourns).
    let measured = sojourns_ns_in_arrival_order(&report.completions);
    for (i, (&got_ns, &want_s)) in measured.iter().zip(&oracle.sojourns).enumerate() {
        let want_ns = want_s * 1e9;
        assert!(
            (got_ns as f64 - want_ns).abs() <= 2.0,
            "request {i}: sojourn {got_ns} ns vs oracle {want_ns} ns"
        );
    }

    // Aggregates: busy fraction and exact percentiles to 1e-6 relative.
    assert_close_rel(
        report.serve.busy_fraction(),
        oracle.busy_fraction,
        1e-6,
        "busy fraction",
    );
    let got_s: Vec<f64> = measured.iter().map(|&ns| ns as f64 * 1e-9).collect();
    let got_pct = percentiles(&got_s).unwrap();
    let want_pct = oracle.sojourn_percentiles();
    assert_close_rel(got_pct.p50, want_pct.p50, 1e-6, "p50");
    assert_close_rel(got_pct.p95, want_pct.p95, 1e-6, "p95");
    assert_close_rel(got_pct.p99, want_pct.p99, 1e-6, "p99");

    // The server's LogHistogram percentiles sit within the documented
    // 2× bucket-floor band of the oracle's exact values.
    for (hist_ns, exact_s, what) in [
        (report.serve.sojourn.p50(), want_pct.p50, "hist p50"),
        (report.serve.sojourn.p99(), want_pct.p99, "hist p99"),
    ] {
        let exact_ns = exact_s * 1e9;
        assert!(
            (hist_ns as f64) <= exact_ns * 2.0 && exact_ns <= (hist_ns as f64) * 2.0,
            "{what}: bucket floor {hist_ns} vs exact {exact_ns}"
        );
    }

    // Delay accounting: a request waited iff the oracle says it did
    // (boundary cases within rounding can flip; allow a sliver).
    let got_delayed = report
        .completions
        .iter()
        .filter(|c| c.wait_ns() > 0)
        .count() as f64
        / n as f64;
    assert!(
        (got_delayed - oracle.delayed_fraction).abs() <= 1e-3,
        "delayed fraction {got_delayed} vs oracle {}",
        oracle.delayed_fraction
    );
}

#[test]
fn measured_utilization_tracks_offered_load() {
    let service_ns = 500_000u64;
    let service_s = service_ns as f64 * 1e-9;
    let n = 20_000;
    for (seed, rho) in [(1u64, 0.3f64), (2, 0.6), (3, 0.9)] {
        let rate_qps = rho / service_s;
        let mut server = fixed_server(service_ns, usize::MAX >> 1);
        let report = run_open_loop(
            &mut server,
            &[vec![0.0]],
            &OpenLoopSpec::new(n, rate_qps).with_seed(seed),
        )
        .unwrap();
        let oracle =
            simulate_queue_on_arrivals(&poisson_arrival_times_s(rate_qps, n, seed), service_s);
        // Server and oracle agree with each other near-exactly...
        assert_close_rel(
            report.serve.busy_fraction(),
            oracle.busy_fraction,
            1e-6,
            "busy fraction",
        );
        // ...and both sit near the offered load on a finite trace.
        assert!(
            (report.serve.busy_fraction() - rho).abs() <= 0.05,
            "utilization {} vs offered ρ={rho}",
            report.serve.busy_fraction()
        );
    }
}

#[test]
fn engine_backend_under_test_clock_matches_sim_oracle() {
    // An auto-advancing TestClock pins EngineBackend's three clock
    // reads per dispatch (start, the route/deep phase boundary, end) to
    // exactly `step` apart, so the service time is exactly 2×step —
    // telemetry is off, so the engine itself reads the clock zero
    // times. Real queries, real results, deterministic service time.
    let step_ns = 250_000u64;
    let service_ns = 2 * step_ns; // 0.5 ms deterministic "service time"
    let service_s = service_ns as f64 * 1e-9;
    let rate_qps = 0.6 / service_s; // ρ = 0.6
    let n = 600;
    let seed = 7;

    assert!(
        !hermes::trace::is_enabled(),
        "oracle requires telemetry disabled (zero engine clock reads)"
    );
    let _guard = ClockGuard::install(Arc::new(TestClock::new(0, step_ns)));

    let corpus = Corpus::generate(CorpusSpec::new(1_500, 16, 5).with_seed(31));
    let config = HermesConfig::new(5)
        .with_clusters_to_search(2)
        .with_seed(32);
    let store = ClusteredStore::build(corpus.embeddings(), &config).unwrap();
    let queries = QuerySet::generate(&corpus, QuerySpec::new(8).with_seed(33)).to_vecs();

    let mut server = Server::new(
        EngineBackend::new(hermes::core::exec::Engine::for_store(&store), 1),
        ServerConfig {
            queue_capacity: usize::MAX >> 1,
            max_batch: 1,
        },
    );
    let spec = OpenLoopSpec::new(n, rate_qps).with_seed(seed);
    let report = run_open_loop(&mut server, &queries, &spec).unwrap();
    assert_eq!(report.completions.len(), n);

    // Every dispatch was charged exactly two clock steps (one per
    // bracketed phase: route, then deep).
    for c in &report.completions {
        assert_eq!(c.finish_ns - c.start_ns, service_ns, "service time drifted");
    }

    // The measured queueing behaviour matches the oracle on the same
    // arrival trace with deterministic service `step`.
    let oracle = simulate_queue_on_arrivals(&poisson_arrival_times_s(rate_qps, n, seed), service_s);
    let measured = sojourns_ns_in_arrival_order(&report.completions);
    for (i, (&got_ns, &want_s)) in measured.iter().zip(&oracle.sojourns).enumerate() {
        assert!(
            (got_ns as f64 - want_s * 1e9).abs() <= 2.0,
            "request {i}: sojourn {got_ns} ns vs oracle {} ns",
            want_s * 1e9
        );
    }
    assert_close_rel(
        report.serve.busy_fraction(),
        oracle.busy_fraction,
        1e-6,
        "busy fraction",
    );

    // And the results are still bit-identical to standalone execution —
    // the oracle run is a real serving run, not a synthetic one.
    let engine = hermes::core::exec::Engine::for_store(&store);
    for c in &report.completions {
        let want = engine.execute(&c.request.query).unwrap();
        assert_eq!(c.outcome.as_ref(), Some(&want));
    }
}

#[test]
fn arrival_traces_agree_between_server_and_oracle_renderings() {
    // The ns trace the server consumes is the rounded seconds trace the
    // oracle consumes — same generator, same seed, ≤ 0.5 ns apart each.
    let (rate, n, seed) = (1_234.5, 2_000, 99);
    let ns = poisson_arrival_times_ns(rate, n, seed);
    let s = poisson_arrival_times_s(rate, n, seed);
    assert_eq!(ns.len(), s.len());
    for (a_ns, a_s) in ns.iter().zip(&s) {
        assert!((*a_ns as f64 - a_s * 1e9).abs() <= 0.5 + 1e-6);
    }
}

#[test]
fn overload_rejects_at_admission_and_accounts_for_everything() {
    // ρ = 2 against a 4-deep queue: the server degrades by shedding at
    // the door, never by stalling or dropping silently.
    let service_ns = 1_000_000u64;
    let n = 1_000;
    let mut server = fixed_server(service_ns, 4);
    let spec = OpenLoopSpec::new(n, 2_000.0).with_seed(13);
    let report = run_open_loop(&mut server, &[vec![0.0]], &spec).unwrap();

    assert!(report.serve.shed_full > 0, "overload must shed");
    assert_eq!(report.completions.len() + report.shed.len(), n);
    assert_eq!(report.serve.completed + report.serve.shed_full, n);
    for rec in &report.shed {
        assert_eq!(rec.reason, ShedCause::QueueFull);
        assert_eq!(
            rec.at_ns, rec.request.arrival_ns,
            "shedding must be immediate"
        );
    }
    // Shed exactly once, and never also completed.
    let mut shed_ids: Vec<u64> = report.shed.iter().map(|r| r.request.id).collect();
    shed_ids.sort_unstable();
    shed_ids.dedup();
    assert_eq!(shed_ids.len(), report.shed.len(), "duplicate shed record");
    for c in &report.completions {
        assert!(!shed_ids.contains(&c.request.id), "shed request completed");
    }
}

#[test]
fn expired_requests_are_counted_and_never_dispatched() {
    // ρ = 0.9 with an SLO of 2 service times: queue waits regularly
    // exceed the deadline, so expiries must occur — and an expired
    // request must never reach the backend.
    let service_ns = 1_000_000u64;
    let n = 2_000;
    let mut server = fixed_server(service_ns, usize::MAX >> 1);
    let spec = OpenLoopSpec::new(n, 900.0)
        .with_seed(21)
        .with_slo_ns(2 * service_ns);
    let report = run_open_loop(&mut server, &[vec![0.0]], &spec).unwrap();

    assert!(report.serve.expired > 0, "tight SLO at ρ=0.9 must expire");
    assert_eq!(report.completions.len() + report.shed.len(), n);
    assert_eq!(
        report.serve.completed + report.serve.expired + report.serve.shed_full,
        n
    );
    for rec in &report.shed {
        assert_eq!(rec.reason, ShedCause::Expired);
        let deadline = rec.request.deadline_ns.unwrap();
        assert!(
            rec.at_ns > deadline,
            "expiry recorded before the deadline passed"
        );
    }
    // Every completed request was dispatched within its deadline.
    for c in &report.completions {
        assert!(c.start_ns <= c.request.deadline_ns.unwrap());
    }
}
