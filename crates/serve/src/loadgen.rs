//! Open- and closed-loop load generation against a [`Server`].
//!
//! Both drivers are discrete-event: they own virtual time, the server
//! reacts. The **open loop** replays a seeded Poisson arrival trace from
//! [`hermes_datagen::arrivals`] — offered load is independent of service
//! times, so queues grow without bound past saturation (the honest way
//! to measure latency-vs-QPS, and the trace the `sim` queueing oracle
//! can predict). The **closed loop** models `users` clients that each
//! wait for their previous request (or its shed notice) plus a think
//! time before submitting again — throughput self-limits, the classic
//! interactive workload.
//!
//! Neither driver reads a clock; a whole run is reproducible from its
//! spec, which is what lets `scripts/verify.sh` assert served results
//! bit-identical to standalone engine execution.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use hermes_core::HermesError;
use hermes_datagen::arrivals::poisson_arrival_times_ns;

use crate::request::{Completion, Priority, Request, ShedRecord};
use crate::server::{Backend, ServeReport, Server};

/// Everything a finished load-generation run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The server's aggregate view (histograms, shed counts, busy time).
    pub serve: ServeReport,
    /// Every completion, in dispatch order, with per-request results.
    pub completions: Vec<Completion>,
    /// Every shed, exactly once per shed request.
    pub shed: Vec<ShedRecord>,
}

/// Open-loop traffic description.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Total requests to offer.
    pub requests: usize,
    /// Offered arrival rate, queries per second.
    pub rate_qps: f64,
    /// Seed of the Poisson arrival trace.
    pub seed: u64,
    /// Priority classes assigned round-robin by request index.
    pub priority_cycle: Vec<Priority>,
    /// Relative dispatch SLO: each request's deadline is
    /// `arrival + slo`. `None` = no deadlines.
    pub slo_ns: Option<u64>,
}

impl OpenLoopSpec {
    /// `requests` arrivals at `rate_qps`, all [`Priority::Standard`], no
    /// deadlines, seed 0.
    pub fn new(requests: usize, rate_qps: f64) -> Self {
        OpenLoopSpec {
            requests,
            rate_qps,
            seed: 0,
            priority_cycle: vec![Priority::Standard],
            slo_ns: None,
        }
    }

    /// Sets the arrival-trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the priority cycle (must be non-empty).
    pub fn with_priority_cycle(mut self, cycle: Vec<Priority>) -> Self {
        assert!(!cycle.is_empty(), "priority cycle must be non-empty");
        self.priority_cycle = cycle;
        self
    }

    /// Sets the relative dispatch SLO.
    pub fn with_slo_ns(mut self, slo_ns: u64) -> Self {
        self.slo_ns = Some(slo_ns);
        self
    }
}

/// Closed-loop traffic description.
#[derive(Debug, Clone)]
pub struct ClosedLoopSpec {
    /// Total requests to submit across all users.
    pub requests: usize,
    /// Concurrent clients.
    pub users: usize,
    /// Pause between a user's completion (or shed notice) and their next
    /// submission, nanoseconds.
    pub think_ns: u64,
    /// Priority classes assigned per user (`cycle[user % len]`), so each
    /// client keeps one SLO class for the whole run.
    pub priority_cycle: Vec<Priority>,
    /// Relative dispatch SLO, as in [`OpenLoopSpec::slo_ns`].
    pub slo_ns: Option<u64>,
}

impl ClosedLoopSpec {
    /// `requests` submissions from `users` clients, zero think time, all
    /// [`Priority::Standard`], no deadlines.
    pub fn new(requests: usize, users: usize) -> Self {
        ClosedLoopSpec {
            requests,
            users,
            think_ns: 0,
            priority_cycle: vec![Priority::Standard],
            slo_ns: None,
        }
    }

    /// Sets the think time.
    pub fn with_think_ns(mut self, think_ns: u64) -> Self {
        self.think_ns = think_ns;
        self
    }

    /// Sets the per-user priority cycle (must be non-empty).
    pub fn with_priority_cycle(mut self, cycle: Vec<Priority>) -> Self {
        assert!(!cycle.is_empty(), "priority cycle must be non-empty");
        self.priority_cycle = cycle;
        self
    }

    /// Sets the relative dispatch SLO.
    pub fn with_slo_ns(mut self, slo_ns: u64) -> Self {
        self.slo_ns = Some(slo_ns);
        self
    }
}

fn build_request(
    id: u64,
    queries: &[Vec<f32>],
    priority: Priority,
    arrival_ns: u64,
    slo_ns: Option<u64>,
) -> Request {
    let mut req = Request::new(
        id,
        queries[id as usize % queries.len()].clone(),
        priority,
        arrival_ns,
    );
    if let Some(slo) = slo_ns {
        req = req.with_deadline_ns(arrival_ns.saturating_add(slo));
    }
    req
}

/// Drives `server` with an open-loop Poisson stream over `queries`
/// (request `i` uses `queries[i % len]`), then drains it.
///
/// # Errors
///
/// Propagates the backend's first error.
///
/// # Panics
///
/// Panics if `queries` is empty or the spec has zero requests or a
/// non-positive rate.
pub fn run_open_loop<B: Backend>(
    server: &mut Server<B>,
    queries: &[Vec<f32>],
    spec: &OpenLoopSpec,
) -> Result<LoadReport, HermesError> {
    assert!(!queries.is_empty(), "need at least one query");
    let arrivals = poisson_arrival_times_ns(spec.rate_qps, spec.requests, spec.seed);
    let mut completions = Vec::with_capacity(spec.requests);
    let mut shed = Vec::new();
    for (i, &arrival) in arrivals.iter().enumerate() {
        server.run_until(arrival)?;
        let priority = spec.priority_cycle[i % spec.priority_cycle.len()];
        let _ = server.submit(build_request(
            i as u64,
            queries,
            priority,
            arrival,
            spec.slo_ns,
        ));
        completions.append(&mut server.take_completions());
        shed.append(&mut server.take_shed());
    }
    server.run_until(u64::MAX)?;
    completions.append(&mut server.take_completions());
    shed.append(&mut server.take_shed());
    Ok(LoadReport {
        serve: server.report(),
        completions,
        shed,
    })
}

/// Drives `server` with `spec.users` closed-loop clients: each submits,
/// waits for its completion or shed notice, thinks, and submits again
/// until `spec.requests` total submissions have been made; then the
/// queue drains.
///
/// The driver is an exact event loop: the earliest pending event — a
/// user submission or the server's next dispatch — is processed first,
/// with submissions winning ties so a dispatch starting at the same
/// instant can carry the new arrival.
///
/// # Errors
///
/// Propagates the backend's first error.
///
/// # Panics
///
/// Panics if `queries` is empty or the spec has zero requests or users.
pub fn run_closed_loop<B: Backend>(
    server: &mut Server<B>,
    queries: &[Vec<f32>],
    spec: &ClosedLoopSpec,
) -> Result<LoadReport, HermesError> {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(spec.requests > 0, "need at least one request");
    assert!(spec.users > 0, "need at least one user");

    // Min-heap of (wake time, user): every user is always either here or
    // waiting on an in-flight request in `owner`.
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> =
        (0..spec.users).map(|u| Reverse((0u64, u))).collect();
    let mut owner: HashMap<u64, usize> = HashMap::new();
    let mut submitted = 0usize;
    let mut completions = Vec::with_capacity(spec.requests);
    let mut shed = Vec::new();

    loop {
        let user_t = if submitted < spec.requests {
            ready.peek().map(|Reverse((t, _))| *t)
        } else {
            None
        };
        let dispatch_t = server.next_dispatch_start();
        match (user_t, dispatch_t) {
            (None, None) => break,
            (Some(_), None) | (Some(_), Some(_))
                if dispatch_t.is_none() || user_t <= dispatch_t =>
            {
                // Submission first on ties: a dispatch starting at this
                // instant may include the new arrival.
                let Reverse((t, u)) = ready.pop().expect("peeked above");
                let id = submitted as u64;
                let priority = spec.priority_cycle[u % spec.priority_cycle.len()];
                submitted += 1;
                match server.submit(build_request(id, queries, priority, t, spec.slo_ns)) {
                    Ok(()) => {
                        owner.insert(id, u);
                    }
                    Err(_notice) => {
                        // Shed at the door: the user saw the rejection,
                        // thinks, retries with a fresh request.
                        ready.push(Reverse((t + spec.think_ns.max(1), u)));
                    }
                }
            }
            _ => {
                if server.step()?.is_none() {
                    break;
                }
            }
        }
        for c in server.take_completions() {
            if let Some(u) = owner.remove(&c.request.id) {
                ready.push(Reverse((c.finish_ns + spec.think_ns, u)));
            }
            completions.push(c);
        }
        for s in server.take_shed() {
            if let Some(u) = owner.remove(&s.request.id) {
                // Expired in queue: the user learns at the would-be
                // dispatch time.
                ready.push(Reverse((s.at_ns + spec.think_ns, u)));
            }
            shed.push(s);
        }
    }
    server.run_until(u64::MAX)?;
    completions.append(&mut server.take_completions());
    shed.append(&mut server.take_shed());
    Ok(LoadReport {
        serve: server.report(),
        completions,
        shed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FixedServiceBackend, ServerConfig};

    fn queries() -> Vec<Vec<f32>> {
        (0..4).map(|i| vec![i as f32, 1.0]).collect()
    }

    fn server(service_ns: u64, capacity: usize, max_batch: usize) -> Server<FixedServiceBackend> {
        Server::new(
            FixedServiceBackend::new(service_ns),
            ServerConfig {
                queue_capacity: capacity,
                max_batch,
            },
        )
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let mut s = server(1_000, 16, 1);
        let spec = OpenLoopSpec::new(500, 500_000.0).with_seed(7);
        let report = run_open_loop(&mut s, &queries(), &spec).unwrap();
        assert_eq!(report.completions.len() + report.shed.len(), 500);
        assert_eq!(report.serve.completed, report.completions.len());
        // Offered load ρ = 500k qps × 1µs = 0.5: light queueing, nothing shed.
        assert!(report.shed.is_empty());
        assert!(report.serve.busy_fraction() > 0.3);
    }

    #[test]
    fn open_loop_is_deterministic() {
        let spec = OpenLoopSpec::new(300, 800_000.0).with_seed(3);
        let mut a = server(1_000, 8, 4);
        let mut b = server(1_000, 8, 4);
        let ra = run_open_loop(&mut a, &queries(), &spec).unwrap();
        let rb = run_open_loop(&mut b, &queries(), &spec).unwrap();
        assert_eq!(ra.completions, rb.completions);
        assert_eq!(ra.shed, rb.shed);
        assert_eq!(ra.serve.sojourn, rb.serve.sojourn);
    }

    #[test]
    fn open_loop_overload_sheds_instead_of_stalling() {
        // ρ = 2: the queue saturates; the bounded queue sheds the excess
        // and the run still terminates with every request accounted for.
        let mut s = server(1_000, 4, 1);
        let spec = OpenLoopSpec::new(400, 2_000_000.0).with_seed(9);
        let report = run_open_loop(&mut s, &queries(), &spec).unwrap();
        assert_eq!(report.completions.len() + report.shed.len(), 400);
        assert!(report.serve.shed_full > 0, "overload must shed");
        assert!(s.queue_len() == 0);
    }

    #[test]
    fn closed_loop_self_limits() {
        // 2 users, service 1000ns, zero think: steady state alternates
        // users; nothing is ever shed with capacity >= users.
        let mut s = server(1_000, 4, 1);
        let spec = ClosedLoopSpec::new(50, 2);
        let report = run_closed_loop(&mut s, &queries(), &spec).unwrap();
        assert_eq!(report.completions.len(), 50);
        assert!(report.shed.is_empty());
        // With 2 users and batch=1 the server never idles after warmup:
        // makespan ≈ 50 × 1000.
        assert_eq!(report.serve.makespan_ns, 50_000);
        assert!((report.serve.busy_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_think_time_creates_idle_gaps() {
        let mut s = server(1_000, 4, 1);
        let spec = ClosedLoopSpec::new(20, 1).with_think_ns(9_000);
        let report = run_closed_loop(&mut s, &queries(), &spec).unwrap();
        assert_eq!(report.completions.len(), 20);
        // One user, think 9µs, service 1µs: utilization ~10%.
        assert!(report.serve.busy_fraction() < 0.2);
        // Exact: completions at 1000, 11000, 21000, ...
        assert_eq!(report.completions[0].finish_ns, 1_000);
        assert_eq!(report.completions[1].finish_ns, 11_000);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let spec = ClosedLoopSpec::new(40, 3)
            .with_think_ns(500)
            .with_priority_cycle(vec![
                Priority::Interactive,
                Priority::Standard,
                Priority::Batch,
            ]);
        let mut a = server(700, 8, 2);
        let mut b = server(700, 8, 2);
        let ra = run_closed_loop(&mut a, &queries(), &spec).unwrap();
        let rb = run_closed_loop(&mut b, &queries(), &spec).unwrap();
        assert_eq!(ra.completions, rb.completions);
        assert_eq!(ra.shed, rb.shed);
    }

    #[test]
    fn closed_loop_slo_expiry_wakes_the_user() {
        // Users race for one server; with a tight SLO some queued
        // requests expire, but every submission is accounted for and the
        // run terminates.
        let mut s = server(10_000, 8, 1);
        let spec = ClosedLoopSpec::new(30, 4).with_slo_ns(5_000);
        let report = run_closed_loop(&mut s, &queries(), &spec).unwrap();
        assert_eq!(report.completions.len() + report.shed.len(), 30);
        assert!(report.serve.expired > 0, "tight SLO must expire requests");
        for rec in &report.shed {
            assert_eq!(rec.reason, hermes_obs::ShedCause::Expired);
        }
    }
}
