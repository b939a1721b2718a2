//! The discrete-event serving loop — admission → dynamic batch →
//! dispatch — and the one function every real backend dispatches through.
//!
//! The server is a *virtual-time machine*: it never reads a wall clock.
//! Drivers (the load generators, the CLI, the oracle tests) own time —
//! they call [`Server::run_until`] to let the server advance through the
//! dispatches that fall before an instant, then [`Server::submit`] the
//! next arrival. Dispatch timing is pure arithmetic over `free_at_ns`
//! and arrival times, so a run is exactly reproducible and — with a
//! fixed-service backend and `max_batch = 1` — *is* the
//! `hermes_sim::queueing` M/D/1 recurrence, which is what
//! `tests/serving_oracle.rs` exploits.
//!
//! Only a [`Backend`] touches clocks, and the real ones
//! ([`EngineBackend`], [`GenerationBackend`](crate::GenerationBackend),
//! [`CachedBackend`](crate::CachedBackend)) all do it in `dispatch`:
//! exact probe → [`Engine::route_batch`] → semantic probe →
//! [`Engine::deep_batch`] → insert, the probes and the insert only with a
//! cache, one [`hermes_trace::now_ns`] read per phase boundary (three
//! without a cache; deterministic under an installed
//! [`hermes_trace::clock::TestClock`]). Each backend's `run` only
//! resolves what to dispatch against — a borrowed store, the published
//! generation, the cache guard — and forwards.
//!
//! Results are never affected by scheduling: every completed request
//! carries the exact [`SearchOutcome`] [`Engine::execute`] returns for
//! its query, because the engine's batch stages answer each query as if
//! it were alone.

use hermes_cache::SemanticCache;
use hermes_core::exec::Engine;
use hermes_core::search::SearchOutcome;
use hermes_core::HermesError;
use hermes_obs::{CachePath, Observer, Phase, PhaseNs, RequestId, RequestTimeline, ShedCause};
use hermes_trace::hist::LogHistogram;
use hermes_trace::names;

use crate::batch::coalesce_groups;
use crate::queue::AdmissionQueue;
use crate::request::{Completion, Request, ShedReason, ShedRecord};

/// Executes one dispatched batch and reports how long it took.
pub trait Backend {
    /// Runs `batch` (non-empty, priority-FIFO order). Returns per-request
    /// outcomes aligned with `batch` (may be empty for synthetic
    /// backends) and the service time to charge the server for the whole
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates engine failures; the server aborts the run.
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError>;
}

/// What one dispatch produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-request search results, aligned with the dispatched batch;
    /// empty when the backend executes nothing (queue-model backends).
    pub outcomes: Vec<SearchOutcome>,
    /// Service time charged for the batch, nanoseconds.
    pub service_ns: u64,
    /// Distinct clusters the batch touched (0 when unknown).
    pub distinct_clusters: usize,
    /// Shard visits saved by coalescing (0 when unknown).
    pub shared_visits: usize,
    /// How the service time splits into named phases (cache probe,
    /// route, deep scatter). Phase sums never exceed `service_ns`;
    /// whatever the backend leaves unattributed lands in
    /// [`hermes_obs::Phase::Residual`] when timelines are built.
    pub phases: PhaseNs,
    /// Per-request cache disposition aligned with the batch; empty when
    /// the backend has no cache (every request then counts as
    /// [`CachePath::Computed`]).
    pub cache_paths: Vec<CachePath>,
}

/// Runs one batch through the serving pipeline — the only place the
/// serving layer probes a cache, calls the engine's two stages, reads the
/// clock or accounts sharing. With `cache = Some((cache, version))` the
/// batch flows exact probe → route the misses → semantic probe (bucketed
/// by each route's top cluster) → deep-search the true misses on the
/// routes already paid for → insert; with `None` it is route → deep.
/// Queries are borrowed from the requests; the one copy made is the
/// vector the cache owns after an insert.
///
/// Every clock read closes a phase, so `service_ns` is exactly
/// `phases.total()`; sharing is accounted over the searches actually
/// executed (cache hits touch no shard). `cache_paths` stays empty
/// without a cache.
///
/// # Errors
///
/// Propagates the engine's first error in batch order.
pub(crate) fn dispatch(
    engine: &Engine<'_>,
    threads: usize,
    mut cache: Option<(&mut SemanticCache<SearchOutcome>, u64)>,
    batch: &[Request],
) -> Result<BatchOutcome, HermesError> {
    let mut phases = PhaseNs::new();
    let mut mark = hermes_trace::now_ns();
    let mut lap = |phase: Phase| {
        let now = hermes_trace::now_ns();
        phases.add(phase, now.saturating_sub(mark));
        mark = now;
    };
    let mut slots: Vec<Option<SearchOutcome>> = vec![None; batch.len()];
    let mut cache_paths = Vec::new();

    if let Some((cache, version)) = cache.as_mut() {
        cache_paths = vec![CachePath::Computed; batch.len()];
        for ((slot, path), req) in slots.iter_mut().zip(&mut cache_paths).zip(batch) {
            if let Some(hit) = cache.lookup_exact(&req.query, *version) {
                *slot = Some(hit.clone());
                *path = CachePath::ExactHit;
            }
        }
        lap(Phase::CacheProbe);
    }

    // `missed[j]` is the batch position of `queries[j]` / `routes[j]`.
    let mut missed: Vec<usize> = (0..batch.len()).filter(|&i| slots[i].is_none()).collect();
    let mut searched: Vec<Vec<usize>> = Vec::with_capacity(missed.len());
    if !missed.is_empty() {
        let mut queries: Vec<&[f32]> = missed.iter().map(|&i| &batch[i].query[..]).collect();
        let mut routes = engine.route_batch(&queries, threads)?;
        lap(Phase::Route);

        // The seam: the batch is routed and nothing is scanned yet.
        if let Some((cache, version)) = cache.as_mut() {
            // Serve near-duplicates; compact what is left, order kept.
            let mut kept = 0;
            for j in 0..missed.len() {
                match cache.lookup_semantic(queries[j], routes[j].top_cluster(), *version) {
                    Some(hit) => {
                        slots[missed[j]] = Some(hit.payload);
                        cache_paths[missed[j]] = CachePath::SemanticHit;
                    }
                    None => {
                        missed.swap(kept, j);
                        queries.swap(kept, j);
                        routes.swap(kept, j);
                        kept += 1;
                    }
                }
            }
            missed.truncate(kept);
            queries.truncate(kept);
            routes.truncate(kept);
            lap(Phase::CacheProbe);
        }

        if !missed.is_empty() {
            let outcomes = engine.deep_batch(&queries, routes, threads)?;
            for ((&i, query), outcome) in missed.iter().zip(&queries).zip(outcomes) {
                if let Some((cache, version)) = cache.as_mut() {
                    let bucket = outcome.ranked_clusters.first().copied();
                    cache.insert(query.to_vec(), bucket, *version, outcome.clone());
                }
                searched.push(outcome.searched_clusters().to_vec());
                slots[i] = Some(outcome);
            }
            lap(Phase::Deep);
        }
    }

    let plan = coalesce_groups(&searched);
    Ok(BatchOutcome {
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every request was answered by a hit or a computation"))
            .collect(),
        service_ns: phases.total(),
        distinct_clusters: plan.distinct_clusters,
        shared_visits: plan.shared_visits(),
        phases,
        cache_paths,
    })
}

/// Real execution over a borrowed [`Engine`].
pub struct EngineBackend<'s> {
    engine: Engine<'s>,
    threads: usize,
}

impl<'s> EngineBackend<'s> {
    /// A backend dispatching batches to `engine` with shard fan-out
    /// `threads` (`0` = full pool, `1` = inline).
    pub fn new(engine: Engine<'s>, threads: usize) -> Self {
        EngineBackend { engine, threads }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine<'s> {
        &self.engine
    }
}

impl Backend for EngineBackend<'_> {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        dispatch(&self.engine, self.threads, None, batch)
    }
}

/// Synthetic backend with a deterministic service-time law — the queue
/// model in backend form. With `per_request_ns = 0` and `max_batch = 1`
/// the server reproduces `hermes_sim::queueing::simulate_md1` exactly.
#[derive(Debug, Clone, Copy)]
pub struct FixedServiceBackend {
    base_ns: u64,
    per_request_ns: u64,
}

impl FixedServiceBackend {
    /// Service time `base_ns` per dispatch regardless of batch size.
    pub fn new(base_ns: u64) -> Self {
        FixedServiceBackend {
            base_ns,
            per_request_ns: 0,
        }
    }

    /// Adds a per-request component: `base + per_request × batch_size`.
    pub fn with_per_request_ns(mut self, per_request_ns: u64) -> Self {
        self.per_request_ns = per_request_ns;
        self
    }
}

impl Backend for FixedServiceBackend {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        Ok(BatchOutcome {
            outcomes: Vec::new(),
            service_ns: self.base_ns + self.per_request_ns * batch.len() as u64,
            distinct_clusters: 0,
            shared_visits: 0,
            phases: PhaseNs::new(),
            cache_paths: Vec::new(),
        })
    }
}

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission-queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Most requests one dispatch may carry.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            max_batch: 8,
        }
    }
}

/// Aggregate view of a finished (or in-flight) run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests accepted into the queue.
    pub admitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed at admission (queue full or already expired).
    pub shed_full: usize,
    /// Admitted requests whose deadline passed before dispatch.
    pub expired: usize,
    /// Dispatches executed.
    pub batches: usize,
    /// Shard visits saved by coalescing, summed over dispatches.
    pub shared_visits: usize,
    /// End-to-end latency (arrival → finish) histogram, nanoseconds.
    pub sojourn: LogHistogram,
    /// Queueing delay (arrival → dispatch) histogram, nanoseconds.
    pub wait: LogHistogram,
    /// Total backend service time, nanoseconds.
    pub busy_ns: u64,
    /// Departure time of the last completed batch, nanoseconds.
    pub makespan_ns: u64,
}

impl ServeReport {
    /// Fraction of the run the backend was busy — comparable to
    /// `hermes_sim::queueing::QueueTrace::busy_fraction`.
    pub fn busy_fraction(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.makespan_ns as f64
        }
    }

    /// Mean requests per dispatch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// The serving loop. See the module docs for the time model.
pub struct Server<B: Backend> {
    backend: B,
    cfg: ServerConfig,
    queue: AdmissionQueue,
    /// Last request id minted; ids are dense from 1 in admission order
    /// and stamped whether or not an observer is attached, so attaching
    /// one never perturbs anything the run computes.
    next_rid: u64,
    observer: Option<Observer>,
    free_at_ns: u64,
    busy_ns: u64,
    admitted: usize,
    batches: usize,
    shared_visits: usize,
    sojourn: LogHistogram,
    wait: LogHistogram,
    completions: Vec<Completion>,
    shed: Vec<ShedRecord>,
    completed: usize,
    expired: usize,
    shed_full: usize,
}

impl<B: Backend> Server<B> {
    /// A server over `backend` with `cfg` knobs, idle at time 0.
    pub fn new(backend: B, cfg: ServerConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        Server {
            backend,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            cfg,
            next_rid: 0,
            observer: None,
            free_at_ns: 0,
            busy_ns: 0,
            admitted: 0,
            batches: 0,
            shared_visits: 0,
            sojourn: LogHistogram::new(),
            wait: LogHistogram::new(),
            completions: Vec::new(),
            shed: Vec::new(),
            completed: 0,
            expired: 0,
            shed_full: 0,
        }
    }

    /// Attaches a request observer: every completion from here on folds
    /// into its timelines, attribution and SLO accounting. Request ids
    /// are minted whether or not one is attached, so results and timing
    /// are bit-identical with and without (`tests/request_observability.rs`
    /// pins this).
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Observer> {
        self.observer.as_ref()
    }

    /// Detaches and returns the observer (for reporting after a run).
    pub fn take_observer(&mut self) -> Option<Observer> {
        self.observer.take()
    }

    /// Offers `req` for admission, minting its serving-layer request id
    /// ([`Request::rid`]). Sheds immediately — without touching the
    /// queue or the pool — when the queue is full or the request arrives
    /// already expired; the shed is recorded exactly once and also
    /// returned.
    ///
    /// Drivers must call [`Server::run_until`]`(req.arrival_ns)` first so
    /// dispatches that precede this arrival have happened.
    pub fn submit(&mut self, mut req: Request) -> Result<(), ShedRecord> {
        self.next_rid += 1;
        req.rid = self.next_rid;
        if req.expired_at(req.arrival_ns) {
            return Err(self.record_shed(req.arrival_ns, req, ShedReason::Expired));
        }
        let at_ns = req.arrival_ns;
        match self.queue.try_admit(req) {
            Ok(()) => {
                self.admitted += 1;
                hermes_trace::counter(names::SERVE_QUEUE_DEPTH, self.queue.len() as u64);
                Ok(())
            }
            Err(rejected) => Err(self.record_shed(at_ns, rejected, ShedReason::QueueFull)),
        }
    }

    fn record_shed(&mut self, at_ns: u64, request: Request, reason: ShedReason) -> ShedRecord {
        match reason {
            ShedReason::QueueFull => self.shed_full += 1,
            ShedReason::Expired => self.expired += 1,
        }
        hermes_trace::complete_with(
            names::SERVE_SHED,
            at_ns,
            0,
            &[
                (names::ARG_REQUEST_ID, request.rid),
                (names::ARG_CLASS, request.priority.index() as u64),
            ],
        );
        if let Some(obs) = self.observer.as_mut() {
            let cause = match reason {
                ShedReason::QueueFull => ShedCause::QueueFull,
                ShedReason::Expired => ShedCause::Expired,
            };
            obs.on_shed(request.priority.index(), at_ns, cause);
        }
        let record = ShedRecord {
            request,
            reason,
            at_ns,
        };
        self.shed.push(record.clone());
        record
    }

    /// Runs every dispatch that starts strictly before `now_ns`, then
    /// stops — later dispatches stay uncommitted so higher-priority
    /// arrivals before their start time can still overtake. Pass
    /// `u64::MAX` to drain.
    ///
    /// # Errors
    ///
    /// Propagates the backend's first error.
    pub fn run_until(&mut self, now_ns: u64) -> Result<(), HermesError> {
        while let Some(head) = self.queue.peek_next() {
            let start = self.free_at_ns.max(head.arrival_ns);
            if start >= now_ns {
                break;
            }
            self.dispatch_at(start)?;
        }
        Ok(())
    }

    /// Commits exactly one dispatch (the one `run_until` would run next)
    /// regardless of any time bound; returns its finish time, or `None`
    /// when nothing is dispatchable. Closed-loop drivers use this to
    /// advance time when every client is blocked on a completion.
    ///
    /// # Errors
    ///
    /// Propagates the backend's first error.
    pub fn step(&mut self) -> Result<Option<u64>, HermesError> {
        while let Some(head) = self.queue.peek_next() {
            let start = self.free_at_ns.max(head.arrival_ns);
            if self.dispatch_at(start)? {
                return Ok(Some(self.free_at_ns));
            }
        }
        Ok(None)
    }

    /// Forms and executes one batch starting at `start`; `false` when
    /// the candidates all expired (no service consumed).
    fn dispatch_at(&mut self, start: u64) -> Result<bool, HermesError> {
        let (batch, culled) = self.queue.take_batch(start, self.cfg.max_batch);
        for req in culled {
            self.record_shed(start, req, ShedReason::Expired);
        }
        if batch.is_empty() {
            return Ok(false);
        }
        let out = self.backend.run(&batch)?;
        let finish = start + out.service_ns;
        self.busy_ns += out.service_ns;
        self.free_at_ns = finish;
        self.batches += 1;
        self.shared_visits += out.shared_visits;
        hermes_trace::complete_with(
            names::SERVE_BATCH,
            start,
            out.service_ns,
            &[(names::ARG_BATCH_SIZE, batch.len() as u64)],
        );
        let batch_size = batch.len();
        // Empty for backends that execute nothing: `next()` is then `None`.
        let mut outcomes = out.outcomes.into_iter();
        for (i, req) in batch.into_iter().enumerate() {
            let sojourn = finish - req.arrival_ns;
            self.sojourn.record(sojourn);
            self.wait.record(start - req.arrival_ns);
            hermes_trace::complete_with(
                names::SERVE_REQUEST,
                req.arrival_ns,
                sojourn,
                &[
                    (names::ARG_REQUEST_ID, req.rid),
                    (names::ARG_CLASS, req.priority.index() as u64),
                ],
            );
            self.completed += 1;
            if let Some(obs) = self.observer.as_mut() {
                let tl = RequestTimeline::from_dispatch(
                    RequestId(req.rid),
                    req.id,
                    req.priority.index(),
                    req.priority.label(),
                    req.arrival_ns,
                    start,
                    finish,
                    batch_size,
                    &out.phases,
                    out.cache_paths.get(i).copied().unwrap_or(CachePath::Computed),
                    req.deadline_ns,
                );
                obs.on_completion(&tl);
            }
            self.completions.push(Completion {
                outcome: outcomes.next(),
                request: req,
                start_ns: start,
                finish_ns: finish,
                batch_size,
            });
        }
        Ok(true)
    }

    /// Completions accumulated since the last take, in dispatch order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Shed records accumulated since the last take.
    pub fn take_shed(&mut self) -> Vec<ShedRecord> {
        std::mem::take(&mut self.shed)
    }

    /// When the next dispatch would start (`max(free_at, head arrival)`),
    /// or `None` with an empty queue — the server's half of a
    /// discrete-event driver's "which event is next?" decision.
    pub fn next_dispatch_start(&self) -> Option<u64> {
        self.queue
            .peek_next()
            .map(|head| self.free_at_ns.max(head.arrival_ns))
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// When the backend frees up (time of the last committed departure).
    pub fn free_at_ns(&self) -> u64 {
        self.free_at_ns
    }

    /// Aggregate statistics so far.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            admitted: self.admitted,
            completed: self.completed,
            shed_full: self.shed_full,
            expired: self.expired,
            batches: self.batches,
            shared_visits: self.shared_visits,
            sojourn: self.sojourn.clone(),
            wait: self.wait.clone(),
            busy_ns: self.busy_ns,
            makespan_ns: self.free_at_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;

    fn req(id: u64, arrival_ns: u64) -> Request {
        Request::new(id, vec![0.0], Priority::Standard, arrival_ns)
    }

    fn drive(server: &mut Server<FixedServiceBackend>, reqs: Vec<Request>) {
        for r in reqs {
            server.run_until(r.arrival_ns).unwrap();
            let _ = server.submit(r);
        }
        server.run_until(u64::MAX).unwrap();
    }

    #[test]
    fn the_three_real_backends_dispatch_identically() {
        use crate::{CachedBackend, GenerationBackend, GenerationCell};
        use hermes_core::{ClusteredStore, HermesConfig};
        use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
        use std::sync::Arc;

        let corpus = Corpus::generate(CorpusSpec::new(600, 12, 5).with_seed(91));
        let cfg = HermesConfig::new(5)
            .with_clusters_to_search(2)
            .with_seed(93);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let mut queries = QuerySet::generate(&corpus, QuerySpec::new(6).with_seed(92)).to_vecs();
        queries.push(queries[0].clone());
        let batch: Vec<Request> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| Request::new(i as u64, q.clone(), Priority::Standard, 0))
            .collect();

        let cell = Arc::new(GenerationCell::new(store.clone()));
        let engine = EngineBackend::new(Engine::for_store(&store), 1)
            .run(&batch)
            .unwrap();
        let generation = GenerationBackend::new(cell.clone(), 1).run(&batch).unwrap();
        let cached = CachedBackend::new(cell, 1, hermes_cache::CacheConfig::default())
            .run(&batch)
            .unwrap();

        let standalone = Engine::for_store(&store)
            .execute_batch(&queries, 1)
            .unwrap();
        assert_eq!(engine.outcomes, standalone);
        assert!(
            engine.shared_visits > 0,
            "the repeated query shares its visits"
        );
        for (name, other) in [("generation", &generation), ("cold cache", &cached)] {
            assert_eq!(other.outcomes, engine.outcomes, "{name}");
            assert_eq!(other.distinct_clusters, engine.distinct_clusters, "{name}");
            assert_eq!(other.shared_visits, engine.shared_visits, "{name}");
        }
        for out in [&engine, &generation, &cached] {
            assert!(out.phases.total() <= out.service_ns);
        }
        assert!(engine.cache_paths.is_empty() && generation.cache_paths.is_empty());
        assert_eq!(cached.cache_paths, vec![CachePath::Computed; batch.len()]);
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = Server::new(
            FixedServiceBackend::new(100),
            ServerConfig {
                queue_capacity: 4,
                max_batch: 1,
            },
        );
        drive(&mut s, vec![req(0, 1_000), req(1, 5_000)]);
        let done = s.take_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].start_ns, 1_000);
        assert_eq!(done[0].finish_ns, 1_100);
        assert_eq!(done[1].start_ns, 5_000);
        assert_eq!(done[0].sojourn_ns(), 100);
        let report = s.report();
        assert_eq!(report.busy_ns, 200);
        assert_eq!(report.makespan_ns, 5_100);
    }

    #[test]
    fn back_to_back_arrivals_queue_fifo() {
        let mut s = Server::new(
            FixedServiceBackend::new(100),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 1,
            },
        );
        drive(&mut s, vec![req(0, 10), req(1, 10), req(2, 10)]);
        let done = s.take_completions();
        let ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(done[0].sojourn_ns(), 100);
        assert_eq!(done[1].sojourn_ns(), 200);
        assert_eq!(done[2].sojourn_ns(), 300);
    }

    #[test]
    fn max_batch_coalesces_queued_requests() {
        let mut s = Server::new(
            FixedServiceBackend::new(100),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 4,
            },
        );
        // First arrival dispatches alone; three queue behind it and
        // share the second dispatch.
        drive(&mut s, vec![req(0, 0), req(1, 10), req(2, 20), req(3, 30)]);
        let done = s.take_completions();
        assert_eq!(done[0].batch_size, 1);
        assert!(done[1..].iter().all(|c| c.batch_size == 3));
        assert_eq!(s.report().batches, 2);
        assert!((s.report().mean_batch_size() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn priority_overtakes_within_the_queue() {
        let mut s = Server::new(
            FixedServiceBackend::new(100),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 1,
            },
        );
        let mut reqs = vec![
            req(0, 0),
            req(1, 10),
            Request::new(2, vec![0.0], Priority::Interactive, 20),
        ];
        let last = reqs.pop().unwrap();
        for r in reqs {
            s.run_until(r.arrival_ns).unwrap();
            s.submit(r).unwrap();
        }
        s.run_until(last.arrival_ns).unwrap();
        s.submit(last).unwrap();
        s.run_until(u64::MAX).unwrap();
        let ids: Vec<u64> = s.take_completions().iter().map(|c| c.request.id).collect();
        // Request 0 was in service; the interactive 2 overtakes 1.
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn queue_full_sheds_at_admission() {
        let mut s = Server::new(
            FixedServiceBackend::new(1_000),
            ServerConfig {
                queue_capacity: 2,
                max_batch: 1,
            },
        );
        // One in service, two queued, the fourth is shed.
        s.run_until(0).unwrap();
        s.submit(req(0, 0)).unwrap();
        s.run_until(1).unwrap();
        for id in 1..=2 {
            s.submit(req(id, 1)).unwrap();
        }
        let shed = s.submit(req(3, 1)).unwrap_err();
        assert_eq!(shed.reason, ShedReason::QueueFull);
        assert_eq!(shed.request.id, 3);
        s.run_until(u64::MAX).unwrap();
        let report = s.report();
        assert_eq!(report.completed, 3);
        assert_eq!(report.shed_full, 1);
        assert_eq!(s.take_shed().len(), 1);
    }

    #[test]
    fn expired_requests_never_dispatch() {
        let mut s = Server::new(
            FixedServiceBackend::new(1_000),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 1,
            },
        );
        s.run_until(0).unwrap();
        s.submit(req(0, 0)).unwrap();
        s.run_until(1).unwrap();
        // Deadline 500 passes while request 0 holds the server to 1000.
        s.submit(req(1, 1).with_deadline_ns(500)).unwrap();
        s.submit(req(2, 1)).unwrap();
        s.run_until(u64::MAX).unwrap();
        let done = s.take_completions();
        let ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, vec![0, 2]);
        let report = s.report();
        assert_eq!(report.expired, 1);
        let shed = s.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].request.id, 1);
        assert_eq!(shed[0].reason, ShedReason::Expired);
        assert_eq!(shed[0].at_ns, 1_000);
        // The expired slot went to request 2 at t=1000, not later.
        assert_eq!(done[1].start_ns, 1_000);
    }

    #[test]
    fn already_expired_sheds_at_admission() {
        let mut s = Server::new(
            FixedServiceBackend::new(10),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 1,
            },
        );
        let shed = s
            .submit(req(0, 100).with_deadline_ns(50))
            .unwrap_err();
        assert_eq!(shed.reason, ShedReason::Expired);
        assert_eq!(s.report().admitted, 0);
    }

    #[test]
    fn step_commits_exactly_one_dispatch() {
        let mut s = Server::new(
            FixedServiceBackend::new(100),
            ServerConfig {
                queue_capacity: 8,
                max_batch: 1,
            },
        );
        s.run_until(0).unwrap();
        s.submit(req(0, 0)).unwrap();
        s.submit(req(1, 0)).unwrap();
        assert_eq!(s.step().unwrap(), Some(100));
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.step().unwrap(), Some(200));
        assert_eq!(s.step().unwrap(), None);
    }

    #[test]
    fn md1_equivalence_shape() {
        // max_batch = 1 + fixed service: sojourns follow the M/D/1
        // recurrence done = max(arrival, prev_done) + s.
        let s_ns = 1_000u64;
        let arrivals = [100u64, 150, 2_000, 2_010, 9_000];
        let mut server = Server::new(
            FixedServiceBackend::new(s_ns),
            ServerConfig {
                queue_capacity: 64,
                max_batch: 1,
            },
        );
        drive(
            &mut server,
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &a)| req(i as u64, a))
                .collect(),
        );
        let done = server.take_completions();
        let mut prev_done = 0u64;
        for (c, &a) in done.iter().zip(&arrivals) {
            let expect = a.max(prev_done) + s_ns;
            assert_eq!(c.finish_ns, expect);
            prev_done = expect;
        }
    }
}
