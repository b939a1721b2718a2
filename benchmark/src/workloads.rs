//! The four serving workloads: their definitions, their seeded traces
//! and the pass drivers that replay a trace against a fresh `Server`.
//!
//! Everything the system under test sees is generated here from the
//! run's `--seed`; the program receives only the generated inputs. The
//! drivers are single-threaded and arrivals are virtual (the `Server` is
//! a virtual-time machine), so the load generator is never late.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use hermes_cache::{CacheConfig, CacheStats};
use hermes_core::exec::Engine;
use hermes_core::{ClusteredStore, HermesConfig, HermesError, RebalanceAction, Rebalancer};
use hermes_datagen::arrivals::poisson_arrival_times_ns;
use hermes_datagen::{query_stream, Corpus, CorpusSpec, QuerySet, QuerySpec, StreamSpec};
use hermes_math::rng::{derive_seed, seeded_rng};
use hermes_obs::{CachePath, Observer, Phase};
use hermes_serve::{
    obs_config, Backend, BatchOutcome, CachedBackend, Completion, EngineBackend, GenerationBackend,
    GenerationCell, Priority, Request, Server, ServerConfig,
};

use crate::stats::time_ns;

/// Hits returned per query, and the `k` of `recall_at_10`.
pub const K: usize = 10;
/// Distinct queries that get exact ground truth.
pub const TRUTH_QUERIES: usize = 500;
/// Server knobs shared by every workload.
pub const SERVER: ServerConfig = ServerConfig {
    queue_capacity: 256,
    max_batch: 8,
};

/// Which of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop, unique uniform-topic queries, no cache: the scan path.
    UniformOpen,
    /// Open loop, Zipf-repeated queries through the semantic cache.
    ZipfCachedOpen,
    /// Closed loop, topic-skewed queries: full coalesced batches.
    SkewClosed,
    /// Reads beside inserts, removes and one live split.
    ChurnMixed,
}

/// One workload's definition. The full-size constants are the benchmark;
/// `--smoke` shrinks sizes, never the structure.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Operations offered per pass.
    pub ops: usize,
    /// Open-loop rate on the virtual schedule, ops/s (0 = closed loop).
    pub rate: f64,
    /// Relative dispatch deadline.
    pub deadline_ns: u64,
    /// Distinct queries the stream draws from (Zipf pool).
    pub pool: usize,
    /// Semantic-cache capacity.
    pub cache_capacity: usize,
    /// Closed-loop clients.
    pub users: usize,
}

/// Dispatch deadline of the open loops. Service time is real wall time,
/// so a deadline near the service time turns a machine stall into
/// expired requests; 100 ms leaves only genuine overload (a queue that
/// keeps growing) to fail.
const OPEN_DEADLINE_NS: u64 = 100_000_000;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        kind: Kind::UniformOpen,
        name: "uniform_open",
        ops: 6000,
        rate: 400.0,
        deadline_ns: OPEN_DEADLINE_NS,
        pool: 0,
        cache_capacity: 0,
        users: 0,
    },
    Spec {
        kind: Kind::ZipfCachedOpen,
        name: "zipf_cached_open",
        ops: 12_000,
        rate: 1000.0,
        deadline_ns: OPEN_DEADLINE_NS,
        pool: 4096,
        cache_capacity: 1024,
        users: 0,
    },
    Spec {
        kind: Kind::SkewClosed,
        name: "skew_closed",
        ops: 4000,
        rate: 0.0,
        deadline_ns: 5 * OPEN_DEADLINE_NS,
        pool: 0,
        cache_capacity: 0,
        users: 16,
    },
    Spec {
        kind: Kind::ChurnMixed,
        name: "churn_mixed",
        ops: 9000,
        rate: 400.0,
        deadline_ns: OPEN_DEADLINE_NS,
        pool: 0,
        cache_capacity: 0,
        users: 0,
    },
];

/// Corpus and per-workload sizes: the benchmark proper, or the
/// seconds-scale smoke variant.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus documents.
    pub docs: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Divisor applied to per-pass operation counts, pools and caches.
    pub shrink: usize,
}

impl Scale {
    /// 60 000 × 64: the benchmark.
    pub const FULL: Scale = Scale {
        docs: 60_000,
        dim: 64,
        shrink: 1,
    };
    /// 3 000 × 24: `--smoke`.
    pub const SMOKE: Scale = Scale {
        docs: 3_000,
        dim: 24,
        shrink: 10,
    };

    /// `spec` at this scale.
    pub fn apply(&self, spec: &Spec) -> Spec {
        Spec {
            ops: spec.ops / self.shrink,
            pool: spec.pool / self.shrink,
            cache_capacity: spec.cache_capacity / self.shrink,
            ..*spec
        }
    }
}

/// Topics in the corpus and clusters in the store.
pub const TOPICS: usize = 10;

/// Seed of the dataset (corpus and store configuration). The dataset is
/// part of the benchmark's definition, like a public ANN dataset: it is
/// the same on every run, so set-up time, memory and scan cost do not
/// move with `--seed`. Everything the *traffic* is made of — queries,
/// arrivals, operation mix, cache eviction — derives from `--seed`.
pub const DATASET_SEED: u64 = 0x4E52_4D45;

/// The corpus every run shares.
pub fn corpus(scale: Scale) -> Corpus {
    Corpus::generate(CorpusSpec::new(scale.docs, scale.dim, TOPICS).with_seed(DATASET_SEED))
}

/// The store configuration: the paper's Table 2 optimum at `k = 10`.
pub fn config() -> HermesConfig {
    HermesConfig::new(TOPICS)
        .with_clusters_to_search(3)
        .with_sample_nprobe(8)
        .with_deep_nprobe(128)
        .with_k(K)
        .with_seed(DATASET_SEED + 1)
}

/// Set-up as a user pays it: raw embeddings → a published store
/// generation that backends serve from. Returns the cell and the wall
/// seconds it took.
pub fn build(
    corpus: &Corpus,
    cfg: &HermesConfig,
) -> Result<(Arc<GenerationCell>, f64), HermesError> {
    let (cell, ns) = time_ns(|| {
        ClusteredStore::build(corpus.embeddings(), cfg).map(|s| Arc::new(GenerationCell::new(s)))
    });
    Ok((cell?, ns as f64 * 1e-9))
}

/// What one operation of a trace does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// Submit `queries[i]`.
    Query(u32),
    /// Insert `fresh[i]` under a new id.
    Insert(u64, u32),
    /// Remove a live id.
    Remove(u64),
    /// Split the largest cluster and publish the next generation.
    Split,
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Virtual arrival time (0 in the closed loop, where the loop itself
    /// decides arrivals).
    pub at_ns: u64,
    /// The operation.
    pub what: What,
}

/// A workload's complete seeded input.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Distinct query vectors.
    pub queries: Vec<Vec<f32>>,
    /// Vectors inserted by `What::Insert`.
    pub fresh: Vec<Vec<f32>>,
    /// The schedule.
    pub ops: Vec<Op>,
}

impl Trace {
    /// Generates `spec`'s trace over `corpus` from `seed`.
    pub fn generate(spec: &Spec, corpus: &Corpus, seed: u64) -> Trace {
        let qseed = derive_seed(seed, 3);
        let arrivals = |n| poisson_arrival_times_ns(spec.rate, n, derive_seed(seed, 4));
        let query_ops = |at: Vec<u64>, qi: Vec<u32>| {
            at.into_iter()
                .zip(qi)
                .map(|(at_ns, q)| Op {
                    at_ns,
                    what: What::Query(q),
                })
                .collect()
        };
        match spec.kind {
            Kind::UniformOpen => {
                let qs = QuerySpec::new(spec.ops)
                    .with_interest_skew(0.0)
                    .with_seed(qseed);
                Trace {
                    queries: QuerySet::generate(corpus, qs).to_vecs(),
                    fresh: Vec::new(),
                    ops: query_ops(arrivals(spec.ops), (0..spec.ops as u32).collect()),
                }
            }
            Kind::ZipfCachedOpen => {
                let pool = QuerySet::generate(corpus, QuerySpec::new(spec.pool).with_seed(qseed));
                let queries = pool.to_vecs();
                let by_bits: HashMap<Vec<u32>, u32> = queries
                    .iter()
                    .enumerate()
                    .map(|(i, q)| (bits(q), i as u32))
                    .collect();
                let stream = query_stream(
                    &pool,
                    StreamSpec::repeated(spec.ops).with_seed(derive_seed(seed, 5)),
                );
                let qi = stream.iter().map(|q| by_bits[&bits(q)]).collect();
                Trace {
                    queries,
                    fresh: Vec::new(),
                    ops: query_ops(arrivals(spec.ops), qi),
                }
            }
            Kind::SkewClosed => {
                let qs = QuerySpec::new(spec.ops)
                    .with_interest_skew(1.5)
                    .with_seed(qseed);
                Trace {
                    queries: QuerySet::generate(corpus, qs).to_vecs(),
                    fresh: Vec::new(),
                    ops: query_ops(vec![0; spec.ops], (0..spec.ops as u32).collect()),
                }
            }
            Kind::ChurnMixed => churn_trace(corpus, seed, arrivals(spec.ops)),
        }
    }

    /// The trace as bytes — what "the same seed gives the same inputs"
    /// is checked on.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for table in [&self.queries, &self.fresh] {
            out.extend((table.len() as u64).to_le_bytes());
            for x in table.iter().flatten() {
                out.extend(x.to_bits().to_le_bytes());
            }
        }
        for op in &self.ops {
            out.extend(op.at_ns.to_le_bytes());
            let (tag, a, b) = match op.what {
                What::Query(q) => (0u8, u64::from(q), 0),
                What::Insert(id, v) => (1, id, v),
                What::Remove(id) => (2, id, 0),
                What::Split => (3, 0, 0),
            };
            out.push(tag);
            out.extend(a.to_le_bytes());
            out.extend(b.to_le_bytes());
        }
        out
    }

    /// FNV-1a checksum of [`Trace::to_bytes`], printed with every run.
    pub fn fingerprint(&self) -> u64 {
        hermes_math::wire::checksum64(&self.to_bytes())
    }

    /// Query operations in the schedule.
    pub fn query_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op.what, What::Query(_)))
            .count()
    }

    /// The first [`TRUTH_QUERIES`] distinct queries in schedule order.
    pub fn truth_set(&self) -> Vec<u32> {
        let mut seen = vec![false; self.queries.len()];
        let mut out = Vec::new();
        for op in &self.ops {
            if let What::Query(q) = op.what {
                if !std::mem::replace(&mut seen[q as usize], true) {
                    out.push(q);
                    if out.len() == TRUTH_QUERIES {
                        break;
                    }
                }
            }
        }
        out
    }
}

fn bits(q: &[f32]) -> Vec<u32> {
    q.iter().map(|x| x.to_bits()).collect()
}

/// 60% queries, 25% inserts of fresh vectors, 15% removes of live ids,
/// and one forced split at the midpoint of the schedule.
fn churn_trace(corpus: &Corpus, seed: u64, arrivals: Vec<u64>) -> Trace {
    let mut rng = seeded_rng(derive_seed(seed, 6));
    let mut live: Vec<u64> = (0..corpus.len() as u64).collect();
    let (mut n_queries, mut n_fresh) = (0u32, 0u32);
    let mut ops = Vec::with_capacity(arrivals.len() + 1);
    for (i, at_ns) in arrivals.iter().copied().enumerate() {
        if i == arrivals.len() / 2 {
            ops.push(Op {
                at_ns,
                what: What::Split,
            });
        }
        let what = match rng.gen_range(0..100u32) {
            0..=59 => {
                n_queries += 1;
                What::Query(n_queries - 1)
            }
            60..=84 => {
                let id = corpus.len() as u64 + u64::from(n_fresh);
                live.push(id);
                n_fresh += 1;
                What::Insert(id, n_fresh - 1)
            }
            _ => What::Remove(live.swap_remove(rng.gen_range(0..live.len()))),
        };
        ops.push(Op { at_ns, what });
    }
    let vectors = |n: u32, stream| {
        let spec = QuerySpec::new(n.max(1) as usize).with_seed(derive_seed(seed, stream));
        QuerySet::generate(corpus, spec).to_vecs()
    };
    Trace {
        queries: vectors(n_queries, 3),
        // Fresh documents: drawn around the corpus topics at document
        // spread, so they land in existing clusters like real growth.
        fresh: QuerySet::generate(
            corpus,
            QuerySpec::new(n_fresh.max(1) as usize)
                .with_spread(corpus.spec().topic_spread)
                .with_seed(derive_seed(seed, 7)),
        )
        .to_vecs(),
        ops,
    }
}

/// How a pass is instrumented. End-to-end metrics come from `Plain`
/// passes only; the other modes exist in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instrumentation beyond the pass stopwatch.
    Plain,
    /// Harness spans around every `Backend::run` and every write.
    Spans,
    /// `hermes_trace::enable()` for the duration of the pass.
    TraceOn,
    /// `Server::with_observer` attached.
    Observed,
}

/// What the harness saw of one `Backend::run` call (`Mode::Spans`).
#[derive(Debug, Clone, Default)]
pub struct Dispatch {
    /// Harness clock around the call.
    pub start_ns: u64,
    /// Harness clock after the call.
    pub end_ns: u64,
    /// `Request::rid` of the batch head.
    pub rid: u64,
    /// Requests in the batch.
    pub batch: usize,
    /// The backend's own phase brackets (`BatchOutcome::phases`).
    pub probe_ns: u64,
    /// Route phase.
    pub route_ns: u64,
    /// Deep phase.
    pub deep_ns: u64,
    /// Distinct clusters the batch touched.
    pub distinct_clusters: usize,
    /// Shard visits saved by coalescing.
    pub shared_visits: usize,
    /// Requests answered by an exact cache hit.
    pub exact_hits: usize,
    /// Requests answered by a semantic cache hit.
    pub semantic_hits: usize,
    /// Exact work counts of the requests that were computed.
    pub sample_codes: usize,
    /// Deep-scan codes of the computed requests.
    pub deep_codes: usize,
    /// Clusters deep-searched by the computed requests.
    pub clusters_searched: usize,
}

impl Dispatch {
    /// Requests that ran the engine (not served from the cache).
    pub fn computed(&self) -> usize {
        self.batch - self.exact_hits - self.semantic_hits
    }
}

/// One harness-timed write of the churn workload (`Mode::Spans`).
#[derive(Debug, Clone, Copy)]
pub struct WriteSpan {
    /// `core.insert`, `core.remove` or `core.split` (split + swap).
    pub name: &'static str,
    /// Harness clock before the call.
    pub start_ns: u64,
    /// Harness clock after the call.
    pub end_ns: u64,
}

/// The harness's `Backend`: forwards to the real backend by reference
/// (so the harness keeps access to it after the server is dropped) and,
/// when a log is attached, records what each dispatch did.
struct Tap<'a, B> {
    inner: &'a B,
    log: Option<&'a RefCell<Vec<Dispatch>>>,
}

impl<B: Backend> Backend for Tap<'_, B> {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let Some(log) = self.log else {
            return self.inner.run(batch);
        };
        let start_ns = hermes_trace::now_ns();
        let out = self.inner.run(batch)?;
        let end_ns = hermes_trace::now_ns();
        let mut d = Dispatch {
            start_ns,
            end_ns,
            rid: batch[0].rid,
            batch: batch.len(),
            probe_ns: out.phases.get(Phase::CacheProbe),
            route_ns: out.phases.get(Phase::Route),
            deep_ns: out.phases.get(Phase::Deep),
            distinct_clusters: out.distinct_clusters,
            shared_visits: out.shared_visits,
            ..Dispatch::default()
        };
        for (i, o) in out.outcomes.iter().enumerate() {
            match out
                .cache_paths
                .get(i)
                .copied()
                .unwrap_or(CachePath::Computed)
            {
                CachePath::ExactHit => d.exact_hits += 1,
                CachePath::SemanticHit => d.semantic_hits += 1,
                _ => {
                    d.sample_codes += o.stats.route.scanned_codes;
                    d.deep_codes += o.stats.deep.scanned_codes;
                    d.clusters_searched += o.stats.deep.clusters_touched;
                }
            }
        }
        log.borrow_mut().push(d);
        Ok(out)
    }
}

/// Marks a schedule position without a completion.
pub const MISSING: u64 = u64::MAX;
/// Operations per wall-time block — the granularity at which machine
/// noise is filtered out of `throughput_qps`.
pub const BLOCK_OPS: usize = 64;

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Harness clock (`hermes_trace::now_ns`) when the pass began.
    pub start_ns: u64,
    /// Wall time of the whole pass: fresh server (and store clone on
    /// churn), every submit/dispatch/write, the final drain.
    pub wall_ns: u64,
    /// Completions in dispatch order; the run takes them out for
    /// verification right after the pass.
    pub completions: Vec<Completion>,
    /// Sojourn of every schedule position ([`MISSING`] where the
    /// position is a write or the request was refused).
    pub sojourn_ns: Vec<u64>,
    /// Queueing delay of every schedule position, like `sojourn_ns`.
    pub wait_ns: Vec<u64>,
    /// Wall time of every block of [`BLOCK_OPS`] operations; sums to
    /// `wall_ns`.
    pub block_ns: Vec<u64>,
    /// Requests completed (survives dropping `completions`).
    pub completed: usize,
    /// Requests shed at admission.
    pub shed_full: usize,
    /// Requests expired in the queue.
    pub expired: usize,
    /// Backend service time on the virtual clock.
    pub busy_ns: u64,
    /// Virtual time of the last departure.
    pub makespan_ns: u64,
    /// Writes applied (inserts, removes, splits).
    pub writes: usize,
    /// Splits applied.
    pub splits: usize,
    /// Cache accounting (cached workload only).
    pub cache: Option<CacheStats>,
    /// Per-dispatch log (`Mode::Spans`).
    pub dispatches: Vec<Dispatch>,
    /// Per-write log (`Mode::Spans`).
    pub write_spans: Vec<WriteSpan>,
    /// `hermes-trace` events recorded, including dropped (`Mode::TraceOn`).
    pub trace_events: u64,
}

impl Pass {
    /// Operations completed: queries plus writes.
    pub fn ops_done(&self) -> usize {
        self.completed + self.writes
    }

    /// Requests shed at admission or expired in the queue.
    pub fn refused(&self) -> usize {
        self.shed_full + self.expired
    }
}

/// A run's fixed context: the workload, its trace and the built store.
pub struct Ctx<'a> {
    /// The workload at the run's scale.
    pub spec: Spec,
    /// Its seeded trace.
    pub trace: &'a Trace,
    /// The built store, as published by set-up.
    pub cell: &'a Arc<GenerationCell>,
    /// The run's seed.
    pub seed: u64,
}

impl Ctx<'_> {
    /// Replays the trace once against a fresh server (fresh cache, fresh
    /// store copy on churn).
    pub fn run_pass(&self, mode: Mode) -> Result<Pass, HermesError> {
        let start_ns = hermes_trace::now_ns();
        let t0 = std::time::Instant::now();
        if mode == Mode::TraceOn {
            hermes_trace::clear();
            hermes_trace::enable();
        }
        let mut pass = match self.spec.kind {
            Kind::UniformOpen | Kind::SkewClosed => {
                let store = self.cell.current();
                let backend = EngineBackend::new(Engine::for_store(&store), 1);
                self.drive(&backend, None, mode, t0)
            }
            Kind::ZipfCachedOpen => {
                let cache = CacheConfig::default()
                    .with_capacity(self.spec.cache_capacity)
                    .with_seed(derive_seed(self.seed, 8));
                let backend = CachedBackend::new(Arc::clone(self.cell), 1, cache);
                let mut pass = self.drive(&backend, None, mode, t0);
                if let Ok(p) = &mut pass {
                    p.cache = Some(backend.cache_stats());
                }
                pass
            }
            Kind::ChurnMixed => {
                let cell = Arc::new(GenerationCell::new(ClusteredStore::clone(
                    &self.cell.current(),
                )));
                let backend = GenerationBackend::new(Arc::clone(&cell), 1);
                self.drive(&backend, Some(&cell), mode, t0)
            }
        };
        if mode == Mode::TraceOn {
            hermes_trace::disable();
            let snap = hermes_trace::snapshot();
            if let Ok(p) = &mut pass {
                p.trace_events = snap.events.len() as u64 + snap.dropped;
            }
        }
        if let Ok(p) = &mut pass {
            p.wall_ns = t0.elapsed().as_nanos() as u64;
            p.start_ns = start_ns;
            // Whatever ran after the drain belongs to the last block.
            let counted: u64 = p.block_ns.iter().sum();
            if let Some(last) = p.block_ns.last_mut() {
                *last += p.wall_ns - counted;
            }
        }
        pass
    }

    fn drive<B: Backend>(
        &self,
        backend: &B,
        cell: Option<&GenerationCell>,
        mode: Mode,
        t0: std::time::Instant,
    ) -> Result<Pass, HermesError> {
        let spans = mode == Mode::Spans;
        let log = RefCell::new(Vec::new());
        let tap = Tap {
            inner: backend,
            log: spans.then_some(&log),
        };
        let mut server = Server::new(tap, SERVER);
        if mode == Mode::Observed {
            server = server.with_observer(Observer::new(obs_config(self.seed)));
        }
        let mut pass = Pass::default();
        let mut block_start = t0;
        let mut end_block = |pass: &mut Pass| {
            let now = std::time::Instant::now();
            pass.block_ns.push((now - block_start).as_nanos() as u64);
            block_start = now;
        };
        let request = |i: usize, q: u32, at_ns: u64| {
            Request::new(
                i as u64,
                self.trace.queries[q as usize].clone(),
                Priority::Standard,
                at_ns,
            )
            .with_deadline_ns(at_ns + self.spec.deadline_ns)
        };
        if self.spec.kind == Kind::SkewClosed {
            // Closed loop, zero think time: a user submits its next
            // request the instant the previous one completes (or is
            // refused). Submissions at a dispatch's finish time precede
            // the next dispatch, so it can carry them.
            let (mut next, mut idle, mut now_ns, mut done) = (0, self.spec.users, 0u64, 0);
            loop {
                while idle > 0 && next < self.trace.ops.len() {
                    let What::Query(q) = self.trace.ops[next].what else {
                        unreachable!()
                    };
                    // A refusal is recorded by the server and frees the
                    // user through `take_shed` below, like an expiry.
                    let _ = server.submit(request(next, q, now_ns));
                    idle -= 1;
                    next += 1;
                }
                let Some(finish_ns) = server.step()? else {
                    break;
                };
                now_ns = finish_ns;
                let mut finished = server.take_completions();
                idle += finished.len() + server.take_shed().len();
                pass.completions.append(&mut finished);
                while pass.completions.len() >= done + BLOCK_OPS {
                    done += BLOCK_OPS;
                    end_block(&mut pass);
                }
            }
        } else {
            for (i, op) in self.trace.ops.iter().enumerate() {
                if i > 0 && i % BLOCK_OPS == 0 {
                    end_block(&mut pass);
                }
                server.run_until(op.at_ns)?;
                let What::Query(q) = op.what else {
                    let cell = cell.expect("writes need a generation cell");
                    let t0 = if spans { hermes_trace::now_ns() } else { 0 };
                    let name = apply_write(cell, op.what, &self.trace.fresh)?;
                    if spans {
                        pass.write_spans.push(WriteSpan {
                            name,
                            start_ns: t0,
                            end_ns: hermes_trace::now_ns(),
                        });
                    }
                    pass.writes += 1;
                    pass.splits += usize::from(op.what == What::Split);
                    continue;
                };
                // A shed is recorded by the server; the pass reads the
                // counts from its report.
                let _ = server.submit(request(i, q, op.at_ns));
            }
            server.run_until(u64::MAX)?;
            pass.completions = server.take_completions();
        }
        let report = server.report();
        drop(server);
        end_block(&mut pass);
        pass.sojourn_ns = vec![MISSING; self.trace.ops.len()];
        pass.wait_ns = vec![MISSING; self.trace.ops.len()];
        for c in &pass.completions {
            pass.sojourn_ns[c.request.id as usize] = c.sojourn_ns();
            pass.wait_ns[c.request.id as usize] = c.wait_ns();
        }
        pass.completed = report.completed;
        pass.shed_full = report.shed_full;
        pass.expired = report.expired;
        pass.busy_ns = report.busy_ns;
        pass.makespan_ns = report.makespan_ns;
        pass.dispatches = log.into_inner();
        Ok(pass)
    }

    /// The distinct-query index a completion answered.
    pub fn query_of(&self, c: &Completion) -> u32 {
        // Request ids are schedule positions on every workload.
        match self.trace.ops[c.request.id as usize].what {
            What::Query(q) => q,
            _ => unreachable!("completions answer query operations"),
        }
    }
}

/// Applies one write through the public mutation API; returns the span
/// name it is recorded under.
pub fn apply_write(
    cell: &GenerationCell,
    what: What,
    fresh: &[Vec<f32>],
) -> Result<&'static str, HermesError> {
    match what {
        What::Insert(id, v) => {
            cell.mutate(|s| s.insert(id, &fresh[v as usize]))?;
            Ok("core.insert")
        }
        What::Remove(id) => {
            cell.mutate(|s| s.remove(id));
            Ok("core.remove")
        }
        What::Split => {
            let next = split_largest(&cell.current())?;
            cell.swap(next);
            Ok("core.split")
        }
        What::Query(_) => unreachable!("queries are submitted, not applied"),
    }
}

/// `Rebalancer::apply(Split { largest cluster })`.
pub fn split_largest(store: &ClusteredStore) -> Result<ClusteredStore, HermesError> {
    let sizes = store.cluster_sizes();
    let cluster = (0..sizes.len())
        .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
        .unwrap_or(0);
    Rebalancer::default().apply(store, RebalanceAction::Split { cluster })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_offers_byte_identical_traces_and_another_seed_does_not() {
        let corpus = corpus(Scale::SMOKE);
        for spec in &WORKLOADS {
            let spec = Scale::SMOKE.apply(spec);
            let a = Trace::generate(&spec, &corpus, 11);
            let b = Trace::generate(&spec, &corpus, 11);
            assert_eq!(a.to_bytes(), b.to_bytes(), "{}", spec.name);
            assert_eq!(a.fingerprint(), b.fingerprint());
            let other = Trace::generate(&spec, &corpus, 12);
            assert_ne!(a.to_bytes(), other.to_bytes(), "{}", spec.name);
        }
    }

    #[test]
    fn traces_have_the_defined_shape() {
        let corpus = corpus(Scale::SMOKE);
        let trace = |kind| {
            let spec = Scale::SMOKE.apply(WORKLOADS.iter().find(|w| w.kind == kind).unwrap());
            (spec, Trace::generate(&spec, &corpus, 3))
        };
        let (spec, uniform) = trace(Kind::UniformOpen);
        assert_eq!(uniform.truth_set().len(), spec.ops.min(TRUTH_QUERIES));
        assert!(uniform.ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

        let (spec, zipf) = trace(Kind::ZipfCachedOpen);
        assert_eq!(zipf.queries.len(), spec.pool);
        assert_eq!(zipf.query_ops(), spec.ops);
        // Zipf repetition: far fewer distinct queries than requests.
        assert!(zipf.truth_set().len() < spec.ops / 2);

        let (spec, churn) = trace(Kind::ChurnMixed);
        let count = |f: fn(&What) -> bool| churn.ops.iter().filter(|op| f(&op.what)).count();
        assert_eq!(count(|w| *w == What::Split), 1);
        assert_eq!(churn.ops.len(), spec.ops + 1);
        let writes = count(|w| !matches!(w, What::Query(_)));
        assert!(
            writes * 100 >= churn.ops.len() * 35,
            "writes {writes} of {}",
            churn.ops.len()
        );
        // Every remove names an id that is live when it is scheduled.
        let mut live: std::collections::HashSet<u64> = (0..corpus.len() as u64).collect();
        for op in &churn.ops {
            match op.what {
                What::Insert(id, _) => assert!(live.insert(id)),
                What::Remove(id) => assert!(live.remove(&id)),
                _ => {}
            }
        }
    }
}
