//! The staged scatter–gather query-execution engine.
//!
//! Every search path in the workspace — [`ClusteredStore::route`],
//! [`ClusteredStore::hierarchical_search`] and its batch variant,
//! [`ClusteredStore::search_all_clusters`],
//! [`ClusteredStore::access_histogram`], and the `hermes-rag` baseline
//! retrievers — is a thin wrapper over one [`Engine`] executing one
//! [`QueryPlan`]. The engine runs the paper's sample → rank → deep →
//! rerank pipeline (Section 4.2) as three explicit stages:
//!
//! ```text
//!            ┌─────────────────────────────────────────────────┐
//!   query ──▶│ ROUTE    every shard samples the query group in │
//!   group    │          one group scan (or its centroid is     │
//!            │          scored); each query ranks best-first   │
//!            ├─────────────────────────────────────────────────┤
//!            │ SCATTER  deep-search the top-m shards: one      │
//!            │          group scan per shard serves every      │
//!            │          query routed to it; shards fan out on  │
//!            │          hermes_pool::Pool                      │
//!            ├─────────────────────────────────────────────────┤
//!            │ GATHER   merge_topk over per-shard hits in the  │
//!            │          query's rank order; fold the per-stage │
//!            │          ScanStats into SearchStats             │
//!            └─────────────────────────────────────────────────┘
//! ```
//!
//! The engine reaches a shard through one call,
//! [`VectorIndex::search_group`]: a group of queries, each at its own
//! `nprobe`, answered exactly as if each were searched alone, with
//! inverted lists that several of them probe streamed once. A single
//! query is a group of one — [`Engine::route`] and the per-query scatter
//! are the one-query cases of [`Engine::route_batch`] and the coalesced
//! scatter.
//!
//! Two levels of parallelism compose:
//!
//! * **Inter-query** — [`Engine::execute_batch`] steals whole queries
//!   from the shared pool cursor; [`Engine::route_batch`] and the
//!   coalesced scatter spread shards, each serving its whole query
//!   group (`threads` caps the width; `0` = full pool, `1` = inline
//!   sequential).
//! * **Intra-query** — within one query, the route stage's per-shard
//!   samples and the scatter stage's m deep searches fan out on the same
//!   pool ([`QueryPlan::scatter_threads`]). Inside a batch the pool's
//!   nested-submission rule makes these inner fan-outs run inline on the
//!   worker, so batches keep exactly one level of stealing; a single
//!   interactive query gets the full pool to itself — the single-request
//!   latency the paper's serving story needs.
//!
//! Results are **bit-identical** to the sequential pre-engine loops for
//! every routing mode, codec and thread count: tasks write results into
//! their input-order slot, costs are integer sums over the same scans,
//! and the first error in input order is the one reported
//! (`tests/engine_equivalence.rs` pins all of this property-style).
//!
//! Work accounting is recorded *as the stages run*: shard scans return
//! [`hermes_index::ScanStats`] from the scan itself, so nothing re-walks
//! a coarse quantizer after the fact (the old `probe_cost` double scan).
//!
//! When runtime telemetry is on (`hermes_trace::enable`), each stage
//! additionally records a span — `engine.execute` ▸ `engine.route` /
//! `engine.scatter` / `engine.gather`, plus per-shard `shard.sample` and
//! `shard.deep` spans on whichever pool worker stole the shard — whose
//! args carry the same scanned-code counts as [`SearchStats`]; the
//! `shard.*` spans also say how many queries the group scan served and
//! how many codes it physically streamed. Disabled, every site is a
//! single relaxed atomic load.

use hermes_index::{GroupScan, ScanResult, ScanStats, VectorIndex};
use hermes_trace::names;
use hermes_math::{topk::merge_topk, Neighbor};

use crate::adaptive::{AdaptiveConfig, DifficultyEstimator};
use crate::config::{HermesConfig, Routing};
use crate::search::{SearchOutcome, SearchPhaseCost};
use crate::store::ClusteredStore;
use crate::HermesError;

/// Per-stage work record of one executed query, filled in by the engine
/// while the stages run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Route-stage work: sampling probes (document-sampling routing) or
    /// one code per cluster (centroid routing); zero when unranked.
    pub route: SearchPhaseCost,
    /// Scatter-stage work, summed over the deep-searched shards.
    pub deep: SearchPhaseCost,
    /// Codes scanned by each deep-searched shard, aligned with
    /// `SearchOutcome::searched_clusters` — the input for per-shard
    /// deadline and straggler analyses.
    pub per_shard_scanned: Vec<usize>,
    /// Candidate hits the gather stage merged into the final top-k.
    pub gather_candidates: usize,
    /// Deep-search `nProbe` this query actually ran with — the plan's
    /// fixed knob, or the [`DifficultyEstimator`]'s per-query choice when
    /// the plan carries an [`AdaptiveConfig`]. Together with
    /// `deep.clusters_touched` this records the chosen adaptive depth.
    pub deep_nprobe: usize,
}

impl SearchStats {
    /// Codes scanned across all stages — the single work number the
    /// latency/energy models consume.
    pub fn total_scanned_codes(&self) -> usize {
        self.route.scanned_codes + self.deep.scanned_codes
    }
}

/// An executable description of one search: which stages run, with which
/// knobs — built from [`HermesConfig`] + the caller's intent, consumed by
/// [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlan {
    /// How the route stage ranks clusters.
    pub routing: Routing,
    /// `nProbe` of the route stage's sampling searches.
    pub sample_nprobe: usize,
    /// `nProbe` of the scatter stage's deep searches.
    pub deep_nprobe: usize,
    /// How many top-ranked clusters the scatter stage deep-searches
    /// (clamped to the store's cluster count at execution time).
    pub clusters_to_search: usize,
    /// Hits returned per query.
    pub k: usize,
    /// Intra-query fan-out cap for the route and scatter stages: `0` uses
    /// the full shared pool, `1` runs the shards inline and sequentially,
    /// `t > 1` uses at most `t` threads.
    pub scatter_threads: usize,
    /// Per-query adaptive-depth policy. `None` (the default) runs the
    /// fixed `clusters_to_search`/`deep_nprobe` knobs bit-identically to
    /// the pre-adaptive engine; `Some` lets the [`DifficultyEstimator`]
    /// pick both per query from the routing scores (queries routed
    /// without scores — [`Routing::Unranked`] — still use the fixed
    /// knobs).
    pub adaptive: Option<AdaptiveConfig>,
    /// Serving-layer request id this plan executes on behalf of, if any.
    /// Purely observational: when set, the engine's `engine.execute`
    /// spans carry it as a `request_id` arg so trace events fold into
    /// per-request timelines — execution is bit-identical either way.
    pub request_id: Option<u64>,
}

impl QueryPlan {
    /// The plan [`ClusteredStore::hierarchical_search`] executes: the
    /// config's routing and knobs, full-pool intra-query scatter.
    pub fn from_config(cfg: &HermesConfig) -> Self {
        QueryPlan {
            routing: cfg.routing,
            sample_nprobe: cfg.sample_nprobe,
            deep_nprobe: cfg.deep_nprobe,
            clusters_to_search: cfg.clusters_to_search,
            k: cfg.k,
            scatter_threads: 0,
            adaptive: cfg.adaptive,
            request_id: None,
        }
    }

    /// The plan [`ClusteredStore::search_all_clusters`] executes: no
    /// routing, every cluster deep-searched in index order — the naive
    /// distributed baseline (Figure 18).
    pub fn exhaustive(cfg: &HermesConfig) -> Self {
        QueryPlan {
            routing: Routing::Unranked,
            clusters_to_search: usize::MAX,
            adaptive: None,
            ..QueryPlan::from_config(cfg)
        }
    }

    /// Caps the intra-query fan-out (see [`QueryPlan::scatter_threads`]).
    pub fn with_scatter_threads(mut self, threads: usize) -> Self {
        self.scatter_threads = threads;
        self
    }

    /// Sets (or clears) the per-query adaptive-depth policy.
    pub fn with_adaptive(mut self, adaptive: Option<AdaptiveConfig>) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Tags the plan with the serving-layer request id its spans should
    /// carry (see [`QueryPlan::request_id`]).
    pub fn with_request_id(mut self, id: u64) -> Self {
        self.request_id = Some(id);
        self
    }
}

/// Outcome of the route stage: every cluster ranked best-first, plus the
/// work ranking them took.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// All clusters, best first.
    pub ranked_clusters: Vec<usize>,
    /// Routing score of each ranked cluster, aligned with
    /// `ranked_clusters` — the [`DifficultyEstimator`]'s input and the
    /// semantic cache's bucketing signal. Empty for [`Routing::Unranked`],
    /// which ranks without scoring.
    pub ranked_scores: Vec<f32>,
    /// Route-stage work.
    pub cost: SearchPhaseCost,
}

impl RouteOutcome {
    /// The best-ranked cluster, if any — the semantic cache's bucket key.
    pub fn top_cluster(&self) -> Option<usize> {
        self.ranked_clusters.first().copied()
    }
}

/// Orders `(cluster, score)` pairs best-first: descending score, ties
/// broken by ascending cluster id — the rank stage's deterministic
/// tiebreak, shared by every routing mode.
pub fn rank_by_score(scored: Vec<(usize, f32)>) -> Vec<usize> {
    rank_with_scores(scored).0
}

/// [`rank_by_score`], also returning the scores in rank order. NaN
/// scores rank last (the [`Neighbor`] order), so the comparison is a
/// total order whatever a hostile query made the sample scores.
pub fn rank_with_scores(mut scored: Vec<(usize, f32)>) -> (Vec<usize>, Vec<f32>) {
    scored.sort_by(|a, b| Neighbor::new(a.0 as u64, a.1).cmp(&Neighbor::new(b.0 as u64, b.1)));
    scored.into_iter().unzip()
}

/// The query-execution engine: a [`QueryPlan`] bound to a
/// [`ClusteredStore`]. Cheap to construct (two references' worth of
/// data); build one per call or hold one across a batch.
///
/// # Examples
///
/// ```
/// use hermes_core::{ClusteredStore, HermesConfig};
/// use hermes_core::exec::{Engine, QueryPlan};
/// use hermes_math::Mat;
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| vec![(i % 3) as f32 * 10.0, (i / 3) as f32 * 0.01])
///     .collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(3).with_clusters_to_search(2);
/// let store = ClusteredStore::build(&data, &cfg)?;
///
/// let engine = Engine::new(&store, QueryPlan::from_config(&cfg));
/// let out = engine.execute(&[10.0, 0.5])?;
/// assert_eq!(out.hits.len(), cfg.k);
/// assert_eq!(out.searched_clusters.len(), 2);
/// assert_eq!(out.stats.per_shard_scanned.len(), 2);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine<'s> {
    store: &'s ClusteredStore,
    plan: QueryPlan,
}

impl<'s> Engine<'s> {
    /// Binds `plan` to `store`.
    pub fn new(store: &'s ClusteredStore, plan: QueryPlan) -> Self {
        Engine { store, plan }
    }

    /// The engine running the store's configured plan — what every
    /// `ClusteredStore` convenience method constructs.
    pub fn for_store(store: &'s ClusteredStore) -> Self {
        Engine::new(store, QueryPlan::from_config(store.config()))
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// **Stage 1+2 (route):** ranks every cluster for `query` without
    /// deep-searching any — the one-query case of the group route behind
    /// [`Engine::route_batch`]. Records an `engine.route` span (args:
    /// `queries`, `scanned_codes`, `clusters`) when telemetry is enabled.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in cluster order.
    pub fn route(&self, query: &[f32]) -> Result<RouteOutcome, HermesError> {
        self.route_group(&[query], width_cap(self.plan.scatter_threads))
            .pop()
            .expect("one route per query")
    }

    /// Routes a group of queries **shard-major**: under document-sampling
    /// routing each shard samples the whole group in one
    /// [`VectorIndex::search_group`] (shards fan out on the pool, at most
    /// `cap` at once), then every query ranks its own per-shard scores.
    /// Each entry is exactly what routing that query alone returns; a
    /// query's error is its first failing shard in cluster order.
    fn route_group(
        &self,
        queries: &[&[f32]],
        cap: usize,
    ) -> Vec<Result<RouteOutcome, HermesError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let store = self.store;
        let n = store.num_clusters();
        let mut sp =
            hermes_trace::span_with(names::ENGINE_ROUTE, &[("queries", queries.len() as u64)]);
        let routes: Vec<Result<RouteOutcome, HermesError>> = match self.plan.routing {
            Routing::DocumentSampling => {
                // One cheap k=1 sample per (shard, query); samples
                // dominate single-query latency when m is small.
                let group: Vec<(&[f32], usize)> = queries
                    .iter()
                    .map(|&q| (q, self.plan.sample_nprobe))
                    .collect();
                let samples = fan_out(n, cap, |c| {
                    self.shard_scan(names::SHARD_SAMPLE, c, &group, 1)
                });
                (0..queries.len())
                    .map(|qi| {
                        let mut scored = Vec::with_capacity(n);
                        let mut scanned = 0;
                        for (c, shard) in samples.iter().enumerate() {
                            let (hits, stats) =
                                shard.results[qi].as_ref().map_err(|e| e.clone())?;
                            scored.push((c, hits.first().map_or(f32::NEG_INFINITY, |h| h.score)));
                            scanned += stats.scanned_codes;
                        }
                        let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
                        Ok(RouteOutcome {
                            ranked_clusters,
                            ranked_scores,
                            cost: SearchPhaseCost {
                                scanned_codes: scanned,
                                clusters_touched: n,
                            },
                        })
                    })
                    .collect()
            }
            Routing::CentroidOnly => {
                let metric = store.config().metric;
                queries
                    .iter()
                    .map(|query| {
                        let scored: Vec<(usize, f32)> = (0..n)
                            .map(|c| (c, metric.similarity(query, store.split_centroid(c))))
                            .collect();
                        let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
                        Ok(RouteOutcome {
                            ranked_clusters,
                            ranked_scores,
                            cost: SearchPhaseCost {
                                // Centroid ranking scans one vector per cluster.
                                scanned_codes: n,
                                clusters_touched: n,
                            },
                        })
                    })
                    .collect()
            }
            Routing::Unranked => queries
                .iter()
                .map(|_| {
                    Ok(RouteOutcome {
                        ranked_clusters: (0..n).collect(),
                        ranked_scores: Vec::new(),
                        cost: SearchPhaseCost::default(),
                    })
                })
                .collect(),
        };
        if sp.is_active() {
            let routed = routes.iter().flatten();
            sp.arg(
                "scanned_codes",
                routed.clone().map(|r| r.cost.scanned_codes as u64).sum(),
            );
            sp.arg(
                "clusters",
                routed.map(|r| r.cost.clusters_touched as u64).sum(),
            );
        }
        routes
    }

    /// One group scan of shard `c` under a `shard.sample` / `shard.deep`
    /// span whose args carry the group's size, its logical scanned codes
    /// (the per-query [`ScanStats`] sum) and the codes physically
    /// streamed — equal unless queries shared a list.
    fn shard_scan(
        &self,
        span: &'static str,
        c: usize,
        queries: &[(&[f32], usize)],
        k: usize,
    ) -> GroupScan {
        let mut sp = hermes_trace::span_with(span, &[("cluster", c as u64)]);
        let scan = self.store.shard(c).search_group(queries, k);
        if sp.is_active() {
            sp.arg("queries", queries.len() as u64);
            sp.arg(
                "scanned_codes",
                scan.results
                    .iter()
                    .flatten()
                    .map(|(_, s)| s.scanned_codes as u64)
                    .sum(),
            );
            sp.arg("streamed_codes", scan.streamed_codes as u64);
        }
        scan
    }

    /// **Stage 3 (scatter):** deep-searches `shards` concurrently on the
    /// shared pool, returning per-shard hits + scan stats in input order.
    /// Records an `engine.scatter` span (args: `shards`, `scanned_codes`)
    /// plus one `shard.deep` span per deep search — the latter land on the
    /// worker thread that stole the shard, so a Perfetto view shows the
    /// scatter fan-out shape directly.
    fn scatter(
        &self,
        query: &[f32],
        shards: &[usize],
        deep_nprobe: usize,
    ) -> Result<Vec<(Vec<Neighbor>, ScanStats)>, HermesError> {
        let mut sp = hermes_trace::span_with(names::ENGINE_SCATTER, &[("shards", shards.len() as u64)]);
        let cap = width_cap(self.plan.scatter_threads);
        let per_shard = fan_out(shards.len(), cap, |i| {
            self.shard_scan(
                names::SHARD_DEEP,
                shards[i],
                &[(query, deep_nprobe)],
                self.plan.k,
            )
            .results
            .pop()
            .expect("one result per query")
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        sp.arg(
            "scanned_codes",
            per_shard.iter().map(|(_, s)| s.scanned_codes as u64).sum(),
        );
        Ok(per_shard)
    }

    /// Executes the full pipeline for one query.
    ///
    /// When telemetry is enabled, the call nests `engine.execute` ▸
    /// `engine.route` / `engine.scatter` / `engine.gather` spans, with
    /// the outer span's end event carrying the `route_scanned` /
    /// `deep_scanned` work totals from [`SearchStats`].
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in stage order (route before
    /// scatter) and cluster order within a stage.
    pub fn execute(&self, query: &[f32]) -> Result<SearchOutcome, HermesError> {
        let mut query_span = hermes_trace::span(names::ENGINE_EXECUTE);
        if let Some(rid) = self.plan.request_id {
            query_span.arg(names::ARG_REQUEST_ID, rid);
        }
        let route = self.route(query)?;
        let outcome = self.scatter_gather(query, route)?;
        query_span.arg("route_scanned", outcome.stats.route.scanned_codes as u64);
        query_span.arg("deep_scanned", outcome.stats.deep.scanned_codes as u64);
        query_span.arg("deep_nprobe", outcome.stats.deep_nprobe as u64);
        Ok(outcome)
    }

    /// Executes the scatter + gather stages for a query that was already
    /// routed — the cache layer's entry point, which routes misses once
    /// (to bucket the semantic lookup) and must not pay the route stage
    /// twice. `execute(q)` ≡ `execute_routed(q, route(q)?)` bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in the query's rank order.
    pub fn execute_routed(
        &self,
        query: &[f32],
        route: RouteOutcome,
    ) -> Result<SearchOutcome, HermesError> {
        let mut query_span = hermes_trace::span(names::ENGINE_EXECUTE);
        if let Some(rid) = self.plan.request_id {
            query_span.arg(names::ARG_REQUEST_ID, rid);
        }
        let outcome = self.scatter_gather(query, route)?;
        query_span.arg("route_scanned", outcome.stats.route.scanned_codes as u64);
        query_span.arg("deep_scanned", outcome.stats.deep.scanned_codes as u64);
        query_span.arg("deep_nprobe", outcome.stats.deep_nprobe as u64);
        Ok(outcome)
    }

    /// The scatter + gather tail shared by [`Engine::execute`] and
    /// [`Engine::execute_routed`], resolving the per-query depth first.
    fn scatter_gather(
        &self,
        query: &[f32],
        route: RouteOutcome,
    ) -> Result<SearchOutcome, HermesError> {
        let (m_limit, deep_nprobe) = self.depth_for(&route);
        let m = m_limit.min(route.ranked_clusters.len());
        let per_shard = self.scatter(query, &route.ranked_clusters[..m], deep_nprobe)?;
        Ok(self.gather(route, per_shard, deep_nprobe))
    }

    /// Resolves the per-query depth: the [`DifficultyEstimator`]'s choice
    /// when the plan is adaptive and the route produced scores, the
    /// plan's fixed knobs otherwise. Returns `(clusters_to_search,
    /// deep_nprobe)`.
    fn depth_for(&self, route: &RouteOutcome) -> (usize, usize) {
        match self.plan.adaptive {
            Some(cfg) if !route.ranked_scores.is_empty() => {
                let choice = DifficultyEstimator::new(cfg).depth(&route.ranked_scores);
                (choice.clusters, choice.deep_nprobe)
            }
            _ => (self.plan.clusters_to_search, self.plan.deep_nprobe),
        }
    }

    /// Executes the pipeline for a whole batch, stealing queries from the
    /// shared pool cursor. `threads` caps the inter-query fan-out (`0` =
    /// full pool, `1` = inline sequential). Each stolen query's own
    /// scatter runs inline on its worker, so the two parallelism levels
    /// compose without oversubscription.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    pub fn execute_batch(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        if threads == 1 || queries.len() <= 1 {
            return queries.iter().map(|q| self.execute(q)).collect();
        }
        hermes_pool::Pool::global()
            .try_parallel_map_capped(queries, width_cap(threads), |q| self.execute(q))
    }

    /// **Stage 1+2 for a whole batch:** routes every query, shard-major —
    /// under document-sampling routing each shard samples the whole batch
    /// in one group scan, so queries probing the same inverted list of a
    /// shard share its codes. `threads` caps the fan-out across shards
    /// (`0` = full pool, `1` = inline sequential). The serving layer's
    /// batch former uses this to discover cluster overlap before
    /// committing to a scatter. Every route is bit-identical to
    /// [`Engine::route`] on that query alone.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query route error in input order.
    pub fn route_batch(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<RouteOutcome>, HermesError> {
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        self.route_group(&queries, width_cap(threads))
            .into_iter()
            .collect()
    }

    /// Executes the pipeline for a whole batch with the scatter stage
    /// **coalesced by cluster**: after routing every query, the deep
    /// searches are grouped so each distinct cluster is one pool task
    /// that serves all the queries whose top-m routing selected it in
    /// one [`VectorIndex::search_group`] — instead of `queries × m`
    /// independent searches, at most `distinct clusters` group scans
    /// stream each shared inverted list once for all the queries that
    /// probe it. This is the serving layer's dynamic-batch execution:
    /// queries with overlapping routing share shard work, disjoint
    /// queries still fan out across shards.
    ///
    /// Results are bit-identical to [`Engine::execute_batch`]: each
    /// `(query, cluster)` result of a group scan is the single-query
    /// scan's, per-query gather merges per-shard hits in the query's own
    /// rank order, and stats fold the same integers. Only the grouping —
    /// invisible to results — differs.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order; within one
    /// query, route errors precede scatter errors and scatter errors
    /// surface in the query's rank order — the same rule as
    /// [`Engine::execute_batch`].
    pub fn execute_coalesced(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        let cap = width_cap(threads);
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        // Keep per-query route errors for input-order propagation after
        // the scatter phase resolves.
        let routes = self.route_group(&queries, cap);
        self.coalesced_from_routes(&queries, routes, cap)
    }

    /// [`Engine::execute_coalesced`] for queries that were already routed
    /// — the cache layer's batch entry point (it routes misses once to
    /// bucket semantic lookups, then scatters only the true misses).
    /// Routes must be positionally aligned with `queries`;
    /// `execute_coalesced(qs, t)` ≡
    /// `execute_coalesced_routed(qs, route_batch(qs, t)?, t)` bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query scatter error in input order
    /// (rank order within a query), exactly like
    /// [`Engine::execute_coalesced`].
    pub fn execute_coalesced_routed(
        &self,
        queries: &[Vec<f32>],
        routes: Vec<RouteOutcome>,
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        assert_eq!(
            queries.len(),
            routes.len(),
            "one route per query, positionally aligned"
        );
        let queries: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        self.coalesced_from_routes(
            &queries,
            routes.into_iter().map(Ok).collect(),
            width_cap(threads),
        )
    }

    /// Shared scatter/gather tail of the two coalesced entry points.
    fn coalesced_from_routes(
        &self,
        queries: &[&[f32]],
        routes: Vec<Result<RouteOutcome, HermesError>>,
        cap: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        let mut batch_span =
            hermes_trace::span_with(names::ENGINE_COALESCED, &[("queries", queries.len() as u64)]);
        // Per-query depth (m, deep nProbe): fixed knobs or the adaptive
        // policy's per-route choice — resolved once, then honored by both
        // the group scatter and the per-query gather below. Query `qi`
        // deep-searches `searched(qi)`, the first m of its ranking.
        let depths: Vec<(usize, usize)> = routes
            .iter()
            .map(|r| match r {
                Ok(route) => {
                    let (m_limit, deep_nprobe) = self.depth_for(route);
                    (m_limit.min(route.ranked_clusters.len()), deep_nprobe)
                }
                Err(_) => (0, 0),
            })
            .collect();
        let searched = |qi: usize| -> &[usize] {
            match &routes[qi] {
                Ok(route) => &route.ranked_clusters[..depths[qi].0],
                Err(_) => &[],
            }
        };

        // Invert query → clusters into cluster → queries (ascending
        // cluster id, queries in input order within a cluster).
        let mut cluster_queries = vec![Vec::new(); self.store.num_clusters()];
        for qi in 0..queries.len() {
            for &c in searched(qi) {
                cluster_queries[c].push(qi);
            }
        }
        let groups: Vec<(usize, Vec<usize>)> = cluster_queries
            .into_iter()
            .enumerate()
            .filter(|(_, qis)| !qis.is_empty())
            .collect();
        batch_span.arg("distinct_clusters", groups.len() as u64);

        // One task per distinct cluster: one group scan serves every
        // query that routed to it, each at its own deep nProbe. Per-search
        // errors are carried to the assembly step so the *query* input
        // order, not the cluster order, decides which error wins.
        let per_group = fan_out(groups.len(), cap, |g| {
            let (c, qis) = &groups[g];
            let members: Vec<(&[f32], usize)> =
                qis.iter().map(|&qi| (queries[qi], depths[qi].1)).collect();
            self.shard_scan(names::SHARD_DEEP, *c, &members, self.plan.k)
                .results
        });

        // Re-slot each deep result into its query's rank-order position,
        // so gather sees exactly the per-shard sequence `execute` builds.
        let mut slots: Vec<Vec<Option<ScanResult>>> = depths
            .iter()
            .map(|&(m, _)| (0..m).map(|_| None).collect())
            .collect();
        for ((c, qis), results) in groups.iter().zip(per_group) {
            for (&qi, result) in qis.iter().zip(results) {
                let pos = searched(qi)
                    .iter()
                    .position(|cluster| cluster == c)
                    .expect("cluster group built from this query's searched list");
                slots[qi][pos] = Some(result);
            }
        }

        // Assemble outcomes in input order; the first failing query wins,
        // and within a query route errors precede rank-order scatter
        // errors — matching execute_batch exactly.
        let mut outcomes = Vec::with_capacity(queries.len());
        for ((route, query_slots), (m, deep_nprobe)) in routes.into_iter().zip(slots).zip(depths) {
            let route = route?;
            let mut per_shard = Vec::with_capacity(m);
            for slot in query_slots {
                per_shard.push(slot.expect("every searched cluster was scattered")?);
            }
            outcomes.push(self.gather(route, per_shard, deep_nprobe));
        }
        batch_span.arg(
            "deep_searches",
            outcomes
                .iter()
                .map(|o| o.searched_clusters.len() as u64)
                .sum(),
        );
        Ok(outcomes)
    }

    /// **Stage 4 (gather):** merges per-shard hits (already in the
    /// query's rank order: shard `i` is `route.ranked_clusters[i]`) into
    /// the final top-k and folds the stats — shared by
    /// [`Engine::execute`] and [`Engine::execute_coalesced`] so the two
    /// paths cannot drift.
    fn gather(
        &self,
        route: RouteOutcome,
        per_shard: Vec<(Vec<Neighbor>, ScanStats)>,
        deep_nprobe: usize,
    ) -> SearchOutcome {
        let mut gather_span = hermes_trace::span(names::ENGINE_GATHER);
        let hits = merge_topk(per_shard.iter().map(|(hits, _)| hits), self.plan.k);
        let per_shard_scanned: Vec<usize> =
            per_shard.iter().map(|(_, s)| s.scanned_codes).collect();
        let stats = SearchStats {
            route: route.cost,
            deep: SearchPhaseCost {
                scanned_codes: per_shard_scanned.iter().sum(),
                clusters_touched: per_shard.len(),
            },
            gather_candidates: per_shard.iter().map(|(hits, _)| hits.len()).sum(),
            per_shard_scanned,
            deep_nprobe,
        };
        gather_span.arg("candidates", stats.gather_candidates as u64);
        drop(gather_span);
        SearchOutcome {
            hits,
            searched_clusters: route.ranked_clusters[..per_shard.len()].to_vec(),
            ranked_clusters: route.ranked_clusters,
            stats,
        }
    }

    /// Executes the batch and folds each query's deep-searched clusters
    /// into a per-cluster access count — the trace of Figures 13/18 and
    /// the DVFS study's input. Accumulation is sequential in input order,
    /// so counts are deterministic for any `threads`.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    pub fn access_histogram(
        &self,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Result<Vec<usize>, HermesError> {
        let outcomes = self.execute_batch(queries, threads)?;
        let mut counts = vec![0usize; self.store.num_clusters()];
        for out in outcomes {
            for c in out.searched_clusters {
                counts[c] += 1;
            }
        }
        Ok(counts)
    }
}

/// A `threads` knob as a pool width: `0` means the full pool.
fn width_cap(threads: usize) -> usize {
    if threads == 0 {
        usize::MAX
    } else {
        threads
    }
}

/// Runs `f` over `0..n` on the shared pool, at most `cap` at once,
/// results in index order. Inside a pool worker (i.e. within a batch)
/// this runs inline, so a nested fan-out never re-enters the pool.
fn fan_out<U, F>(n: usize, cap: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if cap == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let indices: Vec<usize> = (0..n).collect();
    hermes_pool::Pool::global().parallel_map_capped(&indices, cap, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};

    fn setup() -> (Corpus, QuerySet) {
        let corpus = Corpus::generate(CorpusSpec::new(900, 16, 6).with_seed(41));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(12).with_seed(42));
        (corpus, queries)
    }

    #[test]
    fn rank_by_score_orders_desc_with_id_tiebreak() {
        let ranked = rank_by_score(vec![(0, 1.0), (1, 3.0), (2, 1.0), (3, 2.0)]);
        assert_eq!(ranked, vec![1, 3, 0, 2]);
    }

    #[test]
    fn rank_by_score_handles_nan_without_panicking() {
        let ranked = rank_by_score(vec![(0, f32::NAN), (1, 1.0), (2, f32::NAN)]);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn plan_from_config_copies_knobs() {
        let cfg = HermesConfig::new(7)
            .with_clusters_to_search(2)
            .with_sample_nprobe(4)
            .with_deep_nprobe(32)
            .with_k(9);
        let plan = QueryPlan::from_config(&cfg);
        assert_eq!(plan.clusters_to_search, 2);
        assert_eq!(plan.sample_nprobe, 4);
        assert_eq!(plan.deep_nprobe, 32);
        assert_eq!(plan.k, 9);
        assert_eq!(plan.scatter_threads, 0);
    }

    #[test]
    fn exhaustive_plan_covers_every_cluster_unranked() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::new(&store, QueryPlan::exhaustive(&cfg));
        let out = engine.execute(queries.embeddings().row(0)).unwrap();
        assert_eq!(out.ranked_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.searched_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.stats.route, SearchPhaseCost::default());
    }

    #[test]
    fn scatter_width_does_not_change_results() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let plan = QueryPlan::from_config(&cfg);
        for q in queries.embeddings().iter_rows() {
            let inline = Engine::new(&store, plan.with_scatter_threads(1))
                .execute(q)
                .unwrap();
            for threads in [0usize, 2, 64] {
                let scattered = Engine::new(&store, plan.with_scatter_threads(threads))
                    .execute(q)
                    .unwrap();
                assert_eq!(inline, scattered, "scatter_threads={threads}");
            }
        }
    }

    #[test]
    fn coalesced_matches_per_query_execution_every_width() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let reference = engine.execute_batch(&batch, 1).unwrap();
        for threads in [0usize, 1, 2, 64] {
            let coalesced = engine.execute_coalesced(&batch, threads).unwrap();
            assert_eq!(coalesced, reference, "threads={threads}");
        }
    }

    #[test]
    fn coalesced_matches_for_every_routing_mode() {
        let (corpus, queries) = setup();
        let batch = queries.to_vecs();
        for routing in [
            Routing::DocumentSampling,
            Routing::CentroidOnly,
            Routing::Unranked,
        ] {
            let cfg = HermesConfig::new(6)
                .with_seed(1)
                .with_clusters_to_search(3)
                .with_routing(routing);
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            let reference = engine.execute_batch(&batch, 1).unwrap();
            let coalesced = engine.execute_coalesced(&batch, 0).unwrap();
            assert_eq!(coalesced, reference, "routing={routing:?}");
        }
    }

    #[test]
    fn coalesced_single_and_empty_batches() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(2);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let one = vec![queries.embeddings().row(0).to_vec()];
        assert_eq!(
            engine.execute_coalesced(&one, 0).unwrap(),
            engine.execute_batch(&one, 1).unwrap()
        );
        assert!(engine.execute_coalesced(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn coalesced_reports_first_error_in_input_order() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        // A wrong-dimension query fails at the route stage; put good
        // queries around it so ordering matters.
        let mut batch = queries.to_vecs();
        batch.insert(2, vec![1.0; 3]);
        batch.insert(5, vec![2.0; 5]);
        let expected = engine.execute_batch(&batch, 1).unwrap_err();
        for threads in [0usize, 1, 4] {
            let got = engine.execute_coalesced(&batch, threads).unwrap_err();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn route_batch_matches_sequential_route() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let sequential: Vec<RouteOutcome> =
            batch.iter().map(|q| engine.route(q).unwrap()).collect();
        for threads in [0usize, 1, 4] {
            assert_eq!(
                engine.route_batch(&batch, threads).unwrap(),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn execute_routed_matches_execute() {
        let (corpus, queries) = setup();
        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 16, 128))] {
            let mut cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
            cfg.adaptive = adaptive;
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            for q in queries.embeddings().iter_rows() {
                let route = engine.route(q).unwrap();
                assert_eq!(
                    engine.execute_routed(q, route).unwrap(),
                    engine.execute(q).unwrap(),
                    "adaptive={adaptive:?}"
                );
            }
        }
    }

    #[test]
    fn coalesced_routed_matches_coalesced() {
        let (corpus, queries) = setup();
        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 16, 128))] {
            let mut cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
            cfg.adaptive = adaptive;
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            let batch = queries.to_vecs();
            for threads in [0usize, 1, 4] {
                let routes = engine.route_batch(&batch, threads).unwrap();
                assert_eq!(
                    engine
                        .execute_coalesced_routed(&batch, routes, threads)
                        .unwrap(),
                    engine.execute_coalesced(&batch, threads).unwrap(),
                    "adaptive={adaptive:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn adaptive_depth_recorded_and_bounded() {
        let (corpus, queries) = setup();
        let adaptive = AdaptiveConfig::new(1, 4, 16, 96);
        let cfg = HermesConfig::new(6)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_adaptive(adaptive);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        for q in queries.embeddings().iter_rows() {
            let out = engine.execute(q).unwrap();
            let m = out.searched_clusters.len();
            assert!((1..=4).contains(&m), "m={m}");
            assert!(
                (16..=96).contains(&out.stats.deep_nprobe),
                "nprobe={}",
                out.stats.deep_nprobe
            );
            // The recorded depth matches a fresh estimate of the same route.
            let route = engine.route(q).unwrap();
            let choice = DifficultyEstimator::new(adaptive).depth(&route.ranked_scores);
            assert_eq!(out.stats.deep_nprobe, choice.deep_nprobe);
            assert_eq!(m, choice.clusters.min(store.num_clusters()));
        }
    }

    #[test]
    fn adaptive_paths_agree_at_every_width() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_adaptive(AdaptiveConfig::new(1, 5, 8, 128));
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let reference = engine.execute_batch(&batch, 1).unwrap();
        for threads in [0usize, 2, 64] {
            assert_eq!(engine.execute_batch(&batch, threads).unwrap(), reference);
            assert_eq!(engine.execute_coalesced(&batch, threads).unwrap(), reference);
        }
    }

    #[test]
    fn adaptive_without_route_scores_falls_back_to_fixed_knobs() {
        let (corpus, queries) = setup();
        let fixed = HermesConfig::new(6)
            .with_seed(1)
            .with_routing(Routing::Unranked)
            .with_clusters_to_search(3);
        let adaptive = fixed.with_adaptive(AdaptiveConfig::new(1, 5, 8, 64));
        let store = ClusteredStore::build(corpus.embeddings(), &fixed).unwrap();
        let out_fixed = Engine::new(&store, QueryPlan::from_config(&fixed))
            .execute(queries.embeddings().row(0))
            .unwrap();
        let out_adaptive = Engine::new(&store, QueryPlan::from_config(&adaptive))
            .execute(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out_fixed, out_adaptive);
        assert_eq!(out_adaptive.stats.deep_nprobe, fixed.deep_nprobe);
    }

    #[test]
    fn fixed_plan_records_plan_nprobe() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_deep_nprobe(64);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store)
            .execute(queries.embeddings().row(0))
            .unwrap();
        assert_eq!(out.stats.deep_nprobe, 64);
    }

    #[test]
    fn stats_fold_is_consistent() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = Engine::for_store(&store)
            .execute(queries.embeddings().row(2))
            .unwrap();
        assert_eq!(out.stats.per_shard_scanned.len(), 3);
        assert_eq!(
            out.stats.deep.scanned_codes,
            out.stats.per_shard_scanned.iter().sum::<usize>()
        );
        assert_eq!(out.stats.deep.clusters_touched, 3);
        assert!(out.stats.gather_candidates >= out.hits.len());
        assert_eq!(
            out.stats.total_scanned_codes(),
            out.stats.route.scanned_codes + out.stats.deep.scanned_codes
        );
    }
}
