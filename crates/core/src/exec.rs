//! The query-execution engine: two stages over a borrowed batch.
//!
//! Every search in the workspace — the [`ClusteredStore`] convenience
//! methods, the `hermes-rag` retrievers, the serving backends — is one
//! [`Engine`] running one [`HermesConfig`]'s query-time knobs (Table 2's
//! sample `nProbe`, deep `nProbe`, `m` and `k`) over a store. The paper's
//! sample → rank → deep → rerank pipeline (Section 4.2) runs as two stage
//! functions, both generic over `Q: AsRef<[f32]>` so owned
//! (`&[Vec<f32>]`) and borrowed (`&[&[f32]]`) batches call them without a
//! conversion:
//!
//! ```text
//!   batch ──▶ ROUTE   Engine::route_batch: every shard samples the
//!                     whole batch in one group scan (or its centroid is
//!                     scored); each query ranks the shards best-first
//!         ──▶ DEEP    Engine::deep_batch: per-query depth, the coarse
//!                     keys of every distinct top-m shard for the queries
//!                     routed to it, each query's probe counts cut from
//!                     its keys, one group scan per shard (scatter), then
//!                     a per-query merge_topk in rank order (gather)
//! ```
//!
//! **The probe budget.** Under [`ProbeAllocation::Pooled`] (the default)
//! a query does not probe `deep_nprobe` lists in each of its `m` shards.
//! All shards' coarse centroids live in one embedding space, so the
//! `(shard, list)` pairs of the query's routed shards are ranked together
//! by the coarse L2 distance the scan computes anyway, and the nearest
//! `B` are probed, where `B = share₀ + Σ_{r≥1} ⌈share_r / 2⌉` and
//! `share_r = min(deep_nprobe, nlist_r)`: the leader brings a full share
//! to the pool, every further routed shard half a share — `(m + 1) / 2`
//! shares where the paper spends `m`. Halves, because that is the
//! smallest budget that never starves the leader (it can always take its
//! own full share) and measured recall still rises (the leader holds ⅔
//! of the answer and is depth-bound; see [`ProbeAllocation`]). Within a
//! shard the pooled choice is a prefix of that shard's own distance
//! order, so it reaches the scan as a plain per-query probe count, zero
//! included: a shard none of whose lists make the cut stays in
//! `searched_clusters` and is not scanned. Ties at the cut break by
//! (distance bits, rank position, list index), so the probe set is a
//! function of the query and the store alone.
//!
//! A single query is a batch of one: [`Engine::route`],
//! [`Engine::execute`] and [`Engine::execute_coalesced`] are compositions
//! of the two stages, and the line between the two calls is where a
//! caller inspects or edits the routed batch (the serving layer probes
//! its cache there). The engine reaches a shard through one scan,
//! [`VectorIndex::search_group`] — for the deep stage its two halves,
//! [`IvfIndex::coarse_keys`] and [`IvfIndex::search_keyed`]: a group of
//! queries, each at its own probe count, answered exactly as if each
//! were searched alone. What a batch shares is the pass over each
//! shard's centroid table, the per-shard fan-out and the scan scratch;
//! each query then streams its own lists.
//!
//! **Parallelism.** Both stages fan shards out on [`hermes_pool::Pool`],
//! each shard serving its whole query group (`threads` caps the width:
//! `0` = full pool, `1` = inline sequential; a lone [`Engine::execute`]
//! or [`Engine::route`] uses the full pool). [`Engine::execute_batch`] is
//! the other axis — whole queries stolen from the pool cursor, the paper's
//! query-major batch mode; the pool's nested-submission rule runs each
//! stolen query's shard fan-out inline, so there is never more than one
//! level of stealing.
//!
//! **Determinism.** Results are bit-identical for every routing mode,
//! codec, batch composition and thread count: tasks write into their
//! input-order slot, costs are integer sums over the same scans, and the
//! first error in input order is the one reported
//! (`tests/engine_equivalence.rs` compares every path with an independent
//! sequential oracle). Work accounting is recorded as the stages run:
//! shard scans return [`hermes_index::ScanStats`] themselves.
//!
//! **Telemetry.** With `hermes_trace::enable`, spans nest as
//! `engine.execute` ▸ `engine.route` ▸ `engine.scatter` ▸ one
//! `engine.gather` per query, plus a `shard.sample` / `shard.deep` span
//! per group scan on whichever worker ran it (args: group size, scanned
//! codes, rescored codes). Callers that run the two
//! stages themselves get the same spans without the `engine.execute`
//! envelope. Disabled, every site is one relaxed atomic load.

use hermes_index::{CoarseKeys, GroupScan, IvfIndex, ScanResult, ScanStats, VectorIndex};
use hermes_kmeans::{probe_key_centroid, probe_key_distance};
use hermes_trace::names;
use hermes_math::{topk::merge_topk, Neighbor};

use crate::adaptive::DifficultyEstimator;
use crate::config::{HermesConfig, ProbeAllocation, Routing};
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
    /// Scatter-stage work, summed over the deep-searched shards;
    /// `clusters_touched` counts the shards actually scanned (a routed
    /// shard with no share of a pooled budget is not).
    pub deep: SearchPhaseCost,
    /// What each deep-searched shard did, aligned with
    /// `SearchOutcome::searched_clusters`: codes scanned — the input for
    /// per-shard deadline and straggler analyses — and inverted lists
    /// probed: `deep_nprobe` (capped at the shard's list count) everywhere
    /// under [`ProbeAllocation::PerShard`], the shard's cut of the
    /// query's budget under [`ProbeAllocation::Pooled`]; both `0` for a
    /// shard left unscanned. Read through [`Self::per_shard_scanned`] and
    /// [`Self::per_shard_probed`]. One vector, not one per quantity: a
    /// cached outcome is cloned on every exact hit, and that path is one
    /// allocation from being measurably slower.
    pub per_shard: Vec<ScanStats>,
    /// Candidate hits the gather stage merged into the final top-k.
    pub gather_candidates: usize,
    /// Deep-search `nProbe` this query ran with — the config's fixed
    /// knob, or the [`DifficultyEstimator`]'s per-query choice when the
    /// config carries an [`AdaptiveConfig`](crate::AdaptiveConfig): the
    /// depth of each shard per shard, the share the budget was computed
    /// from when pooled. Together with `searched_clusters` this records
    /// the chosen adaptive depth.
    pub deep_nprobe: usize,
}

impl SearchStats {
    /// Codes scanned across all stages — the single work number the
    /// latency/energy models consume.
    pub fn total_scanned_codes(&self) -> usize {
        self.route.scanned_codes + self.deep.scanned_codes
    }

    /// Codes scanned by each deep-searched shard, in rank order.
    pub fn per_shard_scanned(&self) -> impl Iterator<Item = usize> + '_ {
        self.per_shard.iter().map(|shard| shard.scanned_codes)
    }

    /// Inverted lists probed in each deep-searched shard, in rank order.
    pub fn per_shard_probed(&self) -> impl Iterator<Item = usize> + '_ {
        self.per_shard.iter().map(|shard| shard.probed_partitions)
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

/// The query-execution engine: a [`HermesConfig`]'s query-time knobs
/// bound to a [`ClusteredStore`]. Cheap to construct (two references'
/// worth of data); build one per call or hold one across a batch.
///
/// # Examples
///
/// ```
/// use hermes_core::{ClusteredStore, HermesConfig};
/// use hermes_core::exec::Engine;
/// use hermes_math::Mat;
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| vec![(i % 3) as f32 * 10.0, (i / 3) as f32 * 0.01])
///     .collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(3).with_clusters_to_search(2);
/// let store = ClusteredStore::build(&data, &cfg)?;
///
/// let engine = Engine::new(&store, &cfg);
/// let out = engine.execute(&[10.0, 0.5])?;
/// assert_eq!(out.hits.len(), cfg.k);
/// assert_eq!(out.searched_clusters.len(), 2);
/// assert_eq!(out.stats.per_shard.len(), 2);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine<'s> {
    store: &'s ClusteredStore,
    config: &'s HermesConfig,
}

impl<'s> Engine<'s> {
    /// Binds `config`'s query-time knobs — routing, sample and deep
    /// `nProbe`, probe allocation, `clusters_to_search`, `k`, adaptive
    /// depth — to `store`. The build-time fields (cluster count, split,
    /// codec, metric) are the store's own and are not read from `config`.
    pub fn new(store: &'s ClusteredStore, config: &'s HermesConfig) -> Self {
        Engine { store, config }
    }

    /// The engine running the store's own configuration — what every
    /// `ClusteredStore` convenience method constructs.
    pub fn for_store(store: &'s ClusteredStore) -> Self {
        Engine::new(store, store.config())
    }

    /// Ranks every cluster for `query` without deep-searching any:
    /// [`Engine::route_batch`] on a batch of one.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in cluster order.
    pub fn route(&self, query: &[f32]) -> Result<RouteOutcome, HermesError> {
        self.route_batch(&[query], 0).map(only)
    }

    /// Executes the full pipeline for one query:
    /// [`Engine::execute_coalesced`] on a batch of one, fanning its
    /// shards out over the full pool.
    ///
    /// # Errors
    ///
    /// Propagates the first shard error in stage order (route before
    /// deep) and cluster order within a stage.
    pub fn execute(&self, query: &[f32]) -> Result<SearchOutcome, HermesError> {
        self.execute_coalesced(&[query], 0).map(only)
    }

    /// Executes the pipeline **query-major**: whole queries are stolen
    /// from the shared pool cursor, each running [`Engine::execute`]
    /// inline on its worker. `threads` caps the fan-out (`0` = full pool,
    /// `1` = inline sequential).
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

    /// Executes the pipeline **shard-major** — [`Engine::route_batch`]
    /// then [`Engine::deep_batch`] — so queries with overlapping routing
    /// share shard work and disjoint ones still fan out across shards.
    /// Bit-identical to [`Engine::execute_batch`]; only the grouping,
    /// invisible to results, differs. Under telemetry the two stages
    /// nest in one `engine.execute` span carrying the batch's
    /// `route_scanned` / `deep_scanned` totals.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order, route before
    /// deep. (A query that samples every shard cleanly cannot fail a deep
    /// search of some of them, and the other routing modes never fail, so
    /// stage order never reorders two queries' errors.)
    pub fn execute_coalesced<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        let mut sp = hermes_trace::span(names::ENGINE_EXECUTE);
        let routes = self.route_batch(queries, threads)?;
        let outcomes = self.deep_batch(queries, routes, threads)?;
        if sp.is_active() {
            let stats = outcomes.iter().map(|o| &o.stats);
            sp.arg(
                "route_scanned",
                stats.clone().map(|s| s.route.scanned_codes as u64).sum(),
            );
            sp.arg(
                "deep_scanned",
                stats.clone().map(|s| s.deep.scanned_codes as u64).sum(),
            );
            sp.arg(
                "deep_nprobe",
                stats.map(|s| s.deep_nprobe as u64).max().unwrap_or(0),
            );
        }
        Ok(outcomes)
    }

    /// **Route stage:** ranks every cluster for every query,
    /// shard-major — under document-sampling routing each shard samples
    /// the whole batch in one [`VectorIndex::search_group`] (shards fan
    /// out on the pool, at most `threads` at once), so queries probing
    /// the same inverted list share its codes; then each query ranks its
    /// own per-shard scores. Every route is exactly what routing that
    /// query alone returns. Records an `engine.route` span (args:
    /// `queries`, `scanned_codes`, `clusters`).
    ///
    /// # Errors
    ///
    /// Propagates the first failing query in input order; a query's
    /// error is its first failing shard in cluster order.
    pub fn route_batch<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        threads: usize,
    ) -> Result<Vec<RouteOutcome>, HermesError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let store = self.store;
        let n = store.num_clusters();
        let mut sp =
            hermes_trace::span_with(names::ENGINE_ROUTE, &[("queries", queries.len() as u64)]);
        let ranked = |scored: Vec<(usize, f32)>, scanned_codes: usize| {
            let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
            RouteOutcome {
                ranked_clusters,
                ranked_scores,
                cost: SearchPhaseCost {
                    scanned_codes,
                    clusters_touched: n,
                },
            }
        };
        let routes: Vec<RouteOutcome> = match self.config.routing {
            Routing::DocumentSampling => {
                // One cheap k=1 sample per (shard, query); samples
                // dominate single-query latency when m is small.
                let group: Vec<(&[f32], usize)> = queries
                    .iter()
                    .map(|q| (q.as_ref(), self.config.sample_nprobe))
                    .collect();
                let samples = fan_out(n, width_cap(threads), |c| {
                    let scan = |shard: &IvfIndex| shard.search_group(&group, 1);
                    self.shard_scan(names::SHARD_SAMPLE, c, group.len(), scan)
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
                        Ok(ranked(scored, scanned))
                    })
                    .collect::<Result<_, HermesError>>()?
            }
            Routing::CentroidOnly => {
                let metric = store.config().metric;
                queries
                    .iter()
                    .map(|q| {
                        let scored = (0..n)
                            .map(|c| (c, metric.similarity(q.as_ref(), store.split_centroid(c))))
                            .collect();
                        // Centroid ranking scans one vector per cluster.
                        ranked(scored, n)
                    })
                    .collect()
            }
            Routing::Unranked => queries
                .iter()
                .map(|_| RouteOutcome {
                    ranked_clusters: (0..n).collect(),
                    ranked_scores: Vec::new(),
                    cost: SearchPhaseCost::default(),
                })
                .collect(),
        };
        if sp.is_active() {
            let costs = routes.iter().map(|r| r.cost);
            sp.arg(
                "scanned_codes",
                costs.clone().map(|c| c.scanned_codes as u64).sum(),
            );
            sp.arg("clusters", costs.map(|c| c.clusters_touched as u64).sum());
        }
        Ok(routes)
    }

    /// **Deep stage** over queries that were already routed (`routes[i]`
    /// is `queries[i]`'s): resolves each query's depth, takes the coarse
    /// keys of every distinct top-m cluster **once** for all the queries
    /// routed to it, cuts each query's probe counts from its keys (see
    /// the module docs: its full `deep_nprobe` in every shard, or its
    /// share of the query's pooled budget), deep-searches every cluster
    /// once — one pool task and one [`IvfIndex::search_keyed`] per
    /// cluster, each query at its own count — and merges each query's
    /// per-shard hits in its own rank order.
    /// `execute_coalesced(qs, t)` ≡ `deep_batch(qs, route_batch(qs, t)?,
    /// t)` bit for bit; callers that route first (to bucket a cache
    /// lookup, say) pass only the queries they still need. Records an
    /// `engine.scatter` span (args: `queries`, `distinct_clusters`,
    /// `deep_searches`, `probed_lists`) around the group scans and one
    /// `engine.gather` span (arg: `candidates`) per query.
    ///
    /// # Errors
    ///
    /// [`HermesError::InvalidConfig`] when `routes` does not pair up with
    /// `queries` or names a cluster the store does not have; otherwise
    /// the first failing query in input order, its error the first
    /// failing shard in its rank order.
    pub fn deep_batch<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        routes: Vec<RouteOutcome>,
        threads: usize,
    ) -> Result<Vec<SearchOutcome>, HermesError> {
        if queries.len() != routes.len() {
            return Err(HermesError::InvalidConfig(format!(
                "deep stage got {} queries but {} routes",
                queries.len(),
                routes.len()
            )));
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut sp =
            hermes_trace::span_with(names::ENGINE_SCATTER, &[("queries", queries.len() as u64)]);
        // Query `qi` deep-searches the first `m` clusters of its ranking
        // at `deep_nprobe`: the fixed knobs, or the adaptive policy's
        // choice for its route.
        let depths: Vec<(usize, usize)> = routes
            .iter()
            .map(|route| {
                let (m, deep_nprobe) = self.depth_for(route);
                (m.min(route.ranked_clusters.len()), deep_nprobe)
            })
            .collect();

        // Invert query → clusters into cluster → `(query, rank position)`
        // members: ascending cluster id, input order within a cluster.
        let mut members = vec![Vec::new(); self.store.num_clusters()];
        for (qi, (route, &(m, _))) in routes.iter().zip(&depths).enumerate() {
            for (pos, &c) in route.ranked_clusters[..m].iter().enumerate() {
                members
                    .get_mut(c)
                    .ok_or_else(|| {
                        HermesError::InvalidConfig(format!("route names unknown cluster {c}"))
                    })?
                    .push((qi, pos));
            }
        }
        let groups: Vec<(usize, Vec<(usize, usize)>)> = members
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .collect();
        sp.arg("distinct_clusters", groups.len() as u64);
        sp.arg("deep_searches", depths.iter().map(|&(m, _)| m as u64).sum());

        // Each routed shard's centroid table is streamed once, here, for
        // its whole group; the scans below get the keys back.
        let cap = width_cap(threads);
        let keys: Vec<CoarseKeys> = fan_out(groups.len(), cap, |g| {
            let (c, members) = &groups[g];
            let queries = members.iter().map(|&(qi, _)| queries[qi].as_ref());
            self.store.shard(*c).coarse_keys(queries)
        });
        // `at[qi][pos]` is where query `qi` sits in its rank-`pos` shard:
        // `(group, member)`. Each `(query, position)` is in exactly one
        // group, so every placeholder is overwritten.
        let mut at: Vec<Vec<(usize, usize)>> =
            depths.iter().map(|&(m, _)| vec![(0, 0); m]).collect();
        for (g, (_, members)) in groups.iter().enumerate() {
            for (j, &(qi, pos)) in members.iter().enumerate() {
                at[qi][pos] = (g, j);
            }
        }
        // `probes[qi][pos]`: how many lists query `qi` probes there.
        let mut pool = Vec::new();
        let probes: Vec<Vec<usize>> = (routes.iter().zip(&depths).zip(&at))
            .map(|((route, &(_, deep_nprobe)), at)| {
                let ranked: Result<Vec<&[u64]>, _> =
                    at.iter().map(|&(g, j)| keys[g].query(j)).collect();
                // A query whose keys failed somewhere fails its scan
                // there the same way; its counts are never looked at.
                let Ok(ranked) = ranked else {
                    return vec![0; at.len()];
                };
                // A route without scores ranked nothing: no leader.
                if self.config.probe_allocation == ProbeAllocation::Pooled
                    && !route.ranked_scores.is_empty()
                {
                    pooled_probes(&ranked, deep_nprobe, &mut pool)
                } else {
                    ranked.iter().map(|keys| full_share(deep_nprobe, keys)).collect()
                }
            })
            .collect();

        let scans = fan_out(groups.len(), cap, |g| {
            let (c, members) = &groups[g];
            let group: Vec<(&[f32], usize)> = members
                .iter()
                .map(|&(qi, pos)| (queries[qi].as_ref(), probes[qi][pos]))
                .collect();
            let scan = |shard: &IvfIndex| shard.search_keyed(&group, &keys[g], self.config.k);
            self.shard_scan(names::SHARD_DEEP, *c, group.len(), scan)
                .results
        });
        if sp.is_active() {
            let probed = scans.iter().flatten().flatten();
            sp.arg(
                "probed_lists",
                probed.map(|(_, s)| s.probed_partitions as u64).sum(),
            );
        }
        drop(sp);

        // Re-slot every result at its query's rank position, so gather
        // sees the per-shard sequence a lone query would build.
        let mut per_query: Vec<Vec<ScanResult>> = depths
            .iter()
            .map(|&(m, _)| (0..m).map(|_| Ok(Default::default())).collect())
            .collect();
        for ((_, members), results) in groups.iter().zip(scans) {
            for (&(qi, pos), result) in members.iter().zip(results) {
                per_query[qi][pos] = result;
            }
        }

        // Per-search errors were carried this far so that query input
        // order, not cluster order, decides which one is reported.
        routes
            .into_iter()
            .zip(per_query)
            .zip(depths)
            .map(|((route, results), (_, deep_nprobe))| {
                let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
                Ok(self.gather(route, per_shard, deep_nprobe))
            })
            .collect()
    }

    /// One group scan of shard `c` under a `shard.sample` / `shard.deep`
    /// span whose args carry the group's size, its scanned codes (the
    /// per-query [`ScanStats`] sum) and how many of those the exact
    /// kernel rescored after the scan's bound filter.
    fn shard_scan(
        &self,
        span: &'static str,
        c: usize,
        queries: usize,
        scan: impl FnOnce(&IvfIndex) -> GroupScan,
    ) -> GroupScan {
        let mut sp = hermes_trace::span_with(span, &[(names::ARG_CLUSTER, c as u64)]);
        let scan = scan(self.store.shard(c));
        if sp.is_active() {
            sp.arg("queries", queries as u64);
            sp.arg(
                "scanned_codes",
                scan.results
                    .iter()
                    .flatten()
                    .map(|(_, s)| s.scanned_codes as u64)
                    .sum(),
            );
            sp.arg("rescored_codes", scan.rescored_codes as u64);
        }
        scan
    }

    /// Resolves the per-query depth: the [`DifficultyEstimator`]'s choice
    /// when the config is adaptive and the route produced scores, its
    /// fixed knobs otherwise. Returns `(clusters_to_search,
    /// deep_nprobe)`.
    fn depth_for(&self, route: &RouteOutcome) -> (usize, usize) {
        match self.config.adaptive {
            Some(cfg) if !route.ranked_scores.is_empty() => {
                let choice = DifficultyEstimator::new(cfg).depth(&route.ranked_scores);
                (choice.clusters, choice.deep_nprobe)
            }
            _ => (self.config.clusters_to_search, self.config.deep_nprobe),
        }
    }

    /// Merges one query's per-shard hits (shard `i` is
    /// `route.ranked_clusters[i]`) into the final top-k and folds the
    /// stats.
    fn gather(
        &self,
        route: RouteOutcome,
        per_shard: Vec<(Vec<Neighbor>, ScanStats)>,
        deep_nprobe: usize,
    ) -> SearchOutcome {
        let mut gather_span = hermes_trace::span(names::ENGINE_GATHER);
        let hits = merge_topk(per_shard.iter().map(|(hits, _)| hits), self.config.k);
        let stats = SearchStats {
            route: route.cost,
            deep: SearchPhaseCost {
                scanned_codes: per_shard.iter().map(|(_, s)| s.scanned_codes).sum(),
                clusters_touched: per_shard
                    .iter()
                    .filter(|(_, s)| s.probed_partitions > 0)
                    .count(),
            },
            gather_candidates: per_shard.iter().map(|(hits, _)| hits.len()).sum(),
            per_shard: per_shard.iter().map(|&(_, stats)| stats).collect(),
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
}

/// The lists a shard with these coarse `keys` probes at `deep_nprobe` on
/// its own: at least 1, at most all it has.
fn full_share(deep_nprobe: usize, keys: &[u64]) -> usize {
    deep_nprobe.clamp(1, keys.len())
}

/// One query's probe counts under [`ProbeAllocation::Pooled`]:
/// `ranked[r]` are its coarse keys in its rank-`r` routed shard. The
/// budget is a [`full_share`] for the leader plus half a share, rounded
/// up, for every further shard; it goes to the nearest
/// `(shard, list)` pairs in (distance bits, rank position, list index)
/// order — a total order, so the counts depend on nothing but the keys.
/// `pool` is scratch.
fn pooled_probes(ranked: &[&[u64]], deep_nprobe: usize, pool: &mut Vec<u128>) -> Vec<usize> {
    let shares = ranked.iter().map(|keys| full_share(deep_nprobe, keys));
    let budget: usize = shares
        .enumerate()
        .map(|(r, share)| if r == 0 { share } else { share.div_ceil(2) })
        .sum();
    pool.clear();
    for (r, keys) in ranked.iter().enumerate() {
        pool.extend(keys.iter().map(|&key| {
            u128::from(probe_key_distance(key)) << 64
                | (r as u128) << 32
                | probe_key_centroid(key) as u128
        }));
    }
    // `budget >= 1`: the leader's share is.
    if budget < pool.len() {
        pool.select_nth_unstable(budget - 1);
        pool.truncate(budget);
    }
    let mut probes = vec![0; ranked.len()];
    for &pair in pool.iter() {
        probes[(pair >> 32) as u32 as usize] += 1;
    }
    probes
}

/// The single entry of a stage's answer to a batch of one.
fn only<T>(entries: Vec<T>) -> T {
    entries
        .into_iter()
        .next()
        .expect("a stage returns one entry per query")
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
    use crate::adaptive::AdaptiveConfig;
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
    fn pooled_probes_spend_one_budget_on_the_nearest_pairs() {
        // Keys as `KMeans::probe_keys` packs them, for positive distances.
        let keys = |distances: &[f32]| -> Vec<u64> {
            let key = |(list, d): (usize, &f32)| u64::from(d.to_bits() | 1 << 31) << 32 | list as u64;
            distances.iter().enumerate().map(key).collect()
        };
        let near = keys(&[1.0, 2.0, 3.0, 4.0]);
        let mixed = keys(&[9.0, 2.5, 1.5, 9.0]);
        let far = keys(&[9.0, 9.0, 9.0, 9.0]);
        let mut pool = Vec::new();
        let mut probes = |ranked: &[&[u64]], nprobe| pooled_probes(ranked, nprobe, &mut pool);
        // One shard: its own share, capped at its lists, never below 1.
        assert_eq!(probes(&[&near], 3), [3]);
        assert_eq!(probes(&[&near], 100), [4]);
        assert_eq!(probes(&[&near], 0), [1]);
        // 4 + 2 of 8, wherever they are.
        assert_eq!(probes(&[&near, &mixed], 4), [4, 2]);
        assert_eq!(probes(&[&mixed, &near], 4), [2, 4]);
        // 2 + 1 = 3, all nearer in the leader: the follower has no share.
        assert_eq!(probes(&[&near, &far], 2), [3, 0]);
        // 2 + 1 + 1 = 4; the rank-2 shard holds the 2nd and 3rd nearest.
        assert_eq!(probes(&[&near, &far, &mixed], 2), [2, 0, 2]);
        // Equal distances at the cut go to the better-ranked shard, then
        // the lower list: 3 + 2 = 5 of (1 1 2 2 3 | 3 4 4).
        assert_eq!(probes(&[&near, &near], 3), [3, 2]);
        assert_eq!(probes(&[&near, &near], 2), [2, 1]);
    }

    #[test]
    fn exhaustive_plan_covers_every_cluster_unranked() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = store.search_all_clusters(queries.embeddings().row(0)).unwrap();
        assert_eq!(out.ranked_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.searched_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.stats.route, SearchPhaseCost::default());
    }

    #[test]
    fn scatter_width_does_not_change_results() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        for q in queries.embeddings().iter_rows() {
            let inline = engine.execute_coalesced(&[q], 1).unwrap();
            for threads in [0usize, 2, 64] {
                let scattered = engine.execute_coalesced(&[q], threads).unwrap();
                assert_eq!(inline, scattered, "threads={threads}");
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
        let none: [Vec<f32>; 0] = [];
        assert!(engine.execute_coalesced(&none, 0).unwrap().is_empty());
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
                    engine.deep_batch(&batch, routes, threads).unwrap(),
                    engine.execute_coalesced(&batch, threads).unwrap(),
                    "adaptive={adaptive:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn deep_stage_rejects_routes_that_do_not_pair_with_queries() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1).with_clusters_to_search(3);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        let batch = queries.to_vecs();
        let mut routes = engine.route_batch(&batch, 1).unwrap();
        let mut foreign = routes.pop().unwrap();
        let short = engine.deep_batch(&batch, routes, 1).unwrap_err();
        assert!(matches!(short, HermesError::InvalidConfig(_)), "{short:?}");
        // A route from a store with more clusters than this one.
        foreign.ranked_clusters[0] = store.num_clusters();
        let unknown = engine
            .deep_batch(&batch[..1], vec![foreign], 1)
            .unwrap_err();
        assert!(
            matches!(unknown, HermesError::InvalidConfig(_)),
            "{unknown:?}"
        );
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
        let out_fixed = Engine::new(&store, &fixed)
            .execute(queries.embeddings().row(0))
            .unwrap();
        let out_adaptive = Engine::new(&store, &adaptive)
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
        assert_eq!(out.stats.per_shard.len(), 3);
        assert_eq!(
            out.stats.deep.scanned_codes,
            out.stats.per_shard_scanned().sum::<usize>()
        );
        assert_eq!(
            out.stats.deep.clusters_touched,
            out.stats.per_shard_probed().filter(|&lists| lists > 0).count()
        );
        assert!(out.stats.gather_candidates >= out.hits.len());
        assert_eq!(
            out.stats.total_scanned_codes(),
            out.stats.route.scanned_codes + out.stats.deep.scanned_codes
        );
    }
}
