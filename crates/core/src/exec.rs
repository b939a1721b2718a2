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
//!   batch ──▶ ROUTE   Engine::route_batch: one coarse pass per shard for
//!                     the whole batch, then per query: shards ranked by
//!                     their nearest list and the query's lists chosen
//!                     (NearestLists, the default) — or every shard
//!                     samples the whole batch in one group scan
//!                     (DocumentSampling), or its centroid is scored
//!                     (CentroidOnly), and the shards are ranked best-first
//!         ──▶ DEEP    Engine::deep_batch: routes that carry no lists get
//!                     them cut here (per-query depth, the coarse keys of
//!                     every distinct top-m shard for the queries routed to
//!                     it, each query's probe counts cut from its keys);
//!                     then one list scan per shard over exactly the chosen
//!                     lists (scatter) and a per-query merge_topk in rank
//!                     order (gather)
//! ```
//!
//! **The probe budget.** Under [`ProbeAllocation::Pooled`] (the default)
//! a query does not probe `deep_nprobe` lists in each of its `m` shards.
//! All shards' coarse centroids live in one embedding space, so
//! `(shard, list)` pairs are ranked together by the coarse L2 distance the
//! scan computes anyway, and the nearest `B` are probed, where `B = share₀
//! + Σ_{r=1}^{m−1} ⌈share_r / 2⌉` over the `m` first-ranked shards and
//! `share_r = min(deep_nprobe, nlist_r)`: the leader brings a full share
//! to the pool, every further shard half a share — `(m + 1) / 2` shares
//! where the paper spends `m`. Halves, because that is the smallest
//! budget that never starves the leader (it can always take its own full
//! share) and measured recall still rises (the leader holds ⅔ of the
//! answer and is depth-bound; see [`ProbeAllocation`]).
//!
//! Under [`Routing::NearestLists`] the route stage spends `B` itself, on
//! the nearest pairs over **all** shards — ties by (distance bits, cluster
//! id, list index) — so `m` sizes the budget without capping how many
//! shards are searched; a shard ranks by its nearest pair, so the shards
//! holding a chosen list are a prefix of the ranking, and the route hands
//! the lists to the deep stage ([`RouteOutcome::deep_lists`]): no sample
//! scan, no second coarse pass. Under the other routings the deep stage
//! pools the pairs of the query's `m` routed shards only, ties by
//! (distance bits, rank position, list index); within a shard the pooled
//! choice is a prefix of that shard's own distance order, so it is cut as
//! a plain per-shard count, zero included — a routed shard none of whose
//! lists make the cut is searched with no lists and not scanned.
//! Either way the probe set is a function of the query and the store.
//!
//! A single query is a batch of one: [`Engine::route`],
//! [`Engine::execute`] and [`Engine::execute_coalesced`] are compositions
//! of the two stages, and the line between the two calls is where a
//! caller inspects or edits the routed batch (the serving layer probes
//! its cache there). The engine reaches a shard through
//! [`IvfIndex::coarse_keys`], [`IvfIndex::search_lists`] and, for
//! sampling, [`VectorIndex::search_group`]: a group of queries, each
//! with its own lists, answered exactly as if each were searched alone.
//! What a batch shares is the pass over each shard's centroid table, the
//! per-shard fan-out and the scan scratch; each query then streams its
//! own lists. A shard with no live rows answers every query with no hits
//! and zero work: it samples −∞, holds no pair, and is not scanned.
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

use hermes_index::{CoarseKeys, GroupScan, IndexError, IvfIndex, ScanResult, ScanStats, VectorIndex};
use hermes_kmeans::{
    probe_key_centroid, probe_key_distance, probe_key_squared_distance, select_nearest,
};
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
    /// Route-stage work: sampling probes (document-sampling routing), one
    /// code per scored list centroid (nearest-lists routing) or per
    /// cluster (centroid routing); zero when unranked.
    pub route: SearchPhaseCost,
    /// Scatter-stage work, summed over the deep-searched shards;
    /// `clusters_touched` counts the shards actually scanned (a routed
    /// shard with no share of a pooled budget is not).
    pub deep: SearchPhaseCost,
    /// What each deep-searched shard did, aligned with
    /// [`SearchOutcome::searched_clusters`]: codes scanned — the input
    /// for per-shard deadline and straggler analyses — and inverted lists
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
    /// from when pooled.
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

/// Outcome of the route stage: every cluster ranked best-first, the work
/// ranking them took, and — when the routing chose them — the lists the
/// deep stage scans.
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
    /// The inverted lists the deep stage scans, by rank position:
    /// [`Routing::NearestLists`] chooses them from the keys it ranked by,
    /// and they travel with the route (past the serving layer's cache
    /// probe, say) so that the deep stage neither recomputes nor
    /// re-selects them. `None` under the other routings: the deep stage
    /// cuts the lists from its own coarse pass.
    pub deep_lists: Option<DeepLists>,
}

impl RouteOutcome {
    /// The best-ranked cluster, if any — the semantic cache's bucket key.
    pub fn top_cluster(&self) -> Option<usize> {
        self.ranked_clusters.first().copied()
    }
}

/// One query's deep-stage lists, grouped by rank position: position `r`
/// holds list ids of shard `ranked_clusters[r]`, each list at most once,
/// and the positions are the leading ones of the ranking.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeepLists {
    lists: Vec<u32>,
    /// One past each position's last entry in `lists`.
    ends: Vec<usize>,
}

impl DeepLists {
    /// How many leading ranked shards are deep-searched.
    pub(crate) fn shards(&self) -> usize {
        self.ends.len()
    }

    /// The lists of the rank-`pos` shard (possibly none).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.shards()`.
    pub(crate) fn shard(&self, pos: usize) -> &[u32] {
        let start = if pos == 0 { 0 } else { self.ends[pos - 1] };
        &self.lists[start..self.ends[pos]]
    }

    /// Appends the next rank position's lists.
    fn push(&mut self, lists: impl IntoIterator<Item = u32>) {
        self.lists.extend(lists);
        self.ends.push(self.lists.len());
    }
}

/// Orders `(cluster, score)` pairs best-first: descending score, ties
/// broken by ascending cluster id — the rank stage's deterministic
/// tiebreak, shared by every scoring routing mode.
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
/// use hermes_core::{ClusteredStore, HermesConfig, Routing};
/// use hermes_core::exec::Engine;
/// use hermes_math::Mat;
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| vec![(i % 3) as f32 * 10.0, (i / 3) as f32 * 0.01])
///     .collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(3)
///     .with_clusters_to_search(2)
///     .with_routing(Routing::DocumentSampling);
/// let store = ClusteredStore::build(&data, &cfg)?;
///
/// let engine = Engine::new(&store, &cfg);
/// let out = engine.execute(&[10.0, 0.5])?;
/// assert_eq!(out.hits.len(), cfg.k);
/// assert_eq!(out.searched_clusters().len(), 2);
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
    /// deep. (A query that passed every shard's checks in the route stage
    /// cannot fail a deep search of some of them, and the other routing
    /// modes never fail, so stage order never reorders two queries'
    /// errors.)
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
    /// shard-major. Under nearest-lists routing each shard scores its
    /// list centroids against the whole batch in one
    /// [`IvfIndex::coarse_keys`] pass, and each query ranks the shards by
    /// their nearest list and chooses its deep lists from the same keys
    /// (see the module docs); under document-sampling routing each shard
    /// samples the whole batch in one [`VectorIndex::search_group`] and
    /// each query ranks its own per-shard scores. Shards fan out on the
    /// pool, at most `threads` at once. Every route is exactly what
    /// routing that query alone returns. Records an `engine.route` span
    /// (args: `queries`, `scanned_codes`, `clusters`).
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
        let cost = |scanned_codes| SearchPhaseCost {
            scanned_codes,
            clusters_touched: n,
        };
        let ranked = |scored: Vec<(usize, f32)>, scanned_codes: usize| {
            let (ranked_clusters, ranked_scores) = rank_with_scores(scored);
            RouteOutcome {
                ranked_clusters,
                ranked_scores,
                cost: cost(scanned_codes),
                deep_lists: None,
            }
        };
        let routes: Vec<RouteOutcome> = match self.config.routing {
            Routing::NearestLists => {
                // One coarse pass per live shard for the whole batch.
                let group: Vec<&[f32]> = queries.iter().map(|q| q.as_ref()).collect();
                let keys: Vec<Option<CoarseKeys>> = fan_out(n, width_cap(threads), |c| {
                    let shard = store.shard(c);
                    (shard.len() > 0).then(|| shard.coarse_keys(group.iter().copied()))
                });
                // Every scored list centroid counts one code, as a
                // scored split centroid does under centroid routing.
                let scanned = (keys.iter().zip(0..))
                    .filter(|(keys, _)| keys.is_some())
                    .map(|(_, c)| store.shard(c).nlist())
                    .sum();
                let mut pool = Vec::new();
                (0..queries.len())
                    .map(|qi| self.nearest_lists(&keys, qi, cost(scanned), &mut pool))
                    .collect::<Result<_, HermesError>>()?
            }
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
                    deep_lists: None,
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

    /// Query `qi`'s nearest-lists route from its coarse keys in every
    /// shard (none for a shard with no live rows): shards ranked by their
    /// nearest key — (distance bits, cluster id), a shard without keys
    /// last — and scored by its negated squared distance; the [`budget`]
    /// of the `m` first-ranked shards spent on the nearest pairs over all
    /// shards, in cluster order ([`pooled_cut`]), under
    /// [`ProbeAllocation::Pooled`], or each of those shards' full share
    /// under [`ProbeAllocation::PerShard`]. Each shard's lists are its
    /// chosen pairs in list order. `pool` is scratch.
    fn nearest_lists(
        &self,
        keys: &[Option<CoarseKeys>],
        qi: usize,
        cost: SearchPhaseCost,
        pool: &mut Vec<u64>,
    ) -> Result<RouteOutcome, HermesError> {
        let shards = (keys.iter())
            .map(|keys| keys.as_ref().map_or(Ok(&[][..]), |keys| keys.query(qi)))
            .collect::<Result<Vec<&[u64]>, IndexError>>()?;
        let nearest: Vec<Option<u32>> = (shards.iter())
            .map(|keys| keys.iter().map(|&key| probe_key_distance(key)).min())
            .collect();
        let mut ranked_clusters: Vec<usize> = (0..shards.len()).collect();
        ranked_clusters.sort_unstable_by_key(|&c| (nearest[c].map_or(u64::MAX, u64::from), c));
        let ranked_scores: Vec<f32> = (ranked_clusters.iter())
            .map(|&c| match nearest[c] {
                Some(d) => -probe_key_squared_distance(u64::from(d) << 32),
                None => f32::NEG_INFINITY,
            })
            .collect();
        let (m, deep_nprobe) = self.depth_for(&ranked_scores);
        let leaders = &ranked_clusters[..m.min(ranked_clusters.len())];
        let mut lists = DeepLists::default();
        match self.config.probe_allocation {
            ProbeAllocation::Pooled => {
                let shares = leaders.iter().map(|&c| full_share(deep_nprobe, shards[c]));
                let cut = pooled_cut(&shards, budget(shares), pool);
                // Cluster `c`'s pairs are numbered from `offsets[c]`.
                let mut offsets = Vec::with_capacity(shards.len());
                let mut next = 0;
                for keys in &shards {
                    offsets.push(next);
                    next += keys.len();
                }
                // A shard ranks by its nearest pair, so the shards
                // holding a chosen list are a prefix of the ranking.
                for &c in &ranked_clusters {
                    let mut chosen = chosen(shards[c], offsets[c], cut).peekable();
                    if chosen.peek().is_none() {
                        break;
                    }
                    lists.push(chosen.map(|key| probe_key_centroid(key) as u32));
                }
            }
            ProbeAllocation::PerShard => {
                for &c in leaders {
                    let cut = pooled_cut(&shards[c..=c], full_share(deep_nprobe, shards[c]), pool);
                    lists.push(chosen(shards[c], 0, cut).map(|key| probe_key_centroid(key) as u32));
                }
            }
        }
        Ok(RouteOutcome {
            ranked_clusters,
            ranked_scores,
            cost,
            deep_lists: Some(lists),
        })
    }

    /// **Deep stage** over queries that were already routed (`routes[i]`
    /// is `queries[i]`'s): a route that carries its lists
    /// ([`RouteOutcome::deep_lists`]) is scanned on exactly those; the
    /// others get theirs cut here, from one coarse pass per routed shard
    /// (see the module docs). Then every shard
    /// is deep-searched once — one pool task and one
    /// [`IvfIndex::search_lists`] per shard, each query on its own lists
    /// — and each query's per-shard hits are merged in its own rank
    /// order. `execute_coalesced(qs, t)` ≡ `deep_batch(qs,
    /// route_batch(qs, t)?, t)` bit for bit; callers that route first (to
    /// bucket a cache lookup, say) pass only the queries they still need.
    /// Records an `engine.scatter` span (args: `queries`,
    /// `distinct_clusters`, `deep_searches`, `probed_lists`) around the
    /// group scans and one `engine.gather` span (arg: `candidates`) per
    /// query.
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
        mut routes: Vec<RouteOutcome>,
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
        let cap = width_cap(threads);
        self.cut_lists(queries, &mut routes, cap)?;
        let lists: Vec<&DeepLists> = routes
            .iter()
            .map(|route| route.deep_lists.as_ref().expect("every route has its lists"))
            .collect();
        let groups = self.groups(&routes, |qi| lists[qi].shards())?;
        sp.arg("distinct_clusters", groups.len() as u64);
        sp.arg(
            "deep_searches",
            lists.iter().map(|lists| lists.shards() as u64).sum(),
        );

        let scans = fan_out(groups.len(), cap, |g| {
            let (c, members) = &groups[g];
            let group: Vec<(&[f32], &[u32])> = members
                .iter()
                .map(|&(qi, pos)| (queries[qi].as_ref(), lists[qi].shard(pos)))
                .collect();
            let scan = |shard: &IvfIndex| shard.search_lists(&group, self.config.k);
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
        let mut per_query: Vec<Vec<ScanResult>> = lists
            .iter()
            .map(|lists| (0..lists.shards()).map(|_| Ok(Default::default())).collect())
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
            .map(|(route, results)| {
                let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
                let (_, deep_nprobe) = self.depth_for(&route.ranked_scores);
                Ok(self.gather(route, per_shard, deep_nprobe))
            })
            .collect()
    }

    /// Gives every route without lists the lists its query probes in its
    /// first `m` ranked shards: the coarse keys of every distinct such
    /// shard are taken **once** for all the queries routed to it, each
    /// query's probe counts are cut from its keys — its full
    /// `deep_nprobe` in every shard, or its share of the query's pooled
    /// budget (module docs) — and each count becomes the lists
    /// [`select_nearest`] moves to the front of that shard's keys: the
    /// lists, in the order, that [`VectorIndex::search_group`] would scan
    /// at that count.
    fn cut_lists<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        routes: &mut [RouteOutcome],
        cap: usize,
    ) -> Result<(), HermesError> {
        if routes.iter().all(|route| route.deep_lists.is_some()) {
            return Ok(());
        }
        // Query `qi` deep-searches the first `m` clusters of its ranking
        // at `deep_nprobe`: the fixed knobs, or the adaptive policy's
        // choice for its route; a route with lists is not cut again.
        let depths: Vec<(usize, usize)> = routes
            .iter()
            .map(|route| match route.deep_lists {
                Some(_) => (0, 0),
                None => {
                    let (m, deep_nprobe) = self.depth_for(&route.ranked_scores);
                    (m.min(route.ranked_clusters.len()), deep_nprobe)
                }
            })
            .collect();
        let groups = self.groups(routes, |qi| depths[qi].0)?;

        // Each routed shard's centroid table is streamed once, here, for
        // its whole group; a shard with no live rows has no keys.
        let mut keys: Vec<Option<CoarseKeys>> = fan_out(groups.len(), cap, |g| {
            let (c, members) = &groups[g];
            let shard = self.store.shard(*c);
            let queries = members.iter().map(|&(qi, _)| queries[qi].as_ref());
            (shard.len() > 0).then(|| shard.coarse_keys(queries))
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
        let mut pool = Vec::new();
        for ((route, &(_, deep_nprobe)), at) in routes.iter_mut().zip(&depths).zip(&at) {
            if route.deep_lists.is_some() {
                continue;
            }
            let ranked: Result<Vec<&[u64]>, _> = (at.iter())
                .map(|&(g, j)| keys[g].as_ref().map_or(Ok(&[][..]), |keys| keys.query(j)))
                .collect();
            // A query whose keys failed somewhere probes nothing there
            // and fails its scan the same way.
            let counts: Vec<usize> = match ranked {
                Err(_) => vec![0; at.len()],
                // A route without scores ranked nothing: no leader.
                Ok(ranked)
                    if self.config.probe_allocation == ProbeAllocation::Pooled
                        && !route.ranked_scores.is_empty() =>
                {
                    let shares = ranked.iter().map(|keys| full_share(deep_nprobe, keys));
                    pooled_probes(&ranked, budget(shares), &mut pool)
                }
                Ok(ranked) => ranked.iter().map(|keys| full_share(deep_nprobe, keys)).collect(),
            };
            let mut lists = DeepLists::default();
            for (&(g, j), count) in at.iter().zip(counts) {
                let keys = match (count, keys[g].as_mut()) {
                    (0, _) | (_, None) => &mut [][..],
                    (n, Some(keys)) => select_nearest(keys.query_mut(j)?, n),
                };
                lists.push(keys.iter().map(|&key| probe_key_centroid(key) as u32));
            }
            route.deep_lists = Some(lists);
        }
        Ok(())
    }

    /// Inverts query → its first `positions(qi)` ranked clusters into
    /// cluster → `(query, rank position)` members: ascending cluster id,
    /// input order within a cluster, clusters without members left out.
    fn groups(
        &self,
        routes: &[RouteOutcome],
        positions: impl Fn(usize) -> usize,
    ) -> Result<Vec<Group>, HermesError> {
        let mut members = vec![Vec::new(); self.store.num_clusters()];
        for (qi, route) in routes.iter().enumerate() {
            let ranked = route.ranked_clusters.get(..positions(qi)).ok_or_else(|| {
                HermesError::InvalidConfig("route has lists for unranked positions".into())
            })?;
            for (pos, &c) in ranked.iter().enumerate() {
                members
                    .get_mut(c)
                    .ok_or_else(|| {
                        HermesError::InvalidConfig(format!("route names unknown cluster {c}"))
                    })?
                    .push((qi, pos));
            }
        }
        Ok(members
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .collect())
    }

    /// One group scan of shard `c` under a `shard.sample` / `shard.deep`
    /// span whose args carry the group's size, its scanned codes (the
    /// per-query [`ScanStats`] sum) and how many of those the exact
    /// kernel rescored after the scan's bound filter. A shard with no
    /// live rows is not scanned: it answers every query with no hits and
    /// zero work.
    fn shard_scan(
        &self,
        span: &'static str,
        c: usize,
        queries: usize,
        scan: impl FnOnce(&IvfIndex) -> GroupScan,
    ) -> GroupScan {
        let shard = self.store.shard(c);
        if shard.len() == 0 {
            return GroupScan {
                results: (0..queries).map(|_| Ok(Default::default())).collect(),
                rescored_codes: 0,
            };
        }
        let mut sp = hermes_trace::span_with(span, &[(names::ARG_CLUSTER, c as u64)]);
        let scan = scan(shard);
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

    /// Resolves the per-query depth from a route's scores: the
    /// [`DifficultyEstimator`]'s choice when the config is adaptive and
    /// the route produced scores, its fixed knobs otherwise. Returns
    /// `(clusters_to_search, deep_nprobe)`.
    fn depth_for(&self, ranked_scores: &[f32]) -> (usize, usize) {
        match self.config.adaptive {
            Some(cfg) if !ranked_scores.is_empty() => {
                let choice = DifficultyEstimator::new(cfg).depth(ranked_scores);
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
            ranked_clusters: route.ranked_clusters,
            stats,
        }
    }
}

/// A cluster and its `(query, rank position)` members.
type Group = (usize, Vec<(usize, usize)>);

/// The lists a shard with these coarse `keys` probes at `deep_nprobe` on
/// its own: at least 1, at most all it has — none if it has no keys.
fn full_share(deep_nprobe: usize, keys: &[u64]) -> usize {
    deep_nprobe.max(1).min(keys.len())
}

/// A query's probe budget from the shares of its ranked shards, best
/// first: the leader's full share plus half of each further share,
/// rounded up.
fn budget(shares: impl Iterator<Item = usize>) -> usize {
    shares
        .enumerate()
        .map(|(r, share)| if r == 0 { share } else { share.div_ceil(2) })
        .sum()
}

/// One query's probe counts under [`ProbeAllocation::Pooled`] for a
/// route that chose no lists: `ranked[r]` are its coarse keys in its
/// rank-`r` routed shard, cut by [`pooled_cut`]. Within a shard the
/// chosen pairs are the nearest of its own distance order, so a count
/// says which. `pool` is scratch.
fn pooled_probes(ranked: &[&[u64]], budget: usize, pool: &mut Vec<u64>) -> Vec<usize> {
    let cut = pooled_cut(ranked, budget, pool);
    (ranked.iter())
        .scan(0, |offset, keys| {
            let count = chosen(keys, *offset, cut).count();
            *offset += keys.len();
            Some(count)
        })
        .collect()
}

/// The pooled cut over one query's `shards` (its coarse keys in each):
/// the `budget` nearest `(shard, list)` pairs in (distance bits, shard
/// position, list index) order — a total order, so the cut depends on
/// nothing but the keys. Returns the [`pair_key`] of the last pair
/// chosen, `None` if none is; [`chosen`] reads each shard's pairs back.
/// `pool` is scratch.
fn pooled_cut(shards: &[&[u64]], budget: usize, pool: &mut Vec<u64>) -> Option<u64> {
    pool.clear();
    let mut offset = 0;
    for keys in shards {
        pool.extend(keys.iter().map(|&key| pair_key(key, offset)));
        offset += keys.len();
    }
    assert!(u32::try_from(offset).is_ok(), "a query's pairs are numbered in 32 bits");
    match budget.min(pool.len()) {
        0 => None,
        n => Some(*pool.select_nth_unstable(n - 1).1),
    }
}

/// The keys of one shard (its pairs numbered from `offset` in the
/// order of [`pooled_cut`]) that the pooled `cut` chose, in list order.
fn chosen(keys: &[u64], offset: usize, cut: Option<u64>) -> impl Iterator<Item = u64> + '_ {
    let chosen = move |&key: &u64| cut.is_some_and(|cut| pair_key(key, offset) <= cut);
    keys.iter().copied().filter(chosen)
}

/// A coarse key with its list index replaced by its pair's number,
/// `offset` plus the list index, so that `u64` order is (distance bits,
/// shard, list) order.
fn pair_key(key: u64, offset: usize) -> u64 {
    key >> 32 << 32 | (offset + probe_key_centroid(key)) as u64
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
        let mut probes = |ranked: &[&[u64]], nprobe| {
            let shares = ranked.iter().map(|keys| full_share(nprobe, keys));
            pooled_probes(ranked, budget(shares), &mut pool)
        };
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
    fn pooled_probes_take_the_first_pairs_of_the_full_order() {
        use hermes_math::block::probe_key;
        use hermes_math::rng::seeded_rng;
        // Shards of keys in list order, at every budget. Distances:
        // random, or few distinct values (ties everywhere); one shard is
        // empty.
        let mut rng = seeded_rng(0xC07);
        type Pattern<'a> = &'a dyn Fn(&mut hermes_math::rng::SeededRng) -> f32;
        let patterns: [Pattern; 2] = [
            &|rng| rng.next_f32() * 50.0,
            &|rng| (rng.next_f32() * 4.0).floor(),
        ];
        let mut pool = Vec::new();
        for pattern in patterns {
            for sizes in [&[40usize, 0, 73, 9][..], &[200], &[5, 5, 5], &[64, 64]] {
                let shards: Vec<Vec<u64>> = sizes
                    .iter()
                    .map(|&n| (0..n).map(|l| probe_key(pattern(&mut rng), l as u32)).collect())
                    .collect();
                let slices: Vec<&[u64]> = shards.iter().map(|s| &s[..]).collect();
                let mut full: Vec<(u32, usize, usize)> = (slices.iter().enumerate())
                    .flat_map(|(c, keys)| {
                        let pair = move |&key: &u64| (probe_key_distance(key), c, probe_key_centroid(key));
                        keys.iter().map(pair)
                    })
                    .collect();
                full.sort_unstable();
                for budget in 0..=full.len() + 1 {
                    let mut want = vec![0; slices.len()];
                    for &(_, c, _) in full.iter().take(budget) {
                        want[c] += 1;
                    }
                    let got = pooled_probes(&slices, budget, &mut pool);
                    assert_eq!(got, want, "{sizes:?} budget {budget}");
                }
            }
        }
    }

    #[test]
    fn exhaustive_plan_covers_every_cluster_unranked() {
        let (corpus, queries) = setup();
        let cfg = HermesConfig::new(6).with_seed(1);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let out = store.search_all_clusters(queries.embeddings().row(0)).unwrap();
        assert_eq!(out.ranked_clusters, (0..6).collect::<Vec<_>>());
        assert_eq!(out.searched_clusters(), (0..6).collect::<Vec<_>>());
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
            .with_adaptive(adaptive)
            .with_routing(Routing::DocumentSampling);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        for q in queries.embeddings().iter_rows() {
            let out = engine.execute(q).unwrap();
            let m = out.searched_clusters().len();
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
        let cfg = HermesConfig::new(6)
            .with_seed(1)
            .with_clusters_to_search(3)
            .with_routing(Routing::DocumentSampling);
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
