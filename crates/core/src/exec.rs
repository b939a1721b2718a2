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
//!   batch ──▶ ROUTE   Engine::route_batch: one coarse pass per live
//!                     shard for the whole batch; the shards ranked per
//!                     query by their nearest list (NearestLists, the
//!                     default), by a sample scan of each shard's nearest
//!                     lists (DocumentSampling), by their split centroid
//!                     (CentroidOnly) or not at all (Unranked); then each
//!                     query's depth and deep lists chosen from the keys
//!         ──▶ DEEP    Engine::deep_batch: list scans over exactly the
//!                     chosen lists (scatter) in two waves — each query's
//!                     leader (rank-0) shard, then its other shards, each
//!                     floored at the leader's k-th score — and a
//!                     per-query merge_topk in rank order (gather)
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
//! The route stage spends `B`, for every routing, from the same keys it
//! took in its one coarse pass. Under [`Routing::NearestLists`] it goes
//! to the nearest pairs over **all** shards — ties by (distance bits,
//! cluster id, list index) — so `m` sizes the budget without capping how
//! many shards are searched; a shard ranks by its nearest pair, so the
//! shards holding a chosen list are a prefix of the ranking. Under the
//! other routings it goes to the pairs of the query's `m` routed shards
//! only, ties by (distance bits, rank position, list index), and every
//! routed shard keeps its position — one none of whose lists make the cut
//! is searched with no lists and not scanned. The chosen lists travel
//! with the route ([`RouteOutcome::deep_lists`]), and the deep stage
//! scans exactly them. Either way the probe set is a function of the
//! query and the store.
//!
//! A single query is a batch of one: [`Engine::route`],
//! [`Engine::execute`] and [`Engine::execute_coalesced`] are compositions
//! of the two stages, and the line between the two calls is where a
//! caller inspects or edits the routed batch (the serving layer probes
//! its cache there). The engine reaches a shard through
//! [`IvfIndex::coarse_keys`] and [`IvfIndex::search_lists`]: a group of
//! queries, each with its own lists, answered exactly as if each were
//! searched alone. What a batch shares is the pass over each shard's
//! centroid table, the per-shard fan-out and the scan scratch; each query
//! then streams its own lists. A shard with no live rows answers every
//! query with no hits and zero work: it has no keys, samples −∞, holds no
//! pair, and is not scanned.
//!
//! **Parallelism.** Both stages fan shards out on [`hermes_pool::Pool`]
//! (the deep stage once per wave), each shard serving its whole query
//! group (`threads` caps the width:
//! `0` = full pool, `1` = inline sequential; a lone [`Engine::execute`]
//! or [`Engine::route`] uses the full pool). [`Engine::execute_batch`] is
//! the other axis — whole queries stolen from the pool cursor, the paper's
//! query-major batch mode; the pool's nested-submission rule runs each
//! stolen query's shard fan-out inline, so there is never more than one
//! level of stealing.
//!
//! **Determinism.** Results are bit-identical for every routing mode,
//! codec, batch composition and thread count: tasks write into their
//! input-order slot, a floor comes from its own query's leader scan
//! alone, costs are integer sums over the same scans, and the
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
use hermes_kmeans::{probe_key_centroid, probe_key_distance, probe_key_squared_distance};
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
    /// Candidate hits the gather stage merged into the final top-k: the
    /// hits the shards returned — all of the leader's, and those of every
    /// other shard that score at least the leader's k-th (see
    /// [`Engine::deep_batch`]).
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
/// ranking them took, and the lists the deep stage scans.
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
    /// The inverted lists the deep stage scans, by rank position, and the
    /// depth they were cut at: every routing chooses them from the coarse
    /// keys of its one pass, and they travel with the route (past the
    /// serving layer's cache probe, say) so that the deep stage neither
    /// recomputes nor re-selects them.
    pub deep_lists: DeepLists,
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
    /// The deep `nProbe` the lists were cut at — what
    /// [`SearchStats::deep_nprobe`] records.
    deep_nprobe: usize,
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

    /// Appends the next rank position's lists, given as their coarse
    /// keys.
    fn push(&mut self, keys: impl IntoIterator<Item = u64>) {
        let lists = keys.into_iter().map(|key| probe_key_centroid(key) as u32);
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
    /// deep. (The route stage checks every query against every live
    /// shard, and a query that passed those checks cannot fail a deep
    /// search of its own route, so stage order never reorders two
    /// queries' errors.)
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

    /// **Route stage:** ranks every cluster for every query and chooses
    /// its deep lists, shard-major. Each live shard scores its list
    /// centroids against the whole batch in one [`IvfIndex::coarse_keys`]
    /// pass, which also checks every query as a search would. Then each
    /// query ranks the shards — by their nearest list under nearest-lists
    /// routing; by a `k = 1` scan of each shard's `sample_nprobe` nearest
    /// lists under document-sampling routing (one
    /// [`IvfIndex::search_lists`] per shard for the whole batch); by the
    /// split centroids under centroid routing; in cluster order when
    /// unranked — and chooses its depth and lists from the same keys (see
    /// the module docs). Shards fan out on the pool, at most `threads` at
    /// once. Every route is exactly what routing that query alone
    /// returns. Records an `engine.route` span (args: `queries`,
    /// `scanned_codes`, `clusters`).
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
        // One coarse pass per live shard for the whole batch.
        let group: Vec<&[f32]> = queries.iter().map(|q| q.as_ref()).collect();
        let keys: Vec<Option<CoarseKeys>> = fan_out(n, width_cap(threads), |c| {
            let shard = store.shard(c);
            (shard.len() > 0).then(|| shard.coarse_keys(group.iter().copied()))
        });
        // Each query's keys in every shard (none in a shard with no live
        // rows), or its error in the first shard in cluster order.
        let shards: Vec<Result<Vec<&[u64]>, IndexError>> = (0..queries.len())
            .map(|qi| {
                (keys.iter())
                    .map(|keys| keys.as_ref().map_or(Ok(&[][..]), |keys| keys.query(qi)))
                    .collect()
            })
            .collect();
        // One cheap k=1 sample per (shard, query) of its nearest lists;
        // samples dominate single-query latency when m is small. A query
        // that failed its checks samples no lists and gets the error.
        let sample_nprobe = self.config.sample_nprobe.max(1);
        let samples = match self.config.routing {
            Routing::DocumentSampling => fan_out(n, width_cap(threads), |c| {
                let scan = |shard: &IvfIndex| {
                    let mut pool = Vec::new();
                    let lists: Vec<Vec<u32>> = (shards.iter())
                        .map(|shards| match shards {
                            Ok(shards) => nearest(shards[c], sample_nprobe, &mut pool)
                                .map(|key| probe_key_centroid(key) as u32)
                                .collect(),
                            Err(_) => Vec::new(),
                        })
                        .collect();
                    let sampled: Vec<(&[f32], &[u32], f32)> = (group.iter().copied())
                        .zip(&lists)
                        .map(|(query, lists)| (query, &lists[..], f32::NEG_INFINITY))
                        .collect();
                    shard.search_lists(&sampled, 1)
                };
                self.shard_scan(names::SHARD_SAMPLE, c, group.len(), scan)
            }),
            _ => Vec::new(),
        };
        let cost = |scanned_codes| SearchPhaseCost {
            scanned_codes,
            clusters_touched: n,
        };
        // Every scored list centroid counts one code, as a scored split
        // centroid does under centroid routing.
        let listed = (keys.iter().zip(0..))
            .filter(|(keys, _)| keys.is_some())
            .map(|(_, c)| store.shard(c).nlist())
            .sum();
        let metric = store.config().metric;
        let mut pool = Vec::new();
        let routes: Vec<RouteOutcome> = (shards.into_iter().enumerate())
            .map(|(qi, shards)| {
                let shards = shards?;
                let (ranked_clusters, ranked_scores, cost) = match self.config.routing {
                    Routing::NearestLists => {
                        let (ranked, scores) = rank_by_nearest_list(&shards);
                        (ranked, scores, cost(listed))
                    }
                    Routing::DocumentSampling => {
                        let mut scored = Vec::with_capacity(n);
                        let mut scanned = 0;
                        for (c, shard) in samples.iter().enumerate() {
                            let (hits, stats) =
                                shard.results[qi].as_ref().map_err(|e| e.clone())?;
                            scored.push((c, hits.first().map_or(f32::NEG_INFINITY, |h| h.score)));
                            scanned += stats.scanned_codes;
                        }
                        let (ranked, scores) = rank_with_scores(scored);
                        (ranked, scores, cost(scanned))
                    }
                    Routing::CentroidOnly => {
                        let query = group[qi];
                        let scored = (0..n)
                            .map(|c| match store.split_centroid(c) {
                                centroid if centroid.len() == query.len() => {
                                    Ok((c, metric.similarity(query, centroid)))
                                }
                                centroid => Err(IndexError::DimensionMismatch {
                                    expected: centroid.len(),
                                    got: query.len(),
                                }),
                            })
                            .collect::<Result<_, _>>()?;
                        // Centroid ranking scans one vector per cluster.
                        let (ranked, scores) = rank_with_scores(scored);
                        (ranked, scores, cost(n))
                    }
                    Routing::Unranked => ((0..n).collect(), Vec::new(), SearchPhaseCost::default()),
                };
                let deep_lists =
                    self.deep_lists(&shards, &ranked_clusters, &ranked_scores, &mut pool);
                Ok(RouteOutcome {
                    ranked_clusters,
                    ranked_scores,
                    cost,
                    deep_lists,
                })
            })
            .collect::<Result<_, HermesError>>()?;
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

    /// The one list chooser, for every routing: a query's deep lists from
    /// its coarse keys in every shard (`shards[c]`, none for a shard with
    /// no live rows) and its ranking, at the depth [`Self::depth_for`] its
    /// scores give. Under [`ProbeAllocation::Pooled`] with a scored
    /// ranking, the [`budget`] of the `m` first-ranked shards is cut by
    /// [`pooled_cut`] — over all shards under [`Routing::NearestLists`],
    /// over the `m` routed ones under the others (module docs). In every
    /// other case each of the `m` first-ranked shards takes its full
    /// share. Each shard's lists are its chosen pairs in list order.
    /// `pool` is scratch.
    fn deep_lists(
        &self,
        shards: &[&[u64]],
        ranked_clusters: &[usize],
        ranked_scores: &[f32],
        pool: &mut Vec<u64>,
    ) -> DeepLists {
        let (m, deep_nprobe) = self.depth_for(ranked_scores);
        let leaders = &ranked_clusters[..m.min(ranked_clusters.len())];
        let share = |c: usize| full_share(deep_nprobe, shards[c]);
        let mut lists = DeepLists {
            deep_nprobe,
            ..DeepLists::default()
        };
        if self.config.probe_allocation == ProbeAllocation::PerShard || ranked_scores.is_empty() {
            for &c in leaders {
                lists.push(nearest(shards[c], share(c), pool));
            }
            return lists;
        }
        // Nearest-lists routing pools every shard in cluster order and
        // searches the ranked prefix that holds a chosen list (a shard
        // ranks by its nearest pair); the others pool their leaders in
        // rank order and search them all. The pool's order breaks its
        // ties: shard `c`'s pairs are numbered from `offsets[c]`.
        let uncapped = self.config.routing == Routing::NearestLists;
        let order: Vec<usize> = if uncapped {
            (0..shards.len()).collect()
        } else {
            leaders.to_vec()
        };
        let mut offsets = vec![0; shards.len()];
        let mut next = 0;
        for &c in &order {
            offsets[c] = next;
            next += shards[c].len();
        }
        let pooled: Vec<&[u64]> = order.iter().map(|&c| shards[c]).collect();
        let cut = pooled_cut(&pooled, budget(leaders.iter().map(|&c| share(c))), pool);
        for &c in if uncapped { ranked_clusters } else { leaders } {
            let mut chosen = chosen(shards[c], offsets[c], cut).peekable();
            if uncapped && chosen.peek().is_none() {
                break;
            }
            lists.push(chosen);
        }
        lists
    }

    /// **Deep stage** over queries that were already routed (`routes[i]`
    /// is `queries[i]`'s): each query scans exactly the lists its route
    /// carries ([`RouteOutcome::deep_lists`]) in each of its shards, and
    /// its per-shard hits are merged in its own rank order. The scans run
    /// in two waves, each one pool task and one
    /// [`IvfIndex::search_lists`] per shard that has members in it:
    ///
    /// 1. every query's rank-0 shard, its *leader*;
    /// 2. every further rank position, each query floored at its leader's
    ///    k-th hit score (no floor if the leader returned fewer than `k`
    ///    hits or that score is NaN).
    ///
    /// A hit scoring below the leader's k-th cannot enter the merged
    /// top-k, so the floor changes no result bit, no [`ScanStats`] and no
    /// hit that the gather merges; it only lets each wave-2 scan filter
    /// from its first row at the query's threshold. The floor depends on
    /// nothing but the query and its route, so results do not depend on
    /// the batch or the width either. `execute_coalesced(qs, t)` ≡
    /// `deep_batch(qs, route_batch(qs, t)?, t)` bit for bit; callers that
    /// route first (to bucket a cache lookup, say) pass only the queries
    /// they still need. Records an `engine.scatter` span (args:
    /// `queries`, `distinct_clusters`, `deep_searches`, `probed_lists`)
    /// around both waves and one `engine.gather` span (arg:
    /// `candidates`) per query.
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
        let [leaders, followers] = self.groups(&routes)?;
        if sp.is_active() {
            let mut clusters: Vec<usize> = (leaders.iter().chain(&followers))
                .map(|&(c, _)| c)
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            sp.arg("distinct_clusters", clusters.len() as u64);
            sp.arg(
                "deep_searches",
                (routes.iter())
                    .map(|route| route.deep_lists.shards() as u64)
                    .sum(),
            );
        }

        // Every result lands at its query's rank position, so gather
        // sees the per-shard sequence a lone query would build.
        let mut per_query: Vec<Vec<ScanResult>> = routes
            .iter()
            .map(|route| {
                (0..route.deep_lists.shards())
                    .map(|_| Ok(Default::default()))
                    .collect()
            })
            .collect();
        self.deep_wave(
            queries,
            &routes,
            &leaders,
            |_| f32::NEG_INFINITY,
            threads,
            &mut per_query,
        );
        // The leader's k-th score, if it returned k hits: a NaN one is
        // no floor to the scan.
        let k = self.config.k;
        let floors: Vec<f32> = (per_query.iter())
            .map(|results| match results.first() {
                Some(Ok((hits, _))) => (k.checked_sub(1).and_then(|last| hits.get(last)))
                    .map_or(f32::NEG_INFINITY, |hit| hit.score),
                _ => f32::NEG_INFINITY,
            })
            .collect();
        self.deep_wave(
            queries,
            &routes,
            &followers,
            |qi| floors[qi],
            threads,
            &mut per_query,
        );
        if sp.is_active() {
            let probed = per_query.iter().flatten().flatten();
            sp.arg(
                "probed_lists",
                probed.map(|(_, s)| s.probed_partitions as u64).sum(),
            );
        }
        drop(sp);

        // Per-search errors were carried this far so that query input
        // order, not cluster order, decides which one is reported.
        routes
            .into_iter()
            .zip(per_query)
            .map(|(route, results)| {
                let per_shard = results.into_iter().collect::<Result<Vec<_>, _>>()?;
                Ok(self.gather(route, per_shard))
            })
            .collect()
    }

    /// One wave of [`Self::deep_batch`]: a group scan per cluster of
    /// `groups`, each member `(query, rank position)` on its route's lists
    /// there, floored at `floor(query)`; the results land in
    /// `per_query[query][rank position]`.
    fn deep_wave<Q: AsRef<[f32]> + Sync>(
        &self,
        queries: &[Q],
        routes: &[RouteOutcome],
        groups: &[Group],
        floor: impl Fn(usize) -> f32 + Sync,
        threads: usize,
        per_query: &mut [Vec<ScanResult>],
    ) {
        let scans = fan_out(groups.len(), width_cap(threads), |g| {
            let (c, members) = &groups[g];
            let group: Vec<(&[f32], &[u32], f32)> = (members.iter())
                .map(|&(qi, pos)| {
                    let lists = routes[qi].deep_lists.shard(pos);
                    (queries[qi].as_ref(), lists, floor(qi))
                })
                .collect();
            let scan = |shard: &IvfIndex| shard.search_lists(&group, self.config.k);
            self.shard_scan(names::SHARD_DEEP, *c, group.len(), scan)
                .results
        });
        for ((_, members), results) in groups.iter().zip(scans) {
            for (&(qi, pos), result) in members.iter().zip(results) {
                per_query[qi][pos] = result;
            }
        }
    }

    /// Inverts query → the ranked clusters its lists are for into
    /// cluster → `(query, rank position)` members, one grouping per wave
    /// of [`Self::deep_batch`]: the leaders (rank position 0), then every
    /// further position. Ascending cluster id, input order within a
    /// cluster, clusters without members left out.
    fn groups(&self, routes: &[RouteOutcome]) -> Result<[Vec<Group>; 2], HermesError> {
        let n = self.store.num_clusters();
        let mut members = [vec![Vec::new(); n], vec![Vec::new(); n]];
        for (qi, route) in routes.iter().enumerate() {
            let positions = route.deep_lists.shards();
            let ranked = route.ranked_clusters.get(..positions).ok_or_else(|| {
                HermesError::InvalidConfig("route has lists for unranked positions".into())
            })?;
            for (pos, &c) in ranked.iter().enumerate() {
                members[usize::from(pos > 0)]
                    .get_mut(c)
                    .ok_or_else(|| {
                        HermesError::InvalidConfig(format!("route names unknown cluster {c}"))
                    })?
                    .push((qi, pos));
            }
        }
        Ok(members.map(|members| {
            (members.into_iter().enumerate())
                .filter(|(_, members)| !members.is_empty())
                .collect()
        }))
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
            deep_nprobe: route.deep_lists.deep_nprobe,
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

/// The `n` nearest of one shard's coarse `keys` (none for `n = 0`), in
/// list order: [`pooled_cut`] over that shard alone. `pool` is scratch.
fn nearest<'k>(keys: &'k [u64], n: usize, pool: &mut Vec<u64>) -> impl Iterator<Item = u64> + 'k {
    chosen(keys, 0, pooled_cut(&[keys], n, pool))
}

/// Ranks the shards of one query by its nearest coarse key in each
/// (`shards[c]`, none for a shard with no live rows) — (distance bits,
/// cluster id), a shard without keys last — and scores each by the
/// negated squared distance of that key.
fn rank_by_nearest_list(shards: &[&[u64]]) -> (Vec<usize>, Vec<f32>) {
    let nearest: Vec<Option<u32>> = (shards.iter())
        .map(|keys| keys.iter().map(|&key| probe_key_distance(key)).min())
        .collect();
    let mut ranked: Vec<usize> = (0..shards.len()).collect();
    ranked.sort_unstable_by_key(|&c| (nearest[c].map_or(u64::MAX, u64::from), c));
    let scores = (ranked.iter())
        .map(|&c| match nearest[c] {
            Some(d) => -probe_key_squared_distance(u64::from(d) << 32),
            None => f32::NEG_INFINITY,
        })
        .collect();
    (ranked, scores)
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

    /// Each shard's count of the pairs the pooled cut at `budget` chooses
    /// over `ranked`, read back as the chooser reads them.
    fn pooled_counts(ranked: &[&[u64]], budget: usize, pool: &mut Vec<u64>) -> Vec<usize> {
        let cut = pooled_cut(ranked, budget, pool);
        let mut offset = 0;
        (ranked.iter())
            .map(|keys| {
                offset += keys.len();
                chosen(keys, offset - keys.len(), cut).count()
            })
            .collect()
    }

    #[test]
    fn pooled_cut_spends_one_budget_on_the_nearest_pairs() {
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
            pooled_counts(ranked, budget(shares), &mut pool)
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
    fn pooled_cut_takes_the_first_pairs_of_the_full_order() {
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
                    let got = pooled_counts(&slices, budget, &mut pool);
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
