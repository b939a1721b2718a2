//! Incremental live rebalancing of the clustered store.
//!
//! Online mutation erodes the properties the offline K-means split paid
//! for: inserts concentrated on a few topics inflate some shards
//! (imbalance ratio climbs, tail latency with it — paper Section 4.1),
//! and sustained churn drags a shard's *running* centroid away from the
//! anchor it was built around, degrading both centroid routing and the
//! shard's own coarse quantizer.
//!
//! The [`Rebalancer`] repairs this **one cluster at a time** instead of
//! pausing the world for a full rebuild:
//!
//! * [`Rebalancer::next_action`] inspects live metrics (size imbalance,
//!   per-cluster drift) and proposes at most one [`RebalanceAction`] —
//!   split the offending cluster in two, or merge a dwarf cluster into
//!   its nearest neighbour.
//! * [`Rebalancer::apply`] executes the action *functionally*: it clones
//!   shard handles, re-forms only the touched cluster(s) and returns a
//!   new [`ClusteredStore`] with `generation() + 1`. A split is a median
//!   cut over the shard's inverted lists: whole lists, their ids and
//!   code bytes, move into the two children, so nothing is re-encoded
//!   and no coarse quantizer is retrained. The caller (see
//!   `hermes-serve`'s `GenerationCell`) keeps answering queries from the
//!   old generation and swaps atomically when the step completes.
//! * [`Rebalancer::rebuild`] is the stop-the-world reference: it just
//!   applies steps until quiescence. Because every step is a pure,
//!   deterministic function of the store state, an incremental
//!   rebalance interleaved with serving reaches **bit-identical** stores
//!   at every generation boundary — the equivalence the test suite pins.
//!
//! Every action re-anchors the touched clusters' drift baselines and
//! keeps `config.num_clusters` / `clusters_to_search` consistent with
//! the live cluster count.

use hermes_index::{InvertedList, IvfIndex, IvfParts, VectorIndex};
use hermes_kmeans::{KMeans, KMeansConfig};
use hermes_math::rng::derive_seed;
use hermes_math::Mat;

use crate::store::ClusteredStore;
use crate::HermesError;

/// Thresholds that trigger a rebalance step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Max tolerated `max/min` live-size ratio before the store is
    /// considered imbalanced (the paper's imbalance proxy).
    pub max_imbalance: f64,
    /// Max tolerated per-cluster centroid drift
    /// (`‖running − anchor‖ / (‖anchor‖ + ε)`) before the cluster is
    /// split and re-anchored.
    pub max_drift: f32,
    /// Clusters below `mean / merge_ratio` live documents are merged
    /// into their nearest neighbour when the store is imbalanced.
    pub merge_ratio: f64,
    /// Safety valve for [`Rebalancer::rebuild`]: stop after this many
    /// steps even if thresholds are still exceeded (degenerate data can
    /// make split/merge oscillate).
    pub max_steps: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            max_imbalance: 4.0,
            max_drift: 0.5,
            merge_ratio: 2.0,
            max_steps: 32,
        }
    }
}

/// One rebalance step: touches at most two clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Cut `cluster` in two halves of its live rows (sizes differ by at
    /// most one) along the axis of a seeded K-means (k = 2) over them:
    /// its inverted lists, ordered by their centroids' projection on the
    /// axis, go whole to one half, except the one list that straddles
    /// the median, whose rows are divided by their own projections. Each
    /// list centroid is re-centred on the rows it keeps. The first half
    /// replaces the cluster in place, the second half becomes a new
    /// cluster appended at the end.
    Split {
        /// Cluster to split.
        cluster: usize,
    },
    /// Move every live row of `from` into `into`, then drop `from`
    /// (clusters above `from` shift down by one).
    Merge {
        /// Dwarf cluster to dissolve.
        from: usize,
        /// Receiving cluster (nearest centroid), indexed *before* the
        /// removal of `from`.
        into: usize,
    },
}

/// Policy + mechanism for incremental split/merge rebalancing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rebalancer {
    config: RebalanceConfig,
}

impl Rebalancer {
    /// A rebalancer with the given thresholds.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer { config }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Proposes the next step for `store`, or `None` when the store is
    /// within thresholds. Deterministic: recomputed from live state, so
    /// repeated application is a stop-the-world rebuild.
    pub fn next_action(&self, store: &ClusteredStore) -> Option<RebalanceAction> {
        let sizes = store.cluster_sizes();
        let n = sizes.len();
        if n == 0 {
            return None;
        }
        let total: usize = sizes.iter().sum();
        let mean = total as f64 / n as f64;

        // Drift beats imbalance: a drifted cluster is answering queries
        // with stale list centroids even if sizes look fine, and a split
        // re-centres every list on the rows it holds.
        let drifted = store
            .cluster_drift()
            .into_iter()
            .enumerate()
            .filter(|&(c, d)| d > self.config.max_drift && sizes[c] >= 4)
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        if let Some((cluster, _)) = drifted {
            return Some(RebalanceAction::Split { cluster });
        }

        if store.imbalance() <= self.config.max_imbalance || n < 2 {
            return None;
        }
        let largest = argmax(sizes);
        let smallest = argmin(sizes);
        // Imbalance driven by a dwarf cluster: dissolve it into its
        // nearest neighbour. Driven by a giant: split the giant.
        if (sizes[smallest] as f64) * self.config.merge_ratio < mean {
            let into = nearest_other_centroid(store, smallest);
            return Some(RebalanceAction::Merge {
                from: smallest,
                into,
            });
        }
        if sizes[largest] >= 4 {
            return Some(RebalanceAction::Split { cluster: largest });
        }
        None
    }

    /// Executes one action, returning the next-generation store. The
    /// input store is untouched — serve from it until the swap.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] if a split names a cluster
    /// that does not exist or holds fewer than two live rows, and
    /// [`HermesError::Index`] if a touched shard fails to re-form.
    pub fn apply(
        &self,
        store: &ClusteredStore,
        action: RebalanceAction,
    ) -> Result<ClusteredStore, HermesError> {
        match action {
            RebalanceAction::Split { cluster } => split_cluster(store, cluster),
            RebalanceAction::Merge { from, into } => merge_clusters(store, from, into),
        }
    }

    /// Proposes and executes one step, or returns `None` at quiescence.
    ///
    /// # Errors
    ///
    /// Propagates [`Rebalancer::apply`] failures.
    pub fn step(&self, store: &ClusteredStore) -> Option<Result<ClusteredStore, HermesError>> {
        self.next_action(store).map(|a| self.apply(store, a))
    }

    /// Stop-the-world reference: applies steps until quiescence (or the
    /// `max_steps` safety valve). Returns the final store and the number
    /// of steps taken.
    ///
    /// # Errors
    ///
    /// Propagates [`Rebalancer::apply`] failures.
    pub fn rebuild(&self, store: &ClusteredStore) -> Result<(ClusteredStore, usize), HermesError> {
        let mut current = store.clone();
        let mut steps = 0;
        while steps < self.config.max_steps {
            match self.step(&current) {
                Some(next) => {
                    current = next?;
                    steps += 1;
                }
                None => break,
            }
        }
        Ok((current, steps))
    }
}

fn argmax(xs: &[usize]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

fn argmin(xs: &[usize]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

/// The other cluster whose running centroid is closest to `from`'s.
fn nearest_other_centroid(store: &ClusteredStore, from: usize) -> usize {
    let mut best = usize::MAX;
    let mut best_d = f32::INFINITY;
    for c in 0..store.num_clusters() {
        if c == from {
            continue;
        }
        let d = hermes_math::distance::l2_sq(store.split_centroid(c), store.split_centroid(from));
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// The store's per-cluster state, cloned into mutable working vectors.
struct Working {
    shards: Vec<IvfIndex>,
    centroids: Vec<Vec<f32>>,
    anchors: Vec<Vec<f32>>,
    sizes: Vec<usize>,
}

impl Working {
    fn new(store: &ClusteredStore) -> Self {
        let n = store.num_clusters();
        Working {
            shards: (0..n).map(|c| store.shard(c).clone()).collect(),
            centroids: (0..n).map(|c| store.split_centroid(c).to_vec()).collect(),
            anchors: (0..n).map(|c| store.anchor_centroid(c).to_vec()).collect(),
            sizes: store.cluster_sizes().to_vec(),
        }
    }

    /// Puts a re-formed cluster's shard back at `cluster`, where it was
    /// taken out (`sizes.len()` appends a new cluster), its drift
    /// baseline re-anchored to its centroid.
    fn put(&mut self, cluster: usize, shard: IvfIndex, centroid: Vec<f32>) {
        if cluster == self.sizes.len() {
            self.sizes.push(0);
            self.centroids.push(Vec::new());
            self.anchors.push(Vec::new());
        }
        self.sizes[cluster] = shard.len();
        self.shards.insert(cluster, shard);
        self.anchors[cluster] = centroid.clone();
        self.centroids[cluster] = centroid;
    }

    fn assemble(self, store: &ClusteredStore) -> ClusteredStore {
        let n = self.shards.len();
        let mut config = *store.config();
        config.num_clusters = n;
        config.clusters_to_search = config.clusters_to_search.min(n).max(1);
        ClusteredStore::from_parts_full(
            config,
            self.shards,
            Mat::from_rows(&self.centroids),
            Mat::from_rows(&self.anchors),
            self.sizes,
            store.chosen_seed(),
            store.generation() + 1,
        )
    }
}

/// Seed for the K-means of one step: derived from the store's chosen
/// seed, the generation being produced and the touched cluster, so
/// replays are exact.
fn step_seed(store: &ClusteredStore, cluster: usize) -> u64 {
    derive_seed(
        derive_seed(store.chosen_seed(), store.generation() + 1),
        cluster as u64,
    )
}

/// Where a median cut sends one inverted list.
#[derive(Clone, Copy)]
enum Side {
    First,
    Second,
    /// The list straddling the median: its first `usize` rows by
    /// projection go to the first half, the rest to the second.
    Divided(usize),
}

/// One half of a cut in the making: its lists in the parent's list
/// order, their centroids, and its rows' indices into the decoded shard.
#[derive(Default)]
struct Half {
    lists: Vec<InvertedList>,
    centroids: Vec<f32>,
    rows: Vec<usize>,
}

impl Half {
    fn push(&mut self, list: InvertedList, centroid: &[f32], rows: impl Iterator<Item = usize>) {
        self.lists.push(list);
        self.centroids.extend_from_slice(centroid);
        self.rows.extend(rows);
    }

    /// The half's shard, over the parent's codec, and the mean of its rows.
    fn finish(
        self,
        data: &Mat,
        codec: hermes_quant::Codec,
        metric: hermes_math::Metric,
    ) -> Result<(IvfIndex, Vec<f32>), HermesError> {
        let counts = self.lists.iter().map(|l| l.ids.len()).collect();
        let centroids = Mat::from_flat(self.lists.len(), data.cols(), self.centroids);
        let shard = IvfIndex::from_parts(IvfParts {
            coarse: KMeans::from_centroids(centroids, counts),
            codec,
            metric,
            lists: self.lists,
        })?;
        Ok((
            shard,
            mean_of(self.rows.iter().map(|&r| data.row(r)), data.cols()),
        ))
    }
}

fn split_cluster(store: &ClusteredStore, cluster: usize) -> Result<ClusteredStore, HermesError> {
    if cluster >= store.num_clusters() {
        return Err(HermesError::InvalidConfig(format!(
            "split names unknown cluster {cluster}"
        )));
    }
    let live = store.shard(cluster).len();
    if live < 2 {
        return Err(HermesError::InvalidConfig(format!(
            "cluster {cluster} holds {live} live rows; a split needs two"
        )));
    }
    let mut work = Working::new(store);
    let IvfParts {
        coarse,
        codec,
        metric,
        lists,
    } = work.shards.remove(cluster).into_parts();

    // The shard's rows, decoded once, list after list in position order.
    let dim = codec.dim();
    let mut flat = Vec::with_capacity(live * dim);
    for list in &lists {
        for code in list.codes.chunks_exact(codec.code_size()) {
            flat.extend_from_slice(&codec.decode(code));
        }
    }
    let data = Mat::from_flat(live, dim, flat);
    let two = KMeans::train(
        &data,
        &KMeansConfig::new(2).with_seed(step_seed(store, cluster)),
    );
    let axis: Vec<f32> = (two.centroids().row(1).iter())
        .zip(two.centroids().row(0))
        .map(|(x, y)| x - y)
        .collect();

    // Each list's rows in `data`, and its centroid re-centred on them (an
    // empty list keeps its trained one).
    let mut starts = Vec::with_capacity(lists.len() + 1);
    starts.push(0);
    for list in &lists {
        starts.push(starts[starts.len() - 1] + list.ids.len());
    }
    let rows_of = |l: usize| starts[l]..starts[l + 1];
    let centroids: Vec<Vec<f32>> = (0..lists.len())
        .map(|l| match rows_of(l).len() {
            0 => coarse.centroids().row(l).to_vec(),
            _ => mean_of(rows_of(l).map(|r| data.row(r)), dim),
        })
        .collect();

    // Lists by their centroids' projection: the first half takes whole
    // lists until it holds ⌊n/2⌋ rows, and divides the one that crosses.
    let mut order: Vec<(f32, usize)> = (centroids.iter().map(|c| dot(c, &axis))).zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut sides = vec![Side::Second; lists.len()];
    let mut room = live / 2;
    for &(_, l) in &order {
        if room == 0 {
            break;
        }
        let len = rows_of(l).len();
        sides[l] = if len <= room {
            room -= len;
            Side::First
        } else {
            Side::Divided(std::mem::take(&mut room))
        };
    }

    let mut halves = [Half::default(), Half::default()];
    for ((l, list), side) in lists.into_iter().enumerate().zip(sides) {
        match side {
            Side::First => halves[0].push(list, &centroids[l], rows_of(l)),
            Side::Second => halves[1].push(list, &centroids[l], rows_of(l)),
            Side::Divided(first) => {
                let rows = rows_of(l);
                let parts = divide(list, rows.clone(), first, &data, &axis, codec.code_size());
                for (half, (part, rows)) in halves.iter_mut().zip(parts) {
                    let centroid = mean_of(rows.iter().map(|&r| data.row(r)), dim);
                    half.push(part, &centroid, rows.into_iter());
                }
            }
        }
    }

    let [first, second] = halves;
    let (shard, centroid) = first.finish(&data, codec.clone(), metric)?;
    work.put(cluster, shard, centroid);
    let (shard, centroid) = second.finish(&data, codec, metric)?;
    work.put(work.sizes.len(), shard, centroid);
    Ok(work.assemble(store))
}

/// Divides the list whose rows are `rows` of `data`: its first `first`
/// rows by `(projection on axis, position)` go to the first part, the
/// rest to the second, each part in position order and with its rows'
/// indices into `data`.
fn divide(
    list: InvertedList,
    rows: std::ops::Range<usize>,
    first: usize,
    data: &Mat,
    axis: &[f32],
    code_size: usize,
) -> [(InvertedList, Vec<usize>); 2] {
    let mut by_projection: Vec<(f32, usize)> = (rows.clone().map(|r| dot(data.row(r), axis)))
        .zip(0..)
        .collect();
    by_projection.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut goes_first = vec![false; rows.len()];
    for &(_, pos) in &by_projection[..first] {
        goes_first[pos] = true;
    }
    let mut parts: [(InvertedList, Vec<usize>); 2] = Default::default();
    let codes = list.codes.chunks_exact(code_size);
    for (((&id, code), row), first) in list.ids.iter().zip(codes).zip(rows).zip(goes_first) {
        let (part, part_rows) = &mut parts[usize::from(!first)];
        part.ids.push(id);
        part.codes.extend_from_slice(code);
        part_rows.push(row);
    }
    parts
}

fn merge_clusters(
    store: &ClusteredStore,
    from: usize,
    into: usize,
) -> Result<ClusteredStore, HermesError> {
    let mut work = Working::new(store);
    for (id, v) in store.shard(from).export_live() {
        work.shards[into].add(id, &v).map_err(HermesError::Index)?;
        work.sizes[into] += 1;
        hermes_kmeans::running_update(&mut work.centroids[into], &v, work.sizes[into]);
    }
    // The receiving cluster absorbed a whole shard: re-anchor its drift
    // baseline to the merged centroid.
    work.anchors[into] = work.centroids[into].clone();

    work.shards.remove(from);
    work.centroids.remove(from);
    work.anchors.remove(from);
    work.sizes.remove(from);

    Ok(work.assemble(store))
}

/// Column-wise mean of `rows` in the order given (zeros for none), with
/// one scalar update order at every SIMD level.
fn mean_of<'a>(rows: impl Iterator<Item = &'a [f32]>, dim: usize) -> Vec<f32> {
    let mut mean = vec![0.0f32; dim];
    for (i, row) in rows.enumerate() {
        hermes_kmeans::running_update(&mut mean, row, i + 1);
    }
    mean
}

/// Dot product summed left to right: the same bits at every SIMD level.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |sum, (x, y)| sum + x * y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HermesConfig;
    use hermes_datagen::{Corpus, CorpusSpec};

    fn store(n: usize, clusters: usize) -> ClusteredStore {
        let corpus = Corpus::generate(CorpusSpec::new(n, 10, clusters).with_seed(91));
        let cfg = HermesConfig::new(clusters)
            .with_clusters_to_search(2)
            .with_seed(92);
        ClusteredStore::build(corpus.embeddings(), &cfg).unwrap()
    }

    #[test]
    fn balanced_store_is_quiescent() {
        let s = store(600, 4);
        let r = Rebalancer::default();
        assert!(s.imbalance() <= r.config().max_imbalance);
        assert_eq!(r.next_action(&s), None);
    }

    #[test]
    fn skewed_inserts_trigger_a_split_that_lowers_imbalance() {
        let mut s = store(600, 4);
        // Pile topical inserts onto whichever cluster owns this vector.
        let v: Vec<f32> = s.split_centroid(0).to_vec();
        let before = s.imbalance();
        for i in 0..900 {
            s.insert(10_000 + i, &v).unwrap();
        }
        assert!(s.imbalance() > before);
        let r = Rebalancer::new(RebalanceConfig {
            max_imbalance: 2.0,
            max_drift: f32::INFINITY,
            ..RebalanceConfig::default()
        });
        let action = r.next_action(&s).expect("skew should trigger");
        let next = r.apply(&s, action).unwrap();
        assert_eq!(next.generation(), s.generation() + 1);
        assert_eq!(
            next.len(),
            s.len(),
            "rebalance moves rows, never drops them"
        );
        match action {
            RebalanceAction::Split { .. } => {
                assert_eq!(next.num_clusters(), s.num_clusters() + 1)
            }
            RebalanceAction::Merge { .. } => {
                assert_eq!(next.num_clusters(), s.num_clusters() - 1)
            }
        }
    }

    #[test]
    fn rebuild_reaches_quiescence_and_preserves_every_live_row() {
        let mut s = store(400, 4);
        let v: Vec<f32> = s.split_centroid(1).to_vec();
        for i in 0..600 {
            s.insert(20_000 + i, &v).unwrap();
        }
        let r = Rebalancer::new(RebalanceConfig {
            max_imbalance: 2.5,
            ..RebalanceConfig::default()
        });
        let (rebuilt, steps) = r.rebuild(&s).unwrap();
        assert!(steps > 0);
        assert_eq!(rebuilt.generation(), s.generation() + steps as u64);
        assert_eq!(rebuilt.len(), s.len());
        if steps < r.config().max_steps {
            assert_eq!(r.next_action(&rebuilt), None, "rebuild ends quiescent");
        }
        // Every live id survives, exactly once.
        let mut ids: Vec<u64> = (0..rebuilt.num_clusters())
            .flat_map(|c| rebuilt.shard(c).export_live().into_iter().map(|(id, _)| id))
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = (0..rebuilt.num_clusters())
            .flat_map(|_| Vec::new())
            .collect();
        expected.extend((0..400u64).collect::<Vec<_>>());
        expected.extend((20_000..20_600u64).collect::<Vec<_>>());
        expected.sort_unstable();
        assert_eq!(ids, expected);
        // Config stays consistent with the live cluster count.
        assert_eq!(rebuilt.config().num_clusters, rebuilt.num_clusters());
        assert!(rebuilt.config().clusters_to_search <= rebuilt.num_clusters());
    }

    #[test]
    fn drift_triggers_a_split_and_reanchors() {
        let mut s = store(400, 4);
        // Drag cluster 0's running centroid far from its anchor with
        // inserts at a displaced location.
        let mut v: Vec<f32> = s.split_centroid(0).to_vec();
        for x in v.iter_mut() {
            *x += 50.0;
        }
        for i in 0..400 {
            s.insert(30_000 + i, &v).unwrap();
        }
        let drifts = s.cluster_drift();
        let r = Rebalancer::new(RebalanceConfig {
            max_imbalance: f64::INFINITY,
            max_drift: 0.25,
            ..RebalanceConfig::default()
        });
        assert!(
            drifts.iter().any(|&d| d > 0.25),
            "churn should register as drift, got {drifts:?}"
        );
        let action = r.next_action(&s).expect("drift should trigger");
        assert!(matches!(action, RebalanceAction::Split { .. }));
        let next = r.apply(&s, action).unwrap();
        // Touched clusters are re-anchored: their drift reads ~0.
        let d2 = next.cluster_drift();
        if let RebalanceAction::Split { cluster } = action {
            assert!(d2[cluster] < 1e-3, "split re-anchors, got {}", d2[cluster]);
            assert!(d2[next.num_clusters() - 1] < 1e-3);
        }
    }

    #[test]
    fn apply_is_deterministic_and_pure() {
        let mut s = store(300, 3);
        let v: Vec<f32> = s.split_centroid(0).to_vec();
        for i in 0..500 {
            s.insert(40_000 + i, &v).unwrap();
        }
        let r = Rebalancer::new(RebalanceConfig {
            max_imbalance: 2.0,
            ..RebalanceConfig::default()
        });
        let action = r.next_action(&s).unwrap();
        let a = r.apply(&s, action).unwrap();
        let b = r.apply(&s, action).unwrap();
        // Same action on the same input → bit-identical stores.
        assert_eq!(a.to_paged_bytes(), b.to_paged_bytes());
        // And the input store is untouched.
        assert_eq!(s.generation(), 0);
    }

    /// Every row of `shard` as `(id, decoded bits)`, sorted by id.
    fn rows(shard: &IvfIndex) -> Vec<(u64, Vec<u32>)> {
        let mut rows: Vec<_> = (shard.export_live().into_iter())
            .map(|(id, v)| (id, v.iter().map(|x| x.to_bits()).collect()))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Splits `cluster` and returns the parent's rows and its two
    /// children's, as [`rows`] reads them.
    fn split_rows(s: &ClusteredStore, cluster: usize) -> [Vec<(u64, Vec<u32>)>; 3] {
        let next = Rebalancer::default()
            .apply(s, RebalanceAction::Split { cluster })
            .unwrap();
        assert_eq!(next.num_clusters(), s.num_clusters() + 1);
        let last = next.num_clusters() - 1;
        for (c, shard) in [(cluster, next.shard(cluster)), (last, next.shard(last))] {
            assert_eq!(next.cluster_sizes()[c], shard.len());
        }
        [s.shard(cluster), next.shard(cluster), next.shard(last)].map(rows)
    }

    #[test]
    fn a_split_moves_every_row_once_without_re_encoding_it() {
        let mut s = store(600, 4);
        let v: Vec<f32> = s.split_centroid(2).to_vec();
        for i in 0..300 {
            let row: Vec<f32> = v.iter().map(|x| x + (i % 7) as f32 * 0.01).collect();
            s.insert(50_000 + i, &row).unwrap();
        }
        for cluster in 0..s.num_clusters() {
            let [parent, a, b] = split_rows(&s, cluster);
            // Exactly the parent's ids, each once, and every row the
            // parent's code bytes: it decodes to the same f32 bits.
            let mut children: Vec<_> = a.iter().chain(&b).cloned().collect();
            children.sort_unstable();
            assert_eq!(children, parent, "cluster {cluster}");
            assert!(
                a.len().abs_diff(b.len()) <= 1,
                "cluster {cluster}: halves of {} and {}",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn a_cluster_of_identical_rows_in_one_list_halves() {
        let data = Mat::from_rows(&vec![vec![0.5f32, -1.0, 2.0, 0.25]; 41]);
        let cfg = HermesConfig::new(1).with_clusters_to_search(1).with_seed(7);
        let s = ClusteredStore::build(&data, &cfg).unwrap();
        let stats = s.shard(0).stats();
        assert_eq!(stats.max_list, 41, "every row shares one list");
        let [parent, a, b] = split_rows(&s, 0);
        assert_eq!((a.len(), b.len()), (20, 21));
        let mut children = [a, b].concat();
        children.sort_unstable();
        assert_eq!(children, parent);
    }

    #[test]
    fn splitting_an_emptied_or_unknown_cluster_is_an_error() {
        let mut s = store(300, 3);
        let ids: Vec<u64> = s.shard(1).export_live().iter().map(|r| r.0).collect();
        let r = Rebalancer::default();
        for &id in &ids {
            assert_eq!(s.remove(id), Some(1));
            let live = s.cluster_sizes()[1];
            if live < 2 {
                let err = r.apply(&s, RebalanceAction::Split { cluster: 1 });
                assert!(
                    matches!(err, Err(HermesError::InvalidConfig(_))),
                    "{live} rows: {err:?}"
                );
            }
        }
        assert_eq!(s.cluster_sizes()[1], 0);
        let err = r.apply(&s, RebalanceAction::Split { cluster: 3 });
        assert!(matches!(err, Err(HermesError::InvalidConfig(_))), "{err:?}");
    }
}
