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
//!   shard handles, rebuilds only the touched cluster(s) and returns a
//!   new [`ClusteredStore`] with `generation() + 1`. The caller (see
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

use hermes_index::{IvfIndex, VectorIndex};
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
    /// Re-cluster `cluster`'s live rows with K-means (k = 2); the first
    /// half replaces the cluster in place, the second half becomes a new
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
        // with a stale coarse quantizer even if sizes look fine.
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
    /// Returns [`HermesError::Index`] if a touched shard fails to
    /// rebuild.
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

/// Clones the store's per-cluster state into mutable working vectors.
fn working_state(
    store: &ClusteredStore,
) -> (Vec<IvfIndex>, Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<usize>) {
    let n = store.num_clusters();
    let shards = (0..n).map(|c| store.shard(c).clone()).collect();
    let centroids = (0..n).map(|c| store.split_centroid(c).to_vec()).collect();
    let anchors = (0..n).map(|c| store.anchor_centroid(c).to_vec()).collect();
    let sizes = store.cluster_sizes().to_vec();
    (shards, centroids, anchors, sizes)
}

fn assemble(
    store: &ClusteredStore,
    shards: Vec<IvfIndex>,
    centroids: Vec<Vec<f32>>,
    anchors: Vec<Vec<f32>>,
    sizes: Vec<usize>,
) -> ClusteredStore {
    let n = shards.len();
    let mut config = *store.config();
    config.num_clusters = n;
    config.clusters_to_search = config.clusters_to_search.min(n).max(1);
    ClusteredStore::from_parts_full(
        config,
        shards,
        Mat::from_rows(&centroids),
        Mat::from_rows(&anchors),
        sizes,
        store.chosen_seed(),
        store.generation() + 1,
    )
}

/// Seed for the K-means and shard builds of one step: derived from the
/// store's chosen seed, the generation being produced and the touched
/// cluster, so replays are exact.
fn step_seed(store: &ClusteredStore, cluster: usize) -> u64 {
    derive_seed(
        derive_seed(store.chosen_seed(), store.generation() + 1),
        cluster as u64,
    )
}

fn split_cluster(store: &ClusteredStore, cluster: usize) -> Result<ClusteredStore, HermesError> {
    let (mut shards, mut centroids, mut anchors, mut sizes) = working_state(store);
    let seed = step_seed(store, cluster);

    // The shard's live rows, flattened once; the halves are gathered
    // from it by row index.
    let exported = store.shard(cluster).export_live();
    let dim = store.split_centroid(cluster).len();
    let mut ids = Vec::with_capacity(exported.len());
    let mut flat = Vec::with_capacity(exported.len() * dim);
    for (id, v) in exported {
        ids.push(id);
        flat.extend_from_slice(&v);
    }
    let data = Mat::from_flat(ids.len(), dim, flat);
    let model = KMeans::train(&data, &KMeansConfig::new(2).with_seed(seed));
    let mut halves: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (i, &half) in model.assignments().iter().enumerate() {
        halves[half as usize].push(i);
    }
    // K-means can collapse to one side on degenerate data; fall back to
    // a deterministic even/odd interleave so the split still halves.
    if halves[0].is_empty() || halves[1].is_empty() {
        halves = [0, 1].map(|h| (h..data.rows()).step_by(2).collect());
    }

    let mut built = halves.into_iter().enumerate().map(|(h, half)| {
        let half_ids: Vec<u64> = half.iter().map(|&i| ids[i]).collect();
        let half_data = data.gather_rows(half);
        let centroid = mean_of(&half_data);
        let index = IvfIndex::builder()
            .codec(store.config().codec)
            .metric(store.config().metric)
            .seed(derive_seed(seed, h as u64))
            .build_with_ids(&half_data, half_ids)
            .map_err(HermesError::Index)?;
        Ok::<_, HermesError>((index, centroid))
    });

    let (index_a, centroid_a) = built.next().unwrap()?;
    let (index_b, centroid_b) = built.next().unwrap()?;

    sizes[cluster] = index_a.len();
    shards[cluster] = index_a;
    centroids[cluster] = centroid_a.clone();
    anchors[cluster] = centroid_a;

    sizes.push(index_b.len());
    shards.push(index_b);
    centroids.push(centroid_b.clone());
    anchors.push(centroid_b);

    Ok(assemble(store, shards, centroids, anchors, sizes))
}

fn merge_clusters(
    store: &ClusteredStore,
    from: usize,
    into: usize,
) -> Result<ClusteredStore, HermesError> {
    let (mut shards, mut centroids, mut anchors, mut sizes) = working_state(store);
    for (id, v) in store.shard(from).export_live() {
        shards[into].add(id, &v).map_err(HermesError::Index)?;
        sizes[into] += 1;
        hermes_kmeans::running_update(&mut centroids[into], &v, sizes[into]);
    }
    // The receiving cluster absorbed a whole shard: re-anchor its drift
    // baseline to the merged centroid.
    anchors[into] = centroids[into].clone();

    shards.remove(from);
    centroids.remove(from);
    anchors.remove(from);
    sizes.remove(from);

    Ok(assemble(store, shards, centroids, anchors, sizes))
}

/// Column-wise mean of non-empty `rows`.
fn mean_of(rows: &Mat) -> Vec<f32> {
    let mut mean = vec![0.0f32; rows.cols()];
    for (i, row) in rows.iter_rows().enumerate() {
        hermes_kmeans::running_update(&mut mean, row, i + 1);
    }
    mean
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
}
