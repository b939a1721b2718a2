//! The clustered, distributed datastore (paper Section 4.1).

use hermes_index::{IvfIndex, VectorIndex};
use hermes_kmeans::{KMeans, KMeansConfig, SeedSweep};
use hermes_math::Mat;

use crate::config::{HermesConfig, SplitStrategy};
use crate::HermesError;

/// Metadata about one cluster shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// Cluster index (= node id in a 1:1 placement).
    pub cluster: usize,
    /// Number of documents in the shard.
    pub size: usize,
    /// Resident bytes of the shard's IVF index.
    pub memory_bytes: usize,
    /// Centroid drift since build (or since the last rebalance touched
    /// this cluster): `‖running − anchor‖ / (‖anchor‖ + ε)`.
    pub drift: f32,
}

/// A datastore split into per-node IVF indices.
///
/// Built with K-means (seed-swept by default) so similar documents land in
/// the same shard; each shard carries its own IVF index over *global*
/// document ids, so per-cluster results merge without translation.
///
/// # Examples
///
/// ```
/// use hermes_core::{ClusteredStore, HermesConfig};
/// use hermes_math::Mat;
///
/// let rows: Vec<Vec<f32>> = (0..300)
///     .map(|i| vec![(i % 3) as f32 * 10.0, (i / 3) as f32 * 0.01])
///     .collect();
/// let data = Mat::from_rows(&rows);
/// let cfg = HermesConfig::new(3).with_clusters_to_search(1);
/// let store = ClusteredStore::build(&data, &cfg)?;
/// assert_eq!(store.num_clusters(), 3);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusteredStore {
    config: HermesConfig,
    shards: Vec<IvfIndex>,
    /// *Running* K-means centroid of each shard in the original embedding
    /// space (used by centroid-only routing, insert routing and
    /// diagnostics). Updated in place as documents insert/remove.
    split_centroids: Mat,
    /// Centroid anchors for drift tracking: the split centroids as of
    /// build time, re-anchored per cluster whenever a rebalance step
    /// rebuilds that cluster.
    anchor_centroids: Mat,
    /// Documents per shard.
    sizes: Vec<usize>,
    /// Winning seed of the imbalance sweep (equals `config.seed` when no
    /// sweep ran).
    chosen_seed: u64,
    /// Rebalance generation: 0 at build, +1 per applied split/merge
    /// step. The serving layer swaps whole-store generations atomically
    /// (see `hermes-serve`'s `GenerationCell`).
    generation: u64,
}

impl ClusteredStore {
    /// Splits `data` into `config.num_clusters` shards and builds one IVF
    /// index per shard, with implicit global ids `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] for inconsistent configs and
    /// [`HermesError::Index`] if any shard fails to build (e.g. empty
    /// data).
    pub fn build(data: &Mat, config: &HermesConfig) -> Result<Self, HermesError> {
        config.validate()?;
        if data.rows() == 0 {
            return Err(HermesError::Index(hermes_index::IndexError::Empty));
        }
        let c = config.num_clusters.min(data.rows());

        // --- Step 1: dataset disaggregation. ---
        let (assignments, split_centroids, chosen_seed) = match config.split {
            SplitStrategy::KMeansSweep {
                seeds,
                sample_fraction,
            } => {
                let sweep = SeedSweep::new(KMeansConfig::new(c).with_seed(config.seed), seeds)
                    .with_subsample(sample_fraction, config.seed);
                let result = sweep.run(data);
                // Warm-start the full-data refinement from the winning
                // subsample centroids so the sweep's low imbalance
                // transfers to the full split (Section 4.1).
                let model = KMeans::train_from_centroids(
                    data,
                    result.best_centroids,
                    &KMeansConfig::new(c).with_seed(result.best_seed),
                );
                (
                    model.assignments().to_vec(),
                    model.centroids().clone(),
                    result.best_seed,
                )
            }
            SplitStrategy::KMeansSingle => {
                let model = KMeans::train(data, &KMeansConfig::new(c).with_seed(config.seed));
                (
                    model.assignments().to_vec(),
                    model.centroids().clone(),
                    config.seed,
                )
            }
            SplitStrategy::RoundRobin => {
                let assignments: Vec<u32> = (0..data.rows()).map(|i| (i % c) as u32).collect();
                let centroids = mean_per_cluster(data, &assignments, c);
                (assignments, centroids, config.seed)
            }
        };

        // --- Step 2: one IVF index per shard over global ids. ---
        let mut shard_ids: Vec<Vec<u64>> = vec![Vec::new(); c];
        for (i, &s) in assignments.iter().enumerate() {
            shard_ids[s as usize].push(i as u64);
        }

        let mut shards = Vec::with_capacity(c);
        let mut sizes = Vec::with_capacity(c);
        for (s, ids) in shard_ids.into_iter().enumerate() {
            // One shard's rows at a time, gathered straight into one flat
            // matrix that is dropped before the next shard's. K-means can
            // leave a shard empty on degenerate data; keep a sentinel
            // one-vector shard so cluster indices stay aligned.
            let (shard_data, ids) = if ids.is_empty() {
                let sentinel = split_centroids.row(s).to_vec();
                (Mat::from_flat(1, data.cols(), sentinel), vec![u64::MAX])
            } else {
                (data.gather_rows(ids.iter().map(|&i| i as usize)), ids)
            };
            sizes.push(ids.len());
            let index = IvfIndex::builder()
                .codec(config.codec)
                .metric(config.metric)
                .seed(hermes_math::rng::derive_seed(config.seed, s as u64))
                .build_with_ids(&shard_data, ids)?;
            shards.push(index);
        }

        Ok(ClusteredStore {
            config: *config,
            shards,
            anchor_centroids: split_centroids.clone(),
            split_centroids,
            sizes,
            chosen_seed,
            generation: 0,
        })
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &HermesConfig {
        &self.config
    }

    /// Number of cluster shards.
    pub fn num_clusters(&self) -> usize {
        self.shards.len()
    }

    /// Documents per shard.
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Max/min shard-size ratio — the paper's imbalance proxy.
    pub fn imbalance(&self) -> f64 {
        hermes_math::stats::imbalance_ratio(&self.sizes).unwrap_or(f64::INFINITY)
    }

    /// The seed chosen by the imbalance sweep.
    pub fn chosen_seed(&self) -> u64 {
        self.chosen_seed
    }

    /// Borrow one shard's index.
    ///
    /// # Panics
    ///
    /// Panics if `cluster >= num_clusters()`.
    pub fn shard(&self, cluster: usize) -> &IvfIndex {
        &self.shards[cluster]
    }

    /// The split centroid of one shard.
    pub fn split_centroid(&self, cluster: usize) -> &[f32] {
        self.split_centroids.row(cluster)
    }

    /// The full split-centroid table.
    pub fn split_centroids_mat(&self) -> &Mat {
        &self.split_centroids
    }

    /// Reassembles a store with full mutable-state metadata (paged
    /// persistence, rebalancer).
    pub(crate) fn from_parts_full(
        config: HermesConfig,
        shards: Vec<IvfIndex>,
        split_centroids: Mat,
        anchor_centroids: Mat,
        sizes: Vec<usize>,
        chosen_seed: u64,
        generation: u64,
    ) -> Self {
        ClusteredStore {
            config,
            shards,
            split_centroids,
            anchor_centroids,
            sizes,
            chosen_seed,
            generation,
        }
    }

    /// Rebalance generation (0 at build, +1 per applied split/merge).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The drift anchor of one cluster (the centroid as of build or the
    /// last rebalance step that touched the cluster).
    pub fn anchor_centroid(&self, cluster: usize) -> &[f32] {
        self.anchor_centroids.row(cluster)
    }

    /// Per-cluster centroid drift since its anchor:
    /// `‖running − anchor‖ / (‖anchor‖ + ε)`.
    pub fn cluster_drift(&self) -> Vec<f32> {
        (0..self.num_clusters())
            .map(|c| {
                let delta = hermes_math::distance::l2_sq(
                    self.split_centroids.row(c),
                    self.anchor_centroids.row(c),
                )
                .sqrt();
                let base = hermes_math::distance::norm(self.anchor_centroids.row(c)) + f32::EPSILON;
                delta / base
            })
            .collect()
    }

    /// Inserts a new document online: routes it to the cluster with the
    /// nearest (running) split centroid, streams it into that shard's
    /// IVF index and folds it into the running centroid. Returns the
    /// chosen cluster.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::Index`] on dimension mismatch.
    pub fn insert(&mut self, id: u64, v: &[f32]) -> Result<usize, HermesError> {
        let dim = self.split_centroids.cols();
        if v.len() != dim {
            return Err(HermesError::Index(
                hermes_index::IndexError::DimensionMismatch {
                    expected: dim,
                    got: v.len(),
                },
            ));
        }
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..self.num_clusters() {
            let d = hermes_math::distance::l2_sq(self.split_centroids.row(c), v);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        self.shards[best].add(id, v)?;
        self.sizes[best] += 1;
        hermes_kmeans::running_update(self.split_centroids.row_mut(best), v, self.sizes[best]);
        Ok(best)
    }

    /// Removes a document by global id: deletes its row from the first
    /// shard, in cluster order, that holds it ([`IvfIndex::take`]) and
    /// removes its contribution from that cluster's running centroid
    /// (using the decoded stored vector — deterministic, and exact for
    /// lossless codecs). Returns the cluster it lived in, or `None` if no
    /// document carries `id`.
    pub fn remove(&mut self, id: u64) -> Option<usize> {
        for c in 0..self.num_clusters() {
            if let Some(v) = self.shards[c].take(id) {
                self.sizes[c] -= 1;
                hermes_kmeans::running_downdate(self.split_centroids.row_mut(c), &v, self.sizes[c]);
                return Some(c);
            }
        }
        None
    }

    /// Per-cluster metadata (size, memory, drift).
    pub fn cluster_infos(&self) -> Vec<ClusterInfo> {
        let drift = self.cluster_drift();
        self.shards
            .iter()
            .enumerate()
            .map(|(cluster, shard)| ClusterInfo {
                cluster,
                size: self.sizes[cluster],
                memory_bytes: shard.memory_bytes(),
                drift: drift[cluster],
            })
            .collect()
    }

    /// Total resident bytes across shards.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(VectorIndex::memory_bytes).sum()
    }

    /// Total live documents stored.
    pub fn len(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Whether the store holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn mean_per_cluster(data: &Mat, assignments: &[u32], c: usize) -> Mat {
    let mut sums = Mat::zeros(c, data.cols());
    let mut counts = vec![0usize; c];
    for (i, row) in data.iter_rows().enumerate() {
        let s = assignments[i] as usize;
        hermes_math::distance::add_assign(sums.row_mut(s), row);
        counts[s] += 1;
    }
    for (s, &count) in counts.iter().enumerate() {
        if count > 0 {
            hermes_math::distance::scale(sums.row_mut(s), 1.0 / count as f32);
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_datagen::{Corpus, CorpusSpec};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusSpec::new(600, 16, 6).with_seed(1))
    }

    #[test]
    fn build_produces_requested_clusters() {
        let c = corpus();
        let cfg = HermesConfig::new(6).with_seed(3);
        let store = ClusteredStore::build(c.embeddings(), &cfg).unwrap();
        assert_eq!(store.num_clusters(), 6);
        assert_eq!(store.len(), 600);
    }

    #[test]
    fn kmeans_split_groups_topics_together() {
        let c = corpus();
        let cfg = HermesConfig::new(6).with_seed(3);
        let store = ClusteredStore::build(c.embeddings(), &cfg).unwrap();
        // With crisp topics, clusters should be much purer than random:
        // measure the average dominant-topic share per shard by checking
        // where each document's id landed.
        // Reconstruct shard membership: search each document in every
        // shard and see which contains it.
        let mut shard_of = vec![0usize; 600];
        for (doc, row) in c.embeddings().iter_rows().enumerate() {
            let mut found = None;
            for cl in 0..store.num_clusters() {
                let hits = store
                    .shard(cl)
                    .search(row, 1, &hermes_index::SearchParams::new().with_nprobe(64))
                    .unwrap();
                if hits.first().map(|h| h.id) == Some(doc as u64) {
                    found = Some(cl);
                    break;
                }
            }
            shard_of[doc] = found.unwrap_or(usize::MAX);
        }
        let mut purity_num = 0usize;
        for cl in 0..store.num_clusters() {
            let members: Vec<usize> = (0..600).filter(|&d| shard_of[d] == cl).collect();
            if members.is_empty() {
                continue;
            }
            let mut counts = std::collections::HashMap::new();
            for &m in &members {
                *counts.entry(c.topic_of()[m]).or_insert(0usize) += 1;
            }
            purity_num += counts.values().max().copied().unwrap_or(0);
        }
        let purity = purity_num as f64 / 600.0;
        assert!(purity > 0.8, "cluster purity {purity}");
    }

    #[test]
    fn round_robin_split_is_perfectly_balanced() {
        let c = corpus();
        let cfg = HermesConfig::new(6)
            .with_seed(3)
            .with_split(SplitStrategy::RoundRobin);
        let store = ClusteredStore::build(c.embeddings(), &cfg).unwrap();
        assert_eq!(store.imbalance(), 1.0);
    }

    #[test]
    fn seed_sweep_does_not_worsen_imbalance() {
        let c = corpus();
        let single = ClusteredStore::build(
            c.embeddings(),
            &HermesConfig::new(6)
                .with_seed(3)
                .with_split(SplitStrategy::KMeansSingle),
        )
        .unwrap();
        let swept = ClusteredStore::build(
            c.embeddings(),
            &HermesConfig::new(6)
                .with_seed(3)
                .with_split(SplitStrategy::KMeansSweep {
                    seeds: 6,
                    sample_fraction: 0.5,
                }),
        )
        .unwrap();
        assert!(swept.imbalance() <= single.imbalance() * 1.5);
    }

    #[test]
    fn cluster_infos_align_with_sizes() {
        let c = corpus();
        let store =
            ClusteredStore::build(c.embeddings(), &HermesConfig::new(4).with_seed(5)).unwrap();
        let infos = store.cluster_infos();
        assert_eq!(infos.len(), 4);
        for info in &infos {
            assert_eq!(info.size, store.cluster_sizes()[info.cluster]);
            assert!(info.memory_bytes > 0);
        }
        assert_eq!(
            store.memory_bytes(),
            infos.iter().map(|i| i.memory_bytes).sum()
        );
    }

    #[test]
    fn an_id_in_two_shards_is_removed_from_the_lower_cluster_first() {
        // Whichever shard got the id first, `remove` walks the shards in
        // cluster order: the lower cluster's row goes first.
        let c = corpus();
        let store =
            ClusteredStore::build(c.embeddings(), &HermesConfig::new(4).with_seed(5)).unwrap();
        let (low, high) = (0, store.num_clusters() - 1);
        for (home, other) in [(low, high), (high, low)] {
            let mut store = store.clone();
            let id = store.shard(home).export_live()[0].0;
            let v = store.split_centroid(other).to_vec();
            assert_eq!(store.insert(id, &v).unwrap(), other);
            let sizes = store.cluster_sizes().to_vec();
            assert_eq!(store.remove(id), Some(low), "held by {home} and {other}");
            assert_eq!(store.remove(id), Some(high));
            assert_eq!(store.remove(id), None);
            assert_eq!(store.cluster_sizes()[low], sizes[low] - 1);
            assert_eq!(store.cluster_sizes()[high], sizes[high] - 1);
        }
    }

    #[test]
    fn every_id_is_removable_after_a_split_and_a_merge() {
        // A split's halves and a merge's target are rebuilt from moved
        // lists: each id must still be found by `remove`, in the cluster
        // that holds it.
        use crate::rebalance::{RebalanceAction, Rebalancer};
        let c = corpus();
        let store =
            ClusteredStore::build(c.embeddings(), &HermesConfig::new(4).with_seed(5)).unwrap();
        let rebalancer = Rebalancer::default();
        let split = rebalancer
            .apply(&store, RebalanceAction::Split { cluster: 1 })
            .unwrap();
        let merged = rebalancer
            .apply(&split, RebalanceAction::Merge { from: 4, into: 0 })
            .unwrap();
        for mut store in [split, merged] {
            let mut held = Vec::new();
            for c in 0..store.num_clusters() {
                held.extend(store.shard(c).export_live().into_iter().map(|r| (r.0, c)));
            }
            for (id, c) in held {
                assert_eq!(store.remove(id), Some(c), "id {id}");
            }
            assert!(store.is_empty());
        }
    }

    #[test]
    fn empty_data_rejected() {
        let err = ClusteredStore::build(
            &Mat::zeros(0, 4),
            &HermesConfig::new(2).with_clusters_to_search(1),
        )
        .unwrap_err();
        assert!(matches!(err, HermesError::Index(_)));
    }

    #[test]
    fn invalid_config_rejected_before_building() {
        let c = corpus();
        let err = ClusteredStore::build(
            c.embeddings(),
            &HermesConfig::new(2).with_clusters_to_search(3),
        )
        .unwrap_err();
        assert!(matches!(err, HermesError::InvalidConfig(_)));
    }
}
