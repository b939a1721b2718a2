//! Lloyd's K-means, the clustering workhorse of the Hermes reproduction.
//!
//! K-means is used in two places, mirroring the paper:
//!
//! 1. **Inside each IVF index** as the coarse quantizer that defines the
//!    `nlist` inverted lists (Section 2.1).
//! 2. **For datastore disaggregation** (Section 4.1): the whole corpus is
//!    K-means-clustered into `C` topical partitions, one per node. Because
//!    the initial centroid draw makes cluster sizes uneven, Hermes sweeps
//!    several seeds *on a small subsample* and keeps the seed with the
//!    lowest size imbalance (max/min ratio). [`SeedSweep`] implements that
//!    procedure; [`subsample`] implements the 1–2% subsampling trick.
//!
//! # Examples
//!
//! ```
//! use hermes_math::Mat;
//! use hermes_kmeans::{KMeans, KMeansConfig};
//!
//! // Two obvious blobs on the x axis.
//! let rows: Vec<Vec<f32>> = (0..20)
//!     .map(|i| if i < 10 { vec![0.0, i as f32 * 0.01] } else { vec![10.0, i as f32 * 0.01] })
//!     .collect();
//! let data = Mat::from_rows(&rows);
//! let model = KMeans::train(&data, &KMeansConfig::new(2).with_seed(1));
//! assert_eq!(model.num_clusters(), 2);
//! let (a, _) = model.assign(data.row(0));
//! let (b, _) = model.assign(data.row(19));
//! assert_ne!(a, b);
//! ```

use hermes_math::block::l2_sq_keys_block;
/// The two halves of a [`KMeans::probe_keys`] key (and the distance as
/// an `f32`), unpacked where the key layout is defined
/// ([`hermes_math::block::probe_key`]).
pub use hermes_math::block::{probe_key_centroid, probe_key_distance, probe_key_squared_distance};
use hermes_math::distance::l2_sq;
use hermes_math::rng::{derive_seed, seeded_rng, SeededRng};
use hermes_math::stats::imbalance_ratio;
use hermes_math::Mat;
use std::sync::Mutex;

/// Centroid initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Init {
    /// Pick `k` distinct input rows uniformly at random — FAISS's default
    /// and what the paper's imbalance discussion assumes.
    #[default]
    Random,
    /// k-means++ D² sampling; slower to seed but typically lower inertia.
    KMeansPlusPlus,
}

/// Training configuration for [`KMeans::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Upper bound on Lloyd iterations.
    pub max_iters: usize,
    /// Relative inertia improvement below which training stops early.
    pub tolerance: f64,
    /// Centroid initialization strategy.
    pub init: Init,
    /// RNG seed; the sweep in [`SeedSweep`] varies exactly this field.
    pub seed: u64,
}

impl KMeansConfig {
    /// Configuration with workspace defaults (25 iterations, 1e-4 tolerance,
    /// random init, seed 0).
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 25,
            tolerance: 1e-4,
            init: Init::Random,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialization strategy.
    pub fn with_init(mut self, init: Init) -> Self {
        self.init = init;
        self
    }

    /// Sets the iteration cap.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

/// A trained K-means model: centroid table plus training diagnostics.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Mat,
    assignments: Vec<u32>,
    cluster_sizes: Vec<usize>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Runs Lloyd's algorithm on `data` (one vector per row).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `cfg.k == 0`. If `k > data.rows()` the
    /// effective `k` is clamped to the number of rows.
    pub fn train(data: &Mat, cfg: &KMeansConfig) -> Self {
        assert!(data.rows() > 0, "cannot cluster an empty dataset");
        assert!(cfg.k > 0, "k must be positive");
        let k = cfg.k.min(data.rows());
        let mut rng = seeded_rng(cfg.seed);
        let centroids = match cfg.init {
            Init::Random => init_random(data, k, &mut rng),
            Init::KMeansPlusPlus => init_plus_plus(data, k, &mut rng),
        };
        Self::train_from_centroids(data, centroids, cfg)
    }

    /// Runs Lloyd's algorithm starting from caller-provided centroids —
    /// the warm-start path Hermes uses to carry a subsample-swept
    /// clustering over to the full datastore (Section 4.1): the winning
    /// subsample centroids seed the full-data refinement, so the
    /// subsample's low imbalance transfers instead of being re-rolled.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `init` has no rows, or the
    /// dimensionalities differ.
    pub fn train_from_centroids(data: &Mat, init: Mat, cfg: &KMeansConfig) -> Self {
        lloyd(data, init, cfg).0
    }

    /// The centroid table (`k x dim`).
    pub fn centroids(&self) -> &Mat {
        &self.centroids
    }

    /// Cluster index assigned to each training row.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Number of training rows in each cluster.
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.cluster_sizes
    }

    /// Final sum of squared distances to assigned centroids.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Lloyd iterations actually executed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centroids.rows()
    }

    /// Assigns an unseen vector, returning `(cluster, squared_distance)`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` differs from the training dimensionality.
    pub fn assign(&self, v: &[f32]) -> (usize, f32) {
        assert_eq!(v.len(), self.centroids.cols(), "dimension mismatch");
        hermes_math::block::nearest_row_l2(v, &self.centroids)
    }

    /// Returns the indices of the `n` centroids closest to `v`, best first —
    /// the primitive behind IVF's `nProbe` list selection. Ties rank by
    /// centroid index; distances compare by [`f32::total_cmp`], so a NaN
    /// or infinite `v` still yields a deterministic answer.
    pub fn nearest_centroids(&self, v: &[f32], n: usize) -> Vec<usize> {
        let mut keys = Vec::new();
        self.probe_keys([v].into_iter(), &mut keys);
        let nearest = select_nearest(&mut keys, n);
        nearest.sort_unstable();
        nearest.iter().map(|&key| probe_key_centroid(key)).collect()
    }

    /// Fills `keys` with one coarse-probe key per centroid per query —
    /// query `q`'s keys are `keys[q * k..(q + 1) * k]` for `k =
    /// self.num_clusters()` — in **one pass over the centroid table** for
    /// the whole group: each centroid block is scored against every query
    /// while it is cache-hot. A key
    /// ([`probe_key`](hermes_math::block::probe_key)) packs the squared
    /// distance and the centroid index so that plain `u64` order is the
    /// probe ranking: ascending distance under [`f32::total_cmp`], ties by
    /// ascending centroid index. The kernel writes the keys itself
    /// ([`l2_sq_keys_block`]); distances are bit-identical to scoring each
    /// query alone. Feed a query's slice to [`select_nearest`] to pick its
    /// probe set and read the centroids back with [`probe_key_centroid`].
    ///
    /// `keys` is resized, not cleared: every slot is overwritten, so a
    /// buffer reused from scan to scan is neither reallocated nor
    /// zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if a query's length differs from the training
    /// dimensionality.
    pub fn probe_keys<'q>(
        &self,
        queries: impl Iterator<Item = &'q [f32]> + Clone,
        keys: &mut Vec<u64>,
    ) {
        use hermes_math::block::BLOCK;
        let k = self.centroids.rows();
        let dim = self.centroids.cols();
        let table = self.centroids.as_slice();
        keys.resize(queries.clone().count() * k, 0);
        for base in (0..k).step_by(BLOCK) {
            let bn = BLOCK.min(k - base);
            let rows = &table[base * dim..(base + bn) * dim];
            for (q, query) in queries.clone().enumerate() {
                let slots = &mut keys[q * k + base..q * k + base + bn];
                l2_sq_keys_block(query, rows, dim, base as u32, slots);
            }
        }
    }

    /// Max/min cluster-size ratio — the paper's imbalance proxy.
    pub fn imbalance(&self) -> Option<f64> {
        imbalance_ratio(&self.cluster_sizes)
    }

    /// Reconstructs a serving-only model from a centroid table (no
    /// training diagnostics; `assignments` is empty). Used when loading a
    /// persisted index: the online path reads only the centroid table,
    /// through [`Self::probe_keys`], [`Self::assign`] and
    /// [`Self::nearest_centroids`].
    ///
    /// # Panics
    ///
    /// Panics if `centroids` has no rows.
    pub fn from_centroids(centroids: Mat, cluster_sizes: Vec<usize>) -> Self {
        assert!(centroids.rows() > 0, "need at least one centroid");
        KMeans {
            centroids,
            assignments: Vec::new(),
            cluster_sizes,
            inertia: 0.0,
            iterations: 0,
        }
    }
}

impl hermes_math::wire::WireEncode for KMeans {
    fn encode_wire(&self, w: &mut hermes_math::wire::Writer) {
        w.mat(&self.centroids);
        w.u64s(&self.cluster_sizes.iter().map(|&s| s as u64).collect::<Vec<_>>());
    }
}

impl hermes_math::wire::WireDecode for KMeans {
    fn decode_wire(
        r: &mut hermes_math::wire::Reader<'_>,
    ) -> Result<Self, hermes_math::wire::WireError> {
        let centroids = r.mat()?;
        let sizes = r.u64s()?.into_iter().map(|s| s as usize).collect();
        if centroids.rows() == 0 {
            return Err(hermes_math::wire::WireError::Corrupt(
                "empty centroid table".into(),
            ));
        }
        Ok(KMeans::from_centroids(centroids, sizes))
    }
}

/// Moves the `n` nearest of one query's [`KMeans::probe_keys`] to the
/// front of `keys` and returns them, **unsorted** — selection instead of
/// a full sort. `n` is raised to 1 and capped at `keys.len()`; the chosen
/// *set* is exactly the first `n` of the full ranking, ties included.
pub fn select_nearest(keys: &mut [u64], n: usize) -> &mut [u64] {
    let n = n.max(1).min(keys.len());
    if n < keys.len() {
        keys.select_nth_unstable(n - 1);
    }
    &mut keys[..n]
}

fn init_random(data: &Mat, k: usize, rng: &mut SeededRng) -> Mat {
    let mut idx: Vec<usize> = (0..data.rows()).collect();
    rng.shuffle(&mut idx);
    data.gather_rows(idx[..k].iter().copied())
}

fn init_plus_plus(data: &Mat, k: usize, rng: &mut SeededRng) -> Mat {
    let n = data.rows();
    let first = rng.gen_range(0..n);
    let mut chosen = vec![first];
    let mut d2: Vec<f32> = data
        .iter_rows()
        .map(|r| l2_sq(r, data.row(first)))
        .collect();
    while chosen.len() < k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        for (i, r) in data.iter_rows().enumerate() {
            let d = l2_sq(r, data.row(next));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    data.gather_rows(chosen)
}

/// Lloyd's algorithm from `init`, with incremental reassignment: every
/// sweep leaves, per row, exactly the `(assignment, distance)` a full
/// nearest-centroid sweep against the current table would — see
/// [`reassign`] — so the model is the full-sweep loop's to the last bit.
/// Also returns the (row, centroid) pairs the sweeps scored, which the
/// tests hold against `sweeps x rows x k`.
fn lloyd(data: &Mat, init: Mat, cfg: &KMeansConfig) -> (KMeans, u64) {
    assert!(data.rows() > 0, "cannot cluster an empty dataset");
    assert!(init.rows() > 0, "need at least one initial centroid");
    assert_eq!(init.cols(), data.cols(), "centroid dimension mismatch");
    let k = init.rows();
    let mut centroids = init;

    // Row `i`'s nearest centroid and squared distance as of the last
    // sweep, and the centroids that changed since: at first nothing is
    // cached and every centroid is new.
    let mut assignments = vec![0u32; data.rows()];
    let mut best = vec![f32::INFINITY; data.rows()];
    let mut moved: Vec<u32> = (0..k as u32).collect();
    let mut pairs = 0u64;
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for iter in 0..cfg.max_iters.max(1) {
        iterations = iter + 1;
        pairs += reassign(data, &centroids, &moved, &mut assignments, &mut best);
        let new_inertia = sum_in_row_order(&best);
        let updated = update_centroids(data, &centroids, &assignments);
        // Bitwise, so that a NaN centroid or a repaired empty cluster
        // needs no case of its own: equal bits score equal bits.
        moved = (0..k as u32)
            .filter(|&c| {
                let (old, new) = (centroids.row(c as usize), updated.row(c as usize));
                old.iter().zip(new).any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .collect();
        centroids = updated;

        let improved = (inertia - new_inertia) / new_inertia.max(f64::MIN_POSITIVE);
        inertia = new_inertia;
        if improved.abs() < cfg.tolerance && iter > 0 {
            break;
        }
    }

    // Final assignment against the last centroid update.
    pairs += reassign(data, &centroids, &moved, &mut assignments, &mut best);
    let mut cluster_sizes = vec![0usize; k];
    for &c in &assignments {
        cluster_sizes[c as usize] += 1;
    }
    let model = KMeans {
        centroids,
        assignments,
        cluster_sizes,
        inertia: sum_in_row_order(&best),
        iterations,
    };
    (model, pairs)
}

/// Inertia from the cached distances, accumulated in row order whatever
/// the sweep's schedule was.
fn sum_in_row_order(best: &[f32]) -> f64 {
    best.iter().fold(0.0, |sum, &d| sum + d as f64)
}

/// Lloyd's update step: each centroid becomes the mean of its rows; an
/// empty cluster is reseeded from the point farthest from its centroid,
/// FAISS-style.
fn update_centroids(data: &Mat, centroids: &Mat, assignments: &[u32]) -> Mat {
    let k = centroids.rows();
    let mut sums = Mat::zeros(k, data.cols());
    let mut counts = vec![0usize; k];
    for (row, &c) in data.iter_rows().zip(assignments) {
        hermes_math::distance::add_assign(sums.row_mut(c as usize), row);
        counts[c as usize] += 1;
    }
    for (c, count) in counts.iter_mut().enumerate() {
        if *count == 0 {
            let far = farthest_point(data, centroids, assignments);
            sums.row_mut(c).copy_from_slice(data.row(far));
            *count = 1;
        }
        hermes_math::distance::scale(sums.row_mut(c), 1.0 / *count as f32);
    }
    sums
}

/// Rows per pool task of a sweep: a few cache blocks of the argmin
/// kernel, small enough that a shard's sweep still splits across the
/// pool.
const SWEEP_ROWS: usize = 256;

/// One assignment sweep, incremental: brings every row's cached
/// `(assignment, best distance)` from the previous centroid table to
/// `centroids`, given `moved`, the ascending indices of the centroids
/// whose bits differ between the two. Returns the (row, centroid) pairs
/// it scored.
///
/// The cache is a full sweep's result — the first index reaching the
/// minimum over the distances below `+inf`, `(0, +inf)` if there is none
/// — so every centroid `c` other than the row's own `a` compares
/// `(d_c, c) > (best, a)`, distance first, index second (or `d_c` is
/// NaN). Unmoved centroids still score the same bits, hence:
///
/// * **own centroid unmoved** — only a moved centroid can take the row:
///   the winner `(d, c)` among the moved ones does iff `d < best ||
///   (d == best && c < a)`. `moved` ascends, so a tie inside it already
///   went to the lowest index.
/// * **own centroid moved, not away** (`new <= best`) — `(new, a)` still
///   beats every unmoved centroid, so the cache becomes `(a, new)` and
///   the same rule applies.
/// * **own centroid moved away, or its distance is now NaN** — an
///   unmoved centroid may be the nearest: the row is scored against the
///   whole table.
///
/// No case depends on which rows share a block, and the pool tasks
/// write disjoint blocks of `assignments` / `best`: the result is the
/// full sweep's at any `HERMES_THREADS`.
fn reassign(
    data: &Mat,
    centroids: &Mat,
    moved: &[u32],
    assignments: &mut [u32],
    best: &mut [f32],
) -> u64 {
    use hermes_math::block::{l2_sq_block, nearest_rows_l2};
    if moved.is_empty() {
        return 0;
    }
    let packed = centroids.gather_rows(moved.iter().map(|&c| c as usize));
    // With every centroid moved no cached distance decides anything: the
    // first sweep, and any later one like it, is the full one.
    let any_unmoved = moved.len() < centroids.rows();
    let mut is_moved = vec![false; centroids.rows()];
    for &c in moved {
        is_moved[c as usize] = true;
    }
    let blocks: Vec<_> = assignments
        .chunks_mut(SWEEP_ROWS)
        .zip(best.chunks_mut(SWEEP_ROWS))
        .enumerate()
        .map(|(b, cache)| (b * SWEEP_ROWS, Mutex::new(cache)))
        .collect();
    let pairs = hermes_pool::Pool::global().parallel_map(&blocks, |(first, cache)| {
        let mut cache = cache.lock().expect("a sweep block has one task");
        let (assignments, best) = &mut *cache;
        // Rows to score against the moved centroids, and against all.
        let (mut some, mut all) = ([0u32; SWEEP_ROWS], [0u32; SWEEP_ROWS]);
        let (mut n_some, mut n_all) = (0, 0);
        let mut rescored = 0;
        for (j, (&own, best)) in assignments.iter().zip(best.iter_mut()).enumerate() {
            let row = first + j;
            if is_moved[own as usize] {
                let mut new = [0.0f32];
                if any_unmoved {
                    let own = centroids.row(own as usize);
                    l2_sq_block(data.row(row), own, data.cols(), &mut new);
                    rescored += 1;
                }
                if any_unmoved && new[0] <= *best {
                    *best = new[0];
                } else {
                    all[n_all] = row as u32;
                    n_all += 1;
                    continue;
                }
            }
            some[n_some] = row as u32;
            n_some += 1;
        }
        let (some, all) = (&some[..n_some], &all[..n_all]);
        let mut nearest = [(0u32, 0.0f32); SWEEP_ROWS];
        nearest_rows_l2(data.as_slice(), some, &packed, &mut nearest[..n_some]);
        for (&row, &(m, d)) in some.iter().zip(&nearest) {
            let (j, c) = (row as usize - first, moved[m as usize]);
            if d < best[j] || (d == best[j] && c < assignments[j]) {
                (assignments[j], best[j]) = (c, d);
            }
        }
        nearest_rows_l2(data.as_slice(), all, centroids, &mut nearest[..n_all]);
        for (&row, &nearest) in all.iter().zip(&nearest) {
            let j = row as usize - first;
            (assignments[j], best[j]) = nearest;
        }
        (rescored + n_some * moved.len() + n_all * centroids.rows()) as u64
    });
    pairs.iter().sum()
}

fn farthest_point(data: &Mat, centroids: &Mat, assignments: &[u32]) -> usize {
    let mut far = 0usize;
    let mut far_d = -1.0f32;
    for (i, row) in data.iter_rows().enumerate() {
        let d = l2_sq(row, centroids.row(assignments[i] as usize));
        if d > far_d {
            far_d = d;
            far = i;
        }
    }
    far
}

/// Folds one vector into a running mean: `c ← c + (v − c)/n` where `n`
/// is the member count *including* `v`. This is the numerically stable
/// Welford-style form the clustered store uses to keep split centroids
/// tracking the live population as documents stream in.
///
/// # Panics
///
/// Panics if `centroid.len() != v.len()` or `count_after == 0`.
pub fn running_update(centroid: &mut [f32], v: &[f32], count_after: usize) {
    assert_eq!(centroid.len(), v.len(), "dimension mismatch");
    assert!(count_after > 0, "running mean needs at least one member");
    let inv = 1.0 / count_after as f32;
    for (c, &x) in centroid.iter_mut().zip(v) {
        *c += (x - *c) * inv;
    }
}

/// Removes one vector's contribution from a running mean: the inverse of
/// [`running_update`], with `count_after` the member count *excluding*
/// `v`. With `count_after == 0` the centroid is left unchanged (an empty
/// cluster keeps its last position as the routing anchor).
///
/// # Panics
///
/// Panics if `centroid.len() != v.len()`.
pub fn running_downdate(centroid: &mut [f32], v: &[f32], count_after: usize) {
    assert_eq!(centroid.len(), v.len(), "dimension mismatch");
    if count_after == 0 {
        return;
    }
    let inv = 1.0 / count_after as f32;
    for (c, &x) in centroid.iter_mut().zip(v) {
        *c += (*c - x) * inv;
    }
}

/// Draws a uniformly random row subsample of `fraction` (clamped to at
/// least one row) — the 1–2% subsampling the paper uses to make multi-seed
/// K-means sweeps affordable on 100M+ document datastores.
pub fn subsample(data: &Mat, fraction: f64, seed: u64) -> Mat {
    let n = data.rows();
    let take = ((n as f64 * fraction.clamp(0.0, 1.0)).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    seeded_rng(seed).shuffle(&mut idx);
    data.gather_rows(idx[..take].iter().copied())
}

/// Per-seed outcome of an imbalance sweep.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The K-means seed evaluated.
    pub seed: u64,
    /// Max/min cluster-size ratio measured on the subsample.
    pub imbalance: f64,
    /// Training inertia on the subsample.
    pub inertia: f64,
}

/// Result of [`SeedSweep::run`]: the winning seed plus the full trace for
/// the ablation bench.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Seed with the lowest imbalance.
    pub best_seed: u64,
    /// Imbalance of the winning seed.
    pub best_imbalance: f64,
    /// Centroids trained by the winning run (on the subsample). Feed them
    /// to [`KMeans::train_from_centroids`] so the balanced clustering
    /// transfers to the full datastore.
    pub best_centroids: Mat,
    /// Every seed evaluated, in evaluation order.
    pub outcomes: Vec<SeedOutcome>,
}

/// Multi-seed K-means imbalance sweep (Section 4.1).
///
/// Runs K-means on a subsample once per candidate seed, scores each run by
/// the max/min cluster-size ratio, and reports the seed with the lowest
/// imbalance. The caller then trains the full-datastore split with that
/// seed.
///
/// # Examples
///
/// ```
/// # use hermes_math::Mat;
/// # use hermes_kmeans::{KMeansConfig, SeedSweep};
/// # let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![(i % 4) as f32 * 5.0, (i / 4) as f32 * 0.01]).collect();
/// # let data = Mat::from_rows(&rows);
/// let sweep = SeedSweep::new(KMeansConfig::new(4), 8).with_subsample(0.5, 7);
/// let result = sweep.run(&data);
/// assert_eq!(result.outcomes.len(), 8);
/// assert!(result.best_imbalance >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SeedSweep {
    config: KMeansConfig,
    num_seeds: u64,
    subsample_fraction: f64,
    subsample_seed: u64,
}

impl SeedSweep {
    /// Sweeps seeds `config.seed .. config.seed + num_seeds`.
    ///
    /// # Panics
    ///
    /// Panics if `num_seeds == 0`.
    pub fn new(config: KMeansConfig, num_seeds: u64) -> Self {
        assert!(num_seeds > 0, "sweep needs at least one seed");
        SeedSweep {
            config,
            num_seeds,
            subsample_fraction: 1.0,
            subsample_seed: 0,
        }
    }

    /// Evaluates seeds on a `fraction` subsample drawn with
    /// `subsample_seed` instead of the full dataset.
    pub fn with_subsample(mut self, fraction: f64, subsample_seed: u64) -> Self {
        self.subsample_fraction = fraction;
        self.subsample_seed = subsample_seed;
        self
    }

    /// Runs the sweep and returns the winning seed plus the full trace.
    /// If the subsample would hold fewer rows than `k` clusters, the
    /// sweep falls back to the full dataset so every run can actually
    /// form `k` centroids.
    pub fn run(&self, data: &Mat) -> SweepResult {
        let sample;
        let eval_data = if self.subsample_fraction < 1.0 {
            sample = subsample(data, self.subsample_fraction, self.subsample_seed);
            if sample.rows() < self.config.k {
                data
            } else {
                &sample
            }
        } else {
            data
        };
        // The candidate seeds are independent trainings — the sweep's
        // natural parallelism. Each run fans out on the shared pool (a
        // training already inside a pool task runs inline), and the
        // outcome order is the seed order, so the winner is the same
        // first-minimum a sequential sweep picks.
        let seeds: Vec<u64> = (0..self.num_seeds)
            .map(|s| derive_seed(self.config.seed, s))
            .collect();
        let runs: Vec<(SeedOutcome, Mat)> = hermes_pool::Pool::global()
            .parallel_map(&seeds, |&seed| {
                let cfg = KMeansConfig { seed, ..self.config };
                let model = KMeans::train(eval_data, &cfg);
                (
                    SeedOutcome {
                        seed,
                        // A cluster emptied on the subsample counts as
                        // maximal imbalance rather than a missing value.
                        imbalance: model.imbalance().unwrap_or(f64::INFINITY),
                        inertia: model.inertia(),
                    },
                    model.centroids().clone(),
                )
            });
        let best_idx = runs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.0.imbalance
                    .partial_cmp(&b.0.imbalance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("num_seeds > 0");
        let mut outcomes = Vec::with_capacity(runs.len());
        let mut best_centroids = None;
        for (i, (outcome, centroids)) in runs.into_iter().enumerate() {
            if i == best_idx {
                best_centroids = Some(centroids);
            }
            outcomes.push(outcome);
        }
        let best_centroids = best_centroids.expect("best index in range");
        SweepResult {
            best_seed: outcomes[best_idx].seed,
            best_imbalance: outcomes[best_idx].imbalance,
            best_centroids,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::rng::seeded_rng;

    fn blobs(n_per: usize, centers: &[[f32; 2]], seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    c[0] + rng.next_f32() * 0.2,
                    c[1] + rng.next_f32() * 0.2,
                ]);
            }
        }
        Mat::from_rows(&rows)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        // Seed re-goldened for the in-repo ChaCha8 stream (see
        // EXPERIMENTS.md): random init is degenerate on some seeds by
        // design — that is exactly what the seed sweep exploits.
        let data = blobs(30, &[[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]], 3);
        let model = KMeans::train(&data, &KMeansConfig::new(3).with_seed(4));
        assert_eq!(model.cluster_sizes().iter().sum::<usize>(), 90);
        // Each blob should land in a single cluster.
        for blob in 0..3 {
            let first = model.assignments()[blob * 30];
            for i in 0..30 {
                assert_eq!(model.assignments()[blob * 30 + i], first, "blob {blob}");
            }
        }
        assert_eq!(model.imbalance(), Some(1.0));
    }

    #[test]
    fn plus_plus_init_also_recovers_blobs() {
        let data = blobs(20, &[[0.0, 0.0], [8.0, 8.0]], 11);
        let cfg = KMeansConfig::new(2)
            .with_seed(2)
            .with_init(Init::KMeansPlusPlus);
        let model = KMeans::train(&data, &cfg);
        let (a, _) = model.assign(&[0.1, 0.1]);
        let (b, _) = model.assign(&[8.1, 8.1]);
        assert_ne!(a, b);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs(25, &[[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]], 7);
        let i2 = KMeans::train(&data, &KMeansConfig::new(2).with_seed(1)).inertia();
        let i4 = KMeans::train(&data, &KMeansConfig::new(4).with_seed(1)).inertia();
        assert!(i4 < i2);
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let data = Mat::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let model = KMeans::train(&data, &KMeansConfig::new(10));
        assert_eq!(model.num_clusters(), 2);
    }

    #[test]
    fn assignments_cover_every_row() {
        let data = blobs(10, &[[0.0, 0.0], [4.0, 4.0]], 9);
        let model = KMeans::train(&data, &KMeansConfig::new(2));
        assert_eq!(model.assignments().len(), data.rows());
        assert!(model
            .assignments()
            .iter()
            .all(|&a| (a as usize) < model.num_clusters()));
    }

    #[test]
    fn nearest_centroids_returns_sorted_prefix() {
        let data = blobs(10, &[[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]], 4);
        let model = KMeans::train(&data, &KMeansConfig::new(3).with_seed(8));
        let order = model.nearest_centroids(&[0.0, 0.0], 3);
        assert_eq!(order.len(), 3);
        // First listed centroid must be the assigned one.
        assert_eq!(order[0], model.assign(&[0.0, 0.0]).0);
    }

    #[test]
    fn selection_picks_exactly_the_stable_sort_prefix() {
        // Duplicate centroids force distance ties: the probe set and the
        // public ranking must be the stable sort's, ties by index.
        let mut rows: Vec<Vec<f32>> = (0..90).map(|i| vec![(i % 30) as f32 * 0.5, 1.0]).collect();
        rows.push(vec![3.0, 1.0]);
        let model = KMeans::from_centroids(Mat::from_rows(&rows), vec![1; 91]);
        for query in [[2.9f32, 0.0], [0.0, 0.0], [50.0, -3.0]] {
            let mut stable: Vec<(usize, f32)> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| (i, l2_sq(&query, r)))
                .collect();
            stable.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let mut keys = Vec::new();
            for n in [1usize, 2, 8, 31, 90, 91, 500] {
                let want: Vec<usize> = stable.iter().take(n).map(|&(i, _)| i).collect();
                assert_eq!(model.nearest_centroids(&query, n), want, "n={n}");
                model.probe_keys([&query[..]].into_iter(), &mut keys);
                let mut set: Vec<usize> = select_nearest(&mut keys, n)
                    .iter()
                    .map(|&key| probe_key_centroid(key))
                    .collect();
                set.sort_unstable();
                let mut want_set = want;
                want_set.sort_unstable();
                assert_eq!(set, want_set, "n={n}");
            }
        }
    }

    #[test]
    fn probe_keys_of_a_group_match_each_query_alone() {
        let data = blobs(40, &[[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]], 4);
        // 70 centroids: more than one BLOCK of the blocked pass.
        let model = KMeans::train(&data, &KMeansConfig::new(70).with_seed(3));
        let queries = [[1.0f32, 2.0], [9.0, -1.0], [1.0, 2.0]];
        let group: Vec<&[f32]> = queries.iter().map(|q| &q[..]).collect();
        // `one` is reused dirty and too long: every slot is overwritten
        // and the length fixed, without a clear.
        let (mut all, mut one) = (Vec::new(), vec![u64::MAX; 200]);
        model.probe_keys(group.iter().copied(), &mut all);
        for (q, keys) in group.iter().zip(all.chunks_exact(70)) {
            model.probe_keys([*q].into_iter(), &mut one);
            assert_eq!(keys, &one[..]);
        }
    }

    #[test]
    fn probe_keys_are_the_packed_block_distances() {
        use hermes_math::block::l2_sq_block;
        // Table sizes below, at and around one 8-row tile and one block,
        // and the benchmark's 313; dims with and without a tail. One
        // entry in 64 is NaN, an infinity, a signed zero or a subnormal,
        // so NaN distances (sign bit set on x86) take the negative branch
        // of the key map.
        let mut rng = seeded_rng(0x9E7);
        let value = |rng: &mut SeededRng| match rng.gen_range(0..64usize) {
            0 => {
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40][rng.gen_range(0..5usize)]
            }
            _ => rng.next_f32() * 2.0 - 1.0,
        };
        for dim in [3usize, 16, 64] {
            for nlist in [1usize, 7, 8, 9, 64, 313] {
                let table: Vec<f32> = (0..nlist * dim).map(|_| value(&mut rng)).collect();
                let model =
                    KMeans::from_centroids(Mat::from_flat(nlist, dim, table), vec![1; nlist]);
                let queries: Vec<Vec<f32>> = (0..8)
                    .map(|_| (0..dim).map(|_| value(&mut rng)).collect())
                    .collect();
                let group: Vec<&[f32]> = queries.iter().map(|q| &q[..]).collect();
                let mut all = Vec::new();
                model.probe_keys(group.iter().copied(), &mut all);
                let (mut one, mut dists) = (Vec::new(), vec![0.0f32; nlist]);
                for (q, keys) in group.iter().zip(all.chunks_exact(nlist)) {
                    model.probe_keys([*q].into_iter(), &mut one);
                    assert_eq!(keys, &one[..], "d{dim} nlist {nlist}: group vs alone");
                    l2_sq_block(q, model.centroids().as_slice(), dim, &mut dists);
                    for (c, (&key, &d)) in keys.iter().zip(&dists).enumerate() {
                        let bits = d.to_bits();
                        let ordered = if bits >> 31 == 1 {
                            !bits
                        } else {
                            bits | 1 << 31
                        };
                        let want = u64::from(ordered) << 32 | c as u64;
                        assert_eq!(key, want, "d{dim} nlist {nlist} centroid {c}: {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_queries_rank_deterministically() {
        // NaN, infinite and finite distances mixed (`inf - inf` is NaN
        // for centroid 4 only): `total_cmp` keeps the order total where
        // `partial_cmp(..).unwrap_or(Equal)` was not. Where a NaN ranks
        // depends on its sign, which is the platform's.
        let rows: Vec<Vec<f32>> = (0..12).map(|i| vec![i as f32, 0.0]).collect();
        let mut centroids = Mat::from_rows(&rows);
        centroids.row_mut(4)[1] = f32::INFINITY;
        let model = KMeans::from_centroids(centroids, vec![1; 12]);
        for query in [
            [f32::NAN, 0.0],
            [0.0, f32::INFINITY],
            [f32::NEG_INFINITY, 1.0],
        ] {
            let order = model.nearest_centroids(&query, 12);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..12).collect::<Vec<_>>());
            assert_eq!(order, model.nearest_centroids(&query, 12));
        }
    }

    #[test]
    fn subsample_respects_fraction_bounds() {
        let data = blobs(50, &[[0.0, 0.0]], 1);
        assert_eq!(subsample(&data, 0.5, 3).rows(), 25);
        assert_eq!(subsample(&data, 0.0, 3).rows(), 1);
        assert_eq!(subsample(&data, 2.0, 3).rows(), 50);
    }

    #[test]
    fn seed_sweep_picks_minimum_imbalance() {
        let data = blobs(40, &[[0.0, 0.0], [6.0, 6.0]], 13);
        let sweep = SeedSweep::new(KMeansConfig::new(2).with_seed(100), 5);
        let result = sweep.run(&data);
        let min = result
            .outcomes
            .iter()
            .map(|o| o.imbalance)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_imbalance, min);
    }

    #[test]
    fn seed_sweep_on_subsample_tracks_full_data() {
        // The paper observes that 1-2% subsample imbalance tracks the full
        // datastore; with clean blobs even a 25% subsample should find a
        // balanced seed.
        let data = blobs(100, &[[0.0, 0.0], [9.0, 9.0]], 17);
        let sweep =
            SeedSweep::new(KMeansConfig::new(2).with_seed(0), 4).with_subsample(0.25, 21);
        let result = sweep.run(&data);
        let full = KMeans::train(
            &data,
            &KMeansConfig::new(2).with_seed(result.best_seed),
        );
        assert!(full.imbalance().unwrap() < 1.5);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let data = blobs(30, &[[0.0, 0.0], [7.0, 7.0]], 23);
        let a = KMeans::train(&data, &KMeansConfig::new(2).with_seed(42));
        let b = KMeans::train(&data, &KMeansConfig::new(2).with_seed(42));
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let data = Mat::zeros(0, 4);
        let _ = KMeans::train(&data, &KMeansConfig::new(2));
    }

    #[test]
    fn warm_start_refines_given_centroids() {
        let data = blobs(30, &[[0.0, 0.0], [8.0, 8.0]], 31);
        // Deliberately poor init: both centroids in one blob.
        let init = Mat::from_rows(&[vec![0.1, 0.1], vec![0.2, 0.2]]);
        let cfg = KMeansConfig::new(2).with_max_iters(20);
        let model = KMeans::train_from_centroids(&data, init, &cfg);
        let (a, _) = model.assign(&[0.0, 0.0]);
        let (b, _) = model.assign(&[8.0, 8.0]);
        assert_ne!(a, b, "Lloyd refinement should separate the blobs");
    }

    #[test]
    fn warm_start_from_subsample_preserves_sweep_imbalance() {
        let data = blobs(200, &[[0.0, 0.0], [9.0, 9.0]], 37);
        let sweep = SeedSweep::new(KMeansConfig::new(2).with_seed(3), 4)
            .with_subsample(0.1, 5);
        let result = sweep.run(&data);
        let full = KMeans::train_from_centroids(
            &data,
            result.best_centroids,
            &KMeansConfig::new(2),
        );
        let full_imb = full.imbalance().unwrap();
        assert!(
            full_imb <= result.best_imbalance * 1.5 + 0.5,
            "subsample {} vs full {full_imb}",
            result.best_imbalance
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn warm_start_checks_dimensions() {
        let data = blobs(10, &[[0.0, 0.0]], 1);
        let init = Mat::from_rows(&[vec![0.0, 0.0, 0.0]]);
        let _ = KMeans::train_from_centroids(&data, init, &KMeansConfig::new(1));
    }

    #[test]
    fn duplicate_points_do_not_break_plus_plus() {
        let data = Mat::from_rows(&vec![vec![1.0, 1.0]; 16]);
        let cfg = KMeansConfig::new(4).with_init(Init::KMeansPlusPlus);
        let model = KMeans::train(&data, &cfg);
        assert_eq!(model.assignments().len(), 16);
    }

    #[test]
    fn running_update_tracks_the_batch_mean() {
        let points = [[1.0f32, 2.0], [3.0, 4.0], [5.0, 0.0], [-1.0, 6.0]];
        let mut c = [0.0f32; 2];
        for (i, p) in points.iter().enumerate() {
            running_update(&mut c, p, i + 1);
        }
        assert!((c[0] - 2.0).abs() < 1e-5 && (c[1] - 3.0).abs() < 1e-5, "{c:?}");
    }

    #[test]
    fn running_downdate_inverts_update() {
        let mut c = [1.0f32, -1.0];
        let v = [10.0f32, 5.0];
        let before = c;
        running_update(&mut c, &v, 4);
        running_downdate(&mut c, &v, 3);
        for (a, b) in c.iter().zip(&before) {
            assert!((a - b).abs() < 1e-5);
        }
        // Downdating the sole member leaves the anchor in place.
        let mut lone = [2.0f32, 2.0];
        running_downdate(&mut lone, &[2.0, 2.0], 0);
        assert_eq!(lone, [2.0, 2.0]);
    }

    /// The oracle: Lloyd's algorithm with a plain full sweep — every row
    /// against every centroid, one row at a time — per iteration and
    /// once more at the end. [`lloyd`] must match it to the last bit.
    fn full_sweep_lloyd(data: &Mat, init: Mat, cfg: &KMeansConfig) -> KMeans {
        use hermes_math::block::nearest_row_l2;
        let mut centroids = init;
        let mut assignments = vec![0u32; data.rows()];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;
        for iter in 0..cfg.max_iters.max(1) {
            iterations = iter + 1;
            let mut new_inertia = 0.0f64;
            for (i, row) in data.iter_rows().enumerate() {
                let (c, d) = nearest_row_l2(row, &centroids);
                assignments[i] = c as u32;
                new_inertia += d as f64;
            }
            centroids = update_centroids(data, &centroids, &assignments);
            let improved = (inertia - new_inertia) / new_inertia.max(f64::MIN_POSITIVE);
            inertia = new_inertia;
            if improved.abs() < cfg.tolerance && iter > 0 {
                break;
            }
        }
        let mut cluster_sizes = vec![0usize; centroids.rows()];
        let mut final_inertia = 0.0f64;
        for (i, row) in data.iter_rows().enumerate() {
            let (c, d) = nearest_row_l2(row, &centroids);
            assignments[i] = c as u32;
            cluster_sizes[c] += 1;
            final_inertia += d as f64;
        }
        KMeans {
            centroids,
            assignments,
            cluster_sizes,
            inertia: final_inertia,
            iterations,
        }
    }

    /// Trains from `init` both ways and holds every output of the
    /// incremental trainer to the oracle's bits. Returns the model and
    /// the (row, centroid) pairs its sweeps scored.
    fn assert_matches_oracle(
        what: &str,
        data: &Mat,
        init: Mat,
        cfg: &KMeansConfig,
    ) -> (KMeans, u64) {
        let want = full_sweep_lloyd(data, init.clone(), cfg);
        let (got, pairs) = lloyd(data, init, cfg);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.assignments(), want.assignments(), "{what}: assignments");
        assert_eq!(got.cluster_sizes(), want.cluster_sizes(), "{what}: sizes");
        assert_eq!(
            bits(got.centroids()),
            bits(want.centroids()),
            "{what}: centroids"
        );
        assert_eq!(
            got.inertia().to_bits(),
            want.inertia().to_bits(),
            "{what}: inertia"
        );
        assert_eq!(got.iterations(), want.iterations(), "{what}: iterations");
        (got, pairs)
    }

    /// `n` rows around `topics` random centres: enough rows for several
    /// sweep blocks with a ragged last one, `dim` free to leave a SIMD
    /// tail.
    fn topical(n: usize, dim: usize, topics: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let centres: Vec<f32> = (0..topics * dim).map(|_| rng.next_f32() * 8.0).collect();
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            let centre = &centres[i % topics * dim..][..dim];
            flat.extend(centre.iter().map(|c| c + rng.next_f32() - 0.5));
        }
        Mat::from_flat(n, dim, flat)
    }

    #[test]
    fn incremental_lloyd_is_the_full_sweep_lloyd_to_the_bit() {
        // k = 70 crosses a centroid cache block; 1 and 25 iterations: a
        // run cut off while everything still moves, and a converged one.
        for (n, dim, k) in [(900, 19, 70), (700, 64, 12), (300, 3, 2)] {
            let data = topical(n, dim, 9, n as u64);
            for max_iters in [1, 25] {
                for init in [Init::Random, Init::KMeansPlusPlus] {
                    let cfg = KMeansConfig::new(k)
                        .with_seed(5)
                        .with_init(init)
                        .with_max_iters(max_iters);
                    let mut rng = seeded_rng(cfg.seed);
                    let start = match init {
                        Init::Random => init_random(&data, k, &mut rng),
                        Init::KMeansPlusPlus => init_plus_plus(&data, k, &mut rng),
                    };
                    let what = format!("{n}x{dim} k{k} {init:?} {max_iters} iters");
                    let (model, _) = assert_matches_oracle(&what, &data, start, &cfg);
                    // `train` is the same trainer behind the same init.
                    let trained = KMeans::train(&data, &cfg);
                    assert_eq!(trained.assignments(), model.assignments(), "{what}");
                    assert_eq!(
                        trained.inertia().to_bits(),
                        model.inertia().to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_lloyd_matches_the_oracle_on_degenerate_inputs() {
        let cfg = KMeansConfig::new(4);
        let data = topical(600, 5, 3, 77);

        // A centroid nobody is near: its cluster is empty after the
        // first sweep and is repaired from the farthest point.
        let mut init = init_random(&data, 4, &mut seeded_rng(1));
        init.row_mut(2).fill(1.0e6);
        let (model, _) = assert_matches_oracle("empty-cluster repair", &data, init, &cfg);
        assert!(model.cluster_sizes().iter().all(|&s| s > 0));

        // All rows equal: every distance ties, the lowest index wins and
        // every other cluster is repaired onto the same point.
        let same = Mat::from_flat(300, 5, [1.0, 2.0, 3.0, 4.0, 5.0].repeat(300));
        let init = init_random(&same, 4, &mut seeded_rng(2));
        let (model, _) = assert_matches_oracle("all-duplicate data", &same, init, &cfg);
        assert_eq!(model.cluster_sizes()[0], 300);

        // k >= rows: every row is a centroid.
        let few = topical(7, 5, 2, 78);
        let init = init_random(&few, 7, &mut seeded_rng(3));
        assert_matches_oracle("k = rows", &few, init, &KMeansConfig::new(7));

        // A NaN row scores NaN against everything: it stays on centroid
        // 0 at distance +inf, and poisons that centroid and the inertia
        // exactly as it does in the oracle.
        let mut dirty = topical(600, 5, 3, 79);
        dirty.row_mut(300)[2] = f32::NAN;
        let init = init_random(&data, 4, &mut seeded_rng(4));
        let (model, _) = assert_matches_oracle("NaN row", &dirty, init, &cfg);
        assert_eq!(model.assignments()[300], 0);
        assert_eq!(model.inertia(), f64::INFINITY);
    }

    #[test]
    fn a_tie_with_a_moved_centroid_goes_to_the_lower_index() {
        // Exact ties between a moved centroid and a row's unmoved own
        // one do not survive a real update step, so the sweep is driven
        // by hand: two rows at 1.0 between centroids 1.0 away on either
        // side.
        let data = Mat::from_flat(2, 1, vec![1.0, 1.0]);
        let mut assignments = vec![0u32; 2];
        let mut best = vec![f32::INFINITY; 2];
        let mut sweep = |table: [f32; 2], moved: &[u32], want: (u32, f32)| {
            let table = Mat::from_flat(2, 1, table.to_vec());
            reassign(&data, &table, moved, &mut assignments, &mut best);
            for (i, row) in data.iter_rows().enumerate() {
                let (c, d) = hermes_math::block::nearest_row_l2(row, &table);
                assert_eq!((assignments[i], best[i]), (c as u32, d), "{table:?}");
                assert_eq!((assignments[i], best[i]), want, "{table:?}");
            }
        };
        sweep([5.0, 0.0], &[0, 1], (1, 1.0));
        // Centroid 0 moves into a tie with the rows' own centroid 1 and
        // takes them: a full sweep meets it first.
        sweep([2.0, 0.0], &[0], (0, 1.0));
        // Centroid 1 moves to the same tie and does not take them back.
        sweep([2.0, 2.0], &[1], (0, 1.0));
        // Their own centroid moves away: full scan, centroid 1 wins.
        sweep([3.0, 2.0], &[0], (1, 1.0));
    }

    #[test]
    fn a_converged_run_scores_well_under_the_full_sweeps_pairs() {
        // The shape of a shard's coarse quantizer: many lists, few rows
        // per list, run to convergence.
        let (n, k) = (3000, 110);
        let data = topical(n, 16, 10, 80);
        let cfg = KMeansConfig::new(k).with_seed(6);
        let init = init_random(&data, k, &mut seeded_rng(cfg.seed));
        let (model, pairs) = assert_matches_oracle("pair count", &data, init, &cfg);
        assert!(model.iterations() < cfg.max_iters, "did not converge");
        let full = ((model.iterations() + 1) * n * k) as u64;
        assert!(
            (pairs as f64) < 0.6 * full as f64,
            "scored {pairs} of the full sweeps' {full} pairs"
        );
    }
}
