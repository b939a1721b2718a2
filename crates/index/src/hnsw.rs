//! Hierarchical Navigable Small World (HNSW) proximity-graph index.
//!
//! Included because the paper's Figure 4 contrasts HNSW with IVF: HNSW is
//! ≈2.4× faster at matched recall but needs ≈2.3× the memory (bidirectional
//! graph links plus fp16 vectors), which rules it out for trillion-token
//! datastores. This is a from-scratch implementation of Malkov &
//! Yashunin's algorithm with seeded level draws for reproducibility.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hermes_math::rng::seeded_rng;
use hermes_math::{Metric, Neighbor, TopK};

use crate::half::{f16_bits_to_f32, f32_to_f16_bits};
use crate::{IndexError, ScanStats, SearchParams, VectorIndex};

/// Precision of the vectors stored alongside the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorStorage {
    /// Full `f32` (4 bytes/dim).
    F32,
    /// IEEE binary16 (2 bytes/dim) — matches the paper's HNSW memory
    /// footprint of ≈1.66 KB/vector at d=768.
    #[default]
    F16,
}

/// Builder for [`HnswIndex`].
///
/// # Examples
///
/// ```
/// use hermes_math::{Mat, Metric};
/// use hermes_index::{HnswIndex, SearchParams, VectorIndex};
///
/// let data = Mat::from_rows(&(0..100).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
/// let index = HnswIndex::builder().m(8).metric(Metric::L2).build(&data)?;
/// let hits = index.search(&[50.2, 0.0], 3, &SearchParams::new().with_ef_search(32))?;
/// assert_eq!(hits[0].id, 50);
/// # Ok::<(), hermes_index::IndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HnswBuilder {
    m: usize,
    ef_construction: usize,
    storage: VectorStorage,
    metric: Metric,
    seed: u64,
}

impl HnswBuilder {
    fn new() -> Self {
        HnswBuilder {
            m: 16,
            ef_construction: 100,
            storage: VectorStorage::F16,
            metric: Metric::InnerProduct,
            seed: 0,
        }
    }

    /// Out-degree target per node per layer (default 16; layer 0 allows 2M).
    pub fn m(mut self, m: usize) -> Self {
        self.m = m.max(2);
        self
    }

    /// Construction beam width (default 100).
    pub fn ef_construction(mut self, ef: usize) -> Self {
        self.ef_construction = ef.max(1);
        self
    }

    /// Vector storage precision (default fp16).
    pub fn storage(mut self, storage: VectorStorage) -> Self {
        self.storage = storage;
        self
    }

    /// Ranking metric (default inner product).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Seed for the geometric level draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the graph by inserting rows of `data` in order, with
    /// implicit ids `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Empty`] for an empty dataset.
    pub fn build(&self, data: &hermes_math::Mat) -> Result<HnswIndex, IndexError> {
        if data.rows() == 0 {
            return Err(IndexError::Empty);
        }
        let mut index = self.build_empty(data.cols());
        for (i, row) in data.iter_rows().enumerate() {
            index.insert(i as u64, row)?;
        }
        Ok(index)
    }

    /// The empty index [`Self::build`] inserts its rows into.
    fn build_empty(&self, dim: usize) -> HnswIndex {
        HnswIndex {
            dim,
            metric: self.metric,
            storage: self.storage,
            m: self.m,
            ef_construction: self.ef_construction,
            vectors: Vec::new(),
            vectors_f16: Vec::new(),
            ids: Vec::new(),
            levels: Vec::new(),
            links: Vec::new(),
            entry: None,
            rng_state: seeded_rng(self.seed),
        }
    }
}

/// HNSW proximity-graph index (see module docs).
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    storage: VectorStorage,
    m: usize,
    ef_construction: usize,
    vectors: Vec<f32>,
    vectors_f16: Vec<u16>,
    ids: Vec<u64>,
    levels: Vec<u8>,
    /// `links[node][level]` — adjacency lists, one per level the node
    /// participates in.
    links: Vec<Vec<Vec<u32>>>,
    entry: Option<u32>,
    rng_state: hermes_math::rng::SeededRng,
}

impl std::fmt::Debug for HnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnswIndex")
            .field("dim", &self.dim)
            .field("len", &self.ids.len())
            .field("m", &self.m)
            .field("metric", &self.metric)
            .finish_non_exhaustive()
    }
}

impl HnswIndex {
    /// Starts configuring a new index.
    pub fn builder() -> HnswBuilder {
        HnswBuilder::new()
    }

    fn vector(&self, node: u32) -> Vec<f32> {
        let base = node as usize * self.dim;
        match self.storage {
            VectorStorage::F32 => self.vectors[base..base + self.dim].to_vec(),
            VectorStorage::F16 => self.vectors_f16[base..base + self.dim]
                .iter()
                .map(|&h| f16_bits_to_f32(h))
                .collect(),
        }
    }

    /// Allocation-free similarity against a stored vector — the hot path
    /// of graph traversal (called once per visited edge).
    fn similarity(&self, query: &[f32], node: u32) -> f32 {
        let base = node as usize * self.dim;
        match self.storage {
            VectorStorage::F32 => self
                .metric
                .similarity(query, &self.vectors[base..base + self.dim]),
            VectorStorage::F16 => {
                let codes = &self.vectors_f16[base..base + self.dim];
                match self.metric {
                    Metric::InnerProduct => {
                        let mut acc = 0.0f32;
                        for (q, &h) in query.iter().zip(codes) {
                            acc += q * f16_bits_to_f32(h);
                        }
                        acc
                    }
                    Metric::L2 => {
                        let mut acc = 0.0f32;
                        for (q, &h) in query.iter().zip(codes) {
                            let d = q - f16_bits_to_f32(h);
                            acc += d * d;
                        }
                        -acc
                    }
                    Metric::Cosine => {
                        let (mut dot, mut qq, mut vv) = (0.0f32, 0.0f32, 0.0f32);
                        for (q, &h) in query.iter().zip(codes) {
                            let v = f16_bits_to_f32(h);
                            dot += q * v;
                            qq += q * q;
                            vv += v * v;
                        }
                        if qq == 0.0 || vv == 0.0 {
                            0.0
                        } else {
                            dot / (qq.sqrt() * vv.sqrt())
                        }
                    }
                }
            }
        }
    }

    /// Scores a gathered batch of nodes — the blocked form of
    /// [`HnswIndex::similarity`], used by the neighbor-expansion step of
    /// [`HnswIndex::search_layer`]. The f32 path runs the
    /// level-dispatched register tiles from [`hermes_math::block`]: at
    /// the scalar dispatch level `out[i]` is bit-identical to
    /// `self.similarity(query, nodes[i])`, and at a SIMD level it is
    /// bit-identical to that level's lane-ordered reduction reference
    /// (the tier-B contract) — tail rows score through the scalar
    /// `similarity`, whose value the per-level references agree with
    /// within the pinned ULP bound. The f16 path interleaves four copies
    /// of the sequential single-accumulator loop and stays scalar at
    /// every level.
    fn score_nodes(&self, query: &[f32], nodes: &[u32], out: &mut [f32]) {
        debug_assert_eq!(nodes.len(), out.len());
        let dim = self.dim;
        let n = nodes.len();
        let mut r = 0;
        match self.storage {
            VectorStorage::F32 => {
                let level = hermes_math::simd::simd_level();
                let row = |node: u32| {
                    let base = node as usize * dim;
                    &self.vectors[base..base + dim]
                };
                // Cosine divides by the query norm per row; hoist it once
                // (computed by the scalar kernel at every dispatch level,
                // the same op sequence the per-row fallback runs).
                let na = match self.metric {
                    Metric::Cosine => hermes_math::distance::norm(query),
                    _ => 0.0,
                };
                while r + 4 <= n {
                    let rows = [
                        row(nodes[r]),
                        row(nodes[r + 1]),
                        row(nodes[r + 2]),
                        row(nodes[r + 3]),
                    ];
                    let mut t = [0.0f32; 4];
                    match self.metric {
                        Metric::InnerProduct => {
                            hermes_math::block::inner_product_tile4_at(level, query, rows, &mut t);
                            out[r..r + 4].copy_from_slice(&t);
                        }
                        Metric::L2 => {
                            hermes_math::block::l2_sq_tile4_at(level, query, rows, &mut t);
                            for (o, v) in out[r..r + 4].iter_mut().zip(&t) {
                                *o = -v;
                            }
                        }
                        Metric::Cosine => {
                            let mut sqs = [0.0f32; 4];
                            hermes_math::block::sq_norm_tile4_at(level, rows, &mut sqs);
                            hermes_math::block::inner_product_tile4_at(level, query, rows, &mut t);
                            for i in 0..4 {
                                let nb = sqs[i].sqrt();
                                out[r + i] = if na == 0.0 || nb == 0.0 {
                                    0.0
                                } else {
                                    t[i] / (na * nb)
                                };
                            }
                        }
                    }
                    r += 4;
                }
            }
            VectorStorage::F16 => {
                let codes = |node: u32| {
                    let base = node as usize * dim;
                    &self.vectors_f16[base..base + dim]
                };
                while r + 4 <= n {
                    let c = [
                        codes(nodes[r]),
                        codes(nodes[r + 1]),
                        codes(nodes[r + 2]),
                        codes(nodes[r + 3]),
                    ];
                    match self.metric {
                        Metric::InnerProduct => {
                            let mut acc = [0.0f32; 4];
                            for (d, &q) in query.iter().enumerate() {
                                for t in 0..4 {
                                    acc[t] += q * f16_bits_to_f32(c[t][d]);
                                }
                            }
                            out[r..r + 4].copy_from_slice(&acc);
                        }
                        Metric::L2 => {
                            let mut acc = [0.0f32; 4];
                            for (d, &q) in query.iter().enumerate() {
                                for t in 0..4 {
                                    let diff = q - f16_bits_to_f32(c[t][d]);
                                    acc[t] += diff * diff;
                                }
                            }
                            for (o, a) in out[r..r + 4].iter_mut().zip(&acc) {
                                *o = -a;
                            }
                        }
                        Metric::Cosine => {
                            let mut dot = [0.0f32; 4];
                            let mut vv = [0.0f32; 4];
                            let mut qq = 0.0f32;
                            for (d, &q) in query.iter().enumerate() {
                                qq += q * q;
                                for t in 0..4 {
                                    let v = f16_bits_to_f32(c[t][d]);
                                    dot[t] += q * v;
                                    vv[t] += v * v;
                                }
                            }
                            for t in 0..4 {
                                out[r + t] = if qq == 0.0 || vv[t] == 0.0 {
                                    0.0
                                } else {
                                    dot[t] / (qq.sqrt() * vv[t].sqrt())
                                };
                            }
                        }
                    }
                    r += 4;
                }
            }
        }
        while r < n {
            out[r] = self.similarity(query, nodes[r]);
            r += 1;
        }
    }

    fn draw_level(&mut self) -> usize {
        let ml = 1.0 / (self.m as f64).ln();
        let u: f64 = self.rng_state.next_f64().max(f64::MIN_POSITIVE);
        (-u.ln() * ml).floor() as usize
    }

    /// Inserts a vector with an explicit id: the step
    /// [`HnswBuilder::build`] takes once per row.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::DimensionMismatch`] on a wrong-sized vector.
    fn insert(&mut self, id: u64, v: &[f32]) -> Result<(), IndexError> {
        if v.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        let node = self.ids.len() as u32;
        match self.storage {
            VectorStorage::F32 => self.vectors.extend_from_slice(v),
            VectorStorage::F16 => self
                .vectors_f16
                .extend(v.iter().map(|&x| f32_to_f16_bits(x))),
        }
        self.ids.push(id);
        let level = self.draw_level();
        self.levels.push(level.min(u8::MAX as usize) as u8);
        self.links.push(vec![Vec::new(); level + 1]);

        let Some(entry) = self.entry else {
            self.entry = Some(node);
            return Ok(());
        };

        let max_level = self.levels[entry as usize] as usize;
        let mut ep = entry;

        // Greedy descent through levels above the new node's level.
        // Construction does not account its work; searches do.
        let mut evals = 0usize;
        for lvl in (level + 1..=max_level).rev() {
            ep = self.greedy_closest(v, ep, lvl, &mut evals);
        }

        // Insert with beam search at each shared level.
        for lvl in (0..=level.min(max_level)).rev() {
            let found = self.search_layer(v, &[ep], self.ef_construction, lvl, &mut evals);
            let max_links = if lvl == 0 { self.m * 2 } else { self.m };
            let selected: Vec<u32> = found.iter().take(self.m).map(|n| n.id as u32).collect();
            for &nb in &selected {
                self.links[node as usize][lvl].push(nb);
                self.links[nb as usize][lvl].push(node);
                if self.links[nb as usize][lvl].len() > max_links {
                    self.shrink_links(nb, lvl, max_links);
                }
            }
            if let Some(best) = found.first() {
                ep = best.id as u32;
            }
        }

        if level > max_level {
            self.entry = Some(node);
        }
        Ok(())
    }

    fn greedy_closest(&self, query: &[f32], start: u32, level: usize, evals: &mut usize) -> u32 {
        let mut cur = start;
        let mut cur_sim = self.similarity(query, cur);
        *evals += 1;
        loop {
            let mut improved = false;
            for &nb in &self.links[cur as usize][level] {
                let s = self.similarity(query, nb);
                *evals += 1;
                if s > cur_sim {
                    cur_sim = s;
                    cur = nb;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search within one level; returns up to `ef` hits best-first
    /// with `Neighbor.id` holding *node indices* (not external ids).
    fn search_layer(
        &self,
        query: &[f32],
        entries: &[u32],
        ef: usize,
        level: usize,
        evals: &mut usize,
    ) -> Vec<Neighbor> {
        let mut visited = vec![false; self.ids.len()];
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        let mut results = TopK::new(ef.max(1));

        for &e in entries {
            if visited[e as usize] {
                continue;
            }
            visited[e as usize] = true;
            let s = self.similarity(query, e);
            *evals += 1;
            candidates.push(Reverse(Neighbor::new(e as u64, s)));
            results.push(e as u64, s);
        }

        // Neighbor expansion splits into gather → blocked score → admit.
        // Only the scoring is batched; visited-marking happens during the
        // gather and the admit loop runs sequentially against the live
        // `results.worst_score()`, so for any fixed dispatch level the
        // traversal (and therefore the output and the eval count) is
        // deterministic and identical to admitting one scored neighbor
        // at a time. Scores carry the level's tier-B reduction order
        // (see hermes_math::block), so traversals at different
        // `HERMES_SIMD` levels may differ on near-ties — but never
        // within a process, where the level is decided once.
        let mut batch: Vec<u32> = Vec::new();
        let mut scores: Vec<f32> = Vec::new();
        while let Some(Reverse(cand)) = candidates.pop() {
            if let Some(worst) = results.worst_score() {
                if cand.score < worst {
                    break;
                }
            }
            batch.clear();
            for &nb in &self.links[cand.id as usize][level] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                batch.push(nb);
            }
            scores.resize(batch.len(), 0.0);
            self.score_nodes(query, &batch, &mut scores);
            *evals += batch.len();
            for (&nb, &s) in batch.iter().zip(&scores) {
                let admit = match results.worst_score() {
                    Some(worst) => s > worst,
                    None => true,
                };
                if admit {
                    candidates.push(Reverse(Neighbor::new(nb as u64, s)));
                    results.push(nb as u64, s);
                }
            }
        }
        results.into_sorted_vec()
    }

    fn shrink_links(&mut self, node: u32, level: usize, max_links: usize) {
        let q = self.vector(node);
        let mut scored: Vec<Neighbor> = self.links[node as usize][level]
            .iter()
            .map(|&nb| Neighbor::new(nb as u64, self.similarity(&q, nb)))
            .collect();
        scored.sort();
        scored.truncate(max_links);
        self.links[node as usize][level] = scored.iter().map(|n| n.id as u32).collect();
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn memory_bytes(&self) -> usize {
        let vec_bytes = match self.storage {
            VectorStorage::F32 => self.vectors.len() * 4,
            VectorStorage::F16 => self.vectors_f16.len() * 2,
        };
        let link_bytes: usize = self
            .links
            .iter()
            .flat_map(|per_node| per_node.iter().map(|l| l.len() * 4 + 24))
            .sum();
        vec_bytes + link_bytes + self.ids.len() * 8 + self.levels.len()
    }

    fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ScanStats), IndexError> {
        if query.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        let Some(entry) = self.entry else {
            return Err(IndexError::Empty);
        };
        let mut evals = 0usize;
        let top_level = self.levels[entry as usize] as usize;
        let mut ep = entry;
        for lvl in (1..=top_level).rev() {
            ep = self.greedy_closest(query, ep, lvl, &mut evals);
        }
        let ef = params.ef_search.max(k).max(1);
        let found = self.search_layer(query, &[ep], ef, 0, &mut evals);
        let mut out: Vec<Neighbor> = found
            .into_iter()
            .take(k)
            .map(|n| Neighbor::new(self.ids[n.id as usize], n.score))
            .collect();
        out.sort();
        // Each traversed level counts as one probed partition (upper
        // greedy layers + the base beam).
        let stats = ScanStats {
            scanned_codes: evals,
            probed_partitions: top_level + 1,
        };
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use hermes_math::Mat;

    fn random_data(n: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        Mat::from_rows(
            &(0..n)
                .map(|_| (0..dim).map(|_| rng.next_f32()).collect::<Vec<f32>>())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn exact_on_line_data() {
        let data = Mat::from_rows(&(0..200).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let index = HnswIndex::builder()
            .m(8)
            .metric(Metric::L2)
            .storage(VectorStorage::F32)
            .build(&data)
            .unwrap();
        let hits = index
            .search(&[123.3, 0.0], 2, &SearchParams::new().with_ef_search(64))
            .unwrap();
        assert_eq!(hits[0].id, 123);
    }

    #[test]
    fn recall_against_flat_oracle_exceeds_90_percent() {
        let data = random_data(800, 16, 3);
        let index = HnswIndex::builder()
            .m(16)
            .ef_construction(120)
            .metric(Metric::L2)
            .storage(VectorStorage::F32)
            .seed(7)
            .build(&data)
            .unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let mut hit = 0usize;
        let mut total = 0usize;
        for qi in (0..800).step_by(41) {
            let q = data.row(qi);
            let truth: Vec<u64> = flat
                .search(q, 10, &SearchParams::new())
                .unwrap()
                .iter()
                .map(|n| n.id)
                .collect();
            let got = index
                .search(q, 10, &SearchParams::new().with_ef_search(128))
                .unwrap();
            hit += got.iter().filter(|n| truth.contains(&n.id)).count();
            total += truth.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn higher_ef_search_does_not_reduce_recall() {
        let data = random_data(500, 8, 5);
        let index = HnswIndex::builder()
            .m(8)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let recall = |ef: usize| -> f64 {
            let mut hit = 0;
            let mut total = 0;
            for qi in (0..500).step_by(53) {
                let q = data.row(qi);
                let truth: Vec<u64> = flat
                    .search(q, 5, &SearchParams::new())
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let got = index
                    .search(q, 5, &SearchParams::new().with_ef_search(ef))
                    .unwrap();
                hit += got.iter().filter(|n| truth.contains(&n.id)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        assert!(recall(256) >= recall(8) - 0.05);
    }

    #[test]
    fn f16_storage_halves_vector_memory() {
        let data = random_data(300, 32, 9);
        let f32_idx = HnswIndex::builder()
            .storage(VectorStorage::F32)
            .seed(1)
            .build(&data)
            .unwrap();
        let f16_idx = HnswIndex::builder()
            .storage(VectorStorage::F16)
            .seed(1)
            .build(&data)
            .unwrap();
        assert!(f16_idx.memory_bytes() < f32_idx.memory_bytes());
    }

    #[test]
    fn hnsw_memory_exceeds_equivalent_sq8_payload() {
        // Figure 4's point: graph links make HNSW memory-hungry relative to
        // IVF-SQ8 even with fp16 vectors.
        let data = random_data(400, 16, 11);
        let hnsw = HnswIndex::builder().m(16).build(&data).unwrap();
        let sq8_payload = 400 * 16; // 1 byte/dim
        assert!(hnsw.memory_bytes() > 2 * sq8_payload);
    }

    #[test]
    fn insert_after_build_is_searchable() {
        let data = random_data(50, 4, 13);
        let mut index = HnswIndex::builder()
            .metric(Metric::L2)
            .storage(VectorStorage::F32)
            .build(&data)
            .unwrap();
        index.insert(777, &[9.0, 9.0, 9.0, 9.0]).unwrap();
        let hits = index
            .search(
                &[9.0, 9.0, 9.0, 9.0],
                1,
                &SearchParams::new().with_ef_search(32),
            )
            .unwrap();
        assert_eq!(hits[0].id, 777);
    }

    #[test]
    fn empty_build_rejected() {
        let err = HnswIndex::builder().build(&Mat::zeros(0, 4)).unwrap_err();
        assert_eq!(err, IndexError::Empty);
    }

    #[test]
    fn dimension_mismatch_on_search() {
        let data = random_data(10, 4, 17);
        let index = HnswIndex::builder().build(&data).unwrap();
        assert!(matches!(
            index.search(&[1.0], 1, &SearchParams::new()),
            Err(IndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn graph_is_connected_enough_to_reach_everything() {
        let data = random_data(200, 8, 19);
        let index = HnswIndex::builder()
            .m(8)
            .metric(Metric::L2)
            .storage(VectorStorage::F32)
            .build(&data)
            .unwrap();
        // With ef = n the base-layer beam should enumerate every node.
        let hits = index
            .search(data.row(0), 200, &SearchParams::new().with_ef_search(200))
            .unwrap();
        assert!(hits.len() >= 190, "reached only {} nodes", hits.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = random_data(100, 8, 21);
        let a = HnswIndex::builder()
            .seed(5)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let b = HnswIndex::builder()
            .seed(5)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let qa = a.search(data.row(3), 5, &SearchParams::new()).unwrap();
        let qb = b.search(data.row(3), 5, &SearchParams::new()).unwrap();
        assert_eq!(qa, qb);
    }
}
