//! Inverted-file (IVF) index with quantized storage.
//!
//! The index Hermes deploys (paper Section 2.1): a K-means coarse
//! quantizer splits the datastore into `nlist` inverted lists; at query
//! time only the `nProbe` lists whose centroids are nearest the query are
//! scanned, trading accuracy for latency. Vectors inside lists are stored
//! through a [`Codec`] (the paper uses SQ8).

use std::cell::Cell;

use hermes_kmeans::{probe_key_centroid, select_nearest, KMeans, KMeansConfig};
use hermes_math::simd::prefetch_read;
use hermes_math::{Mat, Metric, Neighbor, TopK};
use hermes_quant::{Codec, CodecSpec, QueryScorer};

use crate::{GroupScan, IndexError, ScanResult, ScanStats, SearchParams, VectorIndex};

#[derive(Debug, Clone, Default)]
struct InvertedList {
    ids: Vec<u64>,
    codes: Vec<u8>,
    /// Tombstone bitmap, one flag per code slot. Dead codes stay in the
    /// list (and are still scored — the blocked kernels' per-code scores
    /// are position-independent, so filtering dead (id, score) pairs
    /// *after* scoring keeps live-row admission bit-identical) until
    /// compaction rebuilds the list densely.
    dead: Vec<bool>,
    dead_count: usize,
}

impl InvertedList {
    fn live(&self) -> usize {
        self.ids.len() - self.dead_count
    }
}

/// Summary statistics about a built IVF index.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfStats {
    /// Number of inverted lists.
    pub nlist: usize,
    /// Stored vectors.
    pub len: usize,
    /// Largest inverted list length.
    pub max_list: usize,
    /// Smallest inverted list length.
    pub min_list: usize,
    /// Bytes per stored code.
    pub code_size: usize,
}

/// The coarse-quantizer keys of a query group: what
/// [`IvfIndex::coarse_keys`] hands out, so a caller can choose each
/// query's lists from the list distances — across several indices over
/// one embedding space, say — and scan them with
/// [`IvfIndex::search_lists`], without the centroid table being streamed
/// a second time.
#[derive(Debug, Clone, Default)]
pub struct CoarseKeys {
    /// `nlist` keys per query that passed the index's checks, row after
    /// row in input order.
    keys: Vec<u64>,
    /// Per input query: the row holding its keys, or why it has none.
    rows: Vec<Result<usize, IndexError>>,
    nlist: usize,
}

impl CoarseKeys {
    /// Query `i`'s keys, one per inverted list in list order — or the
    /// error a search of that query returns. Keys are
    /// [`KMeans::probe_keys`] keys: plain `u64` order is the index's
    /// probe ranking (ascending centroid distance, ties by list), a
    /// search at `nprobe` scans the lists of the `nprobe` smallest, and
    /// [`probe_key_distance`](hermes_kmeans::probe_key_distance) /
    /// [`probe_key_centroid`] unpack one.
    ///
    /// # Panics
    ///
    /// Panics if the group has no query `i`.
    pub fn query(&self, i: usize) -> Result<&[u64], IndexError> {
        let row = self.rows[i].clone()?;
        Ok(&self.keys[row * self.nlist..(row + 1) * self.nlist])
    }
}

/// Builder for [`IvfIndex`] (paper defaults: `nlist = 4·√n`, SQ8 codec).
///
/// # Examples
///
/// ```
/// use hermes_math::{Mat, Metric};
/// use hermes_index::IvfIndex;
/// use hermes_quant::CodecSpec;
///
/// let data = Mat::from_rows(&(0..100).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
/// let index = IvfIndex::builder().codec(CodecSpec::Flat).build(&data)?;
/// assert_eq!(index.stats().len, 100);
/// # Ok::<(), hermes_index::IndexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IvfBuilder {
    nlist: Option<usize>,
    codec: CodecSpec,
    metric: Metric,
    seed: u64,
}

/// Lloyd iteration cap for the coarse quantizer.
const KMEANS_ITERS: usize = 15;

impl IvfBuilder {
    fn new() -> Self {
        IvfBuilder {
            nlist: None,
            codec: CodecSpec::Sq8,
            metric: Metric::InnerProduct,
            seed: 0,
        }
    }

    /// Fixes the number of inverted lists (default `4·√n`).
    pub fn nlist(mut self, nlist: usize) -> Self {
        self.nlist = Some(nlist);
        self
    }

    /// Storage codec (default SQ8, the paper's pick).
    pub fn codec(mut self, codec: CodecSpec) -> Self {
        self.codec = codec;
        self
    }

    /// Ranking metric (default inner product).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// RNG seed for the coarse quantizer and codec training.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the index over `data` with implicit ids `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Empty`] for an empty dataset.
    pub fn build(&self, data: &Mat) -> Result<IvfIndex, IndexError> {
        let ids: Vec<u64> = (0..data.rows() as u64).collect();
        self.build_with_ids(data, ids)
    }

    /// Builds the index with caller-provided ids (one per row).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Empty`] for an empty dataset and
    /// [`IndexError::InvalidParam`] if `ids.len() != data.rows()`.
    pub fn build_with_ids(&self, data: &Mat, ids: Vec<u64>) -> Result<IvfIndex, IndexError> {
        if data.rows() == 0 {
            return Err(IndexError::Empty);
        }
        if ids.len() != data.rows() {
            return Err(IndexError::InvalidParam(format!(
                "ids length {} != rows {}",
                ids.len(),
                data.rows()
            )));
        }
        let nlist = self
            .nlist
            .unwrap_or_else(|| ((4.0 * (data.rows() as f64).sqrt()).round() as usize).max(1))
            .clamp(1, data.rows());

        let cfg = KMeansConfig::new(nlist)
            .with_seed(self.seed)
            .with_max_iters(KMEANS_ITERS);
        let coarse = KMeans::train(data, &cfg);
        let codec = Codec::train(self.codec, data, self.seed);

        // K-means ends with exactly this sweep — every row assigned
        // against the final centroids — so the lists, and their exact
        // final lengths, are already known: no growth slack stays
        // resident behind a served index.
        let code_size = codec.code_size();
        let mut lists = vec![InvertedList::default(); coarse.num_clusters()];
        for (list, &rows) in lists.iter_mut().zip(coarse.cluster_sizes()) {
            list.ids.reserve_exact(rows);
            list.codes.reserve_exact(rows * code_size);
            list.dead.reserve_exact(rows);
        }
        for ((row, &id), &list) in data.iter_rows().zip(&ids).zip(coarse.assignments()) {
            let list = &mut lists[list as usize];
            list.ids.push(id);
            codec.encode_into(row, &mut list.codes);
            list.dead.push(false);
        }

        Ok(IvfIndex {
            coarse,
            codec,
            lists,
            metric: self.metric,
            dim: data.cols(),
            len: data.rows(),
        })
    }
}

/// Inverted-file ANN index (see module docs).
#[derive(Debug, Clone)]
pub struct IvfIndex {
    coarse: KMeans,
    codec: Codec,
    lists: Vec<InvertedList>,
    metric: Metric,
    dim: usize,
    len: usize,
}

impl IvfIndex {
    /// Starts configuring a new index.
    pub fn builder() -> IvfBuilder {
        IvfBuilder::new()
    }

    /// Build-time and occupancy statistics (live counts — tombstoned
    /// codes are excluded).
    pub fn stats(&self) -> IvfStats {
        let (mut max_list, mut min_list) = (0usize, usize::MAX);
        for l in &self.lists {
            max_list = max_list.max(l.live());
            min_list = min_list.min(l.live());
        }
        IvfStats {
            nlist: self.lists.len(),
            len: self.len,
            max_list,
            min_list: if self.lists.is_empty() { 0 } else { min_list },
            code_size: self.codec.code_size(),
        }
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Adds one vector with an explicit id (streaming ingest).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::DimensionMismatch`] on a wrong-sized vector.
    pub fn add(&mut self, id: u64, v: &[f32]) -> Result<(), IndexError> {
        if v.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                got: v.len(),
            });
        }
        let list = &mut self.lists[self.coarse.assign(v).0];
        list.ids.push(id);
        self.codec.encode_into(v, &mut list.codes);
        list.dead.push(false);
        self.len += 1;
        Ok(())
    }

    /// Decodes the stored vector for `id` (first live occurrence). Lossy
    /// codecs return the quantized reconstruction — deterministic, and
    /// exactly what a migration re-encodes, so decode → re-add
    /// round-trips stably.
    pub fn reconstruct(&self, id: u64) -> Option<Vec<f32>> {
        let cs = self.codec.code_size();
        for list in &self.lists {
            for (pos, &stored) in list.ids.iter().enumerate() {
                if stored == id && !list.dead[pos] {
                    return Some(self.codec.decode(&list.codes[pos * cs..(pos + 1) * cs]));
                }
            }
        }
        None
    }

    /// Decodes every live row in list-then-position order — the
    /// deterministic export the cluster rebalancer migrates. Returns
    /// `(id, vector)` pairs.
    pub fn export_live(&self) -> Vec<(u64, Vec<f32>)> {
        let cs = self.codec.code_size();
        let mut out = Vec::with_capacity(self.len);
        for list in &self.lists {
            for (pos, &id) in list.ids.iter().enumerate() {
                if !list.dead[pos] {
                    out.push((id, self.codec.decode(&list.codes[pos * cs..(pos + 1) * cs])));
                }
            }
        }
        out
    }

    /// Serializes the index (coarse centroids, codec, inverted lists) to
    /// the workspace wire format: one shard section of the clustered
    /// store's paged image, the offline-build → online-serving handoff of
    /// the paper's Appendix A.5.
    ///
    /// Tombstoned codes are dropped at serialization time (the on-disk
    /// image is the compacted view). Compaction is search-equivalent bit
    /// for bit, so a saved-then-loaded mutated index answers exactly like
    /// the in-memory one.
    pub fn to_bytes(&self) -> Vec<u8> {
        use hermes_math::wire::{WireEncode, Writer};
        let cs = self.codec.code_size();
        let mut w = Writer::new();
        w.header("HIVF", 1);
        w.u8(match self.metric {
            Metric::L2 => 0,
            Metric::InnerProduct => 1,
            Metric::Cosine => 2,
        });
        // The residual-storage tag, always 0 (raw codes): kept so that the
        // format, and so every image's bytes, stay as they were.
        w.u8(0);
        w.u64(self.dim as u64);
        w.u64(self.len as u64);
        self.coarse.encode_wire(&mut w);
        self.codec.encode_wire(&mut w);
        w.u64(self.lists.len() as u64);
        let mut ids = Vec::new();
        let mut codes = Vec::new();
        for list in &self.lists {
            if list.dead_count == 0 {
                w.u64s(&list.ids);
                w.bytes(&list.codes);
            } else {
                ids.clear();
                codes.clear();
                for (pos, &id) in list.ids.iter().enumerate() {
                    if !list.dead[pos] {
                        ids.push(id);
                        codes.extend_from_slice(&list.codes[pos * cs..(pos + 1) * cs]);
                    }
                }
                w.u64s(&ids);
                w.bytes(&codes);
            }
        }
        w.finish()
    }

    /// Reconstructs an index serialized with [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`hermes_math::wire::WireError`] for truncated, corrupt
    /// or mismatched payloads.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, hermes_math::wire::WireError> {
        use hermes_math::wire::{Reader, WireDecode, WireError};
        let mut r = Reader::new(buf);
        r.header("HIVF", 1)?;
        let metric = match r.u8()? {
            0 => Metric::L2,
            1 => Metric::InnerProduct,
            2 => Metric::Cosine,
            t => return Err(WireError::Corrupt(format!("bad metric tag {t}"))),
        };
        match r.u8()? {
            0 => {}
            1 => return Err(WireError::Corrupt("residual list storage is not supported".into())),
            t => return Err(WireError::Corrupt(format!("bad residual tag {t}"))),
        }
        let dim = r.u64()? as usize;
        let len = r.u64()? as usize;
        let coarse = KMeans::decode_wire(&mut r)?;
        let codec = Codec::decode_wire(&mut r)?;
        if codec.dim() != dim {
            return Err(WireError::Corrupt("codec dimension mismatch".into()));
        }
        if coarse.centroids().cols() != dim {
            return Err(WireError::Corrupt("centroid dimension mismatch".into()));
        }
        let nlists = r.u64()? as usize;
        if nlists != coarse.num_clusters() {
            return Err(WireError::Corrupt("list/centroid count mismatch".into()));
        }
        let code_size = codec.code_size();
        let mut lists = Vec::with_capacity(nlists);
        let mut total = 0usize;
        for _ in 0..nlists {
            let ids = r.u64s()?;
            let codes = r.bytes()?;
            if codes.len() != ids.len() * code_size {
                return Err(WireError::Corrupt("code payload size mismatch".into()));
            }
            total += ids.len();
            let dead = vec![false; ids.len()];
            lists.push(InvertedList {
                ids,
                codes,
                dead,
                dead_count: 0,
            });
        }
        if total != len {
            return Err(WireError::Corrupt(format!(
                "stored length {len} but lists hold {total}"
            )));
        }
        Ok(IvfIndex {
            coarse,
            codec,
            lists,
            metric,
            dim,
            len,
        })
    }

    /// Estimates the work a search with `nprobe` *would* perform without
    /// scoring any codes: the coarse quantizer is scanned once to find the
    /// probed lists, and their lengths are summed. Use this for capacity
    /// planning; a search that actually ran reports its exact work via
    /// [`VectorIndex::search_with_stats`] for free.
    pub fn probe_stats(&self, query: &[f32], nprobe: usize) -> ScanStats {
        let mut keys = Vec::new();
        self.coarse.probe_keys([query].into_iter(), &mut keys);
        let probe = select_nearest(&mut keys, nprobe);
        self.list_cost(probe.iter().map(|&key| probe_key_centroid(key) as u32))
    }

    /// The logical work of scanning `lists`.
    fn list_cost(&self, lists: impl Iterator<Item = u32>) -> ScanStats {
        let mut stats = ScanStats::default();
        for list in lists {
            stats.scanned_codes += self.lists[list as usize].ids.len();
            stats.probed_partitions += 1;
        }
        stats
    }
}

impl VectorIndex for IvfIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.len
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn memory_bytes(&self) -> usize {
        // Tombstoned codes remain resident until compaction; the bitmap
        // costs one byte per slot.
        let codes: usize = self.lists.iter().map(|l| l.codes.len()).sum();
        let ids: usize = self.lists.iter().map(|l| l.ids.len() * 8).sum();
        let dead: usize = self.lists.iter().map(|l| l.dead.len()).sum();
        let centroids = self.coarse.num_clusters() * self.dim * 4;
        codes + ids + dead + centroids
    }

    fn insert(&mut self, id: u64, v: &[f32]) -> Result<(), IndexError> {
        self.add(id, v)
    }

    fn remove(&mut self, id: u64) -> bool {
        for list in self.lists.iter_mut() {
            for (pos, &stored) in list.ids.iter().enumerate() {
                if stored == id && !list.dead[pos] {
                    list.dead[pos] = true;
                    list.dead_count += 1;
                    self.len -= 1;
                    return true;
                }
            }
        }
        false
    }

    fn tombstones(&self) -> usize {
        self.lists.iter().map(|l| l.dead_count).sum()
    }

    fn compact(&mut self) {
        let cs = self.codec.code_size();
        for list in self.lists.iter_mut() {
            if list.dead_count == 0 {
                continue;
            }
            // Dense rebuild preserving relative live order: the scan
            // scores codes position-independently, so post-compaction
            // searches are bit-identical to the tombstoned scan.
            let live = list.live();
            let mut ids = Vec::with_capacity(live);
            let mut codes = Vec::with_capacity(live * cs);
            for (pos, &id) in list.ids.iter().enumerate() {
                if !list.dead[pos] {
                    ids.push(id);
                    codes.extend_from_slice(&list.codes[pos * cs..(pos + 1) * cs]);
                }
            }
            list.ids = ids;
            list.codes = codes;
            list.dead = vec![false; live];
            list.dead_count = 0;
        }
    }

    fn search_with_stats(&self, query: &[f32], k: usize, params: &SearchParams) -> ScanResult {
        self.search_group(&[(query, params.nprobe)], k)
            .results
            .pop()
            .unwrap_or_else(|| {
                Err(IndexError::InvalidParam(
                    "the group scan of one query returned no result".into(),
                ))
            })
    }

    /// [`IvfIndex::coarse_keys`], then each query's `max(nprobe, 1)`
    /// nearest lists ([`select_nearest`], on the keys in the thread's
    /// scratch), then the scan body of [`IvfIndex::search_lists`].
    fn search_group(&self, queries: &[(&[f32], usize)], k: usize) -> GroupScan {
        with_scratch(|scratch| {
            let ScanScratch {
                coarse,
                active,
                plan,
                ..
            } = scratch;
            self.fill_keys(queries.iter().map(|q| q.0), coarse);
            let nlist = self.lists.len();
            active.clear();
            plan.clear();
            let results = (queries.iter().zip(&coarse.rows).enumerate())
                .map(|(qi, (&(_, nprobe), row))| {
                    let row = row.clone()?;
                    let keys = &mut coarse.keys[row * nlist..(row + 1) * nlist];
                    let chosen = select_nearest(keys, nprobe);
                    let lists = chosen.iter().map(|&key| probe_key_centroid(key) as u32);
                    Ok(self.plan_run(qi, lists, plan, active))
                })
                .collect();
            self.scan_group(|qi| (queries[qi].0, f32::NEG_INFINITY), results, k, scratch)
        })
    }
}

impl IvfIndex {
    /// One pass over the centroid table scores every list against every
    /// query of the group and checks each query as a search would: a
    /// caller that chooses the lists itself — across several indices over
    /// one embedding space, say — chooses from these keys and hands the
    /// lists to [`Self::search_lists`].
    pub fn coarse_keys<'q>(
        &self,
        queries: impl Iterator<Item = &'q [f32]> + Clone,
    ) -> CoarseKeys {
        let mut keys = CoarseKeys::default();
        self.fill_keys(queries, &mut keys);
        keys
    }

    /// Scans, for each `(query, lists, floor)` of the group, exactly the
    /// inverted lists it names (each at most once), in the order given —
    /// the scan [`VectorIndex::search_group`] runs once it has selected
    /// each query's lists, so a query paired with the lists its `nprobe`
    /// selects, at floor −∞, gets that search's answer to the bit. An
    /// empty set probes nothing and answers no hits with zero
    /// [`ScanStats`]; a query that fails the index's checks, or names a
    /// list the index does not have, is answered with the error.
    ///
    /// A query's `floor` is a score its caller already holds `k` hits at
    /// or above (another shard's k-th best, say): it answers with the
    /// hits of the unfloored scan that score at least `floor`, and the
    /// same [`ScanStats`]. A floor of −∞ or NaN is no floor. With one,
    /// the scan's bound filter starts at `floor` instead of warming up,
    /// and never filters below it; only [`GroupScan::rescored_codes`]
    /// can tell.
    pub fn search_lists(&self, queries: &[(&[f32], &[u32], f32)], k: usize) -> GroupScan {
        with_scratch(|scratch| {
            scratch.active.clear();
            scratch.plan.clear();
            let results = (queries.iter().enumerate())
                .map(|(qi, &(query, lists, _))| {
                    self.check_query(query)?;
                    if let Some(&list) = lists.iter().find(|&&l| l as usize >= self.lists.len()) {
                        return Err(IndexError::InvalidParam(format!(
                            "list {list} of an index with {} lists",
                            self.lists.len()
                        )));
                    }
                    let lists = lists.iter().copied();
                    Ok(self.plan_run(qi, lists, &mut scratch.plan, &mut scratch.active))
                })
                .collect();
            self.scan_group(|qi| (queries[qi].0, queries[qi].2), results, k, scratch)
        })
    }

    fn check_query(&self, query: &[f32]) -> Result<(), IndexError> {
        if query.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        if self.len == 0 {
            return Err(IndexError::Empty);
        }
        Ok(())
    }

    /// Checks every query and writes the keys of those that pass.
    fn fill_keys<'q>(
        &self,
        queries: impl Iterator<Item = &'q [f32]> + Clone,
        out: &mut CoarseKeys,
    ) {
        let CoarseKeys { keys, rows, nlist } = out;
        *nlist = self.lists.len();
        let mut next_row = 0;
        rows.clear();
        rows.extend(queries.clone().map(|q| {
            self.check_query(q).map(|()| {
                next_row += 1;
                next_row - 1
            })
        }));
        let live = queries
            .zip(rows.iter())
            .filter(|(_, row)| row.is_ok())
            .map(|(q, _)| q);
        self.coarse.probe_keys(live, keys);
    }

    /// Plans input query `qi`'s probed `lists` as the plan's next run
    /// (a query that probes nothing gets no scan slot) and returns its
    /// result before the scan: no hits yet, and the work of its lists.
    fn plan_run(
        &self,
        qi: usize,
        lists: impl Iterator<Item = u32> + Clone,
        plan: &mut Plan,
        active: &mut Vec<usize>,
    ) -> (Vec<Neighbor>, ScanStats) {
        let stats = self.list_cost(lists.clone());
        if stats.probed_partitions > 0 {
            plan.push(lists, |l| self.lists[l as usize].ids.is_empty());
            active.push(qi);
        }
        (Vec::new(), stats)
    }

    /// The one scan body, over the runs planned in `scratch`: slot `s`
    /// scans run `s` for input query `scratch.active[s]`, whose vector
    /// and floor (see [`Self::search_lists`]) are `query(active[s])`, and
    /// its hits at or above the floor land in that query's result.
    ///
    /// Each query's lists arrive *selected*, not sorted — [`TopK`] is a
    /// total order on `(score, id)` and [`ScanStats`] are sums, so the
    /// visiting order never shows — as a flat row [`Plan`] of one run per
    /// query, in input order, that the scoring kernels consume in full
    /// tiles across list boundaries with that query's one scorer. A group
    /// shares the scratch and one read-ahead over the whole plan, not the
    /// rows: each query's scan is exactly the scan it would get alone.
    ///
    /// Everything between the input and the hit lists lives in the
    /// per-thread [`ScanScratch`]: in steady state a plain group scan
    /// allocates only what it returns.
    fn scan_group<'q>(
        &self,
        query: impl Fn(usize) -> (&'q [f32], f32),
        mut results: Vec<ScanResult>,
        k: usize,
        scratch: &mut ScanScratch,
    ) -> GroupScan {
        let ScanScratch {
            active,
            plan,
            floors,
            tops,
            scorers,
            chunk,
            ..
        } = scratch;
        if active.is_empty() {
            return GroupScan {
                results,
                rescored_codes: 0,
            };
        }
        let mut ahead = ReadAhead::default();
        ahead.advance(self, &plan.lists, PREFETCH_ROWS);

        tops.clear();
        tops.extend(active.iter().map(|_| TopK::new(k.max(1))));
        // −∞ for no floor; `max` turns a NaN floor into none as well.
        floors.clear();
        floors.extend(active.iter().map(|&i| query(i).1.max(f32::NEG_INFINITY)));
        let mut slot_scorers = recycle(std::mem::take(scorers));
        slot_scorers.extend(
            active
                .iter()
                .map(|&i| self.codec.query_scorer(query(i).0, self.metric)),
        );
        let rescored_codes = self.scan(plan, &slot_scorers, floors, tops, chunk, &mut ahead);
        *scorers = recycle(slot_scorers);

        for ((&qi, &floor), top) in active.iter().zip(&*floors).zip(tops.drain(..)) {
            if let Ok((hits, _)) = &mut results[qi] {
                *hits = top.into_sorted_vec();
                hits.truncate(k);
                // Best first, NaN scores last: those at or above a floor
                // are a prefix.
                if floor > f32::NEG_INFINITY {
                    hits.truncate(hits.partition_point(|hit| hit.score >= floor));
                }
            }
        }
        GroupScan {
            results,
            rescored_codes,
        }
    }

    /// Runs a compiled [`Plan`]: each slot's lists are cut into chunks of
    /// up to [`CHUNK_ROWS`] rows **across list boundaries**, and the slot
    /// takes its pass over a chunk's code segments one of two ways,
    /// decided from its scorer, its floor (−∞ for none) and its selector
    /// alone:
    ///
    /// * **filter → compact → rescore**, if the scorer has a
    ///   [`Sq8Bound`](hermes_quant::Sq8Bound) and the slot has a floor or
    ///   a full selector: the bound's kernel compares every row's integer
    ///   sum with the [`floor`](hermes_quant::Sq8Bound::floor) of the
    ///   higher of the slot's floor and the selector's threshold and
    ///   writes a survivor bit a row
    ///   ([`survivors`](hermes_quant::Sq8Bound::survivors)); the rows it
    ///   keeps — all that could still be admitted, a few in a hundred —
    ///   are compacted off the mask bits (tombstoned rows dropped on the
    ///   way) into one-row segments, and the exact kernel scores just
    ///   those, in row order, for one [`TopK::push_block`];
    /// * **exact** otherwise: the kernel scores every row, and the score
    ///   row feeds the selector's `push_block`, list by list.
    ///
    /// A row the filter drops scores strictly below a threshold that only
    /// rises, so `push_block` would have dropped it too, or below the
    /// slot's floor, so the answer drops it anyway; a row it keeps gets
    /// the bits the exact way gives it, because tier-A scores do not
    /// depend on a code's position or on which codes share a chunk or a
    /// kernel call. Only exact scores ever reach a selector: results
    /// cannot tell the two ways apart. While a selector that will filter
    /// is still filling and its slot has no floor, chunks are cut at
    /// [`WARMUP_ROWS`] so that it fills, exactly, on few rows. The
    /// kernels keep the read-ahead cursor [`PREFETCH_ROWS`] rows in front
    /// of the rows they read, across slot boundaries. Returns
    /// [`GroupScan::rescored_codes`].
    fn scan(
        &self,
        plan: &Plan,
        scorers: &[QueryScorer<'_>],
        floors: &[f32],
        tops: &mut [TopK],
        chunk: &mut Chunk,
        ahead: &mut ReadAhead,
    ) -> usize {
        let cs = self.codec.code_size();
        let mut segments: [&[u8]; CHUNK_ROWS] = [&[]; CHUNK_ROWS];
        let mut kept: [&[u8]; CHUNK_ROWS] = [&[]; CHUNK_ROWS];
        let mut rescored = 0;
        let mut first = 0;
        let slots = plan.ends.iter().zip(scorers).zip(floors).zip(tops);
        for (((&end, scorer), &floor), top) in slots {
            let lists = &plan.lists[first..end];
            first = end;
            let (mut at_list, mut at_row) = (0, 0);
            while at_list < lists.len() {
                let warming =
                    floor == f32::NEG_INFINITY && top.len() < top.k() && scorer.bound().is_some();
                let limit = if warming { WARMUP_ROWS } else { CHUNK_ROWS };
                // The next chunk: up to `limit` rows of consecutive
                // lists. A list with tombstones also gets its mask here:
                // in the exact form its rows are scored by the unchanged
                // kernel like any other, then its dead `(id, score)`
                // pairs are compacted out before admission, so live rows
                // keep their exact bits and admission order.
                let (mut parts, mut rows, mut live) = (0, 0, 0);
                while rows < limit && at_list < lists.len() {
                    let list = &self.lists[lists[at_list] as usize];
                    let take = (list.ids.len() - at_row).min(limit - rows);
                    let piece = at_row..at_row + take;
                    segments[parts] = &list.codes[piece.start * cs..piece.end * cs];
                    let live_from = live;
                    if list.dead_count > 0 {
                        let flagged = list.ids[piece.clone()].iter().zip(&list.dead[piece]);
                        for (j, (&id, &dead)) in flagged.enumerate() {
                            if !dead {
                                chunk.live_ids[live] = id;
                                chunk.live_at[live] = (rows + j) as u8;
                                live += 1;
                            }
                        }
                    }
                    chunk.parts[parts] = Part {
                        list: lists[at_list],
                        start: at_row as u32,
                        len: take as u32,
                        live: live_from as u32..live as u32,
                    };
                    parts += 1;
                    rows += take;
                    at_row += take;
                    if at_row == list.ids.len() {
                        (at_list, at_row) = (at_list + 1, 0);
                    }
                }
                let (segments, parts) = (&segments[..parts], &chunk.parts[..parts]);
                // The chunk's one pass over its cold rows keeps the
                // read-ahead moving, a few rows between the kernel's tiles.
                let mut pace = |rows| ahead.advance(self, &plan.lists, rows);

                let gate = scorer
                    .bound()
                    .and_then(|bound| Some((bound, bound.floor(top.threshold().max(floor))?)));
                if let Some((bound, least)) = gate {
                    let used = rows.div_ceil(8);
                    bound.survivors(segments, rows, least, &mut chunk.masks[..used], &mut pace);
                    // Survivors in row order, straight off the kernel's
                    // mask bits, 64 rows a word (the word's bytes past the
                    // chunk cleared); `part` follows them.
                    let bytes = used.next_multiple_of(8);
                    chunk.masks[used..bytes].fill(0);
                    let (words, _) = chunk.masks[..bytes].as_chunks::<8>();
                    let (mut n, mut part, mut part_from) = (0, 0, 0);
                    for (w, &word) in words.iter().enumerate() {
                        let mut mask = u64::from_le_bytes(word);
                        while mask != 0 {
                            let row = w * 64 + mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            while row >= part_from + parts[part].len as usize {
                                part_from += parts[part].len as usize;
                                part += 1;
                            }
                            let list = &self.lists[parts[part].list as usize];
                            let at = parts[part].start as usize + row - part_from;
                            if list.dead_count == 0 || !list.dead[at] {
                                kept[n] = &list.codes[at * cs..(at + 1) * cs];
                                chunk.kept_ids[n] = list.ids[at];
                                n += 1;
                            }
                        }
                    }
                    let out = &mut chunk.scores[..n];
                    scorer.score_segments(&kept[..n], out, &mut |_| {});
                    top.push_block(&chunk.kept_ids[..n], out);
                    rescored += n;
                    continue;
                }

                let out = &mut chunk.scores[..rows];
                scorer.score_segments(segments, out, &mut pace);
                let mut at = 0;
                for p in parts {
                    let list = &self.lists[p.list as usize];
                    let (start, len) = (p.start as usize, p.len as usize);
                    if list.dead_count == 0 {
                        top.push_block(&list.ids[start..start + len], &out[at..at + len]);
                    } else {
                        let live = p.live.start as usize..p.live.end as usize;
                        let scores = &mut chunk.live_scores[live.clone()];
                        for (s, &j) in scores.iter_mut().zip(&chunk.live_at[live.clone()]) {
                            *s = out[j as usize];
                        }
                        top.push_block(&chunk.live_ids[live], scores);
                    }
                    at += len;
                }
            }
        }
        rescored
    }
}

/// Rows scored per kernel call. A chunk's codes (16 KB at 64 bytes a
/// code) fit in L1, its per-call costs are spread over four times the
/// rows of a [`BLOCK`](hermes_math::block::BLOCK), and its row positions
/// still fit the `u8` of [`Chunk::live_at`].
const CHUNK_ROWS: usize = 256;
const _: () = assert!(CHUNK_ROWS - 1 <= u8::MAX as usize);

/// Rows per chunk while a selector that will filter is still filling and
/// its slot has no floor. The filter reads a selector's threshold once
/// per chunk, so a first chunk of [`CHUNK_ROWS`] would score 256 rows
/// exactly before the bound could rule out one — all of a sample search,
/// which streams ~165 rows. Too short a warm-up, on the other hand,
/// leaves a threshold so low that much of the next chunk survives it.
/// Measured on the benchmark's store (EXPERIMENTS.md, "Exact answers at
/// integer speed"): 16 and 32 rows read the same, 8 and 64 cost the route
/// stage 2–4 µs a query, 128 and more give its whole gain back. The deep
/// stage's leader scans and every sample scan warm up; a floored scan (a
/// non-leader shard's, seeded with the leader's k-th score) filters from
/// its first row.
const WARMUP_ROWS: usize = 32;

/// How many rows ahead of the rows being scored the scan prefetches:
/// far enough for an L3 miss to resolve under the arithmetic of the two
/// 16-row kernel steps in between, near enough that what is fetched is
/// still in L1 when its turn comes (measured: 16 and 48 are both slower).
const PREFETCH_ROWS: usize = 32;

thread_local! {
    /// This thread's scan scratch between scans.
    static SCRATCH: Cell<Option<Box<ScanScratch>>> = const { Cell::new(None) };
}

/// Runs `scan` over this thread's [`ScanScratch`], taken and put back
/// rather than borrowed, so a scan re-entered on this thread would find
/// the slot empty and merely allocate.
fn with_scratch<T>(scan: impl FnOnce(&mut ScanScratch) -> T) -> T {
    let mut scratch = SCRATCH.take().unwrap_or_default();
    let out = scan(&mut scratch);
    SCRATCH.set(Some(scratch));
    out
}

/// Every buffer a group scan needs between its input and its output,
/// kept per thread and reused from scan to scan: all of them are cleared
/// or overwritten before they are read, so only their capacity carries
/// over.
#[derive(Default)]
struct ScanScratch {
    /// [`VectorIndex::search_group`]'s coarse keys; selection reorders
    /// them in place.
    coarse: CoarseKeys,
    /// Input index of each scan slot.
    active: Vec<usize>,
    plan: Plan,
    /// Each slot's floor, −∞ for none.
    floors: Vec<f32>,
    /// One selector per slot.
    tops: Vec<TopK>,
    /// The slots' scorers; held empty between scans (see [`recycle`]).
    scorers: Vec<QueryScorer<'static>>,
    chunk: Chunk,
}

/// An emptied `Vec` of scorers re-typed to another borrow lifetime, so
/// one allocation serves scan after scan although each scan's scorers
/// borrow that scan's queries. Mapping an empty `vec::IntoIter` collects
/// in place — the buffer is handed over, not reallocated; were that ever
/// to stop holding, the only loss would be one allocation per scan.
fn recycle<'a, 'b>(mut scorers: Vec<QueryScorer<'a>>) -> Vec<QueryScorer<'b>> {
    scorers.clear();
    scorers.into_iter().map(|_| unreachable!()).collect()
}

/// The per-chunk buffers of [`IvfIndex::scan`].
struct Chunk {
    /// The lists (or pieces of lists) the chunk's rows come from.
    parts: [Part; CHUNK_ROWS],
    /// The kernel's scores of the chunk's rows, or of its survivors.
    scores: [f32; CHUNK_ROWS],
    /// Ids, chunk positions and scores of the live rows of the chunk's
    /// tombstoned lists.
    live_ids: [u64; CHUNK_ROWS],
    live_at: [u8; CHUNK_ROWS],
    live_scores: [f32; CHUNK_ROWS],
    /// The bound's survivor mask over the chunk, a bit a row, and the ids
    /// of the rows it keeps.
    masks: [u8; CHUNK_ROWS / 8],
    kept_ids: [u64; CHUNK_ROWS],
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            parts: std::array::from_fn(|_| Part::default()),
            scores: [0.0; CHUNK_ROWS],
            live_ids: [0; CHUNK_ROWS],
            live_at: [0; CHUNK_ROWS],
            live_scores: [0.0; CHUNK_ROWS],
            masks: [0; CHUNK_ROWS / 8],
            kept_ids: [0; CHUNK_ROWS],
        }
    }
}

/// Rows `start..start + len` of inverted list `list`; if the list has
/// tombstones, `live` are its live rows' entries in the chunk's `live_*`
/// buffers.
#[derive(Clone, Default)]
struct Part {
    list: u32,
    start: u32,
    len: u32,
    live: std::ops::Range<u32>,
}

/// The probed lists of a group scan in the order their rows are scored,
/// cut into runs: slot `s`'s lists, which the kernel scores as one row
/// sequence for that slot, are `lists[ends[s - 1]..ends[s]]` (from 0 for
/// the first slot).
#[derive(Default)]
struct Plan {
    /// Non-empty probed lists, slot after slot.
    lists: Vec<u32>,
    /// One past each slot's last entry in `lists`.
    ends: Vec<usize>,
}

impl Plan {
    fn clear(&mut self) {
        self.lists.clear();
        self.ends.clear();
    }

    /// Appends the next slot's probed `lists`, in the order given and
    /// without the ones that `is_empty`, as one run — empty if every
    /// list is.
    fn push(&mut self, lists: impl Iterator<Item = u32>, is_empty: impl Fn(u32) -> bool) {
        self.lists.extend(lists.filter(|&l| !is_empty(l)));
        self.ends.push(self.lists.len());
    }
}

/// The prefetch position in a plan's list sequence (see
/// [`PREFETCH_ROWS`]).
#[derive(Default)]
struct ReadAhead {
    list: usize,
    row: usize,
}

impl ReadAhead {
    /// Prefetches what the scan is certain to read of the next `rows`
    /// rows of `lists`, and moves past them: every cache line of their
    /// codes, and for a list with tombstones — whose live mask reads
    /// every id and flag — those too. A clean list's ids are read for the
    /// few rows that survive the top-k bound; fetching them all cost more
    /// than the misses it saved.
    fn advance(&mut self, index: &IvfIndex, lists: &[u32], mut rows: usize) {
        let cs = index.codec.code_size();
        while rows > 0 && self.list < lists.len() {
            let list = &index.lists[lists[self.list] as usize];
            let (from, to) = (self.row, list.ids.len().min(self.row + rows));
            prefetch_read(&list.codes[from * cs..to * cs]);
            if list.dead_count > 0 {
                prefetch_read(&list.ids[from..to]);
                prefetch_read(&list.dead[from..to]);
            }
            rows -= to - from;
            (self.list, self.row) = if to == list.ids.len() {
                (self.list + 1, 0)
            } else {
                (self.list, to)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;
    use hermes_math::rng::seeded_rng;
    use hermes_math::Neighbor;

    fn clustered_data(n: usize, dim: usize, centers: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let centroids: Vec<Vec<f32>> = (0..centers)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = &centroids[i % centers];
                c.iter().map(|&x| x + rng.next_f32() * 0.5).collect()
            })
            .collect();
        Mat::from_rows(&rows)
    }

    #[test]
    fn full_probe_flat_codec_matches_exact_search() {
        let data = clustered_data(300, 8, 5, 1);
        let ivf = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .seed(3)
            .build(&data)
            .unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let params = SearchParams::new().with_nprobe(5);
        for qi in (0..300).step_by(37) {
            let q = data.row(qi);
            let got = ivf.search(q, 5, &params).unwrap();
            let want = flat.search(q, 5, &SearchParams::new()).unwrap();
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let data = clustered_data(1000, 16, 20, 2);
        let ivf = IvfIndex::builder()
            .nlist(20)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(5)
            .build(&data)
            .unwrap();
        let flat = FlatIndex::new(data.clone(), Metric::L2);
        let recall_at = |nprobe: usize| -> f64 {
            let params = SearchParams::new().with_nprobe(nprobe);
            let mut hit = 0usize;
            let mut total = 0usize;
            for qi in (0..1000).step_by(97) {
                let q = data.row(qi);
                let truth: Vec<u64> = flat
                    .search(q, 10, &SearchParams::new())
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let got = ivf.search(q, 10, &params).unwrap();
                hit += got.iter().filter(|n| truth.contains(&n.id)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let r1 = recall_at(1);
        let r20 = recall_at(20);
        assert!(r20 >= r1, "recall must not drop with nprobe ({r1} vs {r20})");
        assert!(r20 > 0.9, "full probe recall too low: {r20}");
    }

    #[test]
    fn build_reuses_the_training_assignment_byte_for_byte() {
        // The reference is the two-sweep build: train, then assign every
        // row again by streaming it in. The serialized shard — the blob an
        // `HPGS` store image holds per cluster — must not differ by a
        // byte.
        let data = clustered_data(700, 8, 6, 61);
        let built = IvfIndex::builder()
            .nlist(24)
            .codec(CodecSpec::Sq8)
            .seed(8)
            .build(&data)
            .unwrap();
        let mut streamed = IvfIndex {
            lists: vec![InvertedList::default(); built.lists.len()],
            len: 0,
            ..built.clone()
        };
        for (id, row) in data.iter_rows().enumerate() {
            streamed.add(id as u64, row).unwrap();
        }
        assert_eq!(built.to_bytes(), streamed.to_bytes());
    }

    #[test]
    fn default_nlist_follows_four_sqrt_n() {
        let data = clustered_data(400, 4, 4, 3);
        let ivf = IvfIndex::builder().build(&data).unwrap();
        assert_eq!(ivf.nlist(), 80); // 4 * sqrt(400)
    }

    #[test]
    fn add_streams_new_vectors() {
        let data = clustered_data(100, 4, 2, 4);
        let mut ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        ivf.add(999, &[100.0, 100.0, 100.0, 100.0]).unwrap();
        assert_eq!(ivf.len(), 101);
        let hits = ivf
            .search(
                &[100.0, 100.0, 100.0, 100.0],
                1,
                &SearchParams::new().with_nprobe(4),
            )
            .unwrap();
        assert_eq!(hits[0].id, 999);
    }

    #[test]
    fn probe_stats_counts_scanned_codes() {
        let data = clustered_data(200, 4, 4, 5);
        let ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        let q = data.row(0);
        let full = ivf.probe_stats(q, 4);
        assert_eq!(full.scanned_codes, 200);
        assert_eq!(full.probed_partitions, 4);
        assert!(ivf.probe_stats(q, 1).scanned_codes < full.scanned_codes);
    }

    #[test]
    fn search_stats_match_probe_estimate() {
        // The work a search reports as it runs equals the pre-search
        // estimate: both see the same probed lists. This is the invariant
        // that let the engine drop the post-search `probe_cost` re-scan.
        let data = clustered_data(500, 8, 5, 9);
        let ivf = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        for nprobe in [1usize, 2, 5, 64] {
            let params = SearchParams::new().with_nprobe(nprobe);
            let q = data.row(3);
            let (_, stats) = ivf.search_with_stats(q, 5, &params).unwrap();
            assert_eq!(stats, ivf.probe_stats(q, nprobe), "nprobe={nprobe}");
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let data = clustered_data(128, 8, 4, 6);
        let ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        let s = ivf.stats();
        assert_eq!(s.nlist, 4);
        assert_eq!(s.len, 128);
        assert_eq!(s.code_size, 8);
        assert!(s.max_list >= s.min_list);
    }

    #[test]
    fn memory_is_dominated_by_codes_for_sq8() {
        let data = clustered_data(512, 32, 4, 7);
        let sq8 = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        let flat = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Flat)
            .build(&data)
            .unwrap();
        assert!(flat.memory_bytes() > sq8.memory_bytes() * 2);
    }

    #[test]
    fn mismatched_ids_rejected() {
        let data = clustered_data(10, 4, 2, 8);
        let err = IvfIndex::builder()
            .build_with_ids(&data, vec![1, 2, 3])
            .unwrap_err();
        assert!(matches!(err, IndexError::InvalidParam(_)));
    }

    #[test]
    fn empty_build_rejected() {
        let err = IvfIndex::builder().build(&Mat::zeros(0, 4)).unwrap_err();
        assert_eq!(err, IndexError::Empty);
    }

    #[test]
    fn persisted_index_searches_identically() {
        let data = clustered_data(400, 8, 5, 21);
        let ivf = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Sq8)
            .metric(Metric::InnerProduct)
            .seed(2)
            .build(&data)
            .unwrap();
        let loaded = IvfIndex::from_bytes(&ivf.to_bytes()).unwrap();
        assert_eq!(loaded.len(), ivf.len());
        assert_eq!(loaded.nlist(), ivf.nlist());
        let params = SearchParams::new().with_nprobe(8);
        for qi in (0..400).step_by(53) {
            let q = data.row(qi);
            assert_eq!(
                loaded.search(q, 5, &params).unwrap(),
                ivf.search(q, 5, &params).unwrap()
            );
        }
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let data = clustered_data(50, 4, 2, 23);
        let ivf = IvfIndex::builder().nlist(2).build(&data).unwrap();
        let buf = ivf.to_bytes();
        assert!(IvfIndex::from_bytes(&buf[..buf.len() / 2]).is_err());
    }

    #[test]
    fn foreign_payload_is_rejected() {
        assert!(IvfIndex::from_bytes(b"definitely not an index").is_err());
    }

    #[test]
    fn residual_storage_tag_is_refused_by_name() {
        let data = clustered_data(50, 4, 2, 25);
        let mut buf = IvfIndex::builder().nlist(2).build(&data).unwrap().to_bytes();
        // After the 9-byte header and the metric tag.
        assert_eq!(buf[10], 0);
        buf[10] = 1;
        match IvfIndex::from_bytes(&buf) {
            Err(hermes_math::wire::WireError::Corrupt(why)) => {
                assert!(why.contains("residual"), "{why}");
            }
            other => panic!("a residual image must be refused, got {other:?}"),
        }
    }

    #[test]
    fn centroids_of_another_width_are_refused() {
        // A checksum-valid shard whose centroid table is wider than its
        // codec: loading it must fail, not the first search.
        let data = clustered_data(50, 4, 2, 26);
        let index = IvfIndex::builder().nlist(2).build(&data).unwrap();
        let wide = IvfIndex {
            coarse: KMeans::from_centroids(Mat::zeros(2, 8), index.coarse.cluster_sizes().to_vec()),
            ..index
        };
        assert!(matches!(
            IvfIndex::from_bytes(&wide.to_bytes()),
            Err(hermes_math::wire::WireError::Corrupt(_))
        ));
    }

    #[test]
    fn loaded_index_accepts_streaming_adds() {
        let data = clustered_data(80, 4, 2, 24);
        let ivf = IvfIndex::builder()
            .nlist(2)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let mut loaded = IvfIndex::from_bytes(&ivf.to_bytes()).unwrap();
        loaded.add(5000, &[42.0, 42.0, 42.0, 42.0]).unwrap();
        let hits = loaded
            .search(&[42.0, 42.0, 42.0, 42.0], 1, &SearchParams::new().with_nprobe(2))
            .unwrap();
        assert_eq!(hits[0].id, 5000);
    }

    #[test]
    fn remove_tombstones_and_compact_is_bit_identical() {
        let data = clustered_data(300, 8, 5, 41);
        let mut ivf = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(7)
            .build(&data)
            .unwrap();
        for id in [3u64, 77, 150, 299] {
            assert!(ivf.remove(id));
        }
        assert!(!ivf.remove(3), "double remove is a no-op");
        assert_eq!(ivf.len(), 296);
        assert_eq!(ivf.tombstones(), 4);
        let params = SearchParams::new().with_nprobe(5);
        let tombstoned: Vec<_> = (0..300)
            .step_by(23)
            .map(|qi| ivf.search(data.row(qi), 10, &params).unwrap())
            .collect();
        for hits in &tombstoned {
            assert!(hits.iter().all(|h| ![3, 77, 150, 299].contains(&h.id)));
        }
        let mem_before = ivf.memory_bytes();
        ivf.compact();
        assert_eq!(ivf.tombstones(), 0);
        assert!(ivf.memory_bytes() < mem_before);
        for (qi, want) in (0..300).step_by(23).zip(&tombstoned) {
            assert_eq!(&ivf.search(data.row(qi), 10, &params).unwrap(), want);
        }
    }

    #[test]
    fn serialization_drops_tombstones_but_answers_identically() {
        let data = clustered_data(200, 8, 4, 42);
        let mut ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(9)
            .build(&data)
            .unwrap();
        for id in [1u64, 50, 199] {
            assert!(ivf.remove(id));
        }
        let loaded = IvfIndex::from_bytes(&ivf.to_bytes()).unwrap();
        assert_eq!(loaded.len(), ivf.len());
        assert_eq!(loaded.tombstones(), 0, "on-disk image is compacted");
        let params = SearchParams::new().with_nprobe(4);
        for qi in (0..200).step_by(31) {
            assert_eq!(
                loaded.search(data.row(qi), 8, &params).unwrap(),
                ivf.search(data.row(qi), 8, &params).unwrap()
            );
        }
    }

    #[test]
    fn reconstruct_round_trips_lossless_codec() {
        let data = clustered_data(100, 4, 2, 43);
        let mut ivf = IvfIndex::builder()
            .nlist(2)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let got = ivf.reconstruct(17).unwrap();
        for (a, b) in got.iter().zip(data.row(17)) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert!(ivf.remove(17));
        assert!(ivf.reconstruct(17).is_none(), "dead rows are not reconstructible");
    }

    #[test]
    fn export_live_covers_exactly_the_survivors() {
        let data = clustered_data(120, 4, 3, 44);
        let mut ivf = IvfIndex::builder()
            .nlist(3)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        assert!(ivf.remove(5));
        assert!(ivf.remove(80));
        let exported = ivf.export_live();
        assert_eq!(exported.len(), 118);
        let ids: std::collections::BTreeSet<u64> = exported.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 118);
        assert!(!ids.contains(&5) && !ids.contains(&80));
    }

    /// The tier-A oracle: the sequential scalar walk the blocked,
    /// filtered scan must reproduce bit for bit — lists in ranked probe
    /// order, one `score` per live code, one `push` per score.
    fn walk_search(
        index: &IvfIndex,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<Neighbor>, ScanStats) {
        let probe = index
            .coarse
            .nearest_centroids(query, nprobe.clamp(1, index.lists.len()));
        let cs = index.codec.code_size();
        let mut top = TopK::new(k.max(1));
        let scorer = index.codec.query_scorer(query, index.metric);
        for &l in &probe {
            let list = &index.lists[l];
            for (pos, &id) in list.ids.iter().enumerate() {
                if !list.dead[pos] {
                    top.push(id, scorer.score(&list.codes[pos * cs..(pos + 1) * cs]));
                }
            }
        }
        let mut hits = top.into_sorted_vec();
        hits.truncate(k);
        let stats = ScanStats {
            scanned_codes: probe.iter().map(|&l| index.lists[l].ids.len()).sum(),
            probed_partitions: probe.len(),
        };
        (hits, stats)
    }

    fn assert_same_scan(got: &ScanResult, want: &(Vec<Neighbor>, ScanStats), ctx: &str) {
        let (hits, stats) = got.as_ref().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(stats, &want.1, "{ctx}: stats");
        assert_eq!(hits.len(), want.0.len(), "{ctx}: hit count");
        for (g, w) in hits.iter().zip(&want.0) {
            assert_eq!(g.id, w.id, "{ctx}: ids");
            assert_eq!(
                g.score.to_bits(),
                w.score.to_bits(),
                "{ctx}: score bits of {}",
                g.id
            );
        }
    }

    /// A shard-like index over `lens.len()` lists whose list `l` holds
    /// exactly `lens[l]` rows: k-means over well-separated blobs at
    /// `(10 l, 0, ..)` recovers the blobs, so list lengths — empty,
    /// 1-code, sub-tile, past a 64-row chunk — are chosen, not hoped for.
    fn index_with_list_lengths(
        lens: &[usize],
        dim: usize,
        codec: CodecSpec,
        metric: Metric,
    ) -> (IvfIndex, Mat) {
        let mut rng = seeded_rng(0x11575);
        let rows: Vec<Vec<f32>> = lens
            .iter()
            .enumerate()
            .flat_map(|(l, &len)| std::iter::repeat_n(l, len))
            .map(|l| {
                let mut row: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 0.5).collect();
                row[0] += 10.0 * l as f32;
                row
            })
            .collect();
        let data = Mat::from_rows(&rows);
        let centers: Vec<Vec<f32>> = (0..lens.len())
            .map(|l| {
                let mut c = vec![0.0; dim];
                c[0] = 10.0 * l as f32;
                c
            })
            .collect();
        let mut index = IvfIndex {
            codec: Codec::train(codec, &data, 5),
            lists: vec![InvertedList::default(); lens.len()],
            coarse: KMeans::from_centroids(Mat::from_rows(&centers), lens.to_vec()),
            metric,
            dim,
            len: 0,
        };
        for (id, row) in data.iter_rows().enumerate() {
            index.add(id as u64, row).unwrap();
        }
        let got: Vec<usize> = index.lists.iter().map(|l| l.ids.len()).collect();
        assert_eq!(got, lens, "blobs must land in their own lists");
        (index, data)
    }

    const CODECS: [CodecSpec; 4] = [
        CodecSpec::Flat,
        CodecSpec::Sq8,
        CodecSpec::Sq4,
        CodecSpec::Pq { m: 4 },
    ];

    #[test]
    fn group_scan_is_bit_identical_to_the_scalar_walk() {
        // 600 rows over 40 lists: ragged 1..~40-code lists like a real
        // shard; tombstones in most of them.
        let data = clustered_data(600, 12, 9, 51);
        for codec in CODECS {
            for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
                let mut index = IvfIndex::builder()
                    .nlist(40)
                    .codec(codec)
                    .metric(metric)
                    .seed(5)
                    .build(&data)
                    .unwrap();
                for id in (0..600u64).step_by(7) {
                    assert!(index.remove(id));
                }
                // Seven queries with a duplicate, mixed nprobe (1 ..
                // beyond nlist) and a wrong-dimension query in the middle.
                let bad = [1.0f32; 5];
                let queries: Vec<(&[f32], usize)> = vec![
                    (data.row(3), 8),
                    (data.row(200), 40),
                    (data.row(3), 3),
                    (&bad, 8),
                    (data.row(411), 1),
                    (data.row(77), 64),
                    (data.row(598), 17),
                ];
                assert_group_matches_walk(&index, &queries, 10, &format!("{codec} {metric}"));
            }
        }
    }

    /// Asserts that `queries` as one group, and each alone, answer
    /// exactly like the scalar walk (a wrong-dimension query with the
    /// dimension error, without disturbing its neighbours), and that the
    /// lists selected from the group's keys, handed to the list scan,
    /// give the same scan.
    fn assert_group_matches_walk(
        index: &IvfIndex,
        queries: &[(&[f32], usize)],
        k: usize,
        ctx: &str,
    ) {
        let group = index.search_group(queries, k);
        assert_eq!(group.results.len(), queries.len());
        let selected = selected(index, queries);
        let lists: Vec<(&[f32], &[u32], f32)> = (selected.iter())
            .map(|(q, l)| (*q, &l[..], f32::NEG_INFINITY))
            .collect();
        assert_eq!(index.search_lists(&lists, k), group, "{ctx}: lists");
        for (qi, &(q, nprobe)) in queries.iter().enumerate() {
            let alone = index.search_with_stats(q, k, &SearchParams::new().with_nprobe(nprobe));
            if q.len() != index.dim {
                let err = IndexError::DimensionMismatch {
                    expected: index.dim,
                    got: q.len(),
                };
                assert_eq!(group.results[qi], Err(err.clone()), "{ctx}");
                assert_eq!(alone, Err(err), "{ctx}");
                continue;
            }
            let want = walk_search(index, q, k, nprobe);
            assert_same_scan(&alone, &want, &format!("{ctx} alone q{qi}"));
            assert_same_scan(&group.results[qi], &want, &format!("{ctx} group q{qi}"));
        }
    }

    #[test]
    fn plans_that_cross_list_boundaries_match_the_scalar_walk() {
        // List lengths 0..=70 in one shard: empty lists, 1-code lists,
        // runs of short lists that fill a tile or a 64-row chunk
        // together, and lists longer than a chunk.
        let lens = [
            5usize, 0, 1, 1, 7, 8, 9, 0, 0, 19, 3, 64, 1, 70, 2, 65, 0, 13, 1, 33, 6, 63, 4, 1,
        ];
        let total: usize = lens.iter().sum();
        for codec in CODECS {
            for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
                let (mut index, data) = index_with_list_lengths(&lens, 12, codec, metric);
                // Tombstones straddling tile and list boundaries: the
                // last row of one list and the first rows of the next, a
                // whole 1-code list, every 5th row.
                let dead: Vec<u64> = [4u64, 5, 6, 12, 13, 20]
                    .into_iter()
                    .chain((30..total as u64).step_by(5))
                    .collect();
                for &id in &dead {
                    assert!(index.remove(id));
                }
                let bad = [0.5f32; 3];
                let row = |i: usize| data.row(i % total);
                for group_size in 1..=9usize {
                    let mut queries: Vec<(&[f32], usize)> = (0..group_size)
                        .map(|g| {
                            (
                                row(g * 37 + group_size),
                                [24, 3, 1, 9, 100, 5, 24, 2, 13][g],
                            )
                        })
                        .collect();
                    if group_size % 4 == 0 {
                        queries[group_size / 2] = (&bad, 8);
                    }
                    for k in [1usize, 10, 20] {
                        let ctx = format!("{codec} {metric} group of {group_size} k={k}");
                        assert_group_matches_walk(&index, &queries, k, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn filtered_scans_match_the_scalar_walk() {
        // SQ8 under inner product and cosine, where tiles filter: lists
        // that outlast the warm-up and fill whole chunks, 40-byte codes
        // (one 32-byte step and an overlapping tail in the AVX2 integer
        // kernel; the other suites' 8- and 12-byte codes take the scalar
        // one).
        let lens = [300usize, 5, 40, 0, 70, 1, 33, 260];
        let (dim, total) = (40, lens.iter().sum::<usize>());
        // List `l` sits at `10 l` on the first axis, so along it every
        // list outscores the one before: visited in list order, every
        // row of every list reaches the threshold (`up`), or after the
        // first list none does (`down`).
        let axis = |x: f32| {
            let mut q = vec![0.0f32; dim];
            q[0] = x;
            q
        };
        let (up, down) = (axis(2.0), axis(-1.0));
        for metric in [Metric::InnerProduct, Metric::Cosine] {
            let (mut index, data) = index_with_list_lengths(&lens, dim, CodecSpec::Sq8, metric);
            // Dead rows where `up`'s survivors are: a third of the best
            // lists, and the 1-row list whole.
            let dead = (total - 290..total).step_by(3).chain([415, 416, 420]);
            for id in dead {
                assert!(index.remove(id as u64));
            }
            for group_size in [1usize, 3, 4, 5] {
                let queries: Vec<(&[f32], usize)> = (0..group_size)
                    .map(|g| match g {
                        0 => (&up[..], 8),
                        1 => (data.row(7), 3),
                        2 => (&down[..], 8),
                        _ => (data.row(g * 211 % total), [8, 5][g % 2]),
                    })
                    .collect();
                for k in [1usize, 10] {
                    let ctx = format!("{metric} group of {group_size} k={k}");
                    assert_group_matches_walk(&index, &queries, k, &ctx);
                }
            }
            // What the filter kept, lists in list order (a group of two
            // equal queries): everything but the first list going up,
            // nothing but it going down.
            let live = index.len;
            let first = index.lists[0].live();
            for (q, kept) in [(&up, live - first..=2 * live), (&down, 0..=2 * first)] {
                let scan = index.search_group(&[(q, 8), (q, 8)], 1);
                assert!(
                    kept.contains(&scan.rescored_codes),
                    "{metric}: rescored {} of {live} live rows, {first} in the first list",
                    scan.rescored_codes
                );
            }
        }
    }

    #[test]
    fn a_scan_without_the_thread_scratch_returns_the_same_bits() {
        // What a scan re-entered on a thread that is already scanning
        // would see: the scratch slot empty. It must allocate, not fail,
        // and answer identically; so must the next scan, whichever
        // scratch was put back last.
        let data = clustered_data(500, 8, 6, 53);
        let index = IvfIndex::builder().nlist(30).seed(2).build(&data).unwrap();
        let queries: Vec<(&[f32], usize)> = (0..5).map(|i| (data.row(i * 90), 4 + i)).collect();
        let warm = index.search_group(&queries, 10);
        let held = SCRATCH.take();
        assert!(held.is_some(), "a finished scan parks its scratch");
        let reentered = index.search_group(&queries, 10);
        SCRATCH.set(held);
        assert_eq!(reentered, warm);
        assert_eq!(index.search_group(&queries, 10), warm);
        // A smaller, different scan over the dirty scratch.
        let one = index.search_group(&queries[3..4], 3);
        assert_eq!(
            one.results[0].as_ref().unwrap().0,
            warm.results[3].as_ref().unwrap().0[..3]
        );
    }

    #[test]
    fn recycled_scorer_buffers_keep_their_allocation() {
        let data = clustered_data(20, 4, 2, 54);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        let mut scorers: Vec<QueryScorer<'_>> = Vec::with_capacity(8);
        scorers.push(codec.query_scorer(data.row(0), Metric::L2));
        let (ptr, cap) = (scorers.as_ptr() as usize, scorers.capacity());
        let recycled: Vec<QueryScorer<'static>> = recycle(scorers);
        assert!(recycled.is_empty());
        assert_eq!(
            (recycled.as_ptr() as usize, recycled.capacity()),
            (ptr, cap)
        );
    }

    #[test]
    fn a_group_plan_is_one_run_per_query() {
        let empty = |l: u32| l == 2;
        let mut plan = Plan::default();
        // Slot 0 selects lists 5, 2, 1, 3 (list 2 is empty); slot 1 the
        // same lists in another order; slot 2 only the empty one; slot 3
        // a list of its own.
        plan.push([5, 2, 1, 3].into_iter(), empty);
        plan.push([3, 1, 2, 5].into_iter(), empty);
        plan.push([2].into_iter(), empty);
        plan.push([7].into_iter(), empty);
        // Runs in input order, lists in selection order, empty lists
        // dropped (slot 2's run is empty), and two queries probing the
        // same lists kept apart.
        assert_eq!(plan.lists, [5, 1, 3, 3, 1, 5, 7]);
        assert_eq!(plan.ends, [3, 6, 6, 7]);
        plan.clear();
        plan.push([1, 4].into_iter(), empty);
        assert_eq!((&plan.lists[..], &plan.ends[..]), (&[1, 4][..], &[2][..]));
    }

    /// Each query paired with the lists a search at its `nprobe` selects,
    /// in selection order, from keys the caller holds (none for a query
    /// the index refuses).
    fn selected<'q>(index: &IvfIndex, queries: &[(&'q [f32], usize)]) -> Vec<(&'q [f32], Vec<u32>)> {
        let keys = index.coarse_keys(queries.iter().map(|q| q.0));
        (queries.iter().enumerate())
            .map(|(qi, &(q, nprobe))| {
                let lists = keys.query(qi).map_or_else(
                    |_| Vec::new(),
                    |keys| {
                        let mut keys = keys.to_vec();
                        let chosen = select_nearest(&mut keys, nprobe);
                        chosen.iter().map(|&key| probe_key_centroid(key) as u32).collect()
                    },
                );
                (q, lists)
            })
            .collect()
    }

    #[test]
    fn list_scan_takes_list_sets_as_given() {
        let data = clustered_data(600, 12, 9, 55);
        let mut index = IvfIndex::builder().nlist(40).seed(6).build(&data).unwrap();
        for id in (0..600u64).step_by(9) {
            assert!(index.remove(id));
        }
        let bad = [1.0f32; 5];
        let keys = index.coarse_keys([data.row(3), &bad[..]].into_iter());
        // A query's keys are the index's probe ranking of it.
        let mut ranked = keys.query(0).unwrap().to_vec();
        assert_eq!(ranked.len(), 40);
        ranked.sort_unstable();
        let nearest: Vec<u32> = ranked.iter().map(|&key| probe_key_centroid(key) as u32).collect();
        assert_eq!(
            nearest[..8].iter().map(|&l| l as usize).collect::<Vec<_>>(),
            index.coarse.nearest_centroids(data.row(3), 8)
        );
        assert!(matches!(
            keys.query(1),
            Err(IndexError::DimensionMismatch { .. })
        ));

        // Any set, in any order: the nearest 8 reversed, 8 far ones, none,
        // every list, a single one, and one the index does not have.
        let far: Vec<u32> = nearest[32..].to_vec();
        let reversed: Vec<u32> = nearest[..8].iter().rev().copied().collect();
        let all: Vec<u32> = (0..40).collect();
        let none = f32::NEG_INFINITY;
        let queries: Vec<(&[f32], &[u32], f32)> = vec![
            (data.row(3), &reversed, none),
            (data.row(3), &far, none),
            (data.row(200), &[], none),
            (&bad, &[], none),
            (data.row(411), &all, none),
            (data.row(77), &[5], none),
            (data.row(3), &[40], none),
        ];
        let scan = index.search_lists(&queries, 10);
        let nothing = Ok((Vec::new(), ScanStats::default()));
        assert_eq!(scan.results[2], nothing, "an empty set probes nothing");
        assert!(matches!(
            scan.results[3],
            Err(IndexError::DimensionMismatch { .. })
        ));
        assert!(matches!(scan.results[6], Err(IndexError::InvalidParam(_))));
        // The walk over the same lists: the nearest 8 and all 40 are what
        // a search at `nprobe` 8 / 40 scans.
        for (qi, nprobe) in [(0, 8), (4, 40)] {
            let want = walk_search(&index, queries[qi].0, 10, nprobe);
            assert_same_scan(&scan.results[qi], &want, &format!("q{qi}"));
        }
        let (far_hits, far_stats) = scan.results[1].as_ref().unwrap();
        assert_eq!(far_stats.probed_partitions, 8);
        let far_codes: usize = far.iter().map(|&l| index.lists[l as usize].ids.len()).sum();
        assert_eq!(far_stats.scanned_codes, far_codes);
        assert!(far_hits.iter().all(|h| far.iter().any(|&l| {
            let list = &index.lists[l as usize];
            list.ids.iter().zip(&list.dead).any(|(&id, &dead)| id == h.id && !dead)
        })));
        let (one_hits, one_stats) = scan.results[5].as_ref().unwrap();
        assert_eq!(one_stats.probed_partitions, 1);
        assert_eq!(one_hits.len(), index.lists[5].live().min(10));

        // All empty: nothing is scanned at all.
        let idle: Vec<(&[f32], &[u32], f32)> = (queries.iter())
            .map(|&(q, _, floor)| (q, &[][..], floor))
            .collect();
        let idle = index.search_lists(&idle, 10);
        assert_eq!(idle.rescored_codes, 0);
        assert!(idle.results.iter().all(|r| r.is_err() || *r == nothing));
    }

    #[test]
    fn group_scan_of_an_empty_index_or_group() {
        let data = clustered_data(20, 4, 2, 52);
        let mut index = IvfIndex::builder().nlist(2).build(&data).unwrap();
        let none = index.search_group(&[], 3);
        assert!(none.results.is_empty());
        assert_eq!(none.rescored_codes, 0);
        for id in 0..20 {
            assert!(index.remove(id));
        }
        let scan = index.search_group(&[(data.row(0), 2), (data.row(1), 2)], 3);
        assert_eq!(
            scan.results,
            vec![Err(IndexError::Empty), Err(IndexError::Empty)]
        );
        assert_eq!(scan.rescored_codes, 0);
    }

    #[test]
    fn inner_product_metric_ranks_by_dot() {
        let data = Mat::from_rows(&[vec![1.0, 0.0], vec![10.0, 0.0], vec![0.0, 1.0]]);
        let ivf = IvfIndex::builder()
            .nlist(1)
            .codec(CodecSpec::Flat)
            .metric(Metric::InnerProduct)
            .build(&data)
            .unwrap();
        let hits = ivf.search(&[1.0, 0.0], 1, &SearchParams::new()).unwrap();
        assert_eq!(hits[0].id, 1);
    }
}
