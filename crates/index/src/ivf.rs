//! Inverted-file (IVF) index with quantized storage.
//!
//! The index Hermes deploys (paper Section 2.1): a K-means coarse
//! quantizer splits the datastore into `nlist` inverted lists; at query
//! time only the `nProbe` lists whose centroids are nearest the query are
//! scanned, trading accuracy for latency. Vectors inside lists are stored
//! through a [`Codec`] (the paper uses SQ8).
//!
//! A scan answers one query. [`VectorIndex::search_with_stats`] selects
//! the query's lists itself; a caller that chooses them — the engine,
//! across the shards of one embedding space — takes the keys from
//! [`IvfIndex::coarse_keys`] and scans with [`IvfIndex::search_lists`].
//! Both run the same body over the thread's scan scratch.

use std::cell::Cell;

use hermes_kmeans::{probe_key_centroid, select_nearest, KMeans, KMeansConfig};
use hermes_math::{Mat, Metric, Neighbor, TopK};
use hermes_quant::{Codec, CodecSpec, QueryScorer};

use crate::{IndexError, ScanResult, ScanStats, SearchParams, VectorIndex};

/// One inverted list: its rows' ids and codes, in insertion order. A
/// removal deletes its row, so every stored row is live.
#[derive(Debug, Clone, Default)]
pub struct InvertedList {
    /// One id per row.
    pub ids: Vec<u64>,
    /// The rows' codes, [`Codec::code_size`] bytes a row, in `ids` order.
    pub codes: Vec<u8>,
}

/// An [`IvfIndex`] taken apart by value ([`IvfIndex::into_parts`]) or
/// handed to [`IvfIndex::from_parts`]: nothing is trained, decoded or
/// encoded either way, so lists move between indices that share a codec
/// byte for byte.
#[derive(Debug, Clone)]
pub struct IvfParts {
    /// The coarse quantizer: one centroid per list.
    pub coarse: KMeans,
    /// The codec every list's codes were written by.
    pub codec: Codec,
    /// Ranking metric.
    pub metric: Metric,
    /// The inverted lists, in list order.
    pub lists: Vec<InvertedList>,
}

/// An inverted list's id filter: a one-hash Bloom filter of 256 bits,
/// kept exact for the list's current rows — bit [`filter_bit`]`(id)` is
/// set if and only if some row of the list carries an id with that bit.
/// A removal walks only the lists whose filter has its id's bit.
type IdFilter = [u64; 4];

/// The filter bit of `id`: the top 8 bits of its Fibonacci hash, so
/// sequential ids spread over the whole filter.
fn filter_bit(id: u64) -> usize {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// Whether `filter` has `id`'s bit: `false` means no row of its list
/// carries `id`.
fn may_hold(filter: &IdFilter, id: u64) -> bool {
    let bit = filter_bit(id);
    filter[bit / 64] & (1 << (bit % 64)) != 0
}

/// Sets `id`'s bit in `filter`.
fn insert_bit(filter: &mut IdFilter, id: u64) {
    let bit = filter_bit(id);
    filter[bit / 64] |= 1 << (bit % 64);
}

/// The exact filter of a list holding `ids`.
fn id_filter(ids: &[u64]) -> IdFilter {
    let mut filter = IdFilter::default();
    for &id in ids {
        insert_bit(&mut filter, id);
    }
    filter
}

/// One exact filter per list, in list order.
fn id_filters(lists: &[InvertedList]) -> Vec<IdFilter> {
    lists.iter().map(|l| id_filter(&l.ids)).collect()
}

/// Ids a removal compares at once, without a branch per id.
const ID_BLOCK: usize = 16;

/// Position of the first `id` in `ids`. Each block of [`ID_BLOCK`] ids is
/// compared as a whole, and only the block that holds a match (or the
/// short tail) is walked id by id.
fn position_of(ids: &[u64], id: u64) -> Option<usize> {
    let mut base = 0;
    for block in ids.chunks_exact(ID_BLOCK) {
        if block
            .iter()
            .fold(false, |hit, &stored| hit | (stored == id))
        {
            break;
        }
        base += ID_BLOCK;
    }
    let pos = ids[base..].iter().position(|&stored| stored == id)?;
    Some(base + pos)
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

    /// The heap bytes its buffers hold, spare capacity included: what a
    /// caller that keeps it to refill holds between groups.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.rows.capacity() * std::mem::size_of::<Result<usize, IndexError>>()
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
        }
        for ((row, &id), &list) in data.iter_rows().zip(&ids).zip(coarse.assignments()) {
            let list = &mut lists[list as usize];
            list.ids.push(id);
            codec.encode_into(row, &mut list.codes);
        }

        Ok(IvfIndex {
            coarse,
            codec,
            filters: id_filters(&lists),
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
    /// One [`IdFilter`] per list, in list order: rebuilt by every
    /// constructor, never serialized, and never read by a scan.
    filters: Vec<IdFilter>,
    metric: Metric,
    dim: usize,
    len: usize,
}

impl IvfIndex {
    /// Starts configuring a new index.
    pub fn builder() -> IvfBuilder {
        IvfBuilder::new()
    }

    /// Build-time and occupancy statistics.
    pub fn stats(&self) -> IvfStats {
        let (mut max_list, mut min_list) = (0usize, usize::MAX);
        for l in &self.lists {
            max_list = max_list.max(l.ids.len());
            min_list = min_list.min(l.ids.len());
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
        let l = self.coarse.assign(v).0;
        let list = &mut self.lists[l];
        list.ids.push(id);
        self.codec.encode_into(v, &mut list.codes);
        insert_bit(&mut self.filters[l], id);
        self.len += 1;
        Ok(())
    }

    /// Deletes the first row carrying `id` from its list, keeping the
    /// order of the rows after it, and returns the row decoded — `None`
    /// if no row carries `id`. Lossy codecs return the quantized
    /// reconstruction: deterministic, and exactly what a migration
    /// re-encodes, so decode → re-add round-trips stably.
    ///
    /// Only the lists whose id filter has `id`'s bit are walked; the
    /// others hold no such row, so the row found is the first in list
    /// order all the same.
    pub fn take(&mut self, id: u64) -> Option<Vec<f32>> {
        let cs = self.codec.code_size();
        for (list, filter) in self.lists.iter_mut().zip(&mut self.filters) {
            if !may_hold(filter, id) {
                continue;
            }
            if let Some(pos) = position_of(&list.ids, id) {
                let code = pos * cs..(pos + 1) * cs;
                let row = self.codec.decode(&list.codes[code.clone()]);
                list.ids.remove(pos);
                list.codes.drain(code);
                *filter = id_filter(&list.ids);
                self.len -= 1;
                return Some(row);
            }
        }
        None
    }

    /// Decodes every row in list-then-position order — the deterministic
    /// export the cluster rebalancer migrates. Returns `(id, vector)`
    /// pairs.
    pub fn export_live(&self) -> Vec<(u64, Vec<f32>)> {
        let cs = self.codec.code_size();
        let mut out = Vec::with_capacity(self.len);
        for list in &self.lists {
            for (pos, &id) in list.ids.iter().enumerate() {
                out.push((id, self.codec.decode(&list.codes[pos * cs..(pos + 1) * cs])));
            }
        }
        out
    }

    /// Takes the index apart, handing its lists over without a copy.
    pub fn into_parts(self) -> IvfParts {
        IvfParts {
            coarse: self.coarse,
            codec: self.codec,
            metric: self.metric,
            lists: self.lists,
        }
    }

    /// Builds an index over given lists: list `l` is the inverted list of
    /// `parts.coarse`'s centroid `l`, and its codes were written by
    /// `parts.codec`. Nothing is trained or re-encoded, and the lists'
    /// rows keep their order.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::InvalidParam`] if the list count differs
    /// from the centroid count, the centroids' width from the codec's,
    /// or a list's code bytes from its id count times the code size.
    pub fn from_parts(parts: IvfParts) -> Result<Self, IndexError> {
        let IvfParts {
            coarse,
            codec,
            metric,
            lists,
        } = parts;
        let (dim, cs) = (codec.dim(), codec.code_size());
        if lists.len() != coarse.num_clusters()
            || coarse.centroids().cols() != dim
            || lists.iter().any(|l| l.codes.len() != l.ids.len() * cs)
        {
            return Err(IndexError::InvalidParam(
                "lists, centroids and codec do not fit together".into(),
            ));
        }
        let len = lists.iter().map(|l| l.ids.len()).sum();
        Ok(IvfIndex {
            coarse,
            codec,
            filters: id_filters(&lists),
            lists,
            metric,
            dim,
            len,
        })
    }

    /// Serializes the index (coarse centroids, codec, inverted lists) to
    /// the workspace wire format: one shard section of the clustered
    /// store's paged image, the offline-build → online-serving handoff of
    /// the paper's Appendix A.5.
    pub fn to_bytes(&self) -> Vec<u8> {
        use hermes_math::wire::{WireEncode, Writer};
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
        for list in &self.lists {
            w.u64s(&list.ids);
            w.bytes(&list.codes);
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
            1 => {
                return Err(WireError::Corrupt(
                    "residual list storage is not supported".into(),
                ))
            }
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
            lists.push(InvertedList { ids, codes });
        }
        if total != len {
            return Err(WireError::Corrupt(format!(
                "stored length {len} but lists hold {total}"
            )));
        }
        Ok(IvfIndex {
            coarse,
            codec,
            filters: id_filters(&lists),
            lists,
            metric,
            dim,
            len,
        })
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
        let codes: usize = self.lists.iter().map(|l| l.codes.len()).sum();
        let ids: usize = self.lists.iter().map(|l| l.ids.len() * 8).sum();
        let centroids = self.coarse.num_clusters() * self.dim * 4;
        let filters = std::mem::size_of_val(&self.filters[..]);
        codes + ids + centroids + filters
    }

    /// The query's `max(nprobe, 1)` nearest lists ([`select_nearest`]
    /// on its coarse keys, in the thread's scratch), then the scan body
    /// of [`IvfIndex::search_lists`].
    fn search_with_stats(&self, query: &[f32], k: usize, params: &SearchParams) -> ScanResult {
        self.check_query(query)?;
        with_scratch(|ScanScratch { keys, plan, chunk }| {
            self.coarse.probe_keys([query].into_iter(), keys);
            let chosen = select_nearest(keys, params.nprobe);
            let lists = chosen.iter().map(|&key| probe_key_centroid(key) as u32);
            let (answer, _) = self.scan_query(query, lists, f32::NEG_INFINITY, k, plan, chunk);
            Ok(answer)
        })
    }
}

impl IvfIndex {
    /// One pass over the centroid table scores every list against every
    /// query of the group and checks each query as a search would, into
    /// `out`: a caller that chooses the lists itself — across several
    /// indices over one embedding space, say — chooses from these keys
    /// and hands the lists to [`Self::search_lists`]. `out`'s previous
    /// contents are replaced and its buffers reused, so a caller that
    /// keeps one per index allocates nothing once they are large enough.
    pub fn coarse_keys<'q>(
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

    /// Scans exactly the inverted lists `lists` names for `query` (each
    /// at most once), in the order given — the scan
    /// [`VectorIndex::search_with_stats`] runs once it has selected the
    /// query's lists, so the lists its `nprobe` selects, at floor −∞,
    /// get that search's answer to the bit. An empty set probes nothing
    /// and answers no hits with zero [`ScanStats`]; a query that fails
    /// the index's checks, or a list the index does not have, is
    /// answered with the error.
    ///
    /// `floor` is a score the caller already holds `k` hits at or above
    /// (another shard's k-th best, say): the scan answers with the hits
    /// of the unfloored scan that score at least `floor`, and the same
    /// [`ScanStats`]. A floor of −∞ or NaN is no floor. With one, the
    /// scan's bound filter starts at `floor` instead of warming up, and
    /// never filters below it; only the rescored count can tell.
    ///
    /// Returns the answer and the rescored count: of the scanned rows,
    /// those an integer upper bound was evaluated on first and could not
    /// rule out, so that the exact kernel scored them after all. Rows
    /// scanned straight through the exact kernel — every row of a codec
    /// or metric without a bound, and the first rows of a scan without a
    /// floor, until its selector is full — are not counted; nothing in
    /// the answer depends on it.
    pub fn search_lists(
        &self,
        query: &[f32],
        lists: &[u32],
        floor: f32,
        k: usize,
    ) -> (ScanResult, usize) {
        if let Err(e) = self.check_query(query) {
            return (Err(e), 0);
        }
        if let Some(&list) = lists.iter().find(|&&l| l as usize >= self.lists.len()) {
            let why = format!("list {list} of an index with {} lists", self.lists.len());
            return (Err(IndexError::InvalidParam(why)), 0);
        }
        with_scratch(|ScanScratch { plan, chunk, .. }| {
            let (answer, rescored) =
                self.scan_query(query, lists.iter().copied(), floor, k, plan, chunk);
            (Ok(answer), rescored)
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

    /// The one scan body: `query`'s `lists`, the empty ones dropped,
    /// become the row `plan` that [`Self::scan`] scores with the query's
    /// one scorer, and its hits at or above `floor` (see
    /// [`Self::search_lists`]) are the answer. Returns the answer and the
    /// rescored count.
    ///
    /// The lists arrive *selected*, not sorted — [`TopK`] is a total
    /// order on `(score, id)` and [`ScanStats`] are sums, so the visiting
    /// order never shows. Everything between the input and the hit list
    /// lives in the per-thread [`ScanScratch`]: in steady state a scan
    /// allocates only what it returns.
    fn scan_query(
        &self,
        query: &[f32],
        lists: impl Iterator<Item = u32> + Clone,
        floor: f32,
        k: usize,
        plan: &mut Vec<u32>,
        chunk: &mut Chunk,
    ) -> ((Vec<Neighbor>, ScanStats), usize) {
        let stats = self.list_cost(lists.clone());
        plan.clear();
        plan.extend(lists.filter(|&l| !self.lists[l as usize].ids.is_empty()));
        if plan.is_empty() {
            return ((Vec::new(), stats), 0);
        }
        // −∞ for no floor; `max` turns a NaN floor into none as well.
        let floor = floor.max(f32::NEG_INFINITY);
        let scorer = self.codec.query_scorer(query, self.metric);
        let mut top = TopK::new(k.max(1));
        let rescored = self.scan(plan, &scorer, floor, &mut top, chunk);
        let mut hits = top.into_sorted_vec();
        hits.truncate(k);
        // Best first, NaN scores last: those at or above a floor are a
        // prefix.
        if floor > f32::NEG_INFINITY {
            hits.truncate(hits.partition_point(|hit| hit.score >= floor));
        }
        ((hits, stats), rescored)
    }

    /// Scores the rows of `lists` into `top`: they are cut into chunks of
    /// up to [`CHUNK_ROWS`] rows **across list boundaries**, and the scan
    /// takes its pass over a chunk's code segments one of two ways,
    /// decided from the scorer, the floor (−∞ for none) and the selector
    /// alone:
    ///
    /// * **filter → compact → rescore**, if the scorer has a
    ///   [`Sq8Bound`](hermes_quant::Sq8Bound) and there is a floor or a
    ///   full selector: the bound's kernel compares every row's integer
    ///   sum with the [`floor`](hermes_quant::Sq8Bound::floor) of the
    ///   higher of the floor and the selector's threshold and writes a
    ///   survivor bit a row
    ///   ([`survivors`](hermes_quant::Sq8Bound::survivors)); the rows it
    ///   keeps — all that could still be admitted, a few in a hundred —
    ///   are compacted off the mask bits into one-row segments, and the
    ///   exact kernel scores just those, in row order, for one
    ///   [`TopK::push_block`];
    /// * **exact** otherwise: the kernel scores every row, and the score
    ///   row feeds the selector's `push_block`, list by list.
    ///
    /// A row the filter drops scores strictly below a threshold that only
    /// rises, so `push_block` would have dropped it too, or below the
    /// floor, so the answer drops it anyway; a row it keeps gets the bits
    /// the exact way gives it, because tier-A scores do not depend on a
    /// code's position or on which codes share a chunk or a kernel call.
    /// Only exact scores ever reach the selector: results cannot tell the
    /// two ways apart. While a selector that will filter is still filling
    /// and there is no floor, chunks are cut at [`WARMUP_ROWS`] so that
    /// it fills, exactly, on few rows. Returns the rescored count (see
    /// [`Self::search_lists`]).
    fn scan(
        &self,
        lists: &[u32],
        scorer: &QueryScorer<'_>,
        floor: f32,
        top: &mut TopK,
        chunk: &mut Chunk,
    ) -> usize {
        let cs = self.codec.code_size();
        let mut segments: Vec<&[u8]> = recycle(std::mem::take(&mut chunk.segments));
        let mut kept: Vec<&[u8]> = recycle(std::mem::take(&mut chunk.kept));
        let mut rescored = 0;
        let (mut at_list, mut at_row) = (0, 0);
        while at_list < lists.len() {
            let warming =
                floor == f32::NEG_INFINITY && top.len() < top.k() && scorer.bound().is_some();
            let limit = if warming { WARMUP_ROWS } else { CHUNK_ROWS };
            // The next chunk: up to `limit` rows of consecutive lists.
            let mut rows = 0;
            segments.clear();
            while rows < limit && at_list < lists.len() {
                let list = &self.lists[lists[at_list] as usize];
                let take = (list.ids.len() - at_row).min(limit - rows);
                chunk.parts[segments.len()] = Part {
                    list: lists[at_list],
                    start: at_row as u32,
                    len: take as u32,
                };
                segments.push(&list.codes[at_row * cs..(at_row + take) * cs]);
                rows += take;
                at_row += take;
                if at_row == list.ids.len() {
                    (at_list, at_row) = (at_list + 1, 0);
                }
            }
            let parts = &chunk.parts[..segments.len()];
            let gate = scorer
                .bound()
                .and_then(|bound| Some((bound, bound.floor(top.threshold().max(floor))?)));
            if let Some((bound, least)) = gate {
                let used = rows.div_ceil(8);
                bound.survivors(&segments, rows, least, &mut chunk.masks[..used]);
                // Survivors in row order, straight off the kernel's mask
                // bits, 64 rows a word (the word's bytes past the chunk
                // cleared); `part` follows them.
                let bytes = used.next_multiple_of(8);
                chunk.masks[used..bytes].fill(0);
                let (words, _) = chunk.masks[..bytes].as_chunks::<8>();
                let (mut part, mut part_from) = (0, 0);
                kept.clear();
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
                        chunk.kept_ids[kept.len()] = list.ids[at];
                        kept.push(&list.codes[at * cs..(at + 1) * cs]);
                    }
                }
                let n = kept.len();
                let out = &mut chunk.scores[..n];
                scorer.score_segments(&kept, out);
                top.push_block(&chunk.kept_ids[..n], out);
                rescored += n;
                continue;
            }

            let out = &mut chunk.scores[..rows];
            scorer.score_segments(&segments, out);
            let mut at = 0;
            for p in parts {
                let list = &self.lists[p.list as usize];
                let (start, len) = (p.start as usize, p.len as usize);
                top.push_block(&list.ids[start..start + len], &out[at..at + len]);
                at += len;
            }
        }
        chunk.segments = recycle(segments);
        chunk.kept = recycle(kept);
        rescored
    }
}

/// Rows scored per kernel call. A chunk's codes (16 KB at 64 bytes a
/// code) fit in L1, and its per-call costs are spread over four times
/// the rows of a [`BLOCK`](hermes_math::block::BLOCK).
const CHUNK_ROWS: usize = 256;

/// Rows per chunk while a selector that will filter is still filling and
/// the scan has no floor. The filter reads a selector's threshold once
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

/// Every buffer a scan needs between its input and its output, kept per
/// thread and reused from scan to scan: all of them are cleared or
/// overwritten before they are read, so only their capacity carries over.
#[derive(Default)]
struct ScanScratch {
    /// [`VectorIndex::search_with_stats`]'s coarse keys; selection
    /// reorders them in place.
    keys: Vec<u64>,
    /// The probed non-empty lists, in the order their rows are scored.
    plan: Vec<u32>,
    chunk: Chunk,
}

/// An emptied `Vec` re-typed to another borrow lifetime, so that one
/// allocation serves scan after scan although each scan's segments
/// borrow that scan's index. Mapping an empty `vec::IntoIter` collects in
/// place — the buffer is handed over, not reallocated; were that ever to
/// stop holding, the only loss would be an allocation per scan (which
/// `tests/alloc_budget.rs` would report).
fn recycle<'b>(mut buffer: Vec<&[u8]>) -> Vec<&'b [u8]> {
    buffer.clear();
    buffer.into_iter().map(|_| unreachable!()).collect()
}

/// The per-chunk buffers of [`IvfIndex::scan`].
struct Chunk {
    /// The lists (or pieces of lists) the chunk's rows come from.
    parts: [Part; CHUNK_ROWS],
    /// The kernel's scores of the chunk's rows, or of its survivors.
    scores: [f32; CHUNK_ROWS],
    /// The bound's survivor mask over the chunk, a bit a row, and the ids
    /// of the rows it keeps.
    masks: [u8; CHUNK_ROWS / 8],
    kept_ids: [u64; CHUNK_ROWS],
    /// The chunk's code segments, and the rows the bound keeps; held
    /// empty between scans (see [`recycle`]).
    segments: Vec<&'static [u8]>,
    kept: Vec<&'static [u8]>,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            parts: std::array::from_fn(|_| Part::default()),
            scores: [0.0; CHUNK_ROWS],
            masks: [0; CHUNK_ROWS / 8],
            kept_ids: [0; CHUNK_ROWS],
            segments: Vec::with_capacity(CHUNK_ROWS),
            kept: Vec::with_capacity(CHUNK_ROWS),
        }
    }
}

/// Rows `start..start + len` of inverted list `list`.
#[derive(Clone, Default)]
struct Part {
    list: u32,
    start: u32,
    len: u32,
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
        assert!(
            r20 >= r1,
            "recall must not drop with nprobe ({r1} vs {r20})"
        );
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
            filters: vec![IdFilter::default(); built.lists.len()],
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
        // A full probe scans every code of every list; a narrower one
        // scans fewer.
        let data = clustered_data(200, 4, 4, 5);
        let ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        for qi in [0, 3] {
            let q = data.row(qi);
            for nprobe in [1usize, 2, ivf.nlist(), 64] {
                let params = SearchParams::new().with_nprobe(nprobe);
                let (_, stats) = ivf.search_with_stats(q, 5, &params).unwrap();
                if nprobe >= ivf.nlist() {
                    assert_eq!((stats.scanned_codes, stats.probed_partitions), (200, 4));
                } else {
                    assert!(stats.scanned_codes < 200, "q{qi} nprobe={nprobe}");
                }
            }
        }
    }

    #[test]
    fn search_stats_match_probe_estimate() {
        // The work a search reports is the lengths of the lists its
        // coarse keys select: the count a caller that picks lists itself
        // (`coarse_keys` + `select_nearest`) can take before scanning.
        let data = clustered_data(200, 4, 4, 5);
        let ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .build(&data)
            .unwrap();
        for qi in [0, 3] {
            let q = data.row(qi);
            let mut keys = CoarseKeys::default();
            ivf.coarse_keys([q].into_iter(), &mut keys);
            for nprobe in [1usize, 2, ivf.nlist(), 64] {
                let mut keys = keys.query(0).unwrap().to_vec();
                let chosen = select_nearest(&mut keys, nprobe);
                let lists = chosen.iter().map(|&key| probe_key_centroid(key));
                let want = ScanStats {
                    scanned_codes: lists.map(|l| ivf.lists[l].ids.len()).sum(),
                    probed_partitions: chosen.len(),
                };
                let params = SearchParams::new().with_nprobe(nprobe);
                let (_, stats) = ivf.search_with_stats(q, 5, &params).unwrap();
                assert_eq!(stats, want, "q{qi} nprobe={nprobe}");
            }
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
        let mut buf = IvfIndex::builder()
            .nlist(2)
            .build(&data)
            .unwrap()
            .to_bytes();
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
            .search(
                &[42.0, 42.0, 42.0, 42.0],
                1,
                &SearchParams::new().with_nprobe(2),
            )
            .unwrap();
        assert_eq!(hits[0].id, 5000);
    }

    #[test]
    fn removed_rows_never_surface_and_are_never_scanned() {
        let data = clustered_data(300, 8, 5, 41);
        let mut ivf = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(7)
            .build(&data)
            .unwrap();
        for id in [3u64, 77, 150, 299] {
            assert!(ivf.take(id).is_some());
        }
        assert!(ivf.take(3).is_none(), "a taken row is gone");
        assert_eq!(ivf.len(), 296);
        // A full probe scans every stored row, and only live rows are
        // stored.
        let params = SearchParams::new().with_nprobe(5);
        for qi in (0..300).step_by(23) {
            let (hits, stats) = ivf.search_with_stats(data.row(qi), 10, &params).unwrap();
            assert!(hits.iter().all(|h| ![3, 77, 150, 299].contains(&h.id)));
            assert_eq!(stats.scanned_codes, ivf.len());
        }
    }

    #[test]
    fn serialization_drops_tombstones_but_answers_identically() {
        // The reference adds the survivors, in order, onto the churned
        // index's own centroids and codec: removal keeps the order of the
        // other rows and the build assigns rows as `add` does, so the two
        // must not differ by an image byte, a hit, a score bit or a scan
        // count, before or after the image is read back.
        let data = clustered_data(200, 8, 4, 42);
        let mut ivf = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(9)
            .build(&data)
            .unwrap();
        let gone = [1u64, 50, 199];
        for id in gone {
            assert!(ivf.take(id).is_some());
        }
        let parts = ivf.clone().into_parts();
        let mut reference = IvfIndex::from_parts(IvfParts {
            lists: vec![InvertedList::default(); parts.lists.len()],
            ..parts
        })
        .unwrap();
        for (id, row) in data.iter_rows().enumerate() {
            if !gone.contains(&(id as u64)) {
                reference.add(id as u64, row).unwrap();
            }
        }
        let image = ivf.to_bytes();
        assert_eq!(image, reference.to_bytes());
        let loaded = IvfIndex::from_bytes(&image).unwrap();
        for nprobe in [1, 3, 6] {
            let params = SearchParams::new().with_nprobe(nprobe);
            for qi in (0..200).step_by(31) {
                let q = data.row(qi);
                let want = reference.search_with_stats(q, 8, &params).unwrap();
                for (index, side) in [(&ivf, "churned"), (&loaded, "read back")] {
                    let got = index.search_with_stats(q, 8, &params);
                    assert_same_scan(&got, &want, &format!("{side} q{qi} nprobe {nprobe}"));
                }
            }
        }
    }

    #[test]
    fn take_round_trips_lossless_codec() {
        let data = clustered_data(100, 4, 2, 43);
        let mut ivf = IvfIndex::builder()
            .nlist(2)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let got = ivf.take(17).unwrap();
        for (a, b) in got.iter().zip(data.row(17)) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert_eq!(ivf.len(), 99);
        assert!(ivf.take(17).is_none(), "a taken row is gone");
    }

    #[test]
    fn blocked_id_search_finds_the_first_match() {
        // Lists shorter than, equal to and longer than a block, with every
        // id repeated so that only the first match is right.
        for len in 0..3 * ID_BLOCK + 5 {
            let ids: Vec<u64> = (0..len as u64).map(|i| i % 19).collect();
            for id in 0..21u64 {
                assert_eq!(
                    position_of(&ids, id),
                    ids.iter().position(|&stored| stored == id),
                    "id {id} in {len} ids"
                );
            }
        }
    }

    #[test]
    fn id_filters_stay_exact_for_the_current_rows() {
        // Every list's filter is the one its current ids make: `add` sets
        // the new id's bit, `take` drops the bits no remaining row needs,
        // and every constructor starts from the lists it is given.
        let data = clustered_data(300, 8, 5, 46);
        let ids = (0..300u64).map(|i| i % 170).collect();
        let mut ivf = IvfIndex::builder()
            .nlist(12)
            .build_with_ids(&data, ids)
            .unwrap();
        let exact = |ivf: &IvfIndex| ivf.filters == id_filters(&ivf.lists);
        assert!(exact(&ivf));
        for id in (0..200u64).step_by(3) {
            ivf.take(id);
            assert!(exact(&ivf), "after take({id})");
        }
        for (id, row) in data.iter_rows().enumerate().step_by(7) {
            ivf.add(1000 + id as u64, row).unwrap();
            assert!(exact(&ivf), "after add({})", 1000 + id);
        }
        assert!(exact(&IvfIndex::from_bytes(&ivf.to_bytes()).unwrap()));
        // The filters are resident: 32 bytes a list.
        let parts = ivf.clone().into_parts();
        let rows: usize = parts.lists.iter().map(|l| l.ids.len()).sum();
        let codes = rows * ivf.codec.code_size();
        assert_eq!(ivf.memory_bytes(), codes + rows * 8 + 12 * 8 * 4 + 12 * 32);
        assert!(exact(&IvfIndex::from_parts(parts).unwrap()));
    }

    #[test]
    fn parts_rebuild_the_index_byte_for_byte_and_mismatches_are_refused() {
        let data = clustered_data(150, 8, 3, 45);
        let ivf = IvfIndex::builder()
            .nlist(6)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .seed(11)
            .build(&data)
            .unwrap();
        let image = ivf.to_bytes();
        let parts = ivf.into_parts();
        assert_eq!(
            IvfIndex::from_parts(parts.clone()).unwrap().to_bytes(),
            image
        );

        let mut short = parts.clone();
        short.lists.pop();
        assert!(matches!(
            IvfIndex::from_parts(short),
            Err(IndexError::InvalidParam(_))
        ));
        let mut torn = parts;
        let list = torn.lists.iter_mut().find(|l| !l.ids.is_empty()).unwrap();
        list.codes.pop();
        assert!(matches!(
            IvfIndex::from_parts(torn),
            Err(IndexError::InvalidParam(_))
        ));
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
        assert!(ivf.take(5).is_some());
        assert!(ivf.take(80).is_some());
        let exported = ivf.export_live();
        assert_eq!(exported.len(), 118);
        let ids: std::collections::BTreeSet<u64> = exported.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 118);
        assert!(!ids.contains(&5) && !ids.contains(&80));
    }

    /// The tier-A oracle: the sequential scalar walk the blocked,
    /// filtered scan must reproduce bit for bit — lists in ranked probe
    /// order, one `score` per code, one `push` per score.
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
                top.push(id, scorer.score(&list.codes[pos * cs..(pos + 1) * cs]));
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
            filters: vec![IdFilter::default(); lens.len()],
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
        // shard; rows removed from most of them.
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
                    assert!(index.take(id).is_some());
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

    /// Asserts that `queries` scanned back to back by [`list_scan`], and
    /// each searched alone, answer exactly like the scalar walk (a
    /// wrong-dimension query with the dimension error, without disturbing
    /// the queries after it).
    fn assert_group_matches_walk(
        index: &IvfIndex,
        queries: &[(&[f32], usize)],
        k: usize,
        ctx: &str,
    ) {
        let group = list_scan(index, queries, k);
        assert_eq!(group.len(), queries.len());
        for (qi, &(q, nprobe)) in queries.iter().enumerate() {
            let alone = index.search_with_stats(q, k, &SearchParams::new().with_nprobe(nprobe));
            if q.len() != index.dim {
                let err = IndexError::DimensionMismatch {
                    expected: index.dim,
                    got: q.len(),
                };
                assert_eq!(group[qi], (Err(err.clone()), 0), "{ctx}");
                assert_eq!(alone, Err(err), "{ctx}");
                continue;
            }
            let want = walk_search(index, q, k, nprobe);
            assert_same_scan(&alone, &want, &format!("{ctx} alone q{qi}"));
            assert_same_scan(&group[qi].0, &want, &format!("{ctx} group q{qi}"));
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
                // Removals straddling tile and list boundaries: the last
                // row of one list and the first rows of the next, a whole
                // 1-code list, every 5th row.
                let dead: Vec<u64> = [4u64, 5, 6, 12, 13, 20]
                    .into_iter()
                    .chain((30..total as u64).step_by(5))
                    .collect();
                for &id in &dead {
                    assert!(index.take(id).is_some());
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
            // Rows removed where `up`'s survivors are: a third of the
            // best lists, and the 1-row list whole.
            let dead = (total - 290..total).step_by(3).chain([415, 416, 420]);
            for id in dead {
                assert!(index.take(id as u64).is_some());
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
            // What the filter kept, lists in list order (two equal
            // queries): everything but the first list going up, nothing
            // but it going down.
            let live = index.len;
            let first = index.lists[0].ids.len();
            for (q, kept) in [(&up, live - first..=2 * live), (&down, 0..=2 * first)] {
                let scan = list_scan(&index, &[(q, 8), (q, 8)], 1);
                let rescored = scan.iter().map(|&(_, rescored)| rescored).sum();
                assert!(
                    kept.contains(&rescored),
                    "{metric}: rescored {rescored} of {live} live rows, {first} in the first list"
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
        let warm = list_scan(&index, &queries, 10);
        let held = SCRATCH.take();
        assert!(held.is_some(), "a finished scan parks its scratch");
        let reentered = list_scan(&index, &queries, 10);
        SCRATCH.set(held);
        assert_eq!(reentered, warm);
        assert_eq!(list_scan(&index, &queries, 10), warm);
        // A smaller, different scan over the dirty scratch.
        let one = list_scan(&index, &queries[3..4], 3);
        assert_eq!(
            one[0].0.as_ref().unwrap().0,
            warm[3].0.as_ref().unwrap().0[..3]
        );
    }

    #[test]
    fn a_group_plan_is_one_run_per_query() {
        // A query's plan is its lists in selection order, the empty ones
        // dropped: lists 5, 2, 1, 3 with list 2 empty, then the same
        // lists in another order, then only the empty one.
        let lens = [3usize, 4, 0, 2, 1, 6];
        let (index, data) = index_with_list_lengths(&lens, 4, CodecSpec::Flat, Metric::L2);
        let (mut plan, mut chunk) = (Vec::new(), Chunk::default());
        for (lists, want, rows) in [
            (&[5u32, 2, 1, 3][..], &[5u32, 1, 3][..], 12),
            (&[3, 1, 2, 5], &[3, 1, 5], 12),
            (&[2], &[], 0),
        ] {
            let (answer, _) = index.scan_query(
                data.row(0),
                lists.iter().copied(),
                f32::NEG_INFINITY,
                20,
                &mut plan,
                &mut chunk,
            );
            assert_eq!(plan, want, "{lists:?}");
            assert_eq!(answer.0.len(), rows, "{lists:?}");
            assert_eq!(answer.1.probed_partitions, lists.len(), "{lists:?}");
        }
    }

    /// Each query paired with the lists a search at its `nprobe` selects,
    /// in selection order, from keys the caller holds (none for a query
    /// the index refuses).
    fn selected<'q>(
        index: &IvfIndex,
        queries: &[(&'q [f32], usize)],
    ) -> Vec<(&'q [f32], Vec<u32>)> {
        let mut keys = CoarseKeys::default();
        index.coarse_keys(queries.iter().map(|q| q.0), &mut keys);
        (queries.iter().enumerate())
            .map(|(qi, &(q, nprobe))| {
                let lists = keys.query(qi).map_or_else(
                    |_| Vec::new(),
                    |keys| {
                        let mut keys = keys.to_vec();
                        let chosen = select_nearest(&mut keys, nprobe);
                        chosen
                            .iter()
                            .map(|&key| probe_key_centroid(key) as u32)
                            .collect()
                    },
                );
                (q, lists)
            })
            .collect()
    }

    /// `queries` scanned back to back by [`IvfIndex::search_lists`], each
    /// with the lists a search at its `nprobe` selects ([`selected`]), at
    /// floor −∞: each query's answer and rescored count.
    fn list_scan(
        index: &IvfIndex,
        queries: &[(&[f32], usize)],
        k: usize,
    ) -> Vec<(ScanResult, usize)> {
        (selected(index, queries).iter())
            .map(|(q, lists)| index.search_lists(q, lists, f32::NEG_INFINITY, k))
            .collect()
    }

    #[test]
    fn list_scan_takes_list_sets_as_given() {
        let data = clustered_data(600, 12, 9, 55);
        let mut index = IvfIndex::builder().nlist(40).seed(6).build(&data).unwrap();
        for id in (0..600u64).step_by(9) {
            assert!(index.take(id).is_some());
        }
        let bad = [1.0f32; 5];
        let mut keys = CoarseKeys::default();
        index.coarse_keys([data.row(3), &bad[..]].into_iter(), &mut keys);
        // A query's keys are the index's probe ranking of it.
        let mut ranked = keys.query(0).unwrap().to_vec();
        assert_eq!(ranked.len(), 40);
        ranked.sort_unstable();
        let nearest: Vec<u32> = ranked
            .iter()
            .map(|&key| probe_key_centroid(key) as u32)
            .collect();
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
        let scan: Vec<ScanResult> = (queries.iter())
            .map(|&(q, lists, floor)| index.search_lists(q, lists, floor, 10).0)
            .collect();
        let nothing = Ok((Vec::new(), ScanStats::default()));
        assert_eq!(scan[2], nothing, "an empty set probes nothing");
        assert!(matches!(scan[3], Err(IndexError::DimensionMismatch { .. })));
        assert!(matches!(scan[6], Err(IndexError::InvalidParam(_))));
        // The walk over the same lists: the nearest 8 and all 40 are what
        // a search at `nprobe` 8 / 40 scans.
        for (qi, nprobe) in [(0, 8), (4, 40)] {
            let want = walk_search(&index, queries[qi].0, 10, nprobe);
            assert_same_scan(&scan[qi], &want, &format!("q{qi}"));
        }
        let (far_hits, far_stats) = scan[1].as_ref().unwrap();
        assert_eq!(far_stats.probed_partitions, 8);
        let far_codes: usize = far.iter().map(|&l| index.lists[l as usize].ids.len()).sum();
        assert_eq!(far_stats.scanned_codes, far_codes);
        assert!(far_hits.iter().all(|h| far
            .iter()
            .any(|&l| index.lists[l as usize].ids.contains(&h.id))));
        let (one_hits, one_stats) = scan[5].as_ref().unwrap();
        assert_eq!(one_stats.probed_partitions, 1);
        assert_eq!(one_hits.len(), index.lists[5].ids.len().min(10));

        // All empty: nothing is scanned at all.
        for &(q, _, floor) in &queries {
            let (result, rescored) = index.search_lists(q, &[], floor, 10);
            assert_eq!(rescored, 0);
            assert!(result.is_err() || result == nothing);
        }
    }

    #[test]
    fn group_scan_of_an_empty_index_or_group() {
        let data = clustered_data(20, 4, 2, 52);
        let mut index = IvfIndex::builder().nlist(2).build(&data).unwrap();
        assert!(list_scan(&index, &[], 3).is_empty());
        for id in 0..20 {
            assert!(index.take(id).is_some());
        }
        let scan = list_scan(&index, &[(data.row(0), 2), (data.row(1), 2)], 3);
        assert_eq!(
            scan,
            vec![(Err(IndexError::Empty), 0), (Err(IndexError::Empty), 0)]
        );
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
