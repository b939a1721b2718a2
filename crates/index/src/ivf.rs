//! Inverted-file (IVF) index with quantized storage.
//!
//! The index Hermes deploys (paper Section 2.1): a K-means coarse
//! quantizer splits the datastore into `nlist` inverted lists; at query
//! time only the `nProbe` lists whose centroids are nearest the query are
//! scanned, trading accuracy for latency. Vectors inside lists are stored
//! through a [`Codec`] (the paper uses SQ8).

use hermes_kmeans::{probe_key_centroid, select_nearest, KMeans, KMeansConfig};
use hermes_math::block::{BLOCK, QTILE};
use hermes_math::{Mat, Metric, TopK};
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
    train_fraction: f64,
    kmeans_iters: usize,
    residual: bool,
}

impl IvfBuilder {
    fn new() -> Self {
        IvfBuilder {
            nlist: None,
            codec: CodecSpec::Sq8,
            metric: Metric::InnerProduct,
            seed: 0,
            train_fraction: 1.0,
            kmeans_iters: 15,
            residual: false,
        }
    }

    /// Encodes each vector's *residual* from its list centroid instead of
    /// the raw vector (FAISS's default for IVF+quantizer). Residuals have
    /// a tighter dynamic range, so scalar/product quantizers spend their
    /// levels where the data actually lives, improving recall at the same
    /// code size. Costs one extra centroid add per scored candidate at
    /// query time.
    pub fn residual(mut self, residual: bool) -> Self {
        self.residual = residual;
        self
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

    /// Trains the coarse quantizer and codec on a row subsample, the
    /// standard trick for large ingests.
    pub fn train_fraction(mut self, fraction: f64) -> Self {
        self.train_fraction = fraction;
        self
    }

    /// Lloyd iteration cap for the coarse quantizer.
    pub fn kmeans_iters(mut self, iters: usize) -> Self {
        self.kmeans_iters = iters;
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

        let training;
        let train_data = if self.train_fraction < 1.0 {
            training = hermes_kmeans::subsample(data, self.train_fraction, self.seed);
            &training
        } else {
            data
        };

        let cfg = KMeansConfig::new(nlist)
            .with_seed(self.seed)
            .with_max_iters(self.kmeans_iters);
        let coarse = KMeans::train(train_data, &cfg);
        let codec = if self.residual {
            // Train the codec on residuals so its range matches what it
            // will actually encode.
            let residuals: Vec<Vec<f32>> = train_data
                .iter_rows()
                .map(|row| {
                    let (list, _) = coarse.assign(row);
                    hermes_math::distance::sub(row, coarse.centroids().row(list))
                })
                .collect();
            Codec::train(self.codec, &Mat::from_rows(&residuals), self.seed)
        } else {
            Codec::train(self.codec, train_data, self.seed)
        };

        let mut lists = vec![InvertedList::default(); coarse.num_clusters()];
        let mut buf = Vec::new();
        for (row, &id) in data.iter_rows().zip(&ids) {
            let (list, _) = coarse.assign(row);
            buf.clear();
            if self.residual {
                let res = hermes_math::distance::sub(row, coarse.centroids().row(list));
                codec.encode_into(&res, &mut buf);
            } else {
                codec.encode_into(row, &mut buf);
            }
            lists[list].ids.push(id);
            lists[list].codes.extend_from_slice(&buf);
            lists[list].dead.push(false);
        }

        Ok(IvfIndex {
            coarse,
            codec,
            lists,
            metric: self.metric,
            dim: data.cols(),
            len: data.rows(),
            residual: self.residual,
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
    residual: bool,
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
        let (list, _) = self.coarse.assign(v);
        let mut buf = Vec::with_capacity(self.codec.code_size());
        if self.residual {
            let res = hermes_math::distance::sub(v, self.coarse.centroids().row(list));
            self.codec.encode_into(&res, &mut buf);
        } else {
            self.codec.encode_into(v, &mut buf);
        }
        self.lists[list].ids.push(id);
        self.lists[list].codes.extend_from_slice(&buf);
        self.lists[list].dead.push(false);
        self.len += 1;
        Ok(())
    }

    /// Decodes the stored vector for `id` (first live occurrence), adding
    /// back the list centroid for residual storage. Lossy codecs return
    /// the quantized reconstruction — deterministic, and exactly what a
    /// migration re-encodes, so decode → re-add round-trips stably.
    pub fn reconstruct(&self, id: u64) -> Option<Vec<f32>> {
        let cs = self.codec.code_size();
        for (li, list) in self.lists.iter().enumerate() {
            for (pos, &stored) in list.ids.iter().enumerate() {
                if stored == id && !list.dead[pos] {
                    let code = &list.codes[pos * cs..(pos + 1) * cs];
                    let mut v = self.codec.decode(code);
                    if self.residual {
                        hermes_math::distance::add_assign(
                            &mut v,
                            self.coarse.centroids().row(li),
                        );
                    }
                    return Some(v);
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
        for (li, list) in self.lists.iter().enumerate() {
            let centroid = self.coarse.centroids().row(li);
            for (pos, &id) in list.ids.iter().enumerate() {
                if list.dead[pos] {
                    continue;
                }
                let code = &list.codes[pos * cs..(pos + 1) * cs];
                let mut v = self.codec.decode(code);
                if self.residual {
                    hermes_math::distance::add_assign(&mut v, centroid);
                }
                out.push((id, v));
            }
        }
        out
    }

    /// Whether vectors are stored as residuals from their list centroid.
    pub fn is_residual(&self) -> bool {
        self.residual
    }

    /// Serializes the index (coarse centroids, codec, inverted lists) to
    /// the workspace wire format — the offline-build → online-serving
    /// handoff of the paper's Appendix A.5.
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
        w.u8(u8::from(self.residual));
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
        let residual = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WireError::Corrupt(format!("bad residual tag {t}"))),
        };
        let dim = r.u64()? as usize;
        let len = r.u64()? as usize;
        let coarse = KMeans::decode_wire(&mut r)?;
        let codec = Codec::decode_wire(&mut r)?;
        if codec.dim() != dim {
            return Err(WireError::Corrupt("codec dimension mismatch".into()));
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
            residual,
        })
    }

    /// Writes the serialized index to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads an index saved with [`Self::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let buf = std::fs::read(path)?;
        IvfIndex::from_bytes(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Estimates the work a search with `nprobe` *would* perform without
    /// scoring any codes: the coarse quantizer is scanned once to find the
    /// probed lists, and their lengths are summed. Use this for capacity
    /// planning; a search that actually ran reports its exact work via
    /// [`VectorIndex::search_with_stats`] for free.
    pub fn probe_stats(&self, query: &[f32], nprobe: usize) -> ScanStats {
        let mut keys = Vec::new();
        self.coarse.probe_keys(&[query], &mut keys);
        self.probe_cost(select_nearest(&mut keys, nprobe.clamp(1, self.lists.len())))
    }

    /// The logical work of scanning the lists behind `probe` keys.
    fn probe_cost(&self, probe: &[u64]) -> ScanStats {
        ScanStats {
            scanned_codes: probe
                .iter()
                .map(|&key| self.lists[probe_key_centroid(key)].ids.len())
                .sum(),
            probed_partitions: probe.len(),
        }
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
        self.search_group(&[query], k, &[params.nprobe])
            .results
            .pop()
            .expect("one result per query")
    }

    /// One scan for the whole group: a single pass over the centroid
    /// table ranks every query's lists, each query *selects* its probe
    /// set (unsorted — [`TopK`] is a total order on `(score, id)` and
    /// [`ScanStats`] are sums, so the visiting order never shows), and
    /// for plain (non-residual) storage the `(list, query)` probes are
    /// inverted so each probed list is streamed **once**, its code blocks
    /// scored against up to [`QTILE`] queries
    /// per pass. Residual lists score a per-(query, list) shifted query,
    /// so there is nothing to share and they are scanned query by query.
    fn search_group(&self, queries: &[&[f32]], k: usize, nprobes: &[usize]) -> GroupScan {
        assert_eq!(queries.len(), nprobes.len(), "one nprobe per query");
        let mut results: Vec<ScanResult> = queries
            .iter()
            .map(|q| {
                self.check_query(q)
                    .map(|()| (Vec::new(), ScanStats::default()))
            })
            .collect();
        // Slot `s` of the scan serves input query `active[s]`.
        let active: Vec<usize> = (0..queries.len()).filter(|&i| results[i].is_ok()).collect();
        if active.is_empty() {
            return GroupScan {
                results,
                streamed_codes: 0,
            };
        }
        let live: Vec<&[f32]> = active.iter().map(|&i| queries[i]).collect();

        let nlist = self.lists.len();
        let mut keys = Vec::new();
        self.coarse.probe_keys(&live, &mut keys);
        // `(list, slot)` probes, slot-major.
        let mut probes: Vec<(u32, u32)> = Vec::new();
        for (slot, (&qi, keys)) in active.iter().zip(keys.chunks_exact_mut(nlist)).enumerate() {
            let chosen = select_nearest(keys, nprobes[qi].clamp(1, nlist));
            results[qi] = Ok((Vec::new(), self.probe_cost(chosen)));
            probes.extend(chosen.iter().map(|&key| (key as u32, slot as u32)));
        }

        let mut tops: Vec<TopK> = active.iter().map(|_| TopK::new(k.max(1))).collect();
        let streamed_codes = if self.residual {
            self.scan_residual(&live, &probes, &mut tops)
        } else {
            self.scan_shared(&live, probes, &mut tops)
        };
        for (&qi, top) in active.iter().zip(tops) {
            if let Ok((hits, _)) = &mut results[qi] {
                *hits = top.into_sorted_vec();
                hits.truncate(k);
            }
        }
        if hermes_trace::is_enabled() {
            hermes_trace::counter(
                hermes_trace::names::INDEX_CODES_STREAMED,
                streamed_codes as u64,
            );
        }
        GroupScan {
            results,
            streamed_codes,
        }
    }
}

impl IvfIndex {
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

    /// Plain storage: one scorer per query serves every list, so each
    /// probed list is streamed once for all the queries that probe it.
    /// Returns the codes physically scored.
    fn scan_shared(
        &self,
        queries: &[&[f32]],
        mut probes: Vec<(u32, u32)>,
        tops: &mut [TopK],
    ) -> usize {
        let scorers: Vec<QueryScorer<'_>> = queries
            .iter()
            .map(|q| self.codec.query_scorer(q, self.metric))
            .collect();
        // One query's probes are already one run per list.
        if queries.len() > 1 {
            group_by_list(&mut probes, self.lists.len());
        }
        let mut scratch = ScanScratch::new();
        probes
            .chunk_by(|a, b| a.0 == b.0)
            .map(|visit| {
                let list = &self.lists[visit[0].0 as usize];
                scan_list(list, visit, &scorers, tops, None, &mut scratch)
            })
            .sum()
    }

    /// Residual storage: scores decompose per list, so every
    /// `(query, list)` pair is its own scan. Cosine reduces to inner
    /// product on a pre-normalized query (documents are stored
    /// unnormalized-residual but decode to the original, normalized
    /// vectors). Returns the codes scored.
    fn scan_residual(&self, queries: &[&[f32]], probes: &[(u32, u32)], tops: &mut [TopK]) -> usize {
        let mut streamed = 0;
        let mut scratch = ScanScratch::new();
        let mut shifted = Vec::with_capacity(self.dim);
        // Slot-major probes: each query's lists are one contiguous run.
        for visit in probes.chunk_by(|a, b| a.1 == b.1) {
            let slot = visit[0].1 as usize;
            let top = std::slice::from_mut(&mut tops[slot]);
            let normalized;
            let (q, metric) = match self.metric {
                Metric::Cosine => {
                    let mut nq = queries[slot].to_vec();
                    hermes_math::distance::normalize(&mut nq);
                    normalized = nq;
                    (normalized.as_slice(), Metric::InnerProduct)
                }
                m => (queries[slot], m),
            };
            let mut scan = |l: u32, scorer: &QueryScorer<'_>, offset: Option<f32>| {
                let (list, visit) = (&self.lists[l as usize], [(l, 0)]);
                streamed += scan_list(
                    list,
                    &visit,
                    std::slice::from_ref(scorer),
                    top,
                    offset,
                    &mut scratch,
                );
            };
            match metric {
                Metric::InnerProduct => {
                    // ip(q, c + r) = ip(q, c) + ip(q, r): the scorer is
                    // list-invariant, only the offset moves.
                    let scorer = self.codec.query_scorer(q, Metric::InnerProduct);
                    for &(l, _) in visit {
                        let centroid = self.coarse.centroids().row(l as usize);
                        let offset = hermes_math::distance::inner_product(q, centroid);
                        scan(l, &scorer, Some(offset));
                    }
                }
                Metric::L2 | Metric::Cosine => {
                    for &(l, _) in visit {
                        // -|q - (c + r)|^2 = -|(q - c) - r|^2.
                        let centroid = self.coarse.centroids().row(l as usize);
                        shifted.clear();
                        shifted.extend(q.iter().zip(centroid).map(|(x, y)| x - y));
                        scan(l, &self.codec.query_scorer(&shifted, Metric::L2), None);
                    }
                }
            }
        }
        streamed
    }
}

/// Stack buffers of one list scan, created once per group scan (a
/// deep search visits ~100 short lists; re-zeroing 2 KB per list showed
/// in the profile).
struct ScanScratch {
    scores: [f32; QTILE * BLOCK],
    live_ids: [u64; BLOCK],
    live_at: [u8; BLOCK],
    live_scores: [f32; BLOCK],
}

impl ScanScratch {
    fn new() -> Self {
        ScanScratch {
            scores: [0.0; QTILE * BLOCK],
            live_ids: [0; BLOCK],
            live_at: [0; BLOCK],
            live_scores: [0.0; BLOCK],
        }
    }
}

/// Stable counting sort of `(list, slot)` probes by list, so the probes
/// of one list become one contiguous run (slots ascending within it).
fn group_by_list(probes: &mut Vec<(u32, u32)>, nlist: usize) {
    let mut next = vec![0u32; nlist + 1];
    for &(l, _) in probes.iter() {
        next[l as usize + 1] += 1;
    }
    for l in 0..nlist {
        next[l + 1] += next[l];
    }
    let mut grouped = vec![(0u32, 0u32); probes.len()];
    for &probe in probes.iter() {
        let at = &mut next[probe.0 as usize];
        grouped[*at as usize] = probe;
        *at += 1;
    }
    *probes = grouped;
}

/// Streams one inverted list **once** for every query slot in `visit`
/// (`(list, slot)` probes of this list): each `BLOCK`-sized code chunk is
/// scored against up to `QTILE` slots' scorers per pass and every slot's
/// row feeds the fused compare-and-compact pruning of its own
/// [`TopK::push_block`]. The tombstone mask is computed once per chunk:
/// the full chunk is scored with the unchanged kernel, then dead
/// `(id, score)` pairs are compacted out before admission, so live rows
/// keep their exact bits and admission order. `offset` (the residual
/// inner-product decomposition term) is added to every score; it is
/// applied unconditionally — even an `offset` of `0.0` changes `-0.0`
/// scores to `+0.0` — so the f32 op sequence matches the per-code
/// `offset + scorer.score(code)` form bit for bit. Returns the codes
/// physically scored.
fn scan_list(
    list: &InvertedList,
    visit: &[(u32, u32)],
    scorers: &[QueryScorer<'_>],
    tops: &mut [TopK],
    offset: Option<f32>,
    scratch: &mut ScanScratch,
) -> usize {
    let cs = scorers[0].code_size();
    let ScanScratch {
        scores,
        live_ids,
        live_at,
        live_scores,
    } = scratch;
    let mut streamed = 0;
    for (b, ids) in list.ids.chunks(BLOCK).enumerate() {
        let (start, bn) = (b * BLOCK, ids.len());
        let codes = &list.codes[start * cs..(start + bn) * cs];
        let mut live = 0;
        if list.dead_count > 0 {
            for (j, (&id, &dead)) in ids.iter().zip(&list.dead[start..]).enumerate() {
                if !dead {
                    live_ids[live] = id;
                    live_at[live] = j as u8;
                    live += 1;
                }
            }
        }
        for tile in visit.chunks(QTILE) {
            let mut refs = [&scorers[0]; QTILE];
            for (r, &(_, slot)) in refs.iter_mut().zip(tile) {
                *r = &scorers[slot as usize];
            }
            let out = &mut scores[..tile.len() * bn];
            streamed += QueryScorer::score_tile(&refs[..tile.len()], codes, out);
            if let Some(o) = offset {
                for s in out.iter_mut() {
                    *s = o + *s;
                }
            }
            for (&(_, slot), row) in tile.iter().zip(out.chunks_exact(bn)) {
                let top = &mut tops[slot as usize];
                if list.dead_count == 0 {
                    top.push_block(ids, row);
                } else {
                    for (s, &j) in live_scores.iter_mut().zip(&live_at[..live]) {
                        *s = row[j as usize];
                    }
                    top.push_block(&live_ids[..live], &live_scores[..live]);
                }
            }
        }
    }
    streamed
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
    fn residual_flat_matches_plain_flat_exactly() {
        // With a lossless codec, residual storage must not change results.
        let data = clustered_data(300, 8, 5, 31);
        let plain = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .seed(1)
            .build(&data)
            .unwrap();
        let res = IvfIndex::builder()
            .nlist(5)
            .codec(CodecSpec::Flat)
            .metric(Metric::L2)
            .seed(1)
            .residual(true)
            .build(&data)
            .unwrap();
        let params = SearchParams::new().with_nprobe(5);
        for qi in (0..300).step_by(41) {
            let q = data.row(qi);
            let a: Vec<u64> = plain.search(q, 5, &params).unwrap().iter().map(|n| n.id).collect();
            let b: Vec<u64> = res.search(q, 5, &params).unwrap().iter().map(|n| n.id).collect();
            assert_eq!(a, b, "query {qi}");
        }
    }

    #[test]
    fn residual_encoding_improves_quantized_recall() {
        // Clustered data with large centroid offsets: raw SQ4 wastes its
        // 16 levels spanning the whole space, residual SQ4 spends them on
        // the within-cluster spread.
        let data = clustered_data(800, 16, 8, 32);
        let flat = crate::FlatIndex::new(data.clone(), Metric::L2);
        let recall_of = |index: &IvfIndex| -> f64 {
            let params = SearchParams::new().with_nprobe(8);
            let mut hit = 0usize;
            let mut total = 0usize;
            for qi in (0..800).step_by(67) {
                let q = data.row(qi);
                let truth: Vec<u64> = flat
                    .search(q, 10, &SearchParams::new())
                    .unwrap()
                    .iter()
                    .map(|n| n.id)
                    .collect();
                let got = index.search(q, 10, &params).unwrap();
                hit += got.iter().filter(|n| truth.contains(&n.id)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let plain = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Sq4)
            .metric(Metric::L2)
            .seed(2)
            .build(&data)
            .unwrap();
        let residual = IvfIndex::builder()
            .nlist(8)
            .codec(CodecSpec::Sq4)
            .metric(Metric::L2)
            .seed(2)
            .residual(true)
            .build(&data)
            .unwrap();
        let (rp, rr) = (recall_of(&plain), recall_of(&residual));
        assert!(rr >= rp, "residual {rr} should not lose to plain {rp}");
    }

    #[test]
    fn residual_inner_product_decomposition_is_consistent() {
        let data = clustered_data(200, 8, 4, 33);
        let plain = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Flat)
            .metric(Metric::InnerProduct)
            .seed(3)
            .build(&data)
            .unwrap();
        let res = IvfIndex::builder()
            .nlist(4)
            .codec(CodecSpec::Flat)
            .metric(Metric::InnerProduct)
            .seed(3)
            .residual(true)
            .build(&data)
            .unwrap();
        let params = SearchParams::new().with_nprobe(4);
        for qi in (0..200).step_by(29) {
            let q = data.row(qi);
            let a = plain.search(q, 3, &params).unwrap();
            let b = res.search(q, 3, &params).unwrap();
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
            for (x, y) in a.iter().zip(&b) {
                assert!((x.score - y.score).abs() < 1e-3, "{} vs {}", x.score, y.score);
            }
        }
    }

    #[test]
    fn residual_index_round_trips_through_persistence() {
        let data = clustered_data(150, 8, 3, 34);
        let index = IvfIndex::builder()
            .nlist(3)
            .codec(CodecSpec::Sq8)
            .residual(true)
            .seed(4)
            .build(&data)
            .unwrap();
        let loaded = IvfIndex::from_bytes(&index.to_bytes()).unwrap();
        assert!(loaded.is_residual());
        let params = SearchParams::new().with_nprobe(3);
        assert_eq!(
            loaded.search(data.row(7), 5, &params).unwrap(),
            index.search(data.row(7), 5, &params).unwrap()
        );
    }

    #[test]
    fn residual_add_streams_consistently() {
        let data = clustered_data(100, 4, 2, 35);
        let mut index = IvfIndex::builder()
            .nlist(2)
            .codec(CodecSpec::Sq8)
            .metric(Metric::L2)
            .residual(true)
            .build(&data)
            .unwrap();
        let novel = [7.5f32, 7.5, 7.5, 7.5];
        index.add(4242, &novel).unwrap();
        let hits = index
            .search(&novel, 1, &SearchParams::new().with_nprobe(2))
            .unwrap();
        assert_eq!(hits[0].id, 4242);
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
    fn save_and_load_round_trip_via_filesystem() {
        let data = clustered_data(100, 4, 2, 22);
        let ivf = IvfIndex::builder().nlist(4).seed(3).build(&data).unwrap();
        let path = std::env::temp_dir().join("hermes_ivf_roundtrip.hivf");
        ivf.save(&path).unwrap();
        let loaded = IvfIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 100);
        assert_eq!(
            loaded.search(data.row(0), 3, &SearchParams::new()).unwrap(),
            ivf.search(data.row(0), 3, &SearchParams::new()).unwrap()
        );
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
            .residual(true)
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
    /// query-tiled, list-shared scan must reproduce bit for bit — lists
    /// in ranked probe order, one `score` per live code, one `push` per
    /// score.
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
        let mut unit = query.to_vec();
        hermes_math::distance::normalize(&mut unit);
        for &l in &probe {
            let list = &index.lists[l];
            let centroid = index.coarse.centroids().row(l);
            let (shifted, metric, offset) = match (index.residual, index.metric) {
                (false, m) => (query.to_vec(), m, None),
                (true, Metric::L2) => (
                    hermes_math::distance::sub(query, centroid),
                    Metric::L2,
                    None,
                ),
                (true, Metric::InnerProduct) => {
                    let o = hermes_math::distance::inner_product(query, centroid);
                    (query.to_vec(), Metric::InnerProduct, Some(o))
                }
                (true, Metric::Cosine) => {
                    let o = hermes_math::distance::inner_product(&unit, centroid);
                    (unit.clone(), Metric::InnerProduct, Some(o))
                }
            };
            let scorer = index.codec.query_scorer(&shifted, metric);
            for (pos, &id) in list.ids.iter().enumerate() {
                if !list.dead[pos] {
                    let s = scorer.score(&list.codes[pos * cs..(pos + 1) * cs]);
                    top.push(id, offset.map_or(s, |o| o + s));
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

    #[test]
    fn group_scan_is_bit_identical_to_the_scalar_walk() {
        // 600 rows over 40 lists: ragged 1..~40-code lists like a real
        // shard; tombstones in most of them.
        let data = clustered_data(600, 12, 9, 51);
        let codecs = [
            CodecSpec::Flat,
            CodecSpec::Sq8,
            CodecSpec::Sq4,
            CodecSpec::Pq { m: 4 },
        ];
        for codec in codecs {
            for residual in [false, true] {
                for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
                    let mut index = IvfIndex::builder()
                        .nlist(40)
                        .codec(codec)
                        .metric(metric)
                        .residual(residual)
                        .seed(5)
                        .build(&data)
                        .unwrap();
                    for id in (0..600u64).step_by(7) {
                        assert!(index.remove(id));
                    }
                    // Six queries — more than one query tile — with a
                    // duplicate, mixed nprobe (1 .. beyond nlist) and a
                    // wrong-dimension query in the middle.
                    let bad = [1.0f32; 5];
                    let queries: Vec<&[f32]> = vec![
                        data.row(3),
                        data.row(200),
                        data.row(3),
                        &bad,
                        data.row(411),
                        data.row(77),
                        data.row(598),
                    ];
                    let nprobes = [8usize, 40, 3, 8, 1, 64, 17];
                    let ctx = format!("{codec} residual={residual} {metric}");
                    let group = index.search_group(&queries, 10, &nprobes);
                    assert_eq!(group.results.len(), queries.len());
                    let mut logical = 0;
                    for (qi, (q, &nprobe)) in queries.iter().zip(&nprobes).enumerate() {
                        let alone = index.search_with_stats(
                            q,
                            10,
                            &SearchParams::new().with_nprobe(nprobe),
                        );
                        if q.len() != 12 {
                            let err = IndexError::DimensionMismatch {
                                expected: 12,
                                got: 5,
                            };
                            assert_eq!(group.results[qi], Err(err.clone()), "{ctx}");
                            assert_eq!(alone, Err(err), "{ctx}");
                            continue;
                        }
                        let want = walk_search(&index, q, 10, nprobe);
                        logical += want.1.scanned_codes;
                        assert_same_scan(&alone, &want, &format!("{ctx} alone q{qi}"));
                        assert_same_scan(&group.results[qi], &want, &format!("{ctx} group q{qi}"));
                    }
                    // Only plain SQ8 lists share a pass; everything else
                    // streams exactly its logical work.
                    if codec == CodecSpec::Sq8 && !residual {
                        assert!(group.streamed_codes < logical, "{ctx}: nothing shared");
                    } else {
                        assert_eq!(group.streamed_codes, logical, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn group_scan_of_an_empty_index_or_group() {
        let data = clustered_data(20, 4, 2, 52);
        let mut index = IvfIndex::builder().nlist(2).build(&data).unwrap();
        let none = index.search_group(&[], 3, &[]);
        assert!(none.results.is_empty());
        assert_eq!(none.streamed_codes, 0);
        for id in 0..20 {
            assert!(index.remove(id));
        }
        let scan = index.search_group(&[data.row(0), data.row(1)], 3, &[2, 2]);
        assert_eq!(
            scan.results,
            vec![Err(IndexError::Empty), Err(IndexError::Empty)]
        );
        assert_eq!(scan.streamed_codes, 0);
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
