//! Approximate nearest-neighbor indices built from scratch — the
//! workspace's FAISS substitute (paper Section 2.1).
//!
//! Three index families are provided:
//!
//! * [`FlatIndex`] — exact brute-force scan; the ground truth for every
//!   recall/NDCG measurement in the evaluation harness.
//! * [`IvfIndex`] — inverted-file index: a K-means coarse quantizer
//!   partitions vectors into `nlist` lists; a query probes the `nProbe`
//!   nearest lists and scores their (quantized) codes asymmetrically.
//!   This is the index Hermes deploys (IVF-SQ8).
//! * [`HnswIndex`] — hierarchical navigable small-world proximity graph;
//!   faster than IVF at equal recall but with the ~2.3× memory overhead
//!   the paper rules out at scale (Figure 4).
//!
//! All indices implement [`VectorIndex`], which exposes memory accounting
//! (`memory_bytes`) so the harness can regenerate the paper's footprint
//! plots without allocating trillion-token storage.
//!
//! # Examples
//!
//! ```
//! use hermes_math::{Mat, Metric};
//! use hermes_index::{IvfIndex, SearchParams, VectorIndex};
//! use hermes_quant::CodecSpec;
//!
//! let data = Mat::from_rows(&(0..200).map(|i| vec![(i % 20) as f32, (i / 20) as f32]).collect::<Vec<_>>());
//! let index = IvfIndex::builder()
//!     .nlist(8)
//!     .codec(CodecSpec::Sq8)
//!     .metric(Metric::L2)
//!     .build(&data)?;
//! let hits = index.search(&[3.0, 4.0], 5, &SearchParams::new().with_nprobe(4))?;
//! assert_eq!(hits.len(), 5);
//! # Ok::<(), hermes_index::IndexError>(())
//! ```

mod flat;
mod half;
mod hnsw;
mod ivf;

pub use flat::FlatIndex;
pub use half::{f16_bits_to_f32, f32_to_f16_bits};
pub use hnsw::{HnswBuilder, HnswIndex, VectorStorage};
pub use ivf::{CoarseKeys, InvertedList, IvfBuilder, IvfIndex, IvfParts, IvfStats};

use hermes_math::{Metric, Neighbor};

/// Runtime knobs for a search call. Each index family reads the fields it
/// understands (`nprobe` for IVF, `ef_search` for HNSW); the rest are
/// ignored, mirroring FAISS's per-index parameter spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// Number of IVF inverted lists to probe (the paper's central knob).
    pub nprobe: usize,
    /// HNSW beam width at the base layer.
    pub ef_search: usize,
}

impl SearchParams {
    /// Defaults: `nprobe = 1`, `ef_search = 32`.
    pub fn new() -> Self {
        SearchParams {
            nprobe: 1,
            ef_search: 32,
        }
    }

    /// Sets `nprobe`.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe;
        self
    }

    /// Sets `ef_search`.
    pub fn with_ef_search(mut self, ef: usize) -> Self {
        self.ef_search = ef;
        self
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams::new()
    }
}

/// Work performed by one search call, recorded *as the scan runs* — no
/// separate cost pass re-walks the coarse quantizer afterwards (the
/// `probe_cost` double scan this type replaced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Vector codes scored against the query (distance evaluations).
    pub scanned_codes: usize,
    /// Partitions visited: IVF inverted lists probed, HNSW graph levels
    /// descended (upper layers + the base beam), `1` for a flat scan.
    pub probed_partitions: usize,
}

/// One query's answer: what [`VectorIndex::search_with_stats`] and
/// [`IvfIndex::search_lists`] return for it.
pub type ScanResult = Result<(Vec<Neighbor>, ScanStats), IndexError>;

/// Errors returned by index construction and search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Query or vector dimensionality differs from the index's.
    DimensionMismatch {
        /// Dimensionality the index was built with.
        expected: usize,
        /// Dimensionality the caller supplied.
        got: usize,
    },
    /// The operation needs a non-empty index or training set.
    Empty,
    /// A parameter was outside its valid range.
    InvalidParam(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: index has {expected}, got {got}")
            }
            IndexError::Empty => write!(f, "index or training set is empty"),
            IndexError::InvalidParam(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// The search interface of the three index families. Each is built
/// whole and then only read; the one index that changes after its build,
/// a served [`IvfIndex`] shard, changes through its inherent
/// [`IvfIndex::add`] / [`IvfIndex::take`].
///
/// Object-safe so heterogeneous deployments (e.g. the Figure 4 HNSW/IVF
/// comparison) can hold `Box<dyn VectorIndex>`.
pub trait VectorIndex: Send + Sync {
    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// Whether the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The similarity metric queries are ranked by.
    fn metric(&self) -> Metric;

    /// Resident bytes attributable to this index (codes, ids, graph links,
    /// centroids) — the quantity plotted in Figures 4 and 7.
    fn memory_bytes(&self) -> usize;

    /// Returns up to `k` nearest neighbors of `query`, best first, plus
    /// the work the scan performed ([`ScanStats`]). This is the primitive
    /// every index implements; the stats are collected inline, so asking
    /// for them costs nothing beyond the search itself.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::DimensionMismatch`] for a wrong-sized query
    /// and [`IndexError::Empty`] when the index holds no vectors.
    fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<(Vec<Neighbor>, ScanStats), IndexError>;

    /// Returns up to `k` nearest neighbors of `query`, best first.
    ///
    /// Convenience over [`Self::search_with_stats`] for callers that do
    /// not account work; both run the identical scan. When runtime
    /// telemetry is enabled ([`hermes_trace::enable`]), each call records
    /// an `index.scanned_codes` counter sample — the stats are collected
    /// inline by every implementation, so the sample is free.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::DimensionMismatch`] for a wrong-sized query
    /// and [`IndexError::Empty`] when the index holds no vectors.
    fn search(
        &self,
        query: &[f32],
        k: usize,
        params: &SearchParams,
    ) -> Result<Vec<Neighbor>, IndexError> {
        let (hits, stats) = self.search_with_stats(query, k, params)?;
        if hermes_trace::is_enabled() {
            hermes_trace::counter(
                hermes_trace::names::INDEX_SCANNED_CODES,
                stats.scanned_codes as u64,
            );
        }
        Ok(hits)
    }

    /// Searches a batch of queries on the shared work-stealing executor
    /// ([`hermes_pool::Pool::global`]): queries are stolen one at a time
    /// from an atomic cursor (FAISS-style dynamic scheduling), so skewed
    /// per-query cost cannot strand threads the way static chunking did.
    ///
    /// `threads` caps the fan-out: `0` uses the pool's full width
    /// (`HERMES_THREADS` or the machine's parallelism), `1` runs inline
    /// and sequentially, `t > 1` uses at most `t` threads. Results are
    /// bit-identical to the sequential loop for every setting, and a
    /// panicking worker re-raises its original payload on the caller.
    ///
    /// # Errors
    ///
    /// Propagates the first per-query error in input order.
    fn batch_search(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        params: &SearchParams,
        threads: usize,
    ) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        if threads == 1 || queries.len() <= 1 {
            return queries.iter().map(|q| self.search(q, k, params)).collect();
        }
        let cap = if threads == 0 { usize::MAX } else { threads };
        hermes_pool::Pool::global()
            .try_parallel_map_capped(queries, cap, |q| self.search(q, k, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_params_builder_chains() {
        let p = SearchParams::new().with_nprobe(8).with_ef_search(64);
        assert_eq!(p.nprobe, 8);
        assert_eq!(p.ef_search, 64);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IndexError::DimensionMismatch {
            expected: 768,
            got: 512,
        };
        assert!(e.to_string().contains("768"));
        assert!(IndexError::Empty.to_string().contains("empty"));
    }
}
