//! Token-scale accounting: maps datastore sizes in tokens (the unit the
//! paper reports: 100M … 1T) to chunk counts and index bytes.

/// Describes a datastore by its token count, chunking and embedding width.
///
/// The paper's setup: ~100 tokens per chunk (10B tokens over 100M document
/// chunks, Figure 4) and d=768 BGE-large embeddings stored SQ8 (1 byte per
/// dimension) giving ≈71 GB per 10B tokens and ≈10 TB at 1T (Figure 7).
///
/// # Examples
///
/// ```
/// use hermes_datagen::DatastoreScale;
/// let ds = DatastoreScale::new(10_000_000_000, 100, 768);
/// assert_eq!(ds.num_chunks(), 100_000_000);
/// let gb = ds.index_bytes_sq8() as f64 / 1e9;
/// assert!(gb > 70.0 && gb < 90.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatastoreScale {
    /// Total datastore size in tokens.
    pub tokens: u64,
    /// Tokens per document chunk.
    pub chunk_tokens: u32,
    /// Embedding dimensionality.
    pub dim: u32,
}

impl DatastoreScale {
    /// Creates a scale descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens` or `dim` is zero.
    pub fn new(tokens: u64, chunk_tokens: u32, dim: u32) -> Self {
        assert!(chunk_tokens > 0, "chunks need tokens");
        assert!(dim > 0, "embeddings need dimensions");
        DatastoreScale {
            tokens,
            chunk_tokens,
            dim,
        }
    }

    /// The paper's configuration: 100-token chunks, 768-dim embeddings.
    pub fn paper(tokens: u64) -> Self {
        DatastoreScale::new(tokens, 100, 768)
    }

    /// Number of document chunks (= vectors in the index).
    pub fn num_chunks(&self) -> u64 {
        self.tokens / self.chunk_tokens as u64
    }

    /// Index bytes with SQ8 storage: codes (1 B/dim) + ids (8 B) + ~5%
    /// coarse-quantizer/list overhead.
    pub fn index_bytes_sq8(&self) -> u64 {
        let per_vec = self.dim as u64 + 8;
        let raw = self.num_chunks() * per_vec;
        raw + raw / 20
    }

    /// Index bytes with HNSW-fp16 storage: vectors (2 B/dim) + graph links
    /// (≈2·M·4 B with M=16, counting both directions) + ids. Calibrated to
    /// the paper's Figure 4 ratio of ≈2.3× over IVF-SQ8.
    pub fn index_bytes_hnsw(&self) -> u64 {
        let links = 2 * 16 * 4;
        let per_vec = 2 * self.dim as u64 + links + 8;
        self.num_chunks() * per_vec
    }

    /// Splits the datastore into `n` equal shards (token counts; the last
    /// shard absorbs the remainder).
    pub fn split(&self, n: usize) -> Vec<DatastoreScale> {
        assert!(n > 0, "cannot split into zero shards");
        let base = self.tokens / n as u64;
        (0..n)
            .map(|i| {
                let extra = if i == n - 1 {
                    self.tokens % n as u64
                } else {
                    0
                };
                DatastoreScale::new(base + extra, self.chunk_tokens, self.dim)
            })
            .collect()
    }
}

impl std::fmt::Display for DatastoreScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", format_tokens(self.tokens))
    }
}

/// Human-readable token count ("100M", "10B", "1T") used in every bench
/// table.
pub fn format_tokens(tokens: u64) -> String {
    const T: u64 = 1_000_000_000_000;
    const B: u64 = 1_000_000_000;
    const M: u64 = 1_000_000;
    const K: u64 = 1_000;
    let (div, suffix) = if tokens >= T {
        (T, "T")
    } else if tokens >= B {
        (B, "B")
    } else if tokens >= M {
        (M, "M")
    } else if tokens >= K {
        (K, "K")
    } else {
        (1, "")
    };
    let whole = tokens / div;
    let frac = (tokens % div) * 10 / div;
    if frac == 0 {
        format!("{whole}{suffix}")
    } else {
        format!("{whole}.{frac}{suffix}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_math_matches_paper_figure_4() {
        // 10B tokens over 100-token chunks = 100M vectors.
        let ds = DatastoreScale::paper(10_000_000_000);
        assert_eq!(ds.num_chunks(), 100_000_000);
    }

    #[test]
    fn sq8_bytes_near_71_gb_at_10b_tokens() {
        let ds = DatastoreScale::paper(10_000_000_000);
        let gb = ds.index_bytes_sq8() as f64 / 1e9;
        assert!((71.0..90.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn hnsw_to_ivf_memory_ratio_near_2_3() {
        let ds = DatastoreScale::paper(10_000_000_000);
        let ratio = ds.index_bytes_hnsw() as f64 / ds.index_bytes_sq8() as f64;
        assert!((1.9..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn trillion_tokens_near_10_tb() {
        let ds = DatastoreScale::paper(1_000_000_000_000);
        let tb = ds.index_bytes_sq8() as f64 / 1e12;
        assert!((7.0..11.0).contains(&tb), "{tb} TB");
    }

    #[test]
    fn split_preserves_total_tokens() {
        let ds = DatastoreScale::paper(100_000_000_003);
        let shards = ds.split(10);
        assert_eq!(shards.len(), 10);
        assert_eq!(shards.iter().map(|s| s.tokens).sum::<u64>(), ds.tokens);
    }

    #[test]
    fn format_tokens_uses_si_suffixes() {
        assert_eq!(format_tokens(100_000_000), "100M");
        assert_eq!(format_tokens(10_000_000_000), "10B");
        assert_eq!(format_tokens(1_000_000_000_000), "1T");
        assert_eq!(format_tokens(1_500_000_000), "1.5B");
        assert_eq!(format_tokens(512), "512");
    }

    #[test]
    fn display_matches_format_tokens() {
        assert_eq!(DatastoreScale::paper(10_000_000_000).to_string(), "10B");
    }
}
