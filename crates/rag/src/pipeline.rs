//! The strided RAG generation loop (paper Figure 3).
//!
//! Online inference: encode the query, retrieve the top-k chunks, rerank,
//! prepend the best chunk, generate `s` tokens, fold the new tokens into
//! the query representation, and repeat until the output budget is spent.
//! Generation itself is simulated (token *content* affects no measured
//! quantity), but retrieval runs for real against the configured
//! [`Retriever`], so transcripts expose genuine stride-to-stride dynamics
//! — including document overlap across strides, the property RAGCache
//! exploits.

use hermes_core::HermesError;
use hermes_datagen::ChunkStore;
use hermes_math::distance::normalize;
use hermes_math::rng::{derive_seed, seeded_rng};

use crate::retriever::{Retrieval, Retriever};

/// What happened in one retrieval stride.
#[derive(Debug, Clone, PartialEq)]
pub struct StrideRecord {
    /// Stride index (0-based).
    pub stride: u32,
    /// Document ids retrieved (top-k, best first).
    pub retrieved: Vec<u64>,
    /// The reranked chunk prepended to the context.
    pub augmented_chunk: u64,
    /// Vector codes scanned by this stride's retrieval.
    pub scanned_codes: usize,
    /// Tokens generated in this stride.
    pub tokens: u32,
}

/// A full generation transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct RagTranscript {
    /// Per-stride records, in order.
    pub strides: Vec<StrideRecord>,
    /// Total output tokens generated.
    pub output_tokens: u32,
    /// Synthetic output text (one word per token).
    pub text: String,
}

impl RagTranscript {
    /// Total retrieval work across strides, in scanned codes.
    pub fn total_scanned_codes(&self) -> usize {
        self.strides.iter().map(|s| s.scanned_codes).sum()
    }
}

/// The strided RAG pipeline.
///
/// # Examples
///
/// ```
/// use hermes_core::HermesConfig;
/// use hermes_datagen::ChunkStore;
/// use hermes_math::Mat;
/// use hermes_rag::{RagPipeline, Retriever, RetrieverKind};
///
/// let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![(i % 4) as f32, 1.0]).collect();
/// let cfg = HermesConfig::new(4).with_clusters_to_search(2);
/// let retriever = Retriever::build(RetrieverKind::Hermes, &Mat::from_rows(&rows), &cfg)?;
/// let pipeline = RagPipeline::new(retriever, ChunkStore::new(100))
///     .with_output_tokens(64)
///     .with_stride(16);
/// let transcript = pipeline.generate(&[1.0, 1.0], 7)?;
/// assert_eq!(transcript.strides.len(), 4);
/// # Ok::<(), hermes_core::HermesError>(())
/// ```
#[derive(Debug)]
pub struct RagPipeline {
    retriever: Retriever,
    chunks: ChunkStore,
    output_tokens: u32,
    stride: u32,
    /// How strongly generated context drifts the query between strides.
    drift: f32,
    /// PipeRAG mode: stride `i`'s documents are retrieved with stride
    /// `i-1`'s (stale) query so retrieval can overlap decode.
    stale_prefetch: bool,
}

impl RagPipeline {
    /// Builds a pipeline with the paper's defaults (256 output tokens,
    /// stride 16, mild query drift).
    pub fn new(retriever: Retriever, chunks: ChunkStore) -> Self {
        RagPipeline {
            retriever,
            chunks,
            output_tokens: 256,
            stride: 16,
            drift: 0.15,
            stale_prefetch: false,
        }
    }

    /// Enables PipeRAG-style stale-query prefetching: each stride's
    /// retrieval uses the *previous* stride's query state, the
    /// approximation that lets retrieval overlap with decoding
    /// (Section 3). Quality degrades slightly in exchange for the
    /// overlap; the trade is measurable via transcripts.
    pub fn with_stale_prefetch(mut self, enabled: bool) -> Self {
        self.stale_prefetch = enabled;
        self
    }

    /// Sets the output token budget.
    pub fn with_output_tokens(mut self, tokens: u32) -> Self {
        self.output_tokens = tokens;
        self
    }

    /// Sets the retrieval stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(mut self, stride: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stride = stride;
        self
    }

    /// The retriever in use.
    pub fn retriever(&self) -> &Retriever {
        &self.retriever
    }

    /// Runs the full strided generation for one query embedding.
    ///
    /// # Errors
    ///
    /// Propagates retrieval failures (e.g. dimension mismatch).
    pub fn generate(&self, query: &[f32], seed: u64) -> Result<RagTranscript, HermesError> {
        let strides = (self.output_tokens / self.stride).max(1);
        let mut rng = seeded_rng(derive_seed(seed, 0x5712));
        let mut q = query.to_vec();
        // PipeRAG mode retrieves with the query as it was one stride ago.
        let mut stale_q = query.to_vec();
        let mut records = Vec::with_capacity(strides as usize);
        let mut text = String::new();

        for stride_idx in 0..strides {
            let retrieval_query = if self.stale_prefetch { &stale_q } else { &q };
            let Retrieval {
                hits,
                scanned_codes,
                ..
            } = self.retriever.retrieve(retrieval_query)?;
            let best = Retriever::best_of(&hits).unwrap_or(0);
            let chunk = self.chunks.chunk(best);

            // "Generate" this stride's tokens: synthetic words seeded by
            // the augmented chunk, so output is deterministic per query.
            for t in 0..self.stride {
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(synth_word(best, stride_idx, t));
            }

            records.push(StrideRecord {
                stride: stride_idx,
                retrieved: hits.iter().map(|n| n.id).collect(),
                augmented_chunk: chunk.id,
                scanned_codes,
                tokens: self.stride,
            });

            // Fold the generated context back into the query: drift toward
            // a chunk-specific direction plus a little noise — the
            // mechanism that makes strided retrieval return fresh
            // documents over time.
            let mut dir: Vec<f32> = (0..q.len())
                .map(|d| {
                    let h = hermes_math::rng::derive_seed(best, d as u64);
                    ((h % 1000) as f32 / 500.0) - 1.0
                })
                .collect();
            normalize(&mut dir);
            stale_q.copy_from_slice(&q);
            for (qi, di) in q.iter_mut().zip(&dir) {
                *qi += self.drift * di + self.drift * 0.2 * (rng.next_f32() - 0.5);
            }
            normalize(&mut q);
        }

        Ok(RagTranscript {
            strides: records,
            output_tokens: strides * self.stride,
            text,
        })
    }
}

fn synth_word(chunk: u64, stride: u32, token: u32) -> &'static str {
    const WORDS: &[&str] = &[
        "the",
        "retrieved",
        "context",
        "grounds",
        "this",
        "answer",
        "with",
        "fresh",
        "evidence",
        "from",
        "datastore",
        "clusters",
        "ranked",
        "by",
        "sampling",
        "relevance",
    ];
    let h = hermes_math::rng::derive_seed(chunk, ((stride as u64) << 32) | token as u64);
    WORDS[(h % WORDS.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retriever::RetrieverKind;
    use hermes_core::HermesConfig;
    use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};

    fn pipeline(kind: RetrieverKind) -> (RagPipeline, QuerySet) {
        let corpus = Corpus::generate(CorpusSpec::new(600, 16, 6).with_seed(5));
        let queries = QuerySet::generate(&corpus, QuerySpec::new(4).with_seed(6));
        let cfg = HermesConfig::new(6).with_seed(7).with_clusters_to_search(2);
        let retriever = Retriever::build(kind, corpus.embeddings(), &cfg).unwrap();
        (
            RagPipeline::new(retriever, ChunkStore::new(100))
                .with_output_tokens(64)
                .with_stride(16),
            queries,
        )
    }

    #[test]
    fn generates_expected_stride_count_and_tokens() {
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let t = p.generate(q.embeddings().row(0), 1).unwrap();
        assert_eq!(t.strides.len(), 4);
        assert_eq!(t.output_tokens, 64);
        assert_eq!(t.text.split(' ').count(), 64);
    }

    #[test]
    fn each_stride_retrieves_k_documents() {
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let t = p.generate(q.embeddings().row(1), 2).unwrap();
        for s in &t.strides {
            assert_eq!(s.retrieved.len(), 5);
            assert!(s.retrieved.contains(&s.augmented_chunk));
            assert!(s.scanned_codes > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let a = p.generate(q.embeddings().row(0), 42).unwrap();
        let b = p.generate(q.embeddings().row(0), 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn query_drift_refreshes_documents_across_strides() {
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let t = p.generate(q.embeddings().row(2), 3).unwrap();
        let first = &t.strides[0].retrieved;
        let last = &t.strides.last().unwrap().retrieved;
        assert_ne!(first, last, "drift should change the retrieved set");
    }

    #[test]
    fn consecutive_strides_overlap_more_than_distant_ones() {
        // RAGCache's premise: adjacent strides share documents.
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let t = p.generate(q.embeddings().row(0), 4).unwrap();
        let overlap = (t.strides.windows(2))
            .any(|w| w[1].retrieved.iter().any(|id| w[0].retrieved.contains(id)));
        assert!(overlap, "no adjacent-stride overlap at mild drift");
    }

    #[test]
    fn monolithic_pipeline_works_too() {
        let (p, q) = pipeline(RetrieverKind::Monolithic);
        let t = p.generate(q.embeddings().row(0), 5).unwrap();
        assert_eq!(t.strides.len(), 4);
        assert!(t.total_scanned_codes() > 0);
    }

    #[test]
    fn smaller_stride_means_more_retrievals() {
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let p4 = p.with_stride(4);
        let t = p4.generate(q.embeddings().row(0), 6).unwrap();
        assert_eq!(t.strides.len(), 16);
    }

    #[test]
    fn stale_prefetch_lags_one_stride() {
        // With staleness, stride i retrieves what a fresh pipeline
        // retrieved at stride i-1 whenever the drift path is identical —
        // first stride is always fresh.
        let (p, q) = pipeline(RetrieverKind::Hermes);
        let fresh = p.generate(q.embeddings().row(0), 42).unwrap();
        let (p2, _) = pipeline(RetrieverKind::Hermes);
        let stale = p2
            .with_stale_prefetch(true)
            .generate(q.embeddings().row(0), 42)
            .unwrap();
        // First stride has no staleness to apply.
        assert_eq!(stale.strides[0].retrieved, fresh.strides[0].retrieved);
        // Second stride retrieves with the initial query again (lag 1).
        assert_eq!(stale.strides[1].retrieved, fresh.strides[0].retrieved);
        // Because generation (and thus drift) follows the stale documents,
        // the transcripts may diverge later — but staleness must never
        // change the stride count or token accounting.
        assert_eq!(stale.strides.len(), fresh.strides.len());
        assert_eq!(stale.output_tokens, fresh.output_tokens);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let (p, _) = pipeline(RetrieverKind::Hermes);
        let _ = p.with_stride(0);
    }
}
