//! End-to-end Retrieval-Augmented Generation pipeline (paper Sections 2
//! and 6).
//!
//! This crate wires the Hermes retrieval stack into a *functional* RAG
//! loop on real (synthetic-corpus) indices:
//!
//! * [`encoder`] — a deterministic text→embedding stand-in for BGE-large,
//!   so examples can issue string queries.
//! * [`retriever`] — a unified front over the retrieval strategies the
//!   paper compares: monolithic IVF, naive split, centroid-routed, and
//!   Hermes hierarchical search, with per-call work accounting.
//! * [`pipeline`] — the strided generation loop of Figure 3: encode →
//!   retrieve → rerank → augment → generate `s` tokens → repeat.
//! * [`quality`] — the perplexity model behind Figure 5's
//!   stride/model-size trade-off.

pub mod encoder;
pub mod pipeline;
pub mod quality;
pub mod retriever;

pub use encoder::HashEncoder;
pub use pipeline::{RagPipeline, RagTranscript, StrideRecord};
pub use quality::PerplexityModel;
pub use retriever::{Retrieval, Retriever, RetrieverKind};
