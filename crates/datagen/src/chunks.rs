//! Deterministic synthetic document chunks for the RAG augmentation step.
//!
//! The retrieval stack operates on vectors; the *pipeline* additionally
//! needs the mapping `document id -> text chunk` (paper Figure 3). Real
//! chunk text is irrelevant to every measured quantity, so chunks are
//! synthesized deterministically from the id.

/// A retrieved document chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Global document id.
    pub id: u64,
    /// Synthetic chunk body.
    pub text: String,
    /// Token count charged to the LLM context when this chunk is
    /// prepended.
    pub tokens: u32,
}

/// Maps document ids to synthetic fixed-length chunks.
///
/// # Examples
///
/// ```
/// use hermes_datagen::ChunkStore;
/// let store = ChunkStore::new(100);
/// let chunk = store.chunk(42);
/// assert_eq!(chunk.tokens, 100);
/// assert_eq!(store.chunk(42), chunk); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStore {
    chunk_tokens: u32,
}

impl ChunkStore {
    /// Creates a store emitting `chunk_tokens`-token chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens == 0`.
    pub fn new(chunk_tokens: u32) -> Self {
        assert!(chunk_tokens > 0, "chunks need tokens");
        ChunkStore { chunk_tokens }
    }

    /// Tokens per chunk.
    pub fn chunk_tokens(&self) -> u32 {
        self.chunk_tokens
    }

    /// Fetches the chunk for `id`.
    pub fn chunk(&self, id: u64) -> Chunk {
        // One synthetic "word" per token keeps token accounting exact.
        let mut text = String::with_capacity(self.chunk_tokens as usize * 8);
        let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for i in 0..self.chunk_tokens {
            if i > 0 {
                text.push(' ');
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            text.push_str(WORDS[(state % WORDS.len() as u64) as usize]);
        }
        Chunk {
            id,
            text,
            tokens: self.chunk_tokens,
        }
    }

    /// Fetches several chunks, preserving order.
    pub fn chunks(&self, ids: &[u64]) -> Vec<Chunk> {
        ids.iter().map(|&id| self.chunk(id)).collect()
    }
}

const WORDS: &[&str] = &[
    "retrieval",
    "datastore",
    "cluster",
    "index",
    "query",
    "vector",
    "token",
    "context",
    "search",
    "probe",
    "centroid",
    "latency",
    "energy",
    "batch",
    "stride",
    "document",
    "embedding",
    "sample",
    "rank",
    "augment",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_deterministic_per_id() {
        let store = ChunkStore::new(32);
        assert_eq!(store.chunk(7), store.chunk(7));
        assert_ne!(store.chunk(7).text, store.chunk(8).text);
    }

    #[test]
    fn token_count_matches_word_count() {
        let store = ChunkStore::new(16);
        let c = store.chunk(3);
        assert_eq!(c.text.split(' ').count(), 16);
        assert_eq!(c.tokens, 16);
    }

    #[test]
    fn batch_fetch_preserves_order() {
        let store = ChunkStore::new(8);
        let got = store.chunks(&[5, 1, 9]);
        assert_eq!(got.iter().map(|c| c.id).collect::<Vec<_>>(), vec![5, 1, 9]);
    }

    #[test]
    #[should_panic(expected = "tokens")]
    fn zero_token_chunks_rejected() {
        let _ = ChunkStore::new(0);
    }
}
