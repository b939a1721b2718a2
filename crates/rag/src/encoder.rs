//! Deterministic query encoder — the BGE-large stand-in.
//!
//! Retrieval only consumes embedding vectors, so the encoder's job in
//! this reproduction is to map text to a stable point on the unit sphere.
//! Tokens hash into dimensions with signed contributions (a random
//! feature map), so similar strings (shared tokens) encode to nearby
//! vectors — enough structure for the examples to behave like a real
//! pipeline.

use hermes_math::distance::normalize;

/// Hash-based text encoder emitting unit vectors of a fixed dimension.
///
/// # Examples
///
/// ```
/// use hermes_rag::HashEncoder;
/// use hermes_math::distance::cosine;
///
/// let enc = HashEncoder::new(64);
/// let a = enc.encode("retrieval augmented generation at scale");
/// let b = enc.encode("retrieval augmented generation at scale");
/// let c = enc.encode("completely unrelated cooking recipe");
/// assert_eq!(a, b);
/// assert!(cosine(&a, &c) < 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEncoder {
    dim: usize,
}

impl HashEncoder {
    /// Creates an encoder for `dim`-dimensional embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "encoder needs dimensions");
        HashEncoder { dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes `text` to a unit vector. Empty or whitespace-only text
    /// encodes to a fixed "null query" direction.
    pub fn encode(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        let mut any = false;
        for token in text.split_whitespace() {
            any = true;
            let h = fnv1a(token.as_bytes());
            // Each token contributes to 4 dimensions with signed weights.
            for i in 0..4u64 {
                let hh = splitmix(h.wrapping_add(i));
                let d = (hh % self.dim as u64) as usize;
                let sign = if (hh >> 63) == 0 { 1.0 } else { -1.0 };
                v[d] += sign;
            }
        }
        if !any {
            v[0] = 1.0;
        }
        normalize(&mut v);
        v
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::distance::{cosine, norm};

    #[test]
    fn encodings_are_unit_length() {
        let enc = HashEncoder::new(32);
        for text in ["hello world", "a", "x y z w"] {
            let v = enc.encode(text);
            assert!((norm(&v) - 1.0).abs() < 1e-5, "{text}");
        }
    }

    #[test]
    fn shared_tokens_increase_similarity() {
        let enc = HashEncoder::new(128);
        let a = enc.encode("large language model retrieval datastore");
        let b = enc.encode("large language model retrieval index");
        let c = enc.encode("banana smoothie recipe blender kitchen");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn empty_text_is_well_defined() {
        let enc = HashEncoder::new(16);
        let v = enc.encode("   ");
        assert!((norm(&v) - 1.0).abs() < 1e-5);
        assert_eq!(enc.encode(""), v);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_dim_rejected() {
        let _ = HashEncoder::new(0);
    }
}
