//! Synthetic topical corpus generation (the Common Crawl / SPHERE
//! stand-in).

use hermes_math::distance::normalize;
use hermes_math::rng::{derive_seed, seeded_rng};
use hermes_math::Mat;

use crate::zipf::ZipfSampler;

/// Parameters of the Gaussian topic-mixture corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Number of document embeddings to generate.
    pub num_docs: usize,
    /// Embedding dimensionality (the paper's BGE-large setup is 768; tests
    /// use smaller dims for speed).
    pub dim: usize,
    /// Number of latent topics; K-means disaggregation can recover up to
    /// this many coherent clusters.
    pub num_topics: usize,
    /// Intra-topic Gaussian noise relative to unit topic separation.
    /// Small values give crisp clusters (easy routing); large values blur
    /// topic boundaries.
    pub topic_spread: f32,
    /// Zipf exponent for topic sizes (0 = equal-size topics). Nonzero
    /// values produce the natural size imbalance of Figure 13 (left).
    pub topic_size_skew: f64,
    /// Whether to L2-normalize document embeddings (encoder stand-ins emit
    /// unit vectors, matching BGE-style encoders).
    pub normalized: bool,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusSpec {
    /// A reasonable default corpus: crisp topics, mild size skew,
    /// normalized embeddings.
    pub fn new(num_docs: usize, dim: usize, num_topics: usize) -> Self {
        CorpusSpec {
            num_docs,
            dim,
            num_topics,
            topic_spread: 0.25,
            topic_size_skew: 0.3,
            normalized: true,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the intra-topic spread.
    pub fn with_spread(mut self, spread: f32) -> Self {
        self.topic_spread = spread;
        self
    }

    /// Sets the topic-size Zipf exponent.
    pub fn with_size_skew(mut self, skew: f64) -> Self {
        self.topic_size_skew = skew;
        self
    }
}

/// A generated corpus: embeddings plus the latent topic labels (used only
/// for diagnostics — the retrieval stack never sees them).
#[derive(Debug, Clone)]
pub struct Corpus {
    spec: CorpusSpec,
    embeddings: Mat,
    topic_of: Vec<u32>,
    topic_centroids: Mat,
}

impl Corpus {
    /// Generates a corpus according to `spec`.
    ///
    /// Topic centroids are random unit directions; documents are centroid
    /// plus isotropic Gaussian noise of scale `topic_spread`.
    ///
    /// # Panics
    ///
    /// Panics if `num_docs`, `dim` or `num_topics` is zero.
    pub fn generate(spec: CorpusSpec) -> Self {
        assert!(spec.num_docs > 0, "corpus needs documents");
        assert!(spec.dim > 0, "corpus needs dimensions");
        assert!(spec.num_topics > 0, "corpus needs topics");

        let mut topic_rng = seeded_rng(derive_seed(spec.seed, 1));
        let mut centroid_rows = Vec::with_capacity(spec.num_topics);
        for _ in 0..spec.num_topics {
            let mut c: Vec<f32> = (0..spec.dim).map(|_| gaussian(&mut topic_rng)).collect();
            normalize(&mut c);
            centroid_rows.push(c);
        }
        let topic_centroids = Mat::from_rows(&centroid_rows);

        let zipf = ZipfSampler::new(spec.num_topics, spec.topic_size_skew);
        let mut doc_rng = seeded_rng(derive_seed(spec.seed, 2));
        let mut rows = Vec::with_capacity(spec.num_docs);
        let mut topic_of = Vec::with_capacity(spec.num_docs);
        for _ in 0..spec.num_docs {
            let t = zipf.sample(&mut doc_rng);
            let centroid = topic_centroids.row(t);
            let mut v: Vec<f32> = centroid
                .iter()
                .map(|&x| x + gaussian(&mut doc_rng) * spec.topic_spread)
                .collect();
            if spec.normalized {
                normalize(&mut v);
            }
            rows.push(v);
            topic_of.push(t as u32);
        }

        Corpus {
            spec,
            embeddings: Mat::from_rows(&rows),
            topic_of,
            topic_centroids,
        }
    }

    /// The generation parameters.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Document embeddings, one per row.
    pub fn embeddings(&self) -> &Mat {
        &self.embeddings
    }

    /// Latent topic of each document (diagnostics only).
    pub fn topic_of(&self) -> &[u32] {
        &self.topic_of
    }

    /// The latent topic centroids (diagnostics only).
    pub fn topic_centroids(&self) -> &Mat {
        &self.topic_centroids
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.embeddings.rows()
    }

    /// Whether the corpus is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Standard normal via Box–Muller.
pub(crate) fn gaussian(rng: &mut hermes_math::rng::SeededRng) -> f32 {
    let u1: f32 = rng.next_f32().max(1e-7);
    let u2: f32 = rng.next_f32();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::distance::{cosine, norm};

    #[test]
    fn corpus_has_requested_shape() {
        let c = Corpus::generate(CorpusSpec::new(200, 16, 5).with_seed(1));
        assert_eq!(c.len(), 200);
        assert_eq!(c.embeddings().cols(), 16);
        assert_eq!(c.topic_of().len(), 200);
        assert_eq!(c.topic_centroids().rows(), 5);
    }

    #[test]
    fn normalized_corpus_has_unit_vectors() {
        let c = Corpus::generate(CorpusSpec::new(50, 8, 3).with_seed(2));
        for row in c.embeddings().iter_rows() {
            assert!((norm(row) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn documents_are_closer_to_own_topic_centroid() {
        let c = Corpus::generate(CorpusSpec::new(300, 32, 4).with_seed(3).with_spread(0.15));
        let mut correct = 0;
        for (i, row) in c.embeddings().iter_rows().enumerate() {
            let own = c.topic_of()[i] as usize;
            let best = (0..4)
                .max_by(|&a, &b| {
                    cosine(row, c.topic_centroids().row(a))
                        .partial_cmp(&cosine(row, c.topic_centroids().row(b)))
                        .unwrap()
                })
                .unwrap();
            if best == own {
                correct += 1;
            }
        }
        assert!(correct > 280, "only {correct}/300 docs nearest own topic");
    }

    #[test]
    fn size_skew_produces_imbalanced_topics() {
        let skewed = Corpus::generate(CorpusSpec::new(2000, 4, 8).with_seed(4).with_size_skew(1.0));
        let flat = Corpus::generate(CorpusSpec::new(2000, 4, 8).with_seed(4).with_size_skew(0.0));
        let imb = |c: &Corpus| {
            let mut s = [0usize; 8];
            for &t in c.topic_of() {
                s[t as usize] += 1;
            }
            *s.iter().max().unwrap() as f64 / (*s.iter().min().unwrap()).max(1) as f64
        };
        assert!(imb(&skewed) > imb(&flat));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(CorpusSpec::new(64, 8, 3).with_seed(9));
        let b = Corpus::generate(CorpusSpec::new(64, 8, 3).with_seed(9));
        assert_eq!(a.embeddings().as_slice(), b.embeddings().as_slice());
        assert_eq!(a.topic_of(), b.topic_of());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusSpec::new(64, 8, 3).with_seed(1));
        let b = Corpus::generate(CorpusSpec::new(64, 8, 3).with_seed(2));
        assert_ne!(a.embeddings().as_slice(), b.embeddings().as_slice());
    }
}
