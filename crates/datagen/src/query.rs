//! Query workload generation (the TriviaQA / Natural Questions stand-in).

use hermes_math::distance::normalize;
use hermes_math::rng::{derive_seed, seeded_rng};
use hermes_math::Mat;

use crate::corpus::{gaussian, Corpus};
use crate::zipf::ZipfSampler;

/// Parameters of a synthetic query workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Number of queries.
    pub num_queries: usize,
    /// Zipf exponent of query interest over topics. NQ-style workloads are
    /// skewed (~1.0): most questions hit a few popular topics, producing
    /// Figure 13's access-frequency imbalance.
    pub topic_interest_skew: f64,
    /// Query noise around the topic centroid, relative to unit separation.
    /// Larger values make routing harder (queries straddle clusters).
    pub query_spread: f32,
    /// RNG seed.
    pub seed: u64,
}

impl QuerySpec {
    /// NQ-like defaults: skew 1.0, spread 0.35.
    pub fn new(num_queries: usize) -> Self {
        QuerySpec {
            num_queries,
            topic_interest_skew: 1.0,
            query_spread: 0.35,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the topic-interest Zipf exponent.
    pub fn with_interest_skew(mut self, skew: f64) -> Self {
        self.topic_interest_skew = skew;
        self
    }

    /// Sets the query spread.
    pub fn with_spread(mut self, spread: f32) -> Self {
        self.query_spread = spread;
        self
    }
}

/// A generated query workload tied to a [`Corpus`]'s topic space.
#[derive(Debug, Clone)]
pub struct QuerySet {
    embeddings: Mat,
    topic_of: Vec<u32>,
}

impl QuerySet {
    /// Draws queries around the topics of `corpus` according to `spec`.
    ///
    /// Topic ranks are permuted per seed so "popular" topics differ across
    /// workloads, then sampled with Zipf skew.
    ///
    /// # Panics
    ///
    /// Panics if `spec.num_queries == 0`.
    pub fn generate(corpus: &Corpus, spec: QuerySpec) -> Self {
        assert!(spec.num_queries > 0, "workload needs queries");
        let num_topics = corpus.topic_centroids().rows();
        let zipf = ZipfSampler::new(num_topics, spec.topic_interest_skew);

        // Permute which topics are popular, seeded independently from the
        // corpus so workload shape and data shape decouple.
        let mut perm: Vec<usize> = (0..num_topics).collect();
        {
            seeded_rng(derive_seed(spec.seed, 10)).shuffle(&mut perm);
        }

        let mut rng = seeded_rng(derive_seed(spec.seed, 11));
        let normalized = corpus.spec().normalized;
        let mut rows = Vec::with_capacity(spec.num_queries);
        let mut topic_of = Vec::with_capacity(spec.num_queries);
        for _ in 0..spec.num_queries {
            let t = perm[zipf.sample(&mut rng)];
            let centroid = corpus.topic_centroids().row(t);
            let mut v: Vec<f32> = centroid
                .iter()
                .map(|&x| x + gaussian(&mut rng) * spec.query_spread)
                .collect();
            if normalized {
                normalize(&mut v);
            }
            rows.push(v);
            topic_of.push(t as u32);
        }
        QuerySet {
            embeddings: Mat::from_rows(&rows),
            topic_of,
        }
    }

    /// Query embeddings, one per row.
    pub fn embeddings(&self) -> &Mat {
        &self.embeddings
    }

    /// Latent topic of each query (diagnostics only).
    pub fn topic_of(&self) -> &[u32] {
        &self.topic_of
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.embeddings.rows()
    }

    /// Whether the workload is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queries as owned vectors — the shape the index batch APIs take.
    pub fn to_vecs(&self) -> Vec<Vec<f32>> {
        self.embeddings.iter_rows().map(|r| r.to_vec()).collect()
    }

    /// Splits the workload into batches of `batch_size` (last batch may be
    /// short).
    pub fn batches(&self, batch_size: usize) -> Vec<Vec<Vec<f32>>> {
        let vecs = self.to_vecs();
        vecs.chunks(batch_size.max(1))
            .map(<[Vec<f32>]>::to_vec)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusSpec;
    use hermes_math::distance::cosine;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusSpec::new(200, 16, 6).with_seed(1))
    }

    #[test]
    fn workload_has_requested_size() {
        let c = corpus();
        let q = QuerySet::generate(&c, QuerySpec::new(40).with_seed(2));
        assert_eq!(q.len(), 40);
        assert_eq!(q.embeddings().cols(), 16);
    }

    #[test]
    fn queries_align_with_their_topic() {
        let c = corpus();
        let q = QuerySet::generate(&c, QuerySpec::new(60).with_seed(3).with_spread(0.1));
        let mut correct = 0;
        for (i, row) in q.embeddings().iter_rows().enumerate() {
            let own = q.topic_of()[i] as usize;
            let best = (0..6)
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
        assert!(correct > 54, "only {correct}/60 queries nearest own topic");
    }

    #[test]
    fn interest_skew_concentrates_queries() {
        let c = corpus();
        let skewed =
            QuerySet::generate(&c, QuerySpec::new(600).with_seed(4).with_interest_skew(1.5));
        let uniform =
            QuerySet::generate(&c, QuerySpec::new(600).with_seed(4).with_interest_skew(0.0));
        let top_share = |q: &QuerySet| {
            let mut counts = [0usize; 6];
            for &t in q.topic_of() {
                counts[t as usize] += 1;
            }
            *counts.iter().max().unwrap() as f64 / 600.0
        };
        assert!(top_share(&skewed) > top_share(&uniform));
    }

    #[test]
    fn batches_cover_all_queries() {
        let c = corpus();
        let q = QuerySet::generate(&c, QuerySpec::new(25).with_seed(5));
        let batches = q.batches(8);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches.iter().map(Vec::len).sum::<usize>(), 25);
        assert_eq!(batches[3].len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let c = corpus();
        let a = QuerySet::generate(&c, QuerySpec::new(10).with_seed(6));
        let b = QuerySet::generate(&c, QuerySpec::new(10).with_seed(6));
        assert_eq!(a.embeddings().as_slice(), b.embeddings().as_slice());
    }
}
