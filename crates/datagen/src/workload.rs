//! Temporal query streams — the cache-facing view of a workload.
//!
//! [`QuerySet`] captures *what* users ask (topic mix, spread); this
//! module captures *when they ask it again*. A semantic cache only pays
//! off under temporal locality, so the `ext_adaptive` benchmark needs
//! workloads whose repetition structure is a knob:
//!
//! * [`StreamKind::Repeated`] — exact resubmission of popular queries
//!   with Zipf frequency (the Figure 13 skew applied to *queries*, not
//!   topics). Upper bound for an exact-match cache.
//! * [`StreamKind::Bursty`] — a trending query is asked many times in a
//!   row by different users, each phrasing it slightly differently
//!   (small jitter). Exercises the near-duplicate semantic layer.
//! * [`StreamKind::Drifting`] — interest moves on: each burst jitters
//!   around a pool query, and the anchor itself advances through the
//!   pool so old entries stop matching. Worst case for a cache sized
//!   below the working set.
//!
//! Streams are pure functions of `(pool, spec)` — the same seed always
//! replays the same byte-identical trace, so cache hit rates measured
//! by the bench are reproducible.

use std::collections::HashMap;
use std::hash::Hash;

use hermes_math::rng::{derive_seed, seeded_rng, SeededRng};

use crate::corpus::gaussian;
use crate::query::QuerySet;
use crate::zipf::ZipfSampler;

/// Repetition structure of a [`query_stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamKind {
    /// Resubmit pool queries verbatim with Zipf(`skew`) popularity.
    Repeated {
        /// Zipf exponent over pool queries (0 = uniform).
        skew: f64,
    },
    /// Runs of `burst` near-duplicates (`jitter` noise per coordinate)
    /// around Zipf-popular pool queries.
    Bursty {
        /// Queries per burst.
        burst: usize,
        /// Per-coordinate Gaussian jitter within a burst.
        jitter: f32,
        /// Zipf exponent picking each burst's anchor.
        skew: f64,
    },
    /// Bursts whose anchor walks forward through the pool, so the
    /// popular set keeps changing.
    Drifting {
        /// Queries per anchor before interest moves on.
        dwell: usize,
        /// Per-coordinate Gaussian jitter around the current anchor.
        jitter: f32,
    },
}

/// Parameters of a temporal query stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Total queries emitted.
    pub length: usize,
    /// Repetition structure.
    pub kind: StreamKind,
    /// RNG seed.
    pub seed: u64,
}

impl StreamSpec {
    /// A repeated-query stream with NQ-like skew 1.0.
    pub fn repeated(length: usize) -> Self {
        StreamSpec {
            length,
            kind: StreamKind::Repeated { skew: 1.0 },
            seed: 0,
        }
    }

    /// A bursty stream: bursts of 8 near-duplicates, jitter 1e-3.
    pub fn bursty(length: usize) -> Self {
        StreamSpec {
            length,
            kind: StreamKind::Bursty {
                burst: 8,
                jitter: 1e-3,
                skew: 1.0,
            },
            seed: 0,
        }
    }

    /// A drifting stream: dwell 8 per anchor, paraphrase-scale jitter
    /// 0.03 — wide enough that followers usually fall outside a tight
    /// semantic threshold, so the drift defeats both cache layers.
    pub fn drifting(length: usize) -> Self {
        StreamSpec {
            length,
            kind: StreamKind::Drifting {
                dwell: 8,
                jitter: 0.03,
            },
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A textbook LRU cache over stream keys (anything hashable — a pool
/// index, a query's bit pattern): the hit ratio a replacement
/// policy has to beat on a stream to earn its bookkeeping. Reference
/// speed (an eviction scans every resident key), exact recency.
///
/// # Examples
///
/// ```
/// use hermes_datagen::LruModel;
///
/// let mut lru = LruModel::new(2);
/// let hits: Vec<bool> = [1, 2, 1, 3, 2].into_iter().map(|k| lru.request(k)).collect();
/// assert_eq!(hits, [false, false, true, false, false]);
/// ```
#[derive(Debug, Clone)]
pub struct LruModel<K> {
    capacity: usize,
    clock: u64,
    last_use: HashMap<K, u64>,
}

impl<K: Hash + Eq + Clone> LruModel<K> {
    /// An empty cache of `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lru capacity must be positive");
        LruModel {
            capacity,
            clock: 0,
            last_use: HashMap::new(),
        }
    }

    /// Requests `key` (admitting it on a miss, evicting the least
    /// recently requested key if over capacity); reports whether it hit.
    pub fn request(&mut self, key: K) -> bool {
        self.clock += 1;
        let hit = self.last_use.insert(key, self.clock).is_some();
        if self.last_use.len() > self.capacity {
            // Stamps are unique, so the minimum does not depend on the
            // map's iteration order.
            let (lru, _) = self
                .last_use
                .iter()
                .min_by_key(|(_, &t)| t)
                .expect("an over-full cache is not empty");
            let lru = lru.clone();
            self.last_use.remove(&lru);
        }
        hit
    }
}

/// Emits a temporal stream of `spec.length` queries over `pool`.
///
/// # Panics
///
/// Panics if `spec.length == 0`, or on a `Bursty`/`Drifting` kind with
/// a zero burst/dwell.
///
/// # Examples
///
/// ```
/// use hermes_datagen::{query_stream, Corpus, CorpusSpec, QuerySet, QuerySpec, StreamSpec};
///
/// let corpus = Corpus::generate(CorpusSpec::new(100, 8, 4).with_seed(1));
/// let pool = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(2));
/// let stream = query_stream(&pool, StreamSpec::repeated(50).with_seed(3));
/// assert_eq!(stream.len(), 50);
/// ```
pub fn query_stream(pool: &QuerySet, spec: StreamSpec) -> Vec<Vec<f32>> {
    assert!(spec.length > 0, "stream needs queries");
    let mut rng = seeded_rng(derive_seed(spec.seed, 20));
    match spec.kind {
        StreamKind::Repeated { skew } => {
            let zipf = ZipfSampler::new(pool.len(), skew);
            (0..spec.length)
                .map(|_| pool.embeddings().row(zipf.sample(&mut rng)).to_vec())
                .collect()
        }
        StreamKind::Bursty {
            burst,
            jitter,
            skew,
        } => {
            assert!(burst > 0, "burst must be positive");
            let zipf = ZipfSampler::new(pool.len(), skew);
            let mut out = Vec::with_capacity(spec.length);
            while out.len() < spec.length {
                let anchor = pool.embeddings().row(zipf.sample(&mut rng));
                // First ask is verbatim; followers jitter around it.
                out.push(anchor.to_vec());
                for _ in 1..burst {
                    if out.len() == spec.length {
                        break;
                    }
                    out.push(jittered(anchor, jitter, &mut rng));
                }
            }
            out
        }
        StreamKind::Drifting { dwell, jitter } => {
            assert!(dwell > 0, "dwell must be positive");
            let mut out = Vec::with_capacity(spec.length);
            let mut anchor = 0usize;
            while out.len() < spec.length {
                let row = pool.embeddings().row(anchor % pool.len());
                out.push(row.to_vec());
                for _ in 1..dwell {
                    if out.len() == spec.length {
                        break;
                    }
                    out.push(jittered(row, jitter, &mut rng));
                }
                anchor += 1;
            }
            out
        }
    }
}

fn jittered(anchor: &[f32], jitter: f32, rng: &mut SeededRng) -> Vec<f32> {
    anchor.iter().map(|&x| x + gaussian(rng) * jitter).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusSpec};
    use crate::query::QuerySpec;
    use hermes_math::distance::cosine;

    fn pool() -> QuerySet {
        let corpus = Corpus::generate(CorpusSpec::new(200, 12, 5).with_seed(7));
        QuerySet::generate(&corpus, QuerySpec::new(16).with_seed(8))
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let p = pool();
        for spec in [
            StreamSpec::repeated(40).with_seed(9),
            StreamSpec::bursty(40).with_seed(9),
            StreamSpec::drifting(40).with_seed(9),
        ] {
            let a = query_stream(&p, spec);
            let b = query_stream(&p, spec);
            assert_eq!(a, b, "{:?}", spec.kind);
            assert_eq!(a.len(), 40);
        }
    }

    #[test]
    fn repeated_stream_resubmits_verbatim() {
        let p = pool();
        let stream = query_stream(&p, StreamSpec::repeated(100).with_seed(10));
        let rows: Vec<&[f32]> = p.embeddings().iter_rows().collect();
        for q in &stream {
            assert!(rows.contains(&q.as_slice()));
        }
        // Zipf skew means some query repeats exactly.
        let mut counts = vec![0usize; rows.len()];
        for q in &stream {
            let i = rows.iter().position(|r| *r == q.as_slice()).unwrap();
            counts[i] += 1;
        }
        assert!(counts.iter().any(|&c| c > 1), "no repetition at length 100");
    }

    #[test]
    fn bursty_stream_runs_are_near_duplicates() {
        let p = pool();
        let spec = StreamSpec::bursty(32).with_seed(11);
        let stream = query_stream(&p, spec);
        // Each burst of 8 stays within tight cosine of its anchor.
        for chunk in stream.chunks(8) {
            for q in chunk {
                assert!(cosine(&chunk[0], q) > 0.999, "burst member drifted");
            }
        }
    }

    #[test]
    fn drifting_stream_changes_anchor() {
        let p = pool();
        let spec = StreamSpec::drifting(32).with_seed(12);
        let stream = query_stream(&p, spec);
        // Consecutive dwell blocks anchor on different pool queries.
        assert_ne!(stream[0], stream[8]);
        assert_eq!(stream[0].as_slice(), p.embeddings().row(0));
        assert_eq!(stream[8].as_slice(), p.embeddings().row(1));
    }

    #[test]
    #[should_panic(expected = "stream needs queries")]
    fn empty_stream_panics() {
        let p = pool();
        let _ = query_stream(&p, StreamSpec::repeated(0));
    }
}
