//! Vector codecs: the quantization schemes of the paper's Table 1.
//!
//! An IVF index stores each vector as a fixed-size byte code. The paper
//! compares `Flat` (raw f32), scalar quantization (`SQ8`, `SQ4`), product
//! quantization (`PQ256`, `PQ384`) and rotated product quantization
//! (`OPQ256`, `OPQ384`), choosing **IVF-SQ8** as the deployment point:
//! 4× smaller than Flat with near-identical recall.
//!
//! [`Codec`] is the trained codec; [`CodecSpec`] describes what to train;
//! [`QueryScorer`] performs asymmetric scoring — the query stays in f32
//! while database vectors stay encoded, with PQ using per-subspace lookup
//! tables (ADC).
//!
//! *Substitution note:* true OPQ alternates PQ training with a Procrustes
//! rotation update. We use a seeded random orthonormal rotation before PQ,
//! which captures OPQ's subspace-decorrelation effect on the synthetic
//! corpora used here; DESIGN.md records this simplification.
//!
//! # Examples
//!
//! ```
//! use hermes_math::{Mat, Metric};
//! use hermes_quant::{Codec, CodecSpec};
//!
//! let data = Mat::from_rows(&(0..32).map(|i| vec![i as f32, 1.0, -i as f32, 0.5]).collect::<Vec<_>>());
//! let codec = Codec::train(CodecSpec::Sq8, &data, 0);
//! let code = codec.encode(data.row(3));
//! assert_eq!(code.len(), 4); // one byte per dimension
//! let approx = codec.decode(&code);
//! assert!((approx[0] - 3.0).abs() < 0.5);
//! ```

use std::borrow::Cow;

use hermes_kmeans::{KMeans, KMeansConfig};
use hermes_math::distance::{inner_product, l2_sq};
use hermes_math::rng::{derive_seed, seeded_rng};
use hermes_math::simd::{simd_level, SimdLevel};
use hermes_math::{Mat, Metric};

/// Which codec to train; mirrors the rows of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecSpec {
    /// Raw little-endian f32 storage (4 bytes/dim).
    Flat,
    /// 8-bit scalar quantization (1 byte/dim) — the paper's deployment pick.
    Sq8,
    /// 4-bit scalar quantization (0.5 bytes/dim).
    Sq4,
    /// Product quantization with `m` subspaces of 256 centroids each
    /// (1 byte per subspace).
    Pq {
        /// Number of subspaces; must divide the dimension.
        m: usize,
    },
    /// PQ preceded by a seeded random orthonormal rotation (OPQ stand-in).
    Opq {
        /// Number of subspaces; must divide the dimension.
        m: usize,
    },
}

impl CodecSpec {
    /// Bytes per encoded vector at dimensionality `dim`.
    pub fn code_size(self, dim: usize) -> usize {
        match self {
            CodecSpec::Flat => dim * 4,
            CodecSpec::Sq8 => dim,
            CodecSpec::Sq4 => dim.div_ceil(2),
            CodecSpec::Pq { m } | CodecSpec::Opq { m } => m,
        }
    }

    /// Table-1-style label.
    pub fn label(self) -> String {
        match self {
            CodecSpec::Flat => "Flat".to_string(),
            CodecSpec::Sq8 => "SQ8".to_string(),
            CodecSpec::Sq4 => "SQ4".to_string(),
            CodecSpec::Pq { m } => format!("PQ{m}"),
            CodecSpec::Opq { m } => format!("OPQ{m}"),
        }
    }
}

impl std::fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A trained vector codec.
#[derive(Debug, Clone)]
pub struct Codec {
    dim: usize,
    kind: CodecKind,
}

#[derive(Debug, Clone)]
enum CodecKind {
    Flat,
    Sq(ScalarQuantizer),
    Pq(ProductQuantizer),
}

impl Codec {
    /// Trains a codec of the requested kind on `training` vectors.
    ///
    /// Training cost: `Flat` is free; `SQ` scans once for per-dimension
    /// ranges; `PQ`/`OPQ` run K-means per subspace.
    ///
    /// # Panics
    ///
    /// Panics if `training` is empty, or for PQ/OPQ if `m` does not divide
    /// the dimension or is zero.
    pub fn train(spec: CodecSpec, training: &Mat, seed: u64) -> Self {
        assert!(training.rows() > 0, "codec training set is empty");
        let dim = training.cols();
        let kind = match spec {
            CodecSpec::Flat => CodecKind::Flat,
            CodecSpec::Sq8 => CodecKind::Sq(ScalarQuantizer::train(training, SqBits::B8)),
            CodecSpec::Sq4 => CodecKind::Sq(ScalarQuantizer::train(training, SqBits::B4)),
            CodecSpec::Pq { m } => CodecKind::Pq(ProductQuantizer::train(training, m, None, seed)),
            CodecSpec::Opq { m } => {
                let rotation = random_rotation(dim, derive_seed(seed, 0xC0DE));
                CodecKind::Pq(ProductQuantizer::train(training, m, Some(rotation), seed))
            }
        };
        Codec { dim, kind }
    }

    /// Dimensionality of vectors this codec encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes per encoded vector.
    pub fn code_size(&self) -> usize {
        match &self.kind {
            CodecKind::Flat => self.dim * 4,
            CodecKind::Sq(sq) => sq.code_size(),
            CodecKind::Pq(pq) => pq.m,
        }
    }

    /// Encodes `v` into a fresh byte buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.code_size());
        self.encode_into(v, &mut buf);
        buf
    }

    /// Appends the encoding of `v` to `out` — the bulk-ingest path used by
    /// the IVF inverted lists.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        match &self.kind {
            CodecKind::Flat => {
                for &x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            CodecKind::Sq(sq) => sq.encode_into(v, out),
            CodecKind::Pq(pq) => pq.encode_into(v, out),
        }
    }

    /// Reconstructs an approximate vector from a code.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.code_size()`.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.code_size(), "code size mismatch");
        match &self.kind {
            CodecKind::Flat => code
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            CodecKind::Sq(sq) => sq.decode(code),
            CodecKind::Pq(pq) => pq.decode(code),
        }
    }

    /// Prepares an asymmetric scorer for `query` under `metric`.
    ///
    /// The scorer's `score(code)` returns a similarity (greater = closer)
    /// comparable with [`Metric::similarity`] on decoded vectors. It
    /// borrows `query` (only a cosine query is copied, to normalize it);
    /// for PQ this builds the ADC lookup tables once per query.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn query_scorer<'a>(&'a self, query: &'a [f32], metric: Metric) -> QueryScorer<'a> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        // Cosine reduces to inner product on a normalized query; database
        // vectors are assumed normalized upstream (the encoder stand-in
        // emits unit vectors).
        let (query, metric) = match metric {
            Metric::Cosine => {
                let mut q = query.to_vec();
                hermes_math::distance::normalize(&mut q);
                (Cow::Owned(q), Metric::InnerProduct)
            }
            _ => (Cow::Borrowed(query), metric),
        };
        match &self.kind {
            CodecKind::Flat => QueryScorer::Flat { query, metric },
            CodecKind::Sq(sq) => QueryScorer::Sq {
                bound: Sq8Bound::new(sq, &query, metric),
                sq,
                query,
                metric,
            },
            CodecKind::Pq(pq) => QueryScorer::Pq {
                tables: pq.adc_tables(&query, metric),
                m: pq.m,
            },
        }
    }
}

/// Asymmetric per-query scorer produced by [`Codec::query_scorer`].
#[derive(Debug)]
pub enum QueryScorer<'a> {
    /// Raw f32 comparison.
    Flat {
        /// Query vector (a normalized copy if the metric was cosine).
        query: Cow<'a, [f32]>,
        /// Effective metric.
        metric: Metric,
    },
    /// Scalar-quantized comparison decoded on the fly.
    Sq {
        /// The trained scalar quantizer.
        sq: &'a ScalarQuantizer,
        /// Query vector (a normalized copy if the metric was cosine).
        query: Cow<'a, [f32]>,
        /// Effective metric.
        metric: Metric,
        /// The integer upper bound on this scorer's scores, where one
        /// exists (8-bit codes, inner product, finite inputs).
        bound: Option<Sq8Bound>,
    },
    /// Product-quantized comparison via ADC lookup tables.
    Pq {
        /// `m * 256` similarity contributions, laid out per subspace.
        tables: Vec<f32>,
        /// Number of subspaces.
        m: usize,
    },
}

impl QueryScorer<'_> {
    /// Similarity of the encoded vector `code` to the query.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `code` has the wrong length.
    #[inline]
    pub fn score(&self, code: &[u8]) -> f32 {
        match self {
            QueryScorer::Flat { query, metric } => {
                debug_assert_eq!(code.len(), query.len() * 4);
                let mut acc = 0.0f32;
                match metric {
                    Metric::InnerProduct | Metric::Cosine => {
                        for (i, c) in code.chunks_exact(4).enumerate() {
                            acc += query[i] * f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                        }
                        acc
                    }
                    Metric::L2 => {
                        for (i, c) in code.chunks_exact(4).enumerate() {
                            let d = query[i] - f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                            acc += d * d;
                        }
                        -acc
                    }
                }
            }
            QueryScorer::Sq {
                sq, query, metric, ..
            } => sq.score(code, query, *metric),
            QueryScorer::Pq { tables, m } => {
                debug_assert_eq!(code.len(), *m);
                let mut acc = 0.0f32;
                for (sub, &c) in code.iter().enumerate() {
                    acc += tables[sub * 256 + c as usize];
                }
                acc
            }
        }
    }

    /// Bytes per code this scorer consumes.
    #[inline]
    pub fn code_size(&self) -> usize {
        match self {
            QueryScorer::Flat { query, .. } => query.len() * 4,
            QueryScorer::Sq { sq, .. } => sq.code_size(),
            QueryScorer::Pq { m, .. } => *m,
        }
    }

    /// The integer upper bound on this scorer's scores, if it has one: a
    /// scan evaluates it on every code and hands [`Self::score_segments`]
    /// only the codes it cannot rule out. SQ8 under inner product or
    /// cosine has one unless an input is non-finite, the query is zero or
    /// a score could overflow; L2 and every other codec have none.
    #[inline]
    pub fn bound(&self) -> Option<&Sq8Bound> {
        match self {
            QueryScorer::Sq { bound, .. } => bound.as_ref(),
            _ => None,
        }
    }

    /// Scores a contiguous block of `out.len()` codes at once — the form
    /// the IVF inverted-list probe consumes — at the process-wide
    /// [`simd_level`]. `out[i]` is **bit-identical to `self.score(code_i)`
    /// at every dispatch level** (the tier-A contract): the SQ8 kernels
    /// in `hermes_math::block` vectorize across codes, so each code keeps
    /// the exact scalar operation sequence, and the PQ/ADC walk is the
    /// scalar one at every level. SQ decode
    /// constants and ADC table rows are reused across a tile of codes
    /// instead of being reloaded per code, and the code-size check runs
    /// once per block instead of once per code.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out.len() * self.code_size()`.
    pub fn score_block(&self, codes: &[u8], out: &mut [f32]) {
        self.score_block_at(simd_level(), codes, out);
    }

    /// Scores the codes of `segments`, in order, as if they were one
    /// contiguous block: `out[i]` is bit-identical to `self.score(code_i)`
    /// at every dispatch level and segmentation. The segments are
    /// typically several short inverted lists: the SQ8 kernels fill their
    /// SIMD tiles across the boundaries, so a 19-code list does not waste
    /// the lanes of its ragged tail; PQ/ADC walks list by list and the
    /// other codecs go code by code.
    ///
    /// # Panics
    ///
    /// Panics if a segment is not a whole number of codes or the segments
    /// do not hold `out.len()` codes between them.
    pub fn score_segments(&self, segments: &[&[u8]], out: &mut [f32]) {
        self.score_segments_at(simd_level(), segments, out);
    }

    /// [`QueryScorer::score_segments`] at an explicit dispatch level.
    ///
    /// # Panics
    ///
    /// As [`QueryScorer::score_segments`].
    pub fn score_segments_at(&self, level: SimdLevel, segments: &[&[u8]], out: &mut [f32]) {
        match self {
            // The block kernels check the segments' shape themselves.
            QueryScorer::Sq {
                sq, query, metric, ..
            } if sq.bits == SqBits::B8 => {
                use hermes_math::block::{sq8_ip_segments_at, sq8_l2_segments_at};
                let kernel = match metric {
                    Metric::L2 => sq8_l2_segments_at,
                    Metric::InnerProduct | Metric::Cosine => sq8_ip_segments_at,
                };
                kernel(level, query, &sq.mins, &sq.scales, segments, out);
            }
            QueryScorer::Pq { tables, m } => {
                hermes_math::block::adc_block_at(level, tables, *m, segments, out)
            }
            // Flat decodes four little-endian bytes per dim with a single
            // sequential accumulator and SQ4 codes are packed nibbles:
            // both stay scalar at every level (the deployment codecs are
            // SQ8 and PQ — see DESIGN.md).
            _ => {
                let cs = self.code_size();
                let bytes: usize = segments.iter().map(|s| s.len()).sum();
                assert!(
                    bytes == out.len() * cs
                        && segments.iter().all(|s| cs == 0 || s.len() % cs == 0),
                    "code block size mismatch: {bytes} bytes in {} segments is not {} codes x {cs} bytes",
                    segments.len(),
                    out.len()
                );
                if cs == 0 {
                    // Degenerate zero-dim codec: every code is empty.
                    out.fill(self.score(&[]));
                    return;
                }
                let mut scores = out.iter_mut();
                for codes in segments {
                    for (code, o) in codes.chunks_exact(cs).zip(&mut scores) {
                        *o = self.score(code);
                    }
                }
            }
        }
    }

    /// [`QueryScorer::score_block`] at an explicit dispatch level — the
    /// seam the equivalence suites use to pin tier-A bit-identity for
    /// every runnable kernel in one process.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out.len() * self.code_size()`.
    pub fn score_block_at(&self, level: SimdLevel, codes: &[u8], out: &mut [f32]) {
        self.score_segments_at(level, &[codes], out);
    }
}

/// A rigorous upper bound on the scores of an SQ8 inner-product scorer,
/// cheap enough to evaluate on every streamed code: one integer dot
/// product and one integer compare per code, both in one kernel
/// ([`Self::survivors`]; [`Self::sums`] returns the products themselves). **A bound is not a score**: it only ever decides
/// that a code *cannot* reach a selector's threshold, the codes it
/// cannot rule out are scored by the exact tier-A kernel, and nothing
/// derived from it leaves the scan.
///
/// # The inequality
///
/// With `q`, `min`, `scale` the scorer's f32 inputs and `c` a code
/// (`c_d ∈ 0..=255`), the real-number score is `E(c) = Σ_d q_d (min_d +
/// c_d scale_d) = b + Σ_d w_d c_d`, where `w_d = q_d scale_d` and `b =
/// Σ_d q_d min_d`; the reference [`QueryScorer::score`] is `s(c)`, the
/// same sum folded left to right in f32. For the `step` `Δ > 0` and the
/// integer `weights` `ŵ_d` chosen here (`Δ = max|w_d| / 63`, `ŵ_d =
/// round(w_d / Δ)`; any choice would do) and the integer `I(c) = Σ_d ŵ_d
/// c_d` the kernel computes,
///
/// ```text
/// s(c) ≤ base + Δ · I(c)        for every code c,
/// base = b + 255 Σ_d max(w_d − Δ ŵ_d, 0) + 2 γ S + 2 η (dim + Σ_d |q_d|)
/// ```
///
/// term by term:
///
/// * **Rounding the weights.** `Σ w_d c_d = Δ I(c) + Σ (w_d − Δ ŵ_d)
///   c_d`, and since `0 ≤ c_d ≤ 255` the last sum is at most `255 Σ
///   max(w_d − Δ ŵ_d, 0)`.
/// * **The f32 roundings of the reference.** Each `q_d min_d` and `q_d
///   c_d scale_d` passes through at most `dim + 3` roundings on its way
///   into `s(c)` (two in `min + c · scale`, one in the product with `q`,
///   at most `dim` in the fold), so `|s(c) − E(c)| ≤ γ S` with `u =
///   2^-24`, `γ = (dim + 3) u / (1 − (dim + 3) u)` and `S = Σ_d |q_d|
///   (|min_d| + 255 |scale_d|)` — provided nothing overflows or
///   underflows.
/// * **Underflow.** A product that underflows is off by at most `η =
///   f32::MIN_POSITIVE` instead (a sum that underflows is exact); there
///   are two products per dimension, one of them multiplied by `q_d`
///   afterwards, and the roundings after them grow the error by less
///   than the factor 2 charged.
/// * **The bound's own arithmetic** is f64: `w_d` is exact (24 x 24
///   bits), everything else is `O(dim)` roundings of relative size
///   `2^-53` on quantities no larger than `S` — `2^-29` of `γ S`, which
///   `base` therefore charges twice.
/// * **Overflow.** There is no bound unless `S` and every `|min_d| + 255
///   |scale_d|` are at most `f32::MAX / 2`: then no intermediate of the
///   reference exceeds `S (1 + γ)`, nothing overflows, every score is
///   finite and the analysis above holds. NaN and ±Inf inputs fail that
///   test; a zero query (no `Δ`) and codes too long for `γ` or an `i32`
///   sum are refused by name.
///
/// [`Self::floor`] turns a selector's threshold into the least `I(c)`
/// that does not rule a code out, so the scan compares integers only.
#[derive(Debug, Clone)]
pub struct Sq8Bound {
    weights: Vec<i8>,
    step: f64,
    base: f64,
}

impl Sq8Bound {
    fn new(sq: &ScalarQuantizer, query: &[f32], metric: Metric) -> Option<Self> {
        // Longest code with (dim + 3) u <= 2^-8 and sums far inside i32.
        const MAX_DIM: usize = 1 << 16;
        const HALF_MAX: f64 = f32::MAX as f64 / 2.0;
        const W: f64 = hermes_math::block::SQ8_WEIGHT_MAX as f64;
        let dim = query.len();
        if sq.bits != SqBits::B8 || metric == Metric::L2 || dim == 0 || dim > MAX_DIM {
            return None;
        }
        // Every sum and maximum below runs in `LANES` independent lanes
        // (dimension `d` in lane `d % LANES`, the last block padded with
        // zeros, which change neither a sum nor a maximum of magnitudes),
        // on fixed-size arrays the compiler keeps in vector registers;
        // `>`-and-select is the maximum that skips a NaN in one
        // instruction.
        const LANES: usize = 4;
        let max = |a: f64, b: f64| if b > a { b } else { a };
        let sum = |x: [f64; LANES]| x.iter().sum::<f64>();
        fn lanes(x: &[f32]) -> impl Iterator<Item = [f64; LANES]> + '_ {
            let (whole, rest) = x.as_chunks::<LANES>();
            let mut last = [0.0f32; LANES];
            last[..rest.len()].copy_from_slice(rest);
            let last = (!rest.is_empty()).then_some(last);
            whole.iter().copied().chain(last).map(|x| x.map(f64::from))
        }
        let (mut b, mut reach, mut q_abs) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
        let (mut w_max, mut span_max) = ([0.0f64; LANES], [0.0f64; LANES]);
        for ((q, min), scale) in lanes(query).zip(lanes(&sq.mins)).zip(lanes(&sq.scales)) {
            for l in 0..LANES {
                let span = min[l].abs() + 255.0 * scale[l].abs();
                b[l] += q[l] * min[l];
                reach[l] += q[l].abs() * span;
                q_abs[l] += q[l].abs();
                w_max[l] = max(w_max[l], (q[l] * scale[l]).abs());
                span_max[l] = max(span_max[l], span);
            }
        }
        let (b, reach, q_abs) = (sum(b), sum(reach), sum(q_abs));
        let w_max = w_max.into_iter().fold(0.0, max);
        let span_max = span_max.into_iter().fold(0.0, max);
        // A NaN or infinite input makes `reach` NaN or infinite, and NaN
        // fails every comparison.
        if !(reach <= HALF_MAX && span_max <= HALF_MAX && w_max > 0.0) {
            return None;
        }
        // Adding 1.5 * 2^52 rounds a small f64 to the nearest integer,
        // which then sits in the sum's low mantissa bits.
        const ROUND: f64 = 6_755_399_441_055_744.0;
        let (step, per_step) = (w_max / W, W / w_max);
        let mut over = [0.0f64; LANES];
        let mut weights = vec![0i8; dim.next_multiple_of(LANES)];
        let blocks = lanes(query).zip(lanes(&sq.scales));
        for ((q, scale), weights) in blocks.zip(weights.chunks_exact_mut(LANES)) {
            for l in 0..LANES {
                let w = q[l] * scale[l];
                let rounded = w * per_step + ROUND;
                over[l] += max(0.0, w - step * (rounded - ROUND));
                weights[l] = (rounded.to_bits() as i32).clamp(-(W as i32), W as i32) as i8;
            }
        }
        weights.truncate(dim);
        let over = sum(over);
        let u = f64::from(f32::EPSILON) / 2.0;
        let gamma = (dim + 3) as f64 * u / (1.0 - (dim + 3) as f64 * u);
        let base = b
            + 255.0 * over
            + 2.0 * gamma * reach
            + 2.0 * f64::from(f32::MIN_POSITIVE) * (dim as f64 + q_abs);
        Some(Sq8Bound {
            weights,
            step,
            base,
        })
    }

    /// The integer part of the bound for every code of `segments`, in
    /// order: `out[i] = I(code_i)`, at the process-wide [`simd_level`]
    /// (the sums are integers — every level returns the same ones).
    ///
    /// # Panics
    ///
    /// Panics if the segments are not whole codes, `out.len()` in all.
    pub fn sums(&self, segments: &[&[u8]], out: &mut [i32]) {
        self.sums_at(simd_level(), segments, out);
    }

    /// [`Self::sums`] at an explicit dispatch level.
    ///
    /// # Panics
    ///
    /// As [`Self::sums`].
    pub fn sums_at(&self, level: SimdLevel, segments: &[&[u8]], out: &mut [i32]) {
        hermes_math::block::sq8_dot_i8_at(level, &self.weights, segments, out);
    }

    /// Which of the `n` codes of `segments` the bound leaves in against
    /// `floor` (a [`Self::floor`]): bit `j` of `masks[g]` is set iff code
    /// `8 g + j` has a [`Self::sums`] entry of at least `floor`; bits past
    /// the last code are clear. The comparison is made in the kernel that
    /// makes the sum ([`hermes_math::block::sq8_dot_i8_mask_at`], the
    /// same body as [`Self::sums`]), at the process-wide [`simd_level`].
    ///
    /// # Panics
    ///
    /// Panics if the segments are not `n` whole codes or `masks.len() !=
    /// n.div_ceil(8)`.
    pub fn survivors(&self, segments: &[&[u8]], n: usize, floor: i32, masks: &mut [u8]) {
        hermes_math::block::sq8_dot_i8_mask_at(
            simd_level(),
            &self.weights,
            segments,
            n,
            floor,
            masks,
        );
    }

    /// The bound itself for a code whose [`Self::sums`] entry is `sum`:
    /// no smaller than the code's [`QueryScorer::score`].
    pub fn upper(&self, sum: i32) -> f64 {
        self.base + self.step * f64::from(sum)
    }

    /// The least [`Self::sums`] entry with which a code can still reach
    /// `threshold`: a code with a smaller sum scores **strictly below**
    /// `threshold`, so a selector at that threshold (which only rises)
    /// never admits it. `None` when the threshold rules nothing out:
    /// `-inf` while the selector is still filling, NaN when it holds only
    /// NaNs.
    ///
    /// Why: with `x = (pred(threshold) − base) / Δ` (`pred` the next f32
    /// down), a sum `I < x` has `s(c) ≤ base + Δ I < pred(threshold)`, so
    /// the f32 score is at most `pred(threshold)`. The f64 quotient is
    /// off from `x` by less than `2^-51 (|limit| + |base|) / Δ`; the
    /// floor of the quotient lowered by twice that keeps `I < floor ⟹ I <
    /// x` whatever the magnitudes.
    pub fn floor(&self, threshold: f32) -> Option<i32> {
        if threshold.is_nan() || threshold == f32::NEG_INFINITY {
            return None;
        }
        let limit = f64::from(threshold.next_down());
        let x = (limit - self.base) / self.step;
        let x = x - (limit.abs() + self.base.abs()) / self.step * (f64::EPSILON * 4.0);
        (!x.is_nan()).then(|| x.floor().clamp(f64::from(i32::MIN), f64::from(i32::MAX)) as i32)
    }
}

/// Scalar quantizer bit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqBits {
    /// One byte per dimension (256 levels).
    B8,
    /// Half a byte per dimension (16 levels), two dims packed per byte.
    B4,
}

impl SqBits {
    fn levels(self) -> u32 {
        match self {
            SqBits::B8 => 256,
            SqBits::B4 => 16,
        }
    }
}

/// Per-dimension min/max scalar quantizer.
#[derive(Debug, Clone)]
pub struct ScalarQuantizer {
    bits: SqBits,
    mins: Vec<f32>,
    scales: Vec<f32>,
}

impl ScalarQuantizer {
    /// Learns per-dimension ranges from `training`.
    pub fn train(training: &Mat, bits: SqBits) -> Self {
        let dim = training.cols();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for row in training.iter_rows() {
            for (d, &x) in row.iter().enumerate() {
                mins[d] = mins[d].min(x);
                maxs[d] = maxs[d].max(x);
            }
        }
        let denom = (bits.levels() - 1) as f32;
        let scales = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| {
                let span = hi - lo;
                if span > 0.0 {
                    span / denom
                } else {
                    // Constant dimension: decode to the constant exactly.
                    0.0
                }
            })
            .collect();
        ScalarQuantizer { bits, mins, scales }
    }

    fn dim(&self) -> usize {
        self.mins.len()
    }

    fn code_size(&self) -> usize {
        match self.bits {
            SqBits::B8 => self.dim(),
            SqBits::B4 => self.dim().div_ceil(2),
        }
    }

    fn quantize_one(&self, d: usize, x: f32) -> u32 {
        if self.scales[d] == 0.0 {
            return 0;
        }
        let max_level = self.bits.levels() - 1;
        (((x - self.mins[d]) / self.scales[d]).round()).clamp(0.0, max_level as f32) as u32
    }

    fn dequantize_one(&self, d: usize, level: u32) -> f32 {
        self.mins[d] + level as f32 * self.scales[d]
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        match self.bits {
            SqBits::B8 => {
                for (d, &x) in v.iter().enumerate() {
                    out.push(self.quantize_one(d, x) as u8);
                }
            }
            SqBits::B4 => {
                let mut d = 0;
                while d < v.len() {
                    let lo = self.quantize_one(d, v[d]) as u8;
                    let hi = if d + 1 < v.len() {
                        self.quantize_one(d + 1, v[d + 1]) as u8
                    } else {
                        0
                    };
                    out.push(lo | (hi << 4));
                    d += 2;
                }
            }
        }
    }

    fn decode(&self, code: &[u8]) -> Vec<f32> {
        let dim = self.dim();
        let mut out = Vec::with_capacity(dim);
        match self.bits {
            SqBits::B8 => {
                for (d, &c) in code.iter().enumerate() {
                    out.push(self.dequantize_one(d, c as u32));
                }
            }
            SqBits::B4 => {
                for d in 0..dim {
                    let byte = code[d / 2];
                    let level = if d.is_multiple_of(2) {
                        byte & 0x0F
                    } else {
                        byte >> 4
                    };
                    out.push(self.dequantize_one(d, level as u32));
                }
            }
        }
        out
    }

    fn score(&self, code: &[u8], query: &[f32], metric: Metric) -> f32 {
        // Decode-on-the-fly scoring; SQ decode is a fused multiply-add per
        // dimension, so a separate table gains little.
        let mut acc = 0.0f32;
        let dim = self.dim();
        let level_at = |d: usize| -> u32 {
            match self.bits {
                SqBits::B8 => code[d] as u32,
                SqBits::B4 => {
                    let byte = code[d / 2];
                    (if d.is_multiple_of(2) {
                        byte & 0x0F
                    } else {
                        byte >> 4
                    }) as u32
                }
            }
        };
        match metric {
            Metric::InnerProduct | Metric::Cosine => {
                for (d, q) in query.iter().enumerate().take(dim) {
                    acc += q * self.dequantize_one(d, level_at(d));
                }
                acc
            }
            Metric::L2 => {
                for (d, q) in query.iter().enumerate().take(dim) {
                    let diff = q - self.dequantize_one(d, level_at(d));
                    acc += diff * diff;
                }
                -acc
            }
        }
    }
}

/// Product quantizer: `m` subspaces, 256 centroids per subspace (8 bits),
/// optionally preceded by an orthonormal rotation (OPQ stand-in).
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    m: usize,
    dsub: usize,
    /// Per-subspace codebooks: `codebooks[s]` is a `256 x dsub` matrix
    /// (fewer rows if the training set was tiny).
    codebooks: Vec<Mat>,
    rotation: Option<Mat>,
}

impl ProductQuantizer {
    /// Trains PQ codebooks with K-means per subspace.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m` does not divide the dimension.
    pub fn train(training: &Mat, m: usize, rotation: Option<Mat>, seed: u64) -> Self {
        let dim = training.cols();
        assert!(m > 0, "PQ needs at least one subspace");
        assert!(dim.is_multiple_of(m), "m={m} must divide dim={dim}");
        let dsub = dim / m;

        // Apply rotation to the training set once.
        let rotated: Vec<Vec<f32>> = training
            .iter_rows()
            .map(|r| match &rotation {
                Some(rot) => rot.mat_vec(r),
                None => r.to_vec(),
            })
            .collect();

        let k = 256.min(training.rows());
        let mut codebooks = Vec::with_capacity(m);
        for s in 0..m {
            let sub_rows: Vec<Vec<f32>> = rotated
                .iter()
                .map(|r| r[s * dsub..(s + 1) * dsub].to_vec())
                .collect();
            let sub = Mat::from_rows(&sub_rows);
            let cfg = KMeansConfig::new(k)
                .with_seed(derive_seed(seed, s as u64))
                .with_max_iters(12);
            codebooks.push(KMeans::train(&sub, &cfg).centroids().clone());
        }
        ProductQuantizer {
            m,
            dsub,
            codebooks,
            rotation,
        }
    }

    fn rotate(&self, v: &[f32]) -> Vec<f32> {
        match &self.rotation {
            Some(rot) => rot.mat_vec(v),
            None => v.to_vec(),
        }
    }

    fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        let rv = self.rotate(v);
        for s in 0..self.m {
            let sub = &rv[s * self.dsub..(s + 1) * self.dsub];
            let (best, _) = hermes_math::block::nearest_row_l2(sub, &self.codebooks[s]);
            out.push(best as u8);
        }
    }

    fn decode(&self, code: &[u8]) -> Vec<f32> {
        let mut rotated = Vec::with_capacity(self.m * self.dsub);
        for (s, &c) in code.iter().enumerate() {
            let row = (c as usize).min(self.codebooks[s].rows() - 1);
            rotated.extend_from_slice(self.codebooks[s].row(row));
        }
        match &self.rotation {
            Some(rot) => rot.transpose_vec(&rotated),
            None => rotated,
        }
    }

    /// Builds the `m * 256` ADC table of per-subspace similarity
    /// contributions for `query` under `metric`.
    fn adc_tables(&self, query: &[f32], metric: Metric) -> Vec<f32> {
        let rq = self.rotate(query);
        let mut tables = vec![0.0f32; self.m * 256];
        for s in 0..self.m {
            let sub = &rq[s * self.dsub..(s + 1) * self.dsub];
            for (c, row) in self.codebooks[s].iter_rows().enumerate() {
                tables[s * 256 + c] = match metric {
                    Metric::InnerProduct | Metric::Cosine => inner_product(sub, row),
                    Metric::L2 => -l2_sq(sub, row),
                };
            }
            // Unused codebook slots (tiny training sets) keep similarity 0,
            // matching an all-zero reconstruction.
        }
        tables
    }
}

impl hermes_math::wire::WireEncode for Codec {
    fn encode_wire(&self, w: &mut hermes_math::wire::Writer) {
        w.u64(self.dim as u64);
        match &self.kind {
            CodecKind::Flat => w.u8(0),
            CodecKind::Sq(sq) => {
                w.u8(match sq.bits {
                    SqBits::B8 => 1,
                    SqBits::B4 => 2,
                });
                w.f32s(&sq.mins);
                w.f32s(&sq.scales);
            }
            CodecKind::Pq(pq) => {
                w.u8(3);
                w.u64(pq.m as u64);
                w.u64(pq.dsub as u64);
                w.u64(pq.codebooks.len() as u64);
                for cb in &pq.codebooks {
                    w.mat(cb);
                }
                match &pq.rotation {
                    Some(rot) => {
                        w.u8(1);
                        w.mat(rot);
                    }
                    None => w.u8(0),
                }
            }
        }
    }
}

impl hermes_math::wire::WireDecode for Codec {
    fn decode_wire(
        r: &mut hermes_math::wire::Reader<'_>,
    ) -> Result<Self, hermes_math::wire::WireError> {
        use hermes_math::wire::WireError;
        let dim = r.u64()? as usize;
        let tag = r.u8()?;
        let kind = match tag {
            0 => CodecKind::Flat,
            1 | 2 => {
                let bits = if tag == 1 { SqBits::B8 } else { SqBits::B4 };
                let mins = r.f32s()?;
                let scales = r.f32s()?;
                if mins.len() != dim || scales.len() != dim {
                    return Err(WireError::Corrupt("SQ table length mismatch".into()));
                }
                CodecKind::Sq(ScalarQuantizer { bits, mins, scales })
            }
            3 => {
                let m = r.u64()? as usize;
                let dsub = r.u64()? as usize;
                let n_cb = r.u64()? as usize;
                if m == 0 || n_cb != m || m.checked_mul(dsub) != Some(dim) {
                    return Err(WireError::Corrupt("PQ shape mismatch".into()));
                }
                let mut codebooks = Vec::with_capacity(n_cb);
                for _ in 0..n_cb {
                    codebooks.push(r.mat()?);
                }
                let rotation = match r.u8()? {
                    0 => None,
                    1 => Some(r.mat()?),
                    t => return Err(WireError::Corrupt(format!("bad rotation tag {t}"))),
                };
                CodecKind::Pq(ProductQuantizer {
                    m,
                    dsub,
                    codebooks,
                    rotation,
                })
            }
            t => return Err(WireError::Corrupt(format!("bad codec tag {t}"))),
        };
        Ok(Codec { dim, kind })
    }
}

/// A seeded random orthonormal `dim x dim` rotation (Gaussian + modified
/// Gram–Schmidt).
pub fn random_rotation(dim: usize, seed: u64) -> Mat {
    let mut rng = seeded_rng(seed);
    let rows: Vec<Vec<f32>> = (0..dim)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    // Box-Muller standard normal.
                    let u1: f32 = rng.next_f32().max(1e-7);
                    let u2: f32 = rng.next_f32();
                    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
                })
                .collect()
        })
        .collect();
    let mut m = Mat::from_rows(&rows);
    m.orthonormalize_rows();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::rng::seeded_rng;

    fn gaussian_data(n: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect();
        Mat::from_rows(&rows)
    }

    #[test]
    fn code_sizes_match_table_1_at_768_dims() {
        // Table 1 of the paper, bytes per vector at d=768.
        assert_eq!(CodecSpec::Flat.code_size(768), 3072);
        assert_eq!(CodecSpec::Sq8.code_size(768), 768);
        assert_eq!(CodecSpec::Sq4.code_size(768), 384);
        assert_eq!(CodecSpec::Pq { m: 256 }.code_size(768), 256);
        assert_eq!(CodecSpec::Opq { m: 256 }.code_size(768), 256);
        assert_eq!(CodecSpec::Pq { m: 384 }.code_size(768), 384);
        assert_eq!(CodecSpec::Opq { m: 384 }.code_size(768), 384);
    }

    #[test]
    fn flat_round_trips_exactly() {
        let data = gaussian_data(8, 16, 1);
        let codec = Codec::train(CodecSpec::Flat, &data, 0);
        for row in data.iter_rows() {
            assert_eq!(codec.decode(&codec.encode(row)), row.to_vec());
        }
    }

    #[test]
    fn sq8_reconstruction_error_is_small() {
        let data = gaussian_data(64, 32, 2);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        for row in data.iter_rows() {
            let approx = codec.decode(&codec.encode(row));
            let err = l2_sq(&approx, row).sqrt();
            assert!(err < 0.1, "err {err}");
        }
    }

    #[test]
    fn sq4_is_coarser_than_sq8() {
        let data = gaussian_data(64, 32, 3);
        let sq8 = Codec::train(CodecSpec::Sq8, &data, 0);
        let sq4 = Codec::train(CodecSpec::Sq4, &data, 0);
        let mut err8 = 0.0;
        let mut err4 = 0.0;
        for row in data.iter_rows() {
            err8 += l2_sq(&sq8.decode(&sq8.encode(row)), row);
            err4 += l2_sq(&sq4.decode(&sq4.encode(row)), row);
        }
        assert!(err4 > err8);
        assert_eq!(sq4.code_size(), sq8.code_size() / 2);
    }

    #[test]
    fn sq4_handles_odd_dimensions() {
        let data = gaussian_data(16, 7, 4);
        let codec = Codec::train(CodecSpec::Sq4, &data, 0);
        assert_eq!(codec.code_size(), 4);
        let decoded = codec.decode(&codec.encode(data.row(0)));
        assert_eq!(decoded.len(), 7);
    }

    #[test]
    fn constant_dimension_decodes_exactly() {
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![5.0, i as f32]).collect();
        let data = Mat::from_rows(&rows);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        let decoded = codec.decode(&codec.encode(&[5.0, 3.0]));
        assert_eq!(decoded[0], 5.0);
    }

    #[test]
    fn pq_reconstruction_beats_random_guess() {
        let data = gaussian_data(256, 16, 5);
        let codec = Codec::train(CodecSpec::Pq { m: 4 }, &data, 7);
        let mut err = 0.0f32;
        let mut base = 0.0f32;
        for row in data.iter_rows() {
            err += l2_sq(&codec.decode(&codec.encode(row)), row);
            base += l2_sq(&[0.0; 16], row);
        }
        assert!(err < base * 0.5, "pq err {err} vs baseline {base}");
    }

    #[test]
    fn opq_round_trip_dimension_is_preserved() {
        let data = gaussian_data(128, 8, 6);
        let codec = Codec::train(CodecSpec::Opq { m: 2 }, &data, 9);
        let decoded = codec.decode(&codec.encode(data.row(0)));
        assert_eq!(decoded.len(), 8);
    }

    #[test]
    fn scorer_matches_decoded_similarity_for_flat() {
        let data = gaussian_data(16, 12, 7);
        let codec = Codec::train(CodecSpec::Flat, &data, 0);
        let query: Vec<f32> = data.row(0).to_vec();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let scorer = codec.query_scorer(&query, metric);
            for row in data.iter_rows() {
                let code = codec.encode(row);
                let want = metric.similarity(&query, row);
                let got = scorer.score(&code);
                assert!((want - got).abs() < 1e-4, "{metric}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn scorer_matches_decode_then_score_for_sq() {
        let data = gaussian_data(32, 24, 8);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        let query: Vec<f32> = data.row(1).to_vec();
        for metric in [Metric::L2, Metric::InnerProduct] {
            let scorer = codec.query_scorer(&query, metric);
            for row in data.iter_rows() {
                let code = codec.encode(row);
                let want = metric.similarity(&query, &codec.decode(&code));
                let got = scorer.score(&code);
                assert!((want - got).abs() < 1e-3, "{metric}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn scorer_matches_decode_then_score_for_pq() {
        let data = gaussian_data(300, 16, 9);
        let codec = Codec::train(CodecSpec::Pq { m: 4 }, &data, 3);
        let query: Vec<f32> = data.row(2).to_vec();
        let scorer = codec.query_scorer(&query, Metric::L2);
        for row in data.iter_rows().take(32) {
            let code = codec.encode(row);
            // ADC decomposes L2 exactly across subspaces.
            let want = Metric::L2.similarity(&query, &codec.decode(&code));
            let got = scorer.score(&code);
            assert!((want - got).abs() < 1e-2, "{want} vs {got}");
        }
    }

    #[test]
    fn score_block_is_bit_identical_to_score_for_every_codec() {
        let specs = [
            CodecSpec::Flat,
            CodecSpec::Sq8,
            CodecSpec::Sq4,
            CodecSpec::Pq { m: 4 },
        ];
        // Dimensions on both sides of the 8-byte transpose chunk; every
        // code count 0..=70 (each ragged tail of one and two 8-code
        // tiles, past a 64-code block).
        for dim in [1usize, 7, 8, 12, 17, 33, 64, 80] {
            let data = gaussian_data(70, dim, 21 + dim as u64);
            let query = gaussian_data(1, dim, 99 + dim as u64);
            for spec in specs {
                if matches!(spec, CodecSpec::Pq { m } if dim % m != 0) {
                    continue;
                }
                let codec = Codec::train(spec, &data, 5);
                let mut codes = Vec::new();
                for row in data.iter_rows() {
                    codec.encode_into(row, &mut codes);
                }
                let cs = codec.code_size();
                for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
                    let scorer = codec.query_scorer(query.row(0), metric);
                    // The reference: one plain `score` per code.
                    let want: Vec<f32> = codes.chunks_exact(cs).map(|c| scorer.score(c)).collect();
                    // Non-SQ8 codecs score code by code whatever the
                    // code count; a few counts cover them.
                    let counts: Vec<usize> = if spec == CodecSpec::Sq8 {
                        (0..=70).collect()
                    } else {
                        vec![0, 1, 19, 70]
                    };
                    for &n in &counts {
                        let block = &codes[..n * cs];
                        let mut out = vec![0.0f32; n];
                        scorer.score_block(block, &mut out);
                        for (i, got) in out.iter().enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want[i].to_bits(),
                                "{spec} {metric} d{dim} n{n} code {i}"
                            );
                        }
                        // Tier A: the same bit-identity at every runnable
                        // dispatch level, and with the block cut into
                        // list-like segments (an empty and a 1-code one
                        // included) that split the tiles.
                        let mut cuts = [0, n.min(1), n.min(1), n / 3, n * 5 / 6, n];
                        cuts.sort_unstable();
                        let cut: Vec<&[u8]> = cuts
                            .windows(2)
                            .map(|w| &block[w[0] * cs..w[1] * cs])
                            .collect();
                        for level in SimdLevel::available() {
                            for segments in [&[block][..], &cut] {
                                let mut out = vec![0.0f32; n];
                                scorer.score_segments_at(level, segments, &mut out);
                                for i in 0..n {
                                    assert_eq!(
                                        out[i].to_bits(),
                                        want[i].to_bits(),
                                        "{spec} {metric} {level} d{dim} n{n} x{} code {i}",
                                        segments.len()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "code block size mismatch")]
    fn score_block_rejects_short_code_buffers() {
        let data = gaussian_data(8, 6, 22);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        let scorer = codec.query_scorer(data.row(0), Metric::L2);
        let mut out = [0.0f32; 2];
        scorer.score_block(&[0u8; 6], &mut out);
    }

    #[test]
    fn quantized_search_preserves_nearest_neighbor_most_of_the_time() {
        let data = gaussian_data(200, 32, 10);
        let codec = Codec::train(CodecSpec::Sq8, &data, 0);
        let codes: Vec<Vec<u8>> = data.iter_rows().map(|r| codec.encode(r)).collect();
        let mut agree = 0;
        for qi in 0..50 {
            let query = data.row(qi);
            // Exact nearest by L2.
            let exact = (0..data.rows())
                .min_by(|&a, &b| {
                    l2_sq(data.row(a), query)
                        .partial_cmp(&l2_sq(data.row(b), query))
                        .unwrap()
                })
                .unwrap();
            let scorer = codec.query_scorer(query, Metric::L2);
            let approx = (0..codes.len())
                .max_by(|&a, &b| {
                    scorer
                        .score(&codes[a])
                        .partial_cmp(&scorer.score(&codes[b]))
                        .unwrap()
                })
                .unwrap();
            if exact == approx {
                agree += 1;
            }
        }
        assert!(agree >= 45, "SQ8 agreement too low: {agree}/50");
    }

    #[test]
    fn random_rotation_is_orthonormal() {
        let rot = random_rotation(16, 42);
        for i in 0..16 {
            for j in 0..16 {
                let got = inner_product(rot.row(i), rot.row(j));
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((got - want).abs() < 1e-4, "({i},{j}) = {got}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn pq_checks_divisibility() {
        let data = gaussian_data(32, 10, 11);
        let _ = Codec::train(CodecSpec::Pq { m: 3 }, &data, 0);
    }

    #[test]
    fn codec_spec_labels_match_table_1() {
        assert_eq!(CodecSpec::Opq { m: 384 }.to_string(), "OPQ384");
        assert_eq!(CodecSpec::Sq8.to_string(), "SQ8");
    }

    #[test]
    fn codecs_round_trip_through_the_wire() {
        use hermes_math::wire::{Reader, WireDecode, WireEncode, Writer};
        let data = gaussian_data(300, 16, 12);
        for spec in [
            CodecSpec::Flat,
            CodecSpec::Sq8,
            CodecSpec::Sq4,
            CodecSpec::Pq { m: 4 },
            CodecSpec::Opq { m: 4 },
        ] {
            let codec = Codec::train(spec, &data, 9);
            let mut w = Writer::new();
            codec.encode_wire(&mut w);
            let buf = w.finish();
            let mut r = Reader::new(&buf);
            let loaded = Codec::decode_wire(&mut r).unwrap();
            assert_eq!(loaded.dim(), codec.dim(), "{spec}");
            assert_eq!(loaded.code_size(), codec.code_size(), "{spec}");
            for row in data.iter_rows().take(8) {
                assert_eq!(loaded.encode(row), codec.encode(row), "{spec}");
                assert_eq!(
                    loaded.decode(&codec.encode(row)),
                    codec.decode(&codec.encode(row))
                );
            }
        }
    }

    #[test]
    fn corrupt_codec_tag_is_rejected() {
        use hermes_math::wire::{Reader, WireDecode, Writer};
        let mut w = Writer::new();
        w.u64(8);
        w.u8(99); // invalid codec tag
        let buf = w.finish();
        assert!(Codec::decode_wire(&mut Reader::new(&buf)).is_err());
    }
}
