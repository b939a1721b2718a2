//! Runtime SIMD dispatch for the scoring kernels.
//!
//! The blocked kernels in [`crate::block`] exist in up to three
//! implementations: the portable scalar reference (always present),
//! AVX2+FMA on x86_64 and NEON on aarch64. Which one runs is decided
//! **once per process** — the first scoring call detects CPU features
//! (or honours the `HERMES_SIMD` override), caches the choice in an
//! atomic, and every block entry point thereafter pays one relaxed load.
//!
//! # `HERMES_SIMD`
//!
//! `HERMES_SIMD={auto,avx2,neon,scalar}` forces a dispatch level, the
//! way `HERMES_THREADS` forces a pool width. `auto` (or unset) picks the
//! best supported level; forcing a level the CPU cannot run, or an
//! unrecognized value, warns once on stderr and falls back to `auto` —
//! matching the `parse_hermes_threads` precedent of never failing on a
//! bad environment value. [`parse_hermes_simd`] is pure so every case is
//! unit testable without mutating the process environment.
//!
//! # The two-tier equivalence contract
//!
//! Dispatch is only sound because every level is pinned to the same
//! results, at two strictnesses (see DESIGN.md "Scoring kernels"):
//!
//! * **Tier A — bit-identical.** The SQ8 dequantize-and-score kernels
//!   perform, per (query, code), the *exact same sequence of f32
//!   operations* at every level: the SIMD forms vectorize **across
//!   codes** (one lane per code) so each (query, code) pair keeps one
//!   accumulator folded sequentially over dimensions, with no FMA
//!   contraction. The SQ8 kernel fills its 8-code tiles across the
//!   boundaries of the code segments it is given; a code's tile-mates
//!   never change its score. `QueryScorer::score_block` and
//!   `score_segments` are bit-identical to `score` regardless of level.
//!   The PQ/ADC table walk has only its scalar form.
//! * **Tier B — pinned reduction order per level, ULP-bounded across
//!   levels.** The f32 reductions vectorize **within a row**, so each
//!   level reassociates differently. Every level is bit-identical to
//!   the deterministic lane-ordered reference
//!   (`hermes_testkit::lane_ordered_fold`) at its own
//!   [`SimdLevel::lanes`]/[`SimdLevel::fused`] parameters, and levels
//!   agree with each other within the pinned ULP bound recorded in
//!   EXPERIMENTS.md.
//!
//! Because a process never mixes levels (one decision, cached), every
//! within-process equivalence pin in the workspace — engine vs legacy,
//! serving vs standalone, blocked vs fused scans — still holds
//! bit-for-bit at whatever level was selected.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Once;

/// A dispatchable kernel implementation.
///
/// All variants exist on every architecture (so parsing and display are
/// uniform); [`SimdLevel::is_supported`] says whether this CPU can run
/// one. Passing an unsupported level to a `*_at` kernel entry point is
/// not undefined behaviour — it scores via the scalar reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Portable scalar reference: 4 unfused accumulator lanes.
    Scalar = 0,
    /// x86_64 AVX2 + FMA: 8 fused accumulator lanes.
    Avx2 = 1,
    /// aarch64 NEON: 4 fused accumulator lanes.
    Neon = 2,
}

impl SimdLevel {
    /// Every level, in preference order (best first) — the order
    /// [`simd_level`] probes under `auto`.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Avx2, SimdLevel::Neon, SimdLevel::Scalar];

    /// Accumulator lanes per f32 reduction at this level — the `lanes`
    /// argument of the `lane_ordered_fold` tier-B reference.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 4,
            SimdLevel::Avx2 => 8,
            SimdLevel::Neon => 4,
        }
    }

    /// Whether this level's f32 reductions fuse multiply-add (one
    /// rounding per term, `f32::mul_add` semantics) instead of rounding
    /// the product first. SIMD levels fuse; the scalar reference does
    /// not.
    #[inline]
    pub fn fused(self) -> bool {
        !matches!(self, SimdLevel::Scalar)
    }

    /// Whether this CPU can execute this level's kernels. Feature
    /// detection is cached by the standard library, so this is cheap
    /// enough for per-block guards.
    #[inline]
    pub fn is_supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            SimdLevel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            // NEON is a mandatory part of AArch64.
            SimdLevel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The levels this CPU supports, best first (always ends with
    /// `Scalar`). Equivalence suites iterate this to pin every runnable
    /// kernel, not just the selected one.
    pub fn available() -> Vec<SimdLevel> {
        Self::ALL.into_iter().filter(|l| l.is_supported()).collect()
    }

    /// Stable lower-case name; also the accepted `HERMES_SIMD` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Interprets a `HERMES_SIMD` value. `Ok(None)` means auto-detect
/// (unset, blank, or the literal `auto`); `Ok(Some(level))` is an
/// explicit force; `Err` carries the warning for anything else. Callers
/// must treat `Err` as auto plus a warning — never a hard failure —
/// matching the `parse_hermes_threads` precedent.
pub fn parse_hermes_simd(value: Option<&str>) -> Result<Option<SimdLevel>, String> {
    let Some(raw) = value else { return Ok(None) };
    let t = raw.trim();
    if t.is_empty() || t.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    for level in SimdLevel::ALL {
        if t.eq_ignore_ascii_case(level.as_str()) {
            return Ok(Some(level));
        }
    }
    Err(format!(
        "unrecognized HERMES_SIMD value {raw:?} (expected auto, avx2, neon or scalar); using auto"
    ))
}

/// Best level this CPU supports — the `auto` choice.
fn detect() -> SimdLevel {
    SimdLevel::available()[0]
}

/// Resolves an environment value to the level a process would run at,
/// plus the warning (if any) it would print. Pure: the decision logic
/// is testable without touching [`simd_level`]'s process-wide cache.
pub fn resolve_simd_level(env: Option<&str>) -> (SimdLevel, Option<String>) {
    match parse_hermes_simd(env) {
        Ok(None) => (detect(), None),
        Ok(Some(level)) if level.is_supported() => (level, None),
        Ok(Some(level)) => (
            detect(),
            Some(format!(
                "HERMES_SIMD={level} is not supported on this CPU; using auto"
            )),
        ),
        Err(msg) => (detect(), Some(msg)),
    }
}

const UNDECIDED: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNDECIDED);
static DECIDE: Once = Once::new();
static DECISIONS: AtomicU64 = AtomicU64::new(0);

fn decode(v: u8) -> SimdLevel {
    match v {
        0 => SimdLevel::Scalar,
        1 => SimdLevel::Avx2,
        2 => SimdLevel::Neon,
        _ => unreachable!("corrupt cached SimdLevel {v}"),
    }
}

/// The dispatch level this process scores with.
///
/// Decided exactly once (first call wins, `HERMES_SIMD` honoured at
/// that point, warning printed at most once); afterwards a single
/// relaxed atomic load. Tests that need a *different* level in the same
/// process use the `*_at` kernel entry points instead of the
/// environment.
pub fn simd_level() -> SimdLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNDECIDED {
        return decode(v);
    }
    DECIDE.call_once(|| {
        DECISIONS.fetch_add(1, Ordering::Relaxed);
        let (level, warning) = resolve_simd_level(std::env::var("HERMES_SIMD").ok().as_deref());
        if let Some(w) = warning {
            eprintln!("hermes-math: {w}");
        }
        LEVEL.store(level as u8, Ordering::Relaxed);
    });
    decode(LEVEL.load(Ordering::Relaxed))
}

/// How many times the process-wide dispatch decision has run. Exposed
/// so the regression suite can assert it is exactly 1 no matter how
/// many threads race through [`simd_level`].
pub fn simd_decision_count() -> u64 {
    DECISIONS.load(Ordering::Relaxed)
}

/// AVX2+FMA kernels. Callers must hold a [`SimdLevel::Avx2`]
/// `is_supported()` proof before calling anything here — the
/// `#[target_feature]` functions are UB on CPUs without the features.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    /// Sums the 8 lanes strictly left to right — the lane-combination
    /// order the tier-B reference pins.
    #[inline]
    unsafe fn hsum_in_order(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        let mut sum = lanes[0];
        for &l in &lanes[1..] {
            sum += l;
        }
        sum
    }

    /// [`hsum_in_order`] of four accumulators at once: the 4 x 8 lanes
    /// are transposed so that one 128-bit add advances all four rows'
    /// sums by one lane — per row the same seven adds in the same
    /// left-to-right order, in 7 vector adds instead of 28 scalar ones.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum4_in_order(acc: &[__m256; 4]) -> [f32; 4] {
        // `lane[j]` holds lane `j` of each of the four accumulators.
        let mut lane = [_mm_setzero_ps(); 8];
        for half in 0..2 {
            let r: [__m128; 4] = core::array::from_fn(|t| {
                if half == 0 {
                    _mm256_castps256_ps128(acc[t])
                } else {
                    _mm256_extractf128_ps::<1>(acc[t])
                }
            });
            let (a, b) = (_mm_unpacklo_ps(r[0], r[1]), _mm_unpacklo_ps(r[2], r[3]));
            let (c, d) = (_mm_unpackhi_ps(r[0], r[1]), _mm_unpackhi_ps(r[2], r[3]));
            lane[4 * half] = _mm_movelh_ps(a, b);
            lane[4 * half + 1] = _mm_movehl_ps(b, a);
            lane[4 * half + 2] = _mm_movelh_ps(c, d);
            lane[4 * half + 3] = _mm_movehl_ps(d, c);
        }
        let mut sum = lane[0];
        for &l in &lane[1..] {
            sum = _mm_add_ps(sum, l);
        }
        let mut sums = [0.0f32; 4];
        _mm_storeu_ps(sums.as_mut_ptr(), sum);
        sums
    }

    /// [`hsum_in_order`] of eight accumulators at once, as one vector:
    /// an 8 x 8 transpose leaves lane `j` of every accumulator in
    /// `lane[j]`, so seven vector adds advance all eight rows' sums —
    /// per row the same seven adds in the same left-to-right order.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn hsum8_in_order(acc: &[__m256; 8]) -> __m256 {
        // Row pairs, then row quads, per 128-bit half: `quad[i][j]`
        // holds lanes `j` (low half) and `j + 4` (high half) of rows
        // `4i..4i + 4`.
        let quad: [[__m256; 4]; 2] = core::array::from_fn(|i| {
            let a = &acc[4 * i..4 * i + 4];
            let (p0, p1) = (
                _mm256_unpacklo_ps(a[0], a[1]),
                _mm256_unpackhi_ps(a[0], a[1]),
            );
            let (p2, p3) = (
                _mm256_unpacklo_ps(a[2], a[3]),
                _mm256_unpackhi_ps(a[2], a[3]),
            );
            [
                _mm256_shuffle_ps::<0x44>(p0, p2),
                _mm256_shuffle_ps::<0xEE>(p0, p2),
                _mm256_shuffle_ps::<0x44>(p1, p3),
                _mm256_shuffle_ps::<0xEE>(p1, p3),
            ]
        });
        let lane = |j: usize| {
            if j < 4 {
                _mm256_permute2f128_ps::<0x20>(quad[0][j], quad[1][j])
            } else {
                _mm256_permute2f128_ps::<0x31>(quad[0][j - 4], quad[1][j - 4])
            }
        };
        let mut sum = lane(0);
        for j in 1..8 {
            sum = _mm256_add_ps(sum, lane(j));
        }
        sum
    }

    /// `q · x` with 8 fused lanes; bit-identical to
    /// `lane_ordered_fold(n, 8, |acc, i| q[i].mul_add(x[i], acc))`
    /// (`vfmadd` and `f32::mul_add` are both correctly-rounded fma).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn ip_row(q: &[f32], x: &[f32]) -> f32 {
        let n = q.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let b = c * 8;
            let qa = _mm256_loadu_ps(q.as_ptr().add(b));
            let xa = _mm256_loadu_ps(x.as_ptr().add(b));
            acc = _mm256_fmadd_ps(xa, qa, acc);
        }
        let mut sum = hsum_in_order(acc);
        for i in chunks * 8..n {
            sum = x[i].mul_add(q[i], sum);
        }
        sum
    }

    /// `||q - x||²` with 8 fused lanes; term `(q[i]-x[i]).mul_add(q[i]-x[i], acc)`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_row(q: &[f32], x: &[f32]) -> f32 {
        let n = q.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let b = c * 8;
            let qa = _mm256_loadu_ps(q.as_ptr().add(b));
            let xa = _mm256_loadu_ps(x.as_ptr().add(b));
            let d = _mm256_sub_ps(qa, xa);
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        let mut sum = hsum_in_order(acc);
        for i in chunks * 8..n {
            let d = q[i] - x[i];
            sum = d.mul_add(d, sum);
        }
        sum
    }

    /// `||x||²` with 8 fused lanes; term `x[i].mul_add(x[i], acc)`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq_norm_row(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let xa = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            acc = _mm256_fmadd_ps(xa, xa, acc);
        }
        let mut sum = hsum_in_order(acc);
        for &v in &x[chunks * 8..] {
            sum = v.mul_add(v, sum);
        }
        sum
    }

    /// Four dot products sharing each loaded query chunk; per row
    /// identical to [`ip_row`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn ip_tile4(q: &[f32], rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = q.len();
        let chunks = n / 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let b = c * 8;
            let qa = _mm256_loadu_ps(q.as_ptr().add(b));
            for (t, row) in rows.iter().enumerate() {
                let xa = _mm256_loadu_ps(row.as_ptr().add(b));
                acc[t] = _mm256_fmadd_ps(xa, qa, acc[t]);
            }
        }
        let sums = hsum4_in_order(&acc);
        for (t, row) in rows.iter().enumerate() {
            let mut sum = sums[t];
            for i in chunks * 8..n {
                sum = row[i].mul_add(q[i], sum);
            }
            out[t] = sum;
        }
    }

    /// Four squared distances sharing each loaded query chunk; per row
    /// identical to [`l2_row`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_tile4(q: &[f32], rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = q.len();
        let chunks = n / 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let b = c * 8;
            let qa = _mm256_loadu_ps(q.as_ptr().add(b));
            for (t, row) in rows.iter().enumerate() {
                let xa = _mm256_loadu_ps(row.as_ptr().add(b));
                let d = _mm256_sub_ps(qa, xa);
                acc[t] = _mm256_fmadd_ps(d, d, acc[t]);
            }
        }
        let sums = hsum4_in_order(&acc);
        for (t, row) in rows.iter().enumerate() {
            let mut sum = sums[t];
            for i in chunks * 8..n {
                let d = q[i] - row[i];
                sum = d.mul_add(d, sum);
            }
            out[t] = sum;
        }
    }

    /// Squared distances of `q` to the eight consecutive `q.len()`-float
    /// rows of `rows`, lane `t` row `t`: eight independent `fmadd` chains
    /// over the 8-float chunks, [`hsum8_in_order`], then each row's
    /// scalar `mul_add` tail — per row exactly [`l2_row`]'s operations.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. Shapes are checked.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn l2_tile8(q: &[f32], rows: &[f32]) -> __m256 {
        let n = q.len();
        assert_eq!(rows.len(), 8 * n, "eight rows of the query's length");
        let chunks = n / 8;
        let mut acc = [_mm256_setzero_ps(); 8];
        for c in 0..chunks {
            let b = c * 8;
            let qa = _mm256_loadu_ps(q.as_ptr().add(b));
            for (t, acc) in acc.iter_mut().enumerate() {
                let xa = _mm256_loadu_ps(rows.as_ptr().add(t * n + b));
                let d = _mm256_sub_ps(qa, xa);
                *acc = _mm256_fmadd_ps(d, d, *acc);
            }
        }
        let sums = hsum8_in_order(&acc);
        if chunks * 8 == n {
            return sums;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sums);
        for (sum, row) in lanes.iter_mut().zip(rows.chunks_exact(n)) {
            for i in chunks * 8..n {
                let d = q[i] - row[i];
                *sum = d.mul_add(d, *sum);
            }
        }
        _mm256_loadu_ps(lanes.as_ptr())
    }

    /// Squared distances of `q` to the `n` consecutive `q.len()`-float
    /// rows of `rows`, in row order, handed to `tile(r, len, v)` as lanes
    /// `0..len` of `v` for rows `r..r + len`: eight at a time through
    /// [`l2_tile8`], the last `n % 8` through [`l2_tile4`] and [`l2_row`]
    /// — every distance bit-identical to [`l2_row`]. The one tile body
    /// behind the distance block and the probe-key block.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. Shapes are checked.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn l2_rows(
        q: &[f32],
        rows: &[f32],
        n: usize,
        mut tile: impl FnMut(usize, usize, __m256),
    ) {
        let dim = q.len();
        let at = |r: usize, len: usize| &rows[r * dim..(r + len) * dim];
        let mut r = 0;
        while r + 8 <= n {
            tile(r, 8, l2_tile8(q, at(r, 8)));
            r += 8;
        }
        if r < n {
            let mut lanes = [0.0f32; 8];
            let (rest, mut done) = (n - r, 0);
            if rest >= 4 {
                let x = at(r, 4);
                let four = core::array::from_fn(|t| &x[t * dim..(t + 1) * dim]);
                l2_tile4(q, four, (&mut lanes[..4]).try_into().expect("4 lanes"));
                done = 4;
            }
            for (t, lane) in lanes[..rest].iter_mut().enumerate().skip(done) {
                *lane = l2_row(q, at(r + t, 1));
            }
            tile(r, rest, _mm256_loadu_ps(lanes.as_ptr()));
        }
    }

    /// `out[i] = ||q - row_i||²` over the `out.len()` rows of `rows`; per
    /// row identical to [`l2_row`] (see [`l2_rows`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. Shapes are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_block(q: &[f32], rows: &[f32], out: &mut [f32]) {
        l2_rows(q, rows, out.len(), |r, _, v| store_lanes(out, r, v));
    }

    /// [`l2_block`] packed into probe keys (`crate::block::probe_key`)
    /// of rows `first, first + 1, ...`, in registers eight at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `first + keys.len()` must
    /// not exceed `2^32`. Shapes are checked.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_keys_block(q: &[f32], rows: &[f32], first: u32, keys: &mut [u64]) {
        let step = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        l2_rows(q, rows, keys.len(), |r, len, v| {
            let bits = _mm256_castps_si256(v);
            // `probe_key`'s map to `total_cmp` order: a negative flips
            // every bit, anything else its sign bit.
            let flip = _mm256_or_si256(_mm256_srai_epi32::<31>(bits), _mm256_set1_epi32(i32::MIN));
            let high = _mm256_xor_si256(bits, flip);
            let low = _mm256_add_epi32(_mm256_set1_epi32((first + r as u32) as i32), step);
            // Keys 0, 1 | 4, 5 and 2, 3 | 6, 7, the row index low.
            let (a, b) = (
                _mm256_unpacklo_epi32(low, high),
                _mm256_unpackhi_epi32(low, high),
            );
            let packed = [
                _mm256_permute2x128_si256::<0x20>(a, b),
                _mm256_permute2x128_si256::<0x31>(a, b),
            ];
            if len == 8 {
                _mm256_storeu_si256(keys[r..r + 8].as_mut_ptr() as *mut __m256i, packed[0]);
                _mm256_storeu_si256(keys[r + 4..r + 8].as_mut_ptr() as *mut __m256i, packed[1]);
            } else {
                let mut lanes = [0u64; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, packed[0]);
                _mm256_storeu_si256(lanes[4..].as_mut_ptr() as *mut __m256i, packed[1]);
                keys[r..r + len].copy_from_slice(&lanes[..len]);
            }
        });
    }

    /// Four squared norms; per row identical to [`sq_norm_row`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq_norm_tile4(rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = rows[0].len();
        let chunks = n / 8;
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let b = c * 8;
            for (t, row) in rows.iter().enumerate() {
                let xa = _mm256_loadu_ps(row.as_ptr().add(b));
                acc[t] = _mm256_fmadd_ps(xa, xa, acc[t]);
            }
        }
        let sums = hsum4_in_order(&acc);
        for (t, row) in rows.iter().enumerate() {
            let mut sum = sums[t];
            for i in chunks * 8..n {
                sum = row[i].mul_add(row[i], sum);
            }
            out[t] = sum;
        }
    }

    /// Squared distances of two rows to four centroids: the eight
    /// accumulators share six loads per chunk, where eight [`l2_row`]s
    /// make sixteen. Every (row, centroid) accumulator runs
    /// [`l2_row`]'s own chain — `fmadd(d, d, acc)` over `d = x - c`
    /// chunk by chunk, the in-order lane sum, the scalar `mul_add` tail
    /// — so each distance is bit-identical to it.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn l2_tile2x4(x: [&[f32]; 2], c: [&[f32]; 4]) -> [[f32; 4]; 2] {
        let n = x[0].len();
        let chunks = n / 8;
        let mut acc = [[_mm256_setzero_ps(); 4]; 2];
        for ch in 0..chunks {
            let b = ch * 8;
            let xa = [
                _mm256_loadu_ps(x[0].as_ptr().add(b)),
                _mm256_loadu_ps(x[1].as_ptr().add(b)),
            ];
            for (t, cen) in c.iter().enumerate() {
                let ca = _mm256_loadu_ps(cen.as_ptr().add(b));
                for r in 0..2 {
                    let d = _mm256_sub_ps(xa[r], ca);
                    acc[r][t] = _mm256_fmadd_ps(d, d, acc[r][t]);
                }
            }
        }
        let mut out = [hsum4_in_order(&acc[0]), hsum4_in_order(&acc[1])];
        for (row, sums) in x.iter().zip(&mut out) {
            for (cen, sum) in c.iter().zip(sums) {
                for i in chunks * 8..n {
                    let d = row[i] - cen[i];
                    *sum = d.mul_add(d, *sum);
                }
            }
        }
        out
    }

    /// One cache block of the multi-row L2 argmin
    /// (`block::nearest_rows_l2_at`): scores rows `rows` of `data` (flat,
    /// `dim` wide) against the `n` centroids of `block`, the first of
    /// which is centroid `base` of its table, and folds each distance
    /// into that row's running `(index, distance)` in `best` — centroids
    /// in ascending order under a strict `<`, so the first index wins
    /// ties and NaN never wins. Rows go two at a time through
    /// [`l2_tile2x4`]; an odd last row (the one-row call) goes through
    /// [`l2_tile4`] and [`l2_row`], as a single query always has.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. Shapes are checked: every
    /// operand is sliced, so a bad row index or a short block panics.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_argmin_block(
        data: &[f32],
        dim: usize,
        rows: &[u32],
        block: &[f32],
        n: usize,
        base: u32,
        best: &mut [(u32, f32)],
    ) {
        let row = |r: u32| &data[r as usize * dim..(r as usize + 1) * dim];
        let cen = |c: usize| &block[c * dim..(c + 1) * dim];
        // Selects, not branches: where the minimum falls is data.
        let fold = |best: &mut (u32, f32), c: usize, d: f32| {
            let nearer = d < best.1;
            best.0 = if nearer { base + c as u32 } else { best.0 };
            best.1 = if nearer { d } else { best.1 };
        };
        let mut r = 0;
        while r + 2 <= rows.len() {
            let x = [row(rows[r]), row(rows[r + 1])];
            let (mut b0, mut b1) = (best[r], best[r + 1]);
            for c in (0..n).step_by(4) {
                // A ragged last tile repeats the last centroid; a repeat
                // scores that centroid's distance again, which a strict
                // `<` never takes.
                let at = |j: usize| cen((c + j).min(n - 1));
                let d = l2_tile2x4(x, [at(0), at(1), at(2), at(3)]);
                for (j, (&d0, &d1)) in d[0].iter().zip(&d[1]).enumerate() {
                    fold(&mut b0, c + j, d0);
                    fold(&mut b1, c + j, d1);
                }
            }
            (best[r], best[r + 1]) = (b0, b1);
            r += 2;
        }
        if r < rows.len() {
            let x = row(rows[r]);
            let (mut b, mut d) = (best[r], [0.0f32; 4]);
            let quads = n / 4 * 4;
            for c in (0..quads).step_by(4) {
                l2_tile4(x, [cen(c), cen(c + 1), cen(c + 2), cen(c + 3)], &mut d);
                for (j, &d) in d.iter().enumerate() {
                    fold(&mut b, c + j, d);
                }
            }
            for c in quads..n {
                fold(&mut b, c, l2_row(x, cen(c)));
            }
            best[r] = b;
        }
    }

    /// Codes per tile: one AVX2 lane per code.
    const LANES: usize = 8;

    /// Walks the rows of a list of code segments in order, as if the
    /// segments were one contiguous block — what lets a tile span the
    /// boundary between two short inverted lists. Rows past the last one
    /// are **clamped to the last row**, so a ragged tail still runs
    /// full-width tiles; the caller discards the extra lanes.
    struct RowCursor<'a> {
        rest: core::slice::Iter<'a, &'a [u8]>,
        /// Next row of the current segment and that segment's end.
        next: *const u8,
        end: *const u8,
        /// The row handed out last.
        last: *const u8,
        stride: usize,
    }

    impl<'a> RowCursor<'a> {
        /// # Safety
        ///
        /// Every segment's length must be a multiple of `stride >= 1` and
        /// the segments must hold at least one row between them.
        #[inline]
        unsafe fn new(segments: &'a [&'a [u8]], stride: usize) -> Self {
            let none = core::ptr::null();
            RowCursor {
                rest: segments.iter(),
                next: none,
                end: none,
                last: none,
                stride,
            }
        }

        #[inline(always)]
        unsafe fn row(&mut self) -> *const u8 {
            while self.next == self.end {
                match self.rest.next() {
                    Some(segment) => {
                        self.next = segment.as_ptr();
                        self.end = self.next.add(segment.len());
                    }
                    None => return self.last,
                }
            }
            self.last = self.next;
            self.next = self.next.add(self.stride);
            self.last
        }

        /// The first of the next [`LANES`] rows, taken, if the current
        /// segment holds that many: they are `stride` apart.
        #[inline(always)]
        unsafe fn run(&mut self) -> Option<*const u8> {
            let first = self.next;
            (self.end as usize - first as usize >= LANES * self.stride).then(|| {
                self.last = first.add((LANES - 1) * self.stride);
                self.next = first.add(LANES * self.stride);
                first
            })
        }

        /// Row pointers of the next `T` 8-code tiles.
        #[inline(always)]
        unsafe fn tiles<const T: usize>(&mut self) -> [[*const u8; LANES]; T] {
            let mut rows = [[self.last; LANES]; T];
            for row in rows.iter_mut().flatten() {
                *row = self.row();
            }
            rows
        }
    }

    /// Loads bytes `[d, d + nd)` (`nd <= 8`) of each of a tile's 8 rows
    /// and transposes them in registers, rows 0..4 in the low 128-bit
    /// lane and rows 4..8 in the high one: the result's `x[j / 4]` holds,
    /// in each lane, byte `d + j` of that lane's four rows at bytes
    /// `4 * (j % 4)..4 * (j % 4) + 4` — four unpacks, no gathers;
    /// [`widen_lane`] turns one of them into one `i32` lane per code.
    ///
    /// # Safety
    ///
    /// Every row pointer must be readable for `d + nd` bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_bytes(rows: &[*const u8; LANES], d: usize, nd: usize) -> [__m256i; 2] {
        let mut r = [_mm_setzero_si128(); LANES];
        for (reg, row) in r.iter_mut().zip(rows) {
            *reg = if nd == 8 {
                _mm_loadl_epi64(row.add(d) as *const __m128i)
            } else {
                // Dimension tail: an 8-byte load would run past the row
                // (and, on the last row, past the buffer).
                let mut b = [0u8; 8];
                core::ptr::copy_nonoverlapping(row.add(d), b.as_mut_ptr(), nd);
                _mm_loadl_epi64(b.as_ptr() as *const __m128i)
            };
        }
        // Rows i and i + 4 share a register; bytes -> (row pair) words ->
        // (row quad) dwords, per lane.
        let y0 = _mm256_set_m128i(r[4], r[0]);
        let y1 = _mm256_set_m128i(r[5], r[1]);
        let y2 = _mm256_set_m128i(r[6], r[2]);
        let y3 = _mm256_set_m128i(r[7], r[3]);
        let a0 = _mm256_unpacklo_epi8(y0, y1);
        let a1 = _mm256_unpacklo_epi8(y2, y3);
        [_mm256_unpacklo_epi16(a0, a1), _mm256_unpackhi_epi16(a0, a1)]
    }

    /// `vpshufb` controls of [`widen_lane`]: in each 128-bit lane, dword
    /// `t` takes byte `4 * k + t` and zeroes (`0x80`) above it.
    static WIDEN_PICK: [[u8; 32]; 4] = {
        let mut picks = [[0x80u8; 32]; 4];
        let mut k = 0;
        while k < 4 {
            let mut t = 0;
            while t < 4 {
                picks[k][4 * t] = (4 * k + t) as u8;
                picks[k][16 + 4 * t] = (4 * k + t) as u8;
                t += 1;
            }
            k += 1;
        }
        picks
    };

    /// Byte `j` of a [`transpose_bytes`] result, zero-extended to one
    /// `i32` lane per code (codes 0..4 from the low lane, 4..8 from the
    /// high one — lane order is code order).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_lane(x: &[__m256i; 2], j: usize) -> __m256i {
        let pick = _mm256_loadu_si256(WIDEN_PICK[j % 4].as_ptr() as *const __m256i);
        _mm256_shuffle_epi8(x[j / 4], pick)
    }

    /// Stores the first `n - start` (at most 8) lanes of `v` to
    /// `out[start..]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_lanes(out: &mut [f32], start: usize, v: __m256) {
        if start + LANES <= out.len() {
            _mm256_storeu_ps(out.as_mut_ptr().add(start), v);
        } else {
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), v);
            let keep = out.len() - start;
            out[start..].copy_from_slice(&lanes[..keep]);
        }
    }

    /// Folds dimensions `[d, d + nd)` (`nd <= 8`) of `T` tiles into the
    /// `T` accumulators: transpose once, then per dimension one
    /// dequantized `val = min + code * scale` per tile, folded in the
    /// scalar order (`mul`/`add` kept separate, no FMA). Called with the
    /// literal `8` on the hot path so the dimension loop unrolls.
    ///
    /// # Safety
    ///
    /// Rows readable for `d + nd` bytes; `d + nd` within `mins`,
    /// `scales` and `query`.
    #[inline(always)]
    unsafe fn sq8_fold_dims<const T: usize, const L2: bool>(
        query: &[f32],
        mins: &[f32],
        scales: &[f32],
        rows: &[[*const u8; LANES]; T],
        d: usize,
        nd: usize,
        acc: &mut [__m256; T],
    ) {
        let mut bytes = [[_mm256_setzero_si256(); 2]; T];
        for (b, tile) in bytes.iter_mut().zip(rows) {
            *b = transpose_bytes(tile, d, nd);
        }
        for j in 0..nd {
            let min = _mm256_set1_ps(*mins.get_unchecked(d + j));
            let scale = _mm256_set1_ps(*scales.get_unchecked(d + j));
            let q = _mm256_set1_ps(*query.get_unchecked(d + j));
            for (a, b) in acc.iter_mut().zip(&bytes) {
                let level = _mm256_cvtepi32_ps(widen_lane(b, j));
                let v = _mm256_add_ps(min, _mm256_mul_ps(level, scale));
                *a = if L2 {
                    let diff = _mm256_sub_ps(q, v);
                    _mm256_add_ps(*a, _mm256_mul_ps(diff, diff))
                } else {
                    _mm256_add_ps(*a, _mm256_mul_ps(q, v))
                };
            }
        }
    }

    /// `T` tiles of the tier-A SQ8 kernel: each code's lane folds
    /// dimensions sequentially in the exact scalar operation order, so
    /// every score is bit-identical to the scalar walk; the `T`
    /// accumulator chains are independent. `rows` are the tiles' row
    /// pointers, the first being code `r0`.
    ///
    /// # Safety
    ///
    /// As [`sq8_segments`], plus `r0 < out.len()` and every row pointer
    /// readable for `mins.len()` bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sq8_macro_tile<const T: usize, const L2: bool>(
        query: &[f32],
        mins: &[f32],
        scales: &[f32],
        rows: &[[*const u8; LANES]; T],
        r0: usize,
        out: &mut [f32],
    ) {
        let dim = mins.len();
        let mut acc = [_mm256_setzero_ps(); T];
        let mut d = 0;
        while d + 8 <= dim {
            sq8_fold_dims::<T, L2>(query, mins, scales, rows, d, 8, &mut acc);
            d += 8;
        }
        if d < dim {
            sq8_fold_dims::<T, L2>(query, mins, scales, rows, d, dim - d, &mut acc);
        }
        let sign = _mm256_set1_ps(-0.0);
        for (t, &a) in acc.iter().enumerate() {
            let start = r0 + t * LANES;
            if start < out.len() {
                // L2 is the negated distance: XOR flips the sign exactly
                // like scalar unary negation, `-0.0` included.
                store_lanes(out, start, if L2 { _mm256_xor_ps(a, sign) } else { a });
            }
        }
    }

    /// Tier-A SQ8 kernel: scores every code of `segments`, in order,
    /// against `query` into `out`, inner product or (`L2`) negated squared
    /// distance. Gather-free: row loads, an in-register byte transpose and
    /// a widen feed one lane per code, and because a tile is eight *row
    /// pointers* it spans segment boundaries — short inverted lists fill
    /// tiles together (see [`crate::block::sq8_ip_segments_at`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2, `query` and `mins`/`scales` of one length
    /// `dim >= 1`, a non-empty `out`, every segment a whole number of
    /// `dim`-byte codes and `out.len()` codes between them.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_segments<const L2: bool>(
        query: &[f32],
        mins: &[f32],
        scales: &[f32],
        segments: &[&[u8]],
        out: &mut [f32],
    ) {
        let n = out.len();
        let mut cursor = RowCursor::new(segments, mins.len());
        let mut r = 0;
        while r < n {
            // Two tiles in flight while more than one tile of codes is
            // left; the last one may be partly clamped.
            if n - r > LANES {
                let rows = cursor.tiles::<2>();
                sq8_macro_tile::<2, L2>(query, mins, scales, &rows, r, out);
                r += 2 * LANES;
            } else {
                let rows = cursor.tiles::<1>();
                sq8_macro_tile::<1, L2>(query, mins, scales, &rows, r, out);
                r += LANES;
            }
        }
    }

    /// `Σ_d weights[d] * code_i[d]` for every code `i < n` of `segments`,
    /// in order, in exact `i32` arithmetic (see
    /// [`crate::block::sq8_dot_i8_at`]), handed to `group(r, sums)` eight
    /// rows at a time: lane `j` of `sums` is row `r + j`, lanes past the
    /// last row repeat it. A row is read 32 bytes at a time — a dimension
    /// tail by one load that overlaps the bytes before it, against
    /// weights zeroed there — multiplied pairwise into `i16`
    /// (`vpmaddubsw`) and widened to eight `i32` partial sums (`vpmaddwd`
    /// by ones); the partial sums of eight consecutive rows, whichever
    /// segments they come from, are then reduced together by one
    /// `vphaddd` tree: about 10 µops a 64-byte row where eight rows share
    /// a segment. The one body behind [`sq8_dot_i8`] and
    /// [`sq8_dot_i8_mask`].
    ///
    /// # Safety
    ///
    /// Requires AVX2, `weights.len() >= 32`, every weight within
    /// `±SQ8_WEIGHT_MAX` (so no pair sum saturates an `i16`), `n >= 1`,
    /// and every segment a whole number of `weights.len()`-byte codes,
    /// `n` codes between them.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sq8_dot_i8_groups(
        weights: &[i8],
        segments: &[&[u8]],
        n: usize,
        mut group: impl FnMut(usize, __m256i),
    ) {
        const STEP: usize = 32;
        let dim = weights.len();
        let (full, rest) = (dim / STEP, dim % STEP);
        let mut tail = [0i8; STEP];
        tail[STEP - rest..].copy_from_slice(&weights[dim - rest..]);
        let tail = _mm256_loadu_si256(tail.as_ptr() as *const __m256i);
        let ones = _mm256_set1_epi16(1);
        let mut cursor = RowCursor::new(segments, dim);
        let mut r = 0;
        while r < n {
            let rows = match cursor.run() {
                Some(first) => core::array::from_fn(|i| first.add(i * dim)),
                None => cursor.tiles::<1>()[0],
            };
            // Block by block, so a block's weights stay in a register
            // for all eight rows and the eight chains are independent.
            let mut acc = [_mm256_setzero_si256(); LANES];
            let fold = |acc: &mut [__m256i; LANES], at: usize, w: __m256i| {
                for (a, row) in acc.iter_mut().zip(rows) {
                    let code = _mm256_loadu_si256(row.add(at) as *const __m256i);
                    let pairs = _mm256_maddubs_epi16(code, w);
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(pairs, ones));
                }
            };
            for b in 0..full {
                let w = _mm256_loadu_si256(weights.as_ptr().add(b * STEP) as *const __m256i);
                fold(&mut acc, b * STEP, w);
            }
            if rest > 0 {
                fold(&mut acc, dim - STEP, tail);
            }
            group(r, hsum8_epi32(&acc));
            r += LANES;
        }
    }

    /// `out[i] = Σ_d weights[d] * code_i[d]` over every code of
    /// `segments` (see [`sq8_dot_i8_groups`]).
    ///
    /// # Safety
    ///
    /// As [`sq8_dot_i8_groups`], with `n = out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_dot_i8(weights: &[i8], segments: &[&[u8]], out: &mut [i32]) {
        let n = out.len();
        sq8_dot_i8_groups(weights, segments, n, |r, sums| {
            if r + LANES <= n {
                _mm256_storeu_si256(out[r..r + LANES].as_mut_ptr() as *mut __m256i, sums);
            } else {
                // The cursor clamped the rows past the last one to it.
                let mut lanes = [0i32; LANES];
                _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sums);
                out[r..].copy_from_slice(&lanes[..n - r]);
            }
        });
    }

    /// The sums of [`sq8_dot_i8`] compared against `floor` where they
    /// are made: bit `j` of `masks[g]` is `sum(code 8g + j) >= floor`
    /// over the `n` codes of `segments` — one `vpcmpgtd` and one
    /// `vmovmskps` per eight rows, no sum ever stored. Bits past the last
    /// code are clear.
    ///
    /// # Safety
    ///
    /// As [`sq8_dot_i8_groups`], and `masks.len() == n.div_ceil(8)`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_dot_i8_mask(
        weights: &[i8],
        segments: &[&[u8]],
        n: usize,
        floor: i32,
        masks: &mut [u8],
    ) {
        let floor = _mm256_set1_epi32(floor);
        sq8_dot_i8_groups(weights, segments, n, |r, sums| {
            // `sum >= floor` is `!(floor > sum)`: exact for every `i32`
            // floor, `i32::MIN` included, where `sum > floor - 1` is not.
            let below = _mm256_cmpgt_epi32(floor, sums);
            let below = _mm256_movemask_ps(_mm256_castsi256_ps(below)) as u32;
            let rows = (n - r).min(LANES);
            masks[r / LANES] = (!below & ((1 << rows) - 1)) as u8;
        });
    }

    /// Lane `i` of the result is the sum of the eight lanes of `rows[i]`:
    /// two rounds of pairwise adds leave each row's low and high halves
    /// in the two 128-bit lanes, which the last add joins.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum8_epi32(rows: &[__m256i; LANES]) -> __m256i {
        let q: [__m256i; 4] =
            core::array::from_fn(|i| _mm256_hadd_epi32(rows[2 * i], rows[2 * i + 1]));
        let (h0, h1) = (_mm256_hadd_epi32(q[0], q[1]), _mm256_hadd_epi32(q[2], q[3]));
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(h0, h1),
            _mm256_permute2x128_si256::<0x31>(h0, h1),
        )
    }
}

/// NEON kernels: 4 fused lanes (`vfmaq_f32` is correctly-rounded fma,
/// matching `f32::mul_add`), lane sum in order via a stack store, the
/// same structure as the AVX2 module at half the width. NEON is
/// mandatory on AArch64 so these are safe whenever they compile, but
/// they keep the `unsafe`/`target_feature` shape for symmetry.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use core::arch::aarch64::*;

    #[inline]
    unsafe fn hsum_in_order(v: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; 4];
        vst1q_f32(lanes.as_mut_ptr(), v);
        ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
    }

    /// `q · x`; bit-identical to
    /// `lane_ordered_fold(n, 4, |acc, i| q[i].mul_add(x[i], acc))`.
    #[target_feature(enable = "neon")]
    pub unsafe fn ip_row(q: &[f32], x: &[f32]) -> f32 {
        let n = q.len();
        let chunks = n / 4;
        let mut acc = vdupq_n_f32(0.0);
        for c in 0..chunks {
            let b = c * 4;
            acc = vfmaq_f32(
                acc,
                vld1q_f32(x.as_ptr().add(b)),
                vld1q_f32(q.as_ptr().add(b)),
            );
        }
        let mut sum = hsum_in_order(acc);
        for i in chunks * 4..n {
            sum = x[i].mul_add(q[i], sum);
        }
        sum
    }

    /// `||q - x||²`; term `(q[i]-x[i]).mul_add(q[i]-x[i], acc)`.
    #[target_feature(enable = "neon")]
    pub unsafe fn l2_row(q: &[f32], x: &[f32]) -> f32 {
        let n = q.len();
        let chunks = n / 4;
        let mut acc = vdupq_n_f32(0.0);
        for c in 0..chunks {
            let b = c * 4;
            let d = vsubq_f32(vld1q_f32(q.as_ptr().add(b)), vld1q_f32(x.as_ptr().add(b)));
            acc = vfmaq_f32(acc, d, d);
        }
        let mut sum = hsum_in_order(acc);
        for i in chunks * 4..n {
            let d = q[i] - x[i];
            sum = d.mul_add(d, sum);
        }
        sum
    }

    /// `||x||²`; term `x[i].mul_add(x[i], acc)`.
    #[target_feature(enable = "neon")]
    pub unsafe fn sq_norm_row(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / 4;
        let mut acc = vdupq_n_f32(0.0);
        for c in 0..chunks {
            let xa = vld1q_f32(x.as_ptr().add(c * 4));
            acc = vfmaq_f32(acc, xa, xa);
        }
        let mut sum = hsum_in_order(acc);
        for i in chunks * 4..n {
            sum = x[i].mul_add(x[i], sum);
        }
        sum
    }

    /// Four dot products sharing each loaded query chunk.
    #[target_feature(enable = "neon")]
    pub unsafe fn ip_tile4(q: &[f32], rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = q.len();
        let chunks = n / 4;
        let mut acc = [vdupq_n_f32(0.0); 4];
        for c in 0..chunks {
            let b = c * 4;
            let qa = vld1q_f32(q.as_ptr().add(b));
            for (t, row) in rows.iter().enumerate() {
                acc[t] = vfmaq_f32(acc[t], vld1q_f32(row.as_ptr().add(b)), qa);
            }
        }
        for (t, row) in rows.iter().enumerate() {
            let mut sum = hsum_in_order(acc[t]);
            for i in chunks * 4..n {
                sum = row[i].mul_add(q[i], sum);
            }
            out[t] = sum;
        }
    }

    /// Four squared distances sharing each loaded query chunk.
    #[target_feature(enable = "neon")]
    pub unsafe fn l2_tile4(q: &[f32], rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = q.len();
        let chunks = n / 4;
        let mut acc = [vdupq_n_f32(0.0); 4];
        for c in 0..chunks {
            let b = c * 4;
            let qa = vld1q_f32(q.as_ptr().add(b));
            for (t, row) in rows.iter().enumerate() {
                let d = vsubq_f32(qa, vld1q_f32(row.as_ptr().add(b)));
                acc[t] = vfmaq_f32(acc[t], d, d);
            }
        }
        for (t, row) in rows.iter().enumerate() {
            let mut sum = hsum_in_order(acc[t]);
            for i in chunks * 4..n {
                let d = q[i] - row[i];
                sum = d.mul_add(d, sum);
            }
            out[t] = sum;
        }
    }

    /// Four squared norms.
    #[target_feature(enable = "neon")]
    pub unsafe fn sq_norm_tile4(rows: [&[f32]; 4], out: &mut [f32; 4]) {
        let n = rows[0].len();
        let chunks = n / 4;
        let mut acc = [vdupq_n_f32(0.0); 4];
        for c in 0..chunks {
            let b = c * 4;
            for (t, row) in rows.iter().enumerate() {
                let xa = vld1q_f32(row.as_ptr().add(b));
                acc[t] = vfmaq_f32(acc[t], xa, xa);
            }
        }
        for (t, row) in rows.iter().enumerate() {
            let mut sum = hsum_in_order(acc[t]);
            for i in chunks * 4..n {
                sum = row[i].mul_add(row[i], sum);
            }
            out[t] = sum;
        }
    }

    /// Tier-A SQ8 inner product: 4 codes per tile, one lane per code,
    /// byte loads widened in scalar (exact) then unfused vector
    /// mul/add in the scalar operation order — bit-identical to the
    /// scalar walk. Returns codes scored (a multiple of 4); no slack
    /// needed since there are no gathers.
    #[target_feature(enable = "neon")]
    pub unsafe fn sq8_ip_tiles(
        q: &[f32],
        mins: &[f32],
        scales: &[f32],
        codes: &[u8],
        out: &mut [f32],
    ) -> usize {
        let dim = q.len();
        if dim == 0 {
            return 0;
        }
        let mut r = 0;
        while r + 4 <= out.len() {
            let base = r * dim;
            let mut acc = vdupq_n_f32(0.0);
            for d in 0..dim {
                let lv = [
                    codes[base + d] as f32,
                    codes[base + dim + d] as f32,
                    codes[base + 2 * dim + d] as f32,
                    codes[base + 3 * dim + d] as f32,
                ];
                let val = vaddq_f32(
                    vdupq_n_f32(mins[d]),
                    vmulq_f32(vld1q_f32(lv.as_ptr()), vdupq_n_f32(scales[d])),
                );
                acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(q[d]), val));
            }
            vst1q_f32(out.as_mut_ptr().add(r), acc);
            r += 4;
        }
        r
    }

    /// See [`sq8_ip_tiles`]; writes the negated squared distance
    /// (sign flipped, matching scalar unary negation).
    #[target_feature(enable = "neon")]
    pub unsafe fn sq8_l2_tiles(
        q: &[f32],
        mins: &[f32],
        scales: &[f32],
        codes: &[u8],
        out: &mut [f32],
    ) -> usize {
        let dim = q.len();
        if dim == 0 {
            return 0;
        }
        let mut r = 0;
        while r + 4 <= out.len() {
            let base = r * dim;
            let mut acc = vdupq_n_f32(0.0);
            for d in 0..dim {
                let lv = [
                    codes[base + d] as f32,
                    codes[base + dim + d] as f32,
                    codes[base + 2 * dim + d] as f32,
                    codes[base + 3 * dim + d] as f32,
                ];
                let val = vaddq_f32(
                    vdupq_n_f32(mins[d]),
                    vmulq_f32(vld1q_f32(lv.as_ptr()), vdupq_n_f32(scales[d])),
                );
                let diff = vsubq_f32(vdupq_n_f32(q[d]), val);
                acc = vaddq_f32(acc, vmulq_f32(diff, diff));
            }
            vst1q_f32(out.as_mut_ptr().add(r), vnegq_f32(acc));
            r += 4;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_level_name_case_insensitively() {
        assert_eq!(
            parse_hermes_simd(Some("scalar")),
            Ok(Some(SimdLevel::Scalar))
        );
        assert_eq!(parse_hermes_simd(Some("AVX2")), Ok(Some(SimdLevel::Avx2)));
        assert_eq!(parse_hermes_simd(Some(" Neon ")), Ok(Some(SimdLevel::Neon)));
    }

    #[test]
    fn parse_treats_unset_blank_and_auto_as_auto() {
        assert_eq!(parse_hermes_simd(None), Ok(None));
        assert_eq!(parse_hermes_simd(Some("")), Ok(None));
        assert_eq!(parse_hermes_simd(Some("  ")), Ok(None));
        assert_eq!(parse_hermes_simd(Some("auto")), Ok(None));
        assert_eq!(parse_hermes_simd(Some("AUTO")), Ok(None));
    }

    #[test]
    fn parse_rejects_unknown_values_with_a_warning_message() {
        let err = parse_hermes_simd(Some("avx512")).unwrap_err();
        assert!(err.contains("avx512"), "{err}");
        assert!(err.contains("using auto"), "{err}");
        assert!(parse_hermes_simd(Some("3")).is_err());
    }

    #[test]
    fn unknown_values_resolve_to_auto_with_a_warning() {
        // parse_hermes_threads precedent: a bad env value can never make
        // the process fail or change semantics — it warns and detects.
        let (bad, warn) = resolve_simd_level(Some("turbo"));
        let (auto, none) = resolve_simd_level(None);
        assert_eq!(bad, auto);
        assert!(warn.is_some());
        assert!(none.is_none());
    }

    #[test]
    fn unsupported_forced_level_resolves_to_auto_with_a_warning() {
        // At most one of avx2/neon is supported on any one machine, so
        // the other must warn and fall back.
        let foreign = [SimdLevel::Avx2, SimdLevel::Neon]
            .into_iter()
            .find(|l| !l.is_supported());
        if let Some(level) = foreign {
            let (got, warn) = resolve_simd_level(Some(level.as_str()));
            assert_eq!(got, resolve_simd_level(None).0);
            let warn = warn.expect("forcing an unsupported level must warn");
            assert!(warn.contains(level.as_str()), "{warn}");
        }
    }

    #[test]
    fn forcing_scalar_always_works() {
        let (level, warn) = resolve_simd_level(Some("scalar"));
        assert_eq!(level, SimdLevel::Scalar);
        assert!(warn.is_none());
    }

    #[test]
    fn scalar_is_always_available_and_last() {
        let avail = SimdLevel::available();
        assert_eq!(*avail.last().unwrap(), SimdLevel::Scalar);
        assert!(avail.iter().all(|l| l.is_supported()));
    }

    #[test]
    fn lane_counts_match_the_documented_contract() {
        assert_eq!(SimdLevel::Scalar.lanes(), 4);
        assert!(!SimdLevel::Scalar.fused());
        assert_eq!(SimdLevel::Avx2.lanes(), 8);
        assert!(SimdLevel::Avx2.fused());
        assert_eq!(SimdLevel::Neon.lanes(), 4);
        assert!(SimdLevel::Neon.fused());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for level in SimdLevel::ALL {
            assert_eq!(parse_hermes_simd(Some(&level.to_string())), Ok(Some(level)));
        }
    }

    #[test]
    fn dispatch_is_decided_exactly_once_across_racing_threads() {
        let levels: Vec<SimdLevel> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(simd_level))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(levels.iter().all(|&l| l == levels[0]));
        // However many tests and threads have raced through simd_level()
        // by now, the decision must have run exactly once this process.
        assert_eq!(simd_decision_count(), 1);
        assert!(simd_level().is_supported());
    }
}
