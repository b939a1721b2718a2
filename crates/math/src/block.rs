//! Blocked scoring kernels: one query against a contiguous block of rows.
//!
//! The serial inner loop of every scan path used to be one
//! [`Metric::similarity`](crate::Metric::similarity) call per stored
//! vector. These kernels score a whole row block per call with register
//! tiling ([`TILE`] rows share each loaded query chunk), which is what
//! the flat scan, the IVF inverted-list probe and the HNSW neighbour
//! expansion now consume in chunks of [`BLOCK`].
//!
//! Every kernel exists at each runtime dispatch level
//! ([`SimdLevel`](crate::simd::SimdLevel)): the portable scalar
//! reference, AVX2+FMA on x86_64, NEON on aarch64. The plain entry
//! points (`inner_product_block`, …) run at the process-wide
//! [`simd_level`](crate::simd::simd_level); the `*_at` forms take an
//! explicit level so equivalence suites can pin every runnable kernel
//! in one process. An unsupported level scores via the scalar
//! reference.
//!
//! # Determinism contract (two tiers)
//!
//! * **Tier A — bit-identical at every level and segmentation.** The
//!   SQ8 kernels ([`sq8_ip_segments_at`], [`sq8_l2_segments_at`])
//!   vectorize *across codes* — one SIMD lane per code, each code's
//!   accumulator folded sequentially over dimensions with mul and add
//!   kept separate — so every level performs, per code, the exact scalar
//!   operation sequence and returns the exact scalar bits. Both take
//!   their codes as a list of *segments* (short inverted lists,
//!   typically) that the AVX2 tiles run across: which codes share a tile
//!   never changes a score. The PQ/ADC table walk ([`adc_block_at`])
//!   takes segments too; no workload runs PQ, so it is the scalar walk
//!   at every level.
//! * **Tier B — pinned reduction order per level.** The f32 kernels
//!   vectorize *within a row*, so each level reassociates the
//!   reduction differently. Per row, each level is bit-identical to
//!   the deterministic lane-ordered reference
//!   (`hermes_testkit::lane_ordered_fold`) at that level's lane
//!   count/fusion mode — scalar: 4 unfused lanes; AVX2: 8 fused; NEON:
//!   4 fused — and levels agree with each other within the pinned ULP
//!   bound recorded in EXPERIMENTS.md. Tiling only interleaves
//!   *independent* per-row accumulations, so blocked results at a
//!   level are bit-identical to that level's single-row kernel, and
//!   every within-process equivalence pin (engine vs legacy, blocked
//!   vs fused scans) holds bit-for-bit at whatever level is selected.
//!
//! `tests/properties.rs` asserts both tiers across dims 1..=80, all
//! metrics and every available level; `tests/simd_differential.rs`
//! fuzzes the cross-level ULP bound with adversarial values.
//!
//! Unlike the scalar kernels (which only `debug_assert!` shapes), the
//! blocked entry points validate dimensions with hard asserts — once
//! per block instead of once per vector, so the checks are off the hot
//! path *and* release builds can no longer silently truncate.

use crate::distance::{inner_product, l2_sq, norm};
use crate::matrix::Mat;
use crate::simd::{simd_level, SimdLevel};

/// Rows per scan chunk: scan loops score `BLOCK` rows into a stack
/// buffer, then offer the whole buffer to the top-k selector at once.
/// 64 rows amortize the per-block dispatch and length checks over eight
/// 8-code AVX2 tiles; admission
/// into the top-k heap stays per-element and in row order, so the
/// block size never changes results.
pub const BLOCK: usize = 64;

/// Rows per register tile inside a kernel: `TILE` independent
/// accumulator sets stay live so one loaded query chunk is reused
/// `TILE` times. The AVX2 L2 block ([`l2_sq_block_at`],
/// [`l2_sq_keys_block_at`]) tiles eight rows and leaves the last
/// `n % 8` to this tile and the single-row kernel.
pub const TILE: usize = 4;

#[inline(always)]
fn chunk4(s: &[f32], b: usize) -> &[f32; 4] {
    s[b..b + 4].try_into().expect("4-wide chunk")
}

#[track_caller]
fn validate_block(query: &[f32], rows: &[f32], dim: usize, n: usize) {
    assert_eq!(
        query.len(),
        dim,
        "query dimension mismatch: query has {} dims, rows have {dim}",
        query.len()
    );
    assert_eq!(
        rows.len(),
        n * dim,
        "row block size mismatch: {} floats is not {n} rows x {dim} dims",
        rows.len()
    );
}

// ---------------------------------------------------------------------------
// Scalar reference tiles (4 unfused lanes — the portable tier-B semantics).
// ---------------------------------------------------------------------------

/// `a · b` for four rows at once at the scalar level; per row identical
/// to [`inner_product`].
#[inline]
pub fn inner_product_tile4(query: &[f32], rows: [&[f32]; TILE], out: &mut [f32; TILE]) {
    let dim = query.len();
    let chunks = dim / 4;
    let mut acc = [[0.0f32; 4]; TILE];
    for c in 0..chunks {
        let b = c * 4;
        let q = chunk4(query, b);
        for (t, row) in rows.iter().enumerate() {
            let x = chunk4(row, b);
            for lane in 0..4 {
                acc[t][lane] += q[lane] * x[lane];
            }
        }
    }
    for (t, row) in rows.iter().enumerate() {
        let mut sum = acc[t][0] + acc[t][1] + acc[t][2] + acc[t][3];
        for i in chunks * 4..dim {
            sum += query[i] * row[i];
        }
        out[t] = sum;
    }
}

/// `||a - b||^2` for four rows at once at the scalar level; per row
/// identical to [`l2_sq`].
#[inline]
pub fn l2_sq_tile4(query: &[f32], rows: [&[f32]; TILE], out: &mut [f32; TILE]) {
    let dim = query.len();
    let chunks = dim / 4;
    let mut acc = [[0.0f32; 4]; TILE];
    for c in 0..chunks {
        let b = c * 4;
        let q = chunk4(query, b);
        for (t, row) in rows.iter().enumerate() {
            let x = chunk4(row, b);
            for lane in 0..4 {
                let d = q[lane] - x[lane];
                acc[t][lane] += d * d;
            }
        }
    }
    for (t, row) in rows.iter().enumerate() {
        let mut sum = acc[t][0] + acc[t][1] + acc[t][2] + acc[t][3];
        for i in chunks * 4..dim {
            let d = query[i] - row[i];
            sum += d * d;
        }
        out[t] = sum;
    }
}

/// `||b||^2` for four rows at once at the scalar level; per row
/// identical to `inner_product(b, b)` (the squared-norm half of
/// [`cosine`](crate::distance::cosine)).
#[inline]
pub fn sq_norm_tile4(rows: [&[f32]; TILE], out: &mut [f32; TILE]) {
    let dim = rows[0].len();
    let chunks = dim / 4;
    let mut acc = [[0.0f32; 4]; TILE];
    for c in 0..chunks {
        let b = c * 4;
        for (t, row) in rows.iter().enumerate() {
            let x = chunk4(row, b);
            for lane in 0..4 {
                acc[t][lane] += x[lane] * x[lane];
            }
        }
    }
    for (t, row) in rows.iter().enumerate() {
        let mut sum = acc[t][0] + acc[t][1] + acc[t][2] + acc[t][3];
        for i in chunks * 4..dim {
            sum += row[i] * row[i];
        }
        out[t] = sum;
    }
}

// ---------------------------------------------------------------------------
// Level-dispatched rows and tiles.
// ---------------------------------------------------------------------------

#[inline]
fn ip_row_at(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe { crate::simd::avx2::ip_row(q, x) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::ip_row(q, x) },
        _ => inner_product(q, x),
    }
}

#[inline]
fn l2_row_at(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe { crate::simd::avx2::l2_row(q, x) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::l2_row(q, x) },
        _ => l2_sq(q, x),
    }
}

#[inline]
fn sq_norm_row_at(level: SimdLevel, x: &[f32]) -> f32 {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe { crate::simd::avx2::sq_norm_row(x) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::sq_norm_row(x) },
        _ => inner_product(x, x),
    }
}

/// [`inner_product_tile4`] at an explicit dispatch level — the form the
/// HNSW neighbour expansion feeds with gathered (non-contiguous) rows.
#[inline]
pub fn inner_product_tile4_at(
    level: SimdLevel,
    query: &[f32],
    rows: [&[f32]; TILE],
    out: &mut [f32; TILE],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe {
            crate::simd::avx2::ip_tile4(query, rows, out)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::ip_tile4(query, rows, out) },
        _ => inner_product_tile4(query, rows, out),
    }
}

/// [`l2_sq_tile4`] at an explicit dispatch level.
#[inline]
pub fn l2_sq_tile4_at(
    level: SimdLevel,
    query: &[f32],
    rows: [&[f32]; TILE],
    out: &mut [f32; TILE],
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe {
            crate::simd::avx2::l2_tile4(query, rows, out)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::l2_tile4(query, rows, out) },
        _ => l2_sq_tile4(query, rows, out),
    }
}

/// [`sq_norm_tile4`] at an explicit dispatch level.
#[inline]
pub fn sq_norm_tile4_at(level: SimdLevel, rows: [&[f32]; TILE], out: &mut [f32; TILE]) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe {
            crate::simd::avx2::sq_norm_tile4(rows, out)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { crate::simd::neon::sq_norm_tile4(rows, out) },
        _ => sq_norm_tile4(rows, out),
    }
}

#[inline(always)]
fn tile_rows(rows: &[f32], dim: usize, r: usize) -> [&[f32]; TILE] {
    let b = r * dim;
    [
        &rows[b..b + dim],
        &rows[b + dim..b + 2 * dim],
        &rows[b + 2 * dim..b + 3 * dim],
        &rows[b + 3 * dim..b + 4 * dim],
    ]
}

// ---------------------------------------------------------------------------
// Blocked f32 entry points (tier B).
// ---------------------------------------------------------------------------

/// Dot product of `query` against each row of a contiguous row-major
/// block at an explicit dispatch level; `out[i]` is bit-identical to
/// that level's single-row kernel (at [`SimdLevel::Scalar`], to
/// [`inner_product`]).
///
/// # Panics
///
/// Panics if `query.len() != dim` or `rows.len() != out.len() * dim`.
pub fn inner_product_block_at(
    level: SimdLevel,
    query: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut [f32],
) {
    validate_block(query, rows, dim, out.len());
    let n = out.len();
    let mut t4 = [0.0f32; TILE];
    let mut r = 0;
    while r + TILE <= n {
        inner_product_tile4_at(level, query, tile_rows(rows, dim, r), &mut t4);
        out[r..r + TILE].copy_from_slice(&t4);
        r += TILE;
    }
    while r < n {
        out[r] = ip_row_at(level, query, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

/// [`inner_product_block_at`] at the process-wide dispatch level.
pub fn inner_product_block(query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    inner_product_block_at(simd_level(), query, rows, dim, out);
}

/// Squared Euclidean distance of `query` to each row of a contiguous
/// block at an explicit dispatch level; `out[i]` is bit-identical to
/// that level's single-row kernel (at [`SimdLevel::Scalar`], to
/// [`l2_sq`]).
///
/// # Panics
///
/// Panics if `query.len() != dim` or `rows.len() != out.len() * dim`.
pub fn l2_sq_block_at(level: SimdLevel, query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    validate_block(query, rows, dim, out.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && level.is_supported() {
        // SAFETY: AVX2 and FMA were just detected; the kernel slices
        // every operand, so shapes are checked there.
        return unsafe { crate::simd::avx2::l2_block(query, rows, out) };
    }
    let n = out.len();
    let mut t4 = [0.0f32; TILE];
    let mut r = 0;
    while r + TILE <= n {
        l2_sq_tile4_at(level, query, tile_rows(rows, dim, r), &mut t4);
        out[r..r + TILE].copy_from_slice(&t4);
        r += TILE;
    }
    while r < n {
        out[r] = l2_row_at(level, query, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

/// [`l2_sq_block_at`] at the process-wide dispatch level.
pub fn l2_sq_block(query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    l2_sq_block_at(simd_level(), query, rows, dim, out);
}

/// A coarse-probe key: a squared distance and the index of the row it
/// was measured to, packed so that plain `u64` order is ascending
/// distance under [`f32::total_cmp`], ties by ascending index — a total
/// order, and on finite distances exactly the order of a stable sort by
/// distance (`l2_sq` never yields `-0.0`). The high half is the
/// distance's bits mapped to `total_cmp` order (a negative flips every
/// bit, anything else its sign bit), the low half the index.
/// [`probe_key_distance`] and [`probe_key_centroid`] unpack one.
#[inline]
pub fn probe_key(distance: f32, index: u32) -> u64 {
    let bits = distance.to_bits();
    let ordered = bits ^ ((bits as i32 >> 31) as u32 | 1 << 31);
    u64::from(ordered) << 32 | u64::from(index)
}

/// The row index packed into a [`probe_key`] — the centroid, where the
/// rows are a coarse quantizer's table.
#[inline]
pub fn probe_key_centroid(key: u64) -> usize {
    key as u32 as usize
}

/// The distance half of a [`probe_key`]: `u32` order is the
/// [`f32::total_cmp`] order of the squared distances, so keys measured
/// against *different* tables of one embedding space compare by it.
#[inline]
pub fn probe_key_distance(key: u64) -> u32 {
    (key >> 32) as u32
}

/// The squared distance packed into a [`probe_key`], bit for bit.
#[inline]
pub fn probe_key_squared_distance(key: u64) -> f32 {
    let ordered = probe_key_distance(key);
    f32::from_bits(if ordered >> 31 == 1 {
        ordered ^ 1 << 31
    } else {
        !ordered
    })
}

/// [`l2_sq_block_at`] written as [`probe_key`]s: `keys[i]` packs the
/// squared distance of `query` to row `i` of the block — bit-identical
/// to `l2_sq_block_at`'s — with the index `first + i`. The AVX2 form
/// packs eight keys in registers straight from its 8-row tile; the
/// others pack the distances of `l2_sq_block_at`.
///
/// # Panics
///
/// Panics if `query.len() != dim`, `rows.len() != keys.len() * dim` or
/// `first + keys.len()` exceeds `2^32`.
pub fn l2_sq_keys_block_at(
    level: SimdLevel,
    query: &[f32],
    rows: &[f32],
    dim: usize,
    first: u32,
    keys: &mut [u64],
) {
    validate_block(query, rows, dim, keys.len());
    assert!(
        u64::from(first) + keys.len() as u64 <= 1 << 32,
        "probe-key indices past u32::MAX"
    );
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && level.is_supported() {
        // SAFETY: AVX2 and FMA were just detected and the indices fit a
        // `u32` (asserted above); the kernel checks shapes.
        return unsafe { crate::simd::avx2::l2_keys_block(query, rows, first, keys) };
    }
    let mut dists = [0.0f32; BLOCK];
    for (c, keys) in keys.chunks_mut(BLOCK).enumerate() {
        let from = c * BLOCK;
        let block = &rows[from * dim..(from + keys.len()) * dim];
        l2_sq_block_at(level, query, block, dim, &mut dists[..keys.len()]);
        for (j, (key, &d)) in keys.iter_mut().zip(&dists).enumerate() {
            *key = probe_key(d, first + (from + j) as u32);
        }
    }
}

/// [`l2_sq_keys_block_at`] at the process-wide dispatch level.
pub fn l2_sq_keys_block(query: &[f32], rows: &[f32], dim: usize, first: u32, keys: &mut [u64]) {
    l2_sq_keys_block_at(simd_level(), query, rows, dim, first, keys);
}

/// Cosine similarity of `query` to each row of a contiguous block at an
/// explicit dispatch level (including the zero-vector → `0.0`
/// convention). The query norm is computed once per block by the
/// *scalar* kernel at every level, so `na` is bit-identical across
/// levels and only the per-row dot product and squared norm carry the
/// level's reduction order.
///
/// # Panics
///
/// Panics if `query.len() != dim` or `rows.len() != out.len() * dim`.
pub fn cosine_block_at(level: SimdLevel, query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    validate_block(query, rows, dim, out.len());
    let na = norm(query);
    let n = out.len();
    let mut ips = [0.0f32; TILE];
    let mut sqs = [0.0f32; TILE];
    let mut r = 0;
    while r + TILE <= n {
        let tile = tile_rows(rows, dim, r);
        inner_product_tile4_at(level, query, tile, &mut ips);
        sq_norm_tile4_at(level, tile, &mut sqs);
        for t in 0..TILE {
            let nb = sqs[t].sqrt();
            out[r + t] = if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                ips[t] / (na * nb)
            };
        }
        r += TILE;
    }
    while r < n {
        let row = &rows[r * dim..(r + 1) * dim];
        let nb = sq_norm_row_at(level, row).sqrt();
        out[r] = if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            ip_row_at(level, query, row) / (na * nb)
        };
        r += 1;
    }
}

/// Rows per cache block of [`nearest_rows_l2_at`]: at 64 dims a block
/// of rows is 8 KB and a [`BLOCK`] of centroids 16 KB, so both operands
/// of the tile loop stay L1-resident and the centroid table streams from
/// L2 once per `ARGMIN_ROWS` rows instead of once per row.
const ARGMIN_ROWS: usize = 32;

/// L2 argmin of many rows against one centroid table at an explicit
/// dispatch level — the one argmin behind K-means assignment, IVF coarse
/// assignment and PQ subspace encoding. `data` is a flat row-major
/// buffer `table.cols()` wide; for each `rows[i]` (any subset, any
/// order, repeats allowed) `out[i]` becomes the index of the nearest row
/// of `table` and its squared distance, `(0, +inf)` when nothing scores
/// below `+inf` (an empty table, a NaN row).
///
/// Walks row blocks x centroid blocks; AVX2 scores them with a 2 x 4
/// register tile, the other levels with [`l2_sq_block_at`] row by row.
/// Every distance is bit-identical to that level's single-row kernel
/// (tier B: tiling only interleaves independent per-pair chains), and
/// every row meets the centroids in ascending index under a strict `<`,
/// so the first index wins ties and NaN never wins: the result does not
/// depend on which rows share a call.
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or a row index is past the end of
/// `data`.
pub fn nearest_rows_l2_at(
    level: SimdLevel,
    data: &[f32],
    rows: &[u32],
    table: &Mat,
    out: &mut [(u32, f32)],
) {
    let dim = table.cols();
    let k = table.rows();
    assert_eq!(rows.len(), out.len(), "one result slot per row");
    assert!(
        rows.iter().all(|&r| (r as usize + 1) * dim <= data.len()),
        "row index past the end of a {}-float buffer of {dim}-dim rows",
        data.len()
    );
    for (rows, out) in rows.chunks(ARGMIN_ROWS).zip(out.chunks_mut(ARGMIN_ROWS)) {
        out.fill((0, f32::INFINITY));
        for base in (0..k).step_by(BLOCK) {
            let bn = BLOCK.min(k - base);
            let block = &table.as_slice()[base * dim..(base + bn) * dim];
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the guard proves AVX2 and FMA; the kernel
                // slices every operand, so shapes are checked there.
                SimdLevel::Avx2 if level.is_supported() => unsafe {
                    crate::simd::avx2::l2_argmin_block(data, dim, rows, block, bn, base as u32, out)
                },
                _ => {
                    let mut buf = [0.0f32; BLOCK];
                    for (&r, best) in rows.iter().zip(out.iter_mut()) {
                        let row = &data[r as usize * dim..(r as usize + 1) * dim];
                        l2_sq_block_at(level, row, block, dim, &mut buf[..bn]);
                        for (j, &d) in buf[..bn].iter().enumerate() {
                            if d < best.1 {
                                *best = ((base + j) as u32, d);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// [`nearest_rows_l2_at`] at the process-wide dispatch level.
pub fn nearest_rows_l2(data: &[f32], rows: &[u32], table: &Mat, out: &mut [(u32, f32)]) {
    nearest_rows_l2_at(simd_level(), data, rows, table, out);
}

/// Index and squared distance of the row of `rows` nearest to `query`
/// under L2 at an explicit dispatch level: the one-row call of
/// [`nearest_rows_l2_at`]. First index wins ties; `(0, +inf)` for an
/// empty matrix.
///
/// # Panics
///
/// Panics if `query.len() != rows.cols()`.
pub fn nearest_row_l2_at(level: SimdLevel, query: &[f32], rows: &Mat) -> (usize, f32) {
    assert_eq!(
        query.len(),
        rows.cols(),
        "query dimension mismatch: query has {} dims, rows have {}",
        query.len(),
        rows.cols()
    );
    let mut out = [(0, f32::INFINITY)];
    nearest_rows_l2_at(level, query, &[0], rows, &mut out);
    (out[0].0 as usize, out[0].1)
}

/// [`nearest_row_l2_at`] at the process-wide dispatch level.
pub fn nearest_row_l2(query: &[f32], rows: &Mat) -> (usize, f32) {
    nearest_row_l2_at(simd_level(), query, rows)
}

// ---------------------------------------------------------------------------
// Blocked code-scoring kernels (tier A — bit-identical at every level).
// ---------------------------------------------------------------------------

/// Checks that `segments` are whole `stride`-byte codes, `n` of them in
/// all.
#[track_caller]
fn validate_segments(stride: usize, segments: &[&[u8]], n: usize, what: &str) {
    let bytes: usize = segments.iter().map(|s| s.len()).sum();
    assert!(
        bytes == n * stride && segments.iter().all(|s| stride == 0 || s.len() % stride == 0),
        "{what} block size mismatch: {bytes} bytes in {} segments is not {n} codes x {stride} bytes",
        segments.len()
    );
}

/// The shared body of the two SQ8 segment kernels.
fn sq8_segments_at<const L2: bool>(
    level: SimdLevel,
    query: &[f32],
    mins: &[f32],
    scales: &[f32],
    segments: &[&[u8]],
    out: &mut [f32],
    pace: &mut dyn FnMut(usize),
) {
    let dim = query.len();
    assert_eq!(mins.len(), dim, "SQ8 mins length mismatch");
    assert_eq!(scales.len(), dim, "SQ8 scales length mismatch");
    validate_segments(dim, segments, out.len(), "SQ8 code");
    if out.is_empty() {
        return;
    }
    if dim == 0 {
        // Zero-dimensional codes: the empty sum, negated for L2.
        out.fill(if L2 { -0.0 } else { 0.0 });
        return;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if level.is_supported() => unsafe {
            crate::simd::avx2::sq8_segments::<L2>(query, mins, scales, segments, out, pace)
        },
        // Scalar reference and NEON: segment by segment.
        _ => {
            let mut at = 0;
            for codes in segments {
                let rows = codes.len() / dim;
                pace(rows);
                let out = &mut out[at..at + rows];
                #[allow(unused_mut)]
                let mut r = 0;
                #[cfg(target_arch = "aarch64")]
                if level == SimdLevel::Neon {
                    r = unsafe {
                        if L2 {
                            crate::simd::neon::sq8_l2_tiles(query, mins, scales, codes, out)
                        } else {
                            crate::simd::neon::sq8_ip_tiles(query, mins, scales, codes, out)
                        }
                    };
                }
                if L2 {
                    sq8_l2_scalar(query, mins, scales, codes, out, r);
                } else {
                    sq8_ip_scalar(query, mins, scales, codes, out, r);
                }
                at += rows;
            }
        }
    }
}

/// SQ8 asymmetric inner product of `query` against the
/// one-byte-per-dimension codes of `segments`, scored in order as if the
/// segments were one contiguous block:
/// `out[i] = Σ_d query[d] * (mins[d] + code_i[d] as f32 * scales[d])`,
/// accumulated sequentially over `d` per code. **Bit-identical at every
/// dispatch level and every segmentation** (tier A): the SIMD form puts
/// one code per lane and folds each dequantized value into its
/// accumulator in the scalar operation order, mul and add kept separate —
/// a score never depends on which codes share its tile, so the AVX2
/// tiles run across segment boundaries (several short inverted lists
/// fill one tile) while the scalar and NEON forms walk segment by
/// segment.
///
/// `pace` is called just before each group of codes is scored, with the
/// group's size — at most 16 codes on AVX2, a segment elsewhere; the
/// sizes sum to `out.len()`. It is how a caller streaming cold lists
/// keeps a prefetch cursor ([`prefetch_read`](crate::simd::prefetch_read))
/// a fixed number of rows ahead of the kernel, a few lines at a time
/// between tiles instead of a burst between calls that the line-fill
/// buffers cannot absorb. Pass `&mut |_| {}` when there is nothing to
/// pace.
///
/// # Panics
///
/// Panics unless `query` and `mins`/`scales` share one length `dim`,
/// every segment is a whole number of `dim`-byte codes and the segments
/// hold `out.len()` codes between them.
pub fn sq8_ip_segments_at(
    level: SimdLevel,
    query: &[f32],
    mins: &[f32],
    scales: &[f32],
    segments: &[&[u8]],
    out: &mut [f32],
    pace: &mut dyn FnMut(usize),
) {
    sq8_segments_at::<false>(level, query, mins, scales, segments, out, pace);
}

/// Scalar tier-A SQ8 inner product from code `start` on: 4-code
/// register tiles sharing each `(q, min, scale)` triple, then single
/// codes — every shape folds dimensions in the same order, so the
/// tiling never changes bits.
fn sq8_ip_scalar(
    query: &[f32],
    mins: &[f32],
    scales: &[f32],
    codes: &[u8],
    out: &mut [f32],
    start: usize,
) {
    let dim = query.len();
    let n = out.len();
    let mut r = start;
    while r + 4 <= n {
        let c0 = &codes[r * dim..(r + 1) * dim];
        let c1 = &codes[(r + 1) * dim..(r + 2) * dim];
        let c2 = &codes[(r + 2) * dim..(r + 3) * dim];
        let c3 = &codes[(r + 3) * dim..(r + 4) * dim];
        let mut acc = [0.0f32; 4];
        for d in 0..dim {
            let q = query[d];
            let min = mins[d];
            let scale = scales[d];
            acc[0] += q * (min + c0[d] as f32 * scale);
            acc[1] += q * (min + c1[d] as f32 * scale);
            acc[2] += q * (min + c2[d] as f32 * scale);
            acc[3] += q * (min + c3[d] as f32 * scale);
        }
        out[r..r + 4].copy_from_slice(&acc);
        r += 4;
    }
    while r < n {
        let code = &codes[r * dim..(r + 1) * dim];
        let mut acc = 0.0f32;
        for d in 0..dim {
            acc += query[d] * (mins[d] + code[d] as f32 * scales[d]);
        }
        out[r] = acc;
        r += 1;
    }
}

/// SQ8 asymmetric **negated** squared L2 distance (similarity
/// orientation): `out[i] = -Σ_d (query[d] - dequant_i[d])²`, tiled like
/// [`sq8_ip_segments_at`]. Bit-identical at every dispatch level and
/// segmentation (tier A); the sign flip matches scalar unary negation
/// bit-for-bit, `-0.0` included.
///
/// # Panics
///
/// Same shape panics as [`sq8_ip_segments_at`].
pub fn sq8_l2_segments_at(
    level: SimdLevel,
    query: &[f32],
    mins: &[f32],
    scales: &[f32],
    segments: &[&[u8]],
    out: &mut [f32],
    pace: &mut dyn FnMut(usize),
) {
    sq8_segments_at::<true>(level, query, mins, scales, segments, out, pace);
}

/// Scalar tier-A SQ8 negated-L2 from code `start` on; see
/// [`sq8_ip_scalar`].
fn sq8_l2_scalar(
    query: &[f32],
    mins: &[f32],
    scales: &[f32],
    codes: &[u8],
    out: &mut [f32],
    start: usize,
) {
    let dim = query.len();
    let n = out.len();
    let mut r = start;
    while r + 4 <= n {
        let c0 = &codes[r * dim..(r + 1) * dim];
        let c1 = &codes[(r + 1) * dim..(r + 2) * dim];
        let c2 = &codes[(r + 2) * dim..(r + 3) * dim];
        let c3 = &codes[(r + 3) * dim..(r + 4) * dim];
        let mut acc = [0.0f32; 4];
        for d in 0..dim {
            let q = query[d];
            let min = mins[d];
            let scale = scales[d];
            let d0 = q - (min + c0[d] as f32 * scale);
            let d1 = q - (min + c1[d] as f32 * scale);
            let d2 = q - (min + c2[d] as f32 * scale);
            let d3 = q - (min + c3[d] as f32 * scale);
            acc[0] += d0 * d0;
            acc[1] += d1 * d1;
            acc[2] += d2 * d2;
            acc[3] += d3 * d3;
        }
        for (o, a) in out[r..r + 4].iter_mut().zip(&acc) {
            *o = -a;
        }
        r += 4;
    }
    while r < n {
        let code = &codes[r * dim..(r + 1) * dim];
        let mut acc = 0.0f32;
        for d in 0..dim {
            let diff = query[d] - (mins[d] + code[d] as f32 * scales[d]);
            acc += diff * diff;
        }
        out[r] = -acc;
        r += 1;
    }
}

/// Largest magnitude of an [`sq8_dot_i8_at`] weight. Seven bits are what
/// the AVX2 form's `vpmaddubsw` leaves room for: it adds two adjacent
/// `u8 x i8` products into a saturating `i16`, and `2 * 255 * 63 =
/// 32 130` stays below `i16::MAX` where eight-bit weights would not.
pub const SQ8_WEIGHT_MAX: i8 = 63;

/// Integer dot products of one-byte codes with small signed weights:
/// `out[i] = Σ_d weights[d] * code_i[d]` over the `weights.len()`-byte
/// codes of `segments`, in order. The arithmetic is exact `i32`, so every
/// dispatch level returns the same numbers by construction; what a level
/// changes is the cost (AVX2: about a sixth of the µops of the f32 SQ8
/// kernel per code, for codes of 32 bytes and more). This is not a score:
/// it is the integer part of an *upper bound* on one (`hermes_quant`'s
/// `Sq8Bound`). A scan wants only its comparison with a floor, which
/// [`sq8_dot_i8_mask_at`] returns from the same kernel body. `pace` is
/// called like [`sq8_ip_segments_at`]'s.
///
/// # Panics
///
/// Panics if a weight exceeds [`SQ8_WEIGHT_MAX`] in magnitude, the codes
/// are longer than `i32::MAX / (255 * 63)` bytes (a sum could overflow),
/// a segment is not a whole number of codes or the segments do not hold
/// `out.len()` codes.
pub fn sq8_dot_i8_at(
    level: SimdLevel,
    weights: &[i8],
    segments: &[&[u8]],
    out: &mut [i32],
    pace: &mut dyn FnMut(usize),
) {
    validate_dot_i8(weights, segments, out.len());
    if weights.is_empty() {
        out.fill(0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if dot_i8_runs_avx2(level, weights, out.len()) {
        // SAFETY: AVX2 was just detected, the codes are at least 32
        // bytes, `out` is not empty, and `validate_dot_i8` checked the
        // weights' range and that the segments are `out.len()` whole
        // codes.
        return unsafe { crate::simd::avx2::sq8_dot_i8(weights, segments, out, pace) };
    }
    let _ = level;
    sq8_dot_i8_scalar(weights, segments, pace, |i, sum| out[i] = sum);
}

/// The survivors of a floor among [`sq8_dot_i8_at`]'s sums, eight codes a
/// byte: bit `j` of `masks[g]` is set iff code `8 g + j` of the `n` codes
/// of `segments` has `Σ_d weights[d] * code[d] >= floor` — for every
/// `i32` floor, `i32::MIN` (everything survives) included. Bits past the
/// last code are clear. The AVX2 form compares the eight sums of a tile
/// in the register that holds them and writes only the byte; the other
/// levels compare their exact sums, so every level writes the same bytes.
/// `pace` as in [`sq8_dot_i8_at`].
///
/// # Panics
///
/// As [`sq8_dot_i8_at`] with `n` codes, and if `masks.len() !=
/// n.div_ceil(8)`.
pub fn sq8_dot_i8_mask_at(
    level: SimdLevel,
    weights: &[i8],
    segments: &[&[u8]],
    n: usize,
    floor: i32,
    masks: &mut [u8],
    pace: &mut dyn FnMut(usize),
) {
    validate_dot_i8(weights, segments, n);
    assert_eq!(masks.len(), n.div_ceil(8), "one mask byte per eight codes");
    #[cfg(target_arch = "x86_64")]
    if dot_i8_runs_avx2(level, weights, n) {
        // SAFETY: as in `sq8_dot_i8_at`, and `masks` was sized above.
        return unsafe {
            crate::simd::avx2::sq8_dot_i8_mask(weights, segments, n, floor, masks, pace)
        };
    }
    let _ = level;
    masks.fill(0);
    let mut mark = |i: usize, sum: i32| masks[i / 8] |= u8::from(sum >= floor) << (i % 8);
    if weights.is_empty() {
        // Zero-byte codes: every sum is the empty one.
        (0..n).for_each(|i| mark(i, 0));
    } else {
        sq8_dot_i8_scalar(weights, segments, pace, mark);
    }
}

/// The shape checks shared by [`sq8_dot_i8_at`] and
/// [`sq8_dot_i8_mask_at`].
#[track_caller]
fn validate_dot_i8(weights: &[i8], segments: &[&[u8]], n: usize) {
    let dim = weights.len();
    assert!(
        weights.iter().all(|w| w.unsigned_abs() <= SQ8_WEIGHT_MAX as u8),
        "SQ8 bound weight beyond +-{SQ8_WEIGHT_MAX}"
    );
    assert!(
        dim <= i32::MAX as usize / (255 * SQ8_WEIGHT_MAX as usize),
        "SQ8 bound sums of {dim}-byte codes could overflow"
    );
    validate_segments(dim, segments, n, "SQ8 code");
}

/// Whether the integer kernels run their AVX2 form: codes of at least
/// one 32-byte step, at least one code.
#[cfg(target_arch = "x86_64")]
fn dot_i8_runs_avx2(level: SimdLevel, weights: &[i8], n: usize) -> bool {
    level == SimdLevel::Avx2 && level.is_supported() && weights.len() >= 32 && n > 0
}

/// The portable integer kernel: `each(i, sum)` for every code `i` of
/// `segments`, in order, `pace` before each segment. Integer arithmetic,
/// so it is every level's answer.
fn sq8_dot_i8_scalar(
    weights: &[i8],
    segments: &[&[u8]],
    pace: &mut dyn FnMut(usize),
    mut each: impl FnMut(usize, i32),
) {
    let dim = weights.len();
    let mut i = 0;
    for codes in segments {
        pace(codes.len() / dim);
        for code in codes.chunks_exact(dim) {
            each(
                i,
                code.iter()
                    .zip(weights)
                    .map(|(&c, &w)| i32::from(c) * i32::from(w))
                    .sum(),
            );
            i += 1;
        }
    }
}

/// PQ/ADC table walk over the `m`-byte codes of `segments`, in order:
/// `out[i] = Σ_sub tables[sub * 256 + code_i[sub]]`, added in subspace
/// order per code, `pace` called before each segment with its code
/// count. The scalar walk at every dispatch `level`, so bit-identical
/// at every level and segmentation (tier A).
///
/// # Panics
///
/// Panics if `tables.len() != m * 256`, a segment is not a whole number
/// of `m`-byte codes or the segments do not hold `out.len()` codes.
pub fn adc_block_at(
    _level: SimdLevel,
    tables: &[f32],
    m: usize,
    segments: &[&[u8]],
    out: &mut [f32],
    pace: &mut dyn FnMut(usize),
) {
    assert_eq!(tables.len(), m * 256, "ADC table size mismatch");
    validate_segments(m, segments, out.len(), "ADC code");
    if m == 0 {
        out.fill(0.0);
        return;
    }
    let mut at = 0;
    for codes in segments {
        let out = &mut out[at..at + codes.len() / m];
        at += out.len();
        pace(out.len());
        adc_scalar(tables, m, codes, out);
    }
}

/// Scalar tier-A ADC walk: four walks share each hot `tables` row, then
/// single codes.
fn adc_scalar(tables: &[f32], m: usize, codes: &[u8], out: &mut [f32]) {
    let n = out.len();
    let mut r = 0;
    while r + 4 <= n {
        let c0 = &codes[r * m..(r + 1) * m];
        let c1 = &codes[(r + 1) * m..(r + 2) * m];
        let c2 = &codes[(r + 2) * m..(r + 3) * m];
        let c3 = &codes[(r + 3) * m..(r + 4) * m];
        let mut acc = [0.0f32; 4];
        for sub in 0..m {
            let base = sub * 256;
            acc[0] += tables[base + c0[sub] as usize];
            acc[1] += tables[base + c1[sub] as usize];
            acc[2] += tables[base + c2[sub] as usize];
            acc[3] += tables[base + c3[sub] as usize];
        }
        out[r..r + 4].copy_from_slice(&acc);
        r += 4;
    }
    while r < n {
        let code = &codes[r * m..(r + 1) * m];
        let mut acc = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            acc += tables[sub * 256 + c as usize];
        }
        out[r] = acc;
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use hermes_testkit::lane_ordered_fold;

    fn random_block(n: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = seeded_rng(seed);
        let query: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        let rows: Vec<f32> = (0..n * dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        (query, rows)
    }

    #[test]
    fn scalar_level_blocked_kernels_are_bit_identical_to_scalar() {
        for dim in [1usize, 3, 4, 7, 8, 17, 33, 64] {
            // 11 rows: two full tiles plus a 3-row remainder.
            let (query, rows) = random_block(11, dim, dim as u64);
            let mut out = vec![0.0f32; 11];
            inner_product_block_at(SimdLevel::Scalar, &query, &rows, dim, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = inner_product(&query, &rows[i * dim..(i + 1) * dim]);
                assert_eq!(o.to_bits(), want.to_bits(), "ip dim {dim} row {i}");
            }
            l2_sq_block_at(SimdLevel::Scalar, &query, &rows, dim, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = l2_sq(&query, &rows[i * dim..(i + 1) * dim]);
                assert_eq!(o.to_bits(), want.to_bits(), "l2 dim {dim} row {i}");
            }
            cosine_block_at(SimdLevel::Scalar, &query, &rows, dim, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = crate::distance::cosine(&query, &rows[i * dim..(i + 1) * dim]);
                assert_eq!(o.to_bits(), want.to_bits(), "cos dim {dim} row {i}");
            }
        }
    }

    /// The tier-B reference: what each level must return per row, bit
    /// for bit, as a lane-ordered fold at the level's lane count and
    /// fusion mode.
    fn reference_ip(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
        let lanes = level.lanes();
        if level.fused() {
            lane_ordered_fold(q.len(), lanes, |acc, i| x[i].mul_add(q[i], acc))
        } else {
            lane_ordered_fold(q.len(), lanes, |acc, i| acc + q[i] * x[i])
        }
    }

    fn reference_l2(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
        let lanes = level.lanes();
        if level.fused() {
            lane_ordered_fold(q.len(), lanes, |acc, i| {
                let d = q[i] - x[i];
                d.mul_add(d, acc)
            })
        } else {
            lane_ordered_fold(q.len(), lanes, |acc, i| {
                let d = q[i] - x[i];
                acc + d * d
            })
        }
    }

    fn reference_cosine(level: SimdLevel, q: &[f32], x: &[f32]) -> f32 {
        let na = norm(q);
        let nb = reference_ip(level, x, x).sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            reference_ip(level, q, x) / (na * nb)
        }
    }

    #[test]
    fn every_available_level_is_bit_identical_to_its_lane_ordered_reference() {
        for level in SimdLevel::available() {
            for dim in [1usize, 3, 7, 8, 9, 16, 17, 31, 64, 80] {
                let (query, rows) = random_block(11, dim, 0x51AD + dim as u64);
                let mut out = vec![0.0f32; 11];
                inner_product_block_at(level, &query, &rows, dim, &mut out);
                for (i, o) in out.iter().enumerate() {
                    let want = reference_ip(level, &query, &rows[i * dim..(i + 1) * dim]);
                    assert_eq!(o.to_bits(), want.to_bits(), "{level} ip dim {dim} row {i}");
                }
                l2_sq_block_at(level, &query, &rows, dim, &mut out);
                for (i, o) in out.iter().enumerate() {
                    let want = reference_l2(level, &query, &rows[i * dim..(i + 1) * dim]);
                    assert_eq!(o.to_bits(), want.to_bits(), "{level} l2 dim {dim} row {i}");
                }
                cosine_block_at(level, &query, &rows, dim, &mut out);
                for (i, o) in out.iter().enumerate() {
                    let want = reference_cosine(level, &query, &rows[i * dim..(i + 1) * dim]);
                    assert_eq!(o.to_bits(), want.to_bits(), "{level} cos dim {dim} row {i}");
                }
            }
        }
    }

    #[test]
    fn levels_agree_within_the_pinned_ulp_bound() {
        use hermes_testkit::ulp_within_scaled;
        for level in SimdLevel::available() {
            for dim in [1usize, 8, 33, 80, 768] {
                let (query, rows) = random_block(9, dim, 0xB0DE + dim as u64);
                let mut got = vec![0.0f32; 9];
                let mut want = vec![0.0f32; 9];
                inner_product_block_at(level, &query, &rows, dim, &mut got);
                inner_product_block_at(SimdLevel::Scalar, &query, &rows, dim, &mut want);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    let row = &rows[i * dim..(i + 1) * dim];
                    let scale: f64 = query
                        .iter()
                        .zip(row)
                        .map(|(a, b)| (a * b).abs() as f64)
                        .sum();
                    assert!(
                        ulp_within_scaled(*g, *w, 256, scale as f32),
                        "{level} ip dim {dim} row {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn cosine_block_preserves_zero_vector_convention_at_every_level() {
        for level in SimdLevel::available() {
            let query = vec![0.0f32; 4];
            let rows = vec![1.0f32; 8];
            let mut out = [7.0f32; 2];
            cosine_block_at(level, &query, &rows, 4, &mut out);
            assert_eq!(out, [0.0, 0.0], "{level}");
            // Zero rows against a non-zero query, crossing the tile
            // remainder (5 rows).
            let query = vec![1.0f32; 4];
            let rows = vec![0.0f32; 20];
            let mut out = [7.0f32; 5];
            cosine_block_at(level, &query, &rows, 4, &mut out);
            assert_eq!(out, [0.0; 5], "{level}");
        }
    }

    #[test]
    fn nearest_row_matches_scalar_argmin() {
        let (query, rows) = random_block(37, 6, 9);
        let mat = Mat::from_flat(37, 6, rows);
        let (best, best_d) = nearest_row_l2_at(SimdLevel::Scalar, &query, &mat);
        let want = mat
            .iter_rows()
            .enumerate()
            .min_by(|a, b| l2_sq(a.1, &query).partial_cmp(&l2_sq(b.1, &query)).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, want);
        assert_eq!(best_d.to_bits(), l2_sq(&query, mat.row(best)).to_bits());
        // On non-degenerate random data every level agrees on the argmin
        // (distances differ only in the last ULPs); this is deterministic
        // per seed, so it can never flake.
        for level in SimdLevel::available() {
            assert_eq!(nearest_row_l2_at(level, &query, &mat).0, want, "{level}");
        }
    }

    /// The argmin oracle: the level's blocked single-query kernel against
    /// the whole table, then the plain strict-`<` scan.
    fn argmin_oracle(level: SimdLevel, row: &[f32], table: &Mat) -> (u32, f32) {
        let mut dists = vec![0.0f32; table.rows()];
        l2_sq_block_at(level, row, table.as_slice(), table.cols(), &mut dists);
        let mut best = (0, f32::INFINITY);
        for (c, &d) in dists.iter().enumerate() {
            if d < best.1 {
                best = (c as u32, d);
            }
        }
        best
    }

    #[test]
    fn multi_row_argmin_is_the_per_row_argmin_to_the_bit() {
        use hermes_testkit::prelude::*;
        // Rows and centroids past one and two cache blocks with every
        // ragged row pair and centroid tile; dims with every SIMD tail.
        let shape = tuple3(usize_in(0..71), usize_in(1..71), usize_in(1..81));
        check(
            "multi_row_argmin_is_the_per_row_argmin_to_the_bit",
            &tuple2(shape, u64_any()),
            |&((n, k, dim), seed)| {
                let mut rng = seeded_rng(seed);
                // A coarse grid makes exact distance ties common; one
                // value in 40 is NaN or an infinity.
                let grid = rng.gen_range(0..2usize) == 0;
                let value = |rng: &mut crate::rng::SeededRng| match rng.gen_range(0..40usize) {
                    0 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)],
                    _ if grid => rng.gen_range(0..3usize) as f32 - 1.0,
                    _ => rng.next_f32() * 2.0 - 1.0,
                };
                // A third of the centroids repeat an earlier one (ties go
                // to the lowest index); a third of the rows sit on a
                // centroid.
                let mut table: Vec<f32> = Vec::with_capacity(k * dim);
                for c in 0..k {
                    if c > 0 && rng.gen_range(0..3usize) == 0 {
                        let from = rng.gen_range(0..c) * dim;
                        table.extend_from_within(from..from + dim);
                    } else {
                        table.extend((0..dim).map(|_| value(&mut rng)));
                    }
                }
                let mut data: Vec<f32> = Vec::with_capacity(n * dim);
                for _ in 0..n {
                    if rng.gen_range(0..3usize) == 0 {
                        let from = rng.gen_range(0..k) * dim;
                        data.extend_from_slice(&table[from..from + dim]);
                    } else {
                        data.extend((0..dim).map(|_| value(&mut rng)));
                    }
                }
                let table = Mat::from_flat(k, dim, table);
                // Any subset: out of order, with repeats, possibly empty.
                let picks = if n == 0 {
                    0
                } else {
                    rng.gen_range(0..2 * n + 1)
                };
                let rows: Vec<u32> = (0..picks).map(|_| rng.gen_range(0..n) as u32).collect();
                for level in SimdLevel::available() {
                    let mut got = vec![(9u32, 9.0f32); rows.len()];
                    nearest_rows_l2_at(level, &data, &rows, &table, &mut got);
                    for (&r, &(c, d)) in rows.iter().zip(&got) {
                        let row = &data[r as usize * dim..(r as usize + 1) * dim];
                        let want = argmin_oracle(level, row, &table);
                        prop_assert!(
                            (c, d.to_bits()) == (want.0, want.1.to_bits()),
                            "{level} n{n} k{k} dim{dim} row {r}: ({c}, {d:e}) vs ({}, {:e})",
                            want.0,
                            want.1
                        );
                        let one = nearest_row_l2_at(level, row, &table);
                        prop_assert!(
                            (one.0 as u32, one.1.to_bits()) == (c, d.to_bits()),
                            "{level} n{n} k{k} dim{dim} row {r}: the one-row call differs"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "row index past the end")]
    fn multi_row_argmin_rejects_a_row_past_the_buffer() {
        let table = Mat::zeros(3, 2);
        let mut out = [(0, 0.0)];
        nearest_rows_l2_at(SimdLevel::Scalar, &[0.0; 4], &[2], &table, &mut out);
    }

    #[test]
    fn nearest_row_of_empty_matrix_is_sentinel() {
        let m = Mat::zeros(0, 4);
        assert_eq!(nearest_row_l2(&[0.0; 4], &m), (0, f32::INFINITY));
    }

    /// The tier-A reference: the plain per-code walk, no tiling at all.
    fn sq8_reference(l2: bool, q: &[f32], mins: &[f32], scales: &[f32], code: &[u8]) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..q.len() {
            let val = mins[d] + code[d] as f32 * scales[d];
            if l2 {
                let diff = q[d] - val;
                acc += diff * diff;
            } else {
                acc += q[d] * val;
            }
        }
        if l2 {
            -acc
        } else {
            acc
        }
    }

    /// Cuts `codes` (`n` codes of `stride` bytes) into segments at the
    /// given code positions, dropping nothing: cuts may repeat (an empty
    /// segment) or exceed `n` (clamped).
    fn cut<'a>(codes: &'a [u8], stride: usize, n: usize, cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut segments = Vec::new();
        let mut at = 0;
        for &c in cuts {
            let c = c.clamp(at, n);
            segments.push(&codes[at * stride..c * stride]);
            at = c;
        }
        segments.push(&codes[at * stride..n * stride]);
        segments
    }

    #[test]
    fn sq8_query_tiles_and_adc_are_bit_identical_to_the_scalar_walk() {
        let mut rng = seeded_rng(0xADC);
        // Dims crossing the 8-byte transpose chunk and its remainders;
        // code counts crossing one tile, two tiles and the ragged tails
        // of both, including the 19-code mean inverted-list length; each
        // block whole and cut into segments that split tiles (1-code and
        // empty segments included).
        let segmentations: [&[usize]; 4] = [&[], &[1], &[3, 3, 4, 12], &[7, 9, 17, 18, 30]];
        for dim in [1usize, 3, 8, 11, 16, 29, 64] {
            for n in [0usize, 1, 4, 7, 8, 9, 15, 16, 17, 19, 31, 33] {
                let query: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                let mins: Vec<f32> = (0..dim).map(|_| rng.next_f32() - 1.0).collect();
                let scales: Vec<f32> = (0..dim).map(|_| rng.next_f32() / 127.0).collect();
                let codes: Vec<u8> = (0..n * dim)
                    .map(|_| (rng.next_u64() & 0xFF) as u8)
                    .collect();
                let m = dim;
                let tables: Vec<f32> = (0..m * 256).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
                let mut want_adc = vec![0.0f32; n];
                adc_block_at(
                    SimdLevel::Scalar,
                    &tables,
                    m,
                    &[&codes],
                    &mut want_adc,
                    &mut |_| {},
                );
                for (level, cuts) in SimdLevel::available()
                    .into_iter()
                    .flat_map(|l| segmentations.map(|c| (l, c)))
                {
                    let segments = cut(&codes, dim, n, cuts);
                    let mut got = vec![0.0f32; n];
                    for l2 in [false, true] {
                        // The pacing hook hears of every code once.
                        let mut paced = 0;
                        let pace = &mut |rows| paced += rows;
                        if l2 {
                            sq8_l2_segments_at(
                                level, &query, &mins, &scales, &segments, &mut got, pace,
                            );
                        } else {
                            sq8_ip_segments_at(
                                level, &query, &mins, &scales, &segments, &mut got, pace,
                            );
                        }
                        assert_eq!(paced, n, "{level} d{dim} n{n} {cuts:?}");
                        for i in 0..n {
                            let code = &codes[i * dim..(i + 1) * dim];
                            let want = sq8_reference(l2, &query, &mins, &scales, code);
                            assert_eq!(
                                got[i].to_bits(),
                                want.to_bits(),
                                "{level} sq8 l2={l2} d{dim} n{n} {cuts:?} #{i}"
                            );
                        }
                    }
                    let mut got = vec![0.0f32; n];
                    let mut paced = 0;
                    adc_block_at(level, &tables, m, &segments, &mut got, &mut |rows| {
                        paced += rows
                    });
                    assert_eq!(paced, n, "{level} adc d{dim} n{n} {cuts:?}");
                    for (i, (g, w)) in got.iter().zip(&want_adc).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{level} adc d{dim} n{n} {cuts:?} #{i}"
                        );
                    }
                }
            }
        }
    }

    /// Mostly uniform in `[-1, 1)`; one draw in `rare` is NaN, an
    /// infinity, a signed zero or a subnormal.
    fn adversarial(rng: &mut crate::rng::SeededRng, rare: usize) -> f32 {
        const SPECIAL: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e-40,
            -3e-39,
        ];
        if rng.gen_range(0..rare) == 0 {
            SPECIAL[rng.gen_range(0..SPECIAL.len())]
        } else {
            rng.next_f32() * 2.0 - 1.0
        }
    }

    /// The probe-key layout spelled out independently of [`probe_key`]:
    /// `total_cmp`-ordered distance bits high, the index low.
    fn reference_key(d: f32, index: u32) -> u64 {
        let bits = d.to_bits();
        let ordered = if bits >> 31 == 1 {
            !bits
        } else {
            bits | 1 << 31
        };
        u64::from(ordered) << 32 | u64::from(index)
    }

    #[test]
    fn l2_blocks_and_their_keys_are_the_levels_row_kernel_to_the_bit() {
        // Every block length through five 8-row tiles and every 4-row /
        // single-row remainder, every dimension tail; about one row in
        // four carries a special value.
        let mut rng = seeded_rng(0x8_7113);
        for dim in 1..=80usize {
            for n in 1..=40usize {
                let rare = 4 * dim;
                let query: Vec<f32> = (0..dim).map(|_| adversarial(&mut rng, rare)).collect();
                let rows: Vec<f32> = (0..n * dim).map(|_| adversarial(&mut rng, rare)).collect();
                // Index halves up to the last representable one.
                let first = if n % 2 == 0 {
                    u32::MAX - (n as u32 - 1)
                } else {
                    rng.gen_range(0..1 << 20)
                };
                for level in SimdLevel::available() {
                    let mut out = vec![f32::NAN; n];
                    l2_sq_block_at(level, &query, &rows, dim, &mut out);
                    let mut keys = vec![0u64; n];
                    l2_sq_keys_block_at(level, &query, &rows, dim, first, &mut keys);
                    for (i, row) in rows.chunks_exact(dim).enumerate() {
                        let want = l2_row_at(level, &query, row);
                        assert_eq!(
                            out[i].to_bits(),
                            want.to_bits(),
                            "{level} d{dim} n{n} row {i}: {} vs {want}",
                            out[i]
                        );
                        let key = reference_key(want, first + i as u32);
                        assert_eq!(keys[i], key, "{level} d{dim} n{n} key {i}");
                        assert_eq!(probe_key(want, first + i as u32), key);
                        assert_eq!(probe_key_centroid(key), (first + i as u32) as usize);
                        assert_eq!(probe_key_distance(key), (key >> 32) as u32);
                        assert_eq!(probe_key_squared_distance(key).to_bits(), want.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn survivor_masks_are_the_sums_against_the_floor_at_every_level() {
        let mut rng = seeded_rng(0x5A7E);
        // Dims on both sides of the AVX2 kernel's 32-byte minimum (and the
        // zero-byte code); row counts around the 8-row group, ragged ones
        // included; whole blocks, split tiles and one-row segments.
        for dim in [0usize, 1, 17, 31, 32, 33, 64, 65, 96] {
            for n in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 70] {
                let weights: Vec<i8> = (0..dim)
                    .map(|_| (rng.next_u64() % 127) as i8 - SQ8_WEIGHT_MAX)
                    .collect();
                let codes: Vec<u8> = (0..n * dim).map(|_| rng.next_u64() as u8).collect();
                let sums: Vec<i32> = (0..n)
                    .map(|i| {
                        let code = &codes[i * dim..(i + 1) * dim];
                        code.iter()
                            .zip(&weights)
                            .map(|(&c, &w)| i32::from(c) * i32::from(w))
                            .sum()
                    })
                    .collect();
                let mut floors = vec![i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX];
                for row in [0, n / 2, n - 1, rng.gen_range(0..n)] {
                    floors.extend([sums[row] - 1, sums[row], sums[row] + 1]);
                }
                let one_row: Vec<usize> = (1..n).collect();
                for cuts in [&[][..], &[3, 3, 4, 12], &one_row] {
                    let segments = cut(&codes, dim, n, cuts);
                    for level in SimdLevel::available() {
                        for &floor in &floors {
                            let want: Vec<u8> = sums
                                .chunks(8)
                                .map(|g| {
                                    g.iter()
                                        .enumerate()
                                        .fold(0u8, |m, (j, &s)| m | u8::from(s >= floor) << j)
                                })
                                .collect();
                            let mut got = vec![0xA5u8; n.div_ceil(8)];
                            let mut paced = 0;
                            let pace = &mut |rows| paced += rows;
                            sq8_dot_i8_mask_at(
                                level, &weights, &segments, n, floor, &mut got, pace,
                            );
                            assert_eq!(got, want, "{level} d{dim} n{n} {cuts:?} floor {floor}");
                            assert_eq!(paced, if dim == 0 { 0 } else { n }, "{level} d{dim} n{n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn integer_code_sums_are_exact_at_every_level() {
        let mut rng = seeded_rng(0x1D07);
        let segmentations: [&[usize]; 4] = [&[], &[1], &[3, 3, 4, 12], &[7, 9, 17, 18, 30]];
        // Every dimension around the 32-byte step and its overlapping
        // tail load; code counts around the 8-row reduction.
        for dim in (0usize..=100).chain([128, 131]) {
            for n in [0usize, 1, 7, 8, 9, 19, 33] {
                // Random weights, then the two that reach the largest sums.
                for extreme in [None, Some(SQ8_WEIGHT_MAX), Some(-SQ8_WEIGHT_MAX)] {
                    let weights: Vec<i8> = (0..dim)
                        .map(|_| extreme.unwrap_or((rng.next_u64() % 127) as i8 - 63))
                        .collect();
                    let mut codes: Vec<u8> = (0..n * dim)
                        .map(|_| (rng.next_u64() & 0xFF) as u8)
                        .collect();
                    // An all-0 and an all-255 code among them.
                    codes[..n.min(1) * dim].fill(0);
                    codes[n.min(1) * dim..n.min(2) * dim].fill(255);
                    let want: Vec<i32> = (0..n)
                        .map(|i| {
                            let code = &codes[i * dim..(i + 1) * dim];
                            let sum: i64 = code
                                .iter()
                                .zip(&weights)
                                .map(|(&c, &w)| i64::from(c) * i64::from(w))
                                .sum();
                            i32::try_from(sum).unwrap()
                        })
                        .collect();
                    for (level, cuts) in SimdLevel::available()
                        .into_iter()
                        .flat_map(|l| segmentations.map(|c| (l, c)))
                    {
                        let mut got = vec![i32::MIN; n];
                        let mut paced = 0;
                        let segments = cut(&codes, dim, n, cuts);
                        let pace = &mut |rows| paced += rows;
                        sq8_dot_i8_at(level, &weights, &segments, &mut got, pace);
                        assert_eq!(got, want, "{level} d{dim} n{n} {cuts:?} {extreme:?}");
                        assert_eq!(paced, if dim == 0 { 0 } else { n }, "{level} d{dim} n{n}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "SQ8 bound weight beyond")]
    fn integer_code_sums_reject_weights_that_could_saturate() {
        sq8_dot_i8_at(SimdLevel::Scalar, &[64], &[&[1u8]], &mut [0], &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "code block size mismatch")]
    fn segments_must_be_whole_codes() {
        // Six bytes are three 2-byte codes, but not as 3 + 3.
        let mut out = [0.0f32; 3];
        sq8_ip_segments_at(
            SimdLevel::Scalar,
            &[1.0, 2.0],
            &[0.0, 0.0],
            &[1.0, 1.0],
            &[&[0u8; 3], &[0u8; 3]],
            &mut out,
            &mut |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn blocked_entry_rejects_bad_query_len_in_release_too() {
        let mut out = [0.0f32; 1];
        inner_product_block(&[1.0, 2.0], &[1.0, 2.0, 3.0], 3, &mut out);
    }

    #[test]
    #[should_panic(expected = "row block size mismatch")]
    fn blocked_entry_rejects_ragged_row_block() {
        let mut out = [0.0f32; 2];
        l2_sq_block(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "code block size mismatch")]
    fn sq8_block_rejects_ragged_code_block() {
        let mut out = [0.0f32; 2];
        sq8_ip_segments_at(
            SimdLevel::Scalar,
            &[1.0, 2.0],
            &[0.0, 0.0],
            &[1.0, 1.0],
            &[&[0u8; 3]],
            &mut out,
            &mut |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "ADC table size mismatch")]
    fn adc_block_rejects_short_tables() {
        let mut out = [0.0f32; 1];
        adc_block_at(
            SimdLevel::Scalar,
            &[0.0f32; 16],
            2,
            &[&[0u8; 2]],
            &mut out,
            &mut |_| {},
        );
    }
}
