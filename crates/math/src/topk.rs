//! Bounded best-k selection.
//!
//! Every search path in the workspace — flat scan, IVF inverted-list probe,
//! HNSW beam, Hermes cluster ranking — funnels candidates through
//! [`TopK`], a fixed-capacity selector keeping the `k` items with the
//! highest similarity.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored search hit: a document id plus its similarity to the query
/// (greater = closer; see [`crate::Metric`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Identifier of the matched vector/document.
    pub id: u64,
    /// Similarity score; greater is better.
    pub score: f32,
}

impl Neighbor {
    /// Creates a neighbor from an id and a similarity score.
    pub fn new(id: u64, score: f32) -> Self {
        Neighbor { id, score }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Best-first total order: a higher score compares as `Less` so an
        // ascending sort yields best-first output. Ties break by id for
        // cross-run determinism; NaN scores sort last.
        match other.score.partial_cmp(&self.score) {
            Some(ord) => ord.then_with(|| self.id.cmp(&other.id)),
            None => match (self.score.is_nan(), other.score.is_nan()) {
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                _ => self.id.cmp(&other.id),
            },
        }
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Largest `k` whose candidates live in [`TopK`]'s inline sorted array;
/// beyond it a binary heap takes over.
const INLINE_K: usize = 16;

/// Fixed-capacity selector retaining the `k` highest-scoring items.
///
/// Push is `O(k)` shifts in a sorted inline array for `k <= 16` — no
/// allocation, and faster than a heap at the result sizes search paths
/// ask for — and `O(log k)` in a binary heap beyond; pushes that cannot
/// beat the current worst are `O(1)` either way.
///
/// # Examples
///
/// ```
/// use hermes_math::topk::TopK;
/// let mut t = TopK::new(2);
/// for (id, s) in [(0u64, 0.1f32), (1, 0.9), (2, 0.5)] {
///     t.push(id, s);
/// }
/// let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
/// assert_eq!(ids, vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    kept: Kept,
}

/// The retained candidates. Both forms answer "what is the worst kept
/// hit" in `O(1)` and keep exactly the same set: [`TopK::push`] decides
/// admission by [`Neighbor`]'s total order alone.
// The inline array is the point: boxing it would put the common case
// behind the allocation it exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Kept {
    /// `items[..len]` sorted best-first, so `items[len - 1]` is the
    /// eviction candidate.
    Sorted {
        items: [Neighbor; INLINE_K],
        len: usize,
    },
    /// Max-heap under the best-first ordering, so `peek()` is the worst
    /// retained hit.
    Heap(BinaryHeap<Neighbor>),
}

impl TopK {
    /// Creates a selector for the best `k` items.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; an empty selection is never meaningful in a
    /// search path and indicates a configuration bug.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "TopK capacity must be positive");
        let kept = if k <= INLINE_K {
            Kept::Sorted {
                items: [Neighbor::new(0, 0.0); INLINE_K],
                len: 0,
            }
        } else {
            // Pre-sized to its maximum occupancy (`k`, plus one slot of
            // slack) so no push ever reallocates mid-scan.
            Kept::Heap(BinaryHeap::with_capacity(k + 1))
        };
        TopK { k, kept }
    }

    /// The capacity `k` this selector was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently held (`<= k`).
    pub fn len(&self) -> usize {
        match &self.kept {
            Kept::Sorted { len, .. } => *len,
            Kept::Heap(heap) => heap.len(),
        }
    }

    /// Whether no item has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The worst retained hit once `k` items are held.
    #[inline]
    fn worst(&self) -> Option<&Neighbor> {
        match &self.kept {
            Kept::Sorted { items, len } if *len == self.k => Some(&items[len - 1]),
            Kept::Heap(heap) if heap.len() == self.k => heap.peek(),
            _ => None,
        }
    }

    /// Current lowest retained score, or `None` while under capacity.
    ///
    /// Search loops use this as an early-termination bound: a candidate
    /// whose upper-bound similarity is below `worst_score` cannot enter.
    pub fn worst_score(&self) -> Option<f32> {
        self.worst().map(|n| n.score)
    }

    /// The pruning bound for fused block scans, as a plain `f32`:
    /// the current worst retained score once `k` items are held,
    /// `f32::NEG_INFINITY` while still filling (everything is admitted),
    /// and NaN if the selector is full of NaN scores (in which case
    /// pruning must be disabled — any real score displaces a NaN).
    ///
    /// Callers prune with `!(score < threshold)` rather than
    /// `score >= threshold`: the negated form admits NaN candidates and
    /// everything at `NEG_INFINITY`, so [`TopK::push`] stays the single
    /// arbiter of ties, NaN ordering and id-based eviction.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.worst().map_or(f32::NEG_INFINITY, |n| n.score)
    }

    /// Offers a block of scored candidates, touching the selector only
    /// for candidates that may beat [`TopK::threshold`].
    ///
    /// Scores are tested eight at a time into a compare mask (a vector
    /// compare and a move-mask once optimized); a group whose mask is
    /// empty — the common case once the selector is full — costs nothing
    /// more, and an id is read only for a score that survives. The bound
    /// is re-read after every accepted push, so a survivor of the mask
    /// that a later-rising bound has overtaken is dropped before it
    /// reaches [`TopK::push`]. Survivors are pushed in input order and
    /// `push` alone decides ties and NaN, so the result is bit-identical
    /// to calling it on every `(id, score)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != scores.len()`.
    // `!(s < t)` is not `s >= t`: it also holds for NaN on either side.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn push_block(&mut self, ids: &[u64], scores: &[f32]) {
        assert_eq!(ids.len(), scores.len(), "one id per score required");
        // The bound only rises as pushes land, so testing against an
        // older one never over-prunes.
        let mut t = self.threshold();
        for (g, group) in scores.chunks(8).enumerate() {
            let mut mask = 0u32;
            for (j, &s) in group.iter().enumerate() {
                mask |= u32::from(!(s < t)) << j;
            }
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let s = group[j];
                if !(s < t) && self.push(ids[g * 8 + j], s) {
                    t = self.threshold();
                }
            }
        }
    }

    /// Offers `(id, score)`; returns `true` if it was retained.
    pub fn push(&mut self, id: u64, score: f32) -> bool {
        let cand = Neighbor::new(id, score);
        // `cand < worst` under the best-first ordering means cand is
        // better; at capacity anything else is turned away.
        if self
            .worst()
            .is_some_and(|worst| cand.cmp(worst) != Ordering::Less)
        {
            return false;
        }
        match &mut self.kept {
            Kept::Sorted { items, len } => {
                // Under capacity the slot past the end is free; at
                // capacity the worst hit falls off it.
                let mut at = if *len < self.k { *len } else { *len - 1 };
                *len = at + 1;
                while at > 0 && cand.cmp(&items[at - 1]) == Ordering::Less {
                    items[at] = items[at - 1];
                    at -= 1;
                }
                items[at] = cand;
            }
            Kept::Heap(heap) => {
                if heap.len() == self.k {
                    heap.pop();
                }
                heap.push(cand);
            }
        }
        true
    }

    /// Consumes the selector, returning hits sorted best-first.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        match self.kept {
            Kept::Sorted { items, len } => items[..len].to_vec(),
            Kept::Heap(heap) => {
                let mut v = heap.into_vec();
                v.sort();
                v
            }
        }
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<T: IntoIterator<Item = Neighbor>>(&mut self, iter: T) {
        for n in iter {
            self.push(n.id, n.score);
        }
    }
}

/// Merges several result lists into a single best-first top-`k` list.
/// Used to aggregate per-cluster deep-search results.
pub fn merge_topk<L: AsRef<[Neighbor]>>(
    lists: impl IntoIterator<Item = L>,
    k: usize,
) -> Vec<Neighbor> {
    let mut sel = TopK::new(k.max(1));
    for list in lists {
        sel.extend(list.as_ref().iter().copied());
    }
    let mut out = sel.into_sorted_vec();
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(3);
        for i in 0..10u64 {
            t.push(i, i as f32);
        }
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![9, 8, 7]);
    }

    #[test]
    fn output_is_sorted_descending_by_score() {
        let mut t = TopK::new(5);
        for (i, s) in [(1u64, 0.3f32), (2, 0.9), (3, 0.1), (4, 0.7)] {
            t.push(i, s);
        }
        let v = t.into_sorted_vec();
        for w in v.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let mut t = TopK::new(2);
        t.push(7, 0.5);
        t.push(3, 0.5);
        t.push(5, 0.5);
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn worst_score_none_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.worst_score(), None);
        t.push(0, 1.0);
        assert_eq!(t.worst_score(), None);
        t.push(1, 2.0);
        assert_eq!(t.worst_score(), Some(1.0));
    }

    #[test]
    fn push_returns_whether_retained() {
        let mut t = TopK::new(1);
        assert!(t.push(0, 1.0));
        assert!(!t.push(1, 0.5));
        assert!(t.push(2, 2.0));
    }

    #[test]
    fn nan_scores_never_displace_real_scores() {
        let mut t = TopK::new(2);
        t.push(0, 1.0);
        t.push(1, 2.0);
        t.push(2, f32::NAN);
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    fn threshold_is_neg_infinity_while_empty_or_filling() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        t.push(0, 1.0);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        t.push(1, 2.0);
        assert_eq!(t.threshold(), 1.0);
        t.push(2, 3.0);
        assert_eq!(t.threshold(), 2.0);
    }

    #[test]
    fn threshold_is_nan_when_full_of_nans_and_pruning_stays_safe() {
        let mut t = TopK::new(2);
        t.push_block(&[0, 1], &[f32::NAN, f32::NAN]);
        assert!(t.threshold().is_nan());
        // `!(s < NaN)` is true for every s, so real scores still get
        // through the compact pass and displace the NaNs.
        t.push_block(&[2, 3], &[0.5, 0.25]);
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn push_block_is_bit_identical_to_sequential_push() {
        // Ties, NaNs, ±Inf, ±0.0, rising / falling / constant runs, block
        // lengths off the 8-score mask width, and duplicate ids: the
        // masked path must retain the exact same hits as pushing one by
        // one, on both sides of the inline-array / heap switch at k = 16.
        let palette = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            1.0,
            -1.0,
            0.5,
            f32::MAX,
            f32::MIN_POSITIVE,
        ];
        let mut rng = crate::rng::seeded_rng(0x70B);
        let mut streams: Vec<Vec<f32>> = vec![
            (0..40)
                .map(|i| {
                    if i % 7 == 3 {
                        f32::NAN
                    } else {
                        ((i * 13) % 9) as f32 / 3.0
                    }
                })
                .collect(),
            (0..203).map(|i| i as f32).collect(),
            (0..203).map(|i| -(i as f32)).collect(),
            vec![2.5; 77],
            vec![f32::NAN; 33],
        ];
        for len in [0usize, 1, 7, 8, 9, 64, 150] {
            streams.push(
                (0..len)
                    .map(|_| palette[(rng.next_u64() % palette.len() as u64) as usize])
                    .collect(),
            );
            streams.push((0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect());
        }
        for (si, scores) in streams.iter().enumerate() {
            // Ids repeat, so equal (id, score) pairs occur too.
            let ids: Vec<u64> = (0..scores.len() as u64).map(|i| i % 61).collect();
            for k in [1usize, 3, 10, 16, 17, 100] {
                let mut seq = TopK::new(k);
                for (&id, &s) in ids.iter().zip(scores) {
                    seq.push(id, s);
                }
                let mut blk = TopK::new(k);
                // Two blocks, so the second starts against a full selector.
                let half = scores.len() / 2;
                blk.push_block(&ids[..half], &scores[..half]);
                blk.push_block(&ids[half..], &scores[half..]);
                assert_eq!(seq.threshold().to_bits(), blk.threshold().to_bits());
                let a = seq.into_sorted_vec();
                let b = blk.into_sorted_vec();
                assert_eq!(a.len(), b.len(), "stream {si} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.id, y.id, "stream {si} k={k}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "stream {si} k={k}");
                }
            }
        }
    }

    #[test]
    fn inline_array_and_heap_keep_the_same_hits() {
        // The same stream through k = 16 (sorted inline array) and a
        // k = 17 heap truncated to 16 must agree: the storage never
        // shows in the result.
        let mut rng = crate::rng::seeded_rng(0x1617);
        let scores: Vec<f32> = (0..500).map(|_| (rng.next_u64() % 40) as f32).collect();
        let (mut small, mut large) = (TopK::new(16), TopK::new(17));
        for (id, &s) in scores.iter().enumerate() {
            small.push(id as u64, s);
            large.push(id as u64, s);
        }
        let small = small.into_sorted_vec();
        assert!(
            small.windows(2).all(|w| w[0] < w[1]),
            "best-first, strictly"
        );
        assert_eq!(small, large.into_sorted_vec()[..16]);
    }

    #[test]
    fn push_block_skips_subthreshold_candidates_without_heap_traffic() {
        let mut t = TopK::new(2);
        t.push_block(&[0, 1], &[5.0, 6.0]);
        // All below the worst retained score: nothing changes.
        t.push_block(&[2, 3, 4], &[1.0, 2.0, 3.0]);
        let ids: Vec<u64> = t.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "one id per score")]
    fn push_block_rejects_mismatched_lengths() {
        let mut t = TopK::new(2);
        t.push_block(&[0, 1], &[1.0]);
    }

    #[test]
    fn merge_topk_aggregates_across_lists() {
        let a = vec![Neighbor::new(1, 0.9), Neighbor::new(2, 0.4)];
        let b = vec![Neighbor::new(3, 0.8), Neighbor::new(4, 0.1)];
        let merged = merge_topk(&[a, b], 3);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn extend_accepts_neighbors() {
        let mut t = TopK::new(2);
        t.extend(vec![Neighbor::new(0, 0.1), Neighbor::new(1, 0.9)]);
        assert_eq!(t.len(), 2);
    }
}
