//! Input generators with shrink rules.
//!
//! A [`Strategy`] knows how to draw a random value from a [`SeededRng`]
//! and how to propose *simpler* variants of a failing value. Shrinking is
//! greedy: the runner repeatedly accepts the first candidate that still
//! fails the property, so `shrink` should order candidates from most to
//! least aggressive (e.g. "drop half the vector" before "shrink one
//! element").

use hermes_math::rng::SeededRng;
use std::fmt::Debug;
use std::ops::Range;

/// A deterministic generator of test inputs plus a shrink rule.
pub trait Strategy {
    /// The type of generated inputs.
    type Value: Clone + Debug;

    /// Draws one value; all randomness must come from `rng`.
    fn generate(&self, rng: &mut SeededRng) -> Self::Value;

    /// Proposes simpler variants of `value`, most aggressive first.
    ///
    /// Every candidate must itself be a value this strategy could have
    /// generated (stay in range, respect length bounds). An empty vector
    /// means "fully shrunk".
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

/// Uniform `f32` in a half-open range; shrinks toward zero (or the
/// in-range point closest to it).
#[derive(Debug, Clone)]
pub struct F32In {
    range: Range<f32>,
}

/// Uniform `f32` in `range`.
pub fn f32_in(range: Range<f32>) -> F32In {
    assert!(range.start < range.end, "f32_in: empty range");
    F32In { range }
}

impl Strategy for F32In {
    type Value = f32;

    fn generate(&self, rng: &mut SeededRng) -> f32 {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, &value: &f32) -> Vec<f32> {
        let target = if self.range.contains(&0.0) {
            0.0
        } else {
            self.range.start
        };
        let mut out = Vec::new();
        for cand in [target, (value + target) / 2.0] {
            if cand != value && self.range.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Uniform `f64` in a half-open range; shrinks toward zero when possible.
#[derive(Debug, Clone)]
pub struct F64In {
    range: Range<f64>,
}

/// Uniform `f64` in `range`.
pub fn f64_in(range: Range<f64>) -> F64In {
    assert!(range.start < range.end, "f64_in: empty range");
    F64In { range }
}

impl Strategy for F64In {
    type Value = f64;

    fn generate(&self, rng: &mut SeededRng) -> f64 {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, &value: &f64) -> Vec<f64> {
        let target = if self.range.contains(&0.0) {
            0.0
        } else {
            self.range.start
        };
        let mut out = Vec::new();
        for cand in [target, (value + target) / 2.0] {
            if cand != value && self.range.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Uniform `usize` in a half-open range; shrinks toward the lower bound.
#[derive(Debug, Clone)]
pub struct UsizeIn {
    range: Range<usize>,
}

/// Uniform `usize` in `range`.
pub fn usize_in(range: Range<usize>) -> UsizeIn {
    assert!(range.start < range.end, "usize_in: empty range");
    UsizeIn { range }
}

impl Strategy for UsizeIn {
    type Value = usize;

    fn generate(&self, rng: &mut SeededRng) -> usize {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, &value: &usize) -> Vec<usize> {
        let lo = self.range.start;
        let mut out = Vec::new();
        for cand in [lo, lo + (value - lo) / 2, value.saturating_sub(1)] {
            if cand != value && self.range.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

/// Uniform `u64` in a half-open range; shrinks toward the lower bound.
#[derive(Debug, Clone)]
pub struct U64In {
    range: Range<u64>,
}

/// Uniform `u64` in `range`.
pub fn u64_in(range: Range<u64>) -> U64In {
    assert!(range.start < range.end, "u64_in: empty range");
    U64In { range }
}

/// Uniform over the whole `u64` domain.
pub fn u64_any() -> U64Any {
    U64Any
}

/// Uniform over all of `u64`; shrinks toward zero by halving.
#[derive(Debug, Clone)]
pub struct U64Any;

impl Strategy for U64In {
    type Value = u64;

    fn generate(&self, rng: &mut SeededRng) -> u64 {
        rng.gen_range(self.range.clone())
    }

    fn shrink(&self, &value: &u64) -> Vec<u64> {
        let lo = self.range.start;
        let mut out = Vec::new();
        for cand in [lo, lo + (value - lo) / 2, value.saturating_sub(1)] {
            if cand != value && self.range.contains(&cand) && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

impl Strategy for U64Any {
    type Value = u64;

    fn generate(&self, rng: &mut SeededRng) -> u64 {
        rng.next_u64()
    }

    fn shrink(&self, &value: &u64) -> Vec<u64> {
        let mut out = Vec::new();
        for cand in [0, value / 2, value - (value > 0) as u64] {
            if cand != value && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Vectors
// ---------------------------------------------------------------------------

/// Vector of values from an element strategy, with a length range.
///
/// Shrinks by dropping chunks of elements (halves first, then single
/// positions) while respecting the minimum length, then by shrinking
/// individual elements.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

/// Vector of `elem` values with a length drawn from `len`.
pub fn vec_of<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "vec_of: empty length range");
    VecOf { elem, len }
}

/// Bounds the per-step candidate count so shrink loops stay fast even
/// for long vectors.
const MAX_ELEMENT_CANDIDATES: usize = 32;

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SeededRng) -> Vec<S::Value> {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out: Vec<Vec<S::Value>> = Vec::new();
        let min_len = self.len.start;
        // 1. Structural shrinks: drop the front half, the back half, then
        //    each single element, keeping length legal.
        if value.len() > min_len {
            let half = value.len() / 2;
            if half >= min_len && half < value.len() {
                out.push(value[value.len() - half..].to_vec());
                out.push(value[..half].to_vec());
            }
            if value.len() > min_len {
                for i in 0..value.len().min(MAX_ELEMENT_CANDIDATES) {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
        }
        // 2. Elementwise shrinks: first candidate per position.
        for (i, x) in value.iter().enumerate().take(MAX_ELEMENT_CANDIDATES) {
            if let Some(simpler) = self.elem.shrink(x).into_iter().next() {
                let mut v = value.clone();
                v[i] = simpler;
                out.push(v);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

/// Pair of independent strategies; shrinks one side at a time.
#[derive(Debug, Clone)]
pub struct Tuple2<A, B> {
    a: A,
    b: B,
}

/// Pair of independent strategies.
pub fn tuple2<A: Strategy, B: Strategy>(a: A, b: B) -> Tuple2<A, B> {
    Tuple2 { a, b }
}

impl<A: Strategy, B: Strategy> Strategy for Tuple2<A, B> {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut SeededRng) -> Self::Value {
        (self.a.generate(rng), self.b.generate(rng))
    }

    fn shrink(&self, (a, b): &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for sa in self.a.shrink(a) {
            out.push((sa, b.clone()));
        }
        for sb in self.b.shrink(b) {
            out.push((a.clone(), sb));
        }
        out
    }
}

/// Triple of independent strategies; shrinks one side at a time.
#[derive(Debug, Clone)]
pub struct Tuple3<A, B, C> {
    a: A,
    b: B,
    c: C,
}

/// Triple of independent strategies.
pub fn tuple3<A: Strategy, B: Strategy, C: Strategy>(a: A, b: B, c: C) -> Tuple3<A, B, C> {
    Tuple3 { a, b, c }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for Tuple3<A, B, C> {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut SeededRng) -> Self::Value {
        (
            self.a.generate(rng),
            self.b.generate(rng),
            self.c.generate(rng),
        )
    }

    fn shrink(&self, (a, b, c): &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        for sa in self.a.shrink(a) {
            out.push((sa, b.clone(), c.clone()));
        }
        for sb in self.b.shrink(b) {
            out.push((a.clone(), sb, c.clone()));
        }
        for sc in self.c.shrink(c) {
            out.push((a.clone(), b.clone(), sc));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_math::rng::seeded_rng;

    #[test]
    fn scalar_strategies_respect_ranges() {
        let mut rng = seeded_rng(1);
        for _ in 0..500 {
            assert!((3..9).contains(&usize_in(3..9).generate(&mut rng)));
            assert!((10..20).contains(&u64_in(10..20).generate(&mut rng)));
            let f = f32_in(-2.0..5.0).generate(&mut rng);
            assert!((-2.0..5.0).contains(&f));
            let d = f64_in(1.0..2.0).generate(&mut rng);
            assert!((1.0..2.0).contains(&d));
        }
    }

    #[test]
    fn shrink_candidates_stay_in_range() {
        let mut rng = seeded_rng(2);
        let s = usize_in(5..50);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            for c in s.shrink(&v) {
                assert!((5..50).contains(&c) && c != v);
            }
        }
        let f = f32_in(1.0..4.0);
        let v = f.generate(&mut rng);
        for c in f.shrink(&v) {
            assert!((1.0..4.0).contains(&c) && c != v);
        }
    }

    #[test]
    fn vec_strategy_respects_length_bounds_under_shrink() {
        let mut rng = seeded_rng(3);
        let s = vec_of(f32_in(-1.0..1.0), 2..10);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..10).contains(&v.len()));
            for c in s.shrink(&v) {
                assert!(
                    (2..10).contains(&c.len()),
                    "shrunk vec left the length range: {} not in 2..10",
                    c.len()
                );
            }
        }
    }

    #[test]
    fn u64_any_shrinks_toward_zero() {
        let s = u64_any();
        let mut v = u64::MAX;
        let mut steps = 0;
        while let Some(&next) = s.shrink(&v).first() {
            assert!(next < v);
            v = next;
            steps += 1;
            assert!(steps < 1000, "shrink did not converge");
        }
        assert_eq!(v, 0);
    }

    #[test]
    fn tuple_shrink_changes_one_component() {
        let s = tuple2(usize_in(0..10), usize_in(0..10));
        for (a, b) in s.shrink(&(7, 5)) {
            assert!(
                (a == 7) ^ (b == 5) || (a != 7) ^ (b != 5),
                "tuple shrink changed both components: ({a}, {b})"
            );
        }
    }
}
