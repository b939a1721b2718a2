//! First-party property-testing substrate.
//!
//! The workspace builds with **zero external dependencies** (see
//! DESIGN.md), so `proptest` is replaced by this crate:
//!
//! * [`check`] / [`check_with`] — seeded property-test runners. Cases are
//!   generated deterministically from [`hermes_math::rng::derive_seed`],
//!   so a failure always reports a replayable case seed, and inputs are
//!   greedily shrunk before the panic message is printed.
//! * [`strategy`] — composable input generators ([`Strategy`]) for
//!   scalars, vectors and tuples, each with a `shrink` rule.
//!
//! # Writing a property test
//!
//! ```
//! use hermes_testkit::prelude::*;
//!
//! // Inside a `#[test]` function:
//! check("reverse_is_an_involution", &vec_of(u64_any(), 0..20), |xs| {
//!     let twice: Vec<u64> = xs.iter().rev().rev().copied().collect();
//!     prop_assert_eq!(twice, *xs);
//!     Ok(())
//! });
//! ```
//!
//! Properties return `Result<(), String>`; the [`prop_assert!`] /
//! [`prop_assert_eq!`] macros produce the `Err` side. Known-bad inputs
//! from past failures are pinned with [`check_with_regressions`].

pub mod runner;
pub mod simd_ref;
pub mod strategy;
pub mod ulp;

pub use runner::{check, check_with, check_with_regressions, Config};
pub use simd_ref::{reference_similarity, similarity_scale};
pub use strategy::{f32_in, f64_in, tuple2, tuple3, u64_any, u64_in, usize_in, vec_of, Strategy};
pub use ulp::{
    assert_ulp_eq, lane_ordered_fold, lane_ordered_sum, max_ulp_distance, ulp_at, ulp_within,
    ulp_within_scaled,
};

/// One-stop import for property tests.
pub mod prelude {
    pub use crate::runner::{check, check_with, check_with_regressions, Config};
    pub use crate::simd_ref::{reference_similarity, similarity_scale};
    pub use crate::strategy::{
        f32_in, f64_in, tuple2, tuple3, u64_any, u64_in, usize_in, vec_of, Strategy,
    };
    pub use crate::ulp::{
        assert_ulp_eq, lane_ordered_fold, lane_ordered_sum, max_ulp_distance, ulp_at, ulp_within,
        ulp_within_scaled,
    };
    pub use crate::{prop_assert, prop_assert_eq};
}

/// Fails the enclosing property with a message when `cond` is false.
///
/// Use inside a closure passed to [`check`]: expands to an early
/// `return Err(..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property when the two sides are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}
