//! The property-test runner: seeded case generation, failing-seed
//! reporting and greedy shrinking.
//!
//! Case seeds are derived as
//! `derive_seed(derive_seed(config.seed, fnv1a(name)), case_index)`, so
//! every property explores an independent deterministic stream and a
//! failure report names the exact case seed. Replay a single failing
//! case with `HERMES_TESTKIT_REPLAY=<case seed>`; widen or narrow the
//! sweep with `HERMES_TESTKIT_CASES` / `HERMES_TESTKIT_SEED`.

use crate::strategy::Strategy;
use hermes_math::rng::{derive_seed, seeded_rng};

/// Runner configuration. Environment variables override the defaults:
/// `HERMES_TESTKIT_CASES`, `HERMES_TESTKIT_SEED`,
/// `HERMES_TESTKIT_REPLAY` (single case seed, hex or decimal).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed for the whole run.
    pub seed: u64,
    /// Upper bound on accepted shrink steps.
    pub max_shrink_steps: u32,
    /// When set, run exactly one case with this case seed.
    pub replay: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: 0x4845_524D_4553_5054, // "HERMESPT"
            max_shrink_steps: 512,
            replay: None,
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl Config {
    /// Defaults plus any `HERMES_TESTKIT_*` environment overrides.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(n) = std::env::var("HERMES_TESTKIT_CASES")
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            cfg.cases = n;
        }
        if let Some(s) = std::env::var("HERMES_TESTKIT_SEED")
            .ok()
            .and_then(|s| parse_u64(&s))
        {
            cfg.seed = s;
        }
        cfg.replay = std::env::var("HERMES_TESTKIT_REPLAY")
            .ok()
            .and_then(|s| parse_u64(&s));
        cfg
    }

    /// Returns a copy with a different case count.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Returns a copy with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// FNV-1a, used to give each named property its own seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Greedily minimises a failing input: repeatedly accepts the first
/// shrink candidate that still fails, until none does.
fn shrink_failure<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    mut value: S::Value,
    mut error: String,
    prop: &impl Fn(&S::Value) -> Result<(), String>,
) -> (S::Value, String, u32) {
    let mut steps = 0;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in strategy.shrink(&value) {
            if let Err(e) = prop(&candidate) {
                value = candidate;
                error = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, error, steps)
}

#[allow(clippy::needless_pass_by_value)]
fn fail<S: Strategy>(
    name: &str,
    cfg: &Config,
    strategy: &S,
    origin: &str,
    case_seed: Option<u64>,
    (value, error): (S::Value, String),
    prop: &impl Fn(&S::Value) -> Result<(), String>,
) -> ! {
    let (value, error, steps) = shrink_failure(cfg, strategy, value, error, prop);
    let replay = match case_seed {
        Some(seed) => format!("replay: HERMES_TESTKIT_REPLAY={seed:#x} cargo test {name}"),
        None => "replay: rerun the test (pinned regression input)".to_string(),
    };
    panic!(
        "property `{name}` failed ({origin})\n{replay}\n\
         minimal input after {steps} shrink step(s):\n{value:#?}\nerror: {error}"
    );
}

/// Runs `prop` against pinned regression inputs, then `cfg.cases`
/// generated cases. Panics with a replayable report on the first
/// (shrunk) failure.
pub fn check_with_regressions<S: Strategy>(
    name: &str,
    cfg: &Config,
    strategy: &S,
    regressions: &[S::Value],
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    // Pinned inputs from past failures always run first.
    for (i, value) in regressions.iter().enumerate() {
        if let Err(error) = prop(value) {
            fail(
                name,
                cfg,
                strategy,
                &format!("regression {i}"),
                None,
                (value.clone(), error),
                &prop,
            );
        }
    }
    let base = derive_seed(cfg.seed, fnv1a(name));
    if let Some(case_seed) = cfg.replay {
        let value = strategy.generate(&mut seeded_rng(case_seed));
        if let Err(error) = prop(&value) {
            fail(
                name,
                cfg,
                strategy,
                "replayed case",
                Some(case_seed),
                (value, error),
                &prop,
            );
        }
        return;
    }
    for case in 0..cfg.cases {
        let case_seed = derive_seed(base, case as u64);
        let value = strategy.generate(&mut seeded_rng(case_seed));
        if let Err(error) = prop(&value) {
            fail(
                name,
                cfg,
                strategy,
                &format!("case {case} of {}", cfg.cases),
                Some(case_seed),
                (value, error),
                &prop,
            );
        }
    }
}

/// Runs `prop` with an explicit [`Config`].
pub fn check_with<S: Strategy>(
    name: &str,
    cfg: &Config,
    strategy: &S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    check_with_regressions(name, cfg, strategy, &[], prop);
}

/// Runs `prop` with [`Config::from_env`].
pub fn check<S: Strategy>(
    name: &str,
    strategy: &S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    check_with(name, &Config::from_env(), strategy, prop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{u64_any, usize_in, vec_of};

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        let cfg = Config::default().with_cases(37);
        check_with("always_passes", &cfg, &u64_any(), |_| {
            count.set(count.get() + 1);
            Ok(())
        });
        assert_eq!(count.get(), 37);
    }

    #[test]
    fn failing_property_panics_with_replay_seed() {
        let err = std::panic::catch_unwind(|| {
            check_with("always_fails", &Config::default(), &u64_any(), |_| {
                Err("nope".to_string())
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "missing name: {msg}");
        assert!(
            msg.contains("HERMES_TESTKIT_REPLAY="),
            "missing seed: {msg}"
        );
        assert!(msg.contains("nope"), "missing error: {msg}");
    }

    #[test]
    fn shrinking_minimises_a_threshold_failure() {
        // Property "all values < 1000" has minimal counterexample 1000.
        let err = std::panic::catch_unwind(|| {
            check_with(
                "threshold",
                &Config::default(),
                &usize_in(0..1_000_000),
                |&v| {
                    if v < 1000 {
                        Ok(())
                    } else {
                        Err(format!("{v} too big"))
                    }
                },
            )
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(
            msg.contains("1000 too big"),
            "did not shrink to 1000: {msg}"
        );
    }

    #[test]
    fn shrinking_minimises_vector_length() {
        // Failure triggers whenever the vector has >= 3 elements; minimal
        // failing length is 3.
        let err = std::panic::catch_unwind(|| {
            check_with(
                "short_vecs",
                &Config::default(),
                &vec_of(u64_any(), 0..64),
                |v| {
                    if v.len() < 3 {
                        Ok(())
                    } else {
                        Err(format!("len {}", v.len()))
                    }
                },
            )
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("len 3"), "did not shrink to len 3: {msg}");
    }

    #[test]
    fn regressions_run_before_generated_cases() {
        let err = std::panic::catch_unwind(|| {
            check_with_regressions("pinned", &Config::default(), &u64_any(), &[12345], |&v| {
                if v == 12345 {
                    Err("regression input".to_string())
                } else {
                    Ok(())
                }
            })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap().clone();
        assert!(msg.contains("regression 0"), "not a regression hit: {msg}");
    }

    #[test]
    fn runs_are_deterministic() {
        let collect = || {
            let vals = std::cell::RefCell::new(Vec::new());
            check_with(
                "determinism_probe",
                &Config::default().with_cases(16),
                &u64_any(),
                |&v| {
                    vals.borrow_mut().push(v);
                    Ok(())
                },
            );
            vals.into_inner()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }
}
