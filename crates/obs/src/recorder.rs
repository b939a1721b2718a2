//! The flight recorder: full timelines of the slowest requests, plus a
//! seeded uniform reservoir of everything else.
//!
//! Tail attribution ([`crate::attribution`]) keeps bounded *aggregates*;
//! post-hoc debugging wants the *actual requests*. The recorder keeps
//! two bounded sets:
//!
//! * **slowest-N** — a deterministic top-N by sojourn (ties broken by
//!   request id, earlier wins), so the worst offenders are always
//!   present in full;
//! * **reservoir-M** — a seeded uniform sample over every completed
//!   request (classic reservoir sampling on an in-repo ChaCha8 stream),
//!   giving dumps an unbiased picture of normal traffic next to the
//!   tail. Same seed + same traffic ⇒ bit-identical dump.
//!
//! [`FlightRecorder::render_dump`] serialises both sets in the
//! two-line-per-request format of [`RequestTimeline::render`];
//! [`parse_dump`] reads a dump back and re-checks every record's balance
//! invariant — the round-trip `scripts/verify.sh` exercises.

use hermes_math::rng::SeededRng;

use crate::timeline::RequestTimeline;

/// Bounded keeper of full request timelines. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    slowest_capacity: usize,
    reservoir_capacity: usize,
    /// Sorted slowest-first (sojourn desc, id asc).
    slowest: Vec<RequestTimeline>,
    reservoir: Vec<RequestTimeline>,
    seen: u64,
    rng: SeededRng,
}

impl FlightRecorder {
    /// A recorder keeping the `slowest_capacity` slowest timelines and a
    /// `reservoir_capacity`-sized uniform sample, with the reservoir's
    /// coin flips drawn from `seed`.
    pub fn new(slowest_capacity: usize, reservoir_capacity: usize, seed: u64) -> Self {
        FlightRecorder {
            slowest_capacity,
            reservoir_capacity,
            slowest: Vec::with_capacity(slowest_capacity.min(1024)),
            reservoir: Vec::with_capacity(reservoir_capacity.min(1024)),
            seen: 0,
            rng: SeededRng::new(seed),
        }
    }

    /// Offers one completed timeline.
    pub fn record(&mut self, tl: &RequestTimeline) {
        self.seen += 1;
        if self.slowest_capacity > 0 {
            let evict = self.slowest.len() >= self.slowest_capacity;
            let admit = !evict
                || self
                    .slowest
                    .last()
                    .is_some_and(|worst_kept| Self::slower(tl, worst_kept));
            if admit {
                if evict {
                    self.slowest.pop();
                }
                let at = self.slowest.partition_point(|kept| Self::slower(kept, tl));
                self.slowest.insert(at, tl.clone());
            }
        }
        if self.reservoir_capacity > 0 {
            if self.reservoir.len() < self.reservoir_capacity {
                self.reservoir.push(tl.clone());
            } else {
                let j = self.rng.gen_range(0..self.seen);
                if (j as usize) < self.reservoir_capacity {
                    self.reservoir[j as usize] = tl.clone();
                }
            }
        }
    }

    /// Strict "a is slower than b" with the deterministic tiebreak.
    fn slower(a: &RequestTimeline, b: &RequestTimeline) -> bool {
        (a.sojourn_ns(), std::cmp::Reverse(a.id)) > (b.sojourn_ns(), std::cmp::Reverse(b.id))
    }

    /// The slowest timelines, slowest first.
    pub fn slowest(&self) -> &[RequestTimeline] {
        &self.slowest
    }

    /// The uniform sample, in reservoir order.
    pub fn reservoir(&self) -> &[RequestTimeline] {
        &self.reservoir
    }

    /// Completed requests offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Serialises both sets as a text dump (see the module docs).
    pub fn render_dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# hermes flight recorder: {} completed requests seen\n",
            self.seen
        ));
        out.push_str(&format!("## slowest {} requests\n", self.slowest.len()));
        for tl in &self.slowest {
            out.push_str(&tl.render());
        }
        out.push_str(&format!(
            "## reservoir sample ({} requests)\n",
            self.reservoir.len()
        ));
        for tl in &self.reservoir {
            out.push_str(&tl.render());
        }
        out
    }
}

/// Summary [`parse_dump`] extracts from a rendered dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSummary {
    /// Total completed requests the recorder had seen.
    pub seen: u64,
    /// Request records parsed out of the dump.
    pub records: usize,
    /// Records whose phase durations did **not** sum to their sojourn.
    pub unbalanced: usize,
}

/// Parses a [`FlightRecorder::render_dump`] text back, re-checking every
/// record's balance invariant (phase durations sum to the recorded
/// sojourn).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_dump(text: &str) -> Result<DumpSummary, String> {
    fn field(line: &str, key: &str) -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            .ok_or_else(|| format!("missing {key}= in: {line}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {key} in {line}: {e}"))
    }

    let mut seen = None;
    let mut records = 0usize;
    let mut unbalanced = 0usize;
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("# hermes flight recorder: ") {
            seen = Some(
                rest.split_whitespace()
                    .next()
                    .and_then(|n| n.parse::<u64>().ok())
                    .ok_or_else(|| format!("bad header: {line}"))?,
            );
        } else if line.starts_with("request ") {
            let sojourn = field(line, "sojourn")?;
            let phases = lines
                .next()
                .filter(|l| l.trim_start().starts_with("phases"))
                .ok_or_else(|| format!("request line without phases: {line}"))?;
            let total: u64 = phases
                .split_whitespace()
                .filter_map(|tok| tok.split_once('='))
                .map(|(_, v)| v.parse::<u64>().map_err(|e| format!("bad phase: {e}")))
                .sum::<Result<u64, String>>()?;
            records += 1;
            if total != sojourn {
                unbalanced += 1;
            }
        }
    }
    Ok(DumpSummary {
        seen: seen.ok_or("dump has no header")?,
        records,
        unbalanced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{CachePath, Phase, PhaseNs, RequestId};

    fn tl(id: u64, sojourn: u64) -> RequestTimeline {
        let mut svc = PhaseNs::new();
        svc.add(Phase::Deep, sojourn / 2);
        RequestTimeline::from_dispatch(
            RequestId(id),
            id,
            0,
            "interactive",
            0,
            sojourn - sojourn / 2,
            sojourn,
            1,
            &svc,
            CachePath::Computed,
            None,
        )
    }

    #[test]
    fn keeps_exactly_the_slowest_n_in_order() {
        let mut rec = FlightRecorder::new(3, 0, 1);
        for (id, s) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 900), (6, 40)] {
            rec.record(&tl(id, s));
        }
        let kept: Vec<u64> = rec.slowest().iter().map(|t| t.sojourn_ns()).collect();
        assert_eq!(kept, vec![900, 500, 300]);
        assert_eq!(rec.seen(), 6);
    }

    #[test]
    fn ties_prefer_earlier_request_id() {
        let mut rec = FlightRecorder::new(2, 0, 1);
        for id in [9, 4, 7] {
            rec.record(&tl(id, 100));
        }
        let ids: Vec<u64> = rec.slowest().iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![4, 7], "equal sojourns keep the earliest ids");
    }

    #[test]
    fn reservoir_is_seed_deterministic_and_bounded() {
        let run = |seed| {
            let mut rec = FlightRecorder::new(0, 5, seed);
            for id in 1..=100u64 {
                rec.record(&tl(id, 10 + id));
            }
            rec.reservoir().iter().map(|t| t.id.0).collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a.len(), 5);
        assert_eq!(a, run(42), "same seed, same sample");
        assert_ne!(a, run(43), "different seed, different sample");
    }

    #[test]
    fn dump_round_trips_and_is_balanced() {
        let mut rec = FlightRecorder::new(4, 3, 7);
        for id in 1..=20u64 {
            rec.record(&tl(id, id * 13));
        }
        let dump = rec.render_dump();
        let summary = parse_dump(&dump).unwrap();
        assert_eq!(summary.seen, 20);
        assert_eq!(summary.records, 4 + 3);
        assert_eq!(summary.unbalanced, 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_dump("no header").is_err());
        assert!(parse_dump("# hermes flight recorder: x requests\n").is_err());
    }
}
