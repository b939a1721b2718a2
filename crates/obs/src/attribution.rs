//! Tail-latency attribution: *where does the p99 go?*
//!
//! [`Attribution`] folds completed [`RequestTimeline`]s into bounded
//! per-class state: a sojourn [`LogHistogram`], per-phase histograms,
//! and — the piece percentile tables can't be built from marginals — a
//! **conditional phase matrix** indexed by sojourn bucket. A request
//! whose sojourn lands in log2 bucket *b* adds its phase durations to
//! row *b*, so "the phase breakdown of the p99" is answered exactly:
//! find the bucket the p99 rank lands in, read that row's means. Memory
//! is `classes × 64 × PHASES` words regardless of traffic volume.
//!
//! Everything merges: [`Attribution::merge`] folds another instance in
//! bucket-exactly (per-thread or per-node collection, one table out),
//! riding on [`LogHistogram::merge`]'s union property.

use hermes_math::stats::log2_bucket;
use hermes_trace::hist::{LogHistogram, BUCKETS};

use crate::timeline::{Phase, RequestTimeline, PHASES};

/// Phase breakdown of the requests whose sojourn lands in one quantile's
/// bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// The quantile asked for.
    pub quantile: f64,
    /// Lower bound of the sojourn bucket the quantile rank landed in, ns.
    pub sojourn_floor_ns: u64,
    /// Requests in that bucket (the sample the means average over).
    pub count: u64,
    /// Mean nanoseconds per phase over those requests, [`Phase::ALL`]
    /// order. Sums to the bucket's mean sojourn.
    pub mean_phase_ns: [f64; PHASES],
}

impl Breakdown {
    /// The phase with the largest mean share — the attribution verdict.
    pub fn dominant_phase(&self) -> Phase {
        let mut best = Phase::QueueWait;
        for p in Phase::ALL {
            if self.mean_phase_ns[p.index()] > self.mean_phase_ns[best.index()] {
                best = p;
            }
        }
        best
    }
}

/// Per-class attribution state. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct ClassAttribution {
    label: &'static str,
    count: u64,
    sojourn: LogHistogram,
    phase_hist: [LogHistogram; PHASES],
    phase_sums: [u64; PHASES],
    bucket_counts: Vec<u64>,
    bucket_phase_sums: Vec<[u64; PHASES]>,
}

impl ClassAttribution {
    fn new(label: &'static str) -> Self {
        ClassAttribution {
            label,
            count: 0,
            sojourn: LogHistogram::new(),
            phase_hist: Default::default(),
            phase_sums: [0; PHASES],
            bucket_counts: vec![0; BUCKETS],
            bucket_phase_sums: vec![[0; PHASES]; BUCKETS],
        }
    }

    fn record(&mut self, tl: &RequestTimeline) {
        self.count += 1;
        let sojourn = tl.sojourn_ns();
        self.sojourn.record(sojourn);
        let b = log2_bucket(sojourn);
        self.bucket_counts[b] += 1;
        for p in Phase::ALL {
            let ns = tl.phases.get(p);
            self.phase_hist[p.index()].record(ns);
            self.phase_sums[p.index()] += ns;
            self.bucket_phase_sums[b][p.index()] += ns;
        }
    }

    fn merge(&mut self, other: &ClassAttribution) {
        self.count += other.count;
        self.sojourn.merge(&other.sojourn);
        for i in 0..PHASES {
            self.phase_hist[i].merge(&other.phase_hist[i]);
            self.phase_sums[i] += other.phase_sums[i];
        }
        for b in 0..BUCKETS {
            self.bucket_counts[b] += other.bucket_counts[b];
            for i in 0..PHASES {
                self.bucket_phase_sums[b][i] += other.bucket_phase_sums[b][i];
            }
        }
    }

    /// Class label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Completed requests recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sojourn histogram (ns).
    pub fn sojourn(&self) -> &LogHistogram {
        &self.sojourn
    }

    /// Duration histogram of one phase (ns).
    pub fn phase_histogram(&self, phase: Phase) -> &LogHistogram {
        &self.phase_hist[phase.index()]
    }

    /// Mean nanoseconds per phase over *all* requests of the class.
    pub fn mean_phase_ns(&self) -> [f64; PHASES] {
        let mut means = [0.0; PHASES];
        if self.count > 0 {
            for (mean, &sum) in means.iter_mut().zip(&self.phase_sums) {
                *mean = sum as f64 / self.count as f64;
            }
        }
        means
    }

    /// Phase breakdown of the requests in the `q`-quantile's sojourn
    /// bucket; `None` when the class saw no traffic.
    pub fn breakdown_at(&self, q: f64) -> Option<Breakdown> {
        if self.count == 0 {
            return None;
        }
        let floor = self.sojourn.percentile(q);
        let b = log2_bucket(floor);
        let n = self.bucket_counts[b];
        debug_assert!(n > 0, "percentile bucket must be populated");
        let mut mean_phase_ns = [0.0; PHASES];
        if n > 0 {
            for (mean, &sum) in mean_phase_ns.iter_mut().zip(&self.bucket_phase_sums[b]) {
                *mean = sum as f64 / n as f64;
            }
        }
        Some(Breakdown {
            quantile: q,
            sojourn_floor_ns: floor,
            count: n,
            mean_phase_ns,
        })
    }
}

/// The attribution engine: one [`ClassAttribution`] per priority class.
#[derive(Debug, Clone)]
pub struct Attribution {
    classes: Vec<ClassAttribution>,
}

impl Attribution {
    /// One empty accumulator per label, class-index order.
    pub fn new(class_labels: &[&'static str]) -> Self {
        Attribution {
            classes: class_labels
                .iter()
                .map(|&l| ClassAttribution::new(l))
                .collect(),
        }
    }

    /// Folds one completed timeline in. Out-of-range classes are ignored
    /// (observability never panics the serving path).
    pub fn record(&mut self, tl: &RequestTimeline) {
        if let Some(class) = self.classes.get_mut(tl.class) {
            class.record(tl);
        }
    }

    /// Folds another attribution (same class layout) in, bucket-exactly.
    pub fn merge(&mut self, other: &Attribution) {
        for (a, b) in self.classes.iter_mut().zip(&other.classes) {
            a.merge(b);
        }
    }

    /// Per-class accumulators, class-index order.
    pub fn classes(&self) -> &[ClassAttribution] {
        &self.classes
    }

    /// Total completed requests across classes.
    pub fn total(&self) -> u64 {
        self.classes.iter().map(ClassAttribution::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{CachePath, PhaseNs, RequestId};

    fn tl(class: usize, arrival: u64, start: u64, finish: u64, deep: u64) -> RequestTimeline {
        let mut svc = PhaseNs::new();
        svc.add(Phase::Deep, deep);
        RequestTimeline::from_dispatch(
            RequestId(1),
            1,
            class,
            ["a", "b"][class],
            arrival,
            start,
            finish,
            1,
            &svc,
            CachePath::Computed,
            None,
        )
    }

    #[test]
    fn breakdown_means_sum_to_bucket_mean_sojourn() {
        let mut attr = Attribution::new(&["a", "b"]);
        // Two fast requests (sojourn 100: 40 wait + 60 deep) and one slow
        // (sojourn 1000: 900 wait + 100 deep) in class 0.
        attr.record(&tl(0, 0, 40, 100, 60));
        attr.record(&tl(0, 0, 40, 100, 60));
        attr.record(&tl(0, 0, 900, 1000, 100));
        let c = &attr.classes()[0];
        assert_eq!(c.count(), 3);

        // p50 rank 2 → sojourn bucket of 100; p99 rank 3 → bucket of 1000.
        let p50 = c.breakdown_at(0.50).unwrap();
        assert_eq!(p50.count, 2);
        assert_eq!(p50.mean_phase_ns[Phase::QueueWait.index()], 40.0);
        assert_eq!(p50.mean_phase_ns[Phase::Deep.index()], 60.0);
        assert_eq!(p50.dominant_phase(), Phase::Deep);

        let p99 = c.breakdown_at(0.99).unwrap();
        assert_eq!(p99.count, 1);
        assert_eq!(p99.mean_phase_ns[Phase::QueueWait.index()], 900.0);
        assert_eq!(p99.dominant_phase(), Phase::QueueWait);

        let total: f64 = p99.mean_phase_ns.iter().sum();
        assert_eq!(total, 1000.0);
    }

    #[test]
    fn merge_equals_recording_union() {
        let timelines: Vec<RequestTimeline> = (0..20)
            .map(|i: u64| tl((i % 2) as usize, 0, i * 3, i * 3 + 50 + i * 7, 20 + i))
            .collect();
        let mut whole = Attribution::new(&["a", "b"]);
        let mut left = Attribution::new(&["a", "b"]);
        let mut right = Attribution::new(&["a", "b"]);
        for (i, t) in timelines.iter().enumerate() {
            whole.record(t);
            if i % 3 == 0 {
                left.record(t)
            } else {
                right.record(t)
            }
        }
        left.merge(&right);
        assert_eq!(left.total(), whole.total());
        for (a, b) in left.classes().iter().zip(whole.classes()) {
            assert_eq!(a.sojourn(), b.sojourn());
            assert_eq!(a.mean_phase_ns(), b.mean_phase_ns());
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(a.breakdown_at(q), b.breakdown_at(q));
            }
        }
    }

    #[test]
    fn empty_class_has_no_breakdown() {
        let attr = Attribution::new(&["a"]);
        assert!(attr.classes()[0].breakdown_at(0.99).is_none());
        assert_eq!(attr.total(), 0);
    }
}
