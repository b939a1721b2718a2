//! Adaptive-depth accounting for reports: [`DepthHistogram`] counts how
//! often the adaptive estimator chose each retrieval depth (clusters
//! searched), the visible footprint of the difficulty signal that
//! `hermes stats` and the `ext_adaptive` bench print. Cache counters and
//! their rates live on `hermes_cache::CacheStats` itself.

use crate::report::{fmt, Row, Table};

/// Histogram of adaptive depth choices (clusters searched per query).
///
/// # Examples
///
/// ```
/// use hermes_metrics::DepthHistogram;
/// let mut h = DepthHistogram::new();
/// h.record(1);
/// h.record(3);
/// h.record(3);
/// assert_eq!(h.queries(), 3);
/// assert_eq!(h.count(3), 2);
/// assert!((h.mean() - 7.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl DepthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DepthHistogram::default()
    }

    /// Folds in one query's chosen depth.
    pub fn record(&mut self, depth: usize) {
        if self.counts.len() <= depth {
            self.counts.resize(depth + 1, 0);
        }
        self.counts[depth] += 1;
        self.total += 1;
    }

    /// Queries recorded.
    pub fn queries(&self) -> u64 {
        self.total
    }

    /// Queries that chose exactly `depth`.
    pub fn count(&self, depth: usize) -> u64 {
        self.counts.get(depth).copied().unwrap_or(0)
    }

    /// Mean chosen depth (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Non-empty `(depth, count, share)` buckets in depth order.
    pub fn buckets(&self) -> Vec<(usize, u64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| (d, c, c as f64 / self.total as f64))
            .collect()
    }

    /// Renders the histogram as a table with share bars.
    pub fn table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["depth", "queries", "share"]);
        for (d, c, share) in self.buckets() {
            t.push(Row::new(
                format!("m={d}"),
                vec![c.to_string(), fmt(share, 3)],
            ));
        }
        t.push(Row::new("mean", vec![String::new(), fmt(self.mean(), 2)]));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_buckets() {
        let mut h = DepthHistogram::new();
        for d in [1, 1, 2, 3, 3, 3] {
            h.record(d);
        }
        assert_eq!(h.queries(), 6);
        assert_eq!(h.count(0), 0);
        assert_eq!(h.count(3), 3);
        assert_eq!(
            h.buckets(),
            vec![(1, 2, 2.0 / 6.0), (2, 1, 1.0 / 6.0), (3, 3, 3.0 / 6.0),]
        );
        assert!((h.mean() - 13.0 / 6.0).abs() < 1e-12);
        let rendered = h.table("adaptive depth").render();
        assert!(rendered.contains("m=3"));
        assert!(rendered.contains("mean"));
    }

    #[test]
    fn empty_histogram_renders() {
        let h = DepthHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
        let _ = h.table("adaptive depth").render();
    }
}
