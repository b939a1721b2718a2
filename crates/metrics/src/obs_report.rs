//! Renders `hermes-obs` tail-latency attribution as the table `hermes
//! report` prints: a per-quantile conditional matrix, which is not a
//! flat metric, so it is the one observer view that does not go through
//! the `MetricsRegistry` (see [`crate::registry_tables`]).
//!
//! The numbers come straight from [`Attribution`] accessors; this module
//! only formats, deterministically for a seeded run.

use hermes_obs::{Attribution, Phase};

use crate::report::{fmt, Row, Table};

/// Quantiles the attribution table reports, tail-first importance order.
pub const REPORT_QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// One row per `class × quantile`: the phase breakdown of the requests
/// in that quantile's sojourn bucket, plus the attribution verdict
/// (which phase dominates). Classes without traffic are skipped.
pub fn phase_breakdown_table(attr: &Attribution) -> Table {
    let mut t = Table::new(
        "tail-latency attribution (mean ns per phase in the quantile's sojourn bucket)",
        &[
            "class",
            "q",
            "sojourn>=ns",
            "n",
            "queue_wait",
            "cache_probe",
            "route",
            "deep",
            "residual",
            "dominant",
        ],
    );
    for class in attr.classes() {
        if class.count() == 0 {
            continue;
        }
        for q in REPORT_QUANTILES {
            let Some(b) = class.breakdown_at(q) else {
                continue;
            };
            let mut cells = vec![
                format!("p{:02.0}", q * 100.0),
                b.sojourn_floor_ns.to_string(),
                b.count.to_string(),
            ];
            cells.extend(
                Phase::ALL
                    .iter()
                    .map(|p| fmt(b.mean_phase_ns[p.index()], 0)),
            );
            cells.push(b.dominant_phase().label().to_string());
            t.push(Row::new(class.label(), cells));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::{CachePath, PhaseNs, RequestId, RequestTimeline};

    #[test]
    fn attribution_table_renders_per_class_quantiles() {
        let mut attr = Attribution::new(&["interactive", "standard", "batch"]);
        for i in 0..50u64 {
            let (arrival, slow) = (i * 7, if i % 10 == 0 { 4_000 } else { 100 });
            let mut svc = PhaseNs::new();
            svc.add(Phase::Deep, slow);
            let finish = arrival + 10 + slow;
            attr.record(&RequestTimeline::from_dispatch(
                RequestId(1),
                1,
                0,
                "interactive",
                arrival,
                arrival + 10,
                finish,
                1,
                &svc,
                CachePath::Computed,
                None,
            ));
        }
        let rendered = phase_breakdown_table(&attr).render();
        assert!(rendered.contains("interactive"));
        assert!(rendered.contains("p50"));
        assert!(rendered.contains("p99"));
        assert!(rendered.contains("deep"));
        assert!(!rendered.contains("standard"), "idle classes are skipped");
    }
}
