//! ASCII summaries of runtime telemetry snapshots.
//!
//! `hermes-trace` sits below this crate in the dependency graph (the
//! pool itself records into it), so the trace crate cannot render its
//! own [`Table`]s; this module closes the loop — it folds a
//! [`TraceSnapshot`] into the same report tables every bench binary
//! prints, which is what the `hermes stats` subcommand shows.

use crate::report::{fmt, Row, Table};
use hermes_trace::{names, TraceSnapshot};

/// Span-latency summary: one row per span name with sample count,
/// p50/p95/p99 duration and total time. Durations are reported in
/// microseconds (the Chrome trace unit); percentiles are log2-bucket
/// lower bounds, so they are order-of-magnitude readings, not exact
/// quantiles.
///
/// # Errors
///
/// Propagates [`TraceSnapshot::spans`] matching failures (an unmatched
/// begin/end means the snapshot was drained mid-span).
pub fn span_table(snapshot: &TraceSnapshot) -> Result<Table, String> {
    let mut table = Table::new(
        "Span latencies (µs, log2-bucket lower bounds)",
        &["span", "count", "p50", "p95", "p99", "total"],
    );
    for (name, hist) in snapshot.histograms()? {
        table.push(Row::new(
            name,
            vec![
                hist.count().to_string(),
                fmt(hist.p50() as f64 / 1_000.0, 3),
                fmt(hist.p95() as f64 / 1_000.0, 3),
                fmt(hist.p99() as f64 / 1_000.0, 3),
                fmt(hist.sum() as f64 / 1_000.0, 1),
            ],
        ));
    }
    Ok(table)
}

/// Counter summary: one row per counter name with sample count, sum
/// (the monotonic reading) and max (the gauge reading).
pub fn counter_table(snapshot: &TraceSnapshot) -> Table {
    let mut table = Table::new("Counters", &["counter", "samples", "sum", "max"]);
    for (name, c) in snapshot.counters() {
        table.push(Row::new(
            name,
            vec![c.samples.to_string(), c.sum.to_string(), c.max.to_string()],
        ));
    }
    table
}

/// Shard-scan work per engine stage, folded from the `shard.sample` and
/// `shard.deep` span args: group scans run, queries they served, the
/// codes those queries scanned, the codes the exact kernel rescored
/// after the bound filter, and rescored ÷ scanned — the share of rows
/// that still paid for f32 arithmetic.
///
/// # Errors
///
/// Propagates [`TraceSnapshot::spans`] matching failures.
pub fn scan_table(snapshot: &TraceSnapshot) -> Result<Table, String> {
    let mut table = Table::new(
        "Shard scan work (codes)",
        &[
            "stage",
            "group scans",
            "queries",
            "scanned",
            "rescored",
            "rescored/scanned",
        ],
    );
    let spans = snapshot.spans()?;
    for (stage, name) in [("sample", names::SHARD_SAMPLE), ("deep", names::SHARD_DEEP)] {
        let (mut scans, mut queries, mut scanned, mut rescored) = (0u64, 0u64, 0u64, 0u64);
        for span in spans.iter().filter(|s| s.name == name) {
            let arg = |key: &str| {
                span.args
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(0, |&(_, v)| v)
            };
            scans += 1;
            queries += arg("queries");
            scanned += arg("scanned_codes");
            rescored += arg("rescored_codes");
        }
        if scans > 0 {
            table.push(Row::new(
                stage,
                vec![
                    scans.to_string(),
                    queries.to_string(),
                    scanned.to_string(),
                    rescored.to_string(),
                    fmt(rescored as f64 / scanned.max(1) as f64, 3),
                ],
            ));
        }
    }
    Ok(table)
}

/// Renders the span, scan-work and counter tables plus the drop line —
/// the full `hermes stats` report.
///
/// # Errors
///
/// Propagates [`TraceSnapshot::spans`] matching failures.
pub fn render_summary(snapshot: &TraceSnapshot) -> Result<String, String> {
    let mut out = span_table(snapshot)?.render();
    let scans = scan_table(snapshot)?;
    if !scans.rows().is_empty() {
        out.push('\n');
        out.push_str(&scans.render());
    }
    out.push('\n');
    out.push_str(&counter_table(snapshot).render());
    out.push_str(&format!(
        "\nthreads: {}  events: {}  dropped: {}\n",
        snapshot.threads.len(),
        snapshot.events.len(),
        snapshot.dropped
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trace::{ArgSet, Event, EventKind};

    fn ev(kind: EventKind, name: &'static str, ts_ns: u64, value: u64) -> Event {
        Event {
            kind,
            name,
            ts_ns,
            value,
            tid: 0,
            args: ArgSet::default(),
        }
    }

    /// A deterministic snapshot built without touching global trace
    /// state: two `work` spans (1000 ns and 3000 ns) and a counter.
    fn fixture() -> TraceSnapshot {
        TraceSnapshot::from_events(vec![
            ev(EventKind::Begin, "work", 0, 0),
            ev(EventKind::End, "work", 1_000, 0),
            ev(EventKind::Complete, "work", 2_000, 3_000),
            ev(EventKind::Counter, "codes", 500, 40),
            ev(EventKind::Counter, "codes", 1_500, 60),
        ])
    }

    #[test]
    fn span_table_reports_counts_and_percentiles() {
        let t = span_table(&fixture()).unwrap();
        let row = &t.rows()[0];
        assert_eq!(row.label, "work");
        assert_eq!(row.cells[0], "2");
        // 1000 ns falls in bucket [512, 1024) -> floor 512 ns = 0.512 µs;
        // 3000 ns falls in [2048, 4096) -> floor 2048 ns = 2.048 µs.
        assert_eq!(row.cells[1], "0.512", "p50");
        assert_eq!(row.cells[3], "2.048", "p99");
        assert_eq!(row.cells[4], "4.0", "total µs");
    }

    #[test]
    fn counter_table_rolls_up_sum_and_max() {
        let t = counter_table(&fixture());
        let row = &t.rows()[0];
        assert_eq!(row.label, "codes");
        assert_eq!(row.cells, vec!["2", "100", "60"]);
    }

    #[test]
    fn scan_table_folds_scanned_and_rescored_codes_per_stage() {
        let span = |name, ts, args: &[(&'static str, u64)]| {
            let mut end = ev(EventKind::End, name, ts + 10, 0);
            end.args = ArgSet::from_slice(args);
            [ev(EventKind::Begin, name, ts, 0), end]
        };
        let events = [
            span(
                "shard.deep",
                0,
                &[
                    ("queries", 3),
                    ("scanned_codes", 300),
                    ("rescored_codes", 12),
                ],
            ),
            span(
                "shard.deep",
                20,
                &[
                    ("queries", 1),
                    ("scanned_codes", 100),
                    ("rescored_codes", 8),
                ],
            ),
            span(
                "shard.sample",
                40,
                &[("queries", 8), ("scanned_codes", 80), ("rescored_codes", 0)],
            ),
        ];
        let snap = TraceSnapshot::from_events(events.into_iter().flatten().collect());
        let t = scan_table(&snap).unwrap();
        assert_eq!(t.rows()[0].label, "sample");
        assert_eq!(t.rows()[0].cells, vec!["1", "8", "80", "0", "0.000"]);
        assert_eq!(t.rows()[1].label, "deep");
        assert_eq!(t.rows()[1].cells, vec!["2", "4", "400", "20", "0.050"]);
        assert!(render_summary(&snap).unwrap().contains("Shard scan work"));
        // No shard spans, no table.
        assert!(scan_table(&fixture()).unwrap().rows().is_empty());
        assert!(!render_summary(&fixture())
            .unwrap()
            .contains("Shard scan work"));
    }

    #[test]
    fn summary_renders_both_tables_and_totals() {
        let s = render_summary(&fixture()).unwrap();
        assert!(s.contains("Span latencies"));
        assert!(s.contains("Counters"));
        assert!(s.contains("events: 5"));
        assert!(s.contains("dropped: 0"));
    }

    #[test]
    fn unbalanced_snapshot_surfaces_the_matching_error() {
        let snap = TraceSnapshot::from_events(vec![ev(EventKind::Begin, "open", 0, 0)]);
        let err = span_table(&snap).unwrap_err();
        assert!(err.contains("never ended"), "{err}");
        // Counters never depend on span matching.
        let _ = counter_table(&snap);
    }
}
