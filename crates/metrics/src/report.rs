//! ASCII reporting used by the bench binaries and the CLI.
//!
//! Every figure/table binary prints its rows through [`Table`], always
//! with a `paper` column next to the `measured` column so EXPERIMENTS.md
//! can be regenerated mechanically. [`registry_tables`] is the one view
//! of runtime telemetry: whatever was exported into a
//! [`MetricsRegistry`] — a serving report, cache counters, an observer,
//! a folded trace snapshot — prints through it.

use hermes_obs::{MetricsRegistry, Sample};
use hermes_trace::hist::LogHistogram;

/// One row of a report table: a label plus formatted cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// Remaining cells, pre-formatted.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from a label and cell values.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Self {
        Row {
            label: label.into(),
            cells,
        }
    }
}

/// A fixed-column ASCII table.
///
/// # Examples
///
/// ```
/// use hermes_metrics::{Row, Table};
/// let mut t = Table::new("Table 1", &["scheme", "recall", "bytes"]);
/// t.push(Row::new("SQ8", vec!["0.94".into(), "768".into()]));
/// let rendered = t.render();
/// assert!(rendered.contains("SQ8"));
/// assert!(rendered.contains("recall"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Row>,
}

impl Table {
    /// Creates a table with a title and column headers (the first header
    /// names the label column).
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than the header allows.
    pub fn push(&mut self, row: Row) {
        assert!(
            row.cells.len() < self.headers.len(),
            "row wider than header"
        );
        self.rows.push(row);
    }

    /// The rows pushed so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            widths[0] = widths[0].max(row.label.len());
            for (i, c) in row.cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut header = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            header.push_str(&format!("{:<width$}  ", h, width = widths[i]));
        }
        out.push_str(header.trim_end());
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            let mut line = format!("{:<width$}  ", row.label, width = widths[0]);
            for (i, c) in row.cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", c, width = widths[i + 1]));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-flavored markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            let mut cells = vec![row.label.clone()];
            cells.extend(row.cells.iter().cloned());
            while cells.len() < self.headers.len() {
                cells.push(String::new());
            }
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }
}

/// Normalizes a series so its maximum is `1.0` — how the paper plots
/// latency/energy comparisons (Figures 14, 16, 17, 21). An all-zero series
/// is returned unchanged.
pub fn normalize_to_max(values: &[f64]) -> Vec<f64> {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() || max <= 0.0 {
        return values.to_vec();
    }
    values.iter().map(|v| v / max).collect()
}

/// The registry as the ASCII tables the CLI prints, titled `title`:
///
/// * **scalars** — every counter and gauge: name, labels, value;
/// * **distributions** — name, labels, count, p50, p95, p99 and mean of
///   each stored [`LogHistogram`] (percentiles are log2-bucket floors,
///   in the metric's unit). A distribution split along one label also
///   gets a `<label>=*` row, the merge of its series — e.g. the
///   all-class sojourn of `serve.sojourn_ns{class}`.
///
/// Rows keep the registry's order; an empty table is left out. Help
/// lines belong to the text exposition, not to this view.
pub fn registry_tables(reg: &MetricsRegistry, title: &str) -> Vec<Table> {
    let mut scalars = Table::new(
        format!("{title}: counters and gauges"),
        &["metric", "labels", "value"],
    );
    let mut dists = Table::new(
        format!("{title}: distributions (log2-bucket floors)"),
        &["metric", "labels", "count", "p50", "p95", "p99", "mean"],
    );
    let label_list = |labels: &[(String, String)]| {
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.join(",")
    };
    let mut hists = Vec::new();
    for (name, series) in reg.series() {
        let value = match &series.sample {
            Sample::Counter(v) => v.to_string(),
            Sample::Gauge(v) if v.fract() == 0.0 => fmt(*v, 0),
            Sample::Gauge(v) => fmt(*v, 4),
            Sample::Histogram(h) => {
                hists.push((name, series.labels.as_slice(), &**h));
                continue;
            }
        };
        scalars.push(Row::new(name, vec![label_list(&series.labels), value]));
    }
    let dist_row = |name: &str, labels: String, h: &LogHistogram| {
        let mut cells = vec![labels];
        cells.extend([h.count(), h.p50(), h.p95(), h.p99()].map(|v| v.to_string()));
        cells.push(fmt(h.mean(), 0));
        Row::new(name, cells)
    };
    for family in hists.chunk_by(|a, b| a.0 == b.0) {
        for &(name, labels, h) in family {
            dists.push(dist_row(name, label_list(labels), h));
        }
        if let (name, [(key, _)], _) = family[0] {
            if family
                .iter()
                .all(|(_, l, _)| matches!(l, [(k, _)] if k == key))
            {
                let mut all = LogHistogram::new();
                for (_, _, h) in family {
                    all.merge(h);
                }
                dists.push(dist_row(name, format!("{key}=*"), &all));
            }
        }
    }
    [scalars, dists]
        .into_iter()
        .filter(|t| !t.rows().is_empty())
        .collect()
}

/// Formats a float with `digits` significant decimals, trimming noise.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_obs::{fold_trace_counters, fold_trace_spans, ObsConfig, Observer, SloPolicy};
    use hermes_trace::{names, ArgSet, Event, EventKind, TraceSnapshot};

    #[test]
    fn render_contains_all_cells() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push(Row::new("r1", vec!["x".into()]));
        t.push(Row::new("r2", vec!["y".into()]));
        let s = t.render();
        for needle in ["T", "a", "b", "r1", "r2", "x", "y"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn markdown_has_header_separator() {
        let mut t = Table::new("M", &["col", "v"]);
        t.push(Row::new("row", vec!["1".into()]));
        let md = t.render_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| row | 1 |"));
    }

    #[test]
    fn normalize_to_max_peaks_at_one() {
        let n = normalize_to_max(&[2.0, 4.0, 1.0]);
        assert_eq!(n, vec![0.5, 1.0, 0.25]);
    }

    #[test]
    fn normalize_handles_degenerate_series() {
        assert_eq!(normalize_to_max(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert!(normalize_to_max(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "wider")]
    fn overwide_rows_rejected() {
        let mut t = Table::new("T", &["only"]);
        t.push(Row::new("r", vec!["too".into(), "many".into()]));
    }

    #[test]
    fn fmt_controls_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(9.0, 0), "9");
    }

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

    fn folded(snap: &TraceSnapshot) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        fold_trace_counters(&mut reg, snap);
        fold_trace_spans(&mut reg, snap).unwrap();
        reg
    }

    /// Every row labelled `metric`, across the rendered tables.
    fn rows(reg: &MetricsRegistry, metric: &str) -> Vec<Row> {
        let tables = registry_tables(reg, "t");
        tables
            .iter()
            .flat_map(Table::rows)
            .filter(|r| r.label == metric)
            .cloned()
            .collect()
    }

    #[test]
    fn span_fold_reports_counts_and_percentiles() {
        let reg = folded(&fixture());
        // 1000 ns falls in bucket [512, 1024) -> floor 512 ns = 0.512 µs;
        // 3000 ns falls in [2048, 4096) -> floor 2048 ns = 2.048 µs.
        let row = &rows(&reg, "span.work_ns")[0];
        assert_eq!(row.cells, vec!["", "2", "512", "2048", "2048", "2000"]);
        let (_, series) = reg.series().find(|(n, _)| *n == "span.work_ns").unwrap();
        match &series.sample {
            Sample::Histogram(h) => assert_eq!(h.sum(), 4_000, "total 4.0 µs"),
            other => panic!("span fold stored {other:?}"),
        }
    }

    #[test]
    fn counter_fold_rolls_up_samples_sum_and_max() {
        let reg = folded(&fixture());
        let value = |m: &str| rows(&reg, m)[0].cells[1].clone();
        assert_eq!(value("counter.codes"), "2");
        assert_eq!(value("counter.codes_sum"), "100");
        assert_eq!(value("counter.codes_max"), "60");
    }

    #[test]
    fn span_fold_sums_scanned_and_rescored_codes_per_stage() {
        let span = |name, ts, args: &[(&'static str, u64)]| {
            let mut end = ev(EventKind::End, name, ts + 10, 0);
            end.args = ArgSet::from_slice(args);
            let mut begin = ev(EventKind::Begin, name, ts, 0);
            begin.args = ArgSet::from_slice(&[(names::ARG_CLUSTER, 3)]);
            [begin, end]
        };
        let scan = |q, s, r| [("queries", q), ("scanned_codes", s), ("rescored_codes", r)];
        let events = [
            span(names::SHARD_DEEP, 0, &scan(3, 300, 12)),
            span(names::SHARD_DEEP, 20, &scan(1, 100, 8)),
            span(names::SHARD_SAMPLE, 40, &scan(8, 80, 0)),
        ];
        let reg = folded(&TraceSnapshot::from_events(
            events.into_iter().flatten().collect(),
        ));
        let read = |stage: &str| {
            let scans = rows(&reg, &format!("span.shard.{stage}_ns"))[0].cells[1].clone();
            let sums = ["queries", "scanned_codes", "rescored_codes"]
                .map(|arg| rows(&reg, &format!("span.shard.{stage}.{arg}"))[0].cells[1].clone());
            [vec![scans], sums.to_vec()].concat()
        };
        assert_eq!(read("sample"), vec!["1", "8", "80", "0"]);
        assert_eq!(read("deep"), vec!["2", "4", "400", "20"]);
        assert!(
            rows(&reg, "span.shard.deep.cluster").is_empty(),
            "identifiers are not summed"
        );
        // No shard spans, no shard rows.
        assert!(rows(&folded(&fixture()), "span.shard.deep_ns").is_empty());
    }

    #[test]
    fn registry_tables_render_both_tables_and_snapshot_totals() {
        let reg = folded(&fixture());
        let s: String = registry_tables(&reg, "trace")
            .iter()
            .map(Table::render)
            .collect();
        assert!(s.contains("trace: counters and gauges"));
        assert!(s.contains("trace: distributions"));
        assert_eq!(rows(&reg, names::TRACE_EVENTS)[0].cells[1], "5");
        assert_eq!(rows(&reg, names::TRACE_DROPPED)[0].cells[1], "0");
        assert!(registry_tables(&MetricsRegistry::new(), "empty").is_empty());
    }

    #[test]
    fn unbalanced_snapshot_surfaces_the_matching_error() {
        let snap = TraceSnapshot::from_events(vec![ev(EventKind::Begin, "open", 0, 0)]);
        let err = fold_trace_spans(&mut MetricsRegistry::new(), &snap).unwrap_err();
        assert!(err.contains("never ended"), "{err}");
        // Counters never depend on span matching.
        fold_trace_counters(&mut MetricsRegistry::new(), &snap);
    }

    #[test]
    fn observer_slo_export_renders_counters_burn_and_a_merged_sojourn() {
        use hermes_obs::{CachePath, Phase, PhaseNs, RequestId, RequestTimeline, ShedCause};
        let labels = vec!["interactive", "standard", "batch"];
        let slo = SloPolicy::new(vec![Some(500), Some(5_000), None]).with_budget(0.1);
        let mut obs = Observer::new(ObsConfig::new(labels.clone(), 1).with_slo(slo));
        for (id, class, finish) in [(1, 0, 100u64), (2, 0, 2_000), (3, 1, 300)] {
            let mut svc = PhaseNs::new();
            svc.add(Phase::Deep, finish - 10);
            obs.on_completion(&RequestTimeline::from_dispatch(
                RequestId(id),
                1,
                class,
                labels[class],
                0,
                10,
                finish,
                1,
                &svc,
                CachePath::Computed,
                None,
            ));
        }
        obs.on_shed(1, 50, ShedCause::QueueFull);
        let mut reg = MetricsRegistry::new();
        obs.export(&mut reg);
        let cells = |m: &str| {
            rows(&reg, m)
                .into_iter()
                .map(|r| r.cells)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            cells(names::SLO_DEADLINE_MISS)[1],
            vec!["class=interactive", "1"]
        );
        assert_eq!(
            cells(names::SLO_SHED_QUEUE_FULL)[2],
            vec!["class=standard", "1"]
        );
        // Window: 1 good, 1 bad over a 10% budget.
        assert_eq!(
            cells(names::SLO_BURN_RATE)[1],
            vec!["class=interactive", "5"]
        );
        // One row per class with traffic, then their merge; the two-label
        // phase family gets no merged row.
        let sojourn = cells(names::SERVE_SOJOURN_NS);
        assert_eq!(
            sojourn.iter().map(|c| c[0].as_str()).collect::<Vec<_>>(),
            ["class=interactive", "class=standard", "class=*"]
        );
        assert_eq!(sojourn[2][1], "3");
        assert!(cells(names::SERVE_PHASE_NS)
            .iter()
            .all(|c| !c[0].contains('*')));
    }
}
