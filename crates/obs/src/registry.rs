//! Pull-based metrics registry with a deterministic Prometheus-style
//! text exposition.
//!
//! Producers *set* current values (counters, gauges, histograms) under
//! dotted names from [`hermes_trace::names`]; [`render_text`] emits the
//! classic `# HELP` / `# TYPE` / sample-line format, with the help line
//! looked up in `names` (a producer never writes help text), and
//! [`MetricsRegistry::series`] hands the same values — histograms whole —
//! to `hermes_metrics::registry_tables`, the ASCII view. Everything is
//! stored in `BTreeMap`s and rendered in sorted order with exact
//! integer bucket bounds, so the same state always renders the same
//! bytes — the exposition is diffable and snapshot-testable, which is
//! how `scripts/verify.sh` checks it.
//!
//! [`parse_text`] reads an exposition back and validates its shape
//! (`TYPE` before samples, cumulative histogram buckets monotone and
//! consistent with `_count`), closing the round trip.
//!
//! [`render_text`]: MetricsRegistry::render_text

use std::collections::BTreeMap;

use hermes_trace::hist::LogHistogram;
use hermes_trace::names;
use hermes_trace::TraceSnapshot;

/// One series' current value.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample {
    /// A monotonically-accumulated value.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A distribution, kept whole.
    Histogram(Box<LogHistogram>),
}

impl Sample {
    /// The `# TYPE` keyword.
    fn kind(&self) -> &'static str {
        match self {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram(_) => "histogram",
        }
    }
}

/// One series: its labels (sorted by key) and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// `(key, value)` label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The current value.
    pub sample: Sample,
}

#[derive(Debug, Clone)]
struct Metric {
    /// The dotted name it was set under (`serve.wait_ns`).
    dotted: String,
    /// Rendered label block (`""` or `{k="v",…}`) → series.
    series: BTreeMap<String, Series>,
}

/// Converts a dotted telemetry name (`cache.hit_exact`) to the exported
/// metric name (`hermes_cache_hit_exact`).
pub fn metric_name(dotted: &str) -> String {
    format!("hermes_{}", dotted.replace(['.', '-'], "_"))
}

/// Renders a label set as a deterministic `{k="v",…}` block (keys
/// sorted; empty slice renders as the empty string).
fn label_block(sorted: &[(String, String)]) -> String {
    if sorted.is_empty() {
        return String::new();
    }
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Inclusive upper bound of log2 bucket `i` (`[2^i, 2^(i+1))`), as the
/// exact integer Prometheus `le` value.
fn bucket_le(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// The registry: a set of named metrics with current values, rendered on
/// demand. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn set(&mut self, dotted: &str, labels: &[(&str, &str)], sample: Sample) {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort_unstable();
        let metric = self
            .metrics
            .entry(metric_name(dotted))
            .or_insert_with(|| Metric {
                dotted: dotted.to_string(),
                series: BTreeMap::new(),
            });
        debug_assert!(
            metric
                .series
                .values()
                .all(|s| s.sample.kind() == sample.kind()),
            "metric {dotted} re-registered as another kind"
        );
        metric
            .series
            .insert(label_block(&labels), Series { labels, sample });
    }

    /// Sets a monotonically-accumulated value (`_total` is appended to
    /// the exported name per Prometheus convention).
    pub fn set_counter(&mut self, dotted: &str, labels: &[(&str, &str)], value: u64) {
        self.set(dotted, labels, Sample::Counter(value));
    }

    /// Sets an instantaneous value.
    pub fn set_gauge(&mut self, dotted: &str, labels: &[(&str, &str)], value: f64) {
        self.set(dotted, labels, Sample::Gauge(value));
    }

    /// Sets a distribution from a [`LogHistogram`] (rendered as
    /// cumulative buckets with exact integer `le` bounds, plus `_sum`
    /// and `_count`).
    pub fn set_histogram(&mut self, dotted: &str, labels: &[(&str, &str)], hist: &LogHistogram) {
        self.set(dotted, labels, Sample::Histogram(Box::new(hist.clone())));
    }

    /// Every series in exposition order, under its dotted name.
    pub fn series(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.metrics
            .values()
            .flat_map(|m| m.series.values().map(move |s| (m.dotted.as_str(), s)))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been set.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Renders the deterministic text exposition. The `# HELP` line is
    /// [`names::help`]'s; a metric with no declared help has none.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, metric) in &self.metrics {
            if let Some(help) = names::help(&metric.dotted) {
                out.push_str(&format!("# HELP {name} {help}\n"));
            }
            let kind = metric
                .series
                .values()
                .next()
                .map_or("untyped", |s| s.sample.kind());
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (block, series) in &metric.series {
                match &series.sample {
                    Sample::Counter(v) => out.push_str(&format!("{name}_total{block} {v}\n")),
                    Sample::Gauge(v) => out.push_str(&format!("{name}{block} {v}\n")),
                    Sample::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, &c) in h.counts().iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            cumulative += c;
                            out.push_str(&format!(
                                "{name}_bucket{} {cumulative}\n",
                                merge_le(block, bucket_le(i)),
                            ));
                        }
                        let count = h.count();
                        out.push_str(&format!("{name}_bucket{} {count}\n", merge_le_inf(block)));
                        out.push_str(&format!("{name}_sum{block} {}\n", h.sum()));
                        out.push_str(&format!("{name}_count{block} {count}\n"));
                    }
                }
            }
        }
        out
    }
}

/// Splices `le="<bound>"` into an existing (possibly empty) label block.
fn merge_le(block: &str, bound: u64) -> String {
    merge_label(block, &format!("le=\"{bound}\""))
}

fn merge_le_inf(block: &str) -> String {
    merge_label(block, "le=\"+Inf\"")
}

fn merge_label(block: &str, label: &str) -> String {
    if block.is_empty() {
        format!("{{{label}}}")
    } else {
        format!("{},{label}}}", &block[..block.len() - 1])
    }
}

/// Folds a [`TraceSnapshot`]'s counter streams in: each stream `x.y`
/// exports `counter.x.y` (sample count), `counter.x.y_sum` and
/// `counter.x.y_max` — prefixed, so a stream never shares a name with
/// the aggregate a serving exporter writes (`cache.hit_exact`) — plus
/// the snapshot's own size: [`names::TRACE_EVENTS`],
/// [`names::TRACE_DROPPED`] and [`names::TRACE_THREADS`].
pub fn fold_trace_counters(reg: &mut MetricsRegistry, snapshot: &TraceSnapshot) {
    for (name, summary) in snapshot.counters() {
        reg.set_counter(&format!("counter.{name}"), &[], summary.samples);
        reg.set_counter(&format!("counter.{name}_sum"), &[], summary.sum);
        reg.set_gauge(&format!("counter.{name}_max"), &[], summary.max as f64);
    }
    reg.set_counter(names::TRACE_EVENTS, &[], snapshot.events.len() as u64);
    reg.set_counter(names::TRACE_DROPPED, &[], snapshot.dropped);
    reg.set_gauge(names::TRACE_THREADS, &[], snapshot.threads.len() as f64);
}

/// Folds a [`TraceSnapshot`]'s spans in: each span name `x.y` exports
/// its duration distribution as `span.x.y_ns`, and the sum of every
/// quantity arg `a` (any arg not in [`names::IDENTIFIER_ARGS`]) as the
/// counter `span.x.y.a` — e.g. `span.shard.deep.scanned_codes`.
///
/// # Errors
///
/// Propagates span-matching failures from [`TraceSnapshot::spans`].
pub fn fold_trace_spans(reg: &mut MetricsRegistry, snapshot: &TraceSnapshot) -> Result<(), String> {
    let mut durations: BTreeMap<&str, LogHistogram> = BTreeMap::new();
    let mut sums: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for span in snapshot.spans()? {
        durations.entry(span.name).or_default().record(span.dur_ns);
        for &(arg, v) in &span.args {
            if !names::IDENTIFIER_ARGS.contains(&arg) {
                *sums.entry((span.name, arg)).or_default() += v;
            }
        }
    }
    for (name, hist) in durations {
        reg.set_histogram(&format!("span.{name}_ns"), &[], &hist);
    }
    for ((name, arg), sum) in sums {
        reg.set_counter(&format!("span.{name}.{arg}"), &[], sum);
    }
    Ok(())
}

/// Shape summary [`parse_text`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedExposition {
    /// `# TYPE` blocks seen.
    pub metrics: usize,
    /// Sample lines seen.
    pub samples: usize,
}

/// Parses a [`MetricsRegistry::render_text`] exposition back, validating
/// its shape: every sample is preceded by its metric's `# TYPE` line,
/// values parse, histogram buckets are cumulative-monotone and agree
/// with `_count`.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn parse_text(text: &str) -> Result<ParsedExposition, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut metrics = 0usize;
    let mut samples = 0usize;
    // Per histogram series (name+labels minus le): last cumulative value,
    // and the +Inf / _count values for the final consistency check.
    let mut hist_last: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_inf: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_count: BTreeMap<String, u64> = BTreeMap::new();

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
            let kind = it.next().ok_or_else(|| format!("bad TYPE line: {line}"))?;
            types.insert(name.to_string(), kind.to_string());
            metrics += 1;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad sample line: {line}"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("bad value in {line}: {e}"))?;
        let (name_part, labels) = match series.split_once('{') {
            Some((n, l)) => (n, format!("{{{l}")),
            None => (series, String::new()),
        };
        // Resolve the declaring metric: exact name, or name minus a
        // histogram/counter suffix.
        let base = ["_bucket", "_sum", "_count", "_total"]
            .iter()
            .find_map(|s| name_part.strip_suffix(s).filter(|b| types.contains_key(*b)))
            .or_else(|| types.contains_key(name_part).then_some(name_part))
            .ok_or_else(|| format!("sample before TYPE: {line}"))?;
        samples += 1;

        if types.get(base).map(String::as_str) == Some("histogram") {
            let series_key = |labels: &str| {
                let stripped: Vec<&str> = labels
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .split(',')
                    .filter(|kv| !kv.starts_with("le="))
                    .filter(|kv| !kv.is_empty())
                    .collect();
                format!("{base}{{{}}}", stripped.join(","))
            };
            if name_part.ends_with("_bucket") {
                let key = series_key(&labels);
                let v = value as u64;
                if labels.contains("le=\"+Inf\"") {
                    hist_inf.insert(key, v);
                } else {
                    let last = hist_last.entry(key).or_insert(0);
                    if v < *last {
                        return Err(format!("non-monotone histogram bucket: {line}"));
                    }
                    *last = v;
                }
            } else if name_part.ends_with("_count") {
                hist_count.insert(series_key(&labels), value as u64);
            }
        }
    }
    for (key, count) in &hist_count {
        if hist_inf.get(key) != Some(count) {
            return Err(format!("histogram {key}: +Inf bucket != _count"));
        }
        if let Some(last) = hist_last.get(key) {
            if last > count {
                return Err(format!("histogram {key}: buckets exceed _count"));
            }
        }
    }
    if metrics == 0 {
        return Err("no # TYPE lines found".to_string());
    }
    Ok(ParsedExposition { metrics, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trace::{Event, EventKind};

    #[test]
    fn render_is_deterministic_and_sorted() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.set_gauge(names::SLO_BURN_RATE, &[("class", "interactive")], 1.5);
            reg.set_counter(names::CACHE_HIT_EXACT, &[], 42);
            reg.set_counter(names::CACHE_MISS, &[], 7);
            reg.render_text()
        };
        let text = build();
        assert_eq!(text, build());
        let hits = text.find("hermes_cache_hit_exact").unwrap();
        let miss = text.find("hermes_cache_miss").unwrap();
        let burn = text.find("hermes_slo_burn_rate").unwrap();
        assert!(hits < miss && miss < burn, "metrics must render sorted");
        assert!(text.contains("hermes_cache_hit_exact_total 42"));
        assert!(text.contains("hermes_slo_burn_rate{class=\"interactive\"} 1.5"));
        let help = "# HELP hermes_cache_miss Cache lookups that found nothing servable";
        assert!(text.contains(help));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_integer_bounds() {
        let mut h = LogHistogram::new();
        for v in [3u64, 3, 10, 1500] {
            h.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.set_histogram(names::SERVE_SOJOURN_NS, &[], &h);
        let text = reg.render_text();
        // Buckets [2,4) → le=3 cum 2; [8,16) → le=15 cum 3; [1024,2048) → le=2047 cum 4.
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{le=\"15\"} 3"));
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{le=\"2047\"} 4"));
        assert!(text.contains("hermes_serve_sojourn_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("hermes_serve_sojourn_ns_sum 1516"));
        assert!(text.contains("hermes_serve_sojourn_ns_count 4"));
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.metrics, 1);
        // The view gets the histogram itself back.
        let (name, series) = reg.series().next().unwrap();
        assert_eq!(name, names::SERVE_SOJOURN_NS);
        assert_eq!(series.sample, Sample::Histogram(Box::new(h)));
    }

    #[test]
    fn parse_round_trips_and_rejects_malformed() {
        let mut reg = MetricsRegistry::new();
        let mut h = LogHistogram::new();
        h.record(5);
        reg.set_histogram("a.hist", &[("k", "v")], &h);
        reg.set_counter("a.count", &[], 1);
        reg.set_gauge("a.gauge", &[], 0.25);
        let text = reg.render_text();
        assert!(
            !text.contains("# HELP"),
            "undeclared names carry no help line"
        );
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.metrics, 3);

        assert!(parse_text("").is_err());
        assert!(parse_text("hermes_x 1\n").is_err(), "sample before TYPE");
        assert!(parse_text(
            "# TYPE hermes_h histogram\nhermes_h_bucket{le=\"+Inf\"} 2\nhermes_h_count 3\n"
        )
        .is_err());
    }

    #[test]
    fn trace_counters_fold_with_registry_help() {
        let counter = |name, ts_ns, value| Event {
            kind: EventKind::Counter,
            name,
            ts_ns,
            value,
            tid: 0,
            args: Default::default(),
        };
        let snap = TraceSnapshot::from_events(vec![
            counter(names::CACHE_HIT_EXACT, 1, 1),
            counter(names::CACHE_HIT_EXACT, 2, 1),
            counter(names::SERVE_QUEUE_DEPTH, 3, 9),
        ]);
        let mut reg = MetricsRegistry::new();
        fold_trace_counters(&mut reg, &snap);
        let text = reg.render_text();
        assert!(text.contains("hermes_counter_cache_hit_exact_total 2"));
        assert!(text.contains(
            "# HELP hermes_counter_cache_hit_exact Exact bit-pattern cache hits (samples)"
        ));
        assert!(text.contains("hermes_counter_serve_queue_depth_max 9"));
        assert!(text.contains("hermes_trace_events_total 3"));
        assert!(text.contains("hermes_trace_dropped_total 0"));
        parse_text(&text).unwrap();
    }
}
