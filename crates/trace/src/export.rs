//! Chrome trace-event JSON export.
//!
//! Produces the [Trace Event Format] JSON object form
//! (`{"traceEvents": [...]}`) that Perfetto and `chrome://tracing` load
//! directly: `B`/`E` duration events, `X` complete events, `C` counter
//! events, and `M` thread-name metadata. Timestamps are microseconds
//! (the format's unit) carried as decimals with nanosecond precision.
//!
//! Everything is hand-serialized — the workspace has no serde — and the
//! sibling [`crate::json`] parser can read the output back, which is how
//! the in-repo validation tests and the `verify.sh` smoke step check
//! that emitted traces are well-formed.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{EventKind, TraceSnapshot};

/// Escapes a string for a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats ns as the trace format's µs with nanosecond precision.
fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// Incremental builder for a Chrome trace-event JSON document. Used by
/// [`to_chrome_json`] for runtime snapshots and directly by callers with
/// externally produced spans.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTraceBuilder::default()
    }

    fn push_event(&mut self, ph: char, name: &str, tid: u32, ts_ns: u64, extra: &str) {
        let mut ev = String::with_capacity(64 + name.len() + extra.len());
        ev.push_str("{\"name\":\"");
        escape_into(&mut ev, name);
        ev.push_str(&format!(
            "\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
            us(ts_ns)
        ));
        ev.push_str(extra);
        ev.push('}');
        self.events.push(ev);
    }

    fn args_json(args: &[(&str, u64)]) -> String {
        if args.is_empty() {
            return String::new();
        }
        let mut out = String::from(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, k);
            out.push_str(&format!("\":{v}"));
        }
        out.push('}');
        out
    }

    /// Appends a span begin (`ph: "B"`).
    pub fn begin(&mut self, name: &str, tid: u32, ts_ns: u64, args: &[(&str, u64)]) {
        let extra = Self::args_json(args);
        self.push_event('B', name, tid, ts_ns, &extra);
    }

    /// Appends a span end (`ph: "E"`).
    pub fn end(&mut self, name: &str, tid: u32, ts_ns: u64, args: &[(&str, u64)]) {
        let extra = Self::args_json(args);
        self.push_event('E', name, tid, ts_ns, &extra);
    }

    /// Appends a complete span (`ph: "X"`) with a duration.
    pub fn complete(&mut self, name: &str, tid: u32, start_ns: u64, dur_ns: u64) {
        let extra = format!(",\"dur\":{}", us(dur_ns));
        self.push_event('X', name, tid, start_ns, &extra);
    }

    /// Appends a counter sample (`ph: "C"`); Perfetto plots one series
    /// per arg key, so the sample is emitted as `args: {value: v}`.
    pub fn counter(&mut self, name: &str, tid: u32, ts_ns: u64, value: u64) {
        let extra = format!(",\"args\":{{\"value\":{value}}}");
        self.push_event('C', name, tid, ts_ns, &extra);
    }

    /// Appends thread-name metadata (`ph: "M"`), mapping `tid` to a
    /// human-readable lane label in the viewer.
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        let mut ev = String::from("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        ev.push_str(&format!("{tid},\"args\":{{\"name\":\""));
        escape_into(&mut ev, name);
        ev.push_str("\"}}");
        self.events.push(ev);
    }

    /// Renders the final JSON document.
    pub fn build(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(ev);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Serializes a snapshot as Chrome trace-event JSON: thread-name
/// metadata for every recording thread, then each event in timestamp
/// order.
pub fn to_chrome_json(snapshot: &TraceSnapshot) -> String {
    let mut b = ChromeTraceBuilder::new();
    for (tid, name) in &snapshot.threads {
        b.thread_name(*tid, name);
    }
    for ev in &snapshot.events {
        match ev.kind {
            EventKind::Begin => b.begin(ev.name, ev.tid, ev.ts_ns, ev.args.as_slice()),
            EventKind::End => b.end(ev.name, ev.tid, ev.ts_ns, ev.args.as_slice()),
            EventKind::Complete => b.complete(ev.name, ev.tid, ev.ts_ns, ev.value),
            EventKind::Counter => b.counter(ev.name, ev.tid, ev.ts_ns, ev.value),
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::{ArgSet, Event};

    fn ev(kind: EventKind, name: &'static str, ts: u64, value: u64, tid: u32) -> Event {
        Event {
            kind,
            name,
            ts_ns: ts,
            value,
            tid,
            args: ArgSet::default(),
        }
    }

    #[test]
    fn exported_json_parses_back() {
        let snap = TraceSnapshot::from_events(vec![
            ev(EventKind::Begin, "route", 1_000, 0, 1),
            ev(EventKind::End, "route", 2_500, 0, 1),
            ev(EventKind::Complete, "idle", 3_000, 500, 2),
            ev(EventKind::Counter, "scanned", 3_100, 42, 1),
        ]);
        let json = to_chrome_json(&snap);
        let doc = parse(&json).expect("exporter output must parse");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // 2 thread_name metadata + 4 events.
        assert_eq!(events.len(), 6);
        let phs: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phs, vec!["M", "M", "B", "E", "X", "C"]);
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_precision() {
        let snap = TraceSnapshot::from_events(vec![ev(EventKind::Counter, "c", 1_234_567, 1, 1)]);
        let json = to_chrome_json(&snap);
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let sample = events.last().unwrap();
        let ts = sample.get("ts").and_then(Json::as_f64).unwrap();
        assert!((ts - 1234.567).abs() < 1e-9, "ts={ts}");
    }

    #[test]
    fn args_and_names_are_escaped() {
        let mut b = ChromeTraceBuilder::new();
        b.thread_name(1, "weird \"name\"\n\\");
        b.begin("span", 1, 0, &[("k", 7)]);
        b.end("span", 1, 10, &[]);
        let doc = parse(&b.build()).expect("escaped output parses");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let meta_name = events[0]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(meta_name, "weird \"name\"\n\\");
        let arg = events[1]
            .get("args")
            .and_then(|a| a.get("k"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(arg, 7.0);
    }

    #[test]
    fn complete_events_carry_duration() {
        let mut b = ChromeTraceBuilder::new();
        b.complete("work", 3, 5_000, 2_500);
        let doc = parse(&b.build()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(events[0].get("tid").and_then(Json::as_f64), Some(3.0));
    }
}
