//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness, from outside the system under
//! test, around the public calls into each layer: name, start, end, the
//! span that caused it, and the serving request id it belongs to. They
//! stay in memory until the run ends and are then written as one JSON
//! file. A layer's *self time* is its span's duration minus the part of
//! that interval its direct children cover (overlapping children are
//! counted once).

use std::fmt::Write as _;

/// One recorded interval on the harness clock (`hermes_trace::now_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.deep`.
    pub name: &'static str,
    /// Start, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Serving-layer request id (`Request::rid`) of the first request
    /// the span served; 0 for spans not tied to a request.
    pub request_id: u64,
}

/// Append-only span store; indices are stable, so a parent is named by
/// its index.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Only the part inside the parent can be subtracted.
                let lo = s.start_ns.max(self.spans[p].start_ns);
                let hi = s.end_ns.min(self.spans[p].end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| (s.end_ns - s.start_ns) - covered_ns(kids))
            .collect()
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut by_name = std::collections::BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(s.name).or_insert(0u64) += t;
        }
        by_name.into_iter().collect()
    }

    /// The trace file: `{"workload":…, "spans":[{name,start_ns,end_ns,
    /// parent,request_id},…]}` with `parent` = index or `null`.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"clock\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut r = Recorder::default();
        let root = r.push("pass", 0, 1_000, None, 0);
        let dispatch = r.push("serve.dispatch", 100, 600, Some(root), 7);
        r.push("core.route", 100, 250, Some(dispatch), 7);
        r.push("core.deep", 250, 550, Some(dispatch), 7);
        let selfs = r.self_times_ns();
        assert_eq!(selfs, vec![500, 50, 150, 300]);
        // Grandchildren never reduce the root twice.
        assert_eq!(selfs.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn overlapping_and_escaping_children_count_their_union_inside_the_parent() {
        let mut r = Recorder::default();
        let root = r.push("root", 100, 200, None, 0);
        r.push("a", 110, 150, Some(root), 0);
        r.push("b", 140, 170, Some(root), 0); // overlaps a by 10
        r.push("c", 190, 260, Some(root), 0); // escapes the parent by 60
        r.push("d", 120, 130, Some(root), 0); // inside a
        assert_eq!(r.self_times_ns()[root], 100 - (60 + 10));
        assert_eq!(
            r.self_time_by_name(),
            vec![("a", 40), ("b", 30), ("c", 70), ("d", 10), ("root", 30)]
        );
    }

    #[test]
    fn trace_file_parses_and_keeps_every_field() {
        let mut r = Recorder::default();
        let root = r.push("pass", 5, 50, None, 0);
        r.push("serve.dispatch", 10, 40, Some(root), 3);
        let doc = hermes_trace::json::parse(&r.to_json("uniform_open")).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("uniform_open"));
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("parent"),
            Some(&hermes_trace::json::Json::Null)
        );
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("request_id").unwrap().as_f64(), Some(3.0));
        assert_eq!(spans[1].get("end_ns").unwrap().as_f64(), Some(40.0));
    }
}
