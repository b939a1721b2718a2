//! Structured simulation results.

use hermes_metrics::EnergyMeter;

/// One busy interval on one resource — the unit of the Figure 8 timeline
/// plots.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Stage label ("encode", "retrieval", "prefill", "decode").
    pub stage: String,
    /// Start time, seconds from batch arrival.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
}

impl StageSpan {
    /// Creates a span.
    pub fn new(stage: &str, start_s: f64, end_s: f64) -> Self {
        StageSpan {
            stage: stage.to_string(),
            start_s,
            end_s,
        }
    }

    /// Span duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Result of simulating one batch through the full RAG pipeline.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Time to first token: encode + first retrieval + prefill.
    pub ttft_s: f64,
    /// End-to-end latency for the full generation.
    pub e2e_s: f64,
    /// Per-stride retrieval latency (sample + deep for Hermes).
    pub retrieval_per_stride_s: f64,
    /// Encode latency per stride.
    pub encode_s: f64,
    /// Prefill latency (first stride).
    pub prefill_s: f64,
    /// Decode latency per stride.
    pub decode_per_stride_s: f64,
    /// Number of retrieval strides executed.
    pub strides: u32,
    /// Energy by stage for the whole batch.
    pub energy: EnergyMeter,
    /// Steady-state retrieval throughput, queries per second.
    pub retrieval_qps: f64,
    /// Sustained end-to-end throughput with batches pipelined back to
    /// back: batch size over the bottleneck stage's per-stride latency.
    pub sustained_qps: f64,
    /// Busy spans of the first two strides (for timeline plots).
    pub timeline: Vec<StageSpan>,
}

impl SimReport {
    /// Total joules across stages.
    pub fn total_joules(&self) -> f64 {
        self.energy.total_joules()
    }

    /// End-to-end throughput: batch size over E2E latency.
    pub fn e2e_qps(&self, batch: usize) -> f64 {
        batch as f64 / self.e2e_s
    }
}

/// Renders spans as an ASCII Gantt chart, one row per stage, `width`
/// characters across — the textual analogue of the paper's Figure 8
/// timelines.
///
/// # Examples
///
/// ```
/// use hermes_sim::{report::render_timeline, StageSpan};
/// let spans = vec![
///     StageSpan::new("retrieval", 0.0, 2.0),
///     StageSpan::new("decode", 2.0, 3.0),
/// ];
/// let chart = render_timeline(&spans, 30);
/// assert!(chart.contains("retrieval"));
/// assert!(chart.contains('#'));
/// ```
pub fn render_timeline(spans: &[StageSpan], width: usize) -> String {
    let width = width.max(10);
    let end = spans.iter().map(|s| s.end_s).fold(0.0f64, f64::max);
    if end <= 0.0 {
        return String::new();
    }
    // Stable stage order: first appearance wins.
    let mut stages: Vec<&str> = Vec::new();
    for s in spans {
        if !stages.contains(&s.stage.as_str()) {
            stages.push(&s.stage);
        }
    }
    let label_w = stages.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = String::new();
    for stage in &stages {
        let mut row = vec![b' '; width];
        for span in spans.iter().filter(|s| s.stage == *stage) {
            let a = ((span.start_s / end) * width as f64).floor() as usize;
            let b = ((span.end_s / end) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = b'#';
            }
        }
        out.push_str(&format!(
            "{:<label_w$} |{}|\n",
            stage,
            String::from_utf8_lossy(&row)
        ));
    }
    out.push_str(&format!(
        "{:<label_w$}  0{:>w$.2}s\n",
        "",
        end,
        w = width - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_duration() {
        let s = StageSpan::new("decode", 1.0, 2.5);
        assert_eq!(s.duration_s(), 1.5);
        assert_eq!(s.stage, "decode");
    }

    #[test]
    fn timeline_renders_one_row_per_stage() {
        let spans = vec![
            StageSpan::new("encode", 0.0, 1.0),
            StageSpan::new("retrieval", 1.0, 5.0),
            StageSpan::new("encode", 6.0, 7.0),
        ];
        let chart = render_timeline(&spans, 40);
        assert_eq!(chart.lines().count(), 3); // 2 stages + axis
        assert!(chart.starts_with("encode"));
    }

    #[test]
    fn longer_spans_paint_more_cells() {
        let chart = render_timeline(
            &[
                StageSpan::new("short", 0.0, 1.0),
                StageSpan::new("long", 1.0, 9.0),
            ],
            50,
        );
        let count = |line: &str| line.matches('#').count();
        let mut lines = chart.lines();
        let short = count(lines.next().unwrap());
        let long = count(lines.next().unwrap());
        assert!(long > 3 * short, "short {short} long {long}");
    }

    #[test]
    fn empty_timeline_is_empty_string() {
        assert_eq!(render_timeline(&[], 40), "");
    }
}
