//! Evaluation metrics and reporting for the Hermes reproduction.
//!
//! * [`ranking`] — NDCG (the paper's retrieval-quality metric, computed
//!   against a brute-force ground truth), recall@k and overlap.
//! * [`truth`] — the brute-force oracle itself, fanned out per query on
//!   the shared `hermes-pool` executor (the slowest step of every
//!   accuracy bench), plus batched NDCG.
//! * [`energy`] — joule/watt accounting mirroring the paper's RAPL/pynvml
//!   measurements, plus throughput helpers.
//! * [`cost`] — scanned-code accounting split by execution-engine stage
//!   (route vs deep), folded over a query stream.
//! * [`cache_report`] — the adaptive-depth histogram printed by
//!   `hermes stats --adaptive`.
//! * [`obs_report`] — the tail-latency phase-attribution matrix `hermes
//!   report` prints (per class × quantile, not a flat metric).
//! * [`report`] — ASCII tables and series used by every bench binary to
//!   print paper-vs-measured rows, and [`registry_tables`], the one view
//!   of runtime telemetry: every counter, gauge and distribution the CLI
//!   prints is read from a `hermes_obs::MetricsRegistry`.

pub mod cache_report;
pub mod cost;
pub mod energy;
pub mod obs_report;
pub mod ranking;
pub mod report;
pub mod truth;

pub use cache_report::DepthHistogram;
pub use cost::CostBreakdown;
pub use energy::{EnergyMeter, StageEnergy};
pub use obs_report::phase_breakdown_table;
pub use ranking::{ndcg_at_k, overlap_at_k, recall_at_k};
pub use report::{normalize_to_max, registry_tables, Row, Table};
pub use truth::{batch_ndcg_at_k, ground_truth};
