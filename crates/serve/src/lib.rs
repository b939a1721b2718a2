//! Online serving layer: admission control, SLO-aware scheduling and
//! cluster-coalesced dynamic batching over the core engine.
//!
//! The paper's at-scale argument (Section 6, "millions of users")
//! assumes a continuous request stream, while [`hermes_core`] executes
//! one call at a time. This crate closes that gap with four pieces:
//!
//! * [`queue`] — a bounded [`AdmissionQueue`] with priority classes and
//!   load shedding: overload rejects at the door instead of growing an
//!   unbounded backlog that would stall the pool.
//! * [`server`] — the discrete-event [`Server`]: virtual-time dispatch
//!   loop, deadline expiry, sojourn and wait histograms
//!   ([`hermes_trace::hist::LogHistogram`]; per-class sojourns are the
//!   attached observer's), pluggable [`Backend`] —
//!   and the one `dispatch` function (probe → route → probe → deep →
//!   insert over the engine's two batch stages) that [`EngineBackend`],
//!   [`GenerationBackend`] and [`CachedBackend`] all forward to;
//!   [`FixedServiceBackend`] is the queue model in backend form.
//! * [`loadgen`] — open-loop (seeded Poisson, shared with
//!   `hermes_sim::queueing` through [`hermes_datagen::arrivals`]) and
//!   closed-loop (users + think time) drivers.
//! * [`observe`] — glue to `hermes_obs`: the server mints a
//!   [`hermes_obs::RequestId`] per admission ([`Request::rid`]) and,
//!   with an [`hermes_obs::Observer`] attached
//!   ([`Server::with_observer`]), folds every completion into per-request
//!   timelines, tail attribution, SLO burn accounting and the metrics
//!   exposition — without perturbing results or timing.
//!
//! **Equivalence bar:** batching, coalescing, priorities and deadlines
//! change *when* work runs, never *what it returns* — every completion
//! carries exactly the [`hermes_core::search::SearchOutcome`] that
//! standalone `Engine::execute` produces for its query
//! (`tests/serving_equivalence.rs`), and with a fixed-service backend
//! the timing itself reproduces the `sim` queueing model
//! (`tests/serving_oracle.rs`).

pub mod cache;
pub mod generation;
pub mod loadgen;
pub mod observe;
pub mod queue;
pub mod request;
pub mod server;

pub use cache::CachedBackend;
pub use generation::{GenerationBackend, GenerationCell};
pub use loadgen::{run_closed_loop, run_open_loop, ClosedLoopSpec, LoadReport, OpenLoopSpec};
pub use observe::{export_cache_stats, export_serve_report, obs_config};
pub use queue::AdmissionQueue;
pub use request::{Completion, Priority, Request, ShedRecord};
pub use server::{
    Backend, BatchOutcome, EngineBackend, FixedServiceBackend, ServeReport, Server, ServerConfig,
};
