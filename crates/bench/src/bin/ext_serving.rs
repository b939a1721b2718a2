//! Extension experiment: online serving — latency vs offered load.
//!
//! The serving layer (`hermes-serve`) turns the engine into a loaded
//! system: bounded admission, SLO-aware priority scheduling, dynamic
//! batches whose scatters coalesce by cluster. This bench measures what
//! the paper's Takeaway 2 cares about — the latency *distribution*
//! under load, not the unloaded mean:
//!
//! * **open loop** — seeded Poisson arrivals at a swept offered load
//!   ρ ∈ {0.3, 0.6, 0.9, 1.2}×capacity: tail latency inflates as ρ→1
//!   and the bounded queue starts shedding past saturation. A
//!   `hermes-obs` observer rides along, so the same runs also decompose
//!   every priority class's p99 sojourn into queue wait / cache probe /
//!   route / deep / residual: the table says *which phase* owns the tail
//!   as ρ approaches saturation (queue wait takes over from deep search
//!   — the attribution the paper's co-design argument rests on);
//! * **closed loop** — {1, 2, 4, 8} users in submit→wait→think cycles:
//!   throughput self-limits, batches form as concurrency grows.
//!
//! Service times are real (the engine executes every request;
//! `EngineBackend` measures wall time per dispatch) while arrivals are
//! virtual, so the offered rate is set relative to a calibrated mean
//! service time and the reported latencies come from the server's
//! `hermes-trace` log-histograms. Every run also re-checks the serving
//! bar: completions + sheds account for every offered request, and
//! served results are bit-identical to standalone `Engine::execute`;
//! under observation, every completed request's timeline is balanced
//! (phases sum to sojourn).

use hermes::core::exec::Engine;
use hermes::core::HermesConfig;
use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::metrics::{phase_breakdown_table, Row, Table};
use hermes::obs::{Observer, SloPolicy};
use hermes::scenario::Scenario;
use hermes::serve::{
    obs_config, run_closed_loop, run_open_loop, ClosedLoopSpec, EngineBackend, LoadReport,
    OpenLoopSpec, Priority, Server, ServerConfig,
};
use hermes_bench::{emit, BENCH_SEED};

fn mix() -> Vec<Priority> {
    vec![
        Priority::Interactive,
        Priority::Standard,
        Priority::Standard,
        Priority::Batch,
    ]
}

/// Accounting + bit-identity checks every run must pass.
fn check_run(report: &LoadReport, offered: usize, engine: &Engine, what: &str) {
    assert_eq!(
        report.completions.len() + report.shed.len(),
        offered,
        "{what}: lost requests"
    );
    for c in report.completions.iter().take(16) {
        let want = engine.execute(&c.request.query).unwrap();
        assert_eq!(
            c.outcome.as_ref(),
            Some(&want),
            "{what}: served result diverged from standalone execution"
        );
    }
}

fn us(ns: u64) -> String {
    format!("{:.0}", ns as f64 / 1e3)
}

fn main() {
    let (docs, dim, topics, clusters, nq, requests) = (20_000, 64, 10, 10, 64, 600);
    let scenario = Scenario::new(CorpusSpec::new(docs, dim, topics).with_seed(BENCH_SEED + 70))
        .with_queries(QuerySpec::new(nq));
    let config = HermesConfig::new(clusters)
        .with_clusters_to_search(3)
        .with_seed(BENCH_SEED + 71);
    let store = scenario.store(&config).unwrap();
    let queries = &scenario.queries;
    let engine = Engine::for_store(&store);

    // Calibrate the unloaded mean service time so the open-loop sweep is
    // in units of capacity (ρ = rate × mean service).
    let calib_t0 = std::time::Instant::now();
    for q in queries {
        std::hint::black_box(engine.execute(q).unwrap());
    }
    let svc_ns = (calib_t0.elapsed().as_nanos() as u64 / queries.len() as u64).max(1_000);
    let svc_s = svc_ns as f64 * 1e-9;

    let cfg = ServerConfig {
        queue_capacity: 64,
        max_batch: 8,
    };

    let mut open_table = Table::new(
        format!(
            "Extension — serving, open loop: latency vs offered load \
             ({docs} docs x {dim} dims, {clusters} clusters, {requests} requests, \
             mean unloaded service {} us, queue 64, max batch 8)",
            us(svc_ns)
        ),
        &[
            "offered rho",
            "qps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "shed",
            "expired",
            "mean batch",
            "shared visits",
            "busy",
        ],
    );
    let mut phase_table = Table::new(
        format!(
            "Extension — phase-attributed p99 under open-loop load \
             ({docs} docs x {dim} dims, {clusters} clusters, {requests} requests/rho, \
             mean unloaded service {} us; mean ns per phase in the p99 sojourn bucket)",
            us(svc_ns)
        ),
        &[
            "rho",
            "class",
            "p99>=ns",
            "n",
            "queue_wait",
            "cache_probe",
            "route",
            "deep",
            "residual",
            "dominant",
        ],
    );
    let slo_ns = (50.0 * svc_ns as f64) as u64;
    for (i, rho) in [0.3f64, 0.6, 0.9, 1.2].into_iter().enumerate() {
        let rate = rho / svc_s;
        let mut server = Server::new(EngineBackend::new(Engine::for_store(&store), 0), cfg)
            .with_observer(Observer::new(
                obs_config(BENCH_SEED + 80 + i as u64)
                    .with_slo(SloPolicy::new(vec![Some(slo_ns), None, None]))
                    .with_recorder(16, 32),
            ));
        let spec = OpenLoopSpec::new(requests, rate)
            .with_seed(BENCH_SEED + 73 + i as u64)
            .with_priority_cycle(mix())
            .with_slo_ns(slo_ns);
        let report = run_open_loop(&mut server, queries, &spec).unwrap();
        check_run(&report, requests, &engine, "open loop");
        let obs = server.take_observer().unwrap();
        assert_eq!(obs.unbalanced(), 0, "rho {rho}: unbalanced timelines");
        // The attribution table's p99 rows, keyed by rho instead of quantile.
        let attribution = phase_breakdown_table(obs.attribution());
        for row in attribution.rows().iter().filter(|r| r.cells[0] == "p99") {
            let cells = [std::slice::from_ref(&row.label), &row.cells[1..]].concat();
            phase_table.push(Row::new(format!("{rho:.1}"), cells));
        }
        let s = &report.serve;
        open_table.push(Row::new(
            format!("{rho:.1}"),
            vec![
                format!("{rate:.0}"),
                us(s.sojourn.p50()),
                us(s.sojourn.p95()),
                us(s.sojourn.p99()),
                format!("{}", s.shed_full),
                format!("{}", s.expired),
                format!("{:.2}", s.mean_batch_size()),
                format!("{}", s.shared_visits),
                format!("{:.0}%", s.busy_fraction() * 100.0),
            ],
        ));
    }

    let mut closed_table = Table::new(
        format!(
            "Extension — serving, closed loop: throughput self-limits \
             ({requests} requests, zero think time, queue 64, max batch 8)"
        ),
        &[
            "users",
            "throughput (qps)",
            "p50 (us)",
            "p99 (us)",
            "mean batch",
            "shared visits",
            "busy",
        ],
    );
    for users in [1usize, 2, 4, 8] {
        let mut server = Server::new(EngineBackend::new(Engine::for_store(&store), 0), cfg);
        let spec = ClosedLoopSpec::new(requests, users).with_priority_cycle(mix());
        let report = run_closed_loop(&mut server, queries, &spec).unwrap();
        check_run(&report, requests, &engine, "closed loop");
        let s = &report.serve;
        let qps = s.completed as f64 / (s.makespan_ns.max(1) as f64 * 1e-9);
        closed_table.push(Row::new(
            format!("{users}"),
            vec![
                format!("{qps:.0}"),
                us(s.sojourn.p50()),
                us(s.sojourn.p99()),
                format!("{:.2}", s.mean_batch_size()),
                format!("{}", s.shared_visits),
                format!("{:.0}%", s.busy_fraction() * 100.0),
            ],
        ));
    }

    emit("ext_serving", &[&open_table, &phase_table, &closed_table]);
    println!(
        "all runs accounted for every offered request and served results\n\
         bit-identical to standalone engine execution, the open loops with\n\
         the observer attached and every timeline balanced; latencies are the\n\
         server's hermes-trace log2 histograms (bucket floors, within 2x).\n\
         As rho approaches 1, queue_wait displaces deep search as the\n\
         dominant phase of the p99 sojourn bucket."
    );
}
