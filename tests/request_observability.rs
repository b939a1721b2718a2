//! End-to-end request observability (`hermes-obs` threaded through the
//! serving stack). Pins the PR's standing bars:
//!
//! * **Balance** — every completed request yields one
//!   [`RequestTimeline`] whose phase durations sum exactly to its
//!   sojourn, under coalesced mixed-priority batching.
//! * **Non-interference** — serving results are bit-identical with the
//!   observer attached or absent, and identical to standalone
//!   [`Engine::execute`] per query.
//! * **Determinism** — a seeded run renders byte-identical attribution
//!   tables, registry tables, flight dumps and text expositions, and the
//!   fixed-service exposition equals a checked-in golden byte for byte.
//! * **One exporter per name** — every aggregate exports into the
//!   registry once, under names and help lines declared in
//!   [`hermes::trace::names`].

use hermes::core::exec::Engine;
use hermes::metrics::{phase_breakdown_table, registry_tables, Table};
use hermes::obs::{fold_trace_counters, fold_trace_spans, parse_dump, parse_text, ShedCause};
use hermes::prelude::*;
use hermes::serve::{
    export_cache_stats, export_serve_report, obs_config, run_open_loop, FixedServiceBackend,
    Request,
};
use hermes::trace::names;

/// Serializes this file's tests. One of them turns the process-global
/// trace rings on and folds what they hold, and every span must then
/// begin and end inside its window: so every test that runs engine or
/// serving code, which open spans, holds this lock throughout.
static TRACING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tracing() -> std::sync::MutexGuard<'static, ()> {
    TRACING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Fixture {
    store: ClusteredStore,
    queries: Vec<Vec<f32>>,
}

fn fixture() -> Fixture {
    let corpus = Corpus::generate(CorpusSpec::new(1_800, 20, 6).with_seed(41));
    let config = HermesConfig::new(6)
        .with_clusters_to_search(3)
        .with_seed(42);
    let store = ClusteredStore::build(corpus.embeddings(), &config).unwrap();
    let queries = QuerySet::generate(&corpus, QuerySpec::new(16).with_seed(43)).to_vecs();
    Fixture { store, queries }
}

fn mixed_spec(n: usize) -> OpenLoopSpec {
    OpenLoopSpec::new(n, 180_000.0)
        .with_seed(29)
        .with_priority_cycle(vec![
            Priority::Interactive,
            Priority::Batch,
            Priority::Standard,
            Priority::Interactive,
        ])
}

#[test]
fn coalesced_mixed_priority_run_yields_balanced_timelines_and_identical_results() {
    let _tracing = tracing();
    let f = fixture();
    let engine = Engine::for_store(&f.store);
    let reference: Vec<_> = f
        .queries
        .iter()
        .map(|q| engine.execute(q).unwrap())
        .collect();

    let cfg = ServerConfig {
        queue_capacity: 128,
        max_batch: 6,
    };
    let run = |observe: bool| {
        let mut server = Server::new(EngineBackend::new(Engine::for_store(&f.store), 2), cfg);
        if observe {
            server = server.with_observer(Observer::new(obs_config(7).with_recorder(64, 32)));
        }
        let report = run_open_loop(&mut server, &f.queries, &mixed_spec(40)).unwrap();
        (report, server.take_observer())
    };

    let (with_obs, observer) = run(true);
    let (without_obs, none) = run(false);
    assert!(none.is_none());

    // Non-interference: the observer changes nothing the run computes.
    // (Wall-clock service durations differ between any two real-engine
    // runs, so compare the computed quantities: ids, minted rids and
    // bit-exact outcomes.)
    let key = |r: &hermes::serve::LoadReport| {
        let mut k: Vec<_> = r
            .completions
            .iter()
            .map(|c| (c.request.rid, c.request.id, c.outcome.clone()))
            .collect();
        k.sort_by_key(|(rid, _, _)| *rid);
        k
    };
    assert_eq!(
        key(&with_obs),
        key(&without_obs),
        "attaching an observer perturbed serving results"
    );
    for c in &with_obs.completions {
        let want = &reference[c.request.id as usize % reference.len()];
        assert_eq!(
            c.outcome.as_ref().unwrap(),
            want,
            "request {} diverged from standalone execution",
            c.request.id
        );
    }

    // Balance + coverage: one balanced timeline per completion, rids
    // dense and unique in admission order.
    let obs = observer.unwrap();
    assert_eq!(obs.completed() as usize, with_obs.completions.len());
    assert_eq!(obs.unbalanced(), 0, "some timeline violated balance");
    assert_eq!(obs.attribution().total(), obs.completed());
    assert_eq!(obs.recorder().seen(), obs.completed());
    let mut rids: Vec<u64> = with_obs.completions.iter().map(|c| c.request.rid).collect();
    rids.sort_unstable();
    rids.dedup();
    assert_eq!(
        rids.len(),
        with_obs.completions.len(),
        "rids must be unique"
    );
    assert!(
        rids.iter().all(|r| (1..=40).contains(r)),
        "rids are dense from 1"
    );
    for tl in obs.recorder().slowest() {
        assert!(tl.is_balanced());
        assert!(tl.batch_size >= 1);
        let phase_sum: u64 = (0..hermes::obs::PHASES).map(|i| tl.phases.0[i]).sum();
        assert_eq!(phase_sum, tl.sojourn_ns(), "phases must sum to sojourn");
    }

    // Flight dump round-trip re-checks balance line by line.
    let dump = obs.recorder().render_dump();
    let summary = parse_dump(&dump).unwrap();
    assert_eq!(summary.seen, obs.completed());
    assert_eq!(summary.unbalanced, 0);
    assert!(summary.records > 0);
}

#[test]
fn slo_accounting_matches_hand_computed_virtual_time() {
    let _tracing = tracing();
    let policy = SloPolicy::new(vec![Some(1_500), None, None]);
    let mut s = Server::new(
        FixedServiceBackend::new(1_000),
        ServerConfig {
            queue_capacity: 2,
            max_batch: 1,
        },
    )
    .with_observer(Observer::new(obs_config(3).with_slo(policy)));

    let req = |id: u64, at: u64| Request::new(id, vec![0.0], Priority::Interactive, at);
    s.run_until(0).unwrap();
    s.submit(req(0, 0)).unwrap(); // dispatches at 0, sojourn 1000 → hit
    s.run_until(1).unwrap();
    s.submit(req(1, 1)).unwrap(); // queued; sojourn 1999 → miss
    s.submit(req(2, 1).with_deadline_ns(500)).unwrap(); // expires at 2000
    let shed = s.submit(req(3, 1)).unwrap_err(); // queue full
    assert_eq!(shed.reason, ShedCause::QueueFull);
    assert_eq!(shed.request.rid, 4, "rids are minted even for sheds");
    s.run_until(u64::MAX).unwrap();

    let obs = s.take_observer().unwrap();
    let c = obs.slo().classes()[Priority::Interactive.index()].counters();
    assert_eq!(c.served, 2);
    assert_eq!(c.deadline_hit, 1);
    assert_eq!(c.deadline_miss, 1);
    assert_eq!(c.shed_queue_full, 1);
    assert_eq!(c.expired, 1);
    assert_eq!(c.attempts(), 4);
    // Window at virtual time 2000: 1 good, 3 bad; bad fraction 0.75 over
    // the default 1% budget → burn 75.
    let burn = obs.slo().burn_rate(Priority::Interactive.index());
    assert!((burn - 75.0).abs() < 1e-9, "burn = {burn}");

    // FixedServiceBackend reports no named phases: service lands in
    // Residual, queue wait in QueueWait, and balance still holds.
    let slowest = obs.recorder().slowest();
    assert_eq!(slowest.len(), 2);
    let tl = &slowest[0]; // request 1: wait 999, service 1000
    assert_eq!(tl.sojourn_ns(), 1_999);
    assert_eq!(tl.phases.get(hermes::obs::Phase::QueueWait), 999);
    assert_eq!(tl.phases.get(hermes::obs::Phase::Residual), 1_000);
    assert!(tl.is_balanced());
    assert!(!tl.met_target(1_500));
}

#[test]
fn cached_backend_run_exports_a_parseable_unified_exposition() {
    let _tracing = tracing();
    let f = fixture();
    let run = || {
        let cell = std::sync::Arc::new(GenerationCell::new(f.store.clone()));
        let backend = CachedBackend::new(cell.clone(), 1, CacheConfig::default());
        let policy = SloPolicy::new(vec![Some(50_000_000), Some(500_000_000), None]);
        let mut server = Server::new(
            backend,
            ServerConfig {
                queue_capacity: 64,
                max_batch: 4,
            },
        )
        .with_observer(Observer::new(obs_config(11).with_slo(policy)));
        let report = run_open_loop(&mut server, &f.queries, &mixed_spec(32)).unwrap();
        assert!(!report.completions.is_empty());
        let serve_report = server.report();
        let obs = server.take_observer().unwrap();

        let mut reg = MetricsRegistry::new();
        obs.export(&mut reg);
        export_serve_report(&mut reg, &serve_report);
        let text = reg.render_text();
        parse_text(&text).expect("exposition must parse");
        // Cache stats, attribution and SLO tables, and the flight dump
        // all render from the same run without disagreeing on balance.
        let dump = obs.recorder().render_dump();
        let summary = parse_dump(&dump).unwrap();
        assert_eq!(summary.unbalanced, 0);
        let tables = format!(
            "{}\n{}",
            phase_breakdown_table(obs.attribution()).render(),
            rendered(&reg),
        );
        (text, tables)
    };
    let (text, tables) = run();
    assert!(text.contains("hermes_slo_burn_rate{class=\"interactive\"}"));
    assert!(text.contains("hermes_obs_requests_completed_total"));
    assert!(text.contains("hermes_serve_sojourn_ns_bucket"));
    assert!(tables.contains("slo.burn_rate"));
    assert!(tables.contains("class=interactive"));
}

#[test]
fn fixed_service_exposition_is_fully_byte_identical() {
    let _tracing = tracing();
    // With a synthetic backend every quantity is virtual-time exact, so
    // the whole exposition and both tables must be byte-identical.
    let run = || {
        let mut s = Server::new(
            FixedServiceBackend::new(700).with_per_request_ns(50),
            ServerConfig {
                queue_capacity: 32,
                max_batch: 4,
            },
        )
        .with_observer(Observer::new(
            obs_config(13).with_slo(SloPolicy::new(vec![Some(2_000), Some(20_000), None])),
        ));
        for i in 0..60u64 {
            let at = i * 400;
            s.run_until(at).unwrap();
            let p = Priority::ALL[(i % 3) as usize];
            let _ = s.submit(Request::new(i, vec![0.0], p, at));
        }
        s.run_until(u64::MAX).unwrap();
        let report = s.report();
        let obs = s.take_observer().unwrap();
        let mut reg = MetricsRegistry::new();
        obs.export(&mut reg);
        export_serve_report(&mut reg, &report);
        export_cache_stats(&mut reg, &CacheStats::default());
        let text = reg.render_text();
        parse_text(&text).expect("exposition must parse");
        assert_eq!(
            text,
            include_str!("golden/fixed_service_exposition.prom"),
            "the exposition drifted from its golden"
        );
        format!(
            "{}\n{}\n{}\n{}",
            text,
            phase_breakdown_table(obs.attribution()).render(),
            rendered(&reg),
            obs.recorder().render_dump(),
        )
    };
    assert_eq!(
        run(),
        run(),
        "seeded virtual-time run must be byte-identical"
    );
}

fn rendered(reg: &MetricsRegistry) -> String {
    registry_tables(reg, "run")
        .iter()
        .map(Table::render)
        .collect()
}

#[test]
fn every_exporter_writes_declared_names_no_other_exporter_writes() {
    let _tracing = tracing();
    let mut s = Server::new(
        FixedServiceBackend::new(500),
        ServerConfig {
            queue_capacity: 2,
            max_batch: 2,
        },
    )
    .with_observer(Observer::new(obs_config(5)));
    for i in 0..12u64 {
        s.run_until(i * 100).unwrap();
        let _ = s.submit(Request::new(
            i,
            vec![0.0],
            Priority::ALL[(i % 3) as usize],
            i * 100,
        ));
    }
    s.run_until(u64::MAX).unwrap();
    let report = s.report();
    assert!(
        report.shed_full > 0,
        "the fixture sheds, so every serve counter is live"
    );
    let obs = s.take_observer().unwrap();

    let f = fixture();
    let snap = {
        hermes::trace::clear();
        hermes::trace::enable();
        let _ = Engine::for_store(&f.store)
            .execute_coalesced(&f.queries[..4], 1)
            .unwrap();
        hermes::trace::disable();
        hermes::trace::snapshot()
    };

    let stats = CacheStats {
        exact_hits: 3,
        misses: 2,
        insertions: 2,
        ..CacheStats::default()
    };
    type Export<'a> = Box<dyn Fn(&mut MetricsRegistry) + 'a>;
    let exporters: [(&str, Export); 4] = [
        (
            "serve report",
            Box::new(|r| export_serve_report(r, &report)),
        ),
        ("cache stats", Box::new(|r| export_cache_stats(r, &stats))),
        ("observer", Box::new(|r| obs.export(r))),
        (
            "trace folds",
            Box::new(|r| {
                fold_trace_counters(r, &snap);
                fold_trace_spans(r, &snap).unwrap();
            }),
        ),
    ];
    let mut owner: std::collections::BTreeMap<String, &str> = Default::default();
    let mut all = MetricsRegistry::new();
    for (exporter, export) in &exporters {
        let mut own = MetricsRegistry::new();
        export(&mut own);
        export(&mut all);
        assert!(!own.is_empty(), "{exporter} exported nothing");
        for (name, _) in own.series() {
            let first = owner.entry(name.to_string()).or_insert(exporter);
            assert_eq!(
                first, exporter,
                "{name} is set by both {first} and {exporter}"
            );
            assert!(
                names::help(name).is_some(),
                "{exporter} exports {name}, which trace::names does not declare"
            );
        }
    }
    assert!(owner.contains_key("span.shard.deep.scanned_codes"));
    let text = all.render_text();
    let parsed = parse_text(&text).expect("the full page must re-parse");
    assert_eq!(parsed.metrics, all.len());
    assert_eq!(
        text.matches("# HELP ").count(),
        all.len(),
        "every metric has a help line"
    );
    assert!(rendered(&all).contains("span.engine.execute_ns"));
}
