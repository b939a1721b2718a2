//! One benchmark run: set-up, the timed passes, verification, metrics.
//!
//! An **untraced** run (`--trace 0`) produces the end-to-end metrics from
//! `Mode::Plain` passes only. A **traced** run (`--trace 1`) produces the
//! per-layer metrics: probes on the built store, then passes cycling
//! through the instrumented modes. End-to-end numbers come from the quiet
//! replay over all passes, in-run layer numbers from the pooled three
//! fastest traced passes (see `stats`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hermes_core::exec::Engine;
use hermes_core::{ClusteredStore, HermesError};
use hermes_index::FlatIndex;
use hermes_math::distance::cosine;
use hermes_math::Metric;
use hermes_metrics::{ground_truth, recall_at_k};
use hermes_serve::{Completion, GenerationCell};

use crate::spans::Recorder;
use crate::stats::{fastest, min_build_s, percentile, quiet, POOLED_PASSES};
use crate::workloads::{
    self, apply_write, Ctx, Kind, Mode, Pass, Scale, Spec, Trace, What, K, MISSING,
};
use crate::Reading;

/// Completions verified per checked pass outside `--smoke`.
const VERIFY_SAMPLE: usize = 64;
/// Fewest replays of the trace a run makes.
const MIN_PASSES: usize = 3;
/// `correct` requires at least this recall.
const MIN_RECALL: f64 = 0.80;

/// Command-line choices of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload, unscaled.
    pub spec: Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the passes measure.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
    /// `--smoke`.
    pub smoke: bool,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Outputs verified and the workload behaved as defined.
    pub correct: bool,
    /// Operations the trace offers (one replay).
    pub attempted: usize,
    /// Requests no replay served, plus wrong results.
    pub failed: usize,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Reading>,
    /// Context lines printed before the metrics (`key value`).
    pub info: Vec<(String, String)>,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

/// Directory for files the benchmark writes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Runs one workload once.
pub fn run(args: &RunArgs) -> Result<RunResult, HermesError> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let spec = scale.apply(&args.spec);
    let corpus = workloads::corpus(scale);
    let cfg = workloads::config();
    let trace = Trace::generate(&spec, &corpus, args.seed);

    let mut builds_s = Vec::new();
    let build_start_ns = hermes_trace::now_ns();
    let (cell, s) = workloads::build(&corpus, &cfg)?;
    builds_s.push(s);
    let ctx = Ctx {
        spec,
        trace: &trace,
        cell: &cell,
        seed: args.seed,
    };
    let mut result = RunResult::default();
    result.info.push((
        "trace_fingerprint".into(),
        format!("{:016x}", trace.fingerprint()),
    ));

    let probes = if args.traced {
        crate::probes::run(
            &cell.current(),
            &trace.queries,
            args.seed,
            args.smoke,
            &out_dir(),
        )?
    } else {
        Vec::new()
    };

    // The timed passes, with the remaining builds interleaved at one and
    // two thirds of the measuring time. The first pass of the main mode
    // (every pass in --smoke) is verified and scored for recall as soon
    // as it ends; after that a pass keeps only its timings, so memory
    // stays flat however long the run measures.
    let modes: &[Mode] = if args.traced {
        &[Mode::Spans, Mode::Plain, Mode::TraceOn, Mode::Observed]
    } else {
        &[Mode::Plain]
    };
    let main_mode = modes[0];
    let total_builds = if args.traced { 1 } else { 3 };
    let min_passes = if args.traced {
        2 * modes.len()
    } else {
        MIN_PASSES
    };
    let budget_ns = if args.smoke { 0.0 } else { args.seconds * 1e9 };
    let mut passes: Vec<(Mode, Pass)> = Vec::new();
    let (mut measured_ns, mut wrong, mut recall, mut peak_rss_mb) = (0u64, 0, f64::NAN, 0.0);
    while passes.len() < min_passes || (measured_ns as f64) < budget_ns {
        let mode = modes[passes.len() % modes.len()];
        let mut pass = ctx.run_pass(mode)?;
        measured_ns += pass.wall_ns;
        let first = !passes.iter().any(|(m, _)| *m == mode);
        if first && mode == main_mode {
            // What a user's process peaks at: the corpus resident, one
            // build, serving. Later builds and the recall oracle are the
            // harness's own and are not charged.
            peak_rss_mb = read_peak_rss_mb();
        }
        let completions = std::mem::take(&mut pass.completions);
        if mode == main_mode && (first || args.smoke) {
            wrong += verify(&ctx, &completions, args.smoke)?;
            if first && !args.traced {
                recall = recall_at_10(&ctx, &corpus, &completions)?;
            }
        }
        drop(completions);
        passes.push((mode, pass));
        let progress = if budget_ns > 0.0 {
            measured_ns as f64 / budget_ns
        } else {
            passes.len() as f64 / min_passes as f64
        };
        if builds_s.len() < total_builds && progress * 3.0 >= builds_s.len() as f64 {
            builds_s.push(workloads::build(&corpus, &cfg)?.1);
        }
    }
    // Accounting. Every pass must complete or refuse each offered
    // operation (anything else is a harness or server bug). Failures are
    // counted on the quiet replay like everything else: a request fails
    // when *no* replay served it. A refusal in one pass of many is a
    // machine stall that outlasted the deadline, and is printed, not
    // counted; overload refuses the same requests in every pass.
    let offered_per_pass = trace.ops.len();
    let lost = passes
        .iter()
        .filter(|(_, p)| p.ops_done() + p.refused() != offered_per_pass)
        .count();
    if lost > 0 {
        result.problems.push(format!("{lost} passes lost requests"));
    }
    let sojourns: Vec<&[u64]> = passes
        .iter()
        .map(|(_, p)| p.sojourn_ns.as_slice())
        .collect();
    let never_served = quiet(&sojourns, MISSING)
        .iter()
        .zip(&trace.ops)
        .filter(|(s, op)| **s == MISSING && matches!(op.what, What::Query(_)))
        .count();
    let refused: Vec<String> = passes
        .iter()
        .map(|(_, p)| p.refused().to_string())
        .collect();
    result
        .info
        .push(("refused_per_pass".into(), refused.join(" ")));
    result.attempted = offered_per_pass;
    result.failed = wrong + never_served;
    if wrong > 0 {
        result.problems.push(format!(
            "{wrong} results differ from standalone Engine::execute"
        ));
    }

    let of_mode = |mode| {
        passes
            .iter()
            .filter(move |(m, _)| *m == mode)
            .map(|(_, p)| p)
    };
    for mode in [Mode::Plain, Mode::Spans, Mode::TraceOn, Mode::Observed] {
        if modes.contains(&mode) {
            let ms: Vec<String> = of_mode(mode)
                .map(|p| format!("{:.1}", p.wall_ns as f64 / 1e6))
                .collect();
            result
                .info
                .push((format!("pass_wall_ms[{mode:?}]"), ms.join(" ")));
        }
    }
    let builds: Vec<String> = builds_s.iter().map(|s| format!("{s:.3}")).collect();
    result.info.push(("build_s".into(), builds.join(" ")));

    if args.traced {
        let pool: Vec<&Pass> = pooled(&passes, main_mode)
            .into_iter()
            .map(|i| &passes[i].1)
            .collect();
        let quiet_wall = |mode| quiet_wall_ns(of_mode(mode)).max(1) as f64;
        let events = of_mode(Mode::TraceOn)
            .map(|p| p.trace_events as f64 / trace.query_ops() as f64)
            .fold(0.0, f64::max);
        let plain = quiet_wall(Mode::Plain);
        result.metrics = layer_metrics(&ctx, &pool, &passes, min_build_s(&builds_s));
        result.metrics.extend(probes);
        for (name, mode) in [
            ("trace.enabled_overhead_ratio", Mode::TraceOn),
            ("obs.observer_overhead_ratio", Mode::Observed),
            ("trace.harness_overhead_ratio", Mode::Spans),
        ] {
            result
                .metrics
                .push(Reading::new(name, quiet_wall(mode) / plain - 1.0, "ratio"));
        }
        result
            .metrics
            .push(Reading::new("trace.events_per_request", events, "count"));
        discriminate(&ctx, &pool, &result.metrics, &mut result.problems);
        result
            .info
            .extend(write_trace(&ctx, &pool, build_start_ns, builds_s[0]));
    } else {
        if recall < MIN_RECALL {
            result
                .problems
                .push(format!("recall {recall:.3} below {MIN_RECALL}"));
        }
        // Quiet replay (see `stats`): per request over the passes for
        // latency, per block of operations for throughput.
        let replays: Vec<&[u64]> = of_mode(main_mode)
            .map(|p| p.sojourn_ns.as_slice())
            .collect();
        let mut sojourn = quiet(&replays, MISSING);
        sojourn.retain(|&v| v != MISSING);
        let mut us = |q| percentile(&mut sojourn, q).unwrap_or(0) as f64 / 1e3;
        let (p50, p99) = (us(0.5), us(0.99));
        let quiet_wall_ns = quiet_wall_ns(of_mode(main_mode));
        let ops = of_mode(main_mode).map(Pass::ops_done).max().unwrap_or(0);
        result.metrics = vec![
            Reading::new("setup_s", min_build_s(&builds_s), "s"),
            Reading::new("latency_p50_us", p50, "us"),
            Reading::new("latency_p99_us", p99, "us"),
            Reading::new(
                "throughput_qps",
                ops as f64 * 1e9 / quiet_wall_ns as f64,
                "1/s",
            ),
            Reading::new("recall_at_10", recall, "ratio"),
            Reading::new("peak_rss_mb", peak_rss_mb, "MB"),
        ];
    }
    result.correct = result.failed == 0 && result.problems.is_empty();
    Ok(result)
}

/// Wall time of one quiet replay of the trace: every block of
/// operations taken from the pass that ran it fastest.
fn quiet_wall_ns<'a>(passes: impl Iterator<Item = &'a Pass>) -> u64 {
    let blocks: Vec<&[u64]> = passes.map(|p| p.block_ns.as_slice()).collect();
    quiet(&blocks, MISSING).iter().sum()
}

/// Indices into `passes` of the (up to three) fastest passes of `mode`.
fn pooled(passes: &[(Mode, Pass)], mode: Mode) -> Vec<usize> {
    let of_mode: Vec<usize> = (0..passes.len()).filter(|&i| passes[i].0 == mode).collect();
    let walls: Vec<u64> = of_mode.iter().map(|&i| passes[i].1.wall_ns).collect();
    fastest(&walls, POOLED_PASSES)
        .into_iter()
        .map(|j| of_mode[j])
        .collect()
}

/// Mean recall@10 of `completions` against exact `FlatIndex` top-10 over
/// the corpus, over the first [`workloads::TRUTH_QUERIES`] distinct
/// queries of the schedule.
fn recall_at_10(
    ctx: &Ctx,
    corpus: &hermes_datagen::Corpus,
    completions: &[Completion],
) -> Result<f64, HermesError> {
    let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);
    let truth_set = ctx.trace.truth_set();
    let truth_queries: Vec<Vec<f32>> = truth_set
        .iter()
        .map(|&q| ctx.trace.queries[q as usize].clone())
        .collect();
    let truth = ground_truth(&oracle, &truth_queries, K)?;
    let mut truth_of: Vec<Option<&Vec<u64>>> = vec![None; ctx.trace.queries.len()];
    for (q, t) in truth_set.iter().zip(&truth) {
        truth_of[*q as usize] = Some(t);
    }
    // Each truth query counts once (its first completion), so a Zipf
    // stream's recall is not the recall of its few most popular queries.
    let (mut sum, mut n) = (0.0, 0usize);
    for c in completions {
        if let (Some(truth), Some(outcome)) =
            (truth_of[ctx.query_of(c) as usize].take(), &c.outcome)
        {
            let ids: Vec<u64> = outcome.hits.iter().map(|h| h.id).collect();
            sum += recall_at_k(truth, &ids, K);
            n += 1;
        }
    }
    Ok(sum / n.max(1) as f64)
}

/// Counts the completions of one pass whose result differs from what
/// standalone `Engine::execute` returns on the store generation they
/// were dispatched on. Outside `--smoke`, [`VERIFY_SAMPLE`] evenly
/// spaced completions are checked.
fn verify(ctx: &Ctx, completions: &[Completion], all: bool) -> Result<usize, HermesError> {
    let stride = if all {
        1
    } else {
        (completions.len() / VERIFY_SAMPLE).max(1)
    };
    let mut sample: Vec<&Completion> = completions.iter().step_by(stride).collect();
    // Churn: replay the writes a dispatch had seen (every write scheduled
    // at or before its start) onto a private copy.
    sample.sort_by_key(|c| c.start_ns);
    let replica = if ctx.spec.kind == Kind::ChurnMixed {
        Arc::new(GenerationCell::new(ClusteredStore::clone(
            &ctx.cell.current(),
        )))
    } else {
        Arc::clone(ctx.cell)
    };
    let mut writes = ctx
        .trace
        .ops
        .iter()
        .filter(|op| !matches!(op.what, What::Query(_)))
        .peekable();
    let mut wrong = 0;
    for c in sample {
        while let Some(op) = writes.next_if(|op| op.at_ns <= c.start_ns) {
            apply_write(&replica, op.what, &ctx.trace.fresh)?;
        }
        let store = replica.current();
        let engine = Engine::for_store(&store);
        if c.outcome.as_ref() != Some(&engine.execute(&c.request.query)?)
            && !(ctx.spec.kind == Kind::ZipfCachedOpen && semantic_hit_explains(ctx, &engine, c)?)
        {
            wrong += 1;
        }
    }
    Ok(wrong)
}

/// Whether `c`'s result is the exact result of a *different* pool query
/// within the semantic cache's cosine threshold — the one approximation
/// the cached backend is allowed.
fn semantic_hit_explains(ctx: &Ctx, engine: &Engine, c: &Completion) -> Result<bool, HermesError> {
    let threshold = hermes_cache::CacheConfig::default().semantic_threshold;
    for q in &ctx.trace.queries {
        if cosine(q, &c.request.query) >= threshold
            && c.outcome.as_ref() == Some(&engine.execute(q)?)
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The in-run per-layer metrics, from the pooled `Mode::Spans` passes.
fn layer_metrics(ctx: &Ctx, pool: &[&Pass], passes: &[(Mode, Pass)], build_s: f64) -> Vec<Reading> {
    let sum = |f: &dyn Fn(&Pass) -> f64| pool.iter().map(|p| f(p)).sum::<f64>();
    let dsum = |f: &dyn Fn(&workloads::Dispatch) -> f64| sum(&|p| p.dispatches.iter().map(f).sum());
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let requests = sum(&|p| p.completed as f64);
    let batches = sum(&|p| p.dispatches.len() as f64);
    let wall = sum(&|p| p.wall_ns as f64);
    let in_backend = dsum(&|d| (d.end_ns - d.start_ns) as f64);
    let in_writes = sum(&|p| {
        p.write_spans
            .iter()
            .map(|w| (w.end_ns - w.start_ns) as f64)
            .sum()
    });
    let (probe, route, deep) = (
        dsum(&|d| d.probe_ns as f64),
        dsum(&|d| d.route_ns as f64),
        dsum(&|d| d.deep_ns as f64),
    );
    let routed = dsum(&|d| (d.batch - d.exact_hits) as f64);
    let computed = dsum(&|d| d.computed() as f64);
    let codes = dsum(&|d| (d.sample_codes + d.deep_codes) as f64);
    let ops = sum(&|p| p.ops_done() as f64);
    let throughput = per(ops * 1e9, wall);
    let overhead = wall - in_backend - in_writes;

    let served = |f: fn(&Pass) -> &Vec<u64>| -> Vec<u64> {
        pool.iter()
            .flat_map(|p| f(p).iter().copied().filter(|&v| v != MISSING))
            .collect()
    };
    let (mut waits, mut sojourns) = (served(|p| &p.wait_ns), served(|p| &p.sojourn_ns));
    let us = |v: &mut Vec<u64>, q| percentile(v, q).unwrap_or(0) as f64 / 1e3;

    let offered = (ctx.trace.query_ops() * passes.len()) as f64;
    let all = |f: &dyn Fn(&Pass) -> usize| passes.iter().map(|(_, p)| f(p) as f64).sum::<f64>();
    let cache = |f: &dyn Fn(&hermes_cache::CacheStats) -> u64| {
        per(
            sum(&|p| p.cache.as_ref().map_or(0.0, |c| f(c) as f64)),
            pool.len() as f64,
        )
    };

    let r = Reading::new;
    vec![
        r("serve.queue_wait_p50_us", us(&mut waits, 0.5), "us"),
        r("serve.queue_wait_p99_us", us(&mut waits, 0.99), "us"),
        r("serve.sojourn_p99_us", us(&mut sojourns, 0.99), "us"),
        r("serve.mean_batch_size", per(requests, batches), "count"),
        r(
            "serve.shared_visits_per_batch",
            per(dsum(&|d| d.shared_visits as f64), batches),
            "count",
        ),
        r(
            "serve.distinct_clusters_per_batch",
            per(dsum(&|d| d.distinct_clusters as f64), batches),
            "count",
        ),
        r(
            "serve.busy_fraction",
            per(sum(&|p| p.busy_ns as f64), sum(&|p| p.makespan_ns as f64)),
            "ratio",
        ),
        r(
            "serve.overhead_us_per_req",
            per(overhead, requests) / 1e3,
            "us",
        ),
        r(
            "serve.backend_self_us_per_req",
            per(in_backend - probe - route - deep, requests) / 1e3,
            "us",
        ),
        r(
            "serve.shed_ratio",
            per(all(&|p| p.shed_full), offered),
            "ratio",
        ),
        r(
            "serve.expired_ratio",
            per(all(&|p| p.expired), offered),
            "ratio",
        ),
        r("core.route_us_per_query", per(route, routed) / 1e3, "us"),
        r("core.deep_us_per_query", per(deep, computed) / 1e3, "us"),
        r(
            "core.sample_codes_per_query",
            per(dsum(&|d| d.sample_codes as f64), computed),
            "count",
        ),
        r(
            "core.deep_codes_per_query",
            per(dsum(&|d| d.deep_codes as f64), computed),
            "count",
        ),
        r(
            "core.clusters_searched_per_query",
            per(dsum(&|d| d.clusters_searched as f64), computed),
            "count",
        ),
        r("core.mcodes_per_s", per(codes * 1e3, route + deep), "M/s"),
        r(
            "core.write_us_per_op",
            per(in_writes, sum(&|p| p.writes as f64)) / 1e3,
            "us",
        ),
        r("core.build_s", build_s, "s"),
        r(
            "cache.hit_ratio",
            per(dsum(&|d| (d.exact_hits + d.semantic_hits) as f64), requests),
            "ratio",
        ),
        r("cache.exact_hits", cache(&|c| c.exact_hits), "count"),
        r("cache.semantic_hits", cache(&|c| c.semantic_hits), "count"),
        r("cache.evictions", cache(&|c| c.evictions), "count"),
        r("cache.probe_ns_per_req", per(probe, requests), "ns"),
        r("layers.traced_throughput_qps", throughput, "1/s"),
        r(
            "layers.reconcile_ratio",
            per(
                (route + deep + probe + in_writes + overhead) * throughput,
                ops * 1e9,
            ),
            "ratio",
        ),
    ]
}

/// The workload-discrimination asserts: each workload must stress the
/// layers it was chosen for, or its numbers mean something else.
fn discriminate(ctx: &Ctx, pool: &[&Pass], metrics: &[Reading], problems: &mut Vec<String>) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let mut need = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let batch = get("serve.mean_batch_size");
    match ctx.spec.kind {
        Kind::UniformOpen => {
            let scan_us = get("core.route_us_per_query") + get("core.deep_us_per_query");
            let share = scan_us * get("layers.traced_throughput_qps") / 1e6;
            need(
                share >= 0.80,
                format!("route+deep is {share:.2} of pooled wall, want >= 0.80"),
            );
            need(batch <= 1.2, format!("mean batch {batch:.2}, want <= 1.2"));
            let rec = get("layers.reconcile_ratio");
            need(
                (rec - 1.0).abs() <= 0.10,
                format!("layers reconcile to {rec:.3}, want 1 +- 0.10"),
            );
        }
        Kind::ZipfCachedOpen => {
            let hit = get("cache.hit_ratio");
            need(
                (0.5..=0.9).contains(&hit),
                format!("cache hit ratio {hit:.2}, want 0.5..0.9"),
            );
            need(get("cache.evictions") > 0.0, "cache never evicted".into());
        }
        Kind::SkewClosed => need(batch >= 7.5, format!("mean batch {batch:.2}, want >= 7.5")),
        Kind::ChurnMixed => {
            need(
                pool.iter().all(|p| p.splits == 1),
                "want exactly one split per pass".into(),
            );
            let share = pool.iter().map(|p| p.writes).sum::<usize>() as f64
                / pool.iter().map(|p| p.ops_done()).sum::<usize>().max(1) as f64;
            need(
                share >= 0.35,
                format!("writes are {share:.2} of operations, want >= 0.35"),
            );
        }
    }
}

/// Writes the fastest traced pass as `out/<workload>.trace.json`: a run
/// span over a set-up span and the pass, the pass over its dispatches
/// and writes, each dispatch over the backend's phases. Returns the
/// self time per span name as info lines.
fn write_trace(
    ctx: &Ctx,
    pool: &[&Pass],
    build_start_ns: u64,
    build_s: f64,
) -> Vec<(String, String)> {
    let Some(pass) = pool.first() else {
        return Vec::new();
    };
    let mut rec = Recorder::default();
    let run = rec.push("run", build_start_ns, pass.start_ns + pass.wall_ns, None, 0);
    rec.push(
        "core.build",
        build_start_ns,
        build_start_ns + (build_s * 1e9) as u64,
        Some(run),
        0,
    );
    let root = rec.push(
        "serve.pass",
        pass.start_ns,
        pass.start_ns + pass.wall_ns,
        Some(run),
        0,
    );
    for d in &pass.dispatches {
        let dispatch = rec.push("serve.dispatch", d.start_ns, d.end_ns, Some(root), d.rid);
        // The backend reports phase durations, not instants: lay them
        // out in execution order from the dispatch start.
        let mut at = d.start_ns;
        for (name, ns) in [
            ("cache.probe", d.probe_ns),
            ("core.route", d.route_ns),
            ("core.deep", d.deep_ns),
        ] {
            if ns > 0 {
                rec.push(name, at, at + ns, Some(dispatch), d.rid);
                at += ns;
            }
        }
    }
    for w in &pass.write_spans {
        rec.push(w.name, w.start_ns, w.end_ns, Some(root), 0);
    }
    let path = out_dir().join(format!("{}.trace.json", ctx.spec.name));
    if let Err(e) = std::fs::write(&path, rec.to_json(ctx.spec.name)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    rec.self_time_by_name()
        .into_iter()
        .map(|(name, ns)| {
            (
                format!("self_time_ms[{name}]"),
                format!("{:.3}", ns as f64 / 1e6),
            )
        })
        .collect()
}

/// `VmHWM` of this process so far, megabytes.
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn smoke(kind: Kind, traced: bool) -> RunResult {
        let spec = *WORKLOADS.iter().find(|w| w.kind == kind).unwrap();
        run(&RunArgs {
            spec,
            seed: 5,
            seconds: 1.0,
            traced,
            smoke: true,
        })
        .unwrap()
    }

    fn value(result: &RunResult, name: &str) -> f64 {
        result
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    #[test]
    fn one_seed_gives_equal_exact_counts_on_the_uncached_workloads() {
        for kind in [Kind::UniformOpen, Kind::SkewClosed] {
            let (a, b) = (smoke(kind, false), smoke(kind, false));
            assert!(a.correct, "{:?}", a.problems);
            assert_eq!(value(&a, "recall_at_10"), value(&b, "recall_at_10"));
            assert_eq!(a.attempted, b.attempted);
            let (a, b) = (smoke(kind, true), smoke(kind, true));
            for name in [
                "core.sample_codes_per_query",
                "core.deep_codes_per_query",
                "core.clusters_searched_per_query",
                "index.deep_codes_per_search",
            ] {
                assert!(value(&a, name) > 0.0, "{name}");
                assert_eq!(value(&a, name), value(&b, name), "{name}");
            }
        }
    }

    #[test]
    fn every_workload_is_correct_in_smoke_plain_and_traced() {
        for spec in &WORKLOADS {
            for traced in [false, true] {
                let result = smoke(spec.kind, traced);
                assert!(
                    result.correct,
                    "{} traced={traced}: {:?}",
                    spec.name, result.problems
                );
                assert_eq!(result.failed, 0);
                assert!(result.attempted >= 1);
            }
        }
    }

    #[test]
    fn pooling_takes_the_three_fastest_passes_of_a_mode() {
        let pass = |wall_ns| Pass {
            wall_ns,
            ..Pass::default()
        };
        let passes = vec![
            (Mode::Spans, pass(900)),
            (Mode::Plain, pass(100)),
            (Mode::Spans, pass(500)),
            (Mode::Spans, pass(700)),
            (Mode::Spans, pass(600)),
        ];
        assert_eq!(pooled(&passes, Mode::Spans), vec![2, 4, 3]);
        assert_eq!(pooled(&passes, Mode::Plain), vec![1]);
        assert!(pooled(&passes, Mode::Observed).is_empty());
    }
}
