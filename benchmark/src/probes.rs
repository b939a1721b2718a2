//! Per-layer probes: micro-measurements of single layers on the built
//! store and on L2-resident synthetic shapes, run once per traced run.
//!
//! Each probe times a public call from outside and reports the median of
//! its repetitions (`stats::median_ns`), or an exact work count. None of
//! them feeds an end-to-end metric; they exist so a later change can say
//! *which layer* moved.

use std::path::Path;
use std::sync::Arc;

use hermes_cache::{CacheConfig, SemanticCache};
use hermes_core::exec::Engine;
use hermes_core::{ClusteredStore, HermesError, PagedStoreReader};
use hermes_index::{IvfIndex, SearchParams, VectorIndex};
use hermes_kmeans::{KMeans, KMeansConfig};
use hermes_math::block::{inner_product_block, l2_sq_block};
use hermes_math::rng::seeded_rng;
use hermes_math::{Mat, Metric, TopK};
use hermes_pool::Pool;
use hermes_quant::{Codec, CodecSpec};
use hermes_serve::GenerationCell;

use crate::stats::{median_ns, time_ns};
use crate::workloads::{split_largest, K};
use crate::Reading as Out;

/// Rows of the L2-resident kernel shapes (256 × 64 × 4 B = 64 KiB).
const BLOCK_ROWS: usize = 256;

/// Runs every probe. `queries` are the workload's own query vectors;
/// `scratch` is a directory inside the checkout for the persistence
/// probes.
pub fn run(
    store: &ClusteredStore,
    queries: &[Vec<f32>],
    seed: u64,
    smoke: bool,
    scratch: &Path,
) -> Result<Vec<Out>, HermesError> {
    let mut out = Vec::new();
    let reps = |n: usize| if smoke { (n / 8).max(4) } else { n };
    let q = |i: usize| &queries[i % queries.len()];
    core_probes(store, queries, reps(512), &mut out)?;
    write_probes(store, queries, reps(1024), &mut out)?;
    persist_probes(store, scratch, &mut out);
    index_probes(store, queries, reps(256), &mut out)?;
    kernel_probes(
        store.config().metric,
        q(0),
        seed,
        reps(2048),
        smoke,
        &mut out,
    );
    cache_probes(q(0).len(), seed, reps(20_000), &mut out);
    pool_probes(reps(64), &mut out);
    Ok(out)
}

fn push(out: &mut Vec<Out>, name: &str, value: f64, unit: &'static str) {
    out.push(Out::new(name, value, unit));
}

/// `core`: single, batched and coalesced execution of the same queries.
fn core_probes(
    store: &ClusteredStore,
    queries: &[Vec<f32>],
    reps: usize,
    out: &mut Vec<Out>,
) -> Result<(), HermesError> {
    let engine = Engine::for_store(store);
    let q = |i: usize| &queries[i % queries.len()];
    engine.execute(q(0))?;
    let execute_us = median_ns(reps, |i| drop(engine.execute(q(i)))) / 1e3;
    let batches: Vec<Vec<Vec<f32>>> = (0..reps / 8)
        .map(|b| (0..8).map(|j| q(b * 8 + j).clone()).collect())
        .collect();
    let batch8_us = median_ns(batches.len(), |b| {
        drop(engine.execute_batch(&batches[b], 1))
    }) / 8e3;
    let coalesced8_us = median_ns(batches.len(), |b| {
        drop(engine.execute_coalesced(&batches[b], 1))
    }) / 8e3;
    push(out, "core.execute_us", execute_us, "us");
    push(out, "core.batch8_us_per_query", batch8_us, "us");
    push(out, "core.coalesced8_us_per_query", coalesced8_us, "us");
    push(
        out,
        "core.coalesce_speedup",
        execute_us / coalesced8_us,
        "ratio",
    );
    Ok(())
}

/// `core` mutation: insert, remove, split and generation swap on a copy.
fn write_probes(
    store: &ClusteredStore,
    queries: &[Vec<f32>],
    reps: usize,
    out: &mut Vec<Out>,
) -> Result<(), HermesError> {
    let mut copy = store.clone();
    let base = 1u64 << 40;
    let insert_us = median_ns(reps, |i| {
        let _ = copy.insert(base + i as u64, &queries[i % queries.len()]);
    }) / 1e3;
    let remove_us = median_ns(reps, |i| {
        let _ = copy.remove(base + i as u64);
    }) / 1e3;
    let mut split_ns = Vec::new();
    let mut generations = Vec::new();
    for _ in 0..3 {
        let (next, ns) = time_ns(|| split_largest(store));
        generations.push(next?);
        split_ns.push(ns as f64);
    }
    let cell = GenerationCell::new(copy);
    let swap_ns: Vec<f64> = generations
        .into_iter()
        .map(|next| time_ns(|| cell.swap(next)).1 as f64)
        .collect();
    push(out, "core.insert_us", insert_us, "us");
    push(out, "core.remove_us", remove_us, "us");
    push(
        out,
        "core.split_ms",
        crate::stats::median(&split_ns) / 1e6,
        "ms",
    );
    push(
        out,
        "core.swap_us",
        crate::stats::median(&swap_ns) / 1e3,
        "us",
    );
    Ok(())
}

/// `core::persist`: paged save, cold open, full load, image size.
fn persist_probes(store: &ClusteredStore, scratch: &Path, out: &mut Vec<Out>) {
    let path = scratch.join("probe.hpgs");
    let (saved, save_ns) = time_ns(|| store.save(&path));
    let image_mb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1e6);
    let open_us = median_ns(8, |_| drop(PagedStoreReader::open(&path))) / 1e3;
    let (loaded, load_ns) = time_ns(|| ClusteredStore::load(&path));
    let ok = saved.is_ok() && loaded.is_ok_and(|s| s.len() == store.len());
    let _ = std::fs::remove_file(&path);
    // A failed round trip reports zeros, which check.sh and the traced
    // run's discrimination asserts surface.
    let gate = if ok { 1.0 } else { 0.0 };
    push(
        out,
        "core.persist_save_ms",
        gate * save_ns as f64 / 1e6,
        "ms",
    );
    push(out, "core.persist_open_us", gate * open_us, "us");
    push(
        out,
        "core.persist_full_load_ms",
        gate * load_ns as f64 / 1e6,
        "ms",
    );
    push(out, "core.image_mb", gate * image_mb, "MB");
}

/// `index`: sample and deep searches on each query's best shard, and a
/// rebuild of the largest shard.
fn index_probes(
    store: &ClusteredStore,
    queries: &[Vec<f32>],
    reps: usize,
    out: &mut Vec<Out>,
) -> Result<(), HermesError> {
    let cfg = *store.config();
    let engine = Engine::for_store(store);
    let targets: Vec<(&Vec<f32>, &IvfIndex)> = (0..reps)
        .map(|i| {
            let q = &queries[i % queries.len()];
            let best = engine.route(q)?.top_cluster().unwrap_or(0);
            Ok((q, store.shard(best)))
        })
        .collect::<Result<_, HermesError>>()?;
    let sample = SearchParams::new().with_nprobe(cfg.sample_nprobe);
    let deep = SearchParams::new().with_nprobe(cfg.deep_nprobe);
    let sample_us = median_ns(reps, |i| {
        drop(targets[i].1.search_with_stats(targets[i].0, 1, &sample));
    }) / 1e3;
    let mut deep_codes = 0usize;
    let (_, deep_total_ns) = time_ns(|| {
        for (q, shard) in &targets {
            if let Ok((_, stats)) = shard.search_with_stats(q, K, &deep) {
                deep_codes += stats.scanned_codes;
            }
        }
    });
    let deep_us = median_ns(reps, |i| {
        drop(targets[i].1.search_with_stats(targets[i].0, K, &deep));
    }) / 1e3;
    let sizes = store.cluster_sizes();
    let largest = (0..sizes.len()).max_by_key(|&c| sizes[c]).unwrap_or(0);
    let (ids, rows): (Vec<u64>, Vec<Vec<f32>>) =
        store.shard(largest).export_live().into_iter().unzip();
    let data = Mat::from_rows(&rows);
    let build_ms = median_ns(3, |_| {
        let built = IvfIndex::builder()
            .codec(cfg.codec)
            .metric(cfg.metric)
            .seed(cfg.seed)
            .build_with_ids(&data, ids.clone());
        drop(built);
    }) / 1e6;
    push(out, "index.sample_search_us", sample_us, "us");
    push(out, "index.deep_search_us", deep_us, "us");
    push(
        out,
        "index.deep_codes_per_search",
        deep_codes as f64 / reps as f64,
        "count",
    );
    push(
        out,
        "index.deep_mcodes_per_s",
        deep_codes as f64 * 1e3 / deep_total_ns as f64,
        "M/s",
    );
    push(out, "index.shard_build_ms", build_ms, "ms");
    Ok(())
}

/// `math` / `quant` / `kmeans` kernels on L2-resident shapes.
fn kernel_probes(
    metric: Metric,
    query: &[f32],
    seed: u64,
    reps: usize,
    smoke: bool,
    out: &mut Vec<Out>,
) {
    let dim = query.len();
    let mut rng = seeded_rng(seed);
    let rows: Vec<f32> = (0..BLOCK_ROWS * dim)
        .map(|_| rng.next_f32() - 0.5)
        .collect();
    let mut scores = vec![0f32; BLOCK_ROWS];
    let mrows_s = |ns: f64| BLOCK_ROWS as f64 * 1e3 / ns;
    let ip_ns = median_ns(reps, |_| {
        inner_product_block(query, &rows, dim, &mut scores)
    });
    let l2_ns = median_ns(reps, |_| l2_sq_block(query, &rows, dim, &mut scores));
    std::hint::black_box(&scores);
    let ids: Vec<u64> = (0..BLOCK_ROWS as u64).collect();
    let mut shuffled = scores.clone();
    rng.shuffle(&mut shuffled);
    let topk_ns = median_ns(reps, |_| {
        let mut top = TopK::new(K);
        // Two blocks: the first fills the heap, the second is the
        // steady-state threshold-pruned case.
        top.push_block(&ids, &shuffled);
        top.push_block(&ids, &scores);
        std::hint::black_box(top.len());
    });
    push(out, "math.ip_block_mrows_s", mrows_s(ip_ns), "M/s");
    push(out, "math.l2_block_mrows_s", mrows_s(l2_ns), "M/s");
    push(
        out,
        "math.topk_push_block_melems_s",
        2.0 * mrows_s(topk_ns),
        "M/s",
    );

    let training = Mat::from_flat(BLOCK_ROWS, dim, rows);
    let codec = Codec::train(CodecSpec::Sq8, &training, seed);
    let mut codes = Vec::with_capacity(BLOCK_ROWS * codec.code_size());
    let encode_ns = median_ns(reps / 8, |_| {
        codes.clear();
        for row in training.iter_rows() {
            codec.encode_into(row, &mut codes);
        }
    });
    let scorer = codec.query_scorer(query, metric);
    let score_ns = median_ns(reps, |_| scorer.score_block(&codes, &mut scores));
    std::hint::black_box(&scores);
    push(out, "quant.sq8_score_mcodes_s", mrows_s(score_ns), "M/s");
    push(out, "quant.sq8_encode_mvecs_s", mrows_s(encode_ns), "M/s");

    let n = if smoke { 600 } else { 6000 };
    let data = Mat::from_flat(n, dim, (0..n * dim).map(|_| rng.next_f32() - 0.5).collect());
    let cfg = KMeansConfig::new(10).with_seed(seed);
    let (model, fit_ns) = time_ns(|| KMeans::train(&data, &cfg));
    let assign_ns = median_ns(8, |_| {
        for row in data.iter_rows() {
            std::hint::black_box(model.assign(row));
        }
    });
    push(out, "kmeans.fit_ms", fit_ns as f64 / 1e6, "ms");
    push(
        out,
        "kmeans.assign_mrows_s",
        n as f64 * 1e3 / assign_ns,
        "M/s",
    );
}

/// `cache`: the four `SemanticCache` paths, on a cache of unit payloads.
fn cache_probes(dim: usize, seed: u64, reps: usize, out: &mut Vec<Out>) {
    const CAPACITY: usize = 1024;
    const BUCKET: usize = 100;
    let mut rng = seeded_rng(seed ^ 0xCAC4E);
    let mut vector = || -> Vec<f32> { (0..dim).map(|_| rng.next_f32() - 0.5).collect() };
    let resident: Vec<Vec<f32>> = (0..CAPACITY).map(|_| vector()).collect();
    let strangers: Vec<Vec<f32>> = (0..CAPACITY).map(|_| vector()).collect();
    let mut cache = SemanticCache::<u64>::new(
        CacheConfig::default()
            .with_capacity(CAPACITY)
            .with_seed(seed),
    );
    for (i, q) in resident.iter().enumerate() {
        // Bucket 0 holds exactly BUCKET entries: the semantic probe's scan.
        cache.insert(q.clone(), Some(usize::from(i >= BUCKET)), 0, i as u64);
    }
    // Batches of 64 calls per sample: single calls are below clock
    // resolution.
    let per_call = |ns: f64| ns / 64.0;
    let samples = reps / 64;
    let hit_ns = per_call(median_ns(samples, |s| {
        for j in 0..64 {
            std::hint::black_box(cache.lookup_exact(&resident[(s * 64 + j) % CAPACITY], 0));
        }
    }));
    let miss_ns = per_call(median_ns(samples, |s| {
        for j in 0..64 {
            std::hint::black_box(cache.lookup_exact(&strangers[(s * 64 + j) % CAPACITY], 0));
        }
    }));
    let semantic_ns = per_call(median_ns(samples / 8, |s| {
        for j in 0..64 {
            let hit = cache.lookup_semantic(&strangers[(s * 64 + j) % CAPACITY], Some(0), 0);
            std::hint::black_box(hit.is_some());
        }
    }));
    let evict_ns = per_call(median_ns(samples / 4, |s| {
        for j in 0..64 {
            // Fresh bits each time: the cache is full, so every insert
            // evicts a seeded-random victim first.
            let mut q = strangers[(s * 64 + j) % CAPACITY].clone();
            q[0] += (s * 64 + j + 1) as f32;
            cache.insert(q, Some(1), 0, 0);
        }
    }));
    push(out, "cache.exact_hit_ns", hit_ns, "ns");
    push(out, "cache.exact_miss_ns", miss_ns, "ns");
    push(out, "cache.semantic_probe_ns", semantic_ns, "ns");
    push(out, "cache.insert_evict_ns", evict_ns, "ns");
}

/// `pool`: dispatch cost of 1024 trivial tasks at widths 1 and 2.
fn pool_probes(reps: usize, out: &mut Vec<Out>) {
    let items: Arc<Vec<u64>> = Arc::new((0..1024).collect());
    for (name, width) in [
        ("pool.dispatch_us_per_task", 1),
        ("pool.dispatch_w2_us_per_task", 2),
    ] {
        let pool = Pool::new(width);
        let ns = median_ns(reps, |_| {
            std::hint::black_box(pool.parallel_map(&items, |x| x.wrapping_mul(3)));
        });
        push(out, name, ns / 1024.0 / 1e3, "us");
    }
}
