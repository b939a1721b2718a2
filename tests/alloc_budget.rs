//! Heap allocations on the request path, counted per thread.
//!
//! A counting `#[global_allocator]` adds every allocation made on the
//! calling thread (and every reallocation, at its new size) to a
//! thread-local tally, so the test harness's other threads do not leak
//! in. Every call runs at `threads = 1`, inline on the test's thread, so
//! the counts hold under any `HERMES_THREADS`. Each measured pass follows
//! a warm-up pass over the same queries: the thread's scan and route
//! scratch are then at their high-water marks, and what is left is what
//! a request allocates in steady state.
//!
//! The store is the benchmark's shape — SQ8 codes under inner product,
//! 64 dimensions, 10 shards, `m = 3`, `k = 10`, pooled probes under
//! nearest-lists routing — at a size tier-1 builds in seconds, and with
//! `deep_nprobe = 32` so that every shard of both sizes holds a full
//! share. The route's counts must not depend on the store's size: its
//! coarse keys and its cut's pair keys are thread scratch, so only what
//! it returns is allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hermes::core::exec::Engine;
use hermes::index::CoarseKeys;
use hermes::kmeans::{probe_key_centroid, select_nearest};
use hermes::prelude::*;

/// Allocations and bytes allocated on this thread so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Tally {
    allocs: usize,
    bytes: usize,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            allocs: 0,
            bytes: 0,
        })
    };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down.
    let _ = TALLY.try_with(|tally| {
        let Tally {
            allocs,
            bytes: total,
        } = tally.get();
        tally.set(Tally {
            allocs: allocs + 1,
            bytes: total + bytes,
        });
    });
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the tally is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` allocates on this thread, beside what it returns. Its
/// result is dropped outside the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = TALLY.with(Cell::get);
    let out = f();
    let after = TALLY.with(Cell::get);
    let tally = Tally {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
    };
    (out, tally)
}

/// The tally of `f` over every item, after a warm-up pass over the
/// same items.
fn steady<I: ?Sized, T>(items: &[&I], mut f: impl FnMut(&I) -> T) -> Tally {
    for item in items {
        drop(f(item));
    }
    let mut total = Tally::default();
    for item in items {
        let (out, tally) = counted(|| f(item));
        drop(out);
        total.allocs += tally.allocs;
        total.bytes += tally.bytes;
    }
    total
}

const QUERIES: usize = 24;

fn config() -> HermesConfig {
    HermesConfig::new(10)
        .with_clusters_to_search(3)
        .with_sample_nprobe(8)
        .with_deep_nprobe(32)
        .with_k(10)
        .with_seed(7)
}

/// A store of `docs` 64-dimensional rows in 10 shards, and the queries.
fn scenario(docs: usize) -> (ClusteredStore, Vec<Vec<f32>>) {
    let scenario = Scenario::new(CorpusSpec::new(docs, 64, 10).with_seed(6))
        .with_queries(QuerySpec::new(QUERIES));
    let store = scenario.store(&config()).unwrap();
    (store, scenario.queries)
}

fn sum_nlist(store: &ClusteredStore) -> usize {
    (0..store.num_clusters())
        .map(|c| store.shard(c).nlist())
        .sum()
}

#[test]
fn a_lone_route_allocates_what_it_returns_at_any_store_size() {
    let cfg = config();
    let tallies: Vec<(usize, Tally)> = [4_000, 12_000]
        .map(|docs| {
            let (store, queries) = scenario(docs);
            let queries: Vec<&[f32]> = queries.iter().map(|q| &q[..]).collect();
            let engine = Engine::new(&store, &cfg);
            let route = steady(&queries, |q| engine.route_batch(&[q], 1).unwrap());
            (sum_nlist(&store), route)
        })
        .into();
    let [(small_nlist, small), (large_nlist, large)] = tallies[..] else {
        unreachable!()
    };
    assert!(
        large_nlist > small_nlist + 200,
        "Σ nlist {small_nlist} vs {large_nlist}"
    );
    assert_eq!(small, large, "Σ nlist {small_nlist} vs {large_nlist}");
    // Per query: the outcome vector, the key-slice table, the
    // nearest-list distances, the ranking and its scores, the deep lists
    // and their ends.
    assert_eq!(
        small,
        Tally {
            allocs: 7 * QUERIES,
            bytes: 1_176 * QUERIES,
        }
    );
    assert!(small.allocs <= 16 * QUERIES && small.bytes <= 3 * 1024 * QUERIES);
}

#[test]
fn a_lone_execute_and_a_batch_of_8_allocate_their_pinned_counts() {
    let cfg = config();
    let (store, queries) = scenario(6_000);
    let engine = Engine::new(&store, &cfg);
    let lone: Vec<&[f32]> = queries.iter().map(|q| &q[..]).collect();
    let execute = steady(&lone, |q| engine.execute_coalesced(&[q], 1).unwrap());
    assert_eq!(
        execute,
        Tally {
            allocs: 910,
            bytes: 92_160,
        }
    );
    assert!(execute.bytes <= 8 * 1024 * QUERIES, "{execute:?}");
    let batches: Vec<&[&[f32]]> = lone.chunks(8).collect();
    let batch = steady(&batches, |batch| {
        engine.execute_coalesced(batch, 1).unwrap()
    });
    assert_eq!(
        batch,
        Tally {
            allocs: 535,
            bytes: 58_880,
        }
    );
}

#[test]
fn a_list_scan_allocates_its_hit_list_and_its_bound_weights() {
    let (store, queries) = scenario(6_000);
    let shard = store.shard(0);
    let mut keys = CoarseKeys::default();
    shard.coarse_keys(queries.iter().map(|q| &q[..]), &mut keys);
    let scans: Vec<(&[f32], Vec<u32>)> = (queries.iter().enumerate())
        .map(|(qi, q)| {
            let mut keys = keys.query(qi).unwrap().to_vec();
            let chosen = select_nearest(&mut keys, 16);
            let lists = chosen.iter().map(|&key| probe_key_centroid(key) as u32);
            (&q[..], lists.collect())
        })
        .collect();
    let scans: Vec<&(&[f32], Vec<u32>)> = scans.iter().collect();
    let k = 10;
    let tally = steady(&scans, |(q, lists)| {
        let (answer, _) = shard.search_lists(q, lists, f32::NEG_INFINITY, k);
        assert_eq!(answer.unwrap().0.len(), k);
    });
    // `k` hits of 16 bytes, and one weight byte per dimension.
    assert_eq!(
        tally,
        Tally {
            allocs: 2 * QUERIES,
            bytes: (k * 16 + 64) * QUERIES,
        }
    );
}
