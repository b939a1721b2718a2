//! Generation-swapped store handle: serve from generation *g* while
//! generation *g+1* is prepared off to the side.
//!
//! The incremental rebalancer (`hermes_core::rebalance`) is functional:
//! each step reads the current [`ClusteredStore`] and produces a new one
//! with `generation() + 1`. The serving loop must keep answering while a
//! step runs — and every answer must come from exactly one generation,
//! never a half-migrated hybrid. [`GenerationCell`] provides that
//! epoch/generation handle:
//!
//! * [`GenerationCell::current`] hands out an `Arc` snapshot; in-flight
//!   dispatches keep the old generation alive however long they run.
//! * [`GenerationCell::swap`] publishes the next generation atomically
//!   and bumps the cell epoch. Requests dispatched before the swap see
//!   the old store, requests after see the new one — there is no third
//!   state, which is what makes "bit-identical to stop-the-world at
//!   every generation boundary" a testable property
//!   (`tests/serving_equivalence.rs`).
//!
//! [`GenerationBackend`] is the [`Backend`] that reads the cell at each
//! dispatch and forwards to the shared serving pipeline
//! (`server::dispatch`), so a [`Server`](crate::Server) keeps its backend
//! for the whole run while the store underneath it evolves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

use hermes_core::exec::Engine;
use hermes_core::{ClusteredStore, HermesError};

use crate::request::Request;
use crate::server::{dispatch, Backend, BatchOutcome};

/// An atomically swappable, epoch-counted store handle.
///
/// A thread that panics while holding the lock — inside a
/// [`Self::mutate`] closure, in practice — does not take the cell down
/// with it. The slot only ever holds a whole `Arc<ClusteredStore>`
/// ([`Self::swap`] is one assignment; `mutate` hands the closure the
/// store itself, whose own mutators each apply fully or fail first), so
/// the poison flag says nothing the next holder could act on: it is
/// cleared and serving goes on from what the slot holds.
#[derive(Debug)]
pub struct GenerationCell {
    store: RwLock<Arc<ClusteredStore>>,
    epoch: AtomicU64,
    version: AtomicU64,
}

impl GenerationCell {
    /// Wraps `store` as epoch 0, version 0.
    pub fn new(store: ClusteredStore) -> Self {
        GenerationCell {
            store: RwLock::new(Arc::new(store)),
            epoch: AtomicU64::new(0),
            version: AtomicU64::new(0),
        }
    }

    /// A snapshot of the currently published generation. The `Arc` keeps
    /// that generation alive for as long as the caller holds it, even
    /// across later swaps.
    pub fn current(&self) -> Arc<ClusteredStore> {
        let slot = self.store.read().unwrap_or_else(|poisoned| {
            self.store.clear_poison();
            poisoned.into_inner()
        });
        slot.clone()
    }

    fn write(&self) -> RwLockWriteGuard<'_, Arc<ClusteredStore>> {
        self.store.write().unwrap_or_else(|poisoned| {
            self.store.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Number of swaps published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The store generation of the published snapshot.
    pub fn generation(&self) -> u64 {
        self.current().generation()
    }

    /// Content-version counter: bumped by **every** mutation of the
    /// published store — [`Self::swap`] *and* [`Self::mutate`] — unlike
    /// [`Self::epoch`] (swaps only) or the store's own `generation()`
    /// (rebalances only; plain inserts/removes leave it unchanged). This
    /// is the invalidation stamp the semantic cache keys on: any result
    /// computed at version *v* is untrustworthy at any other version, so
    /// churn can never serve a pre-mutation cache entry.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publishes `next` and returns the displaced snapshot. In-flight
    /// readers holding the old `Arc` finish on the old generation;
    /// every subsequent [`Self::current`] sees `next`.
    pub fn swap(&self, next: ClusteredStore) -> Arc<ClusteredStore> {
        let mut slot = self.write();
        let old = std::mem::replace(&mut *slot, Arc::new(next));
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.version.fetch_add(1, Ordering::AcqRel);
        old
    }

    /// Mutates the published store in place under the write lock (for
    /// churn: inserts/removes that do not change the generation). The
    /// closure runs on a clone only if other snapshots are live, so
    /// uncontended mutation is allocation-free.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut ClusteredStore) -> T) -> T {
        let mut slot = self.write();
        let store = Arc::make_mut(&mut *slot);
        let out = f(store);
        self.version.fetch_add(1, Ordering::AcqRel);
        out
    }
}

/// A [`Backend`] that resolves the store through a [`GenerationCell`] at
/// every dispatch — the serving side of live rebalancing.
pub struct GenerationBackend {
    cell: Arc<GenerationCell>,
    threads: usize,
}

impl GenerationBackend {
    /// A backend dispatching against whatever generation `cell` publishes
    /// at dispatch time, with shard fan-out `threads` (`0` = full pool,
    /// `1` = inline).
    pub fn new(cell: Arc<GenerationCell>, threads: usize) -> Self {
        GenerationBackend { cell, threads }
    }

    /// The shared cell.
    pub fn cell(&self) -> &Arc<GenerationCell> {
        &self.cell
    }
}

impl Backend for GenerationBackend {
    fn run(&self, batch: &[Request]) -> Result<BatchOutcome, HermesError> {
        let store = self.cell.current();
        dispatch(&Engine::for_store(&store), self.threads, None, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use crate::server::{Server, ServerConfig};
    use hermes_core::HermesConfig;
    use hermes_datagen::{Corpus, CorpusSpec};

    fn store() -> (Corpus, ClusteredStore) {
        let corpus = Corpus::generate(CorpusSpec::new(400, 10, 4).with_seed(71));
        let cfg = HermesConfig::new(4)
            .with_clusters_to_search(2)
            .with_seed(72);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        (corpus, store)
    }

    #[test]
    fn snapshots_pin_their_generation_across_swaps() {
        let (_, s) = store();
        let cell = GenerationCell::new(s.clone());
        let pinned = cell.current();
        let mut next = s;
        next.insert(9_999, pinned.split_centroid(0)).unwrap();
        cell.swap(next);
        assert_eq!(cell.epoch(), 1);
        // The pinned snapshot still answers from the old generation.
        assert_eq!(pinned.len() + 1, cell.current().len());
    }

    #[test]
    fn backend_reads_the_cell_at_each_dispatch() {
        let (corpus, s) = store();
        let q = corpus.embeddings().row(0).to_vec();
        let baseline = s.hierarchical_search(&q).unwrap();

        let cell = Arc::new(GenerationCell::new(s));
        let backend = GenerationBackend::new(cell.clone(), 1);
        let mut server = Server::new(backend, ServerConfig::default());

        server.run_until(0).unwrap();
        server
            .submit(Request::new(0, q.clone(), Priority::Standard, 0))
            .unwrap();
        server.run_until(u64::MAX).unwrap();
        let first = server.take_completions().pop().unwrap();
        assert_eq!(first.outcome.as_ref().unwrap().hits, baseline.hits);

        // Swap in a mutated generation; the same server picks it up.
        let mut next = (*cell.current()).clone();
        let mut spiked = q.clone();
        hermes_math::distance::normalize(&mut spiked);
        hermes_math::distance::scale(&mut spiked, 2.0);
        next.insert(42_424, &spiked).unwrap();
        cell.swap(next);

        server.run_until(1_000_000).unwrap();
        server
            .submit(Request::new(
                1,
                spiked.clone(),
                Priority::Standard,
                1_000_000,
            ))
            .unwrap();
        server.run_until(u64::MAX).unwrap();
        let second = server.take_completions().pop().unwrap();
        assert!(second
            .outcome
            .as_ref()
            .unwrap()
            .hits
            .iter()
            .any(|n| n.id == 42_424));
    }

    #[test]
    fn a_panic_inside_mutate_leaves_the_cell_serving() {
        let (corpus, s) = store();
        let q = corpus.embeddings().row(0).to_vec();
        let baseline = s.hierarchical_search(&q).unwrap();
        let cell = Arc::new(GenerationCell::new(s));
        let version = cell.version();

        let writer = cell.clone();
        let panicked = std::thread::spawn(move || writer.mutate(|_| panic!("writer died")));
        assert!(panicked.join().is_err());
        assert!(cell.store.is_poisoned());

        // The old generation is still there, still served, and the flag
        // is gone after the first access.
        assert_eq!(
            cell.version(),
            version,
            "the failed write published nothing"
        );
        let mut server = Server::new(
            GenerationBackend::new(cell.clone(), 1),
            ServerConfig::default(),
        );
        server.run_until(0).unwrap();
        server
            .submit(Request::new(0, q, Priority::Standard, 0))
            .unwrap();
        server.run_until(u64::MAX).unwrap();
        let served = server.take_completions().pop().unwrap();
        assert_eq!(served.outcome.as_ref(), Some(&baseline));
        assert!(!cell.store.is_poisoned());

        // So is a writer that finds the flag first.
        let v = cell.current().split_centroid(1).to_vec();
        let writer = cell.clone();
        assert!(
            std::thread::spawn(move || writer.mutate(|_| panic!("again")))
                .join()
                .is_err()
        );
        assert!(cell.store.is_poisoned());
        cell.mutate(|st| st.insert(31_313, &v).unwrap());
        assert!(!cell.store.is_poisoned());
        let next = (*cell.current()).clone();
        cell.swap(next);
        assert_eq!(cell.epoch(), 1);
        assert!(!cell.store.is_poisoned());
    }

    #[test]
    fn mutate_applies_in_place_and_preserves_live_snapshots() {
        let (_, s) = store();
        let cell = GenerationCell::new(s);
        let held = cell.current();
        let v = held.split_centroid(1).to_vec();
        let cluster = cell.mutate(|st| st.insert(31_313, &v).unwrap());
        assert_eq!(
            cell.current().cluster_sizes()[cluster],
            held.cluster_sizes()[cluster] + 1
        );
        // The held snapshot was copied out, not mutated under the reader.
        assert_eq!(held.len() + 1, cell.current().len());
    }
}
