//! First-party work-stealing executor for the workspace's batch paths.
//!
//! Every batched fan-out in the repo — `VectorIndex::batch_search`,
//! `ClusteredStore::batch_hierarchical_search`, the K-means assignment
//! sweeps and the brute-force ground-truth oracle — used to spawn fresh
//! OS threads per call and split the work into static chunks. Under the
//! skewed per-query cost the paper's Zipf traces produce (Figure 13),
//! static chunking strands threads on the cheap chunks while one thread
//! grinds through the expensive one, and the spawn cost is re-paid on
//! every retrieval stride. [`Pool`] replaces both defects:
//!
//! * **Persistent workers** — threads are spawned once ([`Pool::new`], or
//!   lazily for [`Pool::global`]) and parked on a condvar between jobs;
//!   a batch submission is a notify, not `N` `clone()`+`spawn()` calls.
//! * **Dynamic stealing** — tasks are claimed from a shared atomic
//!   cursor (`fetch_add`), one index (or one small grain) at a time, so
//!   a worker that finishes a cheap query immediately steals the next
//!   one instead of idling behind a static chunk boundary.
//! * **Deterministic ordering** — each task writes its result into the
//!   slot of its *input* index, so [`Pool::parallel_map`] returns exactly
//!   what the sequential map would, bit for bit, for any thread count
//!   and any interleaving.
//! * **Panic propagation** — a panicking task's payload is captured and
//!   re-raised on the submitting thread via
//!   [`std::panic::resume_unwind`], so a worker assertion failure
//!   surfaces with its original message instead of the generic
//!   "search worker panicked" the old `JoinHandle::join().expect(..)`
//!   produced.
//!
//! The global pool is sized from [`std::thread::available_parallelism`],
//! overridable with the `HERMES_THREADS` environment variable
//! (`HERMES_THREADS=1` forces every batch path to run inline and
//! sequentially — useful for bisecting concurrency bugs; oversubscribed
//! values exercise contended schedules). See [`Pool::global`] for the
//! exact parsing rules.
//!
//! Zero external dependencies, per the workspace hermeticity policy:
//! the pool is `std` (`Mutex`/`Condvar` + atomics) plus the in-repo
//! `hermes-trace` telemetry layer.
//!
//! # Telemetry
//!
//! When `hermes_trace::enable()` is on, workers record:
//!
//! * `pool.task` spans — one per cursor claim (a grain of one or more
//!   indices), with `start`/`len` args; these land on the worker's own
//!   thread lane in a Perfetto view, so stealing imbalance is visible.
//! * `pool.steal` counter — one sample per successful claim.
//! * `pool.queue_depth` counter — indices still unclaimed after each
//!   claim (the drain curve of a job).
//! * `pool.idle` complete-spans — time a worker spent parked on the
//!   condvar between jobs.
//!
//! Disabled (the default), each of these sites costs one relaxed atomic
//! load on the claim path and nothing per item.
//!
//! # Examples
//!
//! ```
//! use hermes_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Fallible maps propagate the first error in *input* order,
//! // matching what a sequential loop would report.
//! let r: Result<Vec<u64>, String> =
//!     pool.try_parallel_map(&[2u64, 0, 4, 0], |&x| {
//!         if x == 0 { Err("zero".to_string()) } else { Ok(100 / x) }
//!     });
//! assert_eq!(r, Err("zero".to_string()));
//! ```

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Set while this thread is executing a pool task. A nested
    /// `parallel_map` from inside a task runs inline and sequentially
    /// instead of re-entering the (single-job) pool, which would
    /// deadlock on the submission lock.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A type-erased borrowed job. The `'static` lifetime is a lie told to
/// the worker threads; `Pool::run` guarantees the reference outlives
/// every worker's use of it by not returning until all workers have
/// finished the job.
#[derive(Clone, Copy)]
struct RawJob(&'static (dyn Fn() + Sync));

/// Shared pool state guarded by one mutex.
struct Slot {
    /// Bumped once per submitted job so a worker never runs the same job
    /// twice.
    epoch: u64,
    /// The current job, if one is in flight.
    job: Option<RawJob>,
    /// Workers that have not yet finished the current job.
    running: usize,
    /// Set by `Drop` to retire the workers.
    shutdown: bool,
}

struct Inner {
    slot: Mutex<Slot>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitter waits here for `running == 0`.
    done: Condvar,
}

fn lock(m: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    // Tasks never unwind while holding this mutex (every user closure is
    // wrapped in catch_unwind), so poison only means a defensive path
    // already captured the payload — keep going.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent work-stealing thread pool. See the crate docs for the
/// scheduling discipline and guarantees.
pub struct Pool {
    inner: Arc<Inner>,
    /// Serializes job submission: the pool runs one job at a time, and
    /// concurrent submitting threads queue here.
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` total parallelism (clamped to at
    /// least 1). The submitting thread participates in every job, so
    /// `threads - 1` workers are spawned; `Pool::new(1)` spawns nothing
    /// and runs every map inline and sequentially.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hermes-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            inner,
            submit: Mutex::new(()),
            handles,
            threads,
        }
    }

    /// The process-wide shared pool, created on first use.
    ///
    /// Sizing rules, checked in order:
    ///
    /// 1. `HERMES_THREADS` set to a positive integer (surrounding
    ///    whitespace tolerated, e.g. `" 8 "`) — that exact width, even
    ///    if it oversubscribes the machine.
    /// 2. `HERMES_THREADS` set to anything else — `"0"`, empty,
    ///    negative, fractional (`"1.5"`), or non-numeric — the value is
    ///    **ignored** and rule 3 applies. Zero is not "inline mode";
    ///    use `HERMES_THREADS=1` for that.
    /// 3. Unset — [`std::thread::available_parallelism`], falling back
    ///    to 1 if the platform cannot report it.
    ///
    /// The width is decided once, at first use; later changes to the
    /// environment variable have no effect on this process.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Total parallelism of this pool (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, stealing one item at a time
    /// from a shared cursor. Output order matches input order exactly.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any task produced, with its original
    /// payload.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.parallel_map_capped(items, usize::MAX, f)
    }

    /// [`Self::parallel_map`] with concurrency capped at `cap` threads
    /// (clamped to at least 1) — the hook behind the `threads` argument
    /// of the public batch-search APIs.
    pub fn parallel_map_capped<T, U, F>(&self, items: &[T], cap: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run_map(items.len(), cap, 1, |i| f(&items[i]))
    }

    /// Fallible parallel map. Every item is evaluated (no early exit:
    /// stopping at the first *observed* error would make which error is
    /// returned schedule-dependent) and the first `Err` in **input
    /// order** is returned — exactly the error a sequential
    /// `iter().map(f).collect()` reports.
    pub fn try_parallel_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        self.try_parallel_map_capped(items, usize::MAX, f)
    }

    /// [`Self::try_parallel_map`] with concurrency capped at `cap`.
    pub fn try_parallel_map_capped<T, U, E, F>(
        &self,
        items: &[T],
        cap: usize,
        f: F,
    ) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        self.parallel_map_capped(items, cap, f)
            .into_iter()
            .collect()
    }

    /// Indexed parallel map over `0..n` for cheap per-index work (K-means
    /// row sweeps, per-query metric evaluation). Steals a grain of
    /// several indices per cursor claim to keep atomic traffic off the
    /// hot path; ordering and panic semantics match
    /// [`Self::parallel_map`].
    pub fn parallel_map_index<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        // ~8 steals per thread balances skew resistance against cursor
        // contention for fine-grained tasks.
        let grain = (n / (self.threads * 8)).clamp(1, 1024);
        self.run_map(n, usize::MAX, grain, f)
    }

    /// The core primitive every public map routes through: evaluate
    /// `f(i)` for `i in 0..n` with at most `cap` threads, stealing
    /// `grain` indices per cursor claim, writing each result into slot
    /// `i`.
    fn run_map<U, F>(&self, n: usize, cap: usize, grain: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let cap = cap.max(1);
        if n <= 1 || cap == 1 || self.threads == 1 {
            // Inline sequential path: panics and result order are
            // trivially identical to the parallel path's contract.
            return (0..n).map(f).collect();
        }

        struct Slots<'a, U>(&'a [std::cell::UnsafeCell<Option<U>>]);
        // SAFETY: workers write disjoint slots (each index is claimed by
        // exactly one fetch_add winner) and no one reads until after the
        // completion barrier in `run`.
        unsafe impl<U: Send> Sync for Slots<'_, U> {}
        impl<U> Slots<'_, U> {
            /// # Safety
            /// Each index must be written by at most one thread.
            unsafe fn write(&self, i: usize, v: U) {
                *self.0[i].get() = Some(v);
            }
        }

        let slots: Vec<std::cell::UnsafeCell<Option<U>>> =
            (0..n).map(|_| std::cell::UnsafeCell::new(None)).collect();
        let shared = Slots(&slots);
        let cursor = AtomicUsize::new(0);
        let participants = AtomicUsize::new(0);
        let grain = grain.max(1);
        let panic_box: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let task = || {
            if participants.fetch_add(1, Ordering::Relaxed) >= cap {
                return;
            }
            loop {
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= n {
                    return;
                }
                let end = (start + grain).min(n);
                let _task_span = hermes_trace::is_enabled().then(|| {
                    hermes_trace::counter(hermes_trace::names::POOL_STEAL, 1);
                    hermes_trace::counter(hermes_trace::names::POOL_QUEUE_DEPTH, (n - end) as u64);
                    hermes_trace::span_with(
                        hermes_trace::names::POOL_TASK,
                        &[
                            (hermes_trace::names::ARG_START, start as u64),
                            ("len", (end - start) as u64),
                        ],
                    )
                });
                for i in start..end {
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(v) => unsafe { shared.write(i, v) },
                        Err(payload) => {
                            let mut g = panic_box
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            if g.is_none() {
                                *g = Some(payload);
                            }
                            // Park the cursor past the end so no new
                            // tasks start; in-flight ones finish.
                            cursor.store(n, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            }
        };
        self.run(&task);

        if let Some(payload) = panic_box
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|c| c.into_inner().expect("task completed for every index"))
            .collect()
    }

    /// Dispatches one job to every worker, participates from the calling
    /// thread, and blocks until all workers have finished it.
    fn run(&self, task: &(dyn Fn() + Sync)) {
        if self.handles.is_empty() || IN_POOL_TASK.with(Cell::get) {
            task();
            return;
        }
        let _submission = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY: `run` does not return until every worker has finished
        // executing `task` (the `running == 0` wait below), so no worker
        // can observe the reference after this frame ends; erasing the
        // lifetime for the duration of the job is sound.
        let job = RawJob(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task)
        });
        {
            let mut slot = lock(&self.inner.slot);
            slot.epoch = slot.epoch.wrapping_add(1);
            slot.job = Some(job);
            slot.running = self.handles.len();
            self.inner.work.notify_all();
        }
        IN_POOL_TASK.with(|t| t.set(true));
        let caller = catch_unwind(AssertUnwindSafe(task));
        IN_POOL_TASK.with(|t| t.set(false));
        {
            let mut slot = lock(&self.inner.slot);
            while slot.running > 0 {
                slot = self
                    .inner
                    .done
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            slot.job = None;
        }
        // Only after the barrier is it safe to unwind (workers no longer
        // hold borrows into the caller's frame). `run_map` wraps every
        // user closure in catch_unwind, so this is purely defensive.
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.inner.slot);
            slot.shutdown = true;
            self.inner.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&inner.slot);
            // Idle time is reported as a `Complete` event stamped at
            // wake rather than a Span guard: a guard held across the
            // condvar wait would leave an unmatched `Begin` in the ring
            // if a snapshot drained while this worker was parked.
            let mut idle_from: Option<u64> = None;
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen {
                    if let Some(job) = slot.job {
                        seen = slot.epoch;
                        if let Some(t0) = idle_from {
                            let now = hermes_trace::now_ns();
                            hermes_trace::complete(
                                hermes_trace::names::POOL_IDLE,
                                t0,
                                now.saturating_sub(t0),
                            );
                        }
                        break job;
                    }
                }
                if idle_from.is_none() && hermes_trace::is_enabled() {
                    idle_from = Some(hermes_trace::now_ns());
                }
                slot = inner
                    .work
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        IN_POOL_TASK.with(|t| t.set(true));
        // The job closure (built by run_map) catches task panics itself;
        // this catch_unwind only guards the pool's liveness against a
        // hypothetical escaping unwind — the decrement below must happen
        // or the submitter waits forever.
        let _ = catch_unwind(AssertUnwindSafe(|| (job.0)()));
        IN_POOL_TASK.with(|t| t.set(false));
        let mut slot = lock(&inner.slot);
        slot.running -= 1;
        if slot.running == 0 {
            inner.done.notify_all();
        }
    }
}

/// Pool width for [`Pool::global`]: `HERMES_THREADS` when it parses to a
/// positive integer, else the machine's available parallelism.
fn default_threads() -> usize {
    parse_hermes_threads(std::env::var("HERMES_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Interprets a `HERMES_THREADS` value: `Some(n)` for a positive integer
/// (surrounding whitespace tolerated), `None` for unset or anything that
/// does not name a positive integer — including `"0"`, which callers
/// must not conflate with inline mode (`1`). Pure so every case is unit
/// testable without mutating the process environment.
fn parse_hermes_threads(value: Option<&str>) -> Option<usize> {
    let n = value?.trim().parse::<usize>().ok()?;
    (n >= 1).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_various_widths() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let pool = Pool::new(threads);
            assert_eq!(pool.parallel_map(&items, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.parallel_map(&[1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert_eq!(pool.parallel_map(&[] as &[u64], |x| *x), Vec::<u64>::new());
        assert_eq!(pool.parallel_map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn panic_payload_is_propagated_verbatim() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&i| {
                assert!(i != 13, "worker assertion tripped at index {i}");
                i
            })
        }));
        let payload = result.expect_err("map must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message");
        assert!(
            msg.contains("worker assertion tripped at index 13"),
            "original message lost: {msg}"
        );
        // The pool must still be usable after a propagated panic.
        assert_eq!(pool.parallel_map(&[1u64, 2], |x| x * 2), vec![2, 4]);
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let pool = Pool::new(4);
        // Errors at 5 and 20; input order says 5 wins, regardless of
        // which task finishes first.
        let items: Vec<usize> = (0..32).collect();
        for _ in 0..50 {
            let r: Result<Vec<usize>, String> = pool.try_parallel_map(&items, |&i| {
                if i == 5 || i == 20 {
                    Err(format!("bad item {i}"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(r, Err("bad item 5".to_string()));
        }
    }

    #[test]
    fn capped_map_still_completes_everything() {
        let pool = Pool::new(8);
        let items: Vec<u64> = (0..50).collect();
        for cap in [1, 2, 7, 100] {
            let got = pool.parallel_map_capped(&items, cap, |x| x + 1);
            assert_eq!(got, (1..=50).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn nested_maps_run_inline_without_deadlock() {
        let pool = Pool::new(4);
        let outer: Vec<u64> = (0..8).collect();
        let got = pool.parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..4).collect();
            Pool::global()
                .parallel_map(&inner, |&y| x * 10 + y)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|x| (0..4).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn map_index_grains_cover_the_range() {
        let pool = Pool::new(3);
        for n in [0usize, 1, 7, 64, 4097] {
            let got = pool.parallel_map_index(n, |i| i * 2);
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        let pool = Arc::new(Pool::new(4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let items: Vec<u64> = (0..200).collect();
                    let got = pool.parallel_map(&items, |x| x + t);
                    assert_eq!(got, (t..200 + t).collect::<Vec<u64>>());
                });
            }
        });
    }

    #[test]
    fn global_pool_honors_env_override() {
        let p = Pool::global();
        assert!(p.threads() >= 1);
        if let Ok(v) = std::env::var("HERMES_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    assert_eq!(p.threads(), n);
                }
            }
        }
    }

    #[test]
    fn hermes_threads_parsing_accepts_positive_integers() {
        assert_eq!(parse_hermes_threads(Some("1")), Some(1));
        assert_eq!(parse_hermes_threads(Some("16")), Some(16));
        assert_eq!(
            parse_hermes_threads(Some(" 8 ")),
            Some(8),
            "whitespace trimmed"
        );
        assert_eq!(
            parse_hermes_threads(Some("1024")),
            Some(1024),
            "oversubscription allowed"
        );
    }

    #[test]
    fn hermes_threads_parsing_rejects_everything_else() {
        assert_eq!(parse_hermes_threads(None), None, "unset");
        assert_eq!(parse_hermes_threads(Some("")), None, "empty");
        assert_eq!(
            parse_hermes_threads(Some("0")),
            None,
            "zero is not inline mode"
        );
        assert_eq!(parse_hermes_threads(Some("-4")), None, "negative");
        assert_eq!(parse_hermes_threads(Some("1.5")), None, "fractional");
        assert_eq!(parse_hermes_threads(Some("lots")), None, "garbage");
        assert_eq!(parse_hermes_threads(Some("8 cores")), None, "trailing text");
    }

    // Note: traced-execution behavior (pool.task span balance, steal /
    // queue-depth counters, bit-identical results with telemetry on) is
    // covered by the workspace integration test `trace_validation`,
    // which owns its process and can serialize access to the global
    // trace state. Enabling tracing here would race with this binary's
    // other tests, which all drive pools concurrently.

    #[test]
    fn drop_joins_workers_promptly() {
        let pool = Pool::new(6);
        let _ = pool.parallel_map(&[1u64, 2, 3], |x| *x);
        drop(pool); // must not hang
    }
}
