//! Semantic query/result caching — the knowledge-reuse layer the
//! RAGCache line of work shows dominating RAG serving cost at scale
//! (PAPERS.md), made real in front of the Hermes engine.
//!
//! [`SemanticCache`] memoizes *per-query results* (any `Clone` payload —
//! the serving layer stores `SearchOutcome`s, the RAG pipeline stores
//! retrievals) behind two lookup layers:
//!
//! 1. **Exact layer** — keyed on the query vector's raw bit pattern
//!    (a four-lane word-wise multiply-mix over the f32 words with fixed
//!    constants, collision-checked against the stored vector). A repeat of a previously-answered query is a hit with no
//!    float comparison at all, and the returned payload is byte-for-byte
//!    the one computed before — bit-identical to recomputation at the
//!    same store version by construction.
//! 2. **Semantic layer** — near-duplicate detection by cosine similarity
//!    over the encoder embedding, scanning only the entries whose
//!    routing **top cluster** matches the probe's (the bucket structure:
//!    lookups touch one bucket, not the whole cache). A hit returns the
//!    *stored* query's payload, so its contract is explicitly
//!    approximate: "this answer is exact for a query within `1 −
//!    threshold` cosine of yours".
//!
//! Two mechanisms keep the cache honest under mutation and memory
//! pressure:
//!
//! * **Version invalidation** — every entry is stamped with the caller's
//!   store version (the serving layer uses `GenerationCell`'s mutation
//!   counter). A lookup that lands on an entry from another version
//!   evicts it and reports a *stale* miss instead of serving it; churn
//!   can therefore never silently serve pre-swap results.
//! * **Frequency-aware replacement, deterministic by construction** —
//!   capacity eviction is S3-FIFO: a new entry waits in a small
//!   probationary FIFO (a tenth of capacity); asked again before it
//!   reaches the tail it moves to the main FIFO, otherwise it is evicted
//!   and only its key hash is remembered in a ghost FIFO (bounded by
//!   capacity), which sends the query straight to the main FIFO should
//!   it return. Main-queue entries carry a saturating two-bit use
//!   counter (exact hits, semantic hits and in-place refreshes count)
//!   and are reinserted at the tail, one use paid, instead of evicted
//!   while it is non-zero. What the traffic re-asks stays; one-hit
//!   wonders pass through a tenth of the cache. The victim is a function
//!   of the operation sequence alone — no random draw, no clock, no
//!   `HashMap` iteration order — so the same operations always leave the
//!   same survivors and cached workloads replay end to end. Every
//!   operation is `O(1)` amortised: queues and posting lists are
//!   intrusive lists through the entry slab, so any entry unlinks
//!   without a scan.
//!
//! All hit/miss/stale traffic is mirrored to `hermes-trace` counters
//! (`cache.hit_exact`, `cache.hit_semantic`, `cache.miss`,
//! `cache.stale`, `cache.evict`) so `hermes stats` and
//! the serving benches see cache behavior next to the engine spans.
//!
//! # Examples
//!
//! ```
//! use hermes_cache::{CacheConfig, SemanticCache};
//!
//! let mut cache: SemanticCache<String> = SemanticCache::new(CacheConfig::default());
//! let q = vec![0.6f32, 0.8];
//! assert!(cache.lookup_exact(&q, 1).is_none());
//! cache.insert(q.clone(), Some(3), 1, "answer".to_string());
//! assert_eq!(cache.lookup_exact(&q, 1), Some(&"answer".to_string()));
//! // A near-duplicate probe in the same routing bucket hits semantically.
//! let near = vec![0.6004f32, 0.7997];
//! let hit = cache.lookup_semantic(&near, Some(3), 1).unwrap();
//! assert_eq!(hit.payload, "answer");
//! // The same entry is stale at any other version.
//! assert!(cache.lookup_exact(&q, 2).is_none());
//! assert_eq!(cache.stats().stale, 1);
//! ```

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use hermes_math::distance::cosine;

/// Knobs of a [`SemanticCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum resident entries; inserting at capacity evicts the
    /// replacement policy's victim first. Must be positive.
    pub capacity: usize,
    /// Cosine similarity at or above which a stored query counts as a
    /// near-duplicate of the probe. Anything above `1.0` disables the
    /// semantic layer (cosine never exceeds 1), leaving exact-only
    /// caching.
    pub semantic_threshold: f32,
    /// Accepted and ignored: replacement draws no random numbers. The
    /// field outlives the seeded-random policy it configured only because
    /// the repo benchmark still sets it (ROADMAP deletion ledger).
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            semantic_threshold: 0.985,
            seed: 0,
        }
    }
}

impl CacheConfig {
    /// Sets the entry capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the near-duplicate cosine threshold.
    pub fn with_semantic_threshold(mut self, threshold: f32) -> Self {
        self.semantic_threshold = threshold;
        self
    }

    /// Disables the semantic layer (exact-key hits only).
    pub fn exact_only(mut self) -> Self {
        self.semantic_threshold = f32::INFINITY;
        self
    }

    /// Accepted and ignored (see [`CacheConfig::seed`]): two caches that
    /// differ only in seed behave identically.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Hit/miss accounting, also mirrored to `hermes-trace` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Exact-key hits (bit-identical payload returns).
    pub exact_hits: u64,
    /// Near-duplicate cosine hits.
    pub semantic_hits: u64,
    /// Lookups that found nothing current.
    pub misses: u64,
    /// Entries evicted because a lookup touched them at the wrong store
    /// version (each also counts toward the miss that triggered it).
    pub stale: u64,
    /// Successful inserts (in-place refreshes included).
    pub insertions: u64,
    /// Capacity evictions (stale evictions are counted separately).
    pub evictions: u64,
}

impl CacheStats {
    /// Total hits across both layers.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.semantic_hits
    }

    /// Lookups that went through the cache (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Hit fraction in `[0, 1]` (`0.0` when no lookups ran).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }
}

/// A semantic-layer hit: the stored payload plus the provenance a caller
/// needs to reason about the approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticHit<T> {
    /// The stored result (exact for `stored_query`, approximate for the
    /// probe).
    pub payload: T,
    /// The query the payload was computed for.
    pub stored_query: Vec<f32>,
    /// Cosine similarity between probe and `stored_query` (≥ the
    /// configured threshold).
    pub similarity: f32,
}

/// "No slot": the end of an intrusive list.
const NIL: usize = usize::MAX;

/// The probationary queue's share of capacity is one part in this many
/// (at least one entry): the S3-FIFO paper's 10 %, small enough that
/// one-hit wonders cost a tenth of the cache, large enough that a repeat
/// usually arrives before its entry reaches the tail.
const SMALL_SHARE: usize = 10;

/// Use-counter ceiling (two bits): however hot an entry was, once the
/// traffic stops asking for it, it outlives at most this many passes of
/// the main queue's head.
const MAX_USES: u8 = 3;

/// The two intrusive lists every resident entry is on, as indices into
/// [`Entry::links`].
const QUEUE: usize = 0;
const BUCKET: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: usize,
    next: usize,
}

/// Ends and length of a doubly linked list threaded through the slab,
/// oldest entry at the head.
#[derive(Debug, Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

#[derive(Debug, Clone)]
struct Entry<T> {
    query: Vec<f32>,
    key: u64,
    bucket: Option<usize>,
    version: u64,
    payload: T,
    /// Hits and refreshes not yet spent: zero on entering a queue, one
    /// spent per reinsertion at the main queue's tail, saturating at
    /// [`MAX_USES`].
    uses: u8,
    /// Which replacement queue holds the entry: main or probationary.
    in_main: bool,
    /// `[QUEUE]`: neighbours in the replacement queue; `[BUCKET]`:
    /// neighbours in the semantic posting list.
    links: [Link; 2],
    /// Next resident entry whose query hashes to the same `key`.
    chain: usize,
}

impl<T> Entry<T> {
    fn used(&mut self) {
        self.uses = (self.uses + 1).min(MAX_USES);
    }
}

/// Key hashes of entries recently evicted from the probationary queue,
/// in eviction order. No query and no payload: eight bytes of history
/// per evicted entry, enough to tell a returning query from a new one.
#[derive(Debug, Default)]
struct Ghost {
    fifo: VecDeque<u64>,
    /// Key → how many pushes preceded its latest one. A `fifo` slot whose
    /// count no longer matches (the key came back, or was pushed again)
    /// is dead and ages out without touching the map.
    stamp: HashMap<u64, u64>,
    pushed: u64,
}

impl Ghost {
    fn push(&mut self, key: u64, capacity: usize) {
        if self.fifo.len() == capacity {
            let oldest_stamp = self.pushed - capacity as u64;
            if let Some(oldest) = self.fifo.pop_front() {
                if self.stamp.get(&oldest) == Some(&oldest_stamp) {
                    self.stamp.remove(&oldest);
                }
            }
        }
        self.stamp.insert(key, self.pushed);
        self.fifo.push_back(key);
        self.pushed += 1;
    }

    /// Forgets `key`, reporting whether it was remembered.
    fn take(&mut self, key: u64) -> bool {
        self.stamp.remove(&key).is_some()
    }
}

/// The two-layer query/result cache. See the crate docs for the design;
/// interior mutability is the caller's concern (the serving layer wraps
/// one in a `Mutex`).
#[derive(Debug)]
pub struct SemanticCache<T> {
    cfg: CacheConfig,
    /// Entry slab; `None` slots are free. Bounded by `cfg.capacity`.
    slots: Vec<Option<Entry<T>>>,
    free: Vec<usize>,
    /// Exact layer: query-bits hash → first slot of its collision chain.
    exact: HashMap<u64, usize>,
    /// ANDed onto every key. All ones, except in the unit test that
    /// narrows it to grow the collision chains 64-bit keys never do.
    key_mask: u64,
    /// Semantic layer: routing top-cluster → posting list, in the order
    /// entries joined the bucket.
    buckets: HashMap<Option<usize>, List>,
    /// Replacement: new entries wait in `small`, proven ones live in
    /// `main`, `ghost` remembers who left `small` unproven.
    small: List,
    main: List,
    ghost: Ghost,
    stats: CacheStats,
}

/// Bit-pattern equality: the exact layer's notion of "same query".
/// Stricter than `==` for zeros (`0.0` ≠ `-0.0`) and — unlike `==` —
/// reflexive for NaNs, so a byte-identical replay always hits.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Hash of the query's f32 bit patterns and length: deterministic across
/// runs and platforms (fixed constants, no `DefaultHasher` seed),
/// collision-checked at lookup with [`same_bits`]. Four multiply chains
/// take every fourth word each, so the multiplier's latency overlaps
/// across lanes instead of serialising per byte — the key is hashed on
/// every lookup and insert and was the hit path's largest cost. Every
/// step is a bijection of its lane for a fixed input word and of the
/// word for a fixed lane, and so is the fold, so two queries that differ
/// in one word (`0.0` vs `-0.0`, any single bit) never share a key.
fn query_key(query: &[f32]) -> u64 {
    const ODD: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xD6E8_FEB8_6659_FD93,
    ];
    // The rotate brings the multiply's well-mixed high bits under the
    // next word.
    let step = |h: u64, word: u64, odd: u64| (h ^ word).wrapping_mul(odd).rotate_left(29);
    let mut lanes = ODD;
    let mut quads = query.chunks_exact(4);
    for quad in &mut quads {
        for ((lane, v), odd) in lanes.iter_mut().zip(quad).zip(ODD) {
            *lane = step(*lane, u64::from(v.to_bits()), odd);
        }
    }
    for ((lane, v), odd) in lanes.iter_mut().zip(quads.remainder()).zip(ODD) {
        *lane = step(*lane, u64::from(v.to_bits()), odd);
    }
    let mut h = query.len() as u64;
    for (lane, odd) in lanes.into_iter().zip(ODD) {
        h = step(h, lane, odd);
    }
    h ^ (h >> 32)
}

fn entry<T>(slots: &[Option<Entry<T>>], i: usize) -> &Entry<T> {
    slots[i].as_ref().expect("linked slot is occupied")
}

fn entry_mut<T>(slots: &mut [Option<Entry<T>>], i: usize) -> &mut Entry<T> {
    slots[i].as_mut().expect("linked slot is occupied")
}

/// Appends slot `i` at the tail (newest end) of `list`.
fn push_back<T>(slots: &mut [Option<Entry<T>>], list: &mut List, which: usize, i: usize) {
    entry_mut(slots, i).links[which] = Link {
        prev: list.tail,
        next: NIL,
    };
    match list.tail {
        NIL => list.head = i,
        tail => entry_mut(slots, tail).links[which].next = i,
    }
    list.tail = i;
    list.len += 1;
}

/// Unlinks slot `i` from anywhere in `list`.
fn unlink<T>(slots: &mut [Option<Entry<T>>], list: &mut List, which: usize, i: usize) {
    let Link { prev, next } = entry(slots, i).links[which];
    match prev {
        NIL => list.head = next,
        prev => entry_mut(slots, prev).links[which].next = next,
    }
    match next {
        NIL => list.tail = prev,
        next => entry_mut(slots, next).links[which].prev = prev,
    }
    list.len -= 1;
}

impl<T: Clone> SemanticCache<T> {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.capacity` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.capacity > 0, "cache capacity must be positive");
        SemanticCache {
            slots: Vec::new(),
            free: Vec::new(),
            exact: HashMap::new(),
            key_mask: u64::MAX,
            buckets: HashMap::new(),
            small: List::EMPTY,
            main: List::EMPTY,
            ghost: Ghost::default(),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The configuration this cache runs.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether the semantic layer is active.
    pub fn semantic_enabled(&self) -> bool {
        self.cfg.semantic_threshold <= 1.0
    }

    /// **Layer 1:** looks up `query` by its exact bit pattern at store
    /// `version`. A version-mismatched entry is evicted and counted as
    /// stale, not served. Counts a hit on success and **nothing** on
    /// miss — the caller decides whether a semantic lookup follows, and
    /// reports the final miss via [`SemanticCache::note_miss`] (or by
    /// calling [`SemanticCache::lookup_semantic`], which counts it).
    pub fn lookup_exact(&mut self, query: &[f32], version: u64) -> Option<&T> {
        let i = self.find(self.key_of(query), query)?;
        if entry(&self.slots, i).version != version {
            self.evict_slot(i, true);
            return None;
        }
        self.stats.exact_hits += 1;
        hermes_trace::counter(hermes_trace::names::CACHE_HIT_EXACT, 1);
        let hit = entry_mut(&mut self.slots, i);
        hit.used();
        Some(&hit.payload)
    }

    /// **Layer 2:** scans the `bucket` posting list for the stored query
    /// most cosine-similar to the probe; a hit needs similarity ≥ the
    /// configured threshold **and** a matching `version`. Stale entries
    /// touched by the scan are evicted; ties prefer the entry that joined
    /// the bucket first. Counts a semantic hit or a miss — call it after
    /// [`SemanticCache::lookup_exact`] returned `None`.
    pub fn lookup_semantic(
        &mut self,
        query: &[f32],
        bucket: Option<usize>,
        version: u64,
    ) -> Option<SemanticHit<T>> {
        if !self.semantic_enabled() {
            self.note_miss();
            return None;
        }
        let mut best: Option<(usize, f32)> = None;
        let mut i = self.buckets.get(&bucket).map_or(NIL, |list| list.head);
        while i != NIL {
            let candidate = entry(&self.slots, i);
            let next = candidate.links[BUCKET].next;
            if candidate.query.len() == query.len() {
                let sim = cosine(query, &candidate.query);
                if sim >= self.cfg.semantic_threshold {
                    if candidate.version != version {
                        self.evict_slot(i, true);
                    } else if best.is_none_or(|(_, s)| sim > s) {
                        // Strictly-greater keeps the earliest joiner on
                        // ties: the list is walked oldest first.
                        best = Some((i, sim));
                    }
                }
            }
            i = next;
        }
        match best {
            Some((i, similarity)) => {
                self.stats.semantic_hits += 1;
                hermes_trace::counter(hermes_trace::names::CACHE_HIT_SEMANTIC, 1);
                let hit = entry_mut(&mut self.slots, i);
                hit.used();
                Some(SemanticHit {
                    payload: hit.payload.clone(),
                    stored_query: hit.query.clone(),
                    similarity,
                })
            }
            None => {
                self.note_miss();
                None
            }
        }
    }

    /// Records the miss of a lookup that ended after the exact layer
    /// (when the semantic layer was skipped entirely).
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
        hermes_trace::counter(hermes_trace::names::CACHE_MISS, 1);
    }

    /// Inserts (or refreshes) the result for `query`, computed at store
    /// `version` and routed to `bucket`. An existing entry for the same
    /// bits is replaced in place (whatever its version — the new result
    /// supersedes it) and counts as a use of it; otherwise, at capacity,
    /// the replacement policy's victim is evicted first, and the new
    /// entry starts in the main queue if its key is remembered from a
    /// recent probationary eviction, in the probationary queue if not.
    pub fn insert(&mut self, query: Vec<f32>, bucket: Option<usize>, version: u64, payload: T) {
        let key = self.key_of(&query);
        self.stats.insertions += 1;
        if let Some(i) = self.find(key, &query) {
            if entry(&self.slots, i).bucket != bucket {
                self.unlink_bucket(i);
                entry_mut(&mut self.slots, i).bucket = bucket;
                self.link_bucket(i);
            }
            let e = entry_mut(&mut self.slots, i);
            e.version = version;
            e.payload = payload;
            e.used();
            return;
        }
        if self.len() == self.cfg.capacity {
            self.evict_one();
        }
        let in_main = self.ghost.take(key);
        let unlinked = Link {
            prev: NIL,
            next: NIL,
        };
        let e = Entry {
            query,
            key,
            bucket,
            version,
            payload,
            uses: 0,
            in_main,
            links: [unlinked; 2],
            chain: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(e);
                i
            }
            None => {
                self.slots.push(Some(e));
                self.slots.len() - 1
            }
        };
        if let Some(head) = self.exact.insert(key, i) {
            entry_mut(&mut self.slots, i).chain = head;
        }
        self.link_bucket(i);
        let queue = if in_main {
            &mut self.main
        } else {
            &mut self.small
        };
        push_back(&mut self.slots, queue, QUEUE, i);
    }

    /// Drops every resident entry and the replacement history
    /// (accounting is preserved).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.exact.clear();
        self.buckets.clear();
        self.small = List::EMPTY;
        self.main = List::EMPTY;
        self.ghost = Ghost::default();
    }

    /// Checks every internal structure against every other — slab, free
    /// list, both replacement queues, posting lists, collision chains,
    /// ghost — and describes the first inconsistency. For tests and
    /// debugging; `O(len)`.
    pub fn validate(&self) -> Result<(), String> {
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != self.len() || self.free.iter().any(|&i| self.slots[i].is_some()) {
            return Err(format!("{occupied} occupied slots, len {}", self.len()));
        }
        if self.len() > self.cfg.capacity {
            return Err(format!("len {} over capacity", self.len()));
        }
        let occupied = |i: usize| {
            self.slots
                .get(i)
                .and_then(Option::as_ref)
                .ok_or("dangling link")
        };
        // Every list must visit `len` distinct occupied slots in total,
        // each with the right membership, through consistent links.
        let walk = |list: &List, which: usize, owns: &dyn Fn(&Entry<T>) -> bool| {
            let (mut i, mut prev, mut n) = (list.head, NIL, 0usize);
            while i != NIL {
                let e = occupied(i)?;
                if e.links[which].prev != prev || !owns(e) || e.uses > MAX_USES {
                    return Err("entry on the wrong list or back link broken");
                }
                n += 1;
                if n > self.len() {
                    return Err("list cycles");
                }
                (prev, i) = (i, e.links[which].next);
            }
            if prev != list.tail || n != list.len {
                return Err("list tail or length wrong");
            }
            Ok(n)
        };
        let queued =
            walk(&self.small, QUEUE, &|e| !e.in_main)? + walk(&self.main, QUEUE, &|e| e.in_main)?;
        let mut bucketed = 0;
        for (bucket, list) in &self.buckets {
            let n = walk(list, BUCKET, &|e| e.bucket == *bucket)?;
            if n == 0 {
                return Err("empty posting list kept".into());
            }
            bucketed += n;
        }
        let mut chained = 0;
        for (&key, &head) in &self.exact {
            let mut i = head;
            while i != NIL {
                let e = occupied(i)?;
                if e.key != key || chained >= self.len() {
                    return Err("collision chain holds a foreign key or cycles".into());
                }
                chained += 1;
                i = e.chain;
            }
        }
        if [queued, bucketed, chained] != [self.len(); 3] {
            return Err(format!(
                "len {} but {queued} queued, {bucketed} bucketed, {chained} chained",
                self.len()
            ));
        }
        if self.ghost.fifo.len() > self.cfg.capacity
            || self.ghost.stamp.len() > self.ghost.fifo.len()
        {
            return Err("ghost outgrew its bound".into());
        }
        Ok(())
    }

    fn key_of(&self, query: &[f32]) -> u64 {
        query_key(query) & self.key_mask
    }

    /// The resident slot holding exactly `query`'s bits, if any.
    fn find(&self, key: u64, query: &[f32]) -> Option<usize> {
        let mut i = *self.exact.get(&key)?;
        while i != NIL {
            let e = entry(&self.slots, i);
            if same_bits(&e.query, query) {
                return Some(i);
            }
            i = e.chain;
        }
        None
    }

    /// Makes room for one entry — S3-FIFO. While the probationary queue
    /// is at its share it gives up its oldest entry: re-asked since it
    /// arrived (the request that admitted it being the first), the entry
    /// moves to the main queue and the search goes on; otherwise it is
    /// the victim and the ghost remembers its key. Else the main queue's
    /// oldest entry is the victim unless it has uses to spend, in which
    /// case it pays one and goes round again. No randomness, no clock:
    /// the victim is a function of the operation history alone. Each
    /// step either evicts, shortens the probationary queue or spends a
    /// use some earlier hit paid for, so the loop is `O(1)` amortised.
    fn evict_one(&mut self) {
        let small_share = (self.cfg.capacity / SMALL_SHARE).max(1);
        loop {
            let probation = self.small.len >= small_share || self.main.len == 0;
            let i = if probation {
                self.small.head
            } else {
                self.main.head
            };
            let e = entry_mut(&mut self.slots, i);
            if e.uses == 0 {
                if probation {
                    self.ghost.push(e.key, self.cfg.capacity);
                }
                return self.evict_slot(i, false);
            }
            // Survives: promoted with a clean slate, or once more round
            // the main queue for one use.
            e.uses = if probation { 0 } else { e.uses - 1 };
            self.unqueue(i);
            entry_mut(&mut self.slots, i).in_main = true;
            push_back(&mut self.slots, &mut self.main, QUEUE, i);
        }
    }

    /// Unlinks slot `i` from the replacement queue it is on.
    fn unqueue(&mut self, i: usize) {
        let queue = if entry(&self.slots, i).in_main {
            &mut self.main
        } else {
            &mut self.small
        };
        unlink(&mut self.slots, queue, QUEUE, i);
    }

    /// Removes slot `i` from every structure, as a stale (version)
    /// eviction or a capacity one.
    fn evict_slot(&mut self, i: usize, stale: bool) {
        self.unlink_bucket(i);
        self.unqueue(i);
        let gone = self.slots[i].take().expect("evicted slot is occupied");
        // Collision chains are one entry long unless two resident queries
        // share a 64-bit key, so this walk is O(1).
        match self.exact.entry(gone.key) {
            MapEntry::Occupied(head) if *head.get() == i && gone.chain == NIL => {
                head.remove();
            }
            MapEntry::Occupied(mut head) if *head.get() == i => *head.get_mut() = gone.chain,
            MapEntry::Occupied(head) => {
                let mut j = *head.get();
                while entry(&self.slots, j).chain != i {
                    j = entry(&self.slots, j).chain;
                }
                entry_mut(&mut self.slots, j).chain = gone.chain;
            }
            MapEntry::Vacant(_) => unreachable!("resident key is indexed"),
        }
        self.free.push(i);
        if stale {
            self.stats.stale += 1;
            hermes_trace::counter(hermes_trace::names::CACHE_STALE, 1);
        } else {
            self.stats.evictions += 1;
            hermes_trace::counter(hermes_trace::names::CACHE_EVICT, 1);
        }
    }

    fn link_bucket(&mut self, i: usize) {
        let bucket = entry(&self.slots, i).bucket;
        let list = self.buckets.entry(bucket).or_insert(List::EMPTY);
        push_back(&mut self.slots, list, BUCKET, i);
    }

    fn unlink_bucket(&mut self, i: usize) {
        let bucket = entry(&self.slots, i).bucket;
        let list = self
            .buckets
            .get_mut(&bucket)
            .expect("resident bucket is indexed");
        unlink(&mut self.slots, list, BUCKET, i);
        if list.len == 0 {
            self.buckets.remove(&bucket);
        }
    }
}

/// Locks a shared cache whatever happened to an earlier holder of the
/// lock. A panic under it may have stopped an update half-way, but the
/// contents are only ever a shortcut to what the caller recomputes: a
/// poisoned cache is emptied (accounting kept), the poison flag cleared,
/// and serving goes on as misses instead of failing every later request.
pub fn lock_recovering<T: Clone>(
    cache: &Mutex<SemanticCache<T>>,
) -> MutexGuard<'_, SemanticCache<T>> {
    cache.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        guard.clear();
        cache.clear_poison();
        guard
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(theta: f32) -> Vec<f32> {
        vec![theta.cos(), theta.sin()]
    }

    #[test]
    fn exact_hit_returns_stored_payload() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default());
        let q = vec![1.0f32, 2.0, 3.0];
        assert!(c.lookup_exact(&q, 7).is_none());
        c.insert(q.clone(), Some(0), 7, 42);
        assert_eq!(c.lookup_exact(&q, 7), Some(&42));
        assert_eq!(c.stats().exact_hits, 1);
        // A ==-equal but bit-different query (negative zero) is not an
        // exact hit.
        c.insert(vec![0.0f32], Some(0), 7, 9);
        let neg = vec![-0.0f32];
        assert_eq!(neg[0], 0.0f32);
        assert!(c.lookup_exact(&neg, 7).is_none());
    }

    #[test]
    fn semantic_hit_respects_threshold_and_bucket() {
        let cfg = CacheConfig::default().with_semantic_threshold(0.999);
        let mut c: SemanticCache<&str> = SemanticCache::new(cfg);
        c.insert(unit(0.00), Some(1), 0, "a");
        // Within threshold, same bucket: hit with provenance.
        let hit = c.lookup_semantic(&unit(0.01), Some(1), 0).unwrap();
        assert_eq!(hit.payload, "a");
        assert_eq!(hit.stored_query, unit(0.00));
        assert!(hit.similarity >= 0.999);
        // Same vector, wrong bucket: miss (buckets are hard partitions).
        assert!(c.lookup_semantic(&unit(0.01), Some(2), 0).is_none());
        // Same bucket, too far: miss.
        assert!(c.lookup_semantic(&unit(0.5), Some(1), 0).is_none());
        assert_eq!(c.stats().semantic_hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn semantic_picks_the_most_similar_candidate() {
        let cfg = CacheConfig::default().with_semantic_threshold(0.9);
        let mut c: SemanticCache<&str> = SemanticCache::new(cfg);
        c.insert(unit(0.30), None, 0, "far");
        c.insert(unit(0.02), None, 0, "near");
        let hit = c.lookup_semantic(&unit(0.0), None, 0).unwrap();
        assert_eq!(hit.payload, "near");
    }

    #[test]
    fn version_mismatch_is_stale_not_served() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default());
        let q = unit(0.2);
        c.insert(q.clone(), Some(0), 1, 10);
        // Exact lookup at a newer version: stale-evicted, then truly gone.
        assert!(c.lookup_exact(&q, 2).is_none());
        assert_eq!(c.stats().stale, 1);
        assert!(c.is_empty());
        assert!(c.lookup_exact(&q, 1).is_none());

        // Semantic path: same behavior.
        c.insert(q.clone(), Some(0), 1, 11);
        assert!(c.lookup_semantic(&q, Some(0), 3).is_none());
        assert_eq!(c.stats().stale, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_refreshes_version_in_place() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default());
        let q = unit(0.4);
        c.insert(q.clone(), Some(0), 1, 10);
        c.insert(q.clone(), Some(2), 5, 20);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup_exact(&q, 5), Some(&20));
        // The bucket moved with the refresh.
        assert!(c.lookup_semantic(&q, Some(0), 5).is_none());
        let hit = c.lookup_semantic(&q, Some(2), 5).unwrap();
        assert_eq!(hit.payload, 20);
    }

    #[test]
    fn capacity_eviction_is_bounded_and_deterministic() {
        let run = |seed: u64| -> Vec<Option<u32>> {
            let cfg = CacheConfig::default().with_capacity(8).with_seed(seed);
            let mut c: SemanticCache<u32> = SemanticCache::new(cfg);
            for i in 0..50u32 {
                c.insert(vec![i as f32, 1.0], Some(i as usize % 3), 0, i);
                // Every fifth query is re-asked: its entry earns a use.
                let _ = c.lookup_exact(&[(i / 5 * 5) as f32, 1.0], 0);
                assert!(c.len() <= 8);
                c.validate().unwrap();
            }
            (0..50u32)
                .map(|i| c.lookup_exact(&[i as f32, 1.0], 0).copied())
                .collect()
        };
        let survivors = run(7);
        assert_eq!(survivors.iter().flatten().count(), 8);
        assert_eq!(survivors, run(7), "same history, same survivors");
        assert_eq!(survivors, run(8), "the seed is ignored: no randomness left");
        // Replacement is not plain FIFO: a re-asked query outlives
        // never-repeated ones inserted after it.
        let oldest = survivors.iter().position(Option::is_some).unwrap();
        assert_eq!(oldest % 5, 0, "oldest survivor {oldest} was re-asked");
        assert!(oldest < 42, "FIFO would keep only 42..50");
    }

    /// Lookup-then-insert-on-miss, the serving layer's use of the cache;
    /// reports whether `key` hit.
    fn request(c: &mut SemanticCache<u64>, key: u64) -> bool {
        let q = [key as f32, 1.0];
        let hit = c.lookup_exact(&q, 0).is_some();
        if !hit {
            c.note_miss();
            c.insert(q.to_vec(), Some(key as usize % 7), 0, key);
        }
        hit
    }

    #[test]
    fn zipf_stream_hit_ratio_clears_the_floor_and_lru() {
        // The shape of the benchmark's `zipf_cached_open`, from cold.
        let (pool, capacity, draws) = (4096, 1024, 12_000);
        let zipf = hermes_datagen::ZipfSampler::new(pool, 1.0);
        let mut rng = hermes_math::rng::seeded_rng(0x5A49_5046);
        let mut cache = SemanticCache::new(CacheConfig::default().with_capacity(capacity));
        let mut lru = hermes_datagen::LruModel::new(capacity);
        let (mut hits, mut lru_hits) = (0, 0);
        for _ in 0..draws {
            let key = zipf.sample(&mut rng) as u64;
            hits += usize::from(request(&mut cache, key));
            lru_hits += usize::from(lru.request(key));
        }
        cache.validate().unwrap();
        assert_eq!(cache.stats().exact_hits, hits as u64);
        let (ratio, lru_ratio) = (hits as f64 / draws as f64, lru_hits as f64 / draws as f64);
        assert!(ratio >= 0.755, "hit ratio {ratio:.4} below the 0.755 floor");
        assert!(
            ratio >= lru_ratio,
            "hit ratio {ratio:.4} below LRU's {lru_ratio:.4}"
        );
    }

    #[test]
    fn a_scan_of_one_hit_wonders_does_not_flush_the_hot_set() {
        // Every third request is a key never asked again; the rest are
        // Zipf over a pool the cache could almost hold.
        let (pool, capacity, draws) = (512, 256, 9_000);
        let zipf = hermes_datagen::ZipfSampler::new(pool, 1.0);
        let mut rng = hermes_math::rng::seeded_rng(0x5343_414E);
        let mut cache = SemanticCache::new(CacheConfig::default().with_capacity(capacity));
        let mut lru = hermes_datagen::LruModel::new(capacity);
        let (mut hot, mut hits, mut lru_hits) = (0, 0, 0);
        for t in 0..draws {
            if t % 3 == 2 {
                assert!(!request(&mut cache, (pool + t) as u64));
                assert!(!lru.request((pool + t) as u64));
                continue;
            }
            let key = zipf.sample(&mut rng) as u64;
            hot += 1;
            hits += usize::from(request(&mut cache, key));
            lru_hits += usize::from(lru.request(key));
        }
        cache.validate().unwrap();
        let (ratio, lru_ratio) = (hits as f64 / hot as f64, lru_hits as f64 / hot as f64);
        assert!(
            ratio > lru_ratio,
            "hot-set hit ratio {ratio:.4} not above LRU's {lru_ratio:.4}"
        );
    }

    #[test]
    fn colliding_keys_chain_and_unchain_without_mixing_queries_up() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default().with_capacity(8));
        c.key_mask = 1; // two chains for everything
        let mut rng = hermes_math::rng::seeded_rng(0x4348_4149);
        let mut latest: HashMap<u32, (u64, u32)> = HashMap::new();
        for step in 0..2000u32 {
            let k = rng.gen_range(0..24u32);
            let version = u64::from(step / 500);
            match c.lookup_exact(&[k as f32, 1.0], version).copied() {
                Some(payload) => assert_eq!(latest[&k], (version, payload)),
                None => {
                    c.insert(vec![k as f32, 1.0], Some(k as usize % 3), version, step);
                    latest.insert(k, (version, step));
                }
            }
            c.validate().unwrap();
        }
        assert_eq!(c.len(), 8);
        let s = c.stats();
        assert!(s.exact_hits > 0 && s.evictions > 0 && s.stale > 0);
        let resident = (0..24u32)
            .filter(|&k| c.lookup_exact(&[k as f32, 1.0], latest[&k].0).is_some())
            .count();
        assert_eq!(resident, 8);
    }

    #[test]
    fn exact_only_mode_never_hits_semantically() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default().exact_only());
        let q = unit(0.1);
        c.insert(q.clone(), Some(0), 0, 1);
        assert!(!c.semantic_enabled());
        assert!(c.lookup_semantic(&q, Some(0), 0).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.lookup_exact(&q, 0), Some(&1));
    }

    #[test]
    fn nan_queries_never_hit_semantically() {
        let cfg = CacheConfig::default().with_semantic_threshold(0.5);
        let mut c: SemanticCache<u32> = SemanticCache::new(cfg);
        c.insert(vec![f32::NAN, 1.0], None, 0, 1);
        assert!(c.lookup_semantic(&[f32::NAN, 1.0], None, 0).is_none());
        assert!(c.lookup_semantic(&[0.5, 1.0], None, 0).is_none());
        // The NaN entry is still an exact-bits hit (same bit pattern).
        assert_eq!(c.lookup_exact(&[f32::NAN, 1.0], 0), Some(&1));
    }

    #[test]
    fn dimension_mismatch_skipped_in_semantic_scan() {
        let cfg = CacheConfig::default().with_semantic_threshold(0.5);
        let mut c: SemanticCache<u32> = SemanticCache::new(cfg);
        c.insert(vec![1.0, 0.0, 0.0], None, 0, 1);
        assert!(c.lookup_semantic(&[1.0, 0.0], None, 0).is_none());
    }

    #[test]
    fn stats_roll_up_consistently() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default());
        let q = unit(0.3);
        c.insert(q.clone(), Some(0), 0, 1);
        let _ = c.lookup_exact(&q, 0); // exact hit
        let _ = c.lookup_semantic(&unit(1.5), Some(0), 0); // miss
        let s = c.stats();
        assert_eq!(s.hits(), 1);
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn clear_empties_but_keeps_accounting() {
        let mut c: SemanticCache<u32> = SemanticCache::new(CacheConfig::default());
        c.insert(unit(0.1), None, 0, 1);
        let _ = c.lookup_exact(&unit(0.1), 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().exact_hits, 1);
        assert!(c.lookup_exact(&unit(0.1), 0).is_none());
    }

    #[test]
    fn query_key_is_stable_and_bit_sensitive() {
        let a = query_key(&[1.0, 2.0]);
        assert_eq!(a, query_key(&[1.0, 2.0]));
        assert_ne!(a, query_key(&[2.0, 1.0]));
        assert_ne!(query_key(&[0.0]), query_key(&[-0.0]));
        assert_ne!(query_key(&[]), query_key(&[0.0]));
        // Length is part of the key even when the extra words are zero bits.
        assert_ne!(query_key(&[1.0; 4]), query_key(&[1.0, 1.0, 1.0, 1.0, 0.0]));
        assert_eq!(query_key(&[f32::NAN, 1.0]), query_key(&[f32::NAN, 1.0]));
        // Pinned: the key must not drift across runs, platforms or PRs.
        assert_eq!(query_key(&[1.0, 2.0, 3.0, 4.0, 5.0]), 0x017A_7B95_FEB6_2455);
    }

    #[test]
    fn query_key_has_no_collisions_over_a_pool_or_single_bit_flips() {
        let mut rng = hermes_math::rng::seeded_rng(0x4B45_5953);
        let pool: Vec<Vec<f32>> = (0..4096)
            .map(|_| (0..64).map(|_| rng.next_f32() - 0.5).collect())
            .collect();
        let mut keys: Vec<u64> = pool.iter().map(|q| query_key(q)).collect();
        // Every single-bit flip of one query, at a length with a ragged tail.
        let base = &pool[0][..63];
        keys.push(query_key(base));
        for word in 0..base.len() {
            for bit in 0..32 {
                let mut q = base.to_vec();
                q[word] = f32::from_bits(q[word].to_bits() ^ (1 << bit));
                keys.push(query_key(&q));
            }
        }
        let total = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), total, "query_key collided");
    }
}
