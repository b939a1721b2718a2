//! Model check of [`SemanticCache`] on `hermes-testkit`: random
//! sequences of `insert` / `lookup_exact` / `lookup_semantic` / version
//! bumps / `clear`, replayed at capacities 1, 2, 8 and 64 against a naive
//! model that knows nothing about the replacement policy.
//!
//! The model is the set of entries that *may* be resident (everything
//! inserted and not since invalidated); the cache's residents are always
//! a subset of it, and exactly it at capacity 64, which holds the whole
//! 24-query universe. Against it the cache must never serve a payload or
//! version the model does not hold, must account for every entry it
//! drops, and must stay internally consistent
//! ([`SemanticCache::validate`]) after every single operation.

use std::collections::HashMap;

use hermes_cache::{CacheConfig, CacheStats, SemanticCache};
use hermes_math::distance::cosine;
use hermes_testkit::prelude::*;

const UNIVERSE: usize = 24;
const THRESHOLD: f32 = 0.999;

/// Six directions 0.3 rad apart (far below the threshold from each
/// other), four queries around each: the direction itself, the same
/// vector doubled (an exact cosine tie with the first for every probe),
/// and two more within the threshold at distinct similarities.
fn query(key: usize) -> Vec<f32> {
    let (theta, scale) = match key % 4 {
        0 => (0.0, 1.0),
        1 => (0.0, 2.0),
        2 => (0.005, 1.0),
        _ => (0.02, 1.0),
    };
    let angle = (key / 4) as f32 * 0.3 + theta;
    vec![scale * angle.cos(), scale * angle.sin()]
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Held {
    version: u64,
    bucket: Option<usize>,
    payload: u64,
    /// When the entry joined `bucket` (the semantic tie-break).
    joined: u64,
}

/// One operation: `(opcode, key, bucket choice)`.
type Op = (usize, usize, usize);

fn bucket_of(choice: usize) -> Option<usize> {
    (choice > 0).then_some(choice)
}

/// Replays `ops` on a cache of `capacity`, checking every step; returns
/// the keys still resident at the end and the final accounting.
fn replay(ops: &[Op], capacity: usize, seed: u64) -> Result<(Vec<usize>, CacheStats), String> {
    let cfg = CacheConfig::default()
        .with_capacity(capacity)
        .with_semantic_threshold(THRESHOLD)
        .with_seed(seed);
    let mut cache: SemanticCache<u64> = SemanticCache::new(cfg);
    let mut model: HashMap<usize, Held> = HashMap::new();
    let exact_model = capacity >= UNIVERSE;
    let mut version = 0u64;
    // Entries created since the last `clear`, and the counters then.
    let (mut created, mut at_clear) = (0u64, CacheStats::default());
    let mut want = CacheStats::default();

    for (step, &(opcode, key, choice)) in ops.iter().enumerate() {
        let (q, bucket) = (query(key), bucket_of(choice));
        match opcode {
            0..=5 => {
                let before = cache.len() as u64 + cache.stats().evictions;
                cache.insert(q, bucket, version, step as u64);
                let grew = cache.len() as u64 + cache.stats().evictions - before;
                prop_assert!(grew <= 1, "insert created {grew} entries");
                prop_assert!(
                    grew == 1 || model.contains_key(&key),
                    "refreshed a non-resident"
                );
                prop_assert!(grew == 0 || !exact_model || !model.contains_key(&key));
                created += grew;
                want.insertions += 1;
                let joined = match model.get(&key) {
                    Some(held) if grew == 0 && held.bucket == bucket => held.joined,
                    _ => step as u64,
                };
                model.insert(
                    key,
                    Held {
                        version,
                        bucket,
                        payload: step as u64,
                        joined,
                    },
                );
            }
            6..=10 => match cache.lookup_exact(&q, version).copied() {
                Some(payload) => {
                    want.exact_hits += 1;
                    let held = model.get(&key).ok_or("served a query the model dropped")?;
                    prop_assert_eq!((held.version, held.payload), (version, payload));
                }
                None => {
                    // Stale-evicted just now, capacity-evicted earlier, or
                    // never there: in every case not resident any more.
                    let held = model.remove(&key);
                    prop_assert!(
                        !exact_model || held.is_none_or(|h| h.version != version),
                        "missed a resident entry"
                    );
                }
            },
            11..=13 => {
                // What the model allows: same bucket, within the
                // threshold, current version; among those the most
                // similar, the earliest joiner on ties. Stale candidates
                // within the threshold are evicted by the scan.
                let mut best: Option<(usize, f32, u64)> = None;
                let mut stale = Vec::new();
                for (&k, held) in &model {
                    let sim = cosine(&q, &query(k));
                    let candidate = held.bucket == bucket && sim >= THRESHOLD;
                    if candidate && held.version != version {
                        stale.push(k);
                    } else if candidate
                        && best.is_none_or(|(_, s, j)| sim > s || (sim == s && held.joined < j))
                    {
                        best = Some((k, sim, held.joined));
                    }
                }
                for k in stale {
                    model.remove(&k);
                }
                let got = cache.lookup_semantic(&q, bucket, version);
                match &got {
                    Some(hit) => {
                        want.semantic_hits += 1;
                        let k = (0..UNIVERSE)
                            .find(|&k| {
                                query(k)
                                    .iter()
                                    .zip(&hit.stored_query)
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                            })
                            .ok_or("served a query nobody inserted")?;
                        let held = model.get(&k).ok_or("served a query the model dropped")?;
                        prop_assert_eq!(
                            (held.version, held.bucket, held.payload),
                            (version, bucket, hit.payload)
                        );
                        prop_assert_eq!(
                            hit.similarity.to_bits(),
                            cosine(&q, &hit.stored_query).to_bits()
                        );
                        prop_assert!(hit.similarity >= THRESHOLD);
                    }
                    None => want.misses += 1,
                }
                if exact_model {
                    let want_hit =
                        best.map(|(k, sim, _)| (model[&k].payload, query(k), sim.to_bits()));
                    let got_hit = got.map(|h| (h.payload, h.stored_query, h.similarity.to_bits()));
                    prop_assert_eq!(got_hit, want_hit);
                }
            }
            14 => version += 1,
            _ => {
                cache.clear();
                model.clear();
                prop_assert!(cache.is_empty());
                (created, at_clear) = (0, cache.stats());
            }
        }

        cache
            .validate()
            .map_err(|e| format!("step {step} {:?}: {e}", ops[step]))?;
        let stats = cache.stats();
        prop_assert!(cache.len() <= capacity && cache.len() <= model.len());
        prop_assert!(!exact_model || (cache.len() == model.len() && stats.evictions == 0));
        let dropped = (stats.evictions - at_clear.evictions) + (stats.stale - at_clear.stale);
        prop_assert_eq!(created - dropped, cache.len() as u64);
        prop_assert_eq!(
            (
                stats.insertions,
                stats.exact_hits,
                stats.semantic_hits,
                stats.misses
            ),
            (
                want.insertions,
                want.exact_hits,
                want.semantic_hits,
                want.misses
            )
        );
    }

    // Every resident entry is an exact hit at the version the model
    // holds for it, and nothing else is.
    let resident = cache.len();
    let survivors: Vec<usize> = (0..UNIVERSE)
        .filter(|&k| {
            let at = model.get(&k).map_or(version, |held| held.version);
            cache.lookup_exact(&query(k), at).is_some()
        })
        .collect();
    prop_assert_eq!(survivors.len(), resident);
    prop_assert_eq!(cache.len(), resident);
    Ok((survivors, cache.stats()))
}

#[test]
fn random_operation_sequences_agree_with_the_model_at_every_capacity() {
    let op = tuple3(usize_in(0..16), usize_in(0..UNIVERSE), usize_in(0..3));
    check(
        "random_operation_sequences_agree_with_the_model_at_every_capacity",
        &vec_of(op, 0..240),
        |ops| {
            for capacity in [1, 2, 8, 64] {
                let run =
                    replay(ops, capacity, 7).map_err(|e| format!("capacity {capacity}: {e}"))?;
                // The seed is accepted and ignored: survivors and
                // accounting are a function of the operations alone.
                prop_assert_eq!(&run, &replay(ops, capacity, 8)?);
            }
            Ok(())
        },
    );
}
