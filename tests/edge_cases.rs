//! Failure injection and boundary conditions across the stack.

use hermes::index::{CoarseKeys, ScanResult};
use hermes::kmeans::{probe_key_centroid, select_nearest};
use hermes::prelude::*;

#[test]
fn single_document_corpus_is_servable() {
    let data = Mat::from_rows(&[vec![1.0, 0.0, 0.0, 0.0]]);
    let cfg = HermesConfig::new(1)
        .with_clusters_to_search(1)
        .with_k(1)
        .with_seed(1);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let out = store.hierarchical_search(&[1.0, 0.0, 0.0, 0.0]).unwrap();
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].id, 0);
}

#[test]
fn more_clusters_than_documents_degrades_gracefully() {
    let data = Mat::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 0.0]]);
    let cfg = HermesConfig::new(8)
        .with_clusters_to_search(2)
        .with_k(2)
        .with_metric(Metric::L2)
        .with_seed(2);
    // num_clusters is clamped to the document count inside the build.
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    assert!(store.num_clusters() <= 3);
    let out = store.hierarchical_search(&[0.1, 0.1]).unwrap();
    assert_eq!(out.hits[0].id, 0);
}

#[test]
fn k_exceeding_cluster_contents_returns_what_exists() {
    let data = Mat::from_rows(&(0..12).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
    let cfg = HermesConfig::new(4)
        .with_clusters_to_search(1)
        .with_k(10)
        .with_seed(3);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let out = store.hierarchical_search(&[0.0, 0.0]).unwrap();
    assert!(!out.hits.is_empty());
    assert!(out.hits.len() <= 10);
}

#[test]
fn duplicate_documents_yield_deterministic_ordering() {
    let data = Mat::from_rows(&vec![vec![1.0, 1.0]; 20]);
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(2)
        .with_k(5)
        .with_seed(4);
    let store = ClusteredStore::build(&data, &cfg).unwrap();
    let a = store.hierarchical_search(&[1.0, 1.0]).unwrap();
    let b = store.hierarchical_search(&[1.0, 1.0]).unwrap();
    assert_eq!(a.hits, b.hits);
    // Ties broken by id: the lowest ids win.
    let ids: Vec<u64> = a.hits.iter().map(|n| n.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
}

#[test]
fn zero_vector_query_is_handled() {
    let corpus = Corpus::generate(CorpusSpec::new(200, 8, 4).with_seed(5));
    let cfg = HermesConfig::new(4).with_clusters_to_search(2).with_seed(6);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let out = store.hierarchical_search(&[0.0; 8]).unwrap();
    assert_eq!(out.hits.len(), cfg.k);
}

#[test]
fn nan_query_does_not_panic_or_poison_results() {
    let corpus = Corpus::generate(CorpusSpec::new(100, 4, 2).with_seed(7));
    let cfg = HermesConfig::new(2).with_clusters_to_search(1).with_seed(8);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let out = store.hierarchical_search(&[f32::NAN; 4]).unwrap();
    // Results are arbitrary but present and not NaN-scored duplicates.
    assert_eq!(out.hits.len(), cfg.k);
    let mut ids: Vec<u64> = out.hits.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), cfg.k);
}

#[test]
fn extreme_magnitude_vectors_survive_quantization() {
    let mut rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 * 1e6, 1.0]).collect();
    rows.push(vec![-1e9, -1e9]);
    let data = Mat::from_rows(&rows);
    let index = IvfIndex::builder()
        .nlist(4)
        .metric(Metric::L2)
        .build(&data)
        .unwrap();
    let hits = index
        .search(&[-1e9, -1e9], 1, &SearchParams::new().with_nprobe(4))
        .unwrap();
    assert_eq!(hits[0].id, 64);
}

#[test]
fn hnsw_handles_single_and_two_element_graphs() {
    for n in [1usize, 2] {
        let data = Mat::from_rows(&(0..n).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>());
        let index = HnswIndex::builder()
            .metric(Metric::L2)
            .build(&data)
            .unwrap();
        let hits = index.search(&[0.0, 0.0], n, &SearchParams::new()).unwrap();
        assert_eq!(hits.len(), n);
        assert_eq!(hits[0].id, 0);
    }
}

#[test]
fn pipeline_with_one_stride_still_augments() {
    let corpus = Corpus::generate(CorpusSpec::new(300, 8, 3).with_seed(9));
    let cfg = HermesConfig::new(3)
        .with_clusters_to_search(1)
        .with_seed(10);
    let retriever = Retriever::build(RetrieverKind::Hermes, corpus.embeddings(), &cfg).unwrap();
    let pipeline = hermes::rag::RagPipeline::new(retriever, ChunkStore::new(10))
        .with_output_tokens(8)
        .with_stride(16); // stride > output: exactly one stride
    let t = pipeline.generate(corpus.embeddings().row(0), 1).unwrap();
    assert_eq!(t.strides.len(), 1);
}

#[test]
fn simulator_handles_single_node_single_stride() {
    let sim = MultiNodeSim::new(Deployment::uniform(1_000_000, 1));
    let serving = ServingConfig::paper_default()
        .with_batch(1)
        .with_stride(256);
    let r = sim.run(
        &serving,
        RetrievalScheme::Hermes {
            clusters_to_search: 1,
            sample_nprobe: 1,
        },
        PipelinePolicy::combined(),
        DvfsMode::Off,
    );
    assert_eq!(r.strides, 1);
    assert!(r.e2e_s >= r.ttft_s);
}

#[test]
fn corrupted_store_files_are_rejected_not_crashed() {
    let corpus = Corpus::generate(CorpusSpec::new(200, 8, 2).with_seed(11));
    let cfg = HermesConfig::new(2)
        .with_clusters_to_search(1)
        .with_seed(12);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    // A shard blob is what each shard section of the paged image holds.
    let mut bytes = store.shard(0).to_bytes();
    // Flip bytes through the payload; decoding must error, never panic.
    for pos in [9usize, 64, bytes.len() / 2, bytes.len() - 4] {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xFF;
        let _ = IvfIndex::from_bytes(&corrupted); // Err or (rarely) Ok, never panic
    }
    bytes.truncate(bytes.len() / 3);
    assert!(IvfIndex::from_bytes(&bytes).is_err());
}

#[test]
fn inserting_into_every_cluster_keeps_sizes_consistent() {
    let corpus = Corpus::generate(CorpusSpec::new(400, 8, 4).with_seed(13));
    let cfg = HermesConfig::new(4)
        .with_clusters_to_search(2)
        .with_seed(14);
    let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let before = store.len();
    for c in 0..store.num_clusters() {
        let v = store.split_centroid(c).to_vec();
        let routed = store.insert(10_000 + c as u64, &v).unwrap();
        assert_eq!(routed, c);
    }
    assert_eq!(store.len(), before + store.num_clusters());
}

/// Queries a real front end can hand over by accident: NaN and ±Inf
/// components, alone and mixed with finite ones. Mixed is the dangerous
/// shape — some coarse distances and sample scores come out NaN, others
/// finite, and a comparator that maps incomparable pairs to `Equal` is
/// then not a total order (undefined `sort_by` behaviour; recent
/// toolchains panic on it).
fn hostile_queries(dim: usize) -> Vec<Vec<f32>> {
    let mut out = vec![
        vec![f32::NAN; dim],
        vec![f32::INFINITY; dim],
        vec![f32::NEG_INFINITY; dim],
    ];
    for (at, bad) in [
        (0, f32::NAN),
        (dim - 1, f32::NAN),
        (1, f32::INFINITY),
        (2, f32::NEG_INFINITY),
    ] {
        let mut q: Vec<f32> = (0..dim).map(|d| (d as f32 * 0.37).sin()).collect();
        q[at] = bad;
        out.push(q);
    }
    // inf - inf and inf * 0: NaN for some codes and centroids only.
    let mut q: Vec<f32> = (0..dim)
        .map(|d| if d % 2 == 0 { 0.0 } else { 1.0 })
        .collect();
    q[0] = f32::INFINITY;
    q[1] = f32::NEG_INFINITY;
    out.push(q);
    out
}

/// `queries` scanned back to back by `IvfIndex::search_lists`, each with
/// the lists a search at its `nprobe` selects from its coarse keys, at
/// floor −∞ — a search's answer to the bit, query by query: each answer,
/// and the rescored counts' sum.
fn list_scan(index: &IvfIndex, queries: &[(&[f32], usize)], k: usize) -> (Vec<ScanResult>, usize) {
    let mut keys = CoarseKeys::default();
    index.coarse_keys(queries.iter().map(|q| q.0), &mut keys);
    let lists: Vec<Vec<u32>> = (queries.iter().enumerate())
        .map(|(qi, &(_, nprobe))| match keys.query(qi) {
            Ok(keys) => select_nearest(&mut keys.to_vec(), nprobe)
                .iter()
                .map(|&key| probe_key_centroid(key) as u32)
                .collect(),
            Err(_) => Vec::new(),
        })
        .collect();
    let mut rescored_codes = 0;
    let results = (queries.iter().zip(&lists))
        .map(|(&(q, _), lists)| {
            let (result, rescored) = index.search_lists(q, lists, f32::NEG_INFINITY, k);
            rescored_codes += rescored;
            result
        })
        .collect();
    (results, rescored_codes)
}

#[test]
fn non_finite_queries_never_panic_an_ivf_scan() {
    let corpus = Corpus::generate(CorpusSpec::new(600, 8, 4).with_seed(21));
    let data = corpus.embeddings();
    let hostile = hostile_queries(8);
    for metric in [Metric::InnerProduct, Metric::L2, Metric::Cosine] {
        for codec in [CodecSpec::Sq8, CodecSpec::Flat, CodecSpec::Pq { m: 4 }] {
            let index = IvfIndex::builder()
                .nlist(24)
                .codec(codec)
                .metric(metric)
                .seed(3)
                .build(data)
                .unwrap();
            for nprobe in [1usize, 8, 24] {
                let params = SearchParams::new().with_nprobe(nprobe);
                for q in &hostile {
                    let (hits, stats) = index.search_with_stats(q, 5, &params).unwrap();
                    assert_eq!(hits.len(), 5);
                    assert_eq!(stats.probed_partitions, nprobe);
                }
                // The whole hostile set back to back, a sane query in
                // the middle: it must be answered as if alone.
                let sane = data.row(17);
                let mut group: Vec<(&[f32], usize)> =
                    hostile.iter().map(|q| (q.as_slice(), nprobe)).collect();
                group.insert(3, (sane, nprobe));
                let (results, _) = list_scan(&index, &group, 5);
                assert!(results.iter().all(Result::is_ok));
                assert_eq!(
                    results[3],
                    index.search_with_stats(sane, 5, &params),
                    "{metric} {codec} nprobe={nprobe}"
                );
            }
        }
    }
}

/// The SQ8 scan filter needs a finite bound: NaN, ±Inf, zero and
/// overflow-prone queries get none, and their scans — every row through
/// the exact kernel, as before there was a filter — rescore nothing.
#[test]
fn hostile_queries_get_no_bound_and_scan_exactly() {
    let corpus = Corpus::generate(CorpusSpec::new(2_000, 8, 4).with_seed(24));
    let data = corpus.embeddings();
    let mut hostile = hostile_queries(8);
    hostile.push(vec![0.0; 8]);
    hostile.push(vec![f32::MAX; 8]);
    let codec = Codec::train(CodecSpec::Sq8, data, 3);
    for metric in [Metric::InnerProduct, Metric::Cosine] {
        for q in &hostile {
            assert!(
                codec.query_scorer(q, metric).bound().is_none(),
                "{metric} {q:?}"
            );
        }
        assert!(codec.query_scorer(data.row(17), metric).bound().is_some());
        let index = IvfIndex::builder()
            .nlist(8)
            .metric(metric)
            .seed(3)
            .build(data)
            .unwrap();
        let group: Vec<(&[f32], usize)> = hostile.iter().map(|q| (q.as_slice(), 8)).collect();
        let (results, rescored_codes) = list_scan(&index, &group, 5);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(rescored_codes, 0, "{metric}");
        let scanned: usize = (results.iter().flatten())
            .map(|(_, s)| s.scanned_codes)
            .sum();
        assert!(scanned >= 2_000);
        // A sane query beside them filters, and answers as if alone.
        let sane = (data.row(17), 8);
        let (mixed, rescored_codes) = list_scan(&index, &[group[0], sane, group[3]], 5);
        assert!(rescored_codes > 0, "{metric}");
        let params = SearchParams::new().with_nprobe(8);
        assert_eq!(mixed[1], index.search_with_stats(sane.0, 5, &params));
    }
}

#[test]
fn non_finite_queries_never_panic_the_engine() {
    let corpus = Corpus::generate(CorpusSpec::new(1_200, 8, 6).with_seed(22));
    let hostile = hostile_queries(8);
    for routing in [
        Routing::NearestLists,
        Routing::DocumentSampling,
        Routing::CentroidOnly,
        Routing::Unranked,
    ] {
        for adaptive in [None, Some(AdaptiveConfig::new(1, 4, 4, 32))] {
            let mut cfg = HermesConfig::new(6)
                .with_clusters_to_search(3)
                .with_routing(routing)
                .with_seed(23);
            cfg.adaptive = adaptive;
            let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
            let engine = Engine::for_store(&store);
            for q in &hostile {
                let out = engine.execute(q).unwrap();
                assert_eq!(out.hits.len(), cfg.k);
                assert_eq!(out.ranked_clusters.len(), 6);
            }
            // Batched and coalesced, hostile and sane queries side by
            // side: same answers as one at a time.
            let mut batch = hostile.clone();
            batch.insert(2, corpus.embeddings().row(5).to_vec());
            let alone: Vec<_> = batch.iter().map(|q| engine.execute(q).unwrap()).collect();
            let coalesced = engine.execute_coalesced(&batch, 1).unwrap();
            assert_eq!(coalesced.len(), alone.len());
            // NaN scores are not `==` themselves; compare ids and bits.
            for (a, b) in alone.iter().zip(&coalesced) {
                assert_eq!(a.ranked_clusters, b.ranked_clusters);
                assert_eq!(a.searched_clusters(), b.searched_clusters());
                assert_eq!(a.stats, b.stats);
                let bits = |o: &hermes::core::SearchOutcome| -> Vec<(u64, u32)> {
                    o.hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                assert_eq!(bits(a), bits(b));
            }
        }
    }
}

/// A query of the wrong dimension is a typed error, never a panic, under
/// every routing and through every entry point — alone or between sane
/// queries, in the route stage and end to end. Under centroid routing the
/// query is also checked against the split centroids, so a store whose
/// every shard was emptied refuses it too.
#[test]
fn a_wrong_dimension_query_is_the_same_typed_error_everywhere() {
    use hermes::core::HermesError;
    use hermes::index::IndexError;
    let corpus = Corpus::generate(CorpusSpec::new(600, 8, 4).with_seed(31));
    let bad = vec![1.0f32; 3];
    let want = HermesError::Index(IndexError::DimensionMismatch {
        expected: 8,
        got: 3,
    });
    let batch = vec![
        corpus.embeddings().row(0).to_vec(),
        bad.clone(),
        corpus.embeddings().row(1).to_vec(),
    ];
    for routing in [
        Routing::NearestLists,
        Routing::DocumentSampling,
        Routing::CentroidOnly,
        Routing::Unranked,
    ] {
        let cfg = HermesConfig::new(4)
            .with_clusters_to_search(2)
            .with_routing(routing)
            .with_seed(32);
        let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let engine = Engine::for_store(&store);
        assert_eq!(engine.route(&bad).unwrap_err(), want, "{routing:?}");
        assert_eq!(engine.execute(&bad).unwrap_err(), want, "{routing:?}");
        for threads in [0usize, 1] {
            let routed = engine.route_batch(&batch, threads).unwrap_err();
            assert_eq!(routed, want, "{routing:?} threads={threads}");
            let coalesced = engine.execute_coalesced(&batch, threads).unwrap_err();
            assert_eq!(coalesced, want, "{routing:?} threads={threads}");
        }
        // Every shard emptied: nothing is scanned, and nothing panics.
        for c in 0..store.num_clusters() {
            for (id, _) in store.shard(c).export_live() {
                assert_eq!(store.remove(id), Some(c));
            }
        }
        let engine = Engine::for_store(&store);
        let emptied = engine.execute_coalesced(&batch, 1);
        if routing == Routing::CentroidOnly {
            assert_eq!(emptied.unwrap_err(), want);
        } else {
            let outs = emptied.unwrap();
            assert!(outs.iter().all(|out| out.hits.is_empty()), "{routing:?}");
        }
    }
}

/// A shard whose every row was removed answers with no hits and no work,
/// under every routing and at every width: it samples −∞ (ranks last
/// when the routing scores), holds no pair of a nearest-lists cut, and a
/// deep search routed to it scans nothing — the other shards still
/// answer the query.
#[test]
fn an_emptied_shard_answers_no_hits_and_no_work() {
    let corpus = Corpus::generate(CorpusSpec::new(2_000, 16, 4).with_seed(17));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(8).with_seed(18)).to_vecs();
    for routing in [
        Routing::NearestLists,
        Routing::DocumentSampling,
        Routing::CentroidOnly,
        Routing::Unranked,
    ] {
        // Every shard is deep-searched, so the emptied one always is.
        let cfg = HermesConfig::new(4)
            .with_clusters_to_search(4)
            .with_k(10)
            .with_seed(19)
            .with_routing(routing);
        let mut store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        for (id, _) in store.shard(0).export_live() {
            assert_eq!(store.remove(id), Some(0));
        }
        assert_eq!(store.shard(0).len(), 0);
        let engine = Engine::for_store(&store);
        let inline = engine.execute_coalesced(&queries, 1).unwrap();
        assert_eq!(
            engine.execute_coalesced(&queries, 0).unwrap(),
            inline,
            "{routing:?}"
        );
        assert_eq!(
            engine.execute_batch(&queries, 0).unwrap(),
            inline,
            "{routing:?}"
        );
        for (q, out) in queries.iter().zip(&inline) {
            assert_eq!(out.hits.len(), 10, "{routing:?}: the other shards answer");
            let route = engine.route(q).unwrap();
            if routing != Routing::Unranked && routing != Routing::CentroidOnly {
                assert_eq!(route.ranked_clusters.last(), Some(&0), "{routing:?}");
                assert_eq!(route.ranked_scores.last(), Some(&f32::NEG_INFINITY));
            }
            if let Some(pos) = out.searched_clusters().iter().position(|&c| c == 0) {
                assert_eq!(out.stats.per_shard[pos], Default::default(), "{routing:?}");
            }
        }
    }
}
