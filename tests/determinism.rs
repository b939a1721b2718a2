//! Integration: every stochastic stage replays bit-identically for a
//! fixed seed, across crate boundaries.

use hermes::prelude::*;

/// Pins the raw keystream of the workspace RNG. The eight words below
/// are the frozen golden outputs of `seeded_rng(0x4E524D45)` ("NRME");
/// every seeded experiment in EXPERIMENTS.md implicitly depends on this
/// stream, so an RNG change must fail here loudly and be re-goldened
/// deliberately (and noted in EXPERIMENTS.md), never slipped in.
#[test]
fn rng_stream_is_frozen() {
    let mut rng = hermes::math::rng::seeded_rng(0x4E52_4D45);
    let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            0x44D9_C31D_6D4E_CA6F,
            0x5E89_8C28_2FF2_E5F4,
            0xB924_17C0_A697_B42D,
            0x25D1_60E6_BE50_DC15,
            0xD385_42E1_A1EC_D744,
            0xBBE0_4EBB_63DF_1EAE,
            0x49D2_69B7_4267_88AA,
            0xB817_8750_ABA4_D082,
        ],
        "the ChaCha8 keystream changed — re-golden deliberately and note it in EXPERIMENTS.md"
    );
}

#[test]
fn clustered_store_build_is_deterministic() {
    let corpus = Corpus::generate(CorpusSpec::new(600, 16, 5).with_seed(41));
    let cfg = HermesConfig::new(5)
        .with_clusters_to_search(2)
        .with_seed(42);
    let a = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    let b = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    assert_eq!(a.cluster_sizes(), b.cluster_sizes());
    assert_eq!(a.chosen_seed(), b.chosen_seed());
    assert_eq!(a.memory_bytes(), b.memory_bytes());
}

#[test]
fn search_results_are_deterministic() {
    let corpus = Corpus::generate(CorpusSpec::new(600, 16, 5).with_seed(43));
    let queries = QuerySet::generate(&corpus, QuerySpec::new(10).with_seed(44));
    let cfg = HermesConfig::new(5)
        .with_clusters_to_search(2)
        .with_seed(45);
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    for q in queries.embeddings().iter_rows() {
        let a = store.hierarchical_search(q).unwrap();
        let b = store.hierarchical_search(q).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn simulator_is_a_pure_function_of_its_inputs() {
    let sim = MultiNodeSim::new(Deployment::uniform(10_000_000_000, 10));
    let serving = ServingConfig::paper_default();
    let scheme = RetrievalScheme::Hermes {
        clusters_to_search: 3,
        sample_nprobe: 8,
    };
    let a = sim.run(&serving, scheme, PipelinePolicy::combined(), DvfsMode::Off);
    let b = sim.run(&serving, scheme, PipelinePolicy::combined(), DvfsMode::Off);
    assert_eq!(a.e2e_s, b.e2e_s);
    assert_eq!(a.total_joules(), b.total_joules());
}

#[test]
fn different_seeds_produce_different_stores() {
    let corpus = Corpus::generate(CorpusSpec::new(600, 16, 5).with_seed(46));
    let a = ClusteredStore::build(
        corpus.embeddings(),
        &HermesConfig::new(5).with_clusters_to_search(2).with_seed(1),
    )
    .unwrap();
    let b = ClusteredStore::build(
        corpus.embeddings(),
        &HermesConfig::new(5).with_clusters_to_search(2).with_seed(2),
    )
    .unwrap();
    // Identical sizes across different seeds would be a one-in-millions
    // coincidence on this corpus.
    assert!(
        a.cluster_sizes() != b.cluster_sizes() || a.chosen_seed() != b.chosen_seed(),
        "different seeds should perturb the split"
    );
}

/// Build-speed work (incremental Lloyd sweeps, the tiled multi-row
/// argmin, flat shard gathers, exact list reservations) must not move a
/// byte of what a build publishes. These are FNV `checksum64`s of the
/// paged `HPGS` image of a benchmark-shaped store — 10 topics, the
/// benchmark's `HermesConfig`, 64 dims, and a 20-dim twin whose rows
/// leave a ragged SIMD tail — and of the same store after one live
/// `Split` of its largest cluster, captured on the commit before that
/// work (`ba41bdb`) at `HERMES_THREADS` 1 and 16. AVX2 and the scalar
/// reference published the same bytes there (they agree on every
/// assignment, and centroids and codes are computed from assignments by
/// scalar code); no NEON box has captured its image, so NEON is not
/// held to it. `scripts/verify.sh` runs this at both pool widths. The
/// values were re-captured when the default routing became
/// `Routing::NearestLists`: that moved the config's routing byte (0 → 3)
/// and the header and page checksums over it, and no other byte
/// (`cmp -l` of a `hermes build --docs 4000 --dim 32` image).
#[test]
fn published_store_image_is_pinned_to_the_byte() {
    use hermes::math::wire::checksum64;
    if simd_level() == SimdLevel::Neon {
        return;
    }
    // (docs, dim, [built, after the split]).
    let goldens = [
        (4000, 64, [0xd502_fd80_8877_91bau64, 0x2aed_e277_7de0_9a54]),
        (1500, 20, [0x6480_ef7c_eca5_5c20, 0x364b_07f2_d0eb_6a4f]),
    ];
    for (docs, dim, want) in goldens {
        let corpus = Corpus::generate(CorpusSpec::new(docs, dim, 10).with_seed(0x4E52_4D45));
        let cfg = HermesConfig::new(10)
            .with_clusters_to_search(3)
            .with_sample_nprobe(8)
            .with_deep_nprobe(128)
            .with_k(10)
            .with_seed(0x4E52_4D46);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        let sizes = store.cluster_sizes();
        let cluster = (0..sizes.len())
            .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
            .unwrap();
        let split = Rebalancer::default()
            .apply(&store, RebalanceAction::Split { cluster })
            .unwrap();
        let got = [&store, &split].map(|s| checksum64(&s.to_paged_bytes()));
        assert_eq!(
            got,
            want,
            "{docs} x {dim} at {}: got [{:#018x}, {:#018x}]",
            simd_level(),
            got[0],
            got[1]
        );
    }
}
