//! Offline build → online serving: persist a clustered store to disk,
//! load it in a "serving process", and absorb new documents online —
//! RAG's mutable-datastore premise (paper Figure 1).
//!
//! ```text
//! cargo run -p hermes --release --example index_persistence
//! ```

use hermes::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("hermes_example_store.hpgs");

    // --- Offline: build and persist (paper Appendix A.5 step 7). ---
    println!("[offline] building store...");
    let corpus = Corpus::generate(CorpusSpec::new(15_000, 48, 8).with_seed(3));
    let config = HermesConfig::new(8).with_clusters_to_search(3).with_seed(4);
    let store = ClusteredStore::build(corpus.embeddings(), &config)?;
    store.save(&path)?;
    println!(
        "[offline] saved {} ({:.1} MB serialized)",
        path.display(),
        std::fs::metadata(&path)?.len() as f64 / 1e6
    );

    // --- Online: load and serve (steps 8+). ---
    println!("[online ] loading store...");
    let mut serving = ClusteredStore::load(&path)?;
    let queries = QuerySet::generate(&corpus, QuerySpec::new(3).with_seed(5));
    for (i, q) in queries.embeddings().iter_rows().enumerate() {
        let out = serving.hierarchical_search(q)?;
        println!(
            "[online ] query {i}: clusters {:?} -> top doc {}",
            out.searched_clusters(),
            out.hits[0].id
        );
    }

    // --- Online mutation: new documents arrive without any retraining. ---
    println!("[online ] ingesting 100 fresh documents...");
    let fresh = Corpus::generate(CorpusSpec::new(100, 48, 8).with_seed(6));
    let mut routed = vec![0usize; serving.num_clusters()];
    for (i, v) in fresh.embeddings().iter_rows().enumerate() {
        let cluster = serving.insert(1_000_000 + i as u64, v)?;
        routed[cluster] += 1;
    }
    println!("[online ] routing of fresh docs per cluster: {routed:?}");

    // A fresh document is immediately retrievable.
    let probe = fresh.embeddings().row(0);
    let out = serving.hierarchical_search(probe)?;
    let found = out.hits.iter().any(|n| n.id >= 1_000_000);
    println!(
        "[online ] fresh-document retrieval: {}",
        if found {
            "hit"
        } else {
            "miss (expected occasionally)"
        }
    );

    // Mutations persist across restarts — atomically: `save` writes a
    // paged, per-page-checksummed image to a tmp sibling and renames it
    // over the old snapshot, so a crash mid-save never loses the
    // previous generation.
    serving.save(&path)?;
    let reloaded = ClusteredStore::load(&path)?;
    assert_eq!(reloaded.len(), serving.len());
    println!(
        "[online ] store persisted with {} docs total",
        reloaded.len()
    );

    // Cold start without materializing: a `PagedStoreReader` answers
    // metadata queries after reading only the header, checksum table,
    // and meta pages, then loads shards lazily on demand.
    let mut reader = PagedStoreReader::open(&path)?;
    println!(
        "[reopen ] paged header: {} docs, {} clusters, generation {}, sizes {:?}",
        reader.len(),
        reader.num_clusters(),
        reader.generation(),
        reader.cluster_sizes(),
    );
    let shard0 = reader.load_shard(0)?;
    println!(
        "[reopen ] lazily materialized shard 0 only: {} docs",
        shard0.len()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
