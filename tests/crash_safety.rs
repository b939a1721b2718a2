//! Crash-safety and corruption-injection suite for the paged (`HPGS`)
//! persistence format.
//!
//! The bar: no byte-level damage to a store image may ever panic the
//! loader or hand back silently-wrong data. Truncation at *every page
//! boundary*, a flipped byte in *every page*, and interrupted snapshot
//! writes must all surface as typed [`PersistError`]s — and an
//! interrupted snapshot must leave the previously published generation
//! fully loadable (the atomic tmp+rename contract).

use hermes::core::{ClusteredStore, HermesConfig, PersistError, PAGE_SIZE};
use hermes::prelude::*;

fn build_store(seed: u64) -> (Corpus, ClusteredStore) {
    let corpus = Corpus::generate(CorpusSpec::new(600, 12, 5).with_seed(seed));
    let cfg = HermesConfig::new(5)
        .with_clusters_to_search(2)
        .with_seed(seed.wrapping_add(1));
    let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
    (corpus, store)
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hermes_crash_{name}_{}.hpgs", std::process::id()))
}

/// Truncating the image at every page boundary (and a byte short of it)
/// yields a typed error — never a panic, never a silent partial load.
#[test]
fn truncation_at_every_page_boundary_is_a_typed_error() {
    let (_, store) = build_store(11);
    let image = store.to_paged_bytes();
    assert_eq!(image.len() % PAGE_SIZE, 0);
    let pages = image.len() / PAGE_SIZE;
    assert!(
        pages >= 4,
        "need header + table + meta + shards, got {pages}"
    );

    let path = tmp_path("truncate");
    for page in 0..pages {
        for cut in [page * PAGE_SIZE, page * PAGE_SIZE + PAGE_SIZE - 1] {
            std::fs::write(&path, &image[..cut]).unwrap();
            let err = ClusteredStore::load(&path).expect_err("truncated image must not load");
            assert!(
                matches!(err, PersistError::Truncated | PersistError::Checksum { .. }),
                "cut at byte {cut}: expected Truncated/Checksum, got {err:?}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Flipping the byte at every page boundary (the first byte of every
/// page) is detected as a typed error: the header by its magic/field
/// checks, the checksum table by its covering checksum, every content
/// page by its table entry (whole-page checksums, padding included).
#[test]
fn single_byte_flip_at_every_page_boundary_is_detected() {
    let (_, store) = build_store(12);
    let image = store.to_paged_bytes();
    let pages = image.len() / PAGE_SIZE;
    let path = tmp_path("flip");

    // Table layout, from the (intact) header: entries cover
    // `num_content_pages * 8` bytes starting at page 1; bytes beyond
    // that inside the table region are uncovered padding.
    let ncp = u64::from_le_bytes(image[24..32].try_into().unwrap()) as usize;
    let table_end = PAGE_SIZE + ncp * 8;

    let mut checked = 0usize;
    for page in 0..pages {
        let offset = page * PAGE_SIZE;
        let in_table_region = page >= 1 && offset < image.len() - ncp * PAGE_SIZE;
        if in_table_region && offset >= table_end {
            continue; // table padding page: not covered by design
        }
        let mut corrupted = image.clone();
        corrupted[offset] ^= 0xff;
        std::fs::write(&path, &corrupted).unwrap();
        match ClusteredStore::load(&path) {
            Err(
                PersistError::Checksum { .. }
                | PersistError::Truncated
                | PersistError::BadMagic
                | PersistError::Version { .. }
                | PersistError::Corrupt(_),
            ) => checked += 1,
            Err(other) => panic!("page {page}: unexpected error class {other:?}"),
            Ok(_) => panic!("page {page}: corrupted image loaded successfully"),
        }
    }
    assert_eq!(checked, pages, "every page boundary flip must be detected");

    // And deep inside pages too: a mid-page flip in every *content* page
    // is caught by that page's whole-page checksum.
    let content_start = pages - ncp;
    for page in content_start..pages {
        let mut corrupted = image.clone();
        corrupted[page * PAGE_SIZE + PAGE_SIZE / 3] ^= 0x01;
        std::fs::write(&path, &corrupted).unwrap();
        match ClusteredStore::load(&path) {
            Err(PersistError::Checksum { .. } | PersistError::Corrupt(_)) => {}
            other => panic!("content page {page}: expected checksum failure, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Flipping the version byte specifically reports a version error, and
/// foreign content reports bad magic.
#[test]
fn version_and_magic_damage_report_their_own_error_kinds() {
    let (_, store) = build_store(13);
    let mut image = store.to_paged_bytes();
    let path = tmp_path("version");

    image[8] = 0x7f; // version byte
                     // Re-stamp the header checksum so the version check (not the
                     // checksum) is what fires.
    let hc = hermes::math::wire::checksum64(&image[..48]);
    image[48..56].copy_from_slice(&hc.to_le_bytes());
    std::fs::write(&path, &image).unwrap();
    assert!(matches!(
        ClusteredStore::load(&path),
        Err(PersistError::Version { got: 0x7f, .. })
    ));

    std::fs::write(&path, vec![0xabu8; 3 * PAGE_SIZE]).unwrap();
    assert!(matches!(
        ClusteredStore::load(&path),
        Err(PersistError::BadMagic)
    ));

    std::fs::write(&path, b"tiny").unwrap();
    assert!(matches!(
        ClusteredStore::load(&path),
        Err(PersistError::Truncated)
    ));
    std::fs::remove_file(&path).ok();
}

/// The corruption detection holds through the reader's lazy path too:
/// damage confined to one shard's pages surfaces only when that shard is
/// materialized, with the correct absolute page index.
#[test]
fn shard_level_damage_is_localized_by_the_paged_reader() {
    let (_, store) = build_store(14);
    let image = store.to_paged_bytes();
    let path = tmp_path("localized");

    // Find the last shard's pages by diffing which pages change when the
    // shard bytes change — simpler: corrupt the very last page, which
    // always belongs to the last shard section.
    let mut corrupted = image.clone();
    let last = corrupted.len() - PAGE_SIZE / 2;
    corrupted[last] ^= 0x01;
    std::fs::write(&path, &corrupted).unwrap();

    let mut reader = hermes::core::PagedStoreReader::open(&path)
        .expect("header/table/meta pages are intact, open must succeed");
    let n = reader.num_clusters();
    for c in 0..n - 1 {
        reader.load_shard(c).expect("undamaged shard loads");
    }
    let err = reader
        .load_shard(n - 1)
        .expect_err("damaged shard detected");
    let expect_page = (corrupted.len() - PAGE_SIZE) / PAGE_SIZE;
    match err {
        PersistError::Checksum { page } => assert_eq!(page as usize, expect_page),
        other => panic!("expected Checksum, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// An interrupted snapshot (crash between tmp write and rename, modeled
/// as a stray half-written tmp sibling) leaves the previous generation
/// loadable; a completed save atomically replaces it.
#[test]
fn interrupted_snapshot_never_clobbers_the_previous_generation() {
    let (corpus, mut store) = build_store(15);
    let path = tmp_path("atomic");
    store.save(&path).unwrap();
    let q = corpus.embeddings().row(0);
    let baseline = store.hierarchical_search(q).unwrap();

    // Crash model: the next snapshot died mid-write.
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(&tmp, vec![0u8; PAGE_SIZE / 2]).unwrap();

    let survivor = ClusteredStore::load(&path).unwrap();
    assert_eq!(
        survivor.hierarchical_search(q).unwrap().hits,
        baseline.hits,
        "published image must be byte-untouched by the failed snapshot"
    );

    // The interrupted tmp is ignored garbage; a real save replaces both.
    let v = corpus.embeddings().row(1).to_vec();
    store.insert(123_456, &v).unwrap();
    store.save(&path).unwrap();
    assert!(!std::path::Path::new(&tmp).exists());
    let replaced = ClusteredStore::load(&path).unwrap();
    assert_eq!(replaced.len(), store.len());
    std::fs::remove_file(&path).ok();
}

/// Nothing but an `HPGS` image loads: a file that starts with the
/// retired monolithic store header, or any other foreign file, is
/// `BadMagic`; a file too short to hold a magic is `Truncated`.
#[test]
fn legacy_and_foreign_files_fail_typed() {
    let path = tmp_path("foreign");
    // The retired monolithic image began with its wire header: a
    // zero-padded 8-byte magic spelling H-C-L-S, then version 1.
    let mut legacy = vec![b'H', b'C', b'L', b'S', 0, 0, 0, 0, 1];
    legacy.resize(3 * PAGE_SIZE, 0);
    for (bytes, what) in [(legacy, "legacy"), (vec![0x5au8; 100], "foreign")] {
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(ClusteredStore::load(&path), Err(PersistError::BadMagic)),
            "{what}"
        );
    }
    std::fs::write(&path, b"HPGS").unwrap();
    assert!(matches!(
        ClusteredStore::load(&path),
        Err(PersistError::Truncated)
    ));
    std::fs::remove_file(&path).ok();
}
