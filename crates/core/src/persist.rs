//! Persistence of the clustered store: one paged, checksummed on-disk
//! format (`HPGS`).
//!
//! The paper's deployment builds indices offline (Appendix A.5 step 7)
//! and serves them online (steps 8+); this module provides the handoff.
//! The file is a sequence of fixed 4 KiB pages: a header page, a checksum
//! table (one FNV-1a 64 checksum per content page), then the content
//! region holding a metadata section (config, running + anchor
//! centroids, sizes, seed, rebalance generation, shard directory)
//! followed by one page-aligned section per shard, each an
//! [`IvfIndex::to_bytes`] blob. A [`PagedStoreReader`] opens a store by
//! reading *only* the header, table and metadata pages — cold-start cost
//! is independent of store size — and materializes shard sections
//! individually on demand; [`ClusteredStore::load`] materializes all of
//! them. [`ClusteredStore::save`] writes the image to a temporary sibling
//! file and atomically renames it over the target, so a crash
//! mid-snapshot always leaves the previous generation loadable.
//!
//! Every failure mode surfaces as a typed [`PersistError`] — truncation,
//! bad magic (any file of 8 bytes or more that does not start with the
//! `HPGS` magic), version skew, per-page checksum mismatch — never a
//! panic.

use hermes_math::wire::{checksum64, Reader, WireError, Writer};
use hermes_math::{Mat, Metric};
use hermes_index::IvfIndex;
use hermes_quant::CodecSpec;

use std::io::{Read, Seek, SeekFrom, Write};

use crate::config::{HermesConfig, ProbeAllocation, Routing, SplitStrategy};
use crate::store::ClusteredStore;

/// Fixed page size of the `HPGS` format.
pub const PAGE_SIZE: usize = 4096;
const PAGED_MAGIC: [u8; 8] = *b"HPGS\0\0\0\0";
const PAGED_VERSION: u8 = 1;
/// Magic of the metadata section inside the content region.
const META_MAGIC: &str = "HPGM";
const META_VERSION: u8 = 1;
/// Byte length of the fixed header fields covered by the header checksum.
const HEADER_BODY: usize = 48;

/// Typed persistence failure. Corrupt or truncated images are always
/// reported through this enum — loading never panics.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with a known store magic.
    BadMagic,
    /// The file carries an unsupported format version.
    Version {
        /// Version found in the header.
        got: u8,
        /// Version this build reads.
        expected: u8,
    },
    /// A page failed checksum verification.
    Checksum {
        /// Absolute page index within the file (header = page 0).
        page: u64,
    },
    /// The file ends before a required page or field.
    Truncated,
    /// Structurally invalid content (bad tag, inconsistent directory…).
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a hermes store (bad magic)"),
            PersistError::Version { got, expected } => {
                write!(f, "unsupported store version {got} (expected {expected})")
            }
            PersistError::Checksum { page } => {
                write!(f, "checksum mismatch on page {page}")
            }
            PersistError::Truncated => write!(f, "store image is truncated"),
            PersistError::Corrupt(msg) => write!(f, "corrupt store image: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => PersistError::Truncated,
            WireError::BadHeader { .. } => PersistError::BadMagic,
            WireError::Corrupt(msg) => PersistError::Corrupt(msg),
        }
    }
}

fn pages_for(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE)
}

fn encode_config(w: &mut Writer, cfg: &HermesConfig) {
    w.u64(cfg.num_clusters as u64);
    w.u64(cfg.sample_nprobe as u64);
    w.u64(cfg.deep_nprobe as u64);
    w.u64(cfg.clusters_to_search as u64);
    w.u64(cfg.k as u64);
    match cfg.codec {
        CodecSpec::Flat => w.u8(0),
        CodecSpec::Sq8 => w.u8(1),
        CodecSpec::Sq4 => w.u8(2),
        CodecSpec::Pq { m } => {
            w.u8(3);
            w.u64(m as u64);
        }
        CodecSpec::Opq { m } => {
            w.u8(4);
            w.u64(m as u64);
        }
    }
    w.u8(match cfg.metric {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    });
    match cfg.split {
        SplitStrategy::KMeansSweep {
            seeds,
            sample_fraction,
        } => {
            w.u8(0);
            w.u64(seeds);
            w.f64(sample_fraction);
        }
        SplitStrategy::KMeansSingle => w.u8(1),
        SplitStrategy::RoundRobin => w.u8(2),
    }
    w.u8(match cfg.routing {
        Routing::DocumentSampling => 0,
        Routing::CentroidOnly => 1,
        Routing::Unranked => 2,
        Routing::NearestLists => 3,
    });
    w.u64(cfg.seed);
}

fn decode_config(r: &mut Reader<'_>) -> Result<HermesConfig, WireError> {
    let num_clusters = r.u64()? as usize;
    let sample_nprobe = r.u64()? as usize;
    let deep_nprobe = r.u64()? as usize;
    let clusters_to_search = r.u64()? as usize;
    let k = r.u64()? as usize;
    let codec = match r.u8()? {
        0 => CodecSpec::Flat,
        1 => CodecSpec::Sq8,
        2 => CodecSpec::Sq4,
        3 => CodecSpec::Pq {
            m: r.u64()? as usize,
        },
        4 => CodecSpec::Opq {
            m: r.u64()? as usize,
        },
        t => return Err(WireError::Corrupt(format!("bad codec spec tag {t}"))),
    };
    let metric = match r.u8()? {
        0 => Metric::L2,
        1 => Metric::InnerProduct,
        2 => Metric::Cosine,
        t => return Err(WireError::Corrupt(format!("bad metric tag {t}"))),
    };
    let split = match r.u8()? {
        0 => SplitStrategy::KMeansSweep {
            seeds: r.u64()?,
            sample_fraction: r.f64()?,
        },
        1 => SplitStrategy::KMeansSingle,
        2 => SplitStrategy::RoundRobin,
        t => return Err(WireError::Corrupt(format!("bad split tag {t}"))),
    };
    let routing = match r.u8()? {
        0 => Routing::DocumentSampling,
        1 => Routing::CentroidOnly,
        2 => Routing::Unranked,
        3 => Routing::NearestLists,
        t => return Err(WireError::Corrupt(format!("bad routing tag {t}"))),
    };
    let seed = r.u64()?;
    Ok(HermesConfig {
        num_clusters,
        sample_nprobe,
        deep_nprobe,
        clusters_to_search,
        k,
        codec,
        metric,
        split,
        routing,
        seed,
        // Query-time knobs, deliberately not part of the wire format:
        // loaded stores always come back non-adaptive, with the default
        // probe allocation, and callers opt in per deployment (see
        // `HermesConfig::adaptive`).
        adaptive: None,
        probe_allocation: ProbeAllocation::default(),
    })
}

impl ClusteredStore {
    /// Serializes the store into the paged `HPGS` image (see the module
    /// docs for the layout). The image carries full mutable-store
    /// metadata — drift anchors and the rebalance generation.
    pub fn to_paged_bytes(&self) -> Vec<u8> {
        let shard_blobs: Vec<Vec<u8>> = (0..self.num_clusters())
            .map(|c| self.shard(c).to_bytes())
            .collect();

        // The directory lives inside the metadata section, whose page
        // count shifts every shard's first page — but the encoding is
        // fixed-width, so a zero-filled dry run pins the length.
        let meta_len = self.encode_meta(&shard_blobs, 0).len();
        let meta_pages = pages_for(meta_len);
        let meta = self.encode_meta(&shard_blobs, meta_pages as u64);
        debug_assert_eq!(meta.len(), meta_len);

        let mut content = Vec::new();
        content.extend_from_slice(&meta);
        content.resize(meta_pages * PAGE_SIZE, 0);
        for blob in &shard_blobs {
            content.extend_from_slice(blob);
            content.resize(pages_for(content.len()) * PAGE_SIZE, 0);
        }

        let num_content_pages = content.len() / PAGE_SIZE;
        let mut table = Vec::with_capacity(num_content_pages * 8);
        for page in content.chunks(PAGE_SIZE) {
            table.extend_from_slice(&checksum64(page).to_le_bytes());
        }
        let table_pages = pages_for(table.len()).max(1);
        let table_checksum = checksum64(&table);
        table.resize(table_pages * PAGE_SIZE, 0);

        let mut header = vec![0u8; PAGE_SIZE];
        header[0..8].copy_from_slice(&PAGED_MAGIC);
        header[8] = PAGED_VERSION;
        header[16..24].copy_from_slice(&(PAGE_SIZE as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(num_content_pages as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(meta_len as u64).to_le_bytes());
        header[40..48].copy_from_slice(&table_checksum.to_le_bytes());
        let hc = checksum64(&header[..HEADER_BODY]);
        header[HEADER_BODY..HEADER_BODY + 8].copy_from_slice(&hc.to_le_bytes());

        let mut image = header;
        image.extend_from_slice(&table);
        image.extend_from_slice(&content);
        image
    }

    /// Metadata section: everything except the shard payloads, plus the
    /// shard directory (first content page + byte length per shard).
    fn encode_meta(&self, shard_blobs: &[Vec<u8>], meta_pages: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.header(META_MAGIC, META_VERSION);
        encode_config(&mut w, self.config());
        w.mat(self.split_centroids_mat());
        let anchors: Vec<Vec<f32>> = (0..self.num_clusters())
            .map(|c| self.anchor_centroid(c).to_vec())
            .collect();
        w.mat(&Mat::from_rows(&anchors));
        w.u64s(
            &self
                .cluster_sizes()
                .iter()
                .map(|&s| s as u64)
                .collect::<Vec<_>>(),
        );
        w.u64(self.chosen_seed());
        w.u64(self.generation());
        w.u64(shard_blobs.len() as u64);
        let mut page = meta_pages;
        for blob in shard_blobs {
            w.u64(page);
            w.u64(blob.len() as u64);
            page += pages_for(blob.len()) as u64;
        }
        w.finish()
    }

    /// Writes the paged image to `path` **atomically**: the image lands
    /// in a `.tmp` sibling first and is renamed over the target, so a
    /// crash mid-write leaves any previous snapshot intact.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`PersistError::Io`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_paged_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a store saved with [`Self::save`], every shard section
    /// materialized.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PersistError`] for any corrupt, truncated,
    /// foreign or unreadable image.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        PagedStoreReader::open(path)?.into_store()
    }
}

/// Decoded metadata section of a paged store image.
#[derive(Debug, Clone)]
struct PagedMeta {
    config: HermesConfig,
    split_centroids: Mat,
    anchor_centroids: Mat,
    sizes: Vec<usize>,
    chosen_seed: u64,
    generation: u64,
    /// Per shard: (first content page, payload byte length).
    directory: Vec<(u64, u64)>,
}

fn decode_meta(buf: &[u8]) -> Result<PagedMeta, PersistError> {
    let mut r = Reader::new(buf);
    r.header(META_MAGIC, META_VERSION)?;
    let config = decode_config(&mut r)?;
    let split_centroids = r.mat()?;
    let anchor_centroids = r.mat()?;
    let sizes: Vec<usize> = r.u64s()?.into_iter().map(|s| s as usize).collect();
    let chosen_seed = r.u64()?;
    let generation = r.u64()?;
    let n = r.u64()? as usize;
    if n != split_centroids.rows() || n != anchor_centroids.rows() || n != sizes.len() {
        return Err(PersistError::Corrupt("shard count mismatch".into()));
    }
    let mut directory = Vec::with_capacity(n);
    for _ in 0..n {
        let page = r.u64()?;
        let len = r.u64()?;
        directory.push((page, len));
    }
    Ok(PagedMeta {
        config,
        split_centroids,
        anchor_centroids,
        sizes,
        chosen_seed,
        generation,
        directory,
    })
}

/// Incremental reader over a paged (`HPGS`) store file.
///
/// [`PagedStoreReader::open`] reads and verifies only the header, the
/// checksum table and the metadata section — a few pages regardless of
/// store size — which is what makes paged cold-start fast (`ext_persist`
/// measures the gap against a full load). Shard payloads
/// are then read page-for-page on demand with [`Self::load_shard`], each
/// page verified against the table, or all at once with
/// [`Self::into_store`].
#[derive(Debug)]
pub struct PagedStoreReader {
    file: std::fs::File,
    /// Per-content-page FNV-1a 64 checksums.
    table: Vec<u64>,
    /// Absolute page index where the content region starts.
    content_start: u64,
    num_content_pages: u64,
    meta: PagedMeta,
}

impl PagedStoreReader {
    /// Opens a paged store image, verifying header, checksum table and
    /// metadata pages.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PersistError`] for any corrupt, truncated or
    /// unreadable image; a file of any length ≥ 8 bytes that does not
    /// start with the `HPGS` magic is [`PersistError::BadMagic`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        let mut file = std::fs::File::open(path)?;

        let mut header = Vec::with_capacity(PAGE_SIZE);
        (&mut file).take(PAGE_SIZE as u64).read_to_end(&mut header)?;
        if !header.starts_with(&PAGED_MAGIC) {
            let short = header.len() < PAGED_MAGIC.len();
            return Err(if short { PersistError::Truncated } else { PersistError::BadMagic });
        }
        if header.len() < PAGE_SIZE {
            return Err(PersistError::Truncated);
        }
        if header[8] != PAGED_VERSION {
            return Err(PersistError::Version {
                got: header[8],
                expected: PAGED_VERSION,
            });
        }
        let hc = u64::from_le_bytes(header[HEADER_BODY..HEADER_BODY + 8].try_into().unwrap());
        if checksum64(&header[..HEADER_BODY]) != hc {
            return Err(PersistError::Checksum { page: 0 });
        }
        let page_size = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if page_size != PAGE_SIZE as u64 {
            return Err(PersistError::Corrupt(format!(
                "unsupported page size {page_size}"
            )));
        }
        let num_content_pages = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let meta_len = u64::from_le_bytes(header[32..40].try_into().unwrap()) as usize;
        let table_checksum = u64::from_le_bytes(header[40..48].try_into().unwrap());

        let table_pages = pages_for((num_content_pages as usize) * 8).max(1);
        let mut table_bytes = vec![0u8; table_pages * PAGE_SIZE];
        read_exact_or_truncated(&mut file, &mut table_bytes)?;
        if checksum64(&table_bytes[..(num_content_pages as usize) * 8]) != table_checksum {
            // The table region spans pages [1, 1 + table_pages); the
            // covering checksum cannot localize further, so report its
            // first page.
            return Err(PersistError::Checksum { page: 1 });
        }
        let table: Vec<u64> = table_bytes[..(num_content_pages as usize) * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();

        let mut reader = PagedStoreReader {
            file,
            table,
            content_start: 1 + table_pages as u64,
            num_content_pages,
            meta: PagedMeta {
                config: HermesConfig::new(1),
                split_centroids: Mat::zeros(0, 0),
                anchor_centroids: Mat::zeros(0, 0),
                sizes: Vec::new(),
                chosen_seed: 0,
                generation: 0,
                directory: Vec::new(),
            },
        };
        let meta_buf = reader.read_content(0, meta_len)?;
        reader.meta = decode_meta(&meta_buf)?;
        for &(page, len) in &reader.meta.directory {
            let end = page + pages_for(len as usize) as u64;
            if end > num_content_pages {
                return Err(PersistError::Corrupt(format!(
                    "shard section [{page}, {end}) exceeds {num_content_pages} content pages"
                )));
            }
        }
        Ok(reader)
    }

    /// Reads `len` bytes starting at content page `first_page`, verifying
    /// every touched page against the checksum table.
    fn read_content(&mut self, first_page: u64, len: usize) -> Result<Vec<u8>, PersistError> {
        let pages = pages_for(len) as u64;
        if first_page + pages > self.num_content_pages {
            return Err(PersistError::Truncated);
        }
        let offset = (self.content_start + first_page) * PAGE_SIZE as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; (pages as usize) * PAGE_SIZE];
        read_exact_or_truncated(&mut self.file, &mut buf)?;
        for (i, page) in buf.chunks(PAGE_SIZE).enumerate() {
            let idx = first_page as usize + i;
            if checksum64(page) != self.table[idx] {
                return Err(PersistError::Checksum {
                    page: self.content_start + idx as u64,
                });
            }
        }
        buf.truncate(len);
        Ok(buf)
    }

    /// The persisted configuration (available without touching shards).
    pub fn config(&self) -> &HermesConfig {
        &self.meta.config
    }

    /// Number of shard sections in the image.
    pub fn num_clusters(&self) -> usize {
        self.meta.directory.len()
    }

    /// Persisted live sizes per cluster.
    pub fn cluster_sizes(&self) -> &[usize] {
        &self.meta.sizes
    }

    /// Total live documents in the image.
    pub fn len(&self) -> usize {
        self.meta.sizes.iter().sum()
    }

    /// Whether the image holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persisted rebalance generation.
    pub fn generation(&self) -> u64 {
        self.meta.generation
    }

    /// Materializes one shard's IVF index from its pages.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] for an out-of-range cluster and
    /// typed errors for checksum/decode failures.
    pub fn load_shard(&mut self, cluster: usize) -> Result<IvfIndex, PersistError> {
        let &(page, len) = self
            .meta
            .directory
            .get(cluster)
            .ok_or_else(|| PersistError::Corrupt(format!("no shard section {cluster}")))?;
        let buf = self.read_content(page, len as usize)?;
        Ok(IvfIndex::from_bytes(&buf)?)
    }

    /// Materializes the full store (all shard sections).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::load_shard`] failures.
    pub fn into_store(mut self) -> Result<ClusteredStore, PersistError> {
        let mut shards = Vec::with_capacity(self.num_clusters());
        for c in 0..self.num_clusters() {
            shards.push(self.load_shard(c)?);
        }
        Ok(ClusteredStore::from_parts_full(
            self.meta.config,
            shards,
            self.meta.split_centroids,
            self.meta.anchor_centroids,
            self.meta.sizes,
            self.meta.chosen_seed,
            self.meta.generation,
        ))
    }
}

/// `read_exact` with EOF mapped to the typed truncation error.
fn read_exact_or_truncated(f: &mut std::fs::File, buf: &mut [u8]) -> Result<(), PersistError> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            PersistError::Truncated
        } else {
            PersistError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HermesError;
    use hermes_datagen::{Corpus, CorpusSpec};

    fn store() -> (Corpus, ClusteredStore) {
        let corpus = Corpus::generate(CorpusSpec::new(500, 12, 5).with_seed(61));
        let cfg = HermesConfig::new(5)
            .with_clusters_to_search(2)
            .with_seed(62);
        let store = ClusteredStore::build(corpus.embeddings(), &cfg).unwrap();
        (corpus, store)
    }

    #[test]
    fn store_round_trips_through_filesystem() {
        let (corpus, store) = store();
        let path = std::env::temp_dir().join("hermes_store_roundtrip.hpgs");
        store.save(&path).unwrap();
        let loaded = ClusteredStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let q = corpus.embeddings().row(0);
        assert_eq!(
            loaded.hierarchical_search(q).unwrap().hits,
            store.hierarchical_search(q).unwrap().hits
        );
    }

    #[test]
    fn corrupt_store_is_rejected() {
        let (_, store) = store();
        let buf = store.to_paged_bytes();
        let path = std::env::temp_dir().join("hermes_store_corrupt.hpgs");
        std::fs::write(&path, &buf[..buf.len() - 9]).unwrap();
        assert!(ClusteredStore::load(&path).is_err());
        std::fs::write(&path, b"junk").unwrap();
        assert!(ClusteredStore::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn online_insert_routes_to_topical_cluster_and_is_searchable() {
        let (corpus, mut store) = store();
        // Insert a document pointing along a split centroid but with a
        // larger norm, so under inner product it dominates every unit
        // vector in the corpus; it must land in that cluster and become
        // retrievable.
        let mut target = store.split_centroid(3).to_vec();
        hermes_math::distance::normalize(&mut target);
        hermes_math::distance::scale(&mut target, 2.0);
        let before = store.cluster_sizes()[3];
        let cluster = store.insert(99_999, &target).unwrap();
        assert_eq!(cluster, 3);
        assert_eq!(store.cluster_sizes()[3], before + 1);
        assert_eq!(store.len(), corpus.len() + 1);
        let out = store.hierarchical_search(&target).unwrap();
        assert!(
            out.hits.iter().any(|n| n.id == 99_999),
            "freshly inserted document should be retrieved: {:?}",
            out.hits
        );
    }

    #[test]
    fn insert_rejects_wrong_dimension() {
        let (_, mut store) = store();
        assert!(matches!(
            store.insert(1, &[1.0, 2.0]),
            Err(HermesError::Index(_))
        ));
    }

    #[test]
    fn paged_image_round_trips_bit_identically() {
        let (corpus, store) = store();
        let path = std::env::temp_dir().join("hermes_paged_roundtrip.hpgs");
        store.save(&path).unwrap();
        let loaded = ClusteredStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.to_paged_bytes(), store.to_paged_bytes());
        assert_eq!(loaded.cluster_sizes(), store.cluster_sizes());
        assert_eq!(loaded.config(), store.config());
        assert_eq!(loaded.generation(), store.generation());
        for q in corpus.embeddings().iter_rows().take(10) {
            assert_eq!(
                loaded.hierarchical_search(q).unwrap(),
                store.hierarchical_search(q).unwrap()
            );
        }
    }

    #[test]
    fn paged_image_preserves_rebalance_metadata() {
        let (_, mut store) = store();
        let v = store.split_centroid(0).to_vec();
        for i in 0..800 {
            store.insert(50_000 + i, &v).unwrap();
        }
        let r = crate::Rebalancer::new(crate::RebalanceConfig {
            max_imbalance: 2.0,
            ..crate::RebalanceConfig::default()
        });
        let action = r.next_action(&store).expect("skew triggers");
        let next = r.apply(&store, action).unwrap();
        assert!(next.generation() > 0);

        let path = std::env::temp_dir().join("hermes_paged_rebalanced.hpgs");
        next.save(&path).unwrap();
        let loaded = ClusteredStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // The paged format carries generation and drift anchors, so the
        // loaded store resumes rebalancing exactly where it left off.
        assert_eq!(loaded.generation(), next.generation());
        assert_eq!(loaded.cluster_drift(), next.cluster_drift());
        assert_eq!(loaded.config().num_clusters, next.num_clusters());
        assert_eq!(
            format!("{:?}", r.next_action(&loaded)),
            format!("{:?}", r.next_action(&next))
        );
    }

    #[test]
    fn paged_reader_opens_without_materializing_shards() {
        let (_, store) = store();
        let path = std::env::temp_dir().join("hermes_paged_cold_open.hpgs");
        store.save(&path).unwrap();
        let mut reader = crate::PagedStoreReader::open(&path).unwrap();
        assert_eq!(reader.num_clusters(), store.num_clusters());
        assert_eq!(reader.cluster_sizes(), store.cluster_sizes());
        assert_eq!(reader.len(), store.len());
        assert_eq!(reader.generation(), store.generation());
        // Individual shard sections decode to the same bytes the store
        // would serialize.
        let shard = reader.load_shard(2).unwrap();
        assert_eq!(shard.to_bytes(), store.shard(2).to_bytes());
        assert!(reader.load_shard(99).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_snapshot_leaves_previous_generation_loadable() {
        let (corpus, mut store) = store();
        let path = std::env::temp_dir().join("hermes_paged_atomic.hpgs");
        store.save(&path).unwrap();

        // A crash mid-snapshot leaves a half-written `.tmp` sibling; the
        // published image must stay untouched and loadable.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, b"half-written snapshot junk").unwrap();
        let loaded = ClusteredStore::load(&path).unwrap();
        assert_eq!(loaded.len(), store.len());

        // A completed save atomically replaces the image (and consumes
        // the tmp sibling).
        let v = corpus.embeddings().row(0).to_vec();
        store.insert(88_888, &v).unwrap();
        store.save(&path).unwrap();
        assert!(!std::path::Path::new(&tmp).exists());
        let newer = ClusteredStore::load(&path).unwrap();
        assert_eq!(newer.len(), store.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inserts_survive_persistence() {
        let (_, mut store) = store();
        let mut v = store.split_centroid(1).to_vec();
        hermes_math::distance::normalize(&mut v);
        hermes_math::distance::scale(&mut v, 2.0);
        store.insert(77_777, &v).unwrap();
        let path = std::env::temp_dir().join("hermes_store_inserts.hpgs");
        store.save(&path).unwrap();
        let loaded = ClusteredStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let out = loaded.hierarchical_search(&v).unwrap();
        assert!(out.hits.iter().any(|n| n.id == 77_777));
    }
}
