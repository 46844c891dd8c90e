//! Persistent, content-addressed storage for factorized graph summaries.
//!
//! The raw path-count matrices (`k x k` per length, ℓmax of them) are tiny next to
//! the `O(m·k·ℓmax)` work of computing them, so the [`SummaryStore`] persists them
//! keyed by the *content* of their inputs: the [`Fingerprint`]s of the graph and
//! seed set plus the counting mode. A later process that loads the same dataset
//! finds the file and skips summarization; the
//! [`EstimationContext`](crate::EstimationContext) uses the store as a
//! read-through / write-back tier below its in-memory cache.
//!
//! # Record frame
//!
//! Every store file is one record. All four record kinds below share one frame,
//! with every integer and float little-endian:
//!
//! | part             | size        | content                                             |
//! |------------------|-------------|-----------------------------------------------------|
//! | magic            | 6 bytes     | the kind: `FGSUMM`, `FGHEST`, `FGGRPH` or `FGVFAC`  |
//! | version          | `u16`       | `1` for every kind                                  |
//! | key fingerprints | `u128` each | the content fingerprints the record is keyed by     |
//! | typed header     | per kind    | fixed-width counts and parameters                   |
//! | payload          | per kind    | embedded names, then data with exact `f64` bits     |
//! | checksum         | `u128`      | hash of every preceding byte, one domain per kind   |
//!
//! # File format (version 1)
//!
//! One file per `(graph, seeds, counting mode)` triple, named
//! `<graph_fp>-<seed_fp>-<nb|all>.fgsum`:
//!
//! | field      | size          | content                                          |
//! |------------|---------------|--------------------------------------------------|
//! | magic      | 6 bytes       | `FGSUMM`                                         |
//! | version    | `u16`         | `1`                                              |
//! | graph_fp   | `u128`        | [`Graph::fingerprint`](fg_graph::Graph::fingerprint) |
//! | seed_fp    | `u128`        | [`SeedLabels::fingerprint`](fg_graph::SeedLabels::fingerprint) |
//! | mode       | `u8`          | `1` = non-backtracking counts, `0` = plain paths |
//! | k          | `u32`         | number of classes                                |
//! | lmax       | `u32`         | number of stored lengths                         |
//! | counts     | `lmax·k²` f64 | `M(1)..M(lmax)`, row-major, exact bit patterns   |
//! | checksum   | `u128`        | fingerprint hash of every preceding byte         |
//!
//! Because `f64` bit patterns round-trip exactly through the encoding, a loaded
//! summary is **bit-identical** to the freshly computed one — the store never changes
//! a result, only whether it is recomputed.
//!
//! # `H`-estimate entries (version 1)
//!
//! The store also persists *estimated compatibility matrices* so warm runs skip the
//! optimization stage too. One `.fgh` file per `(graph, seeds, estimator name)`
//! triple, named `<graph_fp>-<seed_fp>-<name digest>.fgh`:
//!
//! | field      | size       | content                                          |
//! |------------|------------|--------------------------------------------------|
//! | magic      | 6 bytes    | `FGHEST`                                         |
//! | version    | `u16`      | `1`                                              |
//! | graph_fp   | `u128`     | graph fingerprint                                |
//! | seed_fp    | `u128`     | seed-set fingerprint                             |
//! | name_len   | `u32`      | byte length of the estimator name                |
//! | k          | `u32`      | number of classes                                |
//! | name       | `name_len` | the parameterized estimator name, UTF-8          |
//! | h          | `k²` f64   | the estimate, row-major, exact bit patterns      |
//! | checksum   | `u128`     | domain-separated hash of every preceding byte    |
//!
//! The full estimator name is embedded (the file name only carries a digest of it)
//! and validated on load, so an estimate can never be served to a differently
//! parameterized estimator. The same loud-rejection policy applies.
//!
//! # Constructed-graph entries (version 1)
//!
//! The store persists *constructed* graphs so warm `fg construct` runs skip the
//! `O(n²·d)` build. One `.fgg` file per `(feature matrix, builder spec)` pair, named
//! `<features_fp>-<spec digest>.fgg`: magic `FGGRPH`, version, the features
//! fingerprint, the spec's byte length (`u32`), node and edge counts (`u64` each),
//! the spec, the sorted edges as `(u64, u64, f64)` triples with exact weight bits,
//! and a checksum. A loaded graph has the built graph's content fingerprint.
//!
//! # Low-rank factor entries (version 1)
//!
//! The store also persists the spectral factors behind the low-rank counting
//! backend, so warm runs skip the eigensolve — the only edge-proportional cost
//! of that backend. One `.fgv` file per `(graph, factor config)` pair, named
//! `<graph_fp>-<factor_fp>.fgv` where the factor fingerprint is derived from
//! `(graph fingerprint, rank, solver parameters)`:
//!
//! | field      | size          | content                                       |
//! |------------|---------------|-----------------------------------------------|
//! | magic      | 6 bytes       | `FGVFAC`                                      |
//! | version    | `u16`         | `1`                                           |
//! | graph_fp   | `u128`        | graph fingerprint                             |
//! | factor_fp  | `u128`        | [`fg_graph::factor_fingerprint`]              |
//! | rank       | `u32`         | retained rank `r`                             |
//! | max_iter   | `u64`         | eigensolver iteration budget                  |
//! | tol        | `f64`         | eigensolver tolerance, exact bit pattern      |
//! | seed       | `u64`         | eigensolver starting-block seed               |
//! | nodes      | `u64`         | node count `n`                                |
//! | iterations | `u64`         | subspace-iteration rounds the solve used      |
//! | V          | `n·r` f64     | eigenvector block, row-major, exact bits      |
//! | lambda     | `r` f64       | eigenvalues, magnitude-descending             |
//! | G          | `r²` f64      | projected degree correction `Vᵀ(D−I)V`        |
//! | degrees    | `n` f64       | per-node weighted degrees                     |
//! | checksum   | `u128`        | domain-separated hash of every preceding byte |
//!
//! Because all four solver parameters are embedded and validated (and enter the
//! factor fingerprint), a stored factor can never be served to a differently
//! configured solve. The loaded factor is bit-identical to the computed one.
//!
//! # Failure policy
//!
//! Corrupt or mismatched files (wrong magic or version, truncated payload, failed
//! checksum, embedded fingerprints that disagree with the request) are *rejected
//! loudly*: [`SummaryStore::load`] returns [`CoreError::Store`] instead of silently
//! serving bad data. The [`EstimationContext`](crate::EstimationContext) reacts by
//! warning on stderr, recomputing from scratch, and overwriting the bad file — a
//! damaged cache can cost time, never correctness. Sizes read from a header are
//! checked against the bytes present, so a hostile header is rejected without a
//! panic or an allocation larger than the file; a constructed graph's node count,
//! which no payload pins, is capped at 8 nodes per byte of its spec and edges.

use crate::error::{CoreError, Result};
use fg_graph::{factor_fingerprint, FactorConfig, Fingerprint, FingerprintBuilder, LowRankFactor};
use fg_sparse::DenseMatrix;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Current file-format version.
pub const STORE_FORMAT_VERSION: u16 = 1;
/// File extension used by the store.
pub const STORE_EXTENSION: &str = "fgsum";
/// Current `H`-entry format version.
pub const H_STORE_FORMAT_VERSION: u16 = 1;
/// File extension used by persisted `H` estimates.
pub const H_STORE_EXTENSION: &str = "fgh";
/// Current constructed-graph entry format version.
pub const GRAPH_STORE_FORMAT_VERSION: u16 = 1;
/// File extension used by persisted constructed graphs.
pub const GRAPH_STORE_EXTENSION: &str = "fgg";
/// Current low-rank factor entry format version.
pub const FACTOR_STORE_FORMAT_VERSION: u16 = 1;
/// File extension used by persisted low-rank factors.
pub const FACTOR_STORE_EXTENSION: &str = "fgv";
/// Most nodes a constructed-graph record may declare per byte of its builder spec
/// and edge list: it rejects only graphs with an average degree below about 1/100.
const MAX_NODES_PER_GRAPH_BYTE: usize = 8;
/// Trailing checksum size.
const CHECKSUM_LEN: usize = 16;
const LENGTH_MISMATCH: &str = "payload length disagrees with header";
const OVERFLOW: &str = "header sizes overflow";
/// Per-process counter that makes temp-file names unique (see [`Encoder::write`]).
static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A directory of persisted graph summaries (see the [module docs](self) for the
/// format and failure policy).
///
/// Every `load*` method returns `Ok(None)` when no file exists, the bit-exact
/// stored value when one does, and [`CoreError::Store`] when it is corrupt or keyed
/// to other inputs. Every `save*` method overwrites the entry through a unique
/// temporary file and an atomic rename, so readers never see a partial write.
#[derive(Debug, Clone)]
pub struct SummaryStore {
    dir: PathBuf,
}

/// Raw counts loaded from the store: the variant-independent `M(1)..M(lmax)`
/// matrices plus the class count they were computed with.
#[derive(Debug, Clone)]
pub struct StoredCounts {
    /// The raw count matrices, index 0 holding `ℓ = 1`.
    pub counts: Vec<DenseMatrix>,
    /// Number of classes `k` (each matrix is `k x k`).
    pub k: usize,
}

/// Parsed header of a stored summary, for `fg cache ls`-style listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Fingerprint of the summarized graph.
    pub graph_fp: Fingerprint,
    /// Fingerprint of the seed set.
    pub seed_fp: Fingerprint,
    /// Whether the counts are non-backtracking.
    pub non_backtracking: bool,
    /// Number of classes.
    pub k: usize,
    /// Number of stored path lengths.
    pub max_length: usize,
}

/// Parsed header of a persisted `H` estimate, for `fg cache ls`-style listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HStoreMeta {
    /// Fingerprint of the graph the estimate was computed on.
    pub graph_fp: Fingerprint,
    /// Fingerprint of the seed set the estimate was computed from.
    pub seed_fp: Fingerprint,
    /// The parameterized estimator name (e.g. `DCEr(r=10,l=5,lambda=10)`) — part of
    /// the key, since different estimators yield different matrices.
    pub estimator: String,
    /// Number of classes (`H` is `k x k`).
    pub k: usize,
}

/// Parsed header of a persisted constructed graph, for `fg cache ls` listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStoreMeta {
    /// Fingerprint of the feature matrix the graph was constructed from.
    pub features_fp: Fingerprint,
    /// The parameterized builder spec (e.g. `Knn(k=10,metric=euclidean,...)`) —
    /// part of the key, since different builders yield different graphs.
    pub builder: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
}

/// Parsed header of a persisted low-rank factor, for `fg cache ls` listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorStoreMeta {
    /// Fingerprint of the graph the factor was computed from.
    pub graph_fp: Fingerprint,
    /// The factor's own fingerprint, derived from `(graph, rank, solver params)`.
    pub factor_fp: Fingerprint,
    /// Retained rank `r`.
    pub rank: usize,
    /// Number of graph nodes `n`.
    pub nodes: usize,
}

/// The parsed header of a store file, by record kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryMeta {
    /// A `.fgsum` summary.
    Summary(StoreMeta),
    /// A `.fgh` persisted `H` estimate.
    H(HStoreMeta),
    /// A `.fgg` constructed graph.
    Graph(GraphStoreMeta),
    /// A `.fgv` low-rank factor.
    Factor(FactorStoreMeta),
}

/// What a [`SummaryStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Files deleted.
    pub removed: usize,
    /// Files kept.
    pub kept: usize,
    /// Bytes freed by the deletions.
    pub bytes_removed: u64,
    /// Bytes still in the store after the pass.
    pub bytes_kept: u64,
}

/// One file in the store directory, with its header if it parses.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// File name (not the full path).
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Parsed header, or `None` when the file is unreadable, corrupt, or a
    /// temporary file stranded by an interrupted write.
    pub meta: Option<EntryMeta>,
}

fn io_err(action: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Store(format!("cannot {action} {}: {e}", path.display()))
}

/// Delete `path`, returning whether a file was removed.
fn remove_file(path: &Path) -> Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err("remove", path, e)),
    }
}

/// A decoded value, or the reason the record is corrupt.
type Parse<T> = std::result::Result<T, &'static str>;

/// One record kind: the row of the kind table that encoding, decoding, temp-file
/// naming and [`SummaryStore::entries`] all go through.
struct Kind {
    extension: &'static str,
    magic: &'static [u8; 6],
    version: u16,
    /// Checksum domain tag, unique across the workspace's hashes.
    domain: &'static [u8],
    /// What rejection messages call a file of this kind.
    noun: &'static str,
    /// Parse the typed header of a verified record, for listings.
    header: fn(&mut Reader<'_>) -> Parse<EntryMeta>,
}

static SUMMARY: Kind = Kind {
    extension: STORE_EXTENSION,
    magic: b"FGSUMM",
    version: STORE_FORMAT_VERSION,
    domain: b"fg-summary-store-v1",
    noun: "summary",
    header: |r| summary_header(r).map(EntryMeta::Summary),
};

static H_ESTIMATE: Kind = Kind {
    extension: H_STORE_EXTENSION,
    magic: b"FGHEST",
    version: H_STORE_FORMAT_VERSION,
    domain: b"fg-h-store-v1",
    noun: "H-estimate",
    header: |r| h_header(r).map(EntryMeta::H),
};

static GRAPH: Kind = Kind {
    extension: GRAPH_STORE_EXTENSION,
    magic: b"FGGRPH",
    version: GRAPH_STORE_FORMAT_VERSION,
    domain: b"fg-graph-store-v1",
    noun: "constructed-graph",
    header: |r| graph_header(r).map(EntryMeta::Graph),
};

static FACTOR: Kind = Kind {
    extension: FACTOR_STORE_EXTENSION,
    magic: b"FGVFAC",
    version: FACTOR_STORE_FORMAT_VERSION,
    domain: b"fg-v-store-v1",
    noun: "low-rank factor",
    header: |r| factor_header(r).map(|(meta, _)| EntryMeta::Factor(meta)),
};

static KINDS: [&Kind; 4] = [&SUMMARY, &H_ESTIMATE, &GRAPH, &FACTOR];

impl Kind {
    /// Start a record with room for `len` bytes past its fixed header (≤ 100 bytes
    /// with the checksum).
    fn encoder(&'static self, len: usize) -> Encoder {
        let mut bytes = Vec::with_capacity(len + 100);
        bytes.extend_from_slice(self.magic);
        bytes.extend_from_slice(&self.version.to_le_bytes());
        Encoder { kind: self, bytes }
    }

    fn checksum(&self, bytes: &[u8]) -> [u8; CHECKSUM_LEN] {
        let mut h = FingerprintBuilder::new(self.domain);
        h.write_bytes(bytes);
        h.finish().as_u128().to_le_bytes()
    }

    /// Verify the frame (length, magic, version, checksum) and return a reader over
    /// the fields between the version and the checksum.
    fn open<'a>(&self, bytes: &'a [u8]) -> Parse<Reader<'a>> {
        if bytes.len() < self.magic.len() + 2 + CHECKSUM_LEN {
            return Err("file too short for a record");
        }
        let (body, checksum) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let (magic, rest) = body.split_at(self.magic.len());
        let (version, fields) = rest.split_at(2);
        if magic != self.magic {
            return Err("bad magic bytes");
        }
        if version != self.version.to_le_bytes() {
            return Err("unsupported format version");
        }
        if self.checksum(body) != checksum {
            return Err("checksum mismatch");
        }
        Ok(Reader { fields })
    }

    fn corrupt(&self, path: &Path, reason: &str) -> CoreError {
        let (noun, path) = (self.noun, path.display());
        CoreError::Store(format!("rejecting corrupt {noun} file {path}: {reason}"))
    }

    /// Read the record at `path`, check that it leads with the `key` fingerprints,
    /// and decode it; bytes `decode` leaves unread make it corrupt.
    fn load<T>(
        &self,
        path: &Path,
        key: &[Fingerprint],
        decode: impl FnOnce(&mut Reader<'_>) -> std::result::Result<T, String>,
    ) -> Result<Option<T>> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read", path, e)),
        };
        let mut reader = self.open(&bytes).map_err(|r| self.corrupt(path, r))?;
        // Peek through a copy: the kind's header parser reads the keys again.
        let mut keys = reader;
        if !key.iter().all(|&fp| keys.fingerprint() == Ok(fp)) {
            return Err(self.corrupt(path, "embedded fingerprints do not match the request"));
        }
        let value = decode(&mut reader).map_err(|r| self.corrupt(path, &r))?;
        if !reader.fields.is_empty() {
            return Err(self.corrupt(path, LENGTH_MISMATCH));
        }
        Ok(Some(value))
    }

    /// The parsed header of the file at `path`, if it is readable and intact.
    fn entry_meta(&self, path: &Path) -> Option<EntryMeta> {
        let bytes = fs::read(path).ok()?;
        (self.header)(&mut self.open(&bytes).ok()?).ok()
    }
}

/// Appends little-endian fields to a record, then seals and writes it.
struct Encoder {
    kind: &'static Kind,
    bytes: Vec<u8>,
}

impl Encoder {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(bytes);
        self
    }

    fn u32(&mut self, v: usize) -> &mut Self {
        self.bytes(&(v as u32).to_le_bytes())
    }

    fn u64(&mut self, v: usize) -> &mut Self {
        self.bytes(&(v as u64).to_le_bytes())
    }

    fn fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.bytes(&fp.as_u128().to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn f64s(&mut self, values: &[f64]) -> &mut Self {
        values.iter().fold(self, |e, &v| e.f64(v))
    }

    /// Append the checksum and write the record to `path` through a temporary
    /// file and an atomic rename.
    fn write(mut self, path: PathBuf) -> Result<PathBuf> {
        let checksum = self.kind.checksum(&self.bytes);
        self.bytes.extend_from_slice(&checksum);
        // The temporary name is unique per (process, write), so two writers racing
        // on one key (sessions extending a stored prefix to different lmax) land
        // whole files in either order and readers never see an interleaving.
        let tmp = path.with_extension(format!(
            "{}.{}-{}.tmp",
            self.kind.extension,
            std::process::id(),
            TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        fs::write(&tmp, &self.bytes).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        Ok(path)
    }
}

/// A cursor over a verified record's fields. Every read checks that its bytes are
/// present and every size is computed with checked arithmetic, so no header value
/// can cause a panic or an allocation larger than the record.
#[derive(Clone, Copy)]
struct Reader<'a> {
    fields: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Parse<&'a [u8]> {
        let (head, rest) = self.fields.split_at_checked(len).ok_or(LENGTH_MISMATCH)?;
        self.fields = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Parse<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u32(&mut self) -> Parse<usize> {
        self.array().map(|b| u32::from_le_bytes(b) as usize)
    }

    fn u64(&mut self) -> Parse<usize> {
        let v = u64::from_le_bytes(self.array()?);
        usize::try_from(v).map_err(|_| OVERFLOW)
    }

    fn f64(&mut self) -> Parse<f64> {
        self.array().map(f64::from_le_bytes)
    }

    fn fingerprint(&mut self) -> Parse<Fingerprint> {
        self.array()
            .map(|b| Fingerprint::from_u128(u128::from_le_bytes(b)))
    }

    fn str(&mut self, len: usize) -> Parse<String> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "embedded name is not valid UTF-8")
    }

    /// `count` values, checked against the bytes left before any allocation.
    fn f64s(&mut self, count: usize) -> Parse<Vec<f64>> {
        let raw = self.take(product(count, 8)?)?;
        let value = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
        Ok(raw.chunks_exact(8).map(value).collect())
    }
}

/// `a · b`, or the rejection reason when a hostile header makes it overflow.
fn product(a: usize, b: usize) -> Parse<usize> {
    a.checked_mul(b).ok_or(OVERFLOW)
}

fn summary_header(r: &mut Reader<'_>) -> Parse<StoreMeta> {
    let meta = StoreMeta {
        graph_fp: r.fingerprint()?,
        seed_fp: r.fingerprint()?,
        non_backtracking: match r.take(1)? {
            [0] => false,
            [1] => true,
            _ => return Err("invalid counting-mode byte"),
        },
        k: r.u32()?,
        max_length: r.u32()?,
    };
    if meta.k == 0 || meta.max_length == 0 {
        return Err("header declares an empty summary");
    }
    Ok(meta)
}

fn h_header(r: &mut Reader<'_>) -> Parse<HStoreMeta> {
    let (graph_fp, seed_fp) = (r.fingerprint()?, r.fingerprint()?);
    let (name_len, k) = (r.u32()?, r.u32()?);
    if k == 0 || name_len == 0 {
        return Err("header declares an empty estimate");
    }
    Ok(HStoreMeta {
        graph_fp,
        seed_fp,
        estimator: r.str(name_len)?,
        k,
    })
}

fn graph_header(r: &mut Reader<'_>) -> Parse<GraphStoreMeta> {
    let features_fp = r.fingerprint()?;
    let (name_len, nodes, edges) = (r.u32()?, r.u64()?, r.u64()?);
    if name_len == 0 {
        return Err("header declares an empty builder spec");
    }
    if nodes / MAX_NODES_PER_GRAPH_BYTE > r.fields.len() {
        return Err("header declares more nodes than the record can describe");
    }
    Ok(GraphStoreMeta {
        features_fp,
        builder: r.str(name_len)?,
        nodes,
        edges,
    })
}

/// The factor header plus the iteration count of the solve it records.
fn factor_header(r: &mut Reader<'_>) -> Parse<(FactorStoreMeta, usize)> {
    let (graph_fp, factor_fp, rank) = (r.fingerprint()?, r.fingerprint()?, r.u32()?);
    // max_iter, tol and seed enter the factor fingerprint, which loads validate.
    r.take(24)?;
    let (nodes, iterations) = (r.u64()?, r.u64()?);
    if rank == 0 || nodes == 0 || rank > nodes {
        return Err("header declares an impossible rank/node combination");
    }
    let meta = FactorStoreMeta {
        graph_fp,
        factor_fp,
        rank,
        nodes,
    };
    Ok((meta, iterations))
}

/// Hex digest of an estimator name or builder spec, for file names only.
fn name_digest(name: &str) -> String {
    let mut h = FingerprintBuilder::new(b"fg-h-store-name-v1");
    h.write_bytes(name.as_bytes());
    h.finish().to_hex()
}

/// The bytes of a name that keys an entry, which must fit its `u32` length field.
fn key_name<'a>(name: &'a str, what: &str) -> Result<&'a [u8]> {
    if name.is_empty() || name.len() > u32::MAX as usize {
        let reason = format!("{what} must be non-empty to key an entry");
        return Err(CoreError::Store(reason));
    }
    Ok(name.as_bytes())
}

impl SummaryStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SummaryStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store directory", &dir, e))?;
        Ok(SummaryStore { dir })
    }

    /// The default store location used by the CLI when `--summary-cache` is given
    /// without a directory: `target/experiments/summaries`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/experiments/summaries")
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a `(graph, seeds, mode)` triple is stored under.
    pub fn path_for(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        non_backtracking: bool,
    ) -> PathBuf {
        let (g, s) = (graph_fp.to_hex(), seed_fp.to_hex());
        let mode = if non_backtracking { "nb" } else { "all" };
        self.dir.join(format!("{g}-{s}-{mode}.{STORE_EXTENSION}"))
    }

    /// Persist raw count matrices for a `(graph, seeds, mode)` triple. Every matrix
    /// must be `k x k`.
    pub fn save(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        non_backtracking: bool,
        k: usize,
        counts: &[DenseMatrix],
    ) -> Result<PathBuf> {
        if counts.is_empty() || counts.iter().any(|m| m.shape() != (k, k)) {
            let reason = format!("refusing to persist a summary that is not {k}x{k} matrices");
            return Err(CoreError::Store(reason));
        }
        let mut record = SUMMARY.encoder(counts.len() * k * k * 8);
        record.fingerprint(graph_fp).fingerprint(seed_fp);
        record.bytes(&[u8::from(non_backtracking)]);
        record.u32(k).u32(counts.len());
        for m in counts {
            record.f64s(m.data());
        }
        record.write(self.path_for(graph_fp, seed_fp, non_backtracking))
    }

    /// Load the persisted counts for a `(graph, seeds, mode)` triple.
    pub fn load(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        non_backtracking: bool,
    ) -> Result<Option<StoredCounts>> {
        let path = self.path_for(graph_fp, seed_fp, non_backtracking);
        SUMMARY.load(&path, &[graph_fp, seed_fp], |r| {
            let meta = summary_header(r)?;
            if meta.non_backtracking != non_backtracking {
                return Err("embedded counting mode does not match".into());
            }
            let k = meta.k;
            let mut counts = Vec::new();
            for _ in 0..meta.max_length {
                let m = DenseMatrix::from_vec(k, k, r.f64s(product(k, k)?)?);
                counts.push(m.map_err(|e| format!("invalid matrix: {e}"))?);
            }
            Ok(StoredCounts { counts, k })
        })
    }

    /// List every store file of the four kinds, plus any `.tmp` leftovers of
    /// interrupted writes, with its parsed header. Sorted by file name.
    pub fn entries(&self) -> Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        let dir_iter = match fs::read_dir(&self.dir) {
            Ok(iter) => iter,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(entries),
            Err(e) => return Err(io_err("read store directory", &self.dir, e)),
        };
        for item in dir_iter {
            let item = item.map_err(|e| io_err("read store directory", &self.dir, e))?;
            let file = item.file_name().to_string_lossy().into_owned();
            let dotted = |k: &Kind| format!(".{}", k.extension);
            let kind = KINDS.into_iter().find(|k| file.ends_with(&dotted(k)));
            // A crash between write and rename strands `*.fgsum.<pid>-<seq>.tmp`
            // (or the older `*.fgsum.tmp`); listing it keeps it clearable.
            let stranded =
                file.ends_with(".tmp") && KINDS.iter().any(|k| file.contains(&(dotted(k) + ".")));
            if kind.is_none() && !stranded {
                continue;
            }
            entries.push(StoreEntry {
                bytes: item.metadata().map(|m| m.len()).unwrap_or(0),
                meta: kind.and_then(|kind| kind.entry_meta(&item.path())),
                file,
            });
        }
        entries.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(entries)
    }

    /// Delete the stored summary for one `(graph, seeds, mode)` triple, returning
    /// whether a file was removed (sessions prune superseded seed sets this way).
    pub fn remove(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        non_backtracking: bool,
    ) -> Result<bool> {
        remove_file(&self.path_for(graph_fp, seed_fp, non_backtracking))
    }

    /// The file path an estimated `H` is stored under. Estimator names hold
    /// characters awkward in file names (`(`, `=`, `,`), so the path carries a hex
    /// digest of the name while the full name is embedded in the file.
    pub fn path_for_h(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        estimator: &str,
    ) -> PathBuf {
        let (g, s, name) = (graph_fp.to_hex(), seed_fp.to_hex(), name_digest(estimator));
        self.dir.join(format!("{g}-{s}-{name}.{H_STORE_EXTENSION}"))
    }

    /// Persist an estimated compatibility matrix `H` keyed by
    /// `(graph, seeds, estimator name)`. The matrix must be square.
    pub fn save_h(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        estimator: &str,
        h: &DenseMatrix,
    ) -> Result<PathBuf> {
        let (k, cols) = h.shape();
        if k == 0 || cols != k {
            let reason = format!("refusing to persist a {k}x{cols} estimate (H must be square)");
            return Err(CoreError::Store(reason));
        }
        let name = key_name(estimator, "estimator name")?;
        let mut record = H_ESTIMATE.encoder(name.len() + k * k * 8);
        record.fingerprint(graph_fp).fingerprint(seed_fp);
        record.u32(name.len()).u32(k).bytes(name).f64s(h.data());
        record.write(self.path_for_h(graph_fp, seed_fp, estimator))
    }

    /// Load the persisted `H` estimate for a `(graph, seeds, estimator)` triple.
    pub fn load_h(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        estimator: &str,
    ) -> Result<Option<DenseMatrix>> {
        let path = self.path_for_h(graph_fp, seed_fp, estimator);
        H_ESTIMATE.load(&path, &[graph_fp, seed_fp], |r| {
            let meta = h_header(r)?;
            if meta.estimator != estimator {
                return Err("embedded estimator name does not match the request".into());
            }
            let data = r.f64s(product(meta.k, meta.k)?)?;
            DenseMatrix::from_vec(meta.k, meta.k, data).map_err(|e| format!("invalid matrix: {e}"))
        })
    }

    /// Delete the persisted `H` estimate for one `(graph, seeds, estimator)` triple,
    /// returning whether a file was removed.
    pub fn remove_h(
        &self,
        graph_fp: Fingerprint,
        seed_fp: Fingerprint,
        estimator: &str,
    ) -> Result<bool> {
        remove_file(&self.path_for_h(graph_fp, seed_fp, estimator))
    }

    /// The file path a constructed graph is stored under, keyed by the feature
    /// matrix's fingerprint and a digest of the builder spec.
    pub fn path_for_graph(&self, features_fp: Fingerprint, builder: &str) -> PathBuf {
        let (features, name) = (features_fp.to_hex(), name_digest(builder));
        self.dir
            .join(format!("{features}-{name}.{GRAPH_STORE_EXTENSION}"))
    }

    /// Persist a constructed graph keyed by `(features fingerprint, builder spec)`.
    /// A graph with more than 8 nodes per byte of spec and edges is refused: it
    /// could not be loaded back.
    pub fn save_graph(
        &self,
        features_fp: Fingerprint,
        builder: &str,
        graph: &fg_graph::Graph,
    ) -> Result<PathBuf> {
        let name = key_name(builder, "builder spec")?;
        let (nodes, edges) = (graph.num_nodes(), graph.edges().count());
        let mut record = GRAPH.encoder(name.len() + edges * 24);
        record.fingerprint(features_fp).u32(name.len());
        record.u64(nodes).u64(edges).bytes(name);
        for (u, v, w) in graph.edges() {
            record.u64(u).u64(v).f64(w);
        }
        if nodes / MAX_NODES_PER_GRAPH_BYTE > name.len() + edges * 24 {
            let reason = format!("refusing to persist a graph of {nodes} nodes, {edges} edges");
            return Err(CoreError::Store(reason));
        }
        record.write(self.path_for_graph(features_fp, builder))
    }

    /// Load the persisted constructed graph for a `(features, builder)` pair.
    pub fn load_graph(
        &self,
        features_fp: Fingerprint,
        builder: &str,
    ) -> Result<Option<fg_graph::Graph>> {
        let path = self.path_for_graph(features_fp, builder);
        GRAPH.load(&path, &[features_fp], |r| {
            let meta = graph_header(r)?;
            if meta.builder != builder {
                return Err("embedded builder spec does not match".into());
            }
            // A hostile edge count fails at the first missing byte, unallocated.
            let edges = (0..meta.edges)
                .map(|_| Ok((r.u64()?, r.u64()?, r.f64()?)))
                .collect::<Parse<Vec<_>>>()?;
            fg_graph::Graph::from_weighted_edges(meta.nodes, &edges)
                .map_err(|e| format!("invalid graph: {e}"))
        })
    }

    /// The file path a low-rank factor is stored under, keyed by the graph and
    /// factor fingerprints (the latter folds in the rank and solver parameters).
    pub fn path_for_factor(&self, graph_fp: Fingerprint, config: &FactorConfig) -> PathBuf {
        let (g, factor) = (graph_fp.to_hex(), factor_fingerprint(graph_fp, config));
        self.dir
            .join(format!("{g}-{}.{FACTOR_STORE_EXTENSION}", factor.to_hex()))
    }

    /// Persist a computed low-rank factor keyed by `(graph, factor config)`.
    pub fn save_factor(&self, factor: &LowRankFactor) -> Result<PathBuf> {
        let (graph_fp, factor_fp) = (factor.graph_fingerprint(), factor.fingerprint());
        let (n, r, config) = (factor.num_nodes(), factor.rank(), factor.config());
        let mut record = FACTOR.encoder((n * r + r + r * r + n) * 8);
        record.fingerprint(graph_fp).fingerprint(factor_fp);
        record.u32(r).u64(config.max_iter).f64(config.tol);
        record.bytes(&config.seed.to_le_bytes());
        record.u64(n).u64(factor.iterations());
        record.f64s(factor.v().data()).f64s(factor.lambda());
        record.f64s(factor.g().data()).f64s(factor.degrees());
        record.write(self.path_for_factor(graph_fp, config))
    }

    /// Load the persisted low-rank factor for a `(graph, factor config)` pair.
    pub fn load_factor(
        &self,
        graph_fp: Fingerprint,
        config: &FactorConfig,
    ) -> Result<Option<LowRankFactor>> {
        let key = [graph_fp, factor_fingerprint(graph_fp, config)];
        FACTOR.load(&self.path_for_factor(graph_fp, config), &key, |r| {
            let (meta, iterations) = factor_header(r)?;
            let (n, rank) = (meta.nodes, meta.rank);
            let v = DenseMatrix::from_vec(n, rank, r.f64s(product(n, rank)?)?)
                .map_err(|e| format!("invalid V matrix: {e}"))?;
            let lambda = r.f64s(rank)?;
            let g = DenseMatrix::from_vec(rank, rank, r.f64s(product(rank, rank)?)?)
                .map_err(|e| format!("invalid G matrix: {e}"))?;
            LowRankFactor::from_parts(v, lambda, g, r.f64s(n)?, graph_fp, *config, iterations)
                .map_err(|e| format!("invalid factor: {e}"))
        })
    }

    /// Delete every store file, stale temp files included; returns how many.
    pub fn clear(&self) -> Result<usize> {
        let mut removed = 0;
        for entry in self.entries()? {
            removed += usize::from(remove_file(&self.dir.join(&entry.file))?);
        }
        Ok(removed)
    }

    /// Garbage-collect the store: drop every file older than `max_age` (by
    /// modification time), then drop the least recently written files until the
    /// total is at or below `max_bytes`. Loads leave mtimes alone, so eviction is
    /// LRU by write. At least one bound must be given. Files that vanish
    /// mid-collection (a concurrent `clear` or gc) count as removed.
    pub fn gc(
        &self,
        max_bytes: Option<u64>,
        max_age: Option<std::time::Duration>,
    ) -> Result<GcOutcome> {
        if max_bytes.is_none() && max_age.is_none() {
            let reason = "gc needs at least one bound (max_bytes or max_age)";
            return Err(CoreError::Store(reason.into()));
        }
        let now = std::time::SystemTime::now();
        // Unreadable mtimes sort oldest, so broken files go first; names break ties.
        let mut files = Vec::new();
        for entry in self.entries()? {
            let mtime = fs::metadata(self.dir.join(&entry.file)).and_then(|m| m.modified());
            files.push((
                mtime.unwrap_or(std::time::UNIX_EPOCH),
                entry.file,
                entry.bytes,
            ));
        }
        files.sort();

        // Expired files are a prefix of this order: drop them, then drop more while
        // the total is over the cap.
        let mut outcome = GcOutcome::default();
        let mut total: u64 = files.iter().map(|f| f.2).sum();
        for (mtime, file, bytes) in files {
            let expired =
                max_age.is_some_and(|age| now.duration_since(mtime).is_ok_and(|d| d > age));
            if expired || max_bytes.is_some_and(|cap| total > cap) {
                // A file deleted by a concurrent clear/gc still counts as removed.
                remove_file(&self.dir.join(&file))?;
                outcome.removed += 1;
                outcome.bytes_removed += bytes;
                total -= bytes;
            } else {
                outcome.kept += 1;
                outcome.bytes_kept += bytes;
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> SummaryStore {
        let dir = std::env::temp_dir().join(format!("fg_summary_store_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        SummaryStore::open(dir).unwrap()
    }

    fn sample_counts() -> Vec<DenseMatrix> {
        vec![
            DenseMatrix::from_rows(&[vec![1.0, 2.5], vec![2.5, 0.125]]).unwrap(),
            DenseMatrix::from_rows(&[vec![-0.0, 1e-300], vec![3.0, f64::MAX]]).unwrap(),
        ]
    }

    fn fps() -> (Fingerprint, Fingerprint) {
        (
            Fingerprint::from_u128(0xabcd_1234),
            Fingerprint::from_u128(0x5678_def0),
        )
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let store = temp_store("round_trip");
        let (g, s) = fps();
        let counts = sample_counts();
        store.save(g, s, true, 2, &counts).unwrap();
        let loaded = store.load(g, s, true).unwrap().unwrap();
        assert_eq!(loaded.k, 2);
        assert_eq!(loaded.counts.len(), 2);
        for (a, b) in counts.iter().zip(&loaded.counts) {
            // Bit-exact: compare raw bit patterns, not approximate values.
            let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        // The other counting mode is a separate (absent) file.
        assert!(store.load(g, s, false).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn missing_file_is_none_not_error() {
        let store = temp_store("missing");
        let (g, s) = fps();
        assert!(store.load(g, s, true).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn save_validates_shapes() {
        let store = temp_store("shapes");
        let (g, s) = fps();
        assert!(store.save(g, s, true, 2, &[]).is_err());
        let wrong = vec![DenseMatrix::zeros(2, 3)];
        assert!(store.save(g, s, true, 2, &wrong).is_err());
        assert!(store
            .save_h(g, s, "DCE(l=5)", &DenseMatrix::zeros(2, 3))
            .is_err());
        assert!(store.save_h(g, s, "", &DenseMatrix::zeros(2, 2)).is_err());
        let graph = fg_graph::Graph::from_weighted_edges(3, &[(0, 1, 1.0)]).unwrap();
        assert!(store.save_graph(g, "", &graph).is_err());
        // A graph too sparse for its record to describe is refused, not written
        // for the loader to reject.
        let sparse = fg_graph::Graph::from_weighted_edges(100_000, &[(0, 1, 1.0)]).unwrap();
        assert!(store.save_graph(g, "Knn(k=1)", &sparse).is_err());
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_enforces_age_then_lru_size_cap() {
        let store = temp_store("gc");
        let (g, s) = fps();
        // Three files with distinct mtimes (oldest first).
        let p1 = store.save(g, s, false, 2, &sample_counts()).unwrap();
        let p2 = store.save(g, s, true, 2, &sample_counts()).unwrap();
        let other = Fingerprint::from_u128(0x77);
        let p3 = store.save(g, other, true, 2, &sample_counts()).unwrap();
        let hour = std::time::Duration::from_secs(3600);
        let old = std::time::SystemTime::now() - 10 * hour;
        set_mtime(&p1, old);
        set_mtime(&p2, old + hour);
        let bytes = std::fs::metadata(&p3).unwrap().len();

        // Age bound alone: the two back-dated files expire, the fresh one stays.
        let outcome = store.gc(None, Some(2 * hour)).unwrap();
        assert_eq!(outcome.removed, 2);
        assert_eq!(outcome.kept, 1);
        assert_eq!(outcome.bytes_kept, bytes);
        assert!(store.load(g, other, true).unwrap().is_some());

        // Size cap alone: rebuild two files, cap to one file's size — the older
        // (least recently written) one goes.
        let p1 = store.save(g, s, true, 2, &sample_counts()).unwrap();
        set_mtime(&p1, old);
        let outcome = store.gc(Some(bytes), None).unwrap();
        assert_eq!(outcome.removed, 1);
        assert_eq!(outcome.kept, 1);
        assert!(!p1.exists());
        assert!(p3.exists());

        // max-bytes 0 empties the store; no bounds at all is an error.
        let outcome = store.gc(Some(0), None).unwrap();
        assert_eq!(outcome.kept, 0);
        assert!(store.entries().unwrap().is_empty());
        assert!(store.gc(None, None).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Backdate a file's mtime (best-effort via filetime-free std APIs: rewrite the
    /// file then set the time with `File::set_modified`).
    fn set_mtime(path: &std::path::Path, to: std::time::SystemTime) {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_modified(to).unwrap();
    }

    #[test]
    fn concurrent_prefix_upgrades_leave_a_valid_file() {
        // Two writers repeatedly persist the same key with different lmax (the
        // "two sessions extend the same stored summary" race). Unique temp names +
        // atomic renames mean a reader must always see one of the two valid files,
        // never an interleaving.
        let store = std::sync::Arc::new(temp_store("race"));
        let (g, s) = fps();
        let short = sample_counts();
        let long: Vec<DenseMatrix> = short
            .iter()
            .cloned()
            .chain(std::iter::once(
                DenseMatrix::from_rows(&[vec![9.0, 8.0], vec![7.0, 6.0]]).unwrap(),
            ))
            .collect();
        let rounds = 60;
        std::thread::scope(|scope| {
            let writer = |counts: Vec<DenseMatrix>| {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        store.save(g, s, true, 2, &counts).unwrap();
                    }
                })
            };
            let a = writer(short.clone());
            let b = writer(long.clone());
            // A concurrent reader must never observe corruption (absent is fine
            // in the first instants).
            for _ in 0..rounds {
                if let Some(loaded) = store.load(g, s, true).unwrap() {
                    assert!(loaded.counts.len() == 2 || loaded.counts.len() == 3);
                }
            }
            a.join().unwrap();
            b.join().unwrap();
        });
        let final_counts = store.load(g, s, true).unwrap().unwrap();
        assert!(final_counts.counts.len() == 2 || final_counts.counts.len() == 3);
        let reference = if final_counts.counts.len() == 2 {
            &short
        } else {
            &long
        };
        for (a, b) in reference.iter().zip(&final_counts.counts) {
            assert_eq!(
                a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        // No temp files were stranded by the race.
        assert!(store
            .entries()
            .unwrap()
            .iter()
            .all(|e| !e.file.ends_with(".tmp")));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn h_save_load_round_trip_is_bit_exact() {
        let store = temp_store("h_round_trip");
        let (g, s) = fps();
        let h = DenseMatrix::from_rows(&[vec![0.75, 0.25], vec![0.25, 0.75]]).unwrap();
        store.save_h(g, s, "Holdout(b=3)", &h).unwrap();
        let loaded = store.load_h(g, s, "Holdout(b=3)").unwrap().unwrap();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h), bits(&loaded));
        // A differently parameterized estimator is a separate (absent) entry.
        assert!(store.load_h(g, s, "Holdout(b=5)").unwrap().is_none());
        // Overwrites replace the entry in place.
        let h2 = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        store.save_h(g, s, "Holdout(b=3)", &h2).unwrap();
        let loaded = store.load_h(g, s, "Holdout(b=3)").unwrap().unwrap();
        assert_eq!(bits(&h2), bits(&loaded));
        // remove_h deletes exactly the requested entry.
        assert!(store.remove_h(g, s, "Holdout(b=3)").unwrap());
        assert!(!store.remove_h(g, s, "Holdout(b=3)").unwrap());
        assert!(store.load_h(g, s, "Holdout(b=3)").unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn graph_save_load_round_trip_preserves_the_fingerprint() {
        let store = temp_store("graph_round_trip");
        let features_fp = Fingerprint::from_u128(0xfeed_beef);
        let spec = "Knn(k=2,metric=euclidean,weighting=heat,sym=union)";
        let graph = fg_graph::Graph::from_weighted_edges(
            5,
            &[(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.125), (3, 4, 1e-300)],
        )
        .unwrap();
        store.save_graph(features_fp, spec, &graph).unwrap();
        let loaded = store.load_graph(features_fp, spec).unwrap().unwrap();
        // Content fingerprints match: the stored graph is the built graph.
        assert_eq!(loaded.fingerprint(), graph.fingerprint());
        assert_eq!(loaded.num_nodes(), 5);
        assert_eq!(loaded.num_edges(), 4);
        // A different builder spec is a separate (absent) entry.
        assert!(store.load_graph(features_fp, "Knn(k=3)").unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn h_entries_are_listed_cleared_and_gced() {
        let store = temp_store("h_entries");
        let (g, s) = fps();
        store.save(g, s, true, 2, &sample_counts()).unwrap();
        let h = DenseMatrix::from_rows(&[vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
        store.save_h(g, s, "LCE(l=3)", &h).unwrap();
        // A stranded `.fgh` temp file is listed (as corrupt) and clearable.
        std::fs::write(
            store
                .dir()
                .join(format!("stale.{H_STORE_EXTENSION}.7-0.tmp")),
            b"half a write",
        )
        .unwrap();

        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 3);
        let h_entry = entries
            .iter()
            .find(|e| e.file.ends_with(&format!(".{H_STORE_EXTENSION}")))
            .unwrap();
        let Some(EntryMeta::H(meta)) = &h_entry.meta else {
            panic!("{h_entry:?}");
        };
        assert_eq!(meta.graph_fp, g);
        assert_eq!(meta.seed_fp, s);
        assert_eq!(meta.estimator, "LCE(l=3)");
        assert_eq!(meta.k, 2);

        // gc with max-bytes 0 removes `.fgh` files alongside `.fgsum`.
        let outcome = store.gc(Some(0), None).unwrap();
        assert_eq!(outcome.kept, 0);
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn factor_save_load_round_trip_is_bit_exact() {
        let store = temp_store("factor_round_trip");
        let graph = fg_graph::Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
        )
        .unwrap();
        let config = FactorConfig::with_rank(4);
        let factor = LowRankFactor::compute(&graph, &config, fg_sparse::Threads::Serial).unwrap();
        store.save_factor(&factor).unwrap();
        let loaded = store
            .load_factor(graph.fingerprint(), &config)
            .unwrap()
            .unwrap();
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(factor.v()), bits(loaded.v()));
        assert_eq!(bits(factor.g()), bits(loaded.g()));
        let fbits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(fbits(factor.lambda()), fbits(loaded.lambda()));
        assert_eq!(fbits(factor.degrees()), fbits(loaded.degrees()));
        assert_eq!(factor.iterations(), loaded.iterations());
        assert_eq!(factor.fingerprint(), loaded.fingerprint());
        // A different rank is a separate (absent) entry.
        assert!(store
            .load_factor(graph.fingerprint(), &FactorConfig::with_rank(3))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Pins the on-disk format: one small fixed record per kind, checked by exact
    /// file name and exact bytes. Any change here is a format change and needs a
    /// version bump plus a reader test for the old version.
    #[test]
    fn golden_bytes_pin_every_record_kind() {
        let store = temp_store("golden");
        let hex = |path: &Path| {
            let bytes = std::fs::read(path).unwrap();
            bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        let name = |path: &Path| path.file_name().unwrap().to_string_lossy().into_owned();
        let (g, s) = fps();

        let counts = [DenseMatrix::from_rows(&[vec![1.0, 2.5], vec![-0.0, 1e-300]]).unwrap()];
        let path = store.save(g, s, true, 2, &counts).unwrap();
        assert_eq!(
            name(&path),
            "000000000000000000000000abcd1234-0000000000000000000000005678def0-nb.fgsum"
        );
        assert_eq!(
            hex(&path),
            concat!(
                "464753554d4d01003412cdab000000000000000000000000f0de785600000000",
                "0000000000000000010200000001000000000000000000f03f00000000000004",
                "40000000000000008059f3f8c21f6ea501870c218f6bb9a456c4a6316833d708",
                "80",
            )
        );

        let h = DenseMatrix::from_rows(&[vec![0.75, 0.25], vec![0.25, 0.75]]).unwrap();
        let path = store.save_h(g, s, "DCE(l=5)", &h).unwrap();
        assert_eq!(
            name(&path),
            concat!(
                "000000000000000000000000abcd1234-0000000000000000000000005678def0-",
                "8c22373a2685e29742b011db71542c00.fgh",
            )
        );
        assert_eq!(
            hex(&path),
            concat!(
                "46474845535401003412cdab000000000000000000000000f0de785600000000",
                "00000000000000000800000002000000444345286c3d3529000000000000e83f",
                "000000000000d03f000000000000d03f000000000000e83f4ce8e07177b50160",
                "6edf70a0775cd832",
            )
        );

        let graph = fg_graph::Graph::from_weighted_edges(3, &[(0, 1, 0.5), (1, 2, 2.0)]).unwrap();
        let path = store
            .save_graph(Fingerprint::from_u128(0xfeed), "Knn(k=1)", &graph)
            .unwrap();
        assert_eq!(
            name(&path),
            "0000000000000000000000000000feed-8067fa334785e2afc0ab9d51f9713b6c.fgg"
        );
        assert_eq!(
            hex(&path),
            concat!(
                "4647475250480100edfe00000000000000000000000000000800000003000000",
                "0000000002000000000000004b6e6e286b3d3129000000000000000001000000",
                "00000000000000000000e03f0100000000000000020000000000000000000000",
                "000000405c29e810f012df3703586f9b16a09899",
            )
        );

        let config = FactorConfig {
            rank: 1,
            max_iter: 50,
            tol: 1e-6,
            seed: 7,
        };
        let factor = LowRankFactor::from_parts(
            DenseMatrix::from_rows(&[vec![0.6], vec![-0.8]]).unwrap(),
            vec![1.5],
            DenseMatrix::from_rows(&[vec![0.25]]).unwrap(),
            vec![1.0, 3.0],
            g,
            config,
            9,
        )
        .unwrap();
        let path = store.save_factor(&factor).unwrap();
        assert_eq!(
            name(&path),
            "000000000000000000000000abcd1234-5d0528d3224700face4cd0eb0dec88e7.fgv"
        );
        assert_eq!(
            hex(&path),
            concat!(
                "46475646414301003412cdab000000000000000000000000e788ec0debd04cce",
                "fa004722d328055d0100000032000000000000008dedb5a0f7c6b03e07000000",
                "0000000002000000000000000900000000000000333333333333e33f9a999999",
                "9999e9bf000000000000f83f000000000000d03f000000000000f03f00000000",
                "0000084015c93c2d82668c47b52cbee239e10768",
            )
        );
        std::fs::remove_dir_all(store.dir()).ok();
    }

    type Load = Box<dyn Fn() -> Result<bool>>;

    /// One saved record of a kind, plus what the corruption tests need to address
    /// it: its checksum domain, its header integer fields, a loader for its key
    /// that reports only whether a record was found, and keys a copy of it can be
    /// misfiled under.
    struct Fixture {
        path: PathBuf,
        domain: &'static [u8],
        /// What rejection messages call this kind.
        noun: &'static str,
        /// `(offset, width)` of every header integer field.
        header_fields: &'static [(usize, usize)],
        load: Load,
        /// The header a listing must report for the record.
        meta: EntryMeta,
        /// `(path of another key, loader for that key, expected rejection)`.
        misfiled: Vec<(PathBuf, Load, &'static str)>,
    }

    fn loader<T>(
        store: &SummaryStore,
        load: impl Fn(&SummaryStore) -> Result<Option<T>> + 'static,
    ) -> Load {
        let store = store.clone();
        Box::new(move || load(&store).map(|found| found.is_some()))
    }

    fn fixture_factor() -> LowRankFactor {
        let v = DenseMatrix::from_rows(&[vec![0.6, 0.0], vec![-0.8, 0.0], vec![0.0, 1.0]]).unwrap();
        let g = DenseMatrix::from_rows(&[vec![0.25, 0.0], vec![0.0, -1.0]]).unwrap();
        let config = FactorConfig {
            rank: 2,
            max_iter: 50,
            tol: 1e-6,
            seed: 7,
        };
        let graph_fp = Fingerprint::from_u128(0x0bad_cafe);
        LowRankFactor::from_parts(
            v,
            vec![1.5, -0.5],
            g,
            vec![1.0, 3.0, 2.0],
            graph_fp,
            config,
            9,
        )
        .unwrap()
    }

    /// Save one record of every kind into `store`.
    fn fixtures(store: &SummaryStore) -> Vec<Fixture> {
        let (g, s) = fps();
        let other = Fingerprint::from_u128(0x4242);
        let h = DenseMatrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let graph = fg_graph::Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let features = Fingerprint::from_u128(0xc0ffee);
        let spec = "SparseReg(k=4,alpha=0.1,iters=50,sym=union)";
        let factor = fixture_factor();
        let (factor_graph, config) = (factor.graph_fingerprint(), *factor.config());
        let other_config = FactorConfig {
            seed: 0x1234,
            ..config
        };
        vec![
            Fixture {
                path: store.save(g, s, true, 2, &sample_counts()).unwrap(),
                domain: b"fg-summary-store-v1",
                noun: "summary",
                header_fields: &[(6, 2), (40, 1), (41, 4), (45, 4)],
                load: loader(store, move |st| st.load(g, s, true)),
                meta: EntryMeta::Summary(StoreMeta {
                    graph_fp: g,
                    seed_fp: s,
                    non_backtracking: true,
                    k: 2,
                    max_length: 2,
                }),
                misfiled: vec![
                    (
                        store.path_for(g, other, true),
                        loader(store, move |st| st.load(g, other, true)),
                        "fingerprints",
                    ),
                    (
                        store.path_for(g, s, false),
                        loader(store, move |st| st.load(g, s, false)),
                        "counting mode",
                    ),
                ],
            },
            Fixture {
                path: store.save_h(g, s, "DCE(l=5)", &h).unwrap(),
                domain: b"fg-h-store-v1",
                noun: "H-estimate",
                header_fields: &[(6, 2), (40, 4), (44, 4)],
                load: loader(store, move |st| st.load_h(g, s, "DCE(l=5)")),
                meta: EntryMeta::H(HStoreMeta {
                    graph_fp: g,
                    seed_fp: s,
                    estimator: "DCE(l=5)".into(),
                    k: 2,
                }),
                misfiled: vec![
                    (
                        store.path_for_h(g, other, "DCE(l=5)"),
                        loader(store, move |st| st.load_h(g, other, "DCE(l=5)")),
                        "fingerprints",
                    ),
                    (
                        store.path_for_h(g, s, "DCEr(r=10)"),
                        loader(store, move |st| st.load_h(g, s, "DCEr(r=10)")),
                        "estimator name",
                    ),
                ],
            },
            Fixture {
                path: store.save_graph(features, spec, &graph).unwrap(),
                domain: b"fg-graph-store-v1",
                noun: "constructed-graph",
                header_fields: &[(6, 2), (24, 4), (28, 8), (36, 8)],
                load: loader(store, move |st| st.load_graph(features, spec)),
                meta: EntryMeta::Graph(GraphStoreMeta {
                    features_fp: features,
                    builder: spec.into(),
                    nodes: 3,
                    edges: 2,
                }),
                misfiled: vec![
                    (
                        store.path_for_graph(other, spec),
                        loader(store, move |st| st.load_graph(other, spec)),
                        "fingerprints",
                    ),
                    (
                        store.path_for_graph(features, "Knn(k=3)"),
                        loader(store, move |st| st.load_graph(features, "Knn(k=3)")),
                        "builder spec",
                    ),
                ],
            },
            Fixture {
                path: store.save_factor(&factor).unwrap(),
                domain: b"fg-v-store-v1",
                noun: "low-rank factor",
                header_fields: &[(6, 2), (40, 4), (44, 8), (52, 8), (60, 8), (68, 8), (76, 8)],
                load: loader(store, move |st| st.load_factor(factor_graph, &config)),
                meta: EntryMeta::Factor(FactorStoreMeta {
                    graph_fp: factor_graph,
                    factor_fp: factor.fingerprint(),
                    rank: 2,
                    nodes: 3,
                }),
                misfiled: vec![
                    (
                        store.path_for_factor(other, &config),
                        loader(store, move |st| st.load_factor(other, &config)),
                        "fingerprints",
                    ),
                    (
                        store.path_for_factor(factor_graph, &other_config),
                        loader(store, move |st| st.load_factor(factor_graph, &other_config)),
                        "fingerprints",
                    ),
                ],
            },
        ]
    }

    /// Corrupt the record of kind `kind` (an index into [`fixtures`]) by a
    /// flipped byte, a truncation and a wrong magic, and file it under other
    /// keys' names: every load must fail loudly. Then the listing must report
    /// its header and a clear must remove every record.
    fn assert_corrupt_and_misfiled_rejected(store_name: &str, kind: usize) {
        let store = temp_store(store_name);
        let fixtures = fixtures(&store);
        let fixture = &fixtures[kind];
        let good = std::fs::read(&fixture.path).unwrap();
        // The flipped byte sits in the data, past any embedded name, so no
        // header check can fire before the checksum.
        let mut flipped = good.clone();
        flipped[good.len() - CHECKSUM_LEN - 4] ^= 0xff;
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let truncated = &good[..good.len() - 5];
        let prefix = format!("rejecting corrupt {} file", fixture.noun);
        for (bytes, reason) in [
            (&flipped[..], "checksum"),
            (truncated, ""),
            (&bad_magic, "magic"),
        ] {
            std::fs::write(&fixture.path, bytes).unwrap();
            let err = (fixture.load)().unwrap_err().to_string();
            assert!(err.contains(&prefix) && err.contains(reason), "{err}");
        }
        std::fs::write(&fixture.path, &good).unwrap();
        assert!((fixture.load)().unwrap(), "{}", fixture.path.display());
        // A valid record copied under another key's file name is caught by its
        // embedded key.
        for (path, load, reason) in &fixture.misfiled {
            std::fs::copy(&fixture.path, path).unwrap();
            let err = load().unwrap_err().to_string();
            assert!(err.contains(&prefix) && err.contains(reason), "{err}");
            std::fs::remove_file(path).unwrap();
        }
        // The listing parses the record's header; clear removes every record.
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), fixtures.len());
        let listed = entries
            .iter()
            .any(|e| e.meta.as_ref() == Some(&fixture.meta));
        assert!(listed, "{:?} missing from {entries:?}", fixture.meta);
        assert_eq!(store.clear().unwrap(), fixtures.len());
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_files_are_rejected_loudly() {
        assert_corrupt_and_misfiled_rejected("corrupt", 0);
    }

    #[test]
    fn h_entries_are_validated_loudly() {
        assert_corrupt_and_misfiled_rejected("h_corrupt", 1);
    }

    #[test]
    fn graph_entries_are_validated_listed_and_cleared() {
        assert_corrupt_and_misfiled_rejected("graph_corrupt", 2);
    }

    #[test]
    fn factor_entries_are_validated_listed_and_cleared() {
        assert_corrupt_and_misfiled_rejected("factor_corrupt", 3);
    }

    /// Replace the trailing checksum with a valid one for `domain`, so a mutated
    /// record gets past the checksum and reaches the body decoder.
    fn reseal(bytes: &mut Vec<u8>, domain: &[u8]) {
        bytes.truncate(bytes.len().saturating_sub(16));
        let mut h = FingerprintBuilder::new(domain);
        h.write_bytes(bytes);
        bytes.extend_from_slice(&h.finish().as_u128().to_le_bytes());
    }

    #[test]
    fn hostile_headers_with_valid_checksums_are_rejected_not_panics() {
        // Each record gets one oversized size field and a payload cut to the
        // length that the field's unchecked size product wraps to, so only
        // checked arithmetic stands between the file and a panic.
        let store = temp_store("hostile");
        let hostile: [(usize, u64, usize); 4] = [
            (41, 1 << 31, 49),      // .fgsum k = 2^31, empty payload
            (44, 1 << 31, 48 + 8),  // .fgh k = 2^31, empty payload
            (36, 1 << 61, 44 + 43), // .fgg edges = 2^61, empty payload
            (68, 1 << 61, 84 + 48), // .fgv nodes = 2^61, six values
        ];
        for (fixture, (offset, value, keep)) in fixtures(&store).into_iter().zip(hostile) {
            let mut bytes = std::fs::read(&fixture.path).unwrap();
            let width = fixture
                .header_fields
                .iter()
                .find(|&&(o, _)| o == offset)
                .unwrap()
                .1;
            bytes[offset..offset + width].copy_from_slice(&value.to_le_bytes()[..width]);
            bytes.truncate(keep);
            bytes.extend_from_slice(&[0; 16]);
            reseal(&mut bytes, fixture.domain);
            std::fs::write(&fixture.path, &bytes).unwrap();
            match (fixture.load)() {
                Err(CoreError::Store(_)) => {}
                other => panic!(
                    "{}: expected a store error, got {other:?}",
                    fixture.path.display()
                ),
            }
        }
        assert_eq!(store.entries().unwrap().len(), 4);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn seeded_mutations_never_panic_a_loader_or_the_listing() {
        use rand::{Rng, SeedableRng};
        let store = temp_store("mutations");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let hostile_values = [0, 1, 1 << 31, 1 << 61, u64::MAX];
        for fixture in fixtures(&store) {
            let good = std::fs::read(&fixture.path).unwrap();
            for _ in 0..300 {
                let mut bytes = good.clone();
                for _ in 0..1 + rng.gen_index(2) {
                    match rng.gen_index(4) {
                        0 => {
                            let bit = rng.gen_index(bytes.len() * 8);
                            bytes[bit / 8] ^= 1 << (bit % 8);
                        }
                        1 => bytes.truncate(rng.gen_index(bytes.len())),
                        2 => {
                            bytes.extend((0..1 + rng.gen_index(32)).map(|_| rng.gen::<u32>() as u8))
                        }
                        _ => {
                            let (offset, width) =
                                fixture.header_fields[rng.gen_index(fixture.header_fields.len())];
                            let value = hostile_values[rng.gen_index(hostile_values.len())];
                            if offset + width <= bytes.len() {
                                bytes[offset..offset + width]
                                    .copy_from_slice(&u64::to_le_bytes(value)[..width]);
                            }
                        }
                    }
                    if bytes.is_empty() {
                        break;
                    }
                }
                // Most mutants are resealed so they reach the body decoder; the
                // rest exercise the checksum path.
                if rng.gen_index(8) != 0 {
                    reseal(&mut bytes, fixture.domain);
                }
                std::fs::write(&fixture.path, &bytes).unwrap();
                let _ = (fixture.load)();
                store.entries().unwrap();
            }
            std::fs::write(&fixture.path, &good).unwrap();
            assert!((fixture.load)().unwrap(), "{}", fixture.path.display());
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_and_clear() {
        let store = temp_store("entries");
        let (g, s) = fps();
        store.save(g, s, true, 2, &sample_counts()).unwrap();
        store.save(g, s, false, 2, &sample_counts()).unwrap();
        // A stray corrupt file is listed with meta = None and still cleared.
        std::fs::write(store.dir().join(format!("junk.{STORE_EXTENSION}")), b"nope").unwrap();
        // So is a temp file stranded by an interrupted save.
        std::fs::write(
            store.dir().join(format!("stale.{STORE_EXTENSION}.tmp")),
            b"half a write",
        )
        .unwrap();
        // Non-store files are ignored.
        std::fs::write(store.dir().join("README.txt"), b"not a summary").unwrap();

        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 4);
        let parsed: Vec<_> = entries.iter().filter(|e| e.meta.is_some()).collect();
        assert_eq!(parsed.len(), 2);
        for entry in &parsed {
            let Some(EntryMeta::Summary(meta)) = &entry.meta else {
                panic!("{entry:?}");
            };
            assert_eq!(meta.graph_fp, g);
            assert_eq!(meta.seed_fp, s);
            assert_eq!(meta.k, 2);
            assert_eq!(meta.max_length, 2);
        }
        assert_eq!(store.clear().unwrap(), 4);
        assert!(store.entries().unwrap().is_empty());
        // The non-store file survives a clear.
        assert!(store.dir().join("README.txt").exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
