//! Persistent partition store: build the graph once, open it forever.
//!
//! Every [`GraphSession::load`] re-pays R-MAT generation and the full
//! 1.5D partition build; this crate serializes the finished session —
//! a header (scale, edge factor, mesh, thresholds, seed) plus each
//! rank's complete [`RankPartition`] — into one **paged** file so a
//! later session opens in file-read time instead of rebuild time.
//!
//! ## File format (version 1)
//!
//! The file is a sequence of fixed-size [`PAGE_SIZE`] pages. Each page
//! carries [`PAGE_PAYLOAD`] payload bytes sealed with a trailing
//! FNV-1a checksum of the payload, so damage is localized to a page
//! number.
//!
//! Logical content is organized as *streams* of little-endian `u64`
//! words, each stream itself sealed with a trailing FNV-1a checksum
//! (over its own bytes) and laid out over whole pages. A stream is
//! written and read with the sealed word-stream codec in
//! `sunbfs_net::frame` ([`WordWriter`] / [`WordReader`]) — the one a
//! `CheckpointState` envelope uses too:
//!
//! * **Stream 0 — header**, starting at page 0: file magic, format
//!   version, page size, the graph identity (scale, edge_factor,
//!   mesh rows × cols, E/H thresholds, seed), the rank count, and a
//!   **page directory** of `(first_page, byte_len)` per rank.
//! * **Streams 1..=R — one per rank**, each starting on the page
//!   boundary its directory entry names: rank magic, rank index, the
//!   vertex distribution, the replicated hub directory, the owner
//!   degree table, all nine CSR blocks, and the component stats. A
//!   CSR's targets are words on disk and `u32` in memory: they are
//!   narrowed as they are read.
//!
//! The page directory is what lets a reader load ranks by streamed
//! sequential page reads — seek to `first_page`, read
//! `ceil(byte_len / PAGE_PAYLOAD)` pages — without materializing the
//! whole file.
//!
//! ## Refusal discipline
//!
//! [`read_store`] refuses damage with a typed [`StoreError`], never a
//! wrong graph: bad magic or version, a file length that is not a
//! whole number of pages, any page whose seal fails, any stream whose
//! seal fails, a directory entry pointing outside the file, and any
//! structural inconsistency (CSR offsets that are not monotone, a
//! degree table whose length disagrees with the distribution, a scale
//! above [`MAX_SCALE`], a CSR target word of `2^32` or more, a CSR
//! keyed over or pointing outside the vertex or hub space it
//! addresses, …). All
//! length fields are guarded against the remaining input *before*
//! allocation, so a corrupted length can never become a
//! multi-gigabyte allocation.
//!
//! [`GraphSession::load`]: ../sunbfs_serve/struct.GraphSession.html

#![warn(missing_docs)]

use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

use sunbfs_net::{fnv1a, Damage, MeshShape, Topology, WordReader, WordWriter};
use sunbfs_part::{
    row_vertex_range, ComponentStats, Csr, HubDirectory, OwnedHubs, RankPartition,
    VertexDistribution, MAX_SCALE,
};

/// File magic: "SBFSTORE" little-endian.
const FILE_MAGIC: u64 = u64::from_le_bytes(*b"SBFSTORE");
/// Per-rank stream magic: "SBFSRANK" little-endian.
const RANK_MAGIC: u64 = u64::from_le_bytes(*b"SBFSRANK");
/// On-disk format version. v2 added the session **epoch** header word
/// (live-mutation counter, `docs/UPDATES.md`); v1 files are refused
/// with a typed [`StoreError::BadVersion`] rather than guessed at.
pub const STORE_VERSION: u64 = 2;
/// Total bytes per page, payload plus seal.
pub const PAGE_SIZE: usize = 4096;
/// Payload bytes per page (the final 8 bytes are the page checksum).
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 8;

/// Fixed header words before the page directory: file magic, version,
/// page size, scale, edge_factor, mesh_rows, mesh_cols, e_threshold,
/// h_threshold, seed, num_ranks, epoch.
const HEADER_FIXED_WORDS: u64 = 12;

/// Why a store could not be written or, far more importantly, why a
/// file was refused instead of decoded into a (possibly wrong) graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io {
        /// The OS error class (`NotFound` is what
        /// `open_or_build`-style callers branch on).
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// The file ends early: zero length, a length that is not a whole
    /// number of pages, or a directory entry past the last page.
    Truncated,
    /// The first header word is not the store magic — this is not a
    /// partition store file.
    BadMagic,
    /// The file declares an on-disk format version this reader does
    /// not speak.
    BadVersion {
        /// The version word found in the header.
        found: u64,
    },
    /// A page's trailing FNV-1a seal does not match its payload.
    PageChecksum {
        /// Zero-based page number of the damaged page.
        page: u64,
    },
    /// A structural invariant failed after the seals passed (or a
    /// stream seal itself failed).
    Corrupt {
        /// Which invariant was violated.
        what: &'static str,
    },
    /// The file is intact but describes a different graph than the
    /// caller asked for.
    HeaderMismatch {
        /// The header field that disagrees.
        field: &'static str,
        /// The value the caller's configuration requires.
        expected: u64,
        /// The value stored in the file.
        found: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { kind, detail } => write!(f, "store i/o error ({kind:?}): {detail}"),
            StoreError::Truncated => write!(f, "store file truncated or not page-aligned"),
            StoreError::BadMagic => write!(f, "not a partition store file (bad magic)"),
            StoreError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported store version {found} (reader speaks {STORE_VERSION})"
                )
            }
            StoreError::PageChecksum { page } => {
                write!(f, "page {page} failed its checksum seal")
            }
            StoreError::Corrupt { what } => write!(f, "store structure corrupt: {what}"),
            StoreError::HeaderMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "store header mismatch: {field} is {found}, session wants {expected}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A damaged word stream: running out of words is truncation, any
/// other damage the corruption it names.
impl From<Damage> for StoreError {
    fn from(d: Damage) -> Self {
        match d {
            Damage::Short => StoreError::Truncated,
            Damage::Corrupt(what) => StoreError::Corrupt { what },
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// The graph identity a store file carries, all widened to `u64`
/// exactly as stored on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Graph 500 SCALE (`2^scale` vertices).
    pub scale: u64,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Mesh rows.
    pub mesh_rows: u64,
    /// Mesh columns.
    pub mesh_cols: u64,
    /// E-class degree threshold.
    pub e_threshold: u64,
    /// H-class degree threshold.
    pub h_threshold: u64,
    /// Generator seed.
    pub seed: u64,
    /// Rank count (`mesh_rows * mesh_cols`).
    pub num_ranks: u64,
    /// Session epoch at save time: how many update batches had been
    /// committed to the graph. 0 means the pristine generated graph; a
    /// mutated session compacts its delta before saving, so the stored
    /// CSRs always describe the epoch-`epoch` union graph.
    pub epoch: u64,
}

impl StoreHeader {
    /// Verify this (decoded) header describes the same graph as
    /// `expected` (derived from the caller's session configuration).
    ///
    /// The epoch is deliberately **not** compared here: a mutated
    /// store still describes the graph the configuration names, and
    /// `open_or_build`-style callers must not silently rebuild (and so
    /// discard) committed updates. Callers that require a specific
    /// epoch say so explicitly via [`StoreHeader::check_epoch`].
    ///
    /// # Errors
    /// [`StoreError::HeaderMismatch`] naming the first disagreeing
    /// field — the caller must not traverse a graph it did not ask
    /// for.
    pub fn check_matches(&self, expected: &StoreHeader) -> Result<(), StoreError> {
        let fields = [
            ("scale", self.scale, expected.scale),
            ("edge_factor", self.edge_factor, expected.edge_factor),
            ("mesh_rows", self.mesh_rows, expected.mesh_rows),
            ("mesh_cols", self.mesh_cols, expected.mesh_cols),
            ("e_threshold", self.e_threshold, expected.e_threshold),
            ("h_threshold", self.h_threshold, expected.h_threshold),
            ("seed", self.seed, expected.seed),
            ("num_ranks", self.num_ranks, expected.num_ranks),
        ];
        for (field, found, expected) in fields {
            if found != expected {
                return Err(StoreError::HeaderMismatch {
                    field,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Verify the stored epoch is exactly what the caller expects.
    ///
    /// # Errors
    /// [`StoreError::HeaderMismatch`] with `field == "epoch"` — never a
    /// silent open of a graph more (or less) mutated than asked for.
    pub fn check_epoch(&self, expected: u64) -> Result<(), StoreError> {
        if self.epoch != expected {
            return Err(StoreError::HeaderMismatch {
                field: "epoch",
                expected,
                found: self.epoch,
            });
        }
        Ok(())
    }
}

/// Physical facts about a written or opened store file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreInfo {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Total page count (`file_bytes / PAGE_SIZE`).
    pub pages: u64,
}

/// Pages needed to hold a `len`-byte stream.
fn pages_for(len: u64) -> u64 {
    len.div_ceil(PAGE_PAYLOAD as u64).max(1)
}

/// Append `stream` to `out` as whole sealed pages (zero-padded tail).
fn paginate(stream: &[u8], out: &mut Vec<u8>) {
    let mut chunks = stream.chunks(PAGE_PAYLOAD).peekable();
    // An empty stream still occupies one (all-padding) page so every
    // directory entry names a real page.
    if chunks.peek().is_none() {
        let payload = [0u8; PAGE_PAYLOAD];
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        return;
    }
    for chunk in chunks {
        let mut payload = [0u8; PAGE_PAYLOAD];
        payload[..chunk.len()].copy_from_slice(chunk);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    }
}

fn encode_csr(w: &mut WordWriter, csr: &Csr) {
    w.put(csr.key_base());
    w.put_slice(csr.offsets());
    w.put_slice(csr.targets());
}

/// One rank's sealed stream.
fn encode_rank(part: &RankPartition) -> Vec<u8> {
    let mut w = WordWriter::default();
    w.put(RANK_MAGIC);
    w.put(part.rank as u64);
    w.put(part.dist.num_vertices());
    w.put(part.dist.num_ranks() as u64);
    w.put(u64::from(part.directory.num_e()));
    w.put(u64::from(part.directory.num_hubs()));
    for &(v, d) in part.directory.hubs() {
        w.put(v);
        w.put(u64::from(d));
    }
    w.put(part.owned_degrees.len() as u64);
    for &d in &part.owned_degrees {
        w.put(u64::from(d));
    }
    for csr in [
        &part.eh_by_src,
        &part.eh_by_dst,
        &part.el_by_hub,
        &part.el_by_local,
        &part.h2l_by_hub,
        &part.h2l_by_local,
        &part.lh_by_hub,
        &part.lh_by_local,
        &part.l2l,
    ] {
        encode_csr(&mut w, csr);
    }
    for x in [
        part.stats.eh2eh,
        part.stats.e2l,
        part.stats.l2e,
        part.stats.h2l,
        part.stats.l2h,
        part.stats.l2l,
    ] {
        w.put(x);
    }
    w.seal()
}

/// Serialize a complete session into the paged store format.
///
/// `header.num_ranks` must equal `parts.len()` and every partition
/// must carry its own index as `rank` — both are programmer errors
/// (panics), not file damage.
pub fn encode_store(header: &StoreHeader, parts: &[RankPartition]) -> Vec<u8> {
    assert_eq!(
        header.num_ranks,
        parts.len() as u64,
        "header rank count must match the partition list"
    );
    for (i, p) in parts.iter().enumerate() {
        assert_eq!(p.rank, i, "partition {i} carries rank {}", p.rank);
    }
    let rank_streams: Vec<Vec<u8>> = parts.iter().map(encode_rank).collect();

    // The header length is determined by the rank count alone, so the
    // directory can be laid out before the header is written.
    let header_bytes = (HEADER_FIXED_WORDS + 2 * header.num_ranks + 1) * 8;
    let mut next_page = pages_for(header_bytes);
    let mut w = WordWriter::default();
    for x in [
        FILE_MAGIC,
        STORE_VERSION,
        PAGE_SIZE as u64,
        header.scale,
        header.edge_factor,
        header.mesh_rows,
        header.mesh_cols,
        header.e_threshold,
        header.h_threshold,
        header.seed,
        header.num_ranks,
        header.epoch,
    ] {
        w.put(x);
    }
    for stream in &rank_streams {
        w.put(next_page);
        w.put(stream.len() as u64);
        next_page += pages_for(stream.len() as u64);
    }
    let header_stream = w.seal();
    debug_assert_eq!(header_stream.len() as u64, header_bytes);

    let mut out = Vec::with_capacity((next_page as usize) * PAGE_SIZE);
    paginate(&header_stream, &mut out);
    for stream in &rank_streams {
        paginate(stream, &mut out);
    }
    out
}

/// The sibling temp file a save writes before renaming into place.
/// Kept deterministic (one temp per target) so an interrupted save's
/// leftover is overwritten by the next attempt instead of accumulating.
pub fn temp_save_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// [`encode_store`] to a file, crash-safely: the bytes go to a sibling
/// temp file first (same directory, so the rename cannot cross a
/// filesystem), are fsynced, and only then atomically renamed over
/// `path`. A crash mid-save leaves either the old file or the new one
/// — never a truncated store that later fails open — plus at worst a
/// `.tmp` leftover the next save overwrites.
///
/// # Errors
/// [`StoreError::Io`] when the write or rename fails (the temp file is
/// cleaned up on a best-effort basis).
pub fn save_file(
    path: &Path,
    header: &StoreHeader,
    parts: &[RankPartition],
) -> Result<StoreInfo, StoreError> {
    let bytes = encode_store(header, parts);
    let tmp = temp_save_path(path);
    let write_and_rename = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself: fsync the containing directory so
        // a crash right after the rename still finds the new file.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if let Err(e) = write_and_rename {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(StoreInfo {
        file_bytes: bytes.len() as u64,
        pages: bytes.len() as u64 / PAGE_SIZE as u64,
    })
}

/// Sequential page reader over any seekable byte source.
struct PageSource<'a, R: Read + Seek> {
    src: &'a mut R,
    total_pages: u64,
}

impl<R: Read + Seek> PageSource<'_, R> {
    /// Read page `page`, verifying its seal.
    fn page(&mut self, page: u64) -> Result<[u8; PAGE_PAYLOAD], StoreError> {
        if page >= self.total_pages {
            return Err(StoreError::Truncated);
        }
        self.src.seek(SeekFrom::Start(page * PAGE_SIZE as u64))?;
        let mut raw = [0u8; PAGE_SIZE];
        self.src.read_exact(&mut raw)?;
        let (payload, tail) = raw.split_at(PAGE_PAYLOAD);
        let checksum = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(payload) != checksum {
            return Err(StoreError::PageChecksum { page });
        }
        Ok(payload.try_into().unwrap())
    }

    /// Assemble a `byte_len`-byte stream from consecutive pages
    /// starting at `first_page` — the streamed sequential read the
    /// page directory exists for.
    fn stream(&mut self, first_page: u64, byte_len: u64) -> Result<Vec<u8>, StoreError> {
        let npages = pages_for(byte_len);
        if first_page
            .checked_add(npages)
            .is_none_or(|end| end > self.total_pages)
        {
            return Err(StoreError::Truncated);
        }
        // byte_len is bounded by the file size here, so this
        // allocation is bounded by what is actually on disk.
        let mut out = Vec::with_capacity(byte_len as usize);
        for i in 0..npages {
            let payload = self.page(first_page + i)?;
            let take = (byte_len as usize - out.len()).min(PAGE_PAYLOAD);
            out.extend_from_slice(&payload[..take]);
        }
        Ok(out)
    }
}

fn decode_csr(r: &mut WordReader<'_>) -> Result<Csr, StoreError> {
    let key_base = r.word()?;
    let offsets = r.slice("csr offsets length")?;
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(StoreError::Corrupt {
            what: "csr offsets must start at 0",
        });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(StoreError::Corrupt {
            what: "csr offsets must be non-decreasing",
        });
    }
    // Narrowed as they are read: one pass over the bytes, no `u64`
    // copy of the array. Any bit past the low 32 in any word refuses it.
    let mut high = 0u64;
    let words = r.words("csr targets length")?;
    let targets: Vec<u32> = words
        .map(|t| {
            high |= t >> 32;
            t as u32
        })
        .collect();
    if high != 0 {
        return Err(StoreError::Corrupt {
            what: "csr target exceeds u32",
        });
    }
    if *offsets.last().unwrap() != targets.len() as u64 {
        return Err(StoreError::Corrupt {
            what: "csr edge count disagrees with offsets",
        });
    }
    Ok(Csr::from_raw(key_base, offsets, targets))
}

/// Refuse a CSR that is not keyed over exactly `keys` or that names a
/// target outside `targets`. The seals cannot catch such a file (the
/// encoder seals whatever it is given), and the engine indexes its
/// per-vertex and per-hub arrays by these numbers unchecked.
fn check_csr(
    csr: &Csr,
    keys: &Range<u64>,
    targets: &Range<u64>,
    what: &'static str,
) -> Result<(), StoreError> {
    let keyed = csr.key_base() == keys.start && csr.num_keys() as u64 == keys.end - keys.start;
    let outside = |&t: &u32| !targets.contains(&u64::from(t));
    if !keyed || csr.targets().iter().any(outside) {
        return Err(StoreError::Corrupt { what });
    }
    Ok(())
}

/// Unseal one rank stream and decode it into its partition,
/// cross-checking it against the file header and the expected rank
/// index.
fn decode_rank(
    stream: &[u8],
    expect_rank: u64,
    header: &StoreHeader,
) -> Result<RankPartition, StoreError> {
    let mut r = WordReader::unseal(stream, "rank stream checksum")?;
    if r.word()? != RANK_MAGIC {
        return Err(StoreError::Corrupt { what: "rank magic" });
    }
    if r.word()? != expect_rank {
        return Err(StoreError::Corrupt {
            what: "rank index disagrees with directory order",
        });
    }
    let n = r.word()?;
    let p = r.word()?;
    // `read_store` refused a scale above `MAX_SCALE` before any rank.
    if n != 1u64 << header.scale {
        return Err(StoreError::Corrupt {
            what: "vertex count disagrees with scale",
        });
    }
    if p != header.num_ranks || p == 0 {
        return Err(StoreError::Corrupt {
            what: "rank count disagrees with header",
        });
    }
    let dist = VertexDistribution::new(n, p as usize);

    let num_e = r.word()?;
    let num_hubs = r.word()?;
    if num_e > num_hubs || num_hubs > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt { what: "hub counts" });
    }
    if num_hubs.checked_mul(2).is_none_or(|w| w > r.remaining()) {
        return Err(StoreError::Corrupt {
            what: "hub table length",
        });
    }
    let mut hubs = Vec::with_capacity(num_hubs as usize);
    for _ in 0..num_hubs {
        let v = r.word()?;
        let d = r.word()?;
        if v >= n {
            return Err(StoreError::Corrupt {
                what: "hub vertex out of range",
            });
        }
        let d = u32::try_from(d).map_err(|_| StoreError::Corrupt {
            what: "hub degree exceeds u32",
        })?;
        hubs.push((v, d));
    }
    let directory = HubDirectory::from_parts(num_e as u32, hubs);

    let deg_len = r.word()?;
    if deg_len != dist.local_count(expect_rank as usize) || deg_len > r.remaining() {
        return Err(StoreError::Corrupt {
            what: "owned degree table length",
        });
    }
    let mut owned_degrees = Vec::with_capacity(deg_len as usize);
    for _ in 0..deg_len {
        let d = u32::try_from(r.word()?).map_err(|_| StoreError::Corrupt {
            what: "owned degree exceeds u32",
        })?;
        owned_degrees.push(d);
    }

    let eh_by_src = decode_csr(&mut r)?;
    let eh_by_dst = decode_csr(&mut r)?;
    let el_by_hub = decode_csr(&mut r)?;
    let el_by_local = decode_csr(&mut r)?;
    let h2l_by_hub = decode_csr(&mut r)?;
    let h2l_by_local = decode_csr(&mut r)?;
    let lh_by_hub = decode_csr(&mut r)?;
    let lh_by_local = decode_csr(&mut r)?;
    let l2l = decode_csr(&mut r)?;

    let stats = ComponentStats {
        eh2eh: r.word()?,
        e2l: r.word()?,
        l2e: r.word()?,
        h2l: r.word()?,
        l2h: r.word()?,
        l2l: r.word()?,
    };
    r.end("trailing garbage after rank stream")?;
    let owned = dist.range_of(expect_rank as usize);
    // The header's mesh checks out against the rank count, so both of
    // its sides are nonzero.
    let mesh = MeshShape::new(header.mesh_rows as usize, header.mesh_cols as usize);
    let topo = Topology::new(mesh);
    let rows = row_vertex_range(&dist, &topo, topo.row_of(expect_rank as usize));
    let (hubs, all) = (0..num_hubs, 0..n);
    for (csr, keys, targets, what) in [
        (&eh_by_src, &hubs, &hubs, "eh_by_src keys or targets"),
        (&eh_by_dst, &hubs, &hubs, "eh_by_dst keys or targets"),
        (&el_by_hub, &hubs, &owned, "el_by_hub keys or targets"),
        (&el_by_local, &owned, &hubs, "el_by_local keys or targets"),
        (&h2l_by_hub, &hubs, &rows, "h2l_by_hub keys or targets"),
        (&h2l_by_local, &rows, &hubs, "h2l_by_local keys or targets"),
        (&lh_by_hub, &hubs, &owned, "lh_by_hub keys or targets"),
        (&lh_by_local, &owned, &hubs, "lh_by_local keys or targets"),
        (&l2l, &owned, &all, "l2l keys or targets"),
    ] {
        check_csr(csr, keys, targets, what)?;
    }
    Ok(RankPartition {
        rank: expect_rank as usize,
        dist,
        owned_hubs: OwnedHubs::index(owned, &directory, &owned_degrees),
        directory,
        owned_degrees,
        eh_by_src,
        eh_by_dst,
        el_by_hub,
        el_by_local,
        h2l_by_hub,
        h2l_by_local,
        lh_by_hub,
        lh_by_local,
        l2l,
        stats,
    })
}

/// Open a store from any seekable byte source, verifying every seal,
/// and decode all rank partitions in directory order.
///
/// # Errors
/// A typed [`StoreError`] on any damage — see the module-level
/// refusal discipline. On success the header still needs a
/// [`StoreHeader::check_matches`] against the caller's configuration
/// before the graph may be served.
#[allow(clippy::type_complexity)]
pub fn read_store<R: Read + Seek>(
    src: &mut R,
) -> Result<(StoreHeader, Vec<RankPartition>, StoreInfo), StoreError> {
    let file_bytes = src.seek(SeekFrom::End(0))?;
    if file_bytes == 0 || file_bytes % PAGE_SIZE as u64 != 0 {
        return Err(StoreError::Truncated);
    }
    let total_pages = file_bytes / PAGE_SIZE as u64;
    let mut pages = PageSource { src, total_pages };

    // Page 0 carries at least the fixed header words; parse the rank
    // count out of it to learn the full header-stream length.
    let page0 = pages.page(0)?;
    let word = |i: usize| u64::from_le_bytes(page0[i * 8..(i + 1) * 8].try_into().unwrap());
    if word(0) != FILE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    if word(1) != STORE_VERSION {
        return Err(StoreError::BadVersion { found: word(1) });
    }
    if word(2) != PAGE_SIZE as u64 {
        return Err(StoreError::Corrupt {
            what: "page size disagrees with format",
        });
    }
    let num_ranks = word(10);
    if num_ranks == 0 {
        return Err(StoreError::Corrupt { what: "zero ranks" });
    }
    let header_bytes = (HEADER_FIXED_WORDS + 2 * num_ranks + 1)
        .checked_mul(8)
        .ok_or(StoreError::Corrupt {
            what: "rank count overflows header",
        })?;
    if pages_for(header_bytes) > total_pages {
        return Err(StoreError::Truncated);
    }

    let header_stream = pages.stream(0, header_bytes)?;
    let mut r = WordReader::unseal(&header_stream, "header stream checksum")?;
    for _ in 0..3 {
        r.word()?; // magic, version, page size — verified above
    }
    let header = StoreHeader {
        scale: r.word()?,
        edge_factor: r.word()?,
        mesh_rows: r.word()?,
        mesh_cols: r.word()?,
        e_threshold: r.word()?,
        h_threshold: r.word()?,
        seed: r.word()?,
        num_ranks: r.word()?,
        epoch: r.word()?,
    };
    if header.scale > MAX_SCALE {
        return Err(StoreError::Corrupt {
            what: "scale too large",
        });
    }
    if header
        .mesh_rows
        .checked_mul(header.mesh_cols)
        .is_none_or(|p| p != header.num_ranks)
    {
        return Err(StoreError::Corrupt {
            what: "mesh shape disagrees with rank count",
        });
    }
    if header.e_threshold > u64::from(u32::MAX) || header.h_threshold > header.e_threshold {
        return Err(StoreError::Corrupt { what: "thresholds" });
    }
    let mut directory = Vec::with_capacity(num_ranks as usize);
    for _ in 0..num_ranks {
        let first_page = r.word()?;
        let byte_len = r.word()?;
        if first_page < pages_for(header_bytes) || byte_len < 8 {
            return Err(StoreError::Corrupt {
                what: "page directory entry",
            });
        }
        directory.push((first_page, byte_len));
    }
    r.end("trailing garbage after header")?;

    let mut parts = Vec::with_capacity(num_ranks as usize);
    for (i, &(first_page, byte_len)) in directory.iter().enumerate() {
        let stream = pages.stream(first_page, byte_len)?;
        parts.push(decode_rank(&stream, i as u64, &header)?);
    }
    let info = StoreInfo {
        file_bytes,
        pages: total_pages,
    };
    Ok((header, parts, info))
}

/// [`read_store`] on a filesystem path.
///
/// # Errors
/// [`StoreError::Io`] with `kind == NotFound` when there is no file
/// at `path` (the branch `open_or_build` callers take to a fresh
/// build), any other [`StoreError`] as [`read_store`] documents.
#[allow(clippy::type_complexity)]
pub fn open_file(path: &Path) -> Result<(StoreHeader, Vec<RankPartition>, StoreInfo), StoreError> {
    let f = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(f);
    read_store(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use sunbfs_part::Thresholds;

    /// A tiny hand-built two-rank session: not a build's output, but
    /// every CSR keyed over and pointing into the spaces a real
    /// partition's are, which the decoder checks.
    fn sample() -> (StoreHeader, Vec<RankPartition>) {
        let header = StoreHeader {
            scale: 4,
            edge_factor: 16,
            mesh_rows: 1,
            mesh_cols: 2,
            e_threshold: 256,
            h_threshold: 64,
            seed: 42,
            num_ranks: 2,
            epoch: 0,
        };
        let dist = VertexDistribution::new(16, 2);
        let directory = HubDirectory::build(vec![(3, 300), (7, 80)], Thresholds::new(256, 64));
        let parts = (0..2)
            .map(|rank| (rank, vec![rank as u32; 8]))
            .map(|(rank, owned_degrees)| RankPartition {
                rank,
                dist,
                directory: directory.clone(),
                owned_hubs: OwnedHubs::index(dist.range_of(rank), &directory, &owned_degrees),
                owned_degrees,
                eh_by_src: Csr::from_pairs(0, 2, vec![(0, 1), (1, 0)], true),
                eh_by_dst: Csr::from_pairs(0, 2, vec![(1, 0), (0, 1)], true),
                el_by_hub: Csr::from_pairs(0, 2, vec![(0, 8 * rank as u64 + 1)], false),
                el_by_local: Csr::from_pairs(8 * rank as u64, 8, vec![], false),
                h2l_by_hub: Csr::from_pairs(0, 2, vec![(1, 12)], false),
                // Keyed over the whole 1x2 mesh row, vertices 0..16.
                h2l_by_local: Csr::from_pairs(0, 16, vec![], false),
                lh_by_hub: Csr::from_pairs(0, 2, vec![], false),
                lh_by_local: Csr::from_pairs(8 * rank as u64, 8, vec![], false),
                l2l: Csr::from_pairs(8 * rank as u64, 8, vec![], false),
                stats: ComponentStats {
                    eh2eh: 2,
                    e2l: 1,
                    l2e: 0,
                    h2l: 1,
                    l2h: 0,
                    l2l: 0,
                },
            })
            .collect();
        (header, parts)
    }

    #[test]
    fn encode_read_round_trips_byte_identically() {
        let (header, parts) = sample();
        let bytes = encode_store(&header, &parts);
        assert_eq!(bytes.len() % PAGE_SIZE, 0, "whole pages only");
        let (got_header, got_parts, info) =
            read_store(&mut Cursor::new(&bytes)).expect("clean file decodes");
        assert_eq!(got_header, header);
        assert_eq!(info.file_bytes, bytes.len() as u64);
        assert_eq!(info.pages * PAGE_SIZE as u64, info.file_bytes);
        // Byte-identity through a full decode → re-encode cycle is the
        // round-trip oracle (RankPartition has no PartialEq).
        assert_eq!(encode_store(&header, &got_parts), bytes);
    }

    #[test]
    fn header_mismatch_is_typed_per_field() {
        let (header, _) = sample();
        let mut wrong = header;
        wrong.seed = 43;
        assert_eq!(
            header.check_matches(&wrong),
            Err(StoreError::HeaderMismatch {
                field: "seed",
                expected: 43,
                found: 42,
            })
        );
        assert_eq!(header.check_matches(&header), Ok(()));
    }

    #[test]
    fn epoch_is_outside_check_matches_but_refused_by_check_epoch() {
        let (header, parts) = sample();
        let mutated = StoreHeader { epoch: 3, ..header };
        // The identity check tolerates a mutated store on purpose...
        assert_eq!(mutated.check_matches(&header), Ok(()));
        // ...and the epoch check is its own typed refusal.
        assert_eq!(
            mutated.check_epoch(0),
            Err(StoreError::HeaderMismatch {
                field: "epoch",
                expected: 0,
                found: 3,
            })
        );
        assert_eq!(mutated.check_epoch(3), Ok(()));
        // The epoch word survives the file round trip.
        let bytes = encode_store(&mutated, &parts);
        let (got, _, _) = read_store(&mut Cursor::new(&bytes)).expect("decodes");
        assert_eq!(got.epoch, 3);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_rejected() {
        let (header, parts) = sample();
        let bytes = encode_store(&header, &parts);

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        let seal = fnv1a(&bad[..PAGE_PAYLOAD]);
        bad[PAGE_PAYLOAD..PAGE_SIZE].copy_from_slice(&seal.to_le_bytes());
        assert_eq!(
            read_store(&mut Cursor::new(&bad)).unwrap_err(),
            StoreError::BadMagic
        );

        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&99u64.to_le_bytes());
        let seal = fnv1a(&bad[..PAGE_PAYLOAD]);
        bad[PAGE_PAYLOAD..PAGE_SIZE].copy_from_slice(&seal.to_le_bytes());
        assert_eq!(
            read_store(&mut Cursor::new(&bad)).unwrap_err(),
            StoreError::BadVersion { found: 99 }
        );

        assert_eq!(
            read_store(&mut Cursor::new(&[] as &[u8])).unwrap_err(),
            StoreError::Truncated
        );
        assert_eq!(
            read_store(&mut Cursor::new(&bytes[..bytes.len() - 1])).unwrap_err(),
            StoreError::Truncated,
            "non-page-aligned length"
        );
        assert_eq!(
            read_store(&mut Cursor::new(&bytes[..PAGE_SIZE])).unwrap_err(),
            StoreError::Truncated,
            "directory points past the file"
        );
    }

    #[test]
    fn a_resealed_page_with_damaged_structure_is_still_refused() {
        // Flip a byte inside the header's rank-count word AND reseal
        // the page: the page checksum passes, but the stream seal (or
        // a structural guard) must still refuse it.
        let (header, parts) = sample();
        let mut bytes = encode_store(&header, &parts);
        bytes[10 * 8] ^= 0x01; // num_ranks word
        let seal = fnv1a(&bytes[..PAGE_PAYLOAD]);
        bytes[PAGE_PAYLOAD..PAGE_SIZE].copy_from_slice(&seal.to_le_bytes());
        assert!(matches!(
            read_store(&mut Cursor::new(&bytes)),
            Err(StoreError::Corrupt { .. }) | Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn csrs_outside_their_spaces_are_refused_though_sealed() {
        let (header, parts) = sample();
        // An L target outside rank 0's owned slice 0..8: the first E2L
        // push would index past the rank's parent array.
        let mut stray = parts.clone();
        stray[0].el_by_hub = Csr::from_pairs(0, 2, vec![(0, 9)], false);
        // An L2L CSR keyed over rank 1's slice instead of rank 0's.
        let mut shifted = parts;
        shifted[0].l2l = Csr::from_pairs(8, 8, vec![], false);
        for (parts, what) in [
            (stray, "el_by_hub keys or targets"),
            (shifted, "l2l keys or targets"),
        ] {
            let bytes = encode_store(&header, &parts);
            assert_eq!(
                read_store(&mut Cursor::new(&bytes)).unwrap_err(),
                StoreError::Corrupt { what }
            );
        }
    }

    #[test]
    fn save_and_open_file_round_trip() {
        let (header, parts) = sample();
        let path =
            std::env::temp_dir().join(format!("sunbfs_store_unit_{}.sbfs", std::process::id()));
        let saved = save_file(&path, &header, &parts).expect("save");
        let (got_header, got_parts, info) = open_file(&path).expect("open");
        std::fs::remove_file(&path).ok();
        assert_eq!(saved, info);
        assert_eq!(got_header, header);
        assert_eq!(
            encode_store(&header, &got_parts),
            encode_store(&header, &parts)
        );
    }

    #[test]
    fn missing_file_is_a_typed_not_found() {
        let err = open_file(Path::new("/nonexistent/sunbfs.sbfs")).unwrap_err();
        match err {
            StoreError::Io { kind, .. } => {
                assert_eq!(kind, std::io::ErrorKind::NotFound)
            }
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }
}
