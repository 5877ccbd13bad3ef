//! **Crash-consistent mining snapshots**: a durable, versioned binary format
//! for the state of a DISC-style mining run at a level boundary, plus the
//! atomic write protocol that makes torn or truncated files detectable.
//!
//! ## Why level boundaries
//!
//! The DISC-all discovery loop is naturally staged: when a first-level
//! `<(λ)>`-partition finishes, the accumulated result — the frequent
//! 1-sequences plus every pattern whose minimum item has already been
//! processed — is a complete, self-describing summary of progress. (The
//! k-sorted database that drives the inner DISC iterations is ephemeral
//! per sub-partition; at a partition boundary its drained state is exactly
//! the emitted pattern set.) A snapshot therefore stores the *boundary
//! state*: which partitions completed, the patterns found so far, and the
//! guard's spend — everything a resumed run needs to skip finished work
//! and still produce a result bit-identical to an uninterrupted run.
//!
//! ## File format
//!
//! ```text
//! magic "DSCCK1\n"
//! varint  format version (currently 1)
//! sections, each:
//!   u8      section tag
//!   varint  payload length
//!   payload bytes
//!   u32le   CRC-32 (IEEE) of the payload
//! end marker: tag 0xFF with an empty payload (and its CRC)
//! ```
//!
//! Sections: HEADER (database fingerprint, resolved δ, miner provenance),
//! PROGRESS (completed first-level partition keys), PATTERNS (the
//! boundary-consistent frequent set with exact supports), COUNTERS (guard
//! spend). Every section is independently CRC-checked and the decoder is
//! strict: unknown tags, missing sections, trailing bytes, truncation, or a
//! CRC mismatch reject the whole file with a typed [`CheckpointError`] —
//! a snapshot is never partially loaded.
//!
//! ## Atomic write protocol
//!
//! [`write_snapshot`] publishes through [`crate::durable::publish`]:
//! `<path>.tmp`, fsync, rename over `<path>`, parent-directory fsync. A
//! crash at any point leaves either the previous complete snapshot or a
//! stray `.tmp` the loader never looks at; bit rot is caught by the section
//! CRCs.

use crate::codec::{self, CodecError};
use crate::database::SequenceDatabase;
use crate::durable::{self, IoFault};
use crate::result::MiningResult;
use crate::sequence::Sequence;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The checkpoint file magic.
pub const CHECKPOINT_MAGIC: &[u8] = b"DSCCK1\n";
/// The current format version. Version 2 snapshots hold item ids of the
/// loaded database's compacted columns
/// ([`crate::flatfile::FlatFileContents`]), keyed by the source fingerprint
/// in original ids; version 1 files, whose ids depended on the entry point
/// that wrote them, are refused.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Miner provenance code: sequential DISC-all.
pub const MINER_DISC_ALL: u8 = 1;
/// Miner provenance code: Dynamic DISC-all.
pub const MINER_DYNAMIC: u8 = 2;
/// Miner provenance code: parallel (sharded) DISC-all.
pub const MINER_PARALLEL: u8 = 3;

const SEC_HEADER: u8 = 1;
const SEC_PROGRESS: u8 = 2;
const SEC_PATTERNS: u8 = 3;
const SEC_COUNTERS: u8 = 4;
const SEC_END: u8 = 0xFF;

/// Why a checkpoint could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not exist — a fresh run, not a failure.
    Missing {
        /// The path that was probed.
        path: PathBuf,
    },
    /// An IO operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        message: String,
        /// Whether the failure is transient (`EINTR`/`EAGAIN`-class) —
        /// already retried once by the writer, but still worth a coarser
        /// retry by a supervisor, unlike corruption or `ENOSPC`.
        transient: bool,
    },
    /// The input does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u64),
    /// The input ended inside a value or section.
    Truncated,
    /// A section's CRC did not match its payload — a torn or corrupted file.
    SectionCrc {
        /// The tag of the damaged section.
        tag: u8,
    },
    /// An unknown section tag was encountered.
    UnknownSection(u8),
    /// A nested codec value was malformed.
    Codec(CodecError),
    /// A structural invariant was violated.
    Invalid(&'static str),
    /// The snapshot was taken against a different database.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the database offered for resume.
        found: u64,
    },
    /// The snapshot was taken at a different resolved support threshold.
    DeltaMismatch {
        /// δ recorded in the snapshot.
        expected: u64,
        /// δ of the run attempting to resume.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing { path } => {
                write!(f, "no checkpoint at {}", path.display())
            }
            CheckpointError::Io { path, message, .. } => {
                write!(f, "checkpoint io error at {}: {message}", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a DSCCK1 checkpoint file"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint ended inside a value"),
            CheckpointError::SectionCrc { tag } => {
                write!(f, "checkpoint section {tag} failed its CRC — torn or corrupted file")
            }
            CheckpointError::UnknownSection(tag) => {
                write!(f, "unknown checkpoint section tag {tag}")
            }
            CheckpointError::Codec(e) => write!(f, "checkpoint payload: {e}"),
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint: {what}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different database \
                 (snapshot fingerprint {expected:#018x}, database {found:#018x})"
            ),
            CheckpointError::DeltaMismatch { expected, found } => write!(
                f,
                "checkpoint was taken at δ = {expected}, this run resolves to δ = {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> CheckpointError {
        match e {
            CodecError::Truncated => CheckpointError::Truncated,
            other => CheckpointError::Codec(other),
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    if e.kind() == std::io::ErrorKind::NotFound {
        CheckpointError::Missing { path: path.to_path_buf() }
    } else {
        CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
            transient: crate::guard::is_transient_io_kind(e.kind()),
        }
    }
}

// -------------------------------------------------------------------------
// CRC-32 (IEEE) and the database fingerprint — self-contained, no deps.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// Slicing-by-16 tables: `CRC_SLICES[k][b]` is the CRC register after
/// byte `b` is followed by `k` zero bytes, so sixteen lookups advance the
/// CRC over a whole 16-byte block.
const fn crc_slices() -> [[u32; 256]; 16] {
    let mut slices = [CRC_TABLE; 16];
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
}

const CRC_SLICES: [[u32; 256]; 16] = crc_slices();

/// CRC-32 (IEEE 802.3) of a byte slice, sixteen bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let block = u128::from_le_bytes(block.try_into().expect("16-byte block")) ^ u128::from(c);
        let block = block.to_le_bytes();
        c = (0..16).fold(0, |acc, i| acc ^ CRC_SLICES[15 - i][block[i] as usize]);
    }
    for &b in blocks.remainder() {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a of a byte slice. Over a [`codec::encode_database`]
/// encoding it is that database's [`database_fingerprint`].
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// A stable 64-bit fingerprint of a database (FNV-1a over its canonical
/// binary encoding). Snapshot headers record it so a resume against the
/// wrong database is rejected instead of silently producing garbage.
pub fn database_fingerprint(db: &SequenceDatabase) -> u64 {
    let mut h = FNV_OFFSET;
    codec::encode_database_chunks(db, |bytes| h = fnv1a_extend(h, bytes));
    h
}

// -------------------------------------------------------------------------
// The snapshot model.

/// The durable state of a mining run at a level boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningSnapshot {
    /// Fingerprint of the input database ([`database_fingerprint`]).
    pub fingerprint: u64,
    /// Customer count of the input database (sanity alongside the hash).
    pub rows: u64,
    /// The resolved minimum-support count δ the run used.
    pub delta: u64,
    /// Provenance: which miner wrote the snapshot ([`MINER_DISC_ALL`] /
    /// [`MINER_DYNAMIC`] / [`MINER_PARALLEL`]). Informational — any
    /// checkpoint-aware miner can resume any snapshot, because every
    /// complete miner produces the same per-partition pattern sets.
    pub miner: u8,
    /// Provenance: whether the bi-level optimization was on.
    pub bi_level: bool,
    /// Provenance: worker threads of the writing run (1 = sequential).
    pub threads: u32,
    /// Completed first-level partition keys (item ids), ascending.
    pub done: Vec<u32>,
    /// The boundary-consistent frequent set: every pattern found by the
    /// completed partitions (plus the frequent 1-sequences), with exact
    /// supports, in comparative order.
    pub patterns: Vec<(Sequence, u64)>,
    /// Guard operations charged up to the boundary.
    pub ops: u64,
    /// Patterns noted against the guard's budget up to the boundary.
    pub noted_patterns: u64,
}

impl MiningSnapshot {
    /// Checks that this snapshot belongs to the database with `fingerprint`
    /// ([`database_fingerprint`], original item ids) and `rows` customers,
    /// mined at `delta`.
    pub fn validate(
        &self,
        fingerprint: u64,
        rows: usize,
        delta: u64,
    ) -> Result<(), CheckpointError> {
        if fingerprint != self.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: self.fingerprint,
                found: fingerprint,
            });
        }
        if self.rows != rows as u64 {
            return Err(CheckpointError::Invalid("row count disagrees with fingerprint"));
        }
        if self.delta != delta {
            return Err(CheckpointError::DeltaMismatch { expected: self.delta, found: delta });
        }
        Ok(())
    }

    /// The saved patterns as a [`MiningResult`].
    pub fn restore_result(&self) -> MiningResult {
        MiningResult::from_pairs(self.patterns.iter().map(|(p, s)| (p.clone(), *s)))
    }

    /// Whether the first-level partition keyed on `item` completed before
    /// the snapshot was taken.
    pub fn is_done(&self, item: u32) -> bool {
        self.done.binary_search(&item).is_ok()
    }
}

// -------------------------------------------------------------------------
// Encoding.

fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    codec::put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// A borrowed view of a run's current state: the same fields as
/// [`MiningSnapshot`], but with the pattern set streamed straight out of the
/// live [`MiningResult`]. The write path uses it so that persisting a
/// snapshot never deep-clones every pattern — [`encode_snapshot_view`]
/// produces byte-identical output to encoding the equivalent owned snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// See [`MiningSnapshot::fingerprint`].
    pub fingerprint: u64,
    /// See [`MiningSnapshot::rows`].
    pub rows: u64,
    /// See [`MiningSnapshot::delta`].
    pub delta: u64,
    /// See [`MiningSnapshot::miner`].
    pub miner: u8,
    /// See [`MiningSnapshot::bi_level`].
    pub bi_level: bool,
    /// See [`MiningSnapshot::threads`].
    pub threads: u32,
    /// Completed first-level partition keys (item ids), ascending.
    pub done: &'a [u32],
    /// The live pattern set (comparative order, exact supports).
    pub patterns: &'a MiningResult,
    /// See [`MiningSnapshot::ops`].
    pub ops: u64,
    /// See [`MiningSnapshot::noted_patterns`].
    pub noted_patterns: u64,
}

#[allow(clippy::too_many_arguments)]
fn encode_parts<'a>(
    fingerprint: u64,
    rows: u64,
    delta: u64,
    miner: u8,
    bi_level: bool,
    threads: u32,
    done: &[u32],
    n_patterns: usize,
    pattern_iter: impl Iterator<Item = (&'a Sequence, u64)>,
    ops: u64,
    noted_patterns: u64,
    version: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + n_patterns * 16);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    codec::put_varint(&mut out, version);

    let mut header = Vec::with_capacity(32);
    header.extend_from_slice(&fingerprint.to_le_bytes());
    codec::put_varint(&mut header, rows);
    codec::put_varint(&mut header, delta);
    header.push(miner);
    header.push(u8::from(bi_level));
    codec::put_varint(&mut header, u64::from(threads));
    put_section(&mut out, SEC_HEADER, &header);

    let mut progress = Vec::with_capacity(1 + done.len() * 2);
    codec::put_varint(&mut progress, done.len() as u64);
    for &id in done {
        codec::put_varint(&mut progress, u64::from(id));
    }
    put_section(&mut out, SEC_PROGRESS, &progress);

    let mut patterns = Vec::with_capacity(n_patterns * 12);
    codec::put_varint(&mut patterns, n_patterns as u64);
    for (pattern, support) in pattern_iter {
        codec::put_sequence(&mut patterns, pattern);
        codec::put_varint(&mut patterns, support);
    }
    put_section(&mut out, SEC_PATTERNS, &patterns);

    let mut counters = Vec::with_capacity(16);
    codec::put_varint(&mut counters, ops);
    codec::put_varint(&mut counters, noted_patterns);
    put_section(&mut out, SEC_COUNTERS, &counters);

    put_section(&mut out, SEC_END, &[]);
    out
}

/// Encodes a snapshot to the binary checkpoint format.
pub fn encode_snapshot(snap: &MiningSnapshot) -> Vec<u8> {
    encode_parts(
        snap.fingerprint,
        snap.rows,
        snap.delta,
        snap.miner,
        snap.bi_level,
        snap.threads,
        &snap.done,
        snap.patterns.len(),
        snap.patterns.iter().map(|(p, s)| (p, *s)),
        snap.ops,
        snap.noted_patterns,
        CHECKPOINT_VERSION,
    )
}

/// Encodes a [`SnapshotView`] — byte-identical to [`encode_snapshot`] of
/// the equivalent owned snapshot, without cloning the pattern set.
pub fn encode_snapshot_view(view: &SnapshotView<'_>) -> Vec<u8> {
    encode_view_version(view, CHECKPOINT_VERSION)
}

fn encode_view_version(view: &SnapshotView<'_>, version: u64) -> Vec<u8> {
    encode_parts(
        view.fingerprint,
        view.rows,
        view.delta,
        view.miner,
        view.bi_level,
        view.threads,
        view.done,
        view.patterns.len(),
        view.patterns.iter(),
        view.ops,
        view.noted_patterns,
        version,
    )
}

// -------------------------------------------------------------------------
// Decoding.

fn get_section<'a>(input: &'a [u8], pos: &mut usize) -> Result<(u8, &'a [u8]), CheckpointError> {
    let &tag = input.get(*pos).ok_or(CheckpointError::Truncated)?;
    *pos += 1;
    let len = codec::get_varint(input, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CheckpointError::Truncated)?;
    if end.checked_add(4).ok_or(CheckpointError::Truncated)? > input.len() {
        return Err(CheckpointError::Truncated);
    }
    let payload = &input[*pos..end];
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&input[end..end + 4]);
    if crc32(payload) != u32::from_le_bytes(crc_bytes) {
        return Err(CheckpointError::SectionCrc { tag });
    }
    *pos = end + 4;
    Ok((tag, payload))
}

fn get_u64_le(input: &[u8], pos: &mut usize) -> Result<u64, CheckpointError> {
    let end = pos.checked_add(8).ok_or(CheckpointError::Truncated)?;
    if end > input.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&input[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(bytes))
}

/// Decodes a snapshot from checkpoint bytes. Strict: every section must be
/// present exactly once, every CRC must match, and nothing may follow the
/// end marker — a damaged file is rejected whole, never partially loaded.
pub fn decode_snapshot(input: &[u8]) -> Result<MiningSnapshot, CheckpointError> {
    if input.len() < CHECKPOINT_MAGIC.len() || &input[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
    {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = CHECKPOINT_MAGIC.len();
    let version = codec::get_varint(input, &mut pos)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut header: Option<&[u8]> = None;
    let mut progress: Option<&[u8]> = None;
    let mut patterns: Option<&[u8]> = None;
    let mut counters: Option<&[u8]> = None;
    loop {
        let (tag, payload) = get_section(input, &mut pos)?;
        let slot = match tag {
            SEC_HEADER => &mut header,
            SEC_PROGRESS => &mut progress,
            SEC_PATTERNS => &mut patterns,
            SEC_COUNTERS => &mut counters,
            SEC_END => {
                if !payload.is_empty() {
                    return Err(CheckpointError::Invalid("end marker carries payload"));
                }
                break;
            }
            other => return Err(CheckpointError::UnknownSection(other)),
        };
        if slot.is_some() {
            return Err(CheckpointError::Invalid("duplicate section"));
        }
        *slot = Some(payload);
    }
    if pos != input.len() {
        return Err(CheckpointError::Invalid("trailing bytes after end marker"));
    }
    let header = header.ok_or(CheckpointError::Invalid("missing header section"))?;
    let progress = progress.ok_or(CheckpointError::Invalid("missing progress section"))?;
    let patterns = patterns.ok_or(CheckpointError::Invalid("missing patterns section"))?;
    let counters = counters.ok_or(CheckpointError::Invalid("missing counters section"))?;

    let mut p = 0usize;
    let fingerprint = get_u64_le(header, &mut p)?;
    let rows = codec::get_varint(header, &mut p)?;
    let delta = codec::get_varint(header, &mut p)?;
    let &miner = header.get(p).ok_or(CheckpointError::Truncated)?;
    p += 1;
    let &bi_level = header.get(p).ok_or(CheckpointError::Truncated)?;
    p += 1;
    if bi_level > 1 {
        return Err(CheckpointError::Invalid("bi_level flag out of range"));
    }
    let threads = codec::get_varint(header, &mut p)?;
    if threads > u64::from(u32::MAX) {
        return Err(CheckpointError::Invalid("thread count out of range"));
    }
    if p != header.len() {
        return Err(CheckpointError::Invalid("trailing bytes in header section"));
    }

    let mut p = 0usize;
    let n_done = codec::get_varint(progress, &mut p)?;
    let mut done = Vec::with_capacity(n_done as usize);
    let mut prev: Option<u32> = None;
    for _ in 0..n_done {
        let id = codec::get_varint(progress, &mut p)?;
        if id > u64::from(u32::MAX) {
            return Err(CheckpointError::Invalid("partition key out of range"));
        }
        let id = id as u32;
        if prev.is_some_and(|q| q >= id) {
            return Err(CheckpointError::Invalid("partition keys not strictly ascending"));
        }
        prev = Some(id);
        done.push(id);
    }
    if p != progress.len() {
        return Err(CheckpointError::Invalid("trailing bytes in progress section"));
    }

    let mut p = 0usize;
    let n_patterns = codec::get_varint(patterns, &mut p)?;
    let mut pats = Vec::with_capacity(n_patterns as usize);
    for _ in 0..n_patterns {
        let seq = codec::get_sequence(patterns, &mut p)?;
        if seq.is_empty() {
            return Err(CheckpointError::Invalid("empty pattern"));
        }
        let support = codec::get_varint(patterns, &mut p)?;
        pats.push((seq, support));
    }
    if p != patterns.len() {
        return Err(CheckpointError::Invalid("trailing bytes in patterns section"));
    }

    let mut p = 0usize;
    let ops = codec::get_varint(counters, &mut p)?;
    let noted_patterns = codec::get_varint(counters, &mut p)?;
    if p != counters.len() {
        return Err(CheckpointError::Invalid("trailing bytes in counters section"));
    }

    Ok(MiningSnapshot {
        fingerprint,
        rows,
        delta,
        miner,
        bi_level: bi_level == 1,
        threads: threads as u32,
        done,
        patterns: pats,
        ops,
        noted_patterns,
    })
}

// -------------------------------------------------------------------------
// Durable IO.

/// Durably writes a snapshot through [`durable::publish`]. A crash at any
/// point leaves either the previous snapshot intact or a stray `.tmp` that
/// the loader never reads. Returns the bytes written, for overhead
/// accounting.
pub fn write_snapshot(path: &Path, snap: &MiningSnapshot) -> Result<usize, CheckpointError> {
    publish_snapshot(path, &encode_snapshot(snap), None)
}

/// [`write_snapshot`] for a borrowed [`SnapshotView`] — the per-boundary
/// write path, which must not deep-clone the pattern set it persists.
pub fn write_snapshot_view(path: &Path, view: &SnapshotView<'_>) -> Result<usize, CheckpointError> {
    write_snapshot_view_faulted(path, view, None)
}

/// [`write_snapshot_view`] staging an injected `fault`, which is `None`
/// outside the crash matrices: [`durable::publish`] stages the IO faults,
/// and [`IoFault::StaleVersion`] writes the encoding one format version
/// ahead, which the loader refuses.
pub fn write_snapshot_view_faulted(
    path: &Path,
    view: &SnapshotView<'_>,
    fault: Option<IoFault>,
) -> Result<usize, CheckpointError> {
    let version = match fault {
        Some(IoFault::StaleVersion) => CHECKPOINT_VERSION + 1,
        _ => CHECKPOINT_VERSION,
    };
    publish_snapshot(path, &encode_view_version(view, version), fault)
}

fn publish_snapshot(
    path: &Path,
    bytes: &[u8],
    fault: Option<IoFault>,
) -> Result<usize, CheckpointError> {
    durable::publish(path, bytes, None, fault).map_err(|e| CheckpointError::Io {
        path: e.path().to_path_buf(),
        message: e.to_string(),
        transient: e.is_transient(),
    })?;
    Ok(bytes.len())
}

/// Reads and strictly validates a snapshot file. A missing file returns
/// [`CheckpointError::Missing`]; any damage returns the specific typed
/// error and no partial state.
pub fn read_snapshot(path: &Path) -> Result<MiningSnapshot, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    decode_snapshot(&bytes)
}

/// A cheap summary of a snapshot's progress: everything a status endpoint
/// wants to report, without decoding a single pattern.
///
/// Produced by [`peek_progress`], which validates the magic, version, and
/// the CRCs of the sections it touches, but reads only the header, the
/// completed-partition list, the leading pattern *count*, and the guard
/// counters — never the pattern payload itself, which dominates snapshot
/// size on real runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotProgress {
    /// See [`MiningSnapshot::fingerprint`].
    pub fingerprint: u64,
    /// See [`MiningSnapshot::rows`].
    pub rows: u64,
    /// See [`MiningSnapshot::delta`].
    pub delta: u64,
    /// Number of completed first-level partitions.
    pub done_partitions: u64,
    /// Number of patterns in the boundary-consistent frequent set.
    pub patterns: u64,
    /// See [`MiningSnapshot::ops`].
    pub ops: u64,
}

/// Reads just the progress summary from a snapshot file — section CRCs for
/// the header/progress/counters sections are still verified, but the
/// pattern payload is only counted, not decoded. A missing file returns
/// [`CheckpointError::Missing`].
///
/// Intended for supervisors (a job server's status endpoint, a scheduler
/// deciding whether a preempted slice advanced) that poll a checkpoint
/// between runs: decoding cost is `O(done_partitions)` — the pattern bytes
/// are CRC-summed but never parsed into sequences.
pub fn peek_progress(path: &Path) -> Result<SnapshotProgress, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let input = bytes.as_slice();
    if input.len() < CHECKPOINT_MAGIC.len() || &input[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
    {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = CHECKPOINT_MAGIC.len();
    let version = codec::get_varint(input, &mut pos)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut header: Option<&[u8]> = None;
    let mut done_partitions: Option<u64> = None;
    let mut patterns: Option<u64> = None;
    let mut counters: Option<&[u8]> = None;
    loop {
        let (tag, payload) = get_section(input, &mut pos)?;
        match tag {
            SEC_HEADER => header = Some(payload),
            SEC_PROGRESS => {
                let mut p = 0usize;
                done_partitions = Some(codec::get_varint(payload, &mut p)?);
            }
            SEC_PATTERNS => {
                let mut p = 0usize;
                patterns = Some(codec::get_varint(payload, &mut p)?);
            }
            SEC_COUNTERS => counters = Some(payload),
            SEC_END => break,
            other => return Err(CheckpointError::UnknownSection(other)),
        }
    }
    let header = header.ok_or(CheckpointError::Invalid("missing header section"))?;
    let done_partitions =
        done_partitions.ok_or(CheckpointError::Invalid("missing progress section"))?;
    let patterns = patterns.ok_or(CheckpointError::Invalid("missing patterns section"))?;
    let counters = counters.ok_or(CheckpointError::Invalid("missing counters section"))?;

    let mut p = 0usize;
    let fingerprint = get_u64_le(header, &mut p)?;
    let rows = codec::get_varint(header, &mut p)?;
    let delta = codec::get_varint(header, &mut p)?;

    let mut p = 0usize;
    let ops = codec::get_varint(counters, &mut p)?;

    Ok(SnapshotProgress { fingerprint, rows, delta, done_partitions, patterns, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sequence;

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    fn sample_snapshot() -> MiningSnapshot {
        let db = table1();
        MiningSnapshot {
            fingerprint: database_fingerprint(&db),
            rows: db.len() as u64,
            delta: 2,
            miner: MINER_DISC_ALL,
            bi_level: true,
            threads: 1,
            done: vec![0, 1, 5],
            patterns: vec![
                (parse_sequence("(a)").unwrap(), 2),
                (parse_sequence("(a,g)(b)(f)").unwrap(), 2),
                (parse_sequence("(b)").unwrap(), 4),
            ],
            ops: 12345,
            noted_patterns: 3,
        }
    }

    /// The byte-at-a-time CRC the sliced kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn pseudo_random_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_bytewise_at_every_length_and_offset() {
        let buf = pseudo_random_bytes(16 + 64, 7);
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
        let big = pseudo_random_bytes(1 << 20, 11);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn fnv1a_of_the_encoding_is_the_database_fingerprint() {
        for db in [table1(), SequenceDatabase::new()] {
            assert_eq!(fnv1a(&codec::encode_database(&db)), database_fingerprint(&db));
        }
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = database_fingerprint(&table1());
        assert_eq!(a, database_fingerprint(&table1()));
        let other = SequenceDatabase::from_parsed(&["(a)(b)"]).unwrap();
        assert_ne!(a, database_fingerprint(&other));
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = sample_snapshot();
        let back = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(snap, back);
    }

    /// `snap` as a view over `live`, its restored pattern set.
    fn view_of<'a>(snap: &'a MiningSnapshot, live: &'a MiningResult) -> SnapshotView<'a> {
        SnapshotView {
            fingerprint: snap.fingerprint,
            rows: snap.rows,
            delta: snap.delta,
            miner: snap.miner,
            bi_level: snap.bi_level,
            threads: snap.threads,
            done: &snap.done,
            patterns: live,
            ops: snap.ops,
            noted_patterns: snap.noted_patterns,
        }
    }

    #[test]
    fn view_encoding_is_byte_identical_to_owned() {
        let snap = sample_snapshot();
        let live = snap.restore_result();
        let view = view_of(&snap, &live);
        // The live result iterates in comparative order — the same order the
        // owned snapshot's pattern vector was collected in.
        let owned = MiningSnapshot {
            patterns: live.iter().map(|(p, s)| (p.clone(), s)).collect(),
            ..snap.clone()
        };
        assert_eq!(encode_snapshot_view(&view), encode_snapshot(&owned));
        assert_eq!(decode_snapshot(&encode_snapshot_view(&view)).unwrap(), owned);
    }

    #[test]
    fn validate_accepts_the_right_database_and_rejects_others() {
        let snap = sample_snapshot();
        let (fingerprint, rows) = (database_fingerprint(&table1()), table1().len());
        snap.validate(fingerprint, rows, 2).unwrap();
        assert!(matches!(
            snap.validate(fingerprint, rows, 3),
            Err(CheckpointError::DeltaMismatch { expected: 2, found: 3 })
        ));
        assert!(matches!(
            snap.validate(fingerprint, rows + 1, 2),
            Err(CheckpointError::Invalid(_))
        ));
        let other = SequenceDatabase::from_parsed(&["(a)(b)"]).unwrap();
        assert!(matches!(
            snap.validate(database_fingerprint(&other), other.len(), 2),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_snapshot(&sample_snapshot());
        for len in 0..bytes.len() {
            let err =
                decode_snapshot(&bytes[..len]).expect_err("a prefix of a snapshot must never load");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::SectionCrc { .. }
                        | CheckpointError::Invalid(_)
                ),
                "unexpected error for prefix of {len} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_snapshot(&sample_snapshot());
        let reference = decode_snapshot(&bytes).unwrap();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            // Either the file is rejected outright, or (for a flipped bit in
            // a CRC-covered-but-semantically-free spot — there are none in
            // this format, every payload byte is meaningful) it must not
            // silently decode to something else claiming to be the snapshot.
            match decode_snapshot(&corrupt) {
                Err(_) => {}
                Ok(decoded) => {
                    assert_eq!(
                        decoded, reference,
                        "byte {i} flipped yet the snapshot decoded differently"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_version_is_rejected() {
        let snap = sample_snapshot();
        let live = snap.restore_result();
        let bytes = encode_view_version(&view_of(&snap, &live), CHECKPOINT_VERSION + 1);
        assert_eq!(
            decode_snapshot(&bytes),
            Err(CheckpointError::UnsupportedVersion(CHECKPOINT_VERSION + 1))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot());
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes),
            Err(CheckpointError::Invalid("trailing bytes after end marker"))
        );
    }

    #[test]
    fn atomic_write_and_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dscck-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.dscck");
        let snap = sample_snapshot();
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snap);
        // Overwrites are atomic replacements.
        let mut snap2 = snap.clone();
        snap2.done.push(7);
        write_snapshot(&path, &snap2).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snap2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_typed_miss() {
        let path = std::env::temp_dir().join("definitely-absent.dscck");
        assert!(matches!(read_snapshot(&path), Err(CheckpointError::Missing { .. })));
        assert!(matches!(peek_progress(&path), Err(CheckpointError::Missing { .. })));
    }

    #[test]
    fn peek_progress_agrees_with_the_full_decode() {
        let dir = std::env::temp_dir().join(format!("dscck-peek-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.dscck");
        let snap = sample_snapshot();
        write_snapshot(&path, &snap).unwrap();
        let progress = peek_progress(&path).unwrap();
        assert_eq!(
            progress,
            SnapshotProgress {
                fingerprint: snap.fingerprint,
                rows: snap.rows,
                delta: snap.delta,
                done_partitions: snap.done.len() as u64,
                patterns: snap.patterns.len() as u64,
                ops: snap.ops,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_progress_still_rejects_damaged_files() {
        let bytes = encode_snapshot(&sample_snapshot());
        let dir = std::env::temp_dir().join(format!("dscck-peekbad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.dscck");

        // A flipped byte inside the (unparsed) pattern payload must still be
        // caught: the peek CRC-checks every section it walks past.
        let mut corrupt = bytes.clone();
        let mid = bytes.len() / 2;
        corrupt[mid] ^= 0x01;
        fs::write(&path, &corrupt).unwrap();
        assert!(peek_progress(&path).is_err(), "corruption at byte {mid} not detected");

        // Truncation is never silently tolerated either.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(peek_progress(&path).is_err());

        fs::write(&path, b"not a checkpoint").unwrap();
        assert_eq!(peek_progress(&path), Err(CheckpointError::BadMagic));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crashes_leave_detectable_or_recoverable_state() {
        let dir = std::env::temp_dir().join(format!("dscck-crash-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample_snapshot();
        let live = snap.restore_result();
        let view = view_of(&snap, &live);
        let crash = |path: &Path, fault| {
            write_snapshot_view_faulted(path, &view, Some(fault)).err();
        };

        // Torn temp write: final path untouched, loader sees a clean miss.
        let path = dir.join("torn.dscck");
        crash(&path, IoFault::TornWrite);
        assert!(matches!(read_snapshot(&path), Err(CheckpointError::Missing { .. })));

        // Crash before rename over an existing snapshot: old state survives.
        let path = dir.join("unrenamed.dscck");
        let mut older = snap.clone();
        older.done.pop();
        write_snapshot(&path, &older).unwrap();
        crash(&path, IoFault::CrashBeforeRename);
        assert_eq!(read_snapshot(&path).unwrap(), older);

        // Corrupt section: typed rejection, never a partial load.
        let path = dir.join("corrupt.dscck");
        crash(&path, IoFault::CorruptByte);
        let err = read_snapshot(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::SectionCrc { .. }
                    | CheckpointError::Truncated
                    | CheckpointError::Invalid(_)
            ),
            "corruption produced {err:?}"
        );

        // Stale version: typed rejection by version.
        let path = dir.join("stale.dscck");
        crash(&path, IoFault::StaleVersion);
        assert!(matches!(read_snapshot(&path), Err(CheckpointError::UnsupportedVersion(_))));

        let _ = fs::remove_dir_all(&dir);
    }
}
