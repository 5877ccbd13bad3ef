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
//! varint  format version (currently 2, [`CHECKPOINT_VERSION`])
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
//! spend). Every section is independently CRC-checked and both readers,
//! [`read_snapshot`] and [`peek_progress`], are strict through one section
//! reader and one header parser: unknown tags, duplicate or missing
//! sections, a non-empty end marker, trailing bytes, truncation, or a CRC
//! mismatch reject the whole file with a typed [`CheckpointError`] — a
//! snapshot is never partially loaded.
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

/// What a snapshot records about the run that wrote it: the HEADER section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
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
}

/// The durable state of a mining run at a level boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningSnapshot {
    /// The database, δ and provenance of the run.
    pub header: SnapshotHeader,
    /// Completed first-level partition keys (item ids), ascending.
    pub done: Vec<u32>,
    /// The boundary-consistent frequent set: every pattern found by the
    /// completed partitions (plus the frequent 1-sequences), with exact
    /// supports, in the order they were written (comparative order for a
    /// mining run's snapshots).
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
        let header = &self.header;
        if fingerprint != header.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: header.fingerprint,
                found: fingerprint,
            });
        }
        if header.rows != rows as u64 {
            return Err(CheckpointError::Invalid("row count disagrees with fingerprint"));
        }
        if header.delta != delta {
            return Err(CheckpointError::DeltaMismatch { expected: header.delta, found: delta });
        }
        Ok(())
    }
}

/// A cheap summary of a snapshot's progress: everything a status endpoint
/// wants to report, without decoding a single pattern. Produced by
/// [`peek_progress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotProgress {
    /// The database, δ and provenance of the run.
    pub header: SnapshotHeader,
    /// Number of completed first-level partitions.
    pub done_partitions: u64,
    /// Number of patterns in the boundary-consistent frequent set.
    pub patterns: u64,
    /// See [`MiningSnapshot::ops`].
    pub ops: u64,
}

// -------------------------------------------------------------------------
// Encoding.

fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    codec::put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Encodes one snapshot at format `version`; `patterns` are written in the
/// order they come.
fn encode<'a>(
    header: &SnapshotHeader,
    done: &[u32],
    patterns: impl ExactSizeIterator<Item = (&'a Sequence, u64)>,
    ops: u64,
    noted_patterns: u64,
    version: u64,
) -> Vec<u8> {
    let n_patterns = patterns.len();
    let mut out = Vec::with_capacity(64 + n_patterns * 16);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    codec::put_varint(&mut out, version);

    let mut payload = Vec::with_capacity(32);
    payload.extend_from_slice(&header.fingerprint.to_le_bytes());
    codec::put_varint(&mut payload, header.rows);
    codec::put_varint(&mut payload, header.delta);
    payload.push(header.miner);
    payload.push(u8::from(header.bi_level));
    codec::put_varint(&mut payload, u64::from(header.threads));
    put_section(&mut out, SEC_HEADER, &payload);

    payload.clear();
    codec::put_varint(&mut payload, done.len() as u64);
    for &id in done {
        codec::put_varint(&mut payload, u64::from(id));
    }
    put_section(&mut out, SEC_PROGRESS, &payload);

    payload.clear();
    payload.reserve(n_patterns * 12);
    codec::put_varint(&mut payload, n_patterns as u64);
    for (pattern, support) in patterns {
        codec::put_sequence(&mut payload, pattern);
        codec::put_varint(&mut payload, support);
    }
    put_section(&mut out, SEC_PATTERNS, &payload);

    payload.clear();
    codec::put_varint(&mut payload, ops);
    codec::put_varint(&mut payload, noted_patterns);
    put_section(&mut out, SEC_COUNTERS, &payload);

    put_section(&mut out, SEC_END, &[]);
    out
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

/// The file's HEADER, PROGRESS, PATTERNS and COUNTERS payloads, in that
/// order. Strict: the magic and version must match, every CRC must hold,
/// every section must be present exactly once, the end marker must be
/// empty, and nothing may follow it.
fn read_sections(input: &[u8]) -> Result<[&[u8]; 4], CheckpointError> {
    const MISSING: [&str; 4] = [
        "missing header section",
        "missing progress section",
        "missing patterns section",
        "missing counters section",
    ];
    if !input.starts_with(CHECKPOINT_MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let mut pos = CHECKPOINT_MAGIC.len();
    let version = codec::get_varint(input, &mut pos)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let mut found: [Option<&[u8]>; 4] = [None; 4];
    loop {
        let (tag, payload) = get_section(input, &mut pos)?;
        let slot = match tag {
            SEC_HEADER..=SEC_COUNTERS => &mut found[usize::from(tag - SEC_HEADER)],
            SEC_END if payload.is_empty() => break,
            SEC_END => return Err(CheckpointError::Invalid("end marker carries payload")),
            other => return Err(CheckpointError::UnknownSection(other)),
        };
        if slot.replace(payload).is_some() {
            return Err(CheckpointError::Invalid("duplicate section"));
        }
    }
    if pos != input.len() {
        return Err(CheckpointError::Invalid("trailing bytes after end marker"));
    }
    let mut sections: [&[u8]; 4] = [&[]; 4];
    for (i, payload) in found.into_iter().enumerate() {
        sections[i] = payload.ok_or(CheckpointError::Invalid(MISSING[i]))?;
    }
    Ok(sections)
}

fn get_u64_le(input: &[u8], pos: &mut usize) -> Result<u64, CheckpointError> {
    let end = pos.checked_add(8).ok_or(CheckpointError::Truncated)?;
    let bytes = input.get(*pos..end).ok_or(CheckpointError::Truncated)?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn get_byte(input: &[u8], pos: &mut usize) -> Result<u8, CheckpointError> {
    let &b = input.get(*pos).ok_or(CheckpointError::Truncated)?;
    *pos += 1;
    Ok(b)
}

/// An entry count. Every entry takes at least one byte, so a count above
/// the bytes left is a damaged file, not an allocation to attempt.
fn get_count(payload: &[u8], pos: &mut usize) -> Result<usize, CheckpointError> {
    let n = codec::get_varint(payload, pos)?;
    if n > (payload.len() - *pos) as u64 {
        return Err(CheckpointError::Truncated);
    }
    Ok(n as usize)
}

fn parse_header(payload: &[u8]) -> Result<SnapshotHeader, CheckpointError> {
    let mut p = 0usize;
    let fingerprint = get_u64_le(payload, &mut p)?;
    let rows = codec::get_varint(payload, &mut p)?;
    let delta = codec::get_varint(payload, &mut p)?;
    let miner = get_byte(payload, &mut p)?;
    let bi_level = match get_byte(payload, &mut p)? {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Invalid("bi_level flag out of range")),
    };
    let threads = u32::try_from(codec::get_varint(payload, &mut p)?)
        .map_err(|_| CheckpointError::Invalid("thread count out of range"))?;
    if p != payload.len() {
        return Err(CheckpointError::Invalid("trailing bytes in header section"));
    }
    Ok(SnapshotHeader { fingerprint, rows, delta, miner, bi_level, threads })
}

/// Parses every section but the patterns: the returned snapshot's pattern
/// vector is empty, and the patterns section comes back as its count and
/// the encoded patterns that follow it. The only checks left to
/// [`decode_snapshot`] are those of that encoding, which its CRC covers.
fn parse_all_but_patterns(input: &[u8]) -> Result<(MiningSnapshot, usize, &[u8]), CheckpointError> {
    let [header, progress, patterns, counters] = read_sections(input)?;
    let header = parse_header(header)?;

    let mut p = 0usize;
    let n_done = get_count(progress, &mut p)?;
    let mut done = Vec::with_capacity(n_done);
    for _ in 0..n_done {
        let id = u32::try_from(codec::get_varint(progress, &mut p)?)
            .map_err(|_| CheckpointError::Invalid("partition key out of range"))?;
        if done.last().is_some_and(|&q| q >= id) {
            return Err(CheckpointError::Invalid("partition keys not strictly ascending"));
        }
        done.push(id);
    }
    if p != progress.len() {
        return Err(CheckpointError::Invalid("trailing bytes in progress section"));
    }

    let mut p = 0usize;
    let n_patterns = get_count(patterns, &mut p)?;

    let mut c = 0usize;
    let ops = codec::get_varint(counters, &mut c)?;
    let noted_patterns = codec::get_varint(counters, &mut c)?;
    if c != counters.len() {
        return Err(CheckpointError::Invalid("trailing bytes in counters section"));
    }

    let snap = MiningSnapshot { header, done, patterns: Vec::new(), ops, noted_patterns };
    Ok((snap, n_patterns, &patterns[p..]))
}

/// Decodes a snapshot from checkpoint bytes. Strict: a damaged file is
/// rejected whole, never partially loaded.
fn decode_snapshot(input: &[u8]) -> Result<MiningSnapshot, CheckpointError> {
    let (mut snap, n_patterns, patterns) = parse_all_but_patterns(input)?;
    snap.patterns.reserve(n_patterns);
    let mut p = 0usize;
    for _ in 0..n_patterns {
        let seq = codec::get_sequence(patterns, &mut p)?;
        if seq.is_empty() {
            return Err(CheckpointError::Invalid("empty pattern"));
        }
        let support = codec::get_varint(patterns, &mut p)?;
        snap.patterns.push((seq, support));
    }
    if p != patterns.len() {
        return Err(CheckpointError::Invalid("trailing bytes in patterns section"));
    }
    Ok(snap)
}

// -------------------------------------------------------------------------
// Durable IO.

/// Durably writes one snapshot through [`durable::publish`]; `patterns`
/// are written in the order they come. A crash at any point leaves either
/// the previous snapshot intact or a stray `.tmp` that the loader never
/// reads. Returns the bytes written, for overhead accounting.
///
/// `fault` is `None` outside the crash matrices: [`durable::publish`]
/// stages the IO faults, and [`IoFault::StaleVersion`] writes the encoding
/// one format version ahead, which the loader refuses.
pub fn write_snapshot<'a>(
    path: &Path,
    header: &SnapshotHeader,
    done: &[u32],
    patterns: impl ExactSizeIterator<Item = (&'a Sequence, u64)>,
    ops: u64,
    noted_patterns: u64,
    fault: Option<IoFault>,
) -> Result<usize, CheckpointError> {
    let version = match fault {
        Some(IoFault::StaleVersion) => CHECKPOINT_VERSION + 1,
        _ => CHECKPOINT_VERSION,
    };
    let bytes = encode(header, done, patterns, ops, noted_patterns, version);
    durable::publish(path, &bytes, None, fault).map_err(|e| CheckpointError::Io {
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

/// Reads just the progress summary from a snapshot file. Every check
/// [`read_snapshot`] makes is made here too, except the parse of the
/// pattern payload: its CRC is verified and its count read, but no
/// sequence is decoded. A missing file returns [`CheckpointError::Missing`].
///
/// Intended for supervisors (a job server's status endpoint, a scheduler
/// deciding whether a preempted slice advanced) that poll a checkpoint
/// between runs: decoding cost is `O(done_partitions)`. Safe to poll while
/// a run is in flight — snapshot writes are atomic renames, so a peek sees
/// either the previous boundary or the new one, never a torn file.
pub fn peek_progress(path: &Path) -> Result<SnapshotProgress, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let (snap, patterns, _) = parse_all_but_patterns(&bytes)?;
    Ok(SnapshotProgress {
        header: snap.header,
        done_partitions: snap.done.len() as u64,
        patterns: patterns as u64,
        ops: snap.ops,
    })
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
            header: SnapshotHeader {
                fingerprint: database_fingerprint(&db),
                rows: db.len() as u64,
                delta: 2,
                miner: MINER_DISC_ALL,
                bi_level: true,
                threads: 1,
            },
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

    /// `snap` encoded at format `version`, its patterns in their own order.
    fn encode_at(snap: &MiningSnapshot, version: u64) -> Vec<u8> {
        let patterns = snap.patterns.iter().map(|(p, s)| (p, *s));
        encode(&snap.header, &snap.done, patterns, snap.ops, snap.noted_patterns, version)
    }

    fn encode_snapshot(snap: &MiningSnapshot) -> Vec<u8> {
        encode_at(snap, CHECKPOINT_VERSION)
    }

    /// Writes `snap` through [`write_snapshot`], staging `fault`.
    fn write_faulted(
        path: &Path,
        snap: &MiningSnapshot,
        fault: Option<IoFault>,
    ) -> Result<usize, CheckpointError> {
        let patterns = snap.patterns.iter().map(|(p, s)| (p, *s));
        write_snapshot(
            path,
            &snap.header,
            &snap.done,
            patterns,
            snap.ops,
            snap.noted_patterns,
            fault,
        )
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
        let bytes = encode_at(&sample_snapshot(), CHECKPOINT_VERSION + 1);
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
        write_faulted(&path, &snap, None).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), snap);
        // Overwrites are atomic replacements.
        let mut snap2 = snap.clone();
        snap2.done.push(7);
        write_faulted(&path, &snap2, None).unwrap();
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
        write_faulted(&path, &snap, None).unwrap();
        let progress = peek_progress(&path).unwrap();
        assert_eq!(
            progress,
            SnapshotProgress {
                header: snap.header,
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

    /// `bytes`' sections as `(tag, payload)`, the end marker included.
    fn sections_of(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
        let mut pos = CHECKPOINT_MAGIC.len();
        codec::get_varint(bytes, &mut pos).unwrap();
        let mut sections = Vec::new();
        while pos < bytes.len() {
            let (tag, payload) = get_section(bytes, &mut pos).unwrap();
            sections.push((tag, payload.to_vec()));
        }
        sections
    }

    /// A checkpoint file made of `sections`, each with a valid CRC.
    fn assemble(sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = CHECKPOINT_MAGIC.to_vec();
        codec::put_varint(&mut out, CHECKPOINT_VERSION);
        for (tag, payload) in sections {
            put_section(&mut out, *tag, payload);
        }
        out
    }

    #[test]
    fn peek_progress_errs_exactly_when_read_snapshot_errs() {
        let valid = encode_snapshot(&sample_snapshot());
        let sections = sections_of(&valid);
        assert_eq!(
            sections.iter().map(|(tag, _)| *tag).collect::<Vec<_>>(),
            [SEC_HEADER, SEC_PROGRESS, SEC_PATTERNS, SEC_COUNTERS, SEC_END]
        );
        let (body, end) = sections.split_at(4);
        let with = |extra: (u8, Vec<u8>)| assemble(&[body, &[extra], end].concat());
        let edit = |section: usize, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut edited = sections.clone();
            edit(&mut edited[section].1);
            assemble(&edited)
        };
        let huge_count = |payload: &mut Vec<u8>| {
            payload.clear();
            codec::put_varint(payload, 1 << 40);
        };

        let mut damaged: Vec<(String, Vec<u8>)> = vec![
            ("trailing bytes after the end marker".into(), [&valid[..], &[0; 4]].concat()),
            ("a duplicated section".into(), {
                let mut counters = Vec::new();
                codec::put_varint(&mut counters, 999_999);
                codec::put_varint(&mut counters, 3);
                with((SEC_COUNTERS, counters))
            }),
            ("an unknown tag".into(), with((7, vec![1, 2, 3]))),
            ("a non-empty end marker".into(), assemble(&[body, &[(SEC_END, vec![0])]].concat())),
            ("trailing bytes in the header".into(), edit(0, &|h| h.push(0))),
            ("bi_level = 2".into(), {
                // The header ends `bi_level · threads`, threads one varint byte.
                edit(0, &|h| {
                    let at = h.len() - 2;
                    assert_eq!(h[at], 1, "bi_level byte");
                    h[at] = 2;
                })
            }),
            ("a partition count no payload could hold".into(), edit(1, &huge_count)),
            ("a pattern count no payload could hold".into(), edit(2, &huge_count)),
        ];
        for (name, bytes) in &damaged {
            assert!(decode_snapshot(bytes).is_err(), "{name} must not load");
        }
        damaged.extend(
            (0..valid.len()).map(|len| (format!("prefix of {len}"), valid[..len].to_vec())),
        );
        for i in 0..valid.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut flipped = valid.clone();
                flipped[i] ^= mask;
                damaged.push((format!("byte {i} ^ {mask:#04x}"), flipped));
            }
        }

        let dir = std::env::temp_dir().join(format!("dscck-agree-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.dscck");
        for (name, bytes) in &damaged {
            fs::write(&path, bytes).unwrap();
            let full = read_snapshot(&path);
            let peek = peek_progress(&path);
            assert_eq!(
                peek.is_err(),
                full.is_err(),
                "{name}: read_snapshot {full:?}, peek_progress {peek:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crashes_leave_detectable_or_recoverable_state() {
        let dir = std::env::temp_dir().join(format!("dscck-crash-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let snap = sample_snapshot();
        let crash = |path: &Path, fault| {
            write_faulted(path, &snap, Some(fault)).err();
        };

        // Torn temp write: final path untouched, loader sees a clean miss.
        let path = dir.join("torn.dscck");
        crash(&path, IoFault::TornWrite);
        assert!(matches!(read_snapshot(&path), Err(CheckpointError::Missing { .. })));

        // Crash before rename over an existing snapshot: old state survives.
        let path = dir.join("unrenamed.dscck");
        let mut older = snap.clone();
        older.done.pop();
        write_faulted(&path, &older, None).unwrap();
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
