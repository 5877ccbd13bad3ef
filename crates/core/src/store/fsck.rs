//! Read-only auditing of a store directory: what recovery *would* do.
//!
//! [`fsck`] never mutates anything — it classifies the snapshot (the data
//! file, through recovery's loader) and every segment, as recovery does, so
//! an operator (or CI) can distinguish a store that is clean,
//! one that recovery will repair (a torn tail from a crash, stale segments
//! from an interrupted compaction), and one that is genuinely corrupt
//! (mid-file damage recovery refuses to guess past).

use super::snapshot::SNAPSHOT_FILE;
use super::wal::{decode_segment_header, scan_frames, ScanOutcome, WalRecord, SEGMENT_HEADER_LEN};
use super::{list_segments, load_base, StoreError};
use crate::durable::tmp_path;
use crate::flatfile::FLAT_FILE_NAME;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The state of the store's compacted rows, as fsck found them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// Never compacted — every record lives in WAL segments.
    Absent,
    /// The data file (or a legacy snapshot) decoded and self-verified.
    Valid {
        /// Rows in the folded database.
        rows: usize,
        /// FNV-1a fingerprint of the folded database.
        fingerprint: u64,
        /// The lowest segment id the snapshot does *not* supersede.
        first_live_segment: u64,
    },
    /// The data file failed its strict verification; recovery will refuse
    /// to open this store.
    Corrupt {
        /// What was wrong.
        what: &'static str,
    },
}

/// One segment's state, as fsck found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentStatus {
    /// Superseded by the snapshot; recovery deletes it.
    Stale,
    /// Every frame valid to EOF.
    Clean {
        /// Decoded frames.
        frames: u64,
    },
    /// A valid prefix then a torn tail. Recovery repairs this by
    /// truncation — but only on the final segment.
    TornTail {
        /// Frames in the valid prefix.
        frames: u64,
        /// Torn bytes past the last valid frame.
        lost_bytes: u64,
    },
    /// Damage strictly inside the file; recovery refuses to open.
    Corrupt {
        /// Byte offset of the damage within the file.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// The fixed header is torn or damaged. Recovery drops the file — but
    /// only when it is the final segment.
    BadHeader,
}

/// One audited segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCheck {
    /// The id from the file name.
    pub id: u64,
    /// The file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// What fsck found.
    pub status: SegmentStatus,
}

/// The full audit of a store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The audited directory.
    pub dir: PathBuf,
    /// The snapshot's state.
    pub snapshot: SnapshotStatus,
    /// Every segment file, in id order.
    pub segments: Vec<SegmentCheck>,
    /// Whether an interrupted compaction left a removable file behind: a
    /// stray temp file, or a legacy `store.dscsn` the data file replaced.
    pub stray_tmp: bool,
    /// Records recovery would restore: snapshot rows plus valid frames in
    /// live segments.
    pub acked_records: u64,
}

impl FsckReport {
    /// Nothing to repair and nothing damaged: a clean shutdown's store.
    pub fn is_clean(&self) -> bool {
        self.is_recoverable()
            && !self.stray_tmp
            && self.segments.iter().all(|s| matches!(s.status, SegmentStatus::Clean { .. }))
    }

    /// Whether [`super::SequenceStore::open`] would succeed — possibly
    /// repairing a torn tail, dropping a torn final segment, and deleting
    /// stale segments — without losing an acknowledged record.
    pub fn is_recoverable(&self) -> bool {
        if matches!(self.snapshot, SnapshotStatus::Corrupt { .. }) {
            return false;
        }
        let live: Vec<&SegmentCheck> =
            self.segments.iter().filter(|s| !matches!(s.status, SegmentStatus::Stale)).collect();
        live.iter().enumerate().all(|(i, s)| {
            let last = i + 1 == live.len();
            match s.status {
                SegmentStatus::Clean { .. } | SegmentStatus::Stale => true,
                SegmentStatus::TornTail { .. } | SegmentStatus::BadHeader => last,
                SegmentStatus::Corrupt { .. } => false,
            }
        })
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "store {}", self.dir.display())?;
        match &self.snapshot {
            SnapshotStatus::Absent => writeln!(f, "  snapshot: absent")?,
            SnapshotStatus::Valid { rows, fingerprint, first_live_segment } => writeln!(
                f,
                "  snapshot: {rows} rows, fingerprint {fingerprint:#018x}, \
                 supersedes segments below {first_live_segment}"
            )?,
            SnapshotStatus::Corrupt { what } => writeln!(f, "  snapshot: CORRUPT — {what}")?,
        }
        if self.stray_tmp {
            writeln!(f, "  stray file from an interrupted compaction (removable)")?;
        }
        for seg in &self.segments {
            write!(f, "  segment {:08} ({} bytes): ", seg.id, seg.bytes)?;
            match &seg.status {
                SegmentStatus::Stale => writeln!(f, "stale (superseded by snapshot; removable)")?,
                SegmentStatus::Clean { frames } => writeln!(f, "clean, {frames} frames")?,
                SegmentStatus::TornTail { frames, lost_bytes } => writeln!(
                    f,
                    "torn tail — {frames} valid frames, {lost_bytes} torn bytes (repairable)"
                )?,
                SegmentStatus::Corrupt { offset, what } => {
                    writeln!(f, "CORRUPT at byte {offset} — {what}")?
                }
                SegmentStatus::BadHeader => writeln!(f, "torn or damaged header")?,
            }
        }
        let verdict = if self.is_clean() {
            "clean"
        } else if self.is_recoverable() {
            "recoverable (open() will repair)"
        } else {
            "CORRUPT (open() will refuse)"
        };
        write!(f, "  {} acknowledged records; verdict: {verdict}", self.acked_records)
    }
}

/// Audits a store directory without mutating it. Only real IO failures
/// return `Err`; damage is reported inside the [`FsckReport`].
pub fn fsck(dir: &Path) -> Result<FsckReport, StoreError> {
    let mut cids: HashSet<u64> = HashSet::new();
    let mut acked = 0u64;
    let mut first_live = 1u64;
    let mut read = |path: &Path| fs::read(path).map_err(|e| StoreError::io(path, e));
    let (snapshot, legacy) = match load_base(dir, &mut read) {
        Ok(Some((snap, legacy))) => {
            first_live = snap.first_live_segment;
            acked += snap.db.len() as u64;
            cids.extend(snap.db.rows().iter().map(|r| r.cid.0));
            let status = SnapshotStatus::Valid {
                rows: snap.db.len(),
                fingerprint: snap.fingerprint,
                first_live_segment: snap.first_live_segment,
            };
            (status, legacy)
        }
        Ok(None) => (SnapshotStatus::Absent, false),
        Err(StoreError::CorruptSnapshot { what, .. }) => (SnapshotStatus::Corrupt { what }, false),
        Err(e) => return Err(e),
    };
    let legacy_path = dir.join(SNAPSHOT_FILE);
    let stray_tmp = tmp_path(&dir.join(FLAT_FILE_NAME)).exists()
        || tmp_path(&legacy_path).exists()
        || (!legacy && legacy_path.exists() && matches!(snapshot, SnapshotStatus::Valid { .. }));

    let mut segments = Vec::new();
    for (id, path) in list_segments(dir)? {
        let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        let status = if id < first_live {
            SegmentStatus::Stale
        } else {
            let (status, records) = classify(id, &bytes, &mut cids);
            acked += records.len() as u64;
            status
        };
        segments.push(SegmentCheck { id, path, bytes: bytes.len() as u64, status });
    }
    Ok(FsckReport { dir: dir.to_path_buf(), snapshot, segments, stray_tmp, acked_records: acked })
}

/// Classifies a live segment's bytes — the one decision recovery acts on
/// and fsck reports — and returns the records recovery would replay from
/// it: none unless the status is clean or a torn tail. Their customer ids
/// go into `cids`; a repeated id makes the segment corrupt.
pub(super) fn classify(
    id: u64,
    bytes: &[u8],
    cids: &mut HashSet<u64>,
) -> (SegmentStatus, Vec<WalRecord>) {
    let header = SEGMENT_HEADER_LEN as u64;
    let (status, records) = match decode_segment_header(bytes) {
        Err(_) => return (SegmentStatus::BadHeader, Vec::new()),
        Ok(found) if found != id => {
            let what = "segment id disagrees with file name";
            return (SegmentStatus::Corrupt { offset: 0, what }, Vec::new());
        }
        Ok(_) => match scan_frames(&bytes[SEGMENT_HEADER_LEN..]) {
            ScanOutcome::Clean { records } => {
                (SegmentStatus::Clean { frames: records.len() as u64 }, records)
            }
            ScanOutcome::TornTail { records, valid_bytes } => {
                let lost_bytes = bytes.len() as u64 - header - valid_bytes;
                (SegmentStatus::TornTail { frames: records.len() as u64, lost_bytes }, records)
            }
            ScanOutcome::Corrupt { offset, what, .. } => {
                return (SegmentStatus::Corrupt { offset: header + offset, what }, Vec::new())
            }
        },
    };
    if records.iter().all(|r| cids.insert(r.cid.0)) {
        (status, records)
    } else {
        (SegmentStatus::Corrupt { offset: header, what: "duplicate customer id" }, Vec::new())
    }
}
