//! Read-only auditing of a store directory: what recovery *would* do.
//!
//! [`fsck`] never mutates anything — it classifies the snapshot and every
//! segment, so an operator (or CI) can distinguish a store that is clean,
//! one that recovery will repair (a torn tail from a crash, stale segments
//! from an interrupted compaction), and one that is genuinely corrupt
//! (mid-file damage recovery refuses to guess past).

use super::snapshot::{decode_store_snapshot, SNAPSHOT_FILE};
use super::wal::{decode_segment_header, scan_frames, ScanOutcome, SEGMENT_HEADER_LEN};
use super::{list_segments, StoreError};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The snapshot's state, as fsck found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// No snapshot file — every record lives in WAL segments.
    Absent,
    /// The snapshot decoded and self-verified.
    Valid {
        /// Rows in the folded database.
        rows: usize,
        /// FNV-1a fingerprint of the folded database.
        fingerprint: u64,
        /// The lowest segment id the snapshot does *not* supersede.
        first_live_segment: u64,
    },
    /// The snapshot failed its strict verification; recovery will refuse
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
    /// Whether a stray snapshot temp file (interrupted compaction) exists.
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
            writeln!(f, "  stray snapshot temp file (interrupted compaction; removable)")?;
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
    let snap_path = dir.join(SNAPSHOT_FILE);
    let mut cids: HashSet<u64> = HashSet::new();
    let mut acked = 0u64;
    let mut first_live = 1u64;
    let snapshot = if snap_path.exists() {
        let bytes = fs::read(&snap_path).map_err(|e| StoreError::io(&snap_path, e))?;
        match decode_store_snapshot(&snap_path, &bytes) {
            Ok(snap) => {
                first_live = snap.first_live_segment;
                acked += snap.db.len() as u64;
                cids.extend(snap.db.rows().iter().map(|r| r.cid.0));
                SnapshotStatus::Valid {
                    rows: snap.db.len(),
                    fingerprint: snap.fingerprint,
                    first_live_segment: snap.first_live_segment,
                }
            }
            Err(StoreError::CorruptSnapshot { what, .. }) => SnapshotStatus::Corrupt { what },
            Err(e) => return Err(e),
        }
    } else {
        SnapshotStatus::Absent
    };
    let stray_tmp = crate::durable::tmp_path(&snap_path).exists();

    let mut segments = Vec::new();
    for (id, path) in list_segments(dir)? {
        let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        let total = bytes.len() as u64;
        let status = if id < first_live {
            SegmentStatus::Stale
        } else {
            match decode_segment_header(&bytes) {
                Err(_) => SegmentStatus::BadHeader,
                Ok(hid) if hid != id => SegmentStatus::Corrupt {
                    offset: 0,
                    what: "segment id disagrees with file name",
                },
                Ok(_) => match scan_frames(&bytes[SEGMENT_HEADER_LEN..]) {
                    ScanOutcome::Clean { records } => {
                        let mut status = SegmentStatus::Clean { frames: records.len() as u64 };
                        for r in &records {
                            if !cids.insert(r.cid.0) {
                                status = SegmentStatus::Corrupt {
                                    offset: SEGMENT_HEADER_LEN as u64,
                                    what: "duplicate customer id",
                                };
                            }
                        }
                        if matches!(status, SegmentStatus::Clean { .. }) {
                            acked += records.len() as u64;
                        }
                        status
                    }
                    ScanOutcome::TornTail { records, valid_bytes } => {
                        acked += records.len() as u64;
                        for r in &records {
                            cids.insert(r.cid.0);
                        }
                        SegmentStatus::TornTail {
                            frames: records.len() as u64,
                            lost_bytes: total - SEGMENT_HEADER_LEN as u64 - valid_bytes,
                        }
                    }
                    ScanOutcome::Corrupt { offset, what, .. } => {
                        SegmentStatus::Corrupt { offset: SEGMENT_HEADER_LEN as u64 + offset, what }
                    }
                },
            }
        };
        segments.push(SegmentCheck { id, path, bytes: total, status });
    }
    Ok(FsckReport { dir: dir.to_path_buf(), snapshot, segments, stray_tmp, acked_records: acked })
}
