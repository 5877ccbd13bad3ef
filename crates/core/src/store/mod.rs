//! The durable ingest store: a crash-safe write-ahead log for sequence
//! arrivals, folded into immutable snapshots by compaction.
//!
//! Every run of the workspace previously started from an in-memory database
//! parsed from a flat file; this module gives arrivals a durable write path
//! so mining can sit behind ingestion. The shape is WAL-then-compact:
//!
//! * [`SequenceStore::append`] frames each record (length prefix + CRC-32,
//!   the [`wal`] format) into numbered segment files, fsyncing on the
//!   configured [`SyncPolicy`] and rotating segments at a size threshold;
//! * [`SequenceStore::compact`] folds the base snapshot plus every sealed
//!   segment into one immutable, self-verifying [`snapshot`] file,
//!   published by [`crate::durable::publish`] (temp → fsync → read-back
//!   verify → rename) and only then deletes the superseded segments;
//! * [`SequenceStore::open`] recovers: it loads the snapshot, deletes
//!   segments the snapshot supersedes, replays the live segments, and
//!   truncates a torn tail at the last valid frame — so **every append
//!   acknowledged under [`SyncPolicy::Always`] survives a crash**, and no
//!   unacknowledged append is ever resurrected;
//! * [`SequenceStore::view`] publishes a consistent point-in-time
//!   [`SequenceDatabase`] to miners (copy-on-write: appends never mutate a
//!   view already handed out);
//! * [`fsck::fsck`] audits a store directory read-only and reports exactly
//!   what recovery would do.
//!
//! All file IO retries transient (`EINTR`-class) failures with the bounded
//! jittered backoff of [`crate::guard::retry_transient`]; permanent
//! failures surface immediately and mark the writer [`StoreError::Poisoned`]
//! (the on-disk tail is then in an unknown state — reopening recovers).
//! Under `cfg(test)` / the `fault-injection` feature, a
//! `FaultPlan` (`crate::guard`) can inject a deterministic fault
//! (torn write, crash around the snapshot rename, flipped byte, `ENOSPC`,
//! `EINTR`, short read) at any numbered write or read, which is how the
//! crash-recovery matrix drives every failure path.

pub mod fsck;
pub mod snapshot;
pub mod wal;

use crate::database::{CustomerId, SequenceDatabase};
use crate::durable::{self, tmp_path, IoFault, IoWriter, PublishError};
use crate::guard::{retry_transient, RetryPolicy};
use crate::sequence::Sequence;
use snapshot::{
    decode_store_snapshot, encode_store_snapshot_version, SNAPSHOT_FILE, SNAPSHOT_VERSION,
};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{
    decode_segment_header, encode_frame, encode_segment_header, parse_segment_file_name,
    scan_frames, segment_file_name, ScanOutcome, WalRecord, SEGMENT_HEADER_LEN,
};

// -------------------------------------------------------------------------
// Errors.

/// Why the store failed to append, recover, or compact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An IO operation failed (after transient retries, if applicable).
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        message: String,
        /// Whether the failure is transient (`EINTR`/`EAGAIN`-class) and
        /// worth a coarser retry by a supervisor.
        transient: bool,
    },
    /// Damage strictly inside a WAL segment — not the torn tail an honest
    /// crash produces, so recovery refuses to guess past it.
    Corrupt {
        /// The damaged segment file.
        path: PathBuf,
        /// Byte offset of the damage within the file.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
    /// The snapshot file failed its strict self-verification.
    CorruptSnapshot {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong.
        what: &'static str,
    },
    /// A segment's embedded id disagrees with its file name — the file was
    /// renamed or swapped, so its frames cannot be trusted in replay order.
    SegmentIdMismatch {
        /// The segment file.
        path: PathBuf,
        /// The id its file name claims.
        expected: u64,
        /// The id embedded in its header.
        found: u64,
    },
    /// The customer id was already ingested; accepting it again would
    /// double-count the customer's support.
    DuplicateCustomer {
        /// The repeated customer id.
        cid: u64,
    },
    /// The freshly written snapshot failed its pre-publication read-back
    /// verification; the old snapshot and all segments were left untouched.
    SnapshotVerify {
        /// The temp file that failed verification (already removed).
        path: PathBuf,
    },
    /// A previous write failed, leaving the segment tail in an unknown
    /// state; further appends are refused. Reopen the store to recover.
    Poisoned,
    /// A deterministic injected crash. Only ever produced under
    /// `cfg(test)` / the `fault-injection` feature; the variant itself is
    /// unconditional so recovery code matches on it uniformly.
    Injected {
        /// Which staged crash fired.
        fault: IoFault,
    },
}

impl StoreError {
    /// Whether the failure is transient and worth retrying, per
    /// [`crate::guard::is_transient_io_kind`].
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io { transient: true, .. })
    }

    fn io(path: &Path, e: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
            transient: crate::guard::is_transient_io_kind(e.kind()),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "store io error ({class}) at {}: {message}", path.display())
            }
            StoreError::Corrupt { path, offset, what } => {
                write!(f, "corrupt WAL segment {} at byte {offset}: {what}", path.display())
            }
            StoreError::CorruptSnapshot { path, what } => {
                write!(f, "corrupt store snapshot {}: {what}", path.display())
            }
            StoreError::SegmentIdMismatch { path, expected, found } => write!(
                f,
                "segment {} embeds id {found} but its name claims {expected}",
                path.display()
            ),
            StoreError::DuplicateCustomer { cid } => {
                write!(f, "customer id {cid} was already ingested")
            }
            StoreError::SnapshotVerify { path } => write!(
                f,
                "snapshot read-back verification failed at {}; nothing was published",
                path.display()
            ),
            StoreError::Poisoned => write!(
                f,
                "a previous write failed and the segment tail is in an unknown state; \
                 reopen the store to recover"
            ),
            StoreError::Injected { fault } => write!(f, "injected crash: {fault:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

// -------------------------------------------------------------------------
// Configuration.

/// When appends are fsynced — the store's acknowledgement contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: an `Ok` from [`SequenceStore::append`]
    /// means the record is durable. The safest and slowest cadence.
    Always,
    /// fsync after every `n` appends (and on segment seal). A crash loses
    /// at most the unsynced suffix — never a synced record.
    EveryN(u64),
    /// Never fsync on append; only segment seals, [`SequenceStore::sync`],
    /// and compaction flush. Durability rides on the OS cache.
    Never,
}

/// Tuning knobs for a [`SequenceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// The fsync cadence (default: [`SyncPolicy::Always`]).
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one exceeds this size
    /// (default 8 MiB). Rotation bounds both recovery replay-from-tail
    /// work and the granularity of compaction.
    pub segment_max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig { sync: SyncPolicy::Always, segment_max_bytes: 8 << 20 }
    }
}

// -------------------------------------------------------------------------
// Reports.

/// What [`SequenceStore::open`] found and did while recovering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rows restored from the snapshot.
    pub snapshot_rows: usize,
    /// Records replayed out of live WAL segments.
    pub replayed_records: usize,
    /// Live segments replayed.
    pub segments_replayed: usize,
    /// Bytes of torn tail dropped (never containing an acknowledged,
    /// synced record).
    pub truncated_bytes: u64,
    /// Superseded segments deleted (a compaction had published their fold
    /// but crashed before cleaning up).
    pub stale_segments_removed: usize,
    /// Whether a stray snapshot temp file from an interrupted compaction
    /// was removed.
    pub removed_tmp: bool,
    /// Whether a stray flat-file temp from an interrupted publication was
    /// removed.
    pub removed_flat_tmp: bool,
    /// Whether a `store.dscfd` mirror was removed because its fingerprint
    /// disagreed with the snapshot (or there was no snapshot at all) — an
    /// interrupted compaction left it behind.
    pub stale_flat_file_removed: bool,
}

/// What a successful [`SequenceStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// WAL segments folded into the snapshot and deleted.
    pub folded_segments: usize,
    /// Rows in the published snapshot.
    pub rows: usize,
    /// Size of the published snapshot file.
    pub snapshot_bytes: u64,
    /// FNV-1a fingerprint of the folded database — stable across encode /
    /// decode, and the designated key for a future result cache.
    pub fingerprint: u64,
    /// Size of the published `DSCFD1` columnar mirror.
    pub flat_file_bytes: u64,
}

// -------------------------------------------------------------------------
// The store.

struct OpenSegment {
    path: PathBuf,
    file: fs::File,
    bytes: u64,
}

/// The retry schedule of every store IO step.
const RETRY: RetryPolicy = RetryPolicy::io_default();

/// A durable, crash-recoverable sequence store rooted at one directory.
///
/// The directory holds numbered WAL segments (`wal-00000001.dscwl`, …) and
/// at most one snapshot (`store.dscsn`). One `SequenceStore` owns the
/// directory for writing; [`view`](SequenceStore::view) hands out immutable
/// point-in-time databases that stay valid while appends continue.
pub struct SequenceStore {
    dir: PathBuf,
    cfg: StoreConfig,
    db: Arc<SequenceDatabase>,
    cids: HashSet<u64>,
    seg: Option<OpenSegment>,
    next_seg_id: u64,
    first_live_segment: u64,
    appends_since_sync: u64,
    poisoned: bool,
    recovery: RecoveryReport,
    append_n: u64,
    snapshot_n: u64,
    read_n: u64,
    flatfile_n: u64,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<crate::guard::FaultPlan>,
}

impl SequenceStore {
    /// Opens (creating the directory if needed) and recovers a store:
    /// loads the snapshot, deletes superseded segments, replays live
    /// segments in order, and truncates a torn tail at the last valid
    /// frame. Appends after recovery go to a fresh segment — a repaired
    /// tail is never appended to.
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> Result<SequenceStore, StoreError> {
        let mut store = SequenceStore::empty(dir.into(), cfg);
        store.recover()?;
        Ok(store)
    }

    /// [`open`](SequenceStore::open) with a [`FaultPlan`] armed *before*
    /// recovery, so read-path faults (short read, `EINTR`) can target the
    /// recovery scan itself. The plan stays armed for later writes.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn open_with_fault(
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
        plan: crate::guard::FaultPlan,
    ) -> Result<SequenceStore, StoreError> {
        let mut store = SequenceStore::empty(dir.into(), cfg);
        store.fault = Some(plan);
        store.recover()?;
        Ok(store)
    }

    /// Arms a [`FaultPlan`] against this store's numbered writes (appends
    /// count per [`crate::guard::IoWriter::WalAppend`], compactions per
    /// [`crate::guard::IoWriter::StoreSnapshot`]).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn arm_fault(&mut self, plan: crate::guard::FaultPlan) {
        self.fault = Some(plan);
    }

    /// The fault the armed plan stages at write (or read) number `n` of
    /// `writer` — always `None` without the `fault-injection` feature.
    fn fire(&self, writer: IoWriter, n: u64) -> Option<IoFault> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = &self.fault {
            return plan.fire_io(writer, n);
        }
        let _ = (writer, n);
        None
    }

    fn empty(dir: PathBuf, cfg: StoreConfig) -> SequenceStore {
        SequenceStore {
            dir,
            cfg,
            db: Arc::new(SequenceDatabase::new()),
            cids: HashSet::new(),
            seg: None,
            next_seg_id: 1,
            first_live_segment: 1,
            appends_since_sync: 0,
            poisoned: false,
            recovery: RecoveryReport::default(),
            append_n: 0,
            snapshot_n: 0,
            read_n: 0,
            flatfile_n: 0,
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    // -- accessors --------------------------------------------------------

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of ingested customers.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the store holds no customers.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// A consistent point-in-time view for miners. The view is immutable:
    /// appends after this call copy-on-write and never mutate it, so a
    /// long mining run and continued ingestion can share the store.
    pub fn view(&self) -> Arc<SequenceDatabase> {
        Arc::clone(&self.db)
    }

    /// FNV-1a fingerprint of the current contents — identical to the
    /// checkpoint cache key for the same database, and the designated key
    /// for a future result cache.
    pub fn fingerprint(&self) -> u64 {
        crate::checkpoint::database_fingerprint(&self.db)
    }

    /// What recovery found and did when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    // -- recovery ---------------------------------------------------------

    fn recover(&mut self) -> Result<(), StoreError> {
        retry_transient(RETRY, || fs::create_dir_all(&self.dir))
            .map_err(|e| StoreError::io(&self.dir, e))?;

        // A stray temp file is an interrupted compaction; its contents are
        // still fully covered by the old snapshot + segments. Remove it.
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let tmp = tmp_path(&snap_path);
        if tmp.exists() {
            retry_transient(RETRY, || fs::remove_file(&tmp))
                .map_err(|e| StoreError::io(&tmp, e))?;
            self.recovery.removed_tmp = true;
        }

        let mut snapshot_fp = None;
        if snap_path.exists() {
            let bytes = self.read_file(&snap_path)?;
            let snap = decode_store_snapshot(&snap_path, &bytes)?;
            self.first_live_segment = snap.first_live_segment;
            self.recovery.snapshot_rows = snap.db.len();
            self.cids = snap.db.rows().iter().map(|r| r.cid.0).collect();
            snapshot_fp = Some(snap.fingerprint);
            self.db = Arc::new(snap.db);
        }

        // The columnar mirror is derived state: keep it only when its header
        // fingerprint matches the snapshot it claims to mirror. Anything
        // else — a stray temp, a mirror without a snapshot, a fingerprint
        // mismatch from an interrupted compaction — is deleted; the next
        // compaction re-publishes it.
        let flat = self.dir.join(crate::flatfile::FLAT_FILE_NAME);
        let flat_tmp = tmp_path(&flat);
        if flat_tmp.exists() {
            retry_transient(RETRY, || fs::remove_file(&flat_tmp))
                .map_err(|e| StoreError::io(&flat_tmp, e))?;
            self.recovery.removed_flat_tmp = true;
        }
        if flat.exists() {
            let fresh = match snapshot_fp {
                Some(fp) => crate::flatfile::peek_flat_file_fingerprint(&flat) == Ok(fp),
                None => false,
            };
            if !fresh {
                retry_transient(RETRY, || fs::remove_file(&flat))
                    .map_err(|e| StoreError::io(&flat, e))?;
                self.recovery.stale_flat_file_removed = true;
            }
        }

        let segments = list_segments(&self.dir)?;
        let mut live: Vec<(u64, PathBuf)> = Vec::new();
        for (id, path) in segments {
            if id < self.first_live_segment {
                // Superseded by the snapshot: a compaction published its
                // fold but died before cleanup. Replaying it would
                // double-ingest, so delete it.
                retry_transient(RETRY, || fs::remove_file(&path))
                    .map_err(|e| StoreError::io(&path, e))?;
                self.recovery.stale_segments_removed += 1;
            } else {
                live.push((id, path));
            }
        }

        for (i, (id, path)) in live.iter().enumerate() {
            let last = i + 1 == live.len();
            let bytes = self.read_file(path)?;
            match decode_segment_header(&bytes) {
                Ok(hid) if hid == *id => {}
                Ok(hid) => {
                    return Err(StoreError::SegmentIdMismatch {
                        path: path.clone(),
                        expected: *id,
                        found: hid,
                    })
                }
                Err(_) if last => {
                    // The final segment's header never made it to disk
                    // whole — its creation was torn, so no frame in it can
                    // have been acknowledged as synced. Drop the file.
                    retry_transient(RETRY, || fs::remove_file(path))
                        .map_err(|e| StoreError::io(path, e))?;
                    self.recovery.truncated_bytes += bytes.len() as u64;
                    continue;
                }
                Err(_) => {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        offset: 0,
                        what: "bad segment header before the final segment",
                    })
                }
            }
            let (records, keep) = match scan_frames(&bytes[SEGMENT_HEADER_LEN..]) {
                ScanOutcome::Clean { records } => (records, None),
                ScanOutcome::TornTail { records, valid_bytes } if last => {
                    (records, Some(SEGMENT_HEADER_LEN as u64 + valid_bytes))
                }
                ScanOutcome::TornTail { valid_bytes, .. } => {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        offset: SEGMENT_HEADER_LEN as u64 + valid_bytes,
                        what: "torn tail in a non-final segment",
                    })
                }
                ScanOutcome::Corrupt { offset, what, .. } => {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        offset: SEGMENT_HEADER_LEN as u64 + offset,
                        what,
                    })
                }
            };
            if let Some(keep) = keep {
                // Repair: drop the torn tail so the segment scans clean
                // from now on. Acknowledged synced records all precede it.
                self.recovery.truncated_bytes += bytes.len() as u64 - keep;
                let file = retry_transient(RETRY, || fs::OpenOptions::new().write(true).open(path))
                    .map_err(|e| StoreError::io(path, e))?;
                retry_transient(RETRY, || file.set_len(keep))
                    .map_err(|e| StoreError::io(path, e))?;
                retry_transient(RETRY, || file.sync_all()).map_err(|e| StoreError::io(path, e))?;
            }
            let db = Arc::make_mut(&mut self.db);
            for record in records {
                if !self.cids.insert(record.cid.0) {
                    return Err(StoreError::Corrupt {
                        path: path.clone(),
                        offset: SEGMENT_HEADER_LEN as u64,
                        what: "duplicate customer id in replay",
                    });
                }
                db.push(record.cid, record.sequence);
                self.recovery.replayed_records += 1;
            }
            self.recovery.segments_replayed += 1;
        }

        self.next_seg_id =
            live.last().map(|(id, _)| id + 1).unwrap_or(self.first_live_segment).max(1);
        Ok(())
    }

    /// Reads a whole file with an `EINTR`-safe, short-read-safe loop. The
    /// n-th call is the [`crate::guard::IoWriter::StoreRead`] injection
    /// point: a short read only caps one `read(2)`'s count (the loop keeps
    /// going — which is the point), an injected `EINTR` is cleared by the
    /// retry helper.
    fn read_file(&mut self, path: &Path) -> Result<Vec<u8>, StoreError> {
        let fault = self.fire(IoWriter::StoreRead, self.read_n);
        self.read_n += 1;
        let mut short_read = fault == Some(IoFault::ShortRead);
        let mut eintr = fault == Some(IoFault::Interrupted);
        let mut file =
            retry_transient(RETRY, || fs::File::open(path)).map_err(|e| StoreError::io(path, e))?;
        let mut out = Vec::new();
        let mut buf = vec![0u8; 64 << 10];
        loop {
            let n = retry_transient(RETRY, || {
                if eintr {
                    eintr = false;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected EINTR",
                    ));
                }
                let cap = if short_read {
                    short_read = false;
                    1
                } else {
                    buf.len()
                };
                file.read(&mut buf[..cap])
            })
            .map_err(|e| StoreError::io(path, e))?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    // -- appending --------------------------------------------------------

    /// Appends one customer's sequence. On `Ok`, the record is framed in
    /// the WAL (and durable, under [`SyncPolicy::Always`]) and visible to
    /// subsequent [`view`](SequenceStore::view)s. Customer ids must be
    /// unique; a failed append poisons the writer (reopen to recover) and
    /// is **not** acknowledged.
    pub fn append(&mut self, cid: CustomerId, sequence: Sequence) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        if self.cids.contains(&cid.0) {
            return Err(StoreError::DuplicateCustomer { cid: cid.0 });
        }
        let record = WalRecord { cid, sequence };
        let frame = encode_frame(&record);
        self.ensure_segment(frame.len() as u64)?;

        let fault = self.fire(IoWriter::WalAppend, self.append_n);
        self.append_n += 1;
        match fault {
            None => self.write_raw(&frame, false)?,
            Some(IoFault::Interrupted) => self.write_raw(&frame, true)?,
            Some(IoFault::CorruptByte) => {
                // Bit-rot: the frame lands whole with one payload byte
                // flipped and the append is acknowledged. Only the frame
                // CRC can catch this later.
                let mut damaged = frame.clone();
                let flip = damaged.len() - 5; // last payload byte
                damaged[flip] ^= 0x55;
                self.write_raw(&damaged, false)?;
            }
            Some(fault) => {
                if fault == IoFault::TornWrite {
                    // Half the frame reaches the file, then the "process
                    // dies": recovery must drop the tail.
                    let _ = self.write_raw(&frame[..frame.len() / 2], false);
                }
                // ENOSPC fails the write; every other fault dies before it.
                self.poisoned = true;
                let seg_path = &self.seg.as_ref().expect("segment opened").path;
                return Err(match fault.as_io_error() {
                    Some(e) => StoreError::io(seg_path, e),
                    None => StoreError::Injected { fault },
                });
            }
        }
        self.maybe_sync()?;
        self.cids.insert(record.cid.0);
        Arc::make_mut(&mut self.db).push(record.cid, record.sequence);
        Ok(())
    }

    /// Forces an fsync of the current segment, making every acknowledged
    /// append durable regardless of the [`SyncPolicy`].
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(seg) = self.seg.as_mut() {
            if let Err(e) = retry_transient(RETRY, || seg.file.sync_all()) {
                self.poisoned = true;
                return Err(StoreError::io(&seg.path, e));
            }
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    fn maybe_sync(&mut self) -> Result<(), StoreError> {
        match self.cfg.sync {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if n > 0 && self.appends_since_sync >= n {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Writes raw bytes at the current segment tail, retrying transient
    /// failures idempotently (a retry rewinds and truncates back to the
    /// pre-write offset first, so a partial first attempt never leaves
    /// duplicate bytes).
    fn write_raw(&mut self, bytes: &[u8], mut inject_eintr: bool) -> Result<(), StoreError> {
        let seg = self.seg.as_mut().expect("segment opened before write");
        let start = seg.bytes;
        let mut first = true;
        let res = retry_transient(RETRY, || {
            if !first {
                seg.file.seek(SeekFrom::Start(start))?;
                seg.file.set_len(start)?;
            }
            first = false;
            if inject_eintr {
                inject_eintr = false;
                return Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "injected EINTR"));
            }
            seg.file.write_all(bytes)
        });
        match res {
            Ok(()) => {
                seg.bytes += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                let path = seg.path.clone();
                self.poisoned = true;
                Err(StoreError::io(&path, e))
            }
        }
    }

    /// Opens the segment an `incoming`-byte frame should land in, sealing
    /// and rotating the current one if it would overflow the size budget.
    fn ensure_segment(&mut self, incoming: u64) -> Result<(), StoreError> {
        let rotate = self.seg.as_ref().is_some_and(|s| {
            s.bytes > SEGMENT_HEADER_LEN as u64
                && s.bytes + incoming > self.cfg.segment_max_bytes.max(1)
        });
        if rotate {
            self.seal_current()?;
        }
        if self.seg.is_some() {
            return Ok(());
        }
        let id = self.next_seg_id;
        let path = self.dir.join(segment_file_name(id));
        let header = encode_segment_header(id);
        // Create-new: colliding with an existing segment file means the
        // directory is shared or recovery went wrong — refuse to clobber.
        let mut file = retry_transient(RETRY, || {
            fs::OpenOptions::new().write(true).create_new(true).open(&path)
        })
        .map_err(|e| StoreError::io(&path, e))?;
        let mut first = true;
        retry_transient(RETRY, || {
            if !first {
                file.seek(SeekFrom::Start(0))?;
                file.set_len(0)?;
            }
            first = false;
            file.write_all(&header)
        })
        .map_err(|e| StoreError::io(&path, e))?;
        if matches!(self.cfg.sync, SyncPolicy::Always) {
            retry_transient(RETRY, || file.sync_all()).map_err(|e| StoreError::io(&path, e))?;
            durable::sync_parent_dir(&path);
        }
        self.next_seg_id = id + 1;
        self.seg = Some(OpenSegment { path, file, bytes: header.len() as u64 });
        Ok(())
    }

    /// Seals the current segment: fsync (whatever the policy — a sealed
    /// segment is final) and close.
    fn seal_current(&mut self) -> Result<(), StoreError> {
        if let Some(seg) = self.seg.take() {
            retry_transient(RETRY, || seg.file.sync_all()).map_err(|e| {
                self.poisoned = true;
                StoreError::io(&seg.path, e)
            })?;
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Seals the current segment and consumes the store. Call this for a
    /// clean shutdown under [`SyncPolicy::EveryN`] / [`SyncPolicy::Never`];
    /// dropping without it is exactly a crash (recovery handles it).
    pub fn close(mut self) -> Result<(), StoreError> {
        self.seal_current()
    }

    // -- compaction -------------------------------------------------------

    /// Folds the snapshot plus every segment into a new immutable snapshot,
    /// published atomically, then deletes the superseded segments and
    /// publishes the columnar `DSCFD1` mirror (`store.dscfd`, see
    /// [`crate::flatfile`]), so miners can map the acknowledged prefix
    /// zero-copy.
    ///
    /// Both files go through [`durable::publish`] with a read-back
    /// verification: a snapshot that does not decode back to the exact live
    /// database is never published, and the segments it would have replaced
    /// are never deleted. A crash anywhere leaves a store that recovers to
    /// the identical database. The mirror is always exactly as fresh as the
    /// snapshot: recovery deletes one whose fingerprint disagrees.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        self.seal_current()?;
        let first_live = self.next_seg_id;
        // One encoding and one hash feed the snapshot, its read-back check
        // and the mirror's header.
        let db_bytes = crate::codec::encode_database(&self.db);
        let fingerprint = crate::checkpoint::fnv1a(&db_bytes);
        let rows = self.db.len();
        let snap_path = self.dir.join(SNAPSHOT_FILE);

        let fault = self.fire(IoWriter::StoreSnapshot, self.snapshot_n);
        self.snapshot_n += 1;
        let version = match fault {
            Some(IoFault::StaleVersion) => SNAPSHOT_VERSION + 1,
            _ => SNAPSHOT_VERSION,
        };
        let bytes =
            encode_store_snapshot_version(&db_bytes, fingerprint, rows, first_live, version);
        drop(db_bytes);
        let verify = |back: Vec<u8>| {
            decode_store_snapshot(&snap_path, &back).is_ok_and(|s| {
                s.first_live_segment == first_live
                    && s.db.len() == rows
                    && s.fingerprint == fingerprint
            })
        };
        durable::publish(&snap_path, &bytes, Some(&verify), fault).map_err(|e| match e {
            PublishError::Io { path, error } => StoreError::io(&path, error),
            PublishError::Unverified { path } => StoreError::SnapshotVerify { path },
            // After a crash past the rename the snapshot IS published; only
            // cleanup was skipped. Recovery deletes the stale segments.
            PublishError::Crashed { fault, .. } => StoreError::Injected { fault },
        })?;
        self.first_live_segment = first_live;

        let mut folded = 0usize;
        for (id, path) in list_segments(&self.dir)? {
            if id < first_live {
                retry_transient(RETRY, || fs::remove_file(&path))
                    .map_err(|e| StoreError::io(&path, e))?;
                folded += 1;
            }
        }

        // The snapshot is already durable at this point: an error here
        // leaves (at worst) a stale or absent mirror, which recovery and
        // `open_flat_file` callers detect by fingerprint.
        let flat = self.flat_file_path();
        let fault = self.fire(IoWriter::FlatFile, self.flatfile_n);
        self.flatfile_n += 1;
        let encoded = crate::flatfile::encode_flat_file(
            &crate::flatfile::FlatFileContents::with_fingerprint(&self.db, fingerprint),
        );
        let flat_file_bytes =
            crate::flatfile::write_flat_file_faulted(&flat, &encoded, fault).map_err(|e| {
                StoreError::Io { path: flat, message: e.to_string(), transient: e.is_transient() }
            })?;

        Ok(CompactionReport {
            folded_segments: folded,
            rows,
            snapshot_bytes: bytes.len() as u64,
            fingerprint,
            flat_file_bytes,
        })
    }

    /// Where this store's `DSCFD1` columnar mirror lives (the file exists
    /// only after a compaction).
    pub fn flat_file_path(&self) -> PathBuf {
        self.dir.join(crate::flatfile::FLAT_FILE_NAME)
    }
}

/// Lists the WAL segments in a store directory, sorted by id. Foreign
/// files are ignored.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(parse_segment_file_name) {
            segments.push((id, entry.path()));
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

#[cfg(test)]
mod tests;
