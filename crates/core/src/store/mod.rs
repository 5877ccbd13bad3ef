//! The durable ingest store: a crash-safe write-ahead log for sequence
//! arrivals, folded by compaction into **one data file**, `store.dscfd` — a
//! `DSCFD1` flat file ([`crate::flatfile`]) whose customer ids and store
//! slot make it the snapshot, and whose columns miners map zero-copy.
//!
//! * [`SequenceStore::append`] frames each record (length prefix + CRC-32,
//!   the [`wal`] format) into numbered segment files, fsyncing on the
//!   configured [`SyncPolicy`] and rotating segments at a size threshold;
//! * [`SequenceStore::compact`] folds the data file plus every sealed
//!   segment into a new data file, published by [`crate::durable::publish`]
//!   (temp → fsync → read-back verify → rename), and only then deletes the
//!   superseded segments;
//! * [`SequenceStore::open`] recovers: it loads the data file, deletes
//!   segments it supersedes, replays the live segments, and truncates a
//!   torn tail at the last valid frame — so **every append acknowledged
//!   under [`SyncPolicy::Always`] survives a crash**, and no unacknowledged
//!   append is ever resurrected;
//! * [`SequenceStore::view`] publishes a consistent point-in-time
//!   [`SequenceDatabase`] to miners (copy-on-write: appends never mutate a
//!   view already handed out);
//! * [`open_fresh`] maps the data file for mining, read-only, refusing it
//!   while a live segment holds a record it lacks;
//! * [`fsck::fsck`] audits a store directory read-only and reports exactly
//!   what recovery would do.
//!
//! A store an earlier build wrote keeps its rows in `store.dscsn` (read
//! by the [`snapshot`] decoder) until its next compaction deletes it.
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
use crate::error::DiscError;
use crate::flat::SeqView;
use crate::flatfile::{self, FlatFileContents, FLAT_FILE_NAME};
use crate::guard::{retry_transient, RetryPolicy};
use crate::itemset::Itemset;
use crate::sequence::Sequence;
use fsck::SegmentStatus;
use snapshot::{decode_store_snapshot, StoreSnapshot, SNAPSHOT_FILE};
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{
    decode_segment_header, encode_frame, encode_segment_header, parse_segment_file_name,
    segment_file_name, WalRecord, SEGMENT_HEADER_LEN,
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
    /// The data file (or a legacy `store.dscsn` snapshot) failed its
    /// strict verification.
    CorruptSnapshot {
        /// The file.
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
    /// The freshly written data file failed its pre-publication read-back
    /// verification; the old one and all segments were left untouched.
    SnapshotVerify {
        /// The temp file that failed verification (already removed).
        path: PathBuf,
    },
    /// [`open_fresh`] refused: live WAL segments hold records the data file
    /// lacks.
    Stale {
        /// The store directory.
        dir: PathBuf,
        /// Valid frames in the live segments.
        live_records: u64,
    },
    /// [`open_fresh`] refused: an earlier build wrote the store, whose rows
    /// stay in `store.dscsn` until its next compaction.
    LegacySnapshot {
        /// The legacy snapshot.
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

    /// A data-file load failure: a refused file is corrupt, anything else
    /// is IO.
    fn flat(e: DiscError) -> StoreError {
        match e {
            DiscError::FlatFile { path, what } => StoreError::CorruptSnapshot { path, what },
            DiscError::Io { path, message, transient } => {
                StoreError::Io { path, message, transient }
            }
            e => unreachable!("a flat-file load fails only as FlatFile or Io: {e}"),
        }
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
                write!(f, "corrupt store data file {}: {what}", path.display())
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
                "data file read-back verification failed at {}; nothing was published",
                path.display()
            ),
            StoreError::Stale { dir, live_records } => {
                let dir = dir.display();
                write!(f, "{live_records} acknowledged records in {dir} are not in its data file")
            }
            StoreError::LegacySnapshot { path } => {
                write!(f, "{} was written by an earlier build", path.display())
            }
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
    /// Rows restored from the data file (or a legacy snapshot).
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
    /// Whether a stray temp file from an interrupted compaction was
    /// removed.
    pub removed_tmp: bool,
}

/// What a successful [`SequenceStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// WAL segments folded into the data file and deleted.
    pub folded_segments: usize,
    /// Rows in the published data file.
    pub rows: usize,
    /// Size of the published data file.
    pub snapshot_bytes: u64,
    /// FNV-1a fingerprint of the folded database — stable across encode /
    /// decode, and the designated key for a future result cache.
    pub fingerprint: u64,
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
/// at most one data file (`store.dscfd`). One `SequenceStore` owns the
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
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<crate::guard::FaultPlan>,
}

impl SequenceStore {
    /// Opens (creating the directory if needed) and recovers a store:
    /// loads the data file, deletes superseded segments, replays live
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
        // still fully covered by the old data file + segments. Remove it (a
        // legacy store may leave one of its snapshot).
        for name in [FLAT_FILE_NAME, SNAPSHOT_FILE] {
            let tmp = tmp_path(&self.dir.join(name));
            if tmp.exists() {
                remove(&tmp)?;
                self.recovery.removed_tmp = true;
            }
        }

        let dir = self.dir.clone();
        if let Some((snap, legacy)) = load_base(&dir, &mut |path| self.read_file(path))? {
            let superseded = dir.join(SNAPSHOT_FILE);
            if !legacy && superseded.exists() {
                // A compaction published the data file, then died before
                // deleting the legacy snapshot it replaces.
                remove(&superseded)?;
            }
            self.first_live_segment = snap.first_live_segment;
            self.recovery.snapshot_rows = snap.db.len();
            self.cids = snap.db.rows().iter().map(|r| r.cid.0).collect();
            self.db = Arc::new(snap.db);
        }

        let segments = list_segments(&self.dir)?;
        let mut live: Vec<(u64, PathBuf)> = Vec::new();
        for (id, path) in segments {
            if id < self.first_live_segment {
                // Superseded by the data file: a compaction published its
                // fold but died before cleanup. Replaying it would
                // double-ingest, so delete it.
                remove(&path)?;
                self.recovery.stale_segments_removed += 1;
            } else {
                live.push((id, path));
            }
        }

        for (i, (id, path)) in live.iter().enumerate() {
            let last = i + 1 == live.len();
            let bytes = self.read_file(path)?;
            match decode_segment_header(&bytes) {
                Ok(found) if found != *id => {
                    let path = path.clone();
                    return Err(StoreError::SegmentIdMismatch { path, expected: *id, found });
                }
                _ => {}
            }
            let corrupt = |offset, what| StoreError::Corrupt { path: path.clone(), offset, what };
            let (status, records) = fsck::classify(*id, &bytes, &mut self.cids);
            match status {
                SegmentStatus::Clean { .. } => {}
                SegmentStatus::BadHeader if last => {
                    // The final segment's header never made it to disk
                    // whole — its creation was torn, so no frame in it can
                    // have been acknowledged as synced. Drop the file.
                    remove(path)?;
                    self.recovery.truncated_bytes += bytes.len() as u64;
                    continue;
                }
                SegmentStatus::TornTail { lost_bytes, .. } if last => {
                    // Repair: drop the torn tail so the segment scans clean
                    // from now on. Acknowledged synced records all precede it.
                    self.recovery.truncated_bytes += lost_bytes;
                    let keep = bytes.len() as u64 - lost_bytes;
                    let file =
                        retry_transient(RETRY, || fs::OpenOptions::new().write(true).open(path))
                            .map_err(|e| StoreError::io(path, e))?;
                    retry_transient(RETRY, || file.set_len(keep))
                        .map_err(|e| StoreError::io(path, e))?;
                    retry_transient(RETRY, || file.sync_all())
                        .map_err(|e| StoreError::io(path, e))?;
                }
                SegmentStatus::BadHeader => {
                    return Err(corrupt(0, "bad segment header before the final segment"))
                }
                SegmentStatus::TornTail { lost_bytes, .. } => {
                    let offset = bytes.len() as u64 - lost_bytes;
                    return Err(corrupt(offset, "torn tail in a non-final segment"));
                }
                SegmentStatus::Corrupt { offset, what } => return Err(corrupt(offset, what)),
                SegmentStatus::Stale => unreachable!("classify never calls a segment stale"),
            }
            self.recovery.replayed_records += records.len();
            let db = Arc::make_mut(&mut self.db);
            for record in records {
                db.push(record.cid, record.sequence);
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

    /// Folds the data file plus every segment into a new data file,
    /// published atomically, then deletes what it supersedes: a legacy
    /// `store.dscsn`, then the folded segments.
    ///
    /// The file goes through [`durable::publish`] with a [`Verify::Full`](crate::flatfile::Verify::Full)
    /// read-back: a file that does not decode is never published, and the
    /// segments it would have replaced are never deleted. A crash anywhere
    /// leaves a store that recovers to the identical database.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        self.seal_current()?;
        let first_live = self.next_seg_id;
        let (bytes, fingerprint) = flatfile::encode_flat_file(&self.db, first_live);
        let path = self.flat_file_path();

        let fault = self.fire(IoWriter::StoreSnapshot, self.snapshot_n);
        self.snapshot_n += 1;
        flatfile::write_flat_file_faulted(&path, &bytes, fault).map_err(|e| match e {
            PublishError::Io { path, error } => StoreError::io(&path, error),
            PublishError::Unverified { path } => StoreError::SnapshotVerify { path },
            // After a crash past the rename the data file IS published; only
            // cleanup was skipped. Recovery deletes what it supersedes.
            PublishError::Crashed { fault, .. } => StoreError::Injected { fault },
        })?;
        self.first_live_segment = first_live;

        let legacy = self.dir.join(SNAPSHOT_FILE);
        if legacy.exists() {
            remove(&legacy)?;
        }
        let mut folded = 0usize;
        for (id, path) in list_segments(&self.dir)? {
            if id < first_live {
                remove(&path)?;
                folded += 1;
            }
        }

        Ok(CompactionReport {
            folded_segments: folded,
            rows: self.db.len(),
            snapshot_bytes: bytes.len() as u64,
            fingerprint,
        })
    }

    /// Where this store's data file lives (the file exists only after a
    /// compaction).
    pub fn flat_file_path(&self) -> PathBuf {
        self.dir.join(FLAT_FILE_NAME)
    }
}

/// The one loader of a store's compacted rows, for recovery and fsck: the
/// data file, else an earlier build's `store.dscsn` (the bool). `read`
/// reads a whole file; `None` when the store was never compacted.
fn load_base(
    dir: &Path,
    read: &mut dyn FnMut(&Path) -> Result<Vec<u8>, StoreError>,
) -> Result<Option<(StoreSnapshot, bool)>, StoreError> {
    let data = dir.join(FLAT_FILE_NAME);
    let legacy = dir.join(SNAPSHOT_FILE);
    let current = if data.exists() { Some(decode_data_file(&data, read(&data)?)) } else { None };
    match current {
        Some(Ok(snap)) => Ok(Some((snap, false))),
        _ if legacy.exists() => Ok(Some((decode_store_snapshot(&legacy, &read(&legacy)?)?, true))),
        Some(Err(e)) => Err(e),
        None => Ok(None),
    }
}

/// Decodes a data file and rebuilds its nested rows in original item ids.
/// The header fingerprint must be the fingerprint of those rows, customer
/// ids included.
fn decode_data_file(path: &Path, bytes: Vec<u8>) -> Result<StoreSnapshot, StoreError> {
    let (loaded, slots) = flatfile::load_store_file(path, Some(bytes)).map_err(StoreError::flat)?;
    let original = |&i| loaded.mapping.to_original(i).expect("Full bounds items by the dictionary");
    let db = SequenceDatabase::from_rows(loaded.flat.rows().enumerate().map(|(r, row)| {
        let sets = (0..row.n_transactions())
            .map(|t| Itemset::from_sorted(row.itemset_items(t).iter().map(original).collect()));
        (CustomerId(slots.cid(r)), Sequence::new(sets))
    }));
    if crate::checkpoint::database_fingerprint(&db) != loaded.fingerprint {
        let what = "fingerprint disagrees with the rows";
        return Err(StoreError::CorruptSnapshot { path: path.into(), what });
    }
    let (fingerprint, first_live_segment) = (loaded.fingerprint, slots.first_live_segment);
    Ok(StoreSnapshot { db, fingerprint, first_live_segment })
}

/// Maps the data file of the store at `dir` for mining, fully verified,
/// only while no live WAL segment holds a valid frame ([`StoreError::Stale`]
/// counts them). Unlike [`SequenceStore::open`] it writes nothing, so it
/// may run against a directory another process is appending to.
pub fn open_fresh(dir: &Path) -> Result<FlatFileContents, StoreError> {
    let path = dir.join(FLAT_FILE_NAME);
    let legacy = dir.join(SNAPSHOT_FILE);
    let (loaded, slots) = flatfile::load_store_file(&path, None).map_err(|e| match e {
        _ if legacy.exists() => StoreError::LegacySnapshot { path: legacy },
        e => StoreError::flat(e),
    })?;
    let (mut live_records, mut cids) = (0, HashSet::new());
    for (id, seg) in list_segments(dir)? {
        if id < slots.first_live_segment {
            continue;
        }
        let bytes = fs::read(&seg).map_err(|e| StoreError::io(&seg, e))?;
        live_records += match fsck::classify(id, &bytes, &mut cids) {
            (SegmentStatus::Corrupt { offset, what }, _) => {
                return Err(StoreError::Corrupt { path: seg, offset, what })
            }
            (_, records) => records.len() as u64,
        };
    }
    if live_records > 0 {
        return Err(StoreError::Stale { dir: dir.to_path_buf(), live_records });
    }
    Ok(loaded)
}

/// Deletes a file, retrying transient failures.
fn remove(path: &Path) -> Result<(), StoreError> {
    retry_transient(RETRY, || fs::remove_file(path)).map_err(|e| StoreError::io(path, e))
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
