//! **One durable publish path** for every file the workspace replaces
//! atomically: the mining checkpoint (`core::checkpoint`), the DSCFD1 flat
//! file (`core::flatfile`, standalone or as a store's data file), and the
//! server's `manifest` and per-job `result.tsv`.
//!
//! [`publish`] writes `<path>.tmp`, fsyncs it, optionally reads it back and
//! verifies it, renames it over `<path>`, and fsyncs the parent directory.
//! A crash at any point leaves at `<path>` either the previous complete file
//! or the new one — never a mix — plus at worst a stray `.tmp` that no
//! reader looks at. [`create_dir_all`] makes a directory created for such
//! a file durable too, by fsyncing the directory above it.
//!
//! It is also the one place that stages an injected [`IoFault`] for a
//! publish: the writers only choose *which* fault fires (through a
//! `FaultPlan` keyed by [`IoWriter`]), so every writer fails the same way
//! under the crash matrices.

use crate::guard::{is_transient_io_kind, retry_transient, RetryPolicy};
use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Which durable writer an injected [`IoFault`] targets. One injection
/// surface serves every writer in the workspace instead of each growing a
/// bespoke flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoWriter {
    /// The mining checkpoint snapshot writer (`core::checkpoint`).
    Checkpoint,
    /// A WAL frame append (`core::store::wal`).
    WalAppend,
    /// The publication of a store's data file during compaction
    /// (`core::store`).
    StoreSnapshot,
    /// A store file read during recovery (`core::store`). Targets the n-th
    /// file opened, for short-read and `EINTR` injection.
    StoreRead,
    /// The job server's `manifest` (databases, jobs, id counter).
    Manifest,
    /// A finished job's `result.tsv` in the job server's data directory.
    JobResult,
}

/// A deterministic IO fault to inject at a numbered write (or read) of one
/// [`IoWriter`]. Crash-class faults leave on disk exactly what a real kill
/// at that point would; error-class faults make the targeted syscall fail
/// once with the corresponding `io::Error`, exercising the retry and
/// classification paths. What [`publish`] does with each is documented per
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Crash mid-write: only the first half of the bytes reaches the temp
    /// file, which is never renamed.
    TornWrite,
    /// Crash between fsync (and read-back) and rename: the temp file is
    /// complete but the final path is not updated.
    CrashBeforeRename,
    /// Crash after rename (and the directory fsync), before the writer's
    /// post-publication work (e.g. WAL segment deletion after a compaction).
    CrashAfterRename,
    /// The write "succeeds" but the middle byte flipped — silent corruption.
    /// A read-back verification refuses it; without one it is published
    /// and only the reader's own checks (section CRCs) can catch it.
    CorruptByte,
    /// The file is written whole, in a format version this build rejects.
    /// This is a file format, not an IO event: [`publish`] ignores it, and
    /// a writer targeted by it hands `publish` its own stale encoding.
    StaleVersion,
    /// The write fails with `ENOSPC` — a permanent error the retry helper
    /// must *not* retry.
    Enospc,
    /// The write fails once with `EINTR` — a transient error the retry
    /// helper clears on the next attempt.
    Interrupted,
    /// A read returns fewer bytes than the file holds, as a torn tail would.
    /// A read-path fault: [`publish`] ignores it.
    ShortRead,
}

impl IoFault {
    /// The `io::Error` this fault injects, for error-class faults; `None`
    /// for crash-class faults, which are staged on disk instead.
    pub fn as_io_error(self) -> Option<std::io::Error> {
        match self {
            IoFault::Enospc => {
                Some(std::io::Error::new(std::io::ErrorKind::StorageFull, "injected ENOSPC"))
            }
            IoFault::Interrupted => {
                Some(std::io::Error::new(std::io::ErrorKind::Interrupted, "injected EINTR"))
            }
            _ => None,
        }
    }

    /// Whether the writer "dies" at this fault: everything but the two
    /// error-class faults and the read-side [`IoFault::ShortRead`].
    pub fn is_crash(self) -> bool {
        !matches!(self, IoFault::Enospc | IoFault::Interrupted | IoFault::ShortRead)
    }
}

/// Why [`publish`] did not (completely) publish a file.
#[derive(Debug)]
pub enum PublishError {
    /// An IO step failed, after transient retries.
    Io {
        /// The file the step touched: the temp file, or the final path for
        /// the rename.
        path: PathBuf,
        /// The OS error.
        error: std::io::Error,
    },
    /// The temp file did not read back as the intended bytes, or the
    /// writer's decoder refused them. The temp file was removed; nothing
    /// was published.
    Unverified {
        /// The temp file that failed verification.
        path: PathBuf,
    },
    /// A staged crash-class fault fired: the disk holds what a kill at that
    /// point leaves. Only ever produced for an injected fault.
    Crashed {
        /// The file the crash left behind (temp or final).
        path: PathBuf,
        /// The fault that fired.
        fault: IoFault,
    },
}

impl PublishError {
    /// The file the failed step touched.
    pub fn path(&self) -> &Path {
        match self {
            PublishError::Io { path, .. }
            | PublishError::Unverified { path }
            | PublishError::Crashed { path, .. } => path,
        }
    }

    /// Whether the failure is transient (`EINTR`/`EAGAIN`-class, see
    /// [`is_transient_io_kind`]) and worth a coarser retry by a supervisor.
    pub fn is_transient(&self) -> bool {
        matches!(self, PublishError::Io { error, .. } if is_transient_io_kind(error.kind()))
    }
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::Io { error, .. } => write!(f, "{error}"),
            PublishError::Unverified { .. } => {
                write!(f, "read-back verification failed; nothing was published")
            }
            PublishError::Crashed { fault, .. } => write!(f, "injected crash ({fault:?})"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Where [`publish`] stages the new contents of `path`: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsyncs the directory holding `path`, which is what makes a rename or a
/// file creation itself durable. Best-effort: not every platform or
/// filesystem allows opening a directory for sync, and a failure here never
/// invalidates data already synced.
pub fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

/// Creates `dir` and any missing ancestors, like [`fs::create_dir_all`],
/// and makes each new directory's entry durable by fsyncing its parent
/// ([`sync_parent_dir`]). A file later published inside a new directory is
/// otherwise only as durable as that entry: [`publish`] fsyncs the file's
/// own directory, not the one above it. An existing `dir` costs one `stat`.
pub fn create_dir_all(dir: &Path) -> std::io::Result<()> {
    if dir.as_os_str().is_empty() || dir.is_dir() {
        return Ok(());
    }
    if let Some(parent) = dir.parent() {
        create_dir_all(parent)?;
    }
    match fs::create_dir(dir) {
        Ok(()) => {
            sync_parent_dir(dir);
            Ok(())
        }
        // Lost a race with another creator: the entry exists, and its
        // creator makes it durable.
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
        Err(e) => Err(e),
    }
}

/// Atomically replaces the file at `path` with `bytes`:
///
/// 1. create, write and fsync `<path>.tmp`, retried as one unit under
///    [`RetryPolicy::io_default`] (`File::create` truncates, so a retry
///    never appends after a partial first attempt);
/// 2. when `verify` is given, read the temp file back once: it must equal
///    `bytes` and `verify` (the writer's own decoder) must accept it, or
///    the temp file is removed and nothing is published;
/// 3. rename it over `path`, under the same retry policy;
/// 4. fsync the parent directory ([`sync_parent_dir`]).
///
/// On any error, `path` holds the previous complete file (or nothing, if
/// there was none) — except after [`IoFault::CrashAfterRename`], which
/// fires once the new file is durable. `fault` is `None` outside the crash
/// matrices; see [`IoFault`] for what each fault stages.
pub fn publish(
    path: &Path,
    bytes: &[u8],
    verify: Option<&dyn Fn(Vec<u8>) -> bool>,
    fault: Option<IoFault>,
) -> Result<(), PublishError> {
    let policy = RetryPolicy::io_default();
    let tmp = tmp_path(path);
    let mut written = Cow::Borrowed(bytes);
    match fault {
        Some(IoFault::TornWrite) => {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(PublishError::Crashed { path: tmp, fault: IoFault::TornWrite });
        }
        Some(IoFault::CorruptByte) if !bytes.is_empty() => {
            written.to_mut()[bytes.len() / 2] ^= 0x55;
        }
        _ => {}
    }

    let mut injected = fault.and_then(IoFault::as_io_error);
    retry_transient(policy, || {
        if let Some(error) = injected.take() {
            return Err(error);
        }
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&written)?;
        file.sync_all()
    })
    .map_err(|error| PublishError::Io { path: tmp.clone(), error })?;

    if let Some(verify) = verify {
        let back = retry_transient(policy, || fs::read(&tmp))
            .map_err(|error| PublishError::Io { path: tmp.clone(), error })?;
        if back != bytes || !verify(back) {
            let _ = fs::remove_file(&tmp);
            return Err(PublishError::Unverified { path: tmp });
        }
    }

    if fault == Some(IoFault::CrashBeforeRename) {
        return Err(PublishError::Crashed { path: tmp, fault: IoFault::CrashBeforeRename });
    }
    retry_transient(policy, || fs::rename(&tmp, path))
        .map_err(|error| PublishError::Io { path: path.to_path_buf(), error })?;
    sync_parent_dir(path);
    if fault == Some(IoFault::CrashAfterRename) {
        return Err(PublishError::Crashed {
            path: path.to_path_buf(),
            fault: IoFault::CrashAfterRename,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disc-durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn publish_is_atomic_under_injected_faults() {
        let dir = tmp_dir("faults");
        let path = dir.join("file");
        let old = b"the previous complete file".to_vec();
        let new = b"the new file, longer than the previous one".to_vec();
        let faults = [
            IoFault::TornWrite,
            IoFault::CrashBeforeRename,
            IoFault::CrashAfterRename,
            IoFault::CorruptByte,
            IoFault::Enospc,
            IoFault::Interrupted,
        ];
        // The decoder accepts anything: the read-back's byte comparison
        // alone must catch the flipped byte.
        let accept: &dyn Fn(Vec<u8>) -> bool = &|_| true;
        for verify in [None, Some(accept)] {
            for fault in faults {
                for previous in [None, Some(&old)] {
                    let label = format!("{fault:?} verified={} {previous:?}", verify.is_some());
                    let _ = fs::remove_file(&path);
                    if let Some(previous) = previous {
                        publish(&path, previous, None, None).unwrap();
                    }
                    let res = publish(&path, &new, verify, Some(fault));

                    // The final path holds the previous complete file or
                    // the new one; a corrupt copy lands only when nothing
                    // read it back.
                    let now = fs::read(&path).ok();
                    match fault {
                        IoFault::Interrupted => {
                            res.unwrap_or_else(|e| panic!("{label}: EINTR is retried: {e}"));
                            assert_eq!(now.as_ref(), Some(&new), "{label}");
                        }
                        IoFault::CrashAfterRename => {
                            assert!(matches!(res, Err(PublishError::Crashed { .. })), "{label}");
                            assert_eq!(now.as_ref(), Some(&new), "{label}");
                        }
                        IoFault::CorruptByte if verify.is_none() => {
                            res.unwrap_or_else(|e| panic!("{label}: silent corruption: {e}"));
                            let now = now.expect("published");
                            let flipped = now.iter().zip(&new).filter(|(a, b)| a != b).count();
                            assert_eq!((now.len(), flipped), (new.len(), 1), "{label}");
                        }
                        IoFault::CorruptByte => {
                            assert!(matches!(res, Err(PublishError::Unverified { .. })), "{label}");
                            assert_eq!(now.as_ref(), previous, "{label}");
                            assert!(!tmp_path(&path).exists(), "{label}: refused temp removed");
                        }
                        _ => {
                            assert!(res.is_err(), "{label}: the staged fault must surface");
                            assert_eq!(now.as_ref(), previous, "{label}");
                        }
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_dir_all_creates_missing_ancestors_and_accepts_existing_ones() {
        let dir = tmp_dir("mkdir");
        let nested = dir.join("jobs").join("7");
        create_dir_all(&nested).unwrap();
        assert!(nested.is_dir());
        create_dir_all(&nested).unwrap();
        fs::write(dir.join("file"), b"x").unwrap();
        assert!(create_dir_all(&dir.join("file")).is_err(), "a file is not a directory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_permanent_and_eintr_transient() {
        let dir = tmp_dir("classify");
        let path = dir.join("file");
        let err = publish(&path, b"bytes", None, Some(IoFault::Enospc)).unwrap_err();
        assert!(matches!(&err, PublishError::Io { error, .. }
            if error.kind() == std::io::ErrorKind::StorageFull));
        assert!(!err.is_transient(), "ENOSPC must not be retried");
        assert!(!tmp_path(&path).exists(), "ENOSPC fails before anything is written");
        publish(&path, b"bytes", None, Some(IoFault::Interrupted)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"bytes");
        let _ = fs::remove_dir_all(&dir);
    }
}
