//! Error types for parsing sequences and databases, plus the workspace-wide
//! [`DiscError`] umbrella that IO- and input-facing code returns instead of
//! panicking.

use crate::checkpoint::CheckpointError;
use crate::codec::CodecError;
use crate::store::StoreError;
use std::fmt;
use std::path::PathBuf;

/// An error produced while parsing a sequence or database from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An unexpected character at the given byte offset.
    UnexpectedChar {
        /// Byte offset in the input.
        offset: usize,
        /// The offending character.
        found: char,
    },
    /// Input ended inside a transaction.
    UnexpectedEnd,
    /// A transaction was empty (`()`).
    EmptyItemset {
        /// Byte offset of the closing parenthesis.
        offset: usize,
    },
    /// A numeric item id overflowed `u32`.
    ItemOverflow {
        /// Byte offset where the number starts.
        offset: usize,
    },
    /// A database line was malformed (missing `cid:` prefix or bad id).
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A customer id appeared on more than one database line. Silently
    /// keeping both rows would double-count the customer's support.
    DuplicateCustomer {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The repeated customer id.
        cid: u64,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { offset, found } => {
                write!(f, "unexpected character {found:?} at byte {offset}")
            }
            ParseError::UnexpectedEnd => write!(f, "input ended inside a transaction"),
            ParseError::EmptyItemset { offset } => {
                write!(f, "empty transaction at byte {offset}")
            }
            ParseError::ItemOverflow { offset } => {
                write!(f, "item id at byte {offset} does not fit in u32")
            }
            ParseError::BadLine { line, reason } => {
                write!(f, "bad database line {line}: {reason}")
            }
            ParseError::DuplicateCustomer { line, cid } => {
                write!(f, "line {line}: customer id {cid} appeared earlier in the input")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The workspace-wide error type: everything that can go wrong between a
/// user's input (text, binary files, environment configuration, checkpoint
/// state) and a mining run. Code reachable from user input or file IO
/// returns this instead of panicking, so corrupt inputs fail with a
/// diagnostic rather than a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscError {
    /// Text input failed to parse.
    Parse(ParseError),
    /// A binary database failed to decode.
    Codec(CodecError),
    /// A checkpoint failed to write, load, or validate.
    Checkpoint(CheckpointError),
    /// The durable ingest store failed to append, recover, or compact.
    Store(StoreError),
    /// An IO operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The OS error, stringified.
        message: String,
        /// Whether the failure is transient (`EINTR`/`EAGAIN`-class) and
        /// worth retrying, per [`crate::guard::is_transient_io_kind`].
        transient: bool,
    },
    /// A configuration value (CLI flag, environment variable) was invalid.
    Config {
        /// The option's name, e.g. `DISC_BENCH_DEADLINE_SECS`.
        option: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// A DSCFD1 flat file failed structural or CRC verification — it is
    /// refused whole; no partially-mapped database is ever returned.
    FlatFile {
        /// The flat file involved.
        path: PathBuf,
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for DiscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscError::Parse(e) => write!(f, "{e}"),
            DiscError::Codec(e) => write!(f, "{e}"),
            DiscError::Checkpoint(e) => write!(f, "{e}"),
            DiscError::Store(e) => write!(f, "{e}"),
            DiscError::Io { path, message, .. } => {
                write!(f, "io error at {}: {message}", path.display())
            }
            DiscError::Config { option, reason } => write!(f, "invalid {option}: {reason}"),
            DiscError::FlatFile { path, what } => {
                write!(f, "corrupt flat file {}: {what}", path.display())
            }
        }
    }
}

impl DiscError {
    /// Whether the failure is transient — an `EINTR`/`EAGAIN`-class IO
    /// error that a supervisor can reasonably retry — as opposed to a
    /// permanent one (corrupt input, bad configuration, `ENOSPC`).
    ///
    /// `disc-mine` maps this to its exit code (75, `EX_TEMPFAIL`, for
    /// transient; 1 for permanent) so restart policies can tell the two
    /// apart without parsing stderr.
    pub fn is_transient(&self) -> bool {
        match self {
            DiscError::Io { transient, .. } => *transient,
            DiscError::Store(e) => e.is_transient(),
            DiscError::Checkpoint(CheckpointError::Io { transient, .. }) => *transient,
            _ => false,
        }
    }

    /// Builds [`DiscError::Io`] from an `io::Error`, classifying transience.
    pub fn from_io(path: impl Into<PathBuf>, e: &std::io::Error) -> DiscError {
        DiscError::Io {
            path: path.into(),
            message: e.to_string(),
            transient: crate::guard::is_transient_io_kind(e.kind()),
        }
    }
}

impl std::error::Error for DiscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiscError::Parse(e) => Some(e),
            DiscError::Codec(e) => Some(e),
            DiscError::Checkpoint(e) => Some(e),
            DiscError::Store(e) => Some(e),
            DiscError::Io { .. } | DiscError::Config { .. } | DiscError::FlatFile { .. } => None,
        }
    }
}

impl From<ParseError> for DiscError {
    fn from(e: ParseError) -> DiscError {
        DiscError::Parse(e)
    }
}

impl From<CodecError> for DiscError {
    fn from(e: CodecError) -> DiscError {
        DiscError::Codec(e)
    }
}

impl From<CheckpointError> for DiscError {
    fn from(e: CheckpointError) -> DiscError {
        DiscError::Checkpoint(e)
    }
}

impl From<StoreError> for DiscError {
    fn from(e: StoreError) -> DiscError {
        DiscError::Store(e)
    }
}
