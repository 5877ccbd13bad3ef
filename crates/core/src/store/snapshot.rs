//! The legacy snapshot, `store.dscsn`: read-only. Earlier builds kept a
//! store's compacted rows here; nothing writes it now, and recovery and
//! fsck read it until the store's next compaction (see [`super`]).
//! Format, following the DSCCK1 section discipline:
//!
//! ```text
//! magic "DSCSN1\n"
//! varint  format version (1)
//! sections, each: u8 tag | varint payload length | payload | u32le CRC-32
//!   HEADER (1):   u64le FNV-1a database fingerprint
//!                 varint row count
//!                 varint first live segment id (the lowest id NOT folded)
//!   DATABASE (2): the folded database, in the DSCDB1 encoding
//!   END (0xFF):   empty
//! ```
//!
//! Decoding is strict and never returns partial state: bad magic, an
//! unsupported version, a failed CRC, trailing bytes, or a header that
//! disagrees with the database section (fingerprint or row count) all
//! reject the whole file. The decoder hashes the database section's bytes
//! as read: the DSCDB1 decoder accepts only canonical encodings, so bytes
//! it accepts are exactly the re-encoding of the database they decode to,
//! and their hash is that database's fingerprint.

use super::StoreError;
use crate::checkpoint::{crc32, fnv1a};
use crate::codec;
use crate::database::SequenceDatabase;
use std::path::Path;

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8] = b"DSCSN1\n";
/// The snapshot format version this build reads.
pub const SNAPSHOT_VERSION: u64 = 1;
/// File name of the legacy snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "store.dscsn";

const SEC_HEADER: u8 = 1;
const SEC_DATABASE: u8 = 2;
const SEC_END: u8 = 0xFF;

/// A store's compacted rows, decoded and verified: from the data file or
/// from a legacy snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// The folded database.
    pub db: SequenceDatabase,
    /// FNV-1a fingerprint of `db`
    /// ([`crate::checkpoint::database_fingerprint`]), verified on load.
    pub fingerprint: u64,
    /// The lowest WAL segment id *not* folded into this snapshot: recovery
    /// replays segments `>= first_live_segment` and deletes the rest.
    pub first_live_segment: u64,
}

fn corrupt(path: &Path, what: &'static str) -> StoreError {
    StoreError::CorruptSnapshot { path: path.to_path_buf(), what }
}

fn get_section<'a>(
    path: &Path,
    input: &'a [u8],
    pos: &mut usize,
) -> Result<(u8, &'a [u8]), StoreError> {
    let &tag = input.get(*pos).ok_or_else(|| corrupt(path, "ended between sections"))?;
    *pos += 1;
    let len =
        codec::get_varint(input, pos).map_err(|_| corrupt(path, "bad section length"))? as usize;
    let end = pos
        .checked_add(len)
        .filter(|e| e.checked_add(4).is_some_and(|c| c <= input.len()))
        .ok_or_else(|| corrupt(path, "section extends past EOF"))?;
    let payload = &input[*pos..end];
    let crc_stored = u32::from_le_bytes(input[end..end + 4].try_into().expect("4 CRC bytes"));
    if crc32(payload) != crc_stored {
        return Err(corrupt(path, "section CRC mismatch"));
    }
    *pos = end + 4;
    Ok((tag, payload))
}

/// Decodes and fully verifies a snapshot file's bytes. `path` is only used
/// in error values.
pub fn decode_store_snapshot(path: &Path, input: &[u8]) -> Result<StoreSnapshot, StoreError> {
    if input.len() < SNAPSHOT_MAGIC.len() || &input[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "not a DSCSN1 snapshot file"));
    }
    let mut pos = SNAPSHOT_MAGIC.len();
    let version = codec::get_varint(input, &mut pos).map_err(|_| corrupt(path, "bad version"))?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(path, "unsupported snapshot format version"));
    }
    let mut header: Option<&[u8]> = None;
    let mut database: Option<&[u8]> = None;
    loop {
        let (tag, payload) = get_section(path, input, &mut pos)?;
        let slot = match tag {
            SEC_HEADER => &mut header,
            SEC_DATABASE => &mut database,
            SEC_END => {
                if !payload.is_empty() {
                    return Err(corrupt(path, "end marker carries payload"));
                }
                break;
            }
            _ => return Err(corrupt(path, "unknown section tag")),
        };
        if slot.replace(payload).is_some() {
            return Err(corrupt(path, "duplicate section"));
        }
    }
    if pos != input.len() {
        return Err(corrupt(path, "trailing bytes after end marker"));
    }
    let header = header.ok_or_else(|| corrupt(path, "missing header section"))?;
    let database = database.ok_or_else(|| corrupt(path, "missing database section"))?;

    if header.len() < 8 {
        return Err(corrupt(path, "header section too short"));
    }
    let fingerprint = u64::from_le_bytes(header[..8].try_into().expect("8 fingerprint bytes"));
    let mut p = 8usize;
    let rows = codec::get_varint(header, &mut p).map_err(|_| corrupt(path, "bad row count"))?;
    let first_live_segment =
        codec::get_varint(header, &mut p).map_err(|_| corrupt(path, "bad first live segment"))?;
    if p != header.len() {
        return Err(corrupt(path, "trailing bytes in header section"));
    }

    let db = codec::decode_database(database)
        .map_err(|_| corrupt(path, "database section does not decode"))?;
    if db.len() as u64 != rows {
        return Err(corrupt(path, "row count disagrees with database section"));
    }
    // The section decoded, so it is the canonical encoding of `db` and its
    // hash is `database_fingerprint(&db)`.
    if fnv1a(database) != fingerprint {
        return Err(corrupt(path, "fingerprint disagrees with database section"));
    }
    Ok(StoreSnapshot { db, fingerprint, first_live_segment })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::database_fingerprint;

    fn put_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
        out.push(tag);
        codec::put_varint(out, payload.len() as u64);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }

    /// `db` as earlier builds wrote a snapshot folding it.
    fn legacy_snapshot_file(db: &SequenceDatabase, first_live_segment: u64) -> Vec<u8> {
        let db_bytes = codec::encode_database(db);
        let mut header = fnv1a(&db_bytes).to_le_bytes().to_vec();
        codec::put_varint(&mut header, db.len() as u64);
        codec::put_varint(&mut header, first_live_segment);
        let mut out = SNAPSHOT_MAGIC.to_vec();
        codec::put_varint(&mut out, SNAPSHOT_VERSION);
        put_section(&mut out, SEC_HEADER, &header);
        put_section(&mut out, SEC_DATABASE, &db_bytes);
        put_section(&mut out, SEC_END, &[]);
        out
    }

    fn table1() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    #[test]
    fn snapshot_roundtrip() {
        let db = table1();
        let bytes = legacy_snapshot_file(&db, 5);
        let snap = decode_store_snapshot(Path::new("t"), &bytes).unwrap();
        assert_eq!(snap.db, db);
        assert_eq!(snap.first_live_segment, 5);
        assert_eq!(snap.fingerprint, database_fingerprint(&db));
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let db = SequenceDatabase::new();
        let bytes = legacy_snapshot_file(&db, 1);
        let snap = decode_store_snapshot(Path::new("t"), &bytes).unwrap();
        assert!(snap.db.is_empty());
        assert_eq!(snap.first_live_segment, 1);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = legacy_snapshot_file(&table1(), 3);
        for cut in 0..bytes.len() {
            assert!(
                decode_store_snapshot(Path::new("t"), &bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = legacy_snapshot_file(&table1(), 3);
        let original = decode_store_snapshot(Path::new("t"), &bytes).unwrap();
        for i in 0..bytes.len() {
            let mut dam = bytes.clone();
            dam[i] ^= 0x01;
            match decode_store_snapshot(Path::new("t"), &dam) {
                Err(_) => {}
                // A flipped bit inside a varint length can, in principle,
                // re-frame to something valid — but it must then still
                // describe the identical snapshot to pass the CRCs.
                Ok(snap) => assert_eq!(snap, original, "byte {i}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = legacy_snapshot_file(&table1(), 3);
        bytes.push(0);
        assert!(decode_store_snapshot(Path::new("t"), &bytes).is_err());
    }
}
