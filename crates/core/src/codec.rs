//! A compact binary codec for sequence databases.
//!
//! Workload generation dominates harness start-up for the larger sweeps, so
//! generated databases are cached on disk. The format is simple and stable:
//!
//! ```text
//! magic "DSCDB1\n"
//! varint  customer count
//! per customer:
//!   varint cid
//!   varint transaction count
//!   per transaction:
//!     varint item count
//!     varint first item, then varint gaps between consecutive sorted items
//! ```
//!
//! LEB128 varints plus delta-encoded items keep typical Quest workloads
//! around 2 bytes per item occurrence.
//!
//! Decoders reject non-canonical varints: an overlong encoding (a final
//! byte of zero after the first byte) and a tenth byte carrying more than
//! the one bit left of a `u64`. Every value therefore has exactly one
//! accepted encoding, and so does every database: whatever
//! [`decode_database`] accepts, [`encode_database`] turns back into the
//! same bytes. A store snapshot relies on this to check its recorded
//! fingerprint against the database bytes it has already CRC-checked.

use crate::database::{CustomerId, SequenceDatabase};
use crate::item::Item;
use crate::itemset::Itemset;
use crate::sequence::Sequence;
use std::collections::HashSet;
use std::fmt;

const MAGIC: &[u8] = b"DSCDB1\n";

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input does not start with the format magic.
    BadMagic,
    /// The input ended inside a value.
    Truncated,
    /// A varint exceeded 64 bits.
    Overflow,
    /// A varint was encoded in more bytes than its value needs.
    Overlong,
    /// Two customers carried the same id — the file is not a database.
    DuplicateCustomer(u64),
    /// A structural invariant was violated (empty transaction, item overflow).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a DSCDB1 file"),
            CodecError::Truncated => write!(f, "input ended inside a value"),
            CodecError::Overflow => write!(f, "varint overflow"),
            CodecError::Overlong => write!(f, "overlong varint"),
            CodecError::DuplicateCustomer(cid) => {
                write!(f, "customer id {cid} appears more than once")
            }
            CodecError::Invalid(what) => write!(f, "invalid structure: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint written by [`put_varint`], accepting only the
/// canonical encoding: the shortest one, with no bits beyond 64.
pub(crate) fn get_varint(input: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = input.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Overflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return if byte == 0 && shift > 0 { Err(CodecError::Overlong) } else { Ok(v) };
        }
        shift += 7;
    }
}

/// Appends one sequence: transaction count, then per transaction an item
/// count and delta-encoded sorted items. Shared by the database codec and
/// the checkpoint pattern log.
pub(crate) fn put_sequence(out: &mut Vec<u8>, seq: &Sequence) {
    put_varint(out, seq.n_transactions() as u64);
    for set in seq.itemsets() {
        put_varint(out, set.len() as u64);
        let mut prev = 0u64;
        for (i, item) in set.iter().enumerate() {
            let v = u64::from(item.id());
            if i == 0 {
                put_varint(out, v);
            } else {
                put_varint(out, v - prev);
            }
            prev = v;
        }
    }
}

fn remaining(input: &[u8], pos: usize) -> u64 {
    input.len().saturating_sub(pos) as u64
}

/// Reads one sequence written by [`put_sequence`], validating every
/// structural invariant (non-empty transactions, strictly ascending items
/// within a transaction, ids within `u32`).
pub(crate) fn get_sequence(input: &[u8], pos: &mut usize) -> Result<Sequence, CodecError> {
    let n_txns = get_varint(input, pos)?;
    // Every transaction and item takes at least one byte: a corrupt count
    // cannot reserve more than the input could hold.
    let mut itemsets = Vec::with_capacity(n_txns.min(remaining(input, *pos)) as usize);
    for _ in 0..n_txns {
        let n_items = get_varint(input, pos)?;
        if n_items == 0 {
            return Err(CodecError::Invalid("empty transaction"));
        }
        let mut items = Vec::with_capacity(n_items.min(remaining(input, *pos)) as usize);
        let mut prev = 0u64;
        for i in 0..n_items {
            let delta = get_varint(input, pos)?;
            let v = if i == 0 { delta } else { prev.saturating_add(delta) };
            if v > u64::from(u32::MAX) || (i > 0 && delta == 0) {
                return Err(CodecError::Invalid("item id out of range or duplicate"));
            }
            items.push(Item(v as u32));
            prev = v;
        }
        itemsets.push(Itemset::from_sorted(items));
    }
    Ok(Sequence::new(itemsets))
}

/// Encodes a database to the binary format.
pub fn encode_database(db: &SequenceDatabase) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + db.len() * 16);
    encode_database_chunks(db, |chunk| out.extend_from_slice(chunk));
    out
}

/// Streams [`encode_database`]'s bytes to `emit` a row at a time through
/// one reused buffer, for readers of the encoding that need not hold it
/// (the database fingerprint).
pub(crate) fn encode_database_chunks(db: &SequenceDatabase, mut emit: impl FnMut(&[u8])) {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    put_varint(&mut buf, db.len() as u64);
    for row in db.rows() {
        emit(&buf);
        buf.clear();
        put_varint(&mut buf, row.cid.0);
        put_sequence(&mut buf, &row.sequence);
    }
    emit(&buf);
}

/// Decodes a database from the binary format. Strict: a file carrying the
/// same customer id twice, trailing bytes, or any malformed value is
/// rejected with a typed error.
pub fn decode_database(input: &[u8]) -> Result<SequenceDatabase, CodecError> {
    if input.len() < MAGIC.len() || &input[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let n_rows = get_varint(input, &mut pos)?;
    let mut db = SequenceDatabase::new();
    let mut seen = HashSet::with_capacity(n_rows.min(1 << 20) as usize);
    for _ in 0..n_rows {
        let cid = get_varint(input, &mut pos)?;
        if !seen.insert(cid) {
            return Err(CodecError::DuplicateCustomer(cid));
        }
        let sequence = get_sequence(input, &mut pos)?;
        db.push(CustomerId(cid), sequence);
    }
    if pos != input.len() {
        return Err(CodecError::Invalid("trailing bytes"));
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn roundtrip() {
        let db = table1();
        let bytes = encode_database(&db);
        let back = decode_database(&bytes).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn empty_database_roundtrip() {
        let db = SequenceDatabase::new();
        let back = decode_database(&encode_database(&db)).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn large_item_ids_roundtrip() {
        let db = SequenceDatabase::from_parsed(&["(0, 300, 70000)(4294967295)"]).unwrap();
        let back = decode_database(&encode_database(&db)).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn compactness() {
        // Delta-encoded small alphabets should stay under ~2.5 bytes/item.
        let db = table1();
        let total_items: usize = db.sequences().map(|s| s.length()).sum();
        let bytes = encode_database(&db);
        assert!(
            bytes.len() <= MAGIC.len() + 1 + total_items * 2 + db.len() * 4,
            "{} bytes for {} items",
            bytes.len(),
            total_items
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode_database(b"nope"), Err(CodecError::BadMagic));
        let mut bytes = encode_database(&table1());
        bytes.truncate(bytes.len() - 1);
        assert_eq!(decode_database(&bytes), Err(CodecError::Truncated));
        let mut extra = encode_database(&table1());
        extra.push(0);
        assert_eq!(decode_database(&extra), Err(CodecError::Invalid("trailing bytes")));
    }

    #[test]
    fn rejects_an_item_gap_past_u64() {
        // "(5, 5 + gap)" with a gap that would wrap back below 5.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        for v in [1, 1, 1, 2, 5, u64::MAX - 1] {
            put_varint(&mut bytes, v);
        }
        assert_eq!(
            decode_database(&bytes),
            Err(CodecError::Invalid("item id out of range or duplicate"))
        );
    }

    #[test]
    fn rejects_duplicate_customer_ids() {
        // Hand-build a file with cid 7 twice: a single-item sequence "(a)"
        // encodes as n_txns=1, n_items=1, item=0.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_varint(&mut bytes, 2); // two customers
        for _ in 0..2 {
            put_varint(&mut bytes, 7); // the same cid
            put_varint(&mut bytes, 1);
            put_varint(&mut bytes, 1);
            put_varint(&mut bytes, 0);
        }
        assert_eq!(decode_database(&bytes), Err(CodecError::DuplicateCustomer(7)));
    }

    #[test]
    fn sequence_roundtrip() {
        for text in ["(a)", "(a,e,g)(b)(h)", "(0, 300, 70000)(4294967295)"] {
            let seq = crate::parse::parse_sequence(text).unwrap();
            let mut buf = Vec::new();
            put_sequence(&mut buf, &seq);
            let mut pos = 0;
            assert_eq!(get_sequence(&buf, &mut pos), Ok(seq));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let powers = (0..64).map(|k| 1u64 << k);
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX]
            .into_iter()
            .chain(powers)
        {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        for overlong in [&[0x80u8, 0x00][..], &[0x81, 0x00], &[0xFF, 0x80, 0x00]] {
            assert_eq!(get_varint(overlong, &mut 0), Err(CodecError::Overlong), "{overlong:?}");
        }
        // u64::MAX ends in a tenth byte of 0x01; 0x02 would be bit 64.
        let mut too_wide = vec![0xFFu8; 9];
        too_wide.push(0x02);
        assert_eq!(get_varint(&too_wide, &mut 0), Err(CodecError::Overflow));
        too_wide[9] = 0x81;
        assert_eq!(get_varint(&too_wide, &mut 0), Err(CodecError::Overflow));
        too_wide[9] = 0x01;
        assert_eq!(get_varint(&too_wide, &mut 0), Ok(u64::MAX));
    }

    use proptest::prelude::*;

    fn arb_database() -> impl Strategy<Value = SequenceDatabase> {
        let item = prop_oneof![0u32..40, 0u32..=u32::MAX].prop_map(Item);
        let itemset = proptest::collection::btree_set(item, 1..4)
            .prop_map(|set| Itemset::from_sorted(set.into_iter().collect()));
        let seq = proptest::collection::vec(itemset, 0..5).prop_map(Sequence::new);
        let cid = prop_oneof![0u64..300, any::<u64>()];
        let cids = proptest::collection::btree_set(cid, 0..8);
        (cids, proptest::collection::vec(seq, 8)).prop_map(|(cids, seqs)| {
            let mut db = SequenceDatabase::new();
            for (cid, seq) in cids.into_iter().zip(seqs) {
                db.push(CustomerId(cid), seq);
            }
            db
        })
    }

    /// One byte edit: flip bits, insert a byte, or delete one, at a
    /// position taken modulo the input length.
    #[derive(Debug, Clone)]
    enum Edit {
        Flip(usize, u8),
        Insert(usize, u8),
        Delete(usize),
    }

    fn arb_edit() -> impl Strategy<Value = Edit> {
        prop_oneof![
            (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Edit::Flip(at, mask)),
            (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Edit::Insert(at, b)),
            any::<usize>().prop_map(Edit::Delete),
        ]
    }

    fn apply(bytes: &mut Vec<u8>, edit: &Edit) {
        match *edit {
            Edit::Flip(at, mask) => {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            Edit::Insert(at, b) => bytes.insert(at % (bytes.len() + 1), b),
            Edit::Delete(at) => {
                bytes.remove(at % bytes.len());
            }
        }
    }

    proptest! {
        /// Decoding is injective: every input it accepts is the one
        /// encoding of what it decoded to, so hashing the input gives the
        /// decoded database's fingerprint.
        #[test]
        fn accepted_mutants_reencode_to_themselves(
            db in arb_database(),
            edits in proptest::collection::vec(arb_edit(), 1..4)
        ) {
            let mut bytes = encode_database(&db);
            for edit in &edits {
                if !bytes.is_empty() {
                    apply(&mut bytes, edit);
                }
            }
            if let Ok(decoded) = decode_database(&bytes) {
                prop_assert_eq!(&encode_database(&decoded), &bytes);
                prop_assert_eq!(
                    crate::checkpoint::fnv1a(&bytes),
                    crate::checkpoint::database_fingerprint(&decoded)
                );
            }
        }
    }
}
