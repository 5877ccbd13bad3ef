//! `DSCFD1` — the on-disk columnar flat-file format and its zero-copy loader.
//!
//! A flat file is the [`crate::flat::FlatDb`] arena written down: the three
//! CSR columns (`items`, `set_starts`, `row_sets`) and the item dictionary
//! ([`ItemMapping`]) that translates the stored compact ids back to the
//! original catalog. Opening one with [`open_flat_file`] memory-maps it and
//! hands the miners columns that *borrow* from the mapping
//! ([`crate::storage::DbStorage::Mapped`]) — no deserialization, no heap
//! copy, and the OS pages data in and out as the scans touch it, so a
//! database larger than RAM mines in bounded memory.
//!
//! What a file holds is also what every miner input is once loaded: a
//! [`FlatFileContents`] — the compacted `FlatDb`, its dictionary, and the
//! source fingerprint in original ids. Text and `DSCDB1` inputs build the
//! same value in memory with [`FlatFileContents::from_database`], the first
//! half of [`encode_database_flat_file`].
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "DSCFD1\0\0"
//!      8     4  format version (= 1)
//!     12     4  flags (bit 0: legacy packed word column present)
//!     16     8  n_rows
//!     24     8  items_len        (elements in the item column)
//!     32     8  sets_len         (elements in set_starts, incl. sentinel)
//!     40     8  dict_len         (distinct items = compact id space size)
//!     48     4  max_item + 1     (compact space; 0 for an item-free db)
//!     52     4  max transactions in any row
//!     56     8  fingerprint of the source database (FNV-1a, original ids)
//!     64     4  section count
//!     68     4  header CRC32 — over bytes [0, 128 + 32·sections) with this
//!                slot zeroed
//!     72     8  store slot: the lowest WAL segment id the file does not
//!                fold (0 in a file no store wrote)
//!     80    48  reserved (zero)
//!    128   32·n  section table: {tag u32, 0, offset u64, byte_len u64,
//!                CRC32 u32, 0} per section
//!    ...        section payloads, each offset page-aligned (4096)
//! ```
//!
//! Section tags: 1 items, 2 set_starts, 3 row_sets, 4 dictionary, 6
//! customer ids (one u64 per row). Items are stored in the **compact** id
//! space (dense from 0), with the dictionary always written so results can
//! be translated back; compaction is monotone, so the comparative order of
//! the stored database equals that of the original — mining the mapped
//! columns yields exactly the original patterns after
//! [`FlatFileContents::restore`].
//!
//! Every writer writes the customer ids; mining never reads them. A
//! [`crate::store::SequenceStore`] keeps its rows in one such file
//! (`store.dscfd`). Files written by earlier builds carry no section 6 and a
//! zero slot, and open and mine as before.
//!
//! Files written by earlier builds may also carry tag 5, a packed-u32 word
//! column index-parallel to the items (flag bit 0). Nothing reads it any
//! more: the loader checks its length and, under [`Verify::Full`], its CRC,
//! then ignores it.
//!
//! Page-aligned payloads + page-aligned `mmap` bases guarantee the 4-byte
//! alignment the typed column windows need; every payload is a whole number
//! of `u32` words.
//!
//! ## Verification
//!
//! A file is refused whole or accepted whole — no partially-mapped database
//! is ever returned. [`Verify::Full`] checks the header CRC, every section
//! CRC, and the structural invariants (monotone boundary columns, items
//! within the dictionary range, ascending dictionary). The cheaper
//! [`Verify::HeaderOnly`] still checks the header CRC and the boundary
//! columns — everything the row/itemset *slicing* depends on, so mining
//! cannot index out of a column — but trusts the bulk item payload.
//! It exists for files this process (or its store) just wrote and verified;
//! a forged item payload under `HeaderOnly` can make mining produce wrong
//! supports or abort on an out-of-range counting index — never undefined
//! behavior.

use crate::checkpoint::crc32;
use crate::compact::ItemMapping;
use crate::database::SequenceDatabase;
use crate::durable::{self, IoFault, PublishError};
use crate::error::DiscError;
use crate::flat::FlatDb;
use crate::item::Item;
use crate::mmap::{Advice, Mmap};
use crate::result::MiningResult;
use crate::storage::DbStorage;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic prefix of a flat file.
pub const FLAT_FILE_MAGIC: [u8; 8] = *b"DSCFD1\0\0";
/// The format version this build reads and writes.
pub const FLAT_FILE_VERSION: u32 = 1;
/// File name of a [`crate::store::SequenceStore`]'s data file: the
/// compacted database, which each compaction republishes.
pub const FLAT_FILE_NAME: &str = "store.dscfd";

const HEADER_LEN: usize = 128;
const ENTRY_LEN: usize = 32;
const CRC_SLOT: usize = 68;
const STORE_SLOT: usize = 72;
const PAGE: usize = 4096;
/// Flag of the packed word column earlier builds wrote (section 5).
const FLAG_PACKED: u32 = 1;
const MAX_SECTIONS: u32 = 16;

const SEC_ITEMS: u32 = 1;
const SEC_SET_STARTS: u32 = 2;
const SEC_ROW_SETS: u32 = 3;
const SEC_DICT: u32 = 4;
/// The legacy packed word column: verified, never read.
const SEC_PACKED: u32 = 5;
/// Customer ids, one u64 (two little-endian u32 words) per row.
const SEC_CIDS: u32 = 6;

/// How much of a flat file [`open_flat_file`] checks before trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Header CRC + every section CRC + full structural validation,
    /// including the item-range scan. Use for files of unknown provenance.
    Full,
    /// Header CRC + boundary-column structure only; the bulk item payload
    /// is not read until mining touches it. Use for files this
    /// process just wrote (the writer verifies on publish) — this is what
    /// makes time-to-first-pattern independent of deserialization.
    HeaderOnly,
}

/// A loaded database, ready to mine: the flat columns in compact item ids
/// (borrowed from a mapping when opened from a file), the dictionary back
/// to the original ids, and the fingerprint of the source database.
///
/// Every input ends up as one of these — a `.dscfd` file through
/// [`open_flat_file`], a parsed text or `DSCDB1` database through
/// [`FlatFileContents::from_database`] — and both give the same value for
/// the same database.
#[derive(Debug)]
pub struct FlatFileContents {
    /// The flat database, in compact item ids.
    pub flat: FlatDb,
    /// Compact-id ⇄ original-id dictionary; translate mined patterns back
    /// with [`FlatFileContents::restore`].
    pub mapping: ItemMapping,
    /// FNV-1a fingerprint of the source database in original ids
    /// ([`crate::checkpoint::database_fingerprint`]) — the cache key and
    /// checkpoint identity of the database.
    pub fingerprint: u64,
}

impl FlatFileContents {
    /// The in-memory half of [`encode_database_flat_file`]: fingerprints
    /// `db`, analyzes its dictionary and flattens it onto compact ids.
    pub fn from_database(db: &SequenceDatabase) -> FlatFileContents {
        let mapping = ItemMapping::analyze(db);
        let flat = FlatDb::from_database_compacted(db, &mapping);
        FlatFileContents { flat, mapping, fingerprint: crate::checkpoint::database_fingerprint(db) }
    }

    /// Translates a result mined from [`FlatFileContents::flat`] back to
    /// original item ids; an identity dictionary passes it through.
    pub fn restore(&self, mined: MiningResult) -> MiningResult {
        if self.mapping.is_identity() {
            mined
        } else {
            self.mapping.restore_result(&mined)
        }
    }

    /// Whether the columns borrow zero-copy from a memory mapping (false on
    /// fallback targets and for heap decodes).
    pub fn is_mapped(&self) -> bool {
        self.flat.is_mapped()
    }
}

fn bad(path: &Path, what: &'static str) -> DiscError {
    DiscError::FlatFile { path: path.to_path_buf(), what }
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds checked"))
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn pad_to_page(out: &mut Vec<u8>) {
    let rem = out.len() % PAGE;
    if rem != 0 {
        out.resize(out.len() + (PAGE - rem), 0);
    }
}

struct SectionEntry {
    tag: u32,
    offset: u64,
    byte_len: u64,
    crc: u32,
}

fn push_section(
    out: &mut Vec<u8>,
    entries: &mut Vec<SectionEntry>,
    tag: u32,
    words: impl Iterator<Item = u32>,
) {
    pad_to_page(out);
    let start = out.len();
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    entries.push(SectionEntry {
        tag,
        offset: start as u64,
        byte_len: (out.len() - start) as u64,
        crc,
    });
}

/// Encodes `db` into `DSCFD1` bytes with `first_live_segment` in the store
/// slot (0 outside a store), and returns them with `db`'s fingerprint.
pub(crate) fn encode_flat_file(db: &SequenceDatabase, first_live_segment: u64) -> (Vec<u8>, u64) {
    let loaded = FlatFileContents::from_database(db);
    let (items, sets, rows) = loaded.flat.columns();
    let dict = loaded.mapping.originals().iter().map(|i| i.id());
    let cids = db.rows().iter().flat_map(|r| [r.cid.0 as u32, (r.cid.0 >> 32) as u32]);
    let mut out = vec![0u8; HEADER_LEN + 5 * ENTRY_LEN];
    let mut entries = Vec::with_capacity(5);
    push_section(&mut out, &mut entries, SEC_ITEMS, items.iter().map(|i| i.id()));
    push_section(&mut out, &mut entries, SEC_SET_STARTS, sets.iter().copied());
    push_section(&mut out, &mut entries, SEC_ROW_SETS, rows.iter().copied());
    push_section(&mut out, &mut entries, SEC_DICT, dict);
    push_section(&mut out, &mut entries, SEC_CIDS, cids);
    put_u64(&mut out, STORE_SLOT, first_live_segment);
    finish_header(&mut out, &loaded, 0, &entries);
    (out, loaded.fingerprint)
}

/// Fills in the header and section table in front of the section payloads
/// `push_section` appended to `out`.
fn finish_header(out: &mut [u8], loaded: &FlatFileContents, flags: u32, entries: &[SectionEntry]) {
    let (flat, mapping) = (&loaded.flat, &loaded.mapping);
    let (items, sets, rows) = flat.columns();
    let max_item_plus_one = flat.max_item().map_or(0, |i| i.id() as u64 + 1);
    debug_assert_eq!(
        mapping.len() as u64,
        max_item_plus_one,
        "dictionary must cover the compact space"
    );
    let max_txns = rows.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    out[0..8].copy_from_slice(&FLAT_FILE_MAGIC);
    put_u32(out, 8, FLAT_FILE_VERSION);
    put_u32(out, 12, flags);
    put_u64(out, 16, flat.len() as u64);
    put_u64(out, 24, items.len() as u64);
    put_u64(out, 32, sets.len() as u64);
    put_u64(out, 40, mapping.len() as u64);
    put_u32(out, 48, max_item_plus_one as u32);
    put_u32(out, 52, max_txns);
    put_u64(out, 56, loaded.fingerprint);
    put_u32(out, 64, entries.len() as u32);
    for (i, e) in entries.iter().enumerate() {
        let base = HEADER_LEN + i * ENTRY_LEN;
        put_u32(out, base, e.tag);
        put_u64(out, base + 8, e.offset);
        put_u64(out, base + 16, e.byte_len);
        put_u32(out, base + 24, e.crc);
    }
    refresh_header_crc(out);
}

/// Encodes a [`SequenceDatabase`] as a standalone `DSCFD1` file (store
/// slot 0).
///
/// This is the *packing* step and it is in-memory: it builds the full
/// columns before writing. Mining the resulting file is what runs
/// out-of-core.
pub fn encode_database_flat_file(db: &SequenceDatabase) -> Vec<u8> {
    encode_flat_file(db, 0).0
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Header {
    flags: u32,
    n_rows: u64,
    items_len: u64,
    sets_len: u64,
    dict_len: u64,
    max_item_plus_one: u32,
    max_txns: u32,
    fingerprint: u64,
    first_live_segment: u64,
    entries: Vec<SectionEntry>,
}

/// Validates the fixed header + section table of `bytes` (which may be a
/// prefix of the file, as long as it covers the table).
fn parse_header(path: &Path, bytes: &[u8], file_len: u64) -> Result<Header, DiscError> {
    if bytes.len() < HEADER_LEN {
        return Err(bad(path, "truncated header"));
    }
    if bytes[0..8] != FLAT_FILE_MAGIC {
        return Err(bad(path, "bad magic"));
    }
    if u32_at(bytes, 8) != FLAT_FILE_VERSION {
        return Err(bad(path, "unsupported format version"));
    }
    let flags = u32_at(bytes, 12);
    if flags & !FLAG_PACKED != 0 {
        return Err(bad(path, "unknown flags"));
    }
    let section_count = u32_at(bytes, 64);
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(bad(path, "implausible section count"));
    }
    let table_end = HEADER_LEN + section_count as usize * ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(bad(path, "truncated section table"));
    }
    let crc = {
        let mut head = bytes[..table_end].to_vec();
        head[CRC_SLOT..CRC_SLOT + 4].fill(0);
        crc32(&head)
    };
    if crc != u32_at(bytes, CRC_SLOT) {
        return Err(bad(path, "header CRC mismatch"));
    }
    let mut entries = Vec::with_capacity(section_count as usize);
    for i in 0..section_count as usize {
        let base = HEADER_LEN + i * ENTRY_LEN;
        let entry = SectionEntry {
            tag: u32_at(bytes, base),
            offset: u64_at(bytes, base + 8),
            byte_len: u64_at(bytes, base + 16),
            crc: u32_at(bytes, base + 24),
        };
        if !entry.offset.is_multiple_of(4) || !entry.byte_len.is_multiple_of(4) {
            return Err(bad(path, "misaligned section"));
        }
        let end = entry
            .offset
            .checked_add(entry.byte_len)
            .ok_or_else(|| bad(path, "section out of bounds"))?;
        if entry.offset < table_end as u64 || end > file_len {
            return Err(bad(path, "section out of bounds"));
        }
        if entries.iter().any(|e: &SectionEntry| e.tag == entry.tag) {
            return Err(bad(path, "duplicate section"));
        }
        entries.push(entry);
    }
    Ok(Header {
        flags,
        n_rows: u64_at(bytes, 16),
        items_len: u64_at(bytes, 24),
        sets_len: u64_at(bytes, 32),
        dict_len: u64_at(bytes, 40),
        max_item_plus_one: u32_at(bytes, 48),
        max_txns: u32_at(bytes, 52),
        fingerprint: u64_at(bytes, 56),
        first_live_segment: u64_at(bytes, STORE_SLOT),
        entries,
    })
}

impl Header {
    /// The `(byte offset, element count)` window of the section with `tag`,
    /// after checking its byte length matches `elems` u32 words.
    fn section(&self, path: &Path, tag: u32, elems: u64) -> Result<(usize, usize), DiscError> {
        let e = self
            .entries
            .iter()
            .find(|e| e.tag == tag)
            .ok_or_else(|| bad(path, "missing section"))?;
        let expect = elems.checked_mul(4).ok_or_else(|| bad(path, "section length overflow"))?;
        if e.byte_len != expect {
            return Err(bad(path, "section length mismatch"));
        }
        let off =
            usize::try_from(e.offset).map_err(|_| bad(path, "file too large for this platform"))?;
        let n =
            usize::try_from(elems).map_err(|_| bad(path, "file too large for this platform"))?;
        Ok((off, n))
    }

    fn crc_of(&self, tag: u32) -> u32 {
        self.entries.iter().find(|e| e.tag == tag).map(|e| e.crc).unwrap_or(0)
    }
}

fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4"))).collect()
}

/// A u32 column: borrowed from the mapping when the target allows the
/// in-place reinterpretation, decoded to the heap otherwise.
fn col_u32(map: &Arc<Mmap>, off: usize, len: usize) -> DbStorage<u32> {
    #[cfg(target_endian = "little")]
    if let Some(col) = crate::storage::MappedCol::new(Arc::clone(map), off, len) {
        return DbStorage::Mapped(col);
    }
    decode_u32s(&map.bytes()[off..off + len * 4]).into()
}

/// An item column, same policy (`Item` is `repr(transparent)` over `u32`).
fn col_items(map: &Arc<Mmap>, off: usize, len: usize) -> DbStorage<Item> {
    #[cfg(target_endian = "little")]
    if let Some(col) = crate::storage::MappedCol::new(Arc::clone(map), off, len) {
        return DbStorage::Mapped(col);
    }
    DbStorage::Owned(
        map.bytes()[off..off + len * 4]
            .chunks_exact(4)
            .map(|c| Item(u32::from_le_bytes(c.try_into().expect("chunk of 4"))))
            .collect(),
    )
}

/// What a store reads from its data file besides the database: the store
/// slot and the customer ids (two little-endian u32 words per row).
pub(crate) struct StoreSlots {
    pub first_live_segment: u64,
    cid_words: DbStorage<u32>,
}

impl StoreSlots {
    /// The customer id of row `i`.
    pub fn cid(&self, i: usize) -> u64 {
        u64::from(self.cid_words[2 * i]) | u64::from(self.cid_words[2 * i + 1]) << 32
    }
}

/// Opens, verifies, and decodes the flat file at `path`, memory-mapping it
/// so the returned columns borrow from the page cache where the platform
/// allows (see [`crate::mmap`]). Hints the kernel that access will be
/// sequential — the mining scans are — so it reads ahead and drops behind,
/// which is what keeps resident memory bounded on databases larger than
/// RAM.
pub fn open_flat_file(path: &Path, verify: Verify) -> Result<FlatFileContents, DiscError> {
    Ok(decode_from_map(path, map_file(path)?, verify)?.0)
}

fn map_file(path: &Path) -> Result<Arc<Mmap>, DiscError> {
    let map = Arc::new(Mmap::open(path).map_err(|e| DiscError::from_io(path, &e))?);
    map.advise(Advice::WillNeed);
    map.advise(Advice::Sequential);
    Ok(map)
}

/// Decodes `DSCFD1` bytes already in memory (columns are heap-owned copies
/// of the buffer's windows on little-endian targets, decoded otherwise).
/// `path` labels errors only.
pub fn decode_flat_file(
    path: &Path,
    bytes: Vec<u8>,
    verify: Verify,
) -> Result<FlatFileContents, DiscError> {
    Ok(decode_from_map(path, Arc::new(Mmap::from_vec(bytes)), verify)?.0)
}

/// A store's data file under [`Verify::Full`]: decoded from `bytes` when
/// given, else mapped from `path`. Refuses a file without a store slot.
pub(crate) fn load_store_file(
    path: &Path,
    bytes: Option<Vec<u8>>,
) -> Result<(FlatFileContents, StoreSlots), DiscError> {
    let map = match bytes {
        Some(bytes) => Arc::new(Mmap::from_vec(bytes)),
        None => map_file(path)?,
    };
    match decode_from_map(path, map, Verify::Full)? {
        (contents, Some(slots)) => Ok((contents, slots)),
        _ => Err(bad(path, "no store slot: not a store data file")),
    }
}

/// Decodes a mapped file, with its store slot when it carries one.
fn decode_from_map(
    path: &Path,
    map: Arc<Mmap>,
    verify: Verify,
) -> Result<(FlatFileContents, Option<StoreSlots>), DiscError> {
    let bytes = map.bytes();
    let header = parse_header(path, bytes, map.len() as u64)?;

    if header.sets_len == 0 {
        return Err(bad(path, "empty set boundary column"));
    }
    let rows_len =
        header.n_rows.checked_add(1).ok_or_else(|| bad(path, "implausible row count"))?;
    let (items_off, items_n) = header.section(path, SEC_ITEMS, header.items_len)?;
    let (sets_off, sets_n) = header.section(path, SEC_SET_STARTS, header.sets_len)?;
    let (rows_off, rows_n) = header.section(path, SEC_ROW_SETS, rows_len)?;
    let (dict_off, dict_n) = header.section(path, SEC_DICT, header.dict_len)?;
    let legacy_packed = if header.flags & FLAG_PACKED != 0 {
        Some(header.section(path, SEC_PACKED, header.items_len)?)
    } else {
        if header.entries.iter().any(|e| e.tag == SEC_PACKED) {
            return Err(bad(path, "packed flag mismatch"));
        }
        None
    };
    let cids = header.entries.iter().any(|e| e.tag == SEC_CIDS);
    let cids = cids.then(|| header.section(path, SEC_CIDS, header.n_rows.saturating_mul(2)));
    let cids = cids.transpose()?;
    if u64::from(header.max_item_plus_one) != header.dict_len {
        return Err(bad(path, "dictionary length must cover the compact id space"));
    }

    if verify == Verify::Full {
        for (tag, off, n) in [
            (SEC_ITEMS, items_off, items_n),
            (SEC_SET_STARTS, sets_off, sets_n),
            (SEC_ROW_SETS, rows_off, rows_n),
            (SEC_DICT, dict_off, dict_n),
        ]
        .into_iter()
        .chain(legacy_packed.map(|(off, n)| (SEC_PACKED, off, n)))
        .chain(cids.map(|(off, n)| (SEC_CIDS, off, n)))
        {
            if crc32(&bytes[off..off + n * 4]) != header.crc_of(tag) {
                return Err(bad(path, "section CRC mismatch"));
            }
        }
    }

    let sets = col_u32(&map, sets_off, sets_n);
    let rows = col_u32(&map, rows_off, rows_n);

    // Boundary-column structure — everything row/itemset slicing indexes
    // through — is validated in *both* modes, so no file content can make
    // `FlatDb::row` reach outside a column.
    if sets.first() != Some(&0) || *sets.last().expect("non-empty") as u64 != header.items_len {
        return Err(bad(path, "set boundary column must span the item column"));
    }
    if header.items_len > 0 && sets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad(path, "set boundaries must be strictly increasing"));
    }
    if rows.first() != Some(&0) || *rows.last().expect("non-empty") as u64 != header.sets_len - 1 {
        return Err(bad(path, "row boundary column must span the set column"));
    }
    if rows.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad(path, "row boundaries must be monotone"));
    }
    let max_txns = rows.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    if max_txns != header.max_txns {
        return Err(bad(path, "transaction count mismatch"));
    }

    let dict: Vec<Item> = map.bytes()[dict_off..dict_off + dict_n * 4]
        .chunks_exact(4)
        .map(|c| Item(u32::from_le_bytes(c.try_into().expect("chunk of 4"))))
        .collect();
    if dict.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad(path, "dictionary must be strictly ascending"));
    }

    let items = col_items(&map, items_off, items_n);
    if verify == Verify::Full {
        match items.iter().max() {
            None if header.max_item_plus_one != 0 => return Err(bad(path, "max item mismatch")),
            Some(max) if max.id() as u64 + 1 != u64::from(header.max_item_plus_one) => {
                return Err(bad(path, "max item mismatch"))
            }
            _ => {}
        }
    }

    let max_item =
        if header.max_item_plus_one == 0 { None } else { Some(Item(header.max_item_plus_one - 1)) };
    let first_live_segment = header.first_live_segment;
    let slots = cids
        .filter(|_| first_live_segment != 0)
        .map(|(off, n)| StoreSlots { first_live_segment, cid_words: col_u32(&map, off, n) });
    let contents = FlatFileContents {
        flat: FlatDb::from_columns(items, sets, rows, max_item),
        mapping: ItemMapping::from_originals(dict),
        fingerprint: header.fingerprint,
    };
    Ok((contents, slots))
}

// ---------------------------------------------------------------------------
// Atomic publication
// ---------------------------------------------------------------------------

/// Publishes `bytes` (a `DSCFD1` encoding) at `path` through
/// [`durable::publish`], read-back verified: the temp file must hold
/// exactly `bytes` and pass a [`Verify::Full`] decode before it is renamed
/// into place. On any error the final path is either untouched or the
/// previous complete file. Returns the byte count written.
pub fn write_flat_file(path: &Path, bytes: &[u8]) -> Result<u64, DiscError> {
    write_flat_file_faulted(path, bytes, None).map_err(|e| match e {
        PublishError::Unverified { .. } => bad(path, "post-write verification failed"),
        e => DiscError::Io {
            path: e.path().to_path_buf(),
            message: e.to_string(),
            transient: e.is_transient(),
        },
    })
}

/// [`write_flat_file`] staging an injected `fault` (`None` outside the
/// crash matrices): [`durable::publish`] stages the IO faults, and
/// [`IoFault::StaleVersion`] publishes a copy stamped one format version
/// ahead, which the read-back decode refuses.
pub(crate) fn write_flat_file_faulted(
    path: &Path,
    bytes: &[u8],
    fault: Option<IoFault>,
) -> Result<u64, PublishError> {
    let mut stale = Vec::new();
    let bytes = if fault == Some(IoFault::StaleVersion) {
        stale.extend_from_slice(bytes);
        put_u32(&mut stale, 8, FLAT_FILE_VERSION + 1);
        refresh_header_crc(&mut stale);
        &stale
    } else {
        bytes
    };
    let verify = |back: Vec<u8>| decode_flat_file(path, back, Verify::Full).is_ok();
    durable::publish(path, bytes, Some(&verify), fault)?;
    Ok(bytes.len() as u64)
}

/// (Re)computes the header CRC of `copy` — after encoding, and after the
/// stale-version fault altered a field, so the version check (not the CRC)
/// rejects.
fn refresh_header_crc(copy: &mut [u8]) {
    let table_end = HEADER_LEN + u32_at(copy, 64) as usize * ENTRY_LEN;
    copy[CRC_SLOT..CRC_SLOT + 4].fill(0);
    let crc = crc32(&copy[..table_end]);
    put_u32(copy, CRC_SLOT, crc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::database_fingerprint;
    use crate::flat::SeqView;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("disc-flatfile-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn paper_db() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(a,e,g)(b)(h)(f)(c)(b,f)",
            "(b)(d,f)(e)",
            "(b,f,g)",
            "(f)(a,g)(b,f,h)(b,f)",
        ])
        .unwrap()
    }

    fn sparse_db() -> SequenceDatabase {
        SequenceDatabase::from_parsed(&[
            "(10, 4000000)(999999999)",
            "(10)(4000000, 999999999)(10, 999999999)",
            "(10)(999999999)",
        ])
        .unwrap()
    }

    fn roundtrip(db: &SequenceDatabase, verify: Verify) -> FlatFileContents {
        let bytes = encode_database_flat_file(db);
        decode_flat_file(Path::new("test.dscfd"), bytes, verify).unwrap()
    }

    #[test]
    fn roundtrips_databases() {
        for db in [paper_db(), sparse_db(), SequenceDatabase::new()] {
            for verify in [Verify::Full, Verify::HeaderOnly] {
                let contents = roundtrip(&db, verify);
                assert_eq!(contents.fingerprint, database_fingerprint(&db));
                let mapping = ItemMapping::analyze(&db);
                assert_eq!(contents.mapping, mapping);
                let expect = FlatDb::from_database(&mapping.remap_database(&db));
                assert_eq!(contents.flat.len(), expect.len());
                assert_eq!(contents.flat.max_item(), expect.max_item());
                assert_eq!(contents.flat.columns(), expect.columns());
                // The file decodes to exactly what loading in memory builds.
                let loaded = FlatFileContents::from_database(&db);
                assert_eq!(contents.flat.columns(), loaded.flat.columns());
                assert_eq!(contents.mapping, loaded.mapping);
                assert_eq!(contents.fingerprint, loaded.fingerprint);
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let bytes = encode_database_flat_file(&paper_db());
        let path = Path::new("trunc.dscfd");
        for len in 0..bytes.len() {
            let err = decode_flat_file(path, bytes[..len].to_vec(), Verify::Full)
                .expect_err("every proper prefix must be refused");
            assert!(matches!(err, DiscError::FlatFile { .. }), "prefix {len}: {err}");
        }
        decode_flat_file(path, bytes, Verify::Full).unwrap();
    }

    #[test]
    fn corruption_of_any_covered_byte_is_rejected() {
        let bytes = encode_database_flat_file(&sparse_db());
        let path = Path::new("corrupt.dscfd");
        let header = parse_header(path, &bytes, bytes.len() as u64).unwrap();
        // Every byte of the header + table and of every section payload is
        // CRC-covered; only inter-section padding is not.
        let mut covered: Vec<(usize, usize)> =
            vec![(0, HEADER_LEN + header.entries.len() * ENTRY_LEN)];
        for e in &header.entries {
            covered.push((e.offset as usize, (e.offset + e.byte_len) as usize));
        }
        for (start, end) in covered {
            for i in start..end {
                let mut copy = bytes.clone();
                copy[i] ^= 0x01;
                assert!(
                    decode_flat_file(path, copy, Verify::Full).is_err(),
                    "flipped byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn header_only_trusts_payloads_but_full_does_not() {
        let bytes = encode_database_flat_file(&paper_db());
        let path = Path::new("trust.dscfd");
        let header = parse_header(path, &bytes, bytes.len() as u64).unwrap();
        let items = header.entries.iter().find(|e| e.tag == SEC_ITEMS).unwrap();
        let mut copy = bytes.clone();
        // Perturb an item id without leaving the dictionary range.
        let off = items.offset as usize;
        let orig = u32_at(&copy, off);
        put_u32(&mut copy, off, if orig == 0 { 1 } else { orig - 1 });
        assert!(decode_flat_file(path, copy.clone(), Verify::Full).is_err());
        let contents = decode_flat_file(path, copy, Verify::HeaderOnly).unwrap();
        assert_eq!(contents.flat.len(), 4);
    }

    #[test]
    fn boundary_columns_are_validated_even_header_only() {
        let db = paper_db();
        let bytes = encode_database_flat_file(&db);
        let path = Path::new("bounds.dscfd");
        let header = parse_header(path, &bytes, bytes.len() as u64).unwrap();
        let sets = header.entries.iter().find(|e| e.tag == SEC_SET_STARTS).unwrap();
        // Point a set boundary past the item column; HeaderOnly must still
        // refuse, or mining would slice out of bounds.
        let mut copy = bytes.clone();
        put_u32(&mut copy, sets.offset as usize + 4, u32::MAX);
        assert!(decode_flat_file(path, copy, Verify::HeaderOnly).is_err());
    }

    #[test]
    fn open_maps_the_columns_zero_copy() {
        let dir = tmp_dir("open");
        let path = dir.join("db.dscfd");
        let db = sparse_db();
        write_flat_file(&path, &encode_database_flat_file(&db)).unwrap();
        let contents = open_flat_file(&path, Verify::Full).unwrap();
        assert_eq!(contents.fingerprint, database_fingerprint(&db));
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        assert!(contents.is_mapped());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `db` as an earlier build wrote it: the four columns plus the packed
    /// word column (section 5, flag bit 0), one `(item << 12) | txn` word
    /// per flattened pair.
    fn legacy_packed_file(db: &SequenceDatabase) -> Vec<u8> {
        let loaded = FlatFileContents::from_database(db);
        let (items, sets, rows) = loaded.flat.columns();
        let mut words = Vec::with_capacity(items.len());
        for row in loaded.flat.rows() {
            for t in 0..row.n_transactions() {
                words.extend(row.itemset_items(t).iter().map(|&i| (i.id() << 12) | (t as u32 + 1)));
            }
        }
        let mut out = vec![0u8; HEADER_LEN + 5 * ENTRY_LEN];
        let mut entries = Vec::new();
        push_section(&mut out, &mut entries, SEC_ITEMS, items.iter().map(|i| i.id()));
        push_section(&mut out, &mut entries, SEC_SET_STARTS, sets.iter().copied());
        push_section(&mut out, &mut entries, SEC_ROW_SETS, rows.iter().copied());
        let dict = loaded.mapping.originals().iter().map(|i| i.id());
        push_section(&mut out, &mut entries, SEC_DICT, dict);
        push_section(&mut out, &mut entries, SEC_PACKED, words.into_iter());
        finish_header(&mut out, &loaded, FLAG_PACKED, &entries);
        out
    }

    #[test]
    fn legacy_packed_section_is_verified_then_ignored() {
        let path = Path::new("legacy.dscfd");
        for db in [paper_db(), sparse_db()] {
            let bytes = legacy_packed_file(&db);
            let loaded = FlatFileContents::from_database(&db);
            for verify in [Verify::Full, Verify::HeaderOnly] {
                let contents = decode_flat_file(path, bytes.clone(), verify).unwrap();
                assert_eq!(contents.flat.columns(), loaded.flat.columns());
                assert_eq!(contents.mapping, loaded.mapping);
                assert_eq!(contents.fingerprint, loaded.fingerprint);
            }
            // The ignored column is still CRC-covered under `Full`.
            let header = parse_header(path, &bytes, bytes.len() as u64).unwrap();
            let packed = header.entries.iter().find(|e| e.tag == SEC_PACKED).unwrap();
            let mut copy = bytes.clone();
            copy[packed.offset as usize] ^= 0x01;
            assert!(decode_flat_file(path, copy.clone(), Verify::Full).is_err());
            decode_flat_file(path, copy, Verify::HeaderOnly).unwrap();
        }
    }

    #[test]
    fn corrupt_or_stale_read_backs_are_refused_and_never_published() {
        let dir = tmp_dir("refused");
        let path = dir.join("db.dscfd");
        let bytes = encode_database_flat_file(&paper_db());
        for fault in [IoFault::CorruptByte, IoFault::StaleVersion] {
            let err = write_flat_file_faulted(&path, &bytes, Some(fault)).unwrap_err();
            assert!(matches!(err, PublishError::Unverified { .. }), "{fault:?}: {err}");
            assert!(!path.exists(), "{fault:?} must not publish");
        }
        write_flat_file(&path, &bytes).unwrap();
        open_flat_file(&path, Verify::Full).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
