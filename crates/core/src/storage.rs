//! Column storage for the flat database: heap-owned or mmap-borrowed.
//!
//! [`crate::flat::FlatDb`] is a plain CSR column triple. Mining kernels
//! never see the columns directly — they work on [`crate::flat::FlatSeq`]
//! slice views — so the *ownership* of a column is the only thing that needs to
//! vary between an in-memory build and a zero-copy load from a
//! [`crate::flatfile`] mapping. [`DbStorage`] is that variation point: a
//! column is either an owned `Vec<T>` or a typed window into a shared
//! [`Mmap`]. Both deref to `&[T]`, so every kernel is monomorphized over
//! the same slice code for both backends, with zero per-call copies.
//!
//! The mapped variant reinterprets file bytes in place, which is only
//! sound for types a raw byte pattern cannot invalidate. The sealed
//! [`ColumnWord`] trait whitelists exactly the column element types the
//! on-disk format stores: `u32` and [`Item`] (`#[repr(transparent)]` over
//! `u32`). Alignment is checked at construction — the DSCFD1 writer
//! page-aligns every section, and `mmap` bases are page-aligned, so the
//! check only fails on a hand-built file.

use crate::item::Item;
use crate::mmap::Mmap;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

mod sealed {
    /// Seals [`super::ColumnWord`]: only types whose every bit pattern is a
    /// valid value, with no padding and a known layout, may be mapped.
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for crate::item::Item {}
}

/// Element types that may back a mapped column. Implemented for `u32` and
/// [`Item`] only; both are 4-byte, alignment-4, padding-free types for
/// which every bit pattern is valid, so reinterpreting mapped file bytes
/// as a slice of them is sound once alignment and bounds are checked.
pub trait ColumnWord: sealed::Sealed + Copy + 'static {}

impl ColumnWord for u32 {}
impl ColumnWord for Item {}

/// A typed window into a shared read-only mapping: `len` elements of `T`
/// starting `byte_offset` bytes into the file.
#[derive(Debug, Clone)]
pub struct MappedCol<T: ColumnWord> {
    map: Arc<Mmap>,
    byte_offset: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: ColumnWord> MappedCol<T> {
    /// Creates a window over `map`. Returns `None` when the byte range is
    /// out of bounds or misaligned for `T` — the flat-file loader turns
    /// that into a typed corruption error.
    pub fn new(map: Arc<Mmap>, byte_offset: usize, len: usize) -> Option<MappedCol<T>> {
        let byte_len = len.checked_mul(std::mem::size_of::<T>())?;
        let end = byte_offset.checked_add(byte_len)?;
        if end > map.len() {
            return None;
        }
        let ptr = map.bytes().as_ptr() as usize + byte_offset;
        if !ptr.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(MappedCol { map, byte_offset, len, _marker: PhantomData })
    }

    /// The elements, reinterpreted in place from the mapping.
    #[inline]
    fn as_slice(&self) -> &[T] {
        cast::slice(&self.map.bytes()[self.byte_offset..], self.len)
    }
}

#[allow(unsafe_code)]
mod cast {
    //! The one unsafe reinterpretation, quarantined (the crate is
    //! `deny(unsafe_code)` elsewhere).

    /// Reinterprets the front of `bytes` as `len` elements of `T`.
    ///
    /// Callers guarantee (checked in [`super::MappedCol::new`]): the byte
    /// range covers `len * size_of::<T>()` bytes and the base pointer is
    /// aligned for `T`. `T: ColumnWord` guarantees every bit pattern is a
    /// valid `T`, so no byte content can make this undefined behavior.
    #[inline]
    pub(super) fn slice<T: super::ColumnWord>(bytes: &[u8], len: usize) -> &[T] {
        debug_assert!(len * std::mem::size_of::<T>() <= bytes.len());
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: range and alignment established above; `ColumnWord` is
        // sealed to padding-free, any-bit-pattern-valid 4-byte types; the
        // borrow is tied to `bytes`, which borrows the `Arc<Mmap>` keeping
        // the mapping alive.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, len) }
    }
}

/// One database column: heap-owned (built in memory) or a borrowed window
/// into a memory-mapped flat file. Deref yields `&[T]` either way — the
/// storage split is invisible past construction.
#[derive(Debug, Clone)]
pub enum DbStorage<T: ColumnWord> {
    /// A column built (or decoded) on the heap.
    Owned(Vec<T>),
    /// A column borrowed zero-copy from a [`Mmap`] window.
    Mapped(MappedCol<T>),
}

impl<T: ColumnWord> DbStorage<T> {
    /// Whether this column borrows from a mapping (diagnostics only).
    pub fn is_mapped(&self) -> bool {
        matches!(self, DbStorage::Mapped(_))
    }

    /// [`Mmap::is_unchanged`] of the backing mapping (owned columns: true).
    pub fn file_unchanged(&self) -> bool {
        match self {
            DbStorage::Owned(_) => true,
            DbStorage::Mapped(col) => col.map.is_unchanged(),
        }
    }
}

impl<T: ColumnWord> Deref for DbStorage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            DbStorage::Owned(v) => v,
            DbStorage::Mapped(m) => m.as_slice(),
        }
    }
}

impl<T: ColumnWord> From<Vec<T>> for DbStorage<T> {
    fn from(v: Vec<T>) -> DbStorage<T> {
        DbStorage::Owned(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_column_derefs_to_its_vec() {
        let col: DbStorage<u32> = vec![1, 2, 3].into();
        assert_eq!(&col[..], &[1, 2, 3]);
        assert!(!col.is_mapped());
    }

    #[test]
    fn mapped_column_reads_file_words_in_place() {
        let dir = std::env::temp_dir().join(format!("disc-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        let words: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let mut bytes = Vec::new();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::File::create(&path).unwrap().write_all(&bytes).unwrap();

        let map = Arc::new(Mmap::open(&path).unwrap());
        let col =
            DbStorage::Mapped(MappedCol::<u32>::new(Arc::clone(&map), 0, words.len()).unwrap());
        assert_eq!(&col[..], &words[..]);
        assert!(col.is_mapped());

        // Item columns share the representation.
        let items = DbStorage::Mapped(
            MappedCol::<Item>::new(Arc::clone(&map), 4, words.len() - 1).unwrap(),
        );
        assert_eq!(items[0], Item(words[1]));

        // Out-of-bounds and misaligned windows are rejected.
        assert!(MappedCol::<u32>::new(Arc::clone(&map), 0, words.len() + 1).is_none());
        assert!(MappedCol::<u32>::new(Arc::clone(&map), 2, 1).is_none());
        assert!(MappedCol::<u32>::new(Arc::clone(&map), bytes.len(), 1).is_none());
        // A zero-length window at EOF is fine.
        assert!(MappedCol::<u32>::new(map, bytes.len(), 0).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
