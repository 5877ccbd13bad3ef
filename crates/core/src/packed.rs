//! Dictionary-packed `(item, transaction-number)` words.
//!
//! The flat arena (see [`crate::flat`]) already removed the pointer chases
//! from the mining hot paths; this module removes the *width*. After
//! [`crate::compact::ItemMapping`] has remapped the items actually present onto `0..n`, the
//! vast majority of databases need far fewer than 32 bits per item id — and
//! transaction numbers are small by construction (a customer's purchase
//! count). So one flattened pair fits a single dense `u32` word:
//!
//! ```text
//!   31            12 11         0
//!  +----------------+-----------+
//!  |   item id      |   txn     |    word = (item << 12) | txn
//!  +----------------+-----------+
//! ```
//!
//! Because the two bit fields do not overlap and the item occupies the high
//! bits, **unsigned word order equals the lexicographic `(item, txn)` pair
//! order** — which by Definition 2.2 means lexicographic word-*sequence*
//! order (shorter prefix smaller) is exactly the paper's comparative order.
//! Every ordered comparison the DISC strategy performs then becomes a word
//! compare the SIMD kernels of [`crate::simd`] chew 4–8 lanes at a time,
//! with half the memory traffic of the `u64` [`crate::flat::FlatKey`]
//! encoding.
//!
//! The budget is fixed: [`PACKED_ITEM_BITS`] = 20 bits of item id (1M
//! distinct items after remapping) and [`PACKED_TXN_BITS`] = 12 bits of
//! transaction number (4095 transactions per customer). Keys exceeding it
//! are **rejected with a typed [`DiscError::PackedOverflow`]** — never
//! silently truncated — and callers fall back to the always-valid wide
//! [`crate::flat::FlatKey`] encoding.

use crate::error::DiscError;
use crate::flat::SeqKey;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::sequence::{ExtElem, ExtMode, Sequence};
use crate::simd;
use std::cmp::Ordering;

/// Bits of the packed word holding the transaction number (low field).
pub const PACKED_TXN_BITS: u32 = 12;

/// Bits of the packed word holding the dictionary-remapped item id (high
/// field).
pub const PACKED_ITEM_BITS: u32 = 32 - PACKED_TXN_BITS;

/// Largest item id representable in a packed word.
pub const MAX_PACKED_ITEM: u32 = (1 << PACKED_ITEM_BITS) - 1;

/// Largest transaction *number* representable in a packed word. Numbers are
/// 1-based, so this is also the largest representable transaction count.
pub const MAX_PACKED_TXNS: u32 = (1 << PACKED_TXN_BITS) - 1;

/// Packs one flattened pair into a `u32` word (item high, txn low).
///
/// Debug-asserts the budget; release callers must have validated via
/// [`fits_packed_budget`] / [`PackedKey::try_new`].
#[inline]
pub fn pack_pair(item: Item, txn: u32) -> u32 {
    debug_assert!(item.id() <= MAX_PACKED_ITEM, "item {} exceeds packed budget", item.id());
    debug_assert!(
        (1..=MAX_PACKED_TXNS).contains(&txn),
        "transaction number {txn} exceeds packed budget"
    );
    (item.id() << PACKED_TXN_BITS) | txn
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(word: u32) -> (Item, u32) {
    (Item(word >> PACKED_TXN_BITS), word & MAX_PACKED_TXNS)
}

/// Checks a database's extremes against the packed-word budget: the largest
/// dictionary-remapped item id and the largest transaction count that will
/// be packed. Returns the typed overflow error naming the violated field.
pub fn fits_packed_budget(max_item_id: u64, max_txns: u64) -> Result<(), DiscError> {
    if max_item_id > MAX_PACKED_ITEM as u64 {
        return Err(DiscError::PackedOverflow {
            what: "item id",
            value: max_item_id,
            limit: MAX_PACKED_ITEM as u64,
        });
    }
    if max_txns > MAX_PACKED_TXNS as u64 {
        return Err(DiscError::PackedOverflow {
            what: "transaction index",
            value: max_txns,
            limit: MAX_PACKED_TXNS as u64,
        });
    }
    Ok(())
}

/// Packed keys up to this many words live inline in the key itself — no
/// heap allocation. The rekey inner loop of the discovery pass produces one
/// extended key per CKMS hit (hundreds of thousands per run), and mined
/// patterns rarely exceed a dozen pairs, so the common case is a plain
/// word-array copy.
pub const PACKED_INLINE_WORDS: usize = 16;

/// Storage of a [`PackedKey`]: a small inline buffer, spilling to the heap
/// only for keys longer than [`PACKED_INLINE_WORDS`] pairs.
#[derive(Debug, Clone)]
enum KeyRepr {
    /// `len` valid words at the front of `buf`.
    Inline { len: u8, buf: [u32; PACKED_INLINE_WORDS] },
    /// Keys too long for the inline buffer.
    Heap(Vec<u32>),
}

/// The narrow counterpart of [`crate::flat::FlatKey`]: a sequence key whose
/// flattened pairs are packed one per `u32` word, so every comparison moves
/// half the bytes. Only valid within the packed budget — construction is
/// fallible, and the k-sorted database selects this encoding only after
/// [`fits_packed_budget`] cleared the whole member set (every key it will
/// ever hold is built from those members' pairs).
#[derive(Debug, Clone)]
pub struct PackedKey {
    repr: KeyRepr,
}

impl PackedKey {
    /// Wraps an already-validated word sequence, inlining when it fits.
    fn from_words(words: &[u32]) -> PackedKey {
        if words.len() <= PACKED_INLINE_WORDS {
            let mut buf = [0u32; PACKED_INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            PackedKey { repr: KeyRepr::Inline { len: words.len() as u8, buf } }
        } else {
            PackedKey { repr: KeyRepr::Heap(words.to_vec()) }
        }
    }

    /// Flattens `seq` (compact ids) into a packed key, validating the
    /// budget.
    pub fn try_new(seq: &Sequence) -> Result<PackedKey, DiscError> {
        fits_packed_budget(0, seq.n_transactions() as u64)?;
        let mut words = Vec::with_capacity(seq.length());
        for (item, txn) in seq.flat_iter() {
            fits_packed_budget(item.id() as u64, 0)?;
            words.push(pack_pair(item, txn));
        }
        Ok(PackedKey::from_words(&words))
    }

    /// The key of `self` extended by `elem` — appends exactly one packed
    /// pair; for inline keys this is an allocation-free array copy. Panics
    /// (never truncates) if the extension would overflow the budget; the
    /// k-sorted database's member pre-check makes that unreachable in the
    /// mining pipeline.
    pub fn extended(&self, elem: ExtElem) -> PackedKey {
        let words = self.words();
        let last_txn = words.last().map_or(0, |&w| w & MAX_PACKED_TXNS);
        debug_assert!(
            last_txn > 0 || elem.mode == ExtMode::Sequence,
            "itemset extension of an empty key"
        );
        let txn = match elem.mode {
            ExtMode::Itemset => last_txn,
            ExtMode::Sequence => last_txn + 1,
        };
        assert!(
            elem.item.id() <= MAX_PACKED_ITEM && txn <= MAX_PACKED_TXNS,
            "packed key extension overflows the packed budget"
        );
        let extra = pack_pair(elem.item, txn);
        if words.len() < PACKED_INLINE_WORDS {
            let mut buf = [0u32; PACKED_INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            buf[words.len()] = extra;
            return PackedKey { repr: KeyRepr::Inline { len: words.len() as u8 + 1, buf } };
        }
        let mut v = Vec::with_capacity(words.len() + 1);
        v.extend_from_slice(words);
        v.push(extra);
        PackedKey { repr: KeyRepr::Heap(v) }
    }

    /// Reconstructs the nested sequence (the packing is invertible).
    pub fn to_sequence(&self) -> Sequence {
        let words = self.words();
        let mut itemsets =
            Vec::with_capacity(words.last().map_or(0, |&w| (w & MAX_PACKED_TXNS) as usize));
        let mut i = 0;
        while i < words.len() {
            let txn = words[i] & MAX_PACKED_TXNS;
            let mut items = Vec::new();
            while i < words.len() && words[i] & MAX_PACKED_TXNS == txn {
                items.push(unpack_pair(words[i]).0);
                i += 1;
            }
            itemsets.push(Itemset::from_sorted(items));
        }
        Sequence::new(itemsets)
    }

    /// [`PackedKey::to_sequence`], consuming the key.
    pub fn into_sequence(self) -> Sequence {
        self.to_sequence()
    }

    /// The packed `u32` words (one per flattened pair, comparison-ready).
    #[inline]
    pub fn words(&self) -> &[u32] {
        match &self.repr {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(v) => v,
        }
    }
}

// As with `FlatKey`: the packing is invertible, so word equality coincides
// with sequence equality.
impl PartialEq for PackedKey {
    fn eq(&self, other: &PackedKey) -> bool {
        self.words() == other.words()
    }
}

impl Eq for PackedKey {}

impl PartialOrd for PackedKey {
    fn partial_cmp(&self, other: &PackedKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PackedKey {
    fn cmp(&self, other: &PackedKey) -> Ordering {
        simd::cmp_u32(self.words(), other.words())
    }
}

impl SeqKey for PackedKey {
    #[inline]
    fn key_of(seq: &Sequence) -> PackedKey {
        PackedKey::try_new(seq).expect("caller pre-checked the packed budget")
    }

    #[inline]
    fn extended_key(&self, elem: ExtElem) -> PackedKey {
        self.extended(elem)
    }

    #[inline]
    fn to_sequence(&self) -> Sequence {
        PackedKey::to_sequence(self)
    }

    #[inline]
    fn into_sequence(self) -> Sequence {
        PackedKey::into_sequence(self)
    }

    #[inline]
    fn n_pairs(&self) -> usize {
        self.words().len()
    }

    #[inline]
    fn cmp_to_bound_prefix(&self, bound: &PackedKey) -> std::cmp::Ordering {
        let bw = bound.words();
        self.words().cmp(&bw[..bw.len() - 1])
    }

    #[inline]
    fn last_ext(&self) -> ExtElem {
        let words = self.words();
        let n = words.len();
        debug_assert!(n >= 2, "last_ext of a key shorter than 2 pairs");
        let w = words[n - 1];
        let mode = if w & MAX_PACKED_TXNS == words[n - 2] & MAX_PACKED_TXNS {
            ExtMode::Itemset
        } else {
            ExtMode::Sequence
        };
        ExtElem { item: Item(w >> PACKED_TXN_BITS), mode }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatKey;
    use crate::order::cmp_sequences;
    use crate::parse::parse_sequence;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    #[test]
    fn pack_unpack_round_trips_and_preserves_pair_order() {
        let pairs = [
            (Item(0), 1),
            (Item(0), MAX_PACKED_TXNS),
            (Item(1), 1),
            (Item(7), 3),
            (Item(MAX_PACKED_ITEM), 1),
            (Item(MAX_PACKED_ITEM), MAX_PACKED_TXNS),
        ];
        for &(i, t) in &pairs {
            assert_eq!(unpack_pair(pack_pair(i, t)), (i, t));
        }
        for &(xi, xn) in &pairs {
            for &(yi, yn) in &pairs {
                assert_eq!(
                    pack_pair(xi, xn).cmp(&pack_pair(yi, yn)),
                    (xi, xn).cmp(&(yi, yn)),
                    "({xi:?},{xn}) vs ({yi:?},{yn})"
                );
            }
        }
    }

    #[test]
    fn budget_rejects_overflow_with_typed_error() {
        assert!(fits_packed_budget(MAX_PACKED_ITEM as u64, MAX_PACKED_TXNS as u64).is_ok());
        assert_eq!(
            fits_packed_budget(MAX_PACKED_ITEM as u64 + 1, 0),
            Err(DiscError::PackedOverflow {
                what: "item id",
                value: MAX_PACKED_ITEM as u64 + 1,
                limit: MAX_PACKED_ITEM as u64,
            })
        );
        assert_eq!(
            fits_packed_budget(0, MAX_PACKED_TXNS as u64 + 1),
            Err(DiscError::PackedOverflow {
                what: "transaction index",
                value: MAX_PACKED_TXNS as u64 + 1,
                limit: MAX_PACKED_TXNS as u64,
            })
        );
    }

    #[test]
    fn packed_key_order_is_the_comparative_order() {
        let texts = [
            "(a)(b)(h)",
            "(a)(c)(f)",
            "(a,b)(c)",
            "(a)(b,c)",
            "(a)(b)",
            "(a)(b)(c)",
            "(b,f,g)",
            "(a,c,d)(b,d)",
            "(a,d,e)(a)",
        ];
        for tx in &texts {
            for ty in &texts {
                assert_eq!(
                    PackedKey::try_new(&seq(tx))
                        .unwrap()
                        .cmp(&PackedKey::try_new(&seq(ty)).unwrap()),
                    cmp_sequences(&seq(tx), &seq(ty)),
                    "keys {tx} vs {ty}"
                );
            }
        }
    }

    #[test]
    fn packed_key_round_trips_and_extends_like_flat_key() {
        for t in ["(a)", "(a)(b,c)", "(a,b,c)", "(a)(a)(a)", "(b,f,g)(a)(c,d)"] {
            let s = seq(t);
            let key = PackedKey::try_new(&s).unwrap();
            assert_eq!(key.to_sequence(), s, "{t}");
            assert_eq!(key.clone().into_sequence(), s, "{t}");
            // Itemset extensions always append past the current max item
            // (the extension kernels guarantee it), so item 25 is the only
            // valid itemset extension across these fixtures.
            for elem in [
                ExtElem { item: Item(25), mode: ExtMode::Itemset },
                ExtElem { item: Item(3), mode: ExtMode::Sequence },
            ] {
                let wide = FlatKey::new(&s).extended(elem).into_sequence();
                assert_eq!(key.extended(elem).to_sequence(), wide, "{t} + {elem:?}");
            }
        }
    }

    #[test]
    fn packed_key_rejects_budget_overflow() {
        let over = Sequence::new([Itemset::from_sorted(vec![Item(MAX_PACKED_ITEM + 1)])]);
        assert!(matches!(
            PackedKey::try_new(&over),
            Err(DiscError::PackedOverflow { what: "item id", .. })
        ));
        let tall =
            Sequence::new((0..=MAX_PACKED_TXNS).map(|_| Itemset::from_sorted(vec![Item(0)])));
        assert!(matches!(
            PackedKey::try_new(&tall),
            Err(DiscError::PackedOverflow { what: "transaction index", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "packed key extension overflows")]
    fn packed_key_extension_panics_instead_of_truncating() {
        let tall = Sequence::new((0..MAX_PACKED_TXNS).map(|_| Itemset::from_sorted(vec![Item(0)])));
        let key = PackedKey::try_new(&tall).unwrap();
        let _ = key.extended(ExtElem { item: Item(0), mode: ExtMode::Sequence });
    }
}
