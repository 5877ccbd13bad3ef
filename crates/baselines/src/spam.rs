//! **SPAM** (Ayres et al., KDD 2002) — depth-first search over vertical
//! bitmaps.
//!
//! Every customer gets a block of bits, one per transaction. An item's
//! bitmap marks the transactions containing it; a pattern's bitmap marks the
//! transactions where an embedding of the pattern can *end*. Growth uses two
//! transforms:
//!
//! * **S-step**: set every bit strictly after the first set bit of each
//!   customer block, then AND with the item's bitmap — the pattern followed
//!   by the item in a later transaction;
//! * **I-step**: AND directly — the item joins the pattern's last
//!   transaction (canonical growth requires the item to exceed the last
//!   pattern item).
//!
//! SPAM's candidate pruning passes the items that survived at a node down to
//! its children (`S_temp` / `I_temp` in the paper). The whole database must
//! fit in memory as bitmaps — the assumption the DISC paper calls out.

use disc_core::{
    run_guarded, AbortReason, ExtElem, ExtMode, GuardedResult, Item, MinSupport, MineGuard,
    MiningResult, Sequence, SequenceDatabase, SequentialMiner,
};

/// Bit layout: each customer owns a contiguous range of bit positions, one
/// per transaction, padded into `u64` words *per customer* so per-customer
/// operations stay word-aligned.
#[derive(Debug, Clone)]
struct Layout {
    /// Word offset of each customer's block.
    word_offset: Vec<usize>,
    /// Number of transactions of each customer.
    n_txns: Vec<usize>,
    /// Total words.
    total_words: usize,
}

impl Layout {
    fn new(db: &SequenceDatabase) -> Layout {
        let mut word_offset = Vec::with_capacity(db.len());
        let mut n_txns = Vec::with_capacity(db.len());
        let mut words = 0usize;
        for s in db.sequences() {
            word_offset.push(words);
            let t = s.n_transactions();
            n_txns.push(t);
            words += t.div_ceil(64);
        }
        Layout { word_offset, n_txns, total_words: words }
    }

    fn customers(&self) -> usize {
        self.word_offset.len()
    }

    fn words_of(&self, customer: usize) -> std::ops::Range<usize> {
        let start = self.word_offset[customer];
        start..start + self.n_txns[customer].div_ceil(64)
    }
}

/// A vertical bitmap over the layout.
#[derive(Debug, Clone)]
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn zeroed(layout: &Layout) -> Bitmap {
        Bitmap { words: vec![0; layout.total_words] }
    }

    fn set(&mut self, layout: &Layout, customer: usize, txn: usize) {
        let w = layout.word_offset[customer] + txn / 64;
        self.words[w] |= 1u64 << (txn % 64);
    }

    fn and(&self, other: &Bitmap) -> Bitmap {
        Bitmap { words: self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect() }
    }

    /// The S-step transform: per customer, every bit strictly after the
    /// first set bit.
    fn s_transform(&self, layout: &Layout) -> Bitmap {
        let mut out = Bitmap { words: vec![0; self.words.len()] };
        for c in 0..layout.customers() {
            let range = layout.words_of(c);
            let mut found = false;
            for w in range {
                if found {
                    out.words[w] = u64::MAX;
                } else if self.words[w] != 0 {
                    let first = self.words[w].trailing_zeros();
                    // Bits strictly above `first` within this word.
                    out.words[w] = if first == 63 { 0 } else { u64::MAX << (first + 1) };
                    found = true;
                }
            }
        }
        out
    }

    /// Number of customers with at least one set bit.
    fn support(&self, layout: &Layout) -> u64 {
        (0..layout.customers()).filter(|&c| layout.words_of(c).any(|w| self.words[w] != 0)).count()
            as u64
    }
}

/// The SPAM miner.
#[derive(Debug, Clone, Default)]
pub struct Spam {
    _private: (),
}

impl SequentialMiner for Spam {
    fn name(&self) -> &str {
        "SPAM"
    }

    fn mine(&self, db: &SequenceDatabase, min_support: MinSupport) -> MiningResult {
        let guard = MineGuard::unlimited();
        let mut result = MiningResult::new();
        mine_into(db, min_support, &guard, &mut result).expect("unlimited guard never aborts");
        result
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        run_guarded(guard, |result| mine_into(db, min_support, guard, result))
    }
}

/// The cooperative core: one checkpoint per customer in the bitmap build and
/// per candidate in the DFS, one pattern note per frequent pattern.
fn mine_into(
    db: &SequenceDatabase,
    min_support: MinSupport,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    let delta = min_support.resolve(db.len());
    let Some(max_item) = db.max_item() else {
        return Ok(());
    };
    let n_items = max_item.id() as usize + 1;
    let layout = Layout::new(db);

    // Item bitmaps.
    let mut item_bitmaps: Vec<Bitmap> = vec![Bitmap::zeroed(&layout); n_items];
    for (c, s) in db.sequences().enumerate() {
        guard.checkpoint()?;
        for (t, set) in s.itemsets().iter().enumerate() {
            for item in set.iter() {
                item_bitmaps[item.id() as usize].set(&layout, c, t);
            }
        }
    }

    // Frequent items seed the DFS.
    let frequent: Vec<Item> = (0..n_items as u32)
        .map(Item)
        .filter(|i| item_bitmaps[i.id() as usize].support(&layout) >= delta)
        .collect();
    for &f in &frequent {
        let bitmap = item_bitmaps[f.id() as usize].clone();
        guard.note_pattern()?;
        result.insert(Sequence::single(f), bitmap.support(&layout));
        let i_candidates: Vec<Item> = frequent.iter().copied().filter(|&x| x > f).collect();
        dfs(
            &Sequence::single(f),
            &bitmap,
            &frequent,
            &i_candidates,
            &layout,
            &item_bitmaps,
            delta,
            guard,
            result,
        )?;
    }
    Ok(())
}

/// The DFS of SPAM Figure 4 ("DFS-Pruning"): try every S-/I-candidate; the
/// survivors become the candidate sets of the children.
#[allow(clippy::too_many_arguments)]
fn dfs(
    pattern: &Sequence,
    bitmap: &Bitmap,
    s_candidates: &[Item],
    i_candidates: &[Item],
    layout: &Layout,
    item_bitmaps: &[Bitmap],
    delta: u64,
    guard: &MineGuard,
    result: &mut MiningResult,
) -> Result<(), AbortReason> {
    // S-step.
    let transformed = bitmap.s_transform(layout);
    let mut s_temp: Vec<(Item, Bitmap, u64)> = Vec::new();
    for &x in s_candidates {
        guard.checkpoint()?;
        let child = transformed.and(&item_bitmaps[x.id() as usize]);
        let support = child.support(layout);
        if support >= delta {
            s_temp.push((x, child, support));
        }
    }
    let s_survivors: Vec<Item> = s_temp.iter().map(|(x, _, _)| *x).collect();
    for (x, child_bitmap, support) in &s_temp {
        let child = pattern.extended(ExtElem { item: *x, mode: ExtMode::Sequence });
        guard.note_pattern()?;
        result.insert(child.clone(), *support);
        let child_i: Vec<Item> = s_survivors.iter().copied().filter(|&y| y > *x).collect();
        dfs(
            &child,
            child_bitmap,
            &s_survivors,
            &child_i,
            layout,
            item_bitmaps,
            delta,
            guard,
            result,
        )?;
    }

    // I-step.
    let mut i_temp: Vec<(Item, Bitmap, u64)> = Vec::new();
    for &x in i_candidates {
        guard.checkpoint()?;
        let child = bitmap.and(&item_bitmaps[x.id() as usize]);
        let support = child.support(layout);
        if support >= delta {
            i_temp.push((x, child, support));
        }
    }
    let i_survivors: Vec<Item> = i_temp.iter().map(|(x, _, _)| *x).collect();
    for (x, child_bitmap, support) in &i_temp {
        let child = pattern.extended(ExtElem { item: *x, mode: ExtMode::Itemset });
        guard.note_pattern()?;
        result.insert(child.clone(), *support);
        let child_i: Vec<Item> = i_survivors.iter().copied().filter(|&y| y > *x).collect();
        dfs(
            &child,
            child_bitmap,
            &s_survivors,
            &child_i,
            layout,
            item_bitmaps,
            delta,
            guard,
            result,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::{parse_sequence, BruteForce};

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
    fn s_transform_sets_bits_after_first() {
        let db = table1();
        let layout = Layout::new(&db);
        let mut b = Bitmap::zeroed(&layout);
        b.set(&layout, 0, 1);
        b.set(&layout, 0, 3);
        b.set(&layout, 3, 0);
        let t = b.s_transform(&layout);
        // Customer 0 has 6 transactions: bits 2..=5 are reachable.
        let word0 = t.words[layout.word_offset[0]];
        assert_eq!(word0 & ((1 << 6) - 1), 0b111100);
        // Customer 3 (4 transactions): bits 1..=3 (and beyond, masked by ANDs).
        let word3 = t.words[layout.word_offset[3]];
        assert_eq!(word3 & ((1 << 4) - 1), 0b1110);
        // Customers 1, 2 untouched.
        assert_eq!(t.words[layout.word_offset[1]], 0);
    }

    #[test]
    fn support_counts_customers_not_bits() {
        let db = table1();
        let layout = Layout::new(&db);
        let mut b = Bitmap::zeroed(&layout);
        b.set(&layout, 0, 0);
        b.set(&layout, 0, 5);
        b.set(&layout, 2, 0);
        assert_eq!(b.support(&layout), 2);
    }

    #[test]
    fn matches_brute_force_on_table_1() {
        let db = table1();
        for delta in 1..=4 {
            let expected = BruteForce::default().mine(&db, MinSupport::Count(delta));
            let got = Spam::default().mine(&db, MinSupport::Count(delta));
            let diff = got.diff(&expected);
            assert!(diff.is_empty(), "δ={delta}:\n{}", diff.join("\n"));
        }
    }

    #[test]
    fn long_customer_blocks_cross_word_boundaries() {
        // A customer with > 64 transactions exercises multi-word blocks.
        let long: Vec<String> =
            (0..70).map(|i| format!("({})", if i % 2 == 0 { "a" } else { "b" })).collect();
        let text = long.join("");
        let db = SequenceDatabase::from_parsed(&[&text, "(a)(b)"]).unwrap();
        let r = Spam::default().mine(&db, MinSupport::Count(2));
        assert_eq!(r.support_of(&parse_sequence("(a)(b)").unwrap()), Some(2));
        let expected = BruteForce::default().mine(&db, MinSupport::Count(2));
        assert!(r.diff(&expected).is_empty());
    }
}
