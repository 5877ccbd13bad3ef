//! Inputs and output checks shared by the workloads.

use disc_baselines::PseudoPrefixSpan;
use disc_core::{
    CustomerId, Item, Itemset, MinSupport, MiningResult, Sequence, SequenceDatabase,
    SequentialMiner,
};
use disc_datagen::QuestConfig;
use std::io::Write;

/// The generator seed of every row committed in the repository's
/// `BENCH_*.json` files.
pub const COMMITTED_SEED: u64 = 20040330;

/// The database of a committed `BENCH_*.json` row under the run's seed.
///
/// `config` is the row's Quest setting (generated with
/// [`COMMITTED_SEED`]); `seed` shuffles the customers (renumbered in their
/// new order) and relabels the items by a random permutation. The seed so
/// changes every byte of the input and the order the miners meet items in,
/// while the frequent patterns stay those of the committed row, up to the
/// labels: the same count, lengths and supports.
pub fn committed_db(config: QuestConfig, seed: u64) -> SequenceDatabase {
    let generated = config.with_seed(COMMITTED_SEED).generate();
    let mut rng = SplitMix64(seed);
    let nitems = generated.max_item().map_or(0, |m| m.id() + 1);
    let mut label: Vec<u32> = (0..nitems).collect();
    rng.shuffle(&mut label);
    let mut rows: Vec<usize> = (0..generated.len()).collect();
    rng.shuffle(&mut rows);
    SequenceDatabase::from_rows(rows.iter().enumerate().map(|(cid, &row)| {
        let sequence = Sequence::new(generated.sequence(row).itemsets().iter().map(|set| {
            Itemset::new(set.iter().map(|item| Item(label[item.id() as usize])))
                .expect("relabelling keeps an itemset non-empty")
        }));
        (CustomerId(cid as u64), sequence)
    }))
}

/// The SplitMix64 generator: small, seedable, and enough for shuffling.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Renders patterns exactly as `disc-mine` prints them.
pub fn render(result: &MiningResult) -> Vec<u8> {
    let mut out = Vec::new();
    for (pattern, support) in result.iter() {
        writeln!(out, "{support}\t{pattern}").expect("writing to a Vec cannot fail");
    }
    out
}

/// Length and FNV-1a hash of a rendered result: enough to tell two
/// renderings apart without keeping either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub bytes: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Digest {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest { bytes: bytes.len(), hash }
    }

    /// `Ok` when `bytes` render the same result as this digest.
    pub fn check(&self, what: &str, bytes: &[u8]) -> Result<(), String> {
        let got = Digest::of(bytes);
        if got == *self {
            Ok(())
        } else {
            Err(format!("{what}: output differs from the reference ({got:?} vs {self:?})"))
        }
    }
}

/// The expected rendering, from a miner that shares no code with DISC.
/// `committed` is the pattern count the committed row records, when it
/// records one: a different count means the input is not that row's.
pub fn reference(
    db: &SequenceDatabase,
    min_support: MinSupport,
    committed: Option<usize>,
) -> Result<Digest, String> {
    let result = PseudoPrefixSpan::default().mine(db, min_support);
    match committed {
        Some(n) if n != result.len() => Err(format!(
            "reference found {} patterns where the committed row records {n}",
            result.len()
        )),
        _ => Ok(Digest::of(&render(&result))),
    }
}
