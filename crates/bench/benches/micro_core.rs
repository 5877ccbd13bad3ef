//! Micro-benchmarks of the core primitives every miner leans on: the
//! comparative order, containment/leftmost embedding, and Apriori-KMS.

use criterion::{criterion_group, criterion_main, Criterion};
use disc_algo::kms::apriori_kms_raw;
use disc_core::{cmp_sequences, contains, Item, Itemset, Sequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_sequence(rng: &mut StdRng, txns: usize, items_per_txn: usize, alphabet: u32) -> Sequence {
    Sequence::new((0..txns).map(|_| {
        let mut items: Vec<Item> =
            (0..items_per_txn).map(|_| Item(rng.gen_range(0..alphabet))).collect();
        items.sort_unstable();
        items.dedup();
        Itemset::new(items).expect("non-empty")
    }))
}

fn bench_compare(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pairs: Vec<(Sequence, Sequence)> = (0..256)
        .map(|_| (random_sequence(&mut rng, 8, 3, 50), random_sequence(&mut rng, 8, 3, 50)))
        .collect();
    c.bench_function("cmp_sequences/8x3", |b| {
        b.iter(|| {
            for (x, y) in &pairs {
                black_box(cmp_sequences(black_box(x), black_box(y)));
            }
        })
    });
}

fn bench_contains(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let hay: Vec<Sequence> = (0..128).map(|_| random_sequence(&mut rng, 10, 3, 30)).collect();
    let pats: Vec<Sequence> = (0..16).map(|_| random_sequence(&mut rng, 3, 2, 30)).collect();
    c.bench_function("contains/10x3_vs_3x2", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for h in &hay {
                for p in &pats {
                    hits += usize::from(contains(black_box(h), black_box(p)));
                }
            }
            black_box(hits)
        })
    });
}

fn bench_kms(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let members: Vec<Sequence> = (0..64).map(|_| random_sequence(&mut rng, 10, 3, 20)).collect();
    // A plausible 3-sorted list: the frequent-ish 3-subsequence prefixes.
    let mut list: Vec<Sequence> = (0..32).map(|_| random_sequence(&mut rng, 3, 1, 20)).collect();
    list.sort();
    list.dedup();
    c.bench_function("apriori_kms/64members_32prefixes", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for m in &members {
                found += usize::from(apriori_kms_raw(black_box(m), black_box(&list)).is_some());
            }
            black_box(found)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_compare, bench_contains, bench_kms
}
criterion_main!(benches);
