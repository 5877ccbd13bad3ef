//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **bi-level on/off** — does finding two levels per k-sorted-database
//!   pass pay for its counting arrays?
//! * **γ sweep** — Dynamic DISC-all between "always DISC" (γ = 0) and
//!   "always partition" (γ = 2), across sparse and dense workloads;
//! * **partition depth** — fixed-depth splitting (the "number of levels"
//!   knob of §3.1) from depth 0 (pure DISC) to depth 4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disc_algo::weighted::{WeightedDatabase, WeightedDisc};
use disc_algo::{DiscAll, DynamicDiscAll};
use disc_core::{MinSupport, SequentialMiner};
use disc_datagen::QuestConfig;

fn bench_bilevel(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bilevel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, cfg) in [
        ("sparse", QuestConfig::paper_table11().with_ncust(1_000).with_seed(5)),
        ("dense", QuestConfig::paper_fig9().with_ncust(600).with_seed(5)),
    ] {
        let db = cfg.generate();
        for miner in [DiscAll::default(), DiscAll::without_bi_level()] {
            group.bench_with_input(BenchmarkId::new(miner.name(), label), &db, |b, db| {
                b.iter(|| miner.mine(db, MinSupport::Fraction(0.01)))
            });
        }
    }
    group.finish();
}

fn bench_gamma(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gamma");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for theta in [10.0f64, 40.0] {
        let db = QuestConfig::paper_fig10(theta).with_ncust(400).with_seed(6).generate();
        for gamma in [0.0f64, 0.3, 0.6, 0.9, 2.0] {
            let miner = DynamicDiscAll::with_gamma(gamma);
            group.bench_with_input(
                BenchmarkId::new(format!("gamma_{gamma}"), theta as u64),
                &db,
                // δ = 16: low enough for deep patterns, high enough that the
                // 400-customer workload cannot explode combinatorially.
                |b, db| b.iter(|| miner.mine(db, MinSupport::Fraction(0.04))),
            );
        }
    }
    group.finish();
}

fn bench_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_partition_depth");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let db = QuestConfig::paper_table11().with_ncust(1_000).with_seed(7).generate();
    for depth in [0usize, 1, 2, 3, 4] {
        let miner = DynamicDiscAll::with_fixed_depth(depth);
        group.bench_with_input(BenchmarkId::new("depth", depth), &db, |b, db| {
            b.iter(|| miner.mine(db, MinSupport::Fraction(0.01)))
        });
    }
    group.finish();
}

/// Weighted mining at uniform weights vs unweighted DISC-all: both run the
/// one partition engine, so this measures the cost of reading a weight
/// column instead of weight 1.
fn bench_weighted(c: &mut Criterion) {
    let mut group = c.benchmark_group("weighted_overhead");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let db = QuestConfig::paper_table11().with_ncust(800).with_seed(8).generate();
    let delta = (db.len() / 100) as u64; // 1%
    let wdb = WeightedDatabase::uniform(db.clone());
    group.bench_function("DiscAll_unweighted", |b| {
        b.iter(|| DiscAll::default().mine(&db, MinSupport::Count(delta)))
    });
    group.bench_function("WeightedDisc_uniform", |b| {
        b.iter(|| WeightedDisc::default().mine(&wdb, delta))
    });
    group.finish();
}

criterion_group!(benches, bench_bilevel, bench_gamma, bench_depth, bench_weighted);
criterion_main!(benches);
