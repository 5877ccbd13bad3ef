//! The experiment implementations: one function per table/figure of the
//! paper's Section 4. Each prints a paper-style table, cross-checks that
//! every miner agreed on every run, and persists raw measurements as JSON.

use crate::report::{nrr_table, persist, runtime_table, trim_float};
use crate::runner::{assert_agreement, measure, measure_with_threads, Measurement};
use crate::workloads::{
    fig10_db, fig8_db, fig8_sizes, fig9_db, fig9_thresholds, theta_grid, Scale, WorkloadCache,
};
use disc_algo::{
    nrr_by_level, DiscAll, DynamicDiscAll, ParallelDiscAll, WeightedDatabase, WeightedDisc,
};
use disc_baselines::{PrefixSpan, PseudoPrefixSpan};
use disc_core::{
    GuardedResult, MinSupport, MineGuard, MiningResult, SequenceDatabase, SequentialMiner,
};

const SEED: u64 = 20040330; // ICDE 2004 conference dates — an arbitrary fixed seed.

fn fig8_miners() -> Vec<Box<dyn SequentialMiner>> {
    vec![
        Box::new(DiscAll::default()),
        Box::new(PrefixSpan::default()),
        Box::new(PseudoPrefixSpan::default()),
    ]
}

fn fig10_miners() -> Vec<Box<dyn SequentialMiner>> {
    vec![
        Box::new(DiscAll::default()),
        Box::new(DynamicDiscAll::default()),
        Box::new(PrefixSpan::default()),
        Box::new(PseudoPrefixSpan::default()),
    ]
}

fn run_sweep(
    db: &SequenceDatabase,
    miners: &[Box<dyn SequentialMiner>],
    min_support: MinSupport,
    param: f64,
    measurements: &mut Vec<Measurement>,
) -> MiningResult {
    let mut reference: Option<MiningResult> = None;
    for miner in miners {
        let (m, result) = measure(miner.as_ref(), db, min_support, param);
        eprintln!(
            "    {:<18} param={:<8} {:>8.3}s  {} patterns (max length {})",
            m.miner,
            trim_float(param),
            m.seconds,
            m.patterns,
            m.max_length
        );
        measurements.push(m);
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_agreement(miner.name(), &result, r),
        }
    }
    reference.expect("at least one miner")
}

/// **Figure 8**: runtime vs number of customers (Table 11 workload,
/// minimum support 0.0025) for DISC-all, PrefixSpan, Pseudo.
pub fn fig8(scale: Scale) {
    println!("## Figure 8 — runtime vs database size (minsup 0.0025)\n");
    let cache = WorkloadCache::new();
    let miners = fig8_miners();
    let mut measurements = Vec::new();
    for ncust in fig8_sizes(scale) {
        let db = cache.get(&fig8_db(ncust, SEED));
        run_sweep(&db, &miners, MinSupport::Fraction(0.0025), ncust as f64, &mut measurements);
    }
    let names: Vec<String> = miners.iter().map(|m| m.name().to_string()).collect();
    let params: Vec<f64> = fig8_sizes(scale).iter().map(|&n| n as f64).collect();
    println!("{}", runtime_table("customers", &params, &names, &measurements));
    let _ = persist("fig8", &measurements);
}

/// One sweep row for the NRR tables: the sweep parameter and its per-level
/// average NRRs.
type NrrRow = (f64, Vec<Option<f64>>);

/// Runs the Figure 9 sweep once and returns its measurements (Tables 12 and
/// 13 reuse them).
fn fig9_measurements(scale: Scale) -> (Vec<Measurement>, Vec<NrrRow>) {
    let db = fig9_db(scale, SEED).generate();
    let miners = fig8_miners();
    let mut measurements = Vec::new();
    let mut nrr_rows = Vec::new();
    for threshold in fig9_thresholds(scale) {
        let reference =
            run_sweep(&db, &miners, MinSupport::Fraction(threshold), threshold, &mut measurements);
        nrr_rows.push((threshold, nrr_by_level(&reference, &db)));
    }
    (measurements, nrr_rows)
}

/// **Figure 9**: runtime vs minimum support threshold (10K customers,
/// slen = tlen = seq.patlen = 8).
pub fn fig9(scale: Scale) {
    let (measurements, _) = fig9_measurements(scale);
    report_fig9(scale, &measurements);
}

fn report_fig9(scale: Scale, measurements: &[Measurement]) {
    println!("## Figure 9 — runtime vs minimum support (10K, slen=tlen=patlen=8)\n");
    let names: Vec<String> = fig8_miners().iter().map(|m| m.name().to_string()).collect();
    let params = fig9_thresholds(scale);
    println!("{}", runtime_table("minsup", &params, &names, measurements));
    let _ = persist("fig9", &measurements);
}

/// **Table 12**: average NRR per partition level, per minimum support, on
/// the Figure 9 database.
pub fn table12(scale: Scale) {
    println!("## Table 12 — average NRR per level vs minimum support\n");
    let db = fig9_db(scale, SEED).generate();
    let miner = DiscAll::default();
    let mut rows = Vec::new();
    for threshold in fig9_thresholds(scale) {
        let result = miner.mine(&db, MinSupport::Fraction(threshold));
        eprintln!("    minsup {:<8} {} patterns", trim_float(threshold), result.len());
        rows.push((threshold, nrr_by_level(&result, &db)));
    }
    println!("{}", nrr_table("minsup", &rows));
    let _ = persist("table12", &rows);
}

/// **Table 13**: the Pseudo / DISC-all runtime ratio per minimum support —
/// the same sweep as Figure 9, reported as the paper's ratio column.
pub fn table13(scale: Scale) {
    let (measurements, _) = fig9_measurements(scale);
    report_table13(scale, &measurements);
}

fn report_table13(scale: Scale, measurements: &[Measurement]) {
    println!("## Table 13 — Pseudo vs DISC-all runtime ratio\n");
    println!("| minsup | Pseudo (s) | DISC-all (s) | Pseudo/DISC-all |");
    println!("|---|---|---|---|");
    let mut rows = Vec::new();
    for threshold in fig9_thresholds(scale) {
        let find = |name: &str| {
            measurements
                .iter()
                .find(|m| m.miner == name && (m.param - threshold).abs() < 1e-12)
                .map(|m| m.seconds)
        };
        if let (Some(pseudo), Some(disc)) = (find("Pseudo"), find("DISC-all")) {
            println!(
                "| {} | {:.3} | {:.3} | {:.3} |",
                trim_float(threshold),
                pseudo,
                disc,
                pseudo / disc
            );
            rows.push((threshold, pseudo, disc, pseudo / disc));
        }
    }
    println!();
    let _ = persist("table13", &rows);
}

/// **Table 14**: average NRR per level vs θ (average transactions per
/// customer), 50K customers, minsup 0.005.
pub fn table14(scale: Scale) {
    println!("## Table 14 — average NRR per level vs θ (minsup 0.005)\n");
    let cache = WorkloadCache::new();
    let miner = DiscAll::default();
    let mut rows = Vec::new();
    for theta in theta_grid(scale) {
        let db = cache.get(&fig10_db(theta, scale, SEED));
        let result = miner.mine(&db, MinSupport::Fraction(0.005));
        eprintln!("    θ = {:<4} {} patterns", theta, result.len());
        rows.push((theta, nrr_by_level(&result, &db)));
    }
    println!("{}", nrr_table("θ", &rows));
    let _ = persist("table14", &rows);
}

/// **Figure 10**: runtime vs θ for DISC-all, Dynamic DISC-all, PrefixSpan
/// and Pseudo (minsup 0.005).
pub fn fig10(scale: Scale) {
    println!("## Figure 10 — runtime vs θ (minsup 0.005)\n");
    let cache = WorkloadCache::new();
    let miners = fig10_miners();
    let mut measurements = Vec::new();
    for theta in theta_grid(scale) {
        let db = cache.get(&fig10_db(theta, scale, SEED));
        run_sweep(&db, &miners, MinSupport::Fraction(0.005), theta, &mut measurements);
    }
    let names: Vec<String> = miners.iter().map(|m| m.name().to_string()).collect();
    println!("{}", runtime_table("θ", &theta_grid(scale), &names, &measurements));
    let _ = persist("fig10", &measurements);
}

/// Thread counts swept by the [`parallel`] experiment.
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// **Parallel scaling** (not in the paper): sequential DISC-all vs
/// `ParallelDiscAll` at 1/2/4/8 threads on the Figure 8 workload's largest
/// database for the scale. Every parallel run is checked bit-identical to
/// the sequential reference — the sweep doubles as a determinism gate —
/// and the speedup column reports sequential-seconds / parallel-seconds.
pub fn parallel(scale: Scale) {
    println!("## Parallel scaling — sharded DISC-all vs sequential (minsup 0.0025)\n");
    let ncust = *fig8_sizes(scale).last().expect("fig8_sizes is non-empty");
    let cache = WorkloadCache::new();
    let db = cache.get(&fig8_db(ncust, SEED));
    let minsup = MinSupport::Fraction(0.0025);

    let mut measurements = Vec::new();
    let (baseline, reference) = measure(&DiscAll::default(), &db, minsup, ncust as f64);
    eprintln!(
        "    {:<22} {:>8.3}s  {} patterns (max length {})",
        baseline.miner, baseline.seconds, baseline.patterns, baseline.max_length
    );
    println!("| threads | seconds | speedup | patterns |");
    println!("|---|---|---|---|");
    println!("| seq | {:.3} | 1.000 | {} |", baseline.seconds, baseline.patterns);
    let sequential_seconds = baseline.seconds;
    measurements.push(baseline);
    for threads in PARALLEL_THREADS {
        let miner = ParallelDiscAll::with_threads(threads);
        let (m, result) = measure_with_threads(&miner, &db, minsup, ncust as f64, threads);
        assert_agreement(miner.name(), &result, &reference);
        eprintln!(
            "    {:<22} {:>8.3}s  {} patterns (max length {})",
            m.miner, m.seconds, m.patterns, m.max_length
        );
        println!(
            "| {} | {:.3} | {:.3} | {} |",
            threads,
            m.seconds,
            sequential_seconds / m.seconds.max(1e-9),
            m.patterns
        );
        measurements.push(m);
    }
    println!();
    let _ = persist("parallel", &measurements);
}

/// A miner reported under its ablation label ("γ = 0.6", "depth 3"): every
/// Dynamic DISC-all variant has the same name.
struct Labeled<M> {
    label: String,
    miner: M,
}

impl<M: SequentialMiner> SequentialMiner for Labeled<M> {
    fn name(&self) -> &str {
        &self.label
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        self.miner.mine_guarded(db, min_support, guard)
    }
}

fn labeled(label: String, miner: impl SequentialMiner + 'static) -> Box<dyn SequentialMiner> {
    Box::new(Labeled { label, miner })
}

/// [`WeightedDisc`] over a uniform-weight copy of the mined database, so its
/// weighted supports must equal DISC-all's counts. The copy is built before
/// the timer starts. Its guarded entry runs [`WeightedDisc::mine_guarded`],
/// so the harness deadline bounds the run itself.
struct UniformWeighted(WeightedDatabase);

impl SequentialMiner for UniformWeighted {
    fn name(&self) -> &str {
        "WeightedDisc (uniform)"
    }

    fn mine_guarded(
        &self,
        db: &SequenceDatabase,
        min_support: MinSupport,
        guard: &MineGuard,
    ) -> GuardedResult {
        assert_eq!(db.len(), self.0.database().len(), "mined a database it did not weight");
        WeightedDisc::default().mine_guarded(&self.0, min_support.resolve(db.len()), guard)
    }
}

/// Times one ablation group on one workload through [`run_sweep`], which
/// checks every variant bit-identical against the first, and prints a row
/// per variant with its time relative to the first.
fn ablation_group(
    key: &str,
    db: &SequenceDatabase,
    variants: &[Box<dyn SequentialMiner>],
    min_support: MinSupport,
    rows: &mut Vec<(String, Measurement)>,
) {
    let mut measurements = Vec::new();
    run_sweep(db, variants, min_support, db.len() as f64, &mut measurements);
    let first = measurements[0].seconds.max(1e-9);
    for m in measurements {
        println!(
            "| {key} | {} | {:.3} | {:.2} | {} |",
            m.miner,
            m.seconds,
            m.seconds / first,
            m.patterns
        );
        rows.push((key.to_string(), m));
    }
}

/// **Ablations** (not in the paper) of the design knobs DESIGN.md names:
///
/// * bi-level counting on and off, on a sparse workload (Table 11 at the
///   Figure 8 sweep's smallest size) and a dense one (the Figure 9
///   database at minsup 0.01);
/// * Dynamic DISC-all's NRR threshold γ ∈ {0, 0.3, 0.6, 0.9, 2}, on the
///   Figure 10 databases at θ = 10 and 40 (minsup 0.00075·θ: 0.0075 and
///   0.03). At γ = 0 no partition is split; at 2 every partition with
///   frequent extensions is, since an NRR never exceeds 1;
/// * a fixed partition depth 0–4 on the sparse workload (depth 2 is
///   DISC-all's policy);
/// * uniform-weight [`WeightedDisc`] vs DISC-all on the sparse workload.
///
/// Each group's variants must agree bit-identically with its first. The
/// JSON rows are `[group/workload, measurement]` with `param` = customers.
pub fn ablation(scale: Scale) {
    println!("## Ablations — bi-level counting, γ, partition depth, uniform weights\n");
    let cache = WorkloadCache::new();
    let sparse = cache.get(&fig8_db(fig8_sizes(scale)[0], SEED));
    // Figure 8's threshold, except where it would put δ at 2 (smoke scale's
    // 500 customers), which explodes the frequent set.
    let sparse_minsup = MinSupport::Fraction(if scale == Scale::Smoke { 0.01 } else { 0.0025 });
    let dense = cache.get(&fig9_db(scale, SEED));
    println!("| group/workload | variant | seconds | × first | patterns |");
    println!("|---|---|---|---|---|");
    let mut rows = Vec::new();

    let bi_level = || -> Vec<Box<dyn SequentialMiner>> {
        vec![Box::new(DiscAll::default()), Box::new(DiscAll::without_bi_level())]
    };
    ablation_group("bi-level/sparse", &sparse, &bi_level(), sparse_minsup, &mut rows);
    ablation_group("bi-level/dense", &dense, &bi_level(), MinSupport::Fraction(0.01), &mut rows);

    let gammas: Vec<_> = [0.0, 0.3, 0.6, 0.9, 2.0]
        .into_iter()
        .map(|g| labeled(format!("γ = {}", trim_float(g)), DynamicDiscAll::with_gamma(g)))
        .collect();
    // Longer customers hold more patterns, so the threshold grows with θ.
    // A flat 0.04 left θ = 10 with only 1-sequences, where every γ does the
    // same work; 0.00075·θ reaches patterns of length 3 or more at both θ,
    // at smoke and default scale.
    for theta in [10.0, 40.0] {
        let db = cache.get(&fig10_db(theta, scale, SEED));
        let key = format!("gamma/θ={theta}");
        ablation_group(&key, &db, &gammas, MinSupport::Fraction(0.00075 * theta), &mut rows);
    }

    let depths: Vec<_> = (0..=4)
        .map(|d| labeled(format!("depth {d}"), DynamicDiscAll::with_fixed_depth(d)))
        .collect();
    ablation_group("depth/sparse", &sparse, &depths, sparse_minsup, &mut rows);

    let weighted: Vec<Box<dyn SequentialMiner>> = vec![
        Box::new(DiscAll::default()),
        Box::new(UniformWeighted(WeightedDatabase::uniform(SequenceDatabase::clone(&sparse)))),
    ];
    ablation_group("weighted/sparse", &sparse, &weighted, sparse_minsup, &mut rows);
    println!();
    let _ = persist("ablation", &rows);
}

/// Runs every experiment at the given scale. The Figure 9 sweep is shared
/// with Tables 12 and 13 so the most expensive workload runs once.
pub fn all(scale: Scale) {
    fig8(scale);
    let (measurements, nrr_rows) = fig9_measurements(scale);
    report_fig9(scale, &measurements);
    println!("## Table 12 — average NRR per level vs minimum support\n");
    println!("{}", nrr_table("minsup", &nrr_rows));
    let _ = persist("table12", &nrr_rows);
    report_table13(scale, &measurements);
    table14(scale);
    fig10(scale);
    parallel(scale);
    ablation(scale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_core::MiningResult;

    /// Full smoke-scale harness run; meaningful only in release builds
    /// (minutes in debug), so it is opt-in:
    /// `cargo test --release -p disc-bench -- --ignored`.
    #[test]
    #[ignore = "slow in debug builds; run with --release -- --ignored"]
    fn smoke_scale_runs() {
        fig8(Scale::Smoke);
        table12(Scale::Smoke);
        fig10(Scale::Smoke);
        ablation(Scale::Smoke);
    }

    /// A minimal end-to-end pass through the sweep machinery: tiny database,
    /// all Figure 8 miners, agreement enforced. The threshold stays high —
    /// dense tiny pools at low δ explode the pattern count.
    #[test]
    fn run_sweep_checks_agreement() {
        let db = fig8_db(60, 1).with_nitems(120).with_pools(40, 80).generate();
        let miners = fig8_miners();
        let mut measurements = Vec::new();
        let reference: MiningResult =
            run_sweep(&db, &miners, MinSupport::Fraction(0.2), 60.0, &mut measurements);
        assert!(!reference.is_empty());
        assert_eq!(measurements.len(), miners.len());
        for m in &measurements {
            assert_eq!(m.patterns, reference.len());
        }
    }
}
