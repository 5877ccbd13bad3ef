//! A miniature of the paper's evaluation: race every miner on one
//! Quest-generated workload, verify they agree, and print a Figure-9-style
//! table of runtimes across support thresholds.
//!
//! ```text
//! cargo run --release --example algorithm_shootout [ncust] [seed]
//! ```

use disc_miner::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let ncust: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_500);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    let db = QuestConfig::paper_table11()
        .with_ncust(ncust)
        .with_nitems(200)
        .with_pools(500, 1000)
        .with_seed(seed)
        .generate();
    let stats = db.stats();
    println!(
        "workload: {} customers × {:.1} transactions × {:.1} items (seed {seed})",
        stats.customers, stats.avg_transactions, stats.avg_items_per_transaction
    );

    let thresholds = [0.04, 0.02, 0.01];
    // Every registry entry but GSP, whose containment scans dominate the
    // example's runtime at these sizes, and the brute-force oracle, which
    // enumerates every subsequence of every customer.
    let miners: Vec<Box<dyn SequentialMiner>> = disc_miner::algo::ALGORITHMS
        .iter()
        .filter(|a| !matches!(a.name, "gsp" | "brute"))
        .map(|a| a.miner(None))
        .collect();

    print!("{:<18}", "minsup");
    for t in thresholds {
        print!("{:>12}", format!("{:.1}%", t * 100.0));
    }
    println!("{:>12}", "agree?");

    let mut references: Vec<Option<MiningResult>> = vec![None; thresholds.len()];
    for miner in &miners {
        print!("{:<18}", miner.name());
        let mut all_agree = true;
        for (i, &t) in thresholds.iter().enumerate() {
            let start = Instant::now();
            let result = miner.mine(&db, MinSupport::Fraction(t));
            let elapsed = start.elapsed();
            print!("{:>12}", format!("{:.0?}", elapsed));
            match &references[i] {
                None => references[i] = Some(result),
                Some(reference) => {
                    if !result.diff(reference).is_empty() {
                        all_agree = false;
                    }
                }
            }
        }
        println!("{:>12}", if all_agree { "✓" } else { "✗ MISMATCH" });
    }

    for (i, &t) in thresholds.iter().enumerate() {
        if let Some(r) = &references[i] {
            println!(
                "minsup {:>5.1}%: {} frequent sequences, longest {}",
                t * 100.0,
                r.len(),
                r.max_length()
            );
        }
    }
}
