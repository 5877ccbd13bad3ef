//! Checkpoint/resume: durable mining that survives budget exhaustion,
//! simulated crashes mid-snapshot-write, and on-disk corruption — always
//! finishing with a result bit-identical to an uninterrupted run.
//!
//! ```text
//! cargo run --example checkpoint_resume
//! ```

use disc_miner::core::{read_snapshot, CheckpointCrash, FaultPlan, FlatFileContents};
use disc_miner::prelude::*;
use std::fs;
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("disc-ckpt-example-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn main() {
    // A Quest-style workload with enough first-level partitions that a
    // starved run stops somewhere in the middle.
    let db = QuestConfig::paper_table11()
        .with_ncust(400)
        .with_nitems(60)
        .with_pools(60, 120)
        .with_seed(7)
        .generate();
    let minsup = MinSupport::Fraction(0.10);
    let reference = DiscAll::default().mine(&db, minsup);
    println!(
        "workload: {} customers; uninterrupted run finds {} patterns\n",
        db.len(),
        reference.len()
    );

    // Act 1: a budget-starved run aborts mid-mine, but every completed
    // partition boundary was made durable on the way.
    println!("act 1: run under a tight ops budget, checkpointing every boundary");
    let budget_dir = fresh_dir("budget");
    let miner = Resumable::new(DiscAll::default(), &budget_dir);
    let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_ops(2_000))
        .with_checkpoint_interval(1);
    let run = miner.mine_guarded(&db, minsup, &guard);
    let stats = miner.last_stats();
    println!(
        "  outcome: {:?} — {} patterns so far, {} snapshot writes ({} bytes)",
        run.outcome,
        run.result.len(),
        stats.writes,
        stats.bytes
    );
    assert!(!run.outcome.is_complete(), "expected the budget to fire");
    let checkpoint = run.checkpoint.clone().expect("abort left a durable checkpoint");
    println!("  checkpoint recorded in the outcome: {}", checkpoint.display());

    // Act 2: explicit resume from that file completes bit-identically. It
    // goes through the loaded-database entry every input ends up at (a
    // `.dscfd` file would come from `open_flat_file`): the snapshot is keyed
    // on the source fingerprint, whichever way the database was loaded.
    println!("\nact 2: resume from the snapshot with an unlimited budget");
    let loaded = FlatFileContents::from_database(&db);
    let resumed = miner
        .resume_loaded_from(&checkpoint, &loaded, minsup, &MineGuard::unlimited())
        .expect("a snapshot this process just wrote is valid");
    assert!(resumed.outcome.is_complete());
    let result = loaded.restore(resumed.result);
    assert!(result.diff(&reference).is_empty());
    println!("  {} patterns — bit-identical to the uninterrupted run ✓", result.len());

    // Act 3: a crash injected *inside* the snapshot writer. The process
    // "dies" (a panic the guard contains) while the second snapshot's temp
    // file is half-written; the atomic-rename protocol means the previous
    // snapshot is untouched, so resume still works.
    println!("\nact 3: kill the process mid-snapshot-write, then resume");
    let dir = fresh_dir("crash");
    let miner = Resumable::new(DiscAll::default(), &dir);
    let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited())
        .with_checkpoint_interval(1)
        .with_fault(FaultPlan::crash_at_snapshot_write(2, CheckpointCrash::TornTempWrite));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the demo output clean
    let run = miner.mine_guarded(&db, minsup, &guard);
    std::panic::set_hook(prev_hook);
    println!("  outcome: {:?}", run.outcome);
    assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
    let survivor =
        read_snapshot(&miner.checkpoint_path()).expect("write 1 survives the torn write 2");
    println!(
        "  surviving snapshot: {} partitions done, {} patterns",
        survivor.done.len(),
        survivor.patterns.len()
    );
    let resumed = miner.mine_guarded(&db, minsup, &MineGuard::unlimited());
    assert!(resumed.outcome.is_complete());
    assert!(resumed.result.diff(&reference).is_empty());
    println!("  resumed to {} patterns — bit-identical ✓", resumed.result.len());

    // Act 4: corruption on disk. Explicit resume rejects it with a typed
    // error; auto-resume ignores it and atomically replaces it.
    println!("\nact 4: flip a byte in the snapshot file");
    let path = miner.checkpoint_path();
    let mut bytes = fs::read(&path).expect("snapshot file exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("rewrite corrupted snapshot");
    let err = miner
        .resume_from(&path, &db, minsup, &MineGuard::unlimited())
        .expect_err("corruption must be detected");
    println!("  explicit resume rejects it: {err}");
    let run = miner.mine_guarded(&db, minsup, &MineGuard::unlimited());
    assert!(run.outcome.is_complete());
    assert!(run.result.diff(&reference).is_empty());
    println!("  auto-resume starts fresh and still matches: {} patterns ✓", run.result.len());

    let _ = fs::remove_dir_all(budget_dir);
    let _ = fs::remove_dir_all(dir);
}
