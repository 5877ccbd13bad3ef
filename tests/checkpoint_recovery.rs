//! The crash-recovery gate: every miner, killed at **every** snapshot-write
//! crash point, must resume to a frequent set **bit-identical** to an
//! uninterrupted run — and a corrupted, truncated, or foreign snapshot must
//! be rejected with a typed error, never partially loaded.
//!
//! CI runs this suite once per thread count (1, 2, 4) in release mode via
//! the `DISC_DETERMINISM_THREADS` environment variable; without it every
//! count is exercised in-process. Checkpoint directories live under
//! `DISC_CKPT_DIR` when set (CI points it at a workspace path so the last
//! failing snapshot can be uploaded as an artifact); on success each test
//! removes its directories.

use disc_miner::core::{
    database_fingerprint, encode_database_flat_file, open_flat_file, read_snapshot,
    write_flat_file, CheckpointCrash, FaultPlan, FlatFileContents, Verify,
};
use disc_miner::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Every injected crash mode, in write-protocol order.
const CRASHES: [CheckpointCrash; 4] = [
    CheckpointCrash::TornTempWrite,
    CheckpointCrash::CrashBeforeRename,
    CheckpointCrash::CorruptSection,
    CheckpointCrash::StaleVersion,
];

/// A workload with enough first-level partitions that mid-run crash points
/// are plentiful, yet small enough for debug builds.
fn workload() -> SequenceDatabase {
    QuestConfig::paper_table11()
        .with_ncust(80)
        .with_nitems(24)
        .with_pools(24, 48)
        .with_slen(4.0)
        .with_seed(31)
        .generate()
}

const MINSUP: MinSupport = MinSupport::Fraction(0.15);

/// Checkpoint directories go under `DISC_CKPT_DIR` when set so CI can
/// upload whatever a failing test leaves behind.
fn ckpt_root() -> PathBuf {
    match std::env::var("DISC_CKPT_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => std::env::temp_dir(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = ckpt_root().join(format!("ckpt-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Parallel thread counts under test: `DISC_DETERMINISM_THREADS`
/// (comma-separated) when set — CI's matrix sets one per job — else 1, 2, 4.
fn thread_counts() -> Vec<usize> {
    match std::env::var("DISC_DETERMINISM_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad DISC_DETERMINISM_THREADS entry {s:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn assert_identical(label: &str, got: &MiningResult, reference: &MiningResult) {
    let diff = got.diff(reference);
    assert!(
        diff.is_empty(),
        "{label} differs from the uninterrupted run ({} lines):\n{}",
        diff.len(),
        diff.join("\n")
    );
}

/// The workload as a checkpointed run receives it.
enum Input {
    /// The nested database, through `SequentialMiner::mine_guarded`.
    Nested(SequenceDatabase),
    /// Its `.dscfd` file mapped by `open_flat_file`, through the flat entry
    /// `Resumable::mine_loaded`; results are restored to original ids.
    Mapped(FlatFileContents),
}

impl Input {
    fn mine<M: Checkpointable>(&self, wrapped: &Resumable<M>, guard: &MineGuard) -> GuardedResult {
        match self {
            Input::Nested(db) => wrapped.mine_guarded(db, MINSUP, guard),
            Input::Mapped(loaded) => {
                let mut run = wrapped.mine_loaded(loaded, MINSUP, guard);
                run.result = loaded.restore(run.result);
                run
            }
        }
    }
}

/// The matrix core: discover how many snapshot writes a clean checkpointed
/// run of `make()` on `input` performs, then kill the run at every (crash
/// mode, write index) pair and assert the resumed result is bit-identical
/// to an uncheckpointed run on the nested workload.
fn crash_matrix<M: Checkpointable>(tag: &str, input: &Input, make: impl Fn() -> M) {
    let reference = make().mine(&workload(), MINSUP);
    assert!(!reference.is_empty(), "workload must produce patterns");

    // Clean checkpointed run: also the baseline for the write count.
    let dir = fresh_dir(&format!("{tag}-clean"));
    let wrapped = Resumable::new(make(), &dir);
    let clean = input.mine(&wrapped, &MineGuard::unlimited());
    assert!(clean.outcome.is_complete());
    assert_identical(&format!("{tag} clean checkpointed run"), &clean.result, &reference);
    let writes = wrapped.last_stats().writes;
    assert!(writes >= 2, "{tag}: need ≥ 2 snapshot writes for a meaningful matrix, got {writes}");
    let _ = fs::remove_dir_all(&dir);

    for crash in CRASHES {
        for write_n in 1..=writes {
            let label = format!("{tag}-{crash:?}-w{write_n}");
            let dir = fresh_dir(&label);
            let wrapped = Resumable::new(make(), &dir);
            let guard = MineGuard::unlimited()
                .with_checkpoint_interval(1)
                .with_fault(FaultPlan::crash_at_snapshot_write(write_n, crash));
            let run = input.mine(&wrapped, &guard);
            assert_eq!(
                run.outcome,
                MineOutcome::Partial { reason: AbortReason::Panicked },
                "{label}: the injected crash must kill the run"
            );
            // Whatever the crash left on disk — an older snapshot, a torn
            // temp file, a corrupted or stale final file — the next guarded
            // run must recover to the exact frequent set.
            let resumed = input.mine(&wrapped, &MineGuard::unlimited());
            assert!(resumed.outcome.is_complete(), "{label}: resume must complete");
            assert_identical(&label, &resumed.result, &reference);
            // Success: clean up. (A failed assert leaves the directory for
            // CI's artifact upload.)
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn disc_all_resumes_bit_identical_from_every_crash_point() {
    crash_matrix("disc-all", &Input::Nested(workload()), DiscAll::default);
}

#[test]
fn disc_all_on_a_mapped_flat_file_resumes_bit_identical_from_every_crash_point() {
    let dir = fresh_dir("flat-file");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("workload.dscfd");
    write_flat_file(&path, &encode_database_flat_file(&workload())).unwrap();
    let loaded = open_flat_file(&path, Verify::Full).unwrap();
    crash_matrix("disc-all-mapped", &Input::Mapped(loaded), DiscAll::default);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dynamic_resumes_bit_identical_from_every_crash_point() {
    crash_matrix("dynamic", &Input::Nested(workload()), DynamicDiscAll::default);
}

#[test]
fn parallel_resumes_bit_identical_from_every_crash_point() {
    for threads in thread_counts() {
        let input = Input::Nested(workload());
        crash_matrix(&format!("parallel-{threads}"), &input, || {
            ParallelDiscAll::with_threads(threads)
        });
    }
}

#[test]
fn repeated_crashes_converge() {
    // Crash at a later write each attempt; every resume keeps the previous
    // durable boundary and the final unconstrained attempt completes.
    let db = workload();
    let reference = DiscAll::default().mine(&db, MINSUP);
    let dir = fresh_dir("repeated");
    let wrapped = Resumable::new(DiscAll::default(), &dir);
    for write_n in 1..=3u64 {
        let guard = MineGuard::unlimited().with_checkpoint_interval(1).with_fault(
            FaultPlan::crash_at_snapshot_write(write_n, CheckpointCrash::TornTempWrite),
        );
        let run = wrapped.mine_guarded(&db, MINSUP, &guard);
        assert_eq!(run.outcome, MineOutcome::Partial { reason: AbortReason::Panicked });
    }
    let run = wrapped.mine_guarded(&db, MINSUP, &MineGuard::unlimited());
    assert!(run.outcome.is_complete());
    assert_identical("repeated crash chain", &run.result, &reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn budget_abort_writes_checkpoint_and_resume_completes() {
    let db = workload();
    let reference = DiscAll::default().mine(&db, MINSUP);
    let dir = fresh_dir("budget");
    let wrapped = Resumable::new(DiscAll::default(), &dir);
    let guard = MineGuard::new(CancelToken::new(), ResourceBudget::unlimited().with_max_ops(1_500))
        .with_checkpoint_interval(1);
    let first = wrapped.mine_guarded(&db, MINSUP, &guard);
    assert_eq!(first.outcome, MineOutcome::Partial { reason: AbortReason::BudgetExhausted });
    // The cooperative abort recorded its durable state in the outcome.
    assert_eq!(first.checkpoint.as_deref(), Some(wrapped.checkpoint_path().as_path()));
    let resumed = wrapped.mine_guarded(&db, MINSUP, &MineGuard::unlimited());
    assert!(resumed.outcome.is_complete());
    assert_identical("budget abort resume", &resumed.result, &reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fallback_chain_records_the_aborted_stage_checkpoint() {
    // A Resumable first stage dies mid-snapshot-write; the fallback stage
    // answers the request, and the stage report carries the checkpoint path
    // so a later run can resume the interrupted DISC mine.
    let db = workload();
    let reference = DiscAll::default().mine(&db, MINSUP);
    let dir = fresh_dir("fallback");
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let chain = FallbackMiner::new(vec![
        Box::new(Resumable::new(DiscAll::default(), &dir)),
        Box::new(PrefixSpan::default()),
    ]);
    let guard = MineGuard::unlimited()
        .with_checkpoint_interval(1)
        .with_fault(FaultPlan::crash_at_snapshot_write(2, CheckpointCrash::TornTempWrite));
    let (run, reports) = chain.run(&db, MINSUP, &guard);
    assert!(run.outcome.is_complete(), "the fallback stage completes the request");
    assert_identical("fallback final result", &run.result, &reference);
    assert_eq!(reports.len(), 2);
    assert_eq!(
        reports[0].checkpoint.as_deref(),
        Some(ckpt_path.as_path()),
        "the aborted stage must report where its durable state lives"
    );
    assert_eq!(reports[1].checkpoint, None, "PrefixSpan does not checkpoint");
    // The recorded checkpoint is genuinely resumable.
    let resumed = Resumable::new(DiscAll::default(), &dir)
        .resume_from(&ckpt_path, &db, MINSUP, &MineGuard::unlimited())
        .expect("the stage's checkpoint is valid");
    assert!(resumed.outcome.is_complete());
    assert_identical("resume from fallback stage checkpoint", &resumed.result, &reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected_not_loaded() {
    let db = workload();
    let dir = fresh_dir("corrupt");
    let wrapped = Resumable::new(DiscAll::default(), &dir);
    let reference = wrapped.mine(&db, MINSUP);
    let path = wrapped.checkpoint_path();
    let pristine = fs::read(&path).expect("clean run leaves a snapshot");
    read_snapshot(&path).expect("pristine snapshot loads");

    // Single-byte corruption at a spread of offsets: typed rejection.
    for offset in [0, 3, 8, pristine.len() / 3, pristine.len() / 2, pristine.len() - 2] {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let err = wrapped
            .resume_from(&path, &db, MINSUP, &MineGuard::unlimited())
            .expect_err("corruption must be rejected");
        let msg = err.to_string();
        assert!(!msg.is_empty());
        // And auto-resume treats it as absent rather than trusting it.
        let run = wrapped.mine_guarded(&db, MINSUP, &MineGuard::unlimited());
        assert!(run.outcome.is_complete());
        assert_identical(
            &format!("fresh run after corruption at {offset}"),
            &run.result,
            &reference,
        );
        fs::write(&path, &pristine).unwrap();
    }

    // Truncation at every prefix length that cuts inside the file.
    for cut in [0, 1, CHECKPOINT_MAGIC_LEN, pristine.len() / 2, pristine.len() - 1] {
        fs::write(&path, &pristine[..cut]).unwrap();
        wrapped
            .resume_from(&path, &db, MINSUP, &MineGuard::unlimited())
            .expect_err("truncation must be rejected");
        fs::write(&path, &pristine).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Length of the `DSCCK1\n` magic prefix.
const CHECKPOINT_MAGIC_LEN: usize = 7;

#[test]
fn foreign_database_and_wrong_delta_are_rejected() {
    let db = workload();
    let other = QuestConfig::paper_table11()
        .with_ncust(80)
        .with_nitems(24)
        .with_pools(24, 48)
        .with_slen(4.0)
        .with_seed(32) // same shape, different data
        .generate();
    let dir = fresh_dir("foreign");
    let wrapped = Resumable::new(DiscAll::default(), &dir);
    wrapped.mine(&db, MINSUP);
    let path = wrapped.checkpoint_path();

    let err = wrapped
        .resume_from(&path, &other, MINSUP, &MineGuard::unlimited())
        .expect_err("foreign database must be rejected");
    assert!(
        matches!(err, CheckpointError::FingerprintMismatch { .. }),
        "expected FingerprintMismatch, got {err:?}"
    );

    let err = wrapped
        .resume_from(&path, &db, MinSupport::Fraction(0.5), &MineGuard::unlimited())
        .expect_err("different δ must be rejected");
    assert!(
        matches!(err, CheckpointError::DeltaMismatch { .. }),
        "expected DeltaMismatch, got {err:?}"
    );

    // Auto-resume on the foreign database ignores the snapshot and mines
    // fresh — atomically replacing it with its own.
    let reference_other = DiscAll::default().mine(&other, MINSUP);
    let run = wrapped.mine_guarded(&other, MINSUP, &MineGuard::unlimited());
    assert!(run.outcome.is_complete());
    assert_identical("fresh run over foreign snapshot", &run.result, &reference_other);
    let snap = read_snapshot(&path).expect("replaced snapshot loads");
    snap.validate(database_fingerprint(&other), other.len(), MINSUP.resolve(other.len()))
        .expect("snapshot now belongs to `other`");
    let _ = fs::remove_dir_all(&dir);
}
