//! The durable-store benchmark: what WAL-backed ingestion costs.
//!
//! Ingests the flat-bench smoke workload (Table 11 generator, 1 000
//! customers) into a fresh [`SequenceStore`] under each sync policy, then
//! times the recovery and compaction paths on the fully-synced store:
//!
//! | row | what is timed |
//! |---|---|
//! | `ingest-always` | append + fsync per record ([`SyncPolicy::Always`]) |
//! | `ingest-every-64` | fsync every 64th append |
//! | `ingest-never` | no fsync until the closing seal |
//! | `recover-wal` | reopen: full WAL segment replay |
//! | `compact` | fold every segment into a verified snapshot |
//! | `recover-snapshot` | reopen: snapshot load, no replay |
//!
//! The recovered view is mined and checked bit-identical to mining the
//! generator's database directly — the benchmark doubles as an end-to-end
//! ingest→recover→mine agreement gate.
//!
//! Like the checkpoint benchmark, this is **exempt from the
//! bench-regression gate**: fsync latency varies wildly across CI machines
//! and filesystems, so the numbers are informational (persisted to
//! `target/experiments/bench_store.json`) and never compared against a
//! committed baseline.

use crate::report::{persist, ToJson};
use crate::runner::assert_agreement;
use crate::workloads::{fig8_db, WorkloadCache};
use disc_algo::DiscAll;
use disc_core::{MinSupport, SequenceStore, SequentialMiner, StoreConfig, SyncPolicy};
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Same fixed seed and threshold as the flat benchmark.
const SEED: u64 = 20040330;
/// Minimum support for the agreement check (the Figure 8 threshold).
const MINSUP: f64 = 0.0025;
/// Customers in the workload (the flat-bench `smoke` size).
const NCUST: usize = 1_000;
/// Small segments so compaction genuinely folds a run of them.
const SEGMENT_BYTES: u64 = 64 * 1024;

/// One timed store operation.
#[derive(Debug, Clone)]
pub struct StoreRun {
    /// Row name (see the module table).
    pub name: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Rows ingested or recovered.
    pub rows: usize,
    /// Rows per second.
    pub rows_per_sec: f64,
    /// Bytes on disk in the store directory afterwards.
    pub bytes: u64,
    /// WAL segment files afterwards.
    pub segments: usize,
}

impl ToJson for StoreRun {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"seconds\":{},\"rows\":{},\"rows_per_sec\":{},\"bytes\":{},\"segments\":{}}}",
            self.name.to_string().to_json(),
            self.seconds.to_json(),
            self.rows.to_json(),
            self.rows_per_sec.to_json(),
            (self.bytes as usize).to_json(),
            self.segments.to_json(),
        )
    }
}

/// Total bytes and WAL segment count inside a store directory.
fn dir_usage(dir: &Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut segments = 0;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                bytes += meta.len();
            }
            if entry.path().extension().is_some_and(|x| x == "dscwl") {
                segments += 1;
            }
        }
    }
    (bytes, segments)
}

fn row(name: &'static str, seconds: f64, rows: usize, dir: &Path) -> StoreRun {
    let (bytes, segments) = dir_usage(dir);
    StoreRun { name, seconds, rows, rows_per_sec: rows as f64 / seconds.max(1e-9), bytes, segments }
}

/// Runs the store benchmark and persists the report to
/// `target/experiments/bench_store.json`.
pub fn run() -> Vec<StoreRun> {
    println!("## Durable store benchmark (Table 11 smoke, {NCUST} customers)\n");
    let cache = WorkloadCache::new();
    let db = cache.get(&fig8_db(NCUST, SEED));
    let root = std::env::temp_dir().join(format!("disc-store-bench-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);

    let mut runs = Vec::new();
    let policies = [
        ("ingest-always", SyncPolicy::Always),
        ("ingest-every-64", SyncPolicy::EveryN(64)),
        ("ingest-never", SyncPolicy::Never),
    ];
    for (name, sync) in policies {
        let dir = root.join(name);
        let cfg = StoreConfig { sync, segment_max_bytes: SEGMENT_BYTES };
        let start = Instant::now();
        let mut store = SequenceStore::open(&dir, cfg).expect("open fresh store");
        for r in db.rows() {
            store.append(r.cid, r.sequence.clone()).expect("append");
        }
        store.close().expect("close");
        runs.push(row(name, start.elapsed().as_secs_f64(), db.len(), &dir));
    }

    // Recovery and compaction are timed on the fully-synced store.
    let dir = root.join("ingest-always");
    let cfg = StoreConfig { segment_max_bytes: SEGMENT_BYTES, ..StoreConfig::default() };

    let start = Instant::now();
    let store = SequenceStore::open(&dir, cfg).expect("recover from WAL");
    let wal_recover = start.elapsed().as_secs_f64();
    assert_eq!(store.len(), db.len(), "WAL replay must restore every row");
    runs.push(row("recover-wal", wal_recover, store.len(), &dir));

    let mut store = store;
    let start = Instant::now();
    let report = store.compact().expect("compact");
    let compact_seconds = start.elapsed().as_secs_f64();
    store.close().expect("close");
    runs.push(row("compact", compact_seconds, report.rows, &dir));

    let start = Instant::now();
    let store = SequenceStore::open(&dir, cfg).expect("recover from snapshot");
    let snap_recover = start.elapsed().as_secs_f64();
    assert_eq!(store.recovery_report().snapshot_rows, db.len());
    runs.push(row("recover-snapshot", snap_recover, store.len(), &dir));

    // End-to-end agreement: mining the recovered view is bit-identical to
    // mining the generator's database directly.
    let minsup = MinSupport::Fraction(MINSUP);
    let reference = DiscAll::default().mine(&db, minsup);
    let got = DiscAll::default().mine(&store.view(), minsup);
    assert_agreement("store-recovered view", &got, &reference);
    println!(
        "mine-from-view agreement: {} patterns, fingerprint {:#018x}\n",
        got.len(),
        store.fingerprint()
    );
    drop(store);
    let _ = fs::remove_dir_all(&root);

    println!("| row | seconds | rows | rows/s | KiB on disk | segments |");
    println!("|---|---|---|---|---|---|");
    for r in &runs {
        println!(
            "| {} | {:.4} | {} | {:.0} | {:.1} | {} |",
            r.name,
            r.seconds,
            r.rows,
            r.rows_per_sec,
            r.bytes as f64 / 1024.0,
            r.segments,
        );
    }
    println!();
    let _ = persist("bench_store", &runs);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_run_json_has_the_throughput_fields() {
        let run = StoreRun {
            name: "ingest-always",
            seconds: 0.25,
            rows: 1000,
            rows_per_sec: 4000.0,
            bytes: 65536,
            segments: 3,
        };
        let json = run.to_json();
        assert!(json.contains("\"rows_per_sec\":4000"), "got {json}");
        assert!(json.contains("\"segments\":3"), "got {json}");
        assert!(json.contains("\"bytes\":65536"), "got {json}");
    }
}
