//! `ingest`: durable ingest into the WAL-backed store, then mining what it
//! acknowledged through the columnar mirror — `disc-mine store ingest`,
//! `store compact` and `store mine --mmap` in one operation.
//!
//! The database is the `medium` row of `BENCH_mmap.json` (Figure 9
//! setting, pools 50/500, 5 000 customers, minsup 0.5): out-of-core mining
//! is about big inputs, not big outputs, so the store and the mapped file
//! carry most of the work. The store syncs its log every [`SYNC_EVERY`]
//! appends, the batched policy of the store benchmark's `ingest-every-64`
//! row: with an fsync per append the figures followed the host's disk,
//! which slowed by up to half for minutes at a time. An epoch's set-up
//! builds a compacted store of the first [`BASE`] customers. Each
//! operation starts from an untimed copy of that store, so every operation
//! does the same work however many ran before: recover the store from its
//! snapshot, append the other customers, compact (snapshot plus `DSCFD1`
//! mirror), map and verify the mirror, mine it with DISC-all, render.

use crate::check::{self, Digest};
use crate::trace::OpTrace;
use crate::Workload;
use disc_algo::DiscAll;
use disc_core::{
    open_flat_file, MinSupport, SequenceDatabase, SequenceStore, StoreConfig, SyncPolicy, Verify,
};
use disc_datagen::QuestConfig;
use std::path::{Path, PathBuf};

/// Appends between two syncs of the store's log.
const SYNC_EVERY: u64 = 64;
/// Customers in the committed `medium` row.
const NCUST: usize = 5_000;
/// Customers in the store before each operation; the operation appends
/// the rest.
const BASE: usize = 4_500;
/// Minimum support of the committed row.
const MINSUP: f64 = 0.5;
/// Patterns the committed `medium` row found.
const COMMITTED_PATTERNS: usize = 14;

pub struct Ingest {
    db: SequenceDatabase,
    expected: Digest,
    /// The current epoch's directory, once set up.
    dir: Option<PathBuf>,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
    }
    Ok(())
}

fn store_config() -> StoreConfig {
    StoreConfig { sync: SyncPolicy::EveryN(SYNC_EVERY), ..StoreConfig::default() }
}

fn store_err(what: &str) -> impl Fn(disc_core::StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Ingest {
    pub fn new(seed: u64) -> Result<Ingest, String> {
        let config = QuestConfig::paper_fig9().with_ncust(NCUST).with_pools(50, 500);
        let db = check::committed_db(config, seed);
        let expected =
            check::reference(&db, MinSupport::Fraction(MINSUP), Some(COMMITTED_PATTERNS))?;
        Ok(Ingest { db, expected, dir: None })
    }

    fn dir(&self) -> Result<&Path, String> {
        self.dir.as_deref().ok_or_else(|| "no epoch set up".to_string())
    }
}

impl Workload for Ingest {
    fn setup(&mut self, dir: &Path) -> Result<(), String> {
        let pristine = dir.join("pristine");
        let mut store =
            SequenceStore::open(&pristine, store_config()).map_err(store_err("open"))?;
        for r in &self.db.rows()[..BASE] {
            store.append(r.cid, r.sequence.clone()).map_err(store_err("append"))?;
        }
        store.compact().map_err(store_err("compact"))?;
        store.close().map_err(store_err("close"))?;
        self.dir = Some(dir.to_path_buf());
        Ok(())
    }

    fn prepare(&self) -> Result<(), String> {
        let dir = self.dir()?;
        copy_dir(&dir.join("pristine"), &dir.join("op"))
    }

    fn op(&self, t: &mut OpTrace) -> Result<(), String> {
        let dir = self.dir()?.join("op");
        let mut store = t
            .span("store_recover", || SequenceStore::open(&dir, store_config()))
            .map_err(store_err("recover"))?;
        t.span("store_append", || -> Result<(), String> {
            for r in &self.db.rows()[BASE..] {
                store.append(r.cid, r.sequence.clone()).map_err(store_err("append"))?;
            }
            Ok(())
        })?;
        let flat_path = t.span("store_compact", || -> Result<PathBuf, String> {
            store.compact().map_err(store_err("compact"))?;
            let path = store.flat_file_path();
            store.close().map_err(store_err("close"))?;
            Ok(path)
        })?;
        let contents = t
            .span("flatfile_map", || open_flat_file(&flat_path, Verify::Full))
            .map_err(|e| format!("map {}: {e}", flat_path.display()))?;
        let minsup = MinSupport::Fraction(MINSUP);
        let mined = t.span("mine", || DiscAll::default().mine_flat(&contents.flat, minsup));
        let result = t.span("compact", || contents.mapping.restore_result(&mined));
        let bytes = t.span("render", || check::render(&result));
        self.expected.check("store after ingest", &bytes)
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.dir = None;
        Ok(())
    }
}
