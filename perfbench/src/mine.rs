//! `mine`: batch mining as `disc-mine <file.txt> --minsup 0.0025` does it
//! — read and parse a text database, compact item ids when worthwhile, run
//! DISC-all, render the patterns.
//!
//! The database is the `medium` row of `BENCH_simd.json` and
//! `BENCH_flat.json` (Table 11, 5 000 customers, minsup 0.0025), where the
//! packed+SIMD kernels measured their 1.57× over the flat baseline. The
//! program has no set-up of its own here, so an epoch's set-up is the
//! first, cold run on the file.

use crate::check::{self, Digest};
use crate::trace::OpTrace;
use crate::Workload;
use disc_algo::DiscAll;
use disc_core::{ItemMapping, MinSupport, SequenceDatabase, SequentialMiner};
use disc_datagen::QuestConfig;
use std::path::{Path, PathBuf};

/// Customers in the committed `medium` row.
const NCUST: usize = 5_000;
/// Minimum support of the committed `medium` row.
const MINSUP: f64 = 0.0025;
/// Patterns the committed `medium` row found.
const COMMITTED_PATTERNS: usize = 54_169;

pub struct Mine {
    file: PathBuf,
    expected: Digest,
}

impl Mine {
    /// Writes the input file under `dir` and computes the reference output.
    pub fn new(seed: u64, dir: &Path) -> Result<Mine, String> {
        let db = check::committed_db(QuestConfig::paper_table11().with_ncust(NCUST), seed);
        let file = dir.join("medium.txt");
        std::fs::write(&file, db.to_text()).map_err(|e| format!("{}: {e}", file.display()))?;
        let expected =
            check::reference(&db, MinSupport::Fraction(MINSUP), Some(COMMITTED_PATTERNS))?;
        Ok(Mine { file, expected })
    }
}

impl Workload for Mine {
    fn setup(&mut self, _dir: &Path) -> Result<(), String> {
        self.op(&mut OpTrace::off())
    }

    fn op(&self, t: &mut OpTrace) -> Result<(), String> {
        let db = t.span("parse", || {
            let text = std::fs::read_to_string(&self.file).map_err(|e| e.to_string())?;
            SequenceDatabase::from_text(&text).map_err(|e| e.to_string())
        })?;
        let minsup = MinSupport::Fraction(MINSUP);
        let mapping = t.span("compact", || ItemMapping::analyze(&db));
        let result = if mapping.is_worthwhile() {
            let compacted = t.span("compact", || mapping.remap_database(&db));
            let mined = t.span("mine", || DiscAll::default().mine(&compacted, minsup));
            t.span("compact", || mapping.restore_result(&mined))
        } else {
            t.span("mine", || DiscAll::default().mine(&db, minsup))
        };
        let bytes = t.span("render", || check::render(&result));
        self.expected.check(&self.file.display().to_string(), &bytes)
    }
}
