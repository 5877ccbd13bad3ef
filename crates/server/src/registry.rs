//! The database registry: named databases jobs mine against.
//!
//! Two registration paths, mirroring the CLI's two input worlds:
//!
//! * **upload** — the request body is a text database (`cid: (a, b)(c)`)
//!   or a `DSCDB1` binary; the parsed database is persisted under the
//!   server's data directory (as `DSCDB1`) so a restart reloads it
//!   byte-identically;
//! * **attach** — the request names a server-local path: a `.dscfd` flat
//!   file, or a durable-store directory whose data file is mapped through
//!   [`disc_core::open_fresh`]. That check is read-only — an attach never
//!   repairs or deletes a file in a directory another process may be
//!   writing — and a store whose WAL holds records its data file lacks (or
//!   that an earlier build wrote and nothing has compacted since) is
//!   refused (409 at the API layer) rather than silently mining fewer
//!   rows, exactly like `disc-mine store mine --mmap`.
//!
//! Either way the entry holds the loaded database `disc-mine` would mine
//! ([`FlatFileContents`]; an attached file stays memory-mapped), so served
//! results stay byte-identical to it, and its source fingerprint keys both
//! the result cache and job checkpoints.
//!
//! An attached file must be replaced only by rename, never changed in
//! place (see `docs/ALGORITHM.md` §16); each slice first checks
//! [`disc_core::FlatDb::file_unchanged`] and fails the job if it moved.

use disc_core::{
    durable, open_flat_file, open_fresh, DiscError, FlatFileContents, SequenceDatabase, StoreError,
    Verify,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a registration was refused. `Conflict` maps to 409, everything else
/// flows through the [`crate::status`] `DiscError` mapping.
#[derive(Debug)]
pub enum RegisterError {
    /// A name/state conflict: duplicate name, a store not compacted since
    /// its last append.
    Conflict(String),
    /// A data or IO failure from the underlying layers.
    Disc(DiscError),
}

impl From<DiscError> for RegisterError {
    fn from(e: DiscError) -> RegisterError {
        RegisterError::Disc(e)
    }
}

/// How a database entered the registry — recorded in the manifest so a
/// restart can re-register it the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbSource {
    /// Uploaded body, persisted at `dbs/<name>.dscdb`.
    Upload,
    /// Attached from a server-local path (flat file or store directory).
    Attach(PathBuf),
}

/// A registered database.
pub struct DbEntry {
    /// The registry name.
    pub name: String,
    /// The loaded database every job on this entry mines.
    pub loaded: Arc<FlatFileContents>,
    /// Provenance.
    pub source: DbSource,
}

/// The registry: name → entry, plus the persistence root.
pub struct DbRegistry {
    dbs_dir: PathBuf,
    entries: HashMap<String, Arc<DbEntry>>,
}

/// Registry names are path- and manifest-safe by construction.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        && !name.starts_with('.')
}

impl DbRegistry {
    /// A registry persisting uploads under `dbs_dir` (created on demand).
    pub fn new(dbs_dir: impl Into<PathBuf>) -> DbRegistry {
        DbRegistry { dbs_dir: dbs_dir.into(), entries: HashMap::new() }
    }

    /// Where an upload named `name` is persisted.
    pub fn upload_path(&self, name: &str) -> PathBuf {
        self.dbs_dir.join(format!("{name}.dscdb"))
    }

    /// Registers an uploaded body (text or `DSCDB1`), persisting it for
    /// restart. `persist` is off when reloading from the manifest (the
    /// file already exists and re-writing it proves nothing).
    pub fn register_upload(
        &mut self,
        name: &str,
        body: &[u8],
        persist: bool,
    ) -> Result<Arc<DbEntry>, RegisterError> {
        self.check_name_free(name)?;
        let db = parse_database(body)?;
        if persist {
            durable::create_dir_all(&self.dbs_dir)
                .map_err(|e| DiscError::from_io(&self.dbs_dir, &e))?;
            let path = self.upload_path(name);
            let bytes = disc_core::encode_database(&db);
            durable::publish(&path, &bytes, None, None).map_err(|e| DiscError::Io {
                path: e.path().to_path_buf(),
                message: e.to_string(),
                transient: e.is_transient(),
            })?;
        }
        let loaded = FlatFileContents::from_database(&db);
        Ok(self.insert(name, loaded, DbSource::Upload))
    }

    /// Registers a server-local path: a `.dscfd` flat file or a store
    /// directory (via its data file, refusing a stale one).
    pub fn register_attach(
        &mut self,
        name: &str,
        path: &Path,
    ) -> Result<Arc<DbEntry>, RegisterError> {
        self.check_name_free(name)?;
        let loaded = load_attached(path)?;
        Ok(self.insert(name, loaded, DbSource::Attach(path.to_path_buf())))
    }

    fn insert(&mut self, name: &str, loaded: FlatFileContents, source: DbSource) -> Arc<DbEntry> {
        let entry = Arc::new(DbEntry { name: name.to_string(), loaded: Arc::new(loaded), source });
        self.entries.insert(name.to_string(), Arc::clone(&entry));
        entry
    }

    /// Looks up a database by name.
    pub fn get(&self, name: &str) -> Option<Arc<DbEntry>> {
        self.entries.get(name).cloned()
    }

    /// All entries, sorted by name for stable listings.
    pub fn list(&self) -> Vec<Arc<DbEntry>> {
        let mut all: Vec<_> = self.entries.values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    fn check_name_free(&self, name: &str) -> Result<(), RegisterError> {
        if !valid_name(name) {
            return Err(RegisterError::Disc(DiscError::Config {
                option: "name".into(),
                reason: "database names are 1-64 chars of [A-Za-z0-9._-], not starting with '.'"
                    .into(),
            }));
        }
        if self.entries.contains_key(name) {
            return Err(RegisterError::Conflict(format!("database {name:?} already registered")));
        }
        Ok(())
    }
}

/// Parses an uploaded body the way `disc-mine` loads a database file:
/// `DSCDB1` by magic, text otherwise.
fn parse_database(body: &[u8]) -> Result<SequenceDatabase, DiscError> {
    if body.starts_with(b"DSCDB1\n") {
        return Ok(disc_core::decode_database(body)?);
    }
    let text = std::str::from_utf8(body).map_err(|_| DiscError::Config {
        option: "body".into(),
        reason: "neither DSCDB1 binary nor UTF-8 text".into(),
    })?;
    Ok(SequenceDatabase::from_text(text)?)
}

/// Maps an attached path zero-copy: a store directory's data file once it
/// holds every acknowledged record, or a flat file.
fn load_attached(path: &Path) -> Result<FlatFileContents, RegisterError> {
    if !path.is_dir() {
        return Ok(open_flat_file(path, Verify::Full)?);
    }
    open_fresh(path).map_err(|e| match e {
        StoreError::Stale { .. } | StoreError::LegacySnapshot { .. } => {
            RegisterError::Conflict(e.to_string())
        }
        e => RegisterError::Disc(DiscError::Store(e)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("disc-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn upload_roundtrips_both_formats_and_persists() {
        let d = dir("upload");
        let mut reg = DbRegistry::new(d.join("dbs"));
        let text = "1: (a, e, g)(b)\n2: (b)(d, f)\n";
        let entry = reg.register_upload("t1", text.as_bytes(), true).unwrap();
        assert_eq!(entry.loaded.flat.len(), 2);
        let db = SequenceDatabase::from_text(text).unwrap();
        assert_eq!(entry.loaded.fingerprint, disc_core::database_fingerprint(&db));

        // The persisted DSCDB1 reloads to the same fingerprint.
        let bytes = std::fs::read(reg.upload_path("t1")).unwrap();
        let mut reg2 = DbRegistry::new(d.join("dbs"));
        let entry2 = reg2.register_upload("t1", &bytes, false).unwrap();
        assert_eq!(entry2.loaded.fingerprint, entry.loaded.fingerprint);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn duplicate_and_invalid_names_are_refused() {
        let d = dir("names");
        let mut reg = DbRegistry::new(d.join("dbs"));
        reg.register_upload("ok-name_1", b"1: (a)\n", false).unwrap();
        assert!(matches!(
            reg.register_upload("ok-name_1", b"1: (a)\n", false),
            Err(RegisterError::Conflict(_))
        ));
        for bad in ["", "has space", "a/b", ".hidden", &"x".repeat(65)] {
            assert!(
                matches!(
                    reg.register_upload(bad, b"1: (a)\n", false),
                    Err(RegisterError::Disc(DiscError::Config { .. }))
                ),
                "name {bad:?} should be rejected"
            );
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn attached_flat_file_stays_mapped_and_matches_its_upload() {
        let d = dir("attach");
        let text = "1: (1000)(2000)\n2: (1000)\n";
        let db = SequenceDatabase::from_text(text).unwrap();
        let flat = d.join("db.dscfd");
        disc_core::write_flat_file(&flat, &disc_core::encode_database_flat_file(&db)).unwrap();

        let mut reg = DbRegistry::new(d.join("dbs"));
        let attached = reg.register_attach("flat", &flat).unwrap().loaded.clone();
        // The columns borrow from the mapping: no heap copy of the file.
        #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
        assert!(attached.is_mapped());
        // Same database, same loaded value: fingerprint (cache key), compact
        // columns, and the dictionary back to the original sparse ids.
        let uploaded = reg.register_upload("text", text.as_bytes(), false).unwrap().loaded.clone();
        assert_eq!(attached.fingerprint, uploaded.fingerprint);
        assert_eq!(attached.flat.columns(), uploaded.flat.columns());
        assert_eq!(attached.mapping, uploaded.mapping);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn attaching_a_missing_or_garbage_path_is_a_typed_error() {
        let d = dir("badattach");
        let mut reg = DbRegistry::new(d.join("dbs"));
        assert!(matches!(
            reg.register_attach("gone", &d.join("nope.dscfd")),
            Err(RegisterError::Disc(_))
        ));
        let garbage = d.join("garbage.dscfd");
        std::fs::write(&garbage, b"not a flat file at all").unwrap();
        assert!(matches!(reg.register_attach("bad", &garbage), Err(RegisterError::Disc(_))));
        let _ = std::fs::remove_dir_all(&d);
    }
}
