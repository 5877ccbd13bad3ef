//! The fingerprint-keyed result cache.
//!
//! Serving workloads issue many queries over few databases at varying
//! thresholds, so a repeat query must not re-mine. The key is
//! `(database fingerprint, δ, algorithm, mode)`:
//!
//! * the **fingerprint** is the FNV-1a hash of the registered database
//!   ([`disc_core::database_fingerprint`]) — the same value checkpoints are
//!   validated against, so "same database" means byte-identical contents,
//!   not same name;
//! * **δ** is the *resolved* support count, so `minsup=0.5` and `delta=N/2`
//!   on the same database share one entry;
//! * the **algorithm** is part of the key even though every complete miner
//!   returns the same pattern set — a cached entry must attest which engine
//!   produced it, and partial/budget-limited configurations differ;
//! * the **mode** (`all` / `closed` / `maximal`) selects which projection
//!   of the frequent set was rendered.
//!
//! Entries hold the fully rendered result lines (support + pattern text in
//! comparative order — exactly the bytes `disc-mine` prints), so a cache
//! hit is a clone of an `Arc`, no re-rendering. Eviction is LRU by entry
//! count; hits refresh recency.

use crate::job::{JobSpec, Mode};
use std::collections::HashMap;
use std::sync::Arc;

/// A cache key. See the module docs for field semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a fingerprint of the database contents.
    pub fingerprint: u64,
    /// Resolved minimum-support count δ.
    pub delta: u64,
    /// The registry name of the algorithm submitted.
    pub algo: &'static str,
    /// Result projection.
    pub mode: Mode,
}

impl CacheKey {
    /// The key of `spec`'s query against the database with `fingerprint`.
    pub fn of(fingerprint: u64, spec: &JobSpec) -> CacheKey {
        CacheKey { fingerprint, delta: spec.delta, algo: spec.algo.name, mode: spec.mode }
    }
}

/// A finished, rendered mining result — what jobs produce and the cache
/// stores. `lines` are `(support, pattern-text)` in comparative order.
#[derive(Debug)]
pub struct RenderedResult {
    /// `(support, pattern)` rows, comparative order.
    pub lines: Vec<(u64, String)>,
    /// Total frequent sequences before any mode projection.
    pub total_patterns: usize,
}

impl RenderedResult {
    /// Renders rows `offset..offset+limit` with a minimum pattern length,
    /// in the exact `"{support}\t{pattern}\n"` byte format of `disc-mine`.
    pub fn render(&self, min_length: usize, offset: usize, limit: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for (support, pattern) in self
            .lines
            .iter()
            .filter(|(_, p)| min_length <= 1 || pattern_length(p) >= min_length)
            .skip(offset)
            .take(limit)
        {
            out.extend_from_slice(support.to_string().as_bytes());
            out.push(b'\t');
            out.extend_from_slice(pattern.as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// Items in a rendered pattern = commas + itemsets. `(a,g)(b)` has one
/// comma and two itemsets: length 3. Cheaper than re-parsing and exact for
/// the canonical `Display` format the lines were rendered from.
fn pattern_length(p: &str) -> usize {
    let commas = p.matches(',').count();
    let sets = p.matches('(').count();
    commas + sets
}

/// An LRU map from [`CacheKey`] to [`RenderedResult`], plus hit/miss
/// counters for observability (the acceptance check that a repeat query
/// never re-mines reads these alongside the mine-invocation counter).
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Arc<RenderedResult>>,
    /// Keys in recency order, oldest first. Entry count is small (the
    /// capacity default is 64), so O(n) recency updates are fine.
    order: Vec<CacheKey>,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache evicting beyond `capacity` entries (clamped to at least 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<RenderedResult>> {
        match self.map.get(key) {
            Some(v) => {
                self.hits += 1;
                let pos = self.order.iter().position(|k| k == key).expect("order tracks map");
                let k = self.order.remove(pos);
                self.order.push(k);
                Some(Arc::clone(v))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// entry beyond capacity.
    pub fn insert(&mut self, key: CacheKey, value: Arc<RenderedResult>) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push(key);
        } else {
            let pos = self.order.iter().position(|k| *k == key).expect("order tracks map");
            let k = self.order.remove(pos);
            self.order.push(k);
        }
        while self.map.len() > self.capacity {
            let oldest = self.order.remove(0);
            self.map.remove(&oldest);
        }
    }

    /// `(hits, misses, live entries)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        (self.hits, self.misses, self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(delta: u64) -> CacheKey {
        CacheKey { fingerprint: 7, delta, algo: "disc-all", mode: Mode::All }
    }

    fn value() -> Arc<RenderedResult> {
        Arc::new(RenderedResult {
            lines: vec![(3, "(a)".into()), (2, "(a, g)(b)".into())],
            total_patterns: 2,
        })
    }

    #[test]
    fn hits_refresh_recency_and_misses_count() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), value());
        cache.insert(key(2), value());
        assert!(cache.get(&key(1)).is_some()); // 1 now most recent
        cache.insert(key(3), value()); // evicts 2
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let (hits, misses, live) = cache.stats();
        assert_eq!((hits, misses, live), (3, 1, 2));
    }

    #[test]
    fn render_paginates_in_comparative_order() {
        let v = value();
        assert_eq!(v.render(1, 0, usize::MAX), b"3\t(a)\n2\t(a, g)(b)\n");
        assert_eq!(v.render(1, 1, 1), b"2\t(a, g)(b)\n");
        assert_eq!(v.render(1, 2, 10), b"");
        // min_length filters exactly like `disc-mine --min-length`.
        assert_eq!(v.render(3, 0, usize::MAX), b"2\t(a, g)(b)\n");
    }

    #[test]
    fn pattern_length_matches_display_format() {
        assert_eq!(pattern_length("(a)"), 1);
        assert_eq!(pattern_length("(a, g)(b)"), 3);
        assert_eq!(pattern_length("(a, b, c)"), 3);
    }
}
