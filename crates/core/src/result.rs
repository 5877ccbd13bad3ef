//! The [`MiningResult`] container: frequent sequences with exact supports.

use crate::sequence::Sequence;
use std::collections::BTreeMap;
use std::fmt;

/// The output of a miner: every frequent sequence with its exact support
/// count, canonically ordered (by length, then comparative order) so results
/// from different algorithms compare structurally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningResult {
    by_pattern: BTreeMap<Sequence, u64>,
}

impl MiningResult {
    /// An empty result.
    pub fn new() -> MiningResult {
        MiningResult::default()
    }

    /// Builds from `(pattern, support)` pairs. Duplicate patterns must agree
    /// on their support (panics otherwise — a miner emitting two different
    /// supports for one pattern is broken).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Sequence, u64)>) -> MiningResult {
        let mut r = MiningResult::new();
        for (p, s) in pairs {
            r.insert(p, s);
        }
        r
    }

    /// Records one frequent pattern.
    ///
    /// # Panics
    /// If the pattern was already recorded with a different support.
    pub fn insert(&mut self, pattern: Sequence, support: u64) {
        // One tree descent for both the duplicate check and the insert —
        // this is a comparison hot path (every descent is a cmp_sequences
        // chain) once results reach hundreds of thousands of patterns.
        match self.by_pattern.entry(pattern) {
            std::collections::btree_map::Entry::Occupied(e) => {
                let old = *e.get();
                assert_eq!(
                    old,
                    support,
                    "pattern {} recorded twice with supports {old} and {support}",
                    e.key()
                );
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(support);
            }
        }
    }

    /// Number of frequent sequences.
    pub fn len(&self) -> usize {
        self.by_pattern.len()
    }

    /// True when nothing is frequent.
    pub fn is_empty(&self) -> bool {
        self.by_pattern.is_empty()
    }

    /// The support of a pattern, if frequent.
    pub fn support_of(&self, pattern: &Sequence) -> Option<u64> {
        self.by_pattern.get(pattern).copied()
    }

    /// Whether a pattern is in the frequent set.
    pub fn contains_pattern(&self, pattern: &Sequence) -> bool {
        self.by_pattern.contains_key(pattern)
    }

    /// Iterates `(pattern, support)` in comparative order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Sequence, u64)> {
        self.by_pattern.iter().map(|(p, &s)| (p, s))
    }

    /// The frequent k-sequences, in comparative order.
    pub fn of_length(&self, k: usize) -> Vec<(&Sequence, u64)> {
        self.iter().filter(|(p, _)| p.length() == k).collect()
    }

    /// The length of the longest frequent sequence (0 when empty).
    pub fn max_length(&self) -> usize {
        self.by_pattern.keys().map(Sequence::length).max().unwrap_or(0)
    }

    /// Histogram: number of frequent sequences per length, indexed from 1.
    pub fn length_histogram(&self) -> Vec<usize> {
        let max = self.max_length();
        let mut hist = vec![0usize; max];
        for p in self.by_pattern.keys() {
            hist[p.length() - 1] += 1;
        }
        hist
    }

    /// The maximal frequent sequences: those contained in no longer frequent
    /// sequence. A compact summary of the result (every frequent sequence is
    /// a subsequence of some maximal one).
    pub fn maximal_patterns(&self) -> Vec<(&Sequence, u64)> {
        self.iter()
            .filter(|(p, _)| {
                !self.iter().any(|(q, _)| q.length() > p.length() && crate::embed::contains(q, p))
            })
            .collect()
    }

    /// The closed frequent sequences: those with no proper super-sequence of
    /// the *same* support. Closed sets are lossless — every frequent
    /// sequence's support is the max support over the closed sequences
    /// containing it — and typically far smaller than the full result.
    pub fn closed_patterns(&self) -> Vec<(&Sequence, u64)> {
        self.iter()
            .filter(|(p, s)| {
                !self.iter().any(|(q, t)| {
                    t == *s && q.length() > p.length() && crate::embed::contains(q, p)
                })
            })
            .collect()
    }

    /// Human-readable differences against another result, for debugging
    /// cross-algorithm disagreements. Empty iff the results are identical.
    pub fn diff(&self, other: &MiningResult) -> Vec<String> {
        let mut out = Vec::new();
        for (p, s) in self.iter() {
            match other.support_of(p) {
                None => out.push(format!("only in left: {p} (support {s})")),
                Some(o) if o != s => {
                    out.push(format!("support mismatch for {p}: left {s}, right {o}"))
                }
                _ => {}
            }
        }
        for (p, s) in other.iter() {
            if !self.contains_pattern(p) {
                out.push(format!("only in right: {p} (support {s})"));
            }
        }
        out
    }
}

impl fmt::Display for MiningResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} frequent sequences", self.len())?;
        for (p, s) in self.iter() {
            writeln!(f, "  {p}  [support {s}]")?;
        }
        Ok(())
    }
}

impl FromIterator<(Sequence, u64)> for MiningResult {
    fn from_iter<T: IntoIterator<Item = (Sequence, u64)>>(iter: T) -> Self {
        MiningResult::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_sequence;

    fn seq(s: &str) -> Sequence {
        parse_sequence(s).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = MiningResult::new();
        r.insert(seq("(a)"), 6);
        r.insert(seq("(a)(c)"), 4);
        assert_eq!(r.len(), 2);
        assert_eq!(r.support_of(&seq("(a)(c)")), Some(4));
        assert_eq!(r.support_of(&seq("(c)")), None);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn conflicting_support_panics() {
        let mut r = MiningResult::new();
        r.insert(seq("(a)"), 6);
        r.insert(seq("(a)"), 5);
    }

    #[test]
    fn idempotent_insert_is_fine() {
        let mut r = MiningResult::new();
        r.insert(seq("(a)"), 6);
        r.insert(seq("(a)"), 6);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn of_length_and_histogram() {
        let r = MiningResult::from_pairs([
            (seq("(a)"), 6),
            (seq("(b)"), 5),
            (seq("(a)(c)"), 4),
            (seq("(a)(c)(e)"), 3),
        ]);
        assert_eq!(r.of_length(1).len(), 2);
        assert_eq!(r.of_length(2).len(), 1);
        assert_eq!(r.max_length(), 3);
        assert_eq!(r.length_histogram(), vec![2, 1, 1]);
    }

    #[test]
    fn diff_reports_mismatches() {
        let a = MiningResult::from_pairs([(seq("(a)"), 6), (seq("(b)"), 5)]);
        let b = MiningResult::from_pairs([(seq("(a)"), 6), (seq("(b)"), 4), (seq("(c)"), 2)]);
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn closed_patterns_keep_distinct_supports() {
        let r = MiningResult::from_pairs([
            (seq("(a)"), 6),
            (seq("(c)"), 4),
            (seq("(a)(c)"), 4),
            (seq("(b)"), 2),
        ]);
        let closed: Vec<(String, u64)> =
            r.closed_patterns().iter().map(|(p, s)| (p.to_string(), *s)).collect();
        // (c) is absorbed by (a)(c) (same support); (a) is closed (support
        // differs); (b) is closed.
        assert_eq!(
            closed,
            vec![("(a)".to_string(), 6), ("(a)(c)".to_string(), 4), ("(b)".to_string(), 2)]
        );
    }

    #[test]
    fn maximal_patterns_drop_subsumed_entries() {
        let r = MiningResult::from_pairs([
            (seq("(a)"), 6),
            (seq("(c)"), 4),
            (seq("(a)(c)"), 4),
            (seq("(b)"), 2),
        ]);
        let maximal: Vec<String> =
            r.maximal_patterns().iter().map(|(p, _)| p.to_string()).collect();
        // (a) and (c) are inside (a)(c); (b) is not.
        assert_eq!(maximal, vec!["(a)(c)", "(b)"]);
    }

    #[test]
    fn iteration_is_in_comparative_order() {
        let r = MiningResult::from_pairs([(seq("(b)"), 5), (seq("(a)(c)"), 4), (seq("(a)"), 6)]);
        let order: Vec<String> = r.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(order, vec!["(a)", "(a)(c)", "(b)"]);
    }
}
