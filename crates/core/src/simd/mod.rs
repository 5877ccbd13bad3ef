//! Runtime-dispatched SIMD kernels for the comparison hot paths.
//!
//! DISC replaces support counting with *ordered comparisons*, so once the
//! data sits in flat arrays (see [`crate::flat`] and [`crate::packed`]) the
//! profile is dominated by a handful of word-scan primitives:
//!
//! * **first-diff / lexicographic compare** over `u32`/`u64` word slices —
//!   the inner step of [`crate::order::cmp_views`], [`crate::flat::FlatKey`]
//!   ordering, and [`crate::packed::PackedKey`] ordering (every AVL descent
//!   of the k-sorted database, every `α₁ = α_δ` test, every
//!   `take_buckets_less_than` boundary scan);
//! * **membership / first-`≥` scans** over sorted `u32` slices — the inner
//!   step of [`crate::itemset::is_sorted_subset`] and therefore of the
//!   leftmost-embedding kernels ([`crate::embed::view_leftmost_end`]) and
//!   the counting-array scans.
//!
//! This module implements those primitives three times: a portable
//! [`scalar`] reference, and `core::arch::x86_64` SSE2 and AVX2 kernels
//! (compiled only with the `simd` cargo feature on x86_64). The
//! implementation actually used is chosen **once per process** by
//! [`dispatch_level`], via `is_x86_feature_detected!`, and can be pinned to
//! the portable fallback with `DISC_FORCE_SCALAR=1` — the hook the CI
//! differential matrix uses to prove all three levels mine bit-identical
//! results.
//!
//! ## Invariant
//!
//! Every public kernel here is a *pure function of its arguments*: for all
//! inputs, all dispatch levels return exactly the same value. The scalar
//! implementations are the specification; the vectorized ones are proven
//! against them by the unit tests below, the property tests in
//! `tests/simd_props.rs` (lane-boundary straddling, empty slices, extreme
//! word values), and CI's three-way differential job.
//!
//! ## Unsafety
//!
//! This module is the only place in the crate allowed to use `unsafe`
//! (the crate root is `#![deny(unsafe_code)]`; the allowance is scoped
//! here). The unsafe surface is exactly: unaligned vector loads from
//! in-bounds slice offsets, and the `#[target_feature]` calling contract,
//! which [`dispatch_level`] upholds by construction. The slice casts in
//! [`items_as_u32`] are sound because [`Item`] is `#[repr(transparent)]`
//! over `u32`.

#![allow(unsafe_code)]

pub mod scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86;

use crate::item::Item;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchLevel {
    /// Portable scalar fallback — always available, and the reference
    /// semantics for the other levels.
    Scalar,
    /// 128-bit SSE2 kernels (baseline on `x86_64`).
    Sse2,
    /// 256-bit AVX2 kernels.
    Avx2,
}

impl DispatchLevel {
    /// Stable lowercase name (`scalar` / `sse2` / `avx2`) for logs and
    /// bench reports.
    pub fn name(self) -> &'static str {
        match self {
            DispatchLevel::Scalar => "scalar",
            DispatchLevel::Sse2 => "sse2",
            DispatchLevel::Avx2 => "avx2",
        }
    }

    /// Every level the current build *and* CPU can execute, ascending —
    /// always starts with [`DispatchLevel::Scalar`]. Differential tests
    /// iterate this to compare all reachable implementations.
    pub fn available() -> Vec<DispatchLevel> {
        #[allow(unused_mut)] // scalar-only builds never push
        let mut levels = vec![DispatchLevel::Scalar];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                levels.push(DispatchLevel::Sse2);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(DispatchLevel::Avx2);
            }
        }
        levels
    }
}

/// The dispatch level every plain kernel call (e.g. [`cmp_u32`]) uses,
/// decided once per process:
///
/// * builds without the `simd` feature, non-x86_64 targets, and processes
///   started with `DISC_FORCE_SCALAR=1` use [`DispatchLevel::Scalar`];
/// * otherwise the widest of AVX2/SSE2 the CPU reports via
///   `is_x86_feature_detected!`.
pub fn dispatch_level() -> DispatchLevel {
    static LEVEL: OnceLock<DispatchLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Whether `DISC_FORCE_SCALAR` requests the portable fallback: set and
/// neither `0` nor empty.
fn force_scalar_requested() -> bool {
    match std::env::var("DISC_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

fn detect() -> DispatchLevel {
    if force_scalar_requested() {
        return DispatchLevel::Scalar;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return DispatchLevel::Avx2;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return DispatchLevel::Sse2;
        }
    }
    DispatchLevel::Scalar
}

/// Reinterprets a sorted item slice as its raw `u32` ids — zero-cost, and
/// order-preserving because [`Item`]'s `Ord` is its id's order.
#[inline]
pub fn items_as_u32(items: &[Item]) -> &[u32] {
    const _: () = assert!(std::mem::size_of::<Item>() == std::mem::size_of::<u32>());
    // SAFETY: `Item` is `#[repr(transparent)]` over `u32`, so an `&[Item]`
    // has exactly the layout of an `&[u32]` of the same length.
    unsafe { std::slice::from_raw_parts(items.as_ptr().cast::<u32>(), items.len()) }
}

/// Vector loads only pay off past this many bytes; shorter inputs go
/// straight to the scalar kernels regardless of the dispatch level. This is
/// a pure performance cutoff — results are identical either way. The
/// threshold is deliberately well above one vector width: the outlined
/// `#[target_feature]` call (uninlinable across the feature boundary) costs
/// more than a scalar loop over a handful of words, and the mining hot path
/// is dominated by short keys (~6 packed words) and small itemsets, with
/// only the boundary scans and long transactions reaching vector length.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const SIMD_MIN_BYTES: usize = 64;

/// Index of the first position where `a` and `b` differ, over their common
/// prefix; `min(a.len(), b.len())` when that prefix is identical.
#[inline]
pub fn first_diff_u32(a: &[u32], b: &[u32]) -> usize {
    first_diff_u32_at(dispatch_level(), a, b)
}

/// [`first_diff_u32`] pinned to an explicit dispatch level (differential
/// tests and benches; [`DispatchLevel::available`] lists the valid levels).
#[inline]
pub fn first_diff_u32_at(level: DispatchLevel, a: &[u32], b: &[u32]) -> usize {
    let n = a.len().min(b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level != DispatchLevel::Scalar && n * 4 >= SIMD_MIN_BYTES {
        return x86::first_diff_u32(level, &a[..n], &b[..n]);
    }
    let _ = (level, n);
    scalar::first_diff_u32(a, b)
}

/// Index of the first position where `a` and `b` differ, over their common
/// prefix; `min(a.len(), b.len())` when that prefix is identical.
#[inline]
pub fn first_diff_u64(a: &[u64], b: &[u64]) -> usize {
    first_diff_u64_at(dispatch_level(), a, b)
}

/// [`first_diff_u64`] pinned to an explicit dispatch level.
#[inline]
pub fn first_diff_u64_at(level: DispatchLevel, a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level != DispatchLevel::Scalar && n * 8 >= SIMD_MIN_BYTES {
        return x86::first_diff_u64(level, &a[..n], &b[..n]);
    }
    let _ = (level, n);
    scalar::first_diff_u64(a, b)
}

/// Lexicographic comparison of two `u32` slices (shorter prefix smaller) —
/// identical to `<[u32]>::cmp`, vectorized.
#[inline]
pub fn cmp_u32(a: &[u32], b: &[u32]) -> Ordering {
    cmp_u32_at(dispatch_level(), a, b)
}

/// [`cmp_u32`] pinned to an explicit dispatch level.
#[inline]
pub fn cmp_u32_at(level: DispatchLevel, a: &[u32], b: &[u32]) -> Ordering {
    let n = a.len().min(b.len());
    let d = first_diff_u32_at(level, a, b);
    if d < n {
        a[d].cmp(&b[d])
    } else {
        a.len().cmp(&b.len())
    }
}

/// Lexicographic comparison of two `u64` slices (shorter prefix smaller) —
/// identical to `<[u64]>::cmp`, vectorized.
#[inline]
pub fn cmp_u64(a: &[u64], b: &[u64]) -> Ordering {
    cmp_u64_at(dispatch_level(), a, b)
}

/// [`cmp_u64`] pinned to an explicit dispatch level.
#[inline]
pub fn cmp_u64_at(level: DispatchLevel, a: &[u64], b: &[u64]) -> Ordering {
    let n = a.len().min(b.len());
    let d = first_diff_u64_at(level, a, b);
    if d < n {
        a[d].cmp(&b[d])
    } else {
        a.len().cmp(&b.len())
    }
}

/// Lexicographic comparison of two item slices — [`cmp_u32`] through
/// [`items_as_u32`].
#[inline]
pub fn cmp_items(a: &[Item], b: &[Item]) -> Ordering {
    cmp_u32(items_as_u32(a), items_as_u32(b))
}

/// [`first_diff_u32`] over item slices — the shared-prefix skip used by
/// [`crate::order::cmp_views`].
#[inline]
pub fn first_diff_items(a: &[Item], b: &[Item]) -> usize {
    first_diff_u32(items_as_u32(a), items_as_u32(b))
}

/// Whether `needle` occurs anywhere in `hay` (no sortedness required),
/// at an explicit dispatch level.
#[inline]
pub fn contains_u32_at(level: DispatchLevel, hay: &[u32], needle: u32) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level != DispatchLevel::Scalar && hay.len() * 4 >= SIMD_MIN_BYTES {
        return x86::contains_u32(level, hay, needle);
    }
    let _ = level;
    scalar::contains_u32(hay, needle)
}

/// Index of the first element `≥ x` (unsigned), or `hay.len()` when none,
/// at an explicit dispatch level. On a sorted slice this equals
/// `hay.partition_point(|&h| h < x)`.
#[inline]
pub fn first_ge_u32_at(level: DispatchLevel, hay: &[u32], x: u32) -> usize {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level != DispatchLevel::Scalar && hay.len() * 4 >= SIMD_MIN_BYTES {
        return x86::first_ge_u32(level, hay, x);
    }
    let _ = level;
    scalar::first_ge_u32(hay, x)
}

/// Index of the first element `> x` (unsigned), or `hay.len()` when none.
/// On a sorted slice this equals `hay.partition_point(|&h| h <= x)` — the
/// boundary scan the extension kernels use to skip past a pattern's max
/// item.
#[inline]
pub fn first_gt_u32(hay: &[u32], x: u32) -> usize {
    first_gt_u32_at(dispatch_level(), hay, x)
}

/// [`first_gt_u32`] pinned to an explicit dispatch level.
#[inline]
pub fn first_gt_u32_at(level: DispatchLevel, hay: &[u32], x: u32) -> usize {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if level != DispatchLevel::Scalar && hay.len() * 4 >= SIMD_MIN_BYTES {
        return x86::first_gt_u32(level, hay, x);
    }
    let _ = level;
    scalar::first_gt_u32(hay, x)
}

/// [`first_gt_u32`] over an item slice: the vectorized replacement for
/// `items.partition_point(|&i| i <= bound)` on sorted itemsets.
#[inline]
pub fn first_gt_items(items: &[Item], bound: Item) -> usize {
    first_gt_u32(items_as_u32(items), bound.id())
}

/// `a ⊆ b` for sorted duplicate-free `u32` slices — a merge walk whose
/// "advance to the next candidate" step is a vectorized first-`≥` scan.
#[inline]
pub fn is_sorted_subset_u32(a: &[u32], b: &[u32]) -> bool {
    is_sorted_subset_u32_at(dispatch_level(), a, b)
}

/// [`is_sorted_subset_u32`] pinned to an explicit dispatch level.
pub fn is_sorted_subset_u32_at(level: DispatchLevel, a: &[u32], b: &[u32]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if let [x] = a {
        // Single-item patterns (the overwhelmingly common case in the
        // extension kernels) reduce to membership.
        return contains_u32_at(level, b, *x);
    }
    let mut pos = 0usize;
    for &x in a {
        let k = first_ge_u32_at(level, &b[pos..], x);
        pos += k;
        if pos >= b.len() || b[pos] != x {
            return false;
        }
        pos += 1;
    }
    true
}

/// `a ⊆ b` over sorted item slices — [`is_sorted_subset_u32`] through
/// [`items_as_u32`].
#[inline]
pub fn is_sorted_subset_items(a: &[Item], b: &[Item]) -> bool {
    is_sorted_subset_u32(items_as_u32(a), items_as_u32(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words covering small and extreme values
    /// (the packed representation uses the full u32 range).
    fn words(seed: u64, len: usize) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match state >> 62 {
                    0 => (state >> 32) as u32,       // full range
                    1 => (state >> 48) as u32 & 0x7, // tiny, forces runs of equals
                    2 => u32::MAX - ((state >> 48) as u32 & 0x3),
                    _ => (state >> 40) as u32 & 0xFFF, // mid
                }
            })
            .collect()
    }

    #[test]
    fn all_levels_agree_on_first_diff_and_cmp() {
        let levels = DispatchLevel::available();
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            for seed in 0..8u64 {
                let a = words(seed, len);
                let mut b = a.clone();
                if !b.is_empty() {
                    // Perturb one position so diffs land everywhere,
                    // including the last lane.
                    let at = (seed as usize * 7 + len) % b.len();
                    b[at] ^= 1 << (seed % 32);
                }
                let a64: Vec<u64> = a.iter().map(|&w| (w as u64) << 17 | w as u64).collect();
                let b64: Vec<u64> = b.iter().map(|&w| (w as u64) << 17 | w as u64).collect();
                for &lvl in &levels {
                    assert_eq!(
                        first_diff_u32_at(lvl, &a, &b),
                        scalar::first_diff_u32(&a, &b),
                        "{lvl:?} len {len} seed {seed}"
                    );
                    assert_eq!(cmp_u32_at(lvl, &a, &b), a.cmp(&b), "{lvl:?} len {len} seed {seed}");
                    assert_eq!(
                        first_diff_u64_at(lvl, &a64, &b64),
                        scalar::first_diff_u64(&a64, &b64),
                        "{lvl:?} len {len} seed {seed}"
                    );
                    assert_eq!(
                        cmp_u64_at(lvl, &a64, &b64),
                        a64.cmp(&b64),
                        "{lvl:?} len {len} seed {seed}"
                    );
                    // Identical slices and length mismatches.
                    assert_eq!(first_diff_u32_at(lvl, &a, &a), a.len(), "{lvl:?}");
                    assert_eq!(cmp_u32_at(lvl, &a, &a), std::cmp::Ordering::Equal);
                    if len > 0 {
                        assert_eq!(cmp_u32_at(lvl, &a[..len - 1], &a), a[..len - 1].cmp(&a));
                        assert_eq!(
                            cmp_u64_at(lvl, &a64, &a64[..len - 1]),
                            a64[..].cmp(&a64[..len - 1])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_levels_agree_on_scans() {
        let levels = DispatchLevel::available();
        for len in [0usize, 1, 3, 4, 5, 8, 13, 16, 21, 32, 40] {
            for seed in 0..8u64 {
                let mut hay = words(seed, len);
                hay.sort_unstable();
                hay.dedup();
                let probes: Vec<u32> = hay
                    .iter()
                    .copied()
                    .chain([0, 1, u32::MAX, u32::MAX - 1, 0x8000_0000, 42])
                    .chain(hay.iter().map(|&h| h.wrapping_add(1)))
                    .collect();
                for &x in &probes {
                    for &lvl in &levels {
                        assert_eq!(
                            contains_u32_at(lvl, &hay, x),
                            scalar::contains_u32(&hay, x),
                            "contains {lvl:?} len {len} x {x}"
                        );
                        assert_eq!(
                            first_ge_u32_at(lvl, &hay, x),
                            hay.partition_point(|&h| h < x),
                            "first_ge {lvl:?} len {len} x {x}"
                        );
                        assert_eq!(
                            first_gt_u32_at(lvl, &hay, x),
                            hay.partition_point(|&h| h <= x),
                            "first_gt {lvl:?} len {len} x {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_levels_agree_on_subset() {
        let levels = DispatchLevel::available();
        for seed in 0..16u64 {
            let mut b = words(seed, 24);
            b.sort_unstable();
            b.dedup();
            // Subsets, non-subsets, empty, and the full set.
            let mut cases: Vec<Vec<u32>> = vec![
                vec![],
                b.clone(),
                b.iter().copied().step_by(2).collect(),
                b.iter().copied().step_by(3).collect(),
            ];
            if let Some(&last) = b.last() {
                cases.push(vec![last]);
                cases.push(vec![last.wrapping_add(1)]);
                let mut miss = b.clone();
                miss.push(last.wrapping_add(1));
                miss.sort_unstable();
                miss.dedup();
                cases.push(miss);
            }
            for a in &cases {
                let expected = scalar::is_sorted_subset_u32(a, &b);
                for &lvl in &levels {
                    assert_eq!(
                        is_sorted_subset_u32_at(lvl, a, &b),
                        expected,
                        "{lvl:?} seed {seed} a {a:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_ge_first_gt_work_on_unsorted_input_too() {
        // The kernels promise "first position satisfying the predicate"
        // even without sortedness (the scans are linear, not binary).
        let hay = [5u32, 1, 9, 0, 9, 2, 7, 3, 8, 8, 1, 4, 6, 2, 0, 9, 5];
        for x in 0..=10u32 {
            for &lvl in &DispatchLevel::available() {
                assert_eq!(first_ge_u32_at(lvl, &hay, x), scalar::first_ge_u32(&hay, x), "{lvl:?}");
                assert_eq!(first_gt_u32_at(lvl, &hay, x), scalar::first_gt_u32(&hay, x), "{lvl:?}");
            }
        }
    }

    #[test]
    fn items_cast_is_orderfaithful() {
        let items = [Item(0), Item(7), Item(u32::MAX)];
        assert_eq!(items_as_u32(&items), &[0, 7, u32::MAX]);
        assert_eq!(items_as_u32(&[]), &[] as &[u32]);
        assert_eq!(cmp_items(&items[..2], &items), std::cmp::Ordering::Less);
    }

    #[test]
    fn dispatch_level_is_available_and_stable() {
        let level = dispatch_level();
        assert!(DispatchLevel::available().contains(&level));
        assert_eq!(dispatch_level(), level);
        assert_eq!(DispatchLevel::available()[0], DispatchLevel::Scalar);
        assert!(!level.name().is_empty());
    }
}
