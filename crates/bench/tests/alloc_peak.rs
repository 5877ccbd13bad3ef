//! The tracking allocator's peak counter, in a test binary of its own.
//!
//! The counters are process-wide. In the library's unit-test binary, other
//! tests allocate and free on parallel threads without taking
//! [`alloc_track::measuring`], and a free between [`alloc_track::reset_peak`]
//! and the allocation below lifts the peak by less than the allocation. Here
//! this is the only test, so no other test thread runs inside the window.

use disc_bench::alloc_track;

#[test]
fn peak_tracks_a_large_allocation() {
    let _measuring = alloc_track::measuring();
    alloc_track::reset_peak();
    let before = alloc_track::peak_bytes();
    let buf = vec![0u8; 1 << 20];
    let during = alloc_track::peak_bytes();
    drop(buf);
    assert!(
        during >= before + (1 << 20),
        "peak should rise by at least the 1 MiB allocation: before={before} during={during}"
    );
    // After the drop the peak stays at the high-water mark…
    assert!(alloc_track::peak_bytes() >= during);
    // …until a reset brings it back down to the live count.
    alloc_track::reset_peak();
    assert!(alloc_track::peak_bytes() < during);
}
