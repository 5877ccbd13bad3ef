//! SIGTERM → drain flag, without a libc dependency.
//!
//! Mirrors the discipline of `disc-core`'s mmap module: the one `unsafe`
//! surface is a module-scoped allow around a direct `extern "C"`
//! declaration of the libc symbol the platform already links. The handler
//! does the only async-signal-safe thing there is to do — store to an
//! atomic. A watcher thread in `Server::run` polls the flag, off the
//! request path, and turns it into `Server::begin_drain`, which wakes the
//! blocked accept loop.
//!
//! On non-Unix platforms installation is a no-op; the in-process drain
//! endpoint (`POST /admin/drain`) covers graceful shutdown everywhere.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a SIGTERM (or SIGINT) has arrived since
/// [`install_termination_flag`].
pub fn termination_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Sets the flag by hand — what the drain endpoint and tests use; also the
/// non-Unix "handler".
pub fn request_termination() {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use super::TERM_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. The return value (previous handler) is
        /// ignored — the server installs once at startup and never
        /// restores.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_terminate(_sig: i32) {
        // Only async-signal-safe operation here: one atomic store.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_terminate);
            signal(SIGINT, on_terminate);
        }
    }
}

/// Installs the SIGTERM/SIGINT handler that flips the drain flag. Safe to
/// call more than once.
pub fn install_termination_flag() {
    #[cfg(unix)]
    sys::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_request_flips_the_flag() {
        // Note: process-global — fine because nothing in this crate's test
        // suite asserts the flag stays false after this test runs.
        install_termination_flag();
        request_termination();
        assert!(termination_requested());
    }
}
