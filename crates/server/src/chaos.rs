//! Deterministic network-chaos injection: a seeded [`ChaosStream`] wrapper
//! that makes sockets misbehave on purpose.
//!
//! This generalizes the `IoFault` discipline of `disc-core::guard` (which
//! targets *file* writers at exact write indices) to *network* streams,
//! where the interesting failures are probabilistic but must still replay
//! exactly: every fault decision is drawn from a splitmix64 stream derived
//! from a config seed, so the same seed over the same traffic injects the
//! same faults in the same places. That determinism is what lets the CI
//! `chaos-smoke` job assert byte-identical mining results *through* the
//! faults — any divergence is a real retry/idempotency bug, not noise.
//!
//! Fault classes, each with an independent per-mille probability checked
//! per I/O call:
//!
//! * **partial read/write** — the call transfers a strict prefix of the
//!   requested bytes (exercises short-read/short-write loops);
//! * **stall** — the call sleeps briefly first (exercises deadlines; kept
//!   well under test timeouts);
//! * **reset** — the call fails with `ConnectionReset` (mid-body resets);
//! * **drop** — reads observe EOF (`Ok(0)`), writes fail with
//!   `BrokenPipe`, and the stream stays dead (connection loss).
//!
//! The wrapper is generic over `Read + Write`, so it serves both sides:
//! the server can wrap accepted connections (`--chaos-seed`) and the
//! client in `disc-client` can wrap its outbound sockets. Both ends only
//! ever see ordinary `std::io` errors — exactly what a flaky network
//! produces — so everything downstream must already cope.

use std::io::{Error, ErrorKind, Read, Result, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Probabilities (per mille, i.e. `n` in 1000 per call) and magnitudes of
/// injected faults, plus the seed that makes them reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root seed; every wrapped stream derives its own RNG from this.
    pub seed: u64,
    /// Per-mille chance a read transfers only a prefix of the buffer.
    pub partial_read: u16,
    /// Per-mille chance a write accepts only a prefix of the buffer.
    pub partial_write: u16,
    /// Per-mille chance a call sleeps `stall` first.
    pub stall: u16,
    /// Per-mille chance a call fails with `ConnectionReset`.
    pub reset: u16,
    /// Per-mille chance the connection goes permanently dead.
    pub drop: u16,
    /// Sleep injected by a stall fault.
    pub stall_ms: u64,
}

impl ChaosConfig {
    /// The preset used by tests and the CI chaos-smoke job: frequent
    /// partial transfers, occasional stalls and resets, rare full drops.
    /// Aggressive enough that a multi-request session virtually always
    /// sees faults, gentle enough that a retrying client converges fast.
    pub fn moderate(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            partial_read: 150,
            partial_write: 150,
            stall: 40,
            reset: 25,
            drop: 8,
            stall_ms: 20,
        }
    }

    /// The preset for wrapping the *server* side of connections
    /// (`--chaos-seed` on `disc-mine serve`). Much lower error rates than
    /// [`ChaosConfig::moderate`] because the server's request parser reads
    /// the head byte-at-a-time: every byte is a fault roll, so a ~60-byte
    /// head sees ~60 rolls where the client's message-granular I/O sees a
    /// handful. At 2‰ reset / 1‰ drop a head still fails a few percent of
    /// the time — faults fire every session — without starving a client of
    /// its whole retry budget on a single request.
    pub fn light(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            partial_read: 100,
            partial_write: 100,
            stall: 5,
            reset: 2,
            drop: 1,
            stall_ms: 10,
        }
    }

    /// A seed for the `index`-th connection under this config: mixes the
    /// connection ordinal through splitmix64 so per-connection fault
    /// streams are decorrelated but still a pure function of (seed, index).
    pub fn connection_seed(&self, index: u64) -> u64 {
        self.seed ^ splitmix64(index.wrapping_add(0x5EED))
    }
}

/// One splitmix64 step — the workspace's standard tiny deterministic RNG
/// (same generator as `guard::RetryPolicy` jitter and the bench harness).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter shared by every stream derived from one harness, so tests can
/// assert that faults actually fired (a chaos run with zero injections
/// proves nothing).
#[derive(Debug, Default)]
pub struct ChaosLedger {
    injected: AtomicU64,
}

impl ChaosLedger {
    /// Total faults injected across all streams sharing this ledger.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn record(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
}

/// A `Read + Write` stream that misbehaves deterministically per
/// [`ChaosConfig`]. Construct with [`ChaosStream::new`] per connection,
/// deriving the seed via [`ChaosConfig::connection_seed`].
pub struct ChaosStream<'a, S> {
    inner: S,
    cfg: ChaosConfig,
    rng: u64,
    dead: bool,
    ledger: Option<&'a ChaosLedger>,
}

impl<'a, S: Read + Write> ChaosStream<'a, S> {
    /// Wraps `inner` with the fault plan of `cfg`, drawing decisions from
    /// `seed` (use [`ChaosConfig::connection_seed`] so parallel
    /// connections get distinct but reproducible streams).
    pub fn new(inner: S, cfg: ChaosConfig, seed: u64) -> ChaosStream<'a, S> {
        ChaosStream { inner, cfg, rng: seed, dead: false, ledger: None }
    }

    /// Attaches a shared fault counter (for assertions that chaos fired).
    pub fn with_ledger(mut self, ledger: &'a ChaosLedger) -> ChaosStream<'a, S> {
        self.ledger = Some(ledger);
        self
    }

    fn next(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// Rolls one per-mille check.
    fn roll(&mut self, per_mille: u16) -> bool {
        u16::try_from(self.next() % 1000).expect("mod 1000 fits u16") < per_mille
    }

    fn record(&self) {
        if let Some(ledger) = self.ledger {
            ledger.record();
        }
    }

    /// Pre-call fault gate shared by reads and writes: returns an error to
    /// surface immediately, `Ok(true)` if the call should proceed but
    /// truncated, `Ok(false)` to proceed untouched. `partial` is the
    /// direction's partial-transfer probability.
    fn gate(&mut self, partial: u16, on_dead: fn() -> Result<usize>) -> Result<bool> {
        if self.dead {
            return on_dead().map(|_| false);
        }
        if self.roll(self.cfg.drop) {
            self.dead = true;
            self.record();
            return on_dead().map(|_| false);
        }
        if self.roll(self.cfg.reset) {
            self.record();
            return Err(Error::new(ErrorKind::ConnectionReset, "chaos: injected reset"));
        }
        if self.roll(self.cfg.stall) {
            self.record();
            std::thread::sleep(Duration::from_millis(self.cfg.stall_ms));
        }
        Ok(self.roll(partial))
    }
}

fn dead_read() -> Result<usize> {
    Ok(0) // a dropped peer looks like EOF to the reader
}

fn dead_write() -> Result<usize> {
    Err(Error::new(ErrorKind::BrokenPipe, "chaos: connection dropped"))
}

impl<S: Read + Write> Read for ChaosStream<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let truncate = self.gate(self.cfg.partial_read, dead_read)?;
        if self.dead {
            return Ok(0);
        }
        if truncate && buf.len() > 1 {
            let keep = 1 + (self.next() as usize) % (buf.len() - 1);
            self.record();
            return self.inner.read(&mut buf[..keep]);
        }
        self.inner.read(buf)
    }
}

impl<S: Read + Write> Write for ChaosStream<'_, S> {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        let truncate = self.gate(self.cfg.partial_write, dead_write)?;
        if self.dead {
            return dead_write();
        }
        if truncate && buf.len() > 1 {
            let keep = 1 + (self.next() as usize) % (buf.len() - 1);
            self.record();
            return self.inner.write(&buf[..keep]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> Result<()> {
        if self.dead {
            return Err(Error::new(ErrorKind::BrokenPipe, "chaos: connection dropped"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory Read+Write stand-in for a socket.
    struct MemStream {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl MemStream {
        fn preloaded(data: &[u8]) -> MemStream {
            MemStream { rx: Cursor::new(data.to_vec()), tx: Vec::new() }
        }
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }

    fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            partial_read: 0,
            partial_write: 0,
            stall: 0,
            reset: 0,
            drop: 0,
            stall_ms: 0,
        }
    }

    #[test]
    fn zero_probabilities_are_a_transparent_wrapper() {
        let inner = MemStream::preloaded(b"hello chaos");
        let ledger = ChaosLedger::default();
        let mut s = ChaosStream::new(inner, quiet(7), 7).with_ledger(&ledger);
        let mut buf = [0u8; 32];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello chaos");
        s.write_all(b"response").unwrap();
        s.flush().unwrap();
        assert_eq!(s.inner.tx, b"response");
        assert_eq!(ledger.injected(), 0);
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let cfg = ChaosConfig::moderate(42);
        let run = |seed: u64| -> (Vec<std::result::Result<usize, ErrorKind>>, Vec<u8>) {
            let inner = MemStream::preloaded(&[0xAB; 4096]);
            let mut s = ChaosStream::new(inner, cfg, seed);
            let mut log = Vec::new();
            let mut buf = [0u8; 64];
            for _ in 0..200 {
                log.push(s.read(&mut buf).map_err(|e| e.kind()));
                log.push(s.write(&[0xCD; 64]).map_err(|e| e.kind()));
            }
            (log, s.inner.tx)
        };
        let seed = cfg.connection_seed(0);
        let (log_a, tx_a) = run(seed);
        let (log_b, tx_b) = run(seed);
        assert_eq!(log_a, log_b, "identical seeds replay identical fault traces");
        assert_eq!(tx_a, tx_b);
        let (log_c, _) = run(cfg.connection_seed(1));
        assert_ne!(log_a, log_c, "distinct connections draw distinct fault streams");
    }

    #[test]
    fn moderate_preset_actually_injects_faults() {
        let cfg = ChaosConfig::moderate(3);
        let ledger = ChaosLedger::default();
        let inner = MemStream::preloaded(&[1u8; 1 << 16]);
        let mut s = ChaosStream::new(inner, cfg, cfg.connection_seed(0)).with_ledger(&ledger);
        let mut buf = [0u8; 128];
        let mut outcomes = 0u32;
        for _ in 0..400 {
            match s.read(&mut buf) {
                Ok(0) => break, // dropped or exhausted
                Ok(_) => outcomes += 1,
                Err(_) => outcomes += 1,
            }
        }
        assert!(outcomes > 0);
        assert!(ledger.injected() > 0, "moderate preset must fire within 400 calls");
    }

    #[test]
    fn a_dropped_stream_stays_dead() {
        let cfg = ChaosConfig {
            drop: 1000, // first call kills the connection
            ..ChaosConfig::moderate(9)
        };
        let inner = MemStream::preloaded(b"unreachable");
        let mut s = ChaosStream::new(inner, cfg, 9);
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "reads see EOF");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "and keep seeing EOF");
        let kind = s.write(b"x").unwrap_err().kind();
        assert_eq!(kind, ErrorKind::BrokenPipe, "writes fail permanently");
        assert_eq!(s.flush().unwrap_err().kind(), ErrorKind::BrokenPipe);
    }

    #[test]
    fn partial_reads_deliver_a_strict_prefix() {
        let cfg = ChaosConfig {
            partial_read: 1000,
            partial_write: 0,
            stall: 0,
            reset: 0,
            drop: 0,
            stall_ms: 0,
            seed: 11,
        };
        let inner = MemStream::preloaded(&[7u8; 1024]);
        let mut s = ChaosStream::new(inner, cfg, 11);
        let mut buf = [0u8; 256];
        let n = s.read(&mut buf).unwrap();
        assert!((1..256).contains(&n), "partial read is a non-empty strict prefix, got {n}");
    }
}
