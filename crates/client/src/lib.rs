//! # disc-client
//!
//! A retrying client for the `disc-server` mining API — the userland half
//! of the overload-safety contract. The server sheds, meters, and times
//! out; this client turns every one of those typed refusals, plus any raw
//! network fault, into either a clean retry or a typed error:
//!
//! * **`Retry-After` is honored**: a 503 (shed, transient failure) or a
//!   429 carrying the header sleeps the advertised seconds (capped by
//!   [`ClientConfig::max_retry_after`]) before retrying;
//! * **transient network faults back off**: connect/read/write failures in
//!   the [`disc_core::is_transient_net_kind`] class retry on the guard
//!   layer's jittered [`RetryPolicy`] schedule;
//! * **re-submission is idempotent**: a mining job is keyed server-side by
//!   (database fingerprint, δ, algorithm, mode) in the result cache, and
//!   checkpoints are content-addressed per job — so when a fault lands
//!   *after* the server acted but *before* the response arrived, blindly
//!   submitting again converges on the same bytes instead of duplicating
//!   work. That property is what the chaos harness (`ChaosStream`, CI's
//!   `chaos-smoke` job) actually proves: any injected drop, stall, partial
//!   transfer, or reset ends in a typed [`ClientError`] or a result
//!   byte-identical to direct `disc-mine`.
//!
//! The crate is std-only like the rest of the workspace; the HTTP wire
//! code is shared with the server (`disc_server::http`), so both ends
//! parse exactly what the other writes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use disc_core::{fresh_retry_salt, is_transient_net_kind, RetryPolicy};
use disc_server::chaos::{ChaosConfig, ChaosLedger, ChaosStream};
use disc_server::http::{read_response, HttpError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Backoff schedule for transient faults and server-advertised
    /// retries. `max_attempts` bounds the whole request, whatever mix of
    /// faults and 429/503s it hits.
    pub retry: RetryPolicy,
    /// Cap on any single `Retry-After` sleep — a hostile or confused
    /// server cannot park the client for minutes.
    pub max_retry_after: Duration,
    /// Socket read/write deadlines (the client-side slow-loris defense).
    pub io_timeout: Duration,
    /// Cap on a response's total bytes (head + body). Exceeding it is a
    /// fatal [`ClientError::Transport`] — retrying would download the
    /// same oversized reply again — so size it above the largest result
    /// you expect to fetch.
    pub max_response_bytes: usize,
    /// When set, every outbound connection is wrapped in a seeded
    /// [`ChaosStream`] — the harness injects faults on the client side of
    /// the wire too.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            addr: "127.0.0.1:7031".into(),
            retry: RetryPolicy {
                max_attempts: 8,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(500),
            },
            max_retry_after: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_response_bytes: 256 << 20,
            chaos: None,
        }
    }
}

/// Why a request (after all retries) did not produce a usable response.
#[derive(Debug)]
pub enum ClientError {
    /// The retry budget ran out; `last` describes the final failure.
    Exhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
        /// Human-readable description of the last failure.
        last: String,
    },
    /// The server answered with a non-retryable error status.
    Http {
        /// The HTTP status.
        status: u16,
        /// The response body (the server's typed JSON error).
        body: String,
    },
    /// The mining job itself ended in a permanent failure or was
    /// cancelled.
    Job {
        /// The job's terminal state (`failed`, `cancelled`).
        state: String,
        /// The server's error message, when present.
        message: String,
    },
    /// A non-transient transport failure (bad address, permission denied)
    /// — retrying cannot help, so it short-circuits the backoff loop.
    Transport(String),
    /// A response field the protocol guarantees was missing — a version
    /// mismatch, not a network fault.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last failure: {last}")
            }
            ClientError::Http { status, body } => write!(f, "server refused: HTTP {status} {body}"),
            ClientError::Job { state, message } => write!(f, "job {state}: {message}"),
            ClientError::Transport(what) => write!(f, "transport failure: {what}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying the whole operation later could help — mirrors
    /// `DiscError::is_transient` / CLI exit 75.
    pub fn is_transient(&self) -> bool {
        matches!(self, ClientError::Exhausted { .. })
    }
}

/// A decoded server reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as UTF-8 (lossy — error bodies are ASCII JSON).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The retrying client. Cheap to construct; holds no connection (the
/// server is `Connection: close` per request anyway).
pub struct Client {
    cfg: ClientConfig,
    retries: AtomicU64,
    conn_ordinal: AtomicU64,
    chaos_ledger: ChaosLedger,
}

impl Client {
    /// A client for `cfg.addr`.
    pub fn new(cfg: ClientConfig) -> Client {
        Client {
            cfg,
            retries: AtomicU64::new(0),
            conn_ordinal: AtomicU64::new(0),
            chaos_ledger: ChaosLedger::default(),
        }
    }

    /// Retries performed so far (tests assert the backoff actually ran).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Chaos faults injected on this client's connections so far.
    pub fn chaos_faults(&self) -> u64 {
        self.chaos_ledger.injected()
    }

    /// One request with the full retry discipline. Returns the first
    /// response that is neither a transport fault nor a server
    /// back-off signal (503, or 429 with `Retry-After`); classifying the
    /// final status is the caller's business.
    pub fn request(&self, method: &str, target: &str, body: &[u8]) -> Result<Reply, ClientError> {
        let attempts = self.cfg.retry.max_attempts.max(1);
        let mut last = String::from("never attempted");
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            // No retry follows the last attempt, so sleeping after its
            // failure (server-advertised or backoff) would be pure added
            // latency on the way to Exhausted.
            let final_attempt = attempt + 1 == attempts;
            match self.attempt(method, target, body) {
                Ok((status, retry_after, resp_body)) => {
                    let backoff = match status {
                        503 => Some(retry_after.unwrap_or(1)),
                        429 => retry_after, // no header ⇒ budget spent ⇒ final
                        _ => None,
                    };
                    match backoff {
                        Some(secs) => {
                            last = format!("HTTP {status}, told to retry after {secs}s");
                            if !final_attempt {
                                // The server computed how long to stay
                                // away; honor it, bounded by our own cap.
                                let wait = Duration::from_secs(u64::from(secs))
                                    .min(self.cfg.max_retry_after);
                                std::thread::sleep(wait);
                            }
                        }
                        None => return Ok(Reply { status, body: resp_body }),
                    }
                }
                Err(TransportFault::Transient(what)) => {
                    last = what;
                    if !final_attempt {
                        std::thread::sleep(self.cfg.retry.delay(attempt + 1, fresh_retry_salt()));
                    }
                }
                Err(TransportFault::Fatal(what)) => return Err(ClientError::Transport(what)),
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// One wire attempt: connect, (optionally) wrap in chaos, send, read.
    fn attempt(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, Option<u32>, Vec<u8>), TransportFault> {
        let stream = TcpStream::connect(&self.cfg.addr).map_err(|e| classify("connect", &e))?;
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
        match self.cfg.chaos {
            Some(chaos) => {
                let ordinal = self.conn_ordinal.fetch_add(1, Ordering::Relaxed);
                // Offset the ordinal stream so client-side connections draw
                // different faults than the server's, even under one seed.
                let seed = chaos.connection_seed(ordinal ^ 0x00C1_1E47);
                let mut wrapped =
                    ChaosStream::new(stream, chaos, seed).with_ledger(&self.chaos_ledger);
                self.exchange(&mut wrapped, method, target, body)
            }
            None => {
                let mut stream = stream;
                self.exchange(&mut stream, method, target, body)
            }
        }
    }

    fn exchange<S: Read + Write>(
        &self,
        stream: &mut S,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, Option<u32>, Vec<u8>), TransportFault> {
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: disc\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).map_err(|e| classify("send head", &e))?;
        stream.write_all(body).map_err(|e| classify("send body", &e))?;
        stream.flush().map_err(|e| classify("flush", &e))?;
        match read_response(stream, self.cfg.max_response_bytes) {
            Ok(reply) => Ok(reply),
            Err(HttpError::Io(e)) => Err(classify("read response", &e)),
            Err(HttpError::Timeout) => Err(TransportFault::Transient("response deadline".into())),
            // Over the configured cap is a protocol disagreement, not a
            // network fault: every retry would fetch the same oversized
            // reply, so burn no attempts on it.
            Err(HttpError::ResponseTooLarge(n)) => Err(TransportFault::Fatal(format!(
                "response of {n}+ bytes exceeds the {} byte cap",
                self.cfg.max_response_bytes
            ))),
            // A garbled or truncated response means the connection died
            // mid-reply (chaos, resets): the request outcome is unknown,
            // and retrying is safe because submissions are idempotent.
            Err(e) => Err(TransportFault::Transient(format!("unreadable response: {e:?}"))),
        }
    }

    // ---------------------------------------------------------------
    // The mining API, typed.

    /// Registers database `name` from `bytes`. Idempotent: a 409 conflict
    /// (already registered — e.g. a retried upload whose first response
    /// was lost) counts as success.
    pub fn upload_db(&self, name: &str, bytes: &[u8]) -> Result<(), ClientError> {
        let reply = self.request("POST", &format!("/dbs?name={name}"), bytes)?;
        match reply.status {
            201 | 409 => Ok(()),
            status => Err(ClientError::Http { status, body: reply.text() }),
        }
    }

    /// Submits a mining job and returns its id (whether freshly queued or
    /// served from cache).
    pub fn submit_job(&self, spec: &JobRequest) -> Result<u64, ClientError> {
        let mut target = format!(
            "/jobs?tenant={}&db={}&delta={}&algo={}&mode={}",
            spec.tenant, spec.db, spec.delta, spec.algo, spec.mode
        );
        if let Some(cap) = spec.max_ops {
            target.push_str(&format!("&max_ops={cap}"));
        }
        let reply = self.request("POST", &target, b"")?;
        if !matches!(reply.status, 200 | 202) {
            return Err(ClientError::Http { status: reply.status, body: reply.text() });
        }
        json_u64(&reply.text(), "id").ok_or(ClientError::Protocol("job response without id"))
    }

    /// Polls job `id` until it reaches a terminal state or `deadline`
    /// passes. Returns the terminal state name.
    pub fn wait_terminal(&self, id: u64, deadline: Duration) -> Result<String, ClientError> {
        let started = Instant::now();
        loop {
            let reply = self.request("GET", &format!("/jobs/{id}"), b"")?;
            if reply.status != 200 {
                return Err(ClientError::Http { status: reply.status, body: reply.text() });
            }
            let text = reply.text();
            let state =
                json_str(&text, "state").ok_or(ClientError::Protocol("job without state"))?;
            if matches!(state.as_str(), "done" | "failed" | "cancelled") {
                return Ok(state);
            }
            if started.elapsed() > deadline {
                return Err(ClientError::Exhausted {
                    attempts: self.cfg.retry.max_attempts,
                    last: format!("job {id} still {state} after {deadline:?}"),
                });
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Fetches the full result of a done job.
    pub fn fetch_result(&self, id: u64) -> Result<Vec<u8>, ClientError> {
        let reply = self.request("GET", &format!("/jobs/{id}/result"), b"")?;
        match reply.status {
            200 => Ok(reply.body),
            status => Err(ClientError::Http { status, body: reply.text() }),
        }
    }

    /// End-to-end mining with idempotent re-submission: submit, wait,
    /// fetch; a job that fails *transiently* (or whose terminal status was
    /// lost to the network) is submitted again — the result cache and
    /// per-job checkpoints make the repeat converge on identical bytes.
    pub fn mine(&self, spec: &JobRequest, job_deadline: Duration) -> Result<Vec<u8>, ClientError> {
        let mut last: Option<ClientError> = None;
        for _round in 0..3 {
            let id = self.submit_job(spec)?;
            match self.wait_terminal(id, job_deadline) {
                Ok(state) if state == "done" => return self.fetch_result(id),
                Ok(state) => {
                    let status = self.request("GET", &format!("/jobs/{id}"), b"")?;
                    let text = status.text();
                    let message = json_str(&text, "message").unwrap_or_default();
                    let transient = text.contains("\"transient\":true");
                    if state == "failed" && transient {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        last = Some(ClientError::Job { state, message });
                        continue;
                    }
                    return Err(ClientError::Job { state, message });
                }
                Err(e) if e.is_transient() => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ClientError::Protocol("resubmission loop ended without an error")))
    }
}

/// A job submission, mirroring `POST /jobs` parameters.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Tenant name.
    pub tenant: String,
    /// Registered database name.
    pub db: String,
    /// Absolute support threshold δ.
    pub delta: u64,
    /// Algorithm: a name [`disc_server::served_names`] lists.
    pub algo: String,
    /// Result projection: a name [`disc_server::Mode::names`] lists.
    pub mode: String,
    /// Optional per-job operations cap.
    pub max_ops: Option<u64>,
}

impl Default for JobRequest {
    fn default() -> JobRequest {
        JobRequest {
            tenant: "default".into(),
            db: String::new(),
            delta: 2,
            algo: "disc-all".into(),
            mode: "all".into(),
            max_ops: None,
        }
    }
}

enum TransportFault {
    /// Worth retrying (connect refused while the server rebinds, resets,
    /// timeouts, truncated responses).
    Transient(String),
    /// Not a network problem (e.g. address parse failure) — stop.
    Fatal(String),
}

fn classify(stage: &str, e: &std::io::Error) -> TransportFault {
    if is_transient_net_kind(e.kind()) {
        TransportFault::Transient(format!("{stage}: {e}"))
    } else {
        TransportFault::Fatal(format!("{stage}: {e}"))
    }
}

/// Extracts the integer value of `"key":<digits>` from a flat JSON body.
/// The server's JSON is machine-written with no whitespace, so scanning
/// for the quoted key is exact — not a general JSON parser, and does not
/// need to be.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts the string value of `"key":"…"` from a flat JSON body
/// (unescapes nothing — callers only read identifier-like fields).
pub fn json_str(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = body.find(&needle)? + needle.len();
    Some(body[at..].split('"').next()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_extraction_reads_server_shaped_bodies() {
        let body = "{\"id\":42,\"tenant\":\"alice\",\"state\":\"queued\",\"cached\":false}";
        assert_eq!(json_u64(body, "id"), Some(42));
        assert_eq!(json_str(body, "state").as_deref(), Some("queued"));
        assert_eq!(json_str(body, "tenant").as_deref(), Some("alice"));
        assert_eq!(json_u64(body, "missing"), None);
        assert_eq!(json_str(body, "id"), None, "numeric field is not a string");
    }

    #[test]
    fn connection_refused_is_retried_then_exhausted() {
        // Bind-then-drop: the port exists but nothing listens, so connects
        // fail fast with a transient kind.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = Client::new(ClientConfig {
            addr,
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
            ..ClientConfig::default()
        });
        let err = client.request("GET", "/healthz", b"").unwrap_err();
        assert!(matches!(err, ClientError::Exhausted { attempts: 3, .. }), "{err}");
        assert!(err.is_transient());
        assert_eq!(client.retries(), 2, "two retries after the first attempt");
    }

    /// A stub server answering every connection with the same canned
    /// response, then exiting after `conns` connections.
    fn stub_server(response: Vec<u8>, conns: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().take(conns) {
                let Ok(mut s) = stream else { continue };
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut s, &mut buf);
                let _ = std::io::Write::write_all(&mut s, &response);
            }
        });
        (addr, handle)
    }

    #[test]
    fn final_attempt_skips_the_advertised_retry_after_sleep() {
        // One attempt, a 503 advertising a 5 s Retry-After: before the
        // fix the client slept those 5 s and then returned Exhausted
        // anyway; now Exhausted must come back immediately.
        let resp = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
                     Content-Length: 0\r\nRetry-After: 5\r\nConnection: close\r\n\r\n"
            .to_vec();
        let (addr, handle) = stub_server(resp, 1);
        let client = Client::new(ClientConfig {
            addr,
            retry: RetryPolicy {
                max_attempts: 1,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
            },
            ..ClientConfig::default()
        });
        let begun = Instant::now();
        let err = client.request("GET", "/stats", b"").unwrap_err();
        assert!(matches!(err, ClientError::Exhausted { attempts: 1, .. }), "{err}");
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "no sleep may follow the final attempt (took {:?})",
            begun.elapsed()
        );
        handle.join().unwrap();
    }

    #[test]
    fn over_cap_response_is_fatal_not_retried_to_exhaustion() {
        let mut resp = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
                         Content-Length: 4096\r\nConnection: close\r\n\r\n"
            .to_vec();
        resp.extend(std::iter::repeat_n(b'x', 4096));
        let (addr, handle) = stub_server(resp, 1);
        let client =
            Client::new(ClientConfig { addr, max_response_bytes: 1024, ..ClientConfig::default() });
        let err = client.request("GET", "/jobs/1/result", b"").unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "over-cap must be fatal, got {err}");
        assert!(!err.is_transient(), "a protocol disagreement is not transient");
        assert_eq!(client.retries(), 0, "no retry may be burned on an oversized response");
        handle.join().unwrap();
    }
}
