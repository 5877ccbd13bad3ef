//! Spans recorded by the benchmark around its calls into each layer of the
//! program.
//!
//! Every operation gets an [`OpTrace`]. With tracing on, each call into a
//! layer becomes a span (layer name, start, end) whose parent is the
//! operation; with tracing off, [`OpTrace::span`] only runs the closure.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer, as offsets from the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The spans of one operation.
pub struct OpTrace {
    origin: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl OpTrace {
    pub fn new(origin: Instant, on: bool) -> OpTrace {
        OpTrace { origin, on, spans: Vec::new() }
    }

    /// A trace that records nothing, for untimed calls.
    pub fn off() -> OpTrace {
        OpTrace::new(Instant::now(), false)
    }

    /// Runs `f`, recording it as a span of `layer` when tracing is on.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            layer,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// Total milliseconds this operation spent in `layer`.
    pub fn layer_ms(&self, layer: &str) -> Option<f64> {
        let mut spans = self.spans.iter().filter(|s| s.layer == layer).peekable();
        spans.peek()?;
        Some(spans.map(Span::ms).sum())
    }
}

/// Writes every span as one JSON line: the operation is the parent of
/// each of its layer spans, and the operation's own span is listed first.
pub fn write_spans(path: &Path, ops: &[(f64, f64, OpTrace)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (start_us, end_us, op)) in ops.iter().enumerate() {
        writeln!(
            out,
            "{{\"op\":{id},\"span\":\"op\",\"parent\":null,\"start_us\":{start_us:.1},\"end_us\":{end_us:.1}}}"
        )?;
        for s in &op.spans {
            writeln!(
                out,
                "{{\"op\":{id},\"span\":\"{}\",\"parent\":\"op\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.layer, s.start_us, s.end_us
            )?;
        }
    }
    out.flush()
}
