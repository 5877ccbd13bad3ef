//! The repository's end-to-end benchmark: batch mining, durable ingest and
//! served jobs, each measured from the outside in and, with `--trace 1`,
//! broken down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload mines the database of a row committed in the
//! repository's `BENCH_*.json` files, generated as that row was, with its
//! customers shuffled and its items relabelled by `--seed` (see
//! [`check::committed_db`]). Before measuring, a run computes the
//! reference output of every query with an independent miner
//! (`PseudoPrefixSpan`). The run is then [`EPOCHS`] epochs after a warm-up
//! one: each epoch sets the program up afresh (timed; `setup_s` is the
//! median) and runs operations in a closed loop for its share of
//! `--seconds`. Each operation's output is checked against the reference,
//! byte for byte as `disc-mine` renders it. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans as JSON
//! lines under `<target dir>/perfbench-trace/`.
//!
//! The end-to-end metrics are the 90th-percentile operation latency and
//! the set-up time. On a shared virtual machine the CPU speed can change
//! by a third or more within a second and for minutes at a time. The
//! median and the mean (throughput, in a closed loop) follow the share of
//! the run spent at each speed; the 90th percentile stays near the slower
//! speed and moved about half as much between runs. Set-ups spread over
//! the run sample the host the way the operations do.
//!
//! | workload | committed row | one operation | layers it crosses |
//! |---|---|---|---|
//! | `mine` | `medium`, `BENCH_simd.json` | `disc-mine <file.txt>`: read + parse, item compaction, DISC-all, render | parse, compact, mine, render |
//! | `ingest` | `medium`, `BENCH_mmap.json` | recover a store, append customers, compact, map the `DSCFD1` mirror, mine it | store recovery, WAL append, compaction, flat-file map, mine, render |
//! | `serve` | `cached-job` and `cold-job`, `BENCH_serve.json` | submit a job (one in 21 bypassing the cache), poll it, fetch the result | HTTP accept and parse, admission, result cache; for cold jobs the scheduler queue, checkpointed slices, mine, result write |
//!
//! `mine` parses text; `ingest` maps the columnar file the store publishes,
//! so the parse layer is bypassed there. On `serve` most of a cached
//! request's time is the server's accept loop sleeping 15 ms whenever no
//! connection is waiting, so a slower HTTP parser, admission check or
//! cache shows in the per-layer trace well before it moves `p90_ms`.

mod check;
mod ingest;
mod mine;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::OpTrace;

/// Measured epochs per run, after one warm-up epoch.
const EPOCHS: usize = 10;

/// A workload: its inputs and reference outputs, made before the run.
pub trait Workload {
    /// The program's own set-up for one epoch, in the empty directory
    /// `dir`. Timed, so it does only the program's work.
    fn setup(&mut self, dir: &Path) -> Result<(), String>;

    /// Untimed preparation of the next operation, run just before it.
    fn prepare(&self) -> Result<(), String> {
        Ok(())
    }

    /// One operation. An `Err` is a failed call or an output that differs
    /// from the reference.
    fn op(&self, t: &mut OpTrace) -> Result<(), String>;

    /// Counters the program itself exposes, read before and after an
    /// epoch's operations.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops whatever `setup` started and reports whether it ended cleanly.
    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

const WORKLOADS: [&str; 3] = ["mine", "ingest", "serve"];

/// Makes a workload's inputs (under `dir`, where it needs files) and its
/// reference outputs.
fn workload(name: &str, seed: u64, dir: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "mine" => Ok(Box::new(mine::Mine::new(seed, dir)?)),
        "ingest" => Ok(Box::new(ingest::Ingest::new(seed)?)),
        "serve" => Ok(Box::new(serve::Serve::new(seed)?)),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Per-layer metrics, reported by every workload under `--trace 1` (0
/// where a workload does not cross the layer). `_ms` metrics are the
/// median over operations of the time an operation spent in that layer;
/// `job_wait_ms` is the time from a job's acceptance to its last status
/// poll, scheduler queueing and mining slices included.
/// `slices_per_job` and `cache_hit_ratio` come from the server's own
/// counters.
const PER_LAYER: [(&str, &str); 15] = [
    ("op_traced_ms", "ms"),
    ("parse_ms", "ms"),
    ("compact_ms", "ms"),
    ("mine_ms", "ms"),
    ("render_ms", "ms"),
    ("store_recover_ms", "ms"),
    ("store_append_ms", "ms"),
    ("store_compact_ms", "ms"),
    ("flatfile_map_ms", "ms"),
    ("http_submit_ms", "ms"),
    ("job_wait_ms", "ms"),
    ("http_fetch_ms", "ms"),
    ("slices_per_job", "count"),
    ("cache_hit_ratio", "ratio"),
    ("ops", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The build's target directory (`<target>/release/perfbench`), where the
/// benchmark keeps its scratch state and traces.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("unexpected executable path {}", exe.display()))
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// What the closed loop saw over one window.
#[derive(Default)]
struct Window {
    /// `(start_us, end_us, trace)` per completed operation.
    ops: Vec<(f64, f64, OpTrace)>,
    attempted: u64,
    failures: Vec<String>,
    wall: Duration,
}

impl Window {
    fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|(start, end, _)| (end - start) / 1e3).collect()
    }

    fn absorb(&mut self, mut later: Window) {
        self.ops.append(&mut later.ops);
        self.attempted += later.attempted;
        self.failures.append(&mut later.failures);
        self.wall += later.wall;
    }
}

/// Runs operations one after another, each sent when the previous one has
/// answered, until `length` has passed; the operation under way at the
/// deadline finishes and counts.
fn closed_loop(w: &dyn Workload, length: Duration, trace: bool, origin: Instant) -> Window {
    let start = Instant::now();
    let mut win = Window::default();
    while start.elapsed() < length {
        if let Err(e) = w.prepare() {
            win.failures.push(e);
            break;
        }
        let mut t = OpTrace::new(origin, trace);
        let began = origin.elapsed();
        let result = w.op(&mut t);
        let ended = origin.elapsed();
        win.attempted += 1;
        match result {
            Ok(()) => win.ops.push((began.as_secs_f64() * 1e6, ended.as_secs_f64() * 1e6, t)),
            Err(e) => win.failures.push(e),
        }
    }
    win.wall = start.elapsed();
    win
}

fn per_layer_metrics(win: &Window, counters: &[(&'static str, f64)]) -> Vec<(String, f64)> {
    let counter = |name: &str| counters.iter().find(|(c, _)| *c == name).map_or(0.0, |(_, v)| *v);
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "op_traced_ms" => median(win.latencies_ms()),
                "ops" => win.ops.len() as f64,
                "slices_per_job" if !win.ops.is_empty() => counter("slices") / win.ops.len() as f64,
                "cache_hit_ratio" => {
                    let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
                    if hits + misses > 0.0 {
                        hits / (hits + misses)
                    } else {
                        0.0
                    }
                }
                layer => {
                    let layer = layer.trim_end_matches("_ms");
                    let times: Vec<f64> =
                        win.ops.iter().filter_map(|(_, _, t)| t.layer_ms(layer)).collect();
                    median(times)
                }
            };
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            (name.to_string(), value + 0.0)
        })
        .collect()
}

/// Adds to `total` what each counter gained from `before` to `after`.
fn add_counter_deltas(
    total: &mut Vec<(&'static str, f64)>,
    before: &[(&'static str, f64)],
    after: &[(&'static str, f64)],
) {
    for &(name, v) in after {
        let b = before.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        match total.iter_mut().find(|(n, _)| *n == name) {
            Some((_, sum)) => *sum += v - b,
            None => total.push((name, v - b)),
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    match name {
        "p90_ms" => "ms",
        "setup_s" => "s",
        _ => PER_LAYER.iter().find(|(n, _)| *n == name).map_or("count", |(_, u)| u),
    }
}

/// The run's scratch directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let target = target_dir()?;
    let work = WorkDir(target.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    let t0 = Instant::now();
    let mut w = workload(&args.workload, args.seed, &work.0)?;
    eprintln!("perfbench: inputs and reference outputs took {:.3}s", t0.elapsed().as_secs_f64());

    let origin = Instant::now();
    let warmup = Duration::from_secs_f64((args.seconds * 0.1).clamp(0.5, 3.0));
    let epoch = Duration::from_secs_f64(args.seconds / EPOCHS as f64);
    let mut setup_times = Vec::new();
    let mut win = Window::default();
    let mut warm_failures = Vec::new();
    let mut counters = Vec::new();
    for e in 0..=EPOCHS {
        let dir = work.0.join(format!("epoch-{e}"));
        std::fs::create_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
        let t0 = Instant::now();
        let set_up = w.setup(&dir);
        let setup_s = t0.elapsed().as_secs_f64();
        if let Err(err) = set_up {
            let _ = w.teardown();
            return Err(format!("set-up of epoch {e}: {err}"));
        }
        // Epoch 0 warms up: its set-up is the first run of the program's
        // code in this process, and its operations are not measured.
        let measured = e > 0;
        let before = w.counters();
        let ew =
            closed_loop(&*w, if measured { epoch } else { warmup }, args.trace && measured, origin);
        let after = w.counters();
        let torn_down = w.teardown();
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "perfbench: {} epoch {e}: set-up {setup_s:.3}s, {} ops in {:.3}s",
            args.workload,
            ew.ops.len(),
            ew.wall.as_secs_f64()
        );
        if measured {
            setup_times.push(setup_s);
            add_counter_deltas(&mut counters, &before, &after);
            win.absorb(ew);
        } else {
            warm_failures.extend(ew.failures);
        }
        if let Err(err) = torn_down {
            warm_failures.push(format!("teardown of epoch {e}: {err}"));
        }
    }

    let failures: Vec<&String> = warm_failures.iter().chain(&win.failures).collect();
    for f in failures.iter().take(5) {
        eprintln!("perfbench: FAILED: {f}");
    }
    let correct = failures.is_empty() && !win.ops.is_empty();
    eprintln!(
        "perfbench: {} ops in {:.3}s, {} failed",
        win.ops.len(),
        win.wall.as_secs_f64(),
        failures.len()
    );

    let metrics = if args.trace {
        let path = target
            .join("perfbench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_spans(&path, &win.ops).map_err(|e| format!("cannot write trace: {e}"))?;
        eprintln!("perfbench: spans written to {}", path.display());
        per_layer_metrics(&win, &counters)
    } else {
        let mut lat = win.latencies_ms();
        lat.sort_by(f64::total_cmp);
        vec![
            ("p90_ms".to_string(), quantile(&lat, 0.9)),
            ("setup_s".to_string(), median(setup_times)),
        ]
    };
    Ok(Outcome { correct, attempted: win.attempted, failed: win.failures.len() as u64, metrics })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(Outcome { correct, attempted, failed, metrics }) => {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, value)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
                })
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                body.join(", ")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
