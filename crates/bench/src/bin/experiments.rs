//! Regenerates the DISC paper's evaluation tables and figures.
//!
//! ```text
//! experiments <fig8|fig9|fig10|table12|table13|table14|parallel|all> [--smoke|--full]
//! ```
//!
//! Default scale divides the paper's customer counts by ten so a full run
//! finishes on a laptop; `--full` restores the paper's sizes; `--smoke` is
//! the CI-sized sanity run. Raw measurements land in `target/experiments/`.

use disc_bench::experiments;
use disc_bench::workloads::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig8|fig9|fig10|table12|table13|table14|parallel|all> [--smoke|--full]"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Default;
    let mut which: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--full" => scale = Scale::Full,
            "--default" => scale = Scale::Default,
            name if !name.starts_with('-') && which.is_none() => which = Some(arg),
            _ => usage(),
        }
    }
    let run: fn(Scale) = match which.as_deref() {
        Some("fig8") => experiments::fig8,
        Some("fig9") => experiments::fig9,
        Some("fig10") => experiments::fig10,
        Some("table12") => experiments::table12,
        Some("table13") => experiments::table13,
        Some("table14") => experiments::table14,
        Some("parallel") => experiments::parallel,
        Some("all") => experiments::all,
        _ => usage(),
    };
    eprintln!("scale: {scale:?}");
    run(scale);
}
