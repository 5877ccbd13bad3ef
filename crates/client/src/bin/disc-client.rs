//! `disc-client` — scriptable front end for the retrying mining client.
//!
//! The CI `chaos-smoke` job drives this binary with `--chaos-seed` to push
//! a full upload→submit→wait→fetch session through the deterministic
//! network-fault harness and byte-diff the output against direct
//! `disc-mine`. Exit codes mirror the `disc-mine` contract: `0` success,
//! `1` permanent failure, `2` usage error, `75` transient failure (retry
//! budget exhausted — a supervisor may re-run).

use disc_client::{Client, ClientConfig, ClientError, JobRequest};
use disc_core::RetryPolicy;
use disc_server::chaos::ChaosConfig;
use std::time::Duration;

const EX_TEMPFAIL: i32 = 75;

fn usage() -> ! {
    eprintln!(
        "usage: disc-client mine --addr HOST:PORT --db NAME --delta N [options]\n\
         \n\
         Uploads a database (if --file is given), submits a mining job, waits,\n\
         and prints the result lines to stdout. Retries transparently on\n\
         transient network faults and Retry-After responses.\n\
         \n\
         options:\n\
           --file PATH         database file to upload as NAME (.dscdb bytes)\n\
           --tenant NAME       tenant to submit as            [default]\n\
           --algo ALGO         one of {algos} [disc-all]\n\
           --mode MODE         one of {modes} [all]\n\
           --max-ops N         per-job operations cap\n\
           --attempts N        retry attempts per request     [8]\n\
           --job-timeout-secs N  wait bound per submission    [120]\n\
           --chaos-seed SEED   wrap every connection in the seeded fault\n\
                               harness (testing only)\n\
           --quiet             suppress progress on stderr",
        algos = disc_server::served_names(),
        modes = disc_server::Mode::names(),
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    db: String,
    delta: u64,
    file: Option<String>,
    tenant: String,
    algo: String,
    mode: String,
    max_ops: Option<u64>,
    attempts: u32,
    job_timeout: Duration,
    chaos_seed: Option<u64>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("mine") {
        usage();
    }
    let mut out = Args {
        addr: String::new(),
        db: String::new(),
        delta: 0,
        file: None,
        tenant: "default".into(),
        algo: "disc-all".into(),
        mode: "all".into(),
        max_ops: None,
        attempts: 8,
        job_timeout: Duration::from_secs(120),
        chaos_seed: None,
        quiet: false,
    };
    let mut have_delta = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| bad(flag, "missing value"));
        match arg.as_str() {
            "--addr" => out.addr = value("--addr"),
            "--db" => out.db = value("--db"),
            "--delta" => {
                out.delta = parse_num(&value("--delta"), "--delta");
                have_delta = true;
            }
            "--file" => out.file = Some(value("--file")),
            "--tenant" => out.tenant = value("--tenant"),
            "--algo" => out.algo = value("--algo"),
            "--mode" => out.mode = value("--mode"),
            "--max-ops" => out.max_ops = Some(parse_num(&value("--max-ops"), "--max-ops")),
            "--attempts" => out.attempts = parse_num(&value("--attempts"), "--attempts") as u32,
            "--job-timeout-secs" => {
                out.job_timeout = Duration::from_secs(parse_num(
                    &value("--job-timeout-secs"),
                    "--job-timeout-secs",
                ))
            }
            "--chaos-seed" => {
                out.chaos_seed = Some(parse_num(&value("--chaos-seed"), "--chaos-seed"))
            }
            "--quiet" => out.quiet = true,
            other => bad(other, "unrecognized flag"),
        }
    }
    if out.addr.is_empty() || out.db.is_empty() || !have_delta {
        usage();
    }
    out
}

fn parse_num(s: &str, flag: &str) -> u64 {
    s.parse().unwrap_or_else(|_| bad(flag, "not a number"))
}

fn bad(flag: &str, what: &str) -> ! {
    eprintln!("disc-client: {flag}: {what}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let client = Client::new(ClientConfig {
        addr: args.addr.clone(),
        retry: RetryPolicy {
            max_attempts: args.attempts.max(1),
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(750),
        },
        chaos: args.chaos_seed.map(ChaosConfig::moderate),
        ..ClientConfig::default()
    });

    if let Some(path) = &args.file {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("disc-client: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = client.upload_db(&args.db, &bytes) {
            fail(&client, "upload", &e, args.quiet);
        }
        if !args.quiet {
            eprintln!("disc-client: database {} registered", args.db);
        }
    }

    let spec = JobRequest {
        tenant: args.tenant,
        db: args.db,
        delta: args.delta,
        algo: args.algo,
        mode: args.mode,
        max_ops: args.max_ops,
    };
    match client.mine(&spec, args.job_timeout) {
        Ok(result) => {
            use std::io::Write as _;
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(&result);
            let _ = stdout.flush();
            if !args.quiet {
                eprintln!(
                    "disc-client: done ({} retries, {} chaos faults survived)",
                    client.retries(),
                    client.chaos_faults()
                );
            }
        }
        Err(e) => fail(&client, "mine", &e, args.quiet),
    }
}

fn fail(client: &Client, stage: &str, e: &ClientError, quiet: bool) -> ! {
    if !quiet {
        eprintln!(
            "disc-client: {stage} failed after {} retries, {} chaos faults: {e}",
            client.retries(),
            client.chaos_faults()
        );
    } else {
        eprintln!("disc-client: {stage} failed: {e}");
    }
    let code = match e {
        ClientError::Exhausted { .. } => EX_TEMPFAIL,
        ClientError::Http { status, .. } if *status == 503 => EX_TEMPFAIL,
        _ => 1,
    };
    std::process::exit(code);
}
