//! `sbbench` — run one benchmark workload and print its result line.
//!
//! ```text
//! sbbench --workload <table5_quick|serve_science|all>
//!         [--seed N] [--seconds S] [--trace 0|1]
//! sbbench --write-expected <table5|serve_science>
//! ```
//!
//! Run from the repository root (it reads `datasets/` and the expected
//! outputs). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric untraced, every per-layer metric with `--trace 1`. The exit
//! code is non-zero when a check fails. Traced runs also write their
//! spans to `.bench_out/<workload>-seed<N>.spans.jsonl`.

use sb_perfbench::report::{END_TO_END, PER_LAYER};
use sb_perfbench::{serve, table5, DEFAULT_SEED, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: `{v}`")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let repo = Path::new(".");
    if let Some(what) = flag(args, "--write-expected") {
        match what.as_str() {
            "table5" => table5::write_expected(repo)?,
            "serve_science" => {
                let path = repo.join(serve::SCIENCE_DIGESTS);
                std::fs::write(&path, serve::science_digests(repo)?)
                    .map_err(|e| format!("{}: {e}", path.display()))?
            }
            other => return Err(format!("unknown expected-output set `{other}`")),
        }
        return Ok(true);
    }

    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let seed: u64 = parse(args, "--seed", DEFAULT_SEED)?;
    let seconds: f64 = parse(args, "--seconds", 20.0)?;
    let traced = match parse(args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    if workload == "all" {
        return run_all(args);
    }
    let spans = repo.join(format!(".bench_out/{workload}-seed{seed}.spans.jsonl"));
    let outcome = match (workload.as_str(), traced) {
        ("table5_quick", false) => table5::run(table5::variant(seed), seconds, repo)?,
        ("table5_quick", true) => table5::run_traced(table5::variant(seed), repo, &spans)?,
        ("serve_science", false) => serve::run(seed, seconds, repo)?,
        ("serve_science", true) => serve::run_traced(seed, seconds, repo, &spans)?,
        _ => {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {WORKLOADS:?} or all)"
            ))
        }
    };
    println!(
        "{}",
        outcome.render(if traced { PER_LAYER } else { END_TO_END })?
    );
    Ok(outcome.correct)
}

/// Run every workload in its own process with the same flags.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("checked")
            + 1;
        child_args[at] = w.to_string();
        eprintln!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{w}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sbbench: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("sbbench: {e}");
            ExitCode::from(2)
        }
    }
}
