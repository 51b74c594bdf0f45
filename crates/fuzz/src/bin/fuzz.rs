//! Differential fuzz sessions from the command line.
//!
//! ```text
//! cargo run --release -p sb-fuzz --bin fuzz -- [--domain cordis|sdss|oncomx] \
//!     [--seed N] [--count N]
//! ```
//!
//! Runs `count` generated queries per selected domain (all three when
//! `--domain` is omitted) through the parse↔print↔parse check and every
//! executor configuration of `sb_fuzz::exec_matrix` (fresh and cached
//! plan) against the reference interpreter. Failures print the seed, the original SQL and a shrunk
//! reproducer; the exit code is the total failure count (0 = clean).

use sb_data::Domain;
use sb_fuzz::run_fuzz;

fn usage() -> ! {
    eprintln!("usage: fuzz [--domain cordis|sdss|oncomx] [--seed N] [--count N]");
    std::process::exit(2);
}

fn main() {
    let mut domains: Vec<Domain> = Domain::ALL.to_vec();
    let mut seed: u64 = 0;
    let mut count: usize = 2_000;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--domain" => {
                let v = value();
                domains = vec![match v.as_str() {
                    "cordis" => Domain::Cordis,
                    "sdss" => Domain::Sdss,
                    "oncomx" => Domain::OncoMx,
                    _ => usage(),
                }];
                i += 2;
            }
            "--seed" => {
                seed = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--count" => {
                count = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let mut total = 0usize;
    for domain in domains {
        let failures = run_fuzz(domain, seed, count);
        println!(
            "{}: {} queries, {} failure(s)",
            domain.name(),
            count,
            failures.len()
        );
        for f in &failures {
            println!("{f}");
        }
        total += failures.len();
    }
    std::process::exit(total.min(125) as i32);
}
