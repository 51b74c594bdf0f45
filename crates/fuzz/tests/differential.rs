//! Bounded differential fuzz campaign: the tier-1 smoke run.
//!
//! Each domain gets `SB_FUZZ_COUNT` queries (default 2,000) from a
//! fixed base seed; every query is round-tripped through the printer
//! and parser and executed under every configuration of `exec_matrix`
//! (fresh and cached plan) against the reference interpreter. Any disagreement fails the test and
//! prints seed + original + shrunk reproducer, ready to paste into a
//! regression test.
//!
//! For longer sessions: `SB_FUZZ_COUNT=50000 cargo test -p sb-fuzz`.

use sb_data::Domain;
use sb_fuzz::{fuzz_database, run_fuzz, QueryGenerator};
use sb_metrics::hardness::{classify, Hardness};

/// Default queries per domain; keep in sync with the README note.
const DEFAULT_COUNT: usize = 2_000;

fn fuzz_count() -> usize {
    std::env::var("SB_FUZZ_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_COUNT)
}

fn campaign(domain: Domain, base_seed: u64) {
    let failures = run_fuzz(domain, base_seed, fuzz_count());
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[{}] {f}", domain.name());
        }
        panic!(
            "{} oracle failure(s) on {} (see reproducers above)",
            failures.len(),
            domain.name()
        );
    }
}

#[test]
fn differential_cordis() {
    campaign(Domain::Cordis, 0xC0D15);
}

#[test]
fn differential_sdss() {
    campaign(Domain::Sdss, 0x5D55);
}

#[test]
fn differential_oncomx() {
    campaign(Domain::OncoMx, 0x0C0);
}

/// The generator's clause weights must make every Spider hardness
/// bucket reachable — otherwise whole engine paths go unfuzzed.
#[test]
fn generator_reaches_every_hardness_bucket() {
    for domain in Domain::ALL {
        let db = fuzz_database(domain);
        let mut gen = QueryGenerator::new(&db, 7);
        let mut seen = [false; 4];
        for _ in 0..500 {
            let q = gen.query();
            let idx = Hardness::ALL
                .iter()
                .position(|h| *h == classify(&q))
                .unwrap();
            seen[idx] = true;
        }
        assert_eq!(
            seen,
            [true; 4],
            "{}: some hardness bucket unreachable in 500 queries",
            domain.name()
        );
    }
}

/// The generator must keep emitting joins that run as nested loops —
/// inequality ONs and equality-plus-filter ONs — or the row engine's
/// nested-loop join drops out from under the oracle.
#[test]
fn generator_emits_non_equi_and_compound_joins() {
    use sb_sql::{BinaryOp, Expr, SetExpr};
    for domain in Domain::ALL {
        let db = fuzz_database(domain);
        let mut gen = QueryGenerator::new(&db, 7);
        let (mut non_equi, mut compound) = (0, 0);
        for _ in 0..500 {
            let SetExpr::Select(select) = gen.query().body else {
                continue;
            };
            for join in &select.joins {
                match &join.constraint {
                    Some(Expr::Binary {
                        op: BinaryOp::And, ..
                    }) => compound += 1,
                    Some(Expr::Binary { op, .. }) if *op != BinaryOp::Eq => non_equi += 1,
                    _ => {}
                }
            }
        }
        assert!(
            non_equi > 0 && compound > 0,
            "{}: {non_equi} non-equi and {compound} compound ONs in 500 queries",
            domain.name()
        );
    }
}
