//! Differential oracle: one query, every executor configuration, one
//! reference interpreter.
//!
//! For each generated query the oracle
//!
//! 1. checks the printer/parser round trip (`parse(print(ast)) == ast`),
//! 2. runs the naive reference interpreter to obtain the expected
//!    outcome, and
//! 3. runs the optimized executor under the full [`ExecOptions`] matrix
//!    (join strategy × predicate pushdown × scan copying × compiled vs
//!    interpreted expressions × cost-based planner on/off × columnar
//!    batch engine on/off) and demands that every configuration agrees
//!    with the reference, and
//! 4. runs the validity-check entry ([`Database::check_query`]), which
//!    must return exactly what a full [`execute`] returns: `Ok` for a
//!    result, and for an error the same error text.
//!
//! Agreement is Spider execution-match (`ResultSet::same_result`:
//! multiset of rows, ordered-list comparison when both sides carry an
//! `ORDER BY`). Errors count as agreeing with errors of *any* kind —
//! predicate pushdown and join-strategy choices legitimately change
//! which of several latent errors surfaces first — but an error never
//! agrees with a result, and a panic in any configuration is always a
//! failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sb_engine::{
    execute, execute_reference, execute_with, Database, EngineError, ExecOptions, JoinStrategy,
    ResultSet,
};
use sb_sql::Query;

/// Outcome of running one query under one configuration.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Executed to completion.
    Ok(ResultSet),
    /// Returned an engine error.
    Err(String),
    /// Panicked (index out of bounds, arithmetic overflow, ...).
    Panic(String),
}

impl Outcome {
    fn label(&self) -> String {
        match self {
            Outcome::Ok(rs) => format!("{} rows, {} cols", rs.rows.len(), rs.columns.len()),
            Outcome::Err(e) => format!("error: {e}"),
            Outcome::Panic(p) => format!("panic: {p}"),
        }
    }
}

/// Why a query failed the oracle.
#[derive(Debug, Clone)]
pub enum Disagreement {
    /// `parse(print(ast))` failed or produced a different AST.
    RoundTrip(String),
    /// One executor configuration disagreed with the reference.
    Mismatch {
        config: String,
        reference: String,
        executor: String,
    },
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disagreement::RoundTrip(msg) => write!(f, "round-trip: {msg}"),
            Disagreement::Mismatch {
                config,
                reference,
                executor,
            } => write!(
                f,
                "[{config}] reference: {reference} | executor: {executor}"
            ),
        }
    }
}

/// Morsel size used by the matrix's parallel configurations. Fuzz
/// tables hold [`crate::FUZZ_ROWS_PER_TABLE`] = 24 rows, so a morsel of
/// 7 rows splits every full-table scan into four morsels — the merge
/// paths (filter selection concat, join build/probe, group-table and
/// accumulator folds) all run on every parallel query instead of
/// degenerating to the single-morsel serial case.
const PARALLEL_MORSEL_ROWS: usize = 7;

/// The full executor configuration matrix: every join strategy crossed
/// with pushdown on/off, copying vs zero-copy scans, compiled vs
/// interpreted expression evaluation, the cost-based planner on/off,
/// the columnar batch engine on/off, and morsel-parallel execution
/// on/off — nominally 192 configurations. The `optimize` axis is what
/// differentially verifies every planner rewrite (join reordering,
/// projection pruning, planned build sides) against the plan-free
/// legacy path and the reference interpreter; the `columnar` axis does
/// the same for every vectorized kernel and its row-path fallback
/// boundary; the `parallel` axis does the same for every per-morsel
/// kernel and its deterministic merge.
///
/// The parallel axis is sampled down to keep campaign runtime bounded:
/// `parallel` without `columnar` is dropped (the row path has no
/// parallel kernels — those 48 configurations execute byte-for-byte
/// the same code as their serial twins), leaving 144 configurations
/// that each cover distinct machine code.
pub fn exec_matrix() -> Vec<(String, ExecOptions)> {
    let mut out = Vec::new();
    for join in [
        JoinStrategy::Auto,
        JoinStrategy::BuildRight,
        JoinStrategy::NestedLoop,
    ] {
        for pushdown in [false, true] {
            for copy in [false, true] {
                for compiled in [false, true] {
                    for optimize in [false, true] {
                        for columnar in [false, true] {
                            for parallel in [false, true] {
                                if parallel && !columnar {
                                    continue;
                                }
                                let name = format!(
                                    "{join:?}{}{}{}{}{}{}",
                                    if pushdown { "+pushdown" } else { "" },
                                    if copy { "+copy" } else { "" },
                                    if compiled { "+compiled" } else { "" },
                                    if optimize { "+opt" } else { "" },
                                    if columnar { "+columnar" } else { "" },
                                    if parallel { "+parallel" } else { "" }
                                );
                                out.push((
                                    name,
                                    ExecOptions {
                                        predicate_pushdown: pushdown,
                                        join,
                                        copy_scans: copy,
                                        compiled,
                                        optimize,
                                        columnar,
                                        parallel,
                                        // Force real fan-out even on a
                                        // single-core host: three
                                        // workers over four morsels.
                                        workers: if parallel { 3 } else { 0 },
                                        morsel_rows: if parallel {
                                            PARALLEL_MORSEL_ROWS
                                        } else {
                                            0
                                        },
                                    },
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn run_caught(f: impl FnOnce() -> Result<ResultSet, EngineError>) -> Outcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(rs)) => Outcome::Ok(rs),
        Ok(Err(e)) => Outcome::Err(e.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Outcome::Panic(msg)
        }
    }
}

fn agree(reference: &Outcome, executor: &Outcome) -> bool {
    match (reference, executor) {
        (Outcome::Ok(a), Outcome::Ok(b)) => a.same_result(b),
        // Which error surfaces depends on evaluation order; kind-level
        // agreement is all the architecture guarantees.
        (Outcome::Err(_), Outcome::Err(_)) => true,
        _ => false,
    }
}

/// Run `query` through the round-trip check, the reference interpreter,
/// the full configuration matrix and the validity-check entry. `Ok(())`
/// means total agreement.
pub fn check_query(db: &Database, query: &Query) -> Result<(), Disagreement> {
    let sql = query.to_string();
    match sb_sql::parse(&sql) {
        Err(e) => {
            return Err(Disagreement::RoundTrip(format!(
                "printed SQL failed to parse: {e}"
            )))
        }
        Ok(reparsed) if &reparsed != query => {
            return Err(Disagreement::RoundTrip(
                "reparsed AST differs from the generated AST".to_string(),
            ))
        }
        Ok(_) => {}
    }

    let reference = run_caught(|| execute_reference(db, query));
    if let Outcome::Panic(_) = reference {
        return Err(Disagreement::Mismatch {
            config: "reference".to_string(),
            reference: reference.label(),
            executor: "-".to_string(),
        });
    }
    for (name, opts) in exec_matrix() {
        let got = run_caught(|| execute_with(db, query, opts));
        if !agree(&reference, &got) {
            sb_obs::count("fuzz.oracle.config_mismatches", 1);
            return Err(Disagreement::Mismatch {
                config: name,
                reference: reference.label(),
                executor: got.label(),
            });
        }
    }

    // `check` builds no rows but must decide exactly as a full run
    // does: same `Ok`/`Err`, and the same error, not just its kind.
    let full = run_caught(|| execute(db, query));
    let checked = run_caught(|| db.check_query(query).map(|()| ResultSet::empty(Vec::new())));
    let same = match (&full, &checked) {
        (Outcome::Ok(_), Outcome::Ok(_)) => true,
        (Outcome::Err(a), Outcome::Err(b)) => a == b,
        _ => false,
    };
    if !same {
        return Err(Disagreement::Mismatch {
            config: "check".to_string(),
            reference: format!("execute → {}", full.label()),
            executor: format!("check → {}", checked.label()),
        });
    }
    Ok(())
}
