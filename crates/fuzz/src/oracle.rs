//! Differential oracle: one query, every executor configuration, one
//! reference interpreter.
//!
//! For each generated query the oracle
//!
//! 1. checks the printer/parser round trip (`parse(print(ast)) == ast`),
//! 2. runs the naive reference interpreter to obtain the expected
//!    outcome, and
//! 3. runs the executor under every configuration of [`exec_matrix`]
//!    (the row pipeline, the serial batch engine, the morsel-parallel
//!    batch engine), each both with fresh planning and with a plan
//!    captured by [`plan_top_select`] — sb-serve's prepared-statement
//!    path — and demands that every run agrees with the reference, and
//! 4. runs the validity-check entry ([`Database::check_query`]), which
//!    must return exactly what a full [`execute`] returns: `Ok` for a
//!    result, and for an error the same error text.
//!
//! Agreement is Spider execution-match (`ResultSet::same_result`:
//! multiset of rows, ordered-list comparison when both sides carry an
//! `ORDER BY`). Errors count as agreeing with errors of *any* kind —
//! the reference's evaluation order (no pushdown, nested loops only)
//! legitimately surfaces a different one of several latent errors than
//! the planned executor — but an error never
//! agrees with a result, and a panic in any configuration is always a
//! failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sb_engine::{
    execute, execute_reference, execute_with, execute_with_plan, plan_top_select, Database,
    EngineError, ExecOptions, ResultSet,
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

/// The executor configurations the oracle runs: the compiled row
/// pipeline (`columnar` off — also what every subquery and every batch
/// bail runs on), the serial columnar batch engine, and the
/// morsel-parallel batch engine with forced fan-out. Planning is not an
/// axis: every configuration plans every `SELECT`, and
/// [`check_query`] runs each one both freshly planned and from a cached
/// plan.
pub fn exec_matrix() -> Vec<(String, ExecOptions)> {
    let base = ExecOptions::default();
    vec![
        (
            "row".to_string(),
            ExecOptions {
                columnar: false,
                parallel: false,
                ..base
            },
        ),
        (
            "columnar".to_string(),
            ExecOptions {
                parallel: false,
                ..base
            },
        ),
        (
            "columnar+parallel".to_string(),
            ExecOptions {
                // Force real fan-out even on a single-core host: three
                // workers over four morsels.
                workers: 3,
                morsel_rows: PARALLEL_MORSEL_ROWS,
                ..base
            },
        ),
    ]
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
/// every configuration of [`exec_matrix`] (fresh and cached plan) and
/// the validity-check entry. `Ok(())` means total agreement.
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
    // Plans take no executor options, so one captured plan serves every
    // configuration, as one prepared statement serves every sb-serve
    // request.
    let plan = catch_unwind(AssertUnwindSafe(|| plan_top_select(db, query))).map_err(|_| {
        Disagreement::Mismatch {
            config: "plan_top_select".to_string(),
            reference: reference.label(),
            executor: "panic".to_string(),
        }
    })?;
    for (name, opts) in exec_matrix() {
        let fresh = run_caught(|| execute_with(db, query, opts));
        let cached = run_caught(|| execute_with_plan(db, query, opts, plan.as_ref()));
        for (leg, got) in [("", fresh), ("+cached-plan", cached)] {
            if !agree(&reference, &got) {
                sb_obs::count("fuzz.oracle.config_mismatches", 1);
                return Err(Disagreement::Mismatch {
                    config: format!("{name}{leg}"),
                    reference: reference.label(),
                    executor: got.label(),
                });
            }
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
