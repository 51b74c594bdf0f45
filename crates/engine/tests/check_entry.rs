//! The validity-check entry (`Database::check` / `check_with_profile`)
//! against a full run: it must return the same `Ok`/`Err` with the same
//! error value, and it must take the columnar batch path whenever the
//! full run does. The second half matters as much as the first: a check
//! that silently fell back to the row path would still answer correctly
//! while building every intermediate row the batch path avoids, so each
//! case compares the per-block columnar/fallback flags of both profiles.

use sb_engine::{
    check_with_profile, execute_with_profile, Database, EngineError, ExecOptions, Value,
};
use sb_obs::QueryProfile;
use sb_schema::{Column, ColumnType, Schema, TableDef};

/// Per-block (columnar, fallback reason) of one profiled statement.
type Paths = Vec<(bool, Option<&'static str>)>;

fn paths(prof: &QueryProfile) -> Paths {
    prof.snapshot()
        .blocks
        .iter()
        .map(|b| (b.columnar, b.fallback))
        .collect()
}

/// Run and check `sql`, assert they agree on outcome and path, and
/// return the full run's outcome plus the top block's columnar flag.
fn run_and_check(db: &Database, sql: &str) -> (Result<usize, EngineError>, bool) {
    let query = sb_sql::parse(sql).expect("test SQL parses");
    let opts = ExecOptions::default();
    let run_prof = QueryProfile::new();
    let run = execute_with_profile(db, &query, opts, Some(&run_prof));
    let check_prof = QueryProfile::new();
    let checked = check_with_profile(db, &query, Some(&check_prof));
    match (&run, &checked) {
        (Ok(_), Ok(())) => {}
        (Err(a), Err(b)) => assert_eq!(a, b, "different errors for `{sql}`"),
        _ => panic!("`{sql}`: run {run:?} vs check {checked:?}"),
    }
    assert_eq!(db.check(sql), checked, "Database::check for `{sql}`");
    assert_eq!(db.check_query(&query), checked, "check_query for `{sql}`");
    let (run_paths, check_paths) = (paths(&run_prof), paths(&check_prof));
    assert_eq!(run_paths, check_paths, "execution paths differ for `{sql}`");
    let top_columnar = run_paths.first().is_some_and(|(c, _)| *c);
    (run.map(|rs| rs.rows.len()), top_columnar)
}

/// SDSS-shaped fixture: `specobj` points at `photoobj`, and photo
/// objects share `run` values, so joining photoobj to itself on `run`
/// fans out.
fn sdss() -> Database {
    let schema = Schema::new("mini_sdss")
        .with_table(TableDef::new(
            "specobj",
            vec![
                Column::pk("specobjid", ColumnType::Int),
                Column::new("bestobjid", ColumnType::Int),
                Column::new("class", ColumnType::Text),
                Column::new("z", ColumnType::Float),
            ],
        ))
        .with_table(TableDef::new(
            "photoobj",
            vec![
                Column::pk("objid", ColumnType::Int),
                Column::new("run", ColumnType::Int),
                Column::new("i", ColumnType::Float),
                Column::new("big", ColumnType::Int),
            ],
        ));
    let mut db = Database::new(schema);
    let classes = ["GALAXY", "STAR", "QSO"];
    db.table_mut("specobj").unwrap().push_rows(
        (0..30i64)
            .map(|k| {
                vec![
                    Value::Int(k),
                    Value::Int(100 + k % 12),
                    Value::Text(classes[(k % 3) as usize].into()),
                    Value::Float(k as f64 * 0.1),
                ]
            })
            .collect(),
    );
    db.table_mut("photoobj").unwrap().push_rows(
        (0..12i64)
            .map(|k| {
                vec![
                    Value::Int(100 + k),
                    Value::Int(k % 3),
                    Value::Float(15.0 + (k * 7 % 12) as f64 * 0.5),
                    Value::Int(if k == 5 { i64::MAX / 2 } else { k }),
                ]
            })
            .collect(),
    );
    db
}

#[test]
fn three_way_join_ordered_top_k_stays_on_the_batch_path() {
    // The shape of a seed-21 SDSS Table 5 candidate: a fan-out join
    // through a second photoobj binding, ordered by a column of the
    // first, cut to five rows.
    let (out, columnar) = run_and_check(
        &sdss(),
        "SELECT T1.class FROM specobj AS T1 JOIN photoobj AS T2 ON T1.bestobjid = T2.objid \
         JOIN photoobj AS T3 ON T2.run = T3.run ORDER BY T2.i DESC LIMIT 5",
    );
    assert_eq!(out, Ok(5));
    assert!(columnar, "the full run is expected on the batch path");
}

#[test]
fn select_star_stays_on_the_batch_path() {
    let (out, columnar) = run_and_check(&sdss(), "SELECT * FROM photoobj WHERE run = 1");
    assert_eq!(out, Ok(4));
    assert!(columnar);
}

#[test]
fn order_by_projection_alias_stays_on_the_batch_path() {
    let (out, columnar) = run_and_check(
        &sdss(),
        "SELECT z AS redshift, class FROM specobj ORDER BY redshift DESC LIMIT 3",
    );
    assert_eq!(out, Ok(3));
    assert!(columnar);
    // An ORDER BY name that is neither a column nor an alias is an
    // error both ways.
    let (out, _) = run_and_check(&sdss(), "SELECT z AS redshift FROM specobj ORDER BY nope");
    assert!(matches!(out, Err(EngineError::UnknownColumn(_))), "{out:?}");
}

#[test]
fn distinct_stays_on_the_batch_path() {
    let (out, columnar) = run_and_check(&sdss(), "SELECT DISTINCT class FROM specobj");
    assert_eq!(out, Ok(3));
    assert!(columnar);
    let (out, _) = run_and_check(
        &sdss(),
        "SELECT DISTINCT class FROM specobj ORDER BY class LIMIT 2",
    );
    assert_eq!(out, Ok(2));
}

#[test]
fn grouped_aggregates_agree() {
    let (out, columnar) = run_and_check(
        &sdss(),
        "SELECT class, COUNT(*) FROM specobj GROUP BY class HAVING COUNT(*) > 5 ORDER BY class",
    );
    assert_eq!(out, Ok(3));
    assert!(columnar);
}

#[test]
fn union_agrees() {
    let (out, _) = run_and_check(
        &sdss(),
        "SELECT objid FROM photoobj WHERE run = 0 UNION SELECT bestobjid FROM specobj \
         WHERE class = 'QSO' ORDER BY objid LIMIT 4",
    );
    assert_eq!(out, Ok(4));
    // A set operation whose ORDER BY names no output column errors.
    let (out, _) = run_and_check(
        &sdss(),
        "SELECT objid FROM photoobj UNION SELECT bestobjid FROM specobj ORDER BY z",
    );
    assert!(matches!(out, Err(EngineError::UnknownColumn(_))), "{out:?}");
}

#[test]
fn in_subquery_agrees() {
    let (out, _) = run_and_check(
        &sdss(),
        "SELECT specobjid FROM specobj WHERE bestobjid IN \
         (SELECT objid FROM photoobj WHERE i > 18)",
    );
    assert!(out.is_ok(), "{out:?}");
    // A failing subquery fails the check too.
    let (out, _) = run_and_check(
        &sdss(),
        "SELECT specobjid FROM specobj WHERE bestobjid IN (SELECT nope FROM photoobj)",
    );
    assert!(out.is_err());
}

#[test]
fn type_error_agrees() {
    for sql in [
        "SELECT class + 1 FROM specobj",
        "SELECT specobjid FROM specobj ORDER BY class - 2",
        "SELECT specobjid FROM specobj WHERE class > 3",
    ] {
        let (out, _) = run_and_check(&sdss(), sql);
        assert!(
            matches!(out, Err(EngineError::TypeMismatch(_))),
            "{sql}: {out:?}"
        );
    }
}

#[test]
fn overflow_agrees_in_projections_and_order_keys() {
    for sql in [
        "SELECT big * 4 FROM photoobj",
        "SELECT objid FROM photoobj ORDER BY big * 4",
        "SELECT objid FROM photoobj ORDER BY big * 4 LIMIT 1",
        "SELECT SUM(big * 4) FROM photoobj",
    ] {
        let (out, _) = run_and_check(&sdss(), sql);
        assert!(
            matches!(out, Err(EngineError::Overflow(_))),
            "{sql}: {out:?}"
        );
    }
    // No overflow when the offending row is filtered out first.
    let (out, columnar) = run_and_check(
        &sdss(),
        "SELECT big * 4 FROM photoobj WHERE objid <> 105 ORDER BY big * 4 DESC",
    );
    assert_eq!(out, Ok(11));
    assert!(columnar);
}

#[test]
fn unknown_names_agree() {
    for sql in [
        "SELECT nope FROM specobj",
        "SELECT specobjid FROM nope",
        "SELECT objid FROM photoobj AS a JOIN photoobj AS b ON a.objid = b.objid",
    ] {
        let (out, _) = run_and_check(&sdss(), sql);
        assert!(out.is_err(), "{sql}");
    }
}

#[test]
fn oncomx_self_join_checks_without_building_its_rows() {
    // A ValueNet beam candidate of the quick Table 5 grid: joining
    // differential_expression to itself through gene returns 301,902
    // rows on the Small snapshot, which a check must not build.
    let db = sb_data::Domain::OncoMx.build(sb_data::SizeClass::Small).db;
    let (out, columnar) = run_and_check(
        &db,
        "SELECT T1.expression_change_direction FROM differential_expression AS T1 \
         JOIN gene AS T2 ON T2.id = T1.gene JOIN differential_expression AS T3 \
         ON T2.id = T3.gene WHERE T3.expression_change_direction = 'up'",
    );
    assert_eq!(out, Ok(301_902));
    assert!(columnar);
}
