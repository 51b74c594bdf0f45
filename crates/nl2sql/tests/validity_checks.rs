//! The decoders check validity lazily: SmBoP and ValueNet run
//! `Database::check` only on candidates that could still be chosen, in
//! winner order, and SmBoP realizes only the candidates whose score
//! bound can still win. These tests pin the work that saves by counting
//! the engine statements (`engine.dispatch.compiled`) and the SmBoP
//! candidates (`nl2sql.smbop.*`) one prediction goes through.
//! Their own test binary, because `sb-obs` counters are process-wide.

use sb_engine::{Database, Value};
use sb_nl2sql::{DbCatalog, NlToSql, Pair, SmBopSim, ValueNetSim};
use sb_schema::{Column, ColumnType, Schema, TableDef};
use std::sync::Mutex;

/// Serializes the tests: each reads a process-wide counter.
static OBS: Mutex<()> = Mutex::new(());

/// How much each named counter grows during one prediction.
fn counted<const N: usize>(
    sys: &dyn NlToSql,
    question: &str,
    db: &Database,
    names: [&str; N],
) -> [u64; N] {
    let _guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    sb_obs::set_mode(sb_obs::Mode::Summary);
    // The data profile is built once per database; keep it out of the
    // count.
    db.data_profile();
    let before = sb_obs::snapshot();
    sys.predict(question, db);
    let after = sb_obs::snapshot();
    names.map(|name| after.counter(name) - before.counter(name))
}

/// Engine statements run by one prediction.
fn statements(sys: &dyn NlToSql, question: &str, db: &Database) -> u64 {
    let [n] = counted(sys, question, db, ["engine.dispatch.compiled"]);
    n
}

/// Crates whose Int weights sit next to `i64::MAX`, so any SUM over two
/// of them overflows, and pallets of ordinary weight.
fn depot() -> Database {
    let table = |name: &str| {
        TableDef::new(
            name,
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("weight", ColumnType::Int),
            ],
        )
    };
    let schema = Schema::new("depot")
        .with_table(table("crates"))
        .with_table(table("pallets"));
    let mut db = Database::new(schema);
    for i in 0..6i64 {
        db.table_mut("crates").unwrap().push_rows(vec![vec![
            Value::Int(i),
            format!("crate {i}").into(),
            Value::Int(i64::MAX - i),
        ]]);
        db.table_mut("pallets").unwrap().push_rows(vec![vec![
            Value::Int(i),
            format!("pallet {i}").into(),
            Value::Int(100 + i),
        ]]);
    }
    db
}

/// Questions about the depot and their gold SQL.
fn depot_pairs() -> [Pair; 3] {
    [
        Pair::new(
            "What is the total weight of crates?",
            "SELECT SUM(c.weight) FROM crates AS c",
            "depot",
        ),
        Pair::new(
            "Show the names of crates",
            "SELECT c.name FROM crates AS c",
            "depot",
        ),
        Pair::new(
            "Show the weight of crates",
            "SELECT c.weight FROM crates AS c",
            "depot",
        ),
    ]
}

fn trained_valuenet(db: &Database) -> ValueNetSim {
    let mut sys = ValueNetSim::new();
    sys.train(&depot_pairs(), &DbCatalog::new([db]));
    sys
}

#[test]
fn smbop_checks_only_a_winner_that_executes() {
    let db = depot();
    let sys = SmBopSim::new();
    let question = "How many pallets have a weight greater than 5?";
    assert!(db.check(&sys.predict(question, &db)).is_ok());
    assert_eq!(statements(&sys, question, &db), 1);
}

#[test]
fn smbop_checks_an_overflowing_winner_and_its_successor() {
    let db = depot();
    let sys = SmBopSim::new();
    let question = "What is the total weight of crates?";
    assert!(db.check(&sys.predict(question, &db)).is_ok());
    assert_eq!(statements(&sys, question, &db), 2);
}

#[test]
fn trained_smbop_realizes_fewer_candidates_than_it_enumerates() {
    let db = depot();
    let mut sys = SmBopSim::new();
    sys.train(&depot_pairs(), &DbCatalog::new([&db]));
    let question = "Show the names of pallets with a weight greater than 102";
    assert!(db.check(&sys.predict(question, &db)).is_ok());
    let [candidates, realized, statements] = counted(
        &sys,
        question,
        &db,
        [
            "nl2sql.smbop.candidates",
            "nl2sql.smbop.realized",
            "engine.dispatch.compiled",
        ],
    );
    assert!(
        0 < realized && realized < candidates,
        "realized {realized} of {candidates} candidates"
    );
    assert_eq!(statements, 1);
}

#[test]
fn trained_valuenet_beam_checks_only_its_winner() {
    let db = depot();
    let sys = trained_valuenet(&db);
    let question = "Sum up the weight of the crates";
    assert!(db.check(&sys.predict(question, &db)).is_ok());
    assert_eq!(statements(&sys, question, &db), 1);
}

#[test]
fn trained_valuenet_beam_skips_an_overflowing_winner() {
    let db = depot();
    let sys = trained_valuenet(&db);
    let question = "What is the total weight of all crates?";
    assert!(db.check(&sys.predict(question, &db)).is_ok());
    assert_eq!(statements(&sys, question, &db), 2);
}
