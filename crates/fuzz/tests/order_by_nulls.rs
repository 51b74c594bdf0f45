//! ORDER BY NULL placement and tie handling, pinned on a fixture and
//! then cross-checked on every domain database.
//!
//! The engine's deliberate divergence from Postgres: `Value::total_cmp`
//! sorts NULL *first* under ASC (Postgres defaults to NULLS LAST), and
//! therefore last under DESC. These tests pin that contract explicitly,
//! then demand strict ordered-list agreement — not just multiset
//! equality — between every executor configuration of `exec_matrix`
//! (all planned, so top-K fusion under LIMIT included) and the reference
//! interpreter, over every fuzz domain.

use sb_data::Domain;
use sb_engine::{execute_reference, execute_with, Database, Value};
use sb_fuzz::{exec_matrix, fuzz_database};
use sb_schema::{Column, ColumnType, Schema, TableDef};

fn fixture() -> Database {
    let schema = Schema::new("nulls").with_table(TableDef::new(
        "t",
        vec![
            Column::pk("id", ColumnType::Int),
            Column::new("v", ColumnType::Int),
        ],
    ));
    let mut db = Database::new(schema);
    db.table_mut("t").unwrap().push_rows(vec![
        vec![1.into(), 5.into()],
        vec![2.into(), Value::Null],
        vec![3.into(), 5.into()],
        vec![4.into(), 1.into()],
        vec![5.into(), Value::Null],
    ]);
    db
}

/// Ordered rows of one query under one configuration, unwrapped.
fn ordered(db: &Database, sql: &str, opts: sb_engine::ExecOptions) -> Vec<Vec<Value>> {
    let q = sb_sql::parse(sql).unwrap();
    execute_with(db, &q, opts).unwrap().rows
}

#[test]
fn nulls_sort_first_ascending_and_last_descending() {
    let db = fixture();
    for (name, opts) in exec_matrix() {
        let asc = ordered(&db, "SELECT v, id FROM t ORDER BY v", opts);
        assert_eq!(
            asc,
            vec![
                vec![Value::Null, 2.into()],
                vec![Value::Null, 5.into()],
                vec![1.into(), 4.into()],
                vec![5.into(), 1.into()],
                vec![5.into(), 3.into()],
            ],
            "[{name}] ASC: NULLs first, ties in input order"
        );
        let desc = ordered(&db, "SELECT v, id FROM t ORDER BY v DESC", opts);
        assert_eq!(
            desc,
            vec![
                vec![5.into(), 1.into()],
                vec![5.into(), 3.into()],
                vec![1.into(), 4.into()],
                vec![Value::Null, 2.into()],
                vec![Value::Null, 5.into()],
            ],
            "[{name}] DESC: NULLs last, ties stay in input order"
        );
        // The bounded top-K heap under LIMIT must agree with a full
        // sort truncated — including where the NULLs land.
        let top = ordered(&db, "SELECT v, id FROM t ORDER BY v LIMIT 3", opts);
        assert_eq!(top, asc[..3].to_vec(), "[{name}] top-K prefix");
        let top = ordered(&db, "SELECT v, id FROM t ORDER BY v DESC LIMIT 2", opts);
        assert_eq!(top, desc[..2].to_vec(), "[{name}] top-K prefix DESC");
    }
}

/// Every domain database, every table, every column: ORDER BY that
/// column (both directions, with and without LIMIT) and demand the
/// exact row list the reference interpreter produces, under every
/// configuration. This sweeps real NULL-bearing data — the fuzz
/// loaders leave NULLs in nullable columns — through top-K fusion,
/// projection pruning, and both join-free scan paths.
#[test]
fn ordered_lists_agree_with_reference_across_domains() {
    for domain in [Domain::Cordis, Domain::Sdss, Domain::OncoMx] {
        let db = fuzz_database(domain);
        for table in &db.schema.tables {
            for col in &table.columns {
                for (dir, limit) in [
                    ("ASC", ""),
                    ("DESC", ""),
                    ("ASC", " LIMIT 7"),
                    ("DESC", " LIMIT 7"),
                ] {
                    let sql = format!(
                        "SELECT {c} FROM {t} ORDER BY {c} {dir}{limit}",
                        c = col.name,
                        t = table.name,
                    );
                    let q = sb_sql::parse(&sql).unwrap();
                    let expected = execute_reference(&db, &q).unwrap().rows;
                    for (name, opts) in exec_matrix() {
                        let got = execute_with(&db, &q, opts).unwrap().rows;
                        assert_eq!(got, expected, "[{name}] ordered rows diverge on {sql}");
                    }
                }
            }
        }
    }
}
