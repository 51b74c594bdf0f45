//! `Database::data_profile`: the cached profile must be exactly what the
//! `profile_database` builder returns for the current content, follow
//! mutations through `table_mut`, and be shared by clones.

use sb_data::{Domain, SizeClass};
use sb_engine::{profile_database, Database, Value};
use sb_schema::{Column, ColumnType, Schema, TableDef};
use std::sync::Arc;

#[test]
fn cached_profile_equals_builder_for_every_domain() {
    for domain in Domain::ALL {
        let db = domain.build(SizeClass::Tiny).db;
        assert_eq!(
            *db.data_profile(),
            profile_database(&db),
            "{}",
            domain.name()
        );
    }
}

#[test]
fn table_mut_invalidates_the_cached_profile() {
    let schema = Schema::new("t").with_table(TableDef::new(
        "x",
        vec![Column::new("class", ColumnType::Text)],
    ));
    let mut db = Database::new(schema);
    db.table_mut("x")
        .unwrap()
        .push_row(vec!["GALAXY".into()])
        .unwrap();
    let before = db.data_profile();
    assert_eq!(before.row_count("x"), Some(1));

    db.table_mut("x")
        .unwrap()
        .push_row(vec![Value::Text("STAR".into())])
        .unwrap();
    let after = db.data_profile();
    assert_eq!(after.row_count("x"), Some(2));
    let class = after.column("x", "class").unwrap();
    assert!(class.frequent_values.contains(&"'STAR'".to_string()));
    assert_eq!(*after, profile_database(&db));
    // The stale profile is untouched for whoever still holds it.
    assert_eq!(before.row_count("x"), Some(1));
}

#[test]
fn clones_share_the_built_profile() {
    let db = Domain::Sdss.build(SizeClass::Tiny).db;
    let profile = db.data_profile();
    let copy = db.clone();
    assert!(Arc::ptr_eq(&profile, &copy.data_profile()));
    assert!(Arc::ptr_eq(&profile, &db.data_profile()));
}
