//! Data profiling: extract a [`DataProfile`] from database content for
//! automatic enhanced-schema inference.

use crate::database::Database;
use crate::key::KeyIndex;
use crate::value::Value;
use sb_schema::{ColumnProfile, DataProfile};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// How many frequent values to retain per column. Value samplers and schema
/// linkers only need a handful of representative literals.
const FREQUENT_VALUES: usize = 24;

/// Hash a non-NULL value under *literal identity* — the equivalence of
/// [`sql_literal`] renderings, which is exact per-type value identity
/// (notably finer than canonical-key rounding: `3` and `3.0` are
/// distinct literals). NaN is normalized to one bit pattern since every
/// NaN renders as the same literal.
fn lit_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    match v {
        Value::Null => h.write_u8(0),
        Value::Int(i) => {
            h.write_u8(1);
            h.write_i64(*i);
        }
        Value::Float(f) => {
            h.write_u8(2);
            let f = if f.is_nan() { f64::NAN } else { *f };
            h.write_u64(f.to_bits());
        }
        Value::Text(s) => {
            h.write_u8(3);
            h.write(s.as_bytes());
        }
        Value::Bool(b) => {
            h.write_u8(4);
            h.write_u8(*b as u8);
        }
    }
    h.finish()
}

/// Literal-identity equality matching [`lit_hash`].
fn lit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// Profile every column of every table in `db`. Frequencies are counted
/// by hashed value identity rather than by rendering every cell, and
/// [`most_frequent`] renders one literal at a time, so the few literals a
/// cached profile keeps are not scattered among thousands of freed ones,
/// which holds on to heap pages and raises peak RSS.
///
/// This is a full scan; callers go through [`Database::data_profile`],
/// which runs it once per database. Each call counts one
/// `engine.data_profile.builds`.
pub fn profile_database(db: &Database) -> DataProfile {
    sb_obs::count("engine.data_profile.builds", 1);
    let mut profile = DataProfile::new();
    for table in db.tables() {
        profile.set_row_count(&table.def.name, table.len());
        for (idx, col) in table.def.columns.iter().enumerate() {
            let mut count = 0usize;
            let mut index = KeyIndex::default();
            let mut freq: Vec<(&Value, usize)> = Vec::new();
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut saw_numeric = false;
            for v in table.column_values(idx) {
                if v.is_null() {
                    continue;
                }
                count += 1;
                let h = lit_hash(v);
                match index.insert(h, freq.len() as u32, |t| lit_eq(freq[t as usize].0, v)) {
                    Some(t) => freq[t as usize].1 += 1,
                    None => freq.push((v, 1)),
                }
                if let Some(x) = v.as_f64() {
                    saw_numeric = true;
                    min = min.min(x);
                    max = max.max(x);
                }
            }
            let distinct = freq.len();
            let frequent_values = most_frequent(freq);
            profile.insert(
                &table.def.name,
                &col.name,
                ColumnProfile {
                    count,
                    distinct,
                    min: saw_numeric.then_some(min),
                    max: saw_numeric.then_some(max),
                    frequent_values,
                },
            );
        }
    }
    profile
}

/// The [`FREQUENT_VALUES`] most frequent values of a column as literals,
/// most frequent first, ties broken by literal: a bounded ordered list,
/// so each rendered literal is dropped at once unless it is kept.
fn most_frequent(freq: Vec<(&Value, usize)>) -> Vec<String> {
    let mut top: Vec<(usize, String)> = Vec::with_capacity(FREQUENT_VALUES + 1);
    for (v, n) in freq {
        if top.len() == FREQUENT_VALUES && n < top[FREQUENT_VALUES - 1].0 {
            continue;
        }
        let lit = sql_literal(v);
        // Distinct values render distinct literals, so (count desc,
        // literal asc) is a total order and the kept list is exact.
        let pos = top.partition_point(|(c, l)| *c > n || (*c == n && *l < lit));
        if pos < FREQUENT_VALUES {
            top.insert(pos, (n, lit));
            top.truncate(FREQUENT_VALUES);
        }
    }
    top.into_iter().map(|(_, lit)| lit).collect()
}

/// Render a value as a SQL literal (the form the value sampler splices into
/// generated queries).
pub fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_schema::{Column, ColumnType, Schema, TableDef};

    #[test]
    fn profiles_counts_distinct_and_ranges() {
        let schema = Schema::new("t").with_table(TableDef::new(
            "x",
            vec![
                Column::new("class", ColumnType::Text),
                Column::new("z", ColumnType::Float),
            ],
        ));
        let mut db = Database::new(schema);
        db.table_mut("x").unwrap().push_rows(vec![
            vec!["GALAXY".into(), 0.5.into()],
            vec!["GALAXY".into(), 1.5.into()],
            vec!["STAR".into(), Value::Null],
        ]);
        let p = profile_database(&db);
        let class = p.column("x", "class").unwrap();
        assert_eq!(class.count, 3);
        assert_eq!(class.distinct, 2);
        assert_eq!(class.frequent_values[0], "'GALAXY'");
        let z = p.column("x", "z").unwrap();
        assert_eq!(z.count, 2);
        assert_eq!(z.min, Some(0.5));
        assert_eq!(z.max, Some(1.5));
        assert_eq!(p.row_count("x"), Some(3));
    }

    /// The selection `most_frequent` replaced: render every distinct
    /// value, sort by (count desc, literal asc), keep the first ones.
    fn most_frequent_reference(freq: &[(&Value, usize)]) -> Vec<String> {
        let mut by_freq: Vec<(String, usize)> =
            freq.iter().map(|(v, n)| (sql_literal(v), *n)).collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_freq.truncate(FREQUENT_VALUES);
        by_freq.into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn most_frequent_matches_sort_and_truncate() {
        let values: Vec<Value> = (0..200i64)
            .map(|i| match i % 5 {
                0 => Value::Int(i * 7 % 61 - 30),
                1 => Value::Float(i as f64 / 8.0),
                2 => Value::Text(format!("v{}'{}", i % 13, i)),
                3 => Value::Text(format!("{}", 997 * i % 101)),
                _ => Value::Float(-(i as f64)),
            })
            .collect();
        for (len, modulus) in [
            (0, 1),
            (5, 3),
            (24, 2),
            (25, 1),
            (200, 1),
            (200, 4),
            (200, 9),
        ] {
            let freq: Vec<(&Value, usize)> = values[..len]
                .iter()
                .enumerate()
                .map(|(i, v)| (v, 1 + (i * 31 + 7) % modulus))
                .collect();
            assert_eq!(
                most_frequent(freq.clone()),
                most_frequent_reference(&freq),
                "{len} values, counts mod {modulus}"
            );
        }
    }

    #[test]
    fn literals_round_trip_through_parser() {
        for v in [
            Value::Int(42),
            Value::Float(2.22),
            Value::Float(3.0),
            Value::Text("it's".into()),
            Value::Bool(true),
            Value::Null,
        ] {
            let lit = sql_literal(&v);
            let sql = format!("SELECT a FROM t WHERE a = {lit}");
            assert!(sb_sql::parse(&sql).is_ok(), "literal `{lit}` must re-parse");
        }
    }
}
