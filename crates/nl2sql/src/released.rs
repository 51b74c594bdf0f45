//! The released datasets (`datasets/{cordis,sdss,oncomx}.json`) against
//! their `sb-data` databases at `SizeClass::Tiny`: the question sets the
//! decoders' equivalence tests sweep.

use crate::Pair;
use sb_data::{Domain, SizeClass};
use sb_engine::Database;
use serde_json::Value;

/// One released domain: its database, the seed+synth training pairs and
/// every seed and dev question.
pub(crate) struct Released {
    pub db: Database,
    pub train: Vec<Pair>,
    pub questions: Vec<String>,
}

/// The three released domains, in the paper's order.
pub(crate) fn domains() -> Vec<Released> {
    Domain::ALL
        .iter()
        .map(|domain| {
            let path = format!(
                "{}/../../datasets/{}.json",
                env!("CARGO_MANIFEST_DIR"),
                domain.name()
            );
            let text = std::fs::read_to_string(&path).expect("released dataset");
            let doc: Value = serde_json::from_str(&text).expect("dataset JSON");
            let split = |name: &str| -> Vec<Pair> {
                let Value::Array(pairs) = field(&doc, name) else {
                    panic!("{path}: `{name}` is not an array");
                };
                pairs
                    .iter()
                    .map(|pair| {
                        let text = |key: &str| match field(pair, key) {
                            Value::Str(s) => s.clone(),
                            _ => panic!("{path}: `{key}` is not a string"),
                        };
                        Pair::new(text("question"), text("sql"), text("db"))
                    })
                    .collect()
            };
            let seed = split("seed");
            let questions = seed
                .iter()
                .chain(&split("dev"))
                .map(|p| p.nl.clone())
                .collect();
            Released {
                db: domain.build(SizeClass::Tiny).db,
                train: seed.into_iter().chain(split("synth")).collect(),
                questions,
            }
        })
        .collect()
}

/// The value of an object's field.
fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    object
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field `{key}`"))
}
