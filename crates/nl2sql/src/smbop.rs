//! SmBoP-like system: bottom-up candidate construction with schema-aware
//! alignment scoring.
//!
//! SmBoP builds query trees bottom-up, keeping a beam of sub-trees ranked
//! by a learned scorer. This surrogate enumerates a bounded space of
//! relational-algebra trees over the linked schema elements (projections,
//! filters, aggregates, group-bys, superlatives, single FK joins) and
//! scores every candidate by the embedding similarity between the
//! question and the candidate's canonical English realization — the
//! GraPPa-style "does this SQL talk about what the question talks about"
//! signal. Training improves the realization vocabulary (learned aliases)
//! and the linker; the enumeration depth is fixed, so queries beyond the
//! grammar (deep nesting, multi-joins beyond two hops) are simply
//! unreachable — mirroring the ceiling real bottom-up decoders hit on the
//! extra-hard class.
//!
//! A candidate's score is `0.5·cos + feat`: the realization similarity
//! and cheap shape/mention features. Only a candidate that executes can
//! be chosen; a failing one keeps its score minus 10. Realizing,
//! embedding and executing are the expensive parts of the decoder, so
//! decoding is an exact branch-and-bound (`select`): every candidate
//! gets its features, and `0.5 + feat` bounds its score because
//! `cosine` is clamped to `[-1, 1]` and float addition rounds
//! monotonically. Candidates are realized and embedded only while their
//! bound can still reach the best score, and `Database::check_query`
//! runs on exact scores in winner order. The answer is exactly what
//! realizing and checking every candidate up front would pick.

use crate::linker::{column_mentioned, LinkResult, Linker};
use crate::{DbCatalog, NlToSql, Pair};
use sb_embed::{embed, Embedding};
use sb_engine::Database;
use sb_nl::{Realizer, Style};
use sb_schema::{ColumnType, EnhancedSchema, Schema};
use sb_sql::{
    AggArg, AggFunc, BinaryOp, Expr, Join, Literal, OrderItem, Query, Select, SelectItem, TableRef,
};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// The SmBoP-like system.
#[derive(Debug, Clone, Default)]
pub struct SmBopSim {
    linker: Linker,
}

/// Cap on enumerated candidates per prediction; the beam the scorer
/// ranks.
const MAX_CANDIDATES: usize = 600;

impl SmBopSim {
    /// Create an untrained system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerate candidate queries bottom-up from the link result.
    fn enumerate(&self, link: &LinkResult, db: &Database, question: &str) -> Vec<Query> {
        let schema = &db.schema;
        let mut out: Vec<Query> = Vec::new();
        let q_lower = question.to_lowercase();
        let wants_count = ["how many", "number of", "count"]
            .iter()
            .any(|w| q_lower.contains(w));
        // "maximum/minimum" phrase → aggregate; "highest/lowest" phrase →
        // superlative (ORDER BY + LIMIT). The canonical realizations keep
        // these disjoint.
        let agg_wanted: Vec<AggFunc> = [
            (AggFunc::Avg, vec!["average", "mean"]),
            (AggFunc::Sum, vec!["total", "sum"]),
            (AggFunc::Min, vec!["minimum"]),
            (AggFunc::Max, vec!["maximum"]),
        ]
        .into_iter()
        .filter(|(_, words)| words.iter().any(|w| q_lower.contains(w)))
        .map(|(f, _)| f)
        .collect();
        let superlative_desc = ["highest", "most", "largest", "top", "maximum"]
            .iter()
            .any(|w| q_lower.contains(w));
        let superlative_asc = ["lowest", "least", "smallest", "fewest", "minimum"]
            .iter()
            .any(|w| q_lower.contains(w));
        let grouped = ["each", "every", "per "]
            .iter()
            .any(|w| q_lower.contains(w));

        // Tables to consider: linked ones, value-hosting ones, else the
        // first schema table.
        let mut tables: Vec<String> = link.tables.iter().map(|(t, _)| t.clone()).collect();
        for (t, _, _) in &link.values {
            if !tables.contains(t) {
                tables.push(t.clone());
            }
        }
        if tables.is_empty() {
            if let Some(t) = schema.tables.first() {
                tables.push(t.name.to_ascii_lowercase());
            }
        }
        tables.truncate(3);

        for table in &tables {
            let Some(def) = schema.table(table) else {
                continue;
            };
            // Candidate projection columns: linked first, then pk/name.
            let mut proj_cols: Vec<String> = link
                .columns_of(table)
                .into_iter()
                .map(|c| c.column.clone())
                .take(3)
                .collect();
            if let Some(pk) = def.primary_key() {
                if !proj_cols.contains(&pk.name.to_ascii_lowercase()) {
                    proj_cols.push(pk.name.to_ascii_lowercase());
                }
            }
            if let Some(name_col) = def.column("name") {
                let n = name_col.name.to_ascii_lowercase();
                if !proj_cols.contains(&n) {
                    proj_cols.push(n);
                }
            }
            let numeric_cols: Vec<String> = link
                .columns_of(table)
                .into_iter()
                .filter(|c| def.column(&c.column).is_some_and(|cd| cd.ty.is_numeric()))
                .map(|c| c.column.clone())
                .take(2)
                .collect();

            // Candidate filters over this table.
            let mut filters: Vec<Option<Expr>> = vec![None];
            for (t, c, v) in &link.values {
                if t == table {
                    filters.push(Some(Expr::binary(
                        Expr::col(None, c),
                        BinaryOp::Eq,
                        Expr::Literal(v.clone()),
                    )));
                }
            }
            for &n in &link.numbers {
                for c in &numeric_cols {
                    let ty = def.column(c).map(|cd| cd.ty);
                    let lit = if ty == Some(ColumnType::Int) && n.fract() == 0.0 {
                        Literal::Int(n as i64)
                    } else {
                        Literal::Float(n)
                    };
                    for op in [BinaryOp::Gt, BinaryOp::Lt, BinaryOp::Eq] {
                        filters.push(Some(Expr::binary(
                            Expr::col(None, c),
                            op,
                            Expr::Literal(lit.clone()),
                        )));
                    }
                }
            }
            // Pairwise conjunctions/disjunctions of atomic filters with
            // distinct literals (disjunction only when the question says
            // "or").
            let atomic: Vec<Expr> = filters.iter().flatten().cloned().collect();
            let wants_or = q_lower.contains(" or ");
            let mut combos = 0;
            'combo: for i in 0..atomic.len() {
                for j in (i + 1)..atomic.len() {
                    if combos >= 24 {
                        break 'combo;
                    }
                    if filter_literal(&atomic[i]) == filter_literal(&atomic[j]) {
                        continue;
                    }
                    filters.push(Some(Expr::binary(
                        atomic[i].clone(),
                        BinaryOp::And,
                        atomic[j].clone(),
                    )));
                    combos += 1;
                    if wants_or {
                        filters.push(Some(Expr::binary(
                            atomic[i].clone(),
                            BinaryOp::Or,
                            atomic[j].clone(),
                        )));
                        combos += 1;
                    }
                }
            }

            for filter in &filters {
                // Plain projections: single columns and the top pair.
                for col in &proj_cols {
                    out.push(plain_query(
                        table,
                        std::slice::from_ref(col),
                        filter.clone(),
                    ));
                    if out.len() >= MAX_CANDIDATES {
                        return out;
                    }
                }
                if proj_cols.len() >= 2 {
                    out.push(plain_query(
                        table,
                        &[proj_cols[0].clone(), proj_cols[1].clone()],
                        filter.clone(),
                    ));
                }
                // COUNT(*).
                if wants_count || filter.is_some() {
                    out.push(agg_query(table, AggFunc::Count, None, filter.clone()));
                }
                // Aggregates over numeric columns.
                for f in &agg_wanted {
                    for c in &numeric_cols {
                        out.push(agg_query(table, *f, Some(c.clone()), filter.clone()));
                    }
                }
                // GROUP BY over linked text columns.
                if grouped {
                    for c in link.columns_of(table) {
                        if def
                            .column(&c.column)
                            .is_some_and(|cd| cd.ty == ColumnType::Text)
                        {
                            out.push(group_query(table, &c.column, filter.clone()));
                        }
                    }
                }
                // Superlatives.
                if superlative_desc || superlative_asc {
                    for key in &numeric_cols {
                        for proj in proj_cols.iter().take(2) {
                            let n = link
                                .numbers
                                .iter()
                                .find(|n| n.fract() == 0.0 && **n >= 1.0 && **n <= 100.0)
                                .map(|n| *n as u64)
                                .unwrap_or(1);
                            out.push(superlative_query(
                                table,
                                proj,
                                key,
                                superlative_desc,
                                n,
                                filter.clone(),
                            ));
                        }
                    }
                }
                if out.len() >= MAX_CANDIDATES {
                    return out;
                }
            }

            // One-hop FK joins to another linked table. Filters and
            // projections are qualified (T1 = this table, T2 = the other),
            // and both tables contribute candidates for each.
            for other in &tables {
                if other == table {
                    continue;
                }
                let edge = schema
                    .join_edges(table)
                    .into_iter()
                    .find(|(_, o, _)| o.eq_ignore_ascii_case(other));
                let Some((lcol, _, rcol)) = edge else {
                    continue;
                };
                // Projections from either side.
                let mut projections: Vec<(&str, String)> = proj_cols
                    .iter()
                    .take(2)
                    .map(|c| ("T1", c.clone()))
                    .collect();
                for c in link.columns_of(other).into_iter().take(2) {
                    projections.push(("T2", c.column.clone()));
                }
                // Qualified filters from either side.
                let mut jfilters: Vec<Option<Expr>> = vec![None];
                for (t, c, v) in &link.values {
                    let qualifier = if t == table {
                        Some("T1")
                    } else if t.eq_ignore_ascii_case(other) {
                        Some("T2")
                    } else {
                        None
                    };
                    if let Some(q) = qualifier {
                        jfilters.push(Some(Expr::binary(
                            Expr::col(Some(q), c),
                            BinaryOp::Eq,
                            Expr::Literal(v.clone()),
                        )));
                    }
                }
                for &n in &link.numbers {
                    for (qual, side) in [("T1", table.as_str()), ("T2", other.as_str())] {
                        let Some(side_def) = schema.table(side) else {
                            continue;
                        };
                        for c in link.columns_of(side).into_iter().take(2) {
                            let Some(cd) = side_def.column(&c.column) else {
                                continue;
                            };
                            if !cd.ty.is_numeric() {
                                continue;
                            }
                            let lit = if cd.ty == ColumnType::Int && n.fract() == 0.0 {
                                Literal::Int(n as i64)
                            } else {
                                Literal::Float(n)
                            };
                            for op in [BinaryOp::Eq, BinaryOp::Gt, BinaryOp::Lt] {
                                jfilters.push(Some(Expr::binary(
                                    Expr::col(Some(qual), &c.column),
                                    op,
                                    Expr::Literal(lit.clone()),
                                )));
                            }
                        }
                    }
                }
                for (qual, proj) in &projections {
                    for filter in jfilters.iter().take(10) {
                        out.push(join_query_qualified(
                            table,
                            other,
                            &lcol,
                            &rcol,
                            qual,
                            proj,
                            filter.clone(),
                        ));
                        if out.len() >= MAX_CANDIDATES {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// The question's realization vocabulary: the schema with every
    /// learned alias of its database applied.
    fn enhanced_schema(&self, db: &Database) -> EnhancedSchema {
        let mut enhanced = EnhancedSchema::new(db.schema.clone());
        for (table, column, token) in self.linker.learned_aliases(&db.schema.name) {
            enhanced.set_column_alias(&table, &column, &token);
        }
        enhanced
    }
}

/// The shape/mention feature part of every candidate's score.
fn feature_scores(
    question: &str,
    link: &LinkResult,
    db: &Database,
    candidates: &[Query],
) -> Vec<f64> {
    let q_tokens = sb_embed::tokenize(question);
    let cues = QuestionCues::of(question);
    let facts = QuestionFacts::of(&q_tokens, link, &db.schema);
    candidates
        .iter()
        .map(|c| {
            let feat = score_features(c, &facts, &cues, link);
            debug_assert!(feat.is_finite(), "{c}");
            feat
        })
        .collect()
}

/// The similarity part of a candidate's score: `0.5·cos` between the
/// question and the candidate's English realization. Never above 0.5,
/// because `cosine` is clamped to `[-1, 1]`.
fn cos_part(realizer: &Realizer, q_embed: &Embedding, c: &Query) -> f64 {
    let text = realizer.realize(c, Style::reference());
    let cos = 0.5 * q_embed.cosine(&embed(&text)) as f64;
    debug_assert!(cos.is_finite(), "{c}");
    cos
}

/// Shape cues read off the question: what kind of tree the scorer should
/// reward.
struct QuestionCues {
    count: bool,
    aggs: Vec<AggFunc>,
    superlative: bool,
    grouped: bool,
    join: bool,
    disjunction: bool,
    n_numbers: usize,
    greater_words: usize,
    less_words: usize,
}

impl QuestionCues {
    fn of(question: &str) -> QuestionCues {
        let q = question.to_lowercase();
        let aggs = [
            (AggFunc::Avg, vec!["average", "mean"]),
            (AggFunc::Sum, vec!["total", "sum"]),
            (AggFunc::Min, vec!["minimum"]),
            (AggFunc::Max, vec!["maximum"]),
        ]
        .into_iter()
        .filter(|(_, w)| w.iter().any(|x| q.contains(x)))
        .map(|(f, _)| f)
        .collect();
        QuestionCues {
            count: ["how many", "number of", "count"]
                .iter()
                .any(|w| q.contains(w)),
            aggs,
            superlative: [
                "highest", "most", "largest", "top", "lowest", "least", "smallest", "fewest",
            ]
            .iter()
            .any(|w| q.contains(w)),
            grouped: ["each", "every", "per "].iter().any(|w| q.contains(w)),
            join: ["together with", "related", "their matching"]
                .iter()
                .any(|w| q.contains(w)),
            disjunction: q.contains(" or "),
            n_numbers: crate::linker::extract_numbers(question).len(),
            greater_words: [
                "greater",
                "above",
                "more than",
                "exceeds",
                "at least",
                "over",
            ]
            .iter()
            .filter(|w| q.contains(*w))
            .count(),
            less_words: ["less", "below", "under", "at most", "smaller than", "fewer"]
                .iter()
                .filter(|w| q.contains(*w))
                .count(),
        }
    }
}

/// First token index at which a column is mentioned, or `None`.
fn mention_pos(q_tokens: &[String], column: &str) -> Option<usize> {
    let lower = column.to_ascii_lowercase();
    let first = crate::linker::name_parts(&lower).next()?;
    q_tokens
        .iter()
        .position(|t| t == first || crate::linker::singular_eq(t, first))
}

/// What [`score_features`] needs to know about the question, computed
/// once per question rather than once per candidate.
struct QuestionFacts<'q> {
    q_tokens: &'q [String],
    /// Mentioned linked columns with their first mention position, in
    /// link order.
    mentions: Vec<(usize, String)>,
    /// Earliest-mentioned linked column: our questions (like most NL
    /// questions) name the projection first.
    earliest: Option<(usize, String)>,
    /// Each question token parsed as a number, if it is one.
    numbers: Vec<Option<f64>>,
    /// [`column_mentioned`] for every schema column, by name as stored
    /// and ASCII-lowercased (the forms candidates spell them in).
    mentioned: HashMap<String, bool>,
}

impl<'q> QuestionFacts<'q> {
    fn of(q_tokens: &'q [String], link: &LinkResult, schema: &Schema) -> QuestionFacts<'q> {
        let mentions: Vec<(usize, String)> = link
            .columns
            .iter()
            .filter_map(|lc| mention_pos(q_tokens, &lc.column).map(|p| (p, lc.column.clone())))
            .collect();
        let earliest = mentions.iter().min().cloned();
        let numbers = q_tokens.iter().map(|t| t.parse::<f64>().ok()).collect();
        let mut mentioned = HashMap::new();
        for c in schema.tables.iter().flat_map(|t| &t.columns) {
            let hit = column_mentioned(q_tokens, &c.name);
            mentioned.insert(c.name.to_ascii_lowercase(), hit);
            mentioned.insert(c.name.clone(), hit);
        }
        QuestionFacts {
            q_tokens,
            mentions,
            earliest,
            numbers,
            mentioned,
        }
    }

    /// [`column_mentioned`] for `column`, from the table when present.
    fn column_mentioned(&self, column: &str) -> bool {
        match self.mentioned.get(column) {
            Some(&hit) => hit,
            None => column_mentioned(self.q_tokens, column),
        }
    }
}

/// The hand-built analogue of a learned tree scorer: rewards candidates
/// whose shape and column mentions align with the question's cues and
/// evidence.
fn score_features(c: &Query, facts: &QuestionFacts, cues: &QuestionCues, link: &LinkResult) -> f64 {
    let mut score = 0.0;
    let mut has_group = false;
    let mut has_join = false;
    let mut has_or = false;
    let mut n_literals = 0usize;
    let mut n_gt = 0usize;
    let mut n_lt = 0usize;
    for s in c.selects() {
        has_group |= !s.group_by.is_empty();
        has_join |= !s.joins.is_empty();
        // Columns used in filters; questions rarely project the column
        // they filter on (they already know its value).
        let mut filter_cols: Vec<&str> = Vec::new();
        if let Some(sel) = &s.selection {
            collect_cols(sel, &mut filter_cols);
            has_or |= format!("{sel}").contains(" OR ");
        }
        for item in &s.projections {
            let SelectItem::Expr { expr, .. } = item else {
                continue;
            };
            if let Expr::Column(col) = expr {
                if filter_cols.contains(&col.column.as_str()) {
                    score -= 0.1;
                }
                if let Some((_, first_col)) = &facts.earliest {
                    score += if col.column.eq_ignore_ascii_case(first_col) {
                        0.2
                    } else {
                        -0.1
                    };
                }
            }
            match expr {
                Expr::Agg { func, arg, .. } => {
                    if *func == AggFunc::Count {
                        score += if cues.count { 0.3 } else { -0.25 };
                    } else {
                        score += if cues.aggs.contains(func) { 0.35 } else { -0.3 };
                        if let AggArg::Expr(inner) = arg {
                            score += mention_bonus(inner, facts, 0.18);
                        }
                    }
                }
                other => {
                    score += mention_bonus(other, facts, 0.18);
                    if cues.count && !has_group {
                        score -= 0.15;
                    }
                    for _ in &cues.aggs {
                        score -= 0.15;
                    }
                }
            }
        }
        if let Some(sel) = &s.selection {
            for conj in sel.conjuncts() {
                score += mention_bonus(conj, facts, 0.10);
                count_ops(conj, &mut n_gt, &mut n_lt);
                score += pairing_bonus(conj, facts);
            }
            n_literals += sb_sql::visitor::collect_literals(c)
                .iter()
                .filter(|l| !matches!(l, Literal::Null))
                .count();
        }
    }
    // Comparison directions must be licensed by the question's wording.
    score -= 0.18 * (n_gt as f64 - cues.greater_words as f64).abs();
    score -= 0.18 * (n_lt as f64 - cues.less_words as f64).abs();
    // Grouping / superlative shape alignment.
    score += match (cues.grouped, has_group) {
        (true, true) => 0.3,
        (true, false) => -0.2,
        (false, true) => -0.25,
        _ => 0.0,
    };
    let has_limit = c.limit.is_some();
    score += match (cues.superlative, has_limit) {
        (true, true) => 0.25,
        (true, false) => -0.2,
        (false, true) => -0.25,
        _ => 0.0,
    };
    score += match (cues.join, has_join) {
        (true, true) => 0.3,
        (true, false) => -0.25,
        (false, true) => -0.3,
        _ => 0.0,
    };
    score += match (cues.disjunction, has_or) {
        (true, true) => 0.3,
        (true, false) => -0.2,
        (false, true) => -0.3,
        _ => 0.0,
    };
    // Evidence consumption: filters should use the question's numbers and
    // grounded values, no more, no fewer.
    let expected = cues.n_numbers + link.values.len().min(1);
    score -= 0.12 * (n_literals as f64 - expected as f64).abs();
    score
}

/// Count strict greater / less comparisons in a predicate.
fn count_ops(e: &Expr, gt: &mut usize, lt: &mut usize) {
    if let Expr::Binary { op, left, right } = e {
        match op {
            BinaryOp::Gt | BinaryOp::GtEq => *gt += 1,
            BinaryOp::Lt | BinaryOp::LtEq => *lt += 1,
            _ => {}
        }
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            count_ops(left, gt, lt);
            count_ops(right, gt, lt);
        }
    }
}

/// Bonus when a numeric filter pairs each question number with the column
/// mentioned immediately before it ("the stadium id equals 18" → the 18
/// belongs to stadium_id).
fn pairing_bonus(e: &Expr, facts: &QuestionFacts) -> f64 {
    let mut bonus = 0.0;
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            if let (Expr::Column(col), Expr::Literal(lit)) = (left.as_ref(), right.as_ref()) {
                let n = match lit {
                    Literal::Int(v) => Some(*v as f64),
                    Literal::Float(v) => Some(*v),
                    _ => None,
                };
                if let Some(n) = n {
                    // Token index of this number.
                    let num_pos = facts.numbers.iter().position(|x| {
                        x.is_some_and(|x| (x - n).abs() < 1e-9 || (x - n.trunc()).abs() < 1e-9)
                    });
                    if let Some(np) = num_pos {
                        // Nearest mentioned linked column before the number.
                        let nearest = facts
                            .mentions
                            .iter()
                            .filter(|(p, _)| *p < np)
                            .max_by_key(|(p, _)| *p);
                        if let Some((_, nearest_col)) = nearest {
                            bonus += if nearest_col.eq_ignore_ascii_case(&col.column) {
                                0.15
                            } else {
                                -0.1
                            };
                        }
                    }
                }
            }
        }
        Expr::Binary {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            right,
        } => {
            bonus += pairing_bonus(left, facts);
            bonus += pairing_bonus(right, facts);
        }
        _ => {}
    }
    bonus
}

/// The literal of an atomic comparison filter, for deduplication.
fn filter_literal(e: &Expr) -> Option<&Literal> {
    match e {
        Expr::Binary { right, .. } => match right.as_ref() {
            Expr::Literal(l) => Some(l),
            _ => None,
        },
        _ => None,
    }
}

/// Mention bonus for every column inside `e`.
fn mention_bonus(e: &Expr, facts: &QuestionFacts, w: f64) -> f64 {
    let mut cols: Vec<&str> = Vec::new();
    collect_cols(e, &mut cols);
    let mut bonus = 0.0;
    for c in cols {
        if facts.column_mentioned(c) {
            bonus += w;
        } else {
            bonus -= w / 2.0;
        }
    }
    bonus
}

fn collect_cols<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::Column(c) => out.push(&c.column),
        Expr::Binary { left, right, .. } => {
            collect_cols(left, out);
            collect_cols(right, out);
        }
        Expr::Agg {
            arg: AggArg::Expr(inner),
            ..
        } => collect_cols(inner, out),
        Expr::Between { expr, .. }
        | Expr::Like { expr, .. }
        | Expr::InList { expr, .. }
        | Expr::Unary { expr, .. } => collect_cols(expr, out),
        _ => {}
    }
}

fn base_select(table: &str) -> Select {
    Select {
        distinct: false,
        projections: Vec::new(),
        from: TableRef::named(table),
        joins: Vec::new(),
        selection: None,
        group_by: Vec::new(),
        having: None,
    }
}

fn plain_query(table: &str, cols: &[String], filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    s.projections = cols
        .iter()
        .map(|c| SelectItem::expr(Expr::col(None, c)))
        .collect();
    s.selection = filter;
    Query::from_select(s)
}

fn agg_query(table: &str, func: AggFunc, col: Option<String>, filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    let arg = match col {
        Some(c) => AggArg::Expr(Box::new(Expr::col(None, &c))),
        None => AggArg::Star,
    };
    s.projections = vec![SelectItem::expr(Expr::Agg {
        func,
        distinct: false,
        arg,
    })];
    s.selection = filter;
    Query::from_select(s)
}

fn group_query(table: &str, key: &str, filter: Option<Expr>) -> Query {
    let mut s = base_select(table);
    s.projections = vec![
        SelectItem::expr(Expr::col(None, key)),
        SelectItem::expr(Expr::Agg {
            func: AggFunc::Count,
            distinct: false,
            arg: AggArg::Star,
        }),
    ];
    s.selection = filter;
    s.group_by = vec![Expr::col(None, key)];
    Query::from_select(s)
}

fn superlative_query(
    table: &str,
    proj: &str,
    key: &str,
    desc: bool,
    limit: u64,
    filter: Option<Expr>,
) -> Query {
    let mut q = plain_query(table, &[proj.to_string()], filter);
    q.order_by = vec![OrderItem {
        expr: Expr::col(None, key),
        desc,
    }];
    q.limit = Some(limit);
    q
}

fn join_query_qualified(
    left: &str,
    right: &str,
    lcol: &str,
    rcol: &str,
    proj_qualifier: &str,
    proj: &str,
    filter: Option<Expr>,
) -> Query {
    let mut s = base_select(left);
    s.from = TableRef::aliased(left, "T1");
    s.projections = vec![SelectItem::expr(Expr::col(Some(proj_qualifier), proj))];
    s.joins = vec![Join {
        table: TableRef::aliased(right, "T2"),
        constraint: Some(Expr::binary(
            Expr::col(Some("T1"), lcol),
            BinaryOp::Eq,
            Expr::col(Some("T2"), rcol),
        )),
        left: false,
    }];
    s.selection = filter;
    Query::from_select(s)
}

impl NlToSql for SmBopSim {
    fn name(&self) -> &'static str {
        "SmBoP+GraPPa"
    }

    fn train(&mut self, pairs: &[Pair], catalog: &DbCatalog) {
        for pair in pairs {
            if let Some(db) = catalog.get(&pair.db) {
                self.linker.learn(pair, db);
            }
        }
    }

    fn predict(&self, question: &str, db: &Database) -> String {
        let link = self.linker.link(question, db);
        let candidates = self.enumerate(&link, db, question);
        if candidates.is_empty() {
            return fallback_sql(db);
        }
        let feat = feature_scores(question, &link, db, &candidates);
        let enhanced = self.enhanced_schema(db);
        let realizer = Realizer::new(&enhanced);
        let q_embed = embed(question);
        let mut realized = 0u64;
        let winner = select(
            &feat,
            |i| {
                realized += 1;
                cos_part(&realizer, &q_embed, &candidates[i])
            },
            |i| db.check_query(&candidates[i]).is_ok(),
        );
        if sb_obs::enabled() {
            sb_obs::count("nl2sql.smbop.candidates", candidates.len() as u64);
            sb_obs::count("nl2sql.smbop.realized", realized);
        }
        candidates[winner].to_string()
    }
}

/// Where a candidate stands on the [`select`] frontier; the entry's key
/// is always at least the candidate's final score.
enum Stage {
    /// Key `0.5 + feat`: the largest score the candidate could have.
    Bound,
    /// Key `cos + feat`, the candidate's score if it executes; `cos` is
    /// kept for the penalty.
    Exact(f64),
    /// Key `(cos − 10) + feat`: the candidate failed to execute.
    Penalised,
}

/// One candidate on the frontier, ordered by `(key, index)`.
struct Entry {
    key: f64,
    index: usize,
    stage: Stage,
}

impl Ord for Entry {
    /// Keys compare by `partial_cmp`, so `-0.0` ties `0.0` as it does in
    /// an argmax; the larger index wins a tie. No two entries share an
    /// index, so this is a total order.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// The candidate an eager decoder picks: the argmax (last index among
/// equal maxima) of `cos + feat`, or `(cos − 10) + feat` for a candidate
/// that fails `check`. `feat` holds every candidate's finite feature
/// part and must be non-empty; `cos(i)` computes candidate `i`'s finite
/// similarity part, at most 0.5; `check(i)` says whether it executes.
///
/// Branch and bound, exact by construction: every frontier key is at
/// least its candidate's final score, because float addition rounds
/// monotonically (`fl(cos + feat) ≤ fl(0.5 + feat)` and
/// `fl((cos − 10) + feat) ≤ fl(cos + feat)`). Each pop moves the top
/// candidate one stage along; once the top key is a final score, no
/// other candidate can reach it with a larger index, so it is the
/// argmax. `cos` runs only for candidates whose bound reaches the top,
/// and `check` runs on exactly the candidates, and in the order, that
/// re-taking the argmax after each failed check would visit.
fn select(
    feat: &[f64],
    mut cos: impl FnMut(usize) -> f64,
    mut check: impl FnMut(usize) -> bool,
) -> usize {
    let mut frontier: BinaryHeap<Entry> = feat
        .iter()
        .enumerate()
        .map(|(index, f)| Entry {
            key: 0.5 + f,
            index,
            stage: Stage::Bound,
        })
        .collect();
    loop {
        let Entry { index, stage, .. } = frontier.pop().expect("non-empty feat");
        let (key, stage) = match stage {
            Stage::Bound => {
                let cos = cos(index);
                (cos + feat[index], Stage::Exact(cos))
            }
            Stage::Exact(cos) => {
                if check(index) {
                    return index;
                }
                ((cos - 10.0) + feat[index], Stage::Penalised)
            }
            Stage::Penalised => return index,
        };
        frontier.push(Entry { key, index, stage });
    }
}

/// What SmBoP answers when it enumerates no candidate.
fn fallback_sql(db: &Database) -> String {
    format!(
        "SELECT * FROM {}",
        db.schema
            .tables
            .first()
            .map(|t| t.name.clone())
            .unwrap_or_else(|| "unknown".into())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sb_engine::{EngineError, Value};
    use sb_schema::{Column, Schema, TableDef};

    /// Every enumerated candidate with its two score parts, unchecked:
    /// `0.5·cos` between the question and the candidate's realization,
    /// and the shape/mention features. Empty when nothing enumerates.
    fn scored_candidates(sys: &SmBopSim, question: &str, db: &Database) -> Vec<(f64, f64, Query)> {
        let link = sys.linker.link(question, db);
        let candidates = sys.enumerate(&link, db, question);
        let feat = feature_scores(question, &link, db, &candidates);
        let enhanced = sys.enhanced_schema(db);
        let realizer = Realizer::new(&enhanced);
        let q_embed = embed(question);
        candidates
            .into_iter()
            .zip(feat)
            .map(|(c, feat)| (cos_part(&realizer, &q_embed, &c), feat, c))
            .collect()
    }

    /// Index of the maximum score, the last one among equal maxima (what
    /// `Iterator::max_by` returns). `scores` must be non-empty.
    fn argmax(scores: &[f64]) -> usize {
        (0..scores.len())
            .max_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty scores")
    }

    /// `predict` with every candidate realized and checked up front, the
    /// reference the frontier must match: a failing candidate drops by
    /// 10 and the argmax is taken once.
    fn eager_predict(sys: &SmBopSim, question: &str, db: &Database) -> String {
        let scored = scored_candidates(sys, question, db);
        if scored.is_empty() {
            return fallback_sql(db);
        }
        scored
            .into_iter()
            .map(|(cos, feat, c)| {
                let mut score = cos;
                if db.check_query(&c).is_err() {
                    score -= 10.0;
                }
                score += feat;
                (score, c)
            })
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(_, q)| q.to_string())
            .expect("non-empty candidates")
    }

    /// The best-scoring candidate before any check.
    fn unchecked_winner(sys: &SmBopSim, question: &str, db: &Database) -> Query {
        let scored = scored_candidates(sys, question, db);
        let scores: Vec<f64> = scored.iter().map(|(cos, feat, _)| cos + feat).collect();
        scored[argmax(&scores)].2.clone()
    }

    /// Lazy checking with every score known: check the argmax, drop a
    /// failure by 10, re-take the argmax. Returns the winner and the
    /// checked indices in order.
    fn lazy_reference(feat: &[f64], cos: &[f64], ok: &[bool]) -> (usize, Vec<usize>) {
        let mut scores: Vec<f64> = cos.iter().zip(feat).map(|(c, f)| c + f).collect();
        let mut checked = Vec::new();
        loop {
            let i = argmax(&scores);
            if checked.contains(&i) {
                return (i, checked);
            }
            checked.push(i);
            if ok[i] {
                return (i, checked);
            }
            scores[i] = (cos[i] - 10.0) + feat[i];
        }
    }

    /// A finite feature score drawn to collide often: small multiples of
    /// 0.25 (ties and both zeros), large magnitudes that swallow a 0.5
    /// or a 10 in rounding, and arbitrary values.
    fn draw_feat(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-8i64..=8) as f64 * 0.25,
            3 => rng.gen_range(-2i64..=2) as f64 * 2f64.powi(rng.gen_range(50..56)),
            _ => (rng.gen::<f64>() * 2.0 - 1.0) * 4.0,
        }
    }

    #[test]
    fn frontier_matches_the_eager_argmax_on_random_scores() {
        let mut rng = StdRng::seed_from_u64(16);
        for round in 0..5000 {
            let n = rng.gen_range(1..40usize);
            let distinct = rng.gen_range(1..6usize);
            let pool: Vec<f64> = (0..distinct).map(|_| draw_feat(&mut rng)).collect();
            // Equal features are common: half the rounds draw from a tiny pool.
            let feat: Vec<f64> = (0..n)
                .map(|_| match round % 2 {
                    0 => pool[rng.gen_range(0..distinct)],
                    _ => draw_feat(&mut rng),
                })
                .collect();
            let cos: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => 0.5,
                    1 => -0.5,
                    2 => [0.0, -0.0][rng.gen_range(0..2usize)],
                    _ => (rng.gen::<f64>() * 2.0 - 1.0) * 0.5,
                })
                .collect();
            // Every fail rate from none to all, so runs of failing
            // winners are common.
            let fail = round as f64 % 11.0 / 10.0;
            let ok: Vec<bool> = (0..n).map(|_| !rng.gen_bool(fail)).collect();

            let eager: Vec<f64> = (0..n)
                .map(|i| {
                    let mut score = cos[i];
                    if !ok[i] {
                        score -= 10.0;
                    }
                    score + feat[i]
                })
                .collect();
            let (lazy_winner, lazy_checks) = lazy_reference(&feat, &cos, &ok);
            assert_eq!(lazy_winner, argmax(&eager), "round {round}");

            let mut realized = vec![false; n];
            let mut checks = Vec::new();
            let winner = select(
                &feat,
                |i| {
                    assert!(!realized[i], "round {round}: {i} realized twice");
                    realized[i] = true;
                    cos[i]
                },
                |i| {
                    checks.push(i);
                    ok[i]
                },
            );
            let ctx = format!("round {round}: feat {feat:?} cos {cos:?} ok {ok:?}");
            assert_eq!(winner, argmax(&eager), "{ctx}");
            assert_eq!(checks, lazy_checks, "{ctx}");
            // Realized: the winner, and every candidate whose bound beats
            // the winning score under the frontier's order.
            let beats = |i: usize| match (0.5 + feat[i]).partial_cmp(&eager[winner]) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => i > winner,
                _ => false,
            };
            for (i, r) in realized.iter().enumerate() {
                assert_eq!(*r, i == winner || beats(i), "{ctx}: candidate {i}");
            }
        }
    }

    /// Crates whose Int weights sit next to `i64::MAX`, so any SUM over
    /// two of them overflows.
    fn heavy_db() -> Database {
        let schema = Schema::new("depot").with_table(TableDef::new(
            "crates",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("weight", ColumnType::Int),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..6i64 {
            db.table_mut("crates").unwrap().push_rows(vec![vec![
                Value::Int(i),
                format!("crate {i}").into(),
                Value::Int(i64::MAX - i),
            ]]);
        }
        db
    }

    #[test]
    fn a_winner_that_overflows_falls_through_to_the_eager_choice() {
        let db = heavy_db();
        let sys = SmBopSim::new();
        for q in [
            "What is the total weight of crates?",
            "What is the total weight of crates with weight greater than 3?",
            "What is the total weight of each crate name?",
        ] {
            let top = unchecked_winner(&sys, q, &db);
            assert!(
                matches!(db.check_query(&top), Err(EngineError::Overflow(_))),
                "`{q}`: the fixture's top candidate `{top}` must overflow"
            );
            let sql = sys.predict(q, &db);
            assert_eq!(sql, eager_predict(&sys, q, &db), "`{q}`");
            assert!(db.check(&sql).is_ok(), "`{q}` → `{sql}`");
        }
    }

    #[test]
    fn lazy_and_eager_agree_on_every_released_question() {
        for d in crate::released::domains() {
            let catalog = DbCatalog::new([&d.db]);
            let mut sys = SmBopSim::new();
            for trained in [false, true] {
                if trained {
                    sys.train(&d.train, &catalog);
                }
                for q in &d.questions {
                    assert_eq!(
                        sys.predict(q, &d.db),
                        eager_predict(&sys, q, &d.db),
                        "{} (trained: {trained}): `{q}`",
                        d.db.schema.name
                    );
                }
            }
        }
    }

    fn pets_db() -> Database {
        let schema = Schema::new("pets").with_table(TableDef::new(
            "pets",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("name", ColumnType::Text),
                Column::new("pet_type", ColumnType::Text),
                Column::new("weight", ColumnType::Float),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..12i64 {
            db.table_mut("pets").unwrap().push_rows(vec![vec![
                Value::Int(i),
                format!("pet {i}").into(),
                if i % 3 == 0 { "dog" } else { "cat" }.into(),
                Value::Float(2.0 + i as f64),
            ]]);
        }
        db
    }

    #[test]
    fn answers_count_question_zero_shot_on_plain_schema() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("How many pets have a weight greater than 5?", &db);
        let rs = db.run(&sql).expect("prediction executes");
        assert!(sql.to_uppercase().contains("COUNT"), "{sql}");
        assert_eq!(rs.len(), 1, "{sql}");
    }

    #[test]
    fn grounds_values_zero_shot() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("Show the names of dog pets", &db);
        assert!(sql.contains("'dog'"), "{sql}");
        assert!(db.run(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn superlative_becomes_order_limit() {
        let db = pets_db();
        let sys = SmBopSim::new();
        let sql = sys.predict("Which pet name has the highest weight?", &db);
        assert!(sql.contains("ORDER BY"), "{sql}");
        assert!(sql.contains("DESC"), "{sql}");
    }

    #[test]
    fn predictions_always_execute() {
        let db = pets_db();
        let sys = SmBopSim::new();
        for q in [
            "how many pets",
            "average weight of cats",
            "pets per type",
            "nonsense question about nothing",
        ] {
            let sql = sys.predict(q, &db);
            assert!(db.run(&sql).is_ok(), "`{q}` → `{sql}`");
        }
    }

    #[test]
    fn training_teaches_domain_vocabulary() {
        // Cryptic schema: "mass" is stored in column `m`.
        let schema = Schema::new("lab").with_table(TableDef::new(
            "samples",
            vec![
                Column::pk("id", ColumnType::Int),
                Column::new("m", ColumnType::Float),
                Column::new("tag", ColumnType::Text),
            ],
        ));
        let mut db = Database::new(schema);
        for i in 0..10i64 {
            db.table_mut("samples").unwrap().push_rows(vec![vec![
                Value::Int(i),
                Value::Float(i as f64),
                format!("tag{i}").into(),
            ]]);
        }
        let catalog = DbCatalog::new([&db]);
        let mut sys = SmBopSim::new();
        let zero_shot = sys.predict("What is the average mass of samples?", &db);
        sys.train(
            &[
                Pair::new(
                    "what is the mass of the samples",
                    "SELECT s.m FROM samples AS s",
                    "lab",
                ),
                Pair::new(
                    "find samples with mass above 3",
                    "SELECT s.id FROM samples AS s WHERE s.m > 3",
                    "lab",
                ),
            ],
            &catalog,
        );
        let trained = sys.predict("What is the average mass of samples?", &db);
        assert!(
            trained.to_uppercase().contains("AVG(M)")
                || trained.to_uppercase().contains("AVG(S.M)")
                || trained.to_uppercase().contains("AVG(SAMPLES.M)"),
            "after training, `mass` must link to column m: zero-shot `{zero_shot}`, trained `{trained}`"
        );
    }
}
