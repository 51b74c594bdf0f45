//! EXPLAIN: render the planner's decisions for a statement as an
//! operator tree, without executing the outer query.
//!
//! The tree is built from the exact [`sb_opt::PlannedSelect`] the
//! executor would consume, so the text is a faithful record of
//! pushdown, pruning, join order and build-side choices. Planning takes
//! no options; [`ExecOptions`] only picks the root's `engine=` and
//! `parallel=` labels. Derived tables are materialized (they must be, for the
//! planner's row counts to mean anything) and their subplans nest under
//! the `DerivedScan` operator that consumes them.

use crate::database::Database;
use crate::error::Result;
use crate::eval::Scope;
use crate::exec::{rel_metas, resolve_relation, ExecOptions, ScopeResolver};
use sb_obs::{BlockSnapshot, OpSnapshot, ProfileSnapshot, QueryProfile};
use sb_opt::PlanNode;
use sb_sql::{OrderItem, Query, Select, SetExpr, SetOp, TableFactor};

/// The `sb-opt` view of `opts`: the flags EXPLAIN's root label reads.
fn labels(opts: ExecOptions) -> sb_opt::OptOptions {
    sb_opt::OptOptions {
        columnar: opts.columnar,
        parallel: opts.parallel,
    }
}

/// Render the execution plan for `query` under `opts` as indented text.
pub fn explain(db: &Database, query: &Query, opts: ExecOptions) -> Result<String> {
    let node = plan_set_expr(db, &query.body, &query.order_by, query.limit, opts)?;
    Ok(sb_opt::render(&node))
}

/// EXPLAIN ANALYZE: execute `query` with a fresh [`QueryProfile`] and
/// render the plan annotated with the recorded operator statistics.
///
/// With `include_timings = false` the rendering is deterministic for a
/// fixed database and options at any worker count: wall-clock times and
/// steal counts (scheduling noise) are omitted, while row counts,
/// selectivities, build/probe sizes and morsel counts — all pure
/// functions of the workload — are kept. The plan-analyzed goldens pin
/// this mode.
pub fn explain_analyze(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    include_timings: bool,
) -> Result<String> {
    let prof = QueryProfile::new();
    crate::exec::execute_with_profile(db, query, opts, Some(&prof))?;
    explain_with_profile(db, query, opts, &prof, include_timings)
}

/// Render the plan for `query` annotated with an already-recorded
/// profile (no re-execution). `sb-serve` uses this to attach analyzed
/// plans to slow-query log entries from the profile the request already
/// paid for.
pub fn explain_with_profile(
    db: &Database,
    query: &Query,
    opts: ExecOptions,
    prof: &QueryProfile,
    include_timings: bool,
) -> Result<String> {
    let snap = prof.snapshot();
    let mut cursor = 0usize;
    let node = plan_set_expr_analyzed(
        db,
        &query.body,
        &query.order_by,
        query.limit,
        opts,
        &snap,
        &mut cursor,
        include_timings,
    )?;
    Ok(sb_opt::render(&node))
}

fn plan_set_expr(
    db: &Database,
    body: &SetExpr,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
) -> Result<PlanNode> {
    match body {
        SetExpr::Select(select) => plan_select_node(db, select, order_by, limit, opts),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = plan_set_expr(db, left, &[], None, opts)?;
            let r = plan_set_expr(db, right, &[], None, opts)?;
            let name = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            let mut node = PlanNode {
                label: format!("{name}{}", if *all { " ALL" } else { "" }),
                children: vec![l, r],
            };
            // Set operations sort and truncate after combining; no
            // top-K fusion on this path (matching the executor).
            if !order_by.is_empty() {
                let keys: Vec<String> = order_by
                    .iter()
                    .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { " ASC" }))
                    .collect();
                node = PlanNode::unary(format!("Sort keys=[{}]", keys.join(", ")), node);
            }
            if let Some(k) = limit {
                node = PlanNode::unary(format!("Limit k={k}"), node);
            }
            Ok(node)
        }
    }
}

fn plan_select_node(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
) -> Result<PlanNode> {
    let mut relations = vec![resolve_relation(db, &select.from, opts, None)?];
    for join in &select.joins {
        relations.push(resolve_relation(db, &join.table, opts, None)?);
    }

    // Subplans for derived tables, aligned with the relations.
    let mut derived = Vec::with_capacity(relations.len());
    for tr in std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table)) {
        derived.push(match &tr.factor {
            TableFactor::Derived(q) => {
                Some(plan_set_expr(db, &q.body, &q.order_by, q.limit, opts)?)
            }
            TableFactor::Table(_) => None,
        });
    }

    let mut full_scope = Scope::default();
    for rel in &relations {
        full_scope.push(&rel.binding, rel.columns.clone());
    }
    let resolver = ScopeResolver(&full_scope);
    let rels = rel_metas(&relations);
    let input = sb_opt::PlanInput {
        select,
        order_by,
        limit,
        rels: &rels,
    };
    let planned = sb_opt::plan_select(&input, &resolver);
    Ok(sb_opt::build_plan(&input, &planned, &derived, labels(opts)))
}

/// Analyzed twin of [`plan_set_expr`]: walks the statement in the exact
/// order the executor reserves profile blocks (top-level select first,
/// derived tables in FROM/JOIN order recursively, set-operation leaves
/// left to right), consuming one block per SELECT via `cursor`.
#[allow(clippy::too_many_arguments)]
fn plan_set_expr_analyzed(
    db: &Database,
    body: &SetExpr,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    snap: &ProfileSnapshot,
    cursor: &mut usize,
    timings: bool,
) -> Result<PlanNode> {
    match body {
        SetExpr::Select(select) => {
            plan_select_node_analyzed(db, select, order_by, limit, opts, snap, cursor, timings)
        }
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = plan_set_expr_analyzed(db, left, &[], None, opts, snap, cursor, timings)?;
            let r = plan_set_expr_analyzed(db, right, &[], None, opts, snap, cursor, timings)?;
            let name = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            // The combining operator and its sort/limit run outside any
            // profile block; their lines stay unannotated.
            let mut node = PlanNode {
                label: format!("{name}{}", if *all { " ALL" } else { "" }),
                children: vec![l, r],
            };
            if !order_by.is_empty() {
                let keys: Vec<String> = order_by
                    .iter()
                    .map(|o| format!("{}{}", o.expr, if o.desc { " DESC" } else { " ASC" }))
                    .collect();
                node = PlanNode::unary(format!("Sort keys=[{}]", keys.join(", ")), node);
            }
            if let Some(k) = limit {
                node = PlanNode::unary(format!("Limit k={k}"), node);
            }
            Ok(node)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn plan_select_node_analyzed(
    db: &Database,
    select: &Select,
    order_by: &[OrderItem],
    limit: Option<u64>,
    opts: ExecOptions,
    snap: &ProfileSnapshot,
    cursor: &mut usize,
    timings: bool,
) -> Result<PlanNode> {
    // This SELECT's block precedes its derived tables' blocks.
    let my_block = *cursor;
    *cursor += 1;

    let mut relations = vec![resolve_relation(db, &select.from, opts, None)?];
    for join in &select.joins {
        relations.push(resolve_relation(db, &join.table, opts, None)?);
    }

    let mut derived = Vec::with_capacity(relations.len());
    for tr in std::iter::once(&select.from).chain(select.joins.iter().map(|j| &j.table)) {
        derived.push(match &tr.factor {
            TableFactor::Derived(q) => Some(plan_set_expr_analyzed(
                db,
                &q.body,
                &q.order_by,
                q.limit,
                opts,
                snap,
                cursor,
                timings,
            )?),
            TableFactor::Table(_) => None,
        });
    }

    let mut full_scope = Scope::default();
    for rel in &relations {
        full_scope.push(&rel.binding, rel.columns.clone());
    }
    let resolver = ScopeResolver(&full_scope);
    let rels = rel_metas(&relations);
    let input = sb_opt::PlanInput {
        select,
        order_by,
        limit,
        rels: &rels,
    };
    let planned = sb_opt::plan_select(&input, &resolver);
    Ok(match snap.blocks.get(my_block) {
        Some(block) => {
            let ann = BlockAnnotator { block, timings };
            sb_opt::build_plan_annotated(&input, &planned, &derived, labels(opts), &ann)
        }
        None => sb_opt::build_plan(&input, &planned, &derived, labels(opts)),
    })
}

/// [`sb_opt::PlanAnnotator`] over one recorded [`BlockSnapshot`].
struct BlockAnnotator<'s> {
    block: &'s BlockSnapshot,
    timings: bool,
}

impl BlockAnnotator<'_> {
    /// ` (in=A out=B …)` with the optional pieces each operator kind
    /// asks for. Steal counts and wall time appear only under
    /// `timings` — both vary run to run.
    fn fmt(&self, op: &OpSnapshot, sel: bool, extra: &str) -> String {
        let mut s = format!(" (in={} out={}", op.rows_in, op.rows_out);
        if sel {
            if let Some(p) = op.selectivity_pct() {
                s.push_str(&format!(" sel={p}%"));
            }
        }
        s.push_str(extra);
        if op.morsels > 0 {
            s.push_str(&format!(" morsels={}", op.morsels));
            if self.timings {
                s.push_str(&format!(" steals={}", op.steals));
            }
        }
        if self.timings {
            s.push_str(&format!(" time={}us", op.elapsed_ns / 1_000));
        }
        s.push(')');
        s
    }
}

impl sb_opt::PlanAnnotator for BlockAnnotator<'_> {
    fn scan(&self, rel: usize) -> Option<String> {
        let op = self.block.scans.get(rel).copied().flatten()?;
        Some(self.fmt(&op, true, ""))
    }

    fn join(&self, step: usize, _rel: usize) -> Option<String> {
        let op = self.block.joins.get(step).copied().flatten()?;
        let extra = format!(" build={} probe={}", op.build_rows, op.probe_rows);
        Some(self.fmt(&op, false, &extra))
    }

    fn filter(&self) -> Option<String> {
        let op = self.block.filter?;
        Some(self.fmt(&op, true, ""))
    }

    fn aggregate(&self) -> Option<String> {
        let op = self.block.aggregate?;
        let extra = format!(" groups={}", op.build_rows);
        Some(self.fmt(&op, false, &extra))
    }

    fn distinct(&self) -> Option<String> {
        let op = self.block.distinct?;
        Some(self.fmt(&op, true, ""))
    }

    fn order(&self) -> Option<String> {
        let op = self.block.order?;
        Some(self.fmt(&op, false, ""))
    }

    fn root(&self) -> Option<String> {
        let mut s = format!(
            " | actual={}",
            if self.block.columnar {
                "columnar"
            } else {
                "row"
            }
        );
        if let Some(reason) = self.block.fallback {
            s.push_str(&format!(" fallback={reason}"));
        }
        if !self.block.slotted {
            s.push_str(" unslotted");
        }
        Some(s)
    }
}
