//! Logical query plans and the AST → logical planner.
//!
//! The planner resolves a parsed [`Query`] against a [`SchemaCatalog`] and
//! the UDF/UDA [`Registry`] into a tree of [`LogicalPlan`] nodes. A FROM
//! list of any length folds left-deep in written order: each item joins
//! the items before it on the `col = col` conjuncts that straddle the two,
//! and stays a cross join only where none does; the other conjuncts
//! become filters above the joins. Two special shapes are recognized:
//!
//! * **handler joins** (Listing 1's inner block): a block whose single
//!   projection is a destructured UDA call `H(args).{a, b}` over a
//!   two-table equi-join lowers to a join with the registered
//!   [`JoinHandler`](rex_core::handlers::JoinHandler) `H`;
//! * **recursion**: `WITH … UNION [ALL] UNTIL FIXPOINT BY k (…)` lowers to
//!   a [`LogicalPlan::Fixpoint`] whose step subplan reads the recursive
//!   relation through [`LogicalPlan::FixpointRef`].

use crate::ast::{AstExpr, Projection, Query, SelectBlock, Statement, TableRef};
use crate::resolve::{bin_op, projection_name, resolve_scalar, SchemaCatalog, Scope};
use rex_core::error::{Result, RexError};
use rex_core::expr::Expr;
use rex_core::tuple::{Field, Schema};
use rex_core::udf::Registry;
use rex_core::value::DataType;

/// One aggregate computation inside an [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Registered aggregate / UDA name.
    pub func: String,
    /// Input columns projected into the handler.
    pub input_cols: Vec<usize>,
    /// Result type.
    pub return_type: DataType,
}

/// One `ORDER BY` key inside a [`LogicalPlan::Sort`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key expression, resolved over the sort input's row.
    pub expr: Expr,
    /// `true` for `DESC`.
    pub desc: bool,
}

/// A logical plan node. Every node knows its output schema.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan a stored table.
    Scan {
        /// Table name.
        table: String,
        /// Table schema.
        schema: Schema,
    },
    /// Reference to the enclosing recursive relation.
    FixpointRef {
        /// Recursive relation name.
        name: String,
        /// Declared schema.
        schema: Schema,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input row.
        predicate: Expr,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output schema.
        schema: Schema,
    },
    /// Equi-join (empty keys = cross join), optionally delegated to a user
    /// join delta handler.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Left key columns.
        left_key: Vec<usize>,
        /// Right key columns.
        right_key: Vec<usize>,
        /// Registered join handler, when this is a handler join.
        handler: Option<String>,
        /// Output schema (left ++ right, or the handler's declared fields).
        schema: Schema,
    },
    /// Group-by with aggregate calls; output = group cols ++ agg results.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping columns (input indices).
        group_cols: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggCall>,
        /// Post-aggregation projection (over group cols ++ agg results),
        /// when projections are expressions of aggregates.
        post: Option<Vec<Expr>>,
        /// Output schema (after `post`, when present).
        schema: Schema,
    },
    /// Recursive fixpoint.
    Fixpoint {
        /// Recursive relation name.
        name: String,
        /// `FIXPOINT BY` key columns within the declared schema.
        key_cols: Vec<usize>,
        /// Base-case plan.
        base: Box<LogicalPlan>,
        /// Recursive-step plan (contains a [`LogicalPlan::FixpointRef`]).
        step: Box<LogicalPlan>,
        /// Declared schema of the recursive relation.
        schema: Schema,
    },
    /// `ORDER BY`, optionally carrying a fused `LIMIT` (top-k) after the
    /// optimizer collapses a [`LogicalPlan::Limit`] directly above it.
    /// Ordering is total: ties resolve by full-tuple comparison, so the
    /// selected rows are identical on every engine. Schema = input schema.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
        /// Fused LIMIT (maximum rows), when present.
        fetch: Option<u64>,
        /// Fused OFFSET (rows skipped before the first kept row).
        offset: u64,
    },
    /// `LIMIT n [OFFSET m]`. Selection is deterministic: rows are taken in
    /// the input's ORDER BY order when one is directly beneath, in total
    /// tuple order otherwise. Schema = input schema.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows returned.
        fetch: u64,
        /// Rows skipped before the first returned row.
        offset: u64,
    },
}

impl LogicalPlan {
    /// This node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::FixpointRef { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Fixpoint { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Names of all stored tables this plan scans (deduplicated,
    /// lowercased, sorted) — the base relations a materialized view over
    /// this plan depends on.
    pub fn referenced_tables(&self) -> Vec<String> {
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            match p {
                LogicalPlan::Scan { table, .. } => out.push(table.to_ascii_lowercase()),
                LogicalPlan::FixpointRef { .. } => {}
                LogicalPlan::Filter { input, .. } => walk(input, out),
                LogicalPlan::Project { input, .. } => walk(input, out),
                LogicalPlan::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                LogicalPlan::Aggregate { input, .. } => walk(input, out),
                LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
                    walk(input, out)
                }
                LogicalPlan::Fixpoint { base, step, .. } => {
                    walk(base, out);
                    walk(step, out);
                }
            }
        }
        let mut v = Vec::new();
        walk(self, &mut v);
        v.sort();
        v.dedup();
        v
    }

    /// Whether the plan contains a recursive fixpoint (such views fall
    /// back to full recomputation on maintenance).
    pub fn is_recursive(&self) -> bool {
        match self {
            LogicalPlan::Fixpoint { .. } | LogicalPlan::FixpointRef { .. } => true,
            LogicalPlan::Scan { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.is_recursive(),
            LogicalPlan::Join { left, right, .. } => left.is_recursive() || right.is_recursive(),
        }
    }

    /// Whether the plan contains an `ORDER BY` or `LIMIT` node anywhere.
    /// Such plans are *query-only*: a materialized view is an unordered
    /// relation, so the session rejects them as view definitions instead
    /// of letting the order silently evaporate on maintenance.
    pub fn has_order_or_limit(&self) -> bool {
        match self {
            LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => true,
            LogicalPlan::Scan { .. } | LogicalPlan::FixpointRef { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. } => input.has_order_or_limit(),
            LogicalPlan::Join { left, right, .. } => {
                left.has_order_or_limit() || right.has_order_or_limit()
            }
            LogicalPlan::Fixpoint { base, step, .. } => {
                base.has_order_or_limit() || step.has_order_or_limit()
            }
        }
    }

    /// Render as an indented tree (EXPLAIN-style).
    pub fn explain(&self) -> String {
        fn walk(p: &LogicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            match p {
                LogicalPlan::Scan { table, .. } => {
                    out.push_str(&format!("{pad}Scan {table}\n"));
                }
                LogicalPlan::FixpointRef { name, .. } => {
                    out.push_str(&format!("{pad}FixpointRef {name}\n"));
                }
                LogicalPlan::Filter { input, predicate } => {
                    out.push_str(&format!("{pad}Filter {predicate:?}\n"));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Project { input, exprs, .. } => {
                    out.push_str(&format!("{pad}Project ({} exprs)\n", exprs.len()));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Join { left, right, handler, left_key, right_key, .. } => {
                    let h = handler.as_ref().map(|h| format!(" handler={h}")).unwrap_or_default();
                    out.push_str(&format!("{pad}Join{h} on {left_key:?}={right_key:?}\n"));
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                LogicalPlan::Aggregate { input, group_cols, aggs, .. } => {
                    let names: Vec<&str> = aggs.iter().map(|a| a.func.as_str()).collect();
                    out.push_str(&format!(
                        "{pad}Aggregate by {group_cols:?} [{}]\n",
                        names.join(",")
                    ));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Fixpoint { name, key_cols, base, step, .. } => {
                    out.push_str(&format!("{pad}Fixpoint {name} by {key_cols:?}\n"));
                    walk(base, depth + 1, out);
                    walk(step, depth + 1, out);
                }
                LogicalPlan::Sort { input, keys, fetch, offset } => {
                    let ks: Vec<String> = keys
                        .iter()
                        .map(|k| format!("{:?}{}", k.expr, if k.desc { " desc" } else { "" }))
                        .collect();
                    let fused = match fetch {
                        Some(f) => format!(" fetch={f} offset={offset}"),
                        None => String::new(),
                    };
                    out.push_str(&format!("{pad}Sort [{}]{}\n", ks.join(", "), fused));
                    walk(input, depth + 1, out);
                }
                LogicalPlan::Limit { input, fetch, offset } => {
                    out.push_str(&format!("{pad}Limit {fetch} offset {offset}\n"));
                    walk(input, depth + 1, out);
                }
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

/// Plan a parsed statement. DDL statements (view creation, drops) have no
/// dataflow plan — they are executed by the session against its catalogs —
/// so planning one here is an error.
pub fn plan(stmt: &Statement, catalog: &SchemaCatalog, reg: &Registry) -> Result<LogicalPlan> {
    match stmt {
        Statement::Query(q) => plan_query(q, catalog, reg),
        Statement::CreateView { query, .. } => plan_query(query, catalog, reg),
        Statement::CreateTable { name, .. } => Err(RexError::Plan(format!(
            "CREATE TABLE {name} is a DDL statement; execute it through a session"
        ))),
        Statement::DropView { name } | Statement::DropTable { name } => Err(RexError::Plan(
            format!("DROP {name} is a DDL statement; execute it through a session"),
        )),
        // EXPLAIN plans whatever it wraps — the session decides whether to
        // execute (ANALYZE) or just render.
        Statement::Explain { inner, .. } => plan(inner, catalog, reg),
    }
}

fn plan_query(q: &Query, catalog: &SchemaCatalog, reg: &Registry) -> Result<LogicalPlan> {
    match (&q.with, &q.select) {
        (None, Some(sel)) => plan_select(sel, catalog, reg, None),
        (Some(w), outer) => {
            let base = plan_select(&w.base, catalog, reg, None)?;
            if base.schema().arity() != w.columns.len() {
                return Err(RexError::Plan(format!(
                    "recursive relation {} declares {} columns but its base case produces {}",
                    w.name,
                    w.columns.len(),
                    base.schema().arity()
                )));
            }
            // Declared schema: names from the WITH head, types from the base.
            let declared = Schema::new(
                w.columns
                    .iter()
                    .zip(base.schema().fields())
                    .map(|(n, f)| Field::new(n.clone(), f.ty))
                    .collect(),
            );
            let mut key_cols = Vec::with_capacity(w.fixpoint_key.len());
            for k in &w.fixpoint_key {
                let i = declared.index_of(k).ok_or_else(|| {
                    RexError::Plan(format!("FIXPOINT BY column {k} not in {:?}", w.columns))
                })?;
                key_cols.push(i);
            }
            let step = plan_select(&w.step, catalog, reg, Some((&w.name, &declared)))?;
            if step.schema().arity() != declared.arity() {
                return Err(RexError::Plan(format!(
                    "recursive step of {} produces {} columns, expected {}",
                    w.name,
                    step.schema().arity(),
                    declared.arity()
                )));
            }
            let fp = LogicalPlan::Fixpoint {
                name: w.name.clone(),
                key_cols,
                base: Box::new(base),
                step: Box::new(step),
                schema: declared,
            };
            match outer {
                None => Ok(fp),
                Some(_) => Err(RexError::Plan(
                    "post-processing SELECT after a recursive WITH is not yet supported".into(),
                )),
            }
        }
        (None, None) => Err(RexError::Plan("empty query".into())),
    }
}

/// Context for resolving the recursive relation inside a step block.
type RecCtx<'a> = Option<(&'a str, &'a Schema)>;

fn plan_select(
    block: &SelectBlock,
    catalog: &SchemaCatalog,
    reg: &Registry,
    rec: RecCtx<'_>,
) -> Result<LogicalPlan> {
    // ---- FROM items ------------------------------------------------------
    let mut items: Vec<(Option<String>, LogicalPlan)> = Vec::with_capacity(block.from.len());
    for f in &block.from {
        match f {
            TableRef::Table { name, alias } => {
                let plan = if let Some((rname, rschema)) = rec {
                    if name == rname {
                        LogicalPlan::FixpointRef { name: name.clone(), schema: rschema.clone() }
                    } else {
                        LogicalPlan::Scan {
                            table: name.clone(),
                            schema: catalog.get(name)?.clone(),
                        }
                    }
                } else {
                    LogicalPlan::Scan { table: name.clone(), schema: catalog.get(name)?.clone() }
                };
                items.push((Some(alias.clone().unwrap_or_else(|| name.clone())), plan));
            }
            TableRef::Subquery { query, alias } => {
                let plan = plan_select(query, catalog, reg, rec)?;
                items.push((alias.clone(), plan));
            }
        }
    }
    if items.is_empty() {
        return Err(RexError::Plan("FROM clause is empty".into()));
    }
    let scope = Scope::new(items.iter().map(|(n, p)| (n.clone(), p.schema().clone())).collect());

    // ---- handler-join shape ---------------------------------------------
    if let Some(plan) = try_handler_join(block, &items, &scope, reg)? {
        if block.having.is_some() {
            return Err(RexError::Plan("HAVING requires a grouped aggregation".into()));
        }
        return finish_block(block, plan, reg, rec);
    }

    // ---- general joins + residual filter ---------------------------------
    let mut conjuncts = Vec::new();
    if let Some(w) = &block.selection {
        split_conjuncts(w, &mut conjuncts);
    }
    let (mut plan, consumed) = fold_joins(items, &scope, &conjuncts, reg)?;
    for (i, c) in conjuncts.iter().enumerate() {
        if !consumed.contains(&i) {
            let predicate = resolve_scalar(c, &scope, reg)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }
    }

    // ---- aggregation or plain projection ---------------------------------
    let agg_test = |n: &str| reg.has_agg(n) || reg.has_agg(&n.to_ascii_lowercase());
    let has_aggs = block
        .projections
        .iter()
        .any(|p| matches!(p, Projection::Expr { expr, .. } if expr.contains_call_to(&agg_test)));
    let plan = if !block.group_by.is_empty() || has_aggs || block.having.is_some() {
        plan_aggregate(block, plan, &scope, reg)?
    } else {
        plan_projection(block, plan, &scope, reg)?
    };
    finish_block(block, plan, reg, rec)
}

/// Apply the post-relational clauses — DISTINCT, then ORDER BY, then
/// LIMIT/OFFSET — to a block's relational result.
fn finish_block(
    block: &SelectBlock,
    mut plan: LogicalPlan,
    reg: &Registry,
    rec: RecCtx<'_>,
) -> Result<LogicalPlan> {
    if block.distinct {
        plan = plan_distinct(plan);
    }
    if block.order_by.is_empty() && block.limit.is_none() {
        return Ok(plan);
    }
    // Inside a recursive step the stream is delta-driven across strata; a
    // buffered total-order selection has no well-defined semantics there.
    if rec.is_some() {
        return Err(RexError::Plan(
            "ORDER BY/LIMIT are not supported inside a recursive WITH step".into(),
        ));
    }
    if !block.order_by.is_empty() {
        // ORDER BY resolves against the block's *output* row: by alias or
        // column name, by 1-based position (`ORDER BY 2`), or by matching
        // the select-list expression verbatim (`ORDER BY price * qty`
        // when that product is projected). Projections map 1:1 onto
        // output columns unless `*` is present, so the structural match
        // is only attempted star-free.
        let out_scope = Scope::new(vec![(None, plan.schema().clone())]);
        let arity = plan.schema().arity();
        let star_free = !block.projections.iter().any(|p| matches!(p, Projection::Star));
        let mut keys = Vec::with_capacity(block.order_by.len());
        for item in &block.order_by {
            let expr = match &item.expr {
                AstExpr::Int(i) => {
                    if *i < 1 || *i as usize > arity {
                        return Err(RexError::Plan(format!(
                            "ORDER BY position {i} is out of range (1..={arity})"
                        )));
                    }
                    Expr::Col(*i as usize - 1)
                }
                e => {
                    let projected = star_free.then(|| {
                        block
                            .projections
                            .iter()
                            .position(|p| matches!(p, Projection::Expr { expr, .. } if expr == e))
                    });
                    match projected.flatten() {
                        Some(pos) => Expr::Col(pos),
                        None => resolve_scalar(e, &out_scope, reg).map_err(|err| {
                            RexError::Plan(format!(
                                "ORDER BY key {e}: {err} (ORDER BY resolves against the \
                                 SELECT output — project or alias a column to order by it)"
                            ))
                        })?,
                    }
                }
            };
            keys.push(SortKey { expr, desc: item.desc });
        }
        plan = LogicalPlan::Sort { input: Box::new(plan), keys, fetch: None, offset: 0 };
    }
    if let Some(l) = &block.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), fetch: l.fetch, offset: l.offset };
    }
    Ok(plan)
}

/// `SELECT DISTINCT` as a counted projection: group by every output
/// column with no aggregates. One output row survives per distinct input
/// row — and the same shape gives views an O(change) maintenance rule
/// (the group's count tracks multiplicity; the row retracts when it hits
/// zero).
fn plan_distinct(input: LogicalPlan) -> LogicalPlan {
    let schema = input.schema().clone();
    let group_cols = (0..schema.arity()).collect();
    LogicalPlan::Aggregate {
        input: Box::new(input),
        group_cols,
        aggs: Vec::new(),
        post: None,
        schema,
    }
}

/// Recognize the Listing-1 pattern: single destructured UDA projection
/// over a two-item equi-join where the UDA is a registered join handler.
fn try_handler_join(
    block: &SelectBlock,
    items: &[(Option<String>, LogicalPlan)],
    scope: &Scope,
    reg: &Registry,
) -> Result<Option<LogicalPlan>> {
    let [Projection::Expr { expr: AstExpr::Call { name, destructure: Some(fields), .. }, .. }] =
        block.projections.as_slice()
    else {
        return Ok(None);
    };
    if reg.join(name).is_err() {
        return Ok(None);
    }
    let [(_, left), (_, right)] = items else {
        return Err(RexError::Plan(format!("handler join {name} requires exactly two FROM items")));
    };
    let mut conjuncts = Vec::new();
    if let Some(w) = &block.selection {
        split_conjuncts(w, &mut conjuncts);
    }
    // A handler join with no key is a broadcast/cross handler join.
    let (left_key, right_key) = join_keys(&conjuncts, scope, 1, reg, &mut Vec::new())?;
    let schema = Schema::new(fields.iter().map(|f| Field::new(f.clone(), DataType::Any)).collect());
    Ok(Some(LogicalPlan::Join {
        left: Box::new(left.clone()),
        right: Box::new(right.clone()),
        left_key,
        right_key,
        handler: Some(name.clone()),
        schema,
    }))
}

/// Split an expression into AND-ed conjuncts.
fn split_conjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    if let AstExpr::Binary { op: crate::ast::AstBinOp::And, left, right } = e {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

/// The key of the join that adds FROM item `item` to the items before
/// it: every `colA = colB` conjunct with one column in the items before
/// (`[0, split_at)`) and the other in `item` itself (`[split_at, end)`).
/// Keys come back relative to each side; the indices of the conjuncts
/// used are appended to `consumed`.
fn join_keys(
    conjuncts: &[AstExpr],
    scope: &Scope,
    item: usize,
    reg: &Registry,
    consumed: &mut Vec<usize>,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let binding = &scope.bindings()[item];
    let (split_at, end) = (binding.offset, binding.offset + binding.schema.arity());
    let (mut left_key, mut right_key) = (Vec::new(), Vec::new());
    for (i, c) in conjuncts.iter().enumerate() {
        let AstExpr::Binary { op: crate::ast::AstBinOp::Eq, left, right } = c else {
            continue;
        };
        let (Ok(Expr::Col(a)), Ok(Expr::Col(b))) =
            (resolve_scalar(left, scope, reg), resolve_scalar(right, scope, reg))
        else {
            continue;
        };
        let (l, r) = if a < b { (a, b) } else { (b, a) };
        if l < split_at && (split_at..end).contains(&r) {
            left_key.push(l);
            right_key.push(r - split_at);
            consumed.push(i);
        }
    }
    Ok((left_key, right_key))
}

/// Left-fold FROM items into binary joins in written order. Step *i*
/// joins the items before it with item *i*, keyed on the equalities that
/// straddle the two ([`join_keys`]); a step no equality straddles stays a
/// cross join. Returns the plan and the indices of the conjuncts used as
/// keys — the rest are the caller's residual filters.
fn fold_joins(
    items: Vec<(Option<String>, LogicalPlan)>,
    scope: &Scope,
    conjuncts: &[AstExpr],
    reg: &Registry,
) -> Result<(LogicalPlan, Vec<usize>)> {
    let mut consumed = Vec::new();
    let mut items = items.into_iter().map(|(_, p)| p);
    let mut plan = items.next().expect("FROM is non-empty");
    for (i, right) in items.enumerate() {
        let (left_key, right_key) = join_keys(conjuncts, scope, i + 1, reg, &mut consumed)?;
        let schema = plan.schema().concat(right.schema());
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_key,
            right_key,
            handler: None,
            schema,
        };
    }
    Ok((plan, consumed))
}

fn plan_projection(
    block: &SelectBlock,
    input: LogicalPlan,
    scope: &Scope,
    reg: &Registry,
) -> Result<LogicalPlan> {
    let mut exprs = Vec::new();
    let mut fields = Vec::new();
    for (i, p) in block.projections.iter().enumerate() {
        match p {
            Projection::Star => {
                for (j, f) in input.schema().fields().iter().enumerate() {
                    exprs.push(Expr::Col(j));
                    fields.push(f.clone());
                }
            }
            Projection::Expr { expr, alias } => {
                let e = resolve_scalar(expr, scope, reg)?;
                let ty = e.data_type(input.schema(), reg)?;
                fields.push(Field::new(projection_name(expr, alias.as_deref(), i), ty));
                exprs.push(e);
            }
        }
    }
    let schema = Schema::new(fields);
    Ok(LogicalPlan::Project { input: Box::new(input), exprs, schema })
}

/// An aggregate call discovered while rewriting projections/HAVING, with
/// its argument *expressions* still unresolved to input columns.
struct PendingAgg {
    func: String,
    args: Vec<Expr>,
    return_type: DataType,
}

fn plan_aggregate(
    block: &SelectBlock,
    input: LogicalPlan,
    scope: &Scope,
    reg: &Registry,
) -> Result<LogicalPlan> {
    // Group columns must be plain column references.
    let mut group_cols = Vec::new();
    for g in &block.group_by {
        match resolve_scalar(g, scope, reg) {
            Ok(Expr::Col(i)) => group_cols.push(i),
            _ => return Err(RexError::Plan(format!("GROUP BY supports plain columns, got {g}"))),
        }
    }

    // Walk projections and HAVING: collect aggregate calls (arguments may
    // be arbitrary scalar expressions), build post expressions over
    // [group cols ++ agg results].
    let mut calls: Vec<PendingAgg> = Vec::new();
    let mut post: Vec<Expr> = Vec::new();
    let mut fields: Vec<Field> = Vec::new();
    let mut any_post_needed = false;
    for (i, p) in block.projections.iter().enumerate() {
        let Projection::Expr { expr, alias } = p else {
            return Err(RexError::Plan("'*' cannot be mixed with aggregates".into()));
        };
        let e = rewrite_agg_expr(expr, scope, reg, &group_cols, &mut calls)?;
        if !matches!(e, Expr::Col(_)) {
            any_post_needed = true;
        }
        let name = projection_name(expr, alias.as_deref(), i);
        fields.push(Field::new(name, DataType::Any));
        post.push(e);
    }
    // HAVING filters groups: it may reference group columns and aggregate
    // calls (aggregates shared with the SELECT list are computed once).
    let having = block
        .having
        .as_ref()
        .map(|h| rewrite_agg_expr(h, scope, reg, &group_cols, &mut calls))
        .transpose()?;

    // Resolve aggregate arguments to input columns, synthesizing a
    // pre-aggregation projection when any argument is a non-column
    // expression (`SUM(price * (1 - discount))`).
    let all_plain = calls.iter().all(|c| c.args.iter().all(|a| matches!(a, Expr::Col(_))));
    let (input, group_cols, aggs) = if all_plain {
        let aggs = calls
            .into_iter()
            .map(|c| AggCall {
                input_cols: c
                    .args
                    .iter()
                    .map(|a| match a {
                        Expr::Col(i) => *i,
                        _ => unreachable!("all_plain checked"),
                    })
                    .collect(),
                func: c.func,
                return_type: c.return_type,
            })
            .collect();
        (input, group_cols, aggs)
    } else {
        synthesize_preagg_projection(input, group_cols, calls, reg)?
    };

    // The aggregate's raw output schema: group cols ++ agg results.
    let mut raw_fields: Vec<Field> =
        group_cols.iter().map(|&c| input.schema().fields()[c].clone()).collect();
    for a in &aggs {
        raw_fields.push(Field::new(a.func.clone(), a.return_type));
    }
    let raw_schema = Schema::new(raw_fields);

    // Fix up output field types now that we can infer over the raw schema.
    for (f, e) in fields.iter_mut().zip(&post) {
        if let Ok(t) = e.data_type(&raw_schema, reg) {
            *f = Field::new(f.name.clone(), t);
        }
    }

    // Identity post-projection is dropped.
    let is_identity = !any_post_needed
        && post.len() == raw_schema.arity()
        && post.iter().enumerate().all(|(i, e)| matches!(e, Expr::Col(c) if *c == i));
    let schema = Schema::new(fields);
    match having {
        None => Ok(LogicalPlan::Aggregate {
            input: Box::new(input),
            group_cols,
            aggs,
            post: if is_identity { None } else { Some(post) },
            schema,
        }),
        Some(predicate) => {
            // HAVING sits between aggregation and the SELECT projection:
            // Aggregate (raw output) → Filter → Project. This is also the
            // shape the view-maintenance delta rules cover (a stateless
            // filter over maintained group state).
            let agg = LogicalPlan::Aggregate {
                input: Box::new(input),
                group_cols,
                aggs,
                post: None,
                schema: raw_schema,
            };
            let filtered = LogicalPlan::Filter { input: Box::new(agg), predicate };
            if is_identity {
                Ok(filtered)
            } else {
                Ok(LogicalPlan::Project { input: Box::new(filtered), exprs: post, schema })
            }
        }
    }
}

/// Project `[group cols ++ one column per aggregate-argument expression]`
/// beneath the aggregate so every aggregate sees plain input columns.
/// Identical argument expressions (and arguments that are group columns)
/// share one projected column.
fn synthesize_preagg_projection(
    input: LogicalPlan,
    group_cols: Vec<usize>,
    calls: Vec<PendingAgg>,
    reg: &Registry,
) -> Result<(LogicalPlan, Vec<usize>, Vec<AggCall>)> {
    let mut exprs: Vec<Expr> = Vec::with_capacity(group_cols.len() + calls.len());
    let mut fields: Vec<Field> = Vec::with_capacity(group_cols.len() + calls.len());
    for &c in &group_cols {
        exprs.push(Expr::Col(c));
        fields.push(input.schema().fields()[c].clone());
    }
    let mut aggs = Vec::with_capacity(calls.len());
    for c in calls {
        let mut input_cols = Vec::with_capacity(c.args.len());
        for a in c.args {
            let pos = match exprs.iter().position(|e| *e == a) {
                Some(p) => p,
                None => {
                    let ty = a.data_type(input.schema(), reg).unwrap_or(DataType::Any);
                    fields.push(Field::new(format!("arg{}", exprs.len()), ty));
                    exprs.push(a);
                    exprs.len() - 1
                }
            };
            input_cols.push(pos);
        }
        aggs.push(AggCall { func: c.func, input_cols, return_type: c.return_type });
    }
    let schema = Schema::new(fields);
    let new_group_cols = (0..group_cols.len()).collect();
    Ok((LogicalPlan::Project { input: Box::new(input), exprs, schema }, new_group_cols, aggs))
}

/// Rewrite a projection/HAVING expression into an expression over the
/// aggregate's raw output `[group cols ++ agg results]`, appending newly
/// discovered aggregate calls to `calls` (identical calls are shared).
fn rewrite_agg_expr(
    e: &AstExpr,
    scope: &Scope,
    reg: &Registry,
    group_cols: &[usize],
    calls: &mut Vec<PendingAgg>,
) -> Result<Expr> {
    match e {
        AstExpr::Call { name, args, destructure } => {
            let lookup = if reg.has_agg(name) {
                Some(name.clone())
            } else if reg.has_agg(&name.to_ascii_lowercase()) {
                Some(name.to_ascii_lowercase())
            } else {
                None
            };
            let Some(func) = lookup else {
                return Err(RexError::Plan(format!("unknown aggregate {name}")));
            };
            if destructure.is_some() {
                return Err(RexError::Plan(format!(
                    "table-valued aggregate {name} cannot appear in a scalar projection"
                )));
            }
            let mut resolved = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    AstExpr::Star => {} // count(*): no input columns
                    other => resolved.push(resolve_scalar(other, scope, reg)?),
                }
            }
            let return_type = reg.agg(&func)?.return_type();
            let idx = match calls.iter().position(|c| c.func == func && c.args == resolved) {
                Some(i) => i,
                None => {
                    calls.push(PendingAgg { func, args: resolved, return_type });
                    calls.len() - 1
                }
            };
            Ok(Expr::Col(group_cols.len() + idx))
        }
        AstExpr::Column { qualifier, name } => {
            let (abs, _) = scope.resolve_column(qualifier.as_deref(), name)?;
            let pos = group_cols.iter().position(|&g| g == abs).ok_or_else(|| {
                RexError::Plan(format!("column {name} is neither grouped nor aggregated"))
            })?;
            Ok(Expr::Col(pos))
        }
        AstExpr::Binary { op, left, right } => Ok(Expr::Bin(
            bin_op(*op),
            Box::new(rewrite_agg_expr(left, scope, reg, group_cols, calls)?),
            Box::new(rewrite_agg_expr(right, scope, reg, group_cols, calls)?),
        )),
        AstExpr::Neg(inner) => {
            Ok(Expr::Neg(Box::new(rewrite_agg_expr(inner, scope, reg, group_cols, calls)?)))
        }
        AstExpr::Not(inner) => {
            Ok(Expr::Not(Box::new(rewrite_agg_expr(inner, scope, reg, group_cols, calls)?)))
        }
        AstExpr::Int(_)
        | AstExpr::Float(_)
        | AstExpr::Str(_)
        | AstExpr::Bool(_)
        | AstExpr::Null => resolve_scalar(e, &Scope::default(), reg),
        other => {
            Err(RexError::Plan(format!("unsupported expression in aggregate projection: {other}")))
        }
    }
}

/// Plan straight from source text.
pub fn plan_text(src: &str, catalog: &SchemaCatalog, reg: &Registry) -> Result<LogicalPlan> {
    let stmt = crate::parser::parse(src)?;
    plan(&stmt, catalog, reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::delta::Delta;
    use rex_core::handlers::{JoinHandler, TupleSet};
    use std::sync::Arc;

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register(
            "lineitem",
            Schema::of(&[
                ("orderkey", DataType::Int),
                ("linenumber", DataType::Int),
                ("quantity", DataType::Int),
                ("extendedprice", DataType::Double),
                ("discount", DataType::Double),
                ("tax", DataType::Double),
            ]),
        );
        c.register("graph", Schema::of(&[("srcId", DataType::Int), ("destId", DataType::Int)]));
        c
    }

    struct NoopJoin;
    impl JoinHandler for NoopJoin {
        fn name(&self) -> &str {
            "PRAgg"
        }
        fn update(
            &self,
            _l: &mut TupleSet,
            _r: &mut TupleSet,
            _d: &Delta,
            _from_left: bool,
        ) -> Result<Vec<Delta>> {
            Ok(vec![])
        }
    }

    #[test]
    fn plans_fig4_query() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1",
            &catalog(),
            &reg,
        )
        .unwrap();
        match &p {
            LogicalPlan::Aggregate { input, group_cols, aggs, post, .. } => {
                assert!(group_cols.is_empty());
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[0].func, "sum");
                assert_eq!(aggs[0].input_cols, vec![5]);
                assert_eq!(aggs[1].func, "count");
                assert!(aggs[1].input_cols.is_empty());
                assert!(post.is_none(), "identity post projection dropped");
                assert!(matches!(**input, LogicalPlan::Filter { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plans_equi_join() {
        let reg = Registry::with_builtins();
        let mut c = catalog();
        c.register("pr", Schema::of(&[("srcId", DataType::Int), ("pr", DataType::Double)]));
        let p = plan_text(
            "SELECT graph.destId, pr.pr FROM graph, pr WHERE graph.srcId = pr.srcId",
            &c,
            &reg,
        )
        .unwrap();
        match &p {
            LogicalPlan::Project { input, exprs, .. } => {
                assert_eq!(exprs.len(), 2);
                match &**input {
                    LogicalPlan::Join { left_key, right_key, handler, .. } => {
                        assert_eq!(left_key, &vec![0]);
                        assert_eq!(right_key, &vec![0]);
                        assert!(handler.is_none());
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plans_listing1_fixpoint_with_handler_join() {
        let reg = Registry::with_builtins();
        reg.register_join("PRAgg", Arc::new(NoopJoin));
        let src = "
            WITH PR (srcId, pr) AS (
              SELECT srcId, 1.0 AS pr FROM graph
            ) UNION UNTIL FIXPOINT BY srcId (
              SELECT nbr, 0.15 + 0.85 * sum(prDiff)
              FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff}
                    FROM graph, PR
                    WHERE graph.srcId = PR.srcId GROUP BY srcId)
              GROUP BY nbr)";
        let p = plan_text(src, &catalog(), &reg).unwrap();
        let LogicalPlan::Fixpoint { key_cols, base, step, schema, .. } = &p else {
            panic!("expected fixpoint, got {p:?}");
        };
        assert_eq!(key_cols, &vec![0]);
        assert_eq!(schema.index_of("pr"), Some(1));
        assert!(matches!(**base, LogicalPlan::Project { .. }));
        // Step: aggregate over the handler join.
        let LogicalPlan::Aggregate { input, aggs, post, .. } = &**step else {
            panic!("expected aggregate step, got {step:?}");
        };
        assert_eq!(aggs[0].func, "sum");
        assert!(post.is_some(), "0.15 + 0.85*sum needs a post projection");
        let LogicalPlan::Join { handler, left_key, right_key, .. } = &**input else {
            panic!("expected handler join, got {input:?}");
        };
        assert_eq!(handler.as_deref(), Some("PRAgg"));
        assert_eq!(left_key, &vec![0]);
        assert_eq!(right_key, &vec![0]);
        let text = p.explain();
        assert!(text.contains("Fixpoint PR"));
        assert!(text.contains("handler=PRAgg"));
    }

    #[test]
    fn referenced_tables_dedup_and_skip_fixpoint_refs() {
        let reg = Registry::with_builtins();
        let mut c = catalog();
        c.register("pr", Schema::of(&[("srcId", DataType::Int), ("pr", DataType::Double)]));
        let p =
            plan_text("SELECT graph.destId FROM graph, pr WHERE graph.srcId = pr.srcId", &c, &reg)
                .unwrap();
        assert_eq!(p.referenced_tables(), vec!["graph".to_string(), "pr".to_string()]);
        assert!(!p.is_recursive());
        let rec = plan_text(
            "WITH R (a) AS (SELECT srcId FROM graph)
             UNION UNTIL FIXPOINT BY a (SELECT graph.destId FROM graph, R WHERE graph.srcId = R.a)",
            &c,
            &reg,
        )
        .unwrap();
        assert_eq!(rec.referenced_tables(), vec!["graph".to_string()]);
        assert!(rec.is_recursive());
    }

    #[test]
    fn ddl_statements_do_not_plan() {
        let reg = Registry::with_builtins();
        let stmt = crate::parser::parse("DROP VIEW v").unwrap();
        let err = plan(&stmt, &catalog(), &reg).unwrap_err();
        assert!(err.to_string().contains("DDL"));
        // CREATE MATERIALIZED VIEW plans its defining query.
        let stmt =
            crate::parser::parse("CREATE MATERIALIZED VIEW v AS SELECT srcId FROM graph").unwrap();
        assert!(plan(&stmt, &catalog(), &reg).is_ok());
    }

    #[test]
    fn rejects_mismatched_recursive_arity() {
        let reg = Registry::with_builtins();
        let src = "
            WITH R (a, b, c) AS (SELECT srcId, destId FROM graph)
            UNION UNTIL FIXPOINT BY a (SELECT srcId, destId FROM graph)";
        let err = plan_text(src, &catalog(), &reg).unwrap_err();
        assert!(err.to_string().contains("declares 3 columns"));
    }

    #[test]
    fn rejects_unknown_fixpoint_key() {
        let reg = Registry::with_builtins();
        let src = "
            WITH R (a, b) AS (SELECT srcId, destId FROM graph)
            UNION UNTIL FIXPOINT BY zzz (SELECT a, b FROM R)";
        let err = plan_text(src, &catalog(), &reg).unwrap_err();
        assert!(err.to_string().contains("FIXPOINT BY column zzz"));
    }

    #[test]
    fn rejects_ungrouped_column() {
        let reg = Registry::with_builtins();
        let err =
            plan_text("SELECT destId, sum(srcId) FROM graph GROUP BY srcId", &catalog(), &reg)
                .unwrap_err();
        assert!(err.to_string().contains("neither grouped nor aggregated"));
    }

    #[test]
    fn subquery_in_from_resolves() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT s FROM (SELECT srcId AS s FROM graph WHERE destId > 5) AS x",
            &catalog(),
            &reg,
        )
        .unwrap();
        assert_eq!(p.schema().index_of("s"), Some(0));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let reg = Registry::with_builtins();
        assert!(plan_text("SELECT x FROM missing", &catalog(), &reg).is_err());
    }

    #[test]
    fn plans_order_by_and_limit_nodes() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT srcId, destId FROM graph ORDER BY destId DESC, srcId LIMIT 5 OFFSET 2",
            &catalog(),
            &reg,
        )
        .unwrap();
        let LogicalPlan::Limit { input, fetch: 5, offset: 2 } = &p else {
            panic!("expected Limit root, got {p:?}");
        };
        let LogicalPlan::Sort { keys, fetch: None, offset: 0, .. } = input.as_ref() else {
            panic!("expected Sort under Limit, got {input:?}");
        };
        assert_eq!(keys.len(), 2);
        assert!(keys[0].desc);
        assert_eq!(keys[0].expr, Expr::Col(1));
        assert!(!keys[1].desc);
        assert_eq!(p.schema().arity(), 2, "Sort/Limit keep the input schema");
        assert!(p.has_order_or_limit());
        let text = p.explain();
        assert!(text.contains("Limit 5 offset 2"), "{text}");
        assert!(text.contains("Sort ["), "{text}");
    }

    #[test]
    fn order_by_resolves_aliases_and_positions() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT srcId AS s, count(*) AS n FROM graph GROUP BY srcId ORDER BY n DESC, 1",
            &catalog(),
            &reg,
        )
        .unwrap();
        let LogicalPlan::Sort { keys, .. } = &p else { panic!("{p:?}") };
        assert_eq!(keys[0].expr, Expr::Col(1), "alias n is output column 1");
        assert_eq!(keys[1].expr, Expr::Col(0), "ORDER BY 1 is positional");
        let err = plan_text("SELECT srcId FROM graph ORDER BY 4", &catalog(), &reg).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn plans_distinct_as_group_by_all_columns() {
        let reg = Registry::with_builtins();
        let p = plan_text("SELECT DISTINCT srcId, destId FROM graph", &catalog(), &reg).unwrap();
        let LogicalPlan::Aggregate { group_cols, aggs, post, input, .. } = &p else {
            panic!("expected Aggregate, got {p:?}");
        };
        assert_eq!(group_cols, &vec![0, 1]);
        assert!(aggs.is_empty());
        assert!(post.is_none());
        assert!(matches!(**input, LogicalPlan::Project { .. }));
        assert_eq!(p.schema().arity(), 2);
    }

    #[test]
    fn plans_having_as_filter_above_raw_aggregate() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT srcId, sum(destId) FROM graph GROUP BY srcId HAVING count(*) > 2",
            &catalog(),
            &reg,
        )
        .unwrap();
        // count(*) is HAVING-only, so the SELECT projection is not the
        // identity over the raw output: Project(Filter(Aggregate)).
        let LogicalPlan::Project { input, exprs, .. } = &p else { panic!("{p:?}") };
        assert_eq!(exprs.len(), 2);
        let LogicalPlan::Filter { input: agg, predicate } = input.as_ref() else {
            panic!("{input:?}")
        };
        assert!(matches!(predicate, Expr::Bin(..)));
        let LogicalPlan::Aggregate { aggs, post: None, .. } = agg.as_ref() else {
            panic!("{agg:?}")
        };
        assert_eq!(aggs.len(), 2, "sum from SELECT + count from HAVING");
        assert_eq!(p.schema().arity(), 2, "HAVING-only aggregates are not projected");
    }

    #[test]
    fn shared_aggregate_between_select_and_having_is_computed_once() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT srcId, count(*) FROM graph GROUP BY srcId HAVING count(*) > 2",
            &catalog(),
            &reg,
        )
        .unwrap();
        // Identity projection: Filter directly above the aggregate.
        let LogicalPlan::Filter { input, .. } = &p else { panic!("{p:?}") };
        let LogicalPlan::Aggregate { aggs, .. } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(aggs.len(), 1, "the shared count(*) appears once");
    }

    #[test]
    fn expression_aggregate_arguments_synthesize_a_projection() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT orderkey, sum(extendedprice * (1 - discount)) FROM lineitem GROUP BY orderkey",
            &catalog(),
            &reg,
        )
        .unwrap();
        let LogicalPlan::Aggregate { input, group_cols, aggs, .. } = &p else { panic!("{p:?}") };
        assert_eq!(group_cols, &vec![0], "group key remapped to the synthesized projection");
        assert_eq!(aggs[0].input_cols, vec![1]);
        let LogicalPlan::Project { exprs, .. } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(exprs.len(), 2, "group col + one argument expression");
        assert_eq!(exprs[0], Expr::Col(0));
        assert!(matches!(exprs[1], Expr::Bin(..)));
    }

    #[test]
    fn identical_expression_arguments_share_a_synthesized_column() {
        let reg = Registry::with_builtins();
        let p = plan_text(
            "SELECT orderkey, sum(tax + discount), avg(tax + discount), min(tax) \
             FROM lineitem GROUP BY orderkey",
            &catalog(),
            &reg,
        )
        .unwrap();
        let LogicalPlan::Aggregate { input, aggs, .. } = &p else { panic!("{p:?}") };
        assert_eq!(aggs[0].input_cols, aggs[1].input_cols, "sum and avg share the column");
        let LogicalPlan::Project { exprs, .. } = input.as_ref() else { panic!("{input:?}") };
        assert_eq!(exprs.len(), 3, "group col + shared expr + tax");
        assert_eq!(aggs[2].input_cols, vec![2]);
    }

    #[test]
    fn order_by_limit_rejected_in_recursive_step() {
        let reg = Registry::with_builtins();
        let err = plan_text(
            "WITH R (a) AS (SELECT srcId FROM graph)
             UNION UNTIL FIXPOINT BY a (
               SELECT graph.destId FROM graph, R WHERE graph.srcId = R.a ORDER BY destId LIMIT 3)",
            &catalog(),
            &reg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("recursive"), "{err}");
    }

    #[test]
    fn create_table_does_not_plan() {
        let reg = Registry::with_builtins();
        let stmt = crate::parser::parse("CREATE TABLE t (x int)").unwrap();
        let err = plan(&stmt, &catalog(), &reg).unwrap_err();
        assert!(err.to_string().contains("DDL"));
    }

    #[test]
    fn having_without_aggregates_still_groups() {
        let reg = Registry::with_builtins();
        let p =
            plan_text("SELECT srcId FROM graph GROUP BY srcId HAVING srcId > 3", &catalog(), &reg)
                .unwrap();
        let LogicalPlan::Filter { input, .. } = &p else { panic!("{p:?}") };
        assert!(matches!(input.as_ref(), LogicalPlan::Aggregate { .. }));
    }
}
