//! Name resolution and type checking.
//!
//! Resolution turns AST column references into absolute column indices
//! over the row produced by a block's FROM clause (the concatenation of
//! all FROM items' schemas, left to right), and AST expressions into
//! engine [`Expr`]s. UDF references are checked against the
//! [`Registry`]; "typechecking is performed by the query processor"
//! (§3.3).

use crate::ast::{AstBinOp, AstExpr};
use rex_core::error::{Result, RexError};
use rex_core::expr::{BinOp, Expr};
use rex_core::tuple::Schema;
use rex_core::udf::Registry;
use rex_core::value::{DataType, Value};
use std::collections::HashMap;

/// Table-name → schema map used by the resolver (the query-facing slice of
/// the storage catalog).
#[derive(Debug, Clone, Default)]
pub struct SchemaCatalog {
    tables: HashMap<String, Schema>,
}

impl SchemaCatalog {
    /// An empty catalog.
    pub fn new() -> SchemaCatalog {
        SchemaCatalog::default()
    }

    /// Register a table schema.
    pub fn register(&mut self, name: impl Into<String>, schema: Schema) {
        self.tables.insert(name.into(), schema);
    }

    /// Look up a table schema.
    pub fn get(&self, name: &str) -> Result<&Schema> {
        self.tables.get(name).ok_or_else(|| RexError::Plan(format!("unknown table {name}")))
    }

    /// Whether `name` is a registered table.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Remove a table's schema (dropping a table or view); returns whether
    /// it was registered. Matching is case-insensitive: the storage layer
    /// keys tables by lowercase name, so a table registered here as
    /// `"Edges"` must still be removable via `drop_table("edges")` —
    /// otherwise the orphaned schema would block re-creation forever.
    pub fn remove(&mut self, name: &str) -> bool {
        if self.tables.remove(name).is_some() {
            return true;
        }
        let found: Vec<String> =
            self.tables.keys().filter(|k| k.eq_ignore_ascii_case(name)).cloned().collect();
        for k in &found {
            self.tables.remove(k);
        }
        !found.is_empty()
    }
}

/// One FROM-item binding in a resolution scope.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Name the item is visible under (alias or table name); `None` for an
    /// anonymous subquery.
    pub name: Option<String>,
    /// The item's output schema.
    pub schema: Schema,
    /// Column offset of this item within the concatenated row.
    pub offset: usize,
}

/// A resolution scope: the bindings of one SELECT block's FROM clause.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    bindings: Vec<Binding>,
}

impl Scope {
    /// Build a scope from `(name, schema)` FROM items, assigning offsets.
    pub fn new(items: Vec<(Option<String>, Schema)>) -> Scope {
        let mut bindings = Vec::with_capacity(items.len());
        let mut offset = 0;
        for (name, schema) in items {
            let arity = schema.arity();
            bindings.push(Binding { name, schema, offset });
            offset += arity;
        }
        Scope { bindings }
    }

    /// The bindings.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Total arity of the concatenated row.
    pub fn arity(&self) -> usize {
        self.bindings.iter().map(|b| b.schema.arity()).sum()
    }

    /// Resolve `[qualifier.]name` to `(absolute column, type)`.
    pub fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let mut found: Option<(usize, DataType)> = None;
        for b in &self.bindings {
            if let Some(q) = qualifier {
                if b.name.as_deref() != Some(q) {
                    continue;
                }
            }
            if let Some(i) = b.schema.index_of(name) {
                if found.is_some() {
                    return Err(RexError::Plan(format!("ambiguous column {name}")));
                }
                found = Some((b.offset + i, b.schema.field_type(i)));
            }
        }
        found.ok_or_else(|| {
            let q = qualifier.map(|q| format!("{q}.")).unwrap_or_default();
            RexError::Plan(format!("unknown column {q}{name}"))
        })
    }

    /// The index range `[offset, offset+arity)` of a named binding.
    pub fn binding_range(&self, name: &str) -> Option<(usize, usize)> {
        self.bindings
            .iter()
            .find(|b| b.name.as_deref() == Some(name))
            .map(|b| (b.offset, b.offset + b.schema.arity()))
    }
}

/// Map an AST operator onto the engine's.
pub fn bin_op(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

/// Resolve a *scalar* AST expression to an engine [`Expr`]. Aggregate and
/// destructured calls are rejected here (the planner routes them through
/// group-by / join lowering instead).
pub fn resolve_scalar(e: &AstExpr, scope: &Scope, reg: &Registry) -> Result<Expr> {
    match e {
        AstExpr::Column { qualifier, name } => {
            let (idx, _) = scope.resolve_column(qualifier.as_deref(), name)?;
            Ok(Expr::Col(idx))
        }
        AstExpr::Int(i) => Ok(Expr::Lit(Value::Int(*i))),
        AstExpr::Float(x) => Ok(Expr::Lit(Value::Double(*x))),
        AstExpr::Str(s) => Ok(Expr::Lit(Value::str(s.clone()))),
        AstExpr::Bool(b) => Ok(Expr::Lit(Value::Bool(*b))),
        AstExpr::Null => Ok(Expr::Lit(Value::Null)),
        AstExpr::Binary { op, left, right } => Ok(Expr::Bin(
            bin_op(*op),
            Box::new(resolve_scalar(left, scope, reg)?),
            Box::new(resolve_scalar(right, scope, reg)?),
        )),
        AstExpr::Neg(inner) => Ok(Expr::Neg(Box::new(resolve_scalar(inner, scope, reg)?))),
        AstExpr::Not(inner) => Ok(Expr::Not(Box::new(resolve_scalar(inner, scope, reg)?))),
        AstExpr::Call { name, args, destructure } => {
            if destructure.is_some() {
                return Err(RexError::Plan(format!(
                    "table-valued call {name}(...).{{...}} is only allowed as the sole \
                     projection of a join block"
                )));
            }
            if reg.has_agg(name) || reg.has_agg(&name.to_ascii_lowercase()) {
                return Err(RexError::Plan(format!(
                    "aggregate {name} used outside GROUP BY context"
                )));
            }
            let mut resolved = Vec::with_capacity(args.len());
            for a in args {
                resolved.push(resolve_scalar(a, scope, reg)?);
            }
            // Verify the scalar UDF exists; typecheck its arity lazily.
            reg.scalar(name).map_err(|_| RexError::Plan(format!("unknown function {name}")))?;
            Ok(Expr::Udf(name.clone(), resolved))
        }
        AstExpr::Star => Err(RexError::Plan("'*' is only valid in count(*)".into())),
    }
}

/// Infer the output name for a projection expression (for result schemas).
pub fn projection_name(e: &AstExpr, alias: Option<&str>, index: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Call { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope2() -> Scope {
        Scope::new(vec![
            (
                Some("graph".into()),
                Schema::of(&[("srcId", DataType::Int), ("destId", DataType::Int)]),
            ),
            (Some("PR".into()), Schema::of(&[("srcId", DataType::Int), ("pr", DataType::Double)])),
        ])
    }

    #[test]
    fn qualified_resolution_disambiguates() {
        let s = scope2();
        assert_eq!(s.resolve_column(Some("graph"), "srcId").unwrap(), (0, DataType::Int));
        assert_eq!(s.resolve_column(Some("PR"), "srcId").unwrap(), (2, DataType::Int));
        assert_eq!(s.resolve_column(None, "pr").unwrap(), (3, DataType::Double));
    }

    #[test]
    fn unqualified_ambiguity_is_an_error() {
        let s = scope2();
        let err = s.resolve_column(None, "srcId").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_column_is_an_error() {
        let s = scope2();
        assert!(s.resolve_column(None, "nope").is_err());
        assert!(s.resolve_column(Some("graph"), "pr").is_err());
    }

    #[test]
    fn binding_range_locates_tables() {
        let s = scope2();
        assert_eq!(s.binding_range("PR"), Some((2, 4)));
        assert_eq!(s.binding_range("graph"), Some((0, 2)));
        assert_eq!(s.binding_range("zzz"), None);
    }

    #[test]
    fn scalar_resolution_builds_engine_exprs() {
        let s = scope2();
        let reg = Registry::with_builtins();
        let ast = AstExpr::Binary {
            op: AstBinOp::Gt,
            left: Box::new(AstExpr::column("pr")),
            right: Box::new(AstExpr::Float(0.5)),
        };
        let e = resolve_scalar(&ast, &s, &reg).unwrap();
        match e {
            Expr::Bin(BinOp::Gt, l, _) => assert!(matches!(*l, Expr::Col(3))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        let s = scope2();
        let reg = Registry::with_builtins();
        let ast = AstExpr::Call {
            name: "sum".into(),
            args: vec![AstExpr::column("pr")],
            destructure: None,
        };
        assert!(resolve_scalar(&ast, &s, &reg).is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        let s = scope2();
        let reg = Registry::with_builtins();
        let ast = AstExpr::Call { name: "mystery".into(), args: vec![], destructure: None };
        let err = resolve_scalar(&ast, &s, &reg).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn catalog_register_and_lookup() {
        let mut c = SchemaCatalog::new();
        c.register("t", Schema::of(&[("x", DataType::Int)]));
        assert!(c.contains("t"));
        assert_eq!(c.get("t").unwrap().arity(), 1);
        assert!(c.get("missing").is_err());
    }
}
