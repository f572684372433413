//! Columnar batches for the vectorized hot path.
//!
//! A [`ColumnBatch`] is the column-major counterpart of the run-length
//! `Event::Rows` lane: per-column typed storage (no `Vec<Value>` of
//! enums on the common all-`Int`/all-`Double` columns), a per-column
//! validity vector for NULLs, and a batch-level *selection vector* so
//! filters never move data — they only narrow the selection.
//!
//! The invariant that makes transposing safe is **exact
//! round-tripping**: `ColumnBatch::try_from_rows(rows)` followed by
//! [`ColumnBatch::to_rows`] reproduces the input tuples bit-for-bit.
//! Because `Value`'s total order makes `Int(3) == Double(3.0)` while the
//! two display (and type) differently, a column is given typed storage
//! only when *every* value is the same variant (or NULL); any mixing —
//! including an `Int`/`Double` mix — falls back to a [`ColumnData::Generic`]
//! column that stores the original `Value`s verbatim.
//!
//! The vectorized kernels ([`ColumnBatch::filter`],
//! [`ColumnBatch::project`]) specialize the hot typed shapes
//! (`Int OP Int`, `Double OP Double`) with loops that are equal to
//! `Value::cmp` / `Value` arithmetic by inspection, and evaluate every
//! other shape through the *same* `eval_bin` the row interpreter uses on
//! stack-constructed `Value`s — identical semantics by construction.

use crate::error::Result;
use crate::expr::{cmp_bool, eval_bin, BinOp, CompiledExpr};
use crate::tuple::Tuple;
use crate::udf::Registry;
use crate::value::Value;
use std::sync::Arc;

/// Typed storage of one column. Invalid (NULL) positions hold an
/// arbitrary placeholder in the typed vectors; [`ColumnData::Generic`]
/// stores NULLs inline and never carries a validity vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All values are `Value::Int` (or NULL).
    Int(Vec<i64>),
    /// All values are `Value::Double` (or NULL).
    Double(Vec<f64>),
    /// All values are `Value::Bool` (or NULL).
    Bool(Vec<bool>),
    /// All values are `Value::Str` (or NULL).
    Str(Vec<Arc<String>>),
    /// Mixed variants, lists, or an all-NULL column: original values.
    Generic(Vec<Value>),
}

/// One column: typed data plus an optional validity vector (`None` means
/// every position is valid; `false` marks NULL).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
}

/// The variant a typed column stores.
#[derive(PartialEq, Clone, Copy)]
enum Kind {
    Int,
    Double,
    Bool,
    Str,
}

impl Column {
    /// Build a column from owned values, choosing typed storage when the
    /// column is variant-homogeneous (NULLs allowed) and falling back to
    /// [`ColumnData::Generic`] otherwise.
    pub fn from_values(values: Vec<Value>) -> Column {
        Column::typed(values.iter())
            .unwrap_or(Column { data: ColumnData::Generic(values), validity: None })
    }

    /// Column `c` of `rows`, under the same typing rules as
    /// [`from_values`](Column::from_values), read in place: no tuple is
    /// cloned.
    fn of_rows(rows: &[Tuple], c: usize) -> Column {
        Column::typed(rows.iter().map(move |t| t.get(c))).unwrap_or_else(|| Column {
            data: ColumnData::Generic(rows.iter().map(|t| t.get(c).clone()).collect()),
            validity: None,
        })
    }

    /// Typed storage for `values`, or `None` when they need
    /// [`ColumnData::Generic`]: mixed variants, lists, empty or all NULL.
    fn typed<'a>(values: impl Iterator<Item = &'a Value> + Clone) -> Option<Column> {
        let mut kind: Option<Kind> = None;
        let mut any_null = false;
        for v in values.clone() {
            let k = match v {
                Value::Null => {
                    any_null = true;
                    continue;
                }
                Value::Int(_) => Kind::Int,
                Value::Double(_) => Kind::Double,
                Value::Bool(_) => Kind::Bool,
                Value::Str(_) => Kind::Str,
                Value::List(_) => return None,
            };
            match kind {
                None => kind = Some(k),
                Some(prev) if prev == k => {}
                Some(_) => return None,
            }
        }
        let validity = any_null.then(|| values.clone().map(|v| !v.is_null()).collect());
        let data = match kind? {
            Kind::Int => ColumnData::Int(
                values.map(|v| if let Value::Int(i) = v { *i } else { 0 }).collect(),
            ),
            Kind::Double => ColumnData::Double(
                values.map(|v| if let Value::Double(d) = v { *d } else { 0.0 }).collect(),
            ),
            Kind::Bool => ColumnData::Bool(
                values.map(|v| if let Value::Bool(b) = v { *b } else { false }).collect(),
            ),
            Kind::Str => {
                let empty = Arc::new(String::new());
                ColumnData::Str(
                    values
                        .map(|v| if let Value::Str(s) = v { s.clone() } else { empty.clone() })
                        .collect(),
                )
            }
        };
        Some(Column { data, validity })
    }

    /// Physical length.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Generic(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Whether position `row` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        match (&self.validity, &self.data) {
            (Some(v), _) => v[row],
            (None, ColumnData::Generic(g)) => !g[row].is_null(),
            (None, _) => true,
        }
    }

    /// Reconstruct the [`Value`] at `row` (exact: NULLs and variants are
    /// preserved).
    #[inline]
    pub fn value_at(&self, row: usize) -> Value {
        if let Some(v) = &self.validity {
            if !v[row] {
                return Value::Null;
            }
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Generic(v) => v[row].clone(),
        }
    }

    /// Byte size of the value at `row` under the row lane's accounting.
    #[inline]
    fn value_byte_size(&self, row: usize) -> usize {
        if let Some(v) = &self.validity {
            if !v[row] {
                return 1; // NULL
            }
        }
        match &self.data {
            ColumnData::Int(_) | ColumnData::Double(_) => 8,
            ColumnData::Bool(_) => 1,
            ColumnData::Str(v) => 4 + v[row].len(),
            ColumnData::Generic(v) => v[row].byte_size(),
        }
    }

    /// Gather `rows` (physical indices) into a new compacted column.
    fn gather(&self, rows: &[u32]) -> Column {
        let validity = self
            .validity
            .as_ref()
            .map(|v| rows.iter().map(|&r| v[r as usize]).collect::<Vec<bool>>());
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(rows.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::Double(v) => {
                ColumnData::Double(rows.iter().map(|&r| v[r as usize]).collect())
            }
            ColumnData::Bool(v) => ColumnData::Bool(rows.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(rows.iter().map(|&r| v[r as usize].clone()).collect())
            }
            ColumnData::Generic(v) => {
                ColumnData::Generic(rows.iter().map(|&r| v[r as usize].clone()).collect())
            }
        };
        Column { data, validity }
    }
}

/// A column-major batch with a selection vector. The unit of traffic on
/// the columnar lane (`Event::Cols`).
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    /// Physical row count (every column has this length).
    rows: usize,
    /// Selected physical row indices, in row order; `None` = all rows.
    sel: Option<Vec<u32>>,
}

impl ColumnBatch {
    /// Transpose row-major tuples into a columnar batch. Returns the rows
    /// back (`Err`) when they cannot be columnarized — a ragged batch
    /// (mixed arities) stays on the row lane.
    pub fn try_from_rows(rows: Vec<Tuple>) -> std::result::Result<ColumnBatch, Vec<Tuple>> {
        ColumnBatch::from_row_slice(&rows).ok_or(rows)
    }

    /// [`try_from_rows`](ColumnBatch::try_from_rows) over borrowed rows
    /// (a scan's stored slice): each column is read straight out of the
    /// tuples, with no per-row `Arc` bump. `None` for a ragged slice.
    pub fn from_row_slice(rows: &[Tuple]) -> Option<ColumnBatch> {
        let width = rows.first().map_or(0, Tuple::arity);
        if rows.iter().any(|t| t.arity() != width) {
            return None;
        }
        let cols = (0..width).map(|c| Column::of_rows(rows, c)).collect();
        Some(ColumnBatch { cols, rows: rows.len(), sel: None })
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of *selected* rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Selected physical row indices, materialized.
    fn selection(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Materialize the selected rows as tuples, in row order — the exact
    /// inverse of [`try_from_rows`](ColumnBatch::try_from_rows) when the
    /// selection is untouched.
    pub fn to_rows(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        let mut scratch: Vec<Value> = Vec::with_capacity(self.cols.len());
        let mut emit = |row: usize, scratch: &mut Vec<Value>| {
            scratch.clear();
            for c in &self.cols {
                scratch.push(c.value_at(row));
            }
            out.push(Tuple::from_slice(scratch));
        };
        match &self.sel {
            Some(s) => {
                for &r in s {
                    emit(r as usize, &mut scratch);
                }
            }
            None => {
                for r in 0..self.rows {
                    emit(r, &mut scratch);
                }
            }
        }
        out
    }

    /// Wire size at parity with the row lane: each selected row accounts
    /// as one `+()` delta would.
    pub fn byte_size(&self) -> usize {
        let row_size =
            |r: usize| 1 + 2 + self.cols.iter().map(|c| c.value_byte_size(r)).sum::<usize>();
        8 + match &self.sel {
            Some(s) => s.iter().map(|&r| row_size(r as usize)).sum::<usize>(),
            None => (0..self.rows).map(row_size).sum::<usize>(),
        }
    }

    /// Vectorized filter: narrow the selection to rows where `pred` is
    /// true (SQL WHERE semantics — NULL is false). The typed kernels and
    /// the `eval_bin` fallback agree with the row path by construction;
    /// predicate shapes the kernels cannot handle (UDFs, AND/OR chains)
    /// are evaluated row-at-a-time on gathered tuples.
    pub fn filter(&mut self, pred: &CompiledExpr, reg: &Registry) -> Result<()> {
        let sel = self.selection();
        let mut keep = Vec::with_capacity(sel.len());
        match pred {
            CompiledExpr::BinColLit(op, i, lit) if op.is_predicate() && *i < self.cols.len() => {
                filter_col_lit(&self.cols[*i], *op, lit, &sel, &mut keep)?;
            }
            CompiledExpr::BinColCol(op, i, j)
                if op.is_predicate() && *i < self.cols.len() && *j < self.cols.len() =>
            {
                filter_col_col(&self.cols[*i], &self.cols[*j], *op, &sel, &mut keep)?;
            }
            _ => {
                // Row fallback: gather each candidate and run the row
                // predicate (identical to the row lane, including UDFs).
                let mut scratch: Vec<Value> = Vec::with_capacity(self.cols.len());
                for &r in &sel {
                    scratch.clear();
                    for c in &self.cols {
                        scratch.push(c.value_at(r as usize));
                    }
                    let t = Tuple::from_slice(&scratch);
                    if pred.eval_predicate(&t, reg)? {
                        keep.push(r);
                    }
                }
            }
        }
        self.sel = Some(keep);
        Ok(())
    }

    /// Vectorized projection: evaluate `exprs` column-at-a-time over the
    /// selected rows into a new compacted batch (selection reset).
    pub fn project(&self, exprs: &[CompiledExpr], reg: &Registry) -> Result<ColumnBatch> {
        let sel = self.selection();
        let n = sel.len();
        let mut out = Vec::with_capacity(exprs.len());
        for e in exprs {
            let col = match e {
                CompiledExpr::Col(i) if *i < self.cols.len() => self.cols[*i].gather(&sel),
                CompiledExpr::Lit(v) => Column::from_values(vec![v.clone(); n]),
                CompiledExpr::BinColLit(op, i, lit) if *i < self.cols.len() => {
                    let c = &self.cols[*i];
                    let mut vals = Vec::with_capacity(n);
                    for &r in &sel {
                        vals.push(eval_bin(*op, &c.value_at(r as usize), lit)?);
                    }
                    Column::from_values(vals)
                }
                CompiledExpr::BinColCol(op, i, j)
                    if *i < self.cols.len() && *j < self.cols.len() =>
                {
                    let (ci, cj) = (&self.cols[*i], &self.cols[*j]);
                    let mut vals = Vec::with_capacity(n);
                    for &r in &sel {
                        vals.push(eval_bin(
                            *op,
                            &ci.value_at(r as usize),
                            &cj.value_at(r as usize),
                        )?);
                    }
                    Column::from_values(vals)
                }
                // Anything else (UDFs, CASE, nested arithmetic, and
                // out-of-range columns, which must error like the row
                // path): gather the row and run the interpreter.
                _ => {
                    let mut vals = Vec::with_capacity(n);
                    let mut scratch: Vec<Value> = Vec::with_capacity(self.cols.len());
                    for &r in &sel {
                        scratch.clear();
                        for c in &self.cols {
                            scratch.push(c.value_at(r as usize));
                        }
                        let t = Tuple::from_slice(&scratch);
                        vals.push(e.eval(&t, reg)?);
                    }
                    Column::from_values(vals)
                }
            };
            out.push(col);
        }
        Ok(ColumnBatch { cols: out, rows: n, sel: None })
    }
}

/// `column OP literal` comparison kernel. Pushes passing physical indices
/// onto `keep`.
fn filter_col_lit(
    c: &Column,
    op: BinOp,
    lit: &Value,
    sel: &[u32],
    keep: &mut Vec<u32>,
) -> Result<()> {
    if lit.is_null() {
        return Ok(()); // comparison with NULL is NULL → false for every row
    }
    match (c.data(), lit) {
        // Int vs Int: Value::cmp on two Ints is i64::cmp.
        (ColumnData::Int(v), Value::Int(l)) => {
            let pass = int_cmp_fn(op);
            match &c.validity {
                None => {
                    for &r in sel {
                        if pass(v[r as usize], *l) {
                            keep.push(r);
                        }
                    }
                }
                Some(valid) => {
                    for &r in sel {
                        if valid[r as usize] && pass(v[r as usize], *l) {
                            keep.push(r);
                        }
                    }
                }
            }
        }
        // Double vs Double: Value::cmp on two Doubles is f64::total_cmp.
        (ColumnData::Double(v), Value::Double(l)) => {
            for &r in sel {
                if c.is_valid(r as usize) && ord_passes(op, v[r as usize].total_cmp(l)) {
                    keep.push(r);
                }
            }
        }
        // Everything else (cross-type numerics with their exact-
        // representability tiebreak, strings, generic columns): stack
        // values through the shared comparison.
        _ => {
            for &r in sel {
                if cmp_bool(op, &c.value_at(r as usize), lit)? {
                    keep.push(r);
                }
            }
        }
    }
    Ok(())
}

/// `column OP column` comparison kernel.
fn filter_col_col(
    ci: &Column,
    cj: &Column,
    op: BinOp,
    sel: &[u32],
    keep: &mut Vec<u32>,
) -> Result<()> {
    match (ci.data(), cj.data()) {
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            let pass = int_cmp_fn(op);
            for &r in sel {
                let r = r as usize;
                if ci.is_valid(r) && cj.is_valid(r) && pass(a[r], b[r]) {
                    keep.push(r as u32);
                }
            }
        }
        (ColumnData::Double(a), ColumnData::Double(b)) => {
            for &r in sel {
                let r = r as usize;
                if ci.is_valid(r) && cj.is_valid(r) && ord_passes(op, a[r].total_cmp(&b[r])) {
                    keep.push(r as u32);
                }
            }
        }
        _ => {
            for &r in sel {
                let r = r as usize;
                if cmp_bool(op, &ci.value_at(r), &cj.value_at(r))? {
                    keep.push(r as u32);
                }
            }
        }
    }
    Ok(())
}

/// The i64 comparison for a predicate op.
#[inline]
fn int_cmp_fn(op: BinOp) -> fn(i64, i64) -> bool {
    match op {
        BinOp::Eq => |a, b| a == b,
        BinOp::Ne => |a, b| a != b,
        BinOp::Lt => |a, b| a < b,
        BinOp::Le => |a, b| a <= b,
        BinOp::Gt => |a, b| a > b,
        BinOp::Ge => |a, b| a >= b,
        _ => unreachable!("kernel only handles comparison predicates"),
    }
}

/// Whether an ordering satisfies a comparison op.
#[inline]
fn ord_passes(op: BinOp, o: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Eq => o.is_eq(),
        BinOp::Ne => o.is_ne(),
        BinOp::Lt => o.is_lt(),
        BinOp::Le => o.is_le(),
        BinOp::Gt => o.is_gt(),
        BinOp::Ge => o.is_ge(),
        _ => unreachable!("kernel only handles comparison predicates"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::tuple;

    fn reg() -> Registry {
        Registry::with_builtins()
    }

    #[test]
    fn round_trip_is_exact() {
        let rows = vec![
            tuple![1i64, 2.5f64, "a"],
            Tuple::new(vec![Value::Null, Value::Double(f64::NAN), Value::str("b")]),
            tuple![3i64, -0.0f64, "c"],
        ];
        let b = ColumnBatch::try_from_rows(rows.clone()).unwrap();
        let back = b.to_rows();
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            // Bit-exactness, not just Eq (NaN == NaN under total order,
            // but we want the very same bits and variants).
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn mixed_int_double_column_stays_generic() {
        // Int(2) == Double(2.0) under Value's order; typed storage would
        // lose which variant each row had.
        let rows = vec![tuple![2i64], Tuple::new(vec![Value::Double(2.0)])];
        let b = ColumnBatch::try_from_rows(rows.clone()).unwrap();
        assert!(matches!(b.columns()[0].data(), ColumnData::Generic(_)));
        let back = b.to_rows();
        assert!(matches!(back[0].get(0), Value::Int(2)));
        assert!(matches!(back[1].get(0), Value::Double(_)));
    }

    #[test]
    fn ragged_batch_is_refused() {
        let rows = vec![tuple![1i64], tuple![1i64, 2i64]];
        assert!(ColumnBatch::try_from_rows(rows).is_err());
    }

    #[test]
    fn vectorized_filter_matches_row_path() {
        let r = reg();
        let rows: Vec<Tuple> = (0..100i64)
            .map(|i| {
                if i % 7 == 0 {
                    Tuple::new(vec![Value::Null, Value::Double(i as f64)])
                } else {
                    tuple![i, (i as f64) / 2.0]
                }
            })
            .collect();
        for pred in [
            Expr::col(0).gt(Expr::lit(40i64)),
            Expr::col(1).bin(BinOp::Le, Expr::lit(25.0f64)),
            Expr::col(0).bin(BinOp::Ne, Expr::col(0)),
            Expr::col(0).gt(Expr::lit(10.5f64)), // cross-type numeric
        ] {
            let compiled = CompiledExpr::compile(&pred);
            let mut b = ColumnBatch::try_from_rows(rows.clone()).unwrap();
            b.filter(&compiled, &r).unwrap();
            let got = b.to_rows();
            let want: Vec<Tuple> =
                rows.iter().filter(|t| compiled.eval_predicate(t, &r).unwrap()).cloned().collect();
            assert_eq!(got, want, "predicate {pred:?}");
        }
    }

    #[test]
    fn chained_filters_narrow_selection() {
        let r = reg();
        let rows: Vec<Tuple> = (0..50i64).map(|i| tuple![i, i * 2]).collect();
        let mut b = ColumnBatch::try_from_rows(rows).unwrap();
        b.filter(&CompiledExpr::compile(&Expr::col(0).gt(Expr::lit(10i64))), &r).unwrap();
        b.filter(&CompiledExpr::compile(&Expr::col(1).bin(BinOp::Lt, Expr::lit(60i64))), &r)
            .unwrap();
        let got = b.to_rows();
        let want: Vec<Tuple> = (11..30i64).map(|i| tuple![i, i * 2]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn vectorized_project_matches_row_path() {
        let r = reg();
        let rows: Vec<Tuple> = (0..40i64)
            .map(|i| {
                if i == 13 {
                    Tuple::new(vec![Value::Null, Value::Int(i)])
                } else {
                    tuple![i, i + 1]
                }
            })
            .collect();
        let exprs = [
            Expr::col(1),
            Expr::col(0).bin(BinOp::Add, Expr::lit(100i64)),
            Expr::col(0).bin(BinOp::Mul, Expr::col(1)),
            Expr::col(0).bin(BinOp::Div, Expr::lit(0i64)), // division by zero → NULL
            Expr::lit("tag"),
        ];
        let compiled: Vec<CompiledExpr> = exprs.iter().map(CompiledExpr::compile).collect();
        let b = ColumnBatch::try_from_rows(rows.clone()).unwrap();
        let projected = b.project(&compiled, &r).unwrap();
        let got = projected.to_rows();
        let want: Vec<Tuple> = rows
            .iter()
            .map(|t| {
                let vals: Vec<Value> = exprs.iter().map(|e| e.eval(t, &r).unwrap()).collect();
                Tuple::from_slice(&vals)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn byte_size_matches_rows_parity() {
        let rows = vec![tuple![1i64, "ab"], tuple![2i64, "cdef"]];
        let expect = 8 + rows.iter().map(|t| 1 + t.byte_size()).sum::<usize>();
        let b = ColumnBatch::try_from_rows(rows).unwrap();
        assert_eq!(b.byte_size(), expect);
    }

    #[test]
    fn filter_by_null_literal_selects_nothing() {
        let r = reg();
        let rows = vec![tuple![1i64], tuple![2i64]];
        let mut b = ColumnBatch::try_from_rows(rows).unwrap();
        let pred = CompiledExpr::BinColLit(BinOp::Eq, 0, Value::Null);
        b.filter(&pred, &r).unwrap();
        assert!(b.is_empty());
    }
}
