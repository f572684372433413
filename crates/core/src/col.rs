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
//!
//! Keyed operators — the group-by, the join's probe, the shard gate —
//! read a batch's rows in place: `ColumnBatch::key_hashes` and
//! `ColumnBatch::key_eq` hash and compare key columns exactly as `Value`
//! does, so a column row and a tuple with the same key meet in one
//! keyed-state bucket.

use crate::error::Result;
use crate::expr::{cmp_bool, eval_bin, BinOp, CompiledExpr};
use crate::hash::FxHasher;
use crate::tuple::Tuple;
use crate::udf::Registry;
use crate::value::{hash_str, Value};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
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

    /// A column of borrowed values, under the same typing rules as
    /// [`from_values`](Column::from_values): typed values are copied out
    /// and only a [`ColumnData::Generic`] column clones its `Value`s.
    fn of_values<'a>(values: impl Iterator<Item = &'a Value> + Clone) -> Column {
        Column::typed(values.clone()).unwrap_or_else(|| Column {
            data: ColumnData::Generic(values.cloned().collect()),
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

    /// Run `f` on the value at `row`, built on the stack for the typed
    /// variants and borrowed from a [`ColumnData::Generic`] column: unlike
    /// [`value_at`](Column::value_at) nothing is allocated or cloned,
    /// except one `Arc` bump on a string column.
    #[inline]
    pub(crate) fn with_value<R>(&self, row: usize, f: impl FnOnce(&Value) -> R) -> R {
        if !self.is_valid(row) {
            return f(&Value::Null);
        }
        match &self.data {
            ColumnData::Int(v) => f(&Value::Int(v[row])),
            ColumnData::Double(v) => f(&Value::Double(v[row])),
            ColumnData::Bool(v) => f(&Value::Bool(v[row])),
            ColumnData::Str(v) => f(&Value::Str(v[row].clone())),
            ColumnData::Generic(v) => f(&v[row]),
        }
    }

    /// Whether the value at `row` equals `v` under `Value`'s total order
    /// (so `Int(2)` equals `Double(2.0)` and NULL equals NULL), compared
    /// in place on the typed shapes.
    #[inline]
    pub(crate) fn eq_at(&self, row: usize, v: &Value) -> bool {
        if !self.is_valid(row) {
            return v.is_null();
        }
        match (&self.data, v) {
            (ColumnData::Int(c), Value::Int(x)) => c[row] == *x,
            (ColumnData::Double(c), Value::Double(x)) => c[row].total_cmp(x).is_eq(),
            (ColumnData::Str(c), Value::Str(x)) => c[row] == *x,
            (ColumnData::Generic(c), _) => c[row] == *v,
            _ => self.with_value(row, |mine| mine == v),
        }
    }

    /// Feed the value at `row` to `h` exactly as hashing the `Value`
    /// would, so column keys and tuple keys probe the same buckets.
    #[inline]
    fn hash_at(&self, row: usize, h: &mut FxHasher) {
        if !self.is_valid(row) {
            return Value::Null.hash(h);
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]).hash(h),
            ColumnData::Double(v) => Value::Double(v[row]).hash(h),
            ColumnData::Bool(v) => Value::Bool(v[row]).hash(h),
            ColumnData::Str(v) => hash_str(&v[row], h),
            ColumnData::Generic(v) => v[row].hash(h),
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
        Some(ColumnBatch { cols: columns_of(rows)?, rows: rows.len(), sel: None })
    }

    /// A batch of whole `cols`, each `rows` long, every row selected.
    pub(crate) fn from_columns(cols: Vec<Column>, rows: usize) -> ColumnBatch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        ColumnBatch { cols, rows, sel: None }
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
    pub(crate) fn selection(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Keep only the selected rows `keep` accepts (by physical index),
    /// in order: a narrowed selection, no data moved.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let mut sel = self.selection();
        sel.retain(|&r| keep(r as usize));
        self.sel = Some(sel);
    }

    /// One key hash per row of `rows` (physical indices) over the key
    /// columns `cols`, computed column by column; each equals
    /// [`hash_values`](crate::hash::hash_values) of the row's key, which
    /// is how [`Tuple::hash_key`] hashes it.
    pub(crate) fn key_hashes(&self, rows: &[u32], cols: &[usize]) -> Vec<u64> {
        let mut hs = vec![FxHasher::default(); rows.len()];
        for &c in cols {
            let col = &self.cols[c];
            for (h, &r) in hs.iter_mut().zip(rows) {
                col.hash_at(r as usize, h);
            }
        }
        hs.iter().map(FxHasher::finish).collect()
    }

    /// Whether row `row`'s key columns `cols` equal the owned `key`,
    /// compared in place (the columnar twin of [`Tuple::key_eq`]).
    #[inline]
    pub(crate) fn key_eq(&self, row: usize, cols: &[usize], key: &[Value]) -> bool {
        cols.len() == key.len() && cols.iter().zip(key).all(|(&c, v)| self.cols[c].eq_at(row, v))
    }

    /// Whether rows `a` and `b` agree on the key columns `cols`.
    #[inline]
    pub(crate) fn rows_key_eq(&self, a: usize, b: usize, cols: &[usize]) -> bool {
        cols.iter().all(|&c| {
            let col = &self.cols[c];
            col.with_value(a, |v| col.eq_at(b, v))
        })
    }

    /// Row `row`'s key columns `cols` as an owned key.
    pub(crate) fn key(&self, row: usize, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.cols[c].value_at(row)).collect()
    }

    /// Every column gathered at `rows` (physical indices, repeats
    /// allowed), compacted in that order.
    pub(crate) fn gather(&self, rows: &[u32]) -> Vec<Column> {
        self.cols.iter().map(|c| c.gather(rows)).collect()
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

/// The columns of borrowed tuples, typed where each column allows, with
/// no tuple cloned. `None` when the tuples are ragged.
pub(crate) fn columns_of<T: Borrow<Tuple>>(rows: &[T]) -> Option<Vec<Column>> {
    let width = rows.first().map_or(0, |t| t.borrow().arity());
    if rows.iter().any(|t| t.borrow().arity() != width) {
        return None;
    }
    Some((0..width).map(|c| Column::of_values(rows.iter().map(|t| t.borrow().get(c)))).collect())
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

    /// Column keys hash and compare exactly like the same rows' tuple
    /// keys, on every typed shape with and without NULLs and on a
    /// `Generic` column where `Int(2)` meets `Double(2.0)`.
    #[test]
    fn key_hashes_and_equality_match_tuple_keys() {
        let rows = vec![
            Tuple::new(vec![
                Value::Int(2),
                Value::Double(2.0),
                Value::str("a"),
                Value::Bool(true),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Double(-0.0),
                Value::str("b"),
                Value::Bool(false),
                Value::Int(2),
            ]),
            Tuple::new(vec![
                Value::Int(-7),
                Value::Double(f64::NAN),
                Value::Null,
                Value::Null,
                Value::Double(2.0),
            ]),
        ];
        let b = ColumnBatch::try_from_rows(rows.clone()).unwrap();
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        for cols in [vec![0], vec![1], vec![2], vec![3], vec![4], vec![4, 0], (0..5).collect()] {
            let hashes = b.key_hashes(&sel, &cols);
            for (r, t) in rows.iter().enumerate() {
                assert_eq!(hashes[r], t.hash_key(&cols), "row {r} cols {cols:?}");
                for (o, other) in rows.iter().enumerate() {
                    let key = other.key(&cols);
                    assert_eq!(b.key_eq(r, &cols, &key), t.key_eq(&cols, &key), "{r}/{cols:?}");
                    assert_eq!(b.rows_key_eq(r, o, &cols), t.key_eq(&cols, &key), "{r}/{o}");
                }
            }
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
