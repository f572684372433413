//! Selection with full delta semantics.

use crate::col::ColumnBatch;
use crate::delta::{Annotation, Delta, Punctuation};
use crate::error::Result;
use crate::expr::{CompiledExpr, Expr};
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;

/// Filters deltas by a predicate.
///
/// Stateless propagation (§3.3): the annotation rides along. Replacement
/// deltas need care — the old and new tuple may fall on different sides of
/// the predicate, turning a replacement into an insertion or deletion:
///
/// | old passes | new passes | output                 |
/// |-----------:|-----------:|------------------------|
/// | yes        | yes        | `→(old) new`           |
/// | no         | yes        | `+() new`              |
/// | yes        | no         | `-() old`              |
/// | no         | no         | nothing                |
#[derive(Clone)]
pub struct FilterOp {
    predicate: Expr,
    /// The predicate pre-compiled for the per-row path: `col OP lit` /
    /// `col OP col` shapes evaluate on borrowed operands with no clones.
    compiled: CompiledExpr,
    has_udf: bool,
    /// Rows that arrived on a batch lane (`Rows`/`Cols`), for telemetry.
    batch_in: u64,
    /// Rows of those that passed the predicate.
    batch_out: u64,
}

impl FilterOp {
    /// Filter by `predicate` (NULL counts as false, per SQL WHERE).
    pub fn new(predicate: Expr) -> FilterOp {
        let compiled = CompiledExpr::compile(&predicate);
        let has_udf = predicate.contains_udf();
        FilterOp { predicate, compiled, has_udf, batch_in: 0, batch_out: 0 }
    }

    /// The predicate expression.
    pub fn predicate(&self) -> &Expr {
        &self.predicate
    }
}

impl Operator for FilterOp {
    fn name(&self) -> String {
        format!("Filter({})", "σ")
    }

    fn on_deltas(
        &mut self,
        _port: usize,
        mut deltas: Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        ctx.charge_input(deltas.len());
        if self.has_udf {
            for _ in 0..deltas.len() {
                ctx.charge_udf_call();
            }
        }
        // Fast path: a batch without replacement deltas filters in place —
        // no output vector, no per-delta moves. (Replacements can change
        // kind depending on which side of the predicate each tuple falls,
        // so they take the rewriting path below.)
        if !deltas.iter().any(|d| matches!(d.ann, Annotation::Replace(_))) {
            let mut err = None;
            deltas.retain(|d| match self.compiled.eval_predicate(&d.tuple, ctx.reg) {
                Ok(pass) => pass,
                Err(e) => {
                    err = Some(e);
                    false
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            ctx.emit(0, deltas);
            return Ok(());
        }
        let mut out = Vec::new();
        for d in deltas {
            let new_pass = self.compiled.eval_predicate(&d.tuple, ctx.reg)?;
            match &d.ann {
                Annotation::Replace(old) => {
                    let old_pass = self.compiled.eval_predicate(old, ctx.reg)?;
                    match (old_pass, new_pass) {
                        (true, true) => out.push(d),
                        (false, true) => out.push(Delta::insert(d.tuple)),
                        (true, false) => out.push(Delta::delete(old.clone())),
                        (false, false) => {}
                    }
                }
                _ => {
                    if new_pass {
                        out.push(d);
                    }
                }
            }
        }
        ctx.emit(0, out);
        Ok(())
    }

    /// Fast lane: bare tuples filter in place — no deltas to unwrap, no
    /// annotation cases to consider.
    fn on_rows(&mut self, _port: usize, mut rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(rows.len());
        self.batch_in += rows.len() as u64;
        if self.has_udf {
            for _ in 0..rows.len() {
                ctx.charge_udf_call();
            }
        }
        let mut err = None;
        rows.retain(|t| match self.compiled.eval_predicate(t, ctx.reg) {
            Ok(pass) => pass,
            Err(e) => {
                err = Some(e);
                false
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        self.batch_out += rows.len() as u64;
        ctx.emit_rows(0, rows);
        Ok(())
    }

    /// Columnar lane: the whole batch evaluates through the vectorized
    /// comparison kernels into a narrowed selection vector — no data
    /// movement at all on the typed shapes.
    fn on_cols(&mut self, _port: usize, mut batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(batch.len());
        self.batch_in += batch.len() as u64;
        if self.has_udf {
            for _ in 0..batch.len() {
                ctx.charge_udf_call();
            }
        }
        batch.filter(&self.compiled, ctx.reg)?;
        self.batch_out += batch.len() as u64;
        ctx.emit_cols(0, batch);
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {
        self.batch_in = 0;
        self.batch_out = 0;
    }

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn stats_detail(&self) -> Vec<(String, u64)> {
        if self.batch_in == 0 {
            return Vec::new();
        }
        vec![
            ("batch_rows".into(), self.batch_in),
            // Percent of batched rows that survived the predicate.
            ("selectivity".into(), self.batch_out * 100 / self.batch_in),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    fn run(op: &mut FilterOp, deltas: Vec<Delta>) -> Vec<Delta> {
        let reg = Registry::with_builtins();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(0, deltas, &mut ctx).unwrap();
        ctx.take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                _ => vec![],
            })
            .collect()
    }

    #[test]
    fn passes_and_drops_inserts() {
        let mut op = FilterOp::new(Expr::col(0).gt(Expr::lit(5i64)));
        let out = run(&mut op, vec![Delta::insert(tuple![9i64]), Delta::insert(tuple![3i64])]);
        assert_eq!(out, vec![Delta::insert(tuple![9i64])]);
    }

    #[test]
    fn replacement_crossing_predicate_becomes_insert_or_delete() {
        let mut op = FilterOp::new(Expr::col(0).gt(Expr::lit(5i64)));
        // old fails, new passes -> insert
        let out = run(&mut op, vec![Delta::replace(tuple![1i64], tuple![9i64])]);
        assert_eq!(out, vec![Delta::insert(tuple![9i64])]);
        // old passes, new fails -> delete(old)
        let out = run(&mut op, vec![Delta::replace(tuple![8i64], tuple![2i64])]);
        assert_eq!(out, vec![Delta::delete(tuple![8i64])]);
        // both pass -> replacement survives
        let out = run(&mut op, vec![Delta::replace(tuple![8i64], tuple![9i64])]);
        assert_eq!(out, vec![Delta::replace(tuple![8i64], tuple![9i64])]);
        // both fail -> nothing
        let out = run(&mut op, vec![Delta::replace(tuple![1i64], tuple![2i64])]);
        assert!(out.is_empty());
    }

    #[test]
    fn punctuation_forwarded() {
        let mut op = FilterOp::new(Expr::lit(true));
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_punct(0, Punctuation::EndOfStratum(2), &mut ctx).unwrap();
        let out = ctx.take_output();
        assert!(matches!(out[0].1, Event::Punct(Punctuation::EndOfStratum(2))));
    }
}
