//! Projection: per-tuple expression evaluation.

use crate::col::ColumnBatch;
use crate::delta::{Annotation, Delta, Punctuation};
use crate::error::Result;
use crate::expr::{CompiledExpr, Expr};
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;

/// Evaluates a list of expressions over each input tuple, producing an
/// output tuple per input. Stateless: annotations ride along, and the old
/// tuple of a replacement delta is projected through the same expressions
/// (valid because projection is deterministic). Expressions are
/// pre-compiled ([`CompiledExpr`]) so the common `col` / `col OP lit`
/// shapes evaluate on borrowed operands per row.
#[derive(Clone)]
pub struct ProjectOp {
    exprs: Vec<Expr>,
    compiled: Vec<CompiledExpr>,
    has_udf: bool,
    /// Reusable evaluation buffer: expressions evaluate into it and the
    /// output tuple is built with a single allocation
    /// ([`Tuple::from_slice`]).
    scratch: Vec<crate::value::Value>,
}

impl ProjectOp {
    /// Project through `exprs`.
    pub fn new(exprs: Vec<Expr>) -> ProjectOp {
        let compiled = exprs.iter().map(CompiledExpr::compile).collect();
        let has_udf = exprs.iter().any(Expr::contains_udf);
        ProjectOp { exprs, compiled, has_udf, scratch: Vec::new() }
    }

    fn apply(&mut self, t: &Tuple, reg: &crate::udf::Registry) -> Result<Tuple> {
        self.scratch.clear();
        for e in &self.compiled {
            let v = e.eval(t, reg)?;
            self.scratch.push(v);
        }
        Ok(Tuple::from_slice(&self.scratch))
    }
}

impl Operator for ProjectOp {
    fn name(&self) -> String {
        format!("Project[{}]", self.exprs.len())
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        let mut out = Vec::with_capacity(deltas.len());
        for d in deltas {
            if self.has_udf {
                ctx.charge_udf_call();
            }
            let new_t = self.apply(&d.tuple, ctx.reg)?;
            let ann = match d.ann {
                Annotation::Replace(old) => Annotation::Replace(self.apply(&old, ctx.reg)?),
                a => a,
            };
            out.push(Delta { ann, tuple: new_t });
        }
        ctx.emit(0, out);
        Ok(())
    }

    /// Fast lane: project bare tuples to bare tuples.
    fn on_rows(&mut self, _port: usize, rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(rows.len());
        let mut out = Vec::with_capacity(rows.len());
        for t in &rows {
            if self.has_udf {
                ctx.charge_udf_call();
            }
            out.push(self.apply(t, ctx.reg)?);
        }
        ctx.emit_rows(0, out);
        Ok(())
    }

    /// Columnar lane: materialize the output column-at-a-time over the
    /// selected rows. Column references gather, `col OP lit` / `col OP
    /// col` shapes evaluate without per-row tuple construction.
    fn on_cols(&mut self, _port: usize, batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(batch.len());
        if self.has_udf {
            for _ in 0..batch.len() {
                ctx.charge_udf_call();
            }
        }
        let out = batch.project(&self.compiled, ctx.reg)?;
        ctx.emit_cols(0, out);
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {}

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    fn run(op: &mut ProjectOp, deltas: Vec<Delta>) -> Vec<Delta> {
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
    fn projects_expressions() {
        let mut op =
            ProjectOp::new(vec![Expr::col(1), Expr::col(0).bin(BinOp::Add, Expr::lit(10i64))]);
        let out = run(&mut op, vec![Delta::insert(tuple![1i64, "a"])]);
        assert_eq!(out[0].tuple, tuple!["a", 11i64]);
    }

    #[test]
    fn replacement_old_tuple_is_projected_too() {
        let mut op = ProjectOp::new(vec![Expr::col(0).bin(BinOp::Mul, Expr::lit(2i64))]);
        let out = run(&mut op, vec![Delta::replace(tuple![3i64], tuple![5i64])]);
        match &out[0].ann {
            Annotation::Replace(old) => assert_eq!(old, &tuple![6i64]),
            a => panic!("expected replace, got {a:?}"),
        }
        assert_eq!(out[0].tuple, tuple![10i64]);
    }
}
