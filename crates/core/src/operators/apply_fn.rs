//! The `applyFunction` operator: user-defined per-delta transformation.
//!
//! "One exception to this general rule is the applyFunction operator, which
//! is stateless but can create or manipulate annotations in arbitrary ways"
//! (§3.3). The operator delegates to a [`DeltaMapper`], of which two
//! implementations are provided: [`ExprMapper`] (projection that preserves
//! annotations — the common case) and [`FnMapper`] (arbitrary user code that
//! may rewrite annotations, e.g. turning insertions into deletions).

use crate::delta::{Delta, Punctuation};
use crate::error::Result;
use crate::expr::Expr;
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;
use crate::udf::Registry;
use std::sync::Arc;

/// A user-defined delta transformation.
pub trait DeltaMapper: Send + Sync {
    /// Name for plan display.
    fn name(&self) -> &str;
    /// Map one input delta to zero or more output deltas.
    fn map(&self, d: &Delta, reg: &Registry) -> Result<Vec<Delta>>;
    /// Whether this mapper sits on a Hadoop-code boundary and must pay the
    /// per-tuple text (de)serialization cost (`CostModel::wrap_format_cost`,
    /// §4.4 / §6 "wrap").
    fn wrap_boundary(&self) -> bool {
        false
    }
}

/// Expression-based mapper: evaluates expressions, keeps annotations.
pub struct ExprMapper {
    exprs: Vec<Expr>,
}

impl ExprMapper {
    /// Build from a projection list.
    pub fn new(exprs: Vec<Expr>) -> ExprMapper {
        ExprMapper { exprs }
    }
}

impl DeltaMapper for ExprMapper {
    fn name(&self) -> &str {
        "expr"
    }

    fn map(&self, d: &Delta, reg: &Registry) -> Result<Vec<Delta>> {
        let mut vals = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            vals.push(e.eval(&d.tuple, reg)?);
        }
        Ok(vec![d.with_tuple(Tuple::new(vals))])
    }
}

/// The boxed mapping closure of an [`FnMapper`].
pub type MapperFn = Arc<dyn Fn(&Delta, &Registry) -> Result<Vec<Delta>> + Send + Sync>;

/// Closure-based mapper for arbitrary user logic (annotation rewriting,
/// fan-out, filtering).
pub struct FnMapper {
    name: String,
    f: MapperFn,
}

impl FnMapper {
    /// Build from a closure.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Delta, &Registry) -> Result<Vec<Delta>> + Send + Sync + 'static,
    ) -> FnMapper {
        FnMapper { name: name.into(), f: Arc::new(f) }
    }
}

impl DeltaMapper for FnMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, d: &Delta, reg: &Registry) -> Result<Vec<Delta>> {
        (self.f)(d, reg)
    }
}

/// The applyFunction operator.
pub struct ApplyFunctionOp {
    mapper: Arc<dyn DeltaMapper>,
    /// Result cache for deterministic functions (§5.1 "Caching").
    cache: Option<std::collections::HashMap<Delta, Vec<Delta>>>,
}

impl ApplyFunctionOp {
    /// Apply `mapper` to every delta.
    pub fn new(mapper: Arc<dyn DeltaMapper>) -> ApplyFunctionOp {
        ApplyFunctionOp { mapper, cache: None }
    }

    /// Enable result caching (only valid for deterministic mappers).
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(std::collections::HashMap::new());
        self
    }
}

impl Operator for ApplyFunctionOp {
    fn name(&self) -> String {
        format!("ApplyFn({})", self.mapper.name())
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        if self.mapper.wrap_boundary() {
            // Text (de)serialization across the Hadoop-code boundary.
            ctx.charge_cpu(deltas.len() as f64 * ctx.cost.wrap_format_cost);
        }
        let mut out = Vec::with_capacity(deltas.len());
        for d in deltas {
            if let Some(cache) = &mut self.cache {
                if let Some(hit) = cache.get(&d) {
                    out.extend(hit.iter().cloned());
                    continue;
                }
                ctx.charge_udf_call();
                let produced = self.mapper.map(&d, ctx.reg)?;
                cache.insert(d, produced.clone());
                out.extend(produced);
            } else {
                ctx.charge_udf_call();
                out.extend(self.mapper.map(&d, ctx.reg)?);
            }
        }
        ctx.emit(0, out);
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {
        if let Some(c) = &mut self.cache {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;

    fn run(op: &mut ApplyFunctionOp, deltas: Vec<Delta>) -> (Vec<Delta>, ExecMetrics) {
        let reg = Registry::with_builtins();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(0, deltas, &mut ctx).unwrap();
        let out = ctx
            .take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                _ => vec![],
            })
            .collect();
        (out, m)
    }

    #[test]
    fn fn_mapper_can_rewrite_annotations() {
        let mapper = FnMapper::new("negate", |d, _| Ok(vec![Delta::delete(d.tuple.clone())]));
        let mut op = ApplyFunctionOp::new(Arc::new(mapper));
        let (out, _) = run(&mut op, vec![Delta::insert(tuple![5i64])]);
        assert_eq!(out, vec![Delta::delete(tuple![5i64])]);
    }

    #[test]
    fn fn_mapper_can_fan_out_and_filter() {
        let mapper = FnMapper::new("fan", |d, _| {
            let v = d.tuple.get(0).as_int().unwrap();
            if v < 0 {
                Ok(vec![])
            } else {
                Ok((0..v).map(|i| Delta::insert(tuple![i])).collect())
            }
        });
        let mut op = ApplyFunctionOp::new(Arc::new(mapper));
        let (out, _) =
            run(&mut op, vec![Delta::insert(tuple![3i64]), Delta::insert(tuple![-1i64])]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn cache_avoids_repeat_udf_calls() {
        let mapper = ExprMapper::new(vec![Expr::Udf("abs".into(), vec![Expr::col(0)])]);
        let mut op = ApplyFunctionOp::new(Arc::new(mapper)).with_cache();
        let d = Delta::insert(tuple![-3i64]);
        let (_, m1) = run(&mut op, vec![d.clone(), d.clone(), d]);
        // Only the first invocation hits the mapper.
        assert_eq!(m1.udf_calls, 1);
    }

    #[test]
    fn expr_mapper_preserves_annotation() {
        let mapper = ExprMapper::new(vec![Expr::col(0)]);
        let mut op = ApplyFunctionOp::new(Arc::new(mapper));
        let (out, _) = run(&mut op, vec![Delta::delete(tuple![1i64, 2i64])]);
        assert_eq!(out[0], Delta::delete(tuple![1i64]));
    }
}
