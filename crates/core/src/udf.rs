//! User-defined code: scalar UDFs, user-defined aggregators (UDAs), and the
//! registry that resolves them by name.
//!
//! REX "can directly use Java class and jar files without requiring them to
//! be registered using SQL DDL" and invokes them via reflection (§4). The
//! Rust analogue is a name-keyed registry of trait objects; the per-call
//! reflection overhead that the paper measures (Figure 4: UDFs within 10% of
//! built-ins) is modelled by a configurable dispatch cost in the
//! [`CostModel`](crate::metrics::CostModel).

use crate::error::{Result, RexError};
use crate::handlers::{AggHandler, JoinHandler};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// Programmer-supplied cost hints (§5.1): "functions describing the 'big-O'
/// relationship between the main input parameters and the resulting costs."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostHint {
    /// Estimated CPU cost per input tuple, in abstract cost units.
    pub per_tuple_cost: f64,
    /// For predicates: the fraction of tuples that pass. For table-valued
    /// functions: the output/input cardinality ratio (productivity).
    pub selectivity: f64,
}

impl CostHint {
    /// The rank of a predicate per Hellerstein & Stonebraker's predicate
    /// migration: cost / (1 - selectivity). Cheaper and more selective
    /// predicates have lower rank and should be applied first (§5.1).
    pub fn rank(&self) -> f64 {
        let drop_rate = (1.0 - self.selectivity).max(1e-9);
        self.per_tuple_cost / drop_rate
    }
}

/// A scalar user-defined function.
pub trait ScalarUdf: Send + Sync {
    /// The name the function is registered (and referenced in RQL) under.
    fn name(&self) -> &str;
    /// Input parameter types (`inTypes` in the paper's Java convention).
    fn arg_types(&self) -> Vec<DataType>;
    /// Result type (`outTypes`).
    fn return_type(&self) -> DataType;
    /// Evaluate the function.
    fn eval(&self, args: &[Value]) -> Result<Value>;
    /// Deterministic functions may be cached by the engine (§5.1
    /// "Caching"). Volatile functions must return `false`.
    fn deterministic(&self) -> bool {
        true
    }
    /// Optional programmer-supplied cost hint (§5.1).
    fn cost_hint(&self) -> Option<CostHint> {
        None
    }
}

/// The boxed evaluation closure of a [`ClosureUdf`].
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// A scalar UDF built from a closure; convenient for tests and examples.
pub struct ClosureUdf {
    name: String,
    args: Vec<DataType>,
    ret: DataType,
    deterministic: bool,
    hint: Option<CostHint>,
    f: ScalarFn,
}

impl ClosureUdf {
    /// Create a deterministic closure UDF.
    pub fn new(
        name: impl Into<String>,
        args: Vec<DataType>,
        ret: DataType,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> ClosureUdf {
        ClosureUdf { name: name.into(), args, ret, deterministic: true, hint: None, f: Arc::new(f) }
    }

    /// Mark the function volatile (uncacheable).
    pub fn volatile(mut self) -> Self {
        self.deterministic = false;
        self
    }

    /// Attach a cost hint.
    pub fn with_hint(mut self, hint: CostHint) -> Self {
        self.hint = Some(hint);
        self
    }
}

impl ScalarUdf for ClosureUdf {
    fn name(&self) -> &str {
        &self.name
    }
    fn arg_types(&self) -> Vec<DataType> {
        self.args.clone()
    }
    fn return_type(&self) -> DataType {
        self.ret
    }
    fn eval(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.args.len() {
            return Err(RexError::Udf(format!(
                "{} expects {} args, got {}",
                self.name,
                self.args.len(),
                args.len()
            )));
        }
        (self.f)(args)
    }
    fn deterministic(&self) -> bool {
        self.deterministic
    }
    fn cost_hint(&self) -> Option<CostHint> {
        self.hint
    }
}

/// The registry of user-defined code, shared across the engine.
///
/// Strong typing is enforced at plan time by the analyzer; handlers are
/// looked up by name the way REX resolves Java classes by reflection.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    scalars: HashMap<String, Arc<dyn ScalarUdf>>,
    aggs: HashMap<String, Arc<dyn AggHandler>>,
    joins: HashMap<String, Arc<dyn JoinHandler>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry pre-populated with the built-in aggregates (sum, count,
    /// min, max, avg) and standard scalar functions (abs, sqrt, ...).
    pub fn with_builtins() -> Registry {
        let reg = Registry::new();
        crate::aggregates::register_builtins(&reg);
        crate::builtins::register_scalar_builtins(&reg);
        reg
    }

    /// Register a scalar UDF. Overwrites any existing binding of that name.
    pub fn register_scalar(&self, udf: Arc<dyn ScalarUdf>) {
        let name = udf.name().to_ascii_lowercase();
        self.inner.write().unwrap().scalars.insert(name, udf);
    }

    /// Register an aggregate handler (UDA).
    pub fn register_agg(&self, name: impl Into<String>, h: Arc<dyn AggHandler>) {
        self.inner.write().unwrap().aggs.insert(name.into().to_ascii_lowercase(), h);
    }

    /// Register a join delta handler.
    pub fn register_join(&self, name: impl Into<String>, h: Arc<dyn JoinHandler>) {
        self.inner.write().unwrap().joins.insert(name.into().to_ascii_lowercase(), h);
    }

    /// Resolve a scalar UDF.
    pub fn scalar(&self, name: &str) -> Result<Arc<dyn ScalarUdf>> {
        self.inner
            .read()
            .unwrap()
            .scalars
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| RexError::Udf(format!("unknown scalar function: {name}")))
    }

    /// Resolve an aggregate handler.
    pub fn agg(&self, name: &str) -> Result<Arc<dyn AggHandler>> {
        self.inner
            .read()
            .unwrap()
            .aggs
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| RexError::Udf(format!("unknown aggregate: {name}")))
    }

    /// Resolve a join delta handler.
    pub fn join(&self, name: &str) -> Result<Arc<dyn JoinHandler>> {
        self.inner
            .read()
            .unwrap()
            .joins
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| RexError::Udf(format!("unknown join handler: {name}")))
    }

    /// Whether a scalar function of this name exists.
    pub fn has_scalar(&self, name: &str) -> bool {
        self.inner.read().unwrap().scalars.contains_key(&name.to_ascii_lowercase())
    }

    /// Whether an aggregate of this name exists.
    pub fn has_agg(&self, name: &str) -> bool {
        self.inner.read().unwrap().aggs.contains_key(&name.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_udf_checks_arity() {
        let u = ClosureUdf::new("double_it", vec![DataType::Int], DataType::Int, |a| {
            Ok(Value::Int(a[0].as_int().unwrap_or(0) * 2))
        });
        assert_eq!(u.eval(&[Value::Int(21)]).unwrap(), Value::Int(42));
        assert!(u.eval(&[]).is_err());
        assert!(u.deterministic());
    }

    #[test]
    fn registry_resolution_is_case_insensitive() {
        let reg = Registry::new();
        reg.register_scalar(Arc::new(ClosureUdf::new("MyFn", vec![], DataType::Int, |_| {
            Ok(Value::Int(7))
        })));
        assert!(reg.scalar("myfn").is_ok());
        assert!(reg.scalar("MYFN").is_ok());
        assert!(reg.scalar("other").is_err());
        assert!(reg.has_scalar("myfn"));
    }

    #[test]
    fn builtins_are_registered() {
        let reg = Registry::with_builtins();
        assert!(reg.agg("sum").is_ok());
        assert!(reg.agg("count").is_ok());
        assert!(reg.agg("min").is_ok());
        assert!(reg.agg("max").is_ok());
        assert!(reg.agg("avg").is_ok());
        assert!(reg.scalar("abs").is_ok());
        assert!(reg.scalar("sqrt").is_ok());
    }

    #[test]
    fn rank_orders_cheap_selective_first() {
        // Predicate migration: cheap + selective => low rank.
        let cheap_selective = CostHint { per_tuple_cost: 1.0, selectivity: 0.1 };
        let pricey_permissive = CostHint { per_tuple_cost: 100.0, selectivity: 0.9 };
        assert!(cheap_selective.rank() < pricey_permissive.rank());
        // selectivity 1.0 must not divide by zero
        let s1 = CostHint { per_tuple_cost: 1.0, selectivity: 1.0 };
        assert!(s1.rank().is_finite());
    }

    #[test]
    fn volatile_flag() {
        let u =
            ClosureUdf::new("r", vec![], DataType::Double, |_| Ok(Value::Double(0.5))).volatile();
        assert!(!u.deterministic());
    }
}
