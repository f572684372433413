//! # rex-optimizer
//!
//! The REX cost-based optimizer (§5): a resource-vector cost model with
//! CPU/disk/network overlap and worst-case node calibration ([`cost`]),
//! rank-based ordering of expensive UDF predicates and filter pushdown
//! below joins ([`rules`]), and recursive-query costing by capped
//! simulated iteration ([`plan_cost`]). Joins keep the order the query
//! wrote them in: the planner already keys every join of an n-way FROM
//! left-deep, and §5's join enumeration has no workload to pay for it.
//! §5.2's pre-aggregation is not a rewrite here: the partial/final pair
//! of a composable aggregate is `rex_core::aggregates::agg_split`, which
//! distributed lowering combines with before every exchange.
//!
//! The [`Optimizer`] facade takes an RQL [`LogicalPlan`], applies the
//! semantics-preserving rewrites, and returns the rewritten plan with its
//! estimated [`PlanCost`]. Queries and materialized views both run the
//! rewritten plan.

pub mod cost;
pub mod error;
pub mod plan_cost;
pub mod rules;
pub mod stats;

pub use cost::{Calibration, ResourceVector, UnitCosts};
pub use error::OptimizeError;
pub use plan_cost::{Coster, PlanCost};
pub use stats::{Statistics, UdfProfile};

use rex_rql::logical::LogicalPlan;

/// Result alias for optimizer operations.
pub type Result<T> = std::result::Result<T, OptimizeError>;

/// The optimizer facade. `Clone` so a point-in-time copy (statistics
/// frozen at snapshot-publish time) can ride inside an immutable
/// database snapshot and cost plans concurrently with the live session.
#[derive(Clone)]
pub struct Optimizer {
    /// Catalog statistics (row counts, UDF profiles, hints).
    pub stats: Statistics,
    /// Per-node hardware calibration.
    pub calib: Calibration,
    /// Unit resource costs.
    pub units: UnitCosts,
}

impl Optimizer {
    /// An optimizer for a homogeneous `n`-node cluster with empty stats.
    pub fn new(n_nodes: usize) -> Optimizer {
        Optimizer {
            stats: Statistics::new(),
            calib: Calibration::uniform(n_nodes),
            units: UnitCosts::default(),
        }
    }

    /// Optimize a logical plan: apply the rewrite rules — HAVING pushdown
    /// below aggregates, redundant-DISTINCT elimination, LIMIT-into-Sort
    /// top-k fusion, filter pushdown below joins, rank-ordered filters —
    /// then cost the result. Returns the rewritten plan and its estimate.
    ///
    /// Every rule rewrites a relation into an equal relation, so each one
    /// commutes with delta propagation too: a materialized view maintains
    /// the rewritten plan and stays exact, with no rule switched off.
    pub fn optimize(&self, plan: LogicalPlan) -> Result<(LogicalPlan, PlanCost)> {
        let rewritten = rules::push_having_below_aggregate(plan);
        let rewritten = rules::eliminate_redundant_distinct(rewritten);
        let rewritten = rules::fuse_limit_into_sort(rewritten);
        let rewritten = rules::push_filters_below_joins(rewritten);
        let rewritten = rules::order_filters_by_rank(rewritten, &self.stats);
        let coster = Coster { stats: &self.stats, units: self.units, calib: &self.calib };
        let cost = coster.cost(&rewritten)?;
        Ok((rewritten, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple::Schema;
    use rex_core::udf::Registry;
    use rex_core::value::DataType;
    use rex_rql::logical::plan_text;
    use rex_rql::SchemaCatalog;

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register(
            "t",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Double)]),
        );
        c
    }

    #[test]
    fn optimize_returns_finite_cost_and_runnable_plan() {
        let reg = Registry::with_builtins();
        let mut opt = Optimizer::new(4);
        opt.stats.set_table_rows("t", 50_000);
        let p = plan_text("SELECT a, count(*) FROM t WHERE b > 2 GROUP BY a", &catalog(), &reg)
            .unwrap();
        let (rewritten, cost) = opt.optimize(p).unwrap();
        assert!(cost.runtime() > 0.0 && cost.runtime().is_finite());
        assert!(cost.rows > 0);
        // The rewritten plan still lowers and runs.
        use rex_core::tuple;
        use rex_rql::lower::{lower, MemTables};
        let mut m = MemTables::new();
        m.insert("t", vec![tuple![1i64, 3i64, 0.5f64], tuple![1i64, 1i64, 0.5f64]]);
        let g = lower(&rewritten, &m, &reg).unwrap();
        let (results, _) = rex_core::exec::LocalRuntime::new().run(g).unwrap();
        assert_eq!(results, vec![tuple![1i64, 1i64]]);
    }

    #[test]
    fn slower_calibration_raises_estimates() {
        let reg = Registry::with_builtins();
        let p = plan_text("SELECT a FROM t WHERE b > 2", &catalog(), &reg).unwrap();
        let fast = Optimizer::new(4);
        let mut slow = Optimizer::new(4);
        slow.calib.cpu_speed[2] = 0.25; // one straggler
        let (_, cf) = fast.optimize(p.clone()).unwrap();
        let (_, cs) = slow.optimize(p).unwrap();
        assert!(cs.runtime() > cf.runtime(), "straggler must dominate (worst-case est.)");
    }
}
