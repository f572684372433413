//! Statistics: cardinalities, selectivities, and UDF cost/selectivity
//! estimates (calibration + hints, §5.1).

use rex_core::expr::{BinOp, Expr};
use std::collections::HashMap;

/// Estimated selectivity of a resolved predicate. Without histograms, REX
/// uses the classic System-R magic numbers; programmer-supplied hints
/// override them per UDF.
pub fn predicate_selectivity(e: &Expr, stats: &Statistics) -> f64 {
    match e {
        Expr::Bin(BinOp::Eq, _, _) => 0.1,
        Expr::Bin(BinOp::Ne, _, _) => 0.9,
        Expr::Bin(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _, _) => 1.0 / 3.0,
        Expr::Bin(BinOp::And, a, b) => {
            predicate_selectivity(a, stats) * predicate_selectivity(b, stats)
        }
        Expr::Bin(BinOp::Or, a, b) => {
            let sa = predicate_selectivity(a, stats);
            let sb = predicate_selectivity(b, stats);
            (sa + sb - sa * sb).min(1.0)
        }
        Expr::Not(inner) => 1.0 - predicate_selectivity(inner, stats),
        Expr::Udf(name, _) => stats.udf(name).selectivity,
        _ => 0.5,
    }
}

/// Per-UDF cost profile, populated by calibration queries and runtime
/// monitoring, optionally shaped by programmer hints (§5.1 "Cost
/// calibration and hints").
#[derive(Debug, Clone, Copy)]
pub struct UdfProfile {
    /// Cost units per input tuple.
    pub cost_per_tuple: f64,
    /// Fraction of tuples passing (for predicates) or produced (for
    /// generators, may exceed 1).
    pub selectivity: f64,
}

impl UdfProfile {
    /// The rank of predicate-migration ordering: `cost / (1 −
    /// selectivity)` — "predicates which are inexpensive to compute, or
    /// discard the most tuples, should be applied first" \[13\].
    pub fn rank(&self) -> f64 {
        let denom = (1.0 - self.selectivity).max(1e-9);
        self.cost_per_tuple / denom
    }
}

impl Default for UdfProfile {
    fn default() -> UdfProfile {
        UdfProfile { cost_per_tuple: 5.0, selectivity: 0.5 }
    }
}

/// Catalog statistics consulted by the optimizer.
#[derive(Debug, Clone, Default)]
pub struct Statistics {
    tables: HashMap<String, u64>,
    udfs: HashMap<String, UdfProfile>,
}

impl Statistics {
    /// Empty statistics (every unknown table estimates 1000 rows).
    pub fn new() -> Statistics {
        Statistics::default()
    }

    /// Record a table's row count.
    pub fn set_table_rows(&mut self, table: impl Into<String>, rows: u64) {
        self.tables.insert(table.into(), rows);
    }

    /// A table's estimated row count.
    pub fn table_rows(&self, table: &str) -> u64 {
        self.tables.get(table).copied().unwrap_or(1000)
    }

    /// Record a UDF's calibrated profile (or a programmer hint).
    pub fn set_udf(&mut self, name: impl Into<String>, profile: UdfProfile) {
        self.udfs.insert(name.into(), profile);
    }

    /// A UDF's profile.
    pub fn udf(&self, name: &str) -> UdfProfile {
        self.udfs.get(name).copied().unwrap_or_default()
    }

    /// Estimated join output cardinality: `|L|·|R| / max(d_L, d_R)` over
    /// the join key, the textbook containment estimate; cross joins
    /// multiply.
    pub fn join_cardinality(
        &self,
        left_rows: u64,
        right_rows: u64,
        left_distinct: u64,
        right_distinct: u64,
        has_key: bool,
    ) -> u64 {
        if !has_key {
            return left_rows.saturating_mul(right_rows);
        }
        let d = left_distinct.max(right_distinct).max(1);
        ((left_rows as f64) * (right_rows as f64) / d as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_magic_selectivities() {
        let s = Statistics::new();
        let eq = Expr::col(0).eq(Expr::lit(1i64));
        assert_eq!(predicate_selectivity(&eq, &s), 0.1);
        let gt = Expr::col(0).gt(Expr::lit(1i64));
        assert!((predicate_selectivity(&gt, &s) - 1.0 / 3.0).abs() < 1e-12);
        let and = eq.clone().bin(BinOp::And, gt.clone());
        assert!((predicate_selectivity(&and, &s) - 0.1 / 3.0).abs() < 1e-12);
        let or = eq.bin(BinOp::Or, gt);
        assert!(predicate_selectivity(&or, &s) < 0.44);
    }

    #[test]
    fn udf_selectivity_comes_from_profile() {
        let mut s = Statistics::new();
        s.set_udf("cheap", UdfProfile { cost_per_tuple: 1.0, selectivity: 0.2 });
        let e = Expr::Udf("cheap".into(), vec![]);
        assert_eq!(predicate_selectivity(&e, &s), 0.2);
    }

    #[test]
    fn rank_orders_cheap_selective_first() {
        // Hellerstein–Stonebraker: apply low rank first.
        let cheap_selective = UdfProfile { cost_per_tuple: 1.0, selectivity: 0.1 };
        let pricey_lax = UdfProfile { cost_per_tuple: 50.0, selectivity: 0.9 };
        assert!(cheap_selective.rank() < pricey_lax.rank());
    }

    #[test]
    fn join_cardinality_containment() {
        let s = Statistics::new();
        assert_eq!(s.join_cardinality(100, 200, 10, 20, true), 1000);
        assert_eq!(s.join_cardinality(100, 200, 10, 20, false), 20000);
    }

    #[test]
    fn unknown_table_defaults() {
        let s = Statistics::new();
        assert_eq!(s.table_rows("mystery"), 1000);
    }
}
