//! Running RQL logical plans on the cluster.
//!
//! Historically every distributed caller hand-wrote a [`PlanBuilder`]
//! closure wiring operators per worker. This module replaces that idiom
//! for language-level queries: [`logical_plan_builder`] turns one
//! optimizer-produced [`LogicalPlan`] into a `PlanBuilder` that lowers the
//! plan *per worker* against that worker's [`PartitionProvider`] view of
//! the catalog — exactly the paper's model, where "each worker node
//! executes in parallel the query plan specified by the optimizer" (§4)
//! over its local partition, with rehash boundaries inserted by
//! distributed lowering wherever the data's partitioning and the plan's
//! key requirements diverge.

use crate::report::ClusterReport;
use crate::runtime::{ClusterRuntime, PlanBuilder};
use rex_core::error::RexError;
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_rql::lower::{lower_with, LowerOptions};
use rex_rql::provider::{PartitionMemo, PartitionProvider};
use rex_rql::RqlError;
use std::fmt;
use std::sync::Arc;

/// A cluster-layer error: what failed while distributing or running a
/// query across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterError {
    /// The underlying engine error.
    pub source: RexError,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster execution failed: {}", self.source)
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<RexError> for ClusterError {
    fn from(source: RexError) -> ClusterError {
        ClusterError { source }
    }
}

/// Cluster errors flow into the engine's unified error type, tagging
/// message-bearing variants so a distributed failure stays
/// distinguishable from a single-node one; structural variants
/// (`NodeFailed`, `Parse`) pass through untouched.
impl From<ClusterError> for RexError {
    fn from(e: ClusterError) -> RexError {
        match e.source {
            RexError::Exec(m) => RexError::Exec(format!("cluster: {m}")),
            RexError::Network(m) => RexError::Network(format!("cluster: {m}")),
            other => other,
        }
    }
}

/// Build a [`PlanBuilder`] that lowers `plan` for each worker against its
/// partition of the stored tables. The builder captures the plan and
/// registry; lowering runs under [`LowerOptions::cluster`] so network
/// boundaries land where partitioning requires them.
pub fn logical_plan_builder(plan: &LogicalPlan, reg: &Registry) -> PlanBuilder {
    let plan = Arc::new(plan.clone());
    let reg = reg.clone();
    // One partitioning pass per table for the whole query: the memo is
    // shared by every worker's provider (and survives recovery attempts,
    // which re-key it under the shrunken snapshot).
    let memo = PartitionMemo::new();
    Arc::new(move |worker, snapshot, catalog| {
        let provider = PartitionProvider::new(catalog.clone(), snapshot.clone(), worker)
            .with_memo(memo.clone());
        lower_with(&plan, &provider, &reg, LowerOptions::cluster())
            .map_err(|e| RqlError::at(rex_rql::RqlStage::Lower, e).into())
    })
}

impl ClusterRuntime {
    /// Execute an optimizer-produced logical plan across the cluster:
    /// lower it per worker (partition-scoped scans, network boundaries on
    /// mispartitioned edges) and run to completion.
    pub fn run_logical(
        &self,
        plan: &LogicalPlan,
        reg: &Registry,
    ) -> std::result::Result<(Vec<Tuple>, ClusterReport), ClusterError> {
        Ok(self.run(logical_plan_builder(plan, reg))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ClusterConfig;
    use rex_core::exec::LocalRuntime;
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_rql::lower::{lower, MemTables};
    use rex_rql::SchemaCatalog;
    use rex_storage::catalog::Catalog;
    use rex_storage::table::StoredTable;

    /// Shared fixture: edges of a path 0→1→…→n-1 plus shortcuts, stored
    /// partitioned on src, with the matching schema catalog.
    fn fixture(n: i64) -> (Catalog, SchemaCatalog, MemTables) {
        let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
        let mut table = StoredTable::new("edges", schema.clone(), vec![0]);
        let mut mem = MemTables::new();
        let mut rows = Vec::new();
        for i in 0..n - 1 {
            rows.push(tuple![i, i + 1]);
        }
        rows.push(tuple![0i64, n / 2]);
        for r in &rows {
            table.insert(r.clone()).unwrap();
        }
        mem.insert("edges", rows);
        let cat = Catalog::new();
        cat.register(table);
        let mut sc = SchemaCatalog::new();
        sc.register("edges", schema);
        let mut seed = StoredTable::new("seed", Schema::of(&[("id", DataType::Int)]), vec![0]);
        seed.insert(tuple![0i64]).unwrap();
        cat.register(seed);
        sc.register("seed", Schema::of(&[("id", DataType::Int)]));
        mem.insert("seed", vec![tuple![0i64]]);
        (cat, sc, mem)
    }

    fn run_both(src: &str, workers: usize) -> (Vec<Tuple>, Vec<Tuple>) {
        let (cat, sc, mem) = fixture(24);
        let reg = Registry::with_builtins();
        let plan = rex_rql::plan_rql(src, &sc, &reg).unwrap();
        let local = lower(&plan, &mem, &reg).unwrap();
        let (mut local_rows, _) = LocalRuntime::new().run(local).unwrap();
        local_rows.sort();
        let rt = ClusterRuntime::new(ClusterConfig::new(workers), cat);
        let (cluster_rows, _) = rt.run_logical(&plan, &reg).unwrap();
        (local_rows, cluster_rows)
    }

    #[test]
    fn filter_agrees_with_local() {
        let (l, c) = run_both("SELECT dst FROM edges WHERE src > 9", 4);
        assert_eq!(l, c);
        assert!(!l.is_empty());
    }

    #[test]
    fn grouped_aggregate_agrees_with_local() {
        let (l, c) = run_both("SELECT src, count(*) FROM edges GROUP BY src", 3);
        assert_eq!(l, c);
    }

    #[test]
    fn global_aggregate_gathers_to_one_row() {
        let (l, c) = run_both("SELECT sum(dst), count(*) FROM edges", 4);
        assert_eq!(c.len(), 1, "global aggregate must produce exactly one row, got {c:?}");
        assert_eq!(l, c);
    }

    #[test]
    fn equi_join_agrees_with_local() {
        let (l, c) = run_both("SELECT a.src, b.dst FROM edges a, edges b WHERE a.dst = b.src", 4);
        assert_eq!(l, c);
        assert!(!l.is_empty());
    }

    #[test]
    fn recursive_reachability_agrees_with_local() {
        let src = "
            WITH reach (id) AS (
              SELECT id FROM seed
            ) UNION UNTIL FIXPOINT BY id (
              SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id
            )";
        let (l, c) = run_both(src, 4);
        assert_eq!(l, c);
        assert_eq!(l.len(), 24, "all vertices reachable from 0");
    }

    #[test]
    fn lowering_errors_carry_the_stage() {
        let cat = Catalog::new(); // no tables stored
        let mut sc = SchemaCatalog::new();
        sc.register("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]));
        let reg = Registry::with_builtins();
        let plan = rex_rql::plan_rql("SELECT src FROM edges", &sc, &reg).unwrap();
        let rt = ClusterRuntime::new(ClusterConfig::new(2), cat);
        let err = rt.run_logical(&plan, &reg).unwrap_err();
        assert!(matches!(err.source, RexError::Storage(_)), "{err}");
    }
}
