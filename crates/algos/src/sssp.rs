//! Delta-oriented single-source shortest path (Listing 2).
//!
//! Plan shape matches PageRank's Figure 1 topology; the join handler is the
//! paper's `SPAgg`: when a vertex's minimum distance improves, it offers
//! `dist + 1` to each out-neighbor. The group-by computes the minimum offer
//! per destination, and a `MinDist` while-handler on the fixpoint keeps the
//! mutable set monotone (a distance can only decrease). With implicit
//! fixpoint termination, iteration `i`'s Δᵢ set is exactly the frontier —
//! vertices whose distance improved — so late iterations over a
//! long-diameter graph are nearly free (§6.3 "Improved Accuracy").

use crate::common::per_vertex_doubles;
use rex_cluster::runtime::PlanBuilder;
use rex_core::aggregates::MinAgg;
use rex_core::delta::{Annotation, Delta};
use rex_core::error::{Result, RexError};
use rex_core::exec::PlanGraph;
use rex_core::handlers::{JoinHandler, TupleSet, WhileHandler};
use rex_core::operators::{
    AggSpec, FixpointOp, GroupByOp, HashJoinOp, ScanOp, SinkOp, Termination,
};
use rex_core::tuple::Tuple;
use rex_core::value::Value;
use rex_data::graph::Graph;
use std::sync::Arc;

pub use crate::pagerank::Strategy;

/// Configuration for the shortest-path plans.
#[derive(Debug, Clone, Copy)]
pub struct SsspConfig {
    /// The source vertex (the paper's `startNode`).
    pub source: u32,
    /// Iteration count for the fixed-iteration variants; safety cap for
    /// the delta variant.
    pub max_iterations: u64,
}

impl SsspConfig {
    /// Source 0, generous cap.
    pub fn from_source(source: u32) -> SsspConfig {
        SsspConfig { source, max_iterations: 200 }
    }
}

/// The paper's `SPAgg` join handler (Listing 2). Left bucket: best-known
/// distances `(nodeId, dist)`; right bucket: edges `(srcId, destId)`.
pub struct SpAgg {
    /// Delta mode offers `dist+1` only on improvement; no-delta mode offers
    /// on every (re-)arrival.
    pub delta_mode: bool,
}

impl JoinHandler for SpAgg {
    fn name(&self) -> &str {
        if self.delta_mode {
            "SPAgg"
        } else {
            "SPAgg-noΔ"
        }
    }

    fn update(
        &self,
        left: &mut TupleSet,
        right: &mut TupleSet,
        d: &Delta,
        from_left: bool,
    ) -> Result<Vec<Delta>> {
        if !from_left {
            right.insert(d.tuple.clone());
            return Ok(Vec::new());
        }
        if matches!(d.ann, Annotation::Delete) {
            return Ok(Vec::new()); // distances never retract
        }
        let dist = d
            .tuple
            .get(1)
            .as_double()
            .ok_or_else(|| RexError::Exec("SPAgg expects (nodeId, dist:Double)".into()))?;
        let node = d.tuple.try_get(0)?.clone();
        let current =
            left.get_by_key(0, &node).and_then(|t| t.get(1).as_double()).unwrap_or(f64::INFINITY);
        let improved = dist < current;
        if improved {
            left.put_by_key(0, d.tuple.clone());
        }
        if !improved && self.delta_mode {
            return Ok(Vec::new());
        }
        let best = if improved { dist } else { current };
        let mut out = Vec::with_capacity(right.len() + 1);
        // Self-offer: keeps the node's own distance in its min-group, so a
        // later (worse) cycle offer can never displace it. Needed when the
        // fixpoint runs without a monotone while-handler (the pure-RQL
        // Listing 2 lowering).
        out.push(Delta::insert(Tuple::from_slice(&[node.clone(), Value::Double(best)])));
        for e in right.iter() {
            out.push(Delta::insert(Tuple::from_slice(&[
                e.get(1).clone(),
                Value::Double(best + 1.0),
            ])));
        }
        Ok(out)
    }
}

/// While-handler keeping the fixpoint's distances monotone: a delta only
/// refines state (and propagates) when it improves the current minimum.
pub struct MinDist;

impl WhileHandler for MinDist {
    fn name(&self) -> &str {
        "MinDist"
    }

    fn update(&self, rel: &mut TupleSet, d: &Delta) -> Result<Vec<Delta>> {
        if matches!(d.ann, Annotation::Delete) {
            return Ok(Vec::new());
        }
        let new = d.tuple.get(1).as_double().unwrap_or(f64::INFINITY);
        let current = rel.iter().next().and_then(|t| t.get(1).as_double()).unwrap_or(f64::INFINITY);
        if new < current {
            rel.clear();
            rel.insert(d.tuple.clone());
            Ok(vec![Delta::insert(d.tuple.clone())])
        } else {
            Ok(Vec::new())
        }
    }
}

fn wire(
    g: &mut PlanGraph,
    base: Vec<Tuple>,
    edges: Vec<Tuple>,
    cfg: SsspConfig,
    strategy: Strategy,
) {
    let scan_base = g.add(Box::new(ScanOp::new("sp_base", base)));
    let scan_graph = g.add(Box::new(ScanOp::new("graph", edges)));
    let fp = match strategy {
        Strategy::Delta => FixpointOp::new(vec![0], Termination::FixpointOrMax(cfg.max_iterations))
            .with_handler(Arc::new(MinDist)),
        Strategy::NoDelta => FixpointOp::new(vec![0], Termination::ExactStrata(cfg.max_iterations))
            .with_handler(Arc::new(MinDist))
            .no_delta(),
    };
    let fp = g.add(Box::new(fp));
    let join = g.add(Box::new(
        HashJoinOp::new(vec![0], vec![0])
            .with_handler(Arc::new(SpAgg { delta_mode: strategy == Strategy::Delta })),
    ));
    let rehash = g.add_rehash(vec![0]);
    let gb = match strategy {
        Strategy::Delta => GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(MinAgg), vec![1])]),
        Strategy::NoDelta => GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(MinAgg), vec![1])])
            .without_retention(),
    };
    let gb = g.add(Box::new(gb));
    let sink = g.add(Box::new(SinkOp::new()));

    g.connect(scan_base, 0, fp, 0);
    g.connect(scan_graph, 0, join, 1);
    g.connect(fp, 0, join, 0);
    g.pipe(join, rehash);
    g.connect(rehash, 0, gb, 0);
    g.connect(gb, 0, fp, 1);
    g.connect(fp, 1, sink, 0);
}

/// Single-node plan over an in-memory graph.
pub fn plan_local(graph: &Graph, cfg: SsspConfig, strategy: Strategy) -> PlanGraph {
    let mut g = PlanGraph::new();
    let base = vec![Tuple::new(vec![Value::Int(cfg.source as i64), Value::Double(0.0)])];
    wire(&mut g, base, graph.edge_tuples(), cfg, strategy);
    g
}

/// Cluster plan builder: the worker owning the source vertex seeds the base
/// case; everyone scans their `graph` partition.
pub fn plan_builder(cfg: SsspConfig, strategy: Strategy) -> PlanBuilder {
    Arc::new(move |worker, snap, catalog| {
        let table = catalog.get("graph")?;
        let edges = table.partition_for(snap, worker);
        let src_key = vec![Value::Int(cfg.source as i64)];
        let base = if snap.owner_of_key(&src_key) == worker {
            vec![Tuple::new(vec![Value::Int(cfg.source as i64), Value::Double(0.0)])]
        } else {
            Vec::new()
        };
        let mut g = PlanGraph::new();
        wire(&mut g, base, edges, cfg, strategy);
        Ok(g)
    })
}

/// Extract per-vertex distances from query results; unreachable vertices
/// get `f64::INFINITY`.
pub fn dists_from_results(results: &[Tuple], n_vertices: usize) -> Vec<f64> {
    per_vertex_doubles(results, n_vertices, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rex_cluster::runtime::{ClusterConfig, ClusterRuntime};
    use rex_core::exec::LocalRuntime;
    use rex_data::graph::{generate_graph, GraphSpec};
    use rex_storage::catalog::Catalog;
    use rex_storage::table::StoredTable;

    fn small_graph() -> Graph {
        generate_graph(GraphSpec {
            n_vertices: 80,
            edges_per_vertex: 2,
            seed: 3,
            random_edge_fraction: 0.05,
            locality_window: 0,
        })
    }

    fn assert_matches_reference(graph: &Graph, got: &[f64], source: u32) {
        let want = reference::shortest_paths(graph, source);
        for v in 0..graph.n_vertices {
            let w = if want[v] == u32::MAX { f64::INFINITY } else { want[v] as f64 };
            assert_eq!(got[v], w, "vertex {v}");
        }
    }

    #[test]
    fn delta_matches_bfs_reference() {
        let g = small_graph();
        let cfg = SsspConfig::from_source(0);
        let (results, report) =
            LocalRuntime::new().run(plan_local(&g, cfg, Strategy::Delta)).unwrap();
        assert_matches_reference(&g, &dists_from_results(&results, g.n_vertices), 0);
        // Implicit termination: final stratum produced nothing.
        assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn no_delta_matches_bfs_reference() {
        let g = small_graph();
        // Enough iterations to cover the graph's BFS depth.
        let cfg = SsspConfig { source: 0, max_iterations: 90 };
        let (results, report) =
            LocalRuntime::new().run(plan_local(&g, cfg, Strategy::NoDelta)).unwrap();
        assert_matches_reference(&g, &dists_from_results(&results, g.n_vertices), 0);
        assert_eq!(report.iterations(), 90);
    }

    #[test]
    fn delta_set_is_the_frontier() {
        let g = small_graph();
        let cfg = SsspConfig::from_source(0);
        let (_, report) = LocalRuntime::new().run(plan_local(&g, cfg, Strategy::Delta)).unwrap();
        let sizes: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
        // Frontier sizes sum to the reachable-set size minus the source
        // (whose seed enters with the base case, before the first stratum
        // vote): each vertex joins the frontier exactly once — monotone
        // distances, unit weights.
        let reachable =
            reference::shortest_paths(&g, 0).iter().filter(|&&d| d != u32::MAX).count() as u64;
        assert_eq!(sizes.iter().sum::<u64>(), reachable - 1);
    }

    #[test]
    fn late_iterations_are_nearly_free_for_delta() {
        let g = small_graph();
        let cfg = SsspConfig::from_source(0);
        let (_, report) = LocalRuntime::new().run(plan_local(&g, cfg, Strategy::Delta)).unwrap();
        let times: Vec<f64> = report.strata.iter().map(|s| s.simulated_time).collect();
        assert!(times.len() >= 4, "graph too shallow: {} strata", times.len());
        // The last stratum (empty frontier) costs a tiny fraction of the
        // peak stratum.
        let peak = times.iter().copied().fold(0.0, f64::max);
        assert!(*times.last().unwrap() < peak * 0.25);
    }

    #[test]
    fn cluster_matches_local() {
        let g = small_graph();
        let cfg = SsspConfig::from_source(0);
        let cat = Catalog::new();
        let mut t = StoredTable::new("graph", Graph::schema(), vec![0]);
        t.load(g.edge_tuples()).unwrap();
        cat.register(t);
        let rt = ClusterRuntime::new(ClusterConfig::new(4), cat);
        let (results, _) = rt.run(plan_builder(cfg, Strategy::Delta)).unwrap();
        assert_matches_reference(&g, &dists_from_results(&results, g.n_vertices), 0);
    }

    #[test]
    fn sp_agg_offers_only_on_improvement() {
        let h = SpAgg { delta_mode: true };
        let mut left = TupleSet::new();
        let mut right = TupleSet::new();
        h.update(
            &mut left,
            &mut right,
            &Delta::insert(Tuple::new(vec![Value::Int(1), Value::Int(2)])),
            false,
        )
        .unwrap();
        let offer = |h: &SpAgg, l: &mut TupleSet, r: &mut TupleSet, dist: f64| {
            h.update(
                l,
                r,
                &Delta::insert(Tuple::new(vec![Value::Int(1), Value::Double(dist)])),
                true,
            )
            .unwrap()
        };
        let out = offer(&h, &mut left, &mut right, 4.0);
        // Self-offer plus one neighbor offer.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.get(1).as_double(), Some(4.0));
        assert_eq!(out[1].tuple.get(1).as_double(), Some(5.0));
        // Worse distance: silence.
        assert!(offer(&h, &mut left, &mut right, 9.0).is_empty());
        // Better: propagates.
        let out = offer(&h, &mut left, &mut right, 2.0);
        assert_eq!(out[1].tuple.get(1).as_double(), Some(3.0));
    }

    #[test]
    fn min_dist_handler_is_monotone() {
        let h = MinDist;
        let mut rel = TupleSet::new();
        let d5 = Delta::insert(Tuple::new(vec![Value::Int(1), Value::Double(5.0)]));
        assert_eq!(h.update(&mut rel, &d5).unwrap().len(), 1);
        let d9 = Delta::insert(Tuple::new(vec![Value::Int(1), Value::Double(9.0)]));
        assert!(h.update(&mut rel, &d9).unwrap().is_empty());
        assert_eq!(rel.tuples()[0].get(1).as_double(), Some(5.0));
        let d2 = Delta::insert(Tuple::new(vec![Value::Int(1), Value::Double(2.0)]));
        assert_eq!(h.update(&mut rel, &d2).unwrap().len(), 1);
        assert_eq!(rel.tuples()[0].get(1).as_double(), Some(2.0));
    }
}
