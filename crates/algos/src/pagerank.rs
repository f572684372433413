//! Delta-oriented PageRank on the REX engine (Listing 1 / Figure 1).
//!
//! The plan mirrors the paper's Figure 1:
//!
//! ```text
//! scan(pr base) ──► fixpoint(srcId) ──feedback──► join[PRAgg] ◄── scan(graph)
//!                        ▲                            │ (destId, prDiff)
//!                        │                            ▼
//!                        └──── groupBy[RankAccum] ◄── rehash(destId)
//! ```
//!
//! The join handler `PRAgg` keeps the *mutable* PageRank bucket and the
//! *immutable* neighbor bucket per `srcId`; when a vertex's rank changes by
//! more than the threshold it sends `ΔPR/outdeg` to each out-neighbor
//! (Listing 1's `update`). `RankAccum` accumulates incoming shares per
//! destination and emits `0.15 + 0.85·acc` for changed groups only. In
//! *no-delta* mode the full rank relation is recomputed and re-propagated
//! every stratum (the paper's `no-delta` baseline).

use crate::common::per_vertex_doubles;
use crate::reference::{BASE_RANK, DAMPING};
use rex_cluster::runtime::PlanBuilder;
use rex_core::delta::{Annotation, Delta};
use rex_core::error::{Result, RexError};
use rex_core::exec::PlanGraph;
use rex_core::handlers::{AggHandler, AggState, JoinHandler, TupleSet};
use rex_core::operators::{
    AggSpec, FixpointOp, GroupByOp, HashJoinOp, ScanOp, SinkOp, Termination,
};
use rex_core::tuple::Tuple;
use rex_core::value::{DataType, Value};
use rex_data::graph::Graph;
use std::sync::Arc;

/// Configuration shared by the PageRank plan variants.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Propagation threshold: diffs with `|ΔPR| ≤ threshold` are absorbed
    /// into the bucket without propagating (Listing 1 uses `0.01`).
    pub threshold: f64,
    /// Iteration count for the fixed-iteration variants (no-delta / wrap);
    /// also the safety cap for the delta variant.
    pub max_iterations: u64,
}

impl Default for PageRankConfig {
    fn default() -> PageRankConfig {
        PageRankConfig { threshold: 0.01, max_iterations: 60 }
    }
}

/// The paper's `PRAgg` join handler (Listing 1). Left bucket: the PageRank
/// state `(srcId, pr)`; right bucket: graph edges `(srcId, destId)`.
pub struct PrAgg {
    /// Propagation threshold; `0.0` propagates every change.
    pub threshold: f64,
    /// Delta mode sends `ΔPR/outdeg`; no-delta mode re-sends the full
    /// `PR/outdeg` share every time (and never suppresses).
    pub delta_mode: bool,
}

impl PrAgg {
    /// Delta-mode handler with the given threshold.
    pub fn delta(threshold: f64) -> PrAgg {
        PrAgg { threshold, delta_mode: true }
    }

    /// No-delta handler: full recomputation each stratum.
    pub fn no_delta() -> PrAgg {
        PrAgg { threshold: 0.0, delta_mode: false }
    }
}

impl JoinHandler for PrAgg {
    fn name(&self) -> &str {
        if self.delta_mode {
            "PRAgg"
        } else {
            "PRAgg-noΔ"
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
            // Graph edges accumulate into the immutable neighbor bucket.
            right.insert(d.tuple.clone());
            return Ok(Vec::new());
        }
        let src = d.tuple.try_get(0)?.clone();
        let new_pr = match &d.ann {
            Annotation::Delete => 0.0,
            _ => d
                .tuple
                .get(1)
                .as_double()
                .ok_or_else(|| RexError::Exec("PRAgg expects (srcId, pr:Double)".into()))?,
        };
        let old_pr = left.get_by_key(0, &src).and_then(|t| t.get(1).as_double()).unwrap_or(0.0);
        let first_arrival = left.get_by_key(0, &src).is_none();
        // Listing 1: `prBucket.put(nbrId, pr)` happens unconditionally —
        // sub-threshold residue is absorbed, not banked.
        if matches!(d.ann, Annotation::Delete) {
            let old = left.get_by_key(0, &src).cloned();
            if let Some(old) = old {
                left.remove(&old);
            }
        } else {
            left.put_by_key(0, d.tuple.clone());
        }
        let delta_pr = new_pr - old_pr;
        let mut out = Vec::new();
        if first_arrival {
            // Seed the destination group so vertices without in-edges still
            // converge to the base rank 0.15.
            out.push(Delta::insert(Tuple::from_slice(&[src.clone(), Value::Double(0.0)])));
        }
        let out_deg = right.len();
        if out_deg == 0 {
            return Ok(out);
        }
        if self.delta_mode {
            if delta_pr.abs() > self.threshold {
                let share = delta_pr / out_deg as f64;
                for e in right.iter() {
                    out.push(Delta::insert(Tuple::from_slice(&[
                        e.get(1).clone(),
                        Value::Double(share),
                    ])));
                }
            }
        } else {
            // Full share of the current rank, every stratum.
            let share = new_pr / out_deg as f64;
            for e in right.iter() {
                out.push(Delta::insert(Tuple::from_slice(&[
                    e.get(1).clone(),
                    Value::Double(share),
                ])));
            }
        }
        Ok(out)
    }
}

/// Accumulating rank aggregate: state is the running sum of received
/// shares; the group result is `0.15 + 0.85 · acc`.
pub struct RankAccum;

impl AggHandler for RankAccum {
    fn name(&self) -> &str {
        "RankAccum"
    }

    fn init(&self) -> AggState {
        AggState::Double(0.0)
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>> {
        let share = d
            .tuple
            .get(1)
            .as_double()
            .ok_or_else(|| RexError::Exec("RankAccum expects (dest, share:Double)".into()))?;
        let AggState::Double(acc) = state else {
            return Err(RexError::Exec("RankAccum state must be Double".into()));
        };
        match &d.ann {
            Annotation::Delete => *acc -= share,
            _ => *acc += share,
        }
        Ok(Vec::new())
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        let AggState::Double(acc) = state else {
            return Err(RexError::Exec("RankAccum state must be Double".into()));
        };
        Ok(vec![Delta::insert(Tuple::new(vec![Value::Double(BASE_RANK + DAMPING * acc)]))])
    }

    fn return_type(&self) -> DataType {
        DataType::Double
    }

    fn composable(&self) -> bool {
        true // sums of shares can be partially pre-aggregated
    }
}

/// Which evaluation strategy a plan uses (the paper's REX configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// `REX Δ`: propagate only significant diffs, implicit termination.
    Delta,
    /// `REX no-Δ`: re-derive the full mutable set each stratum, fixed
    /// iteration count.
    NoDelta,
}

/// Wire the Figure 1 plan into `g`, reading base ranks and edges from the
/// given tuple sets. Returns the sink node.
fn wire(
    g: &mut PlanGraph,
    base: Vec<Tuple>,
    edges: Vec<Tuple>,
    cfg: PageRankConfig,
    strategy: Strategy,
) {
    let scan_base = g.add(Box::new(ScanOp::new("pr_base", base)));
    let scan_graph = g.add(Box::new(ScanOp::new("graph", edges)));
    let fp = match strategy {
        Strategy::Delta => g.add(Box::new(FixpointOp::new(
            vec![0],
            Termination::FixpointOrMax(cfg.max_iterations),
        ))),
        Strategy::NoDelta => g.add(Box::new(
            FixpointOp::new(vec![0], Termination::ExactStrata(cfg.max_iterations)).no_delta(),
        )),
    };
    let handler: Arc<dyn JoinHandler> = match strategy {
        Strategy::Delta => Arc::new(PrAgg::delta(cfg.threshold)),
        Strategy::NoDelta => Arc::new(PrAgg::no_delta()),
    };
    let join = g.add(Box::new(HashJoinOp::new(vec![0], vec![0]).with_handler(handler)));
    let rehash = g.add_rehash(vec![0]);
    let gb = match strategy {
        Strategy::Delta => {
            GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(RankAccum), vec![0, 1])])
        }
        Strategy::NoDelta => {
            GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(RankAccum), vec![0, 1])])
                .without_retention()
        }
    };
    let gb = g.add(Box::new(gb));
    let sink = g.add(Box::new(SinkOp::new()));

    g.connect(scan_base, 0, fp, 0); // base case
    g.connect(scan_graph, 0, join, 1); // immutable edges
    g.connect(fp, 0, join, 0); // feedback: PR deltas
    g.pipe(join, rehash); // (destId, share)
    g.connect(rehash, 0, gb, 0);
    g.connect(gb, 0, fp, 1); // recursive results
    g.connect(fp, 1, sink, 0); // final ranks
}

/// Base-case tuples `(srcId, 1.0)` for the distinct sources in `edges`.
fn base_tuples(edges: &[Tuple]) -> Vec<Tuple> {
    let mut srcs: Vec<i64> = edges.iter().filter_map(|t| t.get(0).as_int()).collect();
    srcs.sort_unstable();
    srcs.dedup();
    srcs.into_iter().map(|s| Tuple::new(vec![Value::Int(s), Value::Double(1.0)])).collect()
}

/// Single-node plan over an in-memory graph.
pub fn plan_local(graph: &Graph, cfg: PageRankConfig, strategy: Strategy) -> PlanGraph {
    let edges = graph.edge_tuples();
    let base = base_tuples(&edges);
    let mut g = PlanGraph::new();
    wire(&mut g, base, edges, cfg, strategy);
    g
}

/// Cluster plan builder: every worker scans its partition of the `graph`
/// table (partitioned by `srcId`) and derives its local base case.
pub fn plan_builder(cfg: PageRankConfig, strategy: Strategy) -> PlanBuilder {
    Arc::new(move |worker, snap, catalog| {
        let table = catalog.get("graph")?;
        let edges = table.partition_for(snap, worker);
        let base = base_tuples(&edges);
        let mut g = PlanGraph::new();
        wire(&mut g, base, edges, cfg, strategy);
        Ok(g)
    })
}

/// Extract final per-vertex ranks from query results. Vertices absent from
/// the result (isolated) default to the base rank.
pub fn ranks_from_results(results: &[Tuple], n_vertices: usize) -> Vec<f64> {
    per_vertex_doubles(results, n_vertices, BASE_RANK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::max_abs_diff;
    use crate::reference;
    use rex_cluster::runtime::{ClusterConfig, ClusterRuntime};
    use rex_core::exec::LocalRuntime;
    use rex_data::graph::{generate_graph, GraphSpec};
    use rex_storage::catalog::Catalog;
    use rex_storage::table::StoredTable;

    fn small_graph() -> Graph {
        generate_graph(GraphSpec {
            n_vertices: 60,
            edges_per_vertex: 3,
            seed: 1,
            random_edge_fraction: 0.1,
            locality_window: 0,
        })
    }

    fn graph_catalog(g: &Graph) -> Catalog {
        let cat = Catalog::new();
        let mut t = StoredTable::new("graph", Graph::schema(), vec![0]);
        t.load(g.edge_tuples()).unwrap();
        cat.register(t);
        cat
    }

    #[test]
    fn no_delta_matches_reference_exactly() {
        let g = small_graph();
        let cfg = PageRankConfig { threshold: 0.0, max_iterations: 10 };
        let plan = plan_local(&g, cfg, Strategy::NoDelta);
        let (results, report) = LocalRuntime::new().run(plan).unwrap();
        let got = ranks_from_results(&results, g.n_vertices);
        let want = reference::pagerank(&g, 10);
        assert!(max_abs_diff(&got, &want) < 1e-9, "diff {}", max_abs_diff(&got, &want));
        assert_eq!(report.iterations(), 10);
    }

    #[test]
    fn delta_with_tiny_threshold_matches_converged_reference() {
        let g = small_graph();
        let cfg = PageRankConfig { threshold: 1e-9, max_iterations: 300 };
        let plan = plan_local(&g, cfg, Strategy::Delta);
        let (results, _) = LocalRuntime::new().run(plan).unwrap();
        let got = ranks_from_results(&results, g.n_vertices);
        let (want, _) = reference::pagerank_converged(&g, 1e-10, 500);
        assert!(max_abs_diff(&got, &want) < 1e-6, "diff {}", max_abs_diff(&got, &want));
    }

    #[test]
    fn delta_with_paper_threshold_is_close_and_faster() {
        let g = small_graph();
        let tight = plan_local(
            &g,
            PageRankConfig { threshold: 1e-9, max_iterations: 300 },
            Strategy::Delta,
        );
        let loose = plan_local(
            &g,
            PageRankConfig { threshold: 0.01, max_iterations: 300 },
            Strategy::Delta,
        );
        let rt = LocalRuntime::new();
        let (exact_res, exact_rep) = rt.run(tight).unwrap();
        let (approx_res, approx_rep) = rt.run(loose).unwrap();
        let exact = ranks_from_results(&exact_res, g.n_vertices);
        let approx = ranks_from_results(&approx_res, g.n_vertices);
        // The 1%-threshold run converges sooner, at bounded accuracy cost.
        assert!(approx_rep.iterations() < exact_rep.iterations());
        assert!(max_abs_diff(&exact, &approx) < 0.15, "diff {}", max_abs_diff(&exact, &approx));
    }

    #[test]
    fn delta_set_shrinks_as_ranks_converge() {
        let g = small_graph();
        let plan = plan_local(
            &g,
            PageRankConfig { threshold: 0.01, max_iterations: 100 },
            Strategy::Delta,
        );
        let (_, report) = LocalRuntime::new().run(plan).unwrap();
        let sizes: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
        assert!(sizes.len() > 3, "needs several strata, got {sizes:?}");
        // Early strata touch many vertices; the final stratum none.
        assert!(sizes[0] > *sizes.last().unwrap());
        assert_eq!(*sizes.last().unwrap(), 0);
        // The tail of the Δ trace is well below the initial size (Fig. 2).
        let tail_max = sizes[sizes.len() / 2..].iter().copied().max().unwrap();
        assert!(tail_max < sizes[0], "tail {tail_max} vs head {}", sizes[0]);
    }

    #[test]
    fn cluster_delta_matches_local() {
        let g = small_graph();
        let cfg = PageRankConfig { threshold: 1e-9, max_iterations: 300 };
        let (local_res, _) = LocalRuntime::new().run(plan_local(&g, cfg, Strategy::Delta)).unwrap();
        let rt = ClusterRuntime::new(ClusterConfig::new(4), graph_catalog(&g));
        let (cluster_res, report) = rt.run(plan_builder(cfg, Strategy::Delta)).unwrap();
        let l = ranks_from_results(&local_res, g.n_vertices);
        let c = ranks_from_results(&cluster_res, g.n_vertices);
        assert!(max_abs_diff(&l, &c) < 1e-9);
        assert!(report.query.totals.bytes_sent > 0, "rehash must ship data");
    }

    #[test]
    fn delta_ships_fewer_bytes_than_no_delta() {
        let g = small_graph();
        let iters = 20;
        let cat = || graph_catalog(&g);
        let delta_rep = ClusterRuntime::new(ClusterConfig::new(4), cat())
            .run(plan_builder(
                PageRankConfig { threshold: 0.01, max_iterations: iters },
                Strategy::Delta,
            ))
            .unwrap()
            .1;
        let nodelta_rep = ClusterRuntime::new(ClusterConfig::new(4), cat())
            .run(plan_builder(
                PageRankConfig { threshold: 0.0, max_iterations: iters },
                Strategy::NoDelta,
            ))
            .unwrap()
            .1;
        assert!(
            delta_rep.query.totals.bytes_sent < nodelta_rep.query.totals.bytes_sent,
            "delta {} !< no-delta {}",
            delta_rep.query.totals.bytes_sent,
            nodelta_rep.query.totals.bytes_sent
        );
    }

    #[test]
    fn rank_accum_handles_deletion() {
        let a = RankAccum;
        let mut st = a.init();
        a.agg_state(&mut st, &Delta::insert(Tuple::new(vec![Value::Int(1), Value::Double(0.4)])))
            .unwrap();
        a.agg_state(&mut st, &Delta::delete(Tuple::new(vec![Value::Int(1), Value::Double(0.1)])))
            .unwrap();
        let out = a.agg_result(&st).unwrap();
        let got = out[0].tuple.get(0).as_double().unwrap();
        assert!((got - (0.15 + 0.85 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn pr_agg_suppresses_small_diffs() {
        let h = PrAgg::delta(0.01);
        let mut left = TupleSet::new();
        let mut right = TupleSet::new();
        // One edge 7 -> 9.
        h.update(
            &mut left,
            &mut right,
            &Delta::insert(Tuple::new(vec![Value::Int(7), Value::Int(9)])),
            false,
        )
        .unwrap();
        // First rank arrival: guard + share.
        let out = h
            .update(
                &mut left,
                &mut right,
                &Delta::insert(Tuple::new(vec![Value::Int(7), Value::Double(1.0)])),
                true,
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        // Tiny change: absorbed, nothing propagates.
        let out = h
            .update(
                &mut left,
                &mut right,
                &Delta::insert(Tuple::new(vec![Value::Int(7), Value::Double(1.005)])),
                true,
            )
            .unwrap();
        assert!(out.is_empty());
        // Large change propagates the diff (vs the absorbed 1.005).
        let out = h
            .update(
                &mut left,
                &mut right,
                &Delta::insert(Tuple::new(vec![Value::Int(7), Value::Double(1.5)])),
                true,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        let share = out[0].tuple.get(1).as_double().unwrap();
        assert!((share - 0.495).abs() < 1e-12);
    }
}
