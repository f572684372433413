//! Delta-oriented adsorption (label propagation) — the Figure 3 row the
//! paper classifies but does not evaluate: immutable set = graph edges,
//! mutable set = "complete adsorption vectors for all vertices", Δᵢ set =
//! "adsorption vector positions with change ≥ 1% since iteration i-1".
//!
//! We implement the standard simplified adsorption recurrence: seed
//! vertices inject a fixed label distribution; every vertex's vector is
//! `α·inject(v) + (1-α) · avg_{u→v} L(u)`. The REX plan reuses the Figure
//! 1 topology with vector-valued tuples (`Value::List`) — the
//! collection-typed attributes §2 calls out as essential and missing from
//! SQL-99 — and per-*position* delta suppression, exactly the Δᵢ
//! definition in Figure 3.

use rex_core::delta::{Annotation, Delta};
use rex_core::error::{Result, RexError};
use rex_core::exec::PlanGraph;
use rex_core::handlers::{AggHandler, AggOutputKind, AggState, JoinHandler, TupleSet};
use rex_core::operators::{
    AggSpec, FixpointOp, GroupByOp, HashJoinOp, ScanOp, SinkOp, Termination,
};
use rex_core::tuple::Tuple;
use rex_core::value::{DataType, Value};
use rex_data::graph::Graph;
use std::sync::Arc;

/// Injection weight α (how strongly seeds hold their labels).
pub const ALPHA: f64 = 0.25;

/// Configuration for adsorption runs.
#[derive(Debug, Clone)]
pub struct AdsorptionConfig {
    /// Seed assignments: `(vertex, label)` — the seed's injected
    /// distribution is the one-hot vector of its label.
    pub seeds: Vec<(u32, usize)>,
    /// Number of labels.
    pub n_labels: usize,
    /// Per-position propagation threshold (Figure 3 uses 1%).
    pub threshold: f64,
    /// Iteration cap.
    pub max_iterations: u64,
}

/// Sequential reference: run the recurrence to convergence. Returns one
/// label-distribution vector per vertex.
pub fn reference(graph: &Graph, cfg: &AdsorptionConfig) -> Vec<Vec<f64>> {
    let n = graph.n_vertices;
    let k = cfg.n_labels;
    let mut inject = vec![vec![0.0; k]; n];
    for &(v, l) in &cfg.seeds {
        inject[v as usize][l] = 1.0;
    }
    let adj = graph.adjacency();
    let in_deg = graph.in_degrees();
    let mut labels = inject.clone();
    for _ in 0..cfg.max_iterations {
        let mut incoming = vec![vec![0.0; k]; n];
        for u in 0..n {
            for &t in &adj[u] {
                for j in 0..k {
                    incoming[t as usize][j] += labels[u][j];
                }
            }
        }
        let mut max_change = 0.0f64;
        for v in 0..n {
            let deg = in_deg[v].max(1) as f64;
            for j in 0..k {
                let new = ALPHA * inject[v][j] + (1.0 - ALPHA) * incoming[v][j] / deg;
                max_change = max_change.max((new - labels[v][j]).abs());
                labels[v][j] = new;
            }
        }
        if max_change <= 1e-12 {
            break;
        }
    }
    labels
}

fn vec_from_value(v: &Value, k: usize) -> Vec<f64> {
    v.as_list()
        .map(|l| l.iter().map(|x| x.as_double().unwrap_or(0.0)).collect())
        .unwrap_or_else(|| vec![0.0; k])
}

fn value_from_vec(v: &[f64]) -> Value {
    Value::list(v.iter().map(|&x| Value::Double(x)).collect())
}

/// The adsorption join handler: left bucket holds `(v, labelVec)` state,
/// right bucket the out-edges. A vector delta whose largest per-position
/// change exceeds the threshold sends the *diff vector* to each neighbor
/// (per-position Δ suppression, the Figure 3 Δᵢ definition).
pub struct AdsorbAgg {
    /// Per-position propagation threshold.
    pub threshold: f64,
    /// Number of labels.
    pub n_labels: usize,
}

impl JoinHandler for AdsorbAgg {
    fn name(&self) -> &str {
        "AdsorbAgg"
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
            return Ok(Vec::new());
        }
        let v = d.tuple.try_get(0)?.clone();
        let new = vec_from_value(d.tuple.get(1), self.n_labels);
        let first_arrival = left.get_by_key(0, &v).is_none();
        let old = left
            .get_by_key(0, &v)
            .map(|t| vec_from_value(t.get(1), self.n_labels))
            .unwrap_or_else(|| vec![0.0; self.n_labels]);
        left.put_by_key(0, d.tuple.clone());
        let mut out = Vec::with_capacity(right.len() + 1);
        if first_arrival {
            // Seed the vertex's own group so its state gets rescaled to
            // α·inject even when no in-neighbor ever fires (same guard as
            // PRAgg's zero-share).
            out.push(Delta::insert(Tuple::new(vec![
                v.clone(),
                value_from_vec(&vec![0.0; self.n_labels]),
            ])));
        }
        // Per-position diffs; suppress the whole send only if *every*
        // position is below threshold.
        let diff: Vec<f64> = new.iter().zip(&old).map(|(a, b)| a - b).collect();
        if diff.iter().all(|x| x.abs() <= self.threshold) {
            return Ok(out);
        }
        for e in right.iter() {
            out.push(Delta::insert(Tuple::new(vec![e.get(1).clone(), value_from_vec(&diff)])));
        }
        Ok(out)
    }
}

/// Accumulating vector aggregate: per-destination running sum of received
/// label-diff vectors; the result is `α·inject + (1-α)·acc/in_deg`.
pub struct LabelAccum {
    /// Number of labels.
    pub n_labels: usize,
    /// The vertex's injected distribution and in-degree, keyed by vertex.
    /// (Shared immutable context distributed with the query, like UDC.)
    pub inject: Arc<Vec<Vec<f64>>>,
    /// Per-vertex in-degrees.
    pub in_deg: Arc<Vec<u32>>,
}

impl AggHandler for LabelAccum {
    fn name(&self) -> &str {
        "LabelAccum"
    }

    fn init(&self) -> AggState {
        AggState::Value(value_from_vec(&vec![0.0; self.n_labels]))
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<()> {
        let AggState::Value(acc) = state else {
            return Err(RexError::Exec("LabelAccum state must be a value".into()));
        };
        let mut cur = vec_from_value(acc, self.n_labels);
        // Input (projected): (dest, diffVec).
        let diff = vec_from_value(d.tuple.get(1), self.n_labels);
        let sign = if matches!(d.ann, Annotation::Delete) { -1.0 } else { 1.0 };
        for (c, x) in cur.iter_mut().zip(&diff) {
            *c += sign * x;
        }
        *state = AggState::Value(value_from_vec(&cur));
        Ok(())
    }

    fn agg_result(&self, _state: &AggState) -> Result<Vec<Delta>> {
        Err(RexError::Exec("LabelAccum is table-valued and resolved via agg_result_keyed".into()))
    }

    fn output_kind(&self) -> AggOutputKind {
        AggOutputKind::TableValued
    }

    fn return_type(&self) -> DataType {
        DataType::List
    }
}

/// Group-by calls `agg_result` without the key, but adsorption's result
/// needs the vertex's injection vector and in-degree. We wrap the state so
/// the key is captured at `agg_state` time instead.
pub struct KeyedLabelAccum {
    inner: LabelAccum,
}

impl KeyedLabelAccum {
    /// Build from the graph and seed set.
    pub fn new(graph: &Graph, cfg: &AdsorptionConfig) -> KeyedLabelAccum {
        let mut inject = vec![vec![0.0; cfg.n_labels]; graph.n_vertices];
        for &(v, l) in &cfg.seeds {
            inject[v as usize][l] = 1.0;
        }
        KeyedLabelAccum {
            inner: LabelAccum {
                n_labels: cfg.n_labels,
                inject: Arc::new(inject),
                in_deg: Arc::new(graph.in_degrees()),
            },
        }
    }
}

impl AggHandler for KeyedLabelAccum {
    fn name(&self) -> &str {
        "LabelAccum"
    }

    fn init(&self) -> AggState {
        // State: (vertex id or -1, acc vector).
        AggState::Value(Value::list(vec![
            Value::Int(-1),
            value_from_vec(&vec![0.0; self.inner.n_labels]),
        ]))
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<()> {
        let AggState::Value(Value::List(list)) = state else {
            return Err(RexError::Exec("bad LabelAccum state".into()));
        };
        let vertex = d.tuple.get(0).as_int().unwrap_or(-1);
        let mut cur = vec_from_value(&list[1], self.inner.n_labels);
        let diff = vec_from_value(d.tuple.get(1), self.inner.n_labels);
        let sign = if matches!(d.ann, Annotation::Delete) { -1.0 } else { 1.0 };
        for (c, x) in cur.iter_mut().zip(&diff) {
            *c += sign * x;
        }
        *state = AggState::Value(Value::list(vec![Value::Int(vertex), value_from_vec(&cur)]));
        Ok(())
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        let AggState::Value(Value::List(list)) = state else {
            return Err(RexError::Exec("bad LabelAccum state".into()));
        };
        let vertex = list[0].as_int().unwrap_or(-1);
        if vertex < 0 {
            return Ok(Vec::new());
        }
        let acc = vec_from_value(&list[1], self.inner.n_labels);
        let inject = &self.inner.inject[vertex as usize];
        let deg = self.inner.in_deg[vertex as usize].max(1) as f64;
        let result: Vec<f64> =
            inject.iter().zip(&acc).map(|(i, a)| ALPHA * i + (1.0 - ALPHA) * a / deg).collect();
        Ok(vec![Delta::insert(Tuple::new(vec![value_from_vec(&result)]))])
    }

    fn output_kind(&self) -> AggOutputKind {
        AggOutputKind::TableValued
    }

    fn return_type(&self) -> DataType {
        DataType::List
    }
}

/// Single-node adsorption plan: the Figure 1 topology over vector tuples.
pub fn plan_local(graph: &Graph, cfg: &AdsorptionConfig) -> PlanGraph {
    let mut g = PlanGraph::new();
    let mut inject = vec![vec![0.0; cfg.n_labels]; graph.n_vertices];
    for &(v, l) in &cfg.seeds {
        inject[v as usize][l] = 1.0;
    }
    // Base case: every vertex starts at its injection vector.
    let base: Vec<Tuple> = (0..graph.n_vertices)
        .map(|v| Tuple::new(vec![Value::Int(v as i64), value_from_vec(&inject[v])]))
        .collect();
    let scan_base = g.add(Box::new(ScanOp::new("adsorb_base", base)));
    let scan_graph = g.add(Box::new(ScanOp::new("graph", graph.edge_tuples())));
    let fp =
        g.add(Box::new(FixpointOp::new(vec![0], Termination::FixpointOrMax(cfg.max_iterations))));
    let join =
        g.add(Box::new(HashJoinOp::new(vec![0], vec![0]).with_handler(Arc::new(AdsorbAgg {
            threshold: cfg.threshold,
            n_labels: cfg.n_labels,
        }))));
    let rehash = g.add_rehash(vec![0]);
    let gb = g.add(Box::new(GroupByOp::new(
        vec![0],
        vec![AggSpec::new(Arc::new(KeyedLabelAccum::new(graph, cfg)), vec![0, 1])],
    )));
    let sink = g.add(Box::new(SinkOp::new()));
    g.connect(scan_base, 0, fp, 0);
    g.connect(scan_graph, 0, join, 1);
    g.connect(fp, 0, join, 0);
    g.pipe(join, rehash);
    g.connect(rehash, 0, gb, 0);
    g.connect(gb, 0, fp, 1);
    g.connect(fp, 1, sink, 0);
    g
}

/// Extract per-vertex label vectors from plan results.
pub fn labels_from_results(results: &[Tuple], n: usize, k: usize) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0; k]; n];
    for t in results {
        if let Some(v) = t.get(0).as_int() {
            if (0..n as i64).contains(&v) {
                out[v as usize] = vec_from_value(t.get(1), k);
            }
        }
    }
    out
}

/// The most likely label per vertex (`None` when the vector is all-zero,
/// i.e. the vertex is unreached by any seed).
pub fn argmax_labels(labels: &[Vec<f64>]) -> Vec<Option<usize>> {
    labels
        .iter()
        .map(|v| {
            let (i, &m) =
                v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap_or((0, &0.0));
            if m > 0.0 {
                Some(i)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::max_abs_diff;
    use rex_core::exec::LocalRuntime;
    use rex_data::graph::{generate_graph, GraphSpec};

    fn cfg() -> AdsorptionConfig {
        AdsorptionConfig {
            seeds: vec![(0, 0), (40, 1), (55, 2)],
            n_labels: 3,
            threshold: 1e-9,
            max_iterations: 300,
        }
    }

    fn graph() -> Graph {
        generate_graph(GraphSpec {
            n_vertices: 60,
            edges_per_vertex: 3,
            seed: 91,
            random_edge_fraction: 0.1,
            locality_window: 0,
        })
    }

    #[test]
    fn reference_seeds_keep_their_labels() {
        let g = graph();
        let labels = reference(&g, &cfg());
        let arg = argmax_labels(&labels);
        assert_eq!(arg[0], Some(0));
        assert_eq!(arg[40], Some(1));
        assert_eq!(arg[55], Some(2));
    }

    #[test]
    fn rex_plan_matches_reference_with_tiny_threshold() {
        let g = graph();
        let c = cfg();
        let plan = plan_local(&g, &c);
        let (results, report) = LocalRuntime::new().run(plan).unwrap();
        let got = labels_from_results(&results, g.n_vertices, c.n_labels);
        let want = reference(&g, &c);
        for v in 0..g.n_vertices {
            let d = max_abs_diff(&got[v], &want[v]);
            assert!(d < 1e-6, "vertex {v} deviates by {d}");
        }
        assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn one_percent_threshold_converges_faster_and_close() {
        let g = graph();
        let tight = cfg();
        let loose = AdsorptionConfig { threshold: 0.01, ..cfg() };
        let rt = LocalRuntime::new();
        let (res_t, rep_t) = rt.run(plan_local(&g, &tight)).unwrap();
        let (res_l, rep_l) = rt.run(plan_local(&g, &loose)).unwrap();
        assert!(rep_l.iterations() < rep_t.iterations());
        let a = labels_from_results(&res_t, g.n_vertices, 3);
        let b = labels_from_results(&res_l, g.n_vertices, 3);
        let worst = (0..g.n_vertices).map(|v| max_abs_diff(&a[v], &b[v])).fold(0.0f64, f64::max);
        assert!(worst < 0.1, "1%-threshold deviation {worst}");
    }

    #[test]
    fn delta_sets_shrink() {
        let g = graph();
        let c = AdsorptionConfig { threshold: 0.01, ..cfg() };
        let (_, report) = LocalRuntime::new().run(plan_local(&g, &c)).unwrap();
        let sizes: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
        assert!(sizes.len() >= 3);
        assert!(*sizes.last().unwrap() < sizes[0]);
    }

    #[test]
    fn argmax_handles_unreached_vertices() {
        let labels = vec![vec![0.0, 0.0], vec![0.2, 0.7]];
        assert_eq!(argmax_labels(&labels), vec![None, Some(1)]);
    }
}
