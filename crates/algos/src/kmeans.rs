//! Delta-oriented K-means clustering (Listing 3).
//!
//! The mutable set is the centroid relation `(cid, x, y)`, held by the
//! fixpoint; the *much larger* point set is immutable state inside the join
//! handler `KMAgg`. On each centroid delta, `KMAgg` re-examines point
//! assignments and — for every point that switches — emits a pair of
//! coordinate adjustments: `(newCid, +x, +y, +1)` and `(oldCid, -x, -y,
//! -1)` (the Listing 3 pattern). A `CentroidAvg` aggregate maintains
//! per-cluster running sums and emits the new mean. The query reaches its
//! fixpoint when no point switches centroids — the paper's termination
//! criterion.
//!
//! Because every point must see every centroid, the centroid feedback
//! passes through an *empty-key rehash*, which the cluster router treats as
//! a broadcast; points stay partitioned and never move.

use rex_cluster::runtime::PlanBuilder;
use rex_core::delta::{Annotation, Delta};
use rex_core::error::{Result, RexError};
use rex_core::exec::PlanGraph;
use rex_core::handlers::{AggHandler, AggOutputKind, AggState, JoinHandler, TupleSet};
use rex_core::operators::{
    AggSpec, FixpointOp, GroupByOp, HashJoinOp, ScanOp, SinkOp, Termination,
};
use rex_core::tuple::Tuple;
use rex_core::value::{DataType, Value};
use rex_data::points::Point;
use std::sync::Arc;

/// Configuration for the K-means plans.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Iteration safety cap.
    pub max_iterations: u64,
}

impl Default for KMeansConfig {
    fn default() -> KMeansConfig {
        KMeansConfig { k: 8, max_iterations: 100 }
    }
}

// Point-state tuples inside the handler: (nid, x, y, cid, dist).
const P_NID: usize = 0;
const P_X: usize = 1;
const P_Y: usize = 2;
const P_CID: usize = 3;
const P_DIST: usize = 4;

/// The paper's `KMAgg` join handler (Listing 3). Left bucket: centroids
/// `(cid, cx, cy)`; right bucket: point state `(nid, x, y, cid, dist)`.
/// Both sides join on the empty key (one logical bucket per worker).
pub struct KmAgg;

impl KmAgg {
    fn switch_point(
        point: &Tuple,
        new_cid: i64,
        new_dist: f64,
        right: &mut TupleSet,
        out: &mut Vec<Delta>,
    ) {
        let old_cid = point.get(P_CID).as_int().unwrap_or(-1);
        let x = point.get(P_X).as_double().unwrap_or(0.0);
        let y = point.get(P_Y).as_double().unwrap_or(0.0);
        let updated = Tuple::new(vec![
            point.get(P_NID).clone(),
            point.get(P_X).clone(),
            point.get(P_Y).clone(),
            Value::Int(new_cid),
            Value::Double(new_dist),
        ]);
        right.put_by_key(P_NID, updated);
        out.push(Delta::insert(Tuple::new(vec![
            Value::Int(new_cid),
            Value::Double(x),
            Value::Double(y),
            Value::Int(1),
        ])));
        if old_cid >= 0 {
            out.push(Delta::insert(Tuple::new(vec![
                Value::Int(old_cid),
                Value::Double(-x),
                Value::Double(-y),
                Value::Int(-1),
            ])));
        }
    }

    /// Update a point's stored distance without changing its assignment.
    fn refresh_dist(point: &Tuple, dist: f64, right: &mut TupleSet) {
        let mut vals: Vec<Value> = point.values().to_vec();
        vals[P_DIST] = Value::Double(dist);
        right.put_by_key(P_NID, Tuple::new(vals));
    }
}

impl JoinHandler for KmAgg {
    fn name(&self) -> &str {
        "KMAgg"
    }

    fn update(
        &self,
        left: &mut TupleSet,
        right: &mut TupleSet,
        d: &Delta,
        from_left: bool,
    ) -> Result<Vec<Delta>> {
        if !from_left {
            // A raw point (nid, x, y) arrives: initialize its state as
            // unassigned. Assignment happens as centroid deltas stream in.
            let t = &d.tuple;
            right.put_by_key(
                P_NID,
                Tuple::new(vec![
                    t.try_get(0)?.clone(),
                    t.try_get(1)?.clone(),
                    t.try_get(2)?.clone(),
                    Value::Int(-1),
                    Value::Double(f64::INFINITY),
                ]),
            );
            return Ok(Vec::new());
        }
        if matches!(d.ann, Annotation::Delete) {
            return Ok(Vec::new());
        }
        // Centroid delta (cid, cx, cy): update the centroid bucket, then
        // re-evaluate every point against it (Listing 3's loop).
        let cid = d
            .tuple
            .get(0)
            .as_int()
            .ok_or_else(|| RexError::Exec("KMAgg expects (cid:Int, x, y)".into()))?;
        let cx = d.tuple.get(1).as_double().unwrap_or(0.0);
        let cy = d.tuple.get(2).as_double().unwrap_or(0.0);
        left.put_by_key(0, d.tuple.clone());

        let centroids: Vec<(i64, f64, f64)> = left
            .iter()
            .filter_map(|t| {
                Some((t.get(0).as_int()?, t.get(1).as_double()?, t.get(2).as_double()?))
            })
            .collect();

        let mut out = Vec::new();
        let points: Vec<Tuple> = right.tuples().to_vec();
        for p in points {
            let px = p.get(P_X).as_double().unwrap_or(0.0);
            let py = p.get(P_Y).as_double().unwrap_or(0.0);
            let own_cid = p.get(P_CID).as_int().unwrap_or(-1);
            let own_dist = p.get(P_DIST).as_double().unwrap_or(f64::INFINITY);
            let dist = ((px - cx).powi(2) + (py - cy).powi(2)).sqrt();
            if own_cid == cid {
                // The point's own centroid moved. If it moved closer, just
                // refresh the distance; if it moved away, the point may now
                // prefer another centroid — rescan all of them.
                if dist <= own_dist {
                    Self::refresh_dist(&p, dist, right);
                } else {
                    let (best_cid, best_dist) = centroids
                        .iter()
                        .map(|&(c, x, y)| (c, ((px - x).powi(2) + (py - y).powi(2)).sqrt()))
                        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                        .unwrap_or((cid, dist));
                    if best_cid == cid {
                        Self::refresh_dist(&p, dist, right);
                    } else {
                        let mut refreshed: Vec<Value> = p.values().to_vec();
                        refreshed[P_DIST] = Value::Double(dist);
                        Self::switch_point(
                            &Tuple::new(refreshed),
                            best_cid,
                            best_dist,
                            right,
                            &mut out,
                        );
                    }
                }
            } else if dist < own_dist {
                // Listing 3: `if (oldCid < 0 || dist < oldDist)` — switch.
                Self::switch_point(&p, cid, dist, right, &mut out);
            }
        }
        Ok(out)
    }
}

/// Running per-cluster coordinate sums: state `(Σx, Σy, n)` adjusted by the
/// `(±x, ±y, ±1)` deltas `KMAgg` emits; the result is the cluster mean.
/// Table-valued so it can emit two coordinates (group-by prefixes the cid).
pub struct CentroidAvg;

impl AggHandler for CentroidAvg {
    fn name(&self) -> &str {
        "CentroidAvg"
    }

    fn init(&self) -> AggState {
        AggState::Value(Value::list(vec![Value::Double(0.0), Value::Double(0.0), Value::Int(0)]))
    }

    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<()> {
        let AggState::Value(Value::List(list)) = state else {
            return Err(RexError::Exec("CentroidAvg state must be a list".into()));
        };
        let sx = list[0].as_double().unwrap_or(0.0);
        let sy = list[1].as_double().unwrap_or(0.0);
        let n = list[2].as_int().unwrap_or(0);
        // Input tuple (projected): (dx, dy, dn).
        let dx = d.tuple.get(0).as_double().unwrap_or(0.0);
        let dy = d.tuple.get(1).as_double().unwrap_or(0.0);
        let dn = d.tuple.get(2).as_int().unwrap_or(0);
        let sign = if matches!(d.ann, Annotation::Delete) { -1.0 } else { 1.0 };
        *state = AggState::Value(Value::list(vec![
            Value::Double(sx + sign * dx),
            Value::Double(sy + sign * dy),
            Value::Int(n + if sign < 0.0 { -dn } else { dn }),
        ]));
        Ok(())
    }

    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>> {
        let AggState::Value(Value::List(list)) = state else {
            return Err(RexError::Exec("CentroidAvg state must be a list".into()));
        };
        let n = list[2].as_int().unwrap_or(0);
        if n <= 0 {
            // Empty cluster: keep the previous centroid (emit nothing).
            return Ok(Vec::new());
        }
        let sx = list[0].as_double().unwrap_or(0.0);
        let sy = list[1].as_double().unwrap_or(0.0);
        Ok(vec![Delta::insert(Tuple::new(vec![
            Value::Double(sx / n as f64),
            Value::Double(sy / n as f64),
        ]))])
    }

    fn output_kind(&self) -> AggOutputKind {
        AggOutputKind::TableValued
    }

    fn return_type(&self) -> DataType {
        DataType::Double
    }
}

/// Initial centroid tuples `(cid, x, y)` sampled from the points.
pub fn centroid_tuples(points: &[Point], k: usize) -> Vec<Tuple> {
    crate::reference::sample_centroids(points, k)
        .into_iter()
        .enumerate()
        .map(|(cid, p)| {
            Tuple::new(vec![Value::Int(cid as i64), Value::Double(p.x), Value::Double(p.y)])
        })
        .collect()
}

fn wire(g: &mut PlanGraph, centroids: Vec<Tuple>, points: Vec<Tuple>, cfg: KMeansConfig) {
    let scan_centroids = g.add(Box::new(ScanOp::new("km_base", centroids)));
    let scan_points = g.add(Box::new(ScanOp::new("geodata", points)));
    let fp =
        g.add(Box::new(FixpointOp::new(vec![0], Termination::FixpointOrMax(cfg.max_iterations))));
    // Empty-key rehash = broadcast: every worker sees every centroid delta.
    let bcast = g.add_rehash(vec![]);
    let join = g.add(Box::new(HashJoinOp::new(vec![], vec![]).with_handler(Arc::new(KmAgg))));
    let rehash = g.add_rehash(vec![0]);
    let gb = g.add(Box::new(GroupByOp::new(
        vec![0],
        vec![AggSpec::new(Arc::new(CentroidAvg), vec![1, 2, 3])],
    )));
    let sink = g.add(Box::new(SinkOp::new()));

    g.connect(scan_centroids, 0, fp, 0);
    g.connect(scan_points, 0, join, 1);
    g.connect(fp, 0, bcast, 0);
    g.connect(bcast, 0, join, 0);
    g.pipe(join, rehash); // (cid, ±x, ±y, ±1)
    g.connect(rehash, 0, gb, 0);
    g.connect(gb, 0, fp, 1); // (cid, x̄, ȳ)
    g.connect(fp, 1, sink, 0);
}

/// Single-node plan over in-memory points.
pub fn plan_local(points: &[Point], cfg: KMeansConfig) -> PlanGraph {
    let mut g = PlanGraph::new();
    let centroids = centroid_tuples(points, cfg.k);
    g_wire_points(&mut g, centroids, points, cfg);
    g
}

fn g_wire_points(g: &mut PlanGraph, centroids: Vec<Tuple>, points: &[Point], cfg: KMeansConfig) {
    let point_tuples = rex_data::points::point_tuples(points);
    wire(g, centroids, point_tuples, cfg);
}

/// Cluster plan builder: points (`geodata`, partitioned by `nid`) stay
/// local; initial centroids are derived deterministically from the full
/// table and each worker seeds the ones it owns by `cid`.
pub fn plan_builder(cfg: KMeansConfig) -> PlanBuilder {
    Arc::new(move |worker, snap, catalog| {
        let table = catalog.get("geodata")?;
        let all_points: Vec<Point> = table
            .rows()
            .iter()
            .filter_map(|t| Some(Point { x: t.get(1).as_double()?, y: t.get(2).as_double()? }))
            .collect();
        let centroids: Vec<Tuple> = centroid_tuples(&all_points, cfg.k)
            .into_iter()
            .filter(|t| snap.owner_of_key(&t.key(&[0])) == worker)
            .collect();
        let points = table.partition_for(snap, worker);
        let mut g = PlanGraph::new();
        wire(&mut g, centroids, points, cfg);
        Ok(g)
    })
}

/// Extract `(cid → centroid)` from query results `(cid, x, y)`.
pub fn centroids_from_results(results: &[Tuple], k: usize) -> Vec<Point> {
    let mut out = vec![Point { x: f64::NAN, y: f64::NAN }; k];
    for t in results {
        if let (Some(c), Some(x), Some(y)) =
            (t.get(0).as_int(), t.get(1).as_double(), t.get(2).as_double())
        {
            if (0..k as i64).contains(&c) {
                out[c as usize] = Point { x, y };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rex_cluster::runtime::{ClusterConfig, ClusterRuntime};
    use rex_core::exec::LocalRuntime;
    use rex_data::points::{generate_points, PointSpec};
    use rex_storage::catalog::Catalog;
    use rex_storage::table::StoredTable;

    fn pts() -> Vec<Point> {
        generate_points(PointSpec { n_points: 240, n_clusters: 4, stddev: 1.0, seed: 21 })
    }

    fn reference_run(points: &[Point], k: usize) -> Vec<Point> {
        let init = reference::sample_centroids(points, k);
        reference::kmeans(points, &init, 200).0
    }

    fn assert_centroids_close(a: &[Point], b: &[Point], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.dist(y) < tol, "centroid {i}: ({}, {}) vs ({}, {})", x.x, x.y, y.x, y.y);
        }
    }

    #[test]
    fn local_plan_matches_lloyd_reference() {
        let points = pts();
        let k = 4;
        let plan = plan_local(&points, KMeansConfig { k, max_iterations: 200 });
        let (results, report) = LocalRuntime::new().run(plan).unwrap();
        let got = centroids_from_results(&results, k);
        let want = reference_run(&points, k);
        assert_centroids_close(&got, &want, 1e-6);
        // Converged via the no-switch criterion, not the cap.
        assert!(report.iterations() < 200);
        assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn switch_counts_decrease() {
        let points =
            generate_points(PointSpec { n_points: 600, n_clusters: 6, stddev: 2.5, seed: 3 });
        let plan = plan_local(&points, KMeansConfig { k: 6, max_iterations: 200 });
        let (_, report) = LocalRuntime::new().run(plan).unwrap();
        let sizes: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
        assert!(sizes.len() >= 3);
        assert!(*sizes.last().unwrap() < sizes[0]);
    }

    #[test]
    fn cluster_matches_local() {
        let points = pts();
        let k = 4;
        let cfg = KMeansConfig { k, max_iterations: 200 };
        let (local_res, _) = LocalRuntime::new().run(plan_local(&points, cfg)).unwrap();

        let cat = Catalog::new();
        let mut t = StoredTable::new("geodata", rex_data::points::schema(), vec![0]);
        t.load(rex_data::points::point_tuples(&points)).unwrap();
        cat.register(t);
        let rt = ClusterRuntime::new(ClusterConfig::new(3), cat);
        let (cluster_res, report) = rt.run(plan_builder(cfg)).unwrap();

        let l = centroids_from_results(&local_res, k);
        let c = centroids_from_results(&cluster_res, k);
        assert_centroids_close(&l, &c, 1e-9);
        assert!(report.query.totals.bytes_sent > 0, "broadcast must ship data");
    }

    #[test]
    fn centroid_avg_accumulates_signed_adjustments() {
        let a = CentroidAvg;
        let mut st = a.init();
        let add = |st: &mut AggState, x: f64, y: f64, n: i64| {
            a.agg_state(
                st,
                &Delta::insert(Tuple::new(vec![Value::Double(x), Value::Double(y), Value::Int(n)])),
            )
            .unwrap();
        };
        add(&mut st, 2.0, 4.0, 1);
        add(&mut st, 4.0, 8.0, 1);
        add(&mut st, -2.0, -4.0, -1); // a point left the cluster
        let out = a.agg_result(&st).unwrap();
        assert_eq!(out[0].tuple.get(0).as_double(), Some(4.0));
        assert_eq!(out[0].tuple.get(1).as_double(), Some(8.0));
    }

    #[test]
    fn centroid_avg_stays_silent_for_empty_cluster() {
        let a = CentroidAvg;
        let st = a.init();
        assert!(a.agg_result(&st).unwrap().is_empty());
    }

    #[test]
    fn km_agg_reassigns_on_better_centroid() {
        let h = KmAgg;
        let mut left = TupleSet::new();
        let mut right = TupleSet::new();
        // One point at (0, 0).
        h.update(
            &mut left,
            &mut right,
            &Delta::insert(Tuple::new(vec![Value::Int(0), Value::Double(0.0), Value::Double(0.0)])),
            false,
        )
        .unwrap();
        // Centroid 0 at (10, 0): point assigns to it.
        let out = h
            .update(
                &mut left,
                &mut right,
                &Delta::insert(Tuple::new(vec![
                    Value::Int(0),
                    Value::Double(10.0),
                    Value::Double(0.0),
                ])),
                true,
            )
            .unwrap();
        assert_eq!(out.len(), 1); // join only (no departure from -1)
                                  // Centroid 1 at (1, 0): closer → switch emits +1 into 1, -1 from 0.
        let out = h
            .update(
                &mut left,
                &mut right,
                &Delta::insert(Tuple::new(vec![
                    Value::Int(1),
                    Value::Double(1.0),
                    Value::Double(0.0),
                ])),
                true,
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.get(0).as_int(), Some(1));
        assert_eq!(out[0].tuple.get(3).as_int(), Some(1));
        assert_eq!(out[1].tuple.get(0).as_int(), Some(0));
        assert_eq!(out[1].tuple.get(3).as_int(), Some(-1));
    }

    #[test]
    fn km_agg_rescans_when_own_centroid_moves_away() {
        let h = KmAgg;
        let mut left = TupleSet::new();
        let mut right = TupleSet::new();
        let point =
            Delta::insert(Tuple::new(vec![Value::Int(0), Value::Double(0.0), Value::Double(0.0)]));
        h.update(&mut left, &mut right, &point, false).unwrap();
        let centroid = |cid: i64, x: f64| {
            Delta::insert(Tuple::new(vec![Value::Int(cid), Value::Double(x), Value::Double(0.0)]))
        };
        h.update(&mut left, &mut right, &centroid(0, 1.0), true).unwrap();
        h.update(&mut left, &mut right, &centroid(1, 5.0), true).unwrap();
        // Centroid 0 moves to 9.0 — now centroid 1 (at 5.0) is better.
        let out = h.update(&mut left, &mut right, &centroid(0, 9.0), true).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.get(0).as_int(), Some(1));
        // Point state reflects the new owner.
        let p = right.tuples()[0].clone();
        assert_eq!(p.get(P_CID).as_int(), Some(1));
        assert_eq!(p.get(P_DIST).as_double(), Some(5.0));
    }
}
