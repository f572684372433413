//! Sharded view maintenance: a view's dataflow split across cluster
//! workers by the view's own partition columns, surviving worker death
//! (§4.3 of the paper, applied to materialized views).
//!
//! A view's maintenance state — join sides, group-by state — lives in
//! [`ViewFlow`]s. [`ShardedMaint`] holds one flow per shard: every delta
//! batch is routed once, at the base-table boundary, by hashing the view's
//! *partition columns* with [`shard_of`] (a mix of those columns' hash,
//! modulo the shard count), and each shard's flow then maintains only the
//! keys it owns. This is not how the cluster engine places base tables:
//! it partitions them on the consistent-hash ring
//! (`PartitionSnapshot::owner_of_hash`, via `StoredTable::partition_for`).
//! Outputs are signed multisets, so the view's output delta is simply the
//! union of the per-shard outputs. A single-node view is the one-shard
//! case: its flow runs on the session node, with nothing to route or
//! replicate.
//!
//! ## When is a view shardable?
//!
//! Exactly when one routing decision at the leaves co-partitions every
//! stateful operator — the co-partitioned maintenance the paper runs its
//! recursive state under. [`shard_routes`] walks the defining plan and
//! either derives, for each base table, the column set to route by, or
//! reports why it cannot:
//!
//! * a join routes both inputs by its key columns;
//! * a group-by routes its input by the grouping columns;
//! * stacked stateful operators must agree (a group-by over a join must
//!   group by the join key), because there is no mid-plan exchange;
//! * global aggregates, computed shard keys, cross joins, and a table
//!   scanned twice under conflicting keys are not shardable;
//! * a recursive view is not shardable either: its fixpoint's feedback
//!   would cross shards every stratum.
//!
//! Unshardable views run as one shard on the session node, and
//! [`ShardedMaint::fallback`] records the reason.
//!
//! ## Replication and recovery
//!
//! After every maintenance round each live shard's flow is cloned to a
//! replica hosted by the next live worker — the `(i+1) % n` ring the
//! cluster runtime also replicates checkpoints over. Killing worker `w`
//! drops the flows it owned *and* the replicas it hosted.
//! [`ShardedMaint::kill_worker`] only marks the loss;
//! [`ShardedMaint::recover`] rebuilds dead shards and is idempotent, so the
//! session invokes it eagerly at kill time (via
//! [`ViewCatalog::kill_worker`](crate::catalog::ViewCatalog::kill_worker) —
//! while the store still equals the applied history) and
//! [`ShardedMaint::apply`] calls it again as a safety net for direct users
//! of this API. Reads keep being served from published output state
//! throughout. Recovery follows the configured [`RecoveryStrategy`]:
//!
//! * **Incremental** — the successor adopts the replica clone; cost is
//!   proportional to the shard's state.
//! * **Restart** — the shard's flow is lowered afresh and replays the
//!   routed slice of every base table; cost is proportional to the
//!   shard's share of the *base data*.
//!
//! Either way the recovered shard is bit-identical to the lost one
//! whenever the accumulated arithmetic is exact (integers, dyadic
//! floats); both paths record [`rex_core::faults`] telemetry.

use crate::flow::ViewFlow;
use rex_core::delta::ZSet;
use rex_core::error::Result;
use rex_core::expr::Expr;
use rex_core::faults;
use rex_core::hash::FxHashMap;
use rex_core::operators::{hash_key_cols, shard_of};
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_storage::catalog::Catalog;
use std::time::Instant;

pub use rex_cluster::failure::RecoveryStrategy;

/// Why a recursive view keeps one shard on the session node.
const RECURSIVE_ON_SESSION_NODE: &str = "recursive view is maintained on the session node: \
     a fixpoint's strata would need an exchange between shards";

/// Per-table routing columns: tuple `t` of table `T` belongs to shard
/// `shard_of(hash_key_cols(t, routes[T]), n)`.
pub type ShardRoutes = FxHashMap<String, Vec<usize>>;

/// Cumulative counters for one sharded view.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Delta rows partitioned across shards (maintenance work that left
    /// the session node).
    pub sharded_rows: u64,
    /// State bytes copied into replicas across all rounds.
    pub replicated_bytes: u64,
    /// Shard recoveries performed (one per dead shard, on the round after
    /// the kill).
    pub recoveries: u64,
    /// State bytes moved to recover (replica adopted or base rows
    /// replayed).
    pub recovered_bytes: u64,
}

/// A view's maintenance dataflow partitioned across `n` worker shards
/// (`n == 1`: one flow on the session node).
pub struct ShardedMaint {
    n: usize,
    plan: LogicalPlan,
    routes: ShardRoutes,
    /// Why a multi-worker layout was refused (the view runs as one shard).
    fallback: Option<String>,
    /// Shard `i`'s flow; `None` after its worker was killed, until the
    /// next round recovers it.
    shards: Vec<Option<ViewFlow>>,
    /// Replica of shard `i` as of the last completed round, hosted by
    /// [`Self::replica_host`]`[i]`.
    replicas: Vec<Option<ViewFlow>>,
    /// Which worker holds shard `i`'s replica.
    replica_host: Vec<usize>,
    /// Which worker currently owns shard `i` (its original worker, or the
    /// survivor that adopted it).
    owner: Vec<usize>,
    dead: Vec<bool>,
    recovery: RecoveryStrategy,
    stats: ShardStats,
}

/// Derive per-table routing columns for `plan`, or explain why a single
/// leaf-level routing cannot co-partition every stateful operator.
///
/// `pushed` carries the partitioning requirement from the nearest
/// stateful ancestor, as column indices of `plan`'s output (empty =
/// unconstrained).
pub fn shard_routes(plan: &LogicalPlan) -> std::result::Result<ShardRoutes, String> {
    let mut routes = ShardRoutes::default();
    descend(plan, &[], &mut routes)?;
    Ok(routes)
}

fn descend(
    plan: &LogicalPlan,
    pushed: &[usize],
    routes: &mut ShardRoutes,
) -> std::result::Result<(), String> {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            // A stateless view (no stateful ancestor) can shard by any
            // column; use the first so routing stays deterministic.
            let cols = if pushed.is_empty() { vec![0] } else { pushed.to_vec() };
            let key = table.to_ascii_lowercase();
            match routes.get(&key) {
                Some(prev) if *prev != cols => {
                    Err(format!("table {key} is scanned under conflicting shard keys"))
                }
                _ => {
                    routes.insert(key, cols);
                    Ok(())
                }
            }
        }
        LogicalPlan::Filter { input, .. } => descend(input, pushed, routes),
        LogicalPlan::Project { input, exprs, .. } => {
            let mut mapped = Vec::with_capacity(pushed.len());
            for &c in pushed {
                match exprs.get(c) {
                    Some(Expr::Col(j)) => mapped.push(*j),
                    _ => return Err("shard key is a computed expression".into()),
                }
            }
            descend(input, &mapped, routes)
        }
        LogicalPlan::Join { left, right, left_key, right_key, .. } => {
            if left_key.is_empty() {
                return Err("cross join has no key to shard by".into());
            }
            // The ancestor's key must be this join's key, positionally,
            // from either side — there is no exchange between operators.
            let la = left.schema().arity();
            if !pushed.is_empty() {
                if pushed.len() != left_key.len() {
                    return Err("stateful operators disagree on the shard key".into());
                }
                for (i, &c) in pushed.iter().enumerate() {
                    if c != left_key[i] && c != la + right_key[i] {
                        return Err("stateful operators disagree on the shard key".into());
                    }
                }
            }
            descend(left, left_key, routes)?;
            descend(right, right_key, routes)
        }
        LogicalPlan::Aggregate { input, group_cols, post, .. } => {
            if group_cols.is_empty() {
                return Err("global aggregate keeps one group on one node".into());
            }
            let mut mapped = Vec::with_capacity(pushed.len());
            for &c in pushed {
                let pre = match post {
                    Some(exprs) => match exprs.get(c) {
                        Some(Expr::Col(j)) => *j,
                        _ => return Err("shard key is a computed expression".into()),
                    },
                    None => c,
                };
                if pre >= group_cols.len() {
                    return Err("shard key is an aggregate result".into());
                }
                mapped.push(pre);
            }
            // The ancestor's key must be the full group key, in order;
            // a coarser key would split groups across shards.
            if !mapped.is_empty() && mapped != (0..group_cols.len()).collect::<Vec<_>>() {
                return Err("stateful operators disagree on the shard key".into());
            }
            descend(input, group_cols, routes)
        }
        LogicalPlan::Fixpoint { .. } => Err(RECURSIVE_ON_SESSION_NODE.into()),
        other => Err(format!("{} does not maintain incrementally", plan_kind(other))),
    }
}

fn plan_kind(p: &LogicalPlan) -> &'static str {
    match p {
        LogicalPlan::Scan { .. } => "scan",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::Join { .. } => "join",
        LogicalPlan::Aggregate { .. } => "group-by",
        _ => "operator",
    }
}

impl ShardedMaint {
    /// Build the maintenance dataflows for `plan` across `n` workers: one
    /// shard per worker when [`shard_routes`] co-partitions every stateful
    /// operator, else (and for `n <= 1`) one shard on the session node,
    /// with the reason in [`fallback`](ShardedMaint::fallback). Fails
    /// when the delta rules do not cover `plan`.
    pub fn build(
        plan: &LogicalPlan,
        reg: &Registry,
        n: usize,
        recovery: RecoveryStrategy,
    ) -> Result<ShardedMaint> {
        let (n, routes, fallback) = match n {
            0 | 1 => (1, ShardRoutes::default(), None),
            _ => match shard_routes(plan) {
                Ok(routes) => (n, routes, None),
                Err(reason) => (1, ShardRoutes::default(), Some(reason)),
            },
        };
        let mut m = ShardedMaint {
            n,
            plan: plan.clone(),
            routes,
            fallback,
            shards: Vec::new(),
            replicas: Vec::new(),
            replica_host: Vec::new(),
            owner: Vec::new(),
            dead: Vec::new(),
            recovery,
            stats: ShardStats::default(),
        };
        m.reset(reg)?;
        Ok(m)
    }

    /// Discard all maintained state: every shard gets a fresh, empty flow
    /// on its original worker and no replica. Layout, strategy and
    /// counters survive.
    pub fn reset(&mut self, reg: &Registry) -> Result<()> {
        let n = self.n;
        self.shards = vec![Some(ViewFlow::new(&self.plan, reg)?); n];
        self.replicas = vec![None; n];
        self.replica_host = (0..n).map(|i| (i + 1) % n).collect();
        self.owner = (0..n).collect();
        self.dead = vec![false; n];
        Ok(())
    }

    /// Why a multi-worker layout was refused, if it was.
    pub fn fallback(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// Number of shards (= workers at definition time).
    pub fn shards(&self) -> usize {
        self.n
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Strategy used when a dead shard is recovered.
    pub fn set_recovery(&mut self, strategy: RecoveryStrategy) {
        self.recovery = strategy;
    }

    /// The configured recovery strategy.
    pub fn recovery(&self) -> RecoveryStrategy {
        self.recovery
    }

    /// Total state bytes across live shards (replicas excluded).
    pub fn state_bytes(&self) -> usize {
        self.shards.iter().flatten().map(ViewFlow::state_bytes).sum()
    }

    /// Kill worker `w`: its shards and the replicas it hosted are gone.
    /// Survivors adopt the dead worker's shard range immediately;
    /// rebuilding the state is deferred to the next maintenance round.
    /// Returns how many shards lost their primary flow.
    pub fn kill_worker(&mut self, w: usize) -> usize {
        if w >= self.n || self.dead[w] || self.live_workers() <= 1 {
            return 0;
        }
        self.dead[w] = true;
        let mut lost = 0;
        for s in 0..self.n {
            if self.owner[s] == w {
                self.shards[s] = None;
                self.owner[s] = self.successor(s);
                lost += 1;
            }
            if self.replica_host[s] == w {
                self.replicas[s] = None;
            }
        }
        lost
    }

    /// Workers still alive.
    pub fn live_workers(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// First live worker after `w` on the ring.
    fn successor(&self, w: usize) -> usize {
        (1..self.n).map(|k| (w + k) % self.n).find(|&c| !self.dead[c]).unwrap_or(w)
    }

    /// Route `batch` into per-shard slices by `cols`.
    fn route(&self, batch: &ZSet, cols: &[usize]) -> Vec<ZSet> {
        let mut slices = vec![ZSet::new(); self.n];
        for (t, m) in batch.iter() {
            let s = shard_of(hash_key_cols(t, cols), self.n);
            slices[s].add(t.clone(), m);
        }
        slices
    }

    /// Recover every dead shard per the configured strategy. Idempotent:
    /// shards that already have a flow are skipped. The session calls this
    /// eagerly at kill time — while the store still equals the applied
    /// history — and [`apply`](ShardedMaint::apply) calls it again as a
    /// safety net; callers driving `kill_worker`/`apply` directly must
    /// keep `store` in lockstep with the batches they apply, since a
    /// restart rebuild replays the store verbatim.
    pub fn recover(&mut self, store: &Catalog, reg: &Registry) -> Result<()> {
        for s in 0..self.n {
            if self.shards[s].is_some() {
                continue;
            }
            let t0 = Instant::now();
            let replica = match self.recovery {
                RecoveryStrategy::Incremental => self.replicas[s].clone(),
                RecoveryStrategy::Restart => None,
            };
            let incremental = replica.is_some();
            let (flow, bytes) = match replica {
                // Adopt the replica: state as of the last completed
                // round, which is exactly when the kill hit.
                Some(flow) => {
                    let b = flow.state_bytes() as u64;
                    (flow, b)
                }
                // Restart (or the replica died with its host): rebuild
                // from the base tables, replaying only this shard's slice.
                None => {
                    let mut flow = ViewFlow::new(&self.plan, reg)?;
                    let mut b = 0u64;
                    for (table, cols) in &self.routes {
                        let all = ZSet::from_rows(store.get(table)?.rows().iter().cloned());
                        let mut slice = ZSet::new();
                        for (t, m) in all.iter() {
                            if shard_of(hash_key_cols(t, cols), self.n) == s {
                                b += t.byte_size() as u64;
                                slice.add(t.clone(), m);
                            }
                        }
                        // The emitted rows are discarded: the session
                        // already holds the view contents; priming only
                        // rebuilds the shard's internal state.
                        flow.apply(table, &slice, reg)?;
                    }
                    (flow, b)
                }
            };
            self.shards[s] = Some(flow);
            self.replicas[s] = None;
            self.stats.recoveries += 1;
            self.stats.recovered_bytes += bytes;
            faults::record_recovery(incremental, t0.elapsed().as_micros() as u64, bytes);
        }
        Ok(())
    }

    /// Clone every live shard's flow to its ring successor. The clone
    /// *is* the replication cost, charged to `replicated_bytes`.
    fn replicate(&mut self) {
        for s in 0..self.n {
            if let Some(flow) = &self.shards[s] {
                self.stats.replicated_bytes += flow.state_bytes() as u64;
                self.replicas[s] = Some(flow.clone());
                self.replica_host[s] = self.successor(self.owner[s]);
            }
        }
    }

    /// One maintenance round: recover dead shards, route the batch, apply
    /// each slice on its shard, union the outputs, replicate. A lone shard
    /// takes the whole batch and has no other worker to replicate to.
    pub fn apply(
        &mut self,
        table: &str,
        batch: &ZSet,
        store: &Catalog,
        reg: &Registry,
    ) -> Result<ZSet> {
        self.recover(store, reg)?;
        if self.n == 1 {
            return self.shards[0].as_mut().expect("recovered above").apply(table, batch, reg);
        }
        let Some(cols) = self.routes.get(table).cloned() else {
            return Ok(ZSet::new());
        };
        let slices = self.route(batch, &cols);
        let mut out = ZSet::new();
        for (s, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            self.stats.sharded_rows += slice.iter().map(|(_, m)| m.unsigned_abs()).sum::<u64>();
            let flow = self.shards[s].as_mut().expect("recovered above");
            let delta = flow.apply(table, slice, reg)?;
            out.merge_scaled(&delta, 1);
        }
        self.replicate();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple::{Schema, Tuple};
    use rex_core::value::{DataType, Value};
    use rex_rql::logical::plan_text;
    use rex_rql::resolve::SchemaCatalog;
    use rex_storage::table::StoredTable;

    fn schemas() -> SchemaCatalog {
        let mut m = SchemaCatalog::new();
        m.register(
            "t",
            Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]),
        );
        m.register("d", Schema::of(&[("k", DataType::Int), ("w", DataType::Double)]));
        m
    }

    fn plan(sql: &str) -> LogicalPlan {
        plan_text(sql, &schemas(), &Registry::with_builtins()).unwrap()
    }

    fn store() -> Catalog {
        let c = Catalog::new();
        let mut t = StoredTable::new("t", schemas().get("t").unwrap().clone(), vec![0]);
        t.load_unchecked(
            (0..64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int(i % 8),
                        Value::Int(i % 5),
                        Value::Double((i % 16) as f64 * 0.5),
                    ])
                })
                .collect(),
        );
        c.register(t);
        let mut d = StoredTable::new("d", schemas().get("d").unwrap().clone(), vec![0]);
        d.load_unchecked(
            (0..8).map(|k| Tuple::new(vec![Value::Int(k), Value::Double(k as f64)])).collect(),
        );
        c.register(d);
        c
    }

    fn batch(lo: i64, hi: i64) -> ZSet {
        ZSet::from_rows((lo..hi).map(|i| {
            Tuple::new(vec![
                Value::Int(i % 8),
                Value::Int(i % 5),
                Value::Double((i % 16) as f64 * 0.25),
            ])
        }))
    }

    #[test]
    fn route_analysis_accepts_copartitioned_shapes() {
        for (sql, table_cols) in [
            ("SELECT a, count(*) FROM t GROUP BY a", vec![("t", vec![1usize])]),
            (
                "SELECT t.k, count(*), sum(d.w) FROM t, d WHERE t.k = d.k GROUP BY t.k",
                vec![("t", vec![0]), ("d", vec![0])],
            ),
            ("SELECT k, b FROM t WHERE b > 1.0", vec![("t", vec![0])]),
            ("SELECT DISTINCT a FROM t", vec![("t", vec![1])]),
        ] {
            let routes = shard_routes(&plan(sql)).unwrap_or_else(|e| panic!("{sql}: {e}"));
            for (t, cols) in table_cols {
                assert_eq!(routes[t], cols, "{sql}");
            }
        }
    }

    #[test]
    fn route_analysis_rejects_unshardable_shapes() {
        for sql in [
            "SELECT count(*), sum(b) FROM t", // global agg
            "SELECT t.a, count(*) FROM t, d WHERE t.k = d.k GROUP BY t.a", // key mismatch
            "SELECT DISTINCT a + 1 FROM t",   // computed key
            "SELECT t.k, d.w FROM t, d",      // cross join
        ] {
            assert!(shard_routes(&plan(sql)).is_err(), "{sql} should not shard");
        }
    }

    /// The sharded flows must produce the same output deltas as one flow,
    /// batch by batch — sharding is pure partitioning of state.
    #[test]
    fn sharded_output_matches_single_tree() {
        let reg = Registry::with_builtins();
        let c = store();
        for sql in [
            "SELECT a, count(*), sum(b) FROM t GROUP BY a",
            "SELECT t.k, count(*), sum(d.w) FROM t, d WHERE t.k = d.k GROUP BY t.k",
        ] {
            let p = plan(sql);
            let mut single = ViewFlow::new(&p, &reg).unwrap();
            let mut sharded =
                ShardedMaint::build(&p, &reg, 3, RecoveryStrategy::Incremental).unwrap();
            for step in 0..4 {
                let b = batch(step * 50, step * 50 + 50);
                let want = single.apply("t", &b, &reg).unwrap();
                let got = sharded.apply("t", &b, &c, &reg).unwrap();
                assert_eq!(got, want, "{sql} step {step}");
            }
            assert!(sharded.stats().sharded_rows > 0);
            assert!(sharded.stats().replicated_bytes > 0);
        }
    }

    /// Prime a sharded maint with the store's current contents so that
    /// flow state always equals the net of the store — the invariant that
    /// makes restart's replay-from-base-data equivalent to the live state.
    fn prime(m: &mut ShardedMaint, c: &Catalog, reg: &Registry) {
        for table in ["d", "t"] {
            let rows = ZSet::from_rows(c.get(table).unwrap().rows().iter().cloned());
            m.apply(table, &rows, c, reg).unwrap();
        }
    }

    /// Killing any worker at any batch boundary, under either strategy,
    /// leaves output deltas bit-identical to the unkilled run (the data is
    /// dyadic, so even restart's re-accumulation is exact).
    #[test]
    fn any_kill_point_recovers_bit_identical() {
        let reg = Registry::with_builtins();
        let sql = "SELECT t.k, count(*), sum(d.w) FROM t, d WHERE t.k = d.k GROUP BY t.k";
        let p = plan(sql);
        let n = 3;
        let run = |kill: Option<(usize, i64, RecoveryStrategy)>| -> Vec<ZSet> {
            let c = store();
            let strategy = kill.map(|(_, _, s)| s).unwrap_or_default();
            let mut m = ShardedMaint::build(&p, &reg, n, strategy).unwrap();
            prime(&mut m, &c, &reg);
            let mut outs = Vec::new();
            for step in 0..4i64 {
                if let Some((w, at, _)) = kill {
                    if at == step {
                        assert!(m.kill_worker(w) > 0);
                    }
                }
                let b = batch(step * 50, step * 50 + 50);
                outs.push(m.apply("t", &b, &c, &reg).unwrap());
                // Keep the store in lockstep with applied history so a later
                // restart rebuild replays exactly what the flows saw.
                c.append("t", b.rows()).unwrap();
            }
            outs
        };
        let want = run(None);
        for w in 0..n {
            for at in 1..4i64 {
                for strategy in [RecoveryStrategy::Incremental, RecoveryStrategy::Restart] {
                    let got = run(Some((w, at, strategy)));
                    assert_eq!(got, want, "kill w{w} at batch {at} under {strategy:?}");
                }
            }
        }
    }

    /// Losing a replica's host along with later kills still recovers: the
    /// incremental path falls back to restart when the replica is gone.
    #[test]
    fn double_fault_falls_back_to_restart() {
        let reg = Registry::with_builtins();
        let c = store();
        let p = plan("SELECT a, count(*), sum(b) FROM t GROUP BY a");
        let mut m = ShardedMaint::build(&p, &reg, 3, RecoveryStrategy::Incremental).unwrap();
        let mut single = ViewFlow::new(&p, &reg).unwrap();
        let seed = ZSet::from_rows(c.get("t").unwrap().rows().iter().cloned());
        single.apply("t", &seed, &reg).unwrap();
        prime(&mut m, &c, &reg);
        let b0 = batch(0, 50);
        let want0 = single.apply("t", &b0, &reg).unwrap();
        assert_eq!(m.apply("t", &b0, &c, &reg).unwrap(), want0);
        c.append("t", b0.rows()).unwrap();
        // Kill worker 0 and worker 1 (which hosted shard 0's replica)
        // before the next round: shard 0 must rebuild from base data.
        assert!(m.kill_worker(0) > 0);
        assert!(m.kill_worker(1) > 0);
        let b1 = batch(50, 100);
        let want1 = single.apply("t", &b1, &reg).unwrap();
        let got1 = m.apply("t", &b1, &c, &reg).unwrap();
        assert_eq!(got1, want1);
        assert_eq!(m.stats().recoveries, 2);
        assert_eq!(m.live_workers(), 1);
    }
}
