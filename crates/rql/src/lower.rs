//! Physical lowering: [`LogicalPlan`] → executable [`PlanGraph`].
//!
//! Lowering is mechanical: scans read from a [`TableProvider`], filters
//! and projections map 1:1 onto their operators, joins become pipelined
//! hash joins (with the registered handler attached for handler joins),
//! aggregates become a group-by (+ optional post-projection), and
//! a fixpoint becomes the Figure 1 loop: base → fixpoint port 0, feedback
//! out of port 0 into the step subplan, step output rehashed on the
//! fixpoint key back into port 1, finals out of port 1 into the sink.
//!
//! ## Distributed lowering
//!
//! With [`LowerOptions::distributed`] set, the same logical plan lowers to
//! a *worker* plan: the lowering tracks how each intermediate stream is
//! partitioned (scans by their table's partition key, fixpoint feedback by
//! the `FIXPOINT BY` key, rehash outputs by their hash key) and inserts
//! network boundaries exactly where the data's current partitioning does
//! not line up with what the next stateful operator needs:
//!
//! * join inputs are rehashed on the join key unless already co-partitioned
//!   on it; a key-less (handler broadcast) join replicates the recursive
//!   side to all workers while the stored side stays partitioned;
//! * grouped aggregates repartition on the grouping key unless already
//!   partitioned on it; *global* aggregates gather at one deterministic
//!   worker. When every aggregate function has a partial/final pair
//!   (`sum`, `count`, `avg`), a partial group-by in front of the exchange
//!   ships one row per touched group per stratum, and a merging group-by
//!   behind it folds them (the combiner of §5.2);
//! * fixpoint base cases are rehashed onto the fixpoint key when the base
//!   relation is partitioned differently.
//!
//! Local lowering (`distributed = false`) is unchanged: rehash operators
//! are pass-throughs on a single node, so local plans stay minimal.

use crate::logical::{AggCall, LogicalPlan, SortKey};
use rex_core::aggregates::{agg_split, AggSplit};
use rex_core::error::{Result, RexError};
use rex_core::exec::{NodeId, PlanGraph};
use rex_core::expr::Expr;
use rex_core::operators::{
    AggSpec, FilterOp, FixpointOp, GroupByOp, HashJoinOp, ProjectOp, ScanOp, ScanRows, ShardGateOp,
    SinkOp, SortSpec, Termination, TopKOp, MORSEL_ROWS,
};
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Supplies table contents at lowering time (the worker's partition in
/// distributed execution, the full table locally).
pub trait TableProvider {
    /// The rows of `table` visible to this plan instance.
    fn scan(&self, table: &str) -> Result<Vec<Tuple>>;

    /// The rows of `table` as a [`ScanRows`] source. Providers backed by
    /// shared storage override this to hand the scan an `Arc` snapshot —
    /// no deep copy of the table into the plan; the default wraps
    /// [`scan`](TableProvider::scan)'s owned rows.
    fn scan_shared(&self, table: &str) -> Result<ScanRows> {
        Ok(ScanRows::Owned(self.scan(table)?))
    }

    /// Total byte size of what [`scan_shared`](TableProvider::scan_shared)
    /// returns, when the storage layer keeps it cached — lets the scan
    /// skip per-row size accounting. `None` (the default) means "count
    /// while scanning".
    fn scan_bytes(&self, _table: &str) -> Option<u64> {
        None
    }

    /// The columns `table` is partitioned on across workers, if known.
    /// Distributed lowering uses this to skip redundant rehashes when a
    /// scan is already partitioned on the key an operator needs. `None`
    /// (the default) means "unknown" and forces a rehash where one might
    /// be needed — always safe.
    fn partition_cols(&self, _table: &str) -> Option<Vec<usize>> {
        None
    }
}

/// A simple in-memory provider.
#[derive(Debug, Clone, Default)]
pub struct MemTables {
    tables: HashMap<String, Vec<Tuple>>,
}

impl MemTables {
    /// Empty provider.
    pub fn new() -> MemTables {
        MemTables::default()
    }

    /// Register a table's rows.
    pub fn insert(&mut self, name: impl Into<String>, rows: Vec<Tuple>) {
        self.tables.insert(name.into(), rows);
    }
}

impl TableProvider for MemTables {
    fn scan(&self, table: &str) -> Result<Vec<Tuple>> {
        self.tables
            .get(table)
            .cloned()
            .ok_or_else(|| RexError::Storage(format!("no data registered for table {table}")))
    }
}

/// Options controlling physical lowering.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerOptions {
    /// Lower a worker-local plan for distributed execution: insert network
    /// boundaries wherever the stream's partitioning does not match what
    /// the consuming operator requires (see the module docs).
    pub distributed: bool,
}

impl LowerOptions {
    /// Options for a per-worker plan in the cluster.
    pub fn cluster() -> LowerOptions {
        LowerOptions { distributed: true }
    }
}

/// Whether the plan is a pure stateless chain — scans feeding only
/// filters and projections (pure ORDER BY on top included). Its thread
/// copies can split each scan by morsels because no operator holds keyed
/// state.
fn stateless_chain(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            stateless_chain(input)
        }
        LogicalPlan::Sort { input, fetch: None, offset: 0, .. } => stateless_chain(input),
        _ => false,
    }
}

/// Whether the plan may ride the column lane: scans, filters,
/// projections, handler-free joins, built-in aggregates and top-k — no
/// recursion, no handler join, no UDA. On such a plan every operator
/// either takes column batches natively or receives rows, so a scan
/// whose batches reach only native operators emits them as columns
/// (`Lowering::input` decides per scan).
fn column_lane(plan: &LogicalPlan, reg: &Registry) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => column_lane(input, reg),
        LogicalPlan::Join { left, right, handler, .. } => {
            handler.is_none() && column_lane(left, reg) && column_lane(right, reg)
        }
        LogicalPlan::Aggregate { input, aggs, .. } => {
            aggs.iter().all(|a| reg.agg(&a.func).is_ok_and(|h| h.is_builtin()))
                && column_lane(input, reg)
        }
        LogicalPlan::Fixpoint { .. } | LogicalPlan::FixpointRef { .. } => false,
    }
}

/// Whether every batch `plan`'s stream will *ever* carry is an insertion
/// when its scans read stored rows: scans, and filters, projections,
/// pure sorts and handler-free joins over such streams. A batch shows
/// its own annotations but not its port's future, so this is the one
/// lane fact lowering derives — for the join's probe-only shortcut (see
/// `HashJoinOp::with_insert_only_inputs`).
fn inserts_only(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, fetch: None, offset: 0, .. } => inserts_only(input),
        LogicalPlan::Join { left, right, handler: None, .. } => {
            inserts_only(left) && inserts_only(right)
        }
        _ => false,
    }
}

/// Lower a logical plan into a plan graph with a sink on the result.
pub fn lower(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    reg: &Registry,
) -> Result<PlanGraph> {
    lower_with(plan, provider, reg, LowerOptions::default())
}

/// Lower a logical plan with explicit [`LowerOptions`].
pub fn lower_with(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    reg: &Registry,
    opts: LowerOptions,
) -> Result<PlanGraph> {
    Ok(lower_graph(plan, provider, reg, opts, None)?.0)
}

/// Lower `plan` into a fresh graph with a sink on the result. Returns the
/// graph and the shard gates inserted into it (thread-parallel shard
/// mode only).
fn lower_graph<'a>(
    plan: &LogicalPlan,
    provider: &'a dyn TableProvider,
    reg: &'a Registry,
    opts: LowerOptions,
    parallel: Option<ParallelCtx<'a>>,
) -> Result<(PlanGraph, Vec<NodeId>)> {
    let mut g = PlanGraph::new();
    let lane = column_lane(plan, reg);
    let mut ctx = Lowering {
        g: &mut g,
        provider,
        reg,
        fixpoint: None,
        opts,
        lane,
        columnar: lane,
        parallel,
        fed_scans: None,
    };
    let (node, port, _) = ctx.node(plan)?;
    let gates = ctx.parallel.take().map(|p| p.gates).unwrap_or_default();
    let sink = g.add(Box::new(SinkOp::new()));
    g.connect(node, port, sink, 0);
    Ok((g, gates))
}

/// A plan lowered as a long-lived dataflow that is fed from outside: no
/// table data and no sink (see [`lower_dataflow`]).
pub struct Dataflow {
    /// The wired operators.
    pub graph: PlanGraph,
    /// Every scan node with its table name (lowercase), in lowering
    /// order. The scans hold no rows; a caller hands a batch for table
    /// `t` to the consumers of each of `t`'s scans
    /// ([`Executor::inject_downstream`](rex_core::exec::Executor::inject_downstream)).
    pub scans: Vec<(String, NodeId)>,
    /// The node and output port that carry the plan's result.
    pub root: (NodeId, usize),
}

/// Lower `plan` locally as a [`Dataflow`]: the same operators [`lower`]
/// builds, with empty scans and the result left on an open port. Batches
/// fed to the scans may carry deletes, so no join is promised
/// insert-only inputs. A fixpoint's step feeds back into it directly, with
/// no rehash, so the recursion loops inside the graph whatever executor
/// drives it.
pub fn lower_dataflow(plan: &LogicalPlan, reg: &Registry) -> Result<Dataflow> {
    /// Every table is empty: the rows arrive later, as batches.
    struct NoRows;
    impl TableProvider for NoRows {
        fn scan(&self, _table: &str) -> Result<Vec<Tuple>> {
            Ok(Vec::new())
        }
    }
    let mut graph = PlanGraph::new();
    let mut ctx = Lowering {
        g: &mut graph,
        provider: &NoRows,
        reg,
        fixpoint: None,
        opts: LowerOptions::default(),
        lane: false,
        columnar: false,
        parallel: None,
        fed_scans: Some(Vec::new()),
    };
    let (node, port, _) = ctx.node(plan)?;
    let scans = ctx.fed_scans.take().unwrap_or_default();
    Ok(Dataflow { graph, scans, root: (node, port) })
}

/// Minimum total scanned rows before thread-parallel lowering pays:
/// below this, thread spawn + merge overhead beats the saved work and
/// [`lower_parallel`] falls back to a single-threaded plan.
pub const PARALLEL_ROWS_MIN: usize = 4096;

/// How the thread copies of a parallel plan divide the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParallelMode {
    /// Pure stateless chains: sibling scans share an atomic morsel cursor
    /// over one snapshot, so each row is scanned by exactly one thread.
    Morsel,
    /// Plans with keyed state (joins, grouped aggregates): every thread
    /// scans everything and a [`ShardGateOp`] in front of each stateful
    /// operator keeps only the keys the thread owns, so hash state is
    /// disjoint and the per-row build/probe work parallelizes.
    Shard,
}

/// Per-thread-copy lowering state for parallel plans.
struct ParallelCtx<'a> {
    mode: ParallelMode,
    shard: usize,
    shards: usize,
    /// Morsel cursors, one per scan *position* in the plan, shared across
    /// the thread copies (created by the first copy, reused by the rest).
    cursors: &'a mut Vec<Arc<AtomicUsize>>,
    /// Scan positions encountered so far in this copy.
    next_cursor: usize,
    /// Shard gates inserted into this copy (for the serial-gate check).
    gates: Vec<NodeId>,
}

/// Whether `plan` can be lowered thread-parallel at all. Conservative by
/// construction: anything rejected here simply runs single-threaded.
///
/// * Fixpoints are out — a recursive step may move tuples across key
///   shards between strata, which requires a real exchange.
/// * Top-k (`ORDER BY … LIMIT` / bare `LIMIT`) is out — per-thread
///   partial top-k unions would over-select without a gather stage.
/// * Global (ungrouped) aggregates are out — they need all rows at one
///   site.
/// * Handler and key-less joins are out — there is no key to shard on,
///   and handler state transitions are order-sensitive.
fn parallel_eligible(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            parallel_eligible(input)
        }
        LogicalPlan::Sort { input, fetch: None, offset: 0, .. } => parallel_eligible(input),
        LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } => false,
        LogicalPlan::Join { left, right, left_key, handler, .. } => {
            handler.is_none()
                && !left_key.is_empty()
                && parallel_eligible(left)
                && parallel_eligible(right)
        }
        LogicalPlan::Aggregate { input, group_cols, .. } => {
            !group_cols.is_empty() && parallel_eligible(input)
        }
        LogicalPlan::Fixpoint { .. } | LogicalPlan::FixpointRef { .. } => false,
    }
}

/// Rough size of the rows a subtree delivers: the summed stored bytes of
/// every table it scans. Filters and projections are ignored — this is a
/// join build-side chooser, not a cardinality estimator — and `None` (an
/// unsized scan, or a fixpoint whose per-stratum volume is unknowable)
/// disables reordering.
fn subtree_bytes(plan: &LogicalPlan, provider: &dyn TableProvider) -> Option<u64> {
    match plan {
        LogicalPlan::Scan { table, .. } => provider.scan_bytes(table),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => subtree_bytes(input, provider),
        LogicalPlan::Join { left, right, .. } => {
            Some(subtree_bytes(left, provider)?.saturating_add(subtree_bytes(right, provider)?))
        }
        LogicalPlan::Fixpoint { .. } | LogicalPlan::FixpointRef { .. } => None,
    }
}

/// Every table the plan scans (with repeats).
fn plan_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Scan { table, .. } => out.push(table.clone()),
        LogicalPlan::FixpointRef { .. } => {}
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => plan_tables(input, out),
        LogicalPlan::Join { left, right, .. } => {
            plan_tables(left, out);
            plan_tables(right, out);
        }
        LogicalPlan::Fixpoint { base, step, .. } => {
            plan_tables(base, out);
            plan_tables(step, out);
        }
    }
}

/// A [`TableProvider`] wrapper that snapshots each table **once** and
/// hands every caller the same `Arc`. The thread copies of a parallel
/// plan must agree on the snapshot identity: morsel cursors index into
/// one shared row slice, and shard-mode threads must all see the same
/// rows.
struct SnapshotProvider<'a> {
    inner: &'a dyn TableProvider,
    cache: RefCell<HashMap<String, SharedRows>>,
}

/// One cached table snapshot, shareable across plan copies.
type SharedRows = Arc<dyn AsRef<[Tuple]> + Send + Sync>;

impl<'a> SnapshotProvider<'a> {
    fn new(inner: &'a dyn TableProvider) -> SnapshotProvider<'a> {
        SnapshotProvider { inner, cache: RefCell::new(HashMap::new()) }
    }

    fn snapshot(&self, table: &str) -> Result<SharedRows> {
        if let Some(s) = self.cache.borrow().get(table) {
            return Ok(s.clone());
        }
        let arc: SharedRows = match self.inner.scan_shared(table)? {
            ScanRows::Shared(s) => s,
            ScanRows::Owned(v) => Arc::new(v),
        };
        self.cache.borrow_mut().insert(table.to_string(), arc.clone());
        Ok(arc)
    }

    /// Row count of the (cached) snapshot.
    fn rows(&self, table: &str) -> Result<usize> {
        Ok((*self.snapshot(table)?).as_ref().len())
    }
}

impl TableProvider for SnapshotProvider<'_> {
    fn scan(&self, table: &str) -> Result<Vec<Tuple>> {
        Ok((*self.snapshot(table)?).as_ref().to_vec())
    }

    fn scan_shared(&self, table: &str) -> Result<ScanRows> {
        Ok(ScanRows::Shared(self.snapshot(table)?))
    }

    fn scan_bytes(&self, table: &str) -> Option<u64> {
        self.inner.scan_bytes(table)
    }

    fn partition_cols(&self, table: &str) -> Option<Vec<usize>> {
        self.inner.partition_cols(table)
    }
}

/// True when some shard gate can reach another gate downstream. Two
/// gates in series on different keys would each drop the other's rows —
/// a tuple owned by this thread at the first gate but another thread at
/// the second is produced by *nobody* — so such plans fall back to
/// single-threaded execution. (Gates on the same key in series cannot
/// occur: [`Lowering::ensure_partitioned`] skips the second.)
fn gate_reaches_gate(g: &PlanGraph, gates: &[NodeId]) -> bool {
    let gate_set: HashSet<NodeId> = gates.iter().copied().collect();
    for &start in gates {
        let mut seen = vec![false; g.len()];
        let mut q = VecDeque::from([start]);
        while let Some(n) = q.pop_front() {
            for s in g.successors(n) {
                if !seen[s] {
                    seen[s] = true;
                    if gate_set.contains(&s) {
                        return true;
                    }
                    q.push_back(s);
                }
            }
        }
    }
    false
}

/// Lower `plan` into `threads` parallel plan copies for
/// [`run_partitioned`](rex_core::exec::LocalRuntime::run_partitioned),
/// or `None` when the plan (or the data size) does not warrant threads —
/// the caller then lowers normally and runs single-threaded, which is
/// always correct.
///
/// The copies are built against one shared set of table snapshots. Pure
/// stateless chains run morsel-parallel (scans share an atomic cursor);
/// plans with keyed state run shard-parallel (a [`ShardGateOp`] in front
/// of every stateful operator keeps each thread's hash state disjoint).
/// Plans where sharding cannot be proven safe — serial gates on
/// different keys — fall back.
pub fn lower_parallel(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    reg: &Registry,
    opts: LowerOptions,
    threads: usize,
) -> Result<Option<Vec<PlanGraph>>> {
    if threads <= 1 || opts.distributed || !parallel_eligible(plan) {
        return Ok(None);
    }
    let snaps = SnapshotProvider::new(provider);
    let mut tables = Vec::new();
    plan_tables(plan, &mut tables);
    let mut total_rows = 0usize;
    for t in &tables {
        total_rows += snaps.rows(t)?;
    }
    if total_rows < PARALLEL_ROWS_MIN {
        return Ok(None);
    }
    let mode = if stateless_chain(plan) { ParallelMode::Morsel } else { ParallelMode::Shard };
    let mut cursors: Vec<Arc<AtomicUsize>> = Vec::new();
    let mut graphs = Vec::with_capacity(threads);
    for tid in 0..threads {
        let parallel = ParallelCtx {
            mode,
            shard: tid,
            shards: threads,
            cursors: &mut cursors,
            next_cursor: 0,
            gates: Vec::new(),
        };
        let (g, gates) = lower_graph(plan, &snaps, reg, opts, Some(parallel))?;
        // The copies are isomorphic, so the safety check on the first
        // settles them all.
        if tid == 0 && mode == ParallelMode::Shard && gate_reaches_gate(&g, &gates) {
            return Ok(None);
        }
        graphs.push(g);
    }
    Ok(Some(graphs))
}

/// How a lowered stream is partitioned across workers: `Some(cols)` when
/// every tuple lives on the owner of the hash of those columns, `None`
/// when unknown (forces a rehash wherever co-partitioning is required).
type Partitioning = Option<Vec<usize>>;

/// A lowered stream: `(node, output port, partitioning)`.
type Stream = (NodeId, usize, Partitioning);

struct Lowering<'a> {
    g: &'a mut PlanGraph,
    provider: &'a dyn TableProvider,
    reg: &'a Registry,
    /// While lowering a fixpoint step: the fixpoint node (whose output
    /// port 0 feeds [`LogicalPlan::FixpointRef`] consumers) and its key.
    fixpoint: Option<(NodeId, Vec<usize>)>,
    opts: LowerOptions,
    /// The plan fits the [`column_lane`].
    lane: bool,
    /// The subtree being lowered feeds an operator that takes column
    /// batches natively, so its scans emit `Event::Cols` (see
    /// [`input`](Lowering::input)).
    columnar: bool,
    /// Set while building one thread copy of a parallel plan (see
    /// [`lower_parallel`]); `None` for ordinary lowering.
    parallel: Option<ParallelCtx<'a>>,
    /// Set by [`lower_dataflow`]: the scans lowered so far. Such scans
    /// are fed from outside, deletes included, so they are not
    /// insert-only streams.
    fed_scans: Option<Vec<(String, NodeId)>>,
}

impl Lowering<'_> {
    /// In distributed mode, route `(node, port)` through a hash boundary on
    /// `key` unless the stream is already partitioned exactly on `key`.
    fn ensure_partitioned(
        &mut self,
        node: NodeId,
        port: usize,
        current: &Partitioning,
        key: &[usize],
    ) -> (NodeId, usize, Partitioning) {
        // Thread-parallel shard mode: wherever cluster lowering would
        // insert a rehash, insert a shard gate instead, so this thread's
        // copy keeps only the keys it owns (unless the stream is already
        // gated on exactly this key).
        if let Some(p) = self.parallel.as_mut() {
            if p.mode == ParallelMode::Shard && current.as_deref() != Some(key) {
                let gate = self.g.add(Box::new(ShardGateOp::new(key.to_vec(), p.shard, p.shards)));
                self.g.connect(node, port, gate, 0);
                p.gates.push(gate);
                return (gate, 0, Some(key.to_vec()));
            }
        }
        if !self.opts.distributed || current.as_deref() == Some(key) {
            return (node, port, current.clone());
        }
        let rh = self.g.add_rehash(key.to_vec());
        self.g.connect(node, port, rh, 0);
        (rh, 0, Some(key.to_vec()))
    }

    /// Lower a grouped or global aggregate over `(src, port)`, returning
    /// the node that emits `group cols ++ agg results`.
    ///
    /// Locally the group-by reads its input directly (through a shard gate
    /// in thread-parallel shard mode). Distributed, a keyed aggregate
    /// needs its input partitioned on the group key, and a global one
    /// needs every row at one worker, so rows cross a `Rehash` or the
    /// `Gather` — unless the input is already partitioned on the key.
    /// When every aggregate has a partial/final pair ([`agg_split`]), a
    /// partial group-by combines each worker's rows before the exchange
    /// and a merging group-by folds the partials after it: one row per
    /// touched group per stratum crosses instead of every input row.
    fn aggregate(
        &mut self,
        src: NodeId,
        port: usize,
        part: &Partitioning,
        group_cols: &[usize],
        aggs: &[AggCall],
    ) -> Result<NodeId> {
        let keyed = !group_cols.is_empty();
        if !self.opts.distributed || (keyed && part.as_deref() == Some(group_cols)) {
            let (s, p) = if keyed {
                let (s, p, _) = self.ensure_partitioned(src, port, part, group_cols);
                (s, p)
            } else {
                (src, port)
            };
            let gb = self.g.add(Box::new(GroupByOp::new(group_cols.to_vec(), self.specs(aggs)?)));
            self.g.connect(s, p, gb, 0);
            return Ok(gb);
        }
        let splits: Option<Vec<AggSplit>> = if aggs.is_empty() {
            None
        } else {
            aggs.iter().map(|a| agg_split(self.reg, &a.func)).collect::<Result<_>>()?
        };
        let (from, key) = match &splits {
            Some(splits) => {
                let specs = splits
                    .iter()
                    .zip(aggs)
                    .map(|(s, a)| AggSpec::new(s.partial.clone(), a.input_cols.clone()))
                    .collect();
                let partial = self.g.add(Box::new(GroupByOp::partial(group_cols.to_vec(), specs)));
                self.g.connect(src, port, partial, 0);
                // Partial rows lead with the group key.
                ((partial, 0), (0..group_cols.len()).collect())
            }
            None => ((src, port), group_cols.to_vec()),
        };
        let exchange = if keyed { self.g.add_rehash(key) } else { self.g.add_gather() };
        self.g.connect(from.0, from.1, exchange, 0);
        let gb = match splits {
            Some(splits) => {
                GroupByOp::merge(group_cols.len(), splits.into_iter().map(|s| s.merge).collect())
            }
            None => GroupByOp::new(group_cols.to_vec(), self.specs(aggs)?),
        };
        let gb = self.g.add(Box::new(gb));
        self.g.connect(exchange, 0, gb, 0);
        Ok(gb)
    }

    /// One whole-aggregate spec per call, handlers resolved in the registry.
    fn specs(&self, aggs: &[AggCall]) -> Result<Vec<AggSpec>> {
        aggs.iter()
            .map(|a| Ok(AggSpec::new(self.reg.agg(&a.func)?, a.input_cols.clone())))
            .collect()
    }

    /// Lower a top-k selection (`ORDER BY … LIMIT n OFFSET m`, or a bare
    /// `LIMIT` with no keys — deterministic in total tuple order).
    ///
    /// Locally this is one buffering [`TopKOp`]. Distributed, it is the
    /// scatter/gather top-k: each worker keeps its best `fetch + offset`
    /// rows (a *partial* sort — no offset applied yet), the partials
    /// funnel through a [`NetKey::Gather`](rex_core::exec::NetKey)
    /// boundary to one deterministic worker, and a *final* top-k there
    /// applies the true offset and limit over the union.
    fn topk(
        &mut self,
        input: &LogicalPlan,
        keys: &[SortKey],
        fetch: Option<u64>,
        offset: u64,
    ) -> Result<Stream> {
        let (src, port, _) = self.input(input, false)?;
        let specs: Vec<SortSpec> =
            keys.iter().map(|k| SortSpec { expr: k.expr.clone(), desc: k.desc }).collect();
        if self.opts.distributed {
            let local_cap = fetch.map(|f| (f + offset) as usize);
            let partial = self.g.add(Box::new(TopKOp::new(specs.clone(), local_cap, 0)));
            self.g.connect(src, port, partial, 0);
            let gather = self.g.add_gather();
            self.g.connect(partial, 0, gather, 0);
            let fin = self.g.add(Box::new(TopKOp::new(
                specs,
                fetch.map(|f| f as usize),
                offset as usize,
            )));
            self.g.connect(gather, 0, fin, 0);
            Ok((fin, 0, None))
        } else {
            let id = self.g.add(Box::new(TopKOp::new(
                specs,
                fetch.map(|f| f as usize),
                offset as usize,
            )));
            self.g.connect(src, port, id, 0);
            Ok((id, 0, None))
        }
    }

    /// Lower `plan` as the input of an operator that does (`cols`) or
    /// does not take column batches natively. Filters, projections,
    /// shard gates, a group-by's whole and partial parts and a join's
    /// probe-only side do, and emit columns for columns; a join side that
    /// is stored, an exchange, top-k and a merge do not. A scan emits
    /// columns only when every operator its batches reach before such a
    /// consumer is native, since materializing rows out of columns costs
    /// more than sharing the stored tuples.
    fn input(&mut self, plan: &LogicalPlan, cols: bool) -> Result<Stream> {
        let outer = std::mem::replace(&mut self.columnar, self.lane && cols);
        let stream = self.node(plan);
        self.columnar = outer;
        stream
    }

    /// Lower `plan`, returning its result [`Stream`].
    fn node(&mut self, plan: &LogicalPlan) -> Result<Stream> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                let rows = self.provider.scan_shared(table)?;
                let mut scan = ScanOp::new(table.clone(), rows)
                    .columnar(self.columnar)
                    .known_bytes(self.provider.scan_bytes(table));
                // Morsel-parallel copies split each scan over a cursor
                // shared with the sibling copies; the cursor for the n-th
                // scan in the plan is created by the first copy and reused
                // by the rest (the copies are isomorphic, so scan
                // encounter order identifies the scan).
                if let Some(p) = self.parallel.as_mut() {
                    if p.mode == ParallelMode::Morsel {
                        let idx = p.next_cursor;
                        p.next_cursor += 1;
                        if idx == p.cursors.len() {
                            p.cursors.push(Arc::new(AtomicUsize::new(0)));
                        }
                        scan = scan.morsel_cursor(p.cursors[idx].clone(), MORSEL_ROWS);
                    }
                }
                let id = self.g.add(Box::new(scan));
                let part =
                    if self.opts.distributed { self.provider.partition_cols(table) } else { None };
                if let Some(scans) = &mut self.fed_scans {
                    scans.push((table.to_ascii_lowercase(), id));
                }
                Ok((id, 0, part))
            }
            LogicalPlan::FixpointRef { name, .. } => {
                let (fp, key) = self.fixpoint.clone().ok_or_else(|| {
                    RexError::Plan(format!("recursive relation {name} referenced outside WITH"))
                })?;
                Ok((fp, 0, Some(key)))
            }
            LogicalPlan::Filter { input, predicate } => {
                let (src, port, part) = self.node(input)?;
                let id = self.g.add(Box::new(FilterOp::new(predicate.clone())));
                self.g.connect(src, port, id, 0);
                Ok((id, 0, part))
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let (src, port, part) = self.node(input)?;
                let id = self.g.add(Box::new(ProjectOp::new(exprs.clone())));
                self.g.connect(src, port, id, 0);
                Ok((id, 0, remap_partitioning(&part, exprs)))
            }
            LogicalPlan::Join { left, right, left_key, right_key, handler, .. } => {
                // Build-side selection. The executor starts sources in
                // creation order, so the subtree lowered *first* is fully
                // delivered — and EOS-punctuated — before the other side
                // streams through the join. A join of insert-only inputs
                // then skips storing the streaming side entirely
                // (`HashJoinOp` probes without building state once the
                // opposite port has seen EOS), so lowering the smaller
                // input first keeps the resident build table the small,
                // cache-friendly one. Port wiring (and therefore the fused
                // row layout) is unchanged; only arrival order moves. Ties
                // and unsized inputs keep the left-first default.
                let build_right = matches!(
                    (
                        subtree_bytes(left, self.provider),
                        subtree_bytes(right, self.provider),
                    ),
                    (Some(lb), Some(rb)) if rb < lb
                );
                // A handler emits whatever it likes; without one,
                // insertions in are insertions out.
                let ins = handler.is_none()
                    && self.fed_scans.is_none()
                    && inserts_only(left)
                    && inserts_only(right);
                // The stored side arrives as rows, whose tuples the build
                // table shares; the side that then runs probe-only takes
                // columns when this join's consumer does.
                let probe_cols = ins && !self.opts.distributed && self.columnar;
                let ((l, lp, lpart), (r, rp, rpart)) = if build_right {
                    let rnode = self.input(right, false)?;
                    (self.input(left, probe_cols)?, rnode)
                } else {
                    let lnode = self.input(left, false)?;
                    (lnode, self.input(right, probe_cols)?)
                };
                let (l, lp, r, rp, out_part) = if left_key.is_empty() {
                    // Key-less (handler broadcast) join: replicate the
                    // recursive side everywhere, keep the stored side
                    // partitioned so each pair is formed exactly once.
                    if self.opts.distributed {
                        let bc_right = contains_fixpoint_ref(right) || !contains_fixpoint_ref(left);
                        if bc_right {
                            let bc = self.g.add_rehash(Vec::new());
                            self.g.connect(r, rp, bc, 0);
                            (l, lp, bc, 0, None)
                        } else {
                            let bc = self.g.add_rehash(Vec::new());
                            self.g.connect(l, lp, bc, 0);
                            (bc, 0, r, rp, None)
                        }
                    } else {
                        (l, lp, r, rp, None)
                    }
                } else {
                    // Equi-join: co-partition both inputs on the join key.
                    let (l, lp, _) = self.ensure_partitioned(l, lp, &lpart, left_key);
                    let (r, rp, _) = self.ensure_partitioned(r, rp, &rpart, right_key);
                    // Output rows carry the left input's columns at their
                    // original indices, so the result stays partitioned on
                    // the left key (for a plain join; a handler join
                    // rewrites the row shape entirely).
                    let part = if handler.is_none() { Some(left_key.clone()) } else { None };
                    (l, lp, r, rp, part)
                };
                let mut join = HashJoinOp::new(left_key.clone(), right_key.clone());
                if let Some(h) = handler {
                    join = join.with_handler(self.reg.join(h)?);
                }
                if ins {
                    join = join.with_insert_only_inputs();
                }
                let id = self.g.add(Box::new(join));
                self.g.connect(l, lp, id, 0);
                self.g.connect(r, rp, id, 1);
                Ok((id, 0, out_part))
            }
            LogicalPlan::Aggregate { input, group_cols, aggs, post, .. } => {
                // The group-by reads its input directly unless a cluster
                // exchange without a partial part sits in between.
                let direct = !self.opts.distributed
                    || aggs.iter().all(|a| matches!(agg_split(self.reg, &a.func), Ok(Some(_))));
                let (src, port, part) = self.input(input, direct)?;
                let gb = self.aggregate(src, port, &part, group_cols, aggs)?;
                // Aggregate output = group cols ++ agg results: partitioned
                // on the leading group columns.
                let gb_part: Partitioning = if group_cols.is_empty() {
                    None
                } else {
                    Some((0..group_cols.len()).collect())
                };
                match post {
                    Some(exprs) => {
                        let proj = self.g.add(Box::new(ProjectOp::new(exprs.clone())));
                        self.g.connect(gb, 0, proj, 0);
                        Ok((proj, 0, remap_partitioning(&gb_part, exprs)))
                    }
                    None => Ok((gb, 0, gb_part)),
                }
            }
            LogicalPlan::Sort { input, keys, fetch, offset } => {
                // A pure ORDER BY constrains nothing about the result
                // *multiset*; presentation ordering is applied by the
                // session over the final rows. Only a fused LIMIT/OFFSET
                // (top-k) needs a dataflow operator.
                if fetch.is_none() && *offset == 0 {
                    self.node(input)
                } else {
                    self.topk(input, keys, *fetch, *offset)
                }
            }
            LogicalPlan::Limit { input, fetch, offset } => {
                // An unfused LIMIT directly above an ORDER BY must still
                // select rows in that order (the optimizer normally fuses
                // the pair, but unoptimized plans lower correctly too).
                let (keys, inner): (&[SortKey], &LogicalPlan) = match input.as_ref() {
                    LogicalPlan::Sort { input: si, keys, fetch: None, offset: 0 } => {
                        (keys.as_slice(), si)
                    }
                    other => (&[], other),
                };
                self.topk(inner, keys, Some(*fetch), *offset)
            }
            LogicalPlan::Fixpoint { key_cols, base, step, .. } => {
                let (b, bport, bpart) = self.node(base)?;
                // The base case must arrive partitioned on the fixpoint key
                // so each worker's mutable set holds exactly its keys.
                let (b, bport, _) = self.ensure_partitioned(b, bport, &bpart, key_cols);
                // Run to convergence: a recursion that never converges
                // fails at the runtime's `MAX_STRATA` instead of returning
                // a truncated answer.
                let fp =
                    self.g.add(Box::new(FixpointOp::new(key_cols.clone(), Termination::Fixpoint)));
                self.g.connect(b, bport, fp, 0);
                let prev = self.fixpoint.replace((fp, key_cols.clone()));
                let (s, sport, _) = self.node(step)?;
                self.fixpoint = prev;
                // Step results re-enter the fixpoint keyed on its key. A fed
                // dataflow runs on one node behind a distributed executor
                // (its root gather is the view boundary), where a network
                // rehash would divert the feedback into the caller's outbox
                // instead of looping it back: wire the step straight in.
                if self.fed_scans.is_some() {
                    self.g.connect(s, sport, fp, 1);
                } else {
                    let rehash = self.g.add_rehash(key_cols.clone());
                    self.g.connect(s, sport, rehash, 0);
                    self.g.connect(rehash, 0, fp, 1);
                }
                Ok((fp, 1, Some(key_cols.clone())))
            }
        }
    }
}

/// Partitioning after a projection: the partition columns survive iff each
/// appears as a plain column reference, in order, in the output.
fn remap_partitioning(part: &Partitioning, exprs: &[Expr]) -> Partitioning {
    let cols = part.as_ref()?;
    let mut out = Vec::with_capacity(cols.len());
    for &c in cols {
        let pos = exprs.iter().position(|e| matches!(e, Expr::Col(i) if *i == c))?;
        out.push(pos);
    }
    Some(out)
}

/// Whether a subtree reads the enclosing recursive relation.
fn contains_fixpoint_ref(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::FixpointRef { .. } => true,
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => contains_fixpoint_ref(input),
        LogicalPlan::Join { left, right, .. } => {
            contains_fixpoint_ref(left) || contains_fixpoint_ref(right)
        }
        // A nested fixpoint's step reads its *own* relation, not ours.
        LogicalPlan::Fixpoint { base, .. } => contains_fixpoint_ref(base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::plan_text;
    use crate::resolve::SchemaCatalog;
    use rex_core::exec::LocalRuntime;
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;

    fn edge_catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.register("edges", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]));
        c
    }

    fn edge_tables() -> MemTables {
        let mut m = MemTables::new();
        // A path 0 -> 1 -> 2 -> 3 plus a shortcut 0 -> 2.
        m.insert(
            "edges",
            vec![tuple![0i64, 1i64], tuple![1i64, 2i64], tuple![2i64, 3i64], tuple![0i64, 2i64]],
        );
        m
    }

    #[test]
    fn filter_and_project_execute() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT dst FROM edges WHERE src = 0", &edge_catalog(), &reg).unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(results, vec![tuple![1i64], tuple![2i64]]);
    }

    #[test]
    fn aggregation_executes() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT src, count(*) FROM edges GROUP BY src", &edge_catalog(), &reg)
                .unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(results, vec![tuple![0i64, 2i64], tuple![1i64, 1i64], tuple![2i64, 1i64]]);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT sum(dst), count(*) FROM edges WHERE src > 0", &edge_catalog(), &reg)
                .unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (results, _) = LocalRuntime::new().run(g).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get(0).as_double(), Some(5.0));
        assert_eq!(results[0].get(1).as_int(), Some(2));
    }

    #[test]
    fn self_join_executes() {
        let reg = Registry::with_builtins();
        let mut c = edge_catalog();
        c.register("edges2", Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]));
        let mut m = edge_tables();
        m.insert("edges2", m.scan("edges").unwrap());
        // Two-hop pairs: e1.dst = e2.src.
        let g = lower(
            &plan_text("SELECT a.src, b.dst FROM edges a, edges2 b WHERE a.dst = b.src", &c, &reg)
                .unwrap(),
            &m,
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(
            results,
            vec![
                tuple![0i64, 2i64], // 0->1->2
                tuple![0i64, 3i64], // 0->2->3
                tuple![1i64, 3i64], // 1->2->3
            ]
        );
    }

    /// Transitive closure from a seed using pure RQL recursion: reach(x)
    /// holds the frontier distance... here simply reachable node ids.
    #[test]
    fn recursive_reachability_via_rql() {
        let reg = Registry::with_builtins();
        let mut c = edge_catalog();
        c.register("seed", Schema::of(&[("id", DataType::Int)]));
        let mut m = edge_tables();
        m.insert("seed", vec![tuple![0i64]]);
        let src = "
            WITH reach (id) AS (
              SELECT id FROM seed
            ) UNION UNTIL FIXPOINT BY id (
              SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id
            )";
        let g = lower(&plan_text(src, &c, &reg).unwrap(), &m, &reg).unwrap();
        let (mut results, report) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(results, vec![tuple![0i64], tuple![1i64], tuple![2i64], tuple![3i64]]);
        // Recursion ran multiple strata and converged.
        assert!(report.iterations() >= 3);
        assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn order_by_limit_executes_as_topk() {
        let reg = Registry::with_builtins();
        // Unoptimized Limit-above-Sort must still select in ORDER BY
        // order (the lowering fuses the pair itself).
        let g = lower(
            &plan_text(
                "SELECT src, dst FROM edges ORDER BY dst DESC LIMIT 2",
                &edge_catalog(),
                &reg,
            )
            .unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        // dst values {1, 2, 2, 3}: top-2 descending is 3 ([2,3]) then the
        // dst=2 tie, broken by full-tuple order ([0,2] < [1,2]).
        assert_eq!(results, vec![tuple![0i64, 2i64], tuple![2i64, 3i64]]);
    }

    #[test]
    fn limit_without_order_is_a_deterministic_prefix() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT src FROM edges LIMIT 2 OFFSET 1", &edge_catalog(), &reg).unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        // Tuple-order multiset {0,0,1,2} → skip 1, take 2.
        assert_eq!(results, vec![tuple![0i64], tuple![1i64]]);
    }

    #[test]
    fn distinct_executes_via_group_by() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT DISTINCT src FROM edges", &edge_catalog(), &reg).unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(results, vec![tuple![0i64], tuple![1i64], tuple![2i64]]);
    }

    #[test]
    fn having_filters_groups() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text(
                "SELECT src, count(*) FROM edges GROUP BY src HAVING count(*) > 1",
                &edge_catalog(),
                &reg,
            )
            .unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (results, _) = LocalRuntime::new().run(g).unwrap();
        assert_eq!(results, vec![tuple![0i64, 2i64]]);
    }

    #[test]
    fn expression_aggregates_execute() {
        let reg = Registry::with_builtins();
        let g = lower(
            &plan_text("SELECT src, sum(dst * dst) FROM edges GROUP BY src", &edge_catalog(), &reg)
                .unwrap(),
            &edge_tables(),
            &reg,
        )
        .unwrap();
        let (mut results, _) = LocalRuntime::new().run(g).unwrap();
        results.sort();
        assert_eq!(results, vec![tuple![0i64, 5.0f64], tuple![1i64, 4.0f64], tuple![2i64, 9.0f64]]);
    }

    #[test]
    fn missing_table_data_is_reported() {
        let reg = Registry::with_builtins();
        let err = match lower(
            &plan_text("SELECT dst FROM edges", &edge_catalog(), &reg).unwrap(),
            &MemTables::new(),
            &reg,
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected missing-data error"),
        };
        assert!(err.to_string().contains("no data registered"));
    }

    /// A catalog + tables big enough to clear [`PARALLEL_ROWS_MIN`].
    fn big_fixture() -> (SchemaCatalog, MemTables) {
        let mut c = SchemaCatalog::new();
        c.register("nums", Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]));
        c.register("other", Schema::of(&[("k", DataType::Int), ("w", DataType::Int)]));
        let mut m = MemTables::new();
        m.insert("nums", (0..8000i64).map(|i| tuple![i, i % 97]).collect());
        m.insert("other", (0..8000i64).map(|i| tuple![i % 500, i]).collect());
        (c, m)
    }

    fn single_thread_sorted(
        plan: &LogicalPlan,
        m: &MemTables,
        reg: &Registry,
    ) -> Vec<rex_core::tuple::Tuple> {
        let g = lower(plan, m, reg).unwrap();
        let (mut rows, _) = LocalRuntime::new().run(g).unwrap();
        rex_core::tuple::sort_rows(&mut rows);
        rows
    }

    #[test]
    fn parallel_morsel_chain_matches_single_thread() {
        let reg = Registry::with_builtins();
        let (c, m) = big_fixture();
        let plan = crate::logical::plan_text("SELECT v FROM nums WHERE v > 50", &c, &reg).unwrap();
        let graphs = lower_parallel(&plan, &m, &reg, LowerOptions::default(), 4).unwrap().unwrap();
        assert_eq!(graphs.len(), 4);
        let (rows, report, _) = LocalRuntime::new().run_partitioned(graphs).unwrap();
        assert_eq!(rows, single_thread_sorted(&plan, &m, &reg));
        assert!(report.totals.tuples_processed > 0);
    }

    #[test]
    fn parallel_shard_join_group_matches_single_thread() {
        let reg = Registry::with_builtins();
        let (c, m) = big_fixture();
        // Grouping on the join key keeps one gate per path: the join
        // output is already gated on a.k, so the aggregate adds none.
        let plan = crate::logical::plan_text(
            "SELECT a.k, count(*) FROM nums a, other b WHERE a.k = b.k GROUP BY a.k",
            &c,
            &reg,
        )
        .unwrap();
        let graphs = lower_parallel(&plan, &m, &reg, LowerOptions::default(), 3).unwrap().unwrap();
        assert_eq!(graphs.len(), 3);
        // Shard mode: the copies carry gates, visible in the explain.
        assert!(graphs[0].explain().contains("ShardGate"));
        let (rows, _, _) = LocalRuntime::new().run_partitioned(graphs).unwrap();
        assert_eq!(rows, single_thread_sorted(&plan, &m, &reg));
    }

    #[test]
    fn parallel_group_alone_matches_single_thread() {
        let reg = Registry::with_builtins();
        let (c, m) = big_fixture();
        let plan =
            crate::logical::plan_text("SELECT v, sum(k) FROM nums GROUP BY v", &c, &reg).unwrap();
        let graphs = lower_parallel(&plan, &m, &reg, LowerOptions::default(), 2).unwrap().unwrap();
        let (rows, _, _) = LocalRuntime::new().run_partitioned(graphs).unwrap();
        assert_eq!(rows, single_thread_sorted(&plan, &m, &reg));
    }

    #[test]
    fn serial_gates_on_different_keys_fall_back() {
        let reg = Registry::with_builtins();
        let (c, m) = big_fixture();
        // Join gated on a.k, then grouping on b.w: a second gate in
        // series on a different key would drop rows whose two keys hash
        // to different shards, so this plan must refuse to parallelize.
        let plan = crate::logical::plan_text(
            "SELECT b.w, count(*) FROM nums a, other b WHERE a.k = b.k GROUP BY b.w",
            &c,
            &reg,
        )
        .unwrap();
        assert!(lower_parallel(&plan, &m, &reg, LowerOptions::default(), 4).unwrap().is_none());
    }

    #[test]
    fn parallel_lowering_falls_back_when_ineligible() {
        let reg = Registry::with_builtins();
        let (c, m) = big_fixture();
        let plan = |src: &str| crate::logical::plan_text(src, &c, &reg).unwrap();
        let try_par = |p: &LogicalPlan, threads: usize| {
            lower_parallel(p, &m, &reg, LowerOptions::default(), threads).unwrap()
        };
        // One thread: nothing to parallelize.
        assert!(try_par(&plan("SELECT v FROM nums"), 1).is_none());
        // Top-k needs a gather stage.
        assert!(try_par(&plan("SELECT v FROM nums ORDER BY v LIMIT 5"), 4).is_none());
        // Global aggregates need all rows at one site.
        assert!(try_par(&plan("SELECT count(*) FROM nums"), 4).is_none());
        // Distributed lowering has its own (cluster) parallelism.
        assert!(
            try_par_opts(&plan("SELECT v FROM nums"), LowerOptions::cluster(), &m, &reg).is_none()
        );
        // Recursion moves tuples across shards between strata.
        let mut c2 = edge_catalog();
        c2.register("seed", Schema::of(&[("id", DataType::Int)]));
        let mut m2 = edge_tables();
        m2.insert("seed", (0..5000i64).map(|i| tuple![i]).collect());
        let fp = crate::logical::plan_text(
            "WITH reach (id) AS (SELECT id FROM seed) UNION UNTIL FIXPOINT BY id (
               SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id)",
            &c2,
            &reg,
        )
        .unwrap();
        assert!(lower_parallel(&fp, &m2, &reg, LowerOptions::default(), 4).unwrap().is_none());
        // Tiny inputs are not worth the thread spawn.
        let (ce, me) = (edge_catalog(), edge_tables());
        let small = crate::logical::plan_text("SELECT dst FROM edges", &ce, &reg).unwrap();
        assert!(lower_parallel(&small, &me, &reg, LowerOptions::default(), 4).unwrap().is_none());
    }

    fn try_par_opts(
        p: &LogicalPlan,
        opts: LowerOptions,
        m: &MemTables,
        reg: &Registry,
    ) -> Option<Vec<PlanGraph>> {
        lower_parallel(p, m, reg, opts, 4).unwrap()
    }
}
