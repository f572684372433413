//! Plan graphs and the push-based executor.
//!
//! A [`PlanGraph`] wires operators into a dataflow; the [`Executor`]
//! delivers events along edges, depth-first, until quiescence. Recursion is
//! driven by a requestor (§4.2) that starts the first stratum once the
//! drain is quiescent, and after each stratum collects the fixpoint
//! operators' new-tuple counts and decides whether to advance to another
//! stratum or converge. On one node that loop is
//! [`Executor::run_strata`], which serves both queries ([`LocalRuntime`])
//! and the batches of a long-lived view dataflow; the cluster runtime in
//! `rex-cluster` plays the same role across workers. Both take the vote
//! itself from one function, [`stratum_vote`].

use crate::delta::Punctuation;
use crate::error::{Result, RexError};
use crate::metrics::{CostModel, ExecMetrics, QueryReport, StratumReport};
use crate::operators::{Event, FixpointOp, OpCtx, Operator};
use crate::telemetry::{ExecTrace, OpStats};
use crate::tuple::Tuple;
use crate::udf::Registry;
use std::collections::VecDeque;
use std::time::Instant;

/// Rows carried by an event, for telemetry accounting.
#[inline]
fn event_rows(e: &Event) -> u64 {
    match e {
        Event::Data(d) => d.len() as u64,
        Event::Rows(r) => r.len() as u64,
        Event::Cols(b) => b.len() as u64,
        Event::Punct(_) => 0,
    }
}

/// Node identifier within a plan graph.
pub type NodeId = usize;

/// How a network-boundary node's emissions are routed among workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetKey {
    /// Partition by the hash of these key columns; each delta is delivered
    /// to the key's owner under the query's partition snapshot.
    Hash(Vec<usize>),
    /// Replicate every delta to all live workers (small relations joined
    /// against everything, e.g. K-means centroids).
    Broadcast,
    /// Deliver every delta to one deterministic worker — the owner of the
    /// empty key. Used for global (ungrouped) aggregates, which must
    /// combine all partitions' tuples at a single site.
    Gather,
}

/// A dataflow graph of operators.
///
/// Edges connect `(node, output port)` to `(node, input port)`. Nodes may be
/// marked as *network boundaries* (rehash operators): in distributed
/// execution their emissions are intercepted by the cluster router instead
/// of being delivered locally.
pub struct PlanGraph {
    nodes: Vec<Box<dyn Operator>>,
    /// For each node: `Some(key)` when it is a rehash/network boundary.
    network: Vec<Option<NetKey>>,
    /// node → out port → list of (dst node, dst port).
    edges: Vec<Vec<Vec<(NodeId, usize)>>>,
}

impl Default for PlanGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanGraph {
    /// An empty graph.
    pub fn new() -> PlanGraph {
        PlanGraph { nodes: Vec::new(), network: Vec::new(), edges: Vec::new() }
    }

    /// Add an operator; returns its node id.
    pub fn add(&mut self, op: Box<dyn Operator>) -> NodeId {
        self.nodes.push(op);
        self.network.push(None);
        self.edges.push(vec![Vec::new(); 4]);
        self.nodes.len() - 1
    }

    /// Add a rehash operator, marking it as a network boundary keyed on
    /// `key_cols` (of the tuples flowing through it). An empty key is a
    /// broadcast boundary, preserving the engine's long-standing
    /// convention.
    pub fn add_rehash(&mut self, key_cols: Vec<usize>) -> NodeId {
        let net =
            if key_cols.is_empty() { NetKey::Broadcast } else { NetKey::Hash(key_cols.clone()) };
        let id = self.add(Box::new(crate::operators::RehashOp::new(key_cols)));
        self.network[id] = Some(net);
        id
    }

    /// Add a gather boundary: all deltas flow to one deterministic worker.
    pub fn add_gather(&mut self) -> NodeId {
        let id = self.add(Box::new(crate::operators::RehashOp::new(Vec::new())));
        self.network[id] = Some(NetKey::Gather);
        id
    }

    /// Connect `from`'s output port to `to`'s input port.
    pub fn connect(&mut self, from: NodeId, from_port: usize, to: NodeId, to_port: usize) {
        self.edges[from][from_port].push((to, to_port));
    }

    /// Convenience: connect output port 0 to input port 0.
    pub fn pipe(&mut self, from: NodeId, to: NodeId) {
        self.connect(from, 0, to, 0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// All direct successors of `node`, across every output port. Plan
    /// analyses (e.g. checking that no thread-shard gate feeds another)
    /// walk the graph through this without touching the operators.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges[node].iter().flat_map(|dsts| dsts.iter().map(|&(d, _)| d)).collect()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Render the plan for debugging / EXPLAIN output.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let net = if self.network[i].is_some() { " [network]" } else { "" };
            s.push_str(&format!("#{i} {}{}\n", n.name(), net));
            for (port, dsts) in self.edges[i].iter().enumerate() {
                for (dst, dport) in dsts {
                    s.push_str(&format!("   out{port} -> #{dst}.in{dport}\n"));
                }
            }
        }
        s
    }
}

/// An emission crossing a network boundary, to be routed by the cluster.
#[derive(Debug, Clone)]
pub struct NetEmission {
    /// The rehash node that produced it.
    pub node: NodeId,
    /// The rehash node's output port.
    pub port: usize,
    /// The payload.
    pub event: Event,
}

/// Executes one worker's copy of a plan graph.
pub struct Executor {
    nodes: Vec<Box<dyn Operator>>,
    network: Vec<Option<NetKey>>,
    edges: Vec<Vec<Vec<(NodeId, usize)>>>,
    queue: VecDeque<(NodeId, usize, Event)>,
    /// Sources [`start`](Executor::start)ed and not yet exhausted, in node
    /// order; the drain pulls the first one whenever the queue runs dry.
    sources: VecDeque<NodeId>,
    /// Worker-local metrics.
    pub metrics: ExecMetrics,
    /// `metrics` as of the last stratum [`run_strata`](Executor::run_strata)
    /// reported.
    reported: ExecMetrics,
    /// The stratum clock: operators see it as [`OpCtx::stratum`], and every
    /// `EndOfStratum` this executor's runtime injects carries it.
    stratum: u64,
    worker: usize,
    distributed: bool,
    /// Per-node telemetry records; `None` when tracing is off (the hot
    /// loop then pays one discriminant check per event).
    trace: Option<Vec<OpStats>>,
}

impl Executor {
    /// Build an executor over `graph`. `distributed` controls whether
    /// network-boundary emissions are diverted to the outbox.
    pub fn new(graph: PlanGraph, worker: usize, distributed: bool) -> Executor {
        Executor {
            nodes: graph.nodes,
            network: graph.network,
            edges: graph.edges,
            queue: VecDeque::new(),
            sources: VecDeque::new(),
            metrics: ExecMetrics::default(),
            reported: ExecMetrics::default(),
            stratum: 0,
            worker,
            distributed,
            trace: None,
        }
    }

    /// Set the stratum number reported to operators.
    pub fn set_stratum(&mut self, s: u64) {
        self.stratum = s;
    }

    /// Toggle per-operator telemetry. Enabling allocates the per-node
    /// stats vector once (names snapshotted now); disabling drops any
    /// collected counters.
    pub fn set_telemetry(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(
                    self.nodes
                        .iter()
                        .map(|n| OpStats { name: n.name(), ..Default::default() })
                        .collect(),
                );
            }
        } else {
            self.trace = None;
        }
    }

    /// Take the collected trace, harvesting each operator's detail
    /// counters and the plan topology. `None` when telemetry is off.
    /// Tracing stays enabled (with fresh counters) only if re-enabled via
    /// [`set_telemetry`](Executor::set_telemetry).
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        let mut ops = self.trace.take()?;
        for (i, op) in ops.iter_mut().enumerate() {
            op.detail = self.nodes[i].stats_detail();
            // One executor = one thread of execution; merging worker or
            // thread traces sums these into the true thread count.
            op.threads = 1;
            // Morsel counts are first-class, not detail.
            if let Some(pos) = op.detail.iter().position(|(k, _)| k == "morsels") {
                op.morsels = op.detail.remove(pos).1;
            }
        }
        let edges = self
            .edges
            .iter()
            .map(|ports| {
                ports
                    .iter()
                    .enumerate()
                    .flat_map(|(port, dsts)| dsts.iter().map(move |&(d, dp)| (port, d, dp)))
                    .collect()
            })
            .collect();
        let network = self.network.iter().map(Option::is_some).collect();
        Some(ExecTrace { ops, edges, network, iteration_deltas: Vec::new(), wall_seconds: 0.0 })
    }

    /// Routing mode of a network node.
    pub fn network_key(&self, node: NodeId) -> Option<&NetKey> {
        self.network.get(node).and_then(|k| k.as_ref())
    }

    /// Ids of all network-boundary nodes.
    pub fn network_nodes(&self) -> Vec<NodeId> {
        self.network.iter().enumerate().filter_map(|(i, k)| k.as_ref().map(|_| i)).collect()
    }

    /// Start every source operator (scan), in node order. Nothing is read
    /// yet: [`drain`](Executor::drain) pulls one batch (or morsel) from
    /// the first unexhausted source each time its queue runs dry, so a
    /// query holds one scan batch's cascade at a time instead of every
    /// batch of every scan. Depth-first draining already finished each
    /// batch's cascade before taking the next, so the delivery order is
    /// the one queueing every batch up front would give.
    pub fn start(&mut self) {
        self.sources = (0..self.nodes.len()).filter(|&i| self.nodes[i].is_source()).collect();
    }

    /// Deliver an event directly to a node's input port (cluster receive
    /// path, test harnesses).
    pub fn inject(&mut self, node: NodeId, port: usize, event: Event) {
        self.queue.push_back((node, port, event));
    }

    /// Deliver an event to the downstream edges of `node`'s output `port`,
    /// as if the node had emitted it locally. Used by the cluster router to
    /// hand received network traffic to the rehash's consumers. The edge
    /// list is walked in place and the event cloned only for fan-out
    /// beyond the first destination.
    pub fn inject_downstream(&mut self, node: NodeId, port: usize, event: Event) {
        fan_out(&mut self.queue, &self.edges[node][port], event);
    }

    /// Process queued events — and the started sources' batches — until
    /// quiescence. Network emissions are appended to `outbox`.
    ///
    /// **Depth-first.** An activation's outputs go to the *front* of the
    /// queue, in emission order, so each batch is pushed through to the
    /// sink (or the next stateful barrier) before the next input batch is
    /// taken — the pipelined push of §3.2. Order on every edge stays FIFO:
    /// everything queued ahead of a node's output descends from that same
    /// activation, so in an acyclic plan the node cannot run again before
    /// its earlier output is consumed; the only cycles pass through
    /// fixpoints, which emit only when the runtime drives them. A source
    /// is pulled for its next batch only when the queue is empty. A
    /// query's live intermediate is therefore O(batch × plan depth) rather
    /// than the size of its largest intermediate relation or of its scans.
    /// Order *across* edges is not FIFO, and nothing may depend on it:
    /// recursion is started by the runtime after quiescence
    /// ([`start_fixpoint`](Executor::start_fixpoint)), never by a
    /// punctuation racing queued batches.
    ///
    /// The hot loop constructs a single [`OpCtx`] whose emission buffer is
    /// drained — not reallocated — after every operator activation, and
    /// hands events downstream without cloning edge lists.
    pub fn drain(
        &mut self,
        reg: &Registry,
        cost: &CostModel,
        outbox: &mut Vec<NetEmission>,
    ) -> Result<()> {
        self.with_ctx(reg, cost, |ex, ctx| ex.drain_with(ctx, outbox))
    }

    /// Run `f` with one [`OpCtx`] over this executor's clock and a copy of
    /// its metrics, written back afterwards — so `f` can still borrow the
    /// executor whole.
    fn with_ctx<R>(
        &mut self,
        reg: &Registry,
        cost: &CostModel,
        f: impl FnOnce(&mut Executor, &mut OpCtx<'_>) -> R,
    ) -> R {
        let mut metrics = self.metrics;
        let mut ctx = OpCtx::new(self.stratum, self.worker, reg, cost, &mut metrics);
        let out = f(self, &mut ctx);
        drop(ctx);
        self.metrics = metrics;
        out
    }

    fn drain_with(&mut self, ctx: &mut OpCtx<'_>, outbox: &mut Vec<NetEmission>) -> Result<()> {
        let traced = self.trace.is_some();
        loop {
            let Some((node, port, event)) = self.queue.pop_front() else {
                let Some(&src) = self.sources.front() else { return Ok(()) };
                let t0 = traced.then(Instant::now);
                if !self.nodes[src].pull_source(ctx)? {
                    self.sources.pop_front();
                }
                if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
                    // A source is delivered no events: its whole run counts
                    // as one batch, so `lane_hits / batches` does not move
                    // with the number of pulls.
                    tr[src].batches = 1;
                    tr[src].wall_ns += t0.elapsed().as_nanos() as u64;
                }
                self.route(src, ctx, outbox);
                continue;
            };
            let t0 = traced.then(Instant::now);
            let (rows_in, lane, cols, qdepth) = if traced {
                // Queue depth at pop time, counting the popped event.
                (
                    event_rows(&event),
                    matches!(event, Event::Rows(_) | Event::Cols(_)),
                    matches!(event, Event::Cols(_)),
                    self.queue.len() as u64 + 1,
                )
            } else {
                (0, false, false, 0)
            };
            match event {
                Event::Data(deltas) => self.nodes[node].on_deltas(port, deltas, ctx)?,
                Event::Rows(rows) => self.nodes[node].on_rows(port, rows, ctx)?,
                Event::Cols(batch) => self.nodes[node].on_cols(port, batch, ctx)?,
                Event::Punct(p) => self.nodes[node].on_punct(port, p, ctx)?,
            }
            if let (Some(t0), Some(tr)) = (t0, self.trace.as_mut()) {
                let s = &mut tr[node];
                s.batches += 1;
                s.rows_in += rows_in;
                s.lane_hits += lane as u64;
                s.cols += cols as u64;
                s.wall_ns += t0.elapsed().as_nanos() as u64;
                s.queue_depth = s.queue_depth.max(qdepth);
            }
            let queued = self.queue.len();
            self.route(node, ctx, outbox);
            // Move what this activation appended to the front, in order.
            let appended = self.queue.len() - queued;
            self.queue.rotate_right(appended);
        }
    }

    /// Route what `node`'s activation emitted into `ctx`, counting its
    /// rows out when traced: to `outbox` when it leaves a network boundary
    /// of a distributed executor, to the back of the queue otherwise.
    fn route(&mut self, node: NodeId, ctx: &mut OpCtx<'_>, outbox: &mut Vec<NetEmission>) {
        for (port, event) in ctx.drain_output() {
            if let Some(tr) = self.trace.as_mut() {
                tr[node].rows_out += event_rows(&event);
            }
            if self.distributed && self.network[node].is_some() {
                outbox.push(NetEmission { node, port, event });
            } else {
                fan_out(&mut self.queue, &self.edges[node][port], event);
            }
        }
    }

    /// Whether there is any queued work or unread source.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.sources.is_empty()
    }

    /// Node ids of all fixpoint operators.
    pub fn fixpoint_ids(&mut self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].as_fixpoint().is_some()).collect()
    }

    /// Access a fixpoint operator by node id.
    pub fn with_fixpoint<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut FixpointOp) -> R,
    ) -> Result<R> {
        let fp = self.nodes[id]
            .as_fixpoint()
            .ok_or_else(|| RexError::Exec(format!("node {id} is not a fixpoint")))?;
        Ok(f(fp))
    }

    /// Start a fixpoint's stratum 0 ([`FixpointOp::start`]), queueing
    /// its feedback. Runtimes call this once the initial drain is
    /// quiescent; it is traced like [`advance_fixpoint`](Executor::advance_fixpoint).
    pub fn start_fixpoint(
        &mut self,
        id: NodeId,
        reg: &Registry,
        cost: &CostModel,
        outbox: &mut Vec<NetEmission>,
    ) -> Result<()> {
        self.drive_fixpoint(id, reg, cost, outbox, |fp, ctx| fp.start(ctx))
    }

    /// Drive a fixpoint's advance (continue/finish), queueing its output.
    pub fn advance_fixpoint(
        &mut self,
        id: NodeId,
        cont: bool,
        reg: &Registry,
        cost: &CostModel,
        outbox: &mut Vec<NetEmission>,
    ) -> Result<()> {
        self.drive_fixpoint(id, reg, cost, outbox, |fp, ctx| fp.advance(cont, ctx))
    }

    /// Run one coordinator call on a fixpoint, tracing it as an
    /// activation and queueing what it emits.
    fn drive_fixpoint(
        &mut self,
        id: NodeId,
        reg: &Registry,
        cost: &CostModel,
        outbox: &mut Vec<NetEmission>,
        call: impl FnOnce(&mut FixpointOp, &mut OpCtx<'_>) -> Result<()>,
    ) -> Result<()> {
        self.with_ctx(reg, cost, |ex, ctx| {
            let fp = ex.nodes[id]
                .as_fixpoint()
                .ok_or_else(|| RexError::Exec(format!("node {id} is not a fixpoint")))?;
            let t0 = ex.trace.is_some().then(Instant::now);
            call(fp, ctx)?;
            if let (Some(t0), Some(tr)) = (t0, ex.trace.as_mut()) {
                tr[id].batches += 1;
                tr[id].wall_ns += t0.elapsed().as_nanos() as u64;
            }
            ex.route(id, ctx, outbox);
            Ok(())
        })
    }

    /// Punctuate stratum `s` on the output of every node in `open` — the
    /// sources a caller feeds by hand, which no scan's end of stream closes.
    fn close_stratum(&mut self, open: &[NodeId]) {
        let s = self.stratum;
        for &node in open {
            self.inject_downstream(node, 0, Event::Punct(Punctuation::EndOfStratum(s)));
        }
    }

    /// Run what is queued to quiescence, stratum by stratum, on this
    /// node's one clock — the requestor loop of §4.2. `open` lists the fed
    /// sources (a view's scans; none for a query, whose scans end their
    /// streams): each stratum is punctuated on their outputs with the same
    /// number the fixpoints' feedback carries, so every join of a
    /// recursive step aligns its stored input with the feedback.
    ///
    /// The first stratum drains the queued batch. Without fixpoints that
    /// is all; otherwise every fixpoint then [starts](FixpointOp::start)
    /// with whatever reached it, strata [advance](FixpointOp::advance)
    /// while any fixpoint's termination condition wants another over the
    /// summed Δ count, and convergence emits each fixpoint's net change.
    /// Returns one report per stratum of recursion (none without
    /// fixpoints); network emissions go to `outbox`.
    pub fn run_strata(
        &mut self,
        open: &[NodeId],
        reg: &Registry,
        cost: &CostModel,
        outbox: &mut Vec<NetEmission>,
    ) -> Result<Vec<StratumReport>> {
        let mut clock = Instant::now();
        self.close_stratum(open);
        self.drain(reg, cost, outbox)?;
        let fixpoints = self.fixpoint_ids();
        let mut reports = Vec::new();
        if fixpoints.is_empty() {
            self.stratum += 1;
            return Ok(reports);
        }
        for &id in &fixpoints {
            self.start_fixpoint(id, reg, cost, outbox)?;
        }
        self.drain(reg, cost, outbox)?;
        loop {
            let (pending, cont) = stratum_vote(std::slice::from_mut(self), &[0], &fixpoints)?;
            let m = self.metrics.since(&self.reported);
            self.reported = self.metrics;
            reports.push(StratumReport {
                stratum: self.stratum,
                delta_set_size: pending as u64,
                simulated_time: m.simulated_time(cost),
                wall_seconds: clock.elapsed().as_secs_f64(),
                bytes_shipped: m.bytes_sent,
                metrics: m,
            });
            clock = Instant::now();
            self.stratum += 1;
            for &id in &fixpoints {
                self.advance_fixpoint(id, cont, reg, cost, outbox)?;
            }
            if cont {
                self.close_stratum(open);
            }
            self.drain(reg, cost, outbox)?;
            if !cont {
                return Ok(reports);
            }
            if reports.len() as u64 > MAX_STRATA {
                return Err(RexError::Exec(format!(
                    "recursion exceeded {MAX_STRATA} strata without converging"
                )));
            }
        }
    }

    /// Drain results out of the first sink node — the end-of-query path,
    /// which avoids cloning the whole result set just to throw the sink's
    /// copy away.
    pub fn take_sink_results(&mut self) -> Result<Vec<Tuple>> {
        for n in &mut self.nodes {
            if let Some(s) = n.as_sink() {
                return Ok(s.take_results());
            }
        }
        Err(RexError::Exec("plan has no sink".into()))
    }

    /// Checkpoint a node's recoverable state.
    pub fn checkpoint_node(&self, id: NodeId) -> Option<crate::operators::OperatorState> {
        self.nodes[id].checkpoint()
    }

    /// Restore a node's state from a checkpoint and queue its replay.
    pub fn restore_fixpoint(
        &mut self,
        id: NodeId,
        state: crate::operators::OperatorState,
        stratum: u64,
    ) -> Result<()> {
        self.with_fixpoint(id, |fp| fp.restore_and_resume(state, stratum))
    }

    /// Reset every operator (restart recovery).
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            n.reset();
        }
        self.queue.clear();
        self.sources.clear();
        self.stratum = 0;
    }

    /// A copy of this executor with every operator's state and any queued
    /// events (telemetry off) — a replica of a long-lived dataflow. `None`
    /// when some operator has no [`Operator::boxed_clone`].
    pub fn try_clone(&self) -> Option<Executor> {
        Some(Executor {
            nodes: self.nodes.iter().map(|n| n.boxed_clone()).collect::<Option<_>>()?,
            network: self.network.clone(),
            edges: self.edges.clone(),
            queue: self.queue.clone(),
            sources: self.sources.clone(),
            metrics: self.metrics,
            reported: self.reported,
            stratum: self.stratum,
            worker: self.worker,
            distributed: self.distributed,
            trace: None,
        })
    }

    /// Approximate bytes of state the operators retain
    /// ([`Operator::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.state_bytes()).sum()
    }
}

/// Queue an event for every `(dst, port)` edge, moving the event into the
/// last destination and cloning only for fan-out beyond the first.
fn fan_out(queue: &mut VecDeque<(NodeId, usize, Event)>, dsts: &[(NodeId, usize)], event: Event) {
    match dsts {
        [] => {} // dangling port: event is dropped
        [(dst, dport)] => queue.push_back((*dst, *dport, event)),
        [rest @ .., (last, lport)] => {
            for &(dst, dport) in rest {
                queue.push_back((dst, dport, event.clone()));
            }
            queue.push_back((*last, *lport, event));
        }
    }
}

/// The requestor's vote at a stratum boundary (§4.2) over the `live`
/// executors of one plan, whose `fixpoints` it names: every fixpoint of
/// every live worker must be ready (otherwise the plan is miswired), Δ is
/// summed over all of them, and the first live worker's fixpoints decide
/// over that global count whether another stratum runs — a fixpoint whose
/// own Δ is empty continues while any other produced deltas. Returns the
/// summed Δ and the decision. [`Executor::run_strata`] votes with its own
/// executor as the only worker; the cluster runtime votes over its live
/// workers.
pub fn stratum_vote(
    executors: &mut [Executor],
    live: &[usize],
    fixpoints: &[NodeId],
) -> Result<(usize, bool)> {
    let mut pending = 0usize;
    for &w in live {
        let stratum = executors[w].stratum;
        for &id in fixpoints {
            let (ready, n) =
                executors[w].with_fixpoint(id, |fp| (fp.ready_for_vote(), fp.pending_count()))?;
            if !ready {
                return Err(RexError::Exec(format!(
                    "worker {w}: fixpoint node {id} never punctuated stratum {stratum}: \
                     is the recursive edge connected?"
                )));
            }
            pending += n;
        }
    }
    let mut cont = false;
    for &id in fixpoints {
        cont |= executors[live[0]].with_fixpoint(id, |fp| fp.wants_continue(pending))?;
    }
    Ok((pending, cont))
}

/// Hard cap on strata, protecting against diverging recursions: a run that
/// has not converged after this many strata fails with an error rather
/// than returning a truncated answer. Both runtimes and every view enforce
/// it; a plan that wants fewer iterations asks for them with
/// [`Termination::FixpointOrMax`](crate::operators::Termination).
pub const MAX_STRATA: u64 = 10_000;

/// Single-node query runtime: executes a plan graph to completion,
/// coordinating strata exactly like the cluster requestor does.
pub struct LocalRuntime {
    /// UDF/UDA registry.
    pub reg: Registry,
    /// Cost model for metric accounting.
    pub cost: CostModel,
    /// Collect an [`ExecTrace`] during execution
    /// ([`run_traced`](LocalRuntime::run_traced) returns it).
    pub telemetry: bool,
}

impl Default for LocalRuntime {
    fn default() -> Self {
        LocalRuntime {
            reg: Registry::with_builtins(),
            cost: CostModel::default(),
            telemetry: false,
        }
    }
}

impl LocalRuntime {
    /// A runtime with built-ins registered.
    pub fn new() -> LocalRuntime {
        LocalRuntime::default()
    }

    /// With a custom registry.
    pub fn with_registry(reg: Registry) -> LocalRuntime {
        LocalRuntime { reg, cost: CostModel::default(), telemetry: false }
    }

    /// Enable or disable telemetry collection (builder style).
    pub fn with_telemetry(mut self, on: bool) -> LocalRuntime {
        self.telemetry = on;
        self
    }

    /// Execute the plan, returning materialized results and the execution
    /// report.
    pub fn run(&self, graph: PlanGraph) -> Result<(Vec<Tuple>, QueryReport)> {
        let (rows, report, _) = self.run_traced(graph)?;
        Ok((rows, report))
    }

    /// Execute thread-parallel plan copies, one per OS thread, and merge
    /// their results deterministically.
    ///
    /// Every graph in `graphs` is one thread's copy of the same lowered
    /// plan: either morsel mode (sibling scans share an atomic cursor over
    /// one snapshot) or shard mode (shard gates keep each thread's keyed
    /// state disjoint). Both constructions make the union of the threads'
    /// sink outputs exactly the single-threaded bag of results. Each
    /// thread's sink hands back its rows already sorted, so the merge is a
    /// k-way [`merge_sorted_runs`](crate::tuple::merge_sorted_runs) —
    /// bit-identical to a single-threaded run, which sorts at the same
    /// boundary.
    ///
    /// Only non-recursive plans are supported (parallel lowering rejects
    /// fixpoints); a graph containing a fixpoint is an error.
    pub fn run_partitioned(
        &self,
        graphs: Vec<PlanGraph>,
    ) -> Result<(Vec<Tuple>, QueryReport, Option<ExecTrace>)> {
        if graphs.len() <= 1 {
            let g = graphs
                .into_iter()
                .next()
                .ok_or_else(|| RexError::Exec("run_partitioned: no plan".into()))?;
            return self.run_traced(g);
        }
        let t0 = Instant::now();
        type WorkerOutcome = Result<(Vec<Tuple>, ExecMetrics, Option<ExecTrace>)>;
        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = graphs
                .into_iter()
                .enumerate()
                .map(|(tid, g)| {
                    let reg = &self.reg;
                    let cost = &self.cost;
                    let telemetry = self.telemetry;
                    s.spawn(move || {
                        let mut ex = Executor::new(g, tid, false);
                        if !ex.fixpoint_ids().is_empty() {
                            return Err(RexError::Exec(
                                "run_partitioned cannot execute fixpoints".into(),
                            ));
                        }
                        ex.set_telemetry(telemetry);
                        let mut outbox = Vec::new(); // never used locally
                        ex.start();
                        ex.drain(reg, cost, &mut outbox)?;
                        let rows = ex.take_sink_results()?;
                        let trace = ex.take_trace();
                        Ok((rows, ex.metrics, trace))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("executor thread panicked")).collect()
        });
        let mut runs = Vec::with_capacity(outcomes.len());
        let mut metrics = ExecMetrics::default();
        let mut trace: Option<ExecTrace> = None;
        for outcome in outcomes {
            let (part, m, tr) = outcome?;
            runs.push(part);
            metrics.merge(&m);
            match (trace.as_mut(), tr) {
                (Some(mine), Some(theirs)) => mine.merge(&theirs),
                (None, Some(theirs)) => trace = Some(theirs),
                _ => {}
            }
        }
        let rows = crate::tuple::merge_sorted_runs(runs);
        let wall = t0.elapsed().as_secs_f64();
        let mut report = QueryReport::default();
        report.strata.push(StratumReport {
            stratum: 0,
            delta_set_size: metrics.deltas_emitted,
            simulated_time: metrics.simulated_time(&self.cost),
            wall_seconds: wall,
            bytes_shipped: metrics.bytes_sent,
            metrics,
        });
        report.totals = metrics;
        report.simulated_time = metrics.simulated_time(&self.cost);
        report.wall_seconds = wall;
        if let Some(tr) = trace.as_mut() {
            tr.wall_seconds = wall;
        }
        Ok((rows, report, trace))
    }

    /// [`run`](LocalRuntime::run), additionally returning the collected
    /// [`ExecTrace`] when [`telemetry`](LocalRuntime::telemetry) is on.
    pub fn run_traced(
        &self,
        graph: PlanGraph,
    ) -> Result<(Vec<Tuple>, QueryReport, Option<ExecTrace>)> {
        let mut ex = Executor::new(graph, 0, false);
        ex.set_telemetry(self.telemetry);
        let t0 = Instant::now();
        let mut outbox = Vec::new(); // never used in local mode
        ex.start();
        let strata = ex.run_strata(&[], &self.reg, &self.cost, &mut outbox)?;
        let wall = t0.elapsed().as_secs_f64();
        let m = ex.metrics;
        let recursive = !strata.is_empty();
        let mut report = QueryReport { totals: m, wall_seconds: wall, ..QueryReport::default() };
        if !recursive {
            // Non-recursive query: one pass to quiescence.
            report.strata.push(StratumReport {
                stratum: 0,
                delta_set_size: m.deltas_emitted,
                simulated_time: m.simulated_time(&self.cost),
                wall_seconds: wall,
                bytes_shipped: m.bytes_sent,
                metrics: m,
            });
            report.simulated_time = m.simulated_time(&self.cost);
        } else {
            report.strata = strata;
            report.simulated_time = report.strata.iter().map(|s| s.simulated_time).sum();
        }
        let mut trace = ex.take_trace();
        if let Some(tr) = trace.as_mut() {
            if recursive {
                tr.iteration_deltas = report.strata.iter().map(|s| s.delta_set_size).collect();
            }
            tr.wall_seconds = wall;
        }
        Ok((ex.take_sink_results()?, report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::SumAgg;
    use crate::delta::Delta;
    use crate::delta::Punctuation;
    use crate::expr::Expr;
    use crate::handlers::{JoinHandler, TupleSet};
    use crate::operators::HashJoinOp;
    use crate::operators::{
        AggSpec, ApplyFunctionOp, FilterOp, FnMapper, GroupByOp, ScanOp, SinkOp, Termination,
    };
    use crate::tuple;
    use std::sync::{Arc, Mutex};

    #[test]
    fn non_recursive_pipeline_runs_to_completion() {
        // scan -> filter(x > 2) -> sink
        let mut g = PlanGraph::new();
        let scan =
            g.add(Box::new(ScanOp::new("t", vec![tuple![1i64], tuple![3i64], tuple![5i64]])));
        let filter = g.add(Box::new(FilterOp::new(Expr::col(0).gt(Expr::lit(2i64)))));
        let sink = g.add(Box::new(SinkOp::new()));
        g.pipe(scan, filter);
        g.pipe(filter, sink);

        let rt = LocalRuntime::new();
        let (results, report) = rt.run(g).unwrap();
        assert_eq!(results, vec![tuple![3i64], tuple![5i64]]);
        assert_eq!(report.iterations(), 1);
        assert!(report.totals.tuples_processed > 0);
    }

    #[test]
    fn aggregation_pipeline() {
        // scan -> group_by(sum) -> sink
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new(
            "t",
            vec![tuple![1i64, 10.0f64], tuple![1i64, 5.0f64], tuple![2i64, 7.0f64]],
        )));
        let gb =
            g.add(Box::new(GroupByOp::new(vec![0], vec![AggSpec::new(Arc::new(SumAgg), vec![1])])));
        let sink = g.add(Box::new(SinkOp::new()));
        g.pipe(scan, gb);
        g.pipe(gb, sink);

        let rt = LocalRuntime::new();
        let (results, _) = rt.run(g).unwrap();
        assert_eq!(results, vec![tuple![1i64, 15.0f64], tuple![2i64, 7.0f64]]);
    }

    /// Transitive-closure-style recursion: start at 0, add 1 each stratum,
    /// stop at 5 via the recursive step's filter.
    #[test]
    fn recursive_counting_reaches_fixpoint() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new("seed", vec![tuple![0i64]])));
        let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::Fixpoint)));
        // Recursive step: x -> x+1 if x < 5
        let step = g.add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("inc", |d, _| {
            let x = d.tuple.get(0).as_int().unwrap();
            if x < 5 {
                Ok(vec![Delta::insert(tuple![x + 1])])
            } else {
                Ok(vec![])
            }
        })))));
        let sink = g.add(Box::new(SinkOp::new()));
        g.connect(scan, 0, fp, 0); // base case
        g.connect(fp, 0, step, 0); // feedback
        g.connect(step, 0, fp, 1); // recursive result
        g.connect(fp, 1, sink, 0); // final output

        let rt = LocalRuntime::new();
        let (results, report) = rt.run(g).unwrap();
        let expected: Vec<_> = (0..=5i64).map(|i| tuple![i]).collect();
        assert_eq!(results, expected);
        // 6 strata produced new tuples + 1 empty closing stratum.
        assert!(report.iterations() >= 6, "got {}", report.iterations());
        // Δ set sizes shrink to zero.
        assert_eq!(report.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn exact_strata_termination_runs_fixed_iterations() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new("seed", vec![tuple![0i64]])));
        let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::ExactStrata(4)).no_delta()));
        let step = g
            .add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("same", |d, _| {
                Ok(vec![Delta::insert(d.tuple.clone())])
            })))));
        let sink = g.add(Box::new(SinkOp::new()));
        g.connect(scan, 0, fp, 0);
        g.connect(fp, 0, step, 0);
        g.connect(step, 0, fp, 1);
        g.connect(fp, 1, sink, 0);

        let rt = LocalRuntime::new();
        let (results, report) = rt.run(g).unwrap();
        assert_eq!(results, vec![tuple![0i64]]);
        assert_eq!(report.iterations(), 4);
    }

    #[test]
    fn miswired_recursion_is_reported() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new("seed", vec![tuple![0i64]])));
        let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::Fixpoint)));
        let sink = g.add(Box::new(SinkOp::new()));
        g.connect(scan, 0, fp, 0);
        // Feedback edge goes nowhere and no recursive edge returns: the
        // fixpoint can never become ready.
        g.connect(fp, 1, sink, 0);

        let rt = LocalRuntime::new();
        let err = rt.run(g).unwrap_err();
        assert!(matches!(err, RexError::Exec(_)));
    }

    #[test]
    fn explain_renders_topology() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new("t", vec![])));
        let rh = g.add_rehash(vec![0]);
        let sink = g.add(Box::new(SinkOp::new()));
        g.pipe(scan, rh);
        g.pipe(rh, sink);
        let txt = g.explain();
        assert!(txt.contains("Scan(t)"));
        assert!(txt.contains("[network]"));
        assert!(txt.contains("out0 -> #2.in0"));
    }

    #[test]
    fn traced_run_counts_operator_rows() {
        let mk = || {
            let mut g = PlanGraph::new();
            let scan =
                g.add(Box::new(ScanOp::new("t", vec![tuple![1i64], tuple![3i64], tuple![5i64]])));
            let filter = g.add(Box::new(FilterOp::new(Expr::col(0).gt(Expr::lit(2i64)))));
            let sink = g.add(Box::new(SinkOp::new()));
            g.pipe(scan, filter);
            g.pipe(filter, sink);
            g
        };
        let rt = LocalRuntime::new().with_telemetry(true);
        let (results, _report, trace) = rt.run_traced(mk()).unwrap();
        let trace = trace.expect("telemetry on");
        assert_eq!(results.len(), 2);
        assert_eq!(trace.ops[0].rows_out, 3, "scan emits every row");
        assert_eq!(trace.ops[1].rows_in, 3);
        assert_eq!(trace.ops[1].rows_out, 2, "filter retains 2 of 3");
        assert_eq!(trace.sink_rows(), results.len() as u64);
        assert!(trace.render().contains("Filter"));
        // Telemetry off: same rows, no trace.
        let (plain, _, no_trace) = LocalRuntime::new().run_traced(mk()).unwrap();
        assert_eq!(plain, results);
        assert!(no_trace.is_none());
    }

    #[test]
    fn traced_recursion_records_iteration_deltas() {
        let mut g = PlanGraph::new();
        let scan = g.add(Box::new(ScanOp::new("seed", vec![tuple![0i64]])));
        let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::Fixpoint)));
        let step = g.add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("inc", |d, _| {
            let x = d.tuple.get(0).as_int().unwrap();
            if x < 5 {
                Ok(vec![Delta::insert(tuple![x + 1])])
            } else {
                Ok(vec![])
            }
        })))));
        let sink = g.add(Box::new(SinkOp::new()));
        g.connect(scan, 0, fp, 0);
        g.connect(fp, 0, step, 0);
        g.connect(step, 0, fp, 1);
        g.connect(fp, 1, sink, 0);

        let rt = LocalRuntime::new().with_telemetry(true);
        let (_, report, trace) = rt.run_traced(g).unwrap();
        let trace = trace.expect("telemetry on");
        assert_eq!(trace.iteration_deltas.len(), report.iterations());
        let from_report: Vec<u64> = report.strata.iter().map(|s| s.delta_set_size).collect();
        assert_eq!(trace.iteration_deltas, from_report);
        assert_eq!(*trace.iteration_deltas.last().unwrap(), 0, "closing stratum is empty");
    }

    /// A source emitting three one-row batches, `1`, `2`, `3`.
    struct ThreeBatches;
    impl Operator for ThreeBatches {
        fn name(&self) -> String {
            "ThreeBatches".into()
        }
        fn n_inputs(&self) -> usize {
            0
        }
        fn is_source(&self) -> bool {
            true
        }
        fn pull_source(&mut self, ctx: &mut OpCtx<'_>) -> Result<bool> {
            for i in 1..=3i64 {
                ctx.emit_rows(0, vec![tuple![i]]);
            }
            ctx.punct(0, Punctuation::EndOfStream);
            Ok(false)
        }
        fn on_deltas(
            &mut self,
            _: usize,
            _: Vec<crate::delta::Delta>,
            _: &mut OpCtx<'_>,
        ) -> Result<()> {
            Err(RexError::Exec("source has no inputs".into()))
        }
        fn on_punct(&mut self, _: usize, _: Punctuation, _: &mut OpCtx<'_>) -> Result<()> {
            Err(RexError::Exec("source has no inputs".into()))
        }
        fn reset(&mut self) {}
    }

    /// Records every data batch it sees as `in<row>` (port 0) or
    /// `out<row>` (port 1).
    struct Recorder(Arc<Mutex<Vec<String>>>);
    impl Operator for Recorder {
        fn name(&self) -> String {
            "Recorder".into()
        }
        fn n_inputs(&self) -> usize {
            2
        }
        fn on_deltas(&mut self, port: usize, deltas: Vec<Delta>, _: &mut OpCtx<'_>) -> Result<()> {
            let side = if port == 0 { "in" } else { "out" };
            for d in deltas {
                self.0.lock().unwrap().push(format!("{side}{}", d.tuple.get(0)));
            }
            Ok(())
        }
        fn on_punct(&mut self, _: usize, _: Punctuation, _: &mut OpCtx<'_>) -> Result<()> {
            Ok(())
        }
        fn reset(&mut self) {}
    }

    /// Depth-first scheduling: each input batch is pushed through the
    /// pass-through op to the recorder before the next input batch is
    /// taken, and every edge (including the source's fan-out) stays FIFO.
    #[test]
    fn drain_is_depth_first_and_fifo_per_edge() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut g = PlanGraph::new();
        let src = g.add(Box::new(ThreeBatches));
        let pass = g.add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("id", |d, _| {
            Ok(vec![d.clone()])
        })))));
        let rec = g.add(Box::new(Recorder(Arc::clone(&seen))));
        g.connect(src, 0, rec, 0);
        g.connect(src, 0, pass, 0);
        g.connect(pass, 0, rec, 1);
        let mut ex = Executor::new(g, 0, false);
        let (reg, cost) = (Registry::new(), CostModel::default());
        ex.start();
        ex.drain(&reg, &cost, &mut Vec::new()).unwrap();
        assert_eq!(*seen.lock().unwrap(), ["in1", "out1", "in2", "out2", "in3", "out3"]);
    }

    /// Reachability through a handler join: edges are stored silently on
    /// the right, and a reached node on the left emits its out-neighbours.
    struct Expand;
    impl JoinHandler for Expand {
        fn name(&self) -> &str {
            "expand"
        }
        fn update(
            &self,
            _left: &mut TupleSet,
            right: &mut TupleSet,
            d: &Delta,
            from_left: bool,
        ) -> Result<Vec<Delta>> {
            if !from_left {
                right.insert(d.tuple.clone());
                return Ok(vec![]);
            }
            Ok(right
                .iter()
                .map(|e| Delta::insert(Tuple::from_slice(&[e.get(1).clone()])))
                .collect())
        }
    }

    /// The handler join's edge scan is queued *behind* the base case, and
    /// the handler emits nothing for an edge. Were stratum 0 fed back when
    /// the base case ends, the depth-first executor would probe the node
    /// before any edge arrived and stop at `{0}`; started by the runtime
    /// after quiescence, the recursion reaches the whole chain.
    #[test]
    fn runtime_started_stratum_zero_sees_every_scan_batch() {
        let mut g = PlanGraph::new();
        let base = g.add(Box::new(ScanOp::new("seed", vec![tuple![0i64]])));
        let edges = g.add(Box::new(ScanOp::new(
            "edges",
            (0..4i64).map(|i| tuple![i, i + 1]).collect::<Vec<_>>(),
        )));
        let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::Fixpoint)));
        let join =
            g.add(Box::new(HashJoinOp::new(vec![0], vec![0]).with_handler(Arc::new(Expand))));
        let sink = g.add(Box::new(SinkOp::new()));
        g.connect(base, 0, fp, 0);
        g.connect(edges, 0, join, 1);
        g.connect(fp, 0, join, 0);
        g.connect(join, 0, fp, 1);
        g.connect(fp, 1, sink, 0);

        let rt = LocalRuntime::new().with_telemetry(true);
        let (results, report, trace) = rt.run_traced(g).unwrap();
        assert_eq!(results, (0..=4i64).map(|i| tuple![i]).collect::<Vec<_>>());
        assert_eq!(report.iterations(), 5);
        // The stratum-0 start is traced: five feedback rows (one per
        // stratum) plus the five final rows.
        assert_eq!(trace.expect("telemetry on").ops[fp].rows_out, 10);
    }
}
