//! The distributed query runtime: the requestor's coordination loop.
//!
//! "Each worker node executes in parallel the query plan specified by the
//! optimizer. The results of the plan execution are ultimately forwarded to
//! the query requestor node, which unions the received results from all
//! nodes in the cluster. There is no single node responsible for
//! checkpointing the state, coordinating flows, etc." (§4) — coordination
//! that *is* needed (stratum votes, §4.2; recovery, §4.3) is performed by
//! the query requestor, which this runtime embodies.

use crate::failure::{FailureEvent, FailurePlan, RecoveryStrategy};
use crate::report::ClusterReport;
use crate::router::{Delivery, Router};
use rex_core::error::{Result, RexError};
use rex_core::exec::{stratum_vote, Executor, NetEmission, NetKey, NodeId, PlanGraph, MAX_STRATA};
use rex_core::metrics::{CostModel, ExecMetrics, StratumReport};
use rex_core::operators::{hash_key_cols, OperatorState};
use rex_core::telemetry::ExecTrace;
use rex_core::thread_budget;
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_storage::catalog::Catalog;
use rex_storage::checkpoint::{Checkpoint, CheckpointStore};
use rex_storage::partition::PartitionSnapshot;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Builds one worker's copy of the physical plan. Scans must read the
/// worker's partition of stored tables under the given snapshot.
pub type PlanBuilder =
    Arc<dyn Fn(usize, &PartitionSnapshot, &Catalog) -> Result<PlanGraph> + Send + Sync>;

/// Replication factor for storage and checkpoints: every partition and
/// every stratum checkpoint lives on this many workers (the paper uses 3).
const REPLICATION: usize = 3;

/// Cluster configuration.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub n_workers: usize,
    /// UDF/UDA registry distributed with the query.
    pub registry: Registry,
    /// Optional injected failure.
    pub failure: Option<FailurePlan>,
    /// Recovery strategy when a failure occurs. Per-stratum fixpoint
    /// checkpoints are replicated exactly when it
    /// [replicates state](RecoveryStrategy::replicates_state).
    pub recovery: RecoveryStrategy,
    /// Collect per-operator execution traces on every worker and merge
    /// them into [`ClusterReport::trace`].
    pub telemetry: bool,
    /// OS threads that drain workers, the requestor's own included (1 =
    /// the requestor drains every worker itself). Workers are spread
    /// round-robin over at most this many threads; the process-wide
    /// [`thread_budget`] may lease fewer extra threads than asked. Either
    /// way results are bit-identical at every thread count.
    pub threads: usize,
}

impl ClusterConfig {
    /// A cluster of `n` workers recovering incrementally, one thread.
    pub fn new(n: usize) -> ClusterConfig {
        ClusterConfig {
            n_workers: n.max(1),
            registry: Registry::with_builtins(),
            failure: None,
            recovery: RecoveryStrategy::Incremental,
            telemetry: false,
            threads: 1,
        }
    }

    /// Set the drain scheduler's thread ceiling.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Toggle per-operator execution tracing.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Set the failure plan.
    pub fn with_failure(mut self, f: FailurePlan, strategy: RecoveryStrategy) -> Self {
        self.failure = Some(f);
        self.recovery = strategy;
        self
    }

    /// Override the registry.
    pub fn with_registry(mut self, reg: Registry) -> Self {
        self.registry = reg;
        self
    }
}

/// The simulated cluster runtime.
pub struct ClusterRuntime {
    config: ClusterConfig,
    catalog: Catalog,
}

impl ClusterRuntime {
    /// Create a runtime over a shared catalog.
    pub fn new(config: ClusterConfig, catalog: Catalog) -> ClusterRuntime {
        ClusterRuntime { config, catalog }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute a query across the cluster.
    pub fn run(&self, build: PlanBuilder) -> Result<(Vec<Tuple>, ClusterReport)> {
        let n = self.config.n_workers;
        let reg = &self.config.registry;
        let cost = &CostModel::default();
        let threads = self.config.threads;
        let t0 = Instant::now();

        let mut report = ClusterReport { n_workers: n, ..Default::default() };
        let ckpts = CheckpointStore::new();
        let mut snapshot = PartitionSnapshot::new(n, REPLICATION);
        let mut live: Vec<usize> = (0..n).collect();
        let mut pending_failure = self.config.failure;
        // Incremental recovery: resume from this stratum with checkpointed
        // state; None means run from scratch.
        let mut resume: Option<u64> = None;
        // Metrics of finished attempts (so recovery cost is not lost).
        let mut carried: Vec<ExecMetrics> = vec![ExecMetrics::default(); n];
        // Traces of finished attempts, merged the same way.
        let mut carried_trace: Option<ExecTrace> = None;
        // Global stratum counter across attempts (drives failure injection
        // and report numbering).
        let mut strata_seen: u64 = 0;
        // Set when a worker dies; cleared (and recorded to the process-wide
        // fault telemetry) once the surviving cluster is ready to resume.
        let mut recovery_t0: Option<Instant> = None;

        'attempt: loop {
            // ---- build executors for live workers -----------------------
            let mut executors: Vec<Executor> = Vec::with_capacity(n);
            for w in 0..n {
                let alive = live.contains(&w);
                let graph = if alive {
                    (build)(w, &snapshot, &self.catalog)?
                } else {
                    PlanGraph::new() // dead placeholder keeps indices stable
                };
                let mut ex = Executor::new(graph, w, true);
                // Placeholders have no nodes; tracing them would merge
                // empty op lists into real ones.
                ex.set_telemetry(self.config.telemetry && alive);
                executors.push(ex);
            }
            let mut router = Router::new();
            let mut prev: Vec<ExecMetrics> = vec![ExecMetrics::default(); n];
            let mut prev_crossed = 0u64;
            let mut stratum_start = Instant::now();

            for &w in &live {
                executors[w].start();
            }
            drain_all(&mut executors, &mut router, &live, &snapshot, reg, cost, threads)?;
            // Every scan batch has now been delivered on every worker:
            // start stratum 0, as the stratum loop below advances the rest.
            let fixpoints = executors[live[0]].fixpoint_ids();
            if !fixpoints.is_empty() {
                for &w in &live {
                    for &f in &fixpoints {
                        executors[w].start_fixpoint(f, reg, cost, &mut Vec::new())?;
                    }
                }
                drain_all(&mut executors, &mut router, &live, &snapshot, reg, cost, threads)?;
            }

            // On incremental recovery only the failed worker's range is
            // actually cold: the survivors' scans and immutable operator
            // state stay warm on their nodes. The simulator re-executes the
            // full reload to rebuild operator state exactly, but charges
            // each survivor only the takeover share of it (§4.3: "the
            // checkpointed tuples in the failed range are streamed to the
            // nodes which have taken over that range").
            if resume.is_some() {
                let share = 1.0 / live.len().max(1) as f64;
                for &w in &live {
                    scale_metrics(&mut executors[w].metrics, share);
                }
            }

            // ---- non-recursive query ------------------------------------
            if fixpoints.is_empty() {
                let results = collect_results(&mut executors, &live)?;
                merge_traces(&mut carried_trace, &mut executors, &live);
                let stratum_metrics = merged_diff(&executors, &prev, &live);
                let max_time = max_sim_time(&executors, &prev, &live, cost);
                report.query.strata.push(StratumReport {
                    stratum: 0,
                    delta_set_size: stratum_metrics.deltas_emitted,
                    simulated_time: max_time,
                    wall_seconds: stratum_start.elapsed().as_secs_f64(),
                    bytes_shipped: router.bytes_crossed,
                    metrics: stratum_metrics,
                });
                finalize(&mut report, &executors, &carried, t0);
                absorb_router(&mut report, &router);
                if let Some(mut tr) = carried_trace.take() {
                    tr.wall_seconds = report.query.wall_seconds;
                    report.trace = Some(tr);
                }
                return Ok((results, report));
            }

            // ---- incremental resume -------------------------------------
            let mut completed: u64 = 0;
            let mut restored_bytes: u64 = 0;
            if let Some(k) = resume.take() {
                let fp0 = fixpoints[0];
                let key_cols =
                    executors[live[0]].with_fixpoint(fp0, |fp| fp.key_cols().to_vec())?;
                // Gather every original owner's recoverable checkpoint, in
                // tuple order: checkpoints hold their set in hash-table
                // order, and the restore order must be a pure function of
                // the checkpointed sets.
                let mut tuples: Vec<Tuple> = Vec::new();
                for owner in 0..n {
                    if let Some(c) = ckpts.recoverable(owner, k, &live) {
                        tuples.extend(c.state.tuples);
                    }
                }
                tuples.sort_unstable();
                // Re-partition the recovered mutable set under the *new*
                // snapshot and stream it to the takeover nodes.
                let mut per_worker: Vec<Vec<Tuple>> = vec![Vec::new(); n];
                for t in tuples {
                    let owner = snapshot.owner_of_hash(hash_key_cols(&t, &key_cols));
                    per_worker[owner].push(t);
                }
                for &w in &live {
                    let state = OperatorState { tuples: std::mem::take(&mut per_worker[w]) };
                    let bytes = state.byte_size() as u64;
                    restored_bytes += bytes;
                    executors[w].metrics.bytes_received += bytes;
                    executors[w].restore_fixpoint(fp0, state, k)?;
                }
                // Resume: feed the restored state through the recursive
                // subplan (one catch-up stratum), then iterate normally.
                for &w in &live {
                    executors[w].advance_fixpoint(fp0, true, reg, cost, &mut Vec::new())?;
                    // advance emits locally; rehash traffic goes through the
                    // normal drain below.
                }
                drain_all(&mut executors, &mut router, &live, &snapshot, reg, cost, threads)?;
                completed = k + 1;
            }
            if let Some(rt0) = recovery_t0.take() {
                // Readiness, not total re-run cost: the clock stops when the
                // survivors can process the next stratum (restart's re-run
                // shows up as simulated time in the stratum reports).
                rex_core::faults::record_recovery(
                    matches!(self.config.recovery, RecoveryStrategy::Incremental),
                    rt0.elapsed().as_micros() as u64,
                    restored_bytes,
                );
            }

            // ---- stratum loop -------------------------------------------
            loop {
                let (total_pending, any_continue) =
                    stratum_vote(&mut executors, &live, &fixpoints)?;

                // Record the completed stratum.
                let stratum_metrics = merged_diff(&executors, &prev, &live);
                let max_time = max_sim_time(&executors, &prev, &live, cost);
                for &w in &live {
                    prev[w] = executors[w].metrics;
                }
                report.query.strata.push(StratumReport {
                    stratum: completed,
                    delta_set_size: total_pending as u64,
                    simulated_time: max_time,
                    wall_seconds: stratum_start.elapsed().as_secs_f64(),
                    bytes_shipped: router.bytes_crossed - prev_crossed,
                    metrics: stratum_metrics,
                });
                prev_crossed = router.bytes_crossed;
                stratum_start = Instant::now();

                // Incremental checkpointing (§4.3): replicate each live
                // worker's fixpoint state to its replicas. The store keeps
                // the whole mutable set, as a replica that applied every
                // Δᵢ so far would hold it; the network and disk are charged
                // for this stratum's Δᵢ only, which is all a replica needs
                // to receive.
                if self.config.recovery.replicates_state() && any_continue {
                    for &w in &live {
                        for &f in &fixpoints {
                            if let Some(state) = executors[w].checkpoint_node(f) {
                                let replicas = next_workers(&live, w, REPLICATION - 1);
                                let bytes =
                                    executors[w].with_fixpoint(f, |fp| fp.pending_bytes())?;
                                executors[w].metrics.bytes_sent += bytes * replicas.len() as u64;
                                executors[w].metrics.disk_written += bytes;
                                for &r in &replicas {
                                    executors[r].metrics.disk_written += bytes;
                                }
                                report.checkpoint_bytes += bytes * (1 + replicas.len() as u64);
                                ckpts.put(Checkpoint {
                                    owner: w,
                                    stratum: completed,
                                    replicas,
                                    state,
                                });
                            }
                        }
                    }
                    // Only the last completed stratum is needed.
                    ckpts.prune_before(completed.saturating_sub(1));
                }

                // Failure injection at the stratum boundary.
                if let Some(fp) = pending_failure {
                    if strata_seen >= fp.at_end_of_stratum && live.contains(&fp.worker) {
                        pending_failure = None;
                        live.retain(|&w| w != fp.worker);
                        if live.is_empty() {
                            return Err(RexError::NodeFailed(fp.worker));
                        }
                        router.forget_worker(fp.worker);
                        snapshot = snapshot.without_node(fp.worker);
                        for w in 0..n {
                            carried[w].merge(&executors[w].metrics);
                        }
                        // The dead worker's trace is unreachable, like its
                        // node; carry the survivors' counters forward.
                        merge_traces(&mut carried_trace, &mut executors, &live);
                        absorb_router(&mut report, &router);
                        let resumed_from = match self.config.recovery {
                            RecoveryStrategy::Restart => {
                                resume = None;
                                0
                            }
                            RecoveryStrategy::Incremental => {
                                let owners: Vec<usize> = (0..n).collect();
                                match ckpts.last_complete_stratum(&owners, &live) {
                                    Some(s) => {
                                        resume = Some(s);
                                        s
                                    }
                                    None => {
                                        resume = None;
                                        0
                                    }
                                }
                            }
                        };
                        report.failures.push(FailureEvent {
                            worker: fp.worker,
                            stratum: strata_seen,
                            strategy: self.config.recovery,
                            resumed_from,
                        });
                        recovery_t0 = Some(Instant::now());
                        continue 'attempt;
                    }
                }

                strata_seen += 1;
                if strata_seen > MAX_STRATA {
                    return Err(RexError::Exec(format!(
                        "recursion exceeded {MAX_STRATA} strata without converging"
                    )));
                }

                // Advance or finish — all workers in lockstep, then drain.
                for &w in &live {
                    for &f in &fixpoints {
                        executors[w].advance_fixpoint(
                            f,
                            any_continue,
                            reg,
                            cost,
                            &mut Vec::new(),
                        )?;
                    }
                    executors[w].set_stratum(completed + 1);
                }
                // advance() queues locally; rehash traffic flows in drain.
                drain_all(&mut executors, &mut router, &live, &snapshot, reg, cost, threads)?;
                completed += 1;
                if !any_continue {
                    let results = collect_results(&mut executors, &live)?;
                    merge_traces(&mut carried_trace, &mut executors, &live);
                    finalize(&mut report, &executors, &carried, t0);
                    absorb_router(&mut report, &router);
                    if let Some(mut tr) = carried_trace.take() {
                        tr.wall_seconds = report.query.wall_seconds;
                        tr.iteration_deltas =
                            report.query.strata.iter().map(|s| s.delta_set_size).collect();
                        report.trace = Some(tr);
                    }
                    return Ok((results, report));
                }
            }
        }
    }
}

/// Round-based scheduler: drain every live worker, route its rehash
/// traffic, repeat until global quiescence.
///
/// The live workers are dealt round-robin into shares, one per thread:
/// share 0 belongs to the requestor (the calling thread), and a thread is
/// spawned only for each extra share leased from the process-wide
/// [`thread_budget`]. One round = (1) every share applies its inbound
/// routing and drains each owned worker with queued work (see
/// [`share_round`]), then (2) the requestor routes the collected outboxes
/// in worker-id order through [`Router::route_batches`] into the next
/// round's inbounds. Because routing waits for the round barrier, the
/// delivery order on every channel is a pure function of the round
/// schedule, so results and router accounting are bit-identical however
/// many shares there are — with none leased, the requestor drains every
/// worker itself. FIFO per channel is the only ordering the paper's TCP
/// transport guarantees (§4.1); the round barrier gives us that plus
/// determinism. Dropping the inbound senders (global quiescence or an
/// error) ends the threads.
fn drain_all(
    executors: &mut [Executor],
    router: &mut Router,
    live: &[usize],
    snap: &PartitionSnapshot,
    reg: &Registry,
    cost: &CostModel,
    threads: usize,
) -> Result<()> {
    let n_workers = executors.len();
    // Routing runs on the requestor without executor access; every live
    // worker runs the same plan, so take the boundary keys from the first.
    let reference = &executors[live[0]];
    let net_keys: HashMap<NodeId, NetKey> = reference
        .network_nodes()
        .into_iter()
        .map(|node| (node, reference.network_key(node).expect("network node has a key").clone()))
        .collect();
    let lookup = |node: NodeId| net_keys[&node].clone();
    // One share per live worker is the useful ceiling; extra shares are
    // leased from the process-wide budget so concurrent queries cannot
    // oversubscribe the host.
    let want = threads.max(1).min(live.len());
    let extra = if want > 1 { thread_budget::try_acquire(want - 1) } else { 0 };
    let shares = 1 + extra;
    // Round-robin ownership: worker w belongs to share owner[w].
    let mut owner = vec![usize::MAX; n_workers];
    for (i, &w) in live.iter().enumerate() {
        owner[w] = i % shares;
    }
    let mut groups: Vec<Vec<(usize, &mut Executor)>> = (0..shares).map(|_| Vec::new()).collect();
    for (w, ex) in executors.iter_mut().enumerate() {
        if owner[w] != usize::MAX {
            groups[owner[w]].push((w, ex));
        }
    }

    let res = std::thread::scope(|s| {
        let mut groups = groups.into_iter();
        let mut own = groups.next().expect("share 0 is the requestor's");
        let (res_tx, res_rx) = mpsc::channel::<Result<Vec<(usize, Vec<NetEmission>)>>>();
        let inboxes: Vec<mpsc::Sender<Inbound>> = groups
            .map(|mut group| {
                let (tx, rx) = mpsc::channel::<Inbound>();
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    for inbound in rx {
                        if res_tx.send(share_round(&mut group, inbound, reg, cost)).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(res_tx);

        let fresh = || (0..shares).map(|_| Inbound::default()).collect::<Vec<_>>();
        let mut inbound = fresh();
        loop {
            let mut msgs = std::mem::replace(&mut inbound, fresh()).into_iter();
            let mine = msgs.next().expect("share 0 is the requestor's");
            for (tx, msg) in inboxes.iter().zip(msgs) {
                let _ = tx.send(msg);
            }
            let mut replies = vec![share_round(&mut own, mine, reg, cost)];
            for _ in 1..shares {
                replies.push(res_rx.recv().unwrap_or_else(|_| {
                    Err(RexError::Exec("cluster drain thread exited unexpectedly".into()))
                }));
            }
            let mut round = Vec::new();
            for reply in replies {
                round.extend(reply?);
            }
            if round.is_empty() {
                return Ok(());
            }
            round.sort_by_key(|(w, _)| *w);
            for (w, outbox) in round {
                if outbox.is_empty() {
                    continue;
                }
                let (deliveries, sent) =
                    router.route_batches(w, outbox, &lookup, live, snap, n_workers);
                if sent > 0 {
                    inbound[owner[w]].sent.push((w, sent));
                }
                for d in deliveries {
                    inbound[owner[d.target]].deliveries.push(d);
                }
            }
        }
    });
    thread_budget::release(extra);
    res
}

/// One share's routing for a round: what it applies to its executors
/// before it drains them. The requestor builds exactly one per share per
/// round, so a thread wakes once per round however many batches were
/// routed to it.
#[derive(Default)]
struct Inbound {
    /// Routed-output bytes to credit to `(worker, bytes)`'s `bytes_sent`.
    sent: Vec<(usize, u64)>,
    /// Routed batches for this share's workers, in routing order.
    deliveries: Vec<Delivery>,
}

/// One share's part of a round: apply its inbound `bytes_sent` credits and
/// deliveries, then drain every owned worker with queued work (in
/// worker-id order) and return the outboxes.
fn share_round(
    group: &mut [(usize, &mut Executor)],
    inbound: Inbound,
    reg: &Registry,
    cost: &CostModel,
) -> Result<Vec<(usize, Vec<NetEmission>)>> {
    // Groups are dealt in worker-id order, so a worker's slot is found by
    // binary search.
    fn find<'a>(group: &'a mut [(usize, &mut Executor)], worker: usize) -> &'a mut Executor {
        let i = group
            .binary_search_by_key(&worker, |(w, _)| *w)
            .expect("delivery to a worker this share does not own");
        group[i].1
    }
    for (worker, bytes) in inbound.sent {
        find(group, worker).metrics.bytes_sent += bytes;
    }
    for d in inbound.deliveries {
        let ex = find(group, d.target);
        ex.metrics.bytes_received += d.bytes;
        ex.inject_downstream(d.node, d.port, d.event);
    }
    let mut drained = Vec::new();
    for (w, ex) in group.iter_mut() {
        if ex.has_work() {
            let mut outbox = Vec::new();
            ex.drain(reg, cost, &mut outbox)?;
            drained.push((*w, outbox));
        }
    }
    Ok(drained)
}

/// Take and fold each live worker's execution trace into the accumulator
/// (no-op when telemetry is off — `take_trace` returns `None`).
fn merge_traces(acc: &mut Option<ExecTrace>, executors: &mut [Executor], live: &[usize]) {
    for &w in live {
        if let Some(t) = executors[w].take_trace() {
            match acc.as_mut() {
                Some(m) => m.merge(&t),
                None => *acc = Some(t),
            }
        }
    }
}

/// Fold an attempt's router counters into the report (attempts get fresh
/// routers, so counters accumulate across recoveries).
fn absorb_router(report: &mut ClusterReport, router: &Router) {
    report.rehash_bytes += router.rehash_bytes;
    report.broadcast_bytes += router.broadcast_bytes;
    report.gather_bytes += router.gather_bytes;
    if report.rows_routed.len() < router.rows_routed.len() {
        report.rows_routed.resize(router.rows_routed.len(), 0);
    }
    for (w, rows) in router.rows_routed.iter().enumerate() {
        report.rows_routed[w] += rows;
    }
}

/// The next `k` live workers after `w` in ring order (replica placement).
fn next_workers(live: &[usize], w: usize, k: usize) -> Vec<usize> {
    let mut sorted: Vec<usize> = live.to_vec();
    sorted.sort_unstable();
    let pos = sorted.iter().position(|&x| x == w).unwrap_or(0);
    (1..=k.min(sorted.len().saturating_sub(1))).map(|i| sorted[(pos + i) % sorted.len()]).collect()
}

/// Union the sinks of all live workers at the requestor, accounting the
/// result-forwarding bytes (workers other than the requestor ship results).
fn collect_results(executors: &mut [Executor], live: &[usize]) -> Result<Vec<Tuple>> {
    let requestor = live[0];
    let mut all = Vec::new();
    for &w in live {
        // Drain each worker's sink — the query is over, no need to clone
        // every result row just to drop the sink's copy.
        let part = executors[w].take_sink_results()?;
        if w != requestor {
            let bytes: u64 = part.iter().map(|t| t.byte_size() as u64).sum();
            executors[w].metrics.bytes_sent += bytes;
        }
        all.extend(part);
    }
    rex_core::tuple::sort_rows(&mut all);
    Ok(all)
}

/// Merged per-stratum metric diff across live workers.
fn merged_diff(executors: &[Executor], prev: &[ExecMetrics], live: &[usize]) -> ExecMetrics {
    let mut m = ExecMetrics::default();
    for &w in live {
        m.merge(&executors[w].metrics.since(&prev[w]));
    }
    m
}

/// Scale all counters of a metrics record (used to discount warm-state
/// reloads during incremental recovery).
fn scale_metrics(m: &mut ExecMetrics, f: f64) {
    m.tuples_processed = (m.tuples_processed as f64 * f) as u64;
    m.deltas_emitted = (m.deltas_emitted as f64 * f) as u64;
    m.udf_calls = (m.udf_calls as f64 * f) as u64;
    m.cpu_units *= f;
    m.bytes_sent = (m.bytes_sent as f64 * f) as u64;
    m.bytes_received = (m.bytes_received as f64 * f) as u64;
    m.disk_read = (m.disk_read as f64 * f) as u64;
    m.disk_written = (m.disk_written as f64 * f) as u64;
    m.punctuations = (m.punctuations as f64 * f) as u64;
}

/// Max-over-workers simulated time for the stratum that just completed.
fn max_sim_time(
    executors: &[Executor],
    prev: &[ExecMetrics],
    live: &[usize],
    cost: &CostModel,
) -> f64 {
    live.iter()
        .map(|&w| executors[w].metrics.since(&prev[w]).simulated_time(cost))
        .fold(0.0, f64::max)
}

/// Fill in totals and per-worker metrics at query end.
fn finalize(
    report: &mut ClusterReport,
    executors: &[Executor],
    carried: &[ExecMetrics],
    t0: Instant,
) {
    let n = executors.len();
    report.per_worker = (0..n)
        .map(|w| {
            let mut m = carried[w];
            m.merge(&executors[w].metrics);
            m
        })
        .collect();
    let mut totals = ExecMetrics::default();
    for m in &report.per_worker {
        totals.merge(m);
    }
    report.query.totals = totals;
    report.query.simulated_time = report.query.strata.iter().map(|s| s.simulated_time).sum();
    report.query.wall_seconds = t0.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::aggregates::SumAgg;
    use rex_core::delta::Delta;
    use rex_core::expr::Expr;
    use rex_core::operators::{
        AggSpec, ApplyFunctionOp, FilterOp, FixpointOp, FnMapper, GroupByOp, ScanOp, SinkOp,
        Termination,
    };
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_storage::table::StoredTable;

    /// `nums(k, v)` partitioned on `k`, with `v = value(k)`.
    fn catalog_of(n_rows: i64, value: impl Fn(i64) -> f64) -> Catalog {
        let cat = Catalog::new();
        let mut t = StoredTable::new(
            "nums",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Double)]),
            vec![0],
        );
        for i in 0..n_rows {
            t.insert(tuple![i, value(i)]).unwrap();
        }
        cat.register(t);
        cat
    }

    fn catalog_with_numbers(n_rows: i64) -> Catalog {
        catalog_of(n_rows, |i| (i % 5) as f64)
    }

    /// Distributed filter: every worker scans its partition and filters.
    #[test]
    fn distributed_filter_covers_all_partitions() {
        let cat = catalog_with_numbers(100);
        let rt = ClusterRuntime::new(ClusterConfig::new(4), cat);
        let build: PlanBuilder = Arc::new(|w, snap, cat| {
            let table = cat.get("nums")?;
            let mut g = PlanGraph::new();
            let scan = g.add(Box::new(ScanOp::new("nums", table.partition_for(snap, w))));
            let f = g.add(Box::new(FilterOp::new(Expr::col(1).gt(Expr::lit(2.5f64)))));
            let sink = g.add(Box::new(SinkOp::new()));
            g.pipe(scan, f);
            g.pipe(f, sink);
            Ok(g)
        });
        let (results, report) = rt.run(build).unwrap();
        // v in {3,4} → 40 of 100 rows pass.
        assert_eq!(results.len(), 40);
        assert_eq!(report.n_workers, 4);
        assert_eq!(report.iterations(), 1);
    }

    /// Distributed aggregation with a rehash: sum(v) grouped by k % 3.
    #[test]
    fn distributed_aggregation_with_rehash() {
        let cat = catalog_with_numbers(90);
        let rt = ClusterRuntime::new(ClusterConfig::new(3), cat);
        let (results, report) = rt.run(mod3_sum_build()).unwrap();
        assert_eq!(results.len(), 3);
        // Σ v over 90 rows with v = i%5 → 18 cycles of 0+1+2+3+4 = 180.
        let total: f64 = results.iter().map(|t| t.get(1).as_double().unwrap()).sum();
        assert!((total - 180.0).abs() < 1e-9);
        // Rehash moved data across workers, and the router attributed it.
        assert!(report.query.totals.bytes_sent > 0);
        assert!(report.rehash_bytes > 0);
        assert_eq!(report.rows_routed.iter().sum::<u64>(), 90);
    }

    /// sum(v) grouped by k % 3: project (k%3, v), then rehash on the new
    /// key — off the partition key, so rows cross workers — and aggregate.
    fn mod3_sum_build() -> PlanBuilder {
        Arc::new(|w, snap, cat| {
            let table = cat.get("nums")?;
            let mut g = PlanGraph::new();
            let scan = g.add(Box::new(ScanOp::new("nums", table.partition_for(snap, w))));
            let proj =
                g.add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("mod3", |d, _| {
                    let k = d.tuple.get(0).as_int().unwrap();
                    let v = d.tuple.get(1).clone();
                    Ok(vec![d.with_tuple(rex_core::tuple::Tuple::new(vec![
                        rex_core::value::Value::Int(k % 3),
                        v,
                    ]))])
                })))));
            let rh = g.add_rehash(vec![0]);
            let gb = g.add(Box::new(GroupByOp::new(
                vec![0],
                vec![AggSpec::new(Arc::new(SumAgg), vec![1])],
            )));
            let sink = g.add(Box::new(SinkOp::new()));
            g.pipe(scan, proj);
            g.pipe(proj, rh);
            g.pipe(rh, gb);
            g.pipe(gb, sink);
            Ok(g)
        })
    }

    /// Distributed recursion: per-key counters race to 5 via rehash.
    fn recursive_build() -> PlanBuilder {
        Arc::new(|w, snap, cat| {
            let table = cat.get("nums")?;
            let mut g = PlanGraph::new();
            let scan = g.add(Box::new(ScanOp::new("nums", table.partition_for(snap, w))));
            let fp = g.add(Box::new(FixpointOp::new(vec![0], Termination::Fixpoint)));
            let step =
                g.add(Box::new(ApplyFunctionOp::new(Arc::new(FnMapper::new("inc", |d, _| {
                    let k = d.tuple.get(0).as_int().unwrap();
                    let v = d.tuple.get(1).as_double().unwrap();
                    if v < 5.0 {
                        Ok(vec![Delta::insert(tuple![k, v + 1.0])])
                    } else {
                        Ok(vec![])
                    }
                })))));
            let rh = g.add_rehash(vec![0]);
            let sink = g.add(Box::new(SinkOp::new()));
            g.connect(scan, 0, fp, 0);
            g.connect(fp, 0, step, 0);
            g.pipe(step, rh);
            g.connect(rh, 0, fp, 1);
            g.connect(fp, 1, sink, 0);
            Ok(g)
        })
    }

    #[test]
    fn distributed_recursion_converges() {
        let cat = catalog_with_numbers(30);
        let rt = ClusterRuntime::new(ClusterConfig::new(3), cat);
        let (results, report) = rt.run(recursive_build()).unwrap();
        assert_eq!(results.len(), 30);
        for t in &results {
            assert_eq!(t.get(1).as_double().unwrap(), 5.0, "key {}", t.get(0));
        }
        assert!(report.iterations() >= 5);
        // Δ set sizes hit zero at convergence.
        assert_eq!(report.query.strata.last().unwrap().delta_set_size, 0);
    }

    #[test]
    fn telemetry_merges_worker_traces_and_router_counters() {
        let cat = catalog_with_numbers(30);
        let rt = ClusterRuntime::new(ClusterConfig::new(3).with_telemetry(true), cat);
        let (results, report) = rt.run(recursive_build()).unwrap();
        assert_eq!(results.len(), 30);
        let trace = report.trace.as_ref().expect("telemetry on → trace present");
        // Sinks across all workers saw exactly the result cardinality.
        assert_eq!(trace.sink_rows(), results.len() as u64);
        // Iteration deltas mirror the per-stratum report.
        let strata: Vec<u64> = report.query.strata.iter().map(|s| s.delta_set_size).collect();
        assert_eq!(trace.iteration_deltas, strata);
        // The scan is partitioned on the rehash key, so deltas self-deliver
        // (no bytes crossed) — but the router still saw every routed row.
        assert_eq!(report.rows_routed.len(), 3);
        assert!(report.rows_routed.iter().all(|&r| r > 0));
        // Telemetry off → no trace, same results.
        let cat = catalog_with_numbers(30);
        let rt = ClusterRuntime::new(ClusterConfig::new(3), cat);
        let (plain, report) = rt.run(recursive_build()).unwrap();
        assert!(report.trace.is_none());
        assert_eq!(plain, results);
    }

    #[test]
    fn single_worker_matches_local_semantics() {
        let cat = catalog_with_numbers(10);
        let rt = ClusterRuntime::new(ClusterConfig::new(1), cat);
        let (results, _) = rt.run(recursive_build()).unwrap();
        assert_eq!(results.len(), 10);
        assert!(results.iter().all(|t| t.get(1).as_double().unwrap() == 5.0));
    }

    /// Every deterministic field of a report (everything but wall time),
    /// with the rows, for comparing runs across thread counts.
    fn deterministic(rows: &[Tuple], r: &ClusterReport) -> impl PartialEq + std::fmt::Debug {
        let strata: Vec<_> = r
            .query
            .strata
            .iter()
            .map(|s| (s.stratum, s.delta_set_size, s.bytes_shipped, s.metrics))
            .collect();
        let trace = r.trace.as_ref().map(|t| (t.sink_rows(), t.iteration_deltas.clone()));
        (
            rows.to_vec(),
            strata,
            (r.per_worker.clone(), r.rows_routed.clone(), r.query.totals),
            (r.rehash_bytes, r.broadcast_bytes, r.gather_bytes, r.checkpoint_bytes),
            r.failures.clone(),
            trace,
        )
    }

    /// The requestor drains its own share and leases threads for the
    /// rest, over the same round schedule whatever the share count: rows,
    /// per-stratum reports, per-worker metrics and router accounting must
    /// be bit-identical at every thread count — including more threads
    /// than workers, and across an incremental recovery.
    #[test]
    fn drain_is_bit_identical_at_every_thread_count() {
        let run = |threads: usize, failure: Option<FailurePlan>| {
            let mut cfg = ClusterConfig::new(3).with_telemetry(true).with_threads(threads);
            if let Some(f) = failure {
                cfg = cfg.with_failure(f, RecoveryStrategy::Incremental);
            }
            ClusterRuntime::new(cfg, catalog_with_numbers(30)).run(recursive_build()).unwrap()
        };
        for failure in [None, Some(FailurePlan::kill_at(1, 2))] {
            let (rows, report) = run(1, failure);
            // The failure case really recovered incrementally.
            assert_eq!(report.failures.len(), usize::from(failure.is_some()));
            assert!(report.failures.iter().all(|f| f.resumed_from > 0));
            let one = deterministic(&rows, &report);
            for threads in 2..=4 {
                let (rows, report) = run(threads, failure);
                let got = deterministic(&rows, &report);
                assert_eq!(got, one, "{threads} threads, failure {failure:?}");
            }
        }
    }

    /// Aggregation behind a rehash boundary that moves rows between
    /// workers: the sum of 1/(k+1) is order-sensitive in its low bits, so
    /// equality here proves every worker receives its batches in the same
    /// order at every thread count.
    #[test]
    fn rehash_aggregation_is_bit_identical_at_every_thread_count() {
        let run = |threads: usize| {
            let cat = catalog_of(90, |i| 1.0 / (i + 1) as f64);
            let cfg = ClusterConfig::new(3).with_threads(threads);
            ClusterRuntime::new(cfg, cat).run(mod3_sum_build()).unwrap()
        };
        let (rows1, rep1) = run(1);
        assert!(rep1.rehash_bytes > 0, "rows must cross workers");
        for threads in 2..=4 {
            let (rows, rep) = run(threads);
            assert_eq!(rows, rows1);
            assert_eq!(rep.per_worker, rep1.per_worker);
            assert_eq!(rep.rows_routed, rep1.rows_routed);
        }
    }

    #[test]
    fn incremental_recovery_completes_with_correct_results() {
        let cat = catalog_with_numbers(30);
        let cfg = ClusterConfig::new(3)
            .with_failure(FailurePlan::kill_at(1, 2), RecoveryStrategy::Incremental);
        let rt = ClusterRuntime::new(cfg, cat);
        let (results, report) = rt.run(recursive_build()).unwrap();
        assert_eq!(results.len(), 30);
        assert!(results.iter().all(|t| t.get(1).as_double().unwrap() == 5.0));
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].worker, 1);
        assert!(report.checkpoint_bytes > 0);
        // Incremental recovery resumed from a checkpointed stratum.
        assert!(report.failures[0].resumed_from > 0);
    }

    #[test]
    fn restart_recovery_completes_with_correct_results() {
        let cat = catalog_with_numbers(30);
        let cfg = ClusterConfig::new(3)
            .with_failure(FailurePlan::kill_at(2, 2), RecoveryStrategy::Restart);
        let rt = ClusterRuntime::new(cfg, cat);
        let (results, report) = rt.run(recursive_build()).unwrap();
        assert_eq!(results.len(), 30);
        assert!(results.iter().all(|t| t.get(1).as_double().unwrap() == 5.0));
        assert_eq!(report.failures[0].resumed_from, 0);
        // Restart re-executes early strata: more total strata than failure-free.
        let baseline = ClusterRuntime::new(ClusterConfig::new(3), catalog_with_numbers(30))
            .run(recursive_build())
            .unwrap()
            .1;
        assert!(report.iterations() > baseline.iterations());
    }

    #[test]
    fn restart_costs_more_than_incremental_for_late_failures() {
        let run = |strategy| {
            let cat = catalog_with_numbers(60);
            let cfg = ClusterConfig::new(4).with_failure(FailurePlan::kill_at(1, 4), strategy);
            ClusterRuntime::new(cfg, cat).run(recursive_build()).unwrap().1
        };
        let restart = run(RecoveryStrategy::Restart);
        let incremental = run(RecoveryStrategy::Incremental);
        assert!(
            incremental.simulated_time() < restart.simulated_time(),
            "incremental {} !< restart {}",
            incremental.simulated_time(),
            restart.simulated_time()
        );
    }
}
