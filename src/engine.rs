//! Execution engines: where a [`Session`](crate::session::Session) runs
//! optimized plans.
//!
//! # The `Engine` contract
//!
//! An [`Engine`] turns one optimizer-produced [`LogicalPlan`] into rows
//! plus an execution report. Implementations must:
//!
//! 1. **Read tables only through the context.** The
//!    [`EngineContext`] carries the session's stored-table
//!    [`Catalog`] and UDF/UDA [`Registry`]; an engine must not cache table
//!    contents across `execute` calls — the session may have inserted rows
//!    in between.
//! 2. **Return the *complete* result.** `rows` is the full materialized
//!    query answer, not a partition of it; a distributed engine unions its
//!    workers' sinks before returning (sorted, so engines agree
//!    bit-for-bit on set-semantics results).
//! 3. **Report faithfully.** [`EngineOutput::report`] carries the
//!    per-stratum trace in [`QueryReport`] form regardless of topology;
//!    cluster-only accounting (per-worker metrics, failures, checkpoint
//!    volume) rides in [`EngineOutput::cluster`]. `iterations()` on the
//!    report must equal the number of executed strata.
//! 4. **Fail with engine errors.** Errors surface as
//!    [`RexError`](rex_core::error::RexError); an engine maps its own
//!    error type in via `From`, never by formatting ad-hoc strings.
//!
//! Future backends (sharded stores, async pipelines, remote clusters —
//! see ROADMAP.md) plug in by implementing this trait; `Session` code and
//! user queries do not change.

use rex_cluster::failure::FailureEvent;
use rex_cluster::report::ClusterReport;
use rex_cluster::runtime::{ClusterConfig, ClusterRuntime};
use rex_core::error::Result;
use rex_core::exec::LocalRuntime;
use rex_core::metrics::{ExecMetrics, QueryReport};
use rex_core::telemetry::ExecTrace;
use rex_core::thread_budget;
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_rql::lower::{lower, lower_parallel, LowerOptions};
use rex_rql::provider::CatalogProvider;
use rex_rql::{RqlError, RqlStage};
use rex_storage::catalog::Catalog;

/// What an engine needs from the session to run a query: the stored
/// tables and the user code registered for the query's lifetime.
pub struct EngineContext<'a> {
    /// The session's stored tables.
    pub store: &'a Catalog,
    /// The session's UDF/UDA/handler registry.
    pub registry: &'a Registry,
    /// Collect a per-operator [`ExecTrace`] for this query (the engine
    /// returns it in [`EngineOutput::trace`]).
    pub telemetry: bool,
    /// Thread budget for this query: how many OS threads the engine may
    /// use in total (1 = single-threaded, the historical behavior). The
    /// engine treats this as a ceiling, not a promise — plans that cannot
    /// parallelize safely run on one thread, and the process-wide
    /// [`thread_budget`] may cap the extra
    /// threads actually spawned.
    pub threads: usize,
}

/// Cluster-level accounting attached to a result when the query ran
/// distributed.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Workers at query start.
    pub n_workers: usize,
    /// Final metrics per worker.
    pub per_worker: Vec<ExecMetrics>,
    /// Failures injected/recovered during the run.
    pub failures: Vec<FailureEvent>,
    /// Bytes replicated for incremental checkpoints.
    pub checkpoint_bytes: u64,
    /// Boundary-crossing bytes moved by key-partitioned rehash boundaries.
    pub rehash_bytes: u64,
    /// Boundary-crossing bytes replicated by broadcast boundaries.
    pub broadcast_bytes: u64,
    /// Boundary-crossing bytes funneled through gather boundaries.
    pub gather_bytes: u64,
    /// Rows the router delivered into each worker (self-delivery included).
    pub rows_routed: Vec<u64>,
}

/// An engine's answer: rows plus the unified execution report.
pub struct EngineOutput {
    /// The complete materialized result.
    pub rows: Vec<Tuple>,
    /// Per-stratum trace and totals (all topologies).
    pub report: QueryReport,
    /// Cluster-only accounting, when the query ran distributed.
    pub cluster: Option<ClusterStats>,
    /// Measured per-operator trace, when the context asked for telemetry
    /// (merged across workers for distributed runs).
    pub trace: Option<ExecTrace>,
}

/// An execution backend for optimized logical plans. See the module docs
/// for the implementation contract.
pub trait Engine: Send + Sync {
    /// A short, stable name for reports and diagnostics ("local",
    /// "cluster", ...).
    fn name(&self) -> &str;

    /// Execute `plan` against the session's tables and registry.
    fn execute(&self, plan: &LogicalPlan, ctx: &EngineContext<'_>) -> Result<EngineOutput>;
}

/// Single-node execution on [`LocalRuntime`]: plans lower against whole
/// stored tables and run in-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalEngine;

impl LocalEngine {
    /// The local engine.
    pub fn new() -> LocalEngine {
        LocalEngine
    }
}

impl Engine for LocalEngine {
    fn name(&self) -> &str {
        "local"
    }

    fn execute(&self, plan: &LogicalPlan, ctx: &EngineContext<'_>) -> Result<EngineOutput> {
        let provider = CatalogProvider::new(ctx.store.clone());
        // Morsel-driven parallel path: when the context grants threads
        // and the plan parallelizes safely, lower one plan copy per
        // thread and run them over shared snapshots. Extra threads are
        // leased from the process-wide budget so concurrent queries
        // (e.g. server readers) cannot oversubscribe the host.
        if ctx.threads > 1 {
            let extra = thread_budget::try_acquire(ctx.threads - 1);
            if extra > 0 {
                let lowered = lower_parallel(
                    plan,
                    &provider,
                    ctx.registry,
                    LowerOptions::default(),
                    1 + extra,
                );
                let run = match lowered {
                    Ok(Some(graphs)) => {
                        let rt = LocalRuntime::with_registry(ctx.registry.clone())
                            .with_telemetry(ctx.telemetry);
                        Some(rt.run_partitioned(graphs))
                    }
                    Ok(None) => None,
                    Err(e) => {
                        thread_budget::release(extra);
                        return Err(RqlError::at(RqlStage::Lower, e).into());
                    }
                };
                thread_budget::release(extra);
                if let Some(res) = run {
                    let (rows, report, trace) = res?;
                    return Ok(EngineOutput { rows, report, cluster: None, trace });
                }
            }
        }
        let graph =
            lower(plan, &provider, ctx.registry).map_err(|e| RqlError::at(RqlStage::Lower, e))?;
        let rt = LocalRuntime::with_registry(ctx.registry.clone()).with_telemetry(ctx.telemetry);
        // The runtime's sink already returns rows in sorted order (the
        // engine agreement contract) — no second sort here.
        let (rows, report, trace) = rt.run_traced(graph)?;
        Ok(EngineOutput { rows, report, cluster: None, trace })
    }
}

/// Distributed execution on [`ClusterRuntime`]: the optimized plan is
/// lowered once per worker against that worker's partition snapshot, and
/// the simulated cluster coordinates strata, routing, and recovery.
#[derive(Clone)]
pub struct ClusterEngine {
    config: ClusterConfig,
}

impl ClusterEngine {
    /// An engine over `n` workers recovering incrementally.
    pub fn new(n_workers: usize) -> ClusterEngine {
        ClusterEngine { config: ClusterConfig::new(n_workers) }
    }

    /// An engine with an explicit cluster configuration (failure plans,
    /// recovery strategy, threads). The configured registry is
    /// replaced by the session's at query time.
    pub fn with_config(config: ClusterConfig) -> ClusterEngine {
        ClusterEngine { config }
    }

    /// The number of workers this engine runs.
    pub fn n_workers(&self) -> usize {
        self.config.n_workers
    }
}

impl Engine for ClusterEngine {
    fn name(&self) -> &str {
        "cluster"
    }

    fn execute(&self, plan: &LogicalPlan, ctx: &EngineContext<'_>) -> Result<EngineOutput> {
        let config = self
            .config
            .clone()
            .with_registry(ctx.registry.clone())
            .with_telemetry(ctx.telemetry)
            .with_threads(ctx.threads);
        let rt = ClusterRuntime::new(config, ctx.store.clone());
        let (rows, report) = rt.run_logical(plan, ctx.registry)?;
        let ClusterReport {
            query,
            per_worker,
            n_workers,
            failures,
            checkpoint_bytes,
            rehash_bytes,
            broadcast_bytes,
            gather_bytes,
            rows_routed,
            trace,
        } = report;
        Ok(EngineOutput {
            rows,
            report: query,
            cluster: Some(ClusterStats {
                n_workers,
                per_worker,
                failures,
                checkpoint_bytes,
                rehash_bytes,
                broadcast_bytes,
                gather_bytes,
                rows_routed,
            }),
            trace,
        })
    }
}
