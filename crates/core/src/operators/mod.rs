//! Physical operators.
//!
//! REX operators are push-based and pipelined (§4.2): deltas flow in
//! batches, punctuation markers delimit strata, and every operator both
//! propagates deltas and (if stateful) maintains its state under them.
//!
//! Operators are written against the [`Operator`] trait and wired into a
//! [`PlanGraph`](crate::exec::PlanGraph); the executor delivers
//! [`Event`]s and collects emissions through an [`OpCtx`].

mod apply_fn;
mod filter;
mod fixpoint;
mod group_by;
mod join;
mod project;
mod rehash;
mod scan;
mod sink;
mod topk;
mod union;

pub use apply_fn::{ApplyFunctionOp, DeltaMapper, ExprMapper, FnMapper};
pub use filter::FilterOp;
pub use fixpoint::{FixpointOp, Termination};
pub use group_by::{AggSpec, GroupByOp};
pub use join::HashJoinOp;
pub use project::ProjectOp;
pub use rehash::{hash_key, hash_key_cols, shard_of, RehashOp, ShardGateOp};
pub use scan::{ScanOp, ScanRows, MORSEL_ROWS};
pub use sink::SinkOp;
pub use topk::{compare_by_keys, SortSpec, TopKOp};
pub use union::UnionOp;

use crate::col::ColumnBatch;
use crate::delta::{Delta, Punctuation};
use crate::error::Result;
use crate::metrics::{CostModel, ExecMetrics};
use crate::tuple::Tuple;
use crate::udf::Registry;

/// A unit of traffic on a dataflow edge: a batch of deltas, a run-length
/// batch of insertions, a columnar batch, or a punctuation marker.
#[derive(Debug, Clone)]
pub enum Event {
    /// A batch of annotated tuples.
    Data(Vec<Delta>),
    /// A batch of *bare* tuples, every one an implicit `+()` insertion.
    /// Scans emit these, and operators that need no annotations (filters,
    /// projections, group-by folds, the join's batch path, sinks) move
    /// 16-byte tuples instead of 48-byte deltas; any operator without a
    /// native [`Operator::on_rows`] transparently receives the batch as
    /// insertion deltas.
    Rows(Vec<Tuple>),
    /// A columnar batch of implicit `+()` insertions — the vectorized
    /// form of [`Event::Rows`]. Scans on the column lane emit these so
    /// filters, projections, shard gates, group-bys and probe-only joins
    /// run over typed columns; any operator without a native
    /// [`Operator::on_cols`] transparently receives the batch as bare
    /// rows (and, failing that, as insertion deltas).
    Cols(ColumnBatch),
    /// A stratum/stream boundary.
    Punct(Punctuation),
}

impl Event {
    /// Approximate wire size (for network edges).
    pub fn byte_size(&self) -> usize {
        match self {
            Event::Data(ds) => 8 + ds.iter().map(Delta::byte_size).sum::<usize>(),
            // Parity with `Data`: each bare tuple ships as a `+()` delta.
            Event::Rows(ts) => 8 + ts.iter().map(|t| 1 + t.byte_size()).sum::<usize>(),
            // Parity with `Rows`: a columnar batch accounts per selected row.
            Event::Cols(b) => b.byte_size(),
            Event::Punct(_) => 9,
        }
    }
}

/// Execution context handed to operators: emission buffer, metrics, cost
/// model, registry, and the current stratum.
pub struct OpCtx<'a> {
    /// Current stratum number.
    pub stratum: u64,
    /// Worker id (0 in single-node execution).
    pub worker: usize,
    /// UDF/UDA registry.
    pub reg: &'a Registry,
    /// Cost constants for metric accounting.
    pub cost: &'a CostModel,
    /// Metric counters (shared per worker).
    pub metrics: &'a mut ExecMetrics,
    out: Vec<(usize, Event)>,
}

impl<'a> OpCtx<'a> {
    /// Create a context for one operator activation.
    pub fn new(
        stratum: u64,
        worker: usize,
        reg: &'a Registry,
        cost: &'a CostModel,
        metrics: &'a mut ExecMetrics,
    ) -> OpCtx<'a> {
        OpCtx { stratum, worker, reg, cost, metrics, out: Vec::new() }
    }

    /// Emit a batch of deltas on an output port.
    pub fn emit(&mut self, port: usize, deltas: Vec<Delta>) {
        if !deltas.is_empty() {
            self.metrics.deltas_emitted += deltas.len() as u64;
            self.out.push((port, Event::Data(deltas)));
        }
    }

    /// Emit a run-length insert batch on an output port (the bare-rows
    /// counterpart of [`emit`](OpCtx::emit); each row counts as one
    /// emitted delta).
    pub fn emit_rows(&mut self, port: usize, rows: Vec<Tuple>) {
        if !rows.is_empty() {
            self.metrics.deltas_emitted += rows.len() as u64;
            self.out.push((port, Event::Rows(rows)));
        }
    }

    /// Emit a columnar insert batch on an output port (the columnar
    /// counterpart of [`emit_rows`](OpCtx::emit_rows); each selected row
    /// counts as one emitted delta).
    pub fn emit_cols(&mut self, port: usize, batch: ColumnBatch) {
        if !batch.is_empty() {
            self.metrics.deltas_emitted += batch.len() as u64;
            self.out.push((port, Event::Cols(batch)));
        }
    }

    /// Emit a punctuation marker on an output port.
    pub fn punct(&mut self, port: usize, p: Punctuation) {
        self.metrics.punctuations += 1;
        self.out.push((port, Event::Punct(p)));
    }

    /// Account CPU work.
    pub fn charge_cpu(&mut self, units: f64) {
        self.metrics.cpu_units += units;
    }

    /// Account one UDF/UDA invocation (amortized by input batching).
    pub fn charge_udf_call(&mut self) {
        self.metrics.udf_calls += 1;
        self.metrics.cpu_units += self.cost.amortized_udf_overhead();
    }

    /// Account processed input deltas.
    pub fn charge_input(&mut self, n: usize) {
        self.metrics.tuples_processed += n as u64;
        self.metrics.cpu_units += n as f64 * self.cost.cpu_per_tuple;
    }

    /// Account a disk read of `bytes`.
    pub fn charge_disk_read(&mut self, bytes: u64) {
        self.metrics.disk_read += bytes;
    }

    /// Take the buffered emissions (executor-side).
    pub fn take_output(&mut self) -> Vec<(usize, Event)> {
        std::mem::take(&mut self.out)
    }

    /// Drain the buffered emissions in place, keeping the buffer's
    /// capacity. The executor's event loop uses this so one scratch
    /// buffer serves every operator activation of a drain instead of
    /// allocating a `take_output` vector per event.
    pub fn drain_output(&mut self) -> std::vec::Drain<'_, (usize, Event)> {
        self.out.drain(..)
    }
}

/// Checkpointable operator state: the tuples a recovering node needs to
/// resume (the fixpoint's mutable set, §4.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorState {
    /// The state tuples.
    pub tuples: Vec<Tuple>,
}

impl OperatorState {
    /// Serialized size, for checkpoint-volume accounting.
    pub fn byte_size(&self) -> usize {
        self.tuples.iter().map(Tuple::byte_size).sum()
    }
}

/// The push-based operator interface.
///
/// **Batch forms.** A data batch arrives in one of three forms — deltas
/// ([`on_deltas`](Operator::on_deltas)), bare rows
/// ([`on_rows`](Operator::on_rows)) or columns
/// ([`on_cols`](Operator::on_cols)). The form is a property of the batch,
/// not of the plan: any form may arrive on any port, interleaved with the
/// others, and every operator must produce the same output for `Rows`/
/// `Cols` as for the equivalent batch of `+()` deltas (the defaults below
/// guarantee it by conversion; native overrides are optimizations).
/// `Rows`/`Cols` say nothing about later batches: a delete or replacement
/// of a row that arrived bare may follow on the same port.
pub trait Operator: Send {
    /// Human-readable name, used in plans and metrics.
    fn name(&self) -> String;

    /// Number of input ports.
    fn n_inputs(&self) -> usize {
        1
    }

    /// Handle a batch of deltas arriving on `port`.
    fn on_deltas(&mut self, port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()>;

    /// Handle a run-length insert batch arriving on `port`. The default
    /// expands the rows into `+()` deltas and delegates to
    /// [`on_deltas`](Operator::on_deltas); operators that can work on
    /// bare tuples (filter, project, group-by, join, sink) override it.
    fn on_rows(&mut self, port: usize, rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        self.on_deltas(port, rows.into_iter().map(Delta::insert).collect(), ctx)
    }

    /// Handle a columnar insert batch arriving on `port`. The default
    /// materializes the selected rows and delegates to
    /// [`on_rows`](Operator::on_rows). Filter, project and the shard gate
    /// run native kernels; the group-by folds whole and partial parts
    /// from the typed columns; the join probes a probe-only batch by its
    /// key columns and emits columns. Everything else — a join side it
    /// stores, a merge, top-k, exchanges, sinks — takes the default.
    fn on_cols(&mut self, port: usize, batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        self.on_rows(port, batch.to_rows(), ctx)
    }

    /// Handle a punctuation marker arriving on `port`.
    fn on_punct(&mut self, port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()>;

    /// Whether this operator is a source (driven by the executor, not by
    /// upstream events).
    fn is_source(&self) -> bool {
        false
    }

    /// Produce a source's next batch — a scan's next batch, or the
    /// batches of its next morsel — or, when it has none left, its
    /// end-of-stream, returning `false`. The executor pulls a started
    /// source only when its queue is empty, until this returns `false`.
    fn pull_source(&mut self, ctx: &mut OpCtx<'_>) -> Result<bool> {
        let _ = ctx;
        Ok(false)
    }

    /// Fixpoint coordination hook: downcast to a fixpoint operator.
    fn as_fixpoint(&mut self) -> Option<&mut FixpointOp> {
        None
    }

    /// Sink hook: downcast to a sink.
    fn as_sink(&mut self) -> Option<&mut SinkOp> {
        None
    }

    /// Snapshot recoverable state (fixpoint mutable set). `None` for
    /// stateless operators.
    fn checkpoint(&self) -> Option<OperatorState> {
        None
    }

    /// Restore state from a checkpoint.
    fn restore(&mut self, state: OperatorState) {
        let _ = state;
    }

    /// Clear all state, returning the operator to its pre-execution
    /// condition (used by restart recovery).
    fn reset(&mut self);

    /// A copy of this operator, state included, so a long-lived dataflow
    /// can be replicated ([`Executor::try_clone`](crate::exec::Executor::try_clone)).
    /// `None` (the default) when the operator cannot be copied.
    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        None
    }

    /// Approximate bytes of state retained across batches (join sides,
    /// group state). Stateless operators hold none (the default).
    fn state_bytes(&self) -> usize {
        0
    }

    /// Operator-specific telemetry counters (hash probes/collisions,
    /// retained state sizes), harvested once per traced query. Stateless
    /// operators report nothing.
    fn stats_detail(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Track punctuation across the inputs of an n-ary operator: "n-ary
/// operators such as a join or rehash wait until all inputs have received
/// appropriate punctuation before proceeding" (§4.2). An input that has seen
/// `EndOfStream` counts as punctuated for every later stratum.
#[derive(Debug, Clone, Default)]
pub struct PunctTracker {
    per_port: Vec<PortPunct>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PortPunct {
    #[default]
    None,
    Stratum(u64),
    Eos,
}

impl PunctTracker {
    /// A tracker for `n` ports.
    pub fn new(n: usize) -> PunctTracker {
        PunctTracker { per_port: vec![PortPunct::None; n] }
    }

    /// Record a punctuation arrival; returns the punctuation to forward
    /// downstream, if all ports are now aligned.
    pub fn arrive(&mut self, port: usize, p: Punctuation) -> Option<Punctuation> {
        self.per_port[port] = match p {
            Punctuation::EndOfStratum(s) => PortPunct::Stratum(s),
            Punctuation::EndOfStream => PortPunct::Eos,
        };
        self.aligned()
    }

    /// The punctuation all ports currently agree on, if any.
    pub fn aligned(&self) -> Option<Punctuation> {
        if self.per_port.iter().all(|p| *p == PortPunct::Eos) {
            return Some(Punctuation::EndOfStream);
        }
        // All ports must be at stratum s or EOS.
        let mut stratum = None;
        for p in &self.per_port {
            match p {
                PortPunct::None => return None,
                PortPunct::Eos => {}
                PortPunct::Stratum(s) => match stratum {
                    None => stratum = Some(*s),
                    Some(prev) if prev == *s => {}
                    Some(_) => return None,
                },
            }
        }
        stratum.map(Punctuation::EndOfStratum)
    }

    /// Whether `port` has seen `EndOfStream`. A join promised insert-only
    /// inputs uses this to skip building hash state for a side whose
    /// opposite input can no longer produce rows to probe it.
    pub fn is_eos(&self, port: usize) -> bool {
        self.per_port[port] == PortPunct::Eos
    }

    /// Reset stratum markers (EOS persists) at the start of a new stratum.
    pub fn next_stratum(&mut self) {
        for p in &mut self.per_port {
            if let PortPunct::Stratum(_) = p {
                *p = PortPunct::None;
            }
        }
    }

    /// Reset the tracker entirely.
    pub fn reset(&mut self) {
        for p in &mut self.per_port {
            *p = PortPunct::None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn punct_tracker_waits_for_all_ports() {
        let mut t = PunctTracker::new(2);
        assert_eq!(t.arrive(0, Punctuation::EndOfStratum(1)), None);
        assert_eq!(t.arrive(1, Punctuation::EndOfStratum(1)), Some(Punctuation::EndOfStratum(1)));
    }

    #[test]
    fn punct_tracker_eos_counts_for_all_strata() {
        let mut t = PunctTracker::new(2);
        assert_eq!(t.arrive(0, Punctuation::EndOfStream), None);
        // The immutable side is done; every stratum of the other side aligns.
        assert_eq!(t.arrive(1, Punctuation::EndOfStratum(0)), Some(Punctuation::EndOfStratum(0)));
        t.next_stratum();
        assert_eq!(t.arrive(1, Punctuation::EndOfStratum(1)), Some(Punctuation::EndOfStratum(1)));
        assert_eq!(t.arrive(1, Punctuation::EndOfStream), Some(Punctuation::EndOfStream));
    }

    #[test]
    fn punct_tracker_mismatched_strata_do_not_align() {
        let mut t = PunctTracker::new(2);
        t.arrive(0, Punctuation::EndOfStratum(1));
        assert_eq!(t.arrive(1, Punctuation::EndOfStratum(2)), None);
    }

    #[test]
    fn event_byte_size() {
        let e = Event::Data(vec![Delta::insert(tuple![1i64])]);
        assert_eq!(e.byte_size(), 8 + 11);
        assert_eq!(Event::Punct(Punctuation::EndOfStream).byte_size(), 9);
    }

    #[test]
    fn opctx_charges_metrics() {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        ctx.charge_input(5);
        ctx.emit(0, vec![Delta::insert(tuple![1i64])]);
        ctx.emit(0, vec![]); // empty batches are dropped
        ctx.punct(0, Punctuation::EndOfStream);
        let out = ctx.take_output();
        assert_eq!(out.len(), 2);
        assert_eq!(m.tuples_processed, 5);
        assert_eq!(m.deltas_emitted, 1);
        assert_eq!(m.punctuations, 1);
        assert!(m.cpu_units > 0.0);
    }
}
