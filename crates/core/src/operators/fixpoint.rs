//! The while/fixpoint operator: recursion with state refinement.
//!
//! "The fixpoint operator has a dual function: it forwards its input data
//! back to the input of one operator in the recursive query plan, and also
//! removes duplicate tuples according to a query-specified key, by
//! maintaining a set of processed tuples" (§4.2).
//!
//! Ports:
//! * input 0 — the base case; input 1 — the recursive case's output;
//! * output 0 — feedback into the recursive subplan; output 1 — final
//!   query results, emitted once the termination condition holds.
//!
//! The operator keeps the *mutable set* keyed by `FIXPOINT BY` columns.
//! In delta mode only the tuples changed in the current stratum (the Δᵢ
//! set) are fed back; in no-delta mode the entire mutable set is re-emitted
//! every stratum, reproducing the paper's `no-delta` baseline. The Δᵢ set is
//! also what gets checkpointed for incremental recovery (§4.3). The set is
//! a [`KeyedTable`]: each delta hashes (FxHash) and compares its key
//! columns in place, and an owned key is allocated only on first insert.
//!
//! Every stratum is started by the runtime, never by the data. The base
//! case's end of stream only marks the operator startable; once the
//! initial drain is quiescent the runtime calls [`FixpointOp::start`] to
//! feed stratum 0 back, and after each vote [`FixpointOp::advance`] to feed
//! the next. The executor runs depth-first, so an emission made from
//! `on_punct` could overtake scan batches still queued for the recursive
//! subplan (a handler join's build side, say); quiescence cannot.

use crate::delta::{Annotation, Delta, Punctuation};
use crate::error::{Result, RexError};
use crate::handlers::{TupleSet, WhileHandler};
use crate::hash::KeyedTable;
use crate::operators::{OpCtx, Operator, OperatorState};
use crate::tuple::Tuple;
use std::sync::Arc;

/// Termination conditions for recursion (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Implicit: stop when a stratum produces no new or changed tuples.
    Fixpoint,
    /// Run exactly `n` recursive strata (the paper's no-delta/wrap runs,
    /// which "do not perform convergence testing").
    ExactStrata(u64),
    /// Implicit fixpoint with a safety cap.
    FixpointOrMax(u64),
}

impl Termination {
    /// Whether another stratum should run, given this operator's pending
    /// delta count and the stratum just completed. Cluster execution sums
    /// pending counts across workers before deciding.
    pub fn wants_continue(&self, pending_total: usize, completed_stratum: u64) -> bool {
        match self {
            Termination::Fixpoint => pending_total > 0,
            Termination::ExactStrata(n) => completed_stratum + 1 < *n,
            Termination::FixpointOrMax(n) => pending_total > 0 && completed_stratum + 1 < *n,
        }
    }
}

/// The fixpoint (while) operator.
pub struct FixpointOp {
    key_cols: Vec<usize>,
    handler: Option<Arc<dyn WhileHandler>>,
    term: Termination,
    /// The mutable set: key → current tuple.
    state: KeyedTable<Tuple>,
    /// Δᵢ: deltas produced in the current stratum, fed back on advance.
    pending: Vec<Delta>,
    /// In no-delta mode the full mutable set is re-emitted each stratum.
    delta_mode: bool,
    stratum: u64,
    /// The base case has ended: the runtime may [`start`](Self::start).
    base_ended: bool,
    ready_for_vote: bool,
    finished: bool,
}

impl FixpointOp {
    /// Fixpoint keyed on `key_cols` with the given termination condition.
    pub fn new(key_cols: Vec<usize>, term: Termination) -> FixpointOp {
        FixpointOp {
            key_cols,
            handler: None,
            term,
            state: KeyedTable::new(),
            pending: Vec::new(),
            delta_mode: true,
            stratum: 0,
            base_ended: false,
            ready_for_vote: false,
            finished: false,
        }
    }

    /// Install a while delta handler (§3.3).
    pub fn with_handler(mut self, h: Arc<dyn WhileHandler>) -> Self {
        self.handler = Some(h);
        self
    }

    /// Switch to no-delta mode: the entire mutable set is fed back each
    /// stratum instead of only the Δᵢ set.
    pub fn no_delta(mut self) -> Self {
        self.delta_mode = false;
        self
    }

    /// The termination condition.
    pub fn termination(&self) -> Termination {
        self.term
    }

    /// The `FIXPOINT BY` key columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Δᵢ set size for the just-completed stratum (the coordinator's vote).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The stratum currently being executed.
    pub fn stratum(&self) -> u64 {
        self.stratum
    }

    /// Whether the recursive input has punctuated the current stratum and
    /// the operator awaits the coordinator's decision.
    pub fn ready_for_vote(&self) -> bool {
        self.ready_for_vote
    }

    /// Whether final results have been emitted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Size of the mutable set.
    pub fn state_size(&self) -> usize {
        self.state.len()
    }

    /// Wire size of the current Δᵢ set — what incremental checkpointing
    /// replicates per stratum (§4.3: "every machine buffers and replicates
    /// the mutable Δᵢ set processed by the local fixpoint operator").
    pub fn pending_bytes(&self) -> u64 {
        self.pending.iter().map(|d| d.byte_size() as u64).sum()
    }

    /// Apply one delta to the mutable set, recording feedback deltas. The
    /// key columns are hashed and compared in place; an owned key is
    /// allocated only when a key is first inserted.
    fn apply(&mut self, d: Delta, ctx: &mut OpCtx<'_>) -> Result<()> {
        let cols = &self.key_cols;
        let hash = d.tuple.hash_key(cols);
        if let Some(h) = &self.handler {
            ctx.charge_udf_call();
            // Present the key's current tuple to the handler as a TupleSet.
            let mut set = TupleSet::new();
            if let Some(existing) = self.state.probe_hashed(hash, &d.tuple, cols) {
                set.insert(existing.clone());
            }
            let produced = h.update(&mut set, &d)?;
            match set.into_tuples().pop() {
                Some(t) => {
                    upsert(&mut self.state, hash, &d.tuple, cols, t);
                }
                None => {
                    self.state.remove_probe_hashed(hash, &d.tuple, cols);
                }
            }
            self.pending.extend(produced);
            return Ok(());
        }
        ctx.charge_cpu(ctx.cost.hash_cost);
        if d.ann == Annotation::Delete {
            if self.state.remove_probe_hashed(hash, &d.tuple, cols).is_some() {
                self.pending.push(Delta::delete(d.tuple));
            }
            return Ok(());
        }
        match upsert(&mut self.state, hash, &d.tuple, cols, d.tuple.clone()) {
            // Duplicate derivation: set semantics drop it.
            Some(old) if old == d.tuple => {}
            Some(old) => self.pending.push(Delta::replace(old, d.tuple)),
            None => self.pending.push(Delta::insert(d.tuple)),
        }
        Ok(())
    }

    /// Emit the feedback batch for the next stratum.
    fn emit_feedback(&mut self, ctx: &mut OpCtx<'_>) {
        let feedback: Vec<Delta> = if self.delta_mode {
            std::mem::take(&mut self.pending)
        } else {
            self.pending.clear();
            let mut tuples: Vec<&Tuple> = self.state.values().collect();
            tuples.sort_unstable();
            tuples.into_iter().map(|t| Delta::insert(t.clone())).collect()
        };
        ctx.emit(0, feedback);
        ctx.punct(0, Punctuation::EndOfStratum(self.stratum));
    }

    /// Start stratum 0: feed the base case back into the recursive
    /// subplan. The runtime calls this once the initial drain is
    /// quiescent, exactly as it calls [`advance`](Self::advance) for every
    /// later stratum. By then every scan batch has been delivered,
    /// including the recursive subplan's immutable inputs (a handler
    /// join's build side), whatever order the executor ran them in. The
    /// base case's end only makes the fixpoint startable.
    pub fn start(&mut self, ctx: &mut OpCtx<'_>) -> Result<()> {
        if !self.base_ended {
            return Err(RexError::Exec("fixpoint started before its base case ended".into()));
        }
        self.emit_feedback(ctx);
        Ok(())
    }

    /// Coordinator decision: continue with another stratum or finish.
    /// Called by the runtime after all fixpoints have become
    /// [`ready_for_vote`](Self::ready_for_vote).
    pub fn advance(&mut self, cont: bool, ctx: &mut OpCtx<'_>) -> Result<()> {
        self.ready_for_vote = false;
        if cont {
            self.stratum += 1;
            self.emit_feedback(ctx);
        } else {
            self.finished = true;
            // Final results: the mutable set, in deterministic order.
            let mut tuples: Vec<&Tuple> = self.state.values().collect();
            tuples.sort_unstable();
            let out: Vec<Delta> = tuples.into_iter().map(|t| Delta::insert(t.clone())).collect();
            ctx.emit(1, out);
            ctx.punct(1, Punctuation::EndOfStream);
            // Let the recursive subplan shut down.
            ctx.punct(0, Punctuation::EndOfStream);
        }
        Ok(())
    }

    /// Restore a checkpoint and queue the restored tuples as feedback so
    /// the recursive subplan's state is rebuilt (incremental recovery,
    /// §4.3). `stratum` is the last completed stratum.
    pub fn restore_and_resume(&mut self, ckpt: OperatorState, stratum: u64) {
        self.state.clear();
        self.pending.clear();
        for t in ckpt.tuples {
            let key = t.key(&self.key_cols);
            self.pending.push(Delta::insert(t.clone()));
            self.state.insert(key, t);
        }
        self.stratum = stratum;
        self.ready_for_vote = false;
        self.finished = false;
    }
}

/// Store `t` under `key_of`'s key columns, returning the tuple it
/// replaced. The owned key is allocated only when the key is new.
fn upsert(
    state: &mut KeyedTable<Tuple>,
    hash: u64,
    key_of: &Tuple,
    cols: &[usize],
    t: Tuple,
) -> Option<Tuple> {
    let mut fresh = Some(t);
    let slot = state.probe_or_insert_hashed(hash, key_of, cols, || {
        fresh.take().expect("init runs at most once")
    });
    fresh.map(|t| std::mem::replace(slot, t))
}

impl Operator for FixpointOp {
    fn name(&self) -> String {
        format!("Fixpoint{:?}{}", self.key_cols, if self.delta_mode { "" } else { " (no-Δ)" })
    }

    fn n_inputs(&self) -> usize {
        2
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        for d in deltas {
            self.apply(d, ctx)?;
        }
        Ok(())
    }

    fn on_punct(&mut self, port: usize, p: Punctuation, _ctx: &mut OpCtx<'_>) -> Result<()> {
        match (port, p) {
            // Base case complete (a stratified base case punctuates a
            // stratum instead): the runtime starts stratum 0 once the
            // initial drain is quiescent.
            (0, _) => self.base_ended = true,
            // Recursive case punctuated: ready for the coordinator's vote.
            (1, Punctuation::EndOfStratum(s)) => {
                debug_assert_eq!(s, self.stratum, "stratum punctuation mismatch");
                self.ready_for_vote = true;
            }
            // EndOfStream echoes back after we broadcast it; ignore.
            (1, Punctuation::EndOfStream) => {}
            _ => {}
        }
        Ok(())
    }

    fn as_fixpoint(&mut self) -> Option<&mut FixpointOp> {
        Some(self)
    }

    fn checkpoint(&self) -> Option<OperatorState> {
        let mut tuples: Vec<Tuple> = self.state.values().cloned().collect();
        tuples.sort_unstable();
        Some(OperatorState { tuples })
    }

    fn restore(&mut self, state: OperatorState) {
        self.restore_and_resume(state, 0);
    }

    fn reset(&mut self) {
        self.state.clear();
        self.pending.clear();
        self.stratum = 0;
        self.base_ended = false;
        self.ready_for_vote = false;
        self.finished = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    fn ctx_run<F: FnOnce(&mut FixpointOp, &mut OpCtx<'_>)>(
        op: &mut FixpointOp,
        f: F,
    ) -> Vec<(usize, Event)> {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        f(op, &mut ctx);
        ctx.take_output()
    }

    fn data_on(out: &[(usize, Event)], port: usize) -> Vec<Delta> {
        out.iter()
            .filter(|(p, _)| *p == port)
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d.clone(),
                _ => vec![],
            })
            .collect()
    }

    /// The base case's end only makes the fixpoint startable; the
    /// runtime's start call feeds stratum 0 back.
    #[test]
    fn base_case_eos_marks_started_and_start_feeds_back() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        let out = ctx_run(&mut fp, |op, ctx| {
            assert!(op.start(ctx).is_err(), "no start before the base case ends");
        });
        assert!(out.is_empty());
        let out = ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64, 1.0f64])], ctx).unwrap();
            op.on_punct(0, Punctuation::EndOfStream, ctx).unwrap();
        });
        assert!(out.is_empty(), "end of the base case emits nothing: {out:?}");
        assert_eq!(fp.pending_count(), 1);
        let out = ctx_run(&mut fp, |op, ctx| op.start(ctx).unwrap());
        assert_eq!(data_on(&out, 0), vec![Delta::insert(tuple![1i64, 1.0f64])]);
        assert!(matches!(out.last(), Some((0, Event::Punct(Punctuation::EndOfStratum(0))))));
        assert_eq!(fp.pending_count(), 0);
        assert_eq!(fp.stratum(), 0);
    }

    #[test]
    fn set_semantics_dedup_by_key() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64, 5.0f64])], ctx).unwrap();
            // Same key, same tuple: dropped.
            op.on_deltas(0, vec![Delta::insert(tuple![1i64, 5.0f64])], ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 1);
        assert_eq!(fp.state_size(), 1);
        // Same key, new value: replacement recorded.
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![1i64, 6.0f64])], ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 2);
        assert_eq!(fp.state_size(), 1);
    }

    #[test]
    fn vote_and_advance_cycle() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        let out = ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64])], ctx).unwrap();
            op.on_punct(0, Punctuation::EndOfStream, ctx).unwrap();
        });
        assert!(out.is_empty());
        assert!(!fp.ready_for_vote());
        // The runtime starts stratum 0 with the base case's Δ.
        let out = ctx_run(&mut fp, |op, ctx| op.start(ctx).unwrap());
        assert_eq!(data_on(&out, 0), vec![Delta::insert(tuple![1i64])]);
        assert!(!fp.ready_for_vote());
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![2i64])], ctx).unwrap();
            op.on_punct(1, Punctuation::EndOfStratum(0), ctx).unwrap();
        });
        assert!(fp.ready_for_vote());
        assert_eq!(fp.pending_count(), 1);
        // Continue: feedback goes out with the next stratum's punctuation.
        let out = ctx_run(&mut fp, |op, ctx| {
            op.advance(true, ctx).unwrap();
        });
        assert_eq!(data_on(&out, 0), vec![Delta::insert(tuple![2i64])]);
        assert!(matches!(out.last(), Some((0, Event::Punct(Punctuation::EndOfStratum(1))))));
        assert_eq!(fp.stratum(), 1);
        // No new data this stratum → pending 0 → finish.
        ctx_run(&mut fp, |op, ctx| {
            op.on_punct(1, Punctuation::EndOfStratum(1), ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 0);
        let out = ctx_run(&mut fp, |op, ctx| {
            op.advance(false, ctx).unwrap();
        });
        let finals = data_on(&out, 1);
        assert_eq!(finals.len(), 2);
        assert!(fp.finished());
    }

    #[test]
    fn no_delta_mode_reemits_full_state() {
        let mut fp = FixpointOp::new(vec![0], Termination::ExactStrata(3)).no_delta();
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64]), Delta::insert(tuple![2i64])], ctx)
                .unwrap();
            op.on_punct(0, Punctuation::EndOfStream, ctx).unwrap();
            op.start(ctx).unwrap();
        });
        // Stratum 1: only key 1 changed, but no-delta re-emits everything.
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![1i64])], ctx).unwrap();
            op.on_punct(1, Punctuation::EndOfStratum(0), ctx).unwrap();
        });
        let out = ctx_run(&mut fp, |op, ctx| {
            op.advance(true, ctx).unwrap();
        });
        assert_eq!(data_on(&out, 0).len(), 2);
    }

    #[test]
    fn termination_conditions() {
        assert!(Termination::Fixpoint.wants_continue(5, 100));
        assert!(!Termination::Fixpoint.wants_continue(0, 0));
        assert!(Termination::ExactStrata(3).wants_continue(0, 1));
        assert!(!Termination::ExactStrata(3).wants_continue(99, 2));
        assert!(Termination::FixpointOrMax(10).wants_continue(1, 5));
        assert!(!Termination::FixpointOrMax(10).wants_continue(1, 9));
        assert!(!Termination::FixpointOrMax(10).wants_continue(0, 5));
    }

    #[test]
    fn checkpoint_and_restore_round_trip() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64, 9.0f64])], ctx).unwrap();
        });
        let ckpt = fp.checkpoint().unwrap();
        assert_eq!(ckpt.tuples, vec![tuple![1i64, 9.0f64]]);

        let mut fresh = FixpointOp::new(vec![0], Termination::Fixpoint);
        fresh.restore_and_resume(ckpt, 7);
        assert_eq!(fresh.state_size(), 1);
        assert_eq!(fresh.stratum(), 7);
        // Restored state is queued as feedback for downstream rebuild.
        assert_eq!(fresh.pending_count(), 1);
    }

    #[test]
    fn delete_removes_from_state() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64])], ctx).unwrap();
            op.on_deltas(0, vec![Delta::delete(tuple![1i64])], ctx).unwrap();
        });
        assert_eq!(fp.state_size(), 0);
        assert_eq!(fp.pending_count(), 2); // insert then delete both recorded
    }

    /// A monotone while handler: keep the smaller distance (SSSP-style).
    struct MinDist;
    impl WhileHandler for MinDist {
        fn name(&self) -> &str {
            "min-dist"
        }
        fn update(&self, rel: &mut TupleSet, d: &Delta) -> Result<Vec<Delta>> {
            let new_dist = d.tuple.get(1).as_double().unwrap_or(f64::INFINITY);
            let improved = match rel.iter().next() {
                Some(t) => new_dist < t.get(1).as_double().unwrap_or(f64::INFINITY),
                None => true,
            };
            if improved {
                rel.clear();
                rel.insert(d.tuple.clone());
                Ok(vec![Delta::insert(d.tuple.clone())])
            } else {
                Ok(vec![])
            }
        }
    }

    #[test]
    fn while_handler_controls_refinement() {
        let mut fp =
            FixpointOp::new(vec![0], Termination::Fixpoint).with_handler(Arc::new(MinDist));
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![1i64, 5.0f64])], ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 1);
        // A worse distance is ignored entirely.
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![1i64, 9.0f64])], ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 1);
        assert_eq!(fp.state_size(), 1);
        // A better one refines state and propagates.
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![1i64, 2.0f64])], ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 2);
    }
}
