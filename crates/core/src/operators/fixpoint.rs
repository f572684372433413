//! The while/fixpoint operator: recursion with state refinement.
//!
//! "The fixpoint operator has a dual function: it forwards its input data
//! back to the input of one operator in the recursive query plan, and also
//! removes duplicate tuples according to a query-specified key, by
//! maintaining a set of processed tuples" (§4.2).
//!
//! Ports:
//! * input 0 — the base case; input 1 — the recursive case's output;
//! * output 0 — feedback into the recursive subplan; output 1 — the net
//!   change of the mutable set at each convergence (a query's final
//!   results).
//!
//! The operator keeps the *mutable set* keyed by `FIXPOINT BY` columns.
//! In delta mode only the tuples changed in the current stratum (the Δᵢ
//! set) are fed back; in no-delta mode the entire mutable set is re-emitted
//! every stratum, reproducing the paper's `no-delta` baseline. The Δᵢ set is
//! also what incremental recovery pays to replicate each stratum (§4.3);
//! a [`checkpoint`](Operator::checkpoint) holds the whole mutable set,
//! in the table's order, as those replicas would. The set is
//! a [`KeyedTable`]: each delta hashes (FxHash) and compares its key
//! columns in place, and an owned key is allocated only on first insert.
//!
//! Every stratum is started by the runtime, never by the data. The base
//! case's punctuation only marks the operator startable; once the drain
//! is quiescent the runtime calls [`FixpointOp::start`] to feed the first
//! stratum back, and after each vote [`FixpointOp::advance`] to feed the
//! next. The executor runs depth-first, so an emission made from
//! `on_punct` could overtake scan batches still queued for the recursive
//! subplan (a handler join's build side, say); quiescence cannot. Strata
//! carry the executor's clock ([`OpCtx::stratum`] at `start`), so the
//! feedback's `EndOfStratum(s)` meets the same `s` from every other input
//! of the step's joins.
//!
//! **Re-entry.** Convergence ends a query only when the base case has
//! ended for good (`EndOfStream` on port 0): the operator then emits its
//! final results and shuts the recursive subplan down. A fed dataflow (a
//! materialized view) only ever punctuates strata, so its fixpoint stays
//! open: the mutable set and every operator of the step keep their state,
//! and a later batch's deltas — from the base case on port 0, or from the
//! step's joins probing new rows against their stored side on port 1 —
//! become the next start's Δ. Port 1 always carries the *net change* of
//! the mutable set since the previous convergence; from an empty start
//! (every query) that is the whole set, in tuple order. For monotone
//! recursion under inserts this continuation is semi-naive evaluation
//! resumed from the converged state, which reaches the same fixpoint as a
//! cold run.

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
    /// Implicit fixpoint, or stop after `n` strata if it comes first: a
    /// *requested* stop (an algorithm's `max_iterations`) that ends the run
    /// normally. The safety net against divergence is the runtimes'
    /// [`MAX_STRATA`](crate::exec::MAX_STRATA) error, not this.
    FixpointOrMax(u64),
}

impl Termination {
    /// Whether another stratum should run, given the pending delta count
    /// and the index of the stratum just completed, counting the run's
    /// first stratum as 0 ([`FixpointOp::wants_continue`] supplies both).
    pub fn wants_continue(&self, pending_total: usize, completed_stratum: u64) -> bool {
        match self {
            Termination::Fixpoint => pending_total > 0,
            Termination::ExactStrata(n) => completed_stratum + 1 < *n,
            Termination::FixpointOrMax(n) => pending_total > 0 && completed_stratum + 1 < *n,
        }
    }
}

/// The fixpoint (while) operator.
#[derive(Clone)]
pub struct FixpointOp {
    key_cols: Vec<usize>,
    handler: Option<Arc<dyn WhileHandler>>,
    term: Termination,
    /// The mutable set: key → current tuple.
    state: KeyedTable<Tuple>,
    /// Δᵢ: deltas produced in the current stratum, fed back on advance.
    pending: Vec<Delta>,
    /// Every key changed since the last convergence, with its tuple at
    /// that convergence. `None` until the first convergence: the set then
    /// started empty, so the whole set is the change.
    since: Option<KeyedTable<Option<Tuple>>>,
    /// In no-delta mode the full mutable set is re-emitted each stratum.
    delta_mode: bool,
    stratum: u64,
    /// The stratum [`start`](Self::start) began at; termination counts
    /// strata from here.
    first: u64,
    /// The base case's last punctuation: `None` until the runtime may
    /// [`start`](Self::start), `EndOfStream` once it can produce nothing
    /// more.
    base: Option<Punctuation>,
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
            since: None,
            delta_mode: true,
            stratum: 0,
            first: 0,
            base: None,
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

    /// Whether another stratum should run, given the Δ count summed over
    /// every fixpoint (and, on a cluster, every worker): the termination
    /// condition applied to the strata run since [`start`](Self::start).
    pub fn wants_continue(&self, pending_total: usize) -> bool {
        self.term.wants_continue(pending_total, self.stratum.saturating_sub(self.first))
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
        if let Some(since) = &mut self.since {
            // First change to this key since the last convergence: keep
            // its tuple as of then, for the net change.
            let state = &self.state;
            since.probe_or_insert_hashed(hash, &d.tuple, cols, || {
                state.probe_hashed(hash, &d.tuple, cols).cloned()
            });
        }
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

    /// Emit the net change of the mutable set since the previous
    /// convergence on port 1, in tuple order, and start tracking the next.
    fn emit_changes(&mut self, ctx: &mut OpCtx<'_>) {
        let out: Vec<Delta> = match self.since.replace(KeyedTable::new()) {
            None => {
                let mut tuples: Vec<&Tuple> = self.state.values().collect();
                tuples.sort_unstable();
                tuples.into_iter().map(|t| Delta::insert(t.clone())).collect()
            }
            Some(since) => {
                let mut out: Vec<Delta> = since
                    .iter()
                    .filter_map(|(key, old)| match (old, self.state.get(key)) {
                        (Some(o), Some(n)) if o == n => None,
                        (Some(o), Some(n)) => Some(Delta::replace(o.clone(), n.clone())),
                        (Some(o), None) => Some(Delta::delete(o.clone())),
                        (None, Some(n)) => Some(Delta::insert(n.clone())),
                        (None, None) => None,
                    })
                    .collect();
                out.sort_unstable_by(|a, b| a.tuple.cmp(&b.tuple));
                out
            }
        };
        ctx.emit(1, out);
    }

    /// Start a run of strata at the executor's clock: feed the pending Δ —
    /// the base case, and on re-entry whatever reached either port since
    /// the last convergence — back into the recursive subplan. The runtime
    /// calls this once the drain is quiescent, exactly as it calls
    /// [`advance`](Self::advance) for every later stratum. By then every
    /// scan batch has been delivered, including the recursive subplan's
    /// immutable inputs (a handler join's build side), whatever order the
    /// executor ran them in. The base case's punctuation only makes the
    /// fixpoint startable.
    pub fn start(&mut self, ctx: &mut OpCtx<'_>) -> Result<()> {
        if self.base.is_none() {
            return Err(RexError::Exec("fixpoint started before its base case ended".into()));
        }
        self.stratum = ctx.stratum;
        self.first = ctx.stratum;
        self.emit_feedback(ctx);
        Ok(())
    }

    /// Coordinator decision: continue with another stratum or converge.
    /// Called by the runtime after all fixpoints have become
    /// [`ready_for_vote`](Self::ready_for_vote). Convergence emits the net
    /// change on port 1; it finishes the operator only once the base case
    /// has ended for good, and otherwise leaves it ready to re-enter.
    pub fn advance(&mut self, cont: bool, ctx: &mut OpCtx<'_>) -> Result<()> {
        self.ready_for_vote = false;
        if cont {
            self.stratum += 1;
            self.emit_feedback(ctx);
            return Ok(());
        }
        self.emit_changes(ctx);
        if self.base == Some(Punctuation::EndOfStream) {
            self.finished = true;
            ctx.punct(1, Punctuation::EndOfStream);
            // Let the recursive subplan shut down.
            ctx.punct(0, Punctuation::EndOfStream);
        } else {
            ctx.punct(1, Punctuation::EndOfStratum(self.stratum));
        }
        Ok(())
    }

    /// Restore a checkpoint and queue the restored tuples as feedback so
    /// the recursive subplan's state is rebuilt (incremental recovery,
    /// §4.3). `stratum` is the last completed stratum.
    pub fn restore_and_resume(&mut self, ckpt: OperatorState, stratum: u64) {
        self.state.clear();
        self.pending.clear();
        self.since = None;
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
            // Base case punctuated — ended for good in a query, closed for
            // this batch in a fed dataflow: the runtime starts the next
            // stratum once the drain is quiescent.
            (0, _) => self.base = Some(p),
            // Recursive case punctuated: ready for the coordinator's vote.
            // The step's joins align on one clock, so a different stratum
            // means the plan is miswired.
            (1, Punctuation::EndOfStratum(s)) if s == self.stratum => self.ready_for_vote = true,
            (1, Punctuation::EndOfStratum(s)) => {
                return Err(RexError::Exec(format!(
                    "fixpoint in stratum {} received the recursive case's end of stratum {s}",
                    self.stratum
                )))
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

    /// The whole mutable set, unsorted: a restore that needs a canonical
    /// order sorts what it gathers, once, instead of every checkpoint.
    fn checkpoint(&self) -> Option<OperatorState> {
        Some(OperatorState { tuples: self.state.values().cloned().collect() })
    }

    fn restore(&mut self, state: OperatorState) {
        self.restore_and_resume(state, 0);
    }

    fn reset(&mut self) {
        self.state.clear();
        self.pending.clear();
        self.since = None;
        self.stratum = 0;
        self.first = 0;
        self.base = None;
        self.ready_for_vote = false;
        self.finished = false;
    }

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Approximate bytes of the mutable set.
    fn state_bytes(&self) -> usize {
        self.state.values().map(Tuple::byte_size).sum()
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

    /// A recursive-case punctuation for another stratum is a miswired
    /// plan, in release builds too: the operator errors instead of voting.
    #[test]
    fn mismatched_stratum_punctuation_is_an_error() {
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        ctx_run(&mut fp, |op, ctx| {
            op.on_punct(0, Punctuation::EndOfStream, ctx).unwrap();
            op.start(ctx).unwrap();
            let err = op.on_punct(1, Punctuation::EndOfStratum(5), ctx).unwrap_err();
            assert!(matches!(err, RexError::Exec(_)), "{err}");
            assert!(err.to_string().contains("end of stratum 5"), "{err}");
        });
        assert!(!fp.ready_for_vote(), "a mismatched punctuation must not count as a vote");
        ctx_run(&mut fp, |op, ctx| op.on_punct(1, Punctuation::EndOfStratum(0), ctx).unwrap());
        assert!(fp.ready_for_vote());
    }

    /// Drive one run of strata on `fp` at clock `at`, as the executor
    /// would, with `step` answering each stratum's feedback; returns the
    /// port-1 emission and whether the operator finished.
    fn converge(
        fp: &mut FixpointOp,
        at: u64,
        step: impl Fn(&[Delta]) -> Vec<Delta>,
    ) -> (Vec<(usize, Event)>, bool) {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(at, 0, &reg, &cost, &mut m);
        fp.start(&mut ctx).unwrap();
        loop {
            let fed = data_on(&ctx.take_output(), 0);
            fp.on_deltas(1, step(&fed), &mut ctx).unwrap();
            fp.on_punct(1, Punctuation::EndOfStratum(fp.stratum()), &mut ctx).unwrap();
            let cont = fp.wants_continue(fp.pending_count());
            fp.advance(cont, &mut ctx).unwrap();
            if !cont {
                return (ctx.take_output(), fp.finished());
            }
        }
    }

    /// An open base case (a fed dataflow punctuates strata, never the
    /// stream) converges without finishing: port 1 carries the net change
    /// since the previous convergence and a later batch re-enters from the
    /// converged state at the executor's clock.
    #[test]
    fn open_base_converges_to_net_changes_and_re_enters() {
        // Step: x → x + 1 while x < 3.
        let succ = |fed: &[Delta]| -> Vec<Delta> {
            fed.iter()
                .filter_map(|d| d.tuple.get(0).as_int().filter(|x| *x < 3))
                .map(|x| Delta::insert(tuple![x + 1]))
                .collect()
        };
        let mut fp = FixpointOp::new(vec![0], Termination::Fixpoint);
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(0, vec![Delta::insert(tuple![0i64])], ctx).unwrap();
            op.on_punct(0, Punctuation::EndOfStratum(4), ctx).unwrap();
        });
        let (out, finished) = converge(&mut fp, 4, succ);
        assert!(!finished, "an open base case never finishes");
        assert_eq!(
            data_on(&out, 1),
            (0..=3i64).map(|x| Delta::insert(tuple![x])).collect::<Vec<_>>()
        );
        assert!(matches!(out.last(), Some((1, Event::Punct(Punctuation::EndOfStratum(7))))));
        assert!(!out.iter().any(|(_, e)| matches!(e, Event::Punct(Punctuation::EndOfStream))));
        // A derived tuple reaches port 1 between runs (a step join probing
        // a new row): it is the next start's Δ, and port 1 carries only it
        // and what it derives.
        ctx_run(&mut fp, |op, ctx| {
            op.on_deltas(1, vec![Delta::insert(tuple![-2i64]), Delta::insert(tuple![2i64])], ctx)
                .unwrap();
            op.on_punct(0, Punctuation::EndOfStratum(9), ctx).unwrap();
        });
        assert_eq!(fp.pending_count(), 1, "the known tuple 2 is no change");
        let (out, _) = converge(&mut fp, 9, succ);
        assert_eq!(
            data_on(&out, 1),
            vec![Delta::insert(tuple![-2i64]), Delta::insert(tuple![-1i64])]
        );
        assert_eq!(fp.state_size(), 6);
        // The same base, ended for good, finishes as a query does.
        ctx_run(&mut fp, |op, ctx| op.on_punct(0, Punctuation::EndOfStream, ctx).unwrap());
        let (out, finished) = converge(&mut fp, 12, succ);
        assert!(finished);
        assert!(data_on(&out, 1).is_empty(), "nothing changed since the last convergence");
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
