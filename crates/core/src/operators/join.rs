//! Pipelined symmetric hash join with delta propagation.
//!
//! "The join operator, in its pipelined form, will accumulate each tuple it
//! receives and immediately probe it against any tuples accumulated from the
//! opposite relation" (§3.2). Delta rules follow Gupta/Mumick/Subrahmanian:
//! insertions and deletions are applied to the build state, probed, and
//! propagated as insertions/deletions of joined tuples; replacements are
//! treated as delete+insert pairs and re-fused into replacements where both
//! sides produce output for the same opposite tuple. A user [`JoinHandler`],
//! when one is installed, owns every delta instead: it maintains both
//! buckets and emits whatever deltas it likes (§3.3's delta handlers).

use crate::col::{columns_of, ColumnBatch};
use crate::delta::{Annotation, Delta, Punctuation};
use crate::error::Result;
use crate::handlers::{JoinHandler, TupleSet};
use crate::hash::KeyedTable;
use crate::operators::{OpCtx, Operator, OperatorState, PunctTracker};
use crate::tuple::Tuple;
use std::sync::Arc;

/// Below this size an all-insert delta batch stays on the per-delta path:
/// scanning and unwrapping the batch into rows only pays past a few rows.
const INSERT_BATCH_MIN: usize = 8;

/// How many rows ahead of the probe cursor the opposite table's probe
/// slot is prefetched on the rows path. Far enough that the line arrives
/// before the probe (a probe is a fold + slot read + key compare, a few
/// nanoseconds each); near enough that L1 does not evict it again before
/// use.
const PREFETCH_DIST: usize = 8;

/// Pipelined hash join. Port 0 is the left input, port 1 the right.
///
/// Both build sides live in [`KeyedTable`]s so the per-row operations —
/// probing the opposite side, locating this side's bucket — hash and
/// compare the join-key *columns in place*; an owned `Vec<Value>` key is
/// allocated only the first time a key is seen.
#[derive(Clone)]
pub struct HashJoinOp {
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    handler: Option<Arc<dyn JoinHandler>>,
    left: KeyedTable<TupleSet>,
    right: KeyedTable<TupleSet>,
    punct: PunctTracker,
    /// Lowering's promise that neither input will ever carry anything but
    /// insertions (see [`with_insert_only_inputs`](HashJoinOp::with_insert_only_inputs)).
    insert_only_inputs: bool,
    /// Probes issued with a software prefetch ahead of them (telemetry).
    prefetch_probes: u64,
}

impl HashJoinOp {
    /// Equi-join on `left_key` = `right_key`.
    pub fn new(left_key: Vec<usize>, right_key: Vec<usize>) -> HashJoinOp {
        HashJoinOp {
            left_key,
            right_key,
            handler: None,
            left: KeyedTable::new(),
            right: KeyedTable::new(),
            punct: PunctTracker::new(2),
            insert_only_inputs: false,
            prefetch_probes: 0,
        }
    }

    /// Promise that both inputs are insert-only *for ever*. A batch knows
    /// its own annotations but not its port's future, so this is the one
    /// fact the join cannot read off the data: with it, rows arriving
    /// after the opposite input's end-of-stream are probed and not stored
    /// (nothing can probe them, and no delete or replacement will look
    /// for them). Without it every row is stored.
    pub fn with_insert_only_inputs(mut self) -> Self {
        self.insert_only_inputs = true;
        self
    }

    /// Install a user join delta handler, which then receives every delta.
    pub fn with_handler(mut self, h: Arc<dyn JoinHandler>) -> Self {
        self.handler = Some(h);
        self
    }

    /// Total tuples buffered in both hash tables (diagnostics/memory).
    pub fn state_size(&self) -> usize {
        self.left.values().map(TupleSet::len).sum::<usize>()
            + self.right.values().map(TupleSet::len).sum::<usize>()
    }

    /// This side's build table and key columns (split borrow, so callers
    /// can keep using `&self`-derived key columns while mutating state).
    fn side_mut(&mut self, from_left: bool) -> (&mut KeyedTable<TupleSet>, &[usize]) {
        if from_left {
            (&mut self.left, &self.left_key)
        } else {
            (&mut self.right, &self.right_key)
        }
    }

    /// The probing tuple's join-key hash, on its arrival side.
    fn key_hash(&self, t: &Tuple, from_left: bool) -> u64 {
        t.hash_key(if from_left { &self.left_key } else { &self.right_key })
    }

    /// Probe the opposite side with a pre-computed key hash (the caller
    /// already hashed the key to maintain its own side) and emit a delta
    /// per match.
    fn probe_emit(
        &self,
        hash: u64,
        t: &Tuple,
        from_left: bool,
        make: impl Fn(Tuple) -> Delta,
        out: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) {
        let (opposite, cols) =
            if from_left { (&self.right, &self.left_key) } else { (&self.left, &self.right_key) };
        if let Some(bucket) = opposite.probe_hashed(hash, t, cols) {
            for m in bucket.iter() {
                ctx.charge_cpu(ctx.cost.hash_cost);
                out.push(make(fuse(t, m, from_left)));
            }
        }
    }

    /// The insert-rows path (handler-free). Rows are probed in arrival
    /// order: every key in the batch is hashed up front, a run of
    /// *consecutive* equal keys costs one upsert and one probe instead of
    /// one of each per row, and the probe slot of the key
    /// [`PREFETCH_DIST`] rows ahead is prefetched before each probe so the
    /// table's random cache-line reads overlap the sequential key walk.
    /// Emission order is the per-row order — each row's matches, row by
    /// row — whatever the batch size. When `store` is false the
    /// build-side upsert is skipped entirely: the batch runs probe-only.
    fn apply_rows(
        &mut self,
        rows: &[Tuple],
        from_left: bool,
        store: bool,
        out: &mut Vec<Tuple>,
        ctx: &mut OpCtx<'_>,
    ) {
        let HashJoinOp { left, right, left_key, right_key, prefetch_probes, .. } = self;
        let (own, opposite, cols) = if from_left {
            (left, &*right, left_key.as_slice())
        } else {
            (right, &*left, right_key.as_slice())
        };
        let hashes: Vec<u64> = rows.iter().map(|t| t.hash_key(cols)).collect();
        let mut i = 0;
        while i < rows.len() {
            let (hash, t) = (hashes[i], &rows[i]);
            let mut j = i + 1;
            while j < rows.len()
                && hashes[j] == hash
                && cols.iter().all(|&c| rows[j].get(c) == t.get(c))
            {
                j += 1;
            }
            opposite.prefetch(hashes[(i + PREFETCH_DIST).min(rows.len() - 1)]);
            *prefetch_probes += 1;
            ctx.charge_cpu(ctx.cost.hash_cost);
            if store {
                let bucket = own.probe_or_insert_hashed(hash, t, cols, TupleSet::new);
                for r in &rows[i..j] {
                    bucket.insert(r.clone());
                }
            }
            if let Some(bucket) = opposite.probe_hashed(hash, t, cols) {
                for r in &rows[i..j] {
                    for m in bucket.iter() {
                        ctx.charge_cpu(ctx.cost.hash_cost);
                        out.push(fuse(r, m, from_left));
                    }
                }
            }
            i = j;
        }
    }

    /// The column lane's probe-only loop: [`apply_rows`](Self::apply_rows)
    /// without the upsert, over the batch's selected rows, keys hashed
    /// and compared in place from the key columns. Returns, per output
    /// row in emission order, the probing row's physical index and the
    /// stored tuple it matched.
    fn probe_cols<'s>(
        &'s mut self,
        batch: &ColumnBatch,
        from_left: bool,
        ctx: &mut OpCtx<'_>,
    ) -> (Vec<u32>, Vec<&'s Tuple>) {
        let HashJoinOp { left, right, left_key, right_key, prefetch_probes, .. } = self;
        let (opposite, cols) =
            if from_left { (&*right, left_key.as_slice()) } else { (&*left, right_key.as_slice()) };
        let sel = batch.selection();
        let hashes = batch.key_hashes(&sel, cols);
        let (mut rows, mut matched) =
            (Vec::with_capacity(sel.len()), Vec::with_capacity(sel.len()));
        let mut i = 0;
        while i < sel.len() {
            let (hash, r) = (hashes[i], sel[i] as usize);
            let mut j = i + 1;
            while j < sel.len() && hashes[j] == hash && batch.rows_key_eq(sel[j] as usize, r, cols)
            {
                j += 1;
            }
            opposite.prefetch(hashes[(i + PREFETCH_DIST).min(sel.len() - 1)]);
            *prefetch_probes += 1;
            ctx.charge_cpu(ctx.cost.hash_cost);
            if let Some(bucket) = opposite.probe_by(hash, |k| batch.key_eq(r, cols, k)) {
                for &p in &sel[i..j] {
                    for m in bucket.iter() {
                        ctx.charge_cpu(ctx.cost.hash_cost);
                        rows.push(p);
                        matched.push(m);
                    }
                }
            }
            i = j;
        }
        (rows, matched)
    }

    /// A user join handler owns bucket maintenance for *all* deltas (the
    /// paper's Listing 1 PRAgg manages prBucket and nbrBucket entirely).
    /// It is handed both buckets for the delta's key in place. A key with
    /// no bucket on a side gets an empty scratch set, stored only if the
    /// handler leaves it non-empty; a stored bucket the handler empties is
    /// removed. Keyed state stays proportional to *live* keys, and a probe
    /// that finds nothing leaves nothing behind.
    fn apply_handler(
        &mut self,
        d: Delta,
        from_left: bool,
        out: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        ctx.charge_udf_call();
        let HashJoinOp { handler, left, right, left_key, right_key, .. } = self;
        let h = handler.as_deref().expect("apply_handler without a handler");
        let cols: &[usize] = if from_left { left_key } else { right_key };
        let hash = d.tuple.hash_key(cols);
        let (mut left_new, mut right_new) = (TupleSet::new(), TupleSet::new());
        let lb = left.probe_mut_hashed(hash, &d.tuple, cols);
        let rb = right.probe_mut_hashed(hash, &d.tuple, cols);
        let (left_stored, right_stored) = (lb.is_some(), rb.is_some());
        let lb = lb.unwrap_or(&mut left_new);
        let rb = rb.unwrap_or(&mut right_new);
        out.extend(h.update(lb, rb, &d, from_left)?);
        let (left_empty, right_empty) = (lb.is_empty(), rb.is_empty());
        settle_bucket(left, left_stored, left_empty, left_new, hash, &d.tuple, cols);
        settle_bucket(right, right_stored, right_empty, right_new, hash, &d.tuple, cols);
        Ok(())
    }

    fn apply_default(
        &mut self,
        d: Delta,
        from_left: bool,
        out: &mut Vec<Delta>,
        ctx: &mut OpCtx<'_>,
    ) -> Result<()> {
        // Without a handler the standard view-maintenance rules apply.
        if self.handler.is_some() {
            return self.apply_handler(d, from_left, out, ctx);
        }
        match d.ann {
            Annotation::Insert => {
                ctx.charge_cpu(ctx.cost.hash_cost);
                // One key hash serves both the build-side upsert and the
                // opposite-side probe.
                let hash = self.key_hash(&d.tuple, from_left);
                let (state, cols) = self.side_mut(from_left);
                state
                    .probe_or_insert_hashed(hash, &d.tuple, cols, TupleSet::new)
                    .insert(d.tuple.clone());
                self.probe_emit(hash, &d.tuple, from_left, Delta::insert, out, ctx);
            }
            Annotation::Delete => {
                let hash = self.key_hash(&d.tuple, from_left);
                let (state, cols) = self.side_mut(from_left);
                let removed =
                    state.probe_mut(&d.tuple, cols).map(|b| b.remove(&d.tuple)).unwrap_or(false);
                if removed {
                    self.probe_emit(hash, &d.tuple, from_left, Delta::delete, out, ctx);
                }
            }
            Annotation::Replace(old) => {
                // Delete+insert, fused back into replacements when both the
                // old and new tuple share the join key (the common case of a
                // value update that does not move the tuple across keys).
                let (state, cols) = self.side_mut(from_left);
                let same_key = cols.iter().all(|&c| old.get(c) == d.tuple.get(c));
                let existed = state.probe_mut(&old, cols).map(|b| b.remove(&old)).unwrap_or(false);
                state.probe_or_insert_with(&d.tuple, cols, TupleSet::new).insert(d.tuple.clone());
                if existed && same_key {
                    let (opposite, probe_cols) = if from_left {
                        (&self.right, &self.left_key)
                    } else {
                        (&self.left, &self.right_key)
                    };
                    if let Some(bucket) = opposite.probe(&d.tuple, probe_cols) {
                        for m in bucket.iter() {
                            ctx.charge_cpu(ctx.cost.hash_cost);
                            out.push(Delta::replace(
                                fuse(&old, m, from_left),
                                fuse(&d.tuple, m, from_left),
                            ));
                        }
                    }
                } else {
                    if existed {
                        let old_hash = self.key_hash(&old, from_left);
                        self.probe_emit(old_hash, &old, from_left, Delta::delete, out, ctx);
                    }
                    let new_hash = self.key_hash(&d.tuple, from_left);
                    self.probe_emit(new_hash, &d.tuple, from_left, Delta::insert, out, ctx);
                }
            }
        }
        Ok(())
    }
}

/// Join output tuple: always left ++ right regardless of probe side.
fn fuse(probe: &Tuple, matched: &Tuple, from_left: bool) -> Tuple {
    if from_left {
        probe.concat(matched)
    } else {
        matched.concat(probe)
    }
}

/// Settle one side's bucket for `t`'s key after a join handler ran on it:
/// a stored bucket the handler emptied is removed, and a scratch bucket
/// (`stored == false`) the handler filled is stored.
fn settle_bucket(
    table: &mut KeyedTable<TupleSet>,
    stored: bool,
    empty: bool,
    scratch: TupleSet,
    hash: u64,
    t: &Tuple,
    cols: &[usize],
) {
    match (stored, empty) {
        (true, true) => {
            table.remove_probe_hashed(hash, t, cols);
        }
        (false, false) => {
            table.probe_or_insert_hashed(hash, t, cols, move || scratch);
        }
        _ => {}
    }
}

impl Operator for HashJoinOp {
    fn name(&self) -> String {
        match &self.handler {
            Some(h) => format!("HashJoin[{}]", h.name()),
            None => "HashJoin".into(),
        }
    }

    fn n_inputs(&self) -> usize {
        2
    }

    fn on_deltas(&mut self, port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        if self.handler.is_none()
            && deltas.len() >= INSERT_BATCH_MIN
            && deltas.iter().all(|d| d.ann == Annotation::Insert)
        {
            // An all-insert batch is a rows batch with wrappers on.
            return self.on_rows(port, deltas.into_iter().map(|d| d.tuple).collect(), ctx);
        }
        ctx.charge_input(deltas.len());
        let from_left = port == 0;
        let mut out = Vec::new();
        for d in deltas {
            self.apply_default(d, from_left, &mut out, ctx)?;
        }
        ctx.emit(0, out);
        Ok(())
    }

    /// Bare tuples are insertions by construction, so the join stores and
    /// probes without delta wrapping and emits bare fused rows. A bare
    /// batch says nothing about later batches on the same port — a delete
    /// or replacement of one of these rows may follow — so every row is
    /// stored, unless lowering has promised insert-only inputs: then, once
    /// the *opposite* input has delivered end-of-stream, nothing can probe
    /// or retract this side's rows and they run probe-only — a bulk
    /// build-then-probe join stores only its build side instead of both.
    fn on_rows(&mut self, port: usize, rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        if self.handler.is_some() {
            // A handler owns bucket maintenance for every delta, so bare
            // rows reach it as the `+()` deltas they stand for.
            return self.on_deltas(port, rows.into_iter().map(Delta::insert).collect(), ctx);
        }
        ctx.charge_input(rows.len());
        let from_left = port == 0;
        let store = !(self.insert_only_inputs && self.punct.is_eos(1 - port));
        // Equi-joins emit at least one row per matching input row; start
        // at the batch size instead of doubling up from empty.
        let mut out: Vec<Tuple> = Vec::with_capacity(rows.len());
        self.apply_rows(&rows, from_left, store, &mut out, ctx);
        ctx.emit_rows(0, out);
        Ok(())
    }

    /// A column batch that runs probe-only (insert-only inputs, opposite
    /// side ended) probes by its key columns and emits a column batch in
    /// the row lane's order: the probing columns gathered at each match,
    /// beside the matched stored tuples' columns — no fused tuple is
    /// built. A batch this side must store takes the row path, so stored
    /// rows stay `Arc`-shared tuples.
    fn on_cols(&mut self, port: usize, batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        let store = !(self.insert_only_inputs && self.punct.is_eos(1 - port));
        if self.handler.is_some() || store {
            return self.on_rows(port, batch.to_rows(), ctx);
        }
        ctx.charge_input(batch.len());
        let from_left = port == 0;
        let (rows, matched) = self.probe_cols(&batch, from_left, ctx);
        if rows.is_empty() {
            return Ok(());
        }
        let probe = batch.gather(&rows);
        match columns_of(&matched) {
            Some(stored) => {
                let (mut cols, rest) = if from_left { (probe, stored) } else { (stored, probe) };
                cols.extend(rest);
                ctx.emit_cols(0, ColumnBatch::from_columns(cols, rows.len()));
            }
            // Ragged stored rows cannot share columns: fuse rows instead.
            None => {
                let probe = ColumnBatch::from_columns(probe, rows.len()).to_rows();
                let fused = probe.iter().zip(matched).map(|(t, m)| fuse(t, m, from_left));
                ctx.emit_rows(0, fused.collect());
            }
        }
        Ok(())
    }

    fn on_punct(&mut self, port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        if let Some(fwd) = self.punct.arrive(port, p) {
            ctx.punct(0, fwd);
            self.punct.next_stratum();
        }
        Ok(())
    }

    fn checkpoint(&self) -> Option<OperatorState> {
        // Join state is rebuilt from its inputs during recovery; only the
        // fixpoint's mutable set is checkpointed (§4.3). Returning None here
        // keeps checkpoint volume to the Δᵢ set as the paper describes.
        None
    }

    fn reset(&mut self) {
        self.left.clear();
        self.right.clear();
        self.punct.reset();
        self.prefetch_probes = 0;
    }

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Approximate bytes of the tuples buffered on both sides.
    fn state_bytes(&self) -> usize {
        self.left.values().chain(self.right.values()).map(TupleSet::byte_size).sum()
    }

    fn stats_detail(&self) -> Vec<(String, u64)> {
        let (lp, lc) = self.left.probe_stats();
        let (rp, rc) = self.right.probe_stats();
        vec![
            ("hash_probes".into(), lp + rp),
            ("hash_collisions".into(), lc + rc),
            ("state_rows".into(), self.state_size() as u64),
            ("prefetch_probes".into(), self.prefetch_probes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RexError;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;
    use crate::value::Value;

    fn drive(op: &mut HashJoinOp, port: usize, deltas: Vec<Delta>) -> Vec<Delta> {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_deltas(port, deltas, &mut ctx).unwrap();
        collect(&mut ctx)
    }

    fn drive_rows(op: &mut HashJoinOp, port: usize, rows: Vec<Tuple>) -> Vec<Delta> {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_rows(port, rows, &mut ctx).unwrap();
        collect(&mut ctx)
    }

    /// Everything emitted, bare rows unified back into the insertions
    /// they stand for.
    fn collect(ctx: &mut OpCtx<'_>) -> Vec<Delta> {
        ctx.take_output()
            .into_iter()
            .flat_map(|(_, e)| match e {
                Event::Data(d) => d,
                Event::Rows(rows) => rows.into_iter().map(Delta::insert).collect(),
                _ => vec![],
            })
            .collect()
    }

    fn eos(op: &mut HashJoinOp, port: usize) {
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.on_punct(port, Punctuation::EndOfStream, &mut ctx).unwrap();
    }

    /// Bare rows promise nothing about their port's future: a delete of
    /// one of them may follow, even after the opposite input has ended
    /// (a recursive step, a join above an aggregate). Only a join whose
    /// lowering proved both inputs insert-only may skip storing them.
    #[test]
    fn rows_after_opposite_eos_are_stored_unless_inputs_are_promised_insert_only() {
        let build: Vec<Tuple> = (0..3i64).map(|k| tuple![k, "r"]).collect();
        // A tiny and a larger batch.
        for n in [4i64, 40] {
            let probe: Vec<Tuple> = (0..n).map(|i| tuple![i % 3, i]).collect();

            let mut j = HashJoinOp::new(vec![0], vec![0]);
            drive_rows(&mut j, 1, build.clone());
            eos(&mut j, 1);
            assert_eq!(drive_rows(&mut j, 0, probe.clone()).len(), n as usize);
            assert_eq!(j.state_size(), build.len() + probe.len());
            let out = drive(&mut j, 0, vec![Delta::delete(tuple![1i64, 1i64])]);
            assert_eq!(out, vec![Delta::delete(tuple![1i64, 1i64, 1i64, "r"])], "n={n}");

            let mut j = HashJoinOp::new(vec![0], vec![0]).with_insert_only_inputs();
            drive_rows(&mut j, 1, build.clone());
            eos(&mut j, 1);
            assert_eq!(drive_rows(&mut j, 0, probe).len(), n as usize);
            assert_eq!(j.state_size(), build.len(), "n={n}: build side only");
        }
    }

    #[test]
    fn insert_insert_produces_joined_tuple() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        assert!(drive(&mut j, 0, vec![Delta::insert(tuple![1i64, "l"])]).is_empty());
        let out = drive(&mut j, 1, vec![Delta::insert(tuple![1i64, "r"])]);
        assert_eq!(out, vec![Delta::insert(tuple![1i64, "l", 1i64, "r"])]);
    }

    #[test]
    fn insert_batch_with_duplicate_keys_matches_per_delta_path() {
        // The same all-insert traffic through the batch path (one big
        // batch, with runs of consecutive equal keys and repeats apart)
        // and the per-delta path (singleton batches) must produce the same
        // output in the same order, and the same build state.
        let build: Vec<Delta> = (0..5i64)
            .flat_map(|k| [Delta::insert(tuple![k, "r"]), Delta::insert(tuple![k, "s"])])
            .collect();
        let probe: Vec<Delta> = (0..40i64).map(|i| Delta::insert(tuple![i / 3 % 5, i])).collect();
        let mut batched = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut batched, 1, build.clone());
        let out_batched = drive(&mut batched, 0, probe.clone());
        let mut single = HashJoinOp::new(vec![0], vec![0]);
        for d in build {
            drive(&mut single, 1, vec![d]);
        }
        let mut out_single = Vec::new();
        for d in probe {
            out_single.extend(drive(&mut single, 0, vec![d]));
        }
        assert_eq!(out_batched.len(), 80);
        assert_eq!(out_batched, out_single);
        assert_eq!(batched.state_size(), single.state_size());
    }

    #[test]
    fn delete_retracts_joined_tuples() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut j, 0, vec![Delta::insert(tuple![1i64, "l"])]);
        drive(&mut j, 1, vec![Delta::insert(tuple![1i64, "r"])]);
        let out = drive(&mut j, 0, vec![Delta::delete(tuple![1i64, "l"])]);
        assert_eq!(out, vec![Delta::delete(tuple![1i64, "l", 1i64, "r"])]);
        // Deleting a non-existent tuple emits nothing.
        let out = drive(&mut j, 0, vec![Delta::delete(tuple![1i64, "l"])]);
        assert!(out.is_empty());
    }

    #[test]
    fn replacement_same_key_stays_replacement() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut j, 1, vec![Delta::insert(tuple![1i64, "r"])]);
        drive(&mut j, 0, vec![Delta::insert(tuple![1i64, 10i64])]);
        let out = drive(&mut j, 0, vec![Delta::replace(tuple![1i64, 10i64], tuple![1i64, 20i64])]);
        assert_eq!(
            out,
            vec![Delta::replace(tuple![1i64, 10i64, 1i64, "r"], tuple![1i64, 20i64, 1i64, "r"])]
        );
    }

    #[test]
    fn replacement_crossing_keys_splits_into_delete_insert() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut j, 1, vec![Delta::insert(tuple![1i64, "a"]), Delta::insert(tuple![2i64, "b"])]);
        drive(&mut j, 0, vec![Delta::insert(tuple![1i64, 10i64])]);
        let out = drive(&mut j, 0, vec![Delta::replace(tuple![1i64, 10i64], tuple![2i64, 10i64])]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Delta::delete(tuple![1i64, 10i64, 1i64, "a"])));
        assert!(out.contains(&Delta::insert(tuple![2i64, 10i64, 2i64, "b"])));
    }

    #[test]
    fn right_probe_output_keeps_left_right_order() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut j, 1, vec![Delta::insert(tuple![7i64, "r"])]);
        let out = drive(&mut j, 0, vec![Delta::insert(tuple![7i64, "l"])]);
        assert_eq!(out, vec![Delta::insert(tuple![7i64, "l", 7i64, "r"])]);
    }

    /// A PageRank-style handler: maintains the rank in the left bucket and
    /// emits per-neighbor diffs from the right bucket.
    struct DiffHandler;
    impl JoinHandler for DiffHandler {
        fn name(&self) -> &str {
            "diff"
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
                return Ok(vec![]);
            }
            let id = d.tuple.get(0).clone();
            let new = d.tuple.get(1).as_double().ok_or_else(|| RexError::Udf("num".into()))?;
            let old = left.get_by_key(0, &id).and_then(|t| t.get(1).as_double()).unwrap_or(0.0);
            left.put_by_key(0, d.tuple.clone());
            let diff = new - old;
            Ok(right
                .iter()
                .map(|e| Delta::insert(tuple![e.get(1).as_int().unwrap(), diff]))
                .collect())
        }
    }

    #[test]
    fn update_with_handler_dispatches_buckets() {
        let mut j = HashJoinOp::new(vec![0], vec![0]).with_handler(Arc::new(DiffHandler));
        // Edges 1->2, 1->3 arrive on the right as plain insertions; the
        // handler owns bucket maintenance for them too.
        drive(
            &mut j,
            1,
            vec![Delta::insert(tuple![1i64, 2i64]), Delta::insert(tuple![1i64, 3i64])],
        );
        // Rank update for node 1 from 0 to 1.0 → diffs of 1.0 to 2 and 3.
        let out = drive(&mut j, 0, vec![Delta::insert(tuple![1i64, 1.0f64])]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.tuple.get(1) == &Value::Double(1.0)));
        // Second update 1.0 → 1.5 sends only the 0.5 diff.
        let out = drive(&mut j, 0, vec![Delta::insert(tuple![1i64, 1.5f64])]);
        assert!(out.iter().all(|d| d.tuple.get(1) == &Value::Double(0.5)));
    }

    /// A handler that consumes everything it is handed: both buckets end
    /// every update empty.
    struct DrainHandler;
    impl JoinHandler for DrainHandler {
        fn name(&self) -> &str {
            "drain"
        }
        fn update(
            &self,
            left: &mut TupleSet,
            right: &mut TupleSet,
            _d: &Delta,
            _from_left: bool,
        ) -> Result<Vec<Delta>> {
            left.clear();
            right.clear();
            Ok(vec![])
        }
    }

    #[test]
    fn handler_join_prunes_emptied_buckets() {
        let mut j = HashJoinOp::new(vec![0], vec![0]).with_handler(Arc::new(DrainHandler));
        drive(&mut j, 0, (0..50i64).map(|i| Delta::insert(tuple![i])).collect());
        drive(&mut j, 1, (0..50i64).map(|i| Delta::insert(tuple![i])).collect());
        assert_eq!(j.state_size(), 0);
        // Keyed state holds no entries for keys whose buckets the handler
        // emptied — not one (hash, owned key, empty bucket) per key seen.
        assert!(j.left.is_empty(), "left retains {} emptied buckets", j.left.len());
        assert!(j.right.is_empty(), "right retains {} emptied buckets", j.right.len());
    }

    /// A handler that only reads its buckets.
    struct ReadOnlyHandler;
    impl JoinHandler for ReadOnlyHandler {
        fn name(&self) -> &str {
            "read-only"
        }
        fn update(
            &self,
            left: &mut TupleSet,
            right: &mut TupleSet,
            _d: &Delta,
            _from_left: bool,
        ) -> Result<Vec<Delta>> {
            Ok(vec![Delta::insert(tuple![(left.len() + right.len()) as i64])])
        }
    }

    #[test]
    fn handler_join_creates_no_bucket_the_handler_leaves_empty() {
        let mut j = HashJoinOp::new(vec![0], vec![0]).with_handler(Arc::new(ReadOnlyHandler));
        let out = drive(&mut j, 0, (0..1000i64).map(|i| Delta::insert(tuple![i])).collect());
        assert_eq!(out.len(), 1000);
        assert!(j.left.is_empty() && j.right.is_empty());
        // No bucket was created and then removed: no tombstones to walk.
        let detail = j.stats_detail();
        let collisions = detail.iter().find(|(k, _)| k == "hash_collisions").unwrap().1;
        assert_eq!(collisions, 0);
    }

    #[test]
    fn punctuation_aligns_across_ports() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        j.on_punct(0, Punctuation::EndOfStream, &mut ctx).unwrap();
        assert!(ctx.take_output().is_empty());
        j.on_punct(1, Punctuation::EndOfStratum(0), &mut ctx).unwrap();
        let out = ctx.take_output();
        assert!(matches!(out[0].1, Event::Punct(Punctuation::EndOfStratum(0))));
    }

    #[test]
    fn reset_clears_state() {
        let mut j = HashJoinOp::new(vec![0], vec![0]);
        drive(&mut j, 0, vec![Delta::insert(tuple![1i64, "l"])]);
        assert_eq!(j.state_size(), 1);
        j.reset();
        assert_eq!(j.state_size(), 0);
    }
}
