//! Rehash: the network boundary.
//!
//! "Whenever needed, a rehash operator re-partitions data among worker
//! nodes based on the partitioning snapshot for the current query" (§4.2).
//! Within a single-node executor rehash is a pass-through that accounts
//! hashing cost; in cluster execution the runtime intercepts the output of
//! rehash nodes and routes each delta to the worker owning its key under
//! the query's partition snapshot.

use crate::col::ColumnBatch;
use crate::delta::{Delta, Punctuation};
use crate::error::Result;
use crate::hash::FxHasher;
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Hash a partition key to a u64 (shared by rehash and the consistent-hash
/// ring so that routing decisions agree everywhere). Keyed by the
/// deterministic in-tree [`FxHasher`]: partitioning hashes every routed
/// row — and every stored row, once per worker, at lowering time — so the
/// per-key cost matters, and none of the hashed data is
/// attacker-controlled protocol input.
pub fn hash_key(key: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// [`hash_key`] computed over a tuple's key columns *in place* — no owned
/// key is materialized. Identical to `hash_key(&t.key(cols))` (the hash
/// consumes the same value stream), so router and ring agree whichever
/// spelling produced the hash.
pub fn hash_key_cols(t: &Tuple, cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        t.get(c).hash(&mut h);
    }
    h.finish()
}

/// The rehash operator.
#[derive(Clone)]
pub struct RehashOp {
    key_cols: Vec<usize>,
}

impl RehashOp {
    /// Re-partition on `key_cols`.
    pub fn new(key_cols: Vec<usize>) -> RehashOp {
        RehashOp { key_cols }
    }

    /// The partition key columns (used by the cluster router).
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Partition key of a tuple.
    pub fn key_of(&self, t: &Tuple) -> Vec<Value> {
        t.key(&self.key_cols)
    }

    /// Hash of a tuple's partition key (computed in place).
    pub fn hash_of(&self, t: &Tuple) -> u64 {
        hash_key_cols(t, &self.key_cols)
    }
}

/// The thread-shard gate: the single-process analogue of [`RehashOp`].
///
/// In morsel-parallel local execution every thread runs a copy of the same
/// plan over the same shared scan snapshot. Wherever cluster lowering would
/// insert a rehash boundary, parallel local lowering inserts a shard gate:
/// each thread keeps exactly the tuples whose key hashes to its shard and
/// drops the rest, so downstream keyed state (join/group tables) is
/// disjoint across threads and the merged result is a plain concatenation.
/// The same [`hash_key_cols`] keys both, so gate and router agree on
/// ownership.
pub struct ShardGateOp {
    key_cols: Vec<usize>,
    shard: usize,
    shards: usize,
}

impl ShardGateOp {
    /// A gate keeping shard `shard` of `shards` under `key_cols`.
    pub fn new(key_cols: Vec<usize>, shard: usize, shards: usize) -> ShardGateOp {
        debug_assert!(shards > 0 && shard < shards);
        ShardGateOp { key_cols, shard, shards }
    }

    #[inline]
    fn owns(&self, t: &Tuple) -> bool {
        shard_of(hash_key_cols(t, &self.key_cols), self.shards) == self.shard
    }
}

/// Map a key hash to one of `shards` shards. The raw [`hash_key_cols`]
/// low bits are biased for numeric keys (integers hash via their f64
/// canonical form, whose mantissa low bits are constant for small
/// values), so a plain `% shards` can put *every* key in one shard; a
/// splitmix64 finalizer spreads the entropy over all bits first.
#[inline]
pub fn shard_of(hash: u64, shards: usize) -> usize {
    let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

impl Operator for ShardGateOp {
    fn name(&self) -> String {
        format!("ShardGate{:?}[{}/{}]", self.key_cols, self.shard, self.shards)
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        ctx.charge_cpu(deltas.len() as f64 * ctx.cost.hash_cost);
        let mut kept = Vec::new();
        for d in deltas {
            match &d.ann {
                // A replacement whose old and new tuples hash to different
                // shards must split, mirroring the router's cross-partition
                // Replace handling: the old owner retires the old tuple,
                // the new owner adopts the new one.
                crate::delta::Annotation::Replace(old) => {
                    let owns_old = self.owns(old);
                    let owns_new = self.owns(&d.tuple);
                    match (owns_old, owns_new) {
                        (true, true) => kept.push(d),
                        (true, false) => kept.push(Delta::delete(old.clone())),
                        (false, true) => kept.push(Delta::insert(d.tuple)),
                        (false, false) => {}
                    }
                }
                _ => {
                    if self.owns(&d.tuple) {
                        kept.push(d);
                    }
                }
            }
        }
        ctx.emit(0, kept);
        Ok(())
    }

    fn on_rows(&mut self, _port: usize, mut rows: Vec<Tuple>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(rows.len());
        ctx.charge_cpu(rows.len() as f64 * ctx.cost.hash_cost);
        rows.retain(|t| self.owns(t));
        ctx.emit_rows(0, rows);
        Ok(())
    }

    /// A column batch keeps its columns: the key columns are hashed in
    /// place, and the selection narrows to the rows this shard owns.
    fn on_cols(&mut self, _port: usize, mut batch: ColumnBatch, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(batch.len());
        ctx.charge_cpu(batch.len() as f64 * ctx.cost.hash_cost);
        let hashes = batch.key_hashes(&batch.selection(), &self.key_cols);
        let mut owned = hashes.iter().map(|&h| shard_of(h, self.shards) == self.shard);
        batch.retain(|_| owned.next().unwrap_or(false));
        ctx.emit_cols(0, batch);
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {}
}

impl Operator for RehashOp {
    fn name(&self) -> String {
        format!("Rehash{:?}", self.key_cols)
    }

    fn on_deltas(&mut self, _port: usize, deltas: Vec<Delta>, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.charge_input(deltas.len());
        ctx.charge_cpu(deltas.len() as f64 * ctx.cost.hash_cost);
        ctx.emit(0, deltas);
        Ok(())
    }

    fn on_punct(&mut self, _port: usize, p: Punctuation, ctx: &mut OpCtx<'_>) -> Result<()> {
        ctx.punct(0, p);
        Ok(())
    }

    fn reset(&mut self) {}

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    #[test]
    fn rehash_is_passthrough_locally() {
        let mut r = RehashOp::new(vec![0]);
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        let d = Delta::insert(tuple![1i64, "x"]);
        r.on_deltas(0, vec![d.clone()], &mut ctx).unwrap();
        let out = ctx.take_output();
        assert!(matches!(&out[0].1, Event::Data(ds) if ds[0] == d));
        assert!(m.cpu_units > 0.0);
    }

    #[test]
    fn hash_is_stable_per_key() {
        let r = RehashOp::new(vec![0]);
        let a = r.hash_of(&tuple![5i64, "x"]);
        let b = r.hash_of(&tuple![5i64, "completely different payload"]);
        assert_eq!(a, b, "hash depends only on the key columns");
        let c = r.hash_of(&tuple![6i64, "x"]);
        assert_ne!(a, c);
    }

    #[test]
    fn cross_type_numeric_keys_hash_identically() {
        // Int(3) and Double(3.0) are equal values and must route together.
        assert_eq!(hash_key(&[Value::Int(3)]), hash_key(&[Value::Double(3.0)]));
    }

    #[test]
    fn shard_gates_partition_exactly() {
        // Every tuple is owned by exactly one of the shards, on both lanes.
        let reg = Registry::new();
        let cost = CostModel::default();
        let rows: Vec<_> = (0..100i64).map(|i| tuple![i, i * 2]).collect();
        let mut kept_deltas = 0;
        let mut kept_rows = 0;
        for shard in 0..4 {
            let mut g = ShardGateOp::new(vec![0], shard, 4);
            let mut m = ExecMetrics::default();
            let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
            g.on_deltas(0, rows.iter().cloned().map(Delta::insert).collect(), &mut ctx).unwrap();
            g.on_rows(0, rows.clone(), &mut ctx).unwrap();
            for (_, ev) in ctx.take_output() {
                match ev {
                    Event::Data(ds) => kept_deltas += ds.len(),
                    Event::Rows(ts) => kept_rows += ts.len(),
                    Event::Cols(b) => kept_rows += b.len(),
                    Event::Punct(_) => {}
                }
            }
        }
        assert_eq!(kept_deltas, rows.len());
        assert_eq!(kept_rows, rows.len());
    }

    #[test]
    fn shard_gate_splits_cross_shard_replace() {
        // Find two keys owned by different shards of 2, then check the
        // replace splits into a delete at the old owner and an insert at
        // the new owner, and survives intact when both land on one shard.
        let owner = |k: i64| shard_of(hash_key_cols(&tuple![k], &[0]), 2);
        let a = 1i64;
        let b = (2..100).find(|&k| owner(k) != owner(a)).unwrap();
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut outputs = Vec::new();
        for shard in 0..2usize {
            let mut g = ShardGateOp::new(vec![0], shard, 2);
            let mut m = ExecMetrics::default();
            let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
            g.on_deltas(0, vec![Delta::replace(tuple![a], tuple![b])], &mut ctx).unwrap();
            let mut got = Vec::new();
            for (_, ev) in ctx.take_output() {
                if let Event::Data(ds) = ev {
                    got.extend(ds);
                }
            }
            outputs.push(got);
        }
        let old_owner = owner(a);
        let new_owner = owner(b);
        assert_eq!(outputs[old_owner], vec![Delta::delete(tuple![a])]);
        assert_eq!(outputs[new_owner], vec![Delta::insert(tuple![b])]);
    }

    #[test]
    fn in_place_key_hash_agrees_with_owned() {
        let t = tuple![5i64, "x", 2.5f64];
        for cols in [vec![0usize], vec![2, 1], vec![]] {
            assert_eq!(hash_key_cols(&t, &cols), hash_key(&t.key(&cols)), "{cols:?}");
        }
    }
}
