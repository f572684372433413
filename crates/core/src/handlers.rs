//! Delta handlers — the four forms of user-defined state-update code (§3.3):
//!
//! * `AGGSTATE(state, delta) -> deltas` and `AGGRESULT(state) -> deltas`
//!   for group-by aggregates ([`AggHandler`]);
//! * `UPDATE(leftBucket, rightBucket, delta) -> deltas` for joins
//!   ([`JoinHandler`]);
//! * `UPDATE(whileRelation, delta) -> deltas` for while/fixpoint operators
//!   ([`WhileHandler`]).
//!
//! "If such a delta handler is not provided, REX will propagate the
//! annotation as if it were another (hidden) attribute of the tuple, with no
//! special semantics" — the operators implement exactly that fallback.

use crate::delta::Delta;
use crate::error::Result;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A mutable bag of tuples — the paper's `TUPLESET`, used for join buckets
/// and while-relations. Provides both bag semantics (insert/remove) and the
/// keyed get/put convenience the paper's handler examples use
/// (`prBucket.get(nbrId)` / `prBucket.put(nbrId, pr)`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleSet {
    tuples: Vec<Tuple>,
}

impl TupleSet {
    /// An empty set.
    pub fn new() -> TupleSet {
        TupleSet::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Append a tuple (bag semantics: duplicates allowed).
    pub fn insert(&mut self, t: Tuple) {
        self.tuples.push(t);
    }

    /// Remove one occurrence of `t`; returns whether anything was removed.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if let Some(pos) = self.tuples.iter().position(|x| x == t) {
            self.tuples.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Replace one occurrence of `old` with `new`; returns whether a
    /// replacement happened (otherwise `new` is inserted — upsert semantics,
    /// matching the view-maintenance treatment of replacements as
    /// delete+insert).
    pub fn replace(&mut self, old: &Tuple, new: Tuple) -> bool {
        if let Some(pos) = self.tuples.iter().position(|x| x == old) {
            self.tuples[pos] = new;
            true
        } else {
            self.tuples.push(new);
            false
        }
    }

    /// Keyed lookup: find the first tuple whose column `key_col` equals
    /// `key` (the paper's `bucket.get(id)` idiom).
    pub fn get_by_key(&self, key_col: usize, key: &Value) -> Option<&Tuple> {
        self.tuples.iter().find(|t| t.get(key_col) == key)
    }

    /// Keyed upsert: replace the tuple whose `key_col` equals the new
    /// tuple's, or insert (the paper's `bucket.put(id, v)` idiom). Returns
    /// the previous tuple if one was replaced.
    pub fn put_by_key(&mut self, key_col: usize, t: Tuple) -> Option<Tuple> {
        let key = t.get(key_col).clone();
        if let Some(pos) = self.tuples.iter().position(|x| x.get(key_col) == &key) {
            Some(std::mem::replace(&mut self.tuples[pos], t))
        } else {
            self.tuples.push(t);
            None
        }
    }

    /// Remove all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
    }

    /// Consume into the underlying vector.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Snapshot the tuples (used by checkpointing).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Approximate memory/wire size in bytes.
    pub fn byte_size(&self) -> usize {
        self.tuples.iter().map(Tuple::byte_size).sum()
    }
}

impl FromIterator<Tuple> for TupleSet {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> TupleSet {
        TupleSet { tuples: iter.into_iter().collect() }
    }
}

/// Per-group aggregate intermediate state.
///
/// The paper leaves state representation to the UDA ("some aggregate
/// function-specific form of intermediate state"); we provide a small closed
/// set of clonable shapes so that state can be checkpointed and replicated
/// for incremental recovery (§4.3). Custom handlers needing richer state can
/// encode it in `Value::List` via the [`AggState::Value`] arm.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// No input seen yet.
    Empty,
    /// A single integer (count).
    Int(i64),
    /// A single double (delta-sum).
    Double(f64),
    /// Sum and count (sum / avg and their pre-aggregates).
    SumCount(f64, i64),
    /// A count-annotated ordered multiset of values (min/max need it to
    /// survive deletions of the current extreme).
    Multiset(BTreeMap<Value, i64>),
    /// A bag of tuples (table-valued UDAs).
    Tuples(TupleSet),
    /// An arbitrary encoded value for custom UDAs.
    Value(Value),
}

impl AggState {
    /// Approximate in-memory size, used to account checkpoint volume.
    pub fn byte_size(&self) -> usize {
        match self {
            AggState::Empty => 1,
            AggState::Int(_) => 8,
            AggState::Double(_) => 8,
            AggState::SumCount(_, _) => 16,
            AggState::Multiset(m) => m.keys().map(|v| v.byte_size() + 8).sum(),
            AggState::Tuples(t) => t.byte_size(),
            AggState::Value(v) => v.byte_size(),
        }
    }
}

/// How a group-by operator should render a handler's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOutputKind {
    /// The aggregate yields one scalar per group; group-by composes
    /// `key ++ value` output tuples and generates insert/replace deltas.
    Scalar,
    /// The aggregate emits arbitrary delta tuples itself (table-valued
    /// UDAs); group-by forwards them verbatim.
    TableValued,
}

/// Group-by aggregate handler: the AGGSTATE/AGGRESULT pair of §3.3 plus the
/// metadata the optimizer needs (composability, pre-aggregation, multiply
/// compensation — §5.2).
pub trait AggHandler: Send + Sync {
    /// Registered name.
    fn name(&self) -> &str;

    /// Fresh per-group state ("a default object if the key does not exist").
    fn init(&self) -> AggState;

    /// AGGSTATE: revise `state` according to the delta; may return
    /// intermediate deltas for streamed partial aggregation (usually empty).
    fn agg_state(&self, state: &mut AggState, d: &Delta) -> Result<Vec<Delta>>;

    /// Insert fast path: fold one *inserted* row's input value into
    /// `state` — `None` for an aggregate with no input column
    /// (`count(*)`), else the value of its one input column, borrowed
    /// from a tuple or built on the stack from a typed column. No delta
    /// wrapper, no projected tuple, no allocation. Must behave exactly
    /// like `agg_state(state, &Delta::insert(tuple![v]))` (the empty
    /// tuple for `None`) returning no intermediate deltas. Returns
    /// `Ok(false)` when the handler has no fast path; the caller then
    /// takes the general delta path (the default for custom UDAs and
    /// table-valued aggregates). Both batch lanes of the group-by call
    /// it, so a row folds the same whichever form it arrived in.
    fn fold_value(&self, state: &mut AggState, v: Option<&Value>) -> Result<bool> {
        let _ = (state, v);
        Ok(false)
    }

    /// AGGRESULT: the current result(s) for a group, called at stratum end.
    /// For scalar aggregates this returns a single 1-ary tuple delta holding
    /// the aggregate value; for table-valued UDAs it may return anything.
    fn agg_result(&self, state: &AggState) -> Result<Vec<Delta>>;

    /// How group-by should interpret `agg_result` output.
    fn output_kind(&self) -> AggOutputKind {
        AggOutputKind::Scalar
    }

    /// Result type of the aggregate (scalar aggregates).
    fn return_type(&self) -> DataType {
        DataType::Double
    }

    /// Composable UDAs are "computable in parts, which can be unioned
    /// together and a final aggregation can be applied (e.g., sum and
    /// average but not median)" (§5.2).
    fn composable(&self) -> bool {
        false
    }

    /// The registered names of the partial/final pair that computes this
    /// aggregate in parts (§5.2): the partial folds rows where they are,
    /// the final folds the partials' values. Read it through
    /// [`agg_split`](crate::aggregates::agg_split), which also requires
    /// [`composable`](Self::composable).
    fn pre_aggregate(&self) -> Option<(String, String)> {
        None
    }

    /// Optional multiply compensation for pre-aggregation on both sides of a
    /// non-key join: scales a partial state by the cardinality of the
    /// opposite join group (§5.2 "Composability and multiplicative joins").
    fn multiply(&self, state: &AggState, cardinality: i64) -> Option<AggState> {
        let _ = (state, cardinality);
        None
    }

    /// Whether this is an engine built-in. Built-ins dispatch directly;
    /// user-defined aggregators pay the (batch-amortized) reflection-style
    /// call overhead that Figure 4 measures.
    fn is_builtin(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn AggHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AggHandler({})", self.name())
    }
}

/// Join delta handler (§3.3): "called by a join operator with the
/// corresponding joining tuple buckets. It can modify the buckets according
/// to the input delta, and generate resulting delta tuples."
///
/// `from_left` tells the handler which input the delta arrived on; the
/// buckets passed are those matching the delta's join key.
pub trait JoinHandler: Send + Sync {
    /// Registered name.
    fn name(&self) -> &str;

    /// Process a delta against the two buckets for its join key.
    fn update(
        &self,
        left_bucket: &mut TupleSet,
        right_bucket: &mut TupleSet,
        d: &Delta,
        from_left: bool,
    ) -> Result<Vec<Delta>>;
}

/// While/fixpoint delta handler (§3.3): "called by a while operator and
/// returns a new set of tuples, possibly the empty set."
pub trait WhileHandler: Send + Sync {
    /// Registered name.
    fn name(&self) -> &str;

    /// Process a delta against the while-relation state.
    fn update(&self, relation: &mut TupleSet, d: &Delta) -> Result<Vec<Delta>>;
}

/// Adapter that swaps a join handler's inputs: `FlippedJoin(h)` behaves
/// like `h` with left and right exchanged. Useful when a query's FROM
/// order puts the handler's "mutable" relation on the opposite side from
/// the handler's convention (e.g. Listing 1 writes `FROM graph, PR` while
/// `PRAgg` treats the PageRank bucket as its left state).
pub struct FlippedJoin(pub std::sync::Arc<dyn JoinHandler>);

impl JoinHandler for FlippedJoin {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn update(
        &self,
        left_bucket: &mut TupleSet,
        right_bucket: &mut TupleSet,
        d: &Delta,
        from_left: bool,
    ) -> Result<Vec<Delta>> {
        self.0.update(right_bucket, left_bucket, d, !from_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn tupleset_bag_semantics() {
        let mut s = TupleSet::new();
        s.insert(tuple![1i64]);
        s.insert(tuple![1i64]);
        assert_eq!(s.len(), 2);
        assert!(s.remove(&tuple![1i64]));
        assert_eq!(s.len(), 1);
        assert!(!s.remove(&tuple![2i64]));
    }

    #[test]
    fn tupleset_keyed_access() {
        let mut s = TupleSet::new();
        s.put_by_key(0, tuple![1i64, 0.5f64]);
        s.put_by_key(0, tuple![2i64, 0.7f64]);
        // Upsert on key 1.
        let prev = s.put_by_key(0, tuple![1i64, 0.9f64]);
        assert_eq!(prev, Some(tuple![1i64, 0.5f64]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get_by_key(0, &Value::Int(1)).unwrap().get(1), &Value::Double(0.9));
        assert!(s.get_by_key(0, &Value::Int(9)).is_none());
    }

    #[test]
    fn tupleset_replace_upserts_when_missing() {
        let mut s = TupleSet::new();
        assert!(!s.replace(&tuple![1i64], tuple![2i64]));
        assert_eq!(s.len(), 1);
        assert!(s.replace(&tuple![2i64], tuple![3i64]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.tuples()[0], tuple![3i64]);
    }

    #[test]
    fn aggstate_byte_sizes() {
        assert_eq!(AggState::Empty.byte_size(), 1);
        assert_eq!(AggState::SumCount(1.0, 2).byte_size(), 16);
        let set = AggState::Multiset([(Value::Int(1), 1), (Value::Int(2), 3)].into());
        assert_eq!(set.byte_size(), 32);
    }

    #[test]
    fn tupleset_from_iterator_and_byte_size() {
        let s: TupleSet = vec![tuple![1i64], tuple![2i64]].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.byte_size(), 2 * (2 + 8));
    }
}
