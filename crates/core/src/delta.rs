//! Deltas: annotated tuples, the unit of dataflow in REX.
//!
//! Definition 1 of the paper: a delta is a pair `(α, t)` where `t` is a tuple
//! and `α` is one of:
//!
//! * `+()`       — insert `t` into operator state ([`Annotation::Insert`])
//! * `-()`       — delete `t` from operator state ([`Annotation::Delete`])
//! * `→(t')`     — `t` replaces existing tuple `t'` ([`Annotation::Replace`])
//!
//! That is the Z-set ring (DBSP, Budiu et al., VLDB 2023): `+()` and `-()`
//! are weights `+1` and `-1`, and `→(t')` is the fused form of `-t' + t`.
//! The paper's fourth form, the programmable `δ(E)`, is not a separate
//! annotation here: a join handler owns every annotation it receives and
//! emits ordinary adjustment rows into a composable aggregate instead
//! (`PRAgg` → `sum`).
//!
//! Stateless operators propagate annotations untouched (the annotation
//! behaves like a hidden attribute); stateful operators apply the standard
//! view-maintenance rules of Gupta/Mumick/Subrahmanian.

use crate::hash::FxHashMap;
use crate::tuple::{sort_rows, Tuple};
use std::collections::hash_map::Entry;
use std::fmt;

/// The operation part of a delta (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Annotation {
    /// `+()`: insert the tuple.
    Insert,
    /// `-()`: delete the tuple (if it exists).
    Delete,
    /// `→(t')`: the tuple replaces `t'`.
    Replace(Tuple),
}

impl Annotation {
    /// Approximate serialized size of the annotation in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Annotation::Insert | Annotation::Delete => 1,
            Annotation::Replace(t) => 1 + t.byte_size(),
        }
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Annotation::Insert => f.write_str("+()"),
            Annotation::Delete => f.write_str("-()"),
            Annotation::Replace(t) => write!(f, "->{t}"),
        }
    }
}

/// An annotated tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Delta {
    /// The operation.
    pub ann: Annotation,
    /// The subject tuple.
    pub tuple: Tuple,
}

impl Delta {
    /// An insertion delta.
    pub fn insert(tuple: Tuple) -> Delta {
        Delta { ann: Annotation::Insert, tuple }
    }

    /// A deletion delta.
    pub fn delete(tuple: Tuple) -> Delta {
        Delta { ann: Annotation::Delete, tuple }
    }

    /// A replacement delta: `new_tuple` replaces `old`.
    pub fn replace(old: Tuple, new_tuple: Tuple) -> Delta {
        Delta { ann: Annotation::Replace(old), tuple: new_tuple }
    }

    /// Keep the annotation, substitute the tuple. This is how stateless
    /// operators (filter, project, apply-function) propagate deltas: "any
    /// output tuples receive the same annotation as the input tuple".
    pub fn with_tuple(&self, tuple: Tuple) -> Delta {
        Delta { ann: self.ann.clone(), tuple }
    }

    /// Approximate wire size in bytes (for bandwidth accounting).
    pub fn byte_size(&self) -> usize {
        self.ann.byte_size() + self.tuple.byte_size()
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.ann, self.tuple)
    }
}

/// A Z-set: tuples with signed `i64` weights (DBSP's algebra, Budiu et al.,
/// VLDB 2023). `+n` means the tuple gained `n` occurrences, `-n` that it
/// lost `n`; adding two Z-sets adds weights, and joins multiply them —
/// the count algebra the Gupta/Mumick rules reduce to for `+()` / `-()`.
/// Zero weights are pruned eagerly, so `is_empty()` means "no net change".
///
/// Weights live in a hash map keyed by the deterministic
/// [`FxHasher`](crate::hash::FxHasher), so every run of a program
/// traverses in the same (arbitrary) order. [`rows`](ZSet::rows) is sorted;
/// [`iter`](ZSet::iter), [`iter_rows`](ZSet::iter_rows) and
/// [`to_deltas`](ZSet::to_deltas) are unordered, for consumers where order
/// cannot matter (count algebra, feeding a dataflow).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZSet {
    weights: FxHashMap<Tuple, i64>,
}

impl ZSet {
    /// The empty Z-set.
    pub fn new() -> ZSet {
        ZSet::default()
    }

    /// Whole rows, each with weight 1 (duplicates accumulate).
    pub fn from_rows<I: IntoIterator<Item = Tuple>>(rows: I) -> ZSet {
        let mut z = ZSet::new();
        for r in rows {
            z.add(r, 1);
        }
        z
    }

    /// Annotated deltas folded in order (see [`add_delta`](ZSet::add_delta)).
    pub fn from_deltas(deltas: &[Delta]) -> ZSet {
        let mut z = ZSet::new();
        for d in deltas {
            z.add_delta(d.clone());
        }
        z
    }

    /// Fold in one annotated delta: `+()` is `+t`, `-()` is `-t`, and
    /// `→(t')` is `-t' + t`.
    pub fn add_delta(&mut self, d: Delta) {
        match d.ann {
            Annotation::Insert => self.add(d.tuple, 1),
            Annotation::Delete => self.add(d.tuple, -1),
            Annotation::Replace(old) => {
                self.add(old, -1);
                self.add(d.tuple, 1);
            }
        }
    }

    /// Add `n` to `t`'s weight, pruning it at zero.
    pub fn add(&mut self, t: Tuple, n: i64) {
        if n == 0 {
            return;
        }
        match self.weights.entry(t) {
            Entry::Occupied(mut o) => {
                *o.get_mut() += n;
                if *o.get() == 0 {
                    o.remove();
                }
            }
            Entry::Vacant(v) => {
                v.insert(n);
            }
        }
    }

    /// Add every weight of `other`, scaled by `factor` (`-1` subtracts).
    pub fn merge_scaled(&mut self, other: &ZSet, factor: i64) {
        for (t, n) in &other.weights {
            self.add(t.clone(), n * factor);
        }
    }

    /// `t`'s weight (0 when absent).
    pub fn weight(&self, t: &Tuple) -> i64 {
        self.weights.get(t).copied().unwrap_or(0)
    }

    /// Whether every weight is zero.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// `(tuple, weight)` pairs in unspecified (per program deterministic)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.weights.iter().map(|(t, &n)| (t, n))
    }

    /// Each tuple by reference once per unit of positive weight, in
    /// unspecified order: [`rows`](ZSet::rows) without the clones.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.weights
            .iter()
            .filter(|(_, &n)| n > 0)
            .flat_map(|(t, &n)| std::iter::repeat_n(t, n as usize))
    }

    /// The bag of positive weights as sorted rows — what a query observes.
    pub fn rows(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.iter_rows().cloned().collect();
        sort_rows(&mut out);
        out
    }

    /// `|n|` copies of `+()` or `-()` per tuple, in unspecified order.
    pub fn to_deltas(&self) -> Vec<Delta> {
        let mut out = Vec::with_capacity(self.weights.len());
        for (t, &n) in &self.weights {
            let make = if n > 0 { Delta::insert } else { Delta::delete };
            out.extend(std::iter::repeat_n(t, n.unsigned_abs() as usize).map(|t| make(t.clone())));
        }
        out
    }
}

/// Punctuation markers (Tucker & Maier): special signals interleaved with
/// deltas that announce the end of a stratum or of the whole stream.
///
/// REX uses punctuation to coordinate strata: "at the end of a stratum, all
/// fixpoint operators send the number of processed tuples to the query
/// requestor, which informs the operators whether the query implicit
/// termination condition has been met" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punctuation {
    /// The current stratum (0-based) has finished on this edge.
    EndOfStratum(u64),
    /// No more data will ever arrive on this edge.
    EndOfStream,
}

impl Punctuation {
    /// The stratum number, if this is an end-of-stratum marker.
    pub fn stratum(&self) -> Option<u64> {
        match self {
            Punctuation::EndOfStratum(s) => Some(*s),
            Punctuation::EndOfStream => None,
        }
    }
}

impl fmt::Display for Punctuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Punctuation::EndOfStratum(s) => write!(f, "⟨eos:{s}⟩"),
            Punctuation::EndOfStream => f.write_str("⟨eof⟩"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn constructors_set_annotations() {
        let t = tuple![1i64];
        assert_eq!(Delta::insert(t.clone()).ann, Annotation::Insert);
        assert_eq!(Delta::delete(t.clone()).ann, Annotation::Delete);
        let r = Delta::replace(tuple![0i64], t.clone());
        assert!(matches!(r.ann, Annotation::Replace(_)));
    }

    #[test]
    fn with_tuple_preserves_annotation() {
        let d = Delta::replace(tuple![0i64], tuple![1i64]);
        let d2 = d.with_tuple(tuple![1i64, 2i64]);
        assert_eq!(d2.ann, Annotation::Replace(tuple![0i64]));
        assert_eq!(d2.tuple.arity(), 2);
    }

    #[test]
    fn zset_add_prunes_cancellations() {
        let mut z = ZSet::new();
        z.add(tuple![1i64], 2);
        z.add(tuple![1i64], -2);
        assert!(z.is_empty());
        z.add(tuple![2i64], -1);
        assert_eq!(z.iter().count(), 1);
        assert_eq!(z.weight(&tuple![2i64]), -1);
        assert_eq!(z.weight(&tuple![1i64]), 0);
        assert!(z.rows().is_empty(), "negative weights carry no rows");
    }

    #[test]
    fn zset_from_deltas_applies_annotation_algebra() {
        let z = ZSet::from_deltas(&[
            Delta::insert(tuple![1i64]),
            Delta::insert(tuple![1i64]),
            Delta::delete(tuple![2i64]),
            Delta::replace(tuple![1i64], tuple![3i64]),
        ]);
        assert_eq!(z.rows(), vec![tuple![1i64], tuple![3i64]]);
        assert_eq!(z.weight(&tuple![2i64]), -1);
    }

    #[test]
    fn zset_rows_expand_weights_sorted() {
        let mut z = ZSet::from_rows(vec![tuple![2i64], tuple![1i64], tuple![2i64]]);
        assert_eq!(z.rows(), vec![tuple![1i64], tuple![2i64], tuple![2i64]]);
        let mut d = ZSet::new();
        d.add(tuple![2i64], -1);
        z.merge_scaled(&d, 1);
        assert_eq!(z.rows(), vec![tuple![1i64], tuple![2i64]]);
        assert_eq!(d.to_deltas(), vec![Delta::delete(tuple![2i64])]);
        // Scaling by −1 and adding back is the inverse.
        z.merge_scaled(&z.clone(), -1);
        assert!(z.is_empty());
    }

    #[test]
    fn zset_iter_rows_borrows_positive_weights() {
        let mut z = ZSet::from_rows(vec![tuple![1i64], tuple![2i64], tuple![2i64]]);
        z.add(tuple![9i64], -3);
        let mut seen: Vec<Tuple> = z.iter_rows().cloned().collect();
        seen.sort_unstable();
        assert_eq!(seen, z.rows(), "negative entries yield no rows");
    }

    #[test]
    fn byte_size_includes_annotation_payload() {
        let t = tuple![1i64]; // 2 + 8 = 10 bytes
        assert_eq!(Delta::insert(t.clone()).byte_size(), 11);
        assert_eq!(Delta::replace(t.clone(), t).byte_size(), 1 + 10 + 10);
    }

    #[test]
    fn punctuation_stratum_accessor() {
        assert_eq!(Punctuation::EndOfStratum(3).stratum(), Some(3));
        assert_eq!(Punctuation::EndOfStream.stratum(), None);
    }

    #[test]
    fn display_formats() {
        let d = Delta::insert(tuple![1i64]);
        assert_eq!(d.to_string(), "+() (1)");
        assert_eq!(Punctuation::EndOfStream.to_string(), "⟨eof⟩");
    }
}
