//! Signed multisets of tuples — the algebra view maintenance runs on.
//!
//! A [`DeltaSet`] maps each tuple to a signed multiplicity: `+n` means the
//! tuple gained `n` occurrences, `-n` that it lost `n`. Base-table batches,
//! the output delta of each maintenance pass, and the cascades between
//! views are all `DeltaSet`s; propagation is multiplication of
//! multiplicities (joins) and addition (unions of delta streams), exactly
//! the count algebra the Gupta/Mumick view-maintenance rules reduce to for
//! `+()` / `-()` annotations.

use rex_core::delta::{Annotation, Delta};
use rex_core::error::{Result, RexError};
use rex_core::hash::FxHashMap;
use rex_core::tuple::Tuple;

/// A signed multiset of tuples. Zero-count entries are pruned eagerly, so
/// `is_empty()` means "no net change".
///
/// Counts live in a hash map keyed by the deterministic in-tree
/// [`FxHasher`](rex_core::hash::FxHasher), so probes on the maintenance
/// hot path cost O(1) instead of a `BTreeMap`'s O(log n) pointer chase,
/// while every run of the same program still traverses in the same
/// (arbitrary) order. Observable outputs sort at the emission boundary:
/// [`rows`](DeltaSet::rows) is sorted; [`iter`](DeltaSet::iter),
/// [`iter_rows`](DeltaSet::iter_rows) and
/// [`to_deltas`](DeltaSet::to_deltas) are unordered and meant for
/// count-algebra internals and for feeding a dataflow, where order cannot
/// matter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSet {
    counts: FxHashMap<Tuple, i64>,
}

impl DeltaSet {
    /// The empty set.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// Build from whole rows, each counted once (duplicates accumulate).
    pub fn from_rows<I: IntoIterator<Item = Tuple>>(rows: I) -> DeltaSet {
        let mut s = DeltaSet::new();
        for r in rows {
            s.add(r, 1);
        }
        s
    }

    /// Build from annotated deltas (see [`add_delta`](DeltaSet::add_delta)).
    pub fn from_deltas(deltas: &[Delta]) -> Result<DeltaSet> {
        let mut s = DeltaSet::new();
        for d in deltas {
            s.add_delta(d.clone())?;
        }
        Ok(s)
    }

    /// Fold in one annotated delta: `+()` adds, `-()` subtracts, `→(t')`
    /// subtracts the old tuple and adds the new one. Programmable `δ(E)`
    /// deltas have no set-level meaning and are rejected.
    pub fn add_delta(&mut self, d: Delta) -> Result<()> {
        match d.ann {
            Annotation::Insert => self.add(d.tuple, 1),
            Annotation::Delete => self.add(d.tuple, -1),
            Annotation::Replace(old) => {
                self.add(old, -1);
                self.add(d.tuple, 1);
            }
            Annotation::Update(_) => {
                return Err(RexError::Plan(
                    "programmable δ(E) deltas cannot drive view maintenance".into(),
                ))
            }
        }
        Ok(())
    }

    /// Adjust a tuple's multiplicity by `n`, pruning zero entries.
    pub fn add(&mut self, t: Tuple, n: i64) {
        if n == 0 {
            return;
        }
        match self.counts.entry(t) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                *o.get_mut() += n;
                if *o.get() == 0 {
                    o.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(n);
            }
        }
    }

    /// Add every entry of `other`, scaled by `factor` (`-1` to subtract).
    pub fn merge_scaled(&mut self, other: &DeltaSet, factor: i64) {
        for (t, n) in &other.counts {
            self.add(t.clone(), n * factor);
        }
    }

    /// Whether the set carries no net change.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(tuple, signed multiplicity)` in *unspecified* (but, for a
    /// given program, deterministic) order. Use only where the consumer is
    /// order-insensitive — count algebra, state folding; sort at the
    /// boundary where output becomes observable.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().map(|(t, &n)| (t, n))
    }

    /// Iterate the bag's rows by reference, each tuple yielded once per
    /// unit of positive multiplicity, in *unspecified* order. This is the
    /// allocation-free sibling of [`rows`](DeltaSet::rows) for callers that
    /// only need to walk the bag (feeding a batch to a dataflow) and would
    /// otherwise clone every tuple.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .flat_map(|(t, &n)| std::iter::repeat_n(t, n as usize))
    }

    /// Expand to rows (each tuple repeated by its positive multiplicity),
    /// in sorted order — the bag a query over the view observes.
    pub fn rows(&self) -> Vec<Tuple> {
        let mut distinct: Vec<(&Tuple, usize)> =
            self.counts.iter().filter(|(_, &n)| n > 0).map(|(t, &n)| (t, n as usize)).collect();
        distinct.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut out = Vec::with_capacity(distinct.iter().map(|(_, n)| n).sum());
        for (t, n) in distinct {
            out.extend(std::iter::repeat_n(t, n).cloned());
        }
        out
    }

    /// Render as annotated deltas (`+()`×n / `-()`×n per tuple), in
    /// *unspecified* order like [`iter`](DeltaSet::iter).
    pub fn to_deltas(&self) -> Vec<Delta> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (t, &n) in &self.counts {
            let make = if n > 0 { Delta::insert } else { Delta::delete };
            out.extend(std::iter::repeat_n(t, n.unsigned_abs() as usize).map(|t| make(t.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::value::Value;

    #[test]
    fn add_prunes_cancellations() {
        let mut s = DeltaSet::new();
        s.add(tuple![1i64], 2);
        s.add(tuple![1i64], -2);
        assert!(s.is_empty());
        s.add(tuple![2i64], -1);
        assert_eq!(s.iter().count(), 1);
        assert!(s.rows().is_empty(), "negative counts carry no rows");
    }

    #[test]
    fn from_deltas_applies_annotation_algebra() {
        let s = DeltaSet::from_deltas(&[
            Delta::insert(tuple![1i64]),
            Delta::insert(tuple![1i64]),
            Delta::delete(tuple![2i64]),
            Delta::replace(tuple![1i64], tuple![3i64]),
        ])
        .unwrap();
        assert_eq!(s.rows(), vec![tuple![1i64], tuple![3i64]]);
        let err = DeltaSet::from_deltas(&[Delta::update(tuple![1i64], Value::Int(1))]);
        assert!(err.is_err());
    }

    #[test]
    fn rows_expand_multiplicity_sorted() {
        let mut s = DeltaSet::from_rows(vec![tuple![2i64], tuple![1i64], tuple![2i64]]);
        assert_eq!(s.rows(), vec![tuple![1i64], tuple![2i64], tuple![2i64]]);
        let mut d = DeltaSet::new();
        d.add(tuple![2i64], -1);
        s.merge_scaled(&d, 1);
        assert_eq!(s.rows(), vec![tuple![1i64], tuple![2i64]]);
        assert_eq!(d.to_deltas(), vec![Delta::delete(tuple![2i64])]);
    }

    #[test]
    fn iter_rows_borrows_and_expands_positive_counts() {
        let mut s = DeltaSet::from_rows(vec![tuple![1i64], tuple![2i64], tuple![2i64]]);
        s.add(tuple![9i64], -3);
        let mut seen: Vec<&Tuple> = s.iter_rows().collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 3, "negative entries yield no rows");
        assert_eq!(*seen[0], tuple![1i64]);
        assert_eq!(*seen[1], tuple![2i64]);
        assert_eq!(*seen[2], tuple![2i64]);
        // The borrowing walk agrees with the cloning expansion.
        let mut cloned = s.rows();
        cloned.sort_unstable();
        assert_eq!(seen.into_iter().cloned().collect::<Vec<_>>(), cloned);
    }
}
