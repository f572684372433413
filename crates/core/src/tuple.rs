//! Tuples and schemas.

use crate::error::{Result, RexError};
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply-cloneable tuple of values.
///
/// Tuples flow through the operator pipeline wrapped in deltas; sharing via
/// `Arc` keeps fan-out (e.g. a rehash broadcasting to replicas) allocation
/// free.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(Arc::from(values.into_boxed_slice()))
    }

    /// Build a tuple by cloning a slice of values. One allocation: the
    /// values are cloned straight into the `Arc` buffer, unlike
    /// [`Tuple::new`], whose `Vec` is itself an allocation that `Arc`
    /// must copy out of. Hot paths evaluate into a reusable scratch
    /// buffer and construct the tuple from it.
    pub fn from_slice(values: &[Value]) -> Tuple {
        Tuple(Arc::from(values))
    }

    /// The empty tuple.
    pub fn empty() -> Tuple {
        Tuple(Arc::from(Vec::new().into_boxed_slice()))
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Access attribute `i`, or `Value::Null` when out of range is *not*
    /// silently tolerated: panics in debug, returns Null in release would
    /// hide bugs, so we always panic on out-of-range access.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Checked access.
    pub fn try_get(&self, i: usize) -> Result<&Value> {
        self.0.get(i).ok_or_else(|| {
            RexError::Exec(format!("column index {i} out of range (arity {})", self.0.len()))
        })
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Project the given column indices into a new tuple.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.0[c].clone()).collect())
    }

    /// Concatenate two tuples (used by joins). Every probe match on the
    /// join hot path constructs one of these, so the values are cloned
    /// straight into the `Arc` buffer: the chained iterator knows its
    /// exact length, and the collect makes one allocation of that size.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Approximate serialized size in bytes (network accounting).
    pub fn byte_size(&self) -> usize {
        2 + self.0.iter().map(Value::byte_size).sum::<usize>()
    }

    /// Extract a key (sub-tuple) for hashing/grouping.
    ///
    /// This *allocates* an owned key. Hot paths that only need to probe
    /// keyed state should use [`hash_key`](Tuple::hash_key) /
    /// [`key_eq`](Tuple::key_eq) (or a
    /// [`KeyedTable`](crate::hash::KeyedTable)) instead, which hash and
    /// compare the key columns in place.
    pub fn key(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.0[c].clone()).collect()
    }

    /// Deterministic [`FxHasher`](crate::hash::FxHasher) hash of the key
    /// columns, computed over the column references — no owned key is
    /// materialized. Agrees with
    /// [`hash_values`](crate::hash::hash_values)`(&self.key(cols))`.
    pub fn hash_key(&self, cols: &[usize]) -> u64 {
        crate::hash::hash_values(cols.iter().map(|&c| &self.0[c]))
    }

    /// Whether this tuple's key columns equal an owned key, compared in
    /// place (the lookup half of borrowed-key probing).
    pub fn key_eq(&self, cols: &[usize], key: &[Value]) -> bool {
        cols.len() == key.len() && cols.iter().zip(key).all(|(&c, v)| &self.0[c] == v)
    }
}

/// Sort rows into [`Tuple`]'s total order via 64-bit
/// [order prefixes](Value::order_prefix) of the first attribute: rows are
/// ordered by prefix first — one integer compare (or a radix pass)
/// instead of an `Arc` deref plus per-`Value` enum matching — and only
/// runs of equal prefixes fall back to the full tuple comparison. This is
/// what makes the sink's single end-of-query sort cheap.
///
/// Large inputs take an LSD radix sort over `(prefix, row index)` pairs
/// (16-bit digits, constant-digit passes skipped); small inputs use a
/// comparison sort on the same keys.
pub fn sort_rows(rows: &mut Vec<Tuple>) {
    let n = rows.len();
    if n < 2 {
        return;
    }
    let mut keyed: Vec<(u64, u32)> = rows
        .iter()
        .enumerate()
        .map(|(i, t)| (t.values().first().map_or(0, Value::order_prefix), i as u32))
        .collect();

    if n < 4096 {
        keyed.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| rows[a.1 as usize].cmp(&rows[b.1 as usize]))
        });
    } else {
        // One pass builds all four digit histograms; constant digits
        // (e.g. the nearly-fixed type-rank bits) skip their pass.
        let mut hist = vec![0u32; 4 * 65536];
        for &(k, _) in &keyed {
            for pass in 0..4 {
                hist[pass << 16 | ((k >> (pass * 16)) & 0xffff) as usize] += 1;
            }
        }
        let mut aux = vec![(0u64, 0u32); n];
        for pass in 0..4 {
            let h = &mut hist[pass << 16..(pass + 1) << 16];
            if h.iter().any(|&c| c as usize == n) {
                continue; // all keys share this digit
            }
            let mut sum = 0u32;
            for c in h.iter_mut() {
                let count = *c;
                *c = sum;
                sum += count;
            }
            let shift = pass * 16;
            for &kt in &keyed {
                let d = ((kt.0 >> shift) & 0xffff) as usize;
                aux[h[d] as usize] = kt;
                h[d] += 1;
            }
            std::mem::swap(&mut keyed, &mut aux);
        }
        // Break prefix ties with the full tuple order, run by run.
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            while j < n && keyed[j].0 == keyed[i].0 {
                j += 1;
            }
            if j - i > 1 {
                keyed[i..j].sort_unstable_by(|a, b| rows[a.1 as usize].cmp(&rows[b.1 as usize]));
            }
            i = j;
        }
    }

    // Apply the permutation without cloning any tuple.
    let mut slots: Vec<Option<Tuple>> = std::mem::take(rows).into_iter().map(Some).collect();
    *rows =
        keyed.into_iter().map(|(_, i)| slots[i as usize].take().expect("unique index")).collect();
}

/// Merge runs that are each already in [`sort_rows`] order into one run
/// in that order: the same rows [`sort_rows`] would give for their
/// concatenation, found with one comparison per row per run instead of a
/// second sort. Among equal rows the earlier run's come first.
pub fn merge_sorted_runs(runs: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    // Each live run as (its smallest remaining row, the rest).
    let mut heads: Vec<(Tuple, std::vec::IntoIter<Tuple>)> = runs
        .into_iter()
        .filter_map(|run| {
            let mut rest = run.into_iter();
            rest.next().map(|head| (head, rest))
        })
        .collect();
    while let Some(first) = heads.first() {
        let mut min = 0;
        let mut least = &first.0;
        for (i, (head, _)) in heads.iter().enumerate().skip(1) {
            if head < least {
                (min, least) = (i, head);
            }
        }
        match heads[min].1.next() {
            Some(next) => out.push(std::mem::replace(&mut heads[min].0, next)),
            None => out.push(heads.remove(min).0),
        }
    }
    out
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

/// Build a tuple from a heterogeneous list of values.
///
/// ```
/// use rex_core::tuple;
/// let t = tuple![1i64, 2.5f64, "x"];
/// assert_eq!(t.arity(), 3);
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

/// A named, typed attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub ty: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, ty: DataType) -> Field {
        Field { name: name.into(), ty }
    }
}

/// An ordered list of fields describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Construct a schema from fields.
    pub fn new(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> Schema {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
    }

    /// All fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Resolve a column name to its index. Names are case-insensitive, as in
    /// SQL. Qualified names (`rel.col`) match on the suffix.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        // Exact (case-insensitive) match first.
        if let Some(i) = self.fields.iter().position(|f| f.name.to_ascii_lowercase() == lower) {
            return Some(i);
        }
        // Qualified match: `x.y` matches field `y`; field `x.y` matches `y`.
        let suffix = lower.rsplit('.').next().unwrap_or(&lower);
        self.fields.iter().position(|f| {
            let fl = f.name.to_ascii_lowercase();
            fl == suffix || fl.rsplit('.').next() == Some(suffix)
        })
    }

    /// Field type by index.
    pub fn field_type(&self, i: usize) -> DataType {
        self.fields[i].ty
    }

    /// Concatenate two schemas (join output).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Validate a tuple against this schema.
    pub fn check(&self, t: &Tuple) -> Result<()> {
        if t.arity() != self.arity() {
            return Err(RexError::Type(format!(
                "tuple arity {} does not match schema arity {}",
                t.arity(),
                self.arity()
            )));
        }
        for (i, f) in self.fields.iter().enumerate() {
            let vt = t.get(i).data_type();
            if !vt.coercible_to(f.ty) {
                return Err(RexError::Type(format!(
                    "column {} ({}) expects {} but value is {}",
                    i, f.name, f.ty, vt
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}: {}", fld.name, fld.ty)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_sorted_runs_equals_sorting_their_concatenation() {
        let mut rng = splitmix(7);
        for k in 1..=4 {
            for trial in 0..50 {
                // Small keys force equal rows within and across runs; some
                // runs are empty, and every tenth trial makes all rows equal.
                let runs: Vec<Vec<Tuple>> = (0..k)
                    .map(|_| {
                        let len = rng() % 40;
                        let mut run: Vec<Tuple> = (0..len)
                            .map(|_| {
                                if trial % 10 == 0 {
                                    tuple![1i64, "x"]
                                } else {
                                    tuple![(rng() % 5) as i64, ["a", "b"][(rng() % 2) as usize]]
                                }
                            })
                            .collect();
                        sort_rows(&mut run);
                        run
                    })
                    .collect();
                let mut want: Vec<Tuple> = runs.concat();
                sort_rows(&mut want);
                assert_eq!(merge_sorted_runs(runs), want, "k = {k}, trial {trial}");
            }
        }
        assert!(merge_sorted_runs(Vec::new()).is_empty());
        assert!(merge_sorted_runs(vec![Vec::new(), Vec::new()]).is_empty());
    }

    /// SplitMix64, so the sweep is reproducible without rex-data.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn tuple_projection_and_concat() {
        let t = tuple![1i64, "a", 2.5f64];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![2.5f64, 1i64]);
        let c = t.concat(&tuple![true]);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.get(3), &Value::Bool(true));
    }

    #[test]
    fn try_get_out_of_range_errors() {
        let t = tuple![1i64];
        assert!(t.try_get(0).is_ok());
        assert!(t.try_get(1).is_err());
    }

    #[test]
    fn schema_name_resolution_case_insensitive_and_qualified() {
        let s = Schema::of(&[("srcId", DataType::Int), ("graph.destId", DataType::Int)]);
        assert_eq!(s.index_of("srcid"), Some(0));
        assert_eq!(s.index_of("PR.srcId"), Some(0));
        assert_eq!(s.index_of("destId"), Some(1));
        assert_eq!(s.index_of("graph.destId"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn schema_check_enforces_arity_and_types() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Double)]);
        assert!(s.check(&tuple![1i64, 2.0f64]).is_ok());
        // Int coerces to Double.
        assert!(s.check(&tuple![1i64, 2i64]).is_ok());
        // Null is compatible with anything.
        assert!(s.check(&Tuple::new(vec![Value::Null, Value::Null])).is_ok());
        assert!(s.check(&tuple![1i64]).is_err());
        assert!(s.check(&tuple!["x", 2.0f64]).is_err());
    }

    #[test]
    fn tuple_byte_size() {
        let t = tuple![1i64, "ab"];
        assert_eq!(t.byte_size(), 2 + 8 + 6);
    }

    #[test]
    fn tuple_key_extraction() {
        let t = tuple![7i64, "k", 3i64];
        assert_eq!(t.key(&[1]), vec![Value::str("k")]);
        assert_eq!(t.key(&[0, 2]), vec![Value::Int(7), Value::Int(3)]);
    }
}
