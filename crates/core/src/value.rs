//! Runtime values and the RQL type system.
//!
//! REX internally represents data as dynamically-typed [`Value`]s, mirroring
//! the paper's use of Java objects and scalar types (§3.3: "the base
//! datatypes map cleanly to Java types"). Collection-valued attributes —
//! which the paper calls out as missing from SQL-99 but essential for
//! user-defined aggregations — are supported via [`Value::List`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The static type of an RQL expression or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer (covers the paper's `Integer`/`Long`).
    Int,
    /// 64-bit IEEE float (the paper's `Double`).
    Double,
    /// UTF-8 string.
    Str,
    /// Collection-valued attribute.
    List,
    /// Unknown/any: a value typed only at run time (a `min`/`max` result, a
    /// handler join's output column).
    Any,
    /// The SQL NULL type, compatible with everything.
    Null,
}

impl DataType {
    /// Whether a value of type `self` can be used where `other` is expected.
    pub fn coercible_to(self, other: DataType) -> bool {
        use DataType::*;
        matches!(
            (self, other),
            (a, b) if a == b
        ) || matches!((self, other), (Null, _) | (_, Any) | (Any, _) | (Int, Double))
    }

    /// The common supertype of two types, if any (used by arithmetic and
    /// CASE/UNION type inference).
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, t) | (t, Null) => Some(t),
            (Any, t) | (t, Any) => Some(t),
            (Int, Double) | (Double, Int) => Some(Double),
            _ => None,
        }
    }

    /// Parse an RQL/Java-style type name (`Integer`, `Double`, ...).
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_lowercase().as_str() {
            "bool" | "boolean" => Some(DataType::Bool),
            "int" | "integer" | "long" | "bigint" => Some(DataType::Int),
            "double" | "float" | "real" => Some(DataType::Double),
            "str" | "string" | "varchar" | "text" => Some(DataType::Str),
            "list" | "bag" | "collection" => Some(DataType::List),
            "any" | "object" => Some(DataType::Any),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Double => "DOUBLE",
            DataType::Str => "STRING",
            DataType::List => "LIST",
            DataType::Any => "ANY",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed runtime value.
///
/// `Value` implements a *total* equality and ordering (NaN compares equal to
/// itself and sorts after all other doubles, via [`f64::total_cmp`]) so that
/// values can be used directly as grouping and join keys.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Shared immutable string. `Arc<String>` rather than `Arc<str>`: a
    /// thin pointer keeps every `Value` at 16 bytes.
    Str(Arc<String>),
    /// Shared immutable list (collection-valued attribute).
    List(Arc<Vec<Value>>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into()))
    }

    /// Construct a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(items))
    }

    /// The runtime [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Double(_) => DataType::Double,
            Value::Str(_) => DataType::Str,
            Value::List(_) => DataType::List,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as an integer, if possible (no float truncation).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret as a float, coercing integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Interpret as a string slice, if possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Interpret as a list, if possible.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes; used by the network byte
    /// accounting that backs the paper's Figure 11 bandwidth measurements.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::List(l) => 4 + l.iter().map(Value::byte_size).sum::<usize>(),
        }
    }

    /// A 64-bit *order prefix*: a cheaply comparable key that is monotone
    /// with respect to [`Value`]'s total order — `a < b` implies
    /// `a.order_prefix() <= b.order_prefix()`. Sorting large tuple sets
    /// compares prefixes first and falls back to the full comparison only
    /// on prefix ties (see [`sort_rows`](crate::tuple::sort_rows)).
    ///
    /// Layout: type rank in the top 3 bits (matching the rank order of
    /// `cmp`), then 61 bits of payload — the total-order encoding of the
    /// numeric value as f64 (ints and doubles share the numeric rank, as
    /// in `cmp`), the first 7 bytes of a string, a bool bit.
    pub fn order_prefix(&self) -> u64 {
        // Monotone encoding of f64 total order into u64 order.
        fn enc(d: f64) -> u64 {
            let b = d.to_bits();
            if b >> 63 == 1 {
                !b
            } else {
                b | (1 << 63)
            }
        }
        let (rank, payload) = match self {
            Value::Null => (0u64, 0u64),
            Value::Bool(b) => (1, *b as u64),
            Value::Int(i) => (2, enc(*i as f64) >> 3),
            Value::Double(d) => (2, enc(*d) >> 3),
            Value::Str(s) => {
                let mut buf = [0u8; 8];
                let n = s.len().min(7);
                buf[..n].copy_from_slice(&s.as_bytes()[..n]);
                (3, u64::from_be_bytes(buf) >> 3)
            }
            Value::List(_) => (4, 0),
        };
        (rank << 61) | payload
    }

    /// SQL-style addition; integers promote to doubles when mixed.
    pub fn add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_add(*b))),
            _ => Some(Value::Double(self.as_double()? + other.as_double()?)),
        }
    }

    /// SQL-style subtraction.
    pub fn sub(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_sub(*b))),
            _ => Some(Value::Double(self.as_double()? - other.as_double()?)),
        }
    }

    /// SQL-style multiplication.
    pub fn mul(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.wrapping_mul(*b))),
            _ => Some(Value::Double(self.as_double()? * other.as_double()?)),
        }
    }

    /// SQL-style division; always produces a double, NULL on divide-by-zero.
    pub fn div(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
            _ => {
                let d = other.as_double()?;
                if d == 0.0 {
                    Some(Value::Null)
                } else {
                    Some(Value::Double(self.as_double()? / d))
                }
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Double(_) => 2, // numerics compare cross-type
                Str(_) => 3,
                List(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Cross-type numeric comparison: equality only when the integer
            // is exactly representable as f64 (keeps Eq consistent with Hash
            // for integers beyond 2^53); otherwise ints sort after the
            // rounded double they'd collide with.
            (Int(a), Double(b)) => match (*a as f64).total_cmp(b) {
                Ordering::Equal if (*a as f64) as i64 != *a => Ordering::Greater,
                o => o,
            },
            (Double(a), Int(b)) => match a.total_cmp(&(*b as f64)) {
                Ordering::Equal if (*b as f64) as i64 != *b => Ordering::Less,
                o => o,
            },
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integers and doubles that are numerically equal must hash the
            // same because they compare equal. Both hash through the *i64*
            // image when one exists: any `Double` equal to some `Int` is
            // integral and round-trips through `as i64` (saturating casts
            // make the i64::MAX/2^63 edge agree with `cmp`'s correction).
            // Hashing by i64 rather than f64 bits keeps the entropy of
            // small integers in the word's low bits — f64 bit patterns
            // carry it in the exponent/mantissa *high* bits, which a
            // multiply-based hash never folds back down, collapsing every
            // probe-table home slot for sequential keys.
            Value::Int(i) => {
                3u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                let i = *d as i64;
                if i as f64 == *d {
                    // Integral and i64-representable: hash as the equal Int
                    // would (also unifies -0.0 with 0.0, a benign collision
                    // across a pair `cmp` keeps distinct).
                    3u8.hash(state);
                    i.hash(state);
                } else {
                    2u8.hash(state);
                    d.to_bits().hash(state);
                }
            }
            Value::Str(s) => hash_str(s, state),
            Value::List(l) => {
                5u8.hash(state);
                for v in l.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

/// How a `Value::Str(s)` hashes, for callers that hold the string
/// without its `Value` wrapper (a typed string column).
pub(crate) fn hash_str<H: Hasher>(s: &Arc<String>, state: &mut H) {
    4u8.hash(state);
    s.hash(state);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                f.write_str("[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    /// Every stored row is a slice of values: the thin string pointer
    /// keeps each one at two words.
    #[test]
    fn values_are_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_double_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Double(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Double(3.0)));
        assert_ne!(Value::Int(3), Value::Double(3.5));
    }

    #[test]
    fn nan_is_self_equal_for_keying() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn ordering_is_total_across_types() {
        let mut vals = [
            Value::str("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Double(0.5),
            Value::list(vec![Value::Int(1)]),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert!(matches!(vals[1], Value::Bool(_)));
        assert!(matches!(vals.last().unwrap(), Value::List(_)));
    }

    #[test]
    fn arithmetic_promotes_to_double() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Double(0.5)).unwrap(), Value::Double(2.5));
        assert_eq!(Value::Double(1.0).div(&Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(Value::Null.mul(&Value::Int(2)).unwrap(), Value::Null);
    }

    #[test]
    fn byte_size_accounts_contents() {
        assert_eq!(Value::Int(1).byte_size(), 8);
        assert_eq!(Value::str("abc").byte_size(), 7);
        let l = Value::list(vec![Value::Int(1), Value::Bool(true)]);
        assert_eq!(l.byte_size(), 4 + 8 + 1);
    }

    #[test]
    fn type_unification() {
        assert_eq!(DataType::Int.unify(DataType::Double), Some(DataType::Double));
        assert_eq!(DataType::Null.unify(DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::Bool.unify(DataType::Int), None);
        assert!(DataType::Int.coercible_to(DataType::Double));
        assert!(!DataType::Double.coercible_to(DataType::Int));
        assert!(DataType::Null.coercible_to(DataType::Str));
    }

    #[test]
    fn parse_java_style_names() {
        assert_eq!(DataType::parse("Integer"), Some(DataType::Int));
        assert_eq!(DataType::parse("Double"), Some(DataType::Double));
        assert_eq!(DataType::parse("String"), Some(DataType::Str));
        assert_eq!(DataType::parse("widget"), None);
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::list(vec![Value::Int(1), Value::Int(2)]).to_string(), "[1, 2]");
    }
}
