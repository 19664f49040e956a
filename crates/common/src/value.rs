//! SQL values and rows.
//!
//! The storage engine is schema-checked but dynamically typed at this layer:
//! a [`Row`] is a slice of [`Value`]s positionally matching the table's
//! column list.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single SQL value.
///
/// `Float` is kept out of key positions by the planner; for ordering purposes
/// it uses a total order (`f64::total_cmp`) so that `Value` can implement
/// `Ord` and be used in sorted containers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Returns `true` if the value is SQL NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts an integer, if this value is one.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extracts a float; integers widen to float.
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extracts text, if this value is text.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's runtime type, used in error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
        }
    }

    /// Rank used to order values of different types relative to each other
    /// (NULL < numbers < text), mirroring a fixed cross-type sort order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_cmp_float(*a, *b),
            (Float(a), Int(b)) => int_cmp_float(*b, *a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Orders an integer against a float by their exact values, with `-0.0`
/// just below `Int(0)` and NaN where [`f64::total_cmp`] puts it.
///
/// Within ±2^53 the integer converts to `f64` exactly and `total_cmp`
/// decides. Beyond that the conversion rounds, so `as f64` would make
/// `Int(2^53 + 1)` equal `Float(2^53)` while `Int(2^53)` equals it too.
/// There a finite float is compared by its integer part, in `i128` so no
/// `i64` ties with a saturated one: a float that large is an integer, and
/// a smaller one's fraction cannot change its order against such an `i`.
fn int_cmp_float(i: i64, f: f64) -> Ordering {
    if i.unsigned_abs() <= 1 << f64::MANTISSA_DIGITS || !f.is_finite() {
        (i as f64).total_cmp(&f)
    } else {
        i128::from(i).cmp(&(f as i128))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and floats identically when they compare equal:
            // an int equals only the float it converts to exactly, so
            // both hash that float's bits.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A row image: values positionally matching the owning table's columns.
///
/// One allocation, immutable once built, shared by reference count: the
/// writeset that wrote it, the certifier's log record, every replica's
/// version chain and each `SELECT *` result hold the same image. A row is
/// built in this form where it is made -- `Row::from([..])`, or `collect()`
/// from an iterator of known length, which allocates once -- rather than
/// as a `Vec` and converted, which costs a second allocation and a copy.
pub type Row = Arc<[Value]>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn ordering_within_and_across_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Text(String::new()));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
    }

    #[test]
    fn ints_and_floats_compare_exactly_beyond_2_pow_53() {
        let big = 1i64 << 53;
        let f = Value::Float(big as f64);
        assert_eq!(Value::Int(big), f);
        assert!(Value::Int(big + 1) > f);
        assert!(Value::Int(-big - 1) < Value::Float(-(big as f64)));
        assert!(Value::Int(i64::MAX) < Value::Float(9.3e18));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
        assert!(Value::Int(i64::MIN) > Value::Float(-9.3e18));
        assert!(Value::Int(big + 1) > Value::Float(0.5));
        assert!(Value::Int(big + 1) < Value::Float(f64::INFINITY));
        assert!(Value::Int(big + 1) < Value::Float(f64::NAN));
        // Signed zeros and NaN sort where they always did.
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert_eq!(Value::Float(0.0), Value::Int(0));
        assert!(Value::Int(-big - 1) > Value::Float(-f64::NAN));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from(4i32), Value::Int(4));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
    }

    #[test]
    fn sort_is_total_even_with_nan() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Null,
            Value::Int(0),
        ];
        vals.sort(); // must not panic
        assert_eq!(vals[0], Value::Null);
    }
}
