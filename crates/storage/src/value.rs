//! Dynamically typed SQL values.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A SQL value.
///
/// `Value` implements a *total* `Ord`/`Eq`/`Hash` so rows can serve as keys
/// in hash and tree maps and relations can be put into a canonical physical
/// order (`NULL` sorts first, then by type rank, then by value; doubles
/// compare by IEEE total order). SQL's three-valued comparison semantics is
/// *not* this order — it lives in [`Value::sql_eq`] / [`Value::sql_cmp`] and
/// is what expression evaluation uses.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Booleans.
    Bool(bool),
    /// 64-bit integers (also used for period endpoints).
    Int(i64),
    /// 64-bit floats.
    Double(f64),
    /// Strings (reference-counted: rows are cloned heavily during joins).
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric content as `f64` (ints widen), if numeric.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// The string content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL equality: `NULL = anything` is unknown (`None`); numeric types
    /// compare numerically across `Int`/`Double`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison: `None` when either side is NULL, the types are
    /// incomparable, or a NaN is involved; `Int` and `Double` compare
    /// numerically — *exactly*, even beyond 2^53 (see `cmp_int_double`).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Int(a), Double(b)) => cmp_int_double(*a, *b),
            (Double(a), Int(b)) => cmp_int_double(*b, *a).map(Ordering::reverse),
            (Double(a), Double(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
        }
    }
}

/// Exact comparison of an `i64` against an `f64`.
///
/// Widening the int with `as f64` is lossy above 2^53 — e.g.
/// `9007199254740993 as f64 == 9007199254740992.0`, so the two would
/// compare `Equal` while differing by one. Instead the double is split:
/// any finite double in `[-2^63, 2^63)` has an integral part that
/// converts to `i64` exactly (doubles that large carry no fractional
/// bits, smaller ones truncate losslessly), the ints compare exactly,
/// and the fractional part breaks integer ties. Doubles outside the
/// `i64` range (±2^63 is itself exactly representable) win on magnitude,
/// which also covers ±inf. `None` only for NaN.
fn cmp_int_double(a: i64, b: f64) -> Option<Ordering> {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return None;
    }
    if b >= TWO_POW_63 {
        return Some(Ordering::Less);
    }
    if b < -TWO_POW_63 {
        return Some(Ordering::Greater);
    }
    let int_part = b.trunc() as i64; // exact: trunc(b) ∈ [-2^63, 2^63)
    Some(match a.cmp(&int_part) {
        Ordering::Equal => {
            // b = int_part + fract(b), computed exactly for |b| < 2^52
            // (bigger doubles are integers with fract = 0).
            let frac = b.fract();
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    })
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
    /// The canonical total order used for sorting relations and grouping:
    /// by type rank, then by value; doubles use IEEE `total_cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Double(d) => d.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_comparison_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Double(2.0)), Some(true));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn int_double_comparison_is_exact_beyond_2_53() {
        // 2^53 + 1 is the first integer `as f64` cannot represent: the
        // old widening comparison called it Equal to 2^53.
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        let rounded = 9_007_199_254_740_992.0f64; // 2^53
        assert_eq!(
            Value::Int(big).sql_cmp(&Value::Double(rounded)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(big).sql_eq(&Value::Double(rounded)), Some(false));
        assert_eq!(
            Value::Double(rounded).sql_cmp(&Value::Int(big)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(big - 1).sql_eq(&Value::Double(rounded)),
            Some(true),
            "2^53 itself is exactly representable"
        );
        // Same at the negative boundary.
        assert_eq!(
            Value::Int(-big).sql_cmp(&Value::Double(-rounded)),
            Some(Ordering::Less)
        );
        // i64::MAX vs 2^63: the double rounds *up* out of the i64 range,
        // so it must compare greater, never equal.
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Double(i64::MAX as f64)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_eq(&Value::Double(i64::MIN as f64)),
            Some(true),
            "-2^63 is exactly representable"
        );
    }

    #[test]
    fn int_double_fractions_and_non_finite() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Double(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(-1).sql_cmp(&Value::Double(-1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(0).sql_cmp(&Value::Double(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(0).sql_cmp(&Value::Double(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(0).sql_cmp(&Value::Double(f64::NAN)), None);
        assert_eq!(Value::Double(f64::NAN).sql_cmp(&Value::Int(0)), None);
        assert_eq!(
            Value::Double(f64::NAN).sql_eq(&Value::Double(f64::NAN)),
            None,
            "NaN behaves like NULL in SQL comparisons"
        );
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("a")), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn canonical_order_is_total() {
        let mut vs = vec![
            Value::str("b"),
            Value::Int(3),
            Value::Null,
            Value::Double(1.5),
            Value::Bool(true),
            Value::str("a"),
            Value::Int(-1),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-1),
                Value::Int(3),
                Value::Double(1.5),
                Value::str("a"),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::str("x"));
        set.insert(Value::str("x"));
        set.insert(Value::Int(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn double_total_order_handles_nan() {
        let mut vs = [Value::Double(f64::NAN), Value::Double(1.0)];
        vs.sort();
        assert_eq!(vs[0], Value::Double(1.0));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Int(42).to_string(), "42");
    }
}
