use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A single attribute value.
///
/// The paper's data model distinguishes *categorical* attributes (compared
/// only for equality; similarity between their values is **mined**, Section 5)
/// from *numeric* attributes (whose similarity is a normalized L1 distance).
/// `Null` represents a missing binding — e.g. an attribute left unbound by a
/// relaxed query or absent from a probed tuple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing / unbound.
    Null,
    /// A categorical value, e.g. `Make = "Ford"`.
    Cat(String),
    /// A numeric value, e.g. `Price = 10000.0`.
    Num(f64),
}

impl Value {
    /// Construct a categorical value from anything string-like.
    pub fn cat(s: impl Into<String>) -> Self {
        Value::Cat(s.into())
    }

    /// Construct a numeric value.
    pub fn num(n: impl Into<f64>) -> Self {
        Value::Num(n.into())
    }

    /// `true` when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Human-readable name of the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Cat(_) => "categorical",
            Value::Num(_) => "numeric",
        }
    }

    /// The categorical payload, if this is a `Cat` value.
    pub fn as_cat(&self) -> Option<&str> {
        match self {
            Value::Cat(s) => Some(s),
            Value::Null | Value::Num(_) => None,
        }
    }

    /// The value as a [`crate::Json`] scalar: `Null` → `null`, `Cat` →
    /// string, `Num` → number. The wire protocol's tuple rendering.
    pub fn to_json(&self) -> crate::Json {
        match self {
            Value::Null => crate::Json::Null,
            Value::Cat(s) => crate::Json::Str(s.clone()),
            Value::Num(n) => crate::Json::Num(*n),
        }
    }

    /// The numeric payload, if this is a `Num` value.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Null | Value::Cat(_) => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Cat(a), Value::Cat(b)) => a == b,
            // Bit-equality on the canonicalized f64 keeps `Eq` lawful while
            // still treating `-0.0 == 0.0` (both canonicalize to `0.0`).
            (Value::Num(a), Value::Num(b)) => canonical_bits(*a) == canonical_bits(*b),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Cat(s) => s.hash(state),
            Value::Num(n) => canonical_bits(*n).hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used only for deterministic output (sorted tables,
    /// reproducible tie-breaking): `Null < Num < Cat`, numerics by total
    /// order of their canonical bits, categoricals lexicographically.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Num(_) => 1,
                Value::Cat(_) => 2,
            }
        }
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.total_cmp(b),
            (Value::Cat(a), Value::Cat(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "∅"),
            Value::Cat(s) => write!(f, "{s}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

/// Canonicalize an `f64` for hashing/equality: collapse `-0.0` into `0.0`
/// and all NaN payloads into one bit pattern.
pub(crate) fn canonical_bits(n: f64) -> u64 {
    if n == 0.0 {
        0u64
    } else if n.is_nan() {
        f64::NAN.to_bits()
    } else {
        n.to_bits()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Cat(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Cat(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Num(f64::from(n))
    }
}

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
    fn constructors_and_accessors() {
        let c = Value::cat("Camry");
        assert_eq!(c.as_cat(), Some("Camry"));
        assert_eq!(c.as_num(), None);
        assert_eq!(c.type_name(), "categorical");

        let n = Value::num(10000.0);
        assert_eq!(n.as_num(), Some(10000.0));
        assert_eq!(n.as_cat(), None);
        assert!(!n.is_null());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn equality_is_type_aware() {
        assert_eq!(Value::cat("Ford"), Value::cat("Ford"));
        assert_ne!(Value::cat("Ford"), Value::cat("Honda"));
        assert_ne!(Value::cat("10000"), Value::num(10000.0));
        assert_eq!(Value::num(1.5), Value::num(1.5));
        assert_ne!(Value::num(1.5), Value::num(1.6));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn negative_zero_equals_zero_and_hashes_alike() {
        assert_eq!(Value::num(0.0), Value::num(-0.0));
        assert_eq!(hash_of(&Value::num(0.0)), hash_of(&Value::num(-0.0)));
    }

    #[test]
    fn nan_is_self_equal_under_canonicalization() {
        // We need Value to be usable as a HashMap key, so NaN == NaN here
        // (unlike raw f64). Relations never store NaN, but the model must
        // not panic or misbehave if one sneaks in.
        assert_eq!(Value::num(f64::NAN), Value::num(f64::NAN));
        assert_eq!(
            hash_of(&Value::num(f64::NAN)),
            hash_of(&Value::num(f64::NAN))
        );
    }

    #[test]
    fn ordering_is_total_and_deterministic() {
        let mut vs = vec![
            Value::cat("Zed"),
            Value::num(3.0),
            Value::Null,
            Value::cat("Alpha"),
            Value::num(-1.0),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::num(-1.0),
                Value::num(3.0),
                Value::cat("Alpha"),
                Value::cat("Zed"),
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::cat("Ford").to_string(), "Ford");
        assert_eq!(Value::num(2002.0).to_string(), "2002");
        assert_eq!(Value::num(2.5).to_string(), "2.5");
        assert_eq!(Value::Null.to_string(), "∅");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("x"), Value::cat("x"));
        assert_eq!(Value::from(3i64), Value::num(3.0));
        assert_eq!(Value::from(3u32), Value::num(3.0));
        assert_eq!(Value::from(3.5f64), Value::num(3.5));
    }
}
