//! Offline stand-in for the `serde` crate.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim uses a
//! concrete [`Value`] tree as the data model: `Serialize` renders a value
//! into a `Value`, `Deserialize` rebuilds it from one (implemented only
//! for what the workspace reads back). Formats (here only
//! `serde_json`) convert between `Value` and text. The derive macros are
//! re-exported from `serde_derive` and generate code against this model.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serializable type maps to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / a missing optional.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map with string keys (field order preserved).
    Object(Vec<(String, Value)>),
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// An error with a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }

    /// The value had the wrong variant for `expected`.
    pub fn invalid_type(expected: &str, got: &Value) -> Self {
        DeError::custom(format!(
            "invalid type: expected {expected}, got {}",
            kind_name(got)
        ))
    }

    /// An enum tag did not name any known variant.
    pub fn unknown_variant(enum_name: &str, tag: &str) -> Self {
        DeError::custom(format!("unknown variant `{tag}` for enum {enum_name}"))
    }

    /// A required struct field was absent.
    pub fn missing_field(struct_name: &str, field: &str) -> Self {
        DeError::custom(format!("missing field `{field}` in {struct_name}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::U64(_) | Value::I64(_) => "integer",
        Value::F64(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Types renderable into the [`Value`] data model.
pub trait Serialize {
    /// Renders `self` as a [`Value`] tree.
    fn serialize(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn deserialize(value: &Value) -> Result<Self, DeError>;
}

// ---- helpers used by derive-generated code ------------------------------

/// Extracts the field list of an object value (derive helper).
pub fn expect_object<'v>(value: &'v Value, what: &str) -> Result<&'v [(String, Value)], DeError> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(DeError::invalid_type(what, other)),
    }
}

/// Looks up a struct field by name (derive helper).
pub fn field<'v>(
    fields: &'v [(String, Value)],
    struct_name: &str,
    name: &str,
) -> Result<&'v Value, DeError> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::missing_field(struct_name, name))
}

// ---- primitive impls -----------------------------------------------------

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

serialize_unsigned!(u8, u16, u32, u64, usize);

// `Deserialize` covers exactly what the workspace reads back: the field
// types of its derived configurations (`u64`, `usize`, `f64`) and `Value`.
macro_rules! deserialize_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, DeError> {
                let n = match *value {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                        f as u64
                    }
                    ref other => return Err(DeError::invalid_type("unsigned integer", other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::custom(format!("integer {n} out of range")))
            }
        }
    )*};
}

deserialize_unsigned!(u64, usize);

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
    )*};
}

serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        match *value {
            Value::F64(f) => Ok(f),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            ref other => Err(DeError::invalid_type("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
        }
    )*};
}

serialize_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::deserialize(&42u64.serialize()).unwrap(), 42);
        assert_eq!(usize::deserialize(&7usize.serialize()).unwrap(), 7);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert_eq!(f64::deserialize(&Value::U64(2)).unwrap(), 2.0);
        let pair = ("x".to_string(), 2.5f64).serialize();
        assert_eq!(Value::deserialize(&pair).unwrap(), pair);
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(u64::deserialize(&Value::Str("no".into())).is_err());
        assert!(u64::deserialize(&Value::I64(-1)).is_err());
        assert!(usize::deserialize(&Value::F64(0.5)).is_err());
        assert!(f64::deserialize(&Value::Bool(true)).is_err());
    }
}
