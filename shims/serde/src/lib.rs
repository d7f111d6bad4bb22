//! Offline stand-in for the `serde` crate.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim uses a
//! concrete [`Value`] tree as the data model: `Serialize` renders a value
//! into a `Value`. Formats (here only `serde_json`) print a `Value` as text
//! and parse text back into a `Value`; nothing rebuilds a typed value from
//! one. The `Serialize` derive is re-exported from `serde_derive` and
//! generates code against this model.

#![forbid(unsafe_code)]

pub use serde_derive::Serialize;

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

/// Types renderable into the [`Value`] data model.
pub trait Serialize {
    /// Renders `self` as a [`Value`] tree.
    fn serialize(&self) -> Value;
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

serialize_unsigned!(u8, u32, u64, usize);

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

serialize_signed!(i32, i64);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
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
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize_to_their_value() {
        assert_eq!(42u64.serialize(), Value::U64(42));
        assert_eq!(7usize.serialize(), Value::U64(7));
        assert_eq!(5i32.serialize(), Value::U64(5));
        assert_eq!((-1i64).serialize(), Value::I64(-1));
        assert_eq!(1.5f64.serialize(), Value::F64(1.5));
        assert_eq!(true.serialize(), Value::Bool(true));
        assert_eq!("x".serialize(), Value::Str("x".into()));
        assert_eq!(None::<u64>.serialize(), Value::Null);
        let pair = ("x".to_string(), 2.5f64).serialize();
        assert_eq!(
            pair,
            Value::Array(vec![Value::Str("x".into()), Value::F64(2.5)])
        );
        assert_eq!(pair.serialize(), pair);
    }
}
