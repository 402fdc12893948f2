//! Minimal serde-compatible shim, serialisation only.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a Value-based serialization core: `Serialize` lowers to a JSON-like
//! [`Value`] tree and the companion `serde_json` shim renders the tree as
//! JSON text. Nothing in the workspace reads a typed value back, so the
//! shim has no deserialising half. The derive macro (re-exported from the
//! `serde_derive` shim) generates externally tagged enum representations,
//! matching real serde_json defaults for the types this workspace derives
//! (no `#[serde(...)]` attributes anywhere).

pub use serde_derive::Serialize;

/// A JSON-shaped value tree. Integers keep signed/unsigned fidelity so
/// `u64::MAX` round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object (the wire format never relies on key
    /// order, but keeping it makes output deterministic).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Types convertible to a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

// ---------------------------------------------------------------------------
// Primitive and std impls
// ---------------------------------------------------------------------------

macro_rules! unsigned_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! signed_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}

unsigned_impls!(u8, u16, u32, u64, usize);
signed_impls!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_value(&self) -> Value {
        match self {
            Ok(x) => Value::Object(vec![("Ok".to_string(), x.to_value())]),
            Err(e) => Value::Object(vec![("Err".to_string(), e.to_value())]),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::U64(self.as_secs())),
            ("nanos".to_string(), Value::U64(u64::from(self.subsec_nanos()))),
        ])
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
