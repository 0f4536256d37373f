//! Typed values and the engine's scalar type system.
//!
//! Values have a total order (`NULL` sorts lowest, then by type tag, then by
//! payload) so they can serve as B-tree index keys directly.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{DbError, DbResult};

/// Column data types supported by the engine.
///
/// `Datalink` is carried as a distinct tag (backed by text/URL payloads) so
/// the host database's datalink engine can recognise datalink columns in a
/// schema; the storage engine itself treats it exactly like `Varchar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    BigInt,
    /// 32-bit signed integer (stored as i64 internally).
    Integer,
    /// Variable-length UTF-8 string.
    Varchar,
    /// Boolean.
    Boolean,
    /// Microseconds since the UNIX epoch.
    Timestamp,
    /// Arbitrary bytes.
    Blob,
    /// DATALINK column (URL payload); storage-compatible with Varchar.
    Datalink,
}

impl DataType {
    /// Whether a value of type `other` can be stored in a column of `self`
    /// without an explicit cast.
    pub fn accepts(self, other: DataType) -> bool {
        if self == other {
            return true;
        }
        matches!(
            (self, other),
            (DataType::BigInt, DataType::Integer)
                | (DataType::Integer, DataType::BigInt)
                | (DataType::Timestamp, DataType::BigInt)
                | (DataType::Timestamp, DataType::Integer)
                | (DataType::BigInt, DataType::Timestamp)
                | (DataType::Varchar, DataType::Datalink)
                | (DataType::Datalink, DataType::Varchar)
        )
    }

    /// SQL keyword spelling, as produced by the parser.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::BigInt => "BIGINT",
            DataType::Integer => "INTEGER",
            DataType::Varchar => "VARCHAR",
            DataType::Boolean => "BOOLEAN",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Blob => "BLOB",
            DataType::Datalink => "DATALINK",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A scalar value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer payload, used by `BigInt`, `Integer`, and `Timestamp` columns.
    Int(i64),
    /// String payload, used by `Varchar` and `Datalink` columns.
    Str(String),
    /// Boolean payload.
    Bool(bool),
    /// Byte payload for `Blob` columns.
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value, if it has one (NULL has none).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::BigInt),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Bool(_) => Some(DataType::Boolean),
            Value::Bytes(_) => Some(DataType::Blob),
        }
    }

    /// Whether this value may be stored in a column of type `ty`.
    pub fn fits(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true, // NULL fits everywhere; NOT NULL is checked separately
            Some(dt) => ty.accepts(dt),
        }
    }

    /// Extract an integer, failing with a type error otherwise.
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(DbError::Type(format!("expected integer, found {other}"))),
        }
    }

    /// Extract a string slice, failing with a type error otherwise.
    pub fn as_str(&self) -> DbResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DbError::Type(format!("expected string, found {other}"))),
        }
    }

    /// Extract a byte slice, failing with a type error otherwise.
    pub fn as_bytes(&self) -> DbResult<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(DbError::Type(format!("expected bytes, found {other}"))),
        }
    }

    /// Rank used to order values of different runtime types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Str(_) => 3,
            Value::Bytes(_) => 4,
        }
    }

    /// SQL three-valued-logic comparison: returns `None` when either side is
    /// NULL (the predicate is then *unknown* and filters the row out).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Bytes(b) => write!(f, "X'{}'", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
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
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

/// A row is a vector of values positionally matching the table schema.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_lowest() {
        let mut vals = [Value::Int(1), Value::Null, Value::str("a"), Value::Bool(true)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn type_acceptance() {
        assert!(DataType::BigInt.accepts(DataType::Integer));
        assert!(DataType::Timestamp.accepts(DataType::BigInt));
        assert!(DataType::Datalink.accepts(DataType::Varchar));
        assert!(!DataType::Varchar.accepts(DataType::BigInt));
        assert!(Value::Int(3).fits(DataType::Timestamp));
        assert!(Value::Null.fits(DataType::Blob));
        assert!(!Value::str("x").fits(DataType::BigInt));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::str("hi").as_str().unwrap(), "hi");
        assert!(Value::str("hi").as_int().is_err());
        assert_eq!(Value::Bytes(vec![1, 2]).as_bytes().unwrap(), &[1, 2]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("f1").to_string(), "'f1'");
        assert_eq!(Value::Bytes(vec![0xab]).to_string(), "X'ab'");
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("file10") > Value::str("file1"));
        assert!(Value::str("a") < Value::str("b"));
    }
}
