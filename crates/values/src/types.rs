use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// Logical type of a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Homogeneous list with the given element type.
    List(Box<DataType>),
    /// Nested record with named fields.
    Struct(Vec<Field>),
}

impl DataType {
    /// Does `value` inhabit this type? `Null` inhabits every type (types are
    /// nullable, as in SQL).
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true,
            (DataType::Bool, Value::Bool(_)) => true,
            (DataType::Int, Value::Int(_)) => true,
            (DataType::Float, Value::Float(_) | Value::Int(_)) => true,
            (DataType::Str, Value::Str(_)) => true,
            (DataType::List(elem), Value::List(items)) => items.iter().all(|v| elem.admits(v)),
            (DataType::Struct(fields), Value::Struct(vals)) => {
                fields.len() == vals.len()
                    && fields
                        .iter()
                        .zip(vals.iter())
                        .all(|(f, (n, v))| f.name == n.as_ref() && f.dtype.admits(v))
            }
            _ => false,
        }
    }

    /// Parse textual data (CSV cell) into this type. Empty strings become
    /// `Null` for non-string types.
    pub fn parse(&self, text: &str) -> Result<Value> {
        match self {
            DataType::Str => Ok(Value::str(text)),
            _ if text.is_empty() => Ok(Value::Null),
            DataType::Bool => match text {
                "true" | "TRUE" | "1" => Ok(Value::Bool(true)),
                "false" | "FALSE" | "0" => Ok(Value::Bool(false)),
                other => Err(Error::Parse(format!("`{other}` is not a bool"))),
            },
            DataType::Int => text
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| Error::Parse(format!("`{text}` is not an int: {e}"))),
            DataType::Float => text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| Error::Parse(format!("`{text}` is not a float: {e}"))),
            DataType::List(_) | DataType::Struct(_) => Err(Error::Parse(format!(
                "cannot parse nested type {self} from flat text"
            ))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "bool"),
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Str => write!(f, "string"),
            DataType::List(e) => write!(f, "list<{e}>"),
            DataType::Struct(fields) => {
                write!(f, "struct<")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}: {}", field.name, field.dtype)?;
                }
                write!(f, ">")
            }
        }
    }
}

/// One named, typed column or struct member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// The column's logical type.
    pub dtype: DataType,
}

impl Field {
    /// Build a named, typed field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// A relation schema: an ordered list of uniquely named fields.
///
/// Schemas are `Arc`-shared between rows, plans, and readers, so cloning a
/// `Schema` handle is cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Build a schema, checking field-name uniqueness.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(Error::InvalidSchema(format!(
                    "duplicate field name `{}`",
                    f.name
                )));
            }
        }
        Ok(Schema {
            fields: fields.into(),
        })
    }

    /// Shorthand for building a schema from `(name, type)` pairs; panics on
    /// duplicates — intended for statically known schemas in tests/examples.
    pub fn of(pairs: impl IntoIterator<Item = (&'static str, DataType)>) -> Self {
        Schema::new(pairs.into_iter().map(|(n, t)| Field::new(n, t)).collect())
            .expect("static schema must be valid")
    }

    /// The fields, in schema order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Does the schema have no fields?
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::UnknownField(name.to_string()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
        assert!(matches!(err, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::of([("x", DataType::Int), ("y", DataType::Str)]);
        assert_eq!(s.index_of("y").unwrap(), 1);
        assert!(s.index_of("z").is_err());
        assert_eq!(s.field("x").unwrap().dtype, DataType::Int);
    }

    #[test]
    fn parse_by_type() {
        assert_eq!(DataType::Int.parse("42").unwrap(), Value::Int(42));
        assert_eq!(DataType::Float.parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(DataType::Str.parse("").unwrap(), Value::str(""));
        assert_eq!(DataType::Int.parse("").unwrap(), Value::Null);
        assert!(DataType::Int.parse("x").is_err());
        assert_eq!(DataType::Bool.parse("true").unwrap(), Value::Bool(true));
    }

    #[test]
    fn admits_checks_nesting() {
        let t = DataType::List(Box::new(DataType::Int));
        assert!(t.admits(&Value::list([Value::Int(1), Value::Null])));
        assert!(!t.admits(&Value::list([Value::str("x")])));
        assert!(t.admits(&Value::Null));

        let s = DataType::Struct(vec![Field::new("a", DataType::Int)]);
        assert!(s.admits(&Value::record([("a", Value::Int(1))])));
        assert!(!s.admits(&Value::record([("b", Value::Int(1))])));
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::of([
            ("id", DataType::Int),
            ("tags", DataType::List(Box::new(DataType::Str))),
        ]);
        assert_eq!(s.to_string(), "(id: int, tags: list<string>)");
    }
}
