use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::types::Schema;
use crate::value::Value;

/// One record: values positionally matching a [`Schema`].
///
/// Rows deliberately do not carry their schema — the executing plan knows the
/// schema of every intermediate relation, and keeping rows lean matters when
/// millions are shuffled between workers. Values inside are `Arc`-backed, so
/// `Row::clone` is cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from owned values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// The row's values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values (the arity).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the row zero-arity?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Result<&Value> {
        self.values.get(i).ok_or(Error::IndexOutOfBounds {
            index: i,
            len: self.values.len(),
        })
    }

    /// Package the row as a [`Value::Struct`] using the schema's field names
    /// (used when nesting rows inside group values). Field names go through
    /// the process-wide intern table so repeated conversion of a table's
    /// rows shares one allocation per column name.
    pub fn to_struct(&self, schema: &Schema) -> Value {
        let names = crate::intern::intern_all(schema.fields().iter().map(|f| f.name.as_str()));
        Value::Struct(names.into_iter().zip(self.values.iter().cloned()).collect())
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// A schema plus its rows: the unit a reader produces and the engine
/// registers as a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The relation's schema.
    pub schema: Schema,
    /// The rows, positionally matching [`Table::schema`].
    pub rows: Vec<Row>,
}

impl Table {
    /// Pair a schema with its rows (no validation; see [`Table::validate`]).
    pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
        Table { schema, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Does the table hold no rows?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Check every row against the schema: arity and types.
    pub fn validate(&self) -> Result<()> {
        for (ri, row) in self.rows.iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(Error::Invalid(format!(
                    "row {ri} has {} values, schema has {} fields",
                    row.len(),
                    self.schema.len()
                )));
            }
            for (field, value) in self.schema.fields().iter().zip(row.values()) {
                if !field.dtype.admits(value) {
                    return Err(Error::Invalid(format!(
                        "row {ri}: value `{value}` does not inhabit {} (field `{}`)",
                        field.dtype, field.name
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> Schema {
        Schema::of([("id", DataType::Int), ("name", DataType::Str)])
    }

    #[test]
    fn get_and_bounds() {
        let r = Row::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(r.get(0).unwrap(), &Value::Int(1));
        assert!(matches!(
            r.get(5),
            Err(Error::IndexOutOfBounds { index: 5, len: 2 })
        ));
    }

    #[test]
    fn to_struct_uses_field_names() {
        let r = Row::new(vec![Value::Int(7), Value::str("bob")]);
        let s = r.to_struct(&schema());
        assert_eq!(s.field("name").unwrap(), &Value::str("bob"));
    }

    #[test]
    fn table_validate_catches_arity_and_type() {
        let ok = Table::new(
            schema(),
            vec![Row::new(vec![Value::Int(1), Value::str("a")])],
        );
        ok.validate().unwrap();

        let bad_arity = Table::new(schema(), vec![Row::new(vec![Value::Int(1)])]);
        assert!(bad_arity.validate().is_err());

        let bad_type = Table::new(
            schema(),
            vec![Row::new(vec![Value::str("x"), Value::str("a")])],
        );
        assert!(bad_type.validate().is_err());
    }

    #[test]
    fn display() {
        let r = Row::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(r.to_string(), "[1, a]");
    }
}
