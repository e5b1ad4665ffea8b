//! Functional dependency checking (`FD(lhs, rhs)`).

use crate::engine::{CleanDb, CleaningReport, EngineError};

/// A functional dependency check `lhs → rhs` over one table. Sides are
/// CleanM expressions over the alias `t` (e.g. `"t.address"`,
/// `"prefix(t.phone)"`).
#[derive(Debug, Clone)]
pub struct FdCheck {
    pub table: String,
    pub lhs: Vec<String>,
    pub rhs: Vec<String>,
}

impl FdCheck {
    /// `lhs → rhs` with plain column names.
    pub fn columns(table: &str, lhs: &[&str], rhs: &[&str]) -> Self {
        FdCheck {
            table: table.to_string(),
            lhs: lhs.iter().map(|c| format!("t.{c}")).collect(),
            rhs: rhs.iter().map(|c| format!("t.{c}")).collect(),
        }
    }

    /// `lhs → rhs` with raw CleanM expressions over alias `t`.
    pub fn expressions(table: &str, lhs: &[&str], rhs: &[&str]) -> Self {
        FdCheck {
            table: table.to_string(),
            lhs: lhs.iter().map(|s| s.to_string()).collect(),
            rhs: rhs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The CleanM query text for this check.
    pub fn to_sql(&self) -> String {
        format!(
            "SELECT * FROM {} t FD({} | {})",
            self.table,
            self.lhs.join(", "),
            self.rhs.join(", "),
        )
    }

    /// Run the check.
    pub fn run(&self, db: &mut CleanDb) -> Result<CleaningReport, EngineError> {
        db.run(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::EngineProfile;
    use cleanm_values::{DataType, Row, Schema, Table, Value};

    fn table() -> Table {
        let schema = Schema::of([
            ("a", DataType::Str),
            ("b", DataType::Int),
            ("phone", DataType::Str),
        ]);
        Table::new(
            schema,
            vec![
                Row::new(vec![Value::str("x"), Value::Int(1), Value::str("101-1")]),
                Row::new(vec![Value::str("x"), Value::Int(2), Value::str("101-2")]),
                Row::new(vec![Value::str("y"), Value::Int(3), Value::str("103-3")]),
            ],
        )
    }

    #[test]
    fn column_fd_detects_violation() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("t", table());
        let report = FdCheck::columns("t", &["a"], &["b"]).run(&mut db).unwrap();
        assert_eq!(report.violations(), 2);
    }

    #[test]
    fn expression_fd_with_prefix() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("t", table());
        let report = FdCheck::expressions("t", &["t.a"], &["prefix(t.phone)"])
            .run(&mut db)
            .unwrap();
        // Both x-rows share prefix 101: no violation.
        assert_eq!(report.violations(), 0);
    }

    #[test]
    fn sql_rendering() {
        let fd = FdCheck::columns("lineitem", &["orderkey", "linenumber"], &["suppkey"]);
        assert_eq!(
            fd.to_sql(),
            "SELECT * FROM lineitem t FD(t.orderkey, t.linenumber | t.suppkey)"
        );
    }
}
