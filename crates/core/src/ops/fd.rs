//! Functional dependency checking (`FD(lhs, rhs)`).

use crate::algebra::plan::Alg;
use crate::calculus::{BinOp, CalcExpr, Func, MonoidKind, Qual};
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

/// The recognized physical shape of a lowered FD operator — everything an
/// incremental maintainer needs to keep per-group state: evaluate
/// `filters`, group rows by `key`, track the distinct `rhs` values per
/// group, and report groups with more than one.
///
/// ```text
/// Reduce[Bag]{ g |
///   Select{ count_distinct(bag{ rhs(x) | x ← g.partition }) > 1,
///     Nest[exact]{ key(d) → d, Select*{ filters, Scan table d } } } }
/// ```
#[derive(Debug, Clone)]
pub struct FdPlanShape {
    pub table: String,
    /// Row variable the scan binds (`key` and `filters` are over it).
    pub scan_var: String,
    /// WHERE predicates pushed into the grouping input (outermost first).
    pub filters: Vec<CalcExpr>,
    /// The (possibly composite) left-hand-side grouping key.
    pub key: CalcExpr,
    /// Partition-member variable the right-hand side is evaluated over.
    pub member_var: String,
    /// The (possibly composite/derived) right-hand-side expression.
    pub rhs: CalcExpr,
}

impl FdPlanShape {
    /// Recognize a lowered FD plan; `None` means the plan does not have
    /// the maintainable shape (callers fall back to full re-runs).
    pub fn from_plan(plan: &Alg) -> Option<FdPlanShape> {
        let Alg::Reduce {
            input,
            monoid: MonoidKind::Bag,
            head: CalcExpr::Var(out_var),
        } = plan
        else {
            return None;
        };
        let Alg::Select { input, pred } = &**input else {
            return None;
        };
        let Alg::Nest {
            input,
            key,
            item: CalcExpr::Var(item_var),
            group_var,
            ..
        } = &**input
        else {
            return None;
        };
        if out_var != group_var {
            return None;
        }
        let (table, scan_var, filters) = input.scan_with_filters()?;
        if *item_var != scan_var {
            return None;
        }
        // The violation predicate: count_distinct(bag{rhs | x ← g.partition}) > 1.
        let CalcExpr::BinOp(BinOp::Gt, lhs, one) = pred else {
            return None;
        };
        if !matches!(&**one, CalcExpr::Const(v) if v == &cleanm_values::Value::Int(1)) {
            return None;
        }
        let CalcExpr::Call(Func::CountDistinct, args) = &**lhs else {
            return None;
        };
        let [CalcExpr::Comp(comp)] = args.as_slice() else {
            return None;
        };
        if !matches!(comp.monoid, MonoidKind::Bag) {
            return None;
        }
        let [Qual::Gen(member_var, source)] = comp.quals.as_slice() else {
            return None;
        };
        match source {
            CalcExpr::Proj(base, field)
                if field == "partition"
                    && matches!(&**base, CalcExpr::Var(v) if v == group_var) => {}
            _ => return None,
        }
        Some(FdPlanShape {
            table,
            scan_var,
            filters,
            key: key.clone(),
            member_var: member_var.clone(),
            rhs: (*comp.head).clone(),
        })
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

    #[test]
    fn fd_plan_shape_round_trips_through_the_pipeline() {
        use crate::algebra::lower_op;
        use crate::calculus::{desugar_query, normalize};
        use crate::lang::parse_query;
        let q =
            parse_query("SELECT * FROM t x WHERE x.b > 0 FD(x.a, prefix(x.phone) | x.b, x.phone)")
                .unwrap();
        let dq = desugar_query(&q, 1).unwrap();
        let (comp, _) = normalize(&dq.ops[0].comp);
        let plan = lower_op(&comp).unwrap();
        let shape = FdPlanShape::from_plan(&plan).expect("FD shape recognized");
        assert_eq!(shape.table, "t");
        assert_eq!(shape.filters.len(), 1);
        assert!(shape.key.to_string().contains("Prefix"));
        assert!(shape.rhs.to_string().contains("phone"));
    }
}
