//! FD repairs: per violating LHS group, pick the right-hand side by
//! weighted in-group frequency, breaking ties by the value's count in the
//! whole table.

use std::collections::{BTreeMap, HashMap};

use cleanm_core::calculus::desugar::ROWID_FIELD;
use cleanm_core::engine::{Fix, RepairSection};
use cleanm_core::lang::Expr;
use cleanm_values::Value;

use crate::column_of;

/// How often each value of `column` occurs in the table's `rows`: exact,
/// so a repair plan does not depend on how the rows were partitioned.
fn column_counts<'r>(rows: &'r [Value], column: &str) -> HashMap<&'r Value, u64> {
    let mut counts = HashMap::new();
    for v in rows.iter().filter_map(|r| r.field(column).ok()) {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
}

/// Plan FD repairs from the op's violating-group output (`{key, partition}`
/// records with full member rows) over `table`, the clause's `rhs` naming
/// the columns to rewrite.
///
/// Per group and repairable RHS column: the winner is the most frequent
/// member value (weighted frequency within the group), ties broken by the
/// value's count in the column over the table's `rows`, then by the
/// canonical value order. One [`Fix`] is emitted per member cell differing
/// from the winner, with `confidence = winner_count / group_size`. A
/// derived component (e.g. `prefix(t.phone)`) cannot be inverted into a
/// cell assignment, so such groups are counted as unrepaired rather than
/// half-fixed (repairing only the plain columns could leave the group
/// violating).
pub(crate) fn plan(table: &str, rhs: &[Expr], output: &[Value], rows: &[Value]) -> RepairSection {
    let mut section = RepairSection::default();
    let Some(columns) = rhs.iter().map(column_of).collect::<Option<Vec<_>>>() else {
        section.unrepaired = output.len();
        return section;
    };
    let globals: Vec<_> = columns.iter().map(|c| column_counts(rows, c)).collect();
    for group in output {
        let Ok(members) = group.field("partition").and_then(|p| p.as_list()) else {
            section.unrepaired += 1;
            continue;
        };
        if members.is_empty() {
            continue;
        }
        for (column, global) in columns.iter().zip(&globals) {
            // Weighted in-group frequency per candidate value.
            let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
            for m in members {
                if let Ok(v) = m.field(column) {
                    *counts.entry(v).or_insert(0) += 1;
                }
            }
            let mut best: Option<(&Value, usize, u64)> = None;
            for (v, n) in counts {
                let g = global.get(v).copied().unwrap_or(0);
                // Count desc, table-wide count desc; the BTreeMap
                // order resolves remaining ties toward the smaller value.
                let better = match best {
                    None => true,
                    Some((_, bn, bg)) => n > bn || (n == bn && g > bg),
                };
                if better {
                    best = Some((v, n, g));
                }
            }
            let Some((winner, winner_count, _)) = best else {
                continue;
            };
            let winner = winner.clone();
            let confidence = winner_count as f64 / members.len() as f64;
            for m in members {
                let (Ok(current), Ok(rowid)) = (
                    m.field(column),
                    m.field(ROWID_FIELD).and_then(|r| r.as_int()),
                ) else {
                    continue;
                };
                if *current != winner {
                    section.fixes.push(Fix {
                        table: table.to_string(),
                        column: column.clone(),
                        row_id: rowid,
                        original: current.clone(),
                        repaired: winner.clone(),
                        confidence,
                        rule: "fd".to_string(),
                    });
                }
            }
        }
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_core::engine::CleanDb;
    use cleanm_core::lang::{parse_query, CleanOp};
    use cleanm_core::physical::EngineProfile;
    use cleanm_values::{DataType, Row, Schema, Table};

    fn db_with(rows: Vec<(&str, i64)>) -> CleanDb {
        let schema = Schema::of([("addr", DataType::Str), ("nation", DataType::Int)]);
        let table = Table::new(
            schema,
            rows.into_iter()
                .map(|(a, n)| Row::new(vec![Value::str(a), Value::Int(n)]))
                .collect(),
        );
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("t", table);
        db
    }

    /// The right-hand side of the statement's one FD clause.
    fn rhs_of(sql: &str) -> Vec<Expr> {
        match parse_query(sql).unwrap().clean_ops.remove(0) {
            CleanOp::Fd { rhs, .. } => rhs,
            other => panic!("not an FD: {other:?}"),
        }
    }

    #[test]
    fn in_group_majority_wins_with_confidence() {
        let sql = "SELECT * FROM t x FD(x.addr, x.nation)";
        let mut db = db_with(vec![("a", 1), ("a", 1), ("a", 2), ("b", 7)]);
        let report = db.run(sql).unwrap();
        let rhs = rhs_of(sql);
        let output = report.op_output("FD#0").unwrap();
        assert_eq!(output.len(), 1, "one violating group (addr = a)");
        let section = plan("t", &rhs, output, &[]);
        assert_eq!(section.fixes.len(), 1);
        let fix = &section.fixes[0];
        assert_eq!(fix.column, "nation");
        assert_eq!(fix.row_id, 2);
        assert_eq!(fix.original, Value::Int(2));
        assert_eq!(fix.repaired, Value::Int(1));
        assert!((fix.confidence - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(fix.rule, "fd");
    }

    #[test]
    fn ties_break_with_the_table_mode() {
        let sql = "SELECT * FROM t x FD(x.addr, x.nation)";
        // Group "a" ties 1-vs-2; globally nation=2 dominates via "b" rows —
        // alone, and among 20 more rows of distinct nations.
        let tie = vec![("a", 1), ("a", 2), ("b", 2), ("c", 2), ("d", 2)];
        let addrs: Vec<String> = (0..20).map(|i| format!("e{i}")).collect();
        let distinct = addrs.iter().zip(100..).map(|(a, n)| (a.as_str(), n));
        let many = tie.iter().copied().chain(distinct).collect();
        for rows in [tie, many] {
            let mut db = db_with(rows);
            let report = db.run(sql).unwrap();
            let rhs = rhs_of(sql);
            let output = report.op_output("FD#0").unwrap().to_vec();
            let section = plan("t", &rhs, &output, &db.table_rows("t").unwrap());
            assert_eq!(section.fixes.len(), 1);
            assert_eq!(
                section.fixes[0].repaired,
                Value::Int(2),
                "global mode wins the tie"
            );
            assert_eq!(section.fixes[0].row_id, 0);
            // Without the table's rows the tie falls to the smaller value.
            let section = plan("t", &rhs, &output, &[]);
            assert_eq!(section.fixes[0].repaired, Value::Int(1));
        }
    }

    #[test]
    fn derived_rhs_counts_as_unrepaired() {
        let sql = "SELECT * FROM t x FD(x.nation, prefix(x.addr))";
        let mut db = db_with(vec![("abc", 100), ("xyz", 100)]);
        let report = db.run(sql).unwrap();
        let rhs = rhs_of(sql);
        let output = report.op_output("FD#0").unwrap();
        let section = plan("t", &rhs, output, &[]);
        assert!(section.fixes.is_empty());
        assert_eq!(section.unrepaired, output.len());
    }
}
