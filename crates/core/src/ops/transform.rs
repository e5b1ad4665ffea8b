//! Syntactic transformations (§8.2, Table 4): splitting dates and filling
//! missing values, either as separate passes or fused into one.
//!
//! The paper's point: each lightweight operation costs ≈1.15× a plain
//! traversal; running them one after another costs the sum (≈2.3×), but the
//! optimizer "applies both operations in one go" — a single pass computing
//! the average quantity once and then rewriting each row — for ≈1.19×.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cleanm_exec::{Dataset, ExecContext};
use cleanm_values::{DataType, Error, Field, Result, Row, Schema, Table, Value};

/// Map a runtime failure (cancellation, deadline, injected fault) into the
/// value-layer error these table-level passes report.
fn exec_err(e: cleanm_exec::ExecError) -> Error {
    Error::Invalid(e.to_string())
}

/// One transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transform {
    /// Replace a `YYYY-MM-DD` string column with year/month/day int columns.
    SplitDate { column: String },
    /// Replace NULLs in a numeric column with the column's average.
    FillMissing { column: String },
}

/// Run the transforms one dataset pass each, or fused into a single pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformMode {
    Separate,
    Fused,
}

/// Outcome: the transformed table plus cost accounting.
#[derive(Debug, Clone)]
pub struct TransformReport {
    pub table: Table,
    /// Full-table passes performed (aggregation pre-passes excluded).
    pub passes: usize,
    pub duration: Duration,
}

/// A plain traversal that projects every attribute — Table 4's baseline
/// ("a traversal of the dataset that projects all its attributes").
pub fn baseline_scan(ctx: &Arc<ExecContext>, table: &Table) -> Duration {
    let start = Instant::now();
    let ds = Dataset::from_vec(ctx, table.rows.clone());
    let projected = ds
        .map(|row| Row::new(row.values().to_vec()))
        .expect("baseline scan runs without faults");
    let n = projected.collect().len();
    assert_eq!(n, table.rows.len());
    start.elapsed()
}

/// Apply `transforms` to `table` under `mode`.
pub fn apply_transforms(
    ctx: &Arc<ExecContext>,
    table: &Table,
    transforms: &[Transform],
    mode: TransformMode,
) -> Result<TransformReport> {
    // Resolve columns and pre-compute the aggregates every FillMissing
    // needs. The average is computed once regardless of mode (the fused
    // plan "computes the average quantity and then performs both … in a
    // single dataset pass").
    let start = Instant::now();
    let mut specs: Vec<ResolvedTransform> = Vec::with_capacity(transforms.len());
    for t in transforms {
        specs.push(resolve(ctx, table, t)?);
    }

    let (out, passes) = match mode {
        TransformMode::Separate => {
            let mut current = table.clone();
            for spec in &specs {
                current = run_pass(ctx, &current, std::slice::from_ref(spec))?;
            }
            (current, specs.len())
        }
        TransformMode::Fused => (run_pass(ctx, table, &specs)?, 1),
    };
    Ok(TransformReport {
        table: out,
        passes,
        duration: start.elapsed(),
    })
}

enum ResolvedTransform {
    SplitDate { index: usize, name: String },
    FillMissing { index: usize, average: f64 },
}

fn resolve(ctx: &Arc<ExecContext>, table: &Table, t: &Transform) -> Result<ResolvedTransform> {
    match t {
        Transform::SplitDate { column } => {
            let index = table.schema.index_of(column)?;
            if table.schema.fields()[index].dtype != DataType::Str {
                return Err(Error::Invalid(format!(
                    "split_date needs a string column, `{column}` is {}",
                    table.schema.fields()[index].dtype
                )));
            }
            Ok(ResolvedTransform::SplitDate {
                index,
                name: column.clone(),
            })
        }
        Transform::FillMissing { column } => {
            let index = table.schema.index_of(column)?;
            // Distributed average: sum/count per partition, merged.
            let ds = Dataset::from_vec(ctx, table.rows.clone());
            let partials: Vec<(f64, u64)> = ds
                .map_partitions(move |rows| {
                    let mut sum = 0.0;
                    let mut n = 0u64;
                    for r in rows {
                        if let Ok(v) = r.get(index) {
                            if !v.is_null() {
                                if let Ok(f) = v.as_float() {
                                    sum += f;
                                    n += 1;
                                }
                            }
                        }
                    }
                    vec![(sum, n)]
                })
                .map_err(exec_err)?
                .collect();
            let (sum, n) = partials
                .into_iter()
                .fold((0.0, 0u64), |(s, c), (ps, pc)| (s + ps, c + pc));
            let average = if n == 0 { 0.0 } else { sum / n as f64 };
            Ok(ResolvedTransform::FillMissing { index, average })
        }
    }
}

/// One full-table pass applying every resolved transform to each row.
fn run_pass(ctx: &Arc<ExecContext>, table: &Table, specs: &[ResolvedTransform]) -> Result<Table> {
    // Output schema: date columns expand into y/m/d ints, in place.
    let mut fields: Vec<Field> = Vec::new();
    for (i, f) in table.schema.fields().iter().enumerate() {
        match specs.iter().find_map(|s| match s {
            ResolvedTransform::SplitDate { index, name } if *index == i => Some(name),
            _ => None,
        }) {
            Some(name) => {
                fields.push(Field::new(format!("{name}_year"), DataType::Int));
                fields.push(Field::new(format!("{name}_month"), DataType::Int));
                fields.push(Field::new(format!("{name}_day"), DataType::Int));
            }
            None => fields.push(f.clone()),
        }
    }
    let schema = Schema::new(fields)?;

    let split_indices: Vec<usize> = specs
        .iter()
        .filter_map(|s| match s {
            ResolvedTransform::SplitDate { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    let fills: Vec<(usize, f64)> = specs
        .iter()
        .filter_map(|s| match s {
            ResolvedTransform::FillMissing { index, average } => Some((*index, *average)),
            _ => None,
        })
        .collect();

    let ds = Dataset::from_vec(ctx, table.rows.clone());
    let rows = ds
        .map(move |row| {
            let mut out: Vec<Value> = Vec::with_capacity(row.len() + 2 * split_indices.len());
            for (i, v) in row.values().iter().enumerate() {
                if split_indices.contains(&i) {
                    let (y, m, d) = split_date_text(&v.to_text());
                    out.push(y);
                    out.push(m);
                    out.push(d);
                } else if let Some((_, avg)) = fills
                    .iter()
                    .find(|(fi, _)| *fi == i)
                    .filter(|_| v.is_null())
                {
                    out.push(Value::Float(*avg));
                } else {
                    out.push(v.clone());
                }
            }
            Row::new(out)
        })
        .map_err(exec_err)?
        .collect();
    Ok(Table::new(schema, rows))
}

fn split_date_text(s: &str) -> (Value, Value, Value) {
    let mut parts = s.split('-');
    let mut next_int = || {
        parts
            .next()
            .and_then(|p| p.parse::<i64>().ok())
            .map(Value::Int)
            .unwrap_or(Value::Null)
    };
    (next_int(), next_int(), next_int())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let schema = Schema::of([
            ("quantity", DataType::Float),
            ("receiptdate", DataType::Str),
        ]);
        Table::new(
            schema,
            vec![
                Row::new(vec![Value::Float(10.0), Value::str("1995-03-17")]),
                Row::new(vec![Value::Null, Value::str("1996-12-01")]),
                Row::new(vec![Value::Float(30.0), Value::str("1994-01-31")]),
            ],
        )
    }

    fn ctx() -> Arc<ExecContext> {
        ExecContext::new(2, 4)
    }

    #[test]
    fn split_date_expands_columns() {
        let report = apply_transforms(
            &ctx(),
            &table(),
            &[Transform::SplitDate {
                column: "receiptdate".into(),
            }],
            TransformMode::Separate,
        )
        .unwrap();
        let t = &report.table;
        assert_eq!(t.schema.len(), 4);
        assert_eq!(t.rows[0].values()[1], Value::Int(1995));
        assert_eq!(t.rows[0].values()[2], Value::Int(3));
        assert_eq!(t.rows[0].values()[3], Value::Int(17));
    }

    #[test]
    fn fill_missing_uses_average() {
        let report = apply_transforms(
            &ctx(),
            &table(),
            &[Transform::FillMissing {
                column: "quantity".into(),
            }],
            TransformMode::Separate,
        )
        .unwrap();
        // avg(10, 30) = 20
        assert_eq!(report.table.rows[1].values()[0], Value::Float(20.0));
        assert_eq!(report.table.rows[0].values()[0], Value::Float(10.0));
    }

    #[test]
    fn fused_equals_separate_output() {
        let transforms = [
            Transform::SplitDate {
                column: "receiptdate".into(),
            },
            Transform::FillMissing {
                column: "quantity".into(),
            },
        ];
        let sep = apply_transforms(&ctx(), &table(), &transforms, TransformMode::Separate).unwrap();
        let fused = apply_transforms(&ctx(), &table(), &transforms, TransformMode::Fused).unwrap();
        assert_eq!(sep.table, fused.table);
        assert_eq!(sep.passes, 2);
        assert_eq!(fused.passes, 1);
    }

    #[test]
    fn malformed_dates_become_null() {
        let schema = Schema::of([("d", DataType::Str)]);
        let t = Table::new(schema, vec![Row::new(vec![Value::str("not a date")])]);
        let report = apply_transforms(
            &ctx(),
            &t,
            &[Transform::SplitDate { column: "d".into() }],
            TransformMode::Fused,
        )
        .unwrap();
        assert_eq!(report.table.rows[0].values()[0], Value::Null);
    }

    #[test]
    fn wrong_column_types_error() {
        let err = apply_transforms(
            &ctx(),
            &table(),
            &[Transform::SplitDate {
                column: "quantity".into(),
            }],
            TransformMode::Fused,
        );
        assert!(err.is_err());
        let err = apply_transforms(
            &ctx(),
            &table(),
            &[Transform::FillMissing {
                column: "nope".into(),
            }],
            TransformMode::Fused,
        );
        assert!(err.is_err());
    }

    #[test]
    fn baseline_scan_runs() {
        let d = baseline_scan(&ctx(), &table());
        assert!(d > Duration::ZERO);
    }
}
