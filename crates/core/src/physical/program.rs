//! The row format and compiled row-expression evaluation for the physical
//! executor.
//!
//! A row in flight ([`RowEnv`]) carries **values only**: one [`Value`] per
//! variable of the comprehension environment, at the position
//! [`env_layout`] gives that variable for the plan node producing the row.
//! The executor knows that layout statically per plan node, which is what
//! makes ahead-of-time compilation safe: every plan-node expression is
//! lowered **once** via [`Program::compile`] against the layout, and
//! partitions are then evaluated by the flat register machine with a
//! per-worker reusable scratch stack — no names travel with the rows, no
//! per-row environment allocation, no `Value` clones beyond the leaves.
//!
//! [`RowExpr`] is a compiled program with that scratch stack attached. An
//! expression the compiler cannot lower (an unknown table, a variable
//! outside the layout) is a typed error when the plan node is prepared —
//! before any row runs — and a row whose width disagrees with the layout
//! is a typed error when it is evaluated.

use std::cell::RefCell;

use cleanm_values::{Result, Value};

pub use crate::algebra::plan::env_layout;
use crate::calculus::compile::Program;
use crate::calculus::eval::EvalCtx;
use crate::calculus::CalcExpr;

/// A row in flight: the values of the comprehension environment, positioned
/// by the producing plan node's [`env_layout`].
pub type RowEnv = Vec<Value>;

thread_local! {
    /// Per-worker scratch stack shared by every compiled evaluation on this
    /// thread: the batch entry points clear it between rows, so the inner
    /// loop performs no stack allocation at all.
    static SCRATCH: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// A row-level expression as the executor runs it: a slot-resolved
/// [`Program`] evaluated on the worker's scratch stack.
pub struct RowExpr(Program);

impl RowExpr {
    /// Compile `expr` against the plan node's environment layout `scope`.
    /// Fails when a variable is not in the layout or a table reference is
    /// unknown.
    pub fn compile(expr: &CalcExpr, scope: &[String], ctx: &EvalCtx) -> Result<RowExpr> {
        Program::compile(expr, scope, ctx).map(RowExpr)
    }

    /// The compiled program — handed to the columnar kernel compiler
    /// (`physical/kernel.rs`) to try a second lowering against a concrete
    /// column batch.
    pub(crate) fn program(&self) -> &Program {
        &self.0
    }

    /// Evaluate one row.
    pub fn eval_env(&self, env: &[Value], ctx: &EvalCtx) -> Result<Value> {
        SCRATCH.with(|s| self.0.eval_with(env, ctx, &mut s.borrow_mut()))
    }

    /// Evaluate over a concatenated `(left, right)` row pair without
    /// materializing the merged row — the theta-join inner loop.
    pub fn eval_pair(&self, left: &[Value], right: &[Value], ctx: &EvalCtx) -> Result<Value> {
        SCRATCH.with(|s| self.0.eval_pair(left, right, ctx, &mut s.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower_op;
    use crate::algebra::plan::{Alg, HintKind, ThetaHint};
    use crate::calculus::desugar::ROWID_FIELD;
    use crate::calculus::{desugar_query, normalize, BinOp, FilterAlgo, MonoidKind};
    use crate::engine::storage::StoredTable;
    use crate::lang::parse_query;
    use crate::physical::{EngineProfile, Executor};
    use cleanm_exec::ExecContext;
    use std::collections::HashMap;
    use std::path::Path;
    use std::sync::Arc;

    fn scan(table: &str, var: &str) -> Arc<Alg> {
        Arc::new(Alg::Scan {
            table: table.into(),
            var: var.into(),
        })
    }

    /// Run every row-producing node of `plan` under `profile` and check
    /// that each row it yields is exactly as wide as the node's layout.
    fn assert_rows_match_layout(
        plan: &Arc<Alg>,
        tables: &HashMap<String, StoredTable>,
        eval_ctx: &Arc<EvalCtx>,
        profile: &EngineProfile,
    ) {
        let children: Vec<&Arc<Alg>> = match &**plan {
            Alg::Scan { .. } => vec![],
            Alg::Select { input, .. }
            | Alg::Unnest { input, .. }
            | Alg::Nest { input, .. }
            | Alg::Reduce { input, .. } => vec![input],
            Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
                vec![left, right]
            }
        };
        for child in children {
            assert_rows_match_layout(child, tables, eval_ctx, profile);
        }
        if matches!(&**plan, Alg::Reduce { .. }) {
            return; // yields head values, not rows
        }
        let mut ex = Executor::new(
            ExecContext::new(2, 3),
            profile.clone(),
            tables,
            Arc::clone(eval_ctx),
        );
        let width = env_layout(plan).len();
        let rows = ex.run(plan).unwrap().collect();
        assert!(
            rows.iter().all(|row| row.len() == width),
            "{}: a row disagrees with layout {:?}\n{}",
            profile.name,
            env_layout(plan),
            plan.explain()
        );
    }

    fn profiles() -> [EngineProfile; 2] {
        [EngineProfile::clean_db(), EngineProfile::spark_sql_like()]
    }

    #[test]
    fn every_alg_variant_yields_rows_of_its_layout_width() {
        let row = |id: i64, tags: &[&str]| {
            Value::record([
                ("id", Value::Int(id)),
                ("tags", Value::list(tags.iter().map(|t| Value::str(*t)))),
            ])
        };
        let mut tables = HashMap::new();
        tables.insert(
            "t".to_string(),
            StoredTable::from_rows(vec![row(1, &["a", "b"]), row(2, &["b"]), row(3, &[])]),
        );
        let id = |var: &str| CalcExpr::proj(CalcExpr::var(var), "id");
        let select = Arc::new(Alg::Select {
            input: scan("t", "c"),
            pred: CalcExpr::bin(BinOp::Gt, id("c"), CalcExpr::int(0)),
        });
        let unnest = Arc::new(Alg::Unnest {
            input: Arc::clone(&select),
            path: CalcExpr::proj(CalcExpr::var("c"), "tags"),
            var: "e".into(),
        });
        assert_eq!(env_layout(&unnest), vec!["c".to_string(), "e".to_string()]);
        let nest = Arc::new(Alg::Nest {
            input: Arc::clone(&unnest),
            algo: FilterAlgo::Exact,
            key: CalcExpr::var("e"),
            item: CalcExpr::var("c"),
            group_var: "g".into(),
        });
        assert_eq!(env_layout(&nest), vec!["g".to_string()]);
        let join = Arc::new(Alg::Join {
            left: Arc::clone(&unnest),
            right: scan("t", "d"),
            left_key: id("c"),
            right_key: id("d"),
        });
        assert_eq!(env_layout(&join), vec!["c", "e", "d"]);
        let theta = Arc::new(Alg::ThetaJoin {
            left: Arc::clone(&nest),
            right: Arc::clone(&unnest),
            pred: CalcExpr::boolean(true),
            hint: ThetaHint {
                left_key: CalcExpr::proj(CalcExpr::var("g"), "key"),
                right_key: CalcExpr::var("e"),
                kind: HintKind::Any,
            },
        });
        assert_eq!(env_layout(&theta), vec!["g", "c", "e"]);
        let reduce = Arc::new(Alg::Reduce {
            input: Arc::clone(&theta),
            monoid: MonoidKind::Bag,
            head: CalcExpr::var("e"),
        });
        assert_eq!(env_layout(&reduce), env_layout(&theta));
        let eval_ctx = Arc::new(EvalCtx::new());
        for profile in profiles() {
            for plan in [&join, &reduce] {
                assert_rows_match_layout(plan, &tables, &eval_ctx, &profile);
            }
        }
    }

    /// Load a fixture CSV as `__rowid`-stamped records (integers where they
    /// parse, strings otherwise) — enough typing for layout checks.
    fn load_csv(path: &Path) -> StoredTable {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let rows = lines.enumerate().map(|(i, line)| {
            let cells = line.split(',').map(|cell| match cell.parse::<i64>() {
                Ok(n) => Value::Int(n),
                Err(_) => Value::str(cell),
            });
            let rowid = (ROWID_FIELD, Value::Int(i as i64));
            Value::record(std::iter::once(rowid).chain(header.iter().copied().zip(cells)))
        });
        StoredTable::from_rows(rows.collect())
    }

    #[test]
    fn fixture_queries_yield_rows_of_their_layout_width() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        let mut checked = 0;
        for dir in std::fs::read_dir(&root).unwrap() {
            let dir = dir.unwrap().path();
            let (Ok(sql), Ok(table_list)) = (
                std::fs::read_to_string(dir.join("query.cm")),
                std::fs::read_to_string(dir.join("tables.txt")),
            ) else {
                continue;
            };
            // Diagnostic fixtures hold deliberately broken sources.
            let Ok(dq) = parse_query(sql.trim())
                .map_err(drop)
                .and_then(|q| desugar_query(&q, 42).map_err(drop))
            else {
                continue;
            };
            let tables: HashMap<String, StoredTable> = table_list
                .lines()
                .filter_map(|line| line.split_once('='))
                .map(|(name, file)| (name.to_string(), load_csv(&dir.join(file))))
                .collect();
            let mut eval_ctx = EvalCtx::new();
            let comps: Vec<_> = dq.ops.iter().map(|op| normalize(&op.comp).0).collect();
            for comp in &comps {
                eval_ctx.prepare_blockers(comp, &[]);
            }
            let eval_ctx = Arc::new(eval_ctx);
            for comp in &comps {
                let plan = lower_op(comp).unwrap();
                for profile in profiles() {
                    assert_rows_match_layout(&plan, &tables, &eval_ctx, &profile);
                }
                checked += 1;
            }
        }
        assert!(checked >= 12, "only {checked} fixture plans checked");
    }

    #[test]
    fn uncompilable_expressions_are_typed_errors() {
        let ctx = EvalCtx::new();
        let unknown_table = CalcExpr::Exists(Box::new(CalcExpr::TableRef("missing".into())));
        let err = RowExpr::compile(&unknown_table, &[], &ctx).err().unwrap();
        assert!(err.to_string().contains("unknown table `missing`"), "{err}");
        let err = RowExpr::compile(&CalcExpr::var("x"), &["a".to_string()], &ctx)
            .err()
            .unwrap();
        assert!(err.to_string().contains("unbound variable `x`"), "{err}");
    }

    #[test]
    fn row_expr_pair_matches_merged_eval() {
        let ctx = EvalCtx::new();
        let scope = vec!["a".to_string(), "b".to_string()];
        let expr = CalcExpr::bin(BinOp::Lt, CalcExpr::var("a"), CalcExpr::var("b"));
        let rx = RowExpr::compile(&expr, &scope, &ctx).unwrap();
        let (l, r) = ([Value::Int(1)], [Value::Int(2)]);
        assert_eq!(rx.eval_pair(&l, &r, &ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn width_mismatch_is_a_typed_error() {
        let ctx = EvalCtx::new();
        let scope = vec!["a".to_string(), "b".to_string()];
        let rx = RowExpr::compile(&CalcExpr::var("a"), &scope, &ctx).unwrap();
        for width in [0, 1, 3] {
            let row = vec![Value::Int(7); width];
            let err = rx.eval_env(&row, &ctx).unwrap_err().to_string();
            assert!(err.contains("row layout mismatch"), "{err}");
            let err = rx.eval_pair(&row, &[], &ctx).unwrap_err().to_string();
            assert!(err.contains("row layout mismatch"), "{err}");
        }
    }
}
