//! General denial constraints with inequality predicates (rule ψ of §8.3).
//!
//! A DC `∀t1,t2 ¬(p₁ ∧ … ∧ pₙ)` is the CleanM clause `DC(p₁ AND … AND pₙ)`:
//! [`InequalityDc`] renders that query, runs it through the session like
//! every other operator here, and reads the outcome off the report. Without
//! equalities the plan is a theta self-join, and the engine profile decides
//! its algorithm (M-Bucket / min-max blocks / cartesian+filter) and whether
//! single-tuple conjuncts are filtered below the join — CleanDB's pushdown —
//! or inside the pair predicate, as the black-box baselines do.
//!
//! Running a hopeless plan returns [`DcOutcome::BudgetExceeded`] rather than
//! an error: Table 5 reports exactly that outcome for the baselines.

use std::time::{Duration, Instant};

use cleanm_exec::ExecError;
use cleanm_values::Value;

use crate::calculus::desugar::expr_to_calc;
use crate::calculus::{BinOp, CalcExpr};
use crate::engine::output::top_rowid;
use crate::engine::{CleanDb, EngineError, Output};
use crate::lang::ast::CleanOp;
use crate::lang::parse_query;

/// A two-tuple denial constraint over one table.
#[derive(Debug, Clone)]
pub struct InequalityDc {
    pub table: String,
    /// The denied conjunction, a CleanM expression over the tuple variables
    /// `t1` / `t2` (e.g. `"t1.price < t2.price AND t1.discount > t2.discount"`).
    pub pred: String,
}

/// What happened when checking the constraint.
#[derive(Debug, Clone)]
pub enum DcOutcome {
    Completed {
        violations: usize,
        duration: Duration,
        comparisons: u64,
    },
    /// The plan needed more work than the context's budget allows — the
    /// paper's "system is unable to terminate".
    BudgetExceeded {
        operator: &'static str,
        needed: u64,
        duration: Duration,
    },
}

impl DcOutcome {
    pub fn completed(&self) -> bool {
        matches!(self, DcOutcome::Completed { .. })
    }
}

/// Which tuple variable of a two-tuple constraint a term reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DcSide {
    /// The filtered/left tuple variable.
    T1,
    /// The right tuple variable.
    T2,
}

/// One side of an atomic comparison: a cell of `t1`/`t2` or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum DcTerm {
    /// `tᵢ.column`.
    Cell(DcSide, String),
    /// A literal bound.
    Const(Value),
}

impl DcTerm {
    /// Read the term's current value against a concrete `(t1, t2)` pair.
    pub fn value(&self, t1: &Value, t2: &Value) -> cleanm_values::Result<Value> {
        match self {
            DcTerm::Cell(DcSide::T1, col) => t1.field(col).cloned(),
            DcTerm::Cell(DcSide::T2, col) => t2.field(col).cloned(),
            DcTerm::Const(v) => Ok(v.clone()),
        }
    }
}

/// One atomic comparison of the constraint's conjunction — the structured
/// form a repair engine consumes instead of re-parsing [`CalcExpr`] trees.
#[derive(Debug, Clone, PartialEq)]
pub struct DcAtom {
    /// The comparison operator.
    pub op: BinOp,
    /// Left operand.
    pub left: DcTerm,
    /// Right operand.
    pub right: DcTerm,
}

impl DcAtom {
    /// Evaluate the atom against a concrete `(t1, t2)` pair under the
    /// engine's comparison semantics (NULL non-truthy outside Eq/Ne, mixed
    /// numerics widened, NaN via the canonical total order) — detection and
    /// repair agree by construction.
    pub fn holds(&self, t1: &Value, t2: &Value) -> cleanm_values::Result<bool> {
        let l = self.left.value(t1, t2)?;
        let r = self.right.value(t1, t2)?;
        Ok(matches!(
            crate::calculus::eval::eval_binop(self.op, &l, &r)?,
            Value::Bool(true)
        ))
    }
}

/// An offending cell of one violating pair, oriented so the failed relation
/// reads `value op bound` (right-hand cells carry the flipped comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct DcCell {
    /// Which tuple variable the cell belongs to.
    pub side: DcSide,
    /// The cell's row id.
    pub row_id: i64,
    /// The cell's column.
    pub column: String,
    /// The cell's value at detection time.
    pub value: Value,
    /// The comparison the cell satisfied (making the pair violate).
    pub op: BinOp,
    /// The other operand's value at detection time.
    pub bound: Value,
}

/// One violating `(t1, t2)` pair with the offending cells of every atomic
/// comparison that held.
#[derive(Debug, Clone, PartialEq)]
pub struct DcViolation {
    /// Row id bound to `t1`.
    pub t1: i64,
    /// Row id bound to `t2`.
    pub t2: i64,
    /// Offending cells, in atom order (left cell before right cell).
    pub cells: Vec<DcCell>,
}

/// Flip a comparison so `a op b` reads as `b flip(op) a`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn term_of(e: &CalcExpr) -> Option<DcTerm> {
    match e {
        CalcExpr::Proj(base, col) => match base.as_ref() {
            CalcExpr::Var(v) if v == "t1" => Some(DcTerm::Cell(DcSide::T1, col.clone())),
            CalcExpr::Var(v) if v == "t2" => Some(DcTerm::Cell(DcSide::T2, col.clone())),
            _ => None,
        },
        CalcExpr::Const(v) => Some(DcTerm::Const(v.clone())),
        _ => None,
    }
}

fn atom_of(e: &CalcExpr) -> Option<DcAtom> {
    match e {
        CalcExpr::BinOp(op, l, r) if op.is_comparison() => Some(DcAtom {
            op: *op,
            left: term_of(l)?,
            right: term_of(r)?,
        }),
        _ => None,
    }
}

impl InequalityDc {
    /// Rule ψ of §8.3: an item cannot have a bigger discount than a more
    /// expensive item, restricted to cheap t1 items
    /// (`t1.price < cap ∧ t1.price < t2.price ∧ t1.discount > t2.discount`).
    pub fn rule_psi(table: &str, price_cap: f64) -> Self {
        InequalityDc {
            table: table.to_string(),
            pred: format!(
                "t1.extendedprice < {} AND t1.extendedprice < t2.extendedprice \
                 AND t1.discount > t2.discount",
                Value::Float(price_cap)
            ),
        }
    }

    /// The CleanM query text for this constraint.
    pub fn to_sql(&self) -> String {
        format!("SELECT * FROM {} DC({})", self.table, self.pred)
    }

    /// The constraint's conjunction as structured atomic comparisons, in
    /// the order written, or `None` when any conjunct is not a simple
    /// `term cmp term` over `t1`/`t2` cells and constants. Detection and
    /// repair share this decomposition — the repair engine never re-parses
    /// the predicate.
    pub fn atoms(&self) -> Option<Vec<DcAtom>> {
        let query = parse_query(&self.to_sql()).ok()?;
        let [CleanOp::Dc { pred, .. }] = query.clean_ops.as_slice() else {
            return None;
        };
        let tuple_vars = [(Some("t1"), "t1"), (Some("t2"), "t2")];
        let pred = expr_to_calc(pred, &tuple_vars).ok()?;
        pred.conjuncts().into_iter().map(atom_of).collect()
    }

    /// Check the constraint on a session, honouring its profile and budget.
    pub fn run(&self, db: &mut CleanDb) -> Result<DcOutcome, EngineError> {
        self.detect(db).map(|(outcome, _)| outcome)
    }

    /// [`InequalityDc::run`], additionally returning one structured
    /// [`DcViolation`] per distinct violating pair (sorted by `(t1, t2)`;
    /// empty when the budget was exceeded).
    pub fn run_detailed(
        &self,
        db: &mut CleanDb,
    ) -> Result<(DcOutcome, Vec<DcViolation>), EngineError> {
        let (outcome, outputs) = self.detect(db)?;
        let violations = self.describe_pairs(&outputs)?;
        Ok((outcome, violations))
    }

    /// Turn the `{left, right}` output rows of a DC operator into structured
    /// violation records — one per distinct `(t1, t2)` pair, sorted — by
    /// reading the offending cells, and the bounds they crossed, off the
    /// pair's own rows. An atom that cannot be evaluated on a reported pair
    /// (the rows are not the ones the rule ran over) is an error.
    pub fn describe_pairs(&self, outputs: &[Value]) -> Result<Vec<DcViolation>, EngineError> {
        let mut pairs: Vec<_> = pair_rows(outputs).collect();
        pairs.sort_by_key(|(ids, ..)| *ids);
        pairs.dedup_by_key(|(ids, ..)| *ids);
        let atoms = self.atoms().unwrap_or_default();
        let mut out = Vec::with_capacity(pairs.len());
        for ((a, b), r1, r2) in pairs {
            let mut cells = Vec::new();
            for atom in &atoms {
                if !atom.holds(r1, r2)? {
                    continue;
                }
                let l = atom.left.value(r1, r2)?;
                let r = atom.right.value(r1, r2)?;
                // The right-hand cell reads the comparison from its side.
                for (term, value, op, bound) in [
                    (&atom.left, &l, atom.op, &r),
                    (&atom.right, &r, flip(atom.op), &l),
                ] {
                    if let DcTerm::Cell(side, col) = term {
                        cells.push(DcCell {
                            side: *side,
                            row_id: if *side == DcSide::T1 { a } else { b },
                            column: col.clone(),
                            value: value.clone(),
                            op,
                            bound: bound.clone(),
                        });
                    }
                }
            }
            out.push(DcViolation {
                t1: a,
                t2: b,
                cells,
            });
        }
        Ok(out)
    }

    /// Run the rendered query; the outcome plus the operator's output,
    /// whose records the outcome does not build.
    fn detect(&self, db: &mut CleanDb) -> Result<(DcOutcome, Output), EngineError> {
        let start = Instant::now();
        match db.run(&self.to_sql()) {
            Ok(mut report) => {
                let pairs = report.ops.pop().map(|op| op.output).unwrap_or_default();
                let outcome = DcOutcome::Completed {
                    violations: pair_ids(&pairs).len(),
                    duration: report.total,
                    comparisons: report.metrics.comparisons,
                };
                Ok((outcome, pairs))
            }
            Err(EngineError::Exec(ExecError::BudgetExceeded {
                operator, needed, ..
            })) => Ok((
                DcOutcome::BudgetExceeded {
                    operator,
                    needed,
                    duration: start.elapsed(),
                },
                Output::default(),
            )),
            Err(e) => Err(e),
        }
    }
}

/// The `{left, right}` output rows of a DC operator that carry both row
/// ids, as `((t1, t2), left row, right row)`.
fn pair_rows(outputs: &[Value]) -> impl Iterator<Item = ((i64, i64), &Value, &Value)> {
    outputs.iter().filter_map(|pair| {
        let (left, right) = (pair.field("left").ok()?, pair.field("right").ok()?);
        Some(((top_rowid(left)?, top_rowid(right)?), left, right))
    })
}

/// The distinct `(t1, t2)` row-id pairs of a DC operator's `{left, right}`
/// output rows, sorted — the violation unit Table 5 reports. Read off the
/// index pairs when the route kept them ([`Output::pairs`]), without
/// building a record.
pub fn pair_ids(output: &Output) -> Vec<(i64, i64)> {
    let mut pairs = output.pairs();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::desugar::ROWID_FIELD;
    use crate::physical::EngineProfile;
    use cleanm_exec::ExecContext;
    use cleanm_values::{DataType, Row, Schema, Table};

    fn lineitem(n: i64) -> Table {
        let schema = Schema::of([
            ("extendedprice", DataType::Float),
            ("discount", DataType::Float),
        ]);
        // Clean: discount monotone in price. Then poison one row.
        let mut rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Float(100.0 + i as f64),
                    Value::Float((i as f64) / (n as f64)),
                ])
            })
            .collect();
        // Cheap item with a huge discount: violates ψ against pricier rows.
        rows.push(Row::new(vec![Value::Float(50.0), Value::Float(0.99)]));
        Table::new(schema, rows)
    }

    fn psi(cap: f64) -> InequalityDc {
        InequalityDc::rule_psi("lineitem", cap)
    }

    #[test]
    fn cleandb_finds_violations() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("lineitem", lineitem(100));
        let outcome = psi(60.0).run(&mut db).unwrap();
        match outcome {
            DcOutcome::Completed { violations, .. } => {
                // The poisoned row (price 50, discount .99) violates against
                // every pricier row with a smaller discount: i/100 < .99 for
                // i ≤ 98, i.e. 99 rows.
                assert_eq!(violations, 99);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_profiles_agree_without_budget() {
        for profile in [
            EngineProfile::clean_db(),
            EngineProfile::spark_sql_like(),
            EngineProfile::big_dansing_like(),
        ] {
            let mut db = CleanDb::new(profile.clone());
            db.register("lineitem", lineitem(60));
            let outcome = psi(60.0).run(&mut db).unwrap();
            match outcome {
                DcOutcome::Completed { violations, .. } => {
                    assert_eq!(violations, 60, "{}", profile.name);
                }
                other => panic!("{}: {other:?}", profile.name),
            }
        }
    }

    #[test]
    fn rule_psi_decomposes_into_three_atoms() {
        let atoms = psi(60.0).atoms().expect("ψ is a simple conjunction");
        assert_eq!(atoms.len(), 3);
        // Selective filter first: t1.extendedprice < 60.0.
        assert_eq!(
            atoms[0],
            DcAtom {
                op: BinOp::Lt,
                left: DcTerm::Cell(DcSide::T1, "extendedprice".into()),
                right: DcTerm::Const(Value::Float(60.0)),
            }
        );
        assert_eq!(atoms[2].op, BinOp::Gt);
        assert_eq!(
            atoms[2].left,
            DcTerm::Cell(DcSide::T1, "discount".into()),
            "pairwise discount atom last"
        );
    }

    #[test]
    fn run_detailed_reports_offending_cells_with_bounds() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("lineitem", lineitem(100));
        let (outcome, violations) = psi(60.0).run_detailed(&mut db).unwrap();
        assert!(outcome.completed());
        assert_eq!(violations.len(), 99);
        // Pairs come back sorted; every violation names the poisoned row
        // (id 100: price 50, discount .99) on the t1 side.
        for v in &violations {
            assert_eq!(v.t1, 100);
            // 3 atoms × (1 or 2 cells): filter contributes one cell, each
            // pairwise atom two.
            assert_eq!(v.cells.len(), 5);
            let discount = v
                .cells
                .iter()
                .find(|c| c.side == DcSide::T1 && c.column == "discount")
                .unwrap();
            assert_eq!(discount.value, Value::Float(0.99));
            assert_eq!(discount.op, BinOp::Gt);
            // The bound is the partner row's (smaller) discount.
            assert!(discount.bound.as_float().unwrap() < 0.99);
        }
        assert!(violations
            .windows(2)
            .all(|w| (w[0].t1, w[0].t2) < (w[1].t1, w[1].t2)));
    }

    #[test]
    fn describe_pairs_rejects_pairs_its_atoms_cannot_read() {
        let mut db = CleanDb::new(EngineProfile::clean_db());
        db.register("lineitem", lineitem(10));
        let report = db.run(&psi(60.0).to_sql()).unwrap();
        let pairs = &report.ops[0].output;
        assert_eq!(psi(60.0).describe_pairs(pairs).unwrap().len(), 10);
        // The same pairs under a rule over a column the rows lack: a
        // violation without its cells would misreport, so it is an error.
        let other = InequalityDc {
            table: "lineitem".into(),
            pred: "t1.tax < t2.tax".into(),
        };
        assert!(other.describe_pairs(pairs).is_err());
    }

    #[test]
    fn describe_pairs_describes_each_pair_once_in_order() {
        // Records out of order and repeated: one violation per distinct
        // `(t1, t2)`, sorted.
        let row = |id: i64, price: f64| {
            Value::record([
                (ROWID_FIELD, Value::Int(id)),
                ("extendedprice", Value::Float(price)),
                ("discount", Value::Float(1.0 - price / 100.0)),
            ])
        };
        let pair =
            |l: &Value, r: &Value| Value::record([("left", l.clone()), ("right", r.clone())]);
        let (x, y, z) = (row(7, 10.0), row(3, 20.0), row(5, 30.0));
        let outputs = [pair(&y, &z), pair(&x, &y), pair(&y, &z), pair(&x, &z)];
        let described = psi(1000.0).describe_pairs(&outputs).unwrap();
        let ids: Vec<(i64, i64)> = described.iter().map(|v| (v.t1, v.t2)).collect();
        assert_eq!(ids, [(3, 5), (7, 3), (7, 5)]);
    }

    #[test]
    fn run_detailed_describes_pairs_by_their_own_rows() {
        // Row ids that are not row positions — past the table's end, and
        // reversed: every pair is described, each cell by the row whose id
        // it names.
        let n = 20;
        let id_maps: [fn(i64) -> i64; 2] = [|i| 100 + i, |i| 19 - i];
        for id_of in id_maps {
            let rows: Vec<Value> = (0..n)
                .map(|i| {
                    Value::record([
                        (ROWID_FIELD, Value::Int(id_of(i))),
                        ("extendedprice", Value::Float(100.0 + i as f64)),
                        ("discount", Value::Float((n - i) as f64 / n as f64)),
                    ])
                })
                .collect();
            let mut db = CleanDb::new(EngineProfile::clean_db());
            db.register_values("lineitem", rows.clone());
            let (outcome, violations) = psi(1000.0).run_detailed(&mut db).unwrap();
            // Pricier rows have smaller discounts: every pair violates.
            let expected = (n * (n - 1) / 2) as usize;
            let DcOutcome::Completed {
                violations: count, ..
            } = outcome
            else {
                panic!("{outcome:?}")
            };
            assert_eq!((count, violations.len()), (expected, expected));
            let row_of = |id: i64| {
                rows.iter()
                    .find(|r| r.field(ROWID_FIELD).unwrap() == &Value::Int(id))
            };
            for v in &violations {
                assert_eq!(v.cells.len(), 5, "{v:?}");
                for cell in &v.cells {
                    let row = row_of(cell.row_id).unwrap();
                    assert_eq!(row.field(&cell.column).unwrap(), &cell.value, "{v:?}");
                }
            }
        }
    }

    #[test]
    fn budget_kills_baselines_but_not_cleandb() {
        // Budget chosen so |σL|×|R| fits but |L|×|R| does not: exactly
        // Table 5's shape.
        let n = 400usize;
        let budget = (n as u64) * (n as u64) / 2;
        let make_db = |profile: EngineProfile| {
            let ctx = ExecContext::with_budget(2, 4, budget);
            let mut db = CleanDb::with_context(profile, ctx);
            db.register("lineitem", lineitem(n as i64 - 1));
            db
        };
        let clean = psi(60.0)
            .run(&mut make_db(EngineProfile::clean_db()))
            .unwrap();
        assert!(clean.completed(), "{clean:?}");
        let spark = psi(60.0)
            .run(&mut make_db(EngineProfile::spark_sql_like()))
            .unwrap();
        assert!(!spark.completed(), "{spark:?}");
        let bd = psi(60.0)
            .run(&mut make_db(EngineProfile::big_dansing_like()))
            .unwrap();
        assert!(!bd.completed(), "{bd:?}");
    }
}
