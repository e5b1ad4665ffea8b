//! DC repairs via relaxation: move the offending cell to the boundary the
//! constraint implies, with a verified null-out fallback.
//!
//! Any statement's `DC(...)` clause is repaired from its op's own
//! `{left, right}` output; the structured violations are read off each
//! pair's own rows.
//!
//! Following the paper authors' follow-up ("Cleaning Denial Constraint
//! Violations through Relaxation"), an inequality DC violation is exited by
//! the *minimal cell adjustment*: for a strict pairwise atom `a < b` /
//! `a > b`, setting the offending side to the extremal partner value makes
//! the atom (and hence the conjunction) false for every partner at once.
//! The plan is then **verified by simulation** — the fixes are applied to a
//! scratch session and the clause re-run; any residual violations are
//! nulled out (NULL compares non-truthy, so the pair exits the predicate)
//! with low confidence.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cleanm_core::calculus::BinOp;
use cleanm_core::engine::{CleanDb, EngineError, Fix, RepairSection};
use cleanm_core::lang::{pretty_expr, pretty_query, CleanOp, Query};
use cleanm_core::ops::dc::{DcAtom, DcSide, DcTerm, DcViolation, InequalityDc};
use cleanm_values::Value;

/// Confidence of a relaxation moving `old` to `new`: decays with the
/// relative adjustment magnitude (a nudge to a nearby boundary is far more
/// trustworthy than a rewrite to a distant one), capped at 0.9 — a repair
/// synthesized from a constraint is never as certain as an observed value.
fn relax_confidence(old: f64, new: f64) -> f64 {
    let rel = (new - old).abs() / (old.abs() + 1.0);
    0.9 / (1.0 + rel)
}

/// Confidence attached to null-out fallbacks.
const NULL_OUT_CONFIDENCE: f64 = 0.15;

/// How many relax → simulate → null-out rounds before giving up. Each
/// round nulls at least one distinct offending cell, so two rounds settle
/// everything the ψ-shaped constraints produce; the cap only guards
/// pathological constraints.
const MAX_ROUNDS: usize = 3;

/// One adjustable side of a strict pairwise atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    atom: usize,
    /// Adjust the atom's left term (else the right).
    left: bool,
}

/// Strict Cell-vs-Cell atoms, the only shape a boundary move can exit
/// exactly (non-strict comparisons would need an epsilon).
fn candidates(atoms: &[DcAtom]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (i, a) in atoms.iter().enumerate() {
        if !matches!(a.op, BinOp::Lt | BinOp::Gt) {
            continue;
        }
        if matches!(
            (&a.left, &a.right),
            (DcTerm::Cell(_, _), DcTerm::Cell(_, _))
        ) {
            out.push(Candidate {
                atom: i,
                left: true,
            });
            out.push(Candidate {
                atom: i,
                left: false,
            });
        }
    }
    out
}

/// Per offender row of one candidate: the original value and the extremal
/// partner bound that exits the atom for every partner at once.
struct Adjustment {
    original: Value,
    boundary: f64,
}

/// Evaluate one candidate over the violation set: offender row →
/// adjustment, or `None` when any involved value is non-numeric/NaN (a
/// numeric boundary cannot be computed — the null-out fallback handles
/// those pairs).
fn plan_candidate(
    cand: Candidate,
    atoms: &[DcAtom],
    violations: &[DcViolation],
    rows: &[Value],
) -> Option<(String, BTreeMap<i64, Adjustment>)> {
    let atom = &atoms[cand.atom];
    let (term, other) = if cand.left {
        (&atom.left, &atom.right)
    } else {
        (&atom.right, &atom.left)
    };
    let DcTerm::Cell(side, column) = term else {
        return None;
    };
    // Exiting `a < b` by moving `a` means raising it to the max partner b
    // (a == b is no longer <); symmetrically for the other three shapes.
    let raise = match (atom.op, cand.left) {
        (BinOp::Lt, true) | (BinOp::Gt, false) => true,
        (BinOp::Gt, true) | (BinOp::Lt, false) => false,
        _ => return None,
    };
    let mut plan: BTreeMap<i64, Adjustment> = BTreeMap::new();
    for v in violations {
        let (r1, r2) = (rows.get(v.t1 as usize)?, rows.get(v.t2 as usize)?);
        let value = term.value(r1, r2).ok()?;
        let bound = other.value(r1, r2).ok()?;
        let (vf, bf) = (value.as_float().ok()?, bound.as_float().ok()?);
        if vf.is_nan() || bf.is_nan() {
            return None;
        }
        let row = match side {
            DcSide::T1 => v.t1,
            DcSide::T2 => v.t2,
        };
        let adj = plan.entry(row).or_insert(Adjustment {
            original: value.clone(),
            boundary: bf,
        });
        adj.boundary = if raise {
            adj.boundary.max(bf)
        } else {
            adj.boundary.min(bf)
        };
    }
    Some((column.clone(), plan))
}

/// Total relative adjustment of a candidate plan — the "minimal cell
/// adjustment" objective (fewest cells first, then smallest total move).
fn plan_cost(plan: &BTreeMap<i64, Adjustment>) -> (usize, f64) {
    let mut total = 0.0;
    for adj in plan.values() {
        if let Ok(old) = adj.original.as_float() {
            total += (adj.boundary - old).abs() / (old.abs() + 1.0);
        }
    }
    (plan.len(), total)
}

/// Keep integer columns integral when the boundary lands on a whole number.
fn boundary_value(original: &Value, boundary: f64) -> Value {
    match original {
        Value::Int(_) if boundary.fract() == 0.0 => Value::Int(boundary as i64),
        _ => Value::Float(boundary),
    }
}

/// Plan repairs for the `clause` of `query` whose op produced the
/// `{left, right}` pairs `output`: describe the pairs, relax, verify by
/// simulation, null out what survives. Returns the verified section (fixes
/// unsorted; the engine sorts).
pub(crate) fn plan(
    db: &CleanDb,
    query: &Query,
    clause: &CleanOp,
    output: &[Value],
) -> Result<RepairSection, EngineError> {
    let started = Instant::now();
    let CleanOp::Dc { pred, .. } = clause else {
        unreachable!("the engine hands DC ops their DC clause");
    };
    // A DC reads the statement's primary table only; the simulation
    // re-runs this one clause over it.
    let from = query.from[..1].to_vec();
    let dc = InequalityDc {
        table: from[0].name.clone(),
        pred: pretty_expr(pred),
    };
    let sim_sql = pretty_query(&Query {
        from,
        clean_ops: vec![clause.clone()],
        ..query.clone()
    });
    let violations = dc.describe_pairs(output)?;
    let mut section = RepairSection::default();
    let rows = db.table_rows(&dc.table).expect("the statement ran over it");
    let atoms = dc.atoms().unwrap_or_default();

    // Fixes keyed by (row, column): a null-out replaces the relaxation
    // that failed verification, keeping the *original* cell value so the
    // guarded application still matches the live table.
    let mut fixes: BTreeMap<(i64, String), Fix> = BTreeMap::new();

    // Round 0: pick the cheapest relaxation candidate and move every
    // offender to its boundary.
    type Best = (String, DcSide, BTreeMap<i64, Adjustment>, (usize, f64));
    let mut best: Option<Best> = None;
    for cand in candidates(&atoms) {
        let Some((column, plan)) = plan_candidate(cand, &atoms, &violations, &rows) else {
            continue;
        };
        if plan.is_empty() {
            continue;
        }
        let DcTerm::Cell(side, _) = (if cand.left {
            &atoms[cand.atom].left
        } else {
            &atoms[cand.atom].right
        }) else {
            continue;
        };
        let cost = plan_cost(&plan);
        if best.as_ref().is_none_or(|(_, _, _, bc)| cost < *bc) {
            best = Some((column, *side, plan, cost));
        }
    }
    let null_column = best.as_ref().map(|(c, s, _, _)| (c.clone(), *s));
    if let Some((column, _, plan, _)) = best {
        for (row, adj) in plan {
            let old = adj.original.as_float().unwrap_or(0.0);
            fixes.insert(
                (row, column.clone()),
                Fix {
                    table: dc.table.clone(),
                    column: column.clone(),
                    row_id: row,
                    original: adj.original.clone(),
                    repaired: boundary_value(&adj.original, adj.boundary),
                    confidence: relax_confidence(old, adj.boundary),
                    rule: "dc:relax".to_string(),
                },
            );
        }
    }

    // Verify by simulation; null out residual offenders and re-check.
    let mut unrepaired = violations.len();
    for _round in 0..MAX_ROUNDS {
        let mut patched: Vec<Value> = rows.as_ref().clone();
        for fix in fixes.values() {
            if let Some(r) = patched.get_mut(fix.row_id as usize) {
                if let Ok(updated) = r.with_field(&fix.column, fix.repaired.clone()) {
                    *r = updated;
                }
            }
        }
        let mut scratch = CleanDb::new(db.profile().clone());
        scratch.register_values(&dc.table, patched);
        let mut sim = scratch.run(&sim_sql)?;
        let pairs = sim.ops.pop().map(|op| op.output).unwrap_or_default();
        let residual = dc.describe_pairs(&pairs)?;
        if residual.is_empty() {
            unrepaired = 0;
            break;
        }
        unrepaired = residual.len();
        // Null out one offending cell per residual pair: the relaxation
        // column when one was chosen, else the first pairwise cell of the
        // pair's structured record.
        let mut nulled = BTreeSet::new();
        for v in &residual {
            let (row, column) = match &null_column {
                Some((col, side)) => (
                    match side {
                        DcSide::T1 => v.t1,
                        DcSide::T2 => v.t2,
                    },
                    col.clone(),
                ),
                None => {
                    let Some(cell) = v.cells.first() else {
                        continue;
                    };
                    (cell.row_id, cell.column.clone())
                }
            };
            nulled.insert((row, column));
        }
        if nulled.is_empty() {
            break;
        }
        for (row, column) in nulled {
            let original = rows
                .get(row as usize)
                .and_then(|r| r.field(&column).ok().cloned())
                .unwrap_or(Value::Null);
            fixes.insert(
                (row, column.clone()),
                Fix {
                    table: dc.table.clone(),
                    column: column.clone(),
                    row_id: row,
                    original,
                    repaired: Value::Null,
                    confidence: NULL_OUT_CONFIDENCE,
                    rule: "dc:null_out".to_string(),
                },
            );
        }
    }

    section.fixes = fixes.into_values().collect();
    section.unrepaired = unrepaired;
    section.duration = started.elapsed();
    Ok(section)
}
