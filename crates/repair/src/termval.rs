//! CLUSTER BY repairs: replace every occurrence of a dirty term with its
//! best dictionary suggestion, confidence-scored by string similarity.

use cleanm_core::calculus::desugar::ROWID_FIELD;
use cleanm_core::engine::{Fix, Repair, RepairSection};
use cleanm_core::lang::Expr;
use cleanm_core::quality::select_best_repairs;
use cleanm_text::Metric;
use cleanm_values::Value;

use crate::column_of;

/// Plan CLUSTER BY repairs from the op's `{term, repair}` candidate output
/// and the rows of `table`, whose column the clause's `term` names.
///
/// Per term the best suggestion wins, picked by
/// [`select_best_repairs`] (highest similarity, ties to the
/// lexicographically smaller candidate); a term whose best suggestion is
/// itself — a clean dictionary term — gets no fix. Every cell holding a
/// dirty term becomes one [`Fix`] with `confidence = similarity`. A
/// derived term expression cannot be inverted into a cell assignment, so
/// its output counts as unrepaired.
pub(crate) fn plan(
    table: &str,
    term: &Expr,
    output: &[Value],
    rows: &[Value],
    metric: Metric,
) -> RepairSection {
    let mut section = RepairSection::default();
    let Some(column) = column_of(term) else {
        section.unrepaired = output.len();
        return section;
    };
    let mut candidates = Vec::with_capacity(output.len());
    for v in output {
        let (Ok(term), Ok(repair)) = (v.field("term"), v.field("repair")) else {
            section.unrepaired += 1;
            continue;
        };
        candidates.push(Repair {
            term: term.to_text(),
            suggestion: repair.to_text(),
        });
    }
    let mut best = select_best_repairs(&candidates, metric);
    best.retain(|term, (suggestion, _)| term != suggestion);
    for row in rows {
        let (Ok(current), Ok(rowid)) = (
            row.field(&column),
            row.field(ROWID_FIELD).and_then(|r| r.as_int()),
        ) else {
            continue;
        };
        let Ok(text) = current.as_str() else {
            continue;
        };
        if let Some((suggestion, sim)) = best.get(text) {
            section.fixes.push(Fix {
                table: table.to_string(),
                column: column.clone(),
                row_id: rowid,
                original: current.clone(),
                repaired: Value::str(suggestion),
                confidence: *sim,
                rule: "cluster:term".to_string(),
            });
        }
    }
    section
}
