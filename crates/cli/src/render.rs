//! Deterministic renderings of a [`CleaningReport`] for golden fixtures:
//! no durations, rows sorted, stable field order. `cleanm explain` and
//! `cleanm run` print these plus the timing-carrying summary.

use cleanm_core::engine::CleaningReport;
use cleanm_core::OpKind;

fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Fd => "fd",
        OpKind::Dedup => "dedup",
        OpKind::TermValidation => "term_validation",
        OpKind::Dc => "dc",
        OpKind::Select => "select",
    }
}

/// Replace `0x…` pointer addresses (shared-node identity tags in EXPLAIN
/// text) with stable sequential ids, so plan renderings are byte-identical
/// across runs.
fn stabilize_addresses(text: &str) -> String {
    let mut seen: Vec<String> = Vec::new();
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("0x") {
        out.push_str(&rest[..pos]);
        let hex = &rest[pos + 2..];
        let len = hex.chars().take_while(|c| c.is_ascii_hexdigit()).count();
        if len == 0 {
            out.push_str("0x");
            rest = hex;
            continue;
        }
        let addr = &rest[pos..pos + 2 + len];
        let id = match seen.iter().position(|a| a == addr) {
            Some(i) => i,
            None => {
                seen.push(addr.to_string());
                seen.len() - 1
            }
        };
        out.push_str(&format!("n{id}"));
        rest = &rest[pos + 2 + len..];
    }
    out.push_str(rest);
    out
}

/// The physical plan plus the optimizer's strategy decisions and
/// compilation counters — everything `expected.plan` pins.
pub fn render_plan(report: &CleaningReport) -> String {
    let mut out = String::new();
    out.push_str(stabilize_addresses(report.plan_text.trim_end()).as_str());
    out.push('\n');
    for d in &report.decisions {
        out.push_str(&format!("decision: {d}\n"));
    }
    out.push_str(&format!(
        "exprs: {} compiled, {} fused select(s)\n",
        report.exprs.compiled, report.exprs.fused_selects
    ));
    out
}

/// The cleaning outcome — everything `expected.report` pins. Op outputs are
/// sorted textually so blocking-order differences cannot flake the fixture.
pub fn render_report(report: &CleaningReport) -> String {
    let mut out = format!("profile: {}\n", report.profile);
    for op in &report.ops {
        out.push_str(&format!(
            "op {} ({}): {} output row(s)\n",
            op.label,
            kind_name(op.kind),
            op.output.len()
        ));
        let mut rows: Vec<String> = op.output.iter().map(|v| format!("  {v}")).collect();
        rows.sort();
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
    }
    let mut ids = report.violating_ids.clone();
    ids.sort_unstable();
    out.push_str(&format!("violating ids: {ids:?}\n"));
    let mut repairs: Vec<String> = report
        .repairs
        .iter()
        .map(|r| format!("repair: {} -> {}", r.term, r.suggestion))
        .collect();
    repairs.sort();
    repairs.dedup();
    for r in repairs {
        out.push_str(&r);
        out.push('\n');
    }
    if report.exprs.vectorized_rows > 0 {
        out.push_str(&format!(
            "vectorized rows: {}\n",
            report.exprs.vectorized_rows
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_become_stable_ids() {
        let t = "Nest key=a (node@0xdeadbeef)\nNest key=b (node@0x1234)\nagain 0xdeadbeef";
        assert_eq!(
            stabilize_addresses(t),
            "Nest key=a (node@n0)\nNest key=b (node@n1)\nagain n0"
        );
        assert_eq!(stabilize_addresses("no addresses"), "no addresses");
        assert_eq!(stabilize_addresses("bare 0x tail"), "bare 0x tail");
    }
}
