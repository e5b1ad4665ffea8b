//! Per-layer numbers gathered during the traced run: timing samples (the
//! median is reported), counts (which must repeat exactly from iteration to
//! iteration) and the plan-node self times read from `report.profiles`.

use std::collections::BTreeMap;

use cleanm_core::{CleaningReport, ProfileNode};

use crate::spans::SpanRec;
use crate::stats::median_or_zero;

/// What the runs of one iteration added up to.
#[derive(Default)]
struct Iteration {
    runs: u64,
    records_shuffled: u64,
    comparisons: u64,
    pairs_enumerated: u64,
    pairs_kept: u64,
    vectorized_rows: u64,
    interpreted_exprs: u64,
    /// The engine tracer's `execute` spans.
    execute_ns: u64,
    /// Wall time of the profile trees' roots, i.e. the sum of all node self
    /// times (a node's self time is its wall time minus its children's).
    attributed_ns: u64,
    /// The benchmark's own clock around the same runs.
    run_ns: u64,
}

#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
    /// Counts that differed between two iterations of this run.
    pub unstable: Vec<&'static str>,
    node_self_ns: BTreeMap<String, u64>,
    iterations: u64,
    cur: Iteration,
}

impl Layers {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        match self.counts.insert(name, value) {
            Some(before) if before != value && !self.unstable.contains(&name) => {
                self.unstable.push(name)
            }
            _ => {}
        }
    }

    /// Fold one traced run into the current iteration. `execute_ns` is the
    /// engine tracer's `execute` span for it, `run_ns` the benchmark's clock.
    pub fn absorb_report(&mut self, report: &CleaningReport, execute_ns: u64, run_ns: u64) {
        let cur = &mut self.cur;
        cur.runs += 1;
        cur.records_shuffled += report.metrics.records_shuffled;
        cur.comparisons += report.metrics.comparisons;
        cur.vectorized_rows += report.exprs.vectorized_rows;
        cur.interpreted_exprs += report.exprs.interpreted as u64;
        cur.execute_ns += execute_ns;
        cur.run_ns += run_ns;
        for profile in &report.profiles {
            let root = &profile.root;
            cur.attributed_ns += root.wall_ns;
            // A pair pipeline ends in a Reduce over nested Unnests: what
            // enters the Reduce was enumerated, what leaves it was kept.
            if root.children.first().is_some_and(|c| c.op == "Unnest") {
                cur.pairs_enumerated += root.rows_in;
                cur.pairs_kept += root.rows_out;
            }
            add_self_times(&profile.op, root, &mut self.node_self_ns);
        }
    }

    /// Fold a run that has no report (the DC operator API).
    pub fn absorb_counts(&mut self, records_shuffled: u64, comparisons: u64, run_ns: u64) {
        self.cur.runs += 1;
        self.cur.records_shuffled += records_shuffled;
        self.cur.comparisons += comparisons;
        self.cur.run_ns += run_ns;
    }

    /// Close the iteration. `frontend_ns` is what the benchmark's spans
    /// around parse, desugar, normalize and lower+share measured for the
    /// same query texts.
    pub fn end_iteration(&mut self, frontend_ns: u64) {
        let cur = std::mem::take(&mut self.cur);
        if cur.runs == 0 {
            return;
        }
        self.iterations += 1;
        self.count("exec.records_shuffled", cur.records_shuffled);
        self.count("exec.comparisons", cur.comparisons);
        self.count("physical.pairs_enumerated", cur.pairs_enumerated);
        self.count("physical.pairs_kept", cur.pairs_kept);
        self.count("physical.vectorized_rows", cur.vectorized_rows);
        self.count("physical.interpreted_exprs", cur.interpreted_exprs);
        if cur.execute_ns > 0 {
            self.sample(
                "physical.unattributed_pct",
                100.0 * (1.0 - cur.attributed_ns as f64 / cur.execute_ns as f64),
            );
            let outside_frontend = cur.run_ns.saturating_sub(frontend_ns) as f64;
            self.sample(
                "trace.disagree_pct",
                100.0 * (outside_frontend - cur.execute_ns as f64) / outside_frontend,
            );
        }
    }

    /// The plan nodes with the largest mean self time per iteration, largest
    /// first.
    pub fn top_nodes(&self, n: usize) -> Vec<(String, f64)> {
        let mut nodes: Vec<(String, f64)> = self
            .node_self_ns
            .iter()
            .map(|(k, ns)| (k.clone(), *ns as f64 / 1e6 / self.iterations.max(1) as f64))
            .collect();
        nodes.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        nodes.truncate(n);
        nodes
    }

    /// Every sampled and counted metric by name: medians and last counts.
    pub fn finish(mut self, spans: &[SpanRec]) -> BTreeMap<String, f64> {
        let ms = 1e-6;
        let us = 1e-3;
        for (metric, span, scale) in [
            ("lang.parse_us", "lang.parse", us),
            ("calculus.desugar_us", "calculus.desugar", us),
            ("calculus.normalize_us", "calculus.normalize", us),
            ("algebra.lower_share_us", "algebra.lower_share", us),
            ("engine.register_ms", "register", ms),
            ("engine.execute_ms", "warm_run", ms),
            ("formats.csv_read_ms", "csv_read", ms),
            ("formats.colbin_read_ms", "colbin_read", ms),
            ("incr.install_ms", "install", ms),
        ] {
            for total in per_iteration_ns(spans, span) {
                self.sample(metric, total * scale);
            }
        }
        // Sixty appends and refreshes make one iteration; report one.
        for (metric, span) in [("incr.append_ms", "append"), ("incr.refresh_ms", "refresh")] {
            for d in crate::spans::durations_ns(spans, span) {
                self.sample(metric, d * ms);
            }
        }
        let own = crate::spans::self_times_ns(spans);
        for (i, s) in spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "iteration")
        {
            self.sample(
                "trace.accounted_pct",
                100.0 * (1.0 - own[i] as f64 / s.duration_ns() as f64),
            );
        }

        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (i, (_, self_ms)) in self.top_nodes(5).into_iter().enumerate() {
            out.insert(format!("physical.node_self_ms.top{}", i + 1), self_ms);
        }
        for (name, mut samples) in std::mem::take(&mut self.samples) {
            out.insert(name.to_string(), median_or_zero(&mut samples));
        }
        for (name, value) in &self.counts {
            out.insert(name.to_string(), *value as f64);
        }
        let cold = per_iteration_ns(spans, "run");
        if !cold.is_empty() && out.contains_key("engine.execute_ms") {
            let cold_ms = median_or_zero(&mut cold.into_iter().map(|d| d * ms).collect::<Vec<_>>());
            out.insert(
                "engine.cold_minus_warm_ms".into(),
                cold_ms - out["engine.execute_ms"],
            );
        }
        let (enumerated, kept) = (
            out.get("physical.pairs_enumerated").copied().unwrap_or(0.0),
            out.get("physical.pairs_kept").copied().unwrap_or(0.0),
        );
        if enumerated > 0.0 {
            out.insert("physical.pair_yield".into(), kept / enumerated);
        }
        out
    }
}

fn add_self_times(op: &str, node: &ProfileNode, out: &mut BTreeMap<String, u64>) {
    let children: u64 = node.children.iter().map(|c| c.wall_ns).sum();
    let mut label = format!("{op}/{} {}", node.op, node.detail);
    if let Some((cut, _)) = label.char_indices().nth(72) {
        label.truncate(cut);
    }
    *out.entry(label).or_default() += node.wall_ns.saturating_sub(children);
    for c in &node.children {
        add_self_times(op, c, out);
    }
}

/// Per iteration, the summed duration of the spans with this name.
fn per_iteration_ns(spans: &[SpanRec], name: &str) -> Vec<f64> {
    let mut by_iter: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_iter.entry(s.iter).or_default() += s.duration_ns() as f64;
    }
    by_iter.into_values().collect()
}
