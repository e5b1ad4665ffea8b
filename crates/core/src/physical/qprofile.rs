//! Per-plan-node execution profiles — the data behind `EXPLAIN ANALYZE`.
//!
//! When tracing is enabled, the executor wraps every plan node it runs in a
//! profiling frame and assembles a [`ProfileNode`] tree mirroring the plan
//! shape actually executed: fused `Select` chains collapse into their
//! consumer, a recognized group-fold collapses `Nest`+`Reduce` into one
//! `GroupFold` root, and memoized DAG nodes appear as `cached` leaves at
//! every reuse site. Each node folds in the [`StageReport`]s its own
//! execution pushed (shuffle volume, worker-busy time, imbalance, idle
//! fraction), the strategy decisions made at that node, and the
//! expression-compilation counts it contributed — so a regression localizes
//! to a node, not a number.
//!
//! [`StageReport`]: cleanm_exec::StageReport

use std::time::Duration;

use cleanm_trace::json;

/// One executed plan node with its measured behaviour. Children are the
/// node's data inputs in plan order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Operator kind: `Scan`, `Select`, `Unnest`, `Nest`, `Join`,
    /// `ThetaJoin`, `Reduce[...]`, or `GroupFold` (a collapsed
    /// `Nest`+`Reduce`).
    pub op: String,
    /// Short rendering of the node's defining expression (key, predicate,
    /// head, or table), truncated for display.
    pub detail: String,
    /// Rows entering the node (its children's combined output; for a leaf,
    /// its own output).
    pub rows_in: u64,
    /// Rows the node produced.
    pub rows_out: u64,
    /// Wall-clock time for the node *including* its children.
    pub wall_ns: u64,
    /// Worker-busy nanoseconds summed over the exec stages attributed to
    /// this node alone (children excluded).
    pub busy_ns: u64,
    /// Records this node's own stages physically moved between partitions.
    pub shuffled: u64,
    /// Worst max/mean load imbalance among this node's own stages
    /// (1.0 = balanced; see `StageReport::imbalance`).
    pub max_imbalance: f64,
    /// Worst idle fraction among this node's own stages (0.0 = all workers
    /// busy for the whole stage; see `StageReport::idle_fraction`).
    pub idle_fraction: f64,
    /// Plan-node expressions this node compiled to slot-resolved programs.
    pub compiled_exprs: usize,
    /// `Select` passes fused into this node's sweep (never materialized).
    pub fused_selects: usize,
    /// Rows this node processed through columnar kernels (whole-column
    /// sweeps over typed batches) instead of row-at-a-time evaluation.
    pub vectorized_rows: u64,
    /// Execution flags: `cached` (reused a memoized result), `shared`
    /// (materialized for multiple consumers), `fold-groups` (streaming
    /// grouped aggregation), `materialize-groups` (group lists built),
    /// `vectorized` (columnar kernel sweep).
    pub flags: Vec<String>,
    /// Strategy decisions made at this node, as
    /// `"Strategy (reason)"` strings.
    pub strategies: Vec<String>,
    /// Labels of the exec stages attributed to this node, in push order.
    pub stage_ops: Vec<String>,
    /// Input nodes, in plan order.
    pub children: Vec<ProfileNode>,
    /// Half-open index range of this node's execution in the run's stage
    /// log (used for parent/child stage attribution).
    pub(crate) stage_range: (usize, usize),
    /// Half-open index range of this node's execution in the run's
    /// decision log.
    pub(crate) decision_range: (usize, usize),
}

impl ProfileNode {
    /// Wall-clock time including children.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_ns)
    }

    /// Total nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::size).sum::<usize>()
    }

    /// `(compiled, fused)` totals over the subtree.
    pub fn subtree_exprs(&self) -> (usize, usize) {
        let mut t = (self.compiled_exprs, self.fused_selects);
        for c in &self.children {
            let s = c.subtree_exprs();
            t.0 += s.0;
            t.1 += s.1;
        }
        t
    }

    /// Wall time minus the children's: what this node spent itself.
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.wall_ns).sum();
        self.wall_ns.saturating_sub(children)
    }

    /// Vectorized-row total over the subtree.
    pub fn subtree_vectorized(&self) -> u64 {
        self.vectorized_rows
            + self
                .children
                .iter()
                .map(ProfileNode::subtree_vectorized)
                .sum::<u64>()
    }

    /// Shuffled-record total over the subtree.
    pub fn subtree_shuffled(&self) -> u64 {
        self.shuffled
            + self
                .children
                .iter()
                .map(ProfileNode::subtree_shuffled)
                .sum::<u64>()
    }

    /// Depth-first search for the first node whose `op` equals `op`.
    pub fn find(&self, op: &str) -> Option<&ProfileNode> {
        if self.op == op {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(op))
    }

    fn render_into(&self, out: &mut String, prefix: &str, is_last: bool, is_root: bool) {
        if !is_root {
            out.push_str(prefix);
            out.push_str(if is_last { "└─ " } else { "├─ " });
        }
        out.push_str(&self.op);
        if !self.detail.is_empty() {
            out.push(' ');
            out.push_str(&self.detail);
        }
        out.push_str(&format!(
            "  rows {}→{}  {:.3}ms",
            self.rows_in,
            self.rows_out,
            self.wall_ns as f64 / 1e6
        ));
        if self.busy_ns > 0 {
            out.push_str(&format!("  busy {:.3}ms", self.busy_ns as f64 / 1e6));
        }
        if self.shuffled > 0 {
            out.push_str(&format!("  shuffle {}", self.shuffled));
        }
        if self.max_imbalance > 1.0 {
            out.push_str(&format!("  imb {:.2}x", self.max_imbalance));
        }
        if self.idle_fraction > 0.0 {
            out.push_str(&format!("  idle {:.0}%", self.idle_fraction * 100.0));
        }
        let (c, f) = (self.compiled_exprs, self.fused_selects);
        if c + f > 0 {
            let mut parts = Vec::new();
            if c > 0 {
                parts.push(format!("{c} compiled"));
            }
            if f > 0 {
                parts.push(format!("{f} fused"));
            }
            out.push_str(&format!("  exprs[{}]", parts.join(", ")));
        }
        if self.vectorized_rows > 0 {
            out.push_str(&format!("  vec {}", self.vectorized_rows));
        }
        let mut tags: Vec<String> = self.flags.clone();
        tags.extend(self.strategies.iter().cloned());
        if !tags.is_empty() {
            out.push_str(&format!("  [{}]", tags.join("; ")));
        }
        if !self.stage_ops.is_empty() {
            out.push_str(&format!("  via {}", self.stage_ops.join(", ")));
        }
        out.push('\n');
        let child_prefix = if is_root {
            String::new()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "│  " })
        };
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == n, false);
        }
    }

    /// JSON object for this subtree.
    pub fn to_json(&self) -> String {
        let strings = |items: &[String]| json::array(items.iter().map(|s| json::string(s)));
        json::object([
            ("op", json::string(&self.op)),
            ("detail", json::string(&self.detail)),
            ("rows_in", self.rows_in.to_string()),
            ("rows_out", self.rows_out.to_string()),
            ("wall_ns", self.wall_ns.to_string()),
            ("busy_ns", self.busy_ns.to_string()),
            ("shuffled", self.shuffled.to_string()),
            ("max_imbalance", json::num(self.max_imbalance)),
            ("idle_fraction", json::num(self.idle_fraction)),
            ("compiled_exprs", self.compiled_exprs.to_string()),
            ("fused_selects", self.fused_selects.to_string()),
            ("vectorized_rows", self.vectorized_rows.to_string()),
            ("flags", strings(&self.flags)),
            ("strategies", strings(&self.strategies)),
            ("stages", strings(&self.stage_ops)),
            (
                "children",
                json::array(self.children.iter().map(ProfileNode::to_json)),
            ),
        ])
    }
}

/// Figure 3's runtime split, read off executed-plan trees: the self time
/// ([`ProfileNode::self_ns`]) of the nodes doing each kind of work, summed.
/// Everything else (scans, filters, plain reduces) is in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSplit {
    /// `Nest`, `GroupFold` and `Join` nodes: grouping and the shuffles
    /// behind it.
    pub grouping: Duration,
    /// The block-pair sweep — its `Reduce` and the `fused-pairs` `Unnest`
    /// under it — and `ThetaJoin` nodes: pair enumeration and verification.
    pub similarity: Duration,
}

impl PhaseSplit {
    /// The split over every profile of a traced run (zero for an
    /// untraced one, whose report carries no profiles).
    pub fn of(profiles: &[QueryProfile]) -> PhaseSplit {
        let mut split = PhaseSplit::default();
        for p in profiles {
            split.add(&p.root);
        }
        split
    }

    fn add(&mut self, node: &ProfileNode) {
        let fused_pairs = |n: &ProfileNode| n.flags.iter().any(|f| f == "fused-pairs");
        let sweep = node.op.starts_with("Reduce") && node.children.iter().any(fused_pairs);
        let phase = match node.op.as_str() {
            "Nest" | "GroupFold" | "Join" => Some(&mut self.grouping),
            "ThetaJoin" => Some(&mut self.similarity),
            _ if sweep || fused_pairs(node) => Some(&mut self.similarity),
            _ => None,
        };
        if let Some(phase) = phase {
            *phase += Duration::from_nanos(node.self_ns());
        }
        for c in &node.children {
            self.add(c);
        }
    }
}

/// The execution profile of one cleaning operator's plan: an
/// `EXPLAIN ANALYZE`-style tree rooted at the operator's reduce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// The cleaning operator the plan belongs to (e.g. `"FD
    /// [orderkey,linenumber] -> [suppkey]"`).
    pub op: String,
    /// Root of the executed-plan tree.
    pub root: ProfileNode,
}

impl QueryProfile {
    /// Render the tree, one line per node, children indented under parents.
    pub fn render(&self) -> String {
        let mut out = format!("-- {}\n", self.op);
        self.root.render_into(&mut out, "", true, true);
        out
    }

    /// JSON object `{"op": ..., "root": {...}}`.
    pub fn to_json(&self) -> String {
        json::object([
            ("op", json::string(&self.op)),
            ("root", self.root.to_json()),
        ])
    }
}

/// Truncate a plan-expression rendering for one-line display.
pub(crate) fn clip(s: impl ToString) -> String {
    let s = s.to_string();
    const MAX: usize = 56;
    if s.chars().count() <= MAX {
        return s;
    }
    let mut out: String = s.chars().take(MAX).collect();
    out.push('…');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(op: &str, rows: u64) -> ProfileNode {
        ProfileNode {
            op: op.to_string(),
            rows_in: rows,
            rows_out: rows,
            max_imbalance: 1.0,
            ..ProfileNode::default()
        }
    }

    #[test]
    fn render_nests_children() {
        let mut root = leaf("Reduce[bag]", 3);
        root.rows_in = 10;
        let mut select = leaf("Select", 10);
        select.children.push(leaf("Scan", 100));
        root.children.push(select);
        let p = QueryProfile {
            op: "test".into(),
            root,
        };
        let text = p.render();
        assert!(text.contains("-- test"));
        assert!(text.contains("Reduce[bag]"));
        assert!(text.contains("└─ Select"));
        assert!(text.contains("   └─ Scan"));
    }

    #[test]
    fn json_is_nested_and_escaped() {
        let mut root = leaf("Join", 5);
        root.detail = "a\"b".into();
        root.children.push(leaf("Scan", 5));
        root.children.push(leaf("Scan", 5));
        let js = root.to_json();
        assert!(js.contains("\"op\": \"Join\""));
        assert!(js.contains("a\\\"b"));
        assert_eq!(js.matches("\"op\": \"Scan\"").count(), 2);
    }

    #[test]
    fn subtree_rollups() {
        let mut root = leaf("Nest", 4);
        root.shuffled = 10;
        root.compiled_exprs = 2;
        let mut child = leaf("Scan", 8);
        child.shuffled = 3;
        child.fused_selects = 1;
        root.children.push(child);
        assert_eq!(root.subtree_shuffled(), 13);
        assert_eq!(root.subtree_exprs(), (2, 1));
        assert_eq!(root.size(), 2);
        assert!(root.find("Scan").is_some());
        assert!(root.find("Join").is_none());
    }

    #[test]
    fn phase_split_sums_self_times_by_kind() {
        let timed = |op: &str, wall_ns: u64, children: Vec<ProfileNode>| ProfileNode {
            op: op.to_string(),
            wall_ns,
            children,
            ..ProfileNode::default()
        };
        // A pair sweep over a block Nest over a scan: 100 = 60 sweep + 40
        // under the Unnest, of which 30 are the Nest and 5 the scan.
        let nest = timed("Nest", 30, vec![timed("Scan", 5, vec![])]);
        let mut unnest = timed("Unnest", 40, vec![nest]);
        unnest.flags.push("fused-pairs".into());
        let dedup = timed("Reduce[Bag]", 100, vec![unnest]);
        let fd = timed("GroupFold", 20, vec![timed("Scan", 8, vec![])]);
        let profile = |root| QueryProfile {
            op: "op".into(),
            root,
        };
        let split = PhaseSplit::of(&[profile(dedup), profile(fd)]);
        assert_eq!(split.grouping, Duration::from_nanos(25 + 12));
        assert_eq!(split.similarity, Duration::from_nanos(60 + 10));
        // A plain Reduce is neither.
        assert_eq!(
            PhaseSplit::of(&[profile(timed("Reduce[Bag]", 9, vec![]))]),
            PhaseSplit::default()
        );
    }

    #[test]
    fn clip_truncates_long_expressions() {
        assert_eq!(clip("short"), "short");
        let long = "x".repeat(200);
        let clipped = clip(&long);
        assert!(clipped.chars().count() <= 57);
        assert!(clipped.ends_with('…'));
    }
}
