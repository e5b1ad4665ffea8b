//! Plan nodes of the nested relational algebra (Table 1 of the paper).

use std::sync::Arc;

use crate::calculus::desugar::ROWID_FIELD;
use crate::calculus::subst::free_vars;
use crate::calculus::{BinOp, CalcExpr, FilterAlgo, MonoidKind};

/// Numeric key hints for a theta join: which scalar each side's pruning key
/// comes from and how cells of the join matrix relate.
#[derive(Debug, Clone, PartialEq)]
pub struct ThetaHint {
    pub left_key: CalcExpr,
    pub right_key: CalcExpr,
    pub kind: HintKind,
}

impl ThetaHint {
    /// The hint a pair predicate implies for the join of the rows bound to
    /// `left_var` with those bound to `right_var`: its first strict
    /// inequality between an expression over one variable and an expression
    /// over the other, read as `smaller < larger`. The flag is set when the
    /// smaller side is `right_var`'s — the join must then take its inputs in
    /// the opposite order. No such conjunct means no cell can be pruned, and
    /// the row ids key the matrix for load balancing alone.
    pub fn derive(conjuncts: &[CalcExpr], left_var: &str, right_var: &str) -> (ThetaHint, bool) {
        let over = |e: &CalcExpr, var: &str| free_vars(e).iter().eq([var]);
        let rowid = |var| CalcExpr::proj(CalcExpr::var(var), ROWID_FIELD);
        let unpruned = (rowid(left_var), rowid(right_var), HintKind::Any, false);
        let strict = conjuncts.iter().find_map(|c| {
            let (small, large) = match c {
                CalcExpr::BinOp(BinOp::Lt, l, r) => (&**l, &**r),
                CalcExpr::BinOp(BinOp::Gt, l, r) => (&**r, &**l),
                _ => return None,
            };
            let swapped = over(small, right_var) && over(large, left_var);
            (swapped || (over(small, left_var) && over(large, right_var))).then(|| {
                (
                    small.clone(),
                    large.clone(),
                    HintKind::LeftLessThanRight,
                    swapped,
                )
            })
        });
        let (left_key, right_key, kind, swapped) = strict.unwrap_or(unpruned);
        let hint = ThetaHint {
            left_key,
            right_key,
            kind,
        };
        (hint, swapped)
    }
}

/// How (left, right) key ranges must relate for a matrix cell to possibly
/// produce output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintKind {
    /// Predicate implies `left.key < right.key` (rule ψ's `t1.price <
    /// t2.price`): cells with `l_min ≥ r_max` are pruned.
    LeftLessThanRight,
    /// No pruning possible; all cells survive (pure load balancing).
    Any,
}

impl HintKind {
    /// The cell-compatibility check handed to the runtime's theta joins.
    pub fn compatible(&self, l: (f64, f64), r: (f64, f64)) -> bool {
        match self {
            HintKind::LeftLessThanRight => l.0 < r.1,
            HintKind::Any => true,
        }
    }

    /// [`HintKind::compatible`] with both range maxes widened by `widen`
    /// before the check — the sound form for prefix-key (string) domains,
    /// where distinct values can collide onto one key
    /// ([`STRING_KEY_RESOLUTION`]). Widening only ever weakens pruning,
    /// never unsoundly strengthens it. This is the single place the
    /// widening rule lives; the executor builds its checks from it.
    pub fn compat_fn(self, widen: f64) -> impl Fn((f64, f64), (f64, f64)) -> bool + Copy {
        move |l: (f64, f64), r: (f64, f64)| self.compatible((l.0, l.1 + widen), (r.0, r.1 + widen))
    }
}

/// The widening a theta-pruning check needs for the given key domain:
/// zero for exact numeric keys, one key-resolution step for prefix-key
/// (string) domains.
pub fn theta_widen(text: bool) -> f64 {
    if text {
        STRING_KEY_RESOLUTION
    } else {
        0.0
    }
}

/// Bytes of a string folded into its theta-join key ([`string_key`]):
/// 48 bits, exact in an `f64` mantissa.
pub const STRING_KEY_BYTES: usize = 6;

/// Minimum spacing between the keys of strings that differ within the
/// prefix. Pruning over string-key ranges widens by this much
/// ([`theta_widen`]) to stay sound under prefix collisions.
pub const STRING_KEY_RESOLUTION: f64 = 1.0;

/// The order-preserving `f64` key a theta join prunes a string under: the
/// integer formed by its first [`STRING_KEY_BYTES`] bytes, big-endian. A
/// bytewise `a <= b` implies `string_key(a) <= string_key(b)`, and strings
/// that differ within the prefix are at least [`STRING_KEY_RESOLUTION`]
/// apart — but distinct strings sharing the prefix collide onto one key,
/// which is why pruning widens.
pub fn string_key(s: &str) -> f64 {
    let mut k: u64 = 0;
    let bytes = s.as_bytes();
    for i in 0..STRING_KEY_BYTES {
        k = (k << 8) | u64::from(bytes.get(i).copied().unwrap_or(0));
    }
    k as f64
}

/// A nested-relational-algebra operator. Plans form a DAG via `Arc` — after
/// the sharing rewrite, common sub-plans are literally the same node, and
/// the executor materializes each node once.
///
/// Variable scoping: every operator *extends* the row environment of its
/// input. `Scan` binds `var` to each source row; `Nest` replaces the
/// environment with `group_var` bound to `{key, partition}`; `Unnest` adds
/// `var` per element of `path`.
#[derive(Debug, Clone, PartialEq)]
pub enum Alg {
    /// Bind each row of a base table to `var` (σ-ready scan).
    Scan { table: String, var: String },
    /// Keep environments satisfying `pred` (Table 1's σ).
    Select { input: Arc<Alg>, pred: CalcExpr },
    /// Group by blocker key (Table 1's Γ / the filter monoid): evaluates
    /// `key` (scalar, or list → multi-assignment) and `item` per input
    /// environment, groups items by key, and binds `group_var` to
    /// `{key, partition}` structs.
    Nest {
        input: Arc<Alg>,
        algo: FilterAlgo,
        key: CalcExpr,
        item: CalcExpr,
        group_var: String,
    },
    /// Iterate the collection `path` binding `var` (Table 1's μ).
    Unnest {
        input: Arc<Alg>,
        path: CalcExpr,
        var: String,
    },
    /// Equi-join two plans on scalar key expressions (Table 1's ⋈ with a
    /// conjunctive equality predicate).
    Join {
        left: Arc<Alg>,
        right: Arc<Alg>,
        left_key: CalcExpr,
        right_key: CalcExpr,
    },
    /// Theta join with an arbitrary predicate over the two environments and
    /// numeric pruning hints (§6's custom operator).
    ThetaJoin {
        left: Arc<Alg>,
        right: Arc<Alg>,
        /// Predicate evaluated over the concatenated environment.
        pred: CalcExpr,
        hint: ThetaHint,
    },
    /// Evaluate `head` per environment and fold with `monoid`
    /// (Table 1's Δ).
    Reduce {
        input: Arc<Alg>,
        monoid: MonoidKind,
        head: CalcExpr,
    },
}

impl Alg {
    /// Unwrap a stack of `Select`s down to its `Scan`, collecting the filter
    /// predicates (outermost first): `(table, row_var, filters)`. This is
    /// the `WHERE`-over-one-table input every cleaning operator reads;
    /// lowering and the incremental engine recognize it with this.
    pub fn scan_with_filters(&self) -> Option<(String, String, Vec<CalcExpr>)> {
        let mut filters = Vec::new();
        let mut plan = self;
        loop {
            match plan {
                Alg::Select { input, pred } => {
                    filters.push(pred.clone());
                    plan = input;
                }
                Alg::Scan { table, var } => {
                    return Some((table.clone(), var.clone(), filters));
                }
                _ => return None,
            }
        }
    }

    /// Match the pair pipeline `Select* ← Unnest b ← Unnest a ← X` beneath
    /// a `Reduce` (`self` is the Reduce's input) whose second path does not
    /// read the first variable: the plan of every pairwise cleaning
    /// operator. DEDUP and a blocked DC unnest one `Nest`'s `g.partition`
    /// twice; CLUSTER BY unnests the two sides of a block `Join`. The batch
    /// executor sweeps the shape as one pass, the incremental engine keeps
    /// its two sides indexed. `None` for a lone `Unnest`, for a dependent
    /// second path (nested collections), when a variable would shadow
    /// another, and when a node of the chain is a shared DAG node
    /// (`is_shared`), whose materialized result has other consumers.
    pub fn pair_pipeline<'p>(
        self: &'p Arc<Alg>,
        is_shared: impl Fn(&Arc<Alg>) -> bool,
    ) -> Option<PairShape<'p>> {
        let mut preds = Vec::new();
        let mut cur = self;
        while let Alg::Select { input, pred } = &**cur {
            if is_shared(cur) {
                return None;
            }
            preds.push(pred);
            cur = input;
        }
        preds.reverse();
        let Alg::Unnest {
            input: inner,
            path: path_b,
            var: var_b,
        } = &**cur
        else {
            return None;
        };
        let Alg::Unnest {
            input,
            path: path_a,
            var: var_a,
        } = &**inner
        else {
            return None;
        };
        let outer = env_layout(input);
        let independent = !free_vars(path_b).contains(var_a)
            && var_a != var_b
            && !outer.contains(var_a)
            && !outer.contains(var_b);
        (independent && !is_shared(cur) && !is_shared(inner)).then_some(PairShape {
            input,
            path_a,
            var_a,
            path_b,
            var_b,
            preds,
        })
    }

    /// Match the grouped consumer `Select* ← Nest` beneath a `Reduce`
    /// (`self` is the Reduce's input): the plan of an FD and of a
    /// `GROUP BY … HAVING`. Returns the Nest's `(input, key, item,
    /// group_var)` and the Select predicates above it in evaluation order
    /// (innermost first). `None` when a node of the chain is a shared DAG
    /// node (`is_shared`), whose materialized result has other consumers.
    #[allow(clippy::type_complexity)]
    pub fn group_pipeline(
        self: &Arc<Alg>,
        is_shared: impl Fn(&Arc<Alg>) -> bool,
    ) -> Option<(&Arc<Alg>, &CalcExpr, &CalcExpr, &str, Vec<&CalcExpr>)> {
        let mut preds = Vec::new();
        let mut cur = self;
        while let Alg::Select { input, pred } = &**cur {
            if is_shared(cur) {
                return None;
            }
            preds.insert(0, pred);
            cur = input;
        }
        match &**cur {
            Alg::Nest {
                input,
                key,
                item,
                group_var,
                ..
            } if !is_shared(cur) => Some((input, key, item, group_var.as_str(), preds)),
            _ => None,
        }
    }

    /// The plan's nodes, each after the node that reads it.
    pub fn nodes(&self) -> Vec<&Alg> {
        let mut nodes = vec![self];
        let mut next = 0;
        while let Some(&node) = nodes.get(next) {
            match node {
                Alg::Scan { .. } => {}
                Alg::Select { input, .. }
                | Alg::Reduce { input, .. }
                | Alg::Unnest { input, .. }
                | Alg::Nest { input, .. } => nodes.push(input),
                Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
                    nodes.extend([&**left, &**right])
                }
            }
            next += 1;
        }
        nodes
    }

    /// Every base table the plan scans, once each.
    pub fn scanned_tables(&self) -> Vec<String> {
        let mut tables: Vec<String> = Vec::new();
        for node in self.nodes() {
            match node {
                Alg::Scan { table, .. } if !tables.contains(table) => tables.push(table.clone()),
                _ => {}
            }
        }
        tables
    }

    /// Indented one-operator-per-line rendering (EXPLAIN-style). Shared
    /// nodes are printed with their pointer tag so sharing is visible.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Alg::Scan { table, var } => {
                out.push_str(&format!("{pad}Scan {table} as {var}\n"));
            }
            Alg::Select { input, pred } => {
                out.push_str(&format!("{pad}Select {pred}\n"));
                input.explain_into(out, depth + 1);
            }
            Alg::Nest {
                input,
                algo,
                key,
                group_var,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Nest[{algo}] key={key} as {group_var} (node@{:p})\n",
                    std::ptr::from_ref(self)
                ));
                input.explain_into(out, depth + 1);
            }
            Alg::Unnest { input, path, var } => {
                out.push_str(&format!("{pad}Unnest {path} as {var}\n"));
                input.explain_into(out, depth + 1);
            }
            Alg::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                out.push_str(&format!("{pad}Join on {left_key} = {right_key}\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Alg::ThetaJoin {
                left, right, pred, ..
            } => {
                out.push_str(&format!("{pad}ThetaJoin on {pred}\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Alg::Reduce {
                input,
                monoid,
                head,
            } => {
                out.push_str(&format!("{pad}Reduce[{monoid:?}] {head}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }

    /// Structural fingerprint used by the sharing rewrite: equal fingerprints
    /// ⇒ equal sub-plans. Children are identified by their (already
    /// interned) Arc pointers, making this O(1) per node.
    pub fn fingerprint(&self) -> String {
        match self {
            Alg::Scan { table, var } => format!("scan:{table}:{var}"),
            Alg::Select { input, pred } => {
                format!("select:{:p}:{pred}", Arc::as_ptr(input))
            }
            Alg::Nest {
                input,
                algo,
                key,
                item,
                group_var,
            } => format!(
                "nest:{:p}:{algo}:{key}:{item}:{group_var}",
                Arc::as_ptr(input)
            ),
            Alg::Unnest { input, path, var } => {
                format!("unnest:{:p}:{path}:{var}", Arc::as_ptr(input))
            }
            Alg::Join {
                left,
                right,
                left_key,
                right_key,
            } => format!(
                "join:{:p}:{:p}:{left_key}:{right_key}",
                Arc::as_ptr(left),
                Arc::as_ptr(right)
            ),
            Alg::ThetaJoin {
                left, right, pred, ..
            } => format!(
                "theta:{:p}:{:p}:{pred}",
                Arc::as_ptr(left),
                Arc::as_ptr(right)
            ),
            Alg::Reduce {
                input,
                monoid,
                head,
            } => format!("reduce:{:p}:{monoid:?}:{head}", Arc::as_ptr(input)),
        }
    }
}

/// A pair pipeline recognized by [`Alg::pair_pipeline`].
pub struct PairShape<'p> {
    /// The producer of the block rows (the first `Unnest`'s input).
    pub input: &'p Arc<Alg>,
    pub path_a: &'p CalcExpr,
    pub var_a: &'p str,
    pub path_b: &'p CalcExpr,
    pub var_b: &'p str,
    /// The `Select` chain above the second `Unnest`, innermost first.
    pub preds: Vec<&'p CalcExpr>,
}

impl PairShape<'_> {
    /// How the fused node reads in profile trees.
    pub fn detail(&self) -> String {
        let PairShape {
            path_a,
            var_a,
            path_b,
            var_b,
            ..
        } = self;
        format!("{path_a} as {var_a} × {path_b} as {var_b}")
    }
}

/// The ordered variable names of the rows `plan` produces — the meaning of
/// each position of the executor's row environment. This mirrors exactly
/// how the executor builds rows: `Scan` binds its variable, `Select` passes
/// through, `Unnest` appends its variable, `Nest` rebinds to the group
/// variable, and both joins concatenate left-then-right.
pub fn env_layout(plan: &Alg) -> Vec<String> {
    match plan {
        Alg::Scan { var, .. } => vec![var.clone()],
        Alg::Select { input, .. } | Alg::Reduce { input, .. } => env_layout(input),
        Alg::Unnest { input, var, .. } => {
            let mut layout = env_layout(input);
            layout.push(var.clone());
            layout
        }
        Alg::Nest { group_var, .. } => vec![group_var.clone()],
        Alg::Join { left, right, .. } | Alg::ThetaJoin { left, right, .. } => {
            let mut layout = env_layout(left);
            layout.extend(env_layout(right));
            layout
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::CalcExpr;

    #[test]
    fn explain_renders_tree() {
        let scan = Arc::new(Alg::Scan {
            table: "t".into(),
            var: "d".into(),
        });
        let sel = Arc::new(Alg::Select {
            input: scan,
            pred: CalcExpr::boolean(true),
        });
        let plan = Alg::Reduce {
            input: sel,
            monoid: MonoidKind::Bag,
            head: CalcExpr::var("d"),
        };
        let text = plan.explain();
        assert!(text.contains("Reduce"));
        assert!(text.contains("Select"));
        assert!(text.contains("Scan t as d"));
    }

    #[test]
    fn hint_compatibility() {
        let lt = HintKind::LeftLessThanRight;
        assert!(lt.compatible((0.0, 5.0), (3.0, 10.0)));
        assert!(!lt.compatible((10.0, 20.0), (0.0, 5.0)));
        assert!(HintKind::Any.compatible((10.0, 20.0), (0.0, 5.0)));
    }

    #[test]
    fn fingerprints_distinguish_and_match() {
        let scan1 = Arc::new(Alg::Scan {
            table: "t".into(),
            var: "d".into(),
        });
        let scan2 = Arc::new(Alg::Scan {
            table: "t".into(),
            var: "d".into(),
        });
        assert_eq!(scan1.fingerprint(), scan2.fingerprint());
        let nest_a = Alg::Nest {
            input: scan1.clone(),
            algo: FilterAlgo::Exact,
            key: CalcExpr::proj(CalcExpr::var("d"), "address"),
            item: CalcExpr::var("d"),
            group_var: "g".into(),
        };
        let nest_b = Alg::Nest {
            input: scan1.clone(),
            algo: FilterAlgo::Exact,
            key: CalcExpr::proj(CalcExpr::var("d"), "name"),
            item: CalcExpr::var("d"),
            group_var: "g".into(),
        };
        assert_ne!(nest_a.fingerprint(), nest_b.fingerprint());
    }

    #[test]
    fn string_key_is_monotone_and_collides_only_past_the_prefix() {
        let mut words = vec![
            "", "a", "ab", "abcdef", "abcdefg", "b", "zz", "éclair", "Zebra", "  ", "0", "9",
        ];
        words.sort_unstable();
        for w in words.windows(2) {
            assert!(string_key(w[0]) <= string_key(w[1]), "{w:?}");
        }
        assert_eq!(string_key("abcdefXXX"), string_key("abcdefYYY"));
        assert!(string_key("abcdf") - string_key("abcde") >= STRING_KEY_RESOLUTION);
    }
}
