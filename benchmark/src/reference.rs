//! Reference answers, computed in set-up by naive code, and the comparison
//! of the program's output against them.
//!
//! An answer is a count plus an order-independent digest (the wrapping sum
//! of a 64-bit mix of every element), so outputs compare in one pass
//! whatever order the engine emits them in. `cleanm_text` is used for the
//! similarity metric only; grouping, blocking and pair enumeration are done
//! here with hash maps and nested loops.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::time::Instant;

use cleanm_text::levenshtein_similarity;
use cleanm_values::{Row, Value};

/// The engine's hidden row identity: position in registration order.
const ROWID: &str = "__rowid";

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub digest: u64,
}

impl Answer {
    pub fn add(&mut self, item: u64) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(mix(item));
    }

    pub fn of(items: impl IntoIterator<Item = u64>) -> Answer {
        let mut a = Answer::default();
        items.into_iter().for_each(|i| a.add(i));
        a
    }
}

/// splitmix64 finaliser.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn pair_item(a: u64, b: u64) -> u64 {
    mix(a).rotate_left(21) ^ b
}

fn text_item(s: &str) -> u64 {
    // FNV-1a.
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one operator of a report must have produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// FD: the violating groups and the ids of every row in them.
    Groups { groups: u64, ids: Answer },
    /// DEDUP / DC: the distinct violating `(left, right)` row-id pairs.
    Pairs(Answer),
    /// CLUSTER BY: the distinct `(term, repair)` pairs and the number of
    /// output rows (one per shared block key and data row).
    Terms { distinct: Answer, rows: u64 },
    /// SELECT: the output rows, floats apart (their sums depend on the order
    /// partitions are merged in, so they compare by total within 1e-9).
    Rows { rows: Answer, float_sum: f64 },
}

/// Does an operator's raw output equal the expected answer?
pub fn matches(expect: &Expect, output: &[Value]) -> bool {
    match expect {
        Expect::Groups { groups, ids } => {
            let mut got = Vec::new();
            for group in output {
                collect_rowids(group, &mut got);
            }
            output.len() as u64 == *groups && Answer::of(got.into_iter().map(|i| i as u64)) == *ids
        }
        Expect::Pairs(pairs) => {
            let mut got: Vec<(i64, i64)> = output
                .iter()
                .filter_map(|v| {
                    Some((
                        rowid(v.field("left").ok()?)?,
                        rowid(v.field("right").ok()?)?,
                    ))
                })
                .collect();
            // Multi-key blockers emit a pair once per shared block.
            got.sort_unstable();
            got.dedup();
            pairs_answer(got) == *pairs
        }
        Expect::Terms { distinct, rows } => {
            let mut got: Vec<(&str, &str)> = output
                .iter()
                .filter_map(|v| {
                    Some((
                        v.field("term").ok()?.as_str().ok()?,
                        v.field("repair").ok()?.as_str().ok()?,
                    ))
                })
                .collect();
            let n = got.len() as u64;
            got.sort_unstable();
            got.dedup();
            n == *rows && terms_answer(got) == *distinct
        }
        Expect::Rows { rows, float_sum } => {
            let mut got = Answer::default();
            let mut sum = 0.0;
            for v in output {
                let Ok(fields) = v.as_struct() else {
                    return false;
                };
                let (item, floats) = row_item(fields.iter().map(|(_, v)| v));
                got.add(item);
                sum += floats;
            }
            got == *rows && (sum - float_sum).abs() <= 1e-9 * float_sum.abs().max(1.0)
        }
    }
}

pub fn pairs_answer(pairs: impl IntoIterator<Item = (i64, i64)>) -> Answer {
    Answer::of(
        pairs
            .into_iter()
            .map(|(a, b)| pair_item(a as u64, b as u64)),
    )
}

fn terms_answer<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Answer {
    Answer::of(
        pairs
            .into_iter()
            .map(|(t, w)| pair_item(text_item(t), text_item(w))),
    )
}

/// One output row as a digest item over its non-float cells, plus the sum
/// of its float cells.
fn row_item<'a>(cells: impl Iterator<Item = &'a Value>) -> (u64, f64) {
    let mut item = 0u64;
    let mut floats = 0.0;
    for v in cells {
        let cell = match v {
            Value::Float(f) => {
                floats += f;
                continue;
            }
            Value::Int(i) => *i as u64,
            Value::Str(s) => text_item(s),
            Value::Bool(b) => u64::from(*b),
            _ => 0,
        };
        item = mix(item ^ cell);
    }
    (item, floats)
}

pub fn rows_expect<'a, I>(rows: impl IntoIterator<Item = I>) -> Expect
where
    I: IntoIterator<Item = &'a Value>,
{
    let mut answer = Answer::default();
    let mut float_sum = 0.0;
    for row in rows {
        let (item, floats) = row_item(row.into_iter());
        answer.add(item);
        float_sum += floats;
    }
    Expect::Rows {
        rows: answer,
        float_sum,
    }
}

fn rowid(v: &Value) -> Option<i64> {
    v.field(ROWID).ok()?.as_int().ok()
}

fn collect_rowids(v: &Value, out: &mut Vec<i64>) {
    match v {
        Value::Struct(fields) => {
            for (name, inner) in fields.iter() {
                match inner {
                    Value::Int(id) if name.as_ref() == ROWID => out.push(*id),
                    _ => collect_rowids(inner, out),
                }
            }
        }
        Value::List(items) => items.iter().for_each(|i| collect_rowids(i, out)),
        _ => {}
    }
}

/// FD `key → rhs` over the rows that pass `keep`: every group holding more
/// than one distinct right-hand side violates, with all its rows. Row ids
/// are positions in `rows`.
pub fn fd<'a, K: Hash + Eq, R: PartialEq>(
    rows: &'a [Row],
    keep: impl Fn(&'a Row) -> bool,
    key: impl Fn(&'a Row) -> K,
    rhs: impl Fn(&'a Row) -> R,
) -> Expect {
    let mut groups: HashMap<K, (Vec<R>, Vec<u64>)> = HashMap::new();
    for (id, row) in rows.iter().enumerate().filter(|(_, r)| keep(r)) {
        let (seen, ids) = groups.entry(key(row)).or_default();
        let r = rhs(row);
        if !seen.contains(&r) {
            seen.push(r);
        }
        ids.push(id as u64);
    }
    let violating: Vec<&Vec<u64>> = groups
        .values()
        .filter(|(seen, _)| seen.len() > 1)
        .map(|(_, ids)| ids)
        .collect();
    Expect::Groups {
        groups: violating.len() as u64,
        ids: Answer::of(violating.into_iter().flatten().copied()),
    }
}

/// The `prefix()` builtin: the text before the first `-`, else three chars.
pub fn prefix(s: &str) -> &str {
    match s.find('-') {
        Some(i) => &s[..i],
        None => s.char_indices().nth(3).map_or(s, |(i, _)| &s[..i]),
    }
}

/// How many similarity computations a reference made and how long its pair
/// loop took: the `text.ld_ns_per_pair` layer metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct LdCost {
    pub pairs: u64,
    pub ns: u64,
}

/// DEDUP with exact blocking: within every block of equal `block` text, the
/// pairs `(lo, hi)` whose `text` is Levenshtein-similar at `theta`.
pub fn dedup_exact<'a>(
    rows: &'a [Row],
    block: impl Fn(&'a Row) -> &'a str,
    text: impl Fn(&'a Row) -> &'a str,
    theta: f64,
) -> (Expect, LdCost) {
    let mut blocks: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, row) in rows.iter().enumerate() {
        blocks.entry(block(row)).or_default().push(id);
    }
    let mut answer = Answer::default();
    let mut cost = LdCost::default();
    let start = Instant::now();
    for ids in blocks.values() {
        for (n, &a) in ids.iter().enumerate() {
            for &b in &ids[n + 1..] {
                cost.pairs += 1;
                if levenshtein_similarity(text(&rows[a]), text(&rows[b])) >= theta {
                    answer.add(pair_item(a as u64, b as u64));
                }
            }
        }
    }
    cost.ns = start.elapsed().as_nanos() as u64;
    (Expect::Pairs(answer), cost)
}

/// Lowercase alphanumerics separated by single spaces.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.is_empty() && !out.ends_with(' ') {
            out.push(' ');
        }
    }
    out.truncate(out.trim_end().len());
    out
}

/// The distinct character q-grams of the normalized text; text shorter than
/// `q` is its own single token.
fn qgrams(s: &str, q: usize) -> BTreeSet<String> {
    let chars: Vec<char> = normalize(s).chars().collect();
    if chars.len() <= q {
        return BTreeSet::from([chars.into_iter().collect()]);
    }
    chars.windows(q).map(|w| w.iter().collect()).collect()
}

/// Pairs of a data term and a dictionary term that share a q-gram block,
/// counted once per shared block: what term validation enumerates.
pub fn qgram_candidates(terms: &[&str], dictionary: &[impl AsRef<str>], q: usize) -> u64 {
    let mut blocks: HashMap<String, (u64, u64)> = HashMap::new();
    for t in terms {
        for g in qgrams(t, q) {
            blocks.entry(g).or_default().0 += 1;
        }
    }
    for w in dictionary {
        for g in qgrams(w.as_ref(), q) {
            blocks.entry(g).or_default().1 += 1;
        }
    }
    blocks.values().map(|(t, w)| t * w).sum()
}

/// DEDUP with token-filter blocking: pairs sharing at least one q-gram and
/// similar at `theta`.
pub fn dedup_tokens<'a>(
    rows: &'a [Row],
    text: impl Fn(&'a Row) -> &'a str,
    q: usize,
    theta: f64,
) -> Expect {
    let grams: Vec<BTreeSet<String>> = rows.iter().map(|r| qgrams(text(r), q)).collect();
    let mut answer = Answer::default();
    for a in 0..rows.len() {
        for b in a + 1..rows.len() {
            if !grams[a].is_disjoint(&grams[b])
                && levenshtein_similarity(text(&rows[a]), text(&rows[b])) >= theta
            {
                answer.add(pair_item(a as u64, b as u64));
            }
        }
    }
    Expect::Pairs(answer)
}

/// Term validation: every data term against every dictionary term. The
/// engine emits a similar pair once per q-gram block the two share.
pub fn termval(terms: &[&str], dictionary: &[String], q: usize, theta: f64) -> (Expect, LdCost) {
    let term_grams: Vec<BTreeSet<String>> = terms.iter().map(|t| qgrams(t, q)).collect();
    let dict_grams: Vec<BTreeSet<String>> = dictionary.iter().map(|w| qgrams(w, q)).collect();
    let mut distinct: BTreeSet<(&str, &str)> = BTreeSet::new();
    let mut rows = 0u64;
    let mut cost = LdCost::default();
    let start = Instant::now();
    for (t, tg) in terms.iter().zip(&term_grams) {
        for (w, wg) in dictionary.iter().zip(&dict_grams) {
            cost.pairs += 1;
            if levenshtein_similarity(t, w) >= theta {
                let shared = tg.intersection(wg).count() as u64;
                if shared > 0 {
                    rows += shared;
                    distinct.insert((t, w.as_str()));
                }
            }
        }
    }
    cost.ns = start.elapsed().as_nanos() as u64;
    (
        Expect::Terms {
            distinct: terms_answer(distinct),
            rows,
        },
        cost,
    )
}

/// Ordered pairs `(t1, t2)`, `t1 ≠ t2`, among `left × right` row positions
/// for which `violates` holds.
pub fn pairs_where(
    left: impl Iterator<Item = usize> + Clone,
    right: impl Iterator<Item = usize> + Clone,
    violates: impl Fn(usize, usize) -> bool,
) -> Answer {
    let mut answer = Answer::default();
    for a in left {
        for b in right.clone() {
            if a != b && violates(a, b) {
                answer.add(pair_item(a as u64, b as u64));
            }
        }
    }
    answer
}

/// The standing `FD(address | nationkey) DEDUP(exact, LD, theta, address,
/// name)` maintained naively while rows arrive: the answers after the first
/// `initial` rows and then after every batch of `batch` rows.
pub fn incremental_fd_dedup<'a>(
    rows: &'a [Row],
    address: impl Fn(&'a Row) -> &'a str,
    nation: impl Fn(&'a Row) -> i64,
    name: impl Fn(&'a Row) -> &'a str,
    theta: f64,
    initial: usize,
    batch: usize,
) -> Vec<[Expect; 2]> {
    struct Block {
        ids: Vec<usize>,
        nation: i64,
        violating: bool,
    }
    let mut blocks: HashMap<&str, Block> = HashMap::new();
    let (mut groups, mut fd_ids, mut pairs) = (0u64, Answer::default(), Answer::default());
    let mut snapshots = Vec::new();
    for (id, row) in rows.iter().enumerate() {
        let block = blocks.entry(address(row)).or_insert_with(|| Block {
            ids: Vec::new(),
            nation: nation(row),
            violating: false,
        });
        if !block.violating && nation(row) != block.nation {
            block.violating = true;
            groups += 1;
            block.ids.iter().for_each(|&i| fd_ids.add(i as u64));
        }
        if block.violating {
            fd_ids.add(id as u64);
        }
        for &other in &block.ids {
            if levenshtein_similarity(name(&rows[other]), name(row)) >= theta {
                pairs.add(pair_item(other as u64, id as u64));
            }
        }
        block.ids.push(id);
        let done = id + 1;
        if done >= initial && (done - initial).is_multiple_of(batch) {
            snapshots.push([
                Expect::Groups {
                    groups,
                    ids: fd_ids,
                },
                Expect::Pairs(pairs),
            ]);
        }
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(addr: &str, nation: i64, name: &str) -> Row {
        Row::new(vec![Value::str(addr), Value::Int(nation), Value::str(name)])
    }

    fn s(r: &Row, i: usize) -> &str {
        r.values()[i].as_str().unwrap()
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        assert_eq!(Answer::of([1, 2, 3]), Answer::of([3, 1, 2]));
        assert_ne!(Answer::of([1, 2, 3]), Answer::of([1, 2, 4]));
        assert_ne!(pairs_answer([(1, 2)]), pairs_answer([(2, 1)]));
    }

    #[test]
    fn fd_flags_whole_groups() {
        let rows = vec![
            row("a", 1, "x"),
            row("b", 2, "y"),
            row("a", 3, "z"),
            row("b", 2, "w"),
        ];
        let e = fd(
            &rows,
            |_| true,
            |r| s(r, 0).to_string(),
            |r| r.values()[1].as_int().unwrap(),
        );
        assert_eq!(
            e,
            Expect::Groups {
                groups: 1,
                ids: Answer::of([0, 2])
            }
        );
    }

    #[test]
    fn incremental_reference_ends_where_the_batch_reference_does() {
        let rows = vec![
            row("a", 1, "john smith"),
            row("a", 1, "john smyth"),
            row("b", 2, "mary"),
            row("a", 2, "jon smith"),
            row("b", 2, "marx"),
            row("c", 5, "zed"),
        ];
        let snaps = incremental_fd_dedup(
            &rows,
            |r| s(r, 0),
            |r| r.values()[1].as_int().unwrap(),
            |r| s(r, 2),
            0.7,
            2,
            2,
        );
        assert_eq!(snaps.len(), 3);
        let last = snaps.last().unwrap();
        assert_eq!(
            last[0],
            fd(
                &rows,
                |_| true,
                |r| s(r, 0),
                |r| r.values()[1].as_int().unwrap()
            )
        );
        assert_eq!(last[1], dedup_exact(&rows, |r| s(r, 0), |r| s(r, 2), 0.7).0);
        assert_eq!(
            snaps[0][0],
            Expect::Groups {
                groups: 0,
                ids: Answer::default()
            }
        );
    }

    #[test]
    fn qgrams_follow_the_token_filter() {
        assert_eq!(normalize("J.  Smith!"), "j smith");
        assert_eq!(
            qgrams("Anna", 2),
            BTreeSet::from(["an".into(), "nn".into(), "na".into()])
        );
        assert_eq!(qgrams("ab", 3), BTreeSet::from(["ab".into()]));
        assert_eq!(prefix("123-456"), "123");
        assert_eq!(prefix("abcdef"), "abc");
    }
}
