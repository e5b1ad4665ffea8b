//! One operator's output: the records its route built, or what the route
//! held instead of them, with the records built when first read.
//!
//! A pair operator (DEDUP, blocked DC, a theta-join DC) whose head is
//! `{left: p1, right: p2}` over stored rows finds its pairs as row indices;
//! building one record per pair only for the session to walk each back to
//! its `__rowid`s costs more than finding most of them. Such a route hands
//! over the indices and the two sides' stored rows (`Output::index_pairs`),
//! every other route its records (`From<Vec<Value>>`). Reading the records
//! ([`Deref`]) builds them once, in the route's order; [`Output::len`],
//! [`Output::rowids`] and [`Output::pairs`] read index pairs without
//! building them.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use cleanm_values::{intern, Value};

use crate::calculus::desugar::ROWID_FIELD;

/// An operator's output rows (groups for FD, `{left, right}` pairs for
/// DEDUP and DC, `(term, repair)` records for CLUSTER BY, projected rows
/// for SELECT), read as a `&[Value]` through [`Deref`].
///
/// A pair route keeps row-index pairs and builds their records on first
/// read, caching them: order and multiplicity are the route's either way,
/// and two reads see the same records. [`Output::len`], [`Output::rowids`]
/// and [`Output::pairs`] read kept index pairs without building them.
#[derive(Clone)]
pub struct Output {
    /// `{left, right}` records as row indices, when the route kept them.
    kept: Option<IndexPairs>,
    /// The records: set by the route, or built on first read.
    records: OnceLock<Vec<Value>>,
}

/// `{left, right}` records as row indices: pair `[i, j]` stands for
/// `{left: sides[0][i], right: sides[1][j]}`.
#[derive(Clone)]
struct IndexPairs {
    sides: [Arc<Vec<Value>>; 2],
    pairs: Vec<[u32; 2]>,
}

impl Output {
    /// `{left, right}` records as row indices into the stored rows of two
    /// sides (the same rows for a self-join), in output order.
    pub(crate) fn index_pairs(sides: [Arc<Vec<Value>>; 2], pairs: Vec<[u32; 2]>) -> Output {
        Output {
            kept: Some(IndexPairs { sides, pairs }),
            records: OnceLock::new(),
        }
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        match &self.kept {
            Some(kept) => kept.pairs.len(),
            None => self.records.get().map_or(0, Vec::len),
        }
    }

    /// Is the output empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Have the records been built (or were they handed over built)?
    pub fn is_built(&self) -> bool {
        self.records.get().is_some()
    }

    /// The records, built on first read.
    pub fn as_slice(&self) -> &[Value] {
        self
    }

    /// The records, built if they were not.
    pub fn into_records(self) -> Vec<Value> {
        let Output { kept, records } = self;
        records
            .into_inner()
            .unwrap_or_else(|| kept.expect("records handed over built").build())
    }

    /// The distinct `__rowid`s the output holds, ascending — what
    /// [`collect_rowids`] gathers over every record. Index pairs read each
    /// distinct row once; built records are walked.
    pub fn rowids(&self) -> Vec<i64> {
        let mut ids = Vec::new();
        let Some(IndexPairs { sides, pairs }) = &self.kept else {
            self.iter().for_each(|v| collect_rowids(v, &mut ids));
            return distinct_ids(ids);
        };
        let [left, right] = sides;
        let (lefts, rights) = (pairs.iter().map(|p| p[0]), pairs.iter().map(|p| p[1]));
        if Arc::ptr_eq(left, right) {
            rows_ids(left, lefts.chain(rights), 2 * pairs.len(), &mut ids);
        } else {
            rows_ids(left, lefts, pairs.len(), &mut ids);
            rows_ids(right, rights, pairs.len(), &mut ids);
        }
        distinct_ids(ids)
    }

    /// The `(t1, t2)` row-id pairs of `{left, right}` records, in output
    /// order with its multiplicity: the top-level `__rowid`s of each
    /// record's `left` and `right`, a record that lacks either skipped.
    /// Kept index pairs are read without building a record.
    pub fn pairs(&self) -> Vec<(i64, i64)> {
        let Some(IndexPairs { sides, pairs }) = &self.kept else {
            let side = |v: &Value, name| top_rowid(v.field(name).ok()?);
            let ids = self
                .iter()
                .filter_map(|v| Some((side(v, "left")?, side(v, "right")?)));
            return ids.collect();
        };
        let id = |side: &[Value], i: u32| top_rowid(&side[i as usize]);
        let ids = pairs
            .iter()
            .filter_map(|&[i, j]| Some((id(&sides[0], i)?, id(&sides[1], j)?)));
        ids.collect()
    }
}

impl Deref for Output {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        let kept = || {
            self.kept
                .as_ref()
                .expect("records handed over built")
                .build()
        };
        self.records.get_or_init(kept)
    }
}

impl IndexPairs {
    /// The records the index pairs stand for, in order.
    fn build(&self) -> Vec<Value> {
        let IndexPairs { sides, pairs } = self;
        let (left, right) = (intern("left"), intern("right"));
        let record = |&[i, j]: &[u32; 2]| {
            let l = sides[0][i as usize].clone();
            let r = sides[1][j as usize].clone();
            Value::Struct(Arc::new([(Arc::clone(&left), l), (Arc::clone(&right), r)]))
        };
        pairs.iter().map(record).collect()
    }
}

impl From<Vec<Value>> for Output {
    fn from(records: Vec<Value>) -> Output {
        Output {
            kept: None,
            records: OnceLock::from(records),
        }
    }
}

impl Default for Output {
    fn default() -> Output {
        Output::from(Vec::new())
    }
}

/// Outputs compare as their records (building them).
impl PartialEq for Output {
    fn eq(&self, other: &Output) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<Value>> for Output {
    fn eq(&self, other: &Vec<Value>) -> bool {
        **self == other[..]
    }
}

impl<'a> IntoIterator for &'a Output {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// As the records' `Vec` prints.
impl fmt::Debug for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Pull every `__rowid` out of a (possibly nested) output value.
pub fn collect_rowids(v: &Value, out: &mut Vec<i64>) {
    match v {
        Value::Struct(fields) => {
            for (name, inner) in fields.iter() {
                match inner {
                    Value::Int(id) if name.as_ref() == ROWID_FIELD => out.push(*id),
                    Value::Struct(_) | Value::List(_) if name.as_ref() != ROWID_FIELD => {
                        collect_rowids(inner, out)
                    }
                    _ => {}
                }
            }
        }
        Value::List(items) => {
            for item in items.iter() {
                collect_rowids(item, out);
            }
        }
        _ => {}
    }
}

/// A row's own `__rowid`, when it is an integer.
pub(crate) fn top_rowid(row: &Value) -> Option<i64> {
    row.field(ROWID_FIELD).ok()?.as_int().ok()
}

/// The `__rowid`s of the rows of `side` that `at` names (`named` times in
/// all), each distinct row walked once, in ascending row order: sorted
/// when they are few next to the side, else marked in a bitset over it.
fn rows_ids(side: &[Value], at: impl Iterator<Item = u32>, named: usize, ids: &mut Vec<i64>) {
    let rows: Vec<usize> = if named < side.len() / 64 {
        let mut rows: Vec<usize> = at.map(|i| i as usize).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    } else {
        let mut bits = vec![0u64; side.len().div_ceil(64)];
        at.for_each(|i| bits[i as usize / 64] |= 1 << (i % 64));
        set_bits(&bits).collect()
    };
    rows.into_iter().for_each(|i| collect_rowids(&side[i], ids));
}

/// `ids` distinct and ascending: marked in a bitset over `[min, max]` when
/// that span is at most 64 bits per id (a pair output names each row many
/// times), else sorted and deduplicated.
pub(super) fn distinct_ids(mut ids: Vec<i64>) -> Vec<i64> {
    let (Some(&min), Some(&max)) = (ids.iter().min(), ids.iter().max()) else {
        return ids;
    };
    let span = (max as i128 - min as i128) as u128 + 1;
    if span > 64 * ids.len() as u128 {
        ids.sort_unstable();
        ids.dedup();
        return ids;
    }
    let mut bits = vec![0u64; (span as usize).div_ceil(64)];
    for &id in &ids {
        let at = (id - min) as usize;
        bits[at / 64] |= 1 << (at % 64);
    }
    ids.clear();
    ids.extend(set_bits(&bits).map(|at| min + at as i64));
    ids
}

/// The positions of a bitset's set bits, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            let bit = (word != 0).then(|| w * 64 + word.trailing_zeros() as usize);
            word &= word.wrapping_sub(1);
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: i64) -> Value {
        Value::record([(ROWID_FIELD, Value::Int(id)), ("x", Value::str("r"))])
    }

    fn walked(records: &[Value]) -> Vec<i64> {
        let mut all = Vec::new();
        records.iter().for_each(|v| collect_rowids(v, &mut all));
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The bitmap walk and sort + dedup give the same ids: dense and
    /// sparse spans, negative ids, ids at the ends of `i64`, repeats.
    #[test]
    fn rowids_mark_or_sort_alike() {
        let pair = |a: i64, b: i64| Value::record([("left", row(a)), ("right", row(b))]);
        let cases: [&[(i64, i64)]; 5] = [
            &[],
            &[(3, 1), (1, 3), (2, 3), (130, 64), (63, 65)],
            &[(-5, 70), (-5, -6), (0, 0)],
            &[(i64::MIN, i64::MAX), (0, 1)],
            &[(7, 1_000_000), (7, 8)],
        ];
        for ids in cases {
            let records: Vec<Value> = ids.iter().map(|&(a, b)| pair(a, b)).collect();
            let output = Output::from(records.clone());
            assert_eq!(output.rowids(), walked(&records), "{ids:?}");
            assert_eq!(output.pairs(), ids, "{ids:?}");
        }
    }

    /// Index pairs read as the records they stand for: the same records
    /// in order, built once on first read, with the same ids and pairs.
    #[test]
    fn index_pairs_read_as_their_records() {
        // Row ids that are not row positions, a second side, and a side
        // that few pairs name (its rows sorted, not marked).
        let left = Arc::new(vec![row(40), row(-2), row(7)]);
        let right = Arc::new(vec![row(5), row(40)]);
        let wide = Arc::new((0..1000).map(|i| row(5000 - i)).collect::<Vec<_>>());
        let sides = [
            [Arc::clone(&left), Arc::clone(&left)],
            [left, right],
            [Arc::clone(&wide), wide],
        ];
        for sides in sides {
            let pairs = vec![[2, 1], [0, 1], [2, 1], [1, 0]];
            let output = Output::index_pairs(sides.clone(), pairs.clone());
            assert_eq!((output.len(), output.is_built()), (4, false));
            let ids = output.rowids();
            let id_pairs = output.pairs();
            assert!(!output.is_built(), "ids and pairs build no record");
            let expected: Vec<Value> = (pairs.iter())
                .map(|&[i, j]| {
                    let (l, r) = (&sides[0][i as usize], &sides[1][j as usize]);
                    Value::record([("left", l.clone()), ("right", r.clone())])
                })
                .collect();
            assert_eq!(&*output, &expected[..]);
            assert!(output.is_built());
            assert_eq!(ids, walked(&expected));
            let top = |v: &Value, side: &str| top_rowid(v.field(side).unwrap()).unwrap();
            let walked_pairs: Vec<(i64, i64)> = (expected.iter())
                .map(|v| (top(v, "left"), top(v, "right")))
                .collect();
            assert_eq!(id_pairs, walked_pairs);
            assert_eq!(format!("{output:?}"), format!("{expected:?}"));
            assert_eq!(output.clone().into_records(), expected);
        }
    }

    /// Records that are not `{left, right}` pairs with ids give no id
    /// pair.
    #[test]
    fn records_without_both_ids_give_no_pair() {
        let records = vec![
            Value::record([("left", row(1)), ("right", Value::str("x"))]),
            Value::record([("key", row(2)), ("partition", Value::list(vec![row(3)]))]),
            Value::record([("left", row(4)), ("right", row(5))]),
        ];
        let output = Output::from(records);
        assert_eq!(output.pairs(), [(4, 5)]);
        assert_eq!(output.rowids(), [1, 2, 3, 4, 5]);
        assert!(Output::default().is_empty());
    }
}
