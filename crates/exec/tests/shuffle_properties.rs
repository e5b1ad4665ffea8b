//! Property tests on the runtime: the three grouping strategies are
//! interchangeable semantically (they may only differ in cost), joins agree
//! with reference implementations, and theta joins agree with nested loops.

use std::collections::BTreeMap;
use std::sync::Arc;

use cleanm_exec::{theta, Data, Dataset, ExecContext, Key, Shuffle};
use proptest::prelude::*;

fn ctx() -> Arc<ExecContext> {
    ExecContext::new(4, 5)
}

const SHUFFLES: [Shuffle; 3] = [
    Shuffle::LocalAggregate,
    Shuffle::HashShuffle,
    Shuffle::SortShuffle,
];

/// Grouping through `group_by_key`.
fn group<K: Key, V: Data>(
    c: &Arc<ExecContext>,
    pairs: Vec<(K, V)>,
    shuffle: Shuffle,
) -> Dataset<(K, Vec<V>)> {
    Dataset::from_vec(c, pairs)
        .group_by_key(shuffle, "group")
        .unwrap()
}

fn group_reference(pairs: &[(u8, i32)]) -> BTreeMap<u8, Vec<i32>> {
    let mut m: BTreeMap<u8, Vec<i32>> = BTreeMap::new();
    for &(k, v) in pairs {
        m.entry(k).or_default().push(v);
    }
    for vs in m.values_mut() {
        vs.sort_unstable();
    }
    m
}

fn normalize(groups: Vec<(u8, Vec<i32>)>) -> BTreeMap<u8, Vec<i32>> {
    groups
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort_unstable();
            (k, vs)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All three shuffles produce the reference grouping.
    #[test]
    fn grouping_strategies_agree(pairs in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..200)) {
        let expected = group_reference(&pairs);
        let c = ctx();
        for shuffle in SHUFFLES {
            let got = normalize(group(&c, pairs.clone(), shuffle).collect());
            prop_assert_eq!(&got, &expected, "{:?}", shuffle);
        }
    }

    /// Grouping and joining are deterministic down to the physical layout:
    /// two runs — through fresh contexts, datasets and hash tables — yield
    /// identical partition contents in identical order, not merely equal
    /// multisets. (No table may be `RandomState`-seeded.)
    #[test]
    fn group_and_join_layouts_repeat_exactly(
        left in proptest::collection::vec((0u8..32, any::<i16>()), 0..120),
        right in proptest::collection::vec((0u8..32, any::<i16>()), 0..120),
    ) {
        for shuffle in SHUFFLES {
            let run = || group(&ctx(), left.clone(), shuffle).collect_partitions();
            prop_assert_eq!(run(), run(), "{:?}", shuffle);
        }
        let join = || {
            let c = ctx();
            Dataset::from_vec(&c, left.clone())
                .join_hash(Dataset::from_vec(&c, right.clone()))
                .unwrap()
                .collect_partitions()
        };
        prop_assert_eq!(join(), join());
    }

    /// Partition assignment is deterministic across runs under the fixed
    /// seed: repartitioning the same records twice — through fresh
    /// contexts, datasets and hashers — lands every record on the same
    /// partition index both times. (The seeded FxHash replacement for
    /// SipHash must not reintroduce per-process randomness.)
    #[test]
    fn hash_partition_assignment_is_deterministic(
        pairs in proptest::collection::vec((any::<u64>(), any::<i32>()), 0..200),
    ) {
        let layout = |pairs: Vec<(u64, i32)>| -> Vec<Vec<(u64, i32)>> {
            let c = ExecContext::new(4, 5);
            let mut parts: Vec<Vec<(u64, i32)>> = Dataset::from_vec(&c, pairs)
                .repartition_by_hash(|(k, _)| *k)
                .unwrap()
                .collect_partitions();
            for p in &mut parts {
                p.sort_unstable();
            }
            parts
        };
        prop_assert_eq!(layout(pairs.clone()), layout(pairs));
    }

    /// Hash join agrees with a nested-loop reference.
    #[test]
    fn join_agrees_with_reference(
        left in proptest::collection::vec((0u8..16, any::<i16>()), 0..60),
        right in proptest::collection::vec((0u8..16, any::<i16>()), 0..60),
    ) {
        let mut expected: Vec<(u8, i16, i16)> = Vec::new();
        for &(k, v) in &left {
            for &(k2, w) in &right {
                if k == k2 {
                    expected.push((k, v, w));
                }
            }
        }
        expected.sort_unstable();
        let c = ctx();
        let mut got = Dataset::from_vec(&c, left)
            .join_hash(Dataset::from_vec(&c, right))
            .unwrap()
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Full outer join covers every key from either side exactly.
    #[test]
    fn full_outer_join_covers_keys(
        left in proptest::collection::vec(0u8..12, 0..40),
        right in proptest::collection::vec(0u8..12, 0..40),
    ) {
        use std::collections::BTreeSet;
        let c = ctx();
        let l: Vec<(u8, u8)> = left.iter().map(|&k| (k, k)).collect();
        let r: Vec<(u8, u8)> = right.iter().map(|&k| (k, k)).collect();
        let out = Dataset::from_vec(&c, l).full_outer_join(Dataset::from_vec(&c, r)).unwrap().collect();
        let out_keys: BTreeSet<u8> = out.iter().map(|(k, _, _)| *k).collect();
        let expected: BTreeSet<u8> = left.iter().chain(right.iter()).copied().collect();
        prop_assert_eq!(out_keys, expected);
        // Rows with both sides missing never appear.
        prop_assert!(out.iter().all(|(_, l, r)| l.is_some() || r.is_some()));
    }

    /// The three theta-join algorithms agree with the nested-loop reference
    /// for the `a < b` inequality.
    #[test]
    fn theta_joins_agree(
        left in proptest::collection::vec(-50i64..50, 0..40),
        right in proptest::collection::vec(-50i64..50, 0..40),
    ) {
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for &a in &left {
            for &b in &right {
                if a < b {
                    expected.push((a, b));
                }
            }
        }
        expected.sort_unstable();
        let c = ctx();
        let sort = |mut v: Vec<(i64, i64)>| { v.sort_unstable(); v };

        let cart = theta::cartesian_filter(
            Dataset::from_vec(&c, left.clone()),
            Dataset::from_vec(&c, right.clone()),
            theta::pairwise(|a, b| a < b),
        ).unwrap().collect();
        prop_assert_eq!(sort(cart), expected.clone());

        let mm = theta::minmax_block_join(
            Dataset::from_vec(&c, left.clone()),
            Dataset::from_vec(&c, right.clone()),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            theta::pairwise(|a, b| a < b),
        ).unwrap().collect();
        prop_assert_eq!(sort(mm), expected.clone());

        let mb = theta::mbucket_join(
            Dataset::from_vec(&c, left),
            Dataset::from_vec(&c, right),
            |&a| a as f64,
            |&b| b as f64,
            |(lmin, _), (_, rmax)| lmin < rmax,
            theta::pairwise(|a, b| a < b),
            Some(7),
        ).unwrap().collect();
        prop_assert_eq!(sort(mb), expected);
    }

    /// Narrow operator pipelines preserve multiset semantics under any
    /// partitioning.
    #[test]
    fn narrow_ops_preserve_elements(data in proptest::collection::vec(any::<i32>(), 0..300)) {
        let c = ctx();
        let mut expected: Vec<i64> = data
            .iter()
            .map(|&x| x as i64)
            .filter(|x| x % 3 != 0)
            .flat_map(|x| vec![x, -x])
            .collect();
        expected.sort_unstable();
        let mut got = Dataset::from_vec(&c, data)
            .map(|x| x as i64)
            .unwrap()
            .filter_transform("expand", |x| x % 3 != 0, |x, out| out.extend([x, -x]))
            .unwrap()
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
