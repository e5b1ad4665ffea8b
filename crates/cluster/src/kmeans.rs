//! K-means over strings: the single-pass ClusterJoin variation used for
//! blocking, plus the classic multi-pass algorithm (§4.3 "multi-pass
//! partitional algorithms").

use cleanm_text::{fixed_step_sample, levenshtein, normalize, reservoir_sample, LdPattern};

use crate::blocking::{Blocker, KeyIds};

/// How to pick the k initial centers — the parameterizations of the function
/// composition monoid described in §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CenterInit {
    /// Reservoir sampling (Vitter) with the given seed.
    Reservoir { seed: u64 },
    /// The deterministic `N/k, 2N/k, …, N`-th items.
    FixedStep,
}

/// Select `k` centers from a corpus (the paper draws them from the
/// dictionary in term validation). Centers are normalized and deduplicated;
/// if dedup leaves fewer than `k`, that smaller set is returned.
pub fn select_centers<'a>(
    corpus: impl IntoIterator<Item = &'a str>,
    k: usize,
    init: CenterInit,
) -> Vec<String> {
    let normalized: Vec<String> = corpus
        .into_iter()
        .map(|t| normalize(t).into_owned())
        .collect();
    let mut centers = match init {
        CenterInit::Reservoir { seed } => reservoir_sample(normalized.iter().cloned(), k, seed),
        CenterInit::FixedStep => {
            let n = normalized.len();
            fixed_step_sample(normalized.iter().cloned(), k, n)
        }
    };
    centers.sort_unstable();
    centers.dedup();
    centers
}

/// Single-pass k-means blocker: assign each term to the center(s) whose edit
/// distance is minimal, or within `delta` of minimal ("minimum plus a delta
/// to favor multiple assignments", §4.3). Group keys are center indices.
#[derive(Debug, Clone)]
pub struct KMeansBlocker {
    centers: Vec<String>,
    /// Extra distance slack for multi-assignment; 0 = strict single cluster
    /// per (possibly tied) minimum.
    pub delta: usize,
}

impl KMeansBlocker {
    /// Build a blocker from explicit centers.
    pub fn new(centers: Vec<String>, delta: usize) -> Self {
        assert!(!centers.is_empty(), "k-means needs at least one center");
        KMeansBlocker { centers, delta }
    }

    /// Convenience: sample `k` centers from a corpus, then build the blocker.
    pub fn from_corpus<'a>(
        corpus: impl IntoIterator<Item = &'a str>,
        k: usize,
        init: CenterInit,
        delta: usize,
    ) -> Self {
        KMeansBlocker::new(select_centers(corpus, k, init), delta)
    }

    pub fn centers(&self) -> &[String] {
        &self.centers
    }

    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Indices of the assigned centers for a term. The term is prepared
    /// once and tested against each center; each center's distance is
    /// bounded by the best so far plus `delta`: a center beyond that bound
    /// is beyond the final minimum plus `delta` too, so it is never
    /// assigned and its distance is not needed.
    pub fn assign(&self, term: &str) -> Vec<usize> {
        let mut pattern = LdPattern::new(&normalize(term));
        let mut best = usize::MAX;
        let mut within: Vec<(usize, usize)> = Vec::new();
        for (i, c) in self.centers.iter().enumerate() {
            if let Some(d) = pattern.distance_within(c, best.saturating_add(self.delta)) {
                best = best.min(d);
                within.push((i, d));
            }
        }
        let keep = best + self.delta;
        within
            .into_iter()
            .filter(|&(_, d)| d <= keep)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Blocker for KMeansBlocker {
    fn keys(&self, term: &str) -> Vec<String> {
        self.assign(term)
            .into_iter()
            .map(|i| format!("km{i}"))
            .collect()
    }

    fn describe(&self) -> String {
        format!("kmeans(k={}, delta={})", self.centers.len(), self.delta)
    }

    /// The assigned center indices, ascending.
    fn key_ids(&self, term: &str, _: Option<&mut KeyIds>, out: &mut Vec<u64>) -> bool {
        out.extend(self.assign(term).into_iter().map(|i| i as u64));
        true
    }

    fn render_key(&self, id: u64, _: &KeyIds) -> String {
        format!("km{id}")
    }
}

/// The classic multi-pass k-means (§4.3): `n` assign/recenter iterations,
/// where each iteration is one monoid comprehension over the data and the
/// recentering picks the medoid (the member minimizing total intra-cluster
/// distance — strings have no mean). Returns the final cluster assignment as
/// `clusters[i] = members`.
///
/// The paper notes this "requires multiple iterations before converging …
/// which hurts scalability"; the benchmarks use the single-pass variant and
/// this exists for completeness and the ablation bench.
pub fn kmeans_multipass(
    terms: &[String],
    k: usize,
    iterations: usize,
    seed: u64,
) -> Vec<Vec<String>> {
    if terms.is_empty() || k == 0 {
        return Vec::new();
    }
    let normalized: Vec<String> = terms.iter().map(|t| normalize(t).into_owned()).collect();
    let mut centers = select_centers(
        normalized.iter().map(|s| s.as_str()),
        k,
        CenterInit::Reservoir { seed },
    );
    let mut assignment: Vec<usize> = vec![0; normalized.len()];
    for _ in 0..iterations.max(1) {
        // Assign step (Min monoid per element).
        for (i, term) in normalized.iter().enumerate() {
            assignment[i] = centers
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| levenshtein(term, c))
                .map(|(j, _)| j)
                .unwrap_or(0);
        }
        // Recenter step: medoid of each cluster.
        let mut next_centers = centers.clone();
        for (j, center) in next_centers.iter_mut().enumerate() {
            let members: Vec<&String> = normalized
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == j)
                .map(|(t, _)| t)
                .collect();
            if members.is_empty() {
                continue;
            }
            let medoid = members
                .iter()
                .min_by_key(|cand| {
                    members
                        .iter()
                        .map(|other| levenshtein(cand, other))
                        .sum::<usize>()
                })
                .unwrap();
            *center = (*medoid).clone();
        }
        if next_centers == centers {
            break; // converged
        }
        centers = next_centers;
    }
    let mut clusters: Vec<Vec<String>> = vec![Vec::new(); centers.len()];
    for (term, &a) in terms.iter().zip(&assignment) {
        clusters[a].push(term.clone());
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        [
            "anderson",
            "andersen",
            "anderssen", // cluster A
            "zhang",
            "zhong",
            "zheng", // cluster Z
            "miller",
            "muller",
            "moeller", // cluster M
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn select_centers_reservoir_and_fixed() {
        let c = corpus();
        let r = select_centers(
            c.iter().map(|s| s.as_str()),
            3,
            CenterInit::Reservoir { seed: 1 },
        );
        assert_eq!(r.len(), 3);
        let f = select_centers(c.iter().map(|s| s.as_str()), 3, CenterInit::FixedStep);
        assert_eq!(f.len(), 3);
        // Deterministic.
        assert_eq!(
            f,
            select_centers(c.iter().map(|s| s.as_str()), 3, CenterInit::FixedStep)
        );
    }

    #[test]
    fn centers_dedup() {
        let dup = ["same", "same", "same", "same"];
        let c = select_centers(dup.iter().copied(), 3, CenterInit::FixedStep);
        assert_eq!(c, vec!["same"]);
    }

    #[test]
    fn assignment_groups_similar_words() {
        let blocker =
            KMeansBlocker::new(vec!["anderson".into(), "zhang".into(), "miller".into()], 0);
        let a1 = blocker.keys("andersen");
        let a2 = blocker.keys("anderssen");
        assert_eq!(a1, a2);
        let z = blocker.keys("zhong");
        assert_ne!(a1, z);
    }

    #[test]
    fn delta_widens_assignment() {
        let blocker0 = KMeansBlocker::new(vec!["abcd".into(), "abce".into()], 0);
        let blocker2 = KMeansBlocker::new(vec!["abcd".into(), "abce".into()], 2);
        // "abcf" is distance 1 from both: already multi-assigned at delta 0.
        assert_eq!(blocker0.keys("abcf").len(), 2);
        // "abcd" is distance 0/1: delta 2 captures both.
        assert_eq!(blocker0.keys("abcd").len(), 1);
        assert_eq!(blocker2.keys("abcd").len(), 2);
    }

    /// The assignment as computed before the bounded distance: every
    /// center's full distance, then those within the minimum plus delta.
    fn assign_unbounded(blocker: &KMeansBlocker, term: &str) -> Vec<usize> {
        let norm = normalize(term);
        let distances: Vec<usize> = blocker
            .centers
            .iter()
            .map(|c| levenshtein(&norm, c))
            .collect();
        let min = *distances.iter().min().unwrap();
        (0..distances.len())
            .filter(|&i| distances[i] <= min + blocker.delta)
            .collect()
    }

    #[test]
    fn bounded_assignment_equals_the_unbounded_one() {
        // Generated terms over an alphabet with non-ASCII letters, from
        // empty to past 64 characters (the bit-vector kernel's limit).
        let alphabet: Vec<char> = "abcdeéßz ".chars().collect();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut term =
            |len: usize| -> String { (0..len).map(|_| alphabet[next(alphabet.len())]).collect() };
        let lens = [0, 1, 2, 3, 5, 8, 13, 30, 63, 64, 65, 70, 90];
        let terms: Vec<String> = (0..240).map(|i| term(lens[i % lens.len()])).collect();
        for k in [1, 3, 7] {
            let centers: Vec<String> = (0..k)
                .map(|i| normalize(&terms[i * 5 + 1]).into_owned())
                .collect();
            for delta in [0, 1, 2] {
                let blocker = KMeansBlocker::new(centers.clone(), delta);
                for t in &terms {
                    assert_eq!(
                        blocker.assign(t),
                        assign_unbounded(&blocker, t),
                        "{t:?} k={k} δ={delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_centers_means_smaller_groups() {
        // With more centers, the average group a word lands in is smaller —
        // the effect behind Figure 3's k sweep.
        let c = corpus();
        let b5 =
            KMeansBlocker::from_corpus(c.iter().map(|s| s.as_str()), 2, CenterInit::FixedStep, 0);
        let b9 =
            KMeansBlocker::from_corpus(c.iter().map(|s| s.as_str()), 9, CenterInit::FixedStep, 0);
        assert!(b9.k() > b5.k());
    }

    #[test]
    fn multipass_converges_to_coherent_clusters() {
        let clusters = kmeans_multipass(&corpus(), 3, 10, 7);
        let non_empty: Vec<_> = clusters.iter().filter(|c| !c.is_empty()).collect();
        assert!(non_empty.len() >= 2);
        // Every element appears exactly once.
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        assert_eq!(total, corpus().len());
        // Words with the same prefix family should co-locate.
        let find = |w: &str| {
            clusters
                .iter()
                .position(|c| c.iter().any(|m| m == w))
                .unwrap()
        };
        assert_eq!(find("anderson"), find("andersen"));
    }

    #[test]
    fn multipass_edge_cases() {
        assert!(kmeans_multipass(&[], 3, 5, 1).is_empty());
        assert!(kmeans_multipass(&corpus(), 0, 5, 1).is_empty());
        let one = kmeans_multipass(&corpus(), 1, 1, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].len(), corpus().len());
    }
}
