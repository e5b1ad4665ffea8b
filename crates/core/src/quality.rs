//! Accuracy scoring against generator ground truth — the metrics of
//! Table 3 / Figure 4 ("precision = correct updates / total updates
//! suggested, recall = correct updates / total errors, and F-score").

use std::collections::HashMap;

use cleanm_text::Metric;

use crate::engine::Repair;

/// Precision / recall / F-score triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    pub precision: f64,
    pub recall: f64,
    pub f_score: f64,
}

impl Accuracy {
    pub fn new(precision: f64, recall: f64) -> Self {
        let f_score = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Accuracy {
            precision,
            recall,
            f_score,
        }
    }
}

/// Pick the best repair per term from the full candidate list: the most
/// similar dictionary entry (ties broken lexicographically for
/// determinism), with its similarity. A term whose best candidate is
/// itself needs no update.
pub fn select_best_repairs(repairs: &[Repair], metric: Metric) -> HashMap<String, (String, f64)> {
    let mut best: HashMap<String, (String, f64)> = HashMap::new();
    for r in repairs {
        let sim = metric.similarity(&r.term, &r.suggestion);
        match best.get(&r.term) {
            Some((cand, s)) if *s > sim || (*s == sim && cand <= &r.suggestion) => {}
            _ => {
                best.insert(r.term.clone(), (r.suggestion.clone(), sim));
            }
        }
    }
    best
}

/// Score term validation per occurrence: `dirty_terms[i]` is what the data
/// holds and `clean_terms[i]` what it should hold. `suggestions` maps a
/// dirty term to its selected repair.
///
/// * an *update* is suggested for occurrence `i` iff its term has a
///   suggestion differing from the term itself;
/// * the update is *correct* iff the suggestion equals the clean value;
/// * an occurrence is an *error* iff `dirty != clean`.
pub fn term_validation_accuracy(
    dirty_terms: &[String],
    clean_terms: &[String],
    suggestions: &HashMap<String, String>,
) -> Accuracy {
    assert_eq!(dirty_terms.len(), clean_terms.len());
    let mut updates = 0usize;
    let mut correct = 0usize;
    let mut errors = 0usize;
    for (dirty, clean) in dirty_terms.iter().zip(clean_terms) {
        let is_error = dirty != clean;
        if is_error {
            errors += 1;
        }
        if let Some(suggestion) = suggestions.get(dirty) {
            if suggestion != dirty {
                updates += 1;
                if suggestion == clean {
                    correct += 1;
                }
            }
        }
    }
    let precision = if updates == 0 {
        1.0
    } else {
        correct as f64 / updates as f64
    };
    let recall = if errors == 0 {
        1.0
    } else {
        correct as f64 / errors as f64
    };
    Accuracy::new(precision, recall)
}

/// Score duplicate detection: `found_pairs` are (rowid, rowid) pairs the
/// system reported; `truth_groups` are the generator's duplicate groups
/// (all intra-group pairs count as true duplicates).
pub fn dedup_accuracy(found_pairs: &[(i64, i64)], truth_groups: &[Vec<i64>]) -> Accuracy {
    use std::collections::HashSet;
    let mut truth: HashSet<(i64, i64)> = HashSet::new();
    for group in truth_groups {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                truth.insert((a.min(b), a.max(b)));
            }
        }
    }
    let found: HashSet<(i64, i64)> = found_pairs
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    let correct = found.intersection(&truth).count();
    let precision = if found.is_empty() {
        1.0
    } else {
        correct as f64 / found.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        correct as f64 / truth.len() as f64
    };
    Accuracy::new(precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(t: &str, s: &str) -> Repair {
        Repair {
            term: t.into(),
            suggestion: s.into(),
        }
    }

    #[test]
    fn best_repair_is_most_similar() {
        let repairs = vec![
            repair("andersen", "anderson"),
            repair("andersen", "zanderson"),
            repair("smith", "smith"),
        ];
        let best = select_best_repairs(&repairs, Metric::Levenshtein);
        assert_eq!(best["andersen"].0, "anderson");
        assert_eq!(best["smith"], ("smith".to_string(), 1.0));
    }

    #[test]
    fn accuracy_perfect_case() {
        let dirty = vec!["andersen".to_string(), "zhang".to_string()];
        let clean = vec!["anderson".to_string(), "zhang".to_string()];
        let mut sugg = HashMap::new();
        sugg.insert("andersen".to_string(), "anderson".to_string());
        sugg.insert("zhang".to_string(), "zhang".to_string());
        let a = term_validation_accuracy(&dirty, &clean, &sugg);
        assert_eq!(a.precision, 1.0);
        assert_eq!(a.recall, 1.0);
        assert_eq!(a.f_score, 1.0);
    }

    #[test]
    fn accuracy_counts_false_positives_and_misses() {
        let dirty = vec![
            "a1".to_string(), // error, repaired correctly
            "b1".to_string(), // error, repaired wrongly
            "c".to_string(),  // clean, wrongly "repaired" (false positive)
            "d1".to_string(), // error, no suggestion (miss)
        ];
        let clean = vec![
            "a".to_string(),
            "b".to_string(),
            "c".to_string(),
            "d".to_string(),
        ];
        let mut sugg = HashMap::new();
        sugg.insert("a1".to_string(), "a".to_string());
        sugg.insert("b1".to_string(), "x".to_string());
        sugg.insert("c".to_string(), "cc".to_string());
        let a = term_validation_accuracy(&dirty, &clean, &sugg);
        // updates = 3 (a1, b1, c), correct = 1, errors = 3.
        assert!((a.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_no_errors_no_updates() {
        let dirty = vec!["x".to_string()];
        let clean = vec!["x".to_string()];
        let a = term_validation_accuracy(&dirty, &clean, &HashMap::new());
        assert_eq!(a.precision, 1.0);
        assert_eq!(a.recall, 1.0);
    }

    #[test]
    fn dedup_accuracy_basics() {
        let truth = vec![vec![1, 2, 3], vec![7, 8]];
        // truth pairs: (1,2),(1,3),(2,3),(7,8) = 4
        let found = vec![(2, 1), (3, 1), (7, 8), (4, 5)];
        let a = dedup_accuracy(&found, &truth);
        assert!((a.precision - 0.75).abs() < 1e-12);
        assert!((a.recall - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dedup_accuracy_edges() {
        let a = dedup_accuracy(&[], &[]);
        assert_eq!(a.precision, 1.0);
        assert_eq!(a.recall, 1.0);
        let a = dedup_accuracy(&[(1, 2)], &[]);
        assert_eq!(a.precision, 0.0);
    }
}
