//! The runtime-selectable similarity metric.

use crate::sim::{
    jaccard_qgrams, jaccard_words, jaro_winkler, levenshtein_similarity, LdPattern, TextShape,
};

/// Similarity metric named in a CleanM query (`DEDUP(op, metric, theta, …)`).
///
/// All variants compute a similarity in `[0, 1]`. The paper's experiments use
/// Levenshtein (`LD`); Jaccard and Jaro–Winkler cover the other metrics its
/// syntax names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Normalized Levenshtein similarity (paper's `LD`).
    #[default]
    Levenshtein,
    /// Jaccard over q-grams of the given length.
    JaccardQgrams(usize),
    /// Jaccard over whitespace words.
    JaccardWords,
    /// Jaro–Winkler.
    JaroWinkler,
}

impl Metric {
    /// Compute the similarity of two strings under this metric.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        match self {
            Metric::Levenshtein => levenshtein_similarity(a, b),
            Metric::JaccardQgrams(q) => jaccard_qgrams(a, b, *q),
            Metric::JaccardWords => jaccard_words(a, b),
            Metric::JaroWinkler => jaro_winkler(a, b),
        }
    }

    /// True iff similarity reaches the threshold — the one-shot form of
    /// [`Metric::matcher`].
    pub fn similar(&self, a: &str, b: &str, theta: f64) -> bool {
        let mut m = self.matcher(theta);
        m.set_pattern(a);
        m.matches(b)
    }

    /// A threshold test with one side held fixed: prepare once per outer
    /// string ([`Matcher::set_pattern`]), then test many inner ones.
    pub fn matcher(self, theta: f64) -> Matcher {
        Matcher {
            metric: self,
            theta,
            ld: LdPattern::new(""),
            pattern: String::new(),
        }
    }

    /// The most edits two strings of `len_a` and `len_b` characters may be
    /// apart and still reach `theta`: `sim >= theta` under Levenshtein is
    /// `dist <= (1 - theta) · max(len_a, len_b)`. `None` for every other
    /// metric. [`Matcher::matches`] and the engine's length and q-gram
    /// count filters all bound by this one number.
    pub fn max_edits(self, theta: f64, len_a: usize, len_b: usize) -> Option<usize> {
        // The small epsilon compensates for `1 - theta` not being exactly
        // representable (e.g. theta = 0.8).
        (self == Metric::Levenshtein)
            .then(|| ((1.0 - theta) * len_a.max(len_b) as f64 + 1e-9).floor() as usize)
    }

    /// Parse a metric name as it appears in CleanM query text.
    pub fn parse(name: &str) -> Option<Metric> {
        match name.to_ascii_lowercase().as_str() {
            "ld" | "levenshtein" | "edit" => Some(Metric::Levenshtein),
            "jaccard" => Some(Metric::JaccardQgrams(2)),
            "jaccard_words" => Some(Metric::JaccardWords),
            "jw" | "jaro_winkler" | "jarowinkler" => Some(Metric::JaroWinkler),
            _ => None,
        }
    }
}

/// `similarity(pattern, text) >= theta` with the pattern prepared once.
/// Levenshtein never computes the similarity: `sim >= theta` is
/// `dist <= (1 - theta) · max(|a|, |b|)`, so the bound goes to the prepared
/// pattern, whose length filter and early exit reject most pairs.
pub struct Matcher {
    metric: Metric,
    theta: f64,
    /// The prepared pattern when the metric is Levenshtein.
    ld: LdPattern,
    /// The pattern itself for every other metric.
    pattern: String,
}

impl Matcher {
    /// Hold `pattern` fixed for the following [`Matcher::matches`] calls.
    pub fn set_pattern(&mut self, pattern: &str) {
        if self.metric == Metric::Levenshtein {
            self.ld.set(pattern);
        } else {
            self.pattern.clear();
            self.pattern.push_str(pattern);
        }
    }

    /// Does `text` reach the threshold against the held pattern? Under
    /// Levenshtein the text's length and ASCII-ness are read once, for both
    /// the bound and the kernel.
    pub fn matches(&mut self, text: &str) -> bool {
        let shape = TextShape::of(text);
        match (self.metric).max_edits(self.theta, self.ld.len(), shape.len) {
            Some(max_dist) => self.ld.within(shape, max_dist).is_some(),
            None => self.metric.similarity(&self.pattern, text) >= self.theta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similar_agrees_with_similarity() {
        let pairs = [("smith", "smyth"), ("alice", "bob"), ("", ""), ("aa", "aa")];
        for m in [
            Metric::Levenshtein,
            Metric::JaccardQgrams(2),
            Metric::JaccardWords,
            Metric::JaroWinkler,
        ] {
            for (a, b) in pairs {
                for theta in [0.0, 0.5, 0.8, 1.0] {
                    assert_eq!(
                        m.similar(a, b, theta),
                        m.similarity(a, b) >= theta,
                        "{m:?} {a} {b} {theta}"
                    );
                }
            }
        }
    }

    /// Up to six edits (insert / delete / substitute) applied to `base`.
    fn mutate(base: &str, edits: &[(usize, usize, usize)]) -> String {
        const ALPHABET: [char; 7] = ['a', 'b', 'c', 'é', 'ß', '中', '\u{301}'];
        let mut chars: Vec<char> = base.chars().collect();
        for &(kind, at, c) in edits {
            let c = ALPHABET[c % ALPHABET.len()];
            match (kind % 3, chars.len()) {
                (0, n) => chars.insert(at % (n + 1), c),
                (_, 0) => {}
                (1, n) => drop(chars.remove(at % n)),
                (_, n) => chars[at % n] = c,
            }
        }
        chars.into_iter().collect()
    }

    const THETAS: [f64; 6] = [0.0, 0.5, 0.75, 0.8, 0.9, 1.0];

    /// `similar` against the unbounded oracle, up to the documented
    /// epsilon: `sim >= theta` must pass, `sim < theta - 1e-9` must not.
    fn agrees_with_oracle(a: &str, b: &str, theta: f64, got: bool) -> bool {
        let sim = levenshtein_similarity(a, b);
        if sim >= theta {
            got
        } else {
            sim >= theta - 1e-9 || !got
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Strings of 0–200 characters (so ASCII patterns fall on both
        /// sides of the 64-character kernel boundary), ASCII-only or mixed
        /// with multi-byte and combining characters, against a copy a few
        /// edits away and against an unrelated string.
        #[test]
        fn levenshtein_similar_agrees_with_the_oracle(
            a in proptest::prop_oneof!["[abc]{0,200}", "[abcéß中\u{301}]{0,200}"],
            other in proptest::prop_oneof!["[abc]{0,70}", "[abcéß中\u{301}]{0,70}"],
            edits in proptest::collection::vec((0usize..3, 0usize..1000, 0usize..7), 0..7),
        ) {
            let near = mutate(&a, &edits);
            let m = Metric::Levenshtein;
            for theta in THETAS {
                let mut held = m.matcher(theta);
                held.set_pattern(&a);
                for b in [&near, &other, &a] {
                    let got = m.similar(&a, b, theta);
                    proptest::prop_assert!(agrees_with_oracle(&a, b, theta, got), "{a:?} {b:?} {theta}");
                    proptest::prop_assert_eq!(got, m.similar(b, &a, theta), "symmetry {:?} {:?} {}", a, b, theta);
                    proptest::prop_assert_eq!(got, held.matches(b), "held pattern {:?} {:?} {}", a, b, theta);
                }
                // The same matcher re-prepared for another pattern.
                held.set_pattern(&near);
                proptest::prop_assert_eq!(held.matches(&other), m.similar(&near, &other, theta));
            }
        }
    }

    #[test]
    fn similar_at_the_kernel_boundary() {
        for len in [63usize, 64, 65] {
            let a: String = "abcdefg".chars().cycle().take(len).collect();
            for edits in 0..8usize {
                let steps: Vec<_> = (0..edits).map(|i| (i, i * 11, i)).collect();
                let b = mutate(&a, &steps);
                for theta in THETAS {
                    let got = Metric::Levenshtein.similar(&a, &b, theta);
                    assert!(agrees_with_oracle(&a, &b, theta, got), "{a} {b} {theta}");
                    assert_eq!(got, Metric::Levenshtein.similar(&b, &a, theta));
                }
            }
        }
    }

    #[test]
    fn parse_names() {
        assert_eq!(Metric::parse("LD"), Some(Metric::Levenshtein));
        assert_eq!(Metric::parse("jaccard"), Some(Metric::JaccardQgrams(2)));
        assert_eq!(Metric::parse("JW"), Some(Metric::JaroWinkler));
        assert_eq!(Metric::parse("nope"), None);
    }
}
