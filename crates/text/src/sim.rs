//! Similarity metrics.
//!
//! All similarity functions return values in `[0, 1]` where `1` means
//! identical; distance functions return raw counts. Implementations operate
//! on `char` sequences so multi-byte UTF-8 input is handled correctly.

use crate::tokenize::qgram_spans;

/// Levenshtein edit distance (insertions, deletions, substitutions), using
/// the classic two-row dynamic program: `O(|a|·|b|)` time, `O(min)` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Distance values at or above this stand for "outside the band": large
/// enough to lose every `min`, small enough that `+ 1` cannot overflow.
const OUT_OF_BAND: usize = usize::MAX / 2;

/// One side of a bounded Levenshtein comparison, prepared once and matched
/// against many texts — the shape of a similarity join's inner loop, where
/// one block member meets every other, and of a k-means assignment, where
/// one term meets every center. Preparing builds the per-character match
/// masks of the bit-vector kernel (or decodes the pattern for the banded
/// one) a single time; [`LdPattern::distance_within`] then allocates
/// nothing once its scratch has grown to the longest text seen.
///
/// Two exact kernels sit behind it, chosen from the pattern alone:
///
/// * an ASCII pattern of at most 64 characters — Myers' bit-vector
///   algorithm in Hyyrö's formulation: one machine word holds a whole DP
///   column as vertical deltas, so a text character costs a dozen word
///   operations whatever the pattern length (a non-ASCII text character
///   simply matches no pattern position);
/// * any other pattern (non-ASCII, or longer) — Ukkonen's banded two-row DP
///   over `char`s, which fills only the `2·max + 1` diagonals a distance
///   within `max` can touch.
pub struct LdPattern {
    /// `peq[c]` has bit `i` set iff pattern byte `i` is `c` (bit-vector
    /// kernel; all zero unless `bitvec`).
    peq: [u64; 128],
    /// The pattern is ASCII and 1..=64 characters: the masks are valid.
    bitvec: bool,
    /// Pattern length in characters.
    len: usize,
    /// The decoded pattern (banded kernel; empty while `bitvec`).
    chars: Vec<char>,
    /// Scratch of the banded kernel: the decoded text and two DP rows.
    text: Vec<char>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

impl LdPattern {
    /// Prepare `pattern`.
    pub fn new(pattern: &str) -> LdPattern {
        let mut p = LdPattern {
            peq: [0; 128],
            bitvec: false,
            len: 0,
            chars: Vec::new(),
            text: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
        };
        p.set(pattern);
        p
    }

    /// Re-prepare for another pattern, keeping the scratch allocations.
    pub(crate) fn set(&mut self, pattern: &str) {
        if self.bitvec {
            self.peq = [0; 128];
        }
        self.chars.clear();
        self.bitvec = pattern.is_ascii() && (1..=64).contains(&pattern.len());
        if self.bitvec {
            self.len = pattern.len();
            for (i, b) in pattern.bytes().enumerate() {
                self.peq[b as usize] |= 1 << i;
            }
        } else {
            self.chars.extend(pattern.chars());
            self.len = self.chars.len();
        }
    }

    /// Pattern length in characters.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The edit distance between the pattern and `text` when it is at most
    /// `max`, `None` as soon as it provably is not. A length gap above
    /// `max` rejects before either kernel runs.
    pub fn distance_within(&mut self, text: &str, max: usize) -> Option<usize> {
        self.within(TextShape::of(text), max)
    }

    /// [`LdPattern::distance_within`] over a text whose shape the caller
    /// has read already.
    pub(crate) fn within(&mut self, shape: TextShape<'_>, max: usize) -> Option<usize> {
        let (text, n) = (shape.text, shape.len);
        if self.len.abs_diff(n) > max {
            return None;
        }
        if !self.bitvec {
            self.text.clear();
            self.text.extend(text.chars());
            return banded(&self.chars, &self.text, max, &mut self.prev, &mut self.cur);
        }
        let peq = &self.peq;
        if shape.ascii {
            let eqs = text.bytes().map(|b| peq[b as usize]);
            bit_vector(self.len, n, eqs, max)
        } else {
            let eqs = text.chars().map(|c| peq.get(c as usize).map_or(0, |m| *m));
            bit_vector(self.len, n, eqs, max)
        }
    }
}

/// A text with its length in characters and whether it is ASCII, read in
/// one pass (two for non-ASCII text, whose characters are counted).
#[derive(Clone, Copy)]
pub(crate) struct TextShape<'t> {
    pub(crate) text: &'t str,
    pub(crate) len: usize,
    pub(crate) ascii: bool,
}

impl<'t> TextShape<'t> {
    pub(crate) fn of(text: &'t str) -> TextShape<'t> {
        let ascii = text.is_ascii();
        let len = if ascii {
            text.len()
        } else {
            text.chars().count()
        };
        TextShape { text, len, ascii }
    }
}

/// Myers / Hyyrö over a pattern of `m` (1..=64) characters and a text of
/// `n`, given per text character as the mask of pattern positions it
/// matches. `vp`/`vn` are the +1/−1 vertical deltas of the current DP
/// column, bit `i` for pattern row `i`; `score` tracks the bottom cell,
/// which can fall by at most one per remaining text character — that
/// bounds the final distance from below.
fn bit_vector(m: usize, n: usize, eqs: impl Iterator<Item = u64>, max: usize) -> Option<usize> {
    let last = 1u64 << (m - 1);
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut score = m;
    for (seen, eq) in eqs.enumerate() {
        let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        score += usize::from(hp & last != 0);
        score -= usize::from(hn & last != 0);
        if score > max.saturating_add(n - seen - 1) {
            return None;
        }
        let hp = (hp << 1) | 1;
        vp = (hn << 1) | !(d0 | hp);
        vn = hp & d0;
    }
    (score <= max).then_some(score)
}

/// Ukkonen's cut-off: row `i` (one per text character) fills only columns
/// `i - max ..= i + max`; cells outside the band read as [`OUT_OF_BAND`] —
/// to the right because the band only ever moves right over rows
/// initialised to it, to the left because each row writes its own boundary
/// cell. A row whose minimum exceeds `max` ends the comparison. Callers
/// have checked `|p| - |t|` against `max`.
fn banded(
    p: &[char],
    t: &[char],
    max: usize,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> Option<usize> {
    let m = p.len();
    debug_assert!(m.abs_diff(t.len()) <= max, "length gap checked by caller");
    prev.clear();
    prev.extend((0..=m).map(|j| if j <= max { j } else { OUT_OF_BAND }));
    cur.clear();
    cur.resize(m + 1, OUT_OF_BAND);
    for (i, &tc) in t.iter().enumerate() {
        let i = i + 1;
        let lo = i.saturating_sub(max).max(1);
        let hi = i.saturating_add(max).min(m);
        cur[lo - 1] = if lo == 1 { i } else { OUT_OF_BAND };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let sub = prev[j - 1] + usize::from(p[j - 1] != tc);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
            row_min = row_min.min(cur[j]);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    (prev[m] <= max).then_some(prev[m])
}

/// Levenshtein distance with an upper bound: `None` as soon as the distance
/// provably exceeds `max`. The one-shot form of [`LdPattern`] — loops that
/// hold one side fixed prepare it once.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    LdPattern::new(a).distance_within(b, max)
}

/// Normalized Levenshtein similarity: `1 - dist / max(|a|, |b|)`.
/// Two empty strings are identical (similarity 1).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let denom = la.max(lb);
    if denom == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / denom as f64
}

fn jaccard<T: std::hash::Hash + Eq>(
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<T> = a.into_iter().collect();
    let sb: HashSet<T> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// Jaccard similarity over q-gram sets. Tokens are borrowed slices of the
/// inputs ([`qgram_spans`]) — no per-token allocation on the similarity-
/// join hot path.
pub fn jaccard_qgrams(a: &str, b: &str, q: usize) -> f64 {
    jaccard(
        qgram_spans(a, q).into_iter().map(|(s, e)| &a[s..e]),
        qgram_spans(b, q).into_iter().map(|(s, e)| &b[s..e]),
    )
}

/// Jaccard similarity over whitespace-delimited word sets (borrowed
/// slices; no per-token allocation).
pub fn jaccard_words(a: &str, b: &str) -> f64 {
    jaccard(a.split_whitespace(), b.split_whitespace())
}

/// Jaro similarity: match window of `max(|a|,|b|)/2 - 1`, counting matches
/// and transpositions.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut matches_a = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                matches_a.push((i, j));
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: matched characters out of relative order.
    let mut b_order: Vec<usize> = matches_a.iter().map(|&(_, j)| j).collect();
    let mut transpositions = 0usize;
    let sorted = {
        let mut s = b_order.clone();
        s.sort_unstable();
        s
    };
    for (x, y) in b_order.iter_mut().zip(sorted) {
        if *x != y {
            transpositions += 1;
        }
    }
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity with the standard prefix scale `0.1` and prefix
/// length capped at 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    /// Pairs on both sides of the kernel choice: ASCII patterns of 63, 64
    /// (bit-vector) and 65 characters (banded), non-ASCII patterns, and
    /// non-ASCII text against an ASCII pattern.
    fn kernel_pairs() -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = [
            ("kitten", "sitting"),
            ("abc", "abd"),
            ("x", "yyyy"),
            ("", ""),
            ("", "ab"),
            ("café", "cafe"),
            ("cafe", "café"),
            ("日本語", "日本"),
            ("e\u{301}cole", "école"),
        ]
        .into_iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        for len in [63usize, 64, 65, 130] {
            let a: String = "abcdefg".chars().cycle().take(len).collect();
            let mut b = a.replacen("cd", "dc", 2);
            b.insert(len / 2, 'x');
            pairs.push((a.clone(), a.clone()));
            pairs.push((a.clone(), b.clone()));
            pairs.push((b, a.chars().rev().collect()));
            pairs.push((a.clone(), a.replace('c', "ß")));
        }
        pairs
    }

    #[test]
    fn bounded_matches_exact_within_bound() {
        for (a, b) in kernel_pairs() {
            let d = levenshtein(&a, &b);
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(levenshtein_bounded(x, y, d), Some(d), "{x} {y}");
                assert_eq!(levenshtein_bounded(x, y, d + 2), Some(d), "{x} {y}");
                assert_eq!(levenshtein_bounded(x, y, usize::MAX), Some(d), "{x} {y}");
                if d > 0 {
                    assert_eq!(levenshtein_bounded(x, y, d - 1), None, "{x} {y}");
                    assert_eq!(levenshtein_bounded(x, y, 0), None, "{x} {y}");
                }
            }
        }
    }

    #[test]
    fn bounded_early_exit_on_length_gap() {
        assert_eq!(levenshtein_bounded("a", "abcdefgh", 3), None);
        assert_eq!(levenshtein_bounded("日本語日本語", "日", 3), None);
    }

    #[test]
    fn a_reprepared_pattern_answers_as_a_fresh_one() {
        let pairs = kernel_pairs();
        let mut reused = LdPattern::new("");
        for (a, _) in &pairs {
            reused.set(a);
            for (_, b) in &pairs {
                for max in [0, 1, 3, 200] {
                    assert_eq!(
                        reused.distance_within(b, max),
                        LdPattern::new(a).distance_within(b, max),
                        "{a} {b} {max}"
                    );
                }
            }
        }
    }

    #[test]
    fn similarity_range_and_symmetry() {
        let s = levenshtein_similarity("smith", "smyth");
        assert!(s > 0.7 && s < 1.0);
        assert_eq!(
            levenshtein_similarity("smith", "smyth"),
            levenshtein_similarity("smyth", "smith")
        );
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("ab", "ab"), 1.0);
    }

    #[test]
    fn jaccard_qgram_basics() {
        assert_eq!(jaccard_qgrams("abc", "abc", 2), 1.0);
        assert_eq!(jaccard_qgrams("abc", "xyz", 2), 0.0);
        let s = jaccard_qgrams("night", "nacht", 2);
        assert!(s > 0.0 && s < 0.5, "{s}");
    }

    #[test]
    fn jaccard_words_basics() {
        assert_eq!(jaccard_words("the quick fox", "the quick fox"), 1.0);
        assert!((jaccard_words("a b c", "a b d") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro("dixon", "dicksonx") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("dwayne", "duane");
        assert!((jw - 0.84).abs() < 0.01, "{jw}");
        assert!(jaro_winkler("prefix_a", "prefix_b") > jaro("prefix_a", "prefix_b"));
    }
}
