//! The blocking interface and its implementations.

use cleanm_text::{normalize, qgrams};

use crate::kmeans::KMeansBlocker;

/// A blocker maps a term to the group keys it belongs to.
///
/// Blockers must be **pure**: the keys of a term may not depend on any other
/// term or on evaluation order. Purity makes "group the dataset by blocker
/// key" a monoid homomorphism — each element's contribution is a singleton
/// group-map, and partial maps merge associatively — which is what lets the
/// paper run blocking inside an `aggregateByKey` without a global pass.
pub trait Blocker: Send + Sync {
    /// The group keys for `term`. Must be non-empty so every record lands in
    /// at least one group (otherwise recall silently drops).
    fn keys(&self, term: &str) -> Vec<String>;

    /// Short description for plans and reports.
    fn describe(&self) -> String;
}

/// Token filtering (§4.3): one group per q-gram of the normalized term.
#[derive(Debug, Clone)]
pub struct TokenFilter {
    /// q-gram length. The paper evaluates q ∈ {2, 3, 4}.
    pub q: usize,
}

impl TokenFilter {
    pub fn new(q: usize) -> Self {
        assert!(q > 0, "token length must be positive");
        TokenFilter { q }
    }
}

impl Blocker for TokenFilter {
    fn keys(&self, term: &str) -> Vec<String> {
        let norm = normalize(term);
        let mut keys: Vec<String> = qgrams(&norm, self.q);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn describe(&self) -> String {
        format!("token_filtering(q={})", self.q)
    }
}

/// Exact-key blocking: one group per normalized term. This is the degenerate
/// blocker equality joins and FD grouping use.
#[derive(Debug, Clone, Default)]
pub struct ExactKey;

impl Blocker for ExactKey {
    fn keys(&self, term: &str) -> Vec<String> {
        vec![normalize(term).into_owned()]
    }

    fn describe(&self) -> String {
        "exact".to_string()
    }
}

/// Length-band blocking (§4.3 "extensibility"): terms group by
/// `len / width`, plus the neighbouring band so off-by-(width-1) lengths can
/// still meet.
#[derive(Debug, Clone)]
pub struct LengthBand {
    pub width: usize,
}

impl LengthBand {
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "band width must be positive");
        LengthBand { width }
    }
}

impl Blocker for LengthBand {
    fn keys(&self, term: &str) -> Vec<String> {
        let len = normalize(term).chars().count();
        let band = len / self.width;
        let mut keys = vec![format!("len{band}")];
        if band > 0 {
            keys.push(format!("len{}", band - 1));
        }
        keys
    }

    fn describe(&self) -> String {
        format!("length_band(width={})", self.width)
    }
}

/// Runtime-selectable blocker, as named in CleanM query text
/// (`DEDUP(token_filtering, …)`, `CLUSTER BY(kmeans, …)`).
#[derive(Debug, Clone)]
pub enum BlockerKind {
    TokenFilter(TokenFilter),
    KMeans(KMeansBlocker),
    Exact(ExactKey),
    LengthBand(LengthBand),
}

impl Blocker for BlockerKind {
    fn keys(&self, term: &str) -> Vec<String> {
        match self {
            BlockerKind::TokenFilter(b) => b.keys(term),
            BlockerKind::KMeans(b) => b.keys(term),
            BlockerKind::Exact(b) => b.keys(term),
            BlockerKind::LengthBand(b) => b.keys(term),
        }
    }

    fn describe(&self) -> String {
        match self {
            BlockerKind::TokenFilter(b) => b.describe(),
            BlockerKind::KMeans(b) => b.describe(),
            BlockerKind::Exact(b) => b.describe(),
            BlockerKind::LengthBand(b) => b.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_filter_keys_are_unique_sorted() {
        let b = TokenFilter::new(2);
        let keys = b.keys("Anna"); // normalized "anna" -> an, nn, na
        assert_eq!(keys, vec!["an", "na", "nn"]);
    }

    #[test]
    fn token_filter_similar_words_share_a_key() {
        let b = TokenFilter::new(3);
        let a = b.keys("johnson");
        let c = b.keys("jonhson"); // transposed
        assert!(a.iter().any(|k| c.contains(k)), "{a:?} vs {c:?}");
    }

    #[test]
    fn every_blocker_covers_every_term() {
        let blockers: Vec<Box<dyn Blocker>> = vec![
            Box::new(TokenFilter::new(2)),
            Box::new(ExactKey),
            Box::new(LengthBand::new(4)),
        ];
        for b in &blockers {
            for term in ["", "a", "hello world", "Σigma"] {
                assert!(!b.keys(term).is_empty(), "{} on {term:?}", b.describe());
            }
        }
    }

    #[test]
    fn exact_key_normalizes() {
        assert_eq!(ExactKey.keys("J. Smith"), vec!["j smith"]);
        assert_eq!(ExactKey.keys("j  SMITH!"), vec!["j smith"]);
    }

    #[test]
    fn length_band_adjacency() {
        let b = LengthBand::new(4);
        // len 7 -> band 1 (+band 0); len 8 -> band 2 (+band 1): they overlap on band 1.
        let k7 = b.keys("aaaaaaa");
        let k8 = b.keys("aaaaaaaa");
        assert!(k7.iter().any(|k| k8.contains(k)));
    }
}
