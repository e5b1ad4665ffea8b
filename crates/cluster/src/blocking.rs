//! The blocking interface and its implementations.

use std::collections::HashMap;

use cleanm_text::{normalize, qgram_spans};

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

    /// The ids of `term`'s keys ([`KeyIds`]), sorted and deduplicated,
    /// appended to `out`: the keys [`Blocker::keys`] lists, as
    /// [`Blocker::render_key`] renders them back. A key that does not pack
    /// into a `u64` is interned in `long`; without one the call returns
    /// `false` and leaves `out` as it was.
    fn key_ids(&self, term: &str, long: Option<&mut KeyIds>, out: &mut Vec<u64>) -> bool {
        push_ids(self.keys(term).iter().map(String::as_str), long, out)
    }

    /// The key whose id [`Blocker::key_ids`] gave.
    fn render_key(&self, id: u64, long: &KeyIds) -> String {
        long.render(id)
    }
}

/// The id of a key whose UTF-8 bytes fit in eight bytes and hold no NUL:
/// the bytes packed big-endian, zero-padded. Packing is injective over such
/// keys and orders them as their bytes order (a prefix first), and a
/// non-empty key's id has a non-zero top byte.
fn packed_id(key: &str) -> Option<u64> {
    let bytes = key.as_bytes();
    if bytes.len() > 8 || bytes.contains(&0) {
        return None;
    }
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    Some(u64::from_be_bytes(word))
}

/// Integer ids of block keys: a key of at most eight bytes with no NUL
/// packs into its own id (its bytes big-endian, zero-padded: injective, and
/// in the keys' byte order); a longer one is interned here, its id its
/// interning index plus one.
/// Interned ids stay below 2^56, so their top byte is zero — which no
/// packed non-empty key's is — and the empty key packs to 0: the two kinds
/// never collide. Ids are comparable only between the keys of one blocker
/// interned in one table.
#[derive(Debug, Default)]
pub struct KeyIds {
    ids: HashMap<Box<str>, u64>,
    long: Vec<Box<str>>,
}

impl KeyIds {
    /// The interned id of a key that does not pack.
    fn intern(&mut self, key: &str) -> u64 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        self.long.push(key.into());
        let id = self.long.len() as u64;
        assert!(id < 1 << 56, "interned key ids stay below 2^56");
        self.ids.insert(key.into(), id);
        id
    }

    /// The key of `id`.
    pub fn render(&self, id: u64) -> String {
        if id >> 56 == 0 && id != 0 {
            return self.long[id as usize - 1].to_string();
        }
        let bytes = id.to_be_bytes();
        let len = bytes.iter().position(|&b| b == 0).unwrap_or(8);
        String::from_utf8_lossy(&bytes[..len]).into_owned()
    }
}

/// Append the ids of `keys` to `out`, sorted and deduplicated: packed, or
/// interned in `long`. `false`, with `out` as it was, when a key does not
/// pack and there is no `long`.
fn push_ids<'k>(
    keys: impl Iterator<Item = &'k str>,
    mut long: Option<&mut KeyIds>,
    out: &mut Vec<u64>,
) -> bool {
    let start = out.len();
    for key in keys {
        match (packed_id(key), long.as_deref_mut()) {
            (Some(id), _) => out.push(id),
            (None, Some(long)) => out.push(long.intern(key)),
            (None, None) => {
                out.truncate(start);
                return false;
            }
        }
    }
    out[start..].sort_unstable();
    let mut kept = start;
    for i in start..out.len() {
        if kept == start || out[i] != out[kept - 1] {
            out[kept] = out[i];
            kept += 1;
        }
    }
    out.truncate(kept);
    true
}

/// Does [`normalize`] map each character of `term` to exactly one
/// character — `term.is_ascii() && normalize(term).len() == term.len()`?
/// Then normalizing is a per-character map (alphanumerics to lowercase,
/// anything else to a space), which cannot raise an edit distance; that is
/// what makes the q-gram count bound of token filtering sound across
/// normalization (docs/LANGUAGE.md). For ASCII, no character is dropped
/// exactly when the term starts and ends alphanumeric (or is empty) and no
/// two neighbours are both not alphanumeric.
pub fn normalizes_per_char(term: &str) -> bool {
    let bytes = term.as_bytes();
    let alnum = |b: &u8| b.is_ascii_alphanumeric();
    term.is_ascii()
        && bytes.first().is_none_or(alnum)
        && bytes.last().is_none_or(alnum)
        && !bytes.windows(2).any(|w| !alnum(&w[0]) && !alnum(&w[1]))
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
    /// The distinct q-grams, sorted: the rendering of [`Blocker::key_ids`].
    fn keys(&self, term: &str) -> Vec<String> {
        let (mut long, mut ids) = (KeyIds::default(), Vec::new());
        self.key_ids(term, Some(&mut long), &mut ids);
        let mut keys: Vec<String> = ids.iter().map(|&id| long.render(id)).collect();
        keys.sort_unstable();
        keys
    }

    fn describe(&self) -> String {
        format!("token_filtering(q={})", self.q)
    }

    /// The q-grams of the normalized term, sliced from it: an ASCII
    /// term's q-grams are byte windows (a term of at most q characters is
    /// its own one q-gram).
    fn key_ids(&self, term: &str, long: Option<&mut KeyIds>, out: &mut Vec<u64>) -> bool {
        let norm = normalize(term);
        let q = self.q;
        match norm.is_ascii() && norm.len() > q {
            true => push_ids((0..=norm.len() - q).map(|i| &norm[i..i + q]), long, out),
            false => {
                let grams = qgram_spans(&norm, q).into_iter();
                push_ids(grams.map(|(lo, hi)| &norm[lo..hi]), long, out)
            }
        }
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

    fn key_ids(&self, term: &str, long: Option<&mut KeyIds>, out: &mut Vec<u64>) -> bool {
        match self {
            BlockerKind::TokenFilter(b) => b.key_ids(term, long, out),
            BlockerKind::KMeans(b) => b.key_ids(term, long, out),
            BlockerKind::Exact(b) => b.key_ids(term, long, out),
            BlockerKind::LengthBand(b) => b.key_ids(term, long, out),
        }
    }

    fn render_key(&self, id: u64, long: &KeyIds) -> String {
        match self {
            BlockerKind::TokenFilter(b) => b.render_key(id, long),
            BlockerKind::KMeans(b) => b.render_key(id, long),
            BlockerKind::Exact(b) => b.render_key(id, long),
            BlockerKind::LengthBand(b) => b.render_key(id, long),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_text::qgrams;
    use proptest::prelude::*;

    /// Terms with uppercase, punctuation, double spaces, multi-byte and
    /// combining characters, of up to twelve characters.
    fn term() -> impl Strategy<Value = String> {
        prop_oneof!["[a-cA-C .,-]{0,12}", "[abzé中ß\u{301} -]{0,12}"]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Packing is injective over keys of at most eight NUL-free bytes
        /// and orders them as their bytes order; a non-empty key's top byte
        /// is set, so it never meets an interned id.
        #[test]
        fn packed_ids_are_injective_and_order_preserving(a in "[a-z0-9 é中]{0,3}", b in "[a-z0-9 é中]{0,3}") {
            let (ia, ib) = (packed_id(&a), packed_id(&b));
            if let (Some(ia), Some(ib)) = (ia, ib) {
                prop_assert_eq!(ia == ib, a == b);
                prop_assert_eq!(ia.cmp(&ib), a.as_bytes().cmp(b.as_bytes()));
                prop_assert_eq!(ia >> 56 == 0, a.is_empty());
                prop_assert_eq!(KeyIds::default().render(ia), a);
            } else {
                prop_assert!(a.len() > 8 || b.len() > 8);
            }
        }

        /// `TokenFilter::keys` renders the ids, and both are the sorted
        /// distinct q-grams of the normalized term.
        #[test]
        fn token_filter_keys_render_its_ids(t in term(), q in 1usize..5) {
            let filter = TokenFilter::new(q);
            let mut expected = qgrams(&normalize(&t), q);
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(filter.keys(&t), expected.clone());
            let (mut long, mut ids) = (KeyIds::default(), vec![7]);
            prop_assert!(filter.key_ids(&t, Some(&mut long), &mut ids));
            prop_assert_eq!(ids[0], 7, "appends after what is there");
            let ids = &ids[1..];
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            let mut rendered: Vec<String> = ids.iter().map(|&id| filter.render_key(id, &long)).collect();
            rendered.sort_unstable();
            prop_assert_eq!(rendered, expected);
            // Without an interner the ids are the same, or none at all.
            let mut packed = Vec::new();
            match filter.key_ids(&t, None, &mut packed) {
                true => prop_assert_eq!(&packed[..], ids),
                false => prop_assert!(packed.is_empty()),
            }
        }

        #[test]
        fn normalizes_per_char_is_the_stated_condition(t in term()) {
            prop_assert_eq!(
                normalizes_per_char(&t),
                t.is_ascii() && normalize(&t).len() == t.len(),
                "{:?}",
                t
            );
        }
    }

    #[test]
    fn interned_ids_are_shared_and_render_back() {
        let mut long = KeyIds::default();
        let mut ids = Vec::new();
        assert!(!push_ids(["ab", "中中中"].into_iter(), None, &mut ids));
        assert!(ids.is_empty(), "nothing appended without an interner");
        let keys = ["中中中", "ab", "ééééé", "中中中", "", "a\0"];
        assert!(push_ids(keys.into_iter(), Some(&mut long), &mut ids));
        let ab = packed_id("ab").unwrap();
        assert_eq!(
            ids,
            vec![0, 1, 2, 3, ab],
            "sorted, distinct; a NUL never packs"
        );
        assert_eq!(long.render(2), "ééééé");
        assert_eq!(long.render(3), "a\0");
        assert_eq!(long.render(0), "");
        assert_eq!(long.render(ab), "ab");
    }

    #[test]
    fn kmeans_ids_are_center_indices() {
        let b = KMeansBlocker::new(vec!["anna".into(), "bob".into()], 0);
        let mut ids = Vec::new();
        assert!(b.key_ids("ann", None, &mut ids));
        assert_eq!(ids, vec![0]);
        assert_eq!(b.render_key(0, &KeyIds::default()), b.keys("ann")[0]);
    }

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
