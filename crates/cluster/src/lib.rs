//! Clustering and blocking algorithms expressed as monoids.
//!
//! §4.2–4.3 of the paper prune similarity-join comparisons by first grouping
//! values so that only intra-group pairs are compared. Two families are
//! mapped to the monoid calculus:
//!
//! * **Token filtering** ([`TokenFilter`]) — split each word into q-grams and
//!   place it in one group per token; similar words share at least one token.
//! * **Single-pass k-means** ([`KMeansBlocker`], [`select_centers`]) — the
//!   ClusterJoin-inspired variation: sample k centers once, then assign every
//!   word to its closest center (optionally all centers within `delta` of the
//!   minimum, trading extra comparisons for recall).
//!
//! The common interface is [`Blocker`]: a pure function from a term to the
//! set of group keys it belongs to. Purity is exactly what makes the
//! grouping a monoid homomorphism: the engine's `Nest` operator groups by
//! blocker key partition by partition and merges the partial groups.
//! [`Blocker::key_ids`] gives the same keys as integers ([`KeyIds`]: a key
//! of at most eight bytes packed into a `u64`, a longer one interned), the
//! form the engine's keyed blocks compare and count.
//!
//! The paper's optional variants are implemented too: [`kmeans_multipass`]
//! (the classic iterative algorithm, §4.3 "multi-pass partitional") and
//! [`LengthBand`] blocking (§4.3 "extensibility").

mod blocking;
mod kmeans;

pub use blocking::{
    normalizes_per_char, Blocker, BlockerKind, ExactKey, KeyIds, LengthBand, TokenFilter,
};
pub use kmeans::{kmeans_multipass, select_centers, CenterInit, KMeansBlocker};
