//! Seeded FxHash-style hashing for grouping and partitioning.
//!
//! Every wide operator in the runtime hashes its keys — to pick a shuffle
//! target and to index the per-partition grouping tables. The standard
//! library's default hasher (SipHash 1-3) is keyed for HashDoS resistance
//! the engine does not need: grouping keys are the workload's own data, the
//! tables are transient, and a *deterministic* assignment is actively
//! desirable (stable partition layouts across runs make shuffles, plans and
//! benches reproducible). This module provides the multiply-rotate hasher
//! popularized by rustc (`FxHasher`), extended with an explicit **seed** so
//! determinism is a named constant rather than an accident, and with a
//! final avalanche mix so the low bits — the ones `hash % partitions` and
//! hash-table indexing consume — depend on every input byte.
//!
//! The one hash each key needs is computed once: shuffle drivers carry the
//! 64-bit hash alongside the key (see `cleanm_exec`), so a key is hashed
//! exactly once no matter how many tables and shuffle hops it crosses.

use std::hash::{BuildHasher, Hash, Hasher};

/// The fixed seed every engine-internal grouping structure uses. Changing
/// it re-shuffles every partition assignment, so it is part of the
/// engine's observable determinism contract (pinned by proptests).
pub const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiplier of the Fx multiply-rotate round (the same constant rustc
/// uses: a random odd 64-bit number with good bit dispersion).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A seeded Fx-style streaming hasher: one rotate-xor-multiply round per
/// 8-byte word, with a final xor-shift avalanche in [`Hasher::finish`].
///
/// Not DoS-resistant by design — use only on data the engine already owns.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher starting from `seed`.
    #[inline]
    pub(crate) fn with_seed(seed: u64) -> FxHasher {
        FxHasher { hash: seed }
    }

    #[inline]
    fn round(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Default for FxHasher {
    #[inline]
    fn default() -> Self {
        FxHasher::with_seed(HASH_SEED)
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.round(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "c" and "a" + "bc" differ.
            self.round(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.round(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.round(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.round(i as u64);
        self.round((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.round(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Xor-shift-multiply avalanche: Fx alone leaves the low bits of
        // short inputs poorly mixed, and both `% partitions` and hashbrown's
        // bucket index read exactly those bits.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

/// [`BuildHasher`] for [`FxHasher`] seeded with [`HASH_SEED`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::with_seed(HASH_SEED)
    }
}

/// A `HashMap` keyed by the seeded fast hasher — the engine's grouping map.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` over the seeded fast hasher — the engine's distinct set.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash one value with the seeded fast hasher. This is the single hash a
/// grouping key pays: shuffle drivers compute it once and carry it with the
/// key from the map-side table through the shuffle to the merge table.
#[inline]
pub fn fx_hash<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
    let mut h = FxHasher::with_seed(seed);
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn deterministic_across_hashers_with_same_seed() {
        let v = Value::record([("k", Value::str("main st")), ("n", Value::Int(7))]);
        assert_eq!(fx_hash(HASH_SEED, &v), fx_hash(HASH_SEED, &v));
        assert_ne!(fx_hash(HASH_SEED, &v), fx_hash(HASH_SEED ^ 1, &v));
    }

    #[test]
    fn int_and_float_keys_agree_like_value_eq() {
        // Value's Hash canonicalizes numerics; the hasher must preserve it.
        assert_eq!(
            fx_hash(HASH_SEED, &Value::Int(42)),
            fx_hash(HASH_SEED, &Value::Float(42.0))
        );
    }

    #[test]
    fn chunk_boundaries_do_not_collide() {
        // Same bytes split differently across write() calls still hash the
        // byte stream; different streams with shared prefixes diverge.
        let a = fx_hash(HASH_SEED, "abcdefgh-1");
        let b = fx_hash(HASH_SEED, "abcdefgh-2");
        assert_ne!(a, b);
        assert_ne!(fx_hash(HASH_SEED, "ab"), fx_hash(HASH_SEED, "a\u{0}"));
    }

    #[test]
    fn low_bits_spread_over_partitions() {
        // 10k sequential int keys over 7 partitions: every partition gets a
        // meaningful share (the avalanche keeps `% n` usable).
        let mut counts = [0usize; 7];
        for i in 0..10_000i64 {
            counts[(fx_hash(HASH_SEED, &Value::Int(i)) % 7) as usize] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(c > 10_000 / 7 / 2, "partition {p} starved: {counts:?}");
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<Value, u64> = FxHashMap::default();
        m.insert(Value::str("a"), 1);
        assert_eq!(m[&Value::str("a")], 1);
        let mut s: FxHashSet<Value> = FxHashSet::default();
        s.insert(Value::Int(1));
        assert!(s.contains(&Value::Float(1.0)), "numeric canonicalization");
    }
}
