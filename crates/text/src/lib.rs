//! String similarity and tokenization substrate.
//!
//! Term validation, deduplication, and similarity joins in the paper all
//! bottom out in (a) a similarity metric between strings and (b) a way to
//! carve strings into tokens for blocking. This crate implements both from
//! scratch:
//!
//! * [`levenshtein`] / [`levenshtein_similarity`] — edit distance (the
//!   paper's `LD` metric) as the plain two-row DP: the oracle.
//! * [`levenshtein_bounded`] — "is the distance at most `max`?", allocation-
//!   free: a length filter, then Myers' bit-vector kernel for ASCII
//!   patterns of up to 64 characters or Ukkonen's banded DP for the rest;
//!   [`LdPattern`] holds one side prepared for many such tests.
//! * [`Matcher`] — a metric and threshold with one side prepared once
//!   ([`Metric::matcher`]), for loops that test one string against many;
//!   [`Metric::similar`] is its one-shot form.
//! * [`jaccard_qgrams`] / [`jaccard_words`] — Jaccard set similarity.
//! * [`jaro`] / [`jaro_winkler`] — transposition-tolerant similarity.
//! * [`Metric`] — the runtime-selected metric enum used by CleanM's
//!   `DEDUP(op, metric, theta, attrs)` clauses.
//! * [`qgrams`] / [`words`] / [`normalize`] — tokenizers.
//! * [`reservoir_sample`] / [`fixed_step_sample`] — the sampling primitives
//!   §4.3 parameterizes the function-composition monoid with (k-means center
//!   initialization).

mod metric;
mod sample;
mod sim;
mod tokenize;

pub use metric::{Matcher, Metric};
pub use sample::{fixed_step_sample, reservoir_sample};
pub use sim::{
    jaccard_qgrams, jaccard_words, jaro, jaro_winkler, levenshtein, levenshtein_bounded,
    levenshtein_similarity, LdPattern,
};
pub use tokenize::{normalize, qgram_spans, qgrams, word_spans, words};
