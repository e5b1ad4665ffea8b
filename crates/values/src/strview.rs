//! Zero-copy string views over shared [`Value::Str`] storage.
//!
//! The text builtins (`prefix`, `lower`, `trim`, tokenizers…) used to
//! return a freshly allocated `String` per call, which made
//! transformation workloads allocation-bound: most calls return either
//! the input unchanged (a string that is already lowercase, already
//! trimmed) or a plain slice of it. [`StrView`] is the intermediate those
//! builtins thread through evaluation instead — it remembers *where the
//! bytes live*, and only materializes an owned value at a record-build
//! boundary ([`StrView::into_value`]). When the view covers its entire
//! shared source, materialization is a reference-count bump on the
//! source's `Arc<str>` — no bytes are copied at all.

use std::sync::Arc;

use crate::value::Value;

/// A string intermediate that remembers where its bytes live: a slice of
/// a shared `Arc<str>`, a plain borrow, or freshly computed text. Built by
/// the zero-copy text builtins; converted to an owned [`Value`] only at
/// record-build boundaries.
///
/// ```
/// use std::sync::Arc;
/// use cleanm_values::{StrView, Value};
///
/// let src: Arc<str> = Arc::from("already lowercase");
/// // A view covering the whole source materializes by bumping the
/// // refcount — the returned value shares the source allocation.
/// let v = StrView::whole(&src).into_value();
/// match v {
///     Value::Str(s) => assert!(Arc::ptr_eq(&s, &src)),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub enum StrView<'a> {
    /// A byte-range slice of a shared source string. `start..end` must lie
    /// on `char` boundaries of `src`.
    Shared {
        /// The shared source the slice points into.
        src: &'a Arc<str>,
        /// Start byte offset (inclusive).
        start: usize,
        /// End byte offset (exclusive).
        end: usize,
    },
    /// Borrowed text with no shared allocation behind it (e.g. rendered
    /// from a non-string value on the caller's stack).
    Borrowed(&'a str),
    /// Freshly computed text (case folding that actually changed bytes,
    /// concatenation).
    Owned(String),
}

impl<'a> StrView<'a> {
    /// A view covering the whole shared source — materializes without
    /// copying.
    pub fn whole(src: &'a Arc<str>) -> Self {
        StrView::Shared {
            src,
            start: 0,
            end: src.len(),
        }
    }

    /// A sub-slice of a shared source by byte range. Panics (on access)
    /// if the range is out of bounds or splits a `char`.
    pub fn slice(src: &'a Arc<str>, start: usize, end: usize) -> Self {
        StrView::Shared { src, start, end }
    }

    /// The viewed text.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            StrView::Shared { src, start, end } => &src[*start..*end],
            StrView::Borrowed(s) => s,
            StrView::Owned(s) => s,
        }
    }

    /// Materialize into an owned [`Value::Str`]. A whole-source shared
    /// view clones the source `Arc` (no bytes copied); everything else
    /// pays exactly one allocation here — the *only* place one can occur.
    pub fn into_value(self) -> Value {
        match self {
            StrView::Shared { src, start, end } if start == 0 && end == src.len() => {
                Value::Str(Arc::clone(src))
            }
            other => Value::Str(Arc::from(other.as_str())),
        }
    }
}

impl<'a> From<&'a str> for StrView<'a> {
    fn from(s: &'a str) -> Self {
        StrView::Borrowed(s)
    }
}

impl From<String> for StrView<'_> {
    fn from(s: String) -> Self {
        StrView::Owned(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_view_materializes_by_refcount() {
        let src: Arc<str> = Arc::from("abc");
        match StrView::whole(&src).into_value() {
            Value::Str(s) => assert!(Arc::ptr_eq(&s, &src)),
            other => panic!("expected Str, got {other:?}"),
        }
    }

    #[test]
    fn partial_slice_allocates_once_with_right_bytes() {
        let src: Arc<str> = Arc::from("123-4567");
        let v = StrView::slice(&src, 0, 3);
        assert_eq!(v.as_str(), "123");
        assert_eq!(v.into_value(), Value::str("123"));
    }

    #[test]
    fn borrowed_and_owned_views() {
        assert_eq!(StrView::from("xy").as_str(), "xy");
        assert_eq!(
            StrView::from(String::from("z")).into_value(),
            Value::str("z")
        );
    }
}
