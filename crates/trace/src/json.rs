//! The workspace's one JSON writer.
//!
//! The offline `serde` shim is a no-op marker trait, so every telemetry
//! export — trace logs, profile trees, reports, the metrics registry, the
//! `repro` artifacts — renders through these builders. Values are rendered
//! JSON fragments (`String`s), so builders nest: an object's field may hold
//! an array of objects. Two rules live here and nowhere else: strings are
//! escaped ([`escape`]) and non-finite numbers become `null` ([`num`]).
//! Output is compact: `{"name": value, …}` and `[item, …]`.

use std::fmt::Display;

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes). Handles quotes, backslashes, and control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal for `s`.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A finite JSON number for `x` (3 decimal places); non-finite values become
/// `null`, which raw `format!("{x}")` would not (JSON has no `NaN`/`inf`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// An object from `(name, rendered value)` fields, in the given order.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let fields = fields
        .into_iter()
        .map(|(name, value)| format!("{}: {value}", string(name.as_ref())));
    format!("{{{}}}", join(fields))
}

/// An array of rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", join(items))
}

/// An object whose names are data — counters by name, tallies by kind —
/// with values rendered by their `Display` (integers, in practice).
pub fn map<K: AsRef<str>, V: Display>(entries: impl IntoIterator<Item = (K, V)>) -> String {
    object(entries.into_iter().map(|(k, v)| (k, v.to_string())))
}

/// An array with one item per line: the layout of JSON files meant to be
/// read and diffed by row (`repro`'s `BENCH_*.json`).
pub fn lines(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| format!("  {item}")).collect();
    format!("[\n{}\n]\n", items.join(",\n"))
}

fn join(items: impl IntoIterator<Item = String>) -> String {
    items.into_iter().collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("x"), "\"x\"");
    }

    #[test]
    fn num_handles_non_finite() {
        assert_eq!(num(1.5), "1.500");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn builders_nest() {
        let tally: BTreeMap<String, u64> = [("b\"".to_string(), 2), ("a".to_string(), 1)].into();
        let js = object([
            ("n", 3.to_string()),
            ("xs", array([string("p"), num(0.5)])),
            ("tally", map(&tally)),
            ("empty", map(BTreeMap::<String, u64>::new())),
        ]);
        assert_eq!(
            js,
            r#"{"n": 3, "xs": ["p", 0.500], "tally": {"a": 1, "b\"": 2}, "empty": {}}"#
        );
        assert_eq!(array(Vec::new()), "[]");
        assert_eq!(
            lines([object([("k", "1".to_string())])]),
            "[\n  {\"k\": 1}\n]\n"
        );
    }
}
