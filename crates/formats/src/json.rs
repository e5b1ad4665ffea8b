//! JSON parsing and serialization, from scratch.
//!
//! The parser produces [`Value`] trees: objects become [`Value::Struct`]
//! (field order preserved), arrays become [`Value::List`], and numbers become
//! `Int` when integral, else `Float`. A malformed document — truncated, a
//! bad escape, a lone surrogate, arrays and objects nested deeper than
//! [`MAX_DEPTH`](crate::MAX_DEPTH) — is an [`Error::Parse`], never a panic.

use cleanm_values::{DataType, Error, Result, Row, Schema, Table, Value};

/// Parse a complete JSON document into a [`Value`].
pub fn parse(text: &str) -> Result<Value> {
    let mut p = Parser::new(text);
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(Error::Parse(format!(
            "trailing data at byte {} of JSON document",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    /// Parse the value at the cursor, `depth` arrays and objects deep.
    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(crate::nested("JSON", depth)?),
            Some(b'[') => self.parse_array(crate::nested("JSON", depth)?),
            Some(b'"') => Ok(Value::from(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::Parse(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.text[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::Parse(format!(
                "invalid keyword at byte {}",
                self.pos
            )))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields: Vec<(std::sync::Arc<str>, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Struct(fields.into()));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            fields.push((std::sync::Arc::from(key.as_str()), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                other => {
                    return Err(Error::Parse(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
        Ok(Value::Struct(fields.into()))
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::list(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                other => {
                    return Err(Error::Parse(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    )))
                }
            }
        }
        Ok(Value::list(items))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::Parse("unterminated string".to_string()));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(Error::Parse("dangling escape".to_string()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // A high surrogate must be followed by a low one;
                            // a lone surrogate of either half is invalid.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.text[self.pos..].starts_with("\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&low)
                                        .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                                } else {
                                    None
                                }
                                .and_then(char::from_u32)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| {
                                Error::Parse("invalid unicode escape".to_string())
                            })?);
                        }
                        other => {
                            return Err(Error::Parse(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one full UTF-8 char.
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let hex = (self.text.get(self.pos..self.pos + 4))
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| Error::Parse(format!("bad \\u escape at byte {}", self.pos)))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::Parse(format!("invalid hex `{hex}`")))
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::Parse(format!("bad number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::Parse(format!("bad number `{text}`")))
        }
    }
}

/// Serialize a [`Value`] to compact JSON text.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Integral floats keep a `.0` so they round-trip as floats.
                if *f == f.trunc() && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::List(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, v);
            }
            out.push(']');
        }
        Value::Struct(fields) => {
            out.push('{');
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, n);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Convert a value tree to a [`Row`] by extracting the schema's fields by
/// name; missing fields become `Null`. Values are checked against the field
/// types.
pub fn value_to_row(value: &Value, schema: &Schema) -> Result<Row> {
    let mut values = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let v = match value.field(&field.name) {
            Ok(v) => v.clone(),
            Err(_) => Value::Null,
        };
        let v = coerce(v, &field.dtype)?;
        values.push(v);
    }
    Ok(Row::new(values))
}

/// Coerce a parsed value into a target type (Int→Float widening; everything
/// else must already match).
fn coerce(v: Value, dtype: &DataType) -> Result<Value> {
    let v = match (&v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (Value::List(items), DataType::List(elem)) => Value::list(
            items
                .iter()
                .map(|x| coerce(x.clone(), elem))
                .collect::<Result<Vec<_>>>()?,
        ),
        _ => v,
    };
    if dtype.admits(&v) {
        Ok(v)
    } else {
        Err(Error::Parse(format!(
            "value `{v}` does not inhabit {dtype}"
        )))
    }
}

/// Read a table from a JSON document that is either a top-level array of
/// objects or newline-delimited objects (JSON-lines).
pub fn read_table(text: &str, schema: &Schema) -> Result<Table> {
    let trimmed = text.trim_start();
    let mut rows = Vec::new();
    if trimmed.starts_with('[') {
        let doc = parse(text)?;
        for item in doc.as_list()? {
            rows.push(value_to_row(item, schema)?);
        }
    } else {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = parse(line)?;
            rows.push(value_to_row(&doc, schema)?);
        }
    }
    Ok(Table::new(schema.clone(), rows))
}

/// Serialize a table as JSON-lines, one object per row.
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    for row in &table.rows {
        let v = row.to_struct(&table.schema);
        out.push_str(&to_string(&v));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::DataType;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-3.5").unwrap(), Value::Float(-3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(
            v.field("a").unwrap(),
            &Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(v.field("b").unwrap().field("c").unwrap(), &Value::str("x"));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(parse(r#""a\n\"b\"é""#).unwrap(), Value::str("a\n\"b\"é"));
        // Surrogate pair: U+1F600
        assert_eq!(parse(r#""😀""#).unwrap(), Value::str("😀"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("truthy").is_err());
    }

    #[test]
    fn serialize_roundtrip() {
        let v = Value::record([
            ("n", Value::Int(1)),
            ("f", Value::Float(2.5)),
            ("s", Value::str("x\"y")),
            ("l", Value::list([Value::Null, Value::Bool(false)])),
        ]);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn float_roundtrips_as_float() {
        let v = Value::Float(3.0);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), Value::Float(3.0));
        assert!(matches!(parse(&text).unwrap(), Value::Float(_)));
    }

    #[test]
    fn table_from_array_and_jsonl() {
        let schema = Schema::of([("id", DataType::Int), ("name", DataType::Str)]);
        let array = r#"[{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]"#;
        let t1 = read_table(array, &schema).unwrap();
        assert_eq!(t1.len(), 2);

        let jsonl = "{\"id\":1,\"name\":\"a\"}\n{\"id\":2,\"name\":\"b\"}\n";
        let t2 = read_table(jsonl, &schema).unwrap();
        assert_eq!(t1.rows, t2.rows);
    }

    #[test]
    fn missing_fields_become_null() {
        let schema = Schema::of([("id", DataType::Int), ("name", DataType::Str)]);
        let t = read_table(r#"[{"id": 1}]"#, &schema).unwrap();
        assert_eq!(t.rows[0].values()[1], Value::Null);
    }

    #[test]
    fn write_table_roundtrip() {
        let schema = Schema::of([
            ("id", DataType::Int),
            ("tags", DataType::List(Box::new(DataType::Str))),
        ]);
        let t = Table::new(
            schema.clone(),
            vec![Row::new(vec![
                Value::Int(1),
                Value::list([Value::str("x"), Value::str("y")]),
            ])],
        );
        let text = write_table(&t);
        let back = read_table(&text, &schema).unwrap();
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn int_widens_to_float_column() {
        let schema = Schema::of([("x", DataType::Float)]);
        let t = read_table(r#"[{"x": 3}]"#, &schema).unwrap();
        assert_eq!(t.rows[0].values()[0], Value::Float(3.0));
    }
}
