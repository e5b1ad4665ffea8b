//! XML subset parser sufficient for DBLP-shaped documents.
//!
//! Supported: elements, attributes, text content, the five predefined
//! entities, comments, processing instructions, and CDATA. Not supported (not
//! needed for the paper's workloads): DTDs, namespaces, mixed content with
//! significant interleaving.
//!
//! Mapping to [`Value`]:
//! * an element with only text content becomes that text (`Value::Str`);
//! * an element with children becomes a [`Value::Struct`]; children that
//!   repeat under the same tag become one field holding a [`Value::List`];
//! * attributes become leading struct fields named `@attr`.
//!
//! A malformed document — truncated, an unterminated tag, a mismatched
//! closing tag, elements nested deeper than
//! [`MAX_DEPTH`](crate::MAX_DEPTH) — is an [`Error::Parse`], never a panic.

use cleanm_values::{Error, Result, Row, Schema, Table, Value};
use std::sync::Arc;

/// One parsed XML element.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    pub tag: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<Element>,
    pub text: String,
}

/// Parse an XML document and return the root element.
pub fn parse(text: &str) -> Result<Element> {
    let mut p = XmlParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_misc();
    let root = p.parse_element(0)?;
    p.skip_misc();
    if p.pos < p.bytes.len() {
        return Err(Error::Parse(format!(
            "trailing content at byte {} of XML document",
            p.pos
        )));
    }
    Ok(root)
}

struct XmlParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Skip whitespace, XML declarations, comments, and PIs between elements.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let rest = &self.text[self.pos..];
            if rest.starts_with("<?") {
                match rest.find("?>") {
                    Some(end) => self.pos += end + 2,
                    None => return,
                }
            } else if rest.starts_with("<!--") {
                match rest.find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return,
                }
            } else if rest.starts_with("<!DOCTYPE") {
                match rest.find('>') {
                    Some(end) => self.pos += end + 1,
                    None => return,
                }
            } else {
                return;
            }
        }
    }

    /// Parse the element at the cursor, inside `depth` others.
    fn parse_element(&mut self, depth: usize) -> Result<Element> {
        let depth = crate::nested("XML", depth)?;
        if self.bytes.get(self.pos) != Some(&b'<') {
            return Err(Error::Parse(format!("expected `<` at byte {}", self.pos)));
        }
        self.pos += 1;
        let tag = self.parse_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        return Ok(Element {
                            tag,
                            attributes,
                            children: Vec::new(),
                            text: String::new(),
                        });
                    }
                    return Err(Error::Parse(format!(
                        "malformed self-closing tag at byte {}",
                        self.pos
                    )));
                }
                Some(_) => {
                    let name = self.parse_name()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'=') {
                        return Err(Error::Parse(format!(
                            "expected `=` after attribute `{name}`"
                        )));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.bytes.get(self.pos) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        _ => {
                            return Err(Error::Parse("attribute value must be quoted".to_string()))
                        }
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|&b| b != quote) {
                        self.pos += 1;
                    }
                    let raw = &self.text[start..self.pos];
                    if self.bytes.get(self.pos) != Some(&quote) {
                        return Err(Error::Parse("unterminated attribute".to_string()));
                    }
                    self.pos += 1;
                    attributes.push((name, unescape(raw)?));
                }
                None => return Err(Error::Parse("unexpected end inside tag".to_string())),
            }
        }

        // Content: text and/or child elements until the closing tag.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            let rest = &self.text[self.pos..];
            if rest.is_empty() {
                return Err(Error::Parse(format!("unclosed element `{tag}`")));
            }
            if let Some(stripped) = rest.strip_prefix("</") {
                let end = stripped
                    .find('>')
                    .ok_or_else(|| Error::Parse("malformed closing tag".to_string()))?;
                let closing = stripped[..end].trim();
                if closing != tag {
                    return Err(Error::Parse(format!(
                        "mismatched closing tag: expected `{tag}`, found `{closing}`"
                    )));
                }
                self.pos += 2 + end + 1;
                return Ok(Element {
                    tag,
                    attributes,
                    children,
                    text: text.trim().to_string(),
                });
            } else if rest.starts_with("<!--") {
                match rest.find("-->") {
                    Some(end) => self.pos += end + 3,
                    None => return Err(Error::Parse("unterminated comment".to_string())),
                }
            } else if rest.starts_with("<![CDATA[") {
                match rest.find("]]>") {
                    Some(end) => {
                        text.push_str(&rest[9..end]);
                        self.pos += end + 3;
                    }
                    None => return Err(Error::Parse("unterminated CDATA".to_string())),
                }
            } else if rest.starts_with('<') {
                children.push(self.parse_element(depth)?);
            } else {
                let next_tag = rest.find('<').unwrap_or(rest.len());
                text.push_str(&unescape(&rest[..next_tag])?);
                self.pos += next_tag;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(Error::Parse(format!("expected name at byte {start}")));
        }
        Ok(self.text[start..self.pos].to_string())
    }
}

fn unescape(s: &str) -> Result<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| Error::Parse("unterminated entity".to_string()))?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| Error::Parse(format!("bad entity `&{entity};`")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| Error::Parse(format!("bad codepoint in `&{entity};`")))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| Error::Parse(format!("bad entity `&{entity};`")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| Error::Parse(format!("bad codepoint in `&{entity};`")))?,
                );
            }
            _ => return Err(Error::Parse(format!("unknown entity `&{entity};`"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Convert an element to a [`Value`]: leaf elements become their text,
/// internal elements become structs, repeated tags become lists.
pub fn element_to_value(el: &Element) -> Value {
    if el.children.is_empty() && el.attributes.is_empty() {
        return Value::str(&el.text);
    }
    let mut fields: Vec<(Arc<str>, Value)> = Vec::new();
    for (name, value) in &el.attributes {
        fields.push((Arc::from(format!("@{name}").as_str()), Value::str(value)));
    }
    // Group children by tag, preserving first-appearance order.
    let mut order: Vec<&str> = Vec::new();
    for child in &el.children {
        if !order.contains(&child.tag.as_str()) {
            order.push(&child.tag);
        }
    }
    for tag in order {
        let matches: Vec<Value> = el
            .children
            .iter()
            .filter(|c| c.tag == tag)
            .map(element_to_value)
            .collect();
        let value = if matches.len() == 1 {
            matches.into_iter().next().unwrap()
        } else {
            Value::list(matches)
        };
        fields.push((Arc::from(tag), value));
    }
    if !el.text.is_empty() {
        fields.push((Arc::from("#text"), Value::str(&el.text)));
    }
    Value::Struct(fields.into())
}

/// Read a table from an XML document: each child of the root becomes one
/// row, with fields extracted by name per the schema (as in
/// [`crate::json::value_to_row`]). A field typed `List<_>` accepts a single
/// occurrence by wrapping it.
pub fn read_table(text: &str, schema: &Schema) -> Result<Table> {
    let root = parse(text)?;
    let mut rows = Vec::new();
    for child in &root.children {
        let value = element_to_value(child);
        let mut values = Vec::with_capacity(schema.len());
        for field in schema.fields() {
            let raw = value.field(&field.name).cloned().unwrap_or(Value::Null);
            values.push(coerce_xml(raw, &field.dtype)?);
        }
        rows.push(Row::new(values));
    }
    Ok(Table::new(schema.clone(), rows))
}

fn coerce_xml(v: Value, dtype: &cleanm_values::DataType) -> Result<Value> {
    use cleanm_values::DataType;
    match (v, dtype) {
        (Value::Null, _) => Ok(Value::Null),
        (Value::Str(s), DataType::Int | DataType::Float | DataType::Bool) => dtype.parse(&s),
        (Value::Str(s), DataType::Str) => Ok(Value::Str(s)),
        // Single occurrence of a repeatable element.
        (v @ (Value::Str(_) | Value::Struct(_)), DataType::List(elem)) => {
            Ok(Value::list([coerce_xml(v, elem)?]))
        }
        (Value::List(items), DataType::List(elem)) => Ok(Value::list(
            items
                .iter()
                .map(|x| coerce_xml(x.clone(), elem))
                .collect::<Result<Vec<_>>>()?,
        )),
        (v, _) => {
            if dtype.admits(&v) {
                Ok(v)
            } else {
                Err(Error::Parse(format!(
                    "XML value `{v}` does not inhabit {dtype}"
                )))
            }
        }
    }
}

/// Serialize a table as an XML document with the given root and row tags.
/// List-typed fields repeat their element tag (singular of the field name is
/// not attempted; the field name itself is used per item).
pub fn write_table(table: &Table, root_tag: &str, row_tag: &str) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(&format!("<{root_tag}>\n"));
    for row in &table.rows {
        out.push_str(&format!("  <{row_tag}>"));
        for (field, value) in table.schema.fields().iter().zip(row.values()) {
            write_field(&mut out, &field.name, value);
        }
        out.push_str(&format!("</{row_tag}>\n"));
    }
    out.push_str(&format!("</{root_tag}>\n"));
    out
}

fn write_field(out: &mut String, name: &str, value: &Value) {
    match value {
        Value::Null => {}
        Value::List(items) => {
            for item in items.iter() {
                write_field(out, name, item);
            }
        }
        Value::Struct(fields) => {
            out.push_str(&format!("<{name}>"));
            for (n, v) in fields.iter() {
                write_field(out, n, v);
            }
            out.push_str(&format!("</{name}>"));
        }
        scalar => {
            out.push_str(&format!("<{name}>{}</{name}>", escape(&scalar.to_text())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::DataType;

    #[test]
    fn parse_simple_element() {
        let el = parse("<a>hello</a>").unwrap();
        assert_eq!(el.tag, "a");
        assert_eq!(el.text, "hello");
        assert!(el.children.is_empty());
    }

    #[test]
    fn parse_nested_and_attributes() {
        let el = parse(r#"<pub key="42"><title>X &amp; Y</title><year>2017</year></pub>"#).unwrap();
        assert_eq!(el.attributes, vec![("key".to_string(), "42".to_string())]);
        assert_eq!(el.children.len(), 2);
        assert_eq!(el.children[0].text, "X & Y");
    }

    #[test]
    fn parse_self_closing_and_misc() {
        let el = parse("<?xml version=\"1.0\"?><!-- c --><r><a/><b>x</b></r>").unwrap();
        assert_eq!(el.children.len(), 2);
        assert_eq!(el.children[0].tag, "a");
    }

    #[test]
    fn parse_cdata_and_numeric_entities() {
        let el = parse("<a><![CDATA[1 < 2]]></a>").unwrap();
        assert_eq!(el.text, "1 < 2");
        let el = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(el.text, "AB");
    }

    #[test]
    fn parse_errors() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
        assert!(parse("<a x=1></a>").is_err());
    }

    #[test]
    fn repeated_children_become_lists() {
        let el = parse("<pub><author>A</author><author>B</author><title>T</title></pub>").unwrap();
        let v = element_to_value(&el);
        assert_eq!(
            v.field("author").unwrap(),
            &Value::list([Value::str("A"), Value::str("B")])
        );
        assert_eq!(v.field("title").unwrap(), &Value::str("T"));
    }

    fn pub_schema() -> Schema {
        Schema::of([
            ("title", DataType::Str),
            ("year", DataType::Int),
            ("authors", DataType::List(Box::new(DataType::Str))),
        ])
    }

    #[test]
    fn table_roundtrip() {
        let doc = "<pubs>\
                   <pub><title>T1</title><year>2001</year><authors>A</authors><authors>B</authors></pub>\
                   <pub><title>T2</title><year>2002</year><authors>C</authors></pub>\
                   </pubs>";
        let t = read_table(doc, &pub_schema()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.rows[0].values()[2],
            Value::list([Value::str("A"), Value::str("B")])
        );
        // Single author coerced into a one-element list.
        assert_eq!(t.rows[1].values()[2], Value::list([Value::str("C")]));

        let text = write_table(&t, "pubs", "pub");
        let back = read_table(&text, &pub_schema()).unwrap();
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn escaping_roundtrip() {
        let schema = Schema::of([("s", DataType::Str)]);
        let t = Table::new(
            schema.clone(),
            vec![Row::new(vec![Value::str("a < b & \"c\"")])],
        );
        let text = write_table(&t, "rows", "row");
        let back = read_table(&text, &schema).unwrap();
        assert_eq!(back.rows, t.rows);
    }
}
