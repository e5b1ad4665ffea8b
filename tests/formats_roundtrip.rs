//! Format substrate integration: the same generated data must survive
//! round-trips through every format, and flattening must commute with them.

use cleanm::datagen::dblp::DblpGen;
use cleanm::datagen::tpch::LineitemGen;
use cleanm::formats::{colbin, csv, flatten, json, xml};
use proptest::prelude::*;

#[test]
fn lineitem_survives_all_flat_formats() {
    let table = LineitemGen::new(21).rows(500).generate().table;

    let text = csv::write_str(&table, &csv::CsvOptions::default());
    let from_csv = csv::read_str(&text, &table.schema, &csv::CsvOptions::default()).unwrap();
    assert_eq!(from_csv.rows, table.rows, "CSV");

    let from_bin = colbin::decode(colbin::encode(&table).unwrap()).unwrap();
    assert_eq!(from_bin.rows, table.rows, "colbin");

    let jsonl = json::write_table(&table);
    let from_json = json::read_table(&jsonl, &table.schema).unwrap();
    assert_eq!(from_json.rows, table.rows, "JSON");
}

#[test]
fn nested_dblp_survives_nested_formats() {
    let table = DblpGen::new(22).publications(200).generate().table;

    let jsonl = json::write_table(&table);
    let from_json = json::read_table(&jsonl, &table.schema).unwrap();
    assert_eq!(from_json.rows, table.rows, "JSON nested");

    let from_bin = colbin::decode(colbin::encode(&table).unwrap()).unwrap();
    assert_eq!(from_bin.rows, table.rows, "colbin nested");

    let xml_text = xml::write_table(&table, "dblp", "pub");
    let from_xml = xml::read_table(&xml_text, &table.schema).unwrap();
    assert_eq!(from_xml.rows, table.rows, "XML nested");
}

#[test]
fn flatten_commutes_with_serialization() {
    let nested = DblpGen::new(23).publications(150).generate().table;
    // flatten(read(write(nested))) == read(write(flatten(nested)))
    let via_nested = {
        let jsonl = json::write_table(&nested);
        let back = json::read_table(&jsonl, &nested.schema).unwrap();
        flatten::flatten(&back).unwrap()
    };
    let via_flat = {
        let flat = flatten::flatten(&nested).unwrap();
        let text = csv::write_str(&flat, &csv::CsvOptions::default());
        csv::read_str(&text, &flat.schema, &csv::CsvOptions::default()).unwrap()
    };
    assert_eq!(via_nested.rows, via_flat.rows);
}

/// Malformed and edge-case CSV through every reader: a typed error or
/// exactly the cells the text holds — never a panic, never a changed cell.
#[test]
fn malformed_csv_is_a_typed_error_or_the_exact_cells() {
    use cleanm::values::{DataType, Error, Schema, Table, Value};
    type Cells = Vec<Vec<Value>>;
    let schema = Schema::of([("id", DataType::Int), ("name", DataType::Str)]);
    let row = |id: i64, name: &str| vec![Value::Int(id), Value::str(name)];
    let big = "x".repeat(1 << 20);
    let cases: Vec<(&str, char, Vec<u8>, Option<Cells>)> = vec![
        (
            "bare CR inside a field",
            ',',
            b"id,name\r\n1,a\rb\r\n".to_vec(),
            Some(vec![row(1, "a\rb")]),
        ),
        (
            "unterminated quote",
            ',',
            b"id,name\n1,\"abc\n".to_vec(),
            None,
        ),
        (
            "quote inside an unquoted field",
            ',',
            b"id,name\n1,ab\"c\n".to_vec(),
            None,
        ),
        (
            "quoted text inside an unquoted field",
            ',',
            b"id,name\n1,ab\"c\"\n".to_vec(),
            None,
        ),
        ("wrong arity", ',', b"id,name\n1,a,extra\n".to_vec(), None),
        ("header mismatch", ',', b"id,nom\n1,a\n".to_vec(), None),
        ("header only", ',', b"id,name\n".to_vec(), Some(vec![])),
        ("empty file", ',', Vec::new(), Some(vec![])),
        // The text readers take `&str`, so they see the lossy decoding.
        (
            "invalid UTF-8",
            ',',
            b"id,name\n1,\xff\xfe\n".to_vec(),
            Some(vec![row(1, "\u{fffd}\u{fffd}")]),
        ),
        (
            "1 MB field",
            ',',
            format!("id,name\n7,{big}\n").into_bytes(),
            Some(vec![row(7, &big)]),
        ),
        (
            "BOM before the header",
            ',',
            b"\xef\xbb\xbfid,name\r\n1,a\r\n".to_vec(),
            Some(vec![row(1, "a")]),
        ),
        (
            "text after the closing quote",
            ',',
            b"id,name\n1,\"ab\"cd\n".to_vec(),
            Some(vec![row(1, "abcd")]),
        ),
        (
            "an escaped quote alone",
            ',',
            b"id,name\n1,\"\"\"\"\n".to_vec(),
            Some(vec![row(1, "\"")]),
        ),
        (
            "a quote after the closing quote",
            ',',
            b"id,name\n1,\"a\"b\"\n".to_vec(),
            None,
        ),
        (
            "multi-byte delimiter",
            '§',
            "id§name\n1§a,b§\n2§\"§\"\n".as_bytes().to_vec(),
            None,
        ),
        (
            "multi-byte delimiter",
            '§',
            "id§name\n1§a,b\n2§\"§\"\n".as_bytes().to_vec(),
            Some(vec![row(1, "a,b"), row(2, "§")]),
        ),
        (
            "CRLF inside a quoted cell",
            ',',
            b"id,name\r\n1,\"a\r\nb\"\r\n".to_vec(),
            Some(vec![row(1, "a\r\nb")]),
        ),
        // A blank line is a one-field record.
        (
            "trailing blank line",
            ',',
            b"id,name\n1,a\n\n".to_vec(),
            None,
        ),
    ];
    let dir = std::env::temp_dir().join(format!("cleanm_csv_corpus_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table_cells = |t: Table| -> Cells { t.rows.iter().map(|r| r.values().to_vec()).collect() };
    for (i, (name, delimiter, bytes, expected)) in cases.into_iter().enumerate() {
        let opts = csv::CsvOptions {
            delimiter,
            has_header: true,
        };
        let text = String::from_utf8_lossy(&bytes);
        let from_str = csv::read_str(&text, &schema, &opts).map(table_cells);
        let from_columns = csv::read_str_columnar(&text, &schema, &opts).map(|b| {
            let cells = |i| b.columns().iter().map(|c| c.value(i)).collect();
            (0..b.len()).map(cells).collect::<Cells>()
        });
        let path = dir.join(format!("case{i}.csv"));
        std::fs::write(&path, &bytes).unwrap();
        let from_path = csv::read_path(&path, &schema, &opts).map(table_cells);
        let valid_utf8 = std::str::from_utf8(&bytes).is_ok();
        for (reader, got, want) in [
            ("read_str", from_str, expected.as_ref()),
            ("read_str_columnar", from_columns, expected.as_ref()),
            (
                "read_path",
                from_path,
                expected.as_ref().filter(|_| valid_utf8),
            ),
        ] {
            match (got, want) {
                (Ok(rows), Some(want)) => assert_eq!(&rows, want, "{name}: {reader}"),
                (Err(e), None) => assert!(
                    matches!(e, Error::Parse(_) | Error::Invalid(_)),
                    "{name}: {reader}: {e:?}"
                ),
                (got, _) => panic!("{name}: {reader} gave {got:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The char-at-a-time reader the one-pass scanner replaced, kept as the
/// differential oracle: every record is split into owned strings first,
/// then the header is checked and each cell typed.
mod csv_oracle {
    use cleanm::formats::csv::CsvOptions;
    use cleanm::values::{Error, Result, Row, Schema, Table};

    fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => in_quotes = false,
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' if field.is_empty() => in_quotes = true,
                    '"' => return Err(Error::Parse("quote inside unquoted field".to_string())),
                    '\r' if chars.peek() == Some(&'\n') => {}
                    '\n' => {
                        record.push(std::mem::take(&mut field));
                        records.push(std::mem::take(&mut record));
                    }
                    c if c == delimiter => record.push(std::mem::take(&mut field)),
                    c => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(Error::Parse("unterminated quoted field".to_string()));
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        Ok(records)
    }

    pub fn read_str(text: &str, schema: &Schema, options: &CsvOptions) -> Result<Table> {
        let mut records = parse_records(text, options.delimiter)?.into_iter();
        if options.has_header {
            let Some(header) = records.next() else {
                return Ok(Table::new(schema.clone(), Vec::new()));
            };
            let expected: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
            if header != expected {
                return Err(Error::Parse(format!("header mismatch: {header:?}")));
            }
        }
        let mut rows = Vec::new();
        for record in records {
            if record.len() != schema.len() {
                return Err(Error::Parse(format!("{} fields", record.len())));
            }
            let values = record.iter().zip(schema.fields());
            rows.push(Row::new(
                values
                    .map(|(cell, field)| field.dtype.parse(cell))
                    .collect::<Result<_>>()?,
            ));
        }
        Ok(Table::new(schema.clone(), rows))
    }
}

/// splitmix64: a seeded stream of case choices.
struct SplitMix(u64);

impl SplitMix {
    /// A value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// The one-pass scanner against [`csv_oracle`] on 256 generated texts over
/// quotes, line breaks, delimiters and number-ish chars: both readers give
/// the same table or both a parse error, and the column-first reader agrees
/// cell for cell with the row reader. Texts are records of typed cells,
/// some quoted, then up to two chars inserted at random, so many read as
/// tables and the rest hit the grammar's edges.
#[test]
fn csv_scanner_agrees_with_the_char_at_a_time_oracle() {
    use cleanm::values::{DataType, Error, Field, Schema, Value};
    const ALPHABET: [char; 12] = [
        'a', 'é', '1', '-', '.', ',', '\t', '|', '§', '"', '\r', '\n',
    ];
    const NUMBERISH: [char; 5] = ['1', '1', '1', '-', '.'];
    const DELIMITERS: [char; 4] = [',', '\t', '|', '§'];
    const TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Str];
    let mut rng = SplitMix(42);
    let mut tables = 0;
    for case in 0..256 {
        let delimiter = rng.pick(&DELIMITERS);
        let has_header = rng.below(2) == 0;
        let fields: Vec<Field> = (0..1 + rng.below(3))
            .map(|i| Field::new(format!("c{i}"), rng.pick(&TYPES)))
            .collect();
        let schema = Schema::new(fields).unwrap();
        let mut lines: Vec<String> = Vec::new();
        if has_header {
            let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
            lines.push(names.join(&delimiter.to_string()));
        }
        for _ in 0..rng.below(4) {
            let cells: Vec<String> = schema
                .fields()
                .iter()
                .map(|f| {
                    let quoted = f.dtype == DataType::Str && rng.below(2) == 0;
                    let pool: &[char] = match f.dtype {
                        _ if quoted => &ALPHABET,
                        DataType::Str => &ALPHABET[..5],
                        _ => &NUMBERISH,
                    };
                    let cell: String = (0..rng.below(4)).map(|_| rng.pick(pool)).collect();
                    match quoted {
                        true => format!("\"{}\"", cell.replace('"', "\"\"")),
                        false => cell,
                    }
                })
                .collect();
            lines.push(cells.join(&delimiter.to_string()));
        }
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            text += line;
            let last = i + 1 == lines.len();
            text += rng.pick(&["\n", "\r\n", ""][..if last { 3 } else { 2 }]);
        }
        for _ in 0..rng.pick(&[0, 0, 0, 1, 2]) {
            let at = rng.below(text.chars().count() + 1);
            let at = text.char_indices().nth(at).map_or(text.len(), |(i, _)| i);
            text.insert(at, rng.pick(&ALPHABET));
        }
        let options = csv::CsvOptions {
            delimiter,
            has_header,
        };
        let why = format!("case {case}: {text:?} by {delimiter:?}, header {has_header}");
        let want = csv_oracle::read_str(&text, &schema, &options);
        let got = csv::read_str(&text, &schema, &options);
        let columns = csv::read_str_columnar(&text, &schema, &options);
        match (want, got, columns) {
            (Ok(want), Ok(got), Ok(columns)) => {
                assert_eq!(got, want, "{why}");
                let cells = |i| columns.columns().iter().map(|c| c.value(i)).collect();
                let by_column: Vec<Vec<Value>> = (0..columns.len()).map(cells).collect();
                let by_row: Vec<Vec<Value>> =
                    got.rows.iter().map(|r| r.values().to_vec()).collect();
                assert_eq!(by_column, by_row, "{why}");
                tables += 1;
            }
            (Err(Error::Parse(_)), Err(Error::Parse(_)), Err(Error::Parse(_))) => {}
            other => panic!("{why}: {other:?}"),
        }
    }
    assert!(tables >= 96, "only {tables} of 256 cases read as a table");
}

/// A colbin document written by hand, in the encoder's layout, that can
/// make any one of its counts hostile: count number `hostile`, in file
/// order, is written as `u32::MAX`.
struct Doc {
    bytes: Vec<u8>,
    counts: usize,
    hostile: Option<usize>,
}

impl Doc {
    fn new(hostile: Option<usize>) -> Doc {
        let mut doc = Doc {
            bytes: b"CBIN".to_vec(),
            counts: 0,
            hostile,
        };
        doc.u8(1);
        doc
    }

    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn i64(&mut self, v: i64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// The next count's value: `n`, or `u32::MAX` if it is the hostile one.
    fn next(&mut self, n: usize) -> u32 {
        self.counts += 1;
        if self.hostile == Some(self.counts - 1) {
            u32::MAX
        } else {
            n as u32
        }
    }

    fn count(&mut self, n: usize) {
        let n = self.next(n);
        self.bytes.extend_from_slice(&n.to_le_bytes());
    }

    fn rows(&mut self, n: usize) {
        let n = u64::from(self.next(n));
        self.bytes.extend_from_slice(&n.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// A nested value behind its byte length.
    fn nested(&mut self, value: impl FnOnce(&mut Doc)) {
        let hostile = self.next(0) == u32::MAX;
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        value(self);
        let len = if hostile {
            u32::MAX
        } else {
            (self.bytes.len() - at - 4) as u32
        };
        self.bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// The table [`colbin_by_hand`] writes: every column kind, NULLs included.
fn colbin_table() -> cleanm::values::Table {
    use cleanm::values::{DataType, Field, Row, Schema, Table, Value};
    let schema = Schema::of([
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("ok", DataType::Bool),
        ("tags", DataType::List(Box::new(DataType::Int))),
        (
            "info",
            DataType::Struct(vec![Field::new("a", DataType::Int)]),
        ),
    ]);
    let info = |a: i64| Value::record([("a", Value::Int(a))]);
    let rows = vec![
        Row::new(vec![
            Value::Int(1),
            Value::str("ann"),
            Value::Bool(true),
            Value::list([Value::Int(1), Value::Int(2)]),
            info(5),
        ]),
        Row::new(vec![
            Value::Int(2),
            Value::Null,
            Value::Null,
            Value::Null,
            info(6),
        ]),
    ];
    Table::new(schema, rows)
}

/// [`colbin_table`] as the encoder writes it, with count `hostile` made
/// `u32::MAX` and `code` as the string column's dictionary code.
fn colbin_by_hand(hostile: Option<usize>, code: u32) -> Doc {
    let mut d = Doc::new(hostile);
    d.count(5);
    for (name, tag) in [("id", 1), ("name", 3), ("ok", 0), ("tags", 4)] {
        d.str(name);
        d.u8(tag);
    }
    d.u8(1); // the list's element type
    d.str("info");
    d.u8(5);
    d.count(1);
    d.str("a");
    d.u8(1);
    d.rows(2);
    // id: both present.
    d.u8(0b11);
    d.i64(1);
    d.i64(2);
    // name: row 0 present, a one-entry dictionary.
    d.u8(0b01);
    d.count(1);
    d.str("ann");
    d.bytes.extend_from_slice(&code.to_le_bytes());
    // ok: row 0 present, one packed bit.
    d.u8(0b01);
    d.count(1);
    d.u8(0b1);
    // tags: row 0 present, the list [1, 2].
    d.u8(0b01);
    d.nested(|d| {
        d.u8(5);
        d.count(2);
        for v in [1, 2] {
            d.u8(2);
            d.i64(v);
        }
    });
    // info: both present, `{a: 5}` and `{a: 6}`.
    d.u8(0b11);
    for a in [5, 6] {
        d.nested(|d| {
            d.u8(6);
            d.count(1);
            d.str("a");
            d.u8(2);
            d.i64(a);
        });
    }
    d
}

/// `bytes` must be a typed error from every colbin reader — never a panic,
/// an abort or a table.
fn assert_colbin_rejected(case: &str, bytes: &[u8]) {
    // One file per test thread: the corpus tests run side by side.
    let thread = std::thread::current().id();
    let name = format!("cleanm_colbin_corpus_{}_{thread:?}", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    let decoded = colbin::decode(bytes.to_vec().into()).err();
    let columnar = colbin::decode_columnar(bytes.to_vec().into()).err();
    let from_path = colbin::read_path(&path).err();
    std::fs::remove_file(&path).unwrap();
    for (reader, err) in [
        ("decode", decoded),
        ("decode_columnar", columnar),
        ("read_path", from_path),
    ] {
        assert!(err.is_some(), "{case}: {reader} accepted the document");
    }
}

#[test]
fn colbin_hand_written_document_is_the_encoders() {
    let table = colbin_table();
    let bytes = colbin_by_hand(None, 0).bytes;
    assert_eq!(bytes, colbin::encode(&table).unwrap().to_vec());
    assert_eq!(colbin::decode(bytes.into()).unwrap(), table);
}

/// Every strict prefix of a valid document is cut short somewhere.
#[test]
fn malformed_colbin_truncations_are_typed_errors() {
    let bytes = colbin::encode(&colbin_table()).unwrap();
    for len in 0..bytes.len() {
        assert_colbin_rejected(&format!("first {len} bytes"), &bytes[..len]);
    }
}

/// `u32::MAX` at each count the decoder reads — schema and struct field
/// counts, name lengths, the row count, the dictionary, the bool count,
/// nested byte lengths, list and struct lengths — asks for more than the
/// bytes hold instead of reserving it.
#[test]
fn malformed_colbin_hostile_counts_are_typed_errors() {
    let counts = colbin_by_hand(None, 0).counts;
    assert_eq!(counts, 20, "every count of the document is aimed at");
    for at in 0..counts {
        let bytes = colbin_by_hand(Some(at), 0).bytes;
        assert_colbin_rejected(&format!("count {at} of {counts} at u32::MAX"), &bytes);
    }
}

#[test]
fn malformed_colbin_headers_codes_and_nesting_are_typed_errors() {
    let valid = colbin::encode(&colbin_table()).unwrap().to_vec();
    let mut bad_magic = valid.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    assert_colbin_rejected("bad magic", &bad_magic);
    let mut bad_version = valid;
    bad_version[4] = 9;
    assert_colbin_rejected("bad version", &bad_version);
    assert_colbin_rejected("dictionary code 7 of 1", &colbin_by_hand(None, 7).bytes);

    // No column, yet four billion rows: no byte backs them.
    let mut no_columns = Doc::new(None);
    no_columns.count(0);
    no_columns.rows(u32::MAX as usize);
    assert_colbin_rejected("rows without a column", &no_columns.bytes);

    // A list type nested far deeper than any stack allows recursing.
    const DEEP: usize = 100_000;
    let mut deep_type = Doc::new(None);
    deep_type.count(1);
    deep_type.str("l");
    deep_type.bytes.extend(std::iter::repeat_n(4u8, DEEP));
    deep_type.u8(1);
    deep_type.rows(0);
    assert_colbin_rejected("deeply nested list type", &deep_type.bytes);

    // ... and a list value nested as deep, in a column of one list.
    let mut deep_value = Doc::new(None);
    deep_value.count(1);
    deep_value.str("l");
    deep_value.u8(4);
    deep_value.u8(1);
    deep_value.rows(1);
    deep_value.u8(0b1);
    deep_value.nested(|d| {
        for _ in 0..DEEP {
            d.u8(5);
            d.count(1);
        }
        d.u8(0);
    });
    assert_colbin_rejected("deeply nested list value", &deep_value.bytes);
}

/// `bytes`, as a text reader sees them (the lossy decoding), must be a
/// typed parse error from `parse` and from `read_table` — never a panic,
/// an abort or a value.
fn assert_text_rejected<P, T: std::fmt::Debug>(
    case: &str,
    bytes: &[u8],
    parse: impl Fn(&str) -> cleanm::values::Result<P>,
    read_table: impl Fn(&str) -> cleanm::values::Result<T>,
) {
    use cleanm::values::Error;
    let text = String::from_utf8_lossy(bytes);
    assert!(
        matches!(parse(&text).err(), Some(Error::Parse(_))),
        "{case}: parse accepted the document"
    );
    match read_table(&text) {
        Err(Error::Parse(_)) => {}
        other => panic!("{case}: read_table gave {other:?}"),
    }
}

/// Past [`cleanm::formats::MAX_DEPTH`], far deeper than any stack allows
/// recursing.
const DEEP: usize = 100_000;

/// Malformed JSON: every strict prefix of a valid document, bad escapes,
/// lone surrogates, invalid UTF-8, an unterminated string and nesting
/// 100 000 deep are typed errors from both readers.
#[test]
fn malformed_json_is_a_typed_error() {
    use cleanm::values::{DataType, Schema};
    let schema = Schema::of([("id", DataType::Int), ("name", DataType::Str)]);
    let reject = |case: &str, bytes: &[u8]| {
        let read = |text: &str| json::read_table(text, &schema);
        assert_text_rejected(case, bytes, json::parse, read);
    };
    let valid = r#"[{"id": 1, "name": "a\"b\u00e9 é😀 \ud83d\ude00"}, {"id": 2, "name": null}]"#;
    assert_eq!(json::read_table(valid, &schema).unwrap().len(), 2);
    // The empty document is an empty JSON-lines table; every longer strict
    // prefix is cut short inside the array.
    assert_eq!(json::read_table("", &schema).unwrap().len(), 0);
    for len in 1..valid.len() {
        reject(&format!("first {len} bytes"), &valid.as_bytes()[..len]);
    }
    let cases: [(&str, &[u8]); 10] = [
        ("bad escape", br#"[{"id": 1, "name": "a\qb"}]"#),
        ("lone high surrogate", br#"[{"id": 1, "name": "\ud800"}]"#),
        (
            "high surrogate, then no low one",
            br#"[{"id": 1, "name": "\ud800\u0041"}]"#,
        ),
        ("lone low surrogate", br#"[{"id": 1, "name": "\udc00"}]"#),
        ("short \\u escape", br#"[{"id": 1, "name": "\u00"}]"#),
        (
            "\\u escape over a multi-byte char",
            "[{\"name\": \"\\u00é\"}]".as_bytes(),
        ),
        ("invalid UTF-8", b"[{\"id\": 1, \"name\": \xff\xfe}]"),
        ("unterminated string", br#"[{"id": 1, "name": "abc}]"#),
        (
            "JSON-lines, lone surrogate",
            br#"{"id": 1, "name": "\ud800"}"#,
        ),
        ("JSON-lines, unterminated object", br#"{"id": 1"#),
    ];
    for (case, bytes) in cases {
        reject(case, bytes);
    }
    let deep = |open: &str, close: &str| [open.repeat(DEEP), close.repeat(DEEP)].concat();
    reject("100 000 unclosed arrays", "[".repeat(DEEP).as_bytes());
    reject("100 000 nested arrays", deep("[", "]").as_bytes());
    reject("100 000 nested objects", deep(r#"{"a":"#, "}").as_bytes());
    let at_bound = deep("[", "]");
    let at_bound = &at_bound[DEEP - cleanm::formats::MAX_DEPTH..DEEP + cleanm::formats::MAX_DEPTH];
    assert!(json::parse(at_bound).is_ok(), "nesting at the bound parses");
}

/// Malformed XML: every strict prefix of a valid document, unterminated
/// tags, a mismatched closing tag, bad entities, invalid UTF-8 and
/// elements 100 000 deep are typed errors from both readers.
#[test]
fn malformed_xml_is_a_typed_error() {
    use cleanm::values::{DataType, Schema};
    let schema = Schema::of([
        ("title", DataType::Str),
        ("year", DataType::Int),
        ("authors", DataType::List(Box::new(DataType::Str))),
    ]);
    let reject = |case: &str, bytes: &[u8]| {
        let read = |text: &str| xml::read_table(text, &schema);
        assert_text_rejected(case, bytes, xml::parse, read);
    };
    let valid = "<?xml version=\"1.0\"?><!-- c --><pubs>\
                 <pub key=\"k&amp;1\"><title>A &amp; B é 😀</title><year>2001</year>\
                 <authors>X</authors><authors>Y</authors></pub>\
                 <pub><title><![CDATA[1 < 2]]></title><year>2002</year></pub></pubs>";
    assert_eq!(xml::read_table(valid, &schema).unwrap().len(), 2);
    for len in 0..valid.len() {
        reject(&format!("first {len} bytes"), &valid.as_bytes()[..len]);
    }
    let cases: [(&str, &[u8]); 9] = [
        ("unterminated tag", b"<pubs><pub"),
        (
            "unterminated attribute",
            b"<pubs><pub key=\"k></pub></pubs>",
        ),
        ("unterminated closing tag", b"<pubs><pub></pub</pubs>"),
        ("unclosed element", b"<pubs><pub><title>T</title>"),
        (
            "mismatched closing tag",
            b"<pubs><pub><title>T</pub></title></pubs>",
        ),
        (
            "unknown entity",
            b"<pubs><pub><title>&bogus;</title></pub></pubs>",
        ),
        (
            "surrogate entity",
            b"<pubs><pub><title>&#xD800;</title></pub></pubs>",
        ),
        ("invalid UTF-8", b"<pubs><\xff\xfe/></pubs>"),
        (
            "unterminated CDATA",
            b"<pubs><pub><title><![CDATA[x</title></pub></pubs>",
        ),
    ];
    for (case, bytes) in cases {
        reject(case, bytes);
    }
    let deep = [
        "<pubs>".to_string(),
        "<a>".repeat(DEEP),
        "</a>".repeat(DEEP),
        "</pubs>".to_string(),
    ];
    reject("100 000 unclosed elements", "<a>".repeat(DEEP).as_bytes());
    reject("100 000 nested elements", deep.concat().as_bytes());
    let bound = cleanm::formats::MAX_DEPTH;
    let at_bound = ["<a>".repeat(bound), "</a>".repeat(bound)].concat();
    assert!(xml::parse(&at_bound).is_ok(), "nesting at the bound parses");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary strings (quotes, commas, newlines, unicode) survive CSV.
    #[test]
    fn csv_cell_roundtrip(cells in proptest::collection::vec(".*", 1..5)) {
        use cleanm::values::{DataType, Row, Schema, Table, Value};
        let fields: Vec<(String, DataType)> = (0..cells.len())
            .map(|i| (format!("c{i}"), DataType::Str))
            .collect();
        let schema = Schema::new(
            fields
                .iter()
                .map(|(n, t)| cleanm::values::Field::new(n.clone(), t.clone()))
                .collect(),
        )
        .unwrap();
        let table = Table::new(
            schema.clone(),
            vec![Row::new(cells.iter().map(Value::str).collect())],
        );
        let text = csv::write_str(&table, &csv::CsvOptions::default());
        let back = csv::read_str(&text, &schema, &csv::CsvOptions::default()).unwrap();
        prop_assert_eq!(back.rows, table.rows);
    }

    /// Arbitrary strings survive JSON.
    #[test]
    fn json_string_roundtrip(s in ".*") {
        use cleanm::values::Value;
        let v = Value::record([("s", Value::str(&s))]);
        let text = json::to_string(&v);
        prop_assert_eq!(json::parse(&text).unwrap(), v);
    }
}
