//! CSV reading and writing (RFC-4180 quoting rules).
//!
//! Reading is one pass over the text's bytes. [`Records`] hands over each
//! cell as a `&str` borrowed from the text — or, when a quoted cell's
//! content does not lie in one piece (an escaped `""`, text after the
//! closing quote), from one reused scratch buffer — and the readers type
//! the cell where it is found, so no record is ever collected as strings.

use cleanm_values::{
    intern_all, ColumnBatch, ColumnBuilder, Error, Result, Row, Schema, Table, Value,
};

/// Options for the CSV reader/writer.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    pub delimiter: char,
    /// Whether the first record names the columns.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
        }
    }
}

/// What ended a cell.
#[derive(PartialEq)]
enum End {
    Field,
    Record,
    Input,
}

/// A cell's content so far: nothing, one span of the text, or the scratch
/// buffer once its pieces stopped being contiguous.
enum Cell {
    Empty,
    Span(usize, usize),
    Scratch,
}

/// A record scanner over CSV text: one leading U+FEFF byte-order mark is
/// skipped, quotes (`"a,b"`), escaped quotes (`""`) and line breaks inside
/// quotes are honoured, and `\r\n` outside quotes ends a record like `\n`
/// (a lone `\r` is a cell byte). A quote opens only at an empty field; text
/// after the closing quote continues the field. A final record without a
/// trailing newline is kept.
pub struct Records<'a> {
    text: &'a str,
    pos: usize,
    delimiter: char,
    /// `special[b]`: byte `b` can end an unquoted run — `"`, `\r`, `\n` or
    /// the delimiter's first byte.
    special: [bool; 256],
    scratch: String,
}

impl<'a> Records<'a> {
    /// Scan `text` with `delimiter`, which may be any `char` but a quote or
    /// a line break.
    pub fn new(text: &'a str, delimiter: char) -> Result<Self> {
        if matches!(delimiter, '"' | '\n' | '\r') {
            return Err(Error::Invalid(format!(
                "CSV delimiter {delimiter:?} cannot be a quote or a line break"
            )));
        }
        let lead = delimiter.encode_utf8(&mut [0; 4]).as_bytes()[0];
        let mut special = [false; 256];
        for b in [b'"', b'\r', b'\n', lead] {
            special[usize::from(b)] = true;
        }
        Ok(Records {
            text: text.strip_prefix('\u{feff}').unwrap_or(text),
            pos: 0,
            delimiter,
            special,
            scratch: String::new(),
        })
    }

    /// Scan the next record, calling `cell(i, text)` for its cells in
    /// order; `Ok(Some(n))` is its cell count, `Ok(None)` the end of the
    /// input. A grammar error, or the first error `cell` returns, ends the
    /// scan.
    pub fn next_record(
        &mut self,
        mut cell: impl FnMut(usize, &str) -> Result<()>,
    ) -> Result<Option<usize>> {
        if self.pos == self.text.len() {
            return Ok(None);
        }
        let mut n = 0;
        loop {
            let (value, end) = self.cell()?;
            // Input that ends in an empty quoted cell (`""`) is no record.
            if end == End::Input && n == 0 && value.is_empty() {
                return Ok(None);
            }
            cell(n, value)?;
            n += 1;
            if end != End::Field {
                return Ok(Some(n));
            }
        }
    }

    /// The first byte at or after `i` that can end an unquoted run, or the
    /// text's length.
    fn run_end(&self, i: usize) -> usize {
        let bytes = self.text.as_bytes();
        let special = bytes[i..]
            .iter()
            .position(|&b| self.special[usize::from(b)]);
        special.map_or(bytes.len(), |k| i + k)
    }

    /// The next cell and what ended it.
    #[inline]
    fn cell(&mut self) -> Result<(&str, End)> {
        let (text, start) = (self.text, self.pos);
        let bytes = text.as_bytes();
        let i = self.run_end(start);
        // Most cells are one unquoted run that the first special byte ends.
        let (next, end) = match bytes.get(i) {
            None => (i, End::Input),
            Some(b'\n') => (i + 1, End::Record),
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => (i + 2, End::Record),
            Some(&b) if self.delimiter.is_ascii() && b == self.delimiter as u8 => {
                (i + 1, End::Field)
            }
            _ => return self.cell_from(i),
        };
        self.pos = next;
        Ok((&text[start..i], end))
    }

    /// The next cell when its first special byte, at `i`, does not end it:
    /// a quote, a lone `\r`, or the lead byte of a multi-byte delimiter.
    fn cell_from(&mut self, mut i: usize) -> Result<(&str, End)> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut cell = Cell::Empty;
        // The unquoted run being scanned is `run..i`.
        let mut run = self.pos;
        let end = loop {
            let Some(&b) = bytes.get(i) else {
                self.push(&mut cell, run, i);
                self.pos = i;
                break End::Input;
            };
            match b {
                // A quote opens only at the cell's first byte: right after
                // a closing quote it would have been an escaped pair.
                b'"' => {
                    if i != self.pos {
                        return Err(Error::Parse("quote inside unquoted field".to_string()));
                    }
                    i += 1;
                    loop {
                        let Some(q) = bytes[i..].iter().position(|&b| b == b'"') else {
                            return Err(Error::Parse("unterminated quoted field".to_string()));
                        };
                        let q = i + q;
                        if bytes.get(q + 1) == Some(&b'"') {
                            // Keep the first quote of the pair.
                            self.push(&mut cell, i, q + 1);
                            i = q + 2;
                        } else {
                            self.push(&mut cell, i, q);
                            i = q + 1;
                            break;
                        }
                    }
                    run = i;
                }
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => {
                    self.push(&mut cell, run, i);
                    self.pos = i + 2;
                    break End::Record;
                }
                b'\n' => {
                    self.push(&mut cell, run, i);
                    self.pos = i + 1;
                    break End::Record;
                }
                _ if text[i..].starts_with(self.delimiter) => {
                    self.push(&mut cell, run, i);
                    self.pos = i + self.delimiter.len_utf8();
                    break End::Field;
                }
                // A lone `\r`, or another char sharing the delimiter's
                // first byte.
                _ => i += 1,
            }
            i = self.run_end(i);
        };
        let value = match cell {
            Cell::Empty => "",
            Cell::Span(from, to) => &text[from..to],
            Cell::Scratch => &self.scratch,
        };
        Ok((value, end))
    }

    /// Append `text[from..to]` to the cell.
    fn push(&mut self, cell: &mut Cell, from: usize, to: usize) {
        if from == to {
            return;
        }
        *cell = match *cell {
            Cell::Empty => Cell::Span(from, to),
            Cell::Span(start, end) if end == from => Cell::Span(start, to),
            Cell::Span(start, end) => {
                self.scratch.clear();
                self.scratch.push_str(&self.text[start..end]);
                self.scratch.push_str(&self.text[from..to]);
                Cell::Scratch
            }
            Cell::Scratch => {
                self.scratch.push_str(&self.text[from..to]);
                Cell::Scratch
            }
        };
    }
}

/// Scan `text`'s data records, parsing each cell with its schema column's
/// type as it is found, and hand each record's values to `row`. If
/// `options.has_header` the header is validated against the schema's
/// field names first.
fn read_typed(
    text: &str,
    schema: &Schema,
    options: &CsvOptions,
    mut row: impl FnMut(std::vec::Drain<'_, Value>),
) -> Result<()> {
    let mut records = Records::new(text, options.delimiter)?;
    let fields = schema.fields();
    if options.has_header {
        let mut same = true;
        let header = records.next_record(|i, cell| {
            same &= fields.get(i).is_some_and(|f| f.name == cell);
            Ok(())
        })?;
        match header {
            None => return Ok(()),
            Some(n) if same && n == fields.len() => {}
            Some(_) => {
                let expected: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let got = records.text[..records.pos].trim_end_matches(['\r', '\n']);
                return Err(Error::Parse(format!(
                    "header mismatch: expected {expected:?}, got {got:?}"
                )));
            }
        }
    }
    let mut values = Vec::with_capacity(fields.len());
    let mut line_no = 0;
    while let Some(n) = records.next_record(|i, cell| {
        if let Some(field) = fields.get(i) {
            values.push(field.dtype.parse(cell)?);
        }
        Ok(())
    })? {
        if n != fields.len() {
            return Err(Error::Parse(format!(
                "record {line_no}: {n} fields, schema has {}",
                fields.len()
            )));
        }
        row(values.drain(..));
        line_no += 1;
    }
    Ok(())
}

/// Read a CSV document into a [`Table`], parsing each cell with the schema's
/// column type. If `options.has_header` the header is validated against the
/// schema's field names. Each row is built in one allocation.
pub fn read_str(text: &str, schema: &Schema, options: &CsvOptions) -> Result<Table> {
    let mut rows = Vec::new();
    read_typed(text, schema, options, |values| {
        rows.push(Row::from_iter(values))
    })?;
    Ok(Table::new(schema.clone(), rows))
}

/// Read a CSV document **column-first** into a typed [`ColumnBatch`]:
/// parsed cells go straight into per-column builders (`i64`/`f64`/
/// `Arc<str>` vectors plus null bitmaps) with no intermediate `Vec<Row>`.
/// Header validation, cell parsing, and arity checks are identical to
/// [`read_str`], and so is the result: `batch.row(i)` equals
/// `table.rows[i].to_struct(schema)`.
pub fn read_str_columnar(text: &str, schema: &Schema, options: &CsvOptions) -> Result<ColumnBatch> {
    let names = intern_all(schema.fields().iter().map(|f| f.name.as_str()));
    let mut builders: Vec<ColumnBuilder> =
        (0..schema.len()).map(|_| ColumnBuilder::new()).collect();
    read_typed(text, schema, options, |values| {
        for (builder, value) in builders.iter_mut().zip(values) {
            builder.push(value);
        }
    })?;
    ColumnBatch::from_columns(
        names,
        builders.into_iter().map(ColumnBuilder::finish).collect(),
    )
}

/// Serialize a table to CSV text.
pub fn write_str(table: &Table, options: &CsvOptions) -> String {
    let mut out = String::new();
    let d = options.delimiter;
    if options.has_header {
        for (i, f) in table.schema.fields().iter().enumerate() {
            if i > 0 {
                out.push(d);
            }
            write_cell(&mut out, &f.name, d);
        }
        out.push('\n');
    }
    for row in &table.rows {
        for (i, v) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(d);
            }
            let text = match v {
                Value::Null => String::new(),
                other => other.to_text(),
            };
            write_cell(&mut out, &text, d);
        }
        out.push('\n');
    }
    out
}

fn write_cell(out: &mut String, cell: &str, delimiter: char) {
    let needs_quotes = cell.contains(delimiter)
        || cell.contains('"')
        || cell.contains('\n')
        || cell.contains('\r');
    if needs_quotes {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

/// Read a CSV file from disk.
pub fn read_path(
    path: impl AsRef<std::path::Path>,
    schema: &Schema,
    options: &CsvOptions,
) -> Result<Table> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| Error::Invalid(format!("io error reading {:?}: {e}", path.as_ref())))?;
    read_str(&text, schema, options)
}

/// Write a table to a CSV file on disk.
pub fn write_path(
    path: impl AsRef<std::path::Path>,
    table: &Table,
    options: &CsvOptions,
) -> Result<()> {
    std::fs::write(path.as_ref(), write_str(table, options))
        .map_err(|e| Error::Invalid(format!("io error writing {:?}: {e}", path.as_ref())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::DataType;

    fn schema() -> Schema {
        Schema::of([
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    #[test]
    fn roundtrip_simple() {
        let text = "id,name,score\n1,ann,2.5\n2,bob,3.0\n";
        let t = read_str(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0].values()[1], Value::str("ann"));
        assert_eq!(write_str(&t, &CsvOptions::default()), text);
    }

    #[test]
    fn quoting_rules() {
        let text = "id,name,score\n1,\"a,b\",1.0\n2,\"say \"\"hi\"\"\",2.0\n";
        let t = read_str(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.rows[0].values()[1], Value::str("a,b"));
        assert_eq!(t.rows[1].values()[1], Value::str("say \"hi\""));
        // Round-trips with identical quoting.
        assert_eq!(write_str(&t, &CsvOptions::default()), text);
    }

    /// Every record of `text`, its cells copied out.
    fn records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>> {
        let mut scan = Records::new(text, delimiter)?;
        let mut out = Vec::new();
        let mut record = Vec::new();
        while scan
            .next_record(|_, cell| {
                record.push(cell.to_string());
                Ok(())
            })?
            .is_some()
        {
            out.push(std::mem::take(&mut record));
        }
        Ok(out)
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let recs = records("a,\"x\ny\",b\n", ',').unwrap();
        assert_eq!(recs, vec![vec!["a", "x\ny", "b"]]);
    }

    #[test]
    fn quoted_pieces_join_and_later_cells_borrow_again() {
        let recs = records("\"a\"\"b\"c,\"\",d\n\"x\"\"\"\n\"\"", ',').unwrap();
        assert_eq!(
            recs,
            vec![vec!["a\"bc", "", "d"], vec!["x\""]],
            "a final `\"\"` with no newline is no record"
        );
    }

    #[test]
    fn multi_byte_delimiter() {
        // `©` shares `§`'s first UTF-8 byte.
        let recs = records("1§é§\"§\"\n2§§x©", '§').unwrap();
        assert_eq!(recs, vec![vec!["1", "é", "§"], vec!["2", "", "x©"]]);
    }

    #[test]
    fn empty_cells_are_null_for_nonstring() {
        let text = "id,name,score\n1,,\n";
        let t = read_str(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.rows[0].values()[1], Value::str(""));
        assert_eq!(t.rows[0].values()[2], Value::Null);
    }

    #[test]
    fn crlf_and_missing_trailing_newline() {
        let text = "id,name,score\r\n1,a,1.0\r\n2,b,2.0";
        let t = read_str(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[1].values()[1], Value::str("b"));
    }

    #[test]
    fn header_mismatch_is_error() {
        let text = "x,y,z\n1,a,1.0\n";
        assert!(read_str(text, &schema(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn arity_mismatch_is_error() {
        let text = "id,name,score\n1,a\n";
        assert!(read_str(text, &schema(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn custom_delimiter_no_header() {
        let opts = CsvOptions {
            delimiter: '|',
            has_header: false,
        };
        let t = read_str("1|a|0.5\n", &schema(), &opts).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(write_str(&t, &opts), "1|a|0.5\n");
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(records("\"abc\n", ','), Err(Error::Parse(_))));
    }

    /// A delimiter the grammar gives another meaning is refused by every
    /// reader, by name.
    fn assert_delimiter_refused(delimiter: char) {
        let opts = CsvOptions {
            delimiter,
            has_header: false,
        };
        let named = |e: Error| match e {
            Error::Invalid(msg) => assert!(msg.contains(&format!("{delimiter:?}")), "{msg}"),
            other => panic!("{delimiter:?}: {other:?}"),
        };
        named(read_str("1,a,0.5\n", &schema(), &opts).unwrap_err());
        named(read_str_columnar("1,a,0.5\n", &schema(), &opts).unwrap_err());
        named(Records::new("", delimiter).err().unwrap());
    }

    #[test]
    fn quote_delimiter_is_invalid() {
        assert_delimiter_refused('"');
    }

    #[test]
    fn newline_delimiter_is_invalid() {
        assert_delimiter_refused('\n');
    }

    #[test]
    fn carriage_return_delimiter_is_invalid() {
        assert_delimiter_refused('\r');
    }

    #[test]
    fn columnar_matches_row_ingest() {
        // Mixed nulls, quoting, negative floats: the columnar reader must
        // produce row-for-row the same structs as the row reader.
        let text = "id,name,score\n1,\"a,b\",2.5\n2,,\n,ann,-1.25\n";
        let t = read_str(text, &schema(), &CsvOptions::default()).unwrap();
        let batch = read_str_columnar(text, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(batch.len(), t.len());
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(batch.row(i), row.to_struct(&schema()));
        }
    }

    #[test]
    fn columnar_empty_and_errors_match_row_ingest() {
        let opts = CsvOptions::default();
        // Header-only text: zero rows, full column set.
        let batch = read_str_columnar("id,name,score\n", &schema(), &opts).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.names().len(), 3);
        // Empty text with has_header: also zero rows.
        assert!(read_str_columnar("", &schema(), &opts).unwrap().is_empty());
        // Same failures as the row reader.
        assert!(read_str_columnar("x,y,z\n1,a,1.0\n", &schema(), &opts).is_err());
        assert!(read_str_columnar("id,name,score\n1,a\n", &schema(), &opts).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cleanm_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = read_str(
            "id,name,score\n1,ann,2.5\n",
            &schema(),
            &CsvOptions::default(),
        )
        .unwrap();
        write_path(&path, &t, &CsvOptions::default()).unwrap();
        let back = read_path(&path, &schema(), &CsvOptions::default()).unwrap();
        assert_eq!(back, t);
    }
}
