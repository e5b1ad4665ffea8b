//! CSV reading and writing (RFC-4180 quoting rules).

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

/// Split CSV text into records of fields, honouring quotes (`"a,b"`),
/// escaped quotes (`""`), and embedded newlines inside quoted fields.
pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(Error::Parse("quote inside unquoted field".to_string()));
                    }
                }
                // `\r\n` ends a record like `\n`; a lone `\r` is a cell byte.
                '\r' if chars.peek() == Some(&'\n') => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c if c == delimiter => {
                    record.push(std::mem::take(&mut field));
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Parse("unterminated quoted field".to_string()));
    }
    if saw_any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Read a CSV document into a [`Table`], parsing each cell with the schema's
/// column type. If `options.has_header` the header is validated against the
/// schema's field names.
pub fn read_str(text: &str, schema: &Schema, options: &CsvOptions) -> Result<Table> {
    let mut records = parse_records(text, options.delimiter)?.into_iter();
    if options.has_header {
        match records.next() {
            Some(header) => {
                let expected: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
                let got: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
                if expected != got {
                    return Err(Error::Parse(format!(
                        "header mismatch: expected {expected:?}, got {got:?}"
                    )));
                }
            }
            None => return Ok(Table::new(schema.clone(), Vec::new())),
        }
    }
    let mut rows = Vec::new();
    for (line_no, record) in records.enumerate() {
        if record.len() != schema.len() {
            return Err(Error::Parse(format!(
                "record {line_no}: {} fields, schema has {}",
                record.len(),
                schema.len()
            )));
        }
        let mut values = Vec::with_capacity(record.len());
        for (cell, field) in record.iter().zip(schema.fields()) {
            values.push(field.dtype.parse(cell)?);
        }
        rows.push(Row::new(values));
    }
    Ok(Table::new(schema.clone(), rows))
}

/// Read a CSV document **column-first** into a typed [`ColumnBatch`]:
/// parsed cells go straight into per-column builders (`i64`/`f64`/
/// `Arc<str>` vectors plus null bitmaps) with no intermediate `Vec<Row>`.
/// Header validation, cell parsing, and arity checks are identical to
/// [`read_str`], and so is the result: `batch.row(i)` equals
/// `table.rows[i].to_struct(schema)`.
pub fn read_str_columnar(text: &str, schema: &Schema, options: &CsvOptions) -> Result<ColumnBatch> {
    let mut records = parse_records(text, options.delimiter)?.into_iter();
    let names = intern_all(schema.fields().iter().map(|f| f.name.as_str()));
    let mut builders: Vec<ColumnBuilder> =
        (0..schema.len()).map(|_| ColumnBuilder::new()).collect();
    if options.has_header {
        match records.next() {
            Some(header) => {
                let expected: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
                let got: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
                if expected != got {
                    return Err(Error::Parse(format!(
                        "header mismatch: expected {expected:?}, got {got:?}"
                    )));
                }
            }
            None => {
                let cols = builders.into_iter().map(ColumnBuilder::finish).collect();
                return ColumnBatch::from_columns(names, cols);
            }
        }
    }
    for (line_no, record) in records.enumerate() {
        if record.len() != schema.len() {
            return Err(Error::Parse(format!(
                "record {line_no}: {} fields, schema has {}",
                record.len(),
                schema.len()
            )));
        }
        for ((cell, field), builder) in record.iter().zip(schema.fields()).zip(&mut builders) {
            builder.push(field.dtype.parse(cell)?);
        }
    }
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

    #[test]
    fn embedded_newline_in_quotes() {
        let recs = parse_records("a,\"x\ny\",b\n", ',').unwrap();
        assert_eq!(recs, vec![vec!["a", "x\ny", "b"]]);
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
        assert!(parse_records("\"abc\n", ',').is_err());
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
