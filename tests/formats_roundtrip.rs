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
    let opts = csv::CsvOptions::default();
    let row = |id: i64, name: &str| vec![Value::Int(id), Value::str(name)];
    let big = "x".repeat(1 << 20);
    let cases: Vec<(&str, Vec<u8>, Option<Cells>)> = vec![
        (
            "bare CR inside a field",
            b"id,name\r\n1,a\rb\r\n".to_vec(),
            Some(vec![row(1, "a\rb")]),
        ),
        ("unterminated quote", b"id,name\n1,\"abc\n".to_vec(), None),
        (
            "quote inside an unquoted field",
            b"id,name\n1,ab\"c\n".to_vec(),
            None,
        ),
        ("wrong arity", b"id,name\n1,a,extra\n".to_vec(), None),
        ("header mismatch", b"id,nom\n1,a\n".to_vec(), None),
        ("header only", b"id,name\n".to_vec(), Some(vec![])),
        ("empty file", Vec::new(), Some(vec![])),
        // The text readers take `&str`, so they see the lossy decoding.
        (
            "invalid UTF-8",
            b"id,name\n1,\xff\xfe\n".to_vec(),
            Some(vec![row(1, "\u{fffd}\u{fffd}")]),
        ),
        (
            "1 MB field",
            format!("id,name\n7,{big}\n").into_bytes(),
            Some(vec![row(7, &big)]),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("cleanm_csv_corpus_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table_cells = |t: Table| -> Cells { t.rows.iter().map(|r| r.values().to_vec()).collect() };
    for (i, (name, bytes, expected)) in cases.into_iter().enumerate() {
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
