//! Header-driven CSV schema inference for the CLI's `--table name=file.csv`
//! ingestion: every column starts as `Int`, widens to `Float`, and falls
//! back to `Str` on the first cell that fits neither. Empty cells are
//! typeless (they parse to `Null` under any type).

use cleanm_formats::csv::{read_str, CsvOptions, Records};
use cleanm_values::{DataType, Field, Schema, Table};

/// Infer a schema from CSV text (first record must be the header row).
pub fn infer_schema(text: &str, options: &CsvOptions) -> Result<Schema, String> {
    let mut records = Records::new(text, options.delimiter).map_err(|e| e.to_string())?;
    let mut names = Vec::new();
    let header = records.next_record(|_, name| {
        names.push(name.trim().to_string());
        Ok(())
    });
    if header.map_err(|e| e.to_string())?.is_none() {
        return Err("empty CSV: no header row".to_string());
    }
    let mut types = vec![DataType::Int; names.len()];
    let mut widen = |i: usize, cell: &str| {
        if let Some(dtype) = types.get_mut(i).filter(|_| !cell.is_empty()) {
            *dtype = match dtype {
                DataType::Int if cell.parse::<i64>().is_ok() => DataType::Int,
                DataType::Int | DataType::Float if cell.parse::<f64>().is_ok() => DataType::Float,
                _ => DataType::Str,
            };
        }
        Ok(())
    };
    while records
        .next_record(&mut widen)
        .map_err(|e| e.to_string())?
        .is_some()
    {}
    let fields = names
        .into_iter()
        .zip(types)
        .map(|(name, dtype)| Field::new(name, dtype))
        .collect();
    Schema::new(fields).map_err(|e| e.to_string())
}

/// Read CSV text into a [`Table`] with an inferred schema.
pub fn read_csv_inferred(text: &str) -> Result<Table, String> {
    let options = CsvOptions::default();
    let schema = infer_schema(text, &options)?;
    read_str(text, &schema, &options).map_err(|e| e.to_string())
}

/// Read a CSV file into a [`Table`] with an inferred schema.
pub fn read_csv_file(path: &std::path::Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_csv_inferred(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanm_values::Value;

    #[test]
    fn infers_int_float_str() {
        let t = read_csv_inferred("id,score,name\n1,0.5,ann\n2,3,bob\n").unwrap();
        let row = t.rows[0].values();
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(row[1], Value::Float(0.5));
        assert_eq!(row[2], Value::str("ann"));
    }

    #[test]
    fn mixed_column_falls_back_to_str() {
        let t = read_csv_inferred("x\n1\ntwo\n").unwrap();
        assert_eq!(t.rows[0].values()[0], Value::str("1"));
    }

    #[test]
    fn empty_cells_stay_typeless() {
        let t = read_csv_inferred("x,y\n,10\n2,\n").unwrap();
        assert_eq!(t.rows[0].values()[0], Value::Null);
        assert_eq!(t.rows[1].values()[0], Value::Int(2));
    }

    #[test]
    fn byte_order_mark_is_not_part_of_the_first_name() {
        let t = read_csv_inferred("\u{feff}id,name\r\n1,ann\r\n").unwrap();
        assert_eq!(t.schema.fields()[0].name, "id");
        assert_eq!(t.rows[0].values()[0], Value::Int(1));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_csv_inferred("").is_err());
    }
}
