//! `colbin` — a columnar binary format, the repository's Parquet stand-in.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CBIN" + version u8
//! schema:   u32 field count, then per field: name (u32 len + utf8), dtype (tagged, recursive)
//! row count u64
//! columns:  one block per schema field, in order:
//!     null bitmap   (ceil(rows/8) bytes)
//!     column data:
//!       Int    -> 8 bytes/row (only non-null rows stored)
//!       Float  -> 8 bytes/row (non-null rows)
//!       Bool   -> bit-packed (non-null rows)
//!       Str    -> dictionary: u32 entry count, entries (u32 len + utf8),
//!                 then u32 dictionary index per non-null row
//!       List/Struct -> u32 byte length + recursive tagged value encoding
//!                 per non-null row
//! ```
//!
//! Like Parquet, strings are dictionary-encoded, columns are stored
//! contiguously (so a reader touching two of 16 columns skips the rest), and
//! the file carries its own schema.
//!
//! Decoding trusts no count in the file: a malformed or hostile document —
//! truncated, a count of `u32::MAX`, nesting deeper than [`MAX_DEPTH`](crate::MAX_DEPTH) — is
//! an [`Error::Parse`], never a panic or an allocation the bytes cannot
//! back.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cleanm_values::{
    Column, ColumnBatch, DataType, Error, Field, NullMask, Result, Row, Schema, Table, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CBIN";
const VERSION: u8 = 1;

// ---------------------------------------------------------------- encoding

/// Serialize a table into the colbin byte format.
pub fn encode(table: &Table) -> Result<Bytes> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    encode_schema(&mut buf, &table.schema);
    buf.put_u64_le(table.rows.len() as u64);
    for (col, field) in table.schema.fields().iter().enumerate() {
        encode_column(&mut buf, table, col, &field.dtype)?;
    }
    Ok(buf.freeze())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn encode_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32_le(schema.len() as u32);
    for field in schema.fields() {
        put_str(buf, &field.name);
        encode_dtype(buf, &field.dtype);
    }
}

fn encode_dtype(buf: &mut BytesMut, dtype: &DataType) {
    match dtype {
        DataType::Bool => buf.put_u8(0),
        DataType::Int => buf.put_u8(1),
        DataType::Float => buf.put_u8(2),
        DataType::Str => buf.put_u8(3),
        DataType::List(elem) => {
            buf.put_u8(4);
            encode_dtype(buf, elem);
        }
        DataType::Struct(fields) => {
            buf.put_u8(5);
            buf.put_u32_le(fields.len() as u32);
            for f in fields {
                put_str(buf, &f.name);
                encode_dtype(buf, &f.dtype);
            }
        }
    }
}

fn encode_column(buf: &mut BytesMut, table: &Table, col: usize, dtype: &DataType) -> Result<()> {
    let rows = &table.rows;
    // Null bitmap: bit set = value present.
    let mut bitmap = vec![0u8; rows.len().div_ceil(8)];
    for (i, row) in rows.iter().enumerate() {
        if !row.get(col)?.is_null() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.put_slice(&bitmap);

    let present = rows
        .iter()
        .map(|r| r.get(col))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .filter(|v| !v.is_null());

    match dtype {
        DataType::Int => {
            for v in present {
                buf.put_i64_le(v.as_int()?);
            }
        }
        DataType::Float => {
            for v in present {
                buf.put_f64_le(v.as_float()?);
            }
        }
        DataType::Bool => {
            let bools: Vec<bool> = present.map(|v| v.as_bool()).collect::<Result<_>>()?;
            let mut packed = vec![0u8; bools.len().div_ceil(8)];
            for (i, b) in bools.iter().enumerate() {
                if *b {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            buf.put_u32_le(bools.len() as u32);
            buf.put_slice(&packed);
        }
        DataType::Str => {
            // Dictionary encoding.
            let values: Vec<&str> = present.map(|v| v.as_str()).collect::<Result<_>>()?;
            let mut dict: Vec<&str> = Vec::new();
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(values.len());
            for s in &values {
                let code = *index.entry(s).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            buf.put_u32_le(dict.len() as u32);
            for entry in dict {
                put_str(buf, entry);
            }
            for code in codes {
                buf.put_u32_le(code);
            }
        }
        DataType::List(_) | DataType::Struct(_) => {
            for v in present {
                let mut inner = BytesMut::new();
                encode_value(&mut inner, v);
                buf.put_u32_le(inner.len() as u32);
                buf.put_slice(&inner);
            }
        }
    }
    Ok(())
}

/// Tagged recursive value encoding for nested columns.
fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(3);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            put_str(buf, s);
        }
        Value::List(items) => {
            buf.put_u8(5);
            buf.put_u32_le(items.len() as u32);
            for item in items.iter() {
                encode_value(buf, item);
            }
        }
        Value::Struct(fields) => {
            buf.put_u8(6);
            buf.put_u32_le(fields.len() as u32);
            for (n, v) in fields.iter() {
                put_str(buf, n);
                encode_value(buf, v);
            }
        }
    }
}

// ---------------------------------------------------------------- decoding

struct Reader {
    bytes: Bytes,
}

impl Reader {
    fn need(&self, n: usize) -> Result<()> {
        if self.bytes.remaining() < n {
            Err(Error::Parse(format!(
                "colbin truncated: need {n} bytes, have {}",
                self.bytes.remaining()
            )))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.bytes.get_u8())
    }
    fn u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.bytes.get_u32_le())
    }
    fn u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.bytes.get_u64_le())
    }
    fn i64(&mut self) -> Result<i64> {
        self.need(8)?;
        Ok(self.bytes.get_i64_le())
    }
    fn f64(&mut self) -> Result<f64> {
        self.need(8)?;
        Ok(self.bytes.get_f64_le())
    }
    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let raw = self.bytes.copy_to_bytes(len);
        String::from_utf8(raw.to_vec())
            .map_err(|_| Error::Parse("colbin: invalid utf8".to_string()))
    }
    fn raw(&mut self, n: usize) -> Result<Bytes> {
        self.need(n)?;
        Ok(self.bytes.copy_to_bytes(n))
    }

    /// A count read off the file, for its loop, and the capacity to
    /// reserve for it: every element takes at least one byte, so no more
    /// than the bytes left can follow.
    fn count(&mut self) -> Result<(usize, usize)> {
        let n = self.u32()? as usize;
        Ok((n, n.min(self.bytes.remaining())))
    }
}

fn nested(depth: usize) -> Result<usize> {
    crate::nested("colbin", depth)
}

/// The magic, the version, the schema and the row count.
fn decode_header(r: &mut Reader) -> Result<(Schema, usize)> {
    let magic = r.raw(4)?;
    if magic.as_ref() != MAGIC {
        return Err(Error::Parse("not a colbin file".to_string()));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(Error::Parse(format!(
            "unsupported colbin version {version}"
        )));
    }
    let schema = decode_schema(r)?;
    let rows = r.u64()? as usize;
    // With no column, no byte of the file backs a row.
    if schema.is_empty() && rows > 0 {
        return Err(Error::Parse(format!("colbin: {rows} rows but no column")));
    }
    Ok((schema, rows))
}

/// Deserialize a colbin document into a [`Table`].
pub fn decode(bytes: Bytes) -> Result<Table> {
    let mut r = Reader { bytes };
    let (schema, row_count) = decode_header(&mut r)?;

    // Columns arrive column-major; build row-major output.
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        columns.push(decode_column_typed(&mut r, row_count, &field.dtype)?);
    }
    let rows = (0..row_count)
        .map(|i| Row::new(columns.iter().map(|c| c.value(i)).collect::<Vec<_>>()))
        .collect();
    Ok(Table::new(schema, rows))
}

/// Deserialize a colbin document **column-first**: the file's column
/// blocks decode straight into a typed [`ColumnBatch`] — `i64`/`f64`
/// slices plus a null bitmap, dictionary strings as shared `Arc<str>`s —
/// without ever pivoting through per-row `Value` vectors. Nested
/// (list/struct) columns land in the generic [`Column::Val`] fallback.
/// Row-identical to [`decode`]: `batch.row(i)` equals
/// `table.rows[i].to_struct(&schema)`.
pub fn decode_columnar(bytes: Bytes) -> Result<(Schema, ColumnBatch)> {
    let mut r = Reader { bytes };
    let (schema, row_count) = decode_header(&mut r)?;
    let names = cleanm_values::intern_all(schema.fields().iter().map(|f| f.name.as_str()));
    let mut cols = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        cols.push(decode_column_typed(&mut r, row_count, &field.dtype)?);
    }
    let batch = ColumnBatch::from_columns(names, cols)?;
    Ok((schema, batch))
}

/// Decode one column block into typed columnar storage — the one column
/// decoder under both [`decode`] and [`decode_columnar`].
fn decode_column_typed(r: &mut Reader, rows: usize, dtype: &DataType) -> Result<Column> {
    let bitmap = r.raw(rows.div_ceil(8))?;
    let is_present = |i: usize| bitmap[i / 8] & (1 << (i % 8)) != 0;
    let present_count = (0..rows).filter(|&i| is_present(i)).count();
    let nulls = if present_count == rows {
        None
    } else {
        let mut m = NullMask::new(rows);
        for i in 0..rows {
            if !is_present(i) {
                m.set_null(i);
            }
        }
        Some(m)
    };

    Ok(match dtype {
        DataType::Int => {
            let mut data = vec![0i64; rows];
            for (i, slot) in data.iter_mut().enumerate() {
                if is_present(i) {
                    *slot = r.i64()?;
                }
            }
            Column::Int { data, nulls }
        }
        DataType::Float => {
            let mut data = vec![0f64; rows];
            for (i, slot) in data.iter_mut().enumerate() {
                if is_present(i) {
                    *slot = r.f64()?;
                }
            }
            Column::Float { data, nulls }
        }
        DataType::Bool => {
            let n = r.u32()? as usize;
            if n != present_count {
                return Err(Error::Parse("bool column count mismatch".to_string()));
            }
            let packed = r.raw(n.div_ceil(8))?;
            let mut data = vec![false; rows];
            let mut next = 0usize;
            for (i, slot) in data.iter_mut().enumerate() {
                if is_present(i) {
                    *slot = packed[next / 8] & (1 << (next % 8)) != 0;
                    next += 1;
                }
            }
            Column::Bool { data, nulls }
        }
        DataType::Str => {
            let dict = decode_dict(r)?;
            let empty: Arc<str> = Arc::from("");
            let mut data = vec![Arc::clone(&empty); rows];
            for (i, slot) in data.iter_mut().enumerate() {
                if is_present(i) {
                    let code = r.u32()? as usize;
                    *slot = Arc::clone(dict.get(code).ok_or_else(|| {
                        Error::Parse(format!("dictionary code {code} out of range"))
                    })?);
                }
            }
            Column::Str { data, nulls }
        }
        DataType::List(_) | DataType::Struct(_) => {
            let mut data = vec![Value::Null; rows];
            for (i, slot) in data.iter_mut().enumerate() {
                if is_present(i) {
                    let len = r.u32()? as usize;
                    let inner = r.raw(len)?;
                    let mut ir = Reader { bytes: inner };
                    *slot = decode_value(&mut ir, 0)?;
                }
            }
            Column::Val(data)
        }
    })
}

fn decode_schema(r: &mut Reader) -> Result<Schema> {
    Schema::new(decode_fields(r, 0)?)
}

/// A field count, then each field's name and type.
fn decode_fields(r: &mut Reader, depth: usize) -> Result<Vec<Field>> {
    let (n, cap) = r.count()?;
    let mut fields = Vec::with_capacity(cap);
    for _ in 0..n {
        let name = r.str()?;
        fields.push(Field::new(name, decode_dtype(r, depth)?));
    }
    Ok(fields)
}

fn decode_dtype(r: &mut Reader, depth: usize) -> Result<DataType> {
    match r.u8()? {
        0 => Ok(DataType::Bool),
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Float),
        3 => Ok(DataType::Str),
        4 => Ok(DataType::List(Box::new(decode_dtype(r, nested(depth)?)?))),
        5 => Ok(DataType::Struct(decode_fields(r, nested(depth)?)?)),
        t => Err(Error::Parse(format!("unknown dtype tag {t}"))),
    }
}

/// A string column's dictionary: an entry count, then the entries.
fn decode_dict(r: &mut Reader) -> Result<Vec<Arc<str>>> {
    let (n, cap) = r.count()?;
    let mut dict = Vec::with_capacity(cap);
    for _ in 0..n {
        dict.push(Arc::from(r.str()?.as_str()));
    }
    Ok(dict)
}

fn decode_value(r: &mut Reader, depth: usize) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(r.u8()? != 0)),
        2 => Ok(Value::Int(r.i64()?)),
        3 => Ok(Value::Float(r.f64()?)),
        4 => Ok(Value::from(r.str()?)),
        5 => {
            let depth = nested(depth)?;
            let (n, cap) = r.count()?;
            let mut items = Vec::with_capacity(cap);
            for _ in 0..n {
                items.push(decode_value(r, depth)?);
            }
            Ok(Value::list(items))
        }
        6 => {
            let depth = nested(depth)?;
            let (n, cap) = r.count()?;
            let mut fields: Vec<(Arc<str>, Value)> = Vec::with_capacity(cap);
            for _ in 0..n {
                let name = r.str()?;
                fields.push((Arc::from(name.as_str()), decode_value(r, depth)?));
            }
            Ok(Value::Struct(fields.into()))
        }
        t => Err(Error::Parse(format!("unknown value tag {t}"))),
    }
}

/// Write a table as a colbin file on disk.
pub fn write_path(path: impl AsRef<std::path::Path>, table: &Table) -> Result<()> {
    let bytes = encode(table)?;
    std::fs::write(path.as_ref(), &bytes)
        .map_err(|e| Error::Invalid(format!("io error writing {:?}: {e}", path.as_ref())))
}

/// Read a colbin file from disk.
pub fn read_path(path: impl AsRef<std::path::Path>) -> Result<Table> {
    let bytes = std::fs::read(path.as_ref())
        .map_err(|e| Error::Invalid(format!("io error reading {:?}: {e}", path.as_ref())))?;
    decode(Bytes::from(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let schema = Schema::of([
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
            ("ok", DataType::Bool),
            ("tags", DataType::List(Box::new(DataType::Str))),
        ]);
        Table::new(
            schema,
            vec![
                Row::new(vec![
                    Value::Int(1),
                    Value::str("ann"),
                    Value::Float(0.5),
                    Value::Bool(true),
                    Value::list([Value::str("x")]),
                ]),
                Row::new(vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Null,
                    Value::Bool(false),
                    Value::list([Value::str("x"), Value::str("y")]),
                ]),
                Row::new(vec![
                    Value::Null,
                    Value::str("ann"),
                    Value::Float(-1.25),
                    Value::Null,
                    Value::Null,
                ]),
            ],
        )
    }

    #[test]
    fn roundtrip_mixed_nulls() {
        let t = sample_table();
        let bytes = encode(&t).unwrap();
        let back = decode(bytes).unwrap();
        assert_eq!(back.schema, t.schema);
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn dictionary_deduplicates_strings() {
        // 1000 rows, 3 distinct strings: dictionary encoding must beat CSV.
        let schema = Schema::of([("s", DataType::Str)]);
        let rows: Vec<Row> = (0..1000)
            .map(|i| Row::new(vec![Value::str(["aaa", "bbb", "ccc"][i % 3])]))
            .collect();
        let t = Table::new(schema, rows);
        let bin = encode(&t).unwrap();
        let csv = crate::csv::write_str(&t, &crate::csv::CsvOptions::default());
        assert!(bin.len() * 3 < csv.len() * 4, "colbin should be compact");
        assert_eq!(decode(bin).unwrap().rows, t.rows);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(Bytes::from_static(b"NOPE")).is_err());
        assert!(decode(Bytes::from_static(b"CBIN\x09")).is_err());
        // Truncated after header.
        let t = sample_table();
        let bytes = encode(&t).unwrap();
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(decode(cut).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let schema = Schema::of([("x", DataType::Int)]);
        let t = Table::new(schema, vec![]);
        let back = decode(encode(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn nested_struct_column() {
        let schema = Schema::of([(
            "info",
            DataType::Struct(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Str),
            ]),
        )]);
        let t = Table::new(
            schema,
            vec![Row::new(vec![Value::record([
                ("a", Value::Int(1)),
                ("b", Value::str("z")),
            ])])],
        );
        let back = decode(encode(&t).unwrap()).unwrap();
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn columnar_decode_matches_row_decode() {
        // Every dtype incl. a nested list column with nulls: the batch
        // must agree row-for-row with the row decode.
        let t = sample_table();
        let bytes = encode(&t).unwrap();
        let table = decode(bytes.clone()).unwrap();
        let (schema, batch) = decode_columnar(bytes).unwrap();
        assert_eq!(schema, t.schema);
        assert_eq!(batch.len(), table.rows.len());
        for (i, row) in table.rows.iter().enumerate() {
            assert_eq!(batch.row(i), row.to_struct(&schema));
        }
        // Fully-present columns carry no null mask; typed columns are typed.
        assert!(matches!(batch.columns()[0], Column::Int { .. }));
        assert!(matches!(batch.columns()[1], Column::Str { .. }));
        assert!(matches!(batch.columns()[4], Column::Val(_)));
    }

    #[test]
    fn columnar_decode_empty_and_garbage() {
        let schema = Schema::of([("x", DataType::Int), ("s", DataType::Str)]);
        let t = Table::new(schema.clone(), vec![]);
        let (back_schema, batch) = decode_columnar(encode(&t).unwrap()).unwrap();
        assert_eq!(back_schema, schema);
        assert!(batch.is_empty());
        assert_eq!(batch.names().len(), 2);
        assert!(decode_columnar(Bytes::from_static(b"NOPE")).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cleanm_colbin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.colbin");
        let t = sample_table();
        write_path(&path, &t).unwrap();
        assert_eq!(read_path(&path).unwrap(), t);
    }
}
