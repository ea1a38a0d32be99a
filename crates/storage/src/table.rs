//! Schemas, batches (packets) and tables.

use hape_sim::topology::MemNode;

use crate::column::Column;

/// Logical column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// Date as days since epoch (physically `i32`).
    Date,
    /// Dictionary-encoded string (physically `u32` codes).
    Str,
}

impl DataType {
    /// Physical width in bytes of one value.
    pub fn width(&self) -> usize {
        match self {
            DataType::I32 | DataType::Date | DataType::Str => 4,
            DataType::I64 | DataType::F64 => 8,
        }
    }
}

/// A named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype }
    }
}

/// An ordered set of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    pub fn new(fields: impl IntoIterator<Item = (impl Into<String>, DataType)>) -> Self {
        Schema { fields: fields.into_iter().map(|(n, t)| Field::new(n, t)).collect() }
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Type of a field by name.
    pub fn dtype_of(&self, name: &str) -> Option<DataType> {
        self.field(name).map(|f| f.dtype)
    }

    /// True when a field with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// A batch of rows — the engine's unit of data flow (the paper's *packet*).
/// Packets carry no shared property: routers decide from their size and the
/// consumers' load alone (see `hape_core::exchange`).
#[derive(Debug, Clone)]
pub struct Batch {
    /// The columns; all the same length.
    pub columns: Vec<Column>,
}

impl Batch {
    /// Build from columns (must agree on length).
    pub fn new(columns: Vec<Column>) -> Self {
        if let Some(first) = columns.first() {
            let n = first.len();
            assert!(columns.iter().all(|c| c.len() == n), "ragged batch");
        }
        Batch { columns }
    }

    /// An empty batch with no columns.
    pub fn empty() -> Self {
        Batch { columns: Vec::new() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Total payload bytes (what a `mem-move` would transfer).
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(Column::byte_len).sum()
    }

    /// O(1) row-range view.
    pub fn slice(&self, off: usize, len: usize) -> Batch {
        Batch { columns: self.columns.iter().map(|c| c.slice(off, len)).collect() }
    }

    /// Split into packets of at most `rows_per_packet` rows (views).
    pub fn split(&self, rows_per_packet: usize) -> Vec<Batch> {
        assert!(rows_per_packet > 0);
        let n = self.rows();
        let mut out = Vec::with_capacity(n.div_ceil(rows_per_packet));
        let mut off = 0;
        while off < n {
            let len = rows_per_packet.min(n - off);
            out.push(self.slice(off, len));
            off += len;
        }
        out
    }

    /// Concatenate same-shaped batches column-wise into one batch — how
    /// packet outputs become a build side. Empty batches are skipped unless
    /// all are, when the first is returned: an empty build side keeps its
    /// columns. No batch yields [`Batch::empty`]; a single batch is
    /// returned as it is (still a view), and so is every column whose parts
    /// are adjacent views of one allocation ([`Column::concat`]); the rest
    /// are copied.
    pub fn concat(mut parts: Vec<Batch>) -> Batch {
        if parts.iter().any(|b| b.rows() > 0) {
            parts.retain(|b| b.rows() > 0);
        } else {
            parts.truncate(1);
        }
        if parts.len() <= 1 {
            return parts.pop().unwrap_or_else(Batch::empty);
        }
        let cols = (0..parts[0].columns.len())
            .map(|c| {
                let col_parts: Vec<Column> =
                    parts.iter().map(|b| b.columns[c].clone()).collect();
                Column::concat(&col_parts)
            })
            .collect();
        Batch::new(cols)
    }

    /// Column by index.
    pub fn col(&self, i: usize) -> &Column {
        // Invariant: every column index a plan carries is in range of the
        // schema flowing past it — hape_core's binding walk (`plan::bind`).
        &self.columns[i]
    }
}

/// A named table: a schema, one batch of data, and a placement.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// The schema.
    pub schema: Schema,
    /// The data.
    pub data: Batch,
    /// Which memory node the table resides on.
    pub mem_node: MemNode,
}

impl Table {
    /// Build a CPU-resident table on socket 0.
    pub fn new(name: impl Into<String>, schema: Schema, data: Batch) -> Self {
        assert_eq!(schema.len(), data.columns.len(), "schema/data arity mismatch");
        for (f, c) in schema.fields.iter().zip(&data.columns) {
            let physical_match = match f.dtype {
                DataType::Date => {
                    c.data_type() == DataType::I32 || c.data_type() == DataType::Date
                }
                other => {
                    c.data_type() == other
                        || (other == DataType::I32 && c.data_type() == DataType::Date)
                }
            };
            assert!(
                physical_match,
                "column {} type mismatch: {:?} vs {:?}",
                f.name,
                f.dtype,
                c.data_type()
            );
        }
        Table { name: name.into(), schema, data, mem_node: MemNode::CpuDram(0) }
    }

    /// Set the placement.
    pub fn on(mut self, node: MemNode) -> Self {
        self.mem_node = node;
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.data.bytes()
    }

    /// A new table containing only the named columns (zero-copy views) —
    /// what a columnar scan reads when a query references a column subset.
    /// Panics on unknown columns; [`Table::try_project`] is the fallible
    /// variant query lowering uses.
    pub fn project(&self, cols: &[&str]) -> Table {
        self.try_project(cols)
            .unwrap_or_else(|c| panic!("no column {c} in table {}", self.name))
    }

    /// Fallible projection: returns the first unknown column name as the
    /// error.
    pub fn try_project(&self, cols: &[&str]) -> Result<Table, String> {
        let mut fields = Vec::with_capacity(cols.len());
        let mut data = Vec::with_capacity(cols.len());
        for &c in cols {
            let i = self.schema.index_of(c).ok_or_else(|| c.to_string())?;
            fields.push(self.schema.fields[i].clone());
            data.push(self.data.col(i).clone());
        }
        Ok(Table {
            name: self.name.clone(),
            schema: Schema { fields },
            data: Batch::new(data),
            mem_node: self.mem_node,
        })
    }

    /// Column view by name. Panics if absent.
    pub fn column(&self, name: &str) -> &Column {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("no column {name} in table {}", self.name));
        self.data.col(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_batch(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).collect()),
            Column::from_i64((0..n as i64).collect()),
        ])
    }

    #[test]
    fn batch_geometry() {
        let b = two_col_batch(10);
        assert_eq!(b.rows(), 10);
        assert_eq!(b.bytes(), 10 * (4 + 8));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_panics() {
        Batch::new(vec![Column::from_i32(vec![1]), Column::from_i32(vec![1, 2])]);
    }

    #[test]
    fn split_into_packets() {
        let b = two_col_batch(10);
        let packets = b.split(4);
        assert_eq!(packets.len(), 3);
        assert_eq!(packets[0].rows(), 4);
        assert_eq!(packets[2].rows(), 2);
        // Views, not copies: values line up.
        assert_eq!(packets[1].col(0).as_i32(), &[4, 5, 6, 7]);
    }

    #[test]
    fn concat_rejoins_split_packets() {
        let b = two_col_batch(10);
        let joined = Batch::concat(b.split(4));
        assert_eq!(joined.col(0).as_i32(), b.col(0).as_i32());
        assert_eq!(joined.col(1).as_i64(), b.col(1).as_i64());
        assert_eq!(Batch::concat(Vec::new()).rows(), 0);
        assert_eq!(Batch::concat(vec![b.slice(2, 3)]).col(0).as_i32(), &[2, 3, 4]);
    }

    #[test]
    fn table_lookup_by_name() {
        let schema = Schema::new([("k", DataType::I32), ("v", DataType::I64)]);
        let t = Table::new("r", schema, two_col_batch(5));
        assert_eq!(t.column("v").as_i64().len(), 5);
        assert_eq!(t.rows(), 5);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn schema_arity_checked() {
        let schema = Schema::new([("k", DataType::I32)]);
        Table::new("r", schema, two_col_batch(5));
    }

    #[test]
    fn placement_tag() {
        let schema = Schema::new([("k", DataType::I32), ("v", DataType::I64)]);
        let t = Table::new("r", schema, two_col_batch(5)).on(MemNode::GpuDram(1));
        assert_eq!(t.mem_node, MemNode::GpuDram(1));
    }
}
