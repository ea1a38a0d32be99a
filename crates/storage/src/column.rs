//! Typed columns with zero-copy slicing.

use std::sync::Arc;

use crate::dict::Dictionary;
use crate::table::DataType;

/// Owned, typed column storage. Shared between [`Column`] views via `Arc`.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 32-bit integers (also dates, stored as days since 1970-01-01).
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// Dictionary-encoded strings.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The shared dictionary.
        dict: Arc<Dictionary>,
    },
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::I32(_) => DataType::I32,
            ColumnData::I64(_) => DataType::I64,
            ColumnData::F64(_) => DataType::F64,
            ColumnData::Str { .. } => DataType::Str,
        }
    }
}

/// A view over a (possibly shared) [`ColumnData`].
///
/// Slicing is O(1): views share the backing allocation. This is what lets
/// the engine split tables into packets without copying.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    off: usize,
    len: usize,
}

impl Column {
    /// Wrap owned data into a full-length view.
    pub fn new(data: ColumnData) -> Self {
        let len = data.len();
        Column { data: Arc::new(data), off: 0, len }
    }

    /// Build from a vector of `i32`.
    pub fn from_i32(v: Vec<i32>) -> Self {
        Self::new(ColumnData::I32(v))
    }

    /// Build from a vector of `i64`.
    pub fn from_i64(v: Vec<i64>) -> Self {
        Self::new(ColumnData::I64(v))
    }

    /// Build from a vector of `f64`.
    pub fn from_f64(v: Vec<f64>) -> Self {
        Self::new(ColumnData::F64(v))
    }

    /// Build a dictionary-encoded string column.
    pub fn from_strs<'a>(values: impl IntoIterator<Item = &'a str>) -> Self {
        let (dict, codes) = Dictionary::from_values(values);
        Self::new(ColumnData::Str { codes, dict: Arc::new(dict) })
    }

    /// Build a string column from codes and a shared dictionary.
    pub fn from_codes(codes: Vec<u32>, dict: Arc<Dictionary>) -> Self {
        Self::new(ColumnData::Str { codes, dict })
    }

    /// Number of rows in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Bytes of payload this view covers (what a transfer would move).
    pub fn byte_len(&self) -> u64 {
        (self.len * self.data_type().width()) as u64
    }

    /// O(1) sub-view. Panics if out of range.
    pub fn slice(&self, off: usize, len: usize) -> Column {
        assert!(off + len <= self.len, "slice {off}+{len} out of {}", self.len);
        Column { data: Arc::clone(&self.data), off: self.off + off, len }
    }

    /// The `i32` values of this view. Panics on type mismatch.
    pub fn as_i32(&self) -> &[i32] {
        match &*self.data {
            ColumnData::I32(v) => &v[self.off..self.off + self.len],
            // Invariant: a plan's probe and build keys are `i32`/date —
            // hape_core's binding walk (`plan::is_join_key`).
            other => panic!("expected I32 column, got {:?}", other.data_type()),
        }
    }

    /// The `i64` values of this view. Panics on type mismatch.
    pub fn as_i64(&self) -> &[i64] {
        match &*self.data {
            ColumnData::I64(v) => &v[self.off..self.off + self.len],
            other => panic!("expected I64 column, got {:?}", other.data_type()),
        }
    }

    /// The `f64` values of this view. Panics on type mismatch.
    pub fn as_f64(&self) -> &[f64] {
        match &*self.data {
            ColumnData::F64(v) => &v[self.off..self.off + self.len],
            other => panic!("expected F64 column, got {:?}", other.data_type()),
        }
    }

    /// The dictionary codes of this view. Panics on type mismatch.
    pub fn as_codes(&self) -> &[u32] {
        match &*self.data {
            ColumnData::Str { codes, .. } => &codes[self.off..self.off + self.len],
            other => panic!("expected Str column, got {:?}", other.data_type()),
        }
    }

    /// The dictionary, for string columns.
    pub fn dict(&self) -> Option<&Arc<Dictionary>> {
        match &*self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Materialise the rows selected by `sel` (indices into this view) into
    /// a new owned column.
    pub fn take(&self, sel: &[u32]) -> Column {
        match &*self.data {
            ColumnData::I32(_) => {
                let src = self.as_i32();
                Column::from_i32(sel.iter().map(|&i| src[i as usize]).collect())
            }
            ColumnData::I64(_) => {
                let src = self.as_i64();
                Column::from_i64(sel.iter().map(|&i| src[i as usize]).collect())
            }
            ColumnData::F64(_) => {
                let src = self.as_f64();
                Column::from_f64(sel.iter().map(|&i| src[i as usize]).collect())
            }
            ColumnData::Str { dict, .. } => {
                let src = self.as_codes();
                Column::from_codes(
                    sel.iter().map(|&i| src[i as usize]).collect(),
                    Arc::clone(dict),
                )
            }
        }
    }

    /// Concatenate a sequence of same-typed columns into one column: the
    /// covering view when the parts are adjacent views of one allocation
    /// (packets of a table that passed through untouched — nothing is
    /// copied), a new owned column otherwise.
    pub fn concat(parts: &[Column]) -> Column {
        assert!(!parts.is_empty(), "concat of zero columns");
        let adjacent = |w: &[Column]| {
            Arc::ptr_eq(&w[0].data, &w[1].data) && w[0].off + w[0].len == w[1].off
        };
        if parts.windows(2).all(adjacent) {
            let len = parts.iter().map(Column::len).sum();
            return Column { data: Arc::clone(&parts[0].data), off: parts[0].off, len };
        }
        let dt = parts[0].data_type();
        match dt {
            DataType::I32 | DataType::Date => {
                let mut v = Vec::with_capacity(parts.iter().map(Column::len).sum());
                for p in parts {
                    v.extend_from_slice(p.as_i32());
                }
                Column::from_i32(v)
            }
            DataType::I64 => {
                let mut v = Vec::with_capacity(parts.iter().map(Column::len).sum());
                for p in parts {
                    v.extend_from_slice(p.as_i64());
                }
                Column::from_i64(v)
            }
            DataType::F64 => {
                let mut v = Vec::with_capacity(parts.iter().map(Column::len).sum());
                for p in parts {
                    v.extend_from_slice(p.as_f64());
                }
                Column::from_f64(v)
            }
            DataType::Str => {
                let dict = Arc::clone(parts[0].dict().expect("str column without dict"));
                let mut v = Vec::with_capacity(parts.iter().map(Column::len).sum());
                for p in parts {
                    assert!(
                        Arc::ptr_eq(&dict, p.dict().expect("str column without dict")),
                        "concat of string columns with different dictionaries"
                    );
                    v.extend_from_slice(p.as_codes());
                }
                Column::from_codes(v, dict)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_view() {
        let c = Column::from_i32((0..100).collect());
        let s = c.slice(10, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.as_i32()[0], 10);
        assert_eq!(s.as_i32()[19], 29);
        // Nested slicing composes offsets.
        let s2 = s.slice(5, 5);
        assert_eq!(s2.as_i32(), &[15, 16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_out_of_range_panics() {
        Column::from_i32(vec![1, 2, 3]).slice(2, 2);
    }

    #[test]
    #[should_panic(expected = "expected I64")]
    fn type_mismatch_panics() {
        Column::from_i32(vec![1]).as_i64();
    }

    #[test]
    fn byte_len_by_type() {
        assert_eq!(Column::from_i32(vec![0; 10]).byte_len(), 40);
        assert_eq!(Column::from_i64(vec![0; 10]).byte_len(), 80);
        assert_eq!(Column::from_f64(vec![0.0; 10]).byte_len(), 80);
        assert_eq!(Column::from_strs(["a", "b"]).byte_len(), 8);
    }

    #[test]
    fn take_gathers() {
        let c = Column::from_i32(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.as_i32(), &[40, 10, 10]);
    }

    #[test]
    fn take_respects_view_offset() {
        let c = Column::from_i32((0..10).collect()).slice(5, 5);
        let t = c.take(&[0, 4]);
        assert_eq!(t.as_i32(), &[5, 9]);
    }

    #[test]
    fn concat_round_trips() {
        let c = Column::from_i32((0..10).collect());
        let parts = vec![c.slice(0, 4), c.slice(4, 6)];
        let cc = Column::concat(&parts);
        assert_eq!(cc.as_i32(), c.as_i32());
    }

    /// Ten rows of each physical type (the strings dictionary-encoded).
    fn one_of_each_type() -> Vec<Column> {
        vec![
            Column::from_i32((0..10).collect()),
            Column::from_i64((0..10).map(|v| v * 7).collect()),
            Column::from_f64((0..10).map(|v| f64::from(v) * 0.5).collect()),
            Column::from_strs(["a", "b", "c", "a", "b", "c", "d", "e", "f", "g"]),
        ]
    }

    /// Where a view's first value lives, and its values, whatever its type.
    fn addr_and_values(c: &Column) -> (usize, Vec<String>) {
        fn of<T: ToString>(v: &[T]) -> (usize, Vec<String>) {
            (v.as_ptr() as usize, v.iter().map(T::to_string).collect())
        }
        match c.data_type() {
            DataType::I32 | DataType::Date => of(c.as_i32()),
            DataType::I64 => of(c.as_i64()),
            DataType::F64 => of(c.as_f64()),
            DataType::Str => of(c.as_codes()),
        }
    }

    #[test]
    fn concat_of_adjacent_views_is_the_covering_view() {
        for c in one_of_each_type() {
            let parts = [c.slice(2, 3), c.slice(5, 4), c.slice(9, 1)];
            let cc = Column::concat(&parts);
            assert_eq!(addr_and_values(&cc), addr_and_values(&c.slice(2, 8)), "no copy");
            assert!(Arc::ptr_eq(&cc.data, &c.data), "a view of the same allocation");
            // A single part is its own covering view.
            let one = Column::concat(&parts[1..2]);
            assert_eq!(addr_and_values(&one), addr_and_values(&parts[1]));
        }
    }

    #[test]
    fn concat_of_anything_but_adjacent_views_copies_and_round_trips() {
        for c in one_of_each_type() {
            // The same rows in a second allocation (sharing the dictionary).
            let other = c.take(&(0..10).collect::<Vec<u32>>());
            let cases = [
                ("a gap", vec![c.slice(0, 3), c.slice(5, 2)]),
                ("out of order", vec![c.slice(5, 2), c.slice(0, 5)]),
                ("overlapping", vec![c.slice(0, 5), c.slice(3, 4)]),
                ("two allocations", vec![c.slice(0, 5), other.slice(5, 5)]),
                (
                    "an empty part in the middle",
                    vec![c.slice(0, 4), other.slice(0, 0), c.slice(4, 6)],
                ),
            ];
            for (what, parts) in cases {
                let cc = Column::concat(&parts);
                let want: Vec<String> =
                    parts.iter().flat_map(|p| addr_and_values(p).1).collect();
                let (addr, got) = addr_and_values(&cc);
                assert_eq!(got, want, "{what}: {:?}", c.data_type());
                assert!(!Arc::ptr_eq(&cc.data, &c.data), "{what}: a new allocation");
                assert_ne!(addr, addr_and_values(&parts[0]).0, "{what}");
                assert_eq!(cc.dict().map(Arc::as_ptr), c.dict().map(Arc::as_ptr), "{what}");
            }
        }
    }

    #[test]
    fn string_columns_share_dict() {
        let c = Column::from_strs(["ASIA", "EUROPE", "ASIA"]);
        assert_eq!(c.as_codes(), &[0, 1, 0]);
        let s = c.slice(1, 2);
        assert_eq!(s.as_codes(), &[1, 0]);
        assert_eq!(s.dict().unwrap().get(1), Some("EUROPE"));
    }
}
