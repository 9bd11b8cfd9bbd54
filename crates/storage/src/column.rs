//! Typed column buffers with validity bitmaps.

use crate::bitmap::Bitmap;
use crate::buffer::Buffer;
use crate::error::{Result, StorageError};
use crate::exact::ExactSum;
use crate::value::{DataType, Value};

/// Numeric-aggregate state — COUNT, exact SUM, MIN, MAX — over a set of
/// values, produced by [`Column::numeric_agg`] and by the zone-map build.
///
/// Every field is a function of the multiset of values folded in: the
/// sum is an [`ExactSum`], and MIN/MAX break the `±0.0` tie by sign
/// (MIN keeps `-0.0`, MAX keeps `+0.0`) instead of by arrival order. So
/// states over any partition of the values, merged in any order, equal
/// the state of one pass. NULL rows and NaN values are excluded (they
/// are "missing observations", matching `to_f64_lossy`).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericAggState {
    /// Number of non-missing values seen.
    pub count: u64,
    /// Exact sum of non-missing values.
    pub sum: ExactSum,
    /// Minimum; `+inf` until a value is seen.
    pub min: f64,
    /// Maximum; `-inf` until a value is seen.
    pub max: f64,
}

impl Default for NumericAggState {
    fn default() -> NumericAggState {
        NumericAggState {
            count: 0,
            sum: ExactSum::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl NumericAggState {
    /// Fold one non-NaN value in.
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum.add(v);
        // `total_cmp` orders -0.0 below +0.0 (and agrees with `<` on
        // every other non-NaN pair).
        self.min = std::cmp::min_by(self.min, v, f64::total_cmp);
        self.max = std::cmp::max_by(self.max, v, f64::total_cmp);
    }

    /// Combine with the state of any other set of values.
    pub fn merge(&mut self, other: &NumericAggState) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.min = std::cmp::min_by(self.min, other.min, f64::total_cmp);
        self.max = std::cmp::max_by(self.max, other.max, f64::total_cmp);
    }

    /// Mean of the values seen, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum.value() / self.count as f64)
    }
}

/// A typed column of values plus a validity bitmap.
///
/// Data lives in a dense typed [`Buffer`] (`Arc`'d storage with an
/// `(offset, len)` window), so cloning a column or slicing a contiguous
/// row range never copies values; validity is tracked separately so
/// numeric kernels can run over the raw buffer and consult the bitmap
/// only when nulls are present.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Dense values (entries at invalid positions are unspecified).
        data: Buffer<i64>,
        /// Validity bitmap, one bit per row.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float64 {
        /// Dense values.
        data: Buffer<f64>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// UTF-8 strings.
    Str {
        /// Dense values.
        data: Buffer<String>,
        /// Validity bitmap.
        validity: Bitmap,
    },
    /// Booleans (stored as a bitmap themselves).
    Bool {
        /// Truth bitmap.
        data: Bitmap,
        /// Validity bitmap.
        validity: Bitmap,
    },
}

impl Column {
    /// All-valid integer column.
    pub fn from_i64(data: Vec<i64>) -> Column {
        let validity = Bitmap::filled(data.len(), true);
        Column::Int64 { data: data.into(), validity }
    }

    /// All-valid float column.
    pub fn from_f64(data: Vec<f64>) -> Column {
        let validity = Bitmap::filled(data.len(), true);
        Column::Float64 { data: data.into(), validity }
    }

    /// All-valid string column.
    pub fn from_str(data: Vec<String>) -> Column {
        let validity = Bitmap::filled(data.len(), true);
        Column::Str { data: data.into(), validity }
    }

    /// All-valid boolean column.
    pub fn from_bool(values: &[bool]) -> Column {
        let mut data = Bitmap::new();
        for &v in values {
            data.push(v);
        }
        let validity = Bitmap::filled(values.len(), true);
        Column::Bool { data, validity }
    }

    /// Column from optional floats; `None` becomes NULL.
    pub fn from_f64_opt(values: Vec<Option<f64>>) -> Column {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Bitmap::new();
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    validity.push(true);
                }
                None => {
                    data.push(0.0);
                    validity.push(false);
                }
            }
        }
        Column::Float64 { data: data.into(), validity }
    }

    /// Column from optional ints; `None` becomes NULL.
    pub fn from_i64_opt(values: Vec<Option<i64>>) -> Column {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Bitmap::new();
        for v in values {
            match v {
                Some(x) => {
                    data.push(x);
                    validity.push(true);
                }
                None => {
                    data.push(0);
                    validity.push(false);
                }
            }
        }
        Column::Int64 { data: data.into(), validity }
    }

    /// Data type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Str { .. } => DataType::Str,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
        }
    }

    /// True when the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validity bitmap.
    pub fn validity(&self) -> &Bitmap {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Str { validity, .. }
            | Column::Bool { validity, .. } => validity,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.len() - self.validity().count_set()
    }

    /// Read one row as a dynamic [`Value`].
    pub fn value(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(StorageError::RowOutOfRange { row, len: self.len() });
        }
        if !self.validity().get(row) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Column::Int64 { data, .. } => Value::Int(data[row]),
            Column::Float64 { data, .. } => Value::Float(data[row]),
            Column::Str { data, .. } => Value::Str(data[row].clone()),
            Column::Bool { data, .. } => Value::Bool(data.get(row)),
        })
    }

    /// Borrow the raw f64 buffer (floats only).
    pub fn f64_data(&self) -> Result<&[f64]> {
        match self {
            Column::Float64 { data, .. } => Ok(data),
            other => Err(StorageError::TypeMismatch {
                op: "f64_data",
                expected: "Float64",
                got: other.data_type().name(),
            }),
        }
    }

    /// Borrow the raw i64 buffer (ints only).
    pub fn i64_data(&self) -> Result<&[i64]> {
        match self {
            Column::Int64 { data, .. } => Ok(data),
            other => Err(StorageError::TypeMismatch {
                op: "i64_data",
                expected: "Int64",
                got: other.data_type().name(),
            }),
        }
    }

    /// The integers row by row, NULL as `None` (ints only): the view
    /// for a key column, where a NULL is no key at all.
    pub fn i64_values(&self) -> Result<impl ExactSizeIterator<Item = Option<i64>> + '_> {
        let validity = self.validity();
        Ok(self.i64_data()?.iter().enumerate().map(|(i, &v)| validity.get(i).then_some(v)))
    }

    /// Borrow the raw string buffer (strings only).
    pub fn str_data(&self) -> Result<&[String]> {
        match self {
            Column::Str { data, .. } => Ok(data),
            other => Err(StorageError::TypeMismatch {
                op: "str_data",
                expected: "Str",
                got: other.data_type().name(),
            }),
        }
    }

    /// Numeric view of the column as f64s: ints widen, valid floats pass
    /// through, NULLs become NaN. Used by the fitting layer, which treats
    /// NaN rows as missing observations.
    ///
    /// Errors for non-numeric columns.
    pub fn to_f64_lossy(&self) -> Result<Vec<f64>> {
        match self {
            Column::Float64 { data, validity } => {
                if validity.all_set() {
                    Ok(data.to_vec())
                } else {
                    Ok(data
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if validity.get(i) { v } else { f64::NAN })
                        .collect())
                }
            }
            Column::Int64 { data, validity } => Ok(data
                .iter()
                .enumerate()
                .map(|(i, &v)| if validity.get(i) { v as f64 } else { f64::NAN })
                .collect()),
            other => Err(StorageError::TypeMismatch {
                op: "to_f64_lossy",
                expected: "numeric",
                got: other.data_type().name(),
            }),
        }
    }

    /// Gather the rows at `indices` into a new column (selection vector
    /// materialization — the executor's filter output path).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        for &i in indices {
            if i >= self.len() {
                return Err(StorageError::RowOutOfRange { row: i, len: self.len() });
            }
        }
        Ok(match self {
            Column::Int64 { data, validity } => {
                let new_data: Vec<i64> = indices.iter().map(|&i| data[i]).collect();
                let mut v = Bitmap::new();
                for &i in indices {
                    v.push(validity.get(i));
                }
                Column::Int64 { data: new_data.into(), validity: v }
            }
            Column::Float64 { data, validity } => {
                let new_data: Vec<f64> = indices.iter().map(|&i| data[i]).collect();
                let mut v = Bitmap::new();
                for &i in indices {
                    v.push(validity.get(i));
                }
                Column::Float64 { data: new_data.into(), validity: v }
            }
            Column::Str { data, validity } => {
                let new_data: Vec<String> = indices.iter().map(|&i| data[i].clone()).collect();
                let mut v = Bitmap::new();
                for &i in indices {
                    v.push(validity.get(i));
                }
                Column::Str { data: new_data.into(), validity: v }
            }
            Column::Bool { data, validity } => {
                let mut new_data = Bitmap::new();
                let mut v = Bitmap::new();
                for &i in indices {
                    new_data.push(data.get(i));
                    v.push(validity.get(i));
                }
                Column::Bool { data: new_data, validity: v }
            }
        })
    }

    /// Contiguous slice `rows[offset..offset+len]` as a new column.
    ///
    /// Value buffers are shared, not copied (O(1) for the values; the
    /// validity bitmap is a word-level shift-copy, O(len/64)). This is
    /// the morsel-splitting path of the parallel executor.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Column> {
        if offset.checked_add(len).is_none_or(|end| end > self.len()) {
            return Err(StorageError::RowOutOfRange {
                row: offset.saturating_add(len),
                len: self.len(),
            });
        }
        Ok(match self {
            Column::Int64 { data, validity } => Column::Int64 {
                data: data.slice(offset, len),
                validity: validity.slice(offset, len),
            },
            Column::Float64 { data, validity } => Column::Float64 {
                data: data.slice(offset, len),
                validity: validity.slice(offset, len),
            },
            Column::Str { data, validity } => Column::Str {
                data: data.slice(offset, len),
                validity: validity.slice(offset, len),
            },
            Column::Bool { data, validity } => Column::Bool {
                data: data.slice(offset, len),
                validity: validity.slice(offset, len),
            },
        })
    }

    /// Append another column of the same type (ingest path for the
    /// data-change experiments).
    ///
    /// O(`other`) when no other column shares this column's buffers;
    /// otherwise each shared buffer is copied once into room for the
    /// batch.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(StorageError::TypeMismatch {
                op: "append",
                expected: self.data_type().name(),
                got: other.data_type().name(),
            });
        }
        match (self, other) {
            (
                Column::Int64 { data, validity },
                Column::Int64 { data: od, validity: ov },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (
                Column::Float64 { data, validity },
                Column::Float64 { data: od, validity: ov },
            ) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (Column::Str { data, validity }, Column::Str { data: od, validity: ov }) => {
                data.extend_from_slice(od);
                validity.extend(ov);
            }
            (
                Column::Bool { data, validity },
                Column::Bool { data: od, validity: ov },
            ) => {
                data.extend(od);
                validity.extend(ov);
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// True when [`Column::append`] grows this column in place: no
    /// other column shares its value buffer or validity bitmap.
    pub(crate) fn grows_in_place(&self) -> bool {
        self.validity().is_unique()
            && match self {
                Column::Int64 { data, .. } => data.is_unique(),
                Column::Float64 { data, .. } => data.is_unique(),
                Column::Str { data, .. } => data.is_unique(),
                Column::Bool { data, .. } => data.is_unique(),
            }
    }

    /// Compute count/sum/min/max in one pass over the raw value buffer
    /// (numeric columns only), optionally restricted to the rows set in
    /// `sel` (a filter's selection bitmap).
    ///
    /// NULL rows and NaN values are skipped, matching the missing-value
    /// semantics of [`Column::to_f64_lossy`]. This is the executor's
    /// aggregate kernel: no per-row `Value` or `Option<f64>` is ever
    /// materialized.
    pub fn numeric_agg(&self, sel: Option<&Bitmap>) -> Result<NumericAggState> {
        fn run(
            n: usize,
            sel: Option<&Bitmap>,
            validity: &Bitmap,
            get: impl Fn(usize) -> f64,
        ) -> NumericAggState {
            let mut state = NumericAggState::default();
            let all_valid = validity.all_set();
            let mut fold = |i: usize| {
                if all_valid || validity.get(i) {
                    let v = get(i);
                    if !v.is_nan() {
                        state.update(v);
                    }
                }
            };
            match sel {
                Some(sel) => sel.iter_set().for_each(&mut fold),
                None => (0..n).for_each(&mut fold),
            }
            state
        }
        if let Some(sel) = sel {
            if sel.len() != self.len() {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: self.len(),
                    column: "selection bitmap".to_string(),
                    got: sel.len(),
                });
            }
        }
        match self {
            Column::Float64 { data, validity } => {
                Ok(run(data.len(), sel, validity, |i| data[i]))
            }
            Column::Int64 { data, validity } => {
                Ok(run(data.len(), sel, validity, |i| data[i] as f64))
            }
            other => Err(StorageError::TypeMismatch {
                op: "numeric_agg",
                expected: "numeric",
                got: other.data_type().name(),
            }),
        }
    }

    /// In-memory footprint of the value buffers in bytes (what "11 MB of
    /// observations" is measured with in the Table 1 experiment).
    pub fn byte_size(&self) -> usize {
        let validity_bytes = self.validity().len().div_ceil(8);
        validity_bytes
            + match self {
                Column::Int64 { data, .. } => data.len() * 8,
                Column::Float64 { data, .. } => data.len() * 8,
                Column::Str { data, .. } => {
                    data.iter().map(|s| s.len() + 8).sum::<usize>()
                }
                Column::Bool { data, .. } => data.len().div_ceil(8),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_basic_access() {
        let c = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.value(1).unwrap(), Value::Int(2));
        assert!(c.value(3).is_err());
    }

    #[test]
    fn nullable_columns() {
        let c = Column::from_f64_opt(vec![Some(1.5), None, Some(2.5)]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0).unwrap(), Value::Float(1.5));
        assert_eq!(c.value(1).unwrap(), Value::Null);
        let lossy = c.to_f64_lossy().unwrap();
        assert!(lossy[1].is_nan());
        assert_eq!(lossy[2], 2.5);
    }

    #[test]
    fn int_column_widens_to_f64() {
        let c = Column::from_i64_opt(vec![Some(3), None]);
        let f = c.to_f64_lossy().unwrap();
        assert_eq!(f[0], 3.0);
        assert!(f[1].is_nan());
        assert_eq!(c.i64_values().unwrap().collect::<Vec<_>>(), [Some(3), None]);
        assert!(Column::from_f64(vec![1.0]).i64_values().is_err());
    }

    #[test]
    fn strings_are_not_numeric() {
        let c = Column::from_str(vec!["a".into()]);
        assert!(c.to_f64_lossy().is_err());
        assert!(c.f64_data().is_err());
        assert_eq!(c.str_data().unwrap()[0], "a");
    }

    #[test]
    fn take_gathers_with_validity() {
        let c = Column::from_i64_opt(vec![Some(10), None, Some(30), Some(40)]);
        let t = c.take(&[3, 1, 0]).unwrap();
        assert_eq!(t.value(0).unwrap(), Value::Int(40));
        assert_eq!(t.value(1).unwrap(), Value::Null);
        assert_eq!(t.value(2).unwrap(), Value::Int(10));
        assert!(c.take(&[4]).is_err());
    }

    #[test]
    fn slice_is_contiguous_take() {
        let c = Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]);
        let s = c.slice(1, 2).unwrap();
        assert_eq!(s.f64_data().unwrap(), &[2.0, 3.0]);
        assert!(c.slice(3, 2).is_err());
    }

    #[test]
    fn slice_preserves_validity() {
        let c = Column::from_f64_opt(vec![Some(1.0), None, Some(3.0), None, Some(5.0)]);
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.value(0).unwrap(), Value::Null);
        assert_eq!(s.value(1).unwrap(), Value::Float(3.0));
        assert_eq!(s.value(2).unwrap(), Value::Null);
    }

    #[test]
    fn clone_and_slice_share_value_buffers() {
        // The zero-copy invariant: neither cloning a column nor slicing
        // a row range may copy the value buffer.
        let c = Column::from_f64((0..1000).map(|i| i as f64).collect());
        let cloned = c.clone();
        assert!(std::ptr::eq(
            c.f64_data().unwrap().as_ptr(),
            cloned.f64_data().unwrap().as_ptr()
        ));
        let s = c.slice(100, 50).unwrap();
        assert!(std::ptr::eq(&c.f64_data().unwrap()[100], &s.f64_data().unwrap()[0]));

        let ints = Column::from_i64((0..100).collect());
        let s = ints.slice(10, 20).unwrap();
        assert!(std::ptr::eq(&ints.i64_data().unwrap()[10], &s.i64_data().unwrap()[0]));

        let strs = Column::from_str((0..50).map(|i| i.to_string()).collect());
        let s = strs.slice(5, 10).unwrap();
        assert!(std::ptr::eq(&strs.str_data().unwrap()[5], &s.str_data().unwrap()[0]));
    }

    #[test]
    fn append_does_not_disturb_shared_clones() {
        let mut a = Column::from_i64(vec![1, 2, 3]);
        let snapshot = a.clone();
        a.append(&Column::from_i64(vec![4])).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(snapshot.len(), 3);
        assert_eq!(snapshot.i64_data().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn append_same_type() {
        let mut a = Column::from_i64(vec![1]);
        let b = Column::from_i64_opt(vec![None, Some(2)]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.null_count(), 1);
        assert_eq!(a.value(2).unwrap(), Value::Int(2));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![1.0]);
        assert!(matches!(a.append(&b), Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn bool_column_roundtrip() {
        let c = Column::from_bool(&[true, false, true]);
        assert_eq!(c.value(0).unwrap(), Value::Bool(true));
        assert_eq!(c.value(1).unwrap(), Value::Bool(false));
        let t = c.take(&[1, 2]).unwrap();
        assert_eq!(t.value(1).unwrap(), Value::Bool(true));
    }

    #[test]
    fn numeric_agg_skips_nulls_and_nans() {
        let c = Column::from_f64_opt(vec![
            Some(1.0),
            None,
            Some(f64::NAN),
            Some(-3.0),
            Some(4.0),
        ]);
        let s = c.numeric_agg(None).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum.value(), 2.0);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean(), Some(2.0 / 3.0));
    }

    #[test]
    fn numeric_agg_respects_selection() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let sel = Bitmap::from_fn(4, |i| i % 2 == 1); // rows 1, 3
        let s = c.numeric_agg(Some(&sel)).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum.value(), 60.0);
        assert_eq!(s.min, 20.0);
        assert_eq!(s.max, 40.0);
        let wrong_len = Bitmap::filled(3, true);
        assert!(c.numeric_agg(Some(&wrong_len)).is_err());
        assert!(Column::from_str(vec!["a".into()]).numeric_agg(None).is_err());
    }

    #[test]
    fn numeric_agg_merge_equals_whole_column_pass() {
        let vals: Vec<Option<f64>> = (0..100)
            .map(|i| if i % 7 == 0 { None } else { Some((i as f64) - 50.0) })
            .collect();
        let c = Column::from_f64_opt(vals);
        let whole = c.numeric_agg(None).unwrap();
        // Morsel-style: aggregate disjoint slices, merge in any order.
        let mut merged = NumericAggState::default();
        for start in (0..100).step_by(33).rev() {
            let len = (100 - start).min(33);
            let part = c.slice(start, len).unwrap().numeric_agg(None).unwrap();
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        // Merging an empty state is the identity.
        let mut empty = NumericAggState::default();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn numeric_agg_breaks_signed_zero_ties_by_sign() {
        for values in [vec![0.0, -0.0], vec![-0.0, 0.0]] {
            let s = Column::from_f64(values).numeric_agg(None).unwrap();
            assert_eq!(s.min.to_bits(), (-0.0f64).to_bits());
            assert_eq!(s.max.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn byte_size_counts_buffers() {
        let c = Column::from_f64(vec![0.0; 100]);
        // 800 data bytes + 13 validity bytes.
        assert_eq!(c.byte_size(), 800 + 13);
    }
}
