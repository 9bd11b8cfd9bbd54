//! Borrowed column views for fitting.
//!
//! The fit crate is independent of the storage engine; callers hand it
//! named `&[f64]` columns. `lawsdb-models` bridges `Table` → `DataSet`.

use crate::error::{FitError, Result};

/// A named collection of equal-length borrowed f64 columns.
#[derive(Debug, Clone)]
pub struct DataSet<'a> {
    names: Vec<String>,
    cols: Vec<&'a [f64]>,
    rows: usize,
}

impl<'a> DataSet<'a> {
    /// Build from `(name, column)` pairs; all columns must share one
    /// length and names must be unique.
    pub fn new(pairs: Vec<(&str, &'a [f64])>) -> Result<DataSet<'a>> {
        let rows = pairs.first().map_or(0, |(_, c)| c.len());
        let mut names = Vec::with_capacity(pairs.len());
        let mut cols = Vec::with_capacity(pairs.len());
        for (name, col) in pairs {
            if names.iter().any(|n| n == name) {
                return Err(FitError::BadData { detail: format!("duplicate column {name:?}") });
            }
            if col.len() != rows {
                return Err(FitError::BadData {
                    detail: format!("column {name:?} has {} rows, expected {rows}", col.len()),
                });
            }
            names.push(name.to_string());
            cols.push(col);
        }
        Ok(DataSet { names, cols, rows })
    }

    /// Column names as borrowed strs.
    pub fn names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Look a column up by name.
    pub fn column(&self, name: &str) -> Result<&'a [f64]> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.cols[i])
            .ok_or_else(|| FitError::MissingColumn { name: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let d = DataSet::new(vec![("a", &a[..]), ("b", &b[..])]).unwrap();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.column("b").unwrap(), &[3.0, 4.0]);
        assert!(matches!(d.column("c"), Err(FitError::MissingColumn { .. })));
    }

    #[test]
    fn ragged_and_duplicate_rejected() {
        let a = [1.0, 2.0];
        let b = [3.0];
        assert!(DataSet::new(vec![("a", &a[..]), ("b", &b[..])]).is_err());
        assert!(DataSet::new(vec![("a", &a[..]), ("a", &a[..])]).is_err());
    }
}
