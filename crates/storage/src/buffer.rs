//! Shared, sliceable value buffers.
//!
//! A [`Buffer`] is an `Arc`'d vector plus an `(offset, len)` window.
//! Cloning a buffer or taking a sub-slice is O(1) and never copies
//! values, which is what makes `Scan`, `project`, and morsel splitting
//! zero-copy in the executor. Appending is copy-on-write: in place when
//! the buffer is unshared and covers its whole allocation, otherwise
//! the window is copied once into a fresh allocation.

use std::ops::Deref;
use std::sync::Arc;

/// A shared window onto an immutable vector of values.
#[derive(Debug, Clone)]
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// Take ownership of a vector without copying it.
    pub fn from_vec(data: Vec<T>) -> Self {
        let len = data.len();
        Self { data: Arc::new(data), offset: 0, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// O(1) sub-window sharing the same allocation.
    ///
    /// Panics when `offset + len` exceeds this buffer's length, like
    /// slice indexing would.
    pub fn slice(&self, offset: usize, len: usize) -> Buffer<T> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "buffer slice [{offset}, {offset}+{len}) out of range ({} values)",
            self.len
        );
        Buffer { data: Arc::clone(&self.data), offset: self.offset + offset, len }
    }

    /// True when both buffers are windows onto the same allocation —
    /// the zero-copy invariant tests assert on this.
    pub fn shares_allocation_with(&self, other: &Buffer<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl<T: Clone> Buffer<T> {
    /// Append `more` to the window.
    ///
    /// When this buffer is the sole owner of its allocation and windows
    /// all of it, the vector grows in place (amortised `Vec` growth);
    /// otherwise the window is copied once into a fresh allocation with
    /// room for `more`, so shared readers are never disturbed.
    pub fn extend_from_slice(&mut self, more: &[T]) {
        if self.offset == 0 && self.len == self.data.len() {
            if let Some(vec) = Arc::get_mut(&mut self.data) {
                vec.extend_from_slice(more);
                self.len = vec.len();
                return;
            }
        }
        let mut vec = Vec::with_capacity(self.len + more.len());
        vec.extend_from_slice(self.as_slice());
        vec.extend_from_slice(more);
        *self = Buffer::from_vec(vec);
    }

    /// True when [`Buffer::extend_from_slice`] grows this buffer in
    /// place: no other buffer shares the allocation and the window
    /// covers all of it.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
            && Arc::weak_count(&self.data) == 0
            && self.offset == 0
            && self.len == self.data.len()
    }
}

impl<T> Deref for Buffer<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(v: Vec<T>) -> Self {
        Buffer::from_vec(v)
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Buffer::from_vec(iter.into_iter().collect())
    }
}

impl<'a, T> IntoIterator for &'a Buffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for Buffer<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq> PartialEq<&[T]> for Buffer<T> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: Default> Default for Buffer<T> {
    fn default() -> Self {
        Buffer::from_vec(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_allocation() {
        let b = Buffer::from_vec(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1, 3);
        assert!(b.shares_allocation_with(&c));
        assert!(b.shares_allocation_with(&s));
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(s.slice(1, 1).as_slice(), &[3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Buffer::from_vec(vec![1, 2, 3]).slice(2, 2);
    }

    #[test]
    fn extend_copies_only_when_shared() {
        let mut b = Buffer::from_vec(vec![1, 2, 3]);
        b.extend_from_slice(&[4]);
        assert!(b.is_unique());
        let ptr_before = b.as_slice().as_ptr();
        b.extend_from_slice(&[]);
        // Sole owner, full window: mutation happened in place.
        assert_eq!(ptr_before, b.as_slice().as_ptr());
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);

        let shared = b.clone();
        assert!(!b.is_unique());
        b.extend_from_slice(&[5]);
        // Copy-on-write, exactly once: the clone is untouched and the
        // copy has room for the batch and nothing more.
        assert_eq!(shared.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4, 5]);
        assert!(!b.shares_allocation_with(&shared));
        assert_eq!(b.data.capacity(), 5);
        assert!(b.is_unique());
    }

    #[test]
    fn extend_materializes_windows() {
        let base = Buffer::from_vec(vec![1, 2, 3, 4, 5]);
        let mut s = base.slice(1, 3);
        assert!(!s.is_unique());
        s.extend_from_slice(&[99]);
        assert_eq!(s.as_slice(), &[2, 3, 4, 99]);
        assert_eq!(base.as_slice(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn deref_gives_slice_ops() {
        let b: Buffer<i64> = vec![3, 1, 2].into();
        assert_eq!(b.iter().copied().max(), Some(3));
        assert_eq!(b[1], 1);
        assert_eq!(b.to_vec(), vec![3, 1, 2]);
    }
}
