//! Named logical dimensions ([`Axis`]) and shapes ([`Shape`]).
//!
//! The paper describes tensors by single-letter dimension names
//! (`B` batch, `J`/`K` sequence, `H` heads, `P`/`W` projection, `I`
//! embedding, `U` feed-forward). We keep the same convention: an [`Axis`] is
//! a single character, a [`Shape`] is an ordered list of `(Axis, size)`
//! pairs in *logical* order. The memory order of a tensor is a separate
//! concern handled by [`crate::layout::Layout`], which is the whole point of
//! the data-layout experiments in the paper.

use std::fmt;

use crate::error::{Result, TensorError};
use crate::layout::MAX_RANK;

/// A named logical dimension of a tensor, identified by a single character.
///
/// # Examples
///
/// ```
/// use xform_tensor::Axis;
/// let b = Axis('b');
/// assert_eq!(b.name(), 'b');
/// assert_eq!(b.to_string(), "b");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Axis(pub char);

impl Axis {
    /// The character naming this axis.
    pub fn name(self) -> char {
        self.0
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<char> for Axis {
    fn from(c: char) -> Self {
        Axis(c)
    }
}

/// An ordered list of named dimensions with sizes, in logical order.
///
/// The logical order is the order used to address elements; it never changes
/// when the data layout is permuted. Axis names within a shape are unique.
/// A shape is held inline (rank ≤ [`MAX_RANK`], like a
/// [`crate::layout::Layout`]): making or copying one touches no heap.
///
/// # Examples
///
/// ```
/// use xform_tensor::{Axis, Shape};
/// let s = Shape::new([('b', 8), ('j', 512), ('i', 1024)]).unwrap();
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.size(Axis('j')).unwrap(), 512);
/// assert_eq!(s.num_elements(), 8 * 512 * 1024);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    rank: usize,
    /// The axes, then unused `'\0'` slots.
    axes: [Axis; MAX_RANK],
    /// The sizes, then unused zeros.
    sizes: [usize; MAX_RANK],
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shape")
            .field("axes", &self.axes())
            .field("sizes", &self.sizes())
            .finish()
    }
}

impl Shape {
    /// Creates a shape from `(name, size)` pairs in logical order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DuplicateAxis`] if an axis name repeats,
    /// [`TensorError::ZeroSizedAxis`] if any size is zero and
    /// [`TensorError::Unsupported`] beyond [`MAX_RANK`] axes or
    /// `usize::MAX` elements.
    pub fn new<I, A>(dims: I) -> Result<Self>
    where
        I: IntoIterator<Item = (A, usize)>,
        A: Into<Axis>,
    {
        let mut shape = Shape {
            rank: 0,
            axes: [Axis('\0'); MAX_RANK],
            sizes: [0; MAX_RANK],
        };
        let mut elements = 1usize;
        for (a, n) in dims {
            let a = a.into();
            if shape.contains(a) {
                return Err(TensorError::DuplicateAxis(a));
            }
            if n == 0 {
                return Err(TensorError::ZeroSizedAxis(a));
            }
            if shape.rank == MAX_RANK {
                let what = format!("a shape holds at most {MAX_RANK} axes");
                return Err(TensorError::Unsupported(what));
            }
            elements = elements.checked_mul(n).ok_or_else(|| {
                TensorError::Unsupported("a shape holds at most usize::MAX elements".into())
            })?;
            (shape.axes[shape.rank], shape.sizes[shape.rank]) = (a, n);
            shape.rank += 1;
        }
        Ok(shape)
    }

    /// Builds a shape from an einsum-style axis string and a size lookup.
    ///
    /// # Errors
    ///
    /// Returns an error if `sizes` lacks an axis named in `spec`, or the
    /// spec repeats an axis.
    ///
    /// # Examples
    ///
    /// ```
    /// use xform_tensor::Shape;
    /// let s = Shape::from_spec("bji", &[('b', 8), ('j', 64), ('i', 32)]).unwrap();
    /// assert_eq!(s.num_elements(), 8 * 64 * 32);
    /// ```
    pub fn from_spec(spec: &str, sizes: &[(char, usize)]) -> Result<Self> {
        let size = |c: char| {
            let found = sizes.iter().find(|(a, _)| *a == c);
            found
                .map(|&(_, n)| (Axis(c), n))
                .ok_or(TensorError::UnknownAxis(Axis(c)))
        };
        Shape::new(spec.chars().map(size).collect::<Result<Vec<_>>>()?)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The axes in logical order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes[..self.rank]
    }

    /// The sizes in logical order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes[..self.rank]
    }

    /// Size of the named axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownAxis`] if the axis is not part of this
    /// shape.
    pub fn size(&self, axis: Axis) -> Result<usize> {
        self.index_of(axis).map(|i| self.sizes[i])
    }

    /// Logical position of the named axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownAxis`] if the axis is not part of this
    /// shape.
    pub fn index_of(&self, axis: Axis) -> Result<usize> {
        self.axes()
            .iter()
            .position(|a| *a == axis)
            .ok_or(TensorError::UnknownAxis(axis))
    }

    /// Whether the named axis is part of this shape.
    pub fn contains(&self, axis: Axis) -> bool {
        self.axes().contains(&axis)
    }

    /// Total number of elements ([`Shape::new`] refuses a shape whose
    /// count overflows).
    pub fn num_elements(&self) -> usize {
        self.sizes().iter().product()
    }

    /// The axis string in logical order, e.g. `"bji"`.
    pub fn spec(&self) -> String {
        self.axes().iter().map(|a| a.0).collect()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (a, n)) in self.axes().iter().zip(self.sizes()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={n}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basic_accessors() {
        let s = Shape::new([('b', 2), ('j', 3)]).unwrap();
        assert_eq!(s.rank(), 2);
        assert_eq!(s.num_elements(), 6);
        assert_eq!(s.size(Axis('b')).unwrap(), 2);
        assert_eq!(s.index_of(Axis('j')).unwrap(), 1);
        assert!(s.contains(Axis('b')));
        assert!(!s.contains(Axis('z')));
        assert_eq!(s.spec(), "bj");
    }

    #[test]
    fn shape_rejects_duplicates_and_zero() {
        assert!(matches!(
            Shape::new([('b', 2), ('b', 3)]),
            Err(TensorError::DuplicateAxis(Axis('b')))
        ));
        assert!(matches!(
            Shape::new([('b', 0)]),
            Err(TensorError::ZeroSizedAxis(Axis('b')))
        ));
    }

    #[test]
    fn shape_unknown_axis_errors() {
        let s = Shape::new([('b', 2)]).unwrap();
        assert!(matches!(
            s.size(Axis('q')),
            Err(TensorError::UnknownAxis(Axis('q')))
        ));
    }

    #[test]
    fn shape_from_spec_respects_order() {
        let s = Shape::from_spec("jib", &[('b', 2), ('i', 4), ('j', 3)]).unwrap();
        assert_eq!(s.axes(), &[Axis('j'), Axis('i'), Axis('b')]);
        assert_eq!(s.sizes(), &[3, 4, 2]);
    }

    #[test]
    fn shape_from_spec_missing_size_errors() {
        assert!(Shape::from_spec("jq", &[('j', 3)]).is_err());
    }

    #[test]
    fn shape_display() {
        let s = Shape::new([('b', 2), ('j', 3)]).unwrap();
        assert_eq!(s.to_string(), "[b=2, j=3]");
    }
}
