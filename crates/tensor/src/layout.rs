//! Data layouts: permutations of logical axes into memory order.
//!
//! A [`Layout`] records which logical axis is stored at each memory
//! position, outermost (slowest-varying) first. Layout selection is the
//! central experimental knob of the paper (Sec. V): the same logical tensor
//! stored `bji` vs `ijb` has very different access efficiency, and the best
//! layout per operator is found by exhaustive benchmarking.

use std::fmt;

use crate::axes::{Axis, Shape};
use crate::error::{Result, TensorError};

/// The largest rank a [`Layout`] holds.
pub const MAX_RANK: usize = 16;

/// A permutation mapping memory positions to logical axis indices.
///
/// `order()` yields, for each memory position `m`, the logical axis index
/// stored there, where position `0` is the outermost (largest-stride)
/// dimension and the last position is innermost (stride 1, the contiguous
/// dimension). The permutation is over axis *positions*, so one value lays
/// out any tensor of its rank whatever its axes are called; it is stored
/// inline (rank ≤ [`MAX_RANK`]) and is `Copy`. Layouts of one rank order as
/// [`Layout::all`] enumerates them.
///
/// # Examples
///
/// ```
/// use xform_tensor::{Layout, Shape};
/// let shape = Shape::new([('b', 2), ('j', 3), ('i', 4)]).unwrap();
/// // Store as (i, b, j): `i` outermost, `j` contiguous.
/// let layout = Layout::from_axis_order(&shape, "ibj").unwrap();
/// let strides = layout.strides(&shape);
/// // logical order is (b, j, i): b stride 3, j stride 1, i stride 6
/// assert_eq!(strides, vec![3, 1, 6]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Layout {
    rank: u8,
    /// Positions `rank..` stay zero, so equal permutations are equal values.
    order: [u8; MAX_RANK],
}

impl Layout {
    /// The identity layout: memory order equals logical order (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `rank` exceeds [`MAX_RANK`].
    pub fn row_major(rank: usize) -> Self {
        assert!(rank <= MAX_RANK, "layouts hold at most {MAX_RANK} axes");
        let mut order = [0u8; MAX_RANK];
        for (m, slot) in order.iter_mut().enumerate().take(rank) {
            *slot = m as u8;
        }
        Layout {
            rank: rank as u8,
            order,
        }
    }

    /// Creates a layout from an explicit memory-order permutation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] unless `order` is a
    /// permutation of `0..order.len()` of at most [`MAX_RANK`] axes.
    pub fn from_order(order: &[usize]) -> Result<Self> {
        if order.len() > MAX_RANK {
            return Err(TensorError::InvalidPermutation);
        }
        let mut out = Layout::row_major(order.len());
        let mut seen = [false; MAX_RANK];
        for (slot, &i) in out.order.iter_mut().zip(order) {
            if i >= order.len() || seen[i] {
                return Err(TensorError::InvalidPermutation);
            }
            seen[i] = true;
            *slot = i as u8;
        }
        Ok(out)
    }

    /// Creates a layout by naming axes in memory order, outermost first.
    ///
    /// # Errors
    ///
    /// Returns an error if `spec` is not a permutation of the shape's axes.
    pub fn from_axis_order(shape: &Shape, spec: &str) -> Result<Self> {
        if spec.chars().count() != shape.rank() {
            return Err(TensorError::LayoutRankMismatch {
                expected: shape.rank(),
                found: spec.chars().count(),
            });
        }
        let order = spec
            .chars()
            .map(|c| shape.index_of(Axis(c)))
            .collect::<Result<Vec<_>>>()?;
        Layout::from_order(&order)
    }

    /// The permutation: logical axis index at each memory position,
    /// outermost first.
    pub fn order(&self) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator + '_ {
        self.order[..self.rank()].iter().map(|&i| usize::from(i))
    }

    /// `true` when memory order equals logical order — the identity
    /// permutation.
    pub fn is_row_major(&self) -> bool {
        self.order().enumerate().all(|(i, o)| i == o)
    }

    /// `true` when the layout is *physically* row-major for `shape`: its
    /// strides equal the row-major strides, i.e. the non-singleton axes
    /// appear in increasing logical order. Singleton axes carry no stride
    /// information, so a permutation that only moves size-1 axes still
    /// walks memory identically to the identity — [`Layout::is_row_major`]
    /// is purely syntactic and rejects those. A rank mismatch returns
    /// `false` rather than panicking.
    pub fn is_row_major_for(&self, shape: &Shape) -> bool {
        if self.rank() != shape.rank() {
            return false;
        }
        let mut last = None;
        for ax in self.order() {
            if shape.sizes()[ax] <= 1 {
                continue;
            }
            if last.is_some_and(|prev| ax < prev) {
                return false;
            }
            last = Some(ax);
        }
        true
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        usize::from(self.rank)
    }

    /// Logical axis index of the innermost (contiguous) memory dimension.
    ///
    /// # Panics
    ///
    /// Panics if the layout has rank zero.
    pub fn innermost(&self) -> usize {
        self.order()
            .next_back()
            .expect("rank-zero layout has no innermost axis")
    }

    /// Per-logical-axis strides (in elements) for the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape rank differs from the layout rank.
    pub fn strides(&self, shape: &Shape) -> Vec<usize> {
        assert_eq!(
            shape.rank(),
            self.rank(),
            "shape rank must match layout rank"
        );
        let mut strides = vec![0usize; self.rank()];
        let mut acc = 1usize;
        for axis_idx in self.order().rev() {
            strides[axis_idx] = acc;
            acc *= shape.sizes()[axis_idx];
        }
        strides
    }

    /// The axis string of this layout in memory order, e.g. `"ibj"`: how a
    /// layout is shown to a reader ([`Layout::from_axis_order`] reads it
    /// back).
    ///
    /// # Panics
    ///
    /// Panics if the shape rank differs from the layout rank.
    pub fn spec(&self, shape: &Shape) -> String {
        assert_eq!(
            shape.rank(),
            self.rank(),
            "shape rank must match layout rank"
        );
        self.order().map(|i| shape.axes()[i].0).collect()
    }

    /// Whether the named axis is the innermost (contiguous) dimension —
    /// the precondition for vectorized access in the paper's kernels.
    pub fn is_innermost(&self, shape: &Shape, axis: Axis) -> bool {
        shape
            .index_of(axis)
            .map(|i| self.innermost() == i)
            .unwrap_or(false)
    }

    /// Enumerates all `rank!` layouts, in lexicographic order of the
    /// permutation. This is the configuration space swept in Sec. V, and
    /// the sweep samples it by stride, so the order is behaviour.
    ///
    /// # Examples
    ///
    /// ```
    /// use xform_tensor::Layout;
    /// assert_eq!(Layout::all(3).len(), 6);
    /// ```
    pub fn all(rank: usize) -> Vec<Layout> {
        fn rec(cur: &mut Layout, filled: usize, used: &mut [bool], out: &mut Vec<Layout>) {
            if filled == used.len() {
                out.push(*cur);
                return;
            }
            for i in 0..used.len() {
                if !used[i] {
                    used[i] = true;
                    cur.order[filled] = i as u8;
                    rec(cur, filled + 1, used, out);
                    used[i] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(
            &mut Layout::row_major(rank),
            0,
            &mut vec![false; rank],
            &mut out,
        );
        out
    }

    /// This layout's position in [`Layout::all`] of its rank: its Lehmer
    /// code (at each memory position, how many of the axes not yet placed
    /// are smaller than the one placed there) read as a factorial-base
    /// number.
    ///
    /// # Examples
    ///
    /// ```
    /// use xform_tensor::Layout;
    /// let all = Layout::all(4);
    /// assert!(all.iter().enumerate().all(|(k, l)| l.index() == k));
    /// ```
    pub fn index(&self) -> usize {
        let mut unplaced = (1u32 << self.rank) - 1;
        self.order().fold(0, |index, axis| {
            let radix = unplaced.count_ones() as usize;
            let smaller = unplaced & ((1 << axis) - 1);
            unplaced &= !(1 << axis);
            index * radix + smaller.count_ones() as usize
        })
    }
}

impl fmt::Debug for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Layout{self}")
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.order().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_bji() -> Shape {
        Shape::new([('b', 2), ('j', 3), ('i', 4)]).unwrap()
    }

    #[test]
    fn row_major_strides() {
        let s = shape_bji();
        let l = Layout::row_major(3);
        assert_eq!(l.strides(&s), vec![12, 4, 1]);
        assert_eq!(l.spec(&s), "bji");
    }

    #[test]
    fn permuted_strides() {
        let s = shape_bji();
        let l = Layout::from_axis_order(&s, "ijb").unwrap();
        // memory order (i, j, b): b stride 1, j stride 2, i stride 6
        assert_eq!(l.strides(&s), vec![1, 2, 6]);
        assert!(l.is_innermost(&s, Axis('b')));
        assert!(!l.is_innermost(&s, Axis('i')));
    }

    #[test]
    fn from_order_validates() {
        assert!(Layout::from_order(&[0, 1, 1]).is_err());
        assert!(Layout::from_order(&[0, 3, 1]).is_err());
        assert!(Layout::from_order(&[2, 0, 1]).is_ok());
    }

    #[test]
    fn from_axis_order_validates_rank_and_names() {
        let s = shape_bji();
        assert!(Layout::from_axis_order(&s, "bj").is_err());
        assert!(Layout::from_axis_order(&s, "bjq").is_err());
    }

    #[test]
    fn all_enumerates_factorial_many() {
        assert_eq!(Layout::all(0).len(), 1);
        assert_eq!(Layout::all(1).len(), 1);
        assert_eq!(Layout::all(4).len(), 24);
        // all distinct
        let all = Layout::all(3);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn physical_row_major_tolerates_singleton_permutations() {
        // ('u', 1) permuted anywhere leaves the walk order unchanged
        let s = Shape::new([('b', 2), ('u', 1), ('i', 4)]).unwrap();
        let rm = Layout::row_major(3);
        // Ground truth: the walk is row-major iff the strides of every
        // non-singleton axis match the identity's (a size-1 axis never
        // steps, so its stride is irrelevant to the address sequence).
        let effective = |l: &Layout| -> Vec<usize> {
            l.strides(&s)
                .into_iter()
                .zip(s.sizes())
                .map(|(st, &n)| if n > 1 { st } else { 0 })
                .collect()
        };
        for l in Layout::all(3) {
            let physical = effective(&l) == effective(&rm);
            assert_eq!(
                l.is_row_major_for(&s),
                physical,
                "layout {l} of {s:?}: stride check and is_row_major_for disagree"
            );
        }
        // "uib" is syntactically permuted but physically row-major... no:
        // u(1) first, then i before b — i/b swapped, so strided
        assert!(!Layout::from_axis_order(&s, "uib")
            .unwrap()
            .is_row_major_for(&s));
        // "bui" is the identity; "ubi" and "bui" only move the singleton
        assert!(Layout::from_axis_order(&s, "ubi")
            .unwrap()
            .is_row_major_for(&s));
        assert!(Layout::from_axis_order(&s, "biu")
            .unwrap()
            .is_row_major_for(&s));
        assert!(!Layout::from_axis_order(&s, "ibu")
            .unwrap()
            .is_row_major_for(&s));
    }

    #[test]
    fn physical_row_major_degenerate_ranks() {
        // rank 0: trivially row-major
        let s0 = Shape::new(std::iter::empty::<(char, usize)>()).unwrap();
        assert!(Layout::row_major(0).is_row_major_for(&s0));
        // all-singleton shape: every permutation is physically row-major
        let s1 = Shape::new([('a', 1), ('b', 1)]).unwrap();
        for l in Layout::all(2) {
            assert!(l.is_row_major_for(&s1));
        }
        // rank mismatch is false, not a panic
        let s = Shape::new([('b', 2), ('i', 4)]).unwrap();
        assert!(!Layout::row_major(3).is_row_major_for(&s));
    }

    #[test]
    fn display_shows_permutation() {
        let l = Layout::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(l.to_string(), "(2 0 1)");
    }
}
