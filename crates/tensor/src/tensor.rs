//! The strided CPU tensor type.

use rand::distributions::Distribution;
use rand::Rng;

use crate::axes::{Axis, Shape};
use crate::error::{Result, TensorError};
use crate::layout::{Layout, MAX_RANK};

/// A dense tensor of `f32` values with named logical axes and a permutable
/// memory layout.
///
/// Logical addressing (via multi-indices in the shape's logical axis order)
/// is independent of the physical layout, so relayouting a tensor never
/// changes the value at any logical index — only the stride pattern and thus
/// the access efficiency. This mirrors the paper's separation of computation
/// from data movement.
///
/// # Examples
///
/// ```
/// use xform_tensor::{Layout, Shape, Tensor};
/// let shape = Shape::new([('b', 2), ('j', 3)]).unwrap();
/// let mut t = Tensor::zeros(shape.clone());
/// t.set(&[1, 2], 5.0);
/// assert_eq!(t.at(&[1, 2]), 5.0);
/// let p = t.relayout(&Layout::from_axis_order(&shape, "jb").unwrap());
/// assert_eq!(p.at(&[1, 2]), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    layout: Layout,
    /// Strides per logical axis, in elements, then unused zeros.
    strides: [usize; MAX_RANK],
    data: Vec<f32>,
}

/// The strides of `shape` under `layout`, held inline.
fn strides_of(layout: &Layout, shape: &Shape) -> [usize; MAX_RANK] {
    assert_eq!(
        shape.rank(),
        layout.rank(),
        "shape rank must match layout rank"
    );
    let mut strides = [0; MAX_RANK];
    let mut acc = 1usize;
    for axis in layout.order().rev() {
        strides[axis] = acc;
        acc *= shape.sizes()[axis];
    }
    strides
}

impl Tensor {
    /// Creates a zero-filled tensor in row-major layout.
    pub fn zeros(shape: Shape) -> Self {
        let layout = Layout::row_major(shape.rank());
        Tensor::zeros_with_layout(shape, layout)
    }

    /// Creates a zero-filled tensor with an explicit layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout rank does not match the shape rank.
    pub fn zeros_with_layout(shape: Shape, layout: Layout) -> Self {
        let strides = strides_of(&layout, &shape);
        let data = vec![0.0; shape.num_elements()];
        Tensor {
            shape,
            layout,
            strides,
            data,
        }
    }

    /// Creates a tensor by evaluating `f` at every logical multi-index.
    pub fn from_fn<F>(shape: Shape, mut f: F) -> Self
    where
        F: FnMut(&[usize]) -> f32,
    {
        let mut t = Tensor::zeros(shape);
        let mut idx = vec![0usize; t.shape.rank()];
        loop {
            let off = t.offset(&idx);
            t.data[off] = f(&idx);
            if !t.advance(&mut idx) {
                break;
            }
        }
        t
    }

    /// Creates a tensor with i.i.d. samples from `dist`.
    pub fn random<D, R>(shape: Shape, dist: &D, rng: &mut R) -> Self
    where
        D: Distribution<f32>,
        R: Rng + ?Sized,
    {
        let layout = Layout::row_major(shape.rank());
        let strides = strides_of(&layout, &shape);
        let data = (0..shape.num_elements())
            .map(|_| dist.sample(rng))
            .collect();
        Tensor {
            shape,
            layout,
            strides,
            data,
        }
    }

    /// Creates a tensor that owns the given buffer, interpreted row-major.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the buffer length differs
    /// from the shape's element count.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        let layout = Layout::row_major(shape.rank());
        Tensor::from_vec_with_layout(shape, layout, data)
    }

    /// Creates a tensor that owns the given buffer, its words in the
    /// physical order of `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the buffer length differs
    /// from the shape's element count.
    ///
    /// # Panics
    ///
    /// Panics if the layout rank does not match the shape rank.
    pub fn from_vec_with_layout(shape: Shape, layout: Layout, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                context: "Tensor::from_vec",
            });
        }
        let strides = strides_of(&layout, &shape);
        Ok(Tensor {
            shape,
            layout,
            strides,
            data,
        })
    }

    /// The logical shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The current memory layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Per-logical-axis strides in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides[..self.shape.rank()]
    }

    /// The raw backing buffer, in memory order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The backing buffer when it holds the elements in logical row-major
    /// order — what a caller may borrow as the tensor's natural-layout
    /// words; `None` for a tensor stored permuted.
    pub fn natural_words(&self) -> Option<&[f32]> {
        self.layout
            .is_row_major_for(&self.shape)
            .then_some(&self.data[..])
    }

    /// Mutable access to the raw backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (impossible for valid shapes,
    /// provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat buffer offset of a logical multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.rank());
        let mut off = 0usize;
        for (i, &x) in idx.iter().enumerate() {
            debug_assert!(x < self.shape.sizes()[i], "index out of bounds");
            off += x * self.strides[i];
        }
        off
    }

    /// Value at a logical multi-index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the value at a logical multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Advances a logical multi-index in row-major (logical) order.
    /// Returns `false` once the index wraps past the end.
    #[inline]
    pub fn advance(&self, idx: &mut [usize]) -> bool {
        for i in (0..idx.len()).rev() {
            idx[i] += 1;
            if idx[i] < self.shape.sizes()[i] {
                return true;
            }
            idx[i] = 0;
        }
        false
    }

    /// Copies the tensor into a new memory layout, preserving all logical
    /// values. This is the explicit "transpose" operator that the
    /// configuration-selection step may insert between operators.
    pub fn relayout(&self, layout: &Layout) -> Tensor {
        assert_eq!(layout.rank(), self.shape.rank());
        let mut out = Tensor::zeros_with_layout(self.shape.clone(), *layout);
        // Iterate in the *destination's* memory order for write locality.
        let rank = self.shape.rank();
        if rank == 0 {
            out.data[0] = self.data[0];
            return out;
        }
        let mut idx = vec![0usize; rank];
        loop {
            let v = self.data[self.offset(&idx)];
            let off = out.offset(&idx);
            out.data[off] = v;
            if !self.advance(&mut idx) {
                break;
            }
        }
        out
    }

    /// Iterates `(logical multi-index, value)` pairs in logical order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tensor: self,
            idx: vec![0; self.shape.rank()],
            done: self.data.is_empty(),
        }
    }

    /// Elementwise maximum absolute difference against another tensor of the
    /// same shape (layouts may differ).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                context: "max_abs_diff",
            });
        }
        let mut idx = vec![0usize; self.shape.rank()];
        let mut max = 0f32;
        loop {
            let d = (self.at(&idx) - other.at(&idx)).abs();
            if d > max {
                max = d;
            }
            if !self.advance(&mut idx) {
                break;
            }
        }
        Ok(max)
    }

    /// Returns a copy of the tensor with its axes renamed positionally
    /// according to `spec` (sizes and data are unchanged). Useful when the
    /// same buffer plays two roles, e.g. the self-attention input `X`
    /// viewed as `ibj` for queries and `ibk` for keys.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LayoutRankMismatch`] if `spec` has the wrong
    /// length and [`TensorError::DuplicateAxis`] if names repeat.
    pub fn relabel(&self, spec: &str) -> Result<Tensor> {
        if spec.chars().count() != self.shape.rank() {
            return Err(TensorError::LayoutRankMismatch {
                expected: self.shape.rank(),
                found: spec.chars().count(),
            });
        }
        let shape = Shape::new(spec.chars().zip(self.shape.sizes().iter().copied()))?;
        Ok(Tensor {
            shape,
            layout: self.layout,
            strides: self.strides,
            data: self.data.clone(),
        })
    }

    /// Stacks tensors along a fresh axis `axis` placed first, producing
    /// shape `[axis=n, ...common]`. All inputs must share a shape; the
    /// output is row-major. This is the algebraic-fusion primitive: the
    /// stacked `[Wᵠ Wᵏ Wᵛ]` weight of Sec. IV-D.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty, shapes differ, or `axis`
    /// already exists in the parts.
    pub fn stack(axis: Axis, parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            context: "stack of zero tensors",
        })?;
        if first.shape().contains(axis) {
            return Err(TensorError::DuplicateAxis(axis));
        }
        for p in parts {
            if p.shape() != first.shape() {
                return Err(TensorError::ShapeMismatch { context: "stack" });
            }
        }
        let mut dims = vec![(axis, parts.len())];
        dims.extend(
            first
                .shape()
                .axes()
                .iter()
                .zip(first.shape().sizes())
                .map(|(&a, &n)| (a, n)),
        );
        let shape = Shape::new(dims)?;
        let mut out = Tensor::zeros(shape);
        let inner = first.shape().num_elements();
        for (slot, p) in parts.iter().enumerate() {
            let rm = if p.layout() == &Layout::row_major(p.shape().rank()) {
                None
            } else {
                Some(p.relayout(&Layout::row_major(p.shape().rank())))
            };
            let src = rm.as_ref().unwrap_or(p);
            out.data_mut()[slot * inner..(slot + 1) * inner].copy_from_slice(src.data());
        }
        Ok(out)
    }

    /// Extracts the `index`-th slice along `axis`, dropping that axis.
    /// The result is row-major.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis` is missing or `index` is out of range.
    pub fn slice_axis(&self, axis: Axis, index: usize) -> Result<Tensor> {
        let ai = self.shape.index_of(axis)?;
        if index >= self.shape.sizes()[ai] {
            return Err(TensorError::ShapeMismatch {
                context: "slice index out of range",
            });
        }
        let dims: Vec<(Axis, usize)> = self
            .shape
            .axes()
            .iter()
            .zip(self.shape.sizes())
            .enumerate()
            .filter(|&(i, _)| i != ai)
            .map(|(_, (&a, &n))| (a, n))
            .collect();
        let out_shape = Shape::new(dims)?;
        let mut out = Tensor::zeros(out_shape);
        let rank = self.shape.rank();
        let mut idx = vec![0usize; rank];
        idx[ai] = index;
        let mut out_idx = vec![0usize; rank - 1];
        loop {
            let mut k = 0;
            for (i, &v) in idx.iter().enumerate() {
                if i != ai {
                    out_idx[k] = v;
                    k += 1;
                }
            }
            let off = out.offset(&out_idx);
            out.data_mut()[off] = self.at(&idx);
            // advance all axes except `ai`
            let mut done = true;
            for i in (0..rank).rev() {
                if i == ai {
                    continue;
                }
                idx[i] += 1;
                if idx[i] < self.shape.sizes()[i] {
                    done = false;
                    break;
                }
                idx[i] = 0;
            }
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// Extracts `len` consecutive slices starting at `start` along `axis`,
    /// keeping the axis (with size `len`). The result is row-major. This is
    /// the un-stacking primitive for algebraically fused tensors, e.g.
    /// carving the `Q` rows out of the stacked `[Wᵠ Wᵏ Wᵛ]` product.
    ///
    /// # Errors
    ///
    /// Returns an error if `axis` is missing, `len` is zero, or the range
    /// runs past the end of the axis.
    pub fn slice_range(&self, axis: Axis, start: usize, len: usize) -> Result<Tensor> {
        let ai = self.shape.index_of(axis)?;
        if len == 0 || start + len > self.shape.sizes()[ai] {
            return Err(TensorError::ShapeMismatch {
                context: "slice_range out of range",
            });
        }
        let dims: Vec<(Axis, usize)> = self
            .shape
            .axes()
            .iter()
            .zip(self.shape.sizes())
            .enumerate()
            .map(|(i, (&a, &n))| (a, if i == ai { len } else { n }))
            .collect();
        let mut out = Tensor::zeros(Shape::new(dims)?);
        let mut out_idx = vec![0usize; self.shape.rank()];
        let mut src_idx = vec![0usize; self.shape.rank()];
        loop {
            src_idx.copy_from_slice(&out_idx);
            src_idx[ai] += start;
            let off = out.offset(&out_idx);
            out.data[off] = self.at(&src_idx);
            if !out.advance(&mut out_idx) {
                break;
            }
        }
        Ok(out)
    }

    /// Concatenates tensors along an existing axis `axis`. All inputs must
    /// agree on every other axis; the output is row-major. Inverse of
    /// splitting with [`Tensor::slice_range`].
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty, `axis` is missing from any
    /// part, or the non-concatenated axes disagree.
    pub fn concat(axis: Axis, parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts.first().ok_or(TensorError::ShapeMismatch {
            context: "concat of zero tensors",
        })?;
        let ai = first.shape.index_of(axis)?;
        let mut total = 0usize;
        for p in parts {
            let pi = p.shape.index_of(axis)?;
            if pi != ai
                || p.shape.axes() != first.shape.axes()
                || p.shape
                    .sizes()
                    .iter()
                    .zip(first.shape.sizes())
                    .enumerate()
                    .any(|(i, (a, b))| i != ai && a != b)
            {
                return Err(TensorError::ShapeMismatch { context: "concat" });
            }
            total += p.shape.sizes()[pi];
        }
        let dims: Vec<(Axis, usize)> = first
            .shape
            .axes()
            .iter()
            .zip(first.shape.sizes())
            .enumerate()
            .map(|(i, (&a, &n))| (a, if i == ai { total } else { n }))
            .collect();
        let mut out = Tensor::zeros(Shape::new(dims)?);
        let mut base = 0usize;
        for p in parts {
            let mut idx = vec![0usize; p.shape.rank()];
            let mut out_idx = vec![0usize; p.shape.rank()];
            loop {
                out_idx.copy_from_slice(&idx);
                out_idx[ai] += base;
                let off = out.offset(&out_idx);
                out.data[off] = p.at(&idx);
                if !p.advance(&mut idx) {
                    break;
                }
            }
            base += p.shape.sizes()[ai];
        }
        Ok(out)
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, v: f32) {
        for x in &mut self.data {
            *x = v;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

/// Iterator over `(multi-index, value)` pairs of a [`Tensor`] in logical
/// order, created by [`Tensor::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    tensor: &'a Tensor,
    idx: Vec<usize>,
    done: bool,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (Vec<usize>, f32);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = (self.idx.clone(), self.tensor.at(&self.idx));
        if !self.tensor.advance(&mut self.idx) {
            self.done = true;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_bj() -> Shape {
        Shape::new([('b', 2), ('j', 3)]).unwrap()
    }

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::zeros(shape_bj());
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        t.set(&[1, 2], 7.5);
        assert_eq!(t.at(&[1, 2]), 7.5);
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn from_fn_addresses_logically() {
        let t = Tensor::from_fn(shape_bj(), |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(shape_bj(), vec![0.0; 5]).is_err());
        let t = Tensor::from_vec(shape_bj(), (0..6).map(|i| i as f32).collect()).unwrap();
        assert_eq!(t.at(&[1, 0]), 3.0); // row-major
    }

    #[test]
    fn relayout_preserves_logical_values() {
        let s = Shape::new([('b', 2), ('j', 3), ('i', 4)]).unwrap();
        let t = Tensor::from_fn(s.clone(), |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f32
        });
        for layout in Layout::all(3) {
            let p = t.relayout(&layout);
            assert_eq!(p.max_abs_diff(&t).unwrap(), 0.0);
            // physical buffer differs unless layout is row-major
            if layout == Layout::row_major(3) {
                assert_eq!(p.data(), t.data());
            }
        }
    }

    #[test]
    fn relayout_changes_physical_order() {
        let s = shape_bj();
        let t = Tensor::from_fn(s.clone(), |idx| (idx[0] * 10 + idx[1]) as f32);
        let p = t.relayout(&Layout::from_axis_order(&s, "jb").unwrap());
        // memory order (j, b): [00, 10, 01, 11, 02, 12]
        assert_eq!(p.data(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn iter_visits_all_in_logical_order() {
        let t = Tensor::from_fn(shape_bj(), |idx| (idx[0] * 3 + idx[1]) as f32);
        let items: Vec<_> = t.iter().collect();
        assert_eq!(items.len(), 6);
        assert_eq!(items[0], (vec![0, 0], 0.0));
        assert_eq!(items[5], (vec![1, 2], 5.0));
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Tensor::zeros(shape_bj());
        let mut b = Tensor::zeros(shape_bj());
        b.set(&[0, 1], -2.0);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 2.0);
        let c = Tensor::zeros(Shape::new([('b', 2)]).unwrap());
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn stack_and_slice_roundtrip() {
        let s = Shape::new([('b', 2), ('j', 3)]).unwrap();
        let a = Tensor::from_fn(s.clone(), |i| (i[0] * 3 + i[1]) as f32);
        let b = Tensor::from_fn(s.clone(), |i| 100.0 + (i[0] * 3 + i[1]) as f32);
        let stacked = Tensor::stack(Axis('s'), &[&a, &b]).unwrap();
        assert_eq!(stacked.shape().spec(), "sbj");
        assert_eq!(stacked.shape().sizes(), &[2, 2, 3]);
        let a2 = stacked.slice_axis(Axis('s'), 0).unwrap();
        let b2 = stacked.slice_axis(Axis('s'), 1).unwrap();
        assert_eq!(a2.max_abs_diff(&a).unwrap(), 0.0);
        assert_eq!(b2.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn stack_handles_permuted_inputs() {
        let s = Shape::new([('b', 2), ('j', 3)]).unwrap();
        let a = Tensor::from_fn(s.clone(), |i| (i[0] * 3 + i[1]) as f32);
        let ap = a.relayout(&Layout::from_axis_order(&s, "jb").unwrap());
        let stacked = Tensor::stack(Axis('s'), &[&ap, &a]).unwrap();
        let back = stacked.slice_axis(Axis('s'), 0).unwrap();
        assert_eq!(back.max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn stack_and_slice_validate() {
        let s = Shape::new([('b', 2)]).unwrap();
        let a = Tensor::zeros(s.clone());
        assert!(Tensor::stack(Axis('s'), &[]).is_err());
        assert!(Tensor::stack(Axis('b'), &[&a]).is_err());
        let other = Tensor::zeros(Shape::new([('b', 3)]).unwrap());
        assert!(Tensor::stack(Axis('s'), &[&a, &other]).is_err());
        assert!(a.slice_axis(Axis('q'), 0).is_err());
        assert!(a.slice_axis(Axis('b'), 5).is_err());
    }

    #[test]
    fn slice_of_middle_axis() {
        let s = Shape::new([('a', 2), ('b', 3), ('c', 2)]).unwrap();
        let t = Tensor::from_fn(s, |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let m = t.slice_axis(Axis('b'), 1).unwrap();
        assert_eq!(m.shape().spec(), "ac");
        assert_eq!(m.at(&[1, 0]), 110.0);
        assert_eq!(m.at(&[0, 1]), 11.0);
    }

    #[test]
    fn slice_range_and_concat_roundtrip() {
        let s = Shape::new([('s', 6), ('b', 2)]).unwrap();
        let t = Tensor::from_fn(s, |i| (i[0] * 10 + i[1]) as f32);
        let lo = t.slice_range(Axis('s'), 0, 2).unwrap();
        let mid = t.slice_range(Axis('s'), 2, 3).unwrap();
        let hi = t.slice_range(Axis('s'), 5, 1).unwrap();
        assert_eq!(lo.shape().sizes(), &[2, 2]);
        assert_eq!(mid.at(&[0, 1]), 21.0);
        assert_eq!(hi.at(&[0, 0]), 50.0);
        let back = Tensor::concat(Axis('s'), &[&lo, &mid, &hi]).unwrap();
        assert_eq!(back.max_abs_diff(&t).unwrap(), 0.0);
    }

    #[test]
    fn slice_range_respects_permuted_layout() {
        let s = Shape::new([('s', 4), ('b', 3)]).unwrap();
        let t = Tensor::from_fn(s.clone(), |i| (i[0] * 10 + i[1]) as f32);
        let tp = t.relayout(&Layout::from_axis_order(&s, "bs").unwrap());
        let a = t.slice_range(Axis('s'), 1, 2).unwrap();
        let b = tp.slice_range(Axis('s'), 1, 2).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.0);
    }

    #[test]
    fn slice_range_and_concat_validate() {
        let s = Shape::new([('s', 4), ('b', 3)]).unwrap();
        let t = Tensor::zeros(s);
        assert!(t.slice_range(Axis('q'), 0, 1).is_err());
        assert!(t.slice_range(Axis('s'), 2, 3).is_err());
        assert!(t.slice_range(Axis('s'), 0, 0).is_err());
        assert!(Tensor::concat(Axis('s'), &[]).is_err());
        let other = Tensor::zeros(Shape::new([('s', 2), ('b', 2)]).unwrap());
        assert!(Tensor::concat(Axis('s'), &[&t, &other]).is_err());
    }

    #[test]
    fn sum_and_fill() {
        let mut t = Tensor::zeros(shape_bj());
        t.fill(1.5);
        assert_eq!(t.sum(), 9.0);
    }
}
