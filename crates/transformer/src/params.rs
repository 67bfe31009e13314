//! Encoder-layer parameters and gradients.
//!
//! The four projection weights — `w_qkv`, `wo`, `w1`, `w2` — are stored
//! once, as [`PackedWeight`]s: the panel order of the matrix each plays as
//! GEMM A in its forward contraction ([`xform_tensor::matmul::PanelRef`]).
//! Every GEMM that reads one — the arena's forward, backward and decode
//! steps (the input gradients read it transposed) — reads those words, so
//! no call packs a weight and no second copy exists to go stale. Whatever
//! addresses a weight element by element (the SGD step, the norms,
//! checkpoints, the reference interpreter's binding) does so in logical
//! order.

use std::borrow::Cow;

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use xform_dataflow::EncoderDims;
use xform_tensor::matmul::{PanelRef, WeightPack};
use xform_tensor::{into_ops, Layout, Result, Shape, Tensor, TensorError};

/// A projection weight stored in the panel order of its forward GEMM-A
/// matrix: a logical shape, where that matrix lies in the logical words
/// ([`WeightPack`]), and the pack — exactly as many words as the shape
/// has elements, and the only copy of them.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeight {
    shape: Shape,
    pack: WeightPack,
    words: Vec<f32>,
}

impl PackedWeight {
    /// Packs the logical values of `t` (in any layout) as `pack` says.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `pack` covers exactly
    /// the elements of `t`.
    ///
    /// # Panics
    ///
    /// Panics if `pack`'s strides reach past those elements.
    pub fn new(t: &Tensor, pack: WeightPack) -> Result<PackedWeight> {
        if pack.m * pack.k != t.len() {
            let context = "a weight pack covers exactly the weight's elements";
            return Err(TensorError::ShapeMismatch { context });
        }
        let logical = natural(t);
        let mut words = vec![0.0; t.len()];
        pack.pack(&logical, &mut words);
        Ok(PackedWeight {
            shape: t.shape().clone(),
            pack,
            words,
        })
    }

    /// The logical shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The stored words, in panel order — what the GEMMs read.
    pub fn data(&self) -> &[f32] {
        &self.words
    }

    /// Where the GEMM-A matrix lies in the logical words.
    pub fn pack(&self) -> WeightPack {
        self.pack
    }

    /// The pack as the GEMMs read it.
    pub fn panels(&self) -> PanelRef<'_> {
        PanelRef::new(&self.words, self.pack.m, self.pack.k)
    }

    /// A row-major copy in logical order.
    pub fn to_tensor(&self) -> Tensor {
        let mut logical = vec![0.0; self.words.len()];
        self.pack.unpack(&self.words, &mut logical);
        Tensor::from_vec(self.shape.clone(), logical).expect("a pack holds its shape's elements")
    }

    /// Draws a weight of `shape` from `dist`, element by element in logical
    /// order — the draws of [`Tensor::random`] — straight into its pack,
    /// which must view the shape's words densely (row- or column-major, as
    /// [`weight_pack`]'s do).
    pub fn random<D, R>(shape: Shape, pack: WeightPack, dist: &D, rng: &mut R) -> Self
    where
        D: Distribution<f32>,
        R: Rng + ?Sized,
    {
        let mut words = vec![0.0; shape.num_elements()];
        if pack.row_major() {
            // a row drawn straight into its lane of each panel
            for r in 0..pack.m {
                pack.row_lane(r, &mut words)
                    .for_each(|v| *v = dist.sample(rng));
            }
        } else {
            pack.for_each_word(|w, _| words[w] = dist.sample(rng));
        }
        PackedWeight { shape, pack, words }
    }

    /// `f(word, g)` over every element, `g` the element of `grad` at the
    /// same logical index.
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s shape is not the weight's.
    pub fn update(&mut self, grad: &Tensor, f: impl FnMut(&mut f32, f32)) {
        assert_eq!(grad.shape(), &self.shape, "gradient shape mismatch");
        self.pack.zip_logical(&natural(grad), &mut self.words, f);
    }
}

/// The logical words of `t`: its own when it is stored row-major.
fn natural(t: &Tensor) -> Cow<'_, [f32]> {
    match t.natural_words() {
        Some(words) => Cow::Borrowed(words),
        None => {
            let mut words = vec![0.0; t.len()];
            into_ops::copy_tensor_into(t, &mut words);
            Cow::Owned(words)
        }
    }
}

/// In-place SGD on one tensor: `w ← w − lr · g`, element by element in
/// logical correspondence — `g` read in `w`'s storage order: its own words
/// when the two are stored alike (row-major, as everything the library
/// makes), a relaid copy otherwise. The one update of every tensor
/// parameter; a projection's pack goes through [`PackedWeight::update`].
///
/// # Panics
///
/// Panics if `g`'s shape is not `w`'s.
pub(crate) fn sgd_update(w: &mut Tensor, g: &Tensor, lr: f32) {
    assert_eq!(w.shape(), g.shape(), "gradient shape mismatch");
    let relaid;
    let g = match g.layout() == w.layout() {
        true => g,
        false => {
            relaid = g.relayout(w.layout());
            &relaid
        }
    };
    let words = w.data_mut().iter_mut().zip(g.data());
    words.for_each(|(w, &g)| *w -= lr * g);
}

/// The panel pack a projection field is stored as: where the matrix it
/// plays as GEMM A in its forward contraction lies in its logical words —
/// its leading axes by its last (`shi,ibj`, `ui,ibj`, `iu,ubj`), or for
/// `wo` (`whi,whbj->ibj`) its last axis by its leading ones. `None` for
/// every other field.
pub fn weight_pack(name: &str, shape: &Shape) -> Option<WeightPack> {
    let last = *shape.sizes().last()?;
    let lead = shape.num_elements() / last;
    match name {
        "w_qkv" | "w1" | "w2" => Some(WeightPack {
            m: lead,
            k: last,
            rs: last,
            cs: 1,
        }),
        "wo" => Some(WeightPack {
            m: last,
            k: lead,
            rs: 1,
            cs: last,
        }),
        _ => None,
    }
}

/// All learned parameters of one BERT encoder layer, in the paper's axis
/// convention (the `shi` Q/K/V stack and the `whi` output projection,
/// `ph`/`wh`/`i` biases, `ui`/`iu` feed-forward weights, `i`-sized
/// layer-norm scale/shift). `M` is how the four projections are held:
/// packed in [`EncoderWeights`], logical tensors in [`EncoderGrads`].
#[derive(Debug, Clone)]
pub struct EncoderParams<M> {
    /// The query, key and value projections stacked, in that order, as
    /// the graphs read them: `w_qkv [s = 3p, h, i]`, each projection a
    /// `[p, h, i]` block of it.
    pub w_qkv: M,
    /// Output projection `[w, h, i]`.
    pub wo: M,
    /// Query bias `[p, h]`.
    pub bq: Tensor,
    /// Key bias `[p, h]`.
    pub bk: Tensor,
    /// Value bias `[w, h]`.
    pub bv: Tensor,
    /// Attention output bias `[i]`.
    pub bo: Tensor,
    /// First layer-norm scale `[i]`.
    pub ln1_gamma: Tensor,
    /// First layer-norm shift `[i]`.
    pub ln1_beta: Tensor,
    /// Feed-forward up projection `[u, i]`.
    pub w1: M,
    /// Feed-forward up bias `[u]`.
    pub b1: Tensor,
    /// Feed-forward down projection `[i, u]`.
    pub w2: M,
    /// Feed-forward down bias `[i]`.
    pub b2: Tensor,
    /// Second layer-norm scale `[i]`.
    pub ln2_gamma: Tensor,
    /// Second layer-norm shift `[i]`.
    pub ln2_beta: Tensor,
}

/// A layer's weights: the projections [`PackedWeight`]s, the rest tensors.
pub type EncoderWeights = EncoderParams<PackedWeight>;

/// Gradients matching [`EncoderWeights`] field for field, every one a
/// tensor in logical order.
pub type EncoderGrads = EncoderParams<Tensor>;

fn shape(dims: &EncoderDims, spec: &str) -> Shape {
    Shape::from_spec(spec, &dims.size_table()).expect("valid parameter spec")
}

impl<M> EncoderParams<M> {
    /// Every field as `(name, value)`, in the one field order (updates,
    /// norms, serialization): the projections through `matrix`, the rest
    /// through `tensor`.
    pub(crate) fn map<'a, R>(
        &'a self,
        matrix: impl Fn(&'a M) -> R,
        tensor: impl Fn(&'a Tensor) -> R,
    ) -> [(&'static str, R); 14] {
        [
            ("w_qkv", matrix(&self.w_qkv)),
            ("wo", matrix(&self.wo)),
            ("bq", tensor(&self.bq)),
            ("bk", tensor(&self.bk)),
            ("bv", tensor(&self.bv)),
            ("bo", tensor(&self.bo)),
            ("ln1_gamma", tensor(&self.ln1_gamma)),
            ("ln1_beta", tensor(&self.ln1_beta)),
            ("w1", matrix(&self.w1)),
            ("b1", tensor(&self.b1)),
            ("w2", matrix(&self.w2)),
            ("b2", tensor(&self.b2)),
            ("ln2_gamma", tensor(&self.ln2_gamma)),
            ("ln2_beta", tensor(&self.ln2_beta)),
        ]
    }

    /// Field `name`, mutably; `None` for a name that is no field.
    fn slot(&mut self, name: &str) -> Option<Slot<'_, M>> {
        use Slot::{Matrix, Vector};
        Some(match name {
            "w_qkv" => Matrix(&mut self.w_qkv),
            "wo" => Matrix(&mut self.wo),
            "bq" => Vector(&mut self.bq),
            "bk" => Vector(&mut self.bk),
            "bv" => Vector(&mut self.bv),
            "bo" => Vector(&mut self.bo),
            "ln1_gamma" => Vector(&mut self.ln1_gamma),
            "ln1_beta" => Vector(&mut self.ln1_beta),
            "w1" => Matrix(&mut self.w1),
            "b1" => Vector(&mut self.b1),
            "w2" => Matrix(&mut self.w2),
            "b2" => Vector(&mut self.b2),
            "ln2_gamma" => Vector(&mut self.ln2_gamma),
            "ln2_beta" => Vector(&mut self.ln2_beta),
            _ => return None,
        })
    }
}

/// One field of an [`EncoderParams`], mutably.
enum Slot<'a, M> {
    Matrix(&'a mut M),
    Vector(&'a mut Tensor),
}

impl EncoderGrads {
    /// Every field as a `(name, tensor)` pair, for generic traversal.
    pub fn fields(&self) -> [(&'static str, &Tensor); 14] {
        self.map(|t| t, |t| t)
    }

    /// Global L2 norm over all gradients (for training diagnostics).
    pub fn global_norm(&self) -> f32 {
        norm(self.fields().iter().flat_map(|(_, t)| t.data()))
    }
}

/// `√Σv²`, summed in the order given.
fn norm<'a>(values: impl Iterator<Item = &'a f32>) -> f32 {
    values.map(|v| v * v).sum::<f32>().sqrt()
}

impl EncoderWeights {
    /// Initializes weights with uniform(-scale, scale) where
    /// `scale = 1/√I`, biases at zero, layer-norm scale at one. Each
    /// projection is drawn in logical order and packed before the next is
    /// drawn.
    ///
    /// # Panics
    ///
    /// Panics if `dims.h`, `dims.p`, `dims.i` or `dims.u` is zero (a
    /// `Shape` has no empty axis); [`crate::model::TransformerModel::init`]
    /// checks first and returns an error.
    pub fn init<R: Rng + ?Sized>(dims: &EncoderDims, rng: &mut R) -> Self {
        let s = 1.0 / (dims.i as f32).sqrt();
        let dist = Uniform::new(-s, s);
        let mut packed = |name: &str, shape: Shape| {
            let pack = weight_pack(name, &shape).expect("a projection field");
            PackedWeight::random(shape, pack, &dist, rng)
        };
        // Q, then K, then V, each drawn row-major
        let qkv = [('s', 3 * dims.p), ('h', dims.h), ('i', dims.i)];
        let w_qkv = packed("w_qkv", Shape::new(qkv).expect("valid stack"));
        let wo = packed("wo", shape(dims, "whi"));
        let w1 = packed("w1", shape(dims, "ui"));
        let w2 = packed("w2", shape(dims, "iu"));
        let ones = |spec: &str| {
            let mut t = Tensor::zeros(shape(dims, spec));
            t.fill(1.0);
            t
        };
        EncoderWeights {
            w_qkv,
            wo,
            bq: Tensor::zeros(shape(dims, "ph")),
            bk: Tensor::zeros(shape(dims, "ph")),
            bv: Tensor::zeros(shape(dims, "wh")),
            bo: Tensor::zeros(shape(dims, "i")),
            ln1_gamma: ones("i"),
            ln1_beta: Tensor::zeros(shape(dims, "i")),
            w1,
            b1: Tensor::zeros(shape(dims, "u")),
            w2,
            b2: Tensor::zeros(shape(dims, "i")),
            ln2_gamma: ones("i"),
            ln2_beta: Tensor::zeros(shape(dims, "i")),
        }
    }

    /// The words bound to graph container `name` — the one table every
    /// arena binding resolves weights through: a projection's panel pack,
    /// any other field's row-major words. The graphs of
    /// [`xform_dataflow::build`] name their weight containers after these
    /// fields. `None` for another name, or a field stored permuted.
    pub fn container(&self, name: &str) -> Option<&[f32]> {
        let words = self.map(|p| Some(p.data()), Tensor::natural_words);
        words.into_iter().find(|(field, _)| *field == name)?.1
    }

    /// Every field as a `(name, tensor)` pair in logical order — the
    /// projections unpacked into copies — for whatever addresses a weight
    /// element by element (serialization, the reference interpreter).
    pub fn fields(&self) -> [(&'static str, Cow<'_, Tensor>); 14] {
        self.map(|p| Cow::Owned(p.to_tensor()), Cow::Borrowed)
    }

    /// Replaces field `name` with the logical values of `t` (packing a
    /// projection).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `t`'s shape is not the
    /// field's, and [`TensorError::Unsupported`] for a name that is no
    /// field.
    pub fn set_field(&mut self, name: &str, t: &Tensor) -> Result<()> {
        let fits = |s: &Shape| match t.shape() == s {
            true => Ok(()),
            false => Err(TensorError::ShapeMismatch {
                context: "a field takes values of its own shape",
            }),
        };
        match self.slot(name) {
            Some(Slot::Matrix(p)) => *p = fits(p.shape()).and(PackedWeight::new(t, p.pack()))?,
            Some(Slot::Vector(v)) => {
                fits(v.shape())?;
                *v = t.relayout(&Layout::row_major(t.shape().rank()));
            }
            None => return Err(TensorError::Unsupported(format!("no field `{name}`"))),
        }
        Ok(())
    }

    /// In-place SGD step: `w ← w − lr · g`, element by element in logical
    /// correspondence, whatever layout a gradient is stored in.
    ///
    /// # Panics
    ///
    /// Panics if a gradient's shape is not its weight's.
    pub fn sgd_step(&mut self, grads: &EncoderGrads, lr: f32) {
        for (name, g) in grads.fields() {
            match self.slot(name) {
                Some(Slot::Matrix(p)) => p.update(g, |w, g| *w -= lr * g),
                Some(Slot::Vector(w)) => sgd_update(w, g, lr),
                None => {}
            }
        }
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.map(|p| p.data().len(), Tensor::len)
            .iter()
            .map(|f| f.1)
            .sum()
    }

    /// Global L2 norm over all parameters (for training diagnostics), summed
    /// in logical order.
    pub fn global_norm(&self) -> f32 {
        norm(self.fields().iter().flat_map(|(_, t)| t.data()))
    }
}

#[cfg(test)]
impl EncoderWeights {
    /// Zero-filled gradients with matching shapes.
    pub(crate) fn zeros_like(&self) -> EncoderGrads {
        let z = |shape: &Shape| Tensor::zeros(shape.clone());
        EncoderGrads {
            w_qkv: z(self.w_qkv.shape()),
            wo: z(self.wo.shape()),
            bq: z(self.bq.shape()),
            bk: z(self.bk.shape()),
            bv: z(self.bv.shape()),
            bo: z(self.bo.shape()),
            ln1_gamma: z(self.ln1_gamma.shape()),
            ln1_beta: z(self.ln1_beta.shape()),
            w1: z(self.w1.shape()),
            b1: z(self.b1.shape()),
            w2: z(self.w2.shape()),
            b2: z(self.b2.shape()),
            ln2_gamma: z(self.ln2_gamma.shape()),
            ln2_beta: z(self.ln2_beta.shape()),
        }
    }

    /// Field `name` in logical order, a copy; `None` for another name.
    pub(crate) fn field(&self, name: &str) -> Option<Tensor> {
        let (_, t) = self.fields().into_iter().find(|(n, _)| *n == name)?;
        Some(t.into_owned())
    }

    /// A copy with element `flat` (logical row-major) of field `name` moved
    /// by `by`: a finite-difference probe.
    pub(crate) fn nudged(&self, name: &str, flat: usize, by: f32) -> EncoderWeights {
        let mut t = self.field(name).expect("a field");
        t.data_mut()[flat] += by;
        let mut w = self.clone();
        w.set_field(name, &t).expect("its own shape");
        w
    }
}

/// `t` stored with its axes in reverse order (row-major at rank 1).
#[cfg(test)]
pub(crate) fn reversed(t: &Tensor) -> Tensor {
    let order: Vec<usize> = (0..t.shape().rank()).rev().collect();
    t.relayout(&Layout::from_order(&order).expect("a permutation"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_tensor::matmul::{gemm, MatMut, MatRef, Start};

    #[test]
    fn init_shapes_are_consistent() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let w = EncoderWeights::init(&dims, &mut rng);
        assert_eq!(w.w_qkv.shape().spec(), "shi");
        assert_eq!(w.w_qkv.shape().sizes(), &[3 * dims.p, dims.h, dims.i]);
        assert_eq!(w.w1.shape().spec(), "ui");
        assert_eq!(w.w2.shape().spec(), "iu");
        assert_eq!(w.fields().len(), 14);
        // BERT-large parameter count per layer ≈ 12.6M
        let big = EncoderWeights::init(&EncoderDims::bert_large(), &mut rng);
        let n = big.num_parameters();
        assert!(n > 12_000_000 && n < 13_000_000, "params {n}");
    }

    #[test]
    fn container_table_borrows_every_field_the_stack_included() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        let stored = w.map(PackedWeight::data, Tensor::data);
        for (name, words) in stored {
            assert!(std::ptr::eq(w.container(name).unwrap(), words), "{name}");
        }
        for name in ["wq", "wk", "wv", "x"] {
            assert!(w.container(name).is_none(), "{name}");
        }
    }

    /// The stack is Q, then K, then V, each `[p, h, i]`: stream `s` is rows
    /// `s·ph..` of the pack, read forward and transposed as the arena reads
    /// it (`gemm` over `panels().from_row(..)`) — the einsum over that
    /// block of the logical stack, bit for bit.
    #[test]
    fn each_stream_is_a_row_range_of_the_stacked_pack() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(6);
        let w = EncoderWeights::init(&dims, &mut rng);
        let (n, ph) = (dims.p * dims.h * dims.i, dims.p * dims.h);
        let stack = w.field("w_qkv").unwrap();
        let sizes = dims.size_table();
        let x = Tensor::random(shape(&dims, "ibj"), &Uniform::new(-1.0, 1.0), &mut rng);
        let d = Tensor::random(shape(&dims, "phbj"), &Uniform::new(-1.0, 1.0), &mut rng);
        let cols = dims.b * dims.j;
        // `a · b` over `k`, `b` a row-major `k × cols` matrix, as bits
        let product = |a: PanelRef<'_>, m: usize, k: usize, b: &Tensor| {
            let mut c = vec![0.0; m * cols];
            let (bm, cm) = (
                MatRef::row_major(b.data(), cols),
                MatMut::row_major(&mut c, cols),
            );
            gemm(m, cols, k, a, bm, cm, Start::FromZero);
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for s in 0..3 {
            let words = stack.data()[s * n..(s + 1) * n].to_vec();
            let block = Tensor::from_vec(Shape::from_spec("phi", &sizes).unwrap(), words).unwrap();
            let rows = w.w_qkv.panels().from_row(s * ph);
            let want = xform_tensor::einsum("phi,ibj->phbj", &[&block, &x]).unwrap();
            assert_eq!(product(rows, ph, dims.i, &x), bits(&want), "stream {s}");
            // the input gradient's read: the same rows of the pack, transposed
            let want = xform_tensor::einsum("phi,phbj->ibj", &[&block, &d]).unwrap();
            let got = product(rows.t(), dims.i, ph, &d);
            assert_eq!(got, bits(&want), "stream {s} transposed");
        }
    }

    #[test]
    fn layernorm_weights_start_at_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        assert!(w.ln1_gamma.data().iter().all(|&v| v == 1.0));
        assert!(w.ln1_beta.data().iter().all(|&v| v == 0.0));
        assert!(w.bq.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sgd_step_moves_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        let mut g = w.zeros_like();
        g.w1.fill(1.0);
        let before = w.field("w1").unwrap().at(&[0, 0]);
        w.sgd_step(&g, 0.1);
        assert!((w.field("w1").unwrap().at(&[0, 0]) - (before - 0.1)).abs() < 1e-6);
        // untouched params stay
        assert!(w.ln1_gamma.data().iter().all(|&v| v == 1.0));
    }

    /// A gradient is read by logical index, whatever layout it is stored
    /// in: every field stored permuted updates the weights bit for bit as
    /// its row-major copy does (the bias arm once paired storage words).
    #[test]
    fn a_permuted_gradient_updates_as_its_row_major_copy() {
        let mut rng = StdRng::seed_from_u64(8);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        let (mut g, mut permuted) = (w.zeros_like(), w.zeros_like());
        let unit = Uniform::new(-1.0, 1.0);
        for (name, t) in w.zeros_like().fields() {
            let values = Tensor::random(t.shape().clone(), &unit, &mut rng);
            for (grads, v) in [(&mut g, values.clone()), (&mut permuted, reversed(&values))] {
                if let Some(Slot::Matrix(f) | Slot::Vector(f)) = grads.slot(name) {
                    *f = v;
                }
            }
        }
        assert!(permuted.bq.natural_words().is_none());
        let (mut a, mut b) = (w.clone(), w);
        a.sgd_step(&g, 0.1);
        b.sgd_step(&permuted, 0.1);
        for ((name, x), (_, y)) in a.fields().iter().zip(b.fields().iter()) {
            assert_eq!(x.data(), y.data(), "{name}");
        }
    }

    #[test]
    fn norms_and_zeros() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = EncoderWeights::init(&EncoderDims::tiny(), &mut rng);
        assert!(w.global_norm() > 0.0);
        let z = w.zeros_like();
        for (_, t) in z.fields() {
            assert!(t.data().iter().all(|&v| v == 0.0));
        }
    }
}
