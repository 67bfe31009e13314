//! Builders for the paper's dataflow graphs: multi-head attention (Fig. 1)
//! and the full BERT encoder layer, forward and backward (Fig. 2).
//!
//! The builders produce the *unfused* operator graph — one node per logical
//! operator, named after the corresponding row of Table III — with every
//! saved activation, dropout mask and stacked Q/K/V tensor modelled
//! explicitly, so that per-operator input/output word counts reproduce the
//! paper's accounting. The fusion pass (in `xform-core`) then rewrites this
//! graph into the fused form.
//!
//! # One description per sub-block
//!
//! A transformer block is written once, as private emitters on `Emit`;
//! each public builder is a short composition of them, and what the paper
//! calls the "minor aspects" separating a decoder from the encoder
//! (Sec. VIII) are arguments:
//!
//! | emitter | nodes | arguments |
//! |---|---|---|
//! | `qkv_weights`, `out_weights`, `norm_weights`, `ffn_weights` | the weight containers | which layer norm |
//! | `layer_norm` | `LayerNorm n` | input, output container and role (post-LN / pre-LN placement is where the builder calls it) |
//! | `qkv_projection` | `Q,K,V` → the three `Input bias` carves of `qkv_raw` | source, output names and role (`qq`/`kk`/`vv` saved, or the decode step's `*_new` output columns) |
//! | `attention` | `QKT` → softmax → `Dropout att` → `Gamma` → `Out` → `Output bias` | scaled / masked softmax, `phbk`/`whbk` projections or position-major `kphb`/`kwhb` caches, output container |
//! | `join` | `Dropout n` → `Residual n` | names, skip input, sum container |
//! | `ffn` | `Linear 1` → `Bias 1` → activation → `Dropout 2` → `Linear 2` → `Bias 2` | `RELU` / `GELU` |
//! | `layer_norm_grad` | `LayerNorm n dW`, `LayerNorm n dX` | which layer norm, its input |
//! | `ffn_grad` | `Bias 2 dW` … `Linear 1 dW` | activation, name of the input gradient |
//! | `attention_grad` | `Output bias dW` … `Q,K,V dW` | softmax name, projection source, name of the input gradient |
//!
//! [`mha_forward`] is its own unstacked projections (distinct q/k/v inputs)
//! followed by `attention`; [`encoder`] and [`decoder`] compose all of the
//! above, the decoder through `decoder_tail` (scores to `y`), which
//! [`decoder_step_attend`] reuses over the KV caches; and
//! [`decoder_step_project`] is `layer_norm` + `qkv_projection` on one token
//! column. There is no forward-only copy of the decoder: a prefill pass
//! schedules the forward operators of [`decoder`]'s graph. Past the blocks,
//! [`head`] is the model head: `Head` → `Head bias` → `Head softmax` over
//! the vocabulary.
//!
//! Each builder also sets what its graph's generic operators compute
//! ([`Graph::activation`], [`Graph::softmax_scale`]): ReLU and `1/√p` for
//! [`encoder`] and [`mha_forward`], GELU and `1/√p` for [`decoder`] and
//! both decode-step graphs, and an unscaled softmax for [`head`]. Every
//! executor reads them from the graph, so a plan computes what its graph
//! says.
//!
//! # Node order is part of the contract
//!
//! Every emitter adds its nodes in a fixed order (a one-output operator adds
//! its output container, then itself), and the builders call the emitters in
//! execution order, so a [`NodeId`] is a function of the builder alone.
//! Execution plans name their operands by `NodeId`, plan fingerprints hash
//! them, the fused node ids of `Graph::fuse` follow them, and the committed
//! `BENCH_plan_audit.json` rows are computed from those plans — so an edit
//! here that reorders, renames or reshapes a node moves artifacts far from
//! this file. `tests/structure_digest.rs` pins every builder's graph (nodes,
//! memlets, operator lists) against a recorded table; an intended change
//! re-records it.

use xform_tensor::ops::elementwise::ActivationKind::{self, Gelu, Relu};
use xform_tensor::{Axis, Shape};

use crate::dims::EncoderDims;
use crate::graph::DataRole::{self, Activation, Cache, Gradient, Input, Output, Saved, Weight};
use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

fn einsum(spec: &str) -> OpKind {
    OpKind::Einsum(spec.parse().expect("valid builder einsum"))
}

const I: Axis = Axis('i');
const K: Axis = Axis('k');

/// The feed-forward activation: operator name and output container. The
/// backward operator and its gradient container are derived (`"{op} dX"`,
/// `"d_{container}"`). Both are [`OpKind::Relu`] nodes — the function is
/// the graph's ([`Graph::activation`], set by the builder); the graph's
/// accounting is the same.
type Act = (&'static str, &'static str);
const RELU: Act = ("ReLU", "ff1_relu");
const GELU: Act = ("GELU", "ff1_act");

/// The saved projections of a full-sequence block (name, spec), in stream
/// order.
const QKV: [(&str, &str); 3] = [("qq", "phbj"), ("kk", "phbk"), ("vv", "whbk")];

/// The two sub-block-closing dropouts (operator, output, mask) for
/// `Emit::join`.
const DROP1: [&str; 3] = ["Dropout 1", "drop1_out", "drop1_mask"];
const DROP3: [&str; 3] = ["Dropout 3", "ff2_drop", "drop3_mask"];

/// Stacked projection weights: `w_qkv` (`[s=3p, h, i]`) and the three
/// per-stream biases.
struct QkvWeights {
    w_qkv: NodeId,
    biases: [NodeId; 3],
}

/// Output projection weight and bias.
struct OutWeights {
    wo: NodeId,
    bo: NodeId,
}

/// Layer-norm scale and shift.
struct NormWeights {
    gamma: NodeId,
    beta: NodeId,
}

/// Feed-forward weights and biases.
struct FfnWeights {
    w1: NodeId,
    b1: NodeId,
    w2: NodeId,
    b2: NodeId,
}

/// A training block's externals.
struct BlockWeights {
    qkv: QkvWeights,
    out: OutWeights,
    ln1: NormWeights,
    ffn: FfnWeights,
    ln2: NormWeights,
}

/// What [`Emit::attention`] leaves for the rest of the block and for
/// [`Emit::attention_grad`].
struct Attention {
    qkv: [NodeId; 3],
    softmax: &'static str,
    att: NodeId,
    alpha: NodeId,
    att_mask: NodeId,
    gam: NodeId,
    /// The biased output projection.
    out: NodeId,
}

/// What [`Emit::ffn`] leaves for the rest of the block and for
/// [`Emit::ffn_grad`].
struct Ffn {
    x: NodeId,
    act: Act,
    ff1_b: NodeId,
    ff1_drop: NodeId,
    drop2_mask: NodeId,
    /// The biased second linear layer.
    out: NodeId,
}

/// What [`Emit::decoder_tail`] leaves for the decoder's backward half.
struct DecoderTail {
    attn: Attention,
    drop1_mask: NodeId,
    res1: NodeId,
    ffn: Ffn,
    drop3_mask: NodeId,
    y: NodeId,
}

/// A graph under construction: the sub-block emitters, and the names of the
/// operators emitted so far in execution order.
struct Emit<'d> {
    g: Graph,
    dims: &'d EncoderDims,
    /// The paper's letters plus `s = 3p`, the stacked Q/K/V axis.
    sizes: Vec<(char, usize)>,
    ops: Vec<String>,
}

impl<'d> Emit<'d> {
    fn new(dims: &'d EncoderDims) -> Self {
        let mut sizes = dims.size_table();
        sizes.push(('s', 3 * dims.p));
        Emit {
            g: Graph::new(),
            dims,
            sizes,
            ops: Vec::new(),
        }
    }

    /// Declares a block's arithmetic on the graph: `activation` behind its
    /// [`OpKind::Relu`] nodes and `1/√p` behind its attention softmax.
    fn arithmetic(&mut self, activation: ActivationKind) {
        self.g.set_activation(activation);
        self.g.set_softmax_scale(1.0 / (self.dims.p as f32).sqrt());
    }

    fn finish(self) -> ForwardGraph {
        ForwardGraph {
            graph: self.g,
            forward_ops: self.ops,
        }
    }

    fn data(&mut self, name: &str, spec: &str, role: DataRole) -> NodeId {
        let shape = Shape::from_spec(spec, &self.sizes).expect("valid builder spec");
        self.g.add_data(name, shape, role)
    }

    /// A container with its whole volume, as a memlet endpoint.
    fn full(&self, id: NodeId) -> (NodeId, u64) {
        let words = self.g.data(id).expect("data node").shape.num_elements();
        (id, words as u64)
    }

    fn axes_of(&self, id: NodeId) -> Vec<Axis> {
        self.g.data(id).expect("data node").shape.axes().to_vec()
    }

    /// An operator over whole containers.
    fn op(&mut self, name: &str, kind: OpKind, inputs: &[NodeId], outputs: &[NodeId]) {
        self.ops.push(name.into());
        self.g.add_op(name, kind, inputs, outputs);
    }

    /// An operator that touches only a slice of a stacked container.
    fn op_sliced(
        &mut self,
        name: &str,
        kind: OpKind,
        inputs: &[(NodeId, u64)],
        outputs: &[(NodeId, u64)],
    ) {
        self.ops.push(name.into());
        self.g.add_op_with_volumes(name, kind, inputs, outputs);
    }

    /// A one-output operator: the output container, then the operator.
    fn emit(
        &mut self,
        name: &str,
        kind: OpKind,
        inputs: &[NodeId],
        out: (&str, &str, DataRole),
    ) -> NodeId {
        let out = self.data(out.0, out.1, out.2);
        self.op(name, kind, inputs, &[out]);
        out
    }

    /// Broadcast add of `bias` over its own axes.
    fn bias(&mut self, name: &str, x: NodeId, bias: NodeId, out: (&str, &str, DataRole)) -> NodeId {
        let axes = self.axes_of(bias);
        self.emit(name, OpKind::Bias { axes }, &[x, bias], out)
    }

    /// Bias gradient: `d` reduced onto the axes of `spec`.
    fn bias_grad(&mut self, name: &str, d: NodeId, out: &str, spec: &str) {
        let axes = spec.chars().map(Axis).collect();
        self.emit(name, OpKind::BiasGrad { axes }, &[d], (out, spec, Output));
    }

    /// Residual connection (and, backward, a gradient join): `a + b`.
    fn residual(&mut self, name: &str, a: NodeId, b: NodeId, out: (&str, DataRole)) -> NodeId {
        self.emit(name, OpKind::Residual, &[a, b], (out.0, "ibj", out.1))
    }

    /// Dropout: the dropped output, then the saved mask, both of `spec`.
    fn dropout(
        &mut self,
        name: &str,
        x: NodeId,
        out: (&str, DataRole),
        mask: &str,
        spec: &str,
    ) -> (NodeId, NodeId) {
        let out = self.data(out.0, spec, out.1);
        let mask = self.data(mask, spec, Saved);
        self.op(name, OpKind::Dropout, &[x], &[out, mask]);
        (out, mask)
    }

    // ---- weight containers ----

    fn qkv_weights(&mut self) -> QkvWeights {
        QkvWeights {
            w_qkv: self.data("w_qkv", "shi", Weight),
            biases: [("bq", "ph"), ("bk", "ph"), ("bv", "wh")]
                .map(|(n, s)| self.data(n, s, Weight)),
        }
    }

    fn out_weights(&mut self) -> OutWeights {
        OutWeights {
            wo: self.data("wo", "whi", Weight),
            bo: self.data("bo", "i", Weight),
        }
    }

    fn norm_weights(&mut self, n: u8) -> NormWeights {
        NormWeights {
            gamma: self.data(&format!("ln{n}_gamma"), "i", Weight),
            beta: self.data(&format!("ln{n}_beta"), "i", Weight),
        }
    }

    fn ffn_weights(&mut self) -> FfnWeights {
        FfnWeights {
            w1: self.data("w1", "ui", Weight),
            b1: self.data("b1", "u", Weight),
            w2: self.data("w2", "iu", Weight),
            b2: self.data("b2", "i", Weight),
        }
    }

    /// The block's externals in the order the training graphs declare them.
    fn block_weights(&mut self) -> BlockWeights {
        BlockWeights {
            qkv: self.qkv_weights(),
            out: self.out_weights(),
            ln1: self.norm_weights(1),
            ffn: self.ffn_weights(),
            ln2: self.norm_weights(2),
        }
    }

    // ---- forward sub-blocks ----

    /// `LayerNorm n` over the embedding axis.
    fn layer_norm(&mut self, n: u8, x: NodeId, w: &NormWeights, out: (&str, DataRole)) -> NodeId {
        self.emit(
            &format!("LayerNorm {n}"),
            OpKind::LayerNorm { axis: I },
            &[x, w.gamma, w.beta],
            (out.0, "ibj", out.1),
        )
    }

    /// The stacked projection `Q,K,V` of `src`, then one `Input bias` per
    /// stream carving its third of `qkv_raw` into `outs` (name, spec).
    fn qkv_projection(
        &mut self,
        src: NodeId,
        w: &QkvWeights,
        outs: [(&str, &str); 3],
        role: DataRole,
    ) -> [NodeId; 3] {
        let slice = self.dims.words("phbj");
        let qkv_raw = self.data("qkv_raw", "shbj", Activation);
        self.op(
            "Q,K,V",
            einsum("shi,ibj->shbj"),
            &[w.w_qkv, src],
            &[qkv_raw],
        );
        let outs = outs.map(|(name, spec)| self.data(name, spec, role));
        for ((stream, bias), out) in ["Q", "K", "V"].into_iter().zip(w.biases).zip(outs) {
            let axes = self.axes_of(bias);
            self.op_sliced(
                &format!("Input bias {stream}"),
                OpKind::Bias { axes },
                &[(qkv_raw, slice), self.full(bias)],
                &[(out, slice)],
            );
        }
        outs
    }

    /// Scores to the biased output projection: `QKT`, the `softmax` named by
    /// the caller, attention dropout, `Gamma`, `Out`, `Output bias`. With
    /// `cache_major` the keys and values are position-major caches (`kphb` /
    /// `kwhb`) and the two contractions index them in place.
    fn attention(
        &mut self,
        qkv @ [qq, kk, vv]: [NodeId; 3],
        w: &OutWeights,
        softmax: &'static str,
        cache_major: bool,
        out: (&str, DataRole),
    ) -> Attention {
        let (keys, values) = if cache_major {
            ("kphb", "kwhb")
        } else {
            ("phbk", "whbk")
        };
        let qkt = einsum(&format!("{keys},phbj->hbjk"));
        let beta = self.emit("QKT", qkt, &[kk, qq], ("beta", "hbjk", Activation));
        let att = self.emit(
            softmax,
            OpKind::Softmax { axis: K },
            &[beta],
            ("att", "hbjk", Saved),
        );
        let (alpha, att_mask) =
            self.dropout("Dropout att", att, ("alpha", Saved), "att_mask", "hbjk");
        let gamma = einsum(&format!("{values},hbjk->whbj"));
        let gam = self.emit("Gamma", gamma, &[vv, alpha], ("gamma", "whbj", Saved));
        let out_mm = self.emit(
            "Out",
            einsum("whi,whbj->ibj"),
            &[w.wo, gam],
            ("out_mm", "ibj", Activation),
        );
        Attention {
            qkv,
            softmax,
            att,
            alpha,
            att_mask,
            gam,
            out: self.bias("Output bias", out_mm, w.bo, (out.0, "ibj", out.1)),
        }
    }

    /// Closes a sub-block: `drop` (operator, output, mask) over `x`, then the
    /// residual add `res` with `skip` into `sum`. Returns `(mask, sum)`.
    fn join(
        &mut self,
        drop: [&str; 3],
        x: NodeId,
        res: &str,
        skip: NodeId,
        sum: (&str, DataRole),
    ) -> (NodeId, NodeId) {
        let (dropped, mask) = self.dropout(drop[0], x, (drop[1], Activation), drop[2], "ibj");
        (mask, self.residual(res, dropped, skip, sum))
    }

    /// The feed-forward network up to its second bias.
    fn ffn(&mut self, x: NodeId, w: &FfnWeights, act: Act) -> Ffn {
        let ff1 = self.emit(
            "Linear 1",
            einsum("ui,ibj->ubj"),
            &[w.w1, x],
            ("ff1", "ubj", Activation),
        );
        let ff1_b = self.bias("Bias 1", ff1, w.b1, ("ff1_b", "ubj", Saved));
        let acted = self.emit(act.0, OpKind::Relu, &[ff1_b], (act.1, "ubj", Activation));
        let (ff1_drop, drop2_mask) =
            self.dropout("Dropout 2", acted, ("ff1_drop", Saved), "drop2_mask", "ubj");
        let ff2 = self.emit(
            "Linear 2",
            einsum("iu,ubj->ibj"),
            &[w.w2, ff1_drop],
            ("ff2", "ibj", Activation),
        );
        Ffn {
            x,
            act,
            ff1_b,
            ff1_drop,
            drop2_mask,
            out: self.bias("Bias 2", ff2, w.b2, ("ff2_b", "ibj", Activation)),
        }
    }

    /// The pre-LN decoder forward from the attention scores to `y`, over
    /// full-sequence projections or (`cache_major`) the decode step's
    /// caches.
    fn decoder_tail(
        &mut self,
        x: NodeId,
        qkv: [NodeId; 3],
        cache_major: bool,
        (wo, ln2, wf): (&OutWeights, &NormWeights, &FfnWeights),
    ) -> DecoderTail {
        let attn = self.attention(
            qkv,
            wo,
            "Masked softmax",
            cache_major,
            ("bo_out", Activation),
        );
        let (drop1_mask, res1) = self.join(DROP1, attn.out, "Residual 1", x, ("res1", Saved));
        let ln2_out = self.layer_norm(2, res1, ln2, ("ln2_out", Saved));
        let ffn = self.ffn(ln2_out, wf, GELU);
        let (drop3_mask, y) = self.join(DROP3, ffn.out, "Residual 2", res1, ("y", Output));
        DecoderTail {
            attn,
            drop1_mask,
            res1,
            ffn,
            drop3_mask,
            y,
        }
    }

    // ---- backward sub-blocks ----

    /// `LayerNorm n dW` then `LayerNorm n dX`; returns the input gradient.
    fn layer_norm_grad(&mut self, n: u8, dy: NodeId, x: NodeId, gamma: NodeId) -> NodeId {
        let dw = ["gamma", "beta"].map(|w| self.data(&format!("d_ln{n}_{w}"), "i", Output));
        self.op(
            &format!("LayerNorm {n} dW"),
            OpKind::LayerNormGradW { axis: I },
            &[dy, x],
            &dw,
        );
        self.emit(
            &format!("LayerNorm {n} dX"),
            OpKind::LayerNormGradX { axis: I },
            &[dy, x, gamma],
            (&format!("d_ln{n}_in"), "ibj", Gradient),
        )
    }

    fn dropout_grad(&mut self, name: &str, d: NodeId, mask: NodeId, out: (&str, &str)) -> NodeId {
        self.emit(
            name,
            OpKind::DropoutGrad,
            &[d, mask],
            (out.0, out.1, Gradient),
        )
    }

    /// Backward of [`Emit::ffn`] from `d_out` (the gradient of its output) to
    /// the gradient of its input, named `dx`.
    fn ffn_grad(&mut self, d_out: NodeId, w: &FfnWeights, f: &Ffn, dx: &str) -> NodeId {
        self.bias_grad("Bias 2 dW", d_out, "d_b2", "i");
        let d_drop = self.emit(
            "Linear 2 dX",
            einsum("iu,ibj->ubj"),
            &[w.w2, d_out],
            ("d_ff1_drop", "ubj", Gradient),
        );
        self.emit(
            "Linear 2 dW",
            einsum("ibj,ubj->iu"),
            &[d_out, f.ff1_drop],
            ("d_w2", "iu", Output),
        );
        let d_act = format!("d_{}", f.act.1);
        let d_act = self.dropout_grad("Dropout 2 dX", d_drop, f.drop2_mask, (&d_act, "ubj"));
        let d_ff1_b = self.emit(
            &format!("{} dX", f.act.0),
            OpKind::ReluGrad,
            &[d_act, f.ff1_b],
            ("d_ff1_b", "ubj", Gradient),
        );
        self.bias_grad("Bias 1 dW", d_ff1_b, "d_b1", "u");
        let dx = self.emit(
            "Linear 1 dX",
            einsum("ui,ubj->ibj"),
            &[w.w1, d_ff1_b],
            (dx, "ibj", Gradient),
        );
        self.emit(
            "Linear 1 dW",
            einsum("ubj,ibj->ui"),
            &[d_ff1_b, f.x],
            ("d_w1", "ui", Output),
        );
        dx
    }

    /// Backward of [`Emit::qkv_projection`] + [`Emit::attention`] from
    /// `d_out` (the gradient of the biased output projection) to the gradient
    /// of the projections' source `x`, named `dx`. The three projection
    /// gradients are slices of one stacked `d_qkv`.
    fn attention_grad(
        &mut self,
        d_out: NodeId,
        x: NodeId,
        (wp, wo): (&QkvWeights, &OutWeights),
        a: &Attention,
        dx: &str,
    ) -> NodeId {
        let [qq, kk, vv] = a.qkv;
        let slice = self.dims.words("phbj");
        self.bias_grad("Output bias dW", d_out, "d_bo", "i");
        let d_gam = self.emit(
            "Out dX",
            einsum("whi,ibj->whbj"),
            &[wo.wo, d_out],
            ("d_gamma", "whbj", Gradient),
        );
        self.emit(
            "Out dW",
            einsum("whbj,ibj->whi"),
            &[a.gam, d_out],
            ("d_wo", "whi", Output),
        );
        let d_alpha = self.emit(
            "Gamma dX1",
            einsum("whbk,whbj->hbjk"),
            &[vv, d_gam],
            ("d_alpha", "hbjk", Gradient),
        );
        // stacked Q/K/V gradient container; the three writers fill slices
        let d_qkv = self.data("d_qkv", "shbj", Gradient);
        let fill = |e: &mut Self, name: &str, spec: &str, a: NodeId, b: NodeId| {
            e.op_sliced(
                name,
                einsum(spec),
                &[e.full(a), e.full(b)],
                &[(d_qkv, slice)],
            );
        };
        fill(self, "Gamma dX2", "whbj,hbjk->whbk", d_gam, a.alpha);
        let d_att = self.dropout_grad("Dropout att dX", d_alpha, a.att_mask, ("d_att", "hbjk"));
        let d_beta = self.emit(
            &format!("{} dX", a.softmax),
            OpKind::SoftmaxGrad { axis: K },
            &[d_att, a.att],
            ("d_beta", "hbjk", Gradient),
        );
        fill(self, "QKT dX1", "phbk,hbjk->phbj", kk, d_beta);
        fill(self, "QKT dX2", "phbj,hbjk->phbk", qq, d_beta);
        let db =
            [("d_bq", "ph"), ("d_bk", "ph"), ("d_bv", "wh")].map(|(n, s)| self.data(n, s, Output));
        let axes = vec![Axis('p'), Axis('h')];
        self.op("Input bias dW", OpKind::BiasGrad { axes }, &[d_qkv], &db);
        let dx = self.emit(
            "Q,K,V dX",
            einsum("shi,shbj->ibj"),
            &[wp.w_qkv, d_qkv],
            (dx, "ibj", Gradient),
        );
        let dw_qkv = self.data("d_w_qkv", "shi", Output);
        self.op("Q,K,V dW", einsum("shbj,ibj->shi"), &[d_qkv, x], &[dw_qkv]);
        dx
    }
}

/// Multi-head attention forward pass with general attention (distinct
/// query/key/value inputs), mirroring Fig. 1 of the paper: three input
/// projections with biases, scaled softmax with dropout, and the output
/// projection.
pub fn mha_forward(dims: &EncoderDims) -> Graph {
    let mut e = Emit::new(dims);
    e.arithmetic(Relu);
    let src = [("q", "ibj"), ("k", "ibk"), ("v", "ibk")].map(|(n, s)| e.data(n, s, Input));
    let w = [("wq", "phi"), ("wk", "phi"), ("wv", "whi"), ("wo", "whi")];
    let w = w.map(|(n, s)| e.data(n, s, Weight));
    let b =
        [("bq", "ph"), ("bk", "ph"), ("bv", "wh"), ("bo", "i")].map(|(n, s)| e.data(n, s, Weight));
    // unstacked projections: one GEMM and one bias per stream
    let streams = [
        ("Q", "phi,ibj->phbj", "qq", "phbj"),
        ("K", "phi,ibk->phbk", "kk", "phbk"),
        ("V", "whi,ibk->whbk", "vv", "whbk"),
    ];
    let raw = streams.map(|(.., n, spec)| e.data(&format!("{n}_raw"), spec, Activation));
    for (s, (name, proj, ..)) in streams.into_iter().enumerate() {
        e.op(name, einsum(proj), &[w[s], src[s]], &[raw[s]]);
    }
    let qkv = streams.map(|(.., n, spec)| e.data(n, spec, Saved));
    for (s, (name, ..)) in streams.into_iter().enumerate() {
        let axes = e.axes_of(b[s]);
        let name = format!("Input bias {name}");
        e.op(&name, OpKind::Bias { axes }, &[raw[s], b[s]], &[qkv[s]]);
    }
    let w = OutWeights { wo: w[3], bo: b[3] };
    e.attention(qkv, &w, "Scaled softmax", false, ("out", Output));
    e.g
}

/// Named handles into the graph produced by [`encoder`], for tests and the
/// benchmark harness.
#[derive(Debug, Clone)]
pub struct EncoderGraph {
    /// The dataflow graph (unfused).
    pub graph: Graph,
    /// The encoder input `X`.
    pub x: NodeId,
    /// The incoming output gradient `dY`.
    pub dy: NodeId,
    /// The layer output `Y`.
    pub y: NodeId,
    /// The gradient w.r.t. the encoder input.
    pub dx: NodeId,
    /// Names of forward operators, in execution order.
    pub forward_ops: Vec<String>,
    /// Names of backward operators, in execution order.
    pub backward_ops: Vec<String>,
}

/// Builds the full BERT encoder layer training step (forward and backward)
/// for self-attention, with the Q/K/V projections algebraically fused into
/// stacked GEMMs (the configuration the paper's final implementation uses;
/// Table II shows QKV-fused is fastest).
///
/// # Panics
///
/// Panics unless `dims.j == dims.k`: self-attention has one sequence
/// length. Fallible callers check first
/// (`xform_transformer::interp::cached_plan` returns a shape error).
pub fn encoder(dims: &EncoderDims) -> EncoderGraph {
    assert_eq!(
        dims.j, dims.k,
        "self-attention requires equal input/output sequence lengths"
    );
    let mut e = Emit::new(dims);
    e.arithmetic(Relu);
    let x = e.data("x", "ibj", Input);
    let w = e.block_weights();

    // ---- forward: post-LN self-attention, then post-LN feed-forward ----
    let qkv = e.qkv_projection(x, &w.qkv, QKV, Saved);
    let attn = e.attention(qkv, &w.out, "Scaled softmax", false, ("bo_out", Activation));
    let (drop1_mask, ln1_in) = e.join(DROP1, attn.out, "Residual 1", x, ("ln1_in", Saved));
    let ln1_out = e.layer_norm(1, ln1_in, &w.ln1, ("ln1_out", Saved));
    let ffn = e.ffn(ln1_out, &w.ffn, RELU);
    let (drop3_mask, ln2_in) = e.join(DROP3, ffn.out, "Residual 2", ln1_out, ("ln2_in", Saved));
    let y = e.layer_norm(2, ln2_in, &w.ln2, ("y", Output));
    let forward_ops = std::mem::take(&mut e.ops);

    // ---- backward ----
    let dy = e.data("dy", "ibj", Gradient);
    let d_ln2_in = e.layer_norm_grad(2, dy, ln2_in, w.ln2.gamma);
    let d_ff2_b = e.dropout_grad("Dropout 3 dX", d_ln2_in, drop3_mask, ("d_ff2_b", "ibj"));
    let d_ffn = e.ffn_grad(d_ff2_b, &w.ffn, &ffn, "d_ln1_out_ffn");
    // residual-2 gradient join (the add inside EBSB)
    let d_ln1_out = e.residual("Residual 2 dX", d_ffn, d_ln2_in, ("d_ln1_out", Gradient));
    let d_ln1_in = e.layer_norm_grad(1, d_ln1_out, ln1_in, w.ln1.gamma);
    let d_bo_out = e.dropout_grad("Dropout 1 dX", d_ln1_in, drop1_mask, ("d_bo_out", "ibj"));
    let d_x_mha = e.attention_grad(d_bo_out, x, (&w.qkv, &w.out), &attn, "d_x_mha");
    let dx = e.residual("Residual 1 dX", d_x_mha, d_ln1_in, ("dx", Output));

    EncoderGraph {
        graph: e.g,
        x,
        dy,
        y,
        dx,
        forward_ops,
        backward_ops: e.ops,
    }
}

/// Builds a GPT-2-style decoder block training step (forward and
/// backward): **pre**-layer-norm ordering, causally *masked* self-attention
/// (Sec. II-B-1's masking step), and a GELU feed-forward — the "minor
/// aspects" by which decoder blocks differ from the BERT encoder
/// (Sec. VIII). Operator classes, iteration spaces, and therefore the
/// whole optimization recipe carry over unchanged.
///
/// The forward half is also what a decode *prefill* pass runs: the prompt
/// goes through the forward operators of this graph at the prompt's length,
/// and the saved `kk`/`vv` projections seed the KV cache.
///
/// # Panics
///
/// Panics unless `dims.j == dims.k` (see [`encoder`]).
pub fn decoder(dims: &EncoderDims) -> EncoderGraph {
    assert_eq!(
        dims.j, dims.k,
        "causal self-attention requires equal sequence lengths"
    );
    let mut e = Emit::new(dims);
    e.arithmetic(Gelu);
    let x = e.data("x", "ibj", Input);
    let w = e.block_weights();

    // ---- forward: pre-LN masked self-attention, pre-LN feed-forward ----
    let ln1_out = e.layer_norm(1, x, &w.ln1, ("ln1_out", Saved));
    let qkv = e.qkv_projection(ln1_out, &w.qkv, QKV, Saved);
    let f = e.decoder_tail(x, qkv, false, (&w.out, &w.ln2, &w.ffn));
    let forward_ops = std::mem::take(&mut e.ops);

    // ---- backward ----
    let dy = e.data("dy", "ibj", Gradient);
    // residual 2 passes dy to both branches; FFN side first
    let d_ff2_b = e.dropout_grad("Dropout 3 dX", dy, f.drop3_mask, ("d_ff2_b", "ibj"));
    let d_ln2_out = e.ffn_grad(d_ff2_b, &w.ffn, &f.ffn, "d_ln2_out");
    let d_ln2_in = e.layer_norm_grad(2, d_ln2_out, f.res1, w.ln2.gamma);
    // res1 gradient = dy (skip branch of residual 2) + d_ln2_in
    let d_res1 = e.residual("Residual 2 dX", dy, d_ln2_in, ("d_res1", Gradient));
    let d_bo_out = e.dropout_grad("Dropout 1 dX", d_res1, f.drop1_mask, ("d_bo_out", "ibj"));
    let d_ln1_out = e.attention_grad(d_bo_out, ln1_out, (&w.qkv, &w.out), &f.attn, "d_ln1_out");
    let d_ln1_in = e.layer_norm_grad(1, d_ln1_out, x, w.ln1.gamma);
    let dx = e.residual("Residual 1 dX", d_ln1_in, d_res1, ("dx", Output));

    EncoderGraph {
        graph: e.g,
        x,
        dy,
        y: f.y,
        dx,
        forward_ops,
        backward_ops: e.ops,
    }
}

/// A forward-only dataflow graph, for inference plans with no backward
/// half (the decode-step graphs). Containers are addressed by name
/// (`graph.data_by_name`); `forward_ops` lists the operator names in
/// execution order, before fusion.
#[derive(Debug, Clone)]
pub struct ForwardGraph {
    /// The dataflow graph (unfused).
    pub graph: Graph,
    /// Forward operator names in execution order.
    pub forward_ops: Vec<String>,
}

/// Decode-step *projection* graph: for a single new token column
/// (`dims.j == 1`), layer-norm the input and compute the stacked Q/K/V
/// projection plus bias carve. Its outputs are the new query column
/// `qq_new` and the new cache columns `kk_new`/`vv_new` which the decode
/// session appends to the persistent K/V caches *before* running the
/// attention graph — so the query's own key is in the cache when the
/// scores are formed, exactly as in the full-sequence causal forward.
///
/// # Panics
///
/// Panics unless `dims.j == 1`.
pub fn decoder_step_project(dims: &EncoderDims) -> ForwardGraph {
    assert_eq!(dims.j, 1, "decode step projects one token column");
    let mut e = Emit::new(dims);
    e.arithmetic(Gelu);
    let x = e.data("x", "ibj", Input);
    let wp = e.qkv_weights();
    let ln1 = e.norm_weights(1);
    let ln1_out = e.layer_norm(1, x, &ln1, ("ln1_out", Activation));
    let outs = [("qq_new", "phbj"), ("kk_new", "phbj"), ("vv_new", "whbj")];
    e.qkv_projection(ln1_out, &wp, outs, Output);
    e.finish()
}

/// Decode-step *attention + feed-forward* graph: one query column
/// (`dims.j == 1`) attends over a persistent KV cache of capacity `dims.k`
/// and runs the rest of the decoder forward. The caches are
/// [`DataRole::Cache`] containers laid out position-major (`kphb` /
/// `kwhb`), so one decoded position is one contiguous column: live-in and
/// live-out of every plan run, read-only to every plan step, appended to
/// only *between* runs by the decode session.
///
/// Scores for cache slots past the current position are formed from the
/// slab's zero-initialized columns and masked to exact `0.0` by the causal
/// softmax, so the result is bitwise-identical to a full-sequence forward
/// truncated at the current position.
///
/// # Panics
///
/// Panics unless `dims.j == 1`.
pub fn decoder_step_attend(dims: &EncoderDims) -> ForwardGraph {
    assert_eq!(dims.j, 1, "decode step attends one query column");
    let mut e = Emit::new(dims);
    e.arithmetic(Gelu);
    let x = e.data("x", "ibj", Input);
    let qq = e.data("qq", "phbj", Input);
    let k_cache = e.data("k_cache", "kphb", Cache);
    let v_cache = e.data("v_cache", "kwhb", Cache);
    let (wo, wf, ln2) = (e.out_weights(), e.ffn_weights(), e.norm_weights(2));
    e.decoder_tail(x, [qq, k_cache, v_cache], true, (&wo, &ln2, &wf));
    e.finish()
}

/// The model head over a vocabulary of `vocab` words, `v`: the last block's
/// output `h[i,b,j]` contracted with `head[v,i]` (`Head`), `head_bias[v]`
/// added (`Head bias`) and the softmax over `v` taken (`Head softmax`). The
/// logits and `probs` are `[b,j,v]`, so each vocabulary row is contiguous.
///
/// # Panics
///
/// Panics if `vocab` or an extent of `dims` is zero.
pub fn head(dims: &EncoderDims, vocab: usize) -> ForwardGraph {
    let mut e = Emit::new(dims);
    e.sizes.push(('v', vocab));
    let h = e.data("h", "ibj", Input);
    let (w, bias) = (
        e.data("head", "vi", Weight),
        e.data("head_bias", "v", Weight),
    );
    let logits = einsum("ibj,vi->bjv");
    let logits = e.emit("Head", logits, &[h, w], ("logits", "bjv", Activation));
    let biased = e.bias("Head bias", logits, bias, ("logits_b", "bjv", Activation));
    let softmax = OpKind::Softmax { axis: Axis('v') };
    e.emit("Head softmax", softmax, &[biased], ("probs", "bjv", Output));
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flops::{op_flop, total_flop};
    use crate::op::OpClass;

    const GI: f64 = 1_073_741_824.0; // the paper's "Gflop" are Gi (2^30)

    /// Each builder's graph says what its generic operators compute.
    #[test]
    fn every_builder_sets_its_graphs_arithmetic() {
        let d = EncoderDims::tiny();
        let (step, scaled) = (EncoderDims { j: 1, ..d }, 1.0 / (d.p as f32).sqrt());
        for (g, arithmetic) in [
            (encoder(&d).graph, (Relu, scaled)),
            (mha_forward(&d), (Relu, scaled)),
            (decoder(&d).graph, (Gelu, scaled)),
            (decoder_step_project(&step).graph, (Gelu, scaled)),
            (decoder_step_attend(&step).graph, (Gelu, scaled)),
            (head(&d, 5).graph, (Relu, 1.0)),
            (Graph::new(), (Relu, 1.0)),
        ] {
            assert_eq!((g.activation(), g.softmax_scale()), arithmetic);
        }
    }

    #[test]
    fn mha_forward_has_fig1_structure() {
        let g = mha_forward(&EncoderDims::bert_large());
        assert_eq!(g.ops().len(), 12);
        let qkt = g.op_by_name("QKT").unwrap();
        // 4 Gi flop as annotated in Fig. 1b
        assert!((op_flop(&g, qkt).unwrap() as f64 / GI - 4.0).abs() < 0.01);
        let proj = g.op_by_name("Q").unwrap();
        // 8 Gi flop per projection
        assert!((op_flop(&g, proj).unwrap() as f64 / GI - 8.0).abs() < 0.01);
    }

    #[test]
    fn encoder_flop_matches_table3_rows() {
        let e = encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        let gi = |name: &str| op_flop(g, g.op_by_name(name).unwrap()).unwrap() as f64 / GI;
        assert!((gi("Q,K,V") - 24.0).abs() < 0.05, "Q,K,V = {}", gi("Q,K,V"));
        assert!((gi("QKT") - 4.0).abs() < 0.05);
        assert!((gi("Gamma") - 4.0).abs() < 0.05);
        assert!((gi("Out") - 8.0).abs() < 0.05);
        assert!((gi("Linear 1") - 32.0).abs() < 0.05);
        assert!((gi("Linear 2") - 32.0).abs() < 0.05);
        assert!((gi("Linear 2 dX") - 32.0).abs() < 0.05);
        assert!((gi("Linear 1 dW") - 32.0).abs() < 0.05);
        assert!((gi("Q,K,V dX") - 24.0).abs() < 0.05);
        assert!((gi("Q,K,V dW") - 24.0).abs() < 0.05);
        assert!((gi("Out dX") - 8.0).abs() < 0.05);
        assert!((gi("Gamma dX1") - 4.0).abs() < 0.05);
        assert!((gi("QKT dX2") - 4.0).abs() < 0.05);
    }

    #[test]
    fn encoder_io_matches_table3_rows() {
        let e = encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        let mw = |name: &str| {
            let op = g.op_by_name(name).unwrap();
            (
                g.input_words(op) as f64 / 1e6,
                g.output_words(op) as f64 / 1e6,
            )
        };
        let (i, o) = mw("Q,K,V");
        assert!((i - 7.3).abs() < 0.1, "Q,K,V in {i}");
        assert!((o - 12.5).abs() < 0.1, "Q,K,V out {o}");
        let (i, o) = mw("QKT");
        assert!((i - 8.3).abs() < 0.1);
        assert!((o - 33.5).abs() < 0.1);
        let (i, o) = mw("Gamma");
        assert!((i - 37.7).abs() < 0.1);
        assert!((o - 4.1).abs() < 0.1);
        let (i, o) = mw("Linear 1");
        assert!((i - 8.3).abs() < 0.1);
        assert!((o - 16.7).abs() < 0.2);
        let (i, o) = mw("Linear 2 dW");
        assert!((i - 20.9).abs() < 0.1);
        assert!((o - 4.1).abs() < 0.1);
        let (i, _) = mw("LayerNorm 2 dW");
        assert!((i - 8.3).abs() < 0.1);
        let (i, o) = mw("Q,K,V dX");
        assert!((i - 15.7).abs() < 0.1);
        assert!((o - 4.1).abs() < 0.1);
    }

    #[test]
    fn encoder_total_flop_matches_table3_total() {
        // Table III total: 312.633 Gi flop (PyTorch column ~326 with padding
        // overheads; the analytic requirement is 312).
        let e = encoder(&EncoderDims::bert_large());
        let total = total_flop(&e.graph) as f64 / GI;
        assert!(
            (total - 312.6).abs() < 2.0,
            "total encoder flop {total} Gi, expected ≈312.6"
        );
    }

    #[test]
    fn contraction_flop_share_matches_table1() {
        let e = encoder(&EncoderDims::bert_large());
        let g = &e.graph;
        let mut by_class = [0u64; 3];
        for op in g.ops() {
            let f = op_flop(g, op).unwrap();
            match g.op(op).unwrap().kind.class() {
                OpClass::TensorContraction => by_class[0] += f,
                OpClass::StatisticalNormalization => by_class[1] += f,
                OpClass::Elementwise => by_class[2] += f,
            }
        }
        let total: u64 = by_class.iter().sum();
        let pct = |x: u64| 100.0 * x as f64 / total as f64;
        // Table I: 99.80 / 0.17 / 0.03
        assert!(pct(by_class[0]) > 99.5, "contraction {}", pct(by_class[0]));
        assert!(pct(by_class[1]) < 0.4);
        assert!(pct(by_class[2]) < 0.1);
    }

    #[test]
    fn encoder_op_counts_and_handles() {
        let e = encoder(&EncoderDims::tiny());
        assert_eq!(e.forward_ops.len(), 22);
        assert_eq!(e.backward_ops.len(), 28);
        assert_eq!(e.graph.ops().len(), 22 + 28);
        for name in e.forward_ops.iter().chain(&e.backward_ops) {
            assert!(e.graph.op_by_name(name).is_some(), "missing op {name}");
        }
        assert!(e.graph.data(e.x).is_some());
        assert!(e.graph.data(e.dx).is_some());
    }

    #[test]
    fn decoder_block_structure() {
        let e = decoder(&EncoderDims::tiny());
        // pre-LN GPT-2 block: same operator count as the encoder step but
        // with the layer norms hoisted before the sub-blocks
        assert_eq!(e.forward_ops.len(), 22);
        assert_eq!(e.backward_ops.len(), 28);
        let g = &e.graph;
        // LayerNorm 1 feeds the projections (pre-LN)
        let ln1 = g.op_by_name("LayerNorm 1").unwrap();
        let ln1_out = g.outputs_of(ln1)[0];
        let qkv = g.op_by_name("Q,K,V").unwrap();
        assert!(g.inputs_of(qkv).contains(&ln1_out));
        // the masked softmax exists
        assert!(g.op_by_name("Masked softmax").is_some());
        assert!(g.op_by_name("GELU").is_some());
    }

    #[test]
    fn decoder_flop_matches_encoder_contractions() {
        // same dims → identical contraction flop; only normalization
        // placement differs
        let dims = EncoderDims::bert_large();
        let enc = encoder(&dims);
        let dec = decoder(&dims);
        let tc_flop = |e: &EncoderGraph| -> u64 {
            e.graph
                .ops()
                .into_iter()
                .filter(|&op| e.graph.op(op).unwrap().kind.class() == OpClass::TensorContraction)
                .map(|op| op_flop(&e.graph, op).unwrap())
                .sum()
        };
        assert_eq!(tc_flop(&enc), tc_flop(&dec));
    }

    #[test]
    fn decoder_gradients_reach_every_weight() {
        let e = decoder(&EncoderDims::tiny());
        let g = &e.graph;
        for name in [
            "d_w_qkv",
            "d_bq",
            "d_bk",
            "d_bv",
            "d_wo",
            "d_bo",
            "d_ln1_gamma",
            "d_ln1_beta",
            "d_w1",
            "d_b1",
            "d_w2",
            "d_b2",
            "d_ln2_gamma",
            "d_ln2_beta",
            "dx",
        ] {
            let id = g
                .data_by_name(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(!g.producers_of(id).is_empty(), "{name} unproduced");
        }
    }

    #[test]
    fn builders_produce_structurally_valid_graphs() {
        for dims in [EncoderDims::tiny(), EncoderDims::bert_large()] {
            let e = encoder(&dims);
            assert!(
                e.graph.validate().is_empty(),
                "encoder: {:?}",
                e.graph.validate()
            );
            let d = decoder(&dims);
            assert!(
                d.graph.validate().is_empty(),
                "decoder: {:?}",
                d.graph.validate()
            );
            let m = mha_forward(&dims);
            assert!(m.validate().is_empty(), "mha: {:?}", m.validate());
        }
    }

    #[test]
    fn fused_graphs_stay_valid() {
        // after fusion the graph must still be structurally sound
        let e = encoder(&EncoderDims::tiny());
        let mut g = e.graph;
        // fuse a small chain by hand: Output bias → Dropout 1
        let a = g.op_by_name("Output bias").unwrap();
        let b = g.op_by_name("Dropout 1").unwrap();
        g.fuse(&[a, b], "F").unwrap();
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn every_gradient_or_output_is_produced() {
        let e = encoder(&EncoderDims::tiny());
        let g = &e.graph;
        for d in g.data_nodes() {
            let node = g.data(d).unwrap();
            match node.role {
                DataRole::Input | DataRole::Weight | DataRole::Cache => {
                    assert!(
                        g.producer_of(d).is_none(),
                        "{} should have no producer",
                        node.name
                    );
                }
                DataRole::Gradient | DataRole::Output | DataRole::Activation | DataRole::Saved => {
                    if node.name != "dy" {
                        assert!(
                            g.producer_of(d).is_some(),
                            "{} should have a producer",
                            node.name
                        );
                    }
                }
            }
        }
    }
}
