//! Every dropout mask is a function of `(key, index)`: word `n` of a step's
//! key is the `(n + 1)`-th `next_u64` of a fresh `StdRng` at the key's
//! position, and the mask at index `n` is `((word(n) >> 40) · 2⁻²⁴ >= p) ·
//! 1/(1 − p)` — the select of `gen::<f32>()`. The index is a function of
//! position alone:
//!
//! * an element-wise kernel (unfused dropout, BRD, BDR, a tile program's
//!   row tail) indexes an element by its row-major logical index;
//! * a lane kernel (BDRLN, the fused softmax, the attention region) by
//!   `start(l) + v`: lane ordinal `l` in logical order, position `v` along
//!   the lane, `start(l)` the visible positions of the lanes before `l`.
//!
//! Held here, against a replayed generator and never against the library's
//! own arithmetic, for every saved mask of the canned training plans —
//! natural and permuted, serial and on 2 and 4 threads, at `tiny` and at a
//! shape whose `b·j` is no multiple of a panel and whose `j` is no multiple
//! of the attention region's tile — for the region's masks through the
//! context they weight, and for the allocating kernels in every rank-3
//! layout, with the generator state each leaves behind.

mod common;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use substation::core::arena;
use substation::core::plan::{random_externals, ExecOptions, ExecState, ExecutionPlan};
use substation::dataflow::{EncoderDims, Graph, OpKind};
use substation::tensor::fused;
use substation::tensor::ops::dropout::dropout;
use substation::tensor::ops::elementwise::ActivationKind;
use substation::tensor::{einsum, Axis, Layout, Shape, Tensor};
use substation::transformer::interp::{self, PlanKind};

const P: f32 = 0.3;

/// The key of stream `stream` of a run seeded `seed`.
fn key_of(seed: u64, stream: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The first `n` words of `key`, replayed one `next_u64` at a time.
fn words(key: &StdRng, n: usize) -> Vec<u64> {
    let mut rng = key.clone();
    (0..n).map(|_| rng.next_u64()).collect()
}

/// The mask a word selects at probability `p`.
fn select(word: u64, p: f32) -> f32 {
    let u = (word >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
    f32::from(u8::from(u >= p)) * (1.0 / (1.0 - p))
}

/// Every logical index of `shape`, row-major.
fn indices(shape: &Shape) -> Vec<Vec<usize>> {
    let sizes = shape.sizes();
    let mut out = Vec::new();
    let mut idx = vec![0usize; sizes.len()];
    'walk: loop {
        out.push(idx.clone());
        for d in (0..sizes.len()).rev() {
            idx[d] += 1;
            if idx[d] < sizes[d] {
                continue 'walk;
            }
            idx[d] = 0;
        }
        return out;
    }
}

/// Row-major position of `idx` over `sizes`, skipping axis `skip`.
fn ordinal(sizes: &[usize], idx: &[usize], skip: Option<usize>) -> usize {
    (0..sizes.len())
        .filter(|&d| Some(d) != skip)
        .fold(0, |acc, d| acc * sizes[d] + idx[d])
}

/// How a kernel indexes its masks.
#[derive(Debug, Clone, Copy)]
enum Index {
    /// Row-major logical index.
    Elementwise,
    /// `start(l) + v` along logical axis `lane`; under a causal mask lane
    /// `l`'s query index `q` (logical axis `query`) sees the first
    /// `min(pos + q + 1, len)` positions.
    Lanes {
        lane: usize,
        causal: Option<(usize, usize)>,
    },
}

impl Index {
    /// Index of every element of `shape` (`None`: masked off), and the
    /// span of indices the kernel uses up.
    fn of(self, shape: &Shape) -> (Vec<Option<usize>>, usize) {
        let sizes = shape.sizes();
        let all = indices(shape);
        match self {
            Index::Elementwise => ((0..all.len()).map(Some).collect(), all.len()),
            Index::Lanes { lane, causal } => {
                let len = sizes[lane];
                let visible =
                    |idx: &[usize]| causal.map_or(len, |(q, pos)| (pos + idx[q] + 1).min(len));
                // the visible positions of every lane, summed in lane order
                let lanes = all.len() / len;
                let mut start = vec![0usize; lanes + 1];
                for idx in all.iter().filter(|idx| idx[lane] == 0) {
                    let l = ordinal(sizes, idx, Some(lane));
                    start[l + 1] = visible(idx);
                }
                for l in 0..lanes {
                    start[l + 1] += start[l];
                }
                let at = |idx: &Vec<usize>| {
                    let l = ordinal(sizes, idx, Some(lane));
                    (idx[lane] < visible(idx)).then(|| start[l] + idx[lane])
                };
                (all.iter().map(at).collect(), start[lanes])
            }
        }
    }
}

/// The masks `key` gives `shape` under `index`, row-major.
fn masks(key: &StdRng, shape: &Shape, index: Index, p: f32) -> Vec<f32> {
    let (at, span) = index.of(shape);
    let w = words(key, span);
    at.iter()
        .map(|n| n.map_or(0.0, |n| select(w[n], p)))
        .collect()
}

fn row_major_bits(t: &Tensor) -> Vec<u32> {
    let t = t.relayout(&Layout::row_major(t.shape().rank()));
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn dims() -> [EncoderDims; 2] {
    [
        EncoderDims::tiny(),
        // b·j = 111 lanes: panels of 16, 8, 4, 2 and one alone; j = 37
        // query rows: a region tile of 32 and one of 5
        EncoderDims {
            b: 3,
            j: 37,
            k: 37,
            h: 2,
            p: 4,
            i: 8,
            u: 12,
        },
    ]
}

const KINDS: [PlanKind; 5] = [
    PlanKind::EncoderReference,
    PlanKind::EncoderFused,
    PlanKind::EncoderEpilogue,
    PlanKind::DecoderFused,
    PlanKind::DecoderEpilogue,
];

/// The causal query axis of a masked softmax: the axis before `lane`.
fn causal_of(parts: &[String], lane: usize) -> Option<usize> {
    parts.iter().any(|p| p.contains("Masked")).then(|| lane - 1)
}

/// Checks every mask `state` holds against the key of the step that wrote
/// it, and an attention region's context against the masks it weighted
/// under the softmax scale of `graph`, the plan's.
fn check_plan(graph: &Graph, plan: &ExecutionPlan, state: &ExecState, seed: u64, tag: &str) {
    let scaler = graph.softmax_scale();
    let mut checked = 0;
    for (si, step) in plan.steps.iter().enumerate() {
        let key = key_of(seed, plan.stream_of(si));
        match &step.kind {
            OpKind::TileProgram {
                first,
                second: Some(second),
                parts,
                reduce_axis,
                ..
            } => {
                // the region: context = values · (softmax ⊙ masks)
                let ins: Vec<&Tensor> = step.inputs.iter().map(|o| &state.env[&o.name]).collect();
                let letters = |axes: &[Axis]| axes.iter().map(|a| a.name()).collect::<String>();
                let (a, b) = (
                    ins[0].relabel(&letters(&first.operands()[0])).unwrap(),
                    ins[1].relabel(&letters(&first.operands()[1])).unwrap(),
                );
                let scores = einsum(&first.to_string(), &[&a, &b]).unwrap();
                let k = reduce_axis.unwrap();
                let lane = scores.shape().index_of(k).unwrap();
                let causal = causal_of(parts, lane);
                let rng = &mut StdRng::seed_from_u64(0);
                let soft = match causal {
                    Some(q) => {
                        let q = scores.shape().axes()[q];
                        fused::sm_causal_at(&scores, scaler, q, k, 0.0, rng, 0).unwrap()
                    }
                    None => fused::sm(&scores, scaler, k, 0.0, rng).unwrap(),
                }
                .softmax;
                let index = Index::Lanes {
                    lane,
                    causal: causal.map(|q| (q, 0)),
                };
                let m = masks(&key, scores.shape(), index, P);
                let y = soft.relayout(&Layout::row_major(soft.shape().rank()));
                let alpha: Vec<f32> = y.data().iter().zip(&m).map(|(y, m)| y * m).collect();
                let alpha = Tensor::from_vec(scores.shape().clone(), alpha).unwrap();
                let alpha = alpha.relabel(&letters(&second.operands()[1])).unwrap();
                let values = ins[2].relabel(&letters(&second.operands()[0])).unwrap();
                let want = einsum(&second.to_string(), &[&values, &alpha]).unwrap();
                let got = &state.env[&step.outputs[0].name];
                assert_eq!(
                    row_major_bits(got),
                    row_major_bits(&want),
                    "{tag}: region `{}`",
                    step.name
                );
                checked += 1;
            }
            kind => {
                for out in step.outputs.iter().filter(|o| o.name.ends_with("mask")) {
                    let got = &state.env[&out.name];
                    let shape = got.shape();
                    let index = match kind {
                        OpKind::Fused {
                            reduce_axis: Some(axis),
                            parts,
                            ..
                        } => {
                            let lane = shape.index_of(*axis).unwrap();
                            let causal = causal_of(parts, lane).map(|q| (q, 0));
                            Index::Lanes { lane, causal }
                        }
                        _ => Index::Elementwise,
                    };
                    let want = masks(&key, shape, index, P);
                    assert_eq!(
                        row_major_bits(got),
                        bits(&want),
                        "{tag}: `{}` of `{}`",
                        out.name,
                        step.name
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 3, "{tag}: {checked} masks checked");
}

#[test]
fn every_saved_mask_of_every_training_plan_is_the_formula() {
    for dims in dims() {
        for kind in KINDS {
            let pf = interp::cached_plan(&dims, kind).unwrap();
            let (graph, natural) = (&pf.graph, &pf.plan);
            let base = random_externals(graph, natural, 0x5eed).unwrap();
            let plans = [
                ("natural", natural.clone()),
                ("permuted 1", common::permuted(graph, natural, 1)),
                ("permuted 2", common::permuted(graph, natural, 2)),
            ];
            for (layouts, plan) in &plans {
                for threads in [1usize, 2, 4] {
                    let seed = 0xd0 + threads as u64;
                    let opts = ExecOptions::builder()
                        .dropout_p(P)
                        .seed(seed)
                        .threads(threads)
                        .build();
                    let mut state = base.clone();
                    arena::execute(graph, plan, &mut state, &opts).unwrap();
                    let tag = format!("{kind:?} j{} {layouts} t{threads}", dims.j);
                    check_plan(graph, plan, &state, seed, &tag);
                }
            }
        }
    }
}

/// One rank-3 tensor of the given letters, in every layout.
fn every_layout(spec: &str, seed: u64) -> Vec<Tensor> {
    let sizes = [('b', 3), ('j', 7), ('k', 9), ('i', 5), ('u', 6)];
    let shape = Shape::from_spec(spec, &sizes).unwrap();
    let t = Tensor::random(
        shape,
        &Uniform::new(-2.0, 2.0),
        &mut StdRng::seed_from_u64(seed),
    );
    Layout::all(3).iter().map(|l| t.relayout(l)).collect()
}

/// `rng` stands `span` words past `key`.
fn assert_advanced(rng: &mut StdRng, key: &StdRng, span: usize, tag: &str) {
    let mut want = key.clone();
    for _ in 0..span {
        want.next_u64();
    }
    assert_eq!(
        rng.next_u64(),
        want.next_u64(),
        "{tag}: generator end state"
    );
}

#[test]
fn the_allocating_fused_kernels_compute_the_formula_in_every_layout() {
    let (j, k, i) = (Axis('j'), Axis('k'), Axis('i'));
    let bias_u = Tensor::random(
        Shape::from_spec("u", &[('u', 6)]).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut StdRng::seed_from_u64(3),
    );
    let bias_i = Tensor::random(
        Shape::from_spec("i", &[('i', 5)]).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut StdRng::seed_from_u64(4),
    );
    let xk = every_layout("bjk", 1);
    let (xu, xi, res) = (
        every_layout("bju", 2),
        every_layout("bji", 5),
        every_layout("bji", 6),
    );
    for p in [0.0f32, P] {
        for li in 0..6 {
            let tag = |what: &str| format!("{what} layout {li} p {p}");
            let key = StdRng::seed_from_u64(0xab + li as u64);
            let at_p = |span: usize| if p > 0.0 { span } else { 0 };
            // SM along k: lanes over (b, j)
            let lanes = Index::Lanes {
                lane: 2,
                causal: None,
            };
            let mut rng = key.clone();
            let sm = fused::sm(&xk[li], 0.5, k, p, &mut rng).unwrap();
            let (_, span) = lanes.of(xk[li].shape());
            assert_eq!(
                row_major_bits(&sm.mask),
                bits(&masks(&key, xk[li].shape(), lanes, p)),
                "{}",
                tag("sm")
            );
            assert_advanced(&mut rng, &key, at_p(span), &tag("sm"));
            // causal SM, query j from position 1
            let causal = Index::Lanes {
                lane: 2,
                causal: Some((1, 1)),
            };
            let mut rng = key.clone();
            let sm = fused::sm_causal_at(&xk[li], 0.5, j, k, p, &mut rng, 1).unwrap();
            let (_, span) = causal.of(xk[li].shape());
            assert_eq!(
                row_major_bits(&sm.mask),
                bits(&masks(&key, xk[li].shape(), causal, p)),
                "{}",
                tag("sm_causal_at")
            );
            assert_advanced(&mut rng, &key, at_p(span), &tag("sm_causal_at"));
            // BRD: element-wise
            let mut rng = key.clone();
            let brd = fused::brd_act(&xu[li], &bias_u, ActivationKind::Gelu, p, &mut rng).unwrap();
            let want = masks(&key, xu[li].shape(), Index::Elementwise, p);
            assert_eq!(row_major_bits(&brd.mask), bits(&want), "{}", tag("brd_act"));
            assert_advanced(&mut rng, &key, at_p(xu[li].len()), &tag("brd_act"));
            // BDRLN along i: lanes over (b, j)
            let lanes = Index::Lanes {
                lane: 2,
                causal: None,
            };
            let mut rng = key.clone();
            let ln = fused::bdrln(
                &xi[li],
                &bias_i,
                &res[5 - li],
                &bias_i,
                &bias_i,
                i,
                p,
                &mut rng,
            )
            .unwrap();
            assert_eq!(
                row_major_bits(&ln.mask),
                bits(&masks(&key, xi[li].shape(), lanes, p)),
                "{}",
                tag("bdrln")
            );
            assert_advanced(&mut rng, &key, at_p(xi[li].len()), &tag("bdrln"));
        }
    }
}

/// The unfused dropout indexes its elements as every other element-wise
/// kernel does, whatever the layout, and uses up one word an element at
/// any `p`.
#[test]
fn the_allocating_dropout_computes_the_formula_in_every_layout() {
    for p in [0.0f32, P] {
        for (li, x) in every_layout("bju", 7).iter().enumerate() {
            let key = StdRng::seed_from_u64(0xcd + li as u64);
            let mut rng = key.clone();
            let (out, mask) = dropout(x, p, &mut rng);
            let want = masks(&key, x.shape(), Index::Elementwise, p);
            let tag = format!("dropout layout {li} p {p}");
            assert_eq!(row_major_bits(&mask), bits(&want), "{tag}");
            assert_eq!(*out.layout(), *x.layout(), "{tag}");
            let x = x.relayout(&Layout::row_major(3));
            let dropped: Vec<f32> = x.data().iter().zip(&want).map(|(x, m)| x * m).collect();
            assert_eq!(row_major_bits(&out), bits(&dropped), "{tag}");
            assert_advanced(&mut rng, &key, x.len(), &tag);
        }
    }
}
