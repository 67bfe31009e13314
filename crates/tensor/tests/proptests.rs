//! Property-based tests of the tensor substrate's core invariants:
//! einsum-vs-naive equivalence, layout round-trips, normalization
//! properties over arbitrary layouts, fused-vs-unfused equality, FP16
//! conversion laws, and the tile-program driver against the chain of
//! allocating kernels it stands for.

use proptest::prelude::*;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use xform_tensor::contract::naive_einsum;
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::fused;
use xform_tensor::half::F16;
use xform_tensor::ops::dropout::{dropout, dropout_backward};
use xform_tensor::ops::elementwise::{
    activate_backward, add, bias_add, bias_grad, relu, relu_backward, scale, ActivationKind,
};
use xform_tensor::ops::layernorm::{
    layernorm, layernorm_backward_input, layernorm_backward_weights,
};
use xform_tensor::ops::softmax::{softmax, softmax_backward};
use xform_tensor::{contract, einsum, Axis, Layout, Shape, Tensor};

fn rand_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::random(shape, &Uniform::new(-2.0f32, 2.0), &mut rng)
}

/// A saved dropout mask at `p = 0.3`: zeros and `1/(1-p)`.
fn mask_tensor(shape: Shape, seed: u64) -> Tensor {
    dropout(&Tensor::zeros(shape), 0.3, &mut StdRng::seed_from_u64(seed)).1
}

/// `ts` with its first operand in `layout` and the rest following it or
/// (`follow` unset: no two operands share a panel) staying row-major.
fn relaid<const N: usize>(ts: [&Tensor; N], layout: &Layout, follow: bool) -> [Tensor; N] {
    std::array::from_fn(|n| {
        if follow || n == 0 {
            ts[n].relayout(layout)
        } else {
            ts[n].clone()
        }
    })
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Two same-shape tensors, in whatever layouts, hold bitwise-equal values
/// at every logical index.
fn assert_same_bits(what: &str, a: &Tensor, b: &Tensor) -> Result<(), String> {
    let mut idx = vec![0usize; a.shape().rank()];
    loop {
        let (x, y) = (a.at(&idx), b.at(&idx));
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{} at {:?}: {} vs {}",
            what,
            idx,
            x,
            y
        );
        if !a.advance(&mut idx) {
            return Ok(());
        }
    }
}

/// A rank-2..4 shape and its lane axis `l`, placed anywhere: lane length 1,
/// 2 or 17, the innermost other axis (a panel's, in the layouts that have
/// one) 1, `W − 1`, `W`, `W + 1` or `3W + 5` long — no panel, every halved
/// remainder, whole panels, a last lane alone — and up to two more axes of
/// 1..3.
fn panel_geometry() -> impl Strategy<Value = (Shape, Axis)> {
    use xform_tensor::lanes::W;
    (
        0usize..3,
        0usize..5,
        0usize..3,
        1usize..4,
        1usize..4,
        0usize..4,
    )
        .prop_map(|(len, inner, more, n0, n1, at)| {
            let inner = [1, W - 1, W, W + 1, 3 * W + 5][inner];
            let mut axes = vec![('a', n0), ('b', n1)][..more].to_vec();
            axes.push(('c', inner));
            axes.insert(at.min(axes.len()), ('l', [1, 2, 17][len]));
            (Shape::new(axes).unwrap(), Axis('l'))
        })
}

/// The property below means what it says only if the layouts of one shape
/// really spread over the three walks.
#[test]
fn the_layouts_of_a_panel_geometry_take_all_three_walks() {
    use xform_tensor::into_ops::{Sweep, View};
    use xform_tensor::lanes::{Walk, W};
    let shape = Shape::new([('a', 2), ('l', 17), ('c', 3 * W + 5)]).unwrap();
    let walk = |layout: &str| {
        let strides = Layout::from_axis_order(&shape, layout)
            .unwrap()
            .strides(&shape);
        let v = View::whole(shape.sizes(), &strides);
        Sweep::compile(&[&v, &v], Some(1), None).unwrap().walk()
    };
    assert_eq!(walk("acl"), Walk::Lane);
    assert_eq!(walk("alc"), Walk::Panel);
    assert_eq!(walk("lac"), Walk::Panel);
    assert_eq!(walk("cla"), Walk::Strided);
    // the causal query axis cannot be the one a panel runs along
    let v = View::whole(shape.sizes(), &Layout::row_major(3).strides(&shape));
    let causal = |query| {
        Sweep::compile(&[&v, &v], Some(1), Some(query))
            .unwrap()
            .walk()
    };
    assert_eq!((causal(0), causal(2)), (Walk::Panel, Walk::Strided));
}

/// Turns up to `count` lanes of `x` along `lane`, picked by `seed`, into
/// the softmax's edge cases: all `−inf` (a dead lane), a NaN beside `−inf`,
/// a `+inf`.
fn poison_some_lanes(x: &mut Tensor, lane: Axis, count: usize, seed: u64) {
    let li = x.shape().index_of(lane).unwrap();
    let (len, lanes) = (x.shape().sizes()[li], x.len() / x.shape().sizes()[li]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
    for case in 0..count {
        // the lane through a random element
        let mut idx = vec![0usize; x.shape().rank()];
        for _ in 0..rng.gen_range(0..lanes * len) {
            x.advance(&mut idx);
        }
        for v in 0..len {
            idx[li] = v;
            let word = match (case % 3, v) {
                (0, _) => f32::NEG_INFINITY,
                (1, 0) => f32::NAN,
                (1, _) => f32::NEG_INFINITY,
                (_, 0) => f32::INFINITY,
                _ => continue,
            };
            x.set(&idx, word);
        }
    }
}

/// A layout's index is its place in `Layout::all`, both ways, at every rank
/// the graphs have: the sweep's dense `per_io` table is indexed by it and
/// walked in index order, which must be layout order.
#[test]
fn a_layouts_index_is_its_place_in_the_enumeration() {
    for rank in 0..=5 {
        let all = Layout::all(rank);
        for (k, l) in all.iter().enumerate() {
            assert_eq!(l.index(), k, "{l}");
            assert_eq!(all[l.index()], *l);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn contract_matches_naive_on_projection(
        p in 1usize..5, h in 1usize..4, i in 1usize..8, b in 1usize..4, j in 1usize..6,
        seed in 0u64..1000,
    ) {
        let sizes = [('p', p), ('h', h), ('i', i), ('b', b), ('j', j)];
        let w = rand_tensor(Shape::from_spec("phi", &sizes).unwrap(), seed);
        let x = rand_tensor(Shape::from_spec("ibj", &sizes).unwrap(), seed + 1);
        let spec: EinsumSpec = "phi,ibj->phbj".parse().unwrap();
        let fast = einsum("phi,ibj->phbj", &[&w, &x]).unwrap();
        let slow = naive_einsum(&spec, &[&w, &x]).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn contract_matches_naive_on_batched(
        p in 1usize..4, h in 1usize..3, b in 1usize..3, j in 1usize..5, k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let sizes = [('p', p), ('h', h), ('b', b), ('j', j), ('k', k)];
        let kk = rand_tensor(Shape::from_spec("phbk", &sizes).unwrap(), seed);
        let qq = rand_tensor(Shape::from_spec("phbj", &sizes).unwrap(), seed + 1);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let fast = einsum("phbk,phbj->hbjk", &[&kk, &qq]).unwrap();
        let slow = naive_einsum(&spec, &[&kk, &qq]).unwrap();
        prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn contraction_is_layout_invariant(
        m in 1usize..6, n in 1usize..6, k in 1usize..6,
        la in 0usize..2, lb in 0usize..2, lc in 0usize..2,
        seed in 0u64..1000,
    ) {
        let sizes = [('m', m), ('k', k), ('n', n)];
        let a = rand_tensor(Shape::from_spec("mk", &sizes).unwrap(), seed);
        let b = rand_tensor(Shape::from_spec("kn", &sizes).unwrap(), seed + 1);
        let spec: EinsumSpec = "mk,kn->mn".parse().unwrap();
        let base = einsum("mk,kn->mn", &[&a, &b]).unwrap();
        let ap = a.relayout(&Layout::all(2)[la]);
        let bp = b.relayout(&Layout::all(2)[lb]);
        let out = contract::contract(&spec, &ap, &bp, &Layout::all(2)[lc]).unwrap();
        prop_assert!(out.max_abs_diff(&base).unwrap() < 1e-4);
    }

    // A layout is a permutation of axis positions: its letters round-trip
    // through any shape of its rank and mean the same value in every
    // alphabet, its strides are the reference computation over the order,
    // and `Layout::all` enumerates — and `Ord` sorts — in the order the
    // sweep's own enumerator over axis strings did (the sweep samples
    // `config_space` by stride under `max_configs`, so the order is
    // behaviour).
    #[test]
    fn a_layout_is_its_permutation_in_every_alphabet(
        sizes in proptest::collection::vec(1usize..5, 5..6),
    ) {
        // what `gpusim::opmodel::permutations` was before `Layout::all`
        // replaced it
        fn spelled_permutations(axes: &[char]) -> Vec<String> {
            fn rec(axes: &[char], cur: &mut String, used: &mut [bool], out: &mut Vec<String>) {
                if cur.len() == axes.len() {
                    out.push(cur.clone());
                    return;
                }
                for i in 0..axes.len() {
                    if !used[i] {
                        used[i] = true;
                        cur.push(axes[i]);
                        rec(axes, cur, used, out);
                        cur.pop();
                        used[i] = false;
                    }
                }
            }
            let mut out = Vec::new();
            rec(axes, &mut String::new(), &mut vec![false; axes.len()], &mut out);
            out
        }
        for rank in 0..=5 {
            let named = |letters: &str| {
                Shape::new(letters.chars().zip(sizes.iter().copied()).take(rank)).unwrap()
            };
            let (shape, other) = (named("hbjki"), named("wxyzv"));
            let letters: Vec<char> = shape.axes().iter().map(|a| a.name()).collect();
            let all = Layout::all(rank);
            let spelled = spelled_permutations(&letters);
            prop_assert_eq!(all.len(), spelled.len());
            prop_assert!(all.windows(2).all(|w| w[0] < w[1]));
            for (l, spec) in all.iter().zip(&spelled) {
                prop_assert_eq!(&l.spec(&shape), spec);
                prop_assert_eq!(Layout::from_axis_order(&shape, spec).unwrap(), *l);
                prop_assert_eq!(Layout::from_axis_order(&other, &l.spec(&other)).unwrap(), *l);
                let order: Vec<usize> = l.order().collect();
                prop_assert_eq!(Layout::from_order(&order).unwrap(), *l);
                let mut strides = vec![0usize; rank];
                let mut acc = 1;
                for &axis in order.iter().rev() {
                    strides[axis] = acc;
                    acc *= shape.sizes()[axis];
                }
                prop_assert_eq!(l.strides(&shape), strides);
            }
        }
    }

    #[test]
    fn relayout_roundtrip_preserves_values(
        a in 1usize..4, b in 1usize..5, c in 1usize..4,
        l1 in 0usize..6, l2 in 0usize..6,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new([('a', a), ('b', b), ('c', c)]).unwrap();
        let t = rand_tensor(shape, seed);
        let layouts = Layout::all(3);
        let hop = t.relayout(&layouts[l1]).relayout(&layouts[l2]);
        prop_assert_eq!(hop.max_abs_diff(&t).unwrap(), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_any_layout(
        b in 1usize..4, j in 1usize..5, k in 2usize..8, layout in 0usize..6,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new([('b', b), ('j', j), ('k', k)]).unwrap();
        let t = rand_tensor(shape, seed).relayout(&Layout::all(3)[layout]);
        let y = softmax(&t, Axis('k')).unwrap();
        for bi in 0..b {
            for ji in 0..j {
                let s: f32 = (0..k).map(|ki| y.at(&[bi, ji, ki])).sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                for ki in 0..k {
                    prop_assert!(y.at(&[bi, ji, ki]) > 0.0);
                }
            }
        }
    }

    #[test]
    fn layernorm_standardizes_any_layout(
        b in 1usize..4, j in 1usize..4, i in 2usize..10, layout in 0usize..6,
        seed in 0u64..1000,
    ) {
        let shape = Shape::new([('b', b), ('j', j), ('i', i)]).unwrap();
        let t = rand_tensor(shape, seed).relayout(&Layout::all(3)[layout]);
        let mut gamma = Tensor::zeros(Shape::new([('i', i)]).unwrap());
        gamma.fill(1.0);
        let beta = Tensor::zeros(Shape::new([('i', i)]).unwrap());
        let (y, _) = layernorm(&t, Axis('i'), &gamma, &beta).unwrap();
        for bi in 0..b {
            for ji in 0..j {
                let mean: f32 = (0..i).map(|ii| y.at(&[bi, ji, ii])).sum::<f32>() / i as f32;
                prop_assert!(mean.abs() < 1e-3, "mean {} at ({bi},{ji})", mean);
            }
        }
    }

    #[test]
    fn fused_brd_equals_composition(
        b in 1usize..3, j in 1usize..5, u in 1usize..8, seed in 0u64..1000,
    ) {
        let shape = Shape::from_spec("bju", &[('b', b), ('j', j), ('u', u)]).unwrap();
        let x = rand_tensor(shape, seed);
        let bias = rand_tensor(Shape::new([('u', u)]).unwrap(), seed + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = fused::brd(&x, &bias, 0.0, &mut rng).unwrap();
        let expect = relu(&bias_add(&x, &bias).unwrap());
        prop_assert!(f.out.max_abs_diff(&expect).unwrap() < 1e-5);
    }

    #[test]
    fn fused_sm_equals_composition(
        b in 1usize..3, j in 1usize..4, k in 2usize..8, alpha in 0.05f32..2.0,
        seed in 0u64..1000,
    ) {
        let shape = Shape::from_spec("bjk", &[('b', b), ('j', j), ('k', k)]).unwrap();
        let beta = rand_tensor(shape, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = fused::sm(&beta, alpha, Axis('k'), 0.0, &mut rng).unwrap();
        let expect = softmax(&scale(&beta, alpha), Axis('k')).unwrap();
        prop_assert!(f.alpha.max_abs_diff(&expect).unwrap() < 1e-4);
    }

    #[test]
    fn bias_adjoint_identity(
        b in 1usize..4, j in 1usize..5, i in 1usize..6, seed in 0u64..1000,
    ) {
        // <bias_add(x, db) - x, w> == <db, bias_grad(w)> — bias add and
        // bias grad are adjoint linear maps.
        let shape = Shape::from_spec("bji", &[('b', b), ('j', j), ('i', i)]).unwrap();
        let x = rand_tensor(shape.clone(), seed);
        let w = rand_tensor(shape, seed + 1);
        let db = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 2);
        let lhs: f32 = {
            let y = bias_add(&x, &db).unwrap();
            y.iter().map(|(idx, v)| w.at(&idx) * (v - x.at(&idx))).sum()
        };
        let rhs: f32 = {
            let g = bias_grad(&w, &[Axis('i')]).unwrap();
            g.iter().map(|(idx, v)| db.at(&idx) * v).sum()
        };
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn relu_backward_zeroes_exactly_where_forward_did(
        n in 1usize..50, seed in 0u64..1000,
    ) {
        let shape = Shape::new([('x', n)]).unwrap();
        let x = rand_tensor(shape.clone(), seed);
        let dy = rand_tensor(shape, seed + 1);
        let y = relu(&x);
        let dx = relu_backward(&dy, &x).unwrap();
        for idx in 0..n {
            if y.at(&[idx]) == 0.0 && x.at(&[idx]) != 0.0 {
                prop_assert_eq!(dx.at(&[idx]), 0.0);
            }
        }
    }

    #[test]
    fn dropout_backward_is_mask_multiplication(
        n in 1usize..40, seed in 0u64..1000,
    ) {
        let shape = Shape::new([('x', n)]).unwrap();
        let dy = rand_tensor(shape.clone(), seed);
        let mut mask = Tensor::zeros(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        for m in mask.data_mut() {
            *m = if rng.gen::<f32>() < 0.5 { 0.0 } else { 2.0 };
        }
        let dx = dropout_backward(&dy, &mask).unwrap();
        for idx in 0..n {
            prop_assert_eq!(dx.at(&[idx]), dy.at(&[idx]) * mask.at(&[idx]));
        }
    }

    #[test]
    fn f16_roundtrip_is_idempotent(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        let once = F16::from_f32(x).to_f32();
        let twice = F16::from_f32(once).to_f32();
        if once.is_nan() {
            prop_assert!(twice.is_nan());
        } else {
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        }
    }

    #[test]
    fn f16_preserves_sign_and_order(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (ha, hb) = (F16::from_f32(a).to_f32(), F16::from_f32(b).to_f32());
        // conversion is monotone: a ≤ b implies ha ≤ hb
        if a <= b {
            prop_assert!(ha <= hb, "{a} -> {ha}, {b} -> {hb}");
        }
        if a != 0.0 && ha != 0.0 {
            prop_assert_eq!(a.signum(), ha.signum());
        }
    }

    // The lane bodies are monomorphised over contiguous slices (the reduce
    // axis has unit stride) and over strided views (any other layout); the
    // drivers pick by stride alone. Both instantiations must agree bitwise
    // at every logical index — values, saved activations, statistics and
    // the RNG end state.

    #[test]
    fn softmax_instantiations_agree_bitwise(
        b in 1usize..4, j in 1usize..4, k in 2usize..7, seed in 0u64..1000,
    ) {
        let x = rand_tensor(Shape::new([('b', b), ('j', j), ('k', k)]).unwrap(), seed);
        let unit = softmax(&x, Axis('k')).unwrap();
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "kbj").unwrap());
        let strided = softmax(&xp, Axis('k')).unwrap();
        assert_same_bits("softmax", &unit, &strided)?;
    }

    #[test]
    fn layernorm_instantiations_agree_bitwise(
        b in 1usize..4, j in 1usize..4, i in 2usize..7, seed in 0u64..1000,
    ) {
        let x = rand_tensor(Shape::new([('b', b), ('j', j), ('i', i)]).unwrap(), seed);
        let gamma = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 1);
        let beta = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 2);
        let (unit, us) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "ibj").unwrap());
        let (strided, ss) = layernorm(&xp, Axis('i'), &gamma, &beta).unwrap();
        assert_same_bits("layernorm", &unit, &strided)?;
        // stats are pushed in logical (b, j) order under either layout
        prop_assert_eq!(bits(&us.mean), bits(&ss.mean));
        prop_assert_eq!(bits(&us.inv_std), bits(&ss.inv_std));
    }

    #[test]
    fn sm_instantiations_agree_bitwise_with_dropout(
        b in 1usize..4, j in 1usize..5, k in 2usize..7, base in 0usize..3,
        p_idx in 0usize..3, seed in 0u64..1000,
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let x = rand_tensor(Shape::new([('b', b), ('j', j), ('k', k)]).unwrap(), seed);
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "kjb").unwrap());
        let mut r1 = StdRng::seed_from_u64(seed ^ 0x5A);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0x5A);
        let unit = fused::sm_causal_at(&x, 0.5, Axis('j'), Axis('k'), p, &mut r1, base).unwrap();
        let strided = fused::sm_causal_at(&xp, 0.5, Axis('j'), Axis('k'), p, &mut r2, base).unwrap();
        assert_same_bits("sm softmax", &unit.softmax, &strided.softmax)?;
        assert_same_bits("sm alpha", &unit.alpha, &strided.alpha)?;
        assert_same_bits("sm mask", &unit.mask, &strided.mask)?;
        // one draw per visible position when p > 0, none otherwise
        prop_assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn bdrln_instantiations_agree_bitwise_with_dropout(
        b in 1usize..4, j in 1usize..4, i in 2usize..7, p_idx in 0usize..3,
        residual_strided in any::<bool>(), seed in 0u64..1000,
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let shape = Shape::new([('b', b), ('j', j), ('i', i)]).unwrap();
        let x = rand_tensor(shape.clone(), seed);
        let mut residual = rand_tensor(shape, seed + 1);
        if residual_strided {
            // a unit-stride `x` with a strided residual takes the strided
            // instantiation as a whole
            residual = residual.relayout(&Layout::from_axis_order(x.shape(), "ijb").unwrap());
        }
        let bias = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 2);
        let gamma = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 3);
        let beta = rand_tensor(Shape::new([('i', i)]).unwrap(), seed + 4);
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "ibj").unwrap());
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xBD);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xBD);
        let unit = fused::bdrln(&x, &bias, &residual, &gamma, &beta, Axis('i'), p, &mut r1).unwrap();
        let strided =
            fused::bdrln(&xp, &bias, &residual, &gamma, &beta, Axis('i'), p, &mut r2).unwrap();
        assert_same_bits("bdrln mask", &unit.mask, &strided.mask)?;
        assert_same_bits("bdrln ln_input", &unit.ln_input, &strided.ln_input)?;
        assert_same_bits("bdrln out", &unit.out, &strided.out)?;
        prop_assert_eq!(bits(&unit.stats.mean), bits(&strided.stats.mean));
        prop_assert_eq!(bits(&unit.stats.inv_std), bits(&strided.stats.inv_std));
        prop_assert_eq!(r1.next_u64(), r2.next_u64());
    }

    // A third instantiation since the panel sweeps: a strided lane whose
    // neighbours are adjacent words runs up to `W` lanes abreast. Over every
    // layout of one tensor the drivers take all three walks (contiguous
    // lane, panel with its halved remainders, strided lane), and every one
    // must produce the natural layout's bits — values, masks, statistics in
    // lane order, and the RNG's next draw — with dead (all `−inf`), NaN and
    // `+inf` lanes sitting in *some* lanes of a panel.

    #[test]
    fn softmax_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), specials in 0usize..4, seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let mut x = rand_tensor(shape, seed);
        poison_some_lanes(&mut x, lane, specials, seed);
        let want = softmax(&x, lane).unwrap();
        for layout in Layout::all(x.shape().rank()) {
            let got = softmax(&x.relayout(&layout), lane).unwrap();
            assert_same_bits("softmax", &want, &got)?;
        }
    }

    // `panel_geometry`'s lanes end at 17 words; a softmax lane is reduced in
    // sixteen interleaved partials, so lanes up to 70 — every `len mod 16`,
    // whole blocks and a ragged end — beside an inner axis that cuts into
    // every halved panel
    #[test]
    fn softmax_walks_agree_bitwise_on_lanes_of_every_length(
        len in 1usize..71, inner in 1usize..36, specials in 0usize..4, seed in 0u64..1000,
    ) {
        let lane = Axis('l');
        let mut x = rand_tensor(Shape::new([('a', 2), ('l', len), ('c', inner)]).unwrap(), seed);
        poison_some_lanes(&mut x, lane, specials, seed);
        let want = softmax(&x, lane).unwrap();
        for layout in Layout::all(3) {
            let got = softmax(&x.relayout(&layout), lane).unwrap();
            assert_same_bits("softmax", &want, &got)?;
        }
    }

    #[test]
    fn layernorm_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let x = rand_tensor(shape, seed);
        let weights = Shape::new([(lane, x.shape().size(lane).unwrap())]).unwrap();
        let gamma = rand_tensor(weights.clone(), seed + 1);
        let beta = rand_tensor(weights, seed + 2);
        let (want, ws) = layernorm(&x, lane, &gamma, &beta).unwrap();
        for layout in Layout::all(x.shape().rank()) {
            let (got, gs) = layernorm(&x.relayout(&layout), lane, &gamma, &beta).unwrap();
            assert_same_bits("layernorm", &want, &got)?;
            // stats are in logical lane order whichever runs produced them
            prop_assert_eq!(bits(&ws.mean), bits(&gs.mean));
            prop_assert_eq!(bits(&ws.inv_std), bits(&gs.inv_std));
        }
    }

    #[test]
    fn sm_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), specials in 0usize..4, causal in any::<bool>(),
        drops in any::<bool>(), base in 0usize..3, seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let p = if drops { 0.3f32 } else { 0.0 };
        let mut x = rand_tensor(shape, seed);
        poison_some_lanes(&mut x, lane, specials, seed);
        // causal: any other axis is the query axis — the panel axis (which
        // keeps the lane-at-a-time walk) or one outside it
        let others: Vec<Axis> = x.shape().axes().iter().copied().filter(|&a| a != lane).collect();
        let query = others[seed as usize % others.len()];
        let run = |t: &Tensor| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
            let out = if causal {
                fused::sm_causal_at(t, 0.5, query, lane, p, &mut rng, base)
            } else {
                fused::sm(t, 0.5, lane, p, &mut rng)
            };
            (out.unwrap(), rng.next_u64())
        };
        let (want, next) = run(&x);
        for layout in Layout::all(x.shape().rank()) {
            let (got, got_next) = run(&x.relayout(&layout));
            assert_same_bits("sm softmax", &want.softmax, &got.softmax)?;
            assert_same_bits("sm alpha", &want.alpha, &got.alpha)?;
            assert_same_bits("sm mask", &want.mask, &got.mask)?;
            prop_assert_eq!(next, got_next);
        }
    }

    #[test]
    fn bdrln_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), drops in any::<bool>(), bias_on in 0usize..3,
        residual_follows in any::<bool>(), seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let p = if drops { 0.3f32 } else { 0.0 };
        let x = rand_tensor(shape.clone(), seed);
        let residual = rand_tensor(shape.clone(), seed + 1);
        let size = |a: Axis| (a, shape.size(a).unwrap());
        let weights = Shape::new([size(lane)]).unwrap();
        // the bias on the lane (one row for every lane), on the innermost
        // other axis (a different word per lane of a panel), or on both
        let inner = *shape.axes().iter().rev().find(|&&a| a != lane).unwrap();
        let bias_shape = match bias_on {
            0 => weights.clone(),
            1 => Shape::new([size(inner)]).unwrap(),
            _ => Shape::new([size(inner), size(lane)]).unwrap(),
        };
        let bias = rand_tensor(bias_shape, seed + 2);
        let gamma = rand_tensor(weights.clone(), seed + 3);
        let beta = rand_tensor(weights, seed + 4);
        let run = |x: &Tensor, residual: &Tensor| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBD);
            let out = fused::bdrln(x, &bias, residual, &gamma, &beta, lane, p, &mut rng).unwrap();
            (out, rng.next_u64())
        };
        let (want, next) = run(&x, &residual);
        for layout in Layout::all(shape.rank()) {
            // a residual in another layout than `x` shares no panel with it
            let r = if residual_follows { residual.relayout(&layout) } else { residual.clone() };
            let (got, got_next) = run(&x.relayout(&layout), &r);
            assert_same_bits("bdrln mask", &want.mask, &got.mask)?;
            assert_same_bits("bdrln ln_input", &want.ln_input, &got.ln_input)?;
            assert_same_bits("bdrln out", &want.out, &got.out)?;
            prop_assert_eq!(bits(&want.stats.mean), bits(&got.stats.mean));
            prop_assert_eq!(bits(&want.stats.inv_std), bits(&got.stats.inv_std));
            prop_assert_eq!(next, got_next);
        }
    }

    // The backward kernels run on the same enumerator: over every layout of
    // their operands — all three walks when the operands share the layout,
    // the strided one when they do not — dX and every dW word are the
    // natural layout's bits, and each fused kernel is its unfused operator
    // chain bit for bit.

    #[test]
    fn softmax_backward_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), follow in any::<bool>(), seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let dy = rand_tensor(shape.clone(), seed);
        let y = softmax(&rand_tensor(shape.clone(), seed + 1), lane).unwrap();
        let mask = mask_tensor(shape, seed + 2);
        let want = softmax_backward(&dy, &y, lane).unwrap();
        let want_bs = fused::bs(&dy, &mask, &y, lane, 0.5).unwrap();
        let after = dropout_backward(&dy, &mask).unwrap();
        let chain = scale(&softmax_backward(&after, &y, lane).unwrap(), 0.5);
        assert_same_bits("bs against its chain", &want_bs, &chain)?;
        for layout in Layout::all(y.shape().rank()) {
            let [dy, mask, y] = relaid([&dy, &mask, &y], &layout, follow);
            let got = softmax_backward(&dy, &y, lane).unwrap();
            assert_same_bits("softmax_backward", &want, &got)?;
            let got = fused::bs(&dy, &mask, &y, lane, 0.5).unwrap();
            assert_same_bits("bs", &want_bs, &got)?;
        }
    }

    #[test]
    fn layernorm_backward_walks_agree_bitwise_in_every_layout(
        geom in panel_geometry(), follow in any::<bool>(), seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let dy = rand_tensor(shape.clone(), seed);
        let dy2 = rand_tensor(shape.clone(), seed + 1);
        let x = rand_tensor(shape.clone(), seed + 2);
        let mask = mask_tensor(shape.clone(), seed + 3);
        let weights = Shape::new([(lane, shape.size(lane).unwrap())]).unwrap();
        let gamma = rand_tensor(weights.clone(), seed + 4);
        let (_, stats) = layernorm(&x, lane, &gamma, &rand_tensor(weights, seed + 5)).unwrap();
        let want_dx = layernorm_backward_input(&dy, &x, lane, &gamma, &stats).unwrap();
        let want_dw = layernorm_backward_weights(&dy, &x, lane, &stats).unwrap();
        // BLNRD and EBSB against their chains, dW included
        let want_blnrd = fused::blnrd(&dy, &x, &gamma, &mask, lane, &stats).unwrap();
        let dropped = dropout_backward(&want_dx, &mask).unwrap();
        assert_same_bits("blnrd dx", &want_blnrd.0, &dropped)?;
        assert_same_bits("blnrd dx_ln", &want_blnrd.1, &want_dx)?;
        let want_ebsb = fused::ebsb(&dy, &dy2, &x, lane, &stats).unwrap();
        let dsum = add(&dy, &dy2).unwrap();
        let chain_dw = layernorm_backward_weights(&dsum, &x, lane, &stats).unwrap();
        assert_same_bits("ebsb dsum", &want_ebsb.0, &dsum)?;
        assert_same_bits("ebsb dgamma", &want_ebsb.1, &chain_dw.0)?;
        assert_same_bits("ebsb dbeta", &want_ebsb.2, &chain_dw.1)?;
        for layout in Layout::all(shape.rank()) {
            let [dy, dy2, x, mask] = relaid([&dy, &dy2, &x, &mask], &layout, follow);
            let got = layernorm_backward_input(&dy, &x, lane, &gamma, &stats).unwrap();
            assert_same_bits("layernorm dX", &want_dx, &got)?;
            let got = layernorm_backward_weights(&dy, &x, lane, &stats).unwrap();
            assert_same_bits("layernorm dgamma", &want_dw.0, &got.0)?;
            assert_same_bits("layernorm dbeta", &want_dw.1, &got.1)?;
            let got = fused::blnrd(&dy, &x, &gamma, &mask, lane, &stats).unwrap();
            assert_same_bits("blnrd dx", &want_blnrd.0, &got.0)?;
            assert_same_bits("blnrd dx_ln", &want_blnrd.1, &got.1)?;
            let got = fused::ebsb(&dy, &dy2, &x, lane, &stats).unwrap();
            assert_same_bits("ebsb dsum", &want_ebsb.0, &got.0)?;
            assert_same_bits("ebsb dgamma", &want_ebsb.1, &got.1)?;
            assert_same_bits("ebsb dbeta", &want_ebsb.2, &got.2)?;
        }
    }

    #[test]
    fn activation_backward_agrees_bitwise_in_every_layout(
        geom in panel_geometry(), follow in any::<bool>(), gelu in any::<bool>(),
        bias_on in 0usize..3, seed in 0u64..1000,
    ) {
        let (shape, lane) = geom;
        let kind = if gelu { ActivationKind::Gelu } else { ActivationKind::Relu };
        let dy = rand_tensor(shape.clone(), seed);
        let pre = rand_tensor(shape.clone(), seed + 1);
        let mask = mask_tensor(shape.clone(), seed + 2);
        // the bias over one axis, another, or both (stored in that order)
        let inner = *shape.axes().iter().rev().find(|&&a| a != lane).unwrap();
        let axes = [vec![lane], vec![inner], vec![inner, lane]];
        let axes = &axes[bias_on][..];
        let want = activate_backward(&dy, &pre, kind).unwrap();
        let want_db = bias_grad(&dy, axes).unwrap();
        let want_bdrb = fused::bdrb_act(&dy, &mask, &pre, kind, axes).unwrap();
        let after = dropout_backward(&dy, &mask).unwrap();
        let chain = activate_backward(&after, &pre, kind).unwrap();
        assert_same_bits("bdrb dx against its chain", &want_bdrb.0, &chain)?;
        assert_same_bits("bdrb dbias", &want_bdrb.1, &bias_grad(&chain, axes).unwrap())?;
        for layout in Layout::all(shape.rank()) {
            let [dy, mask, pre] = relaid([&dy, &mask, &pre], &layout, follow);
            let got = activate_backward(&dy, &pre, kind).unwrap();
            assert_same_bits("activate_backward", &want, &got)?;
            assert_same_bits("bias_grad", &want_db, &bias_grad(&dy, axes).unwrap())?;
            // `zip_map` across two layouts when the mask does not follow
            assert_same_bits("dropout_backward", &after, &dropout_backward(&dy, &mask).unwrap())?;
            let got = fused::bdrb_act(&dy, &mask, &pre, kind, axes).unwrap();
            assert_same_bits("bdrb dx", &want_bdrb.0, &got.0)?;
            assert_same_bits("bdrb dbias", &want_bdrb.1, &got.1)?;
        }
    }

    #[test]
    fn residual_add_commutes(n in 1usize..30, seed in 0u64..1000) {
        let shape = Shape::new([('x', n)]).unwrap();
        let a = rand_tensor(shape.clone(), seed);
        let b = rand_tensor(shape, seed + 1);
        let ab = add(&a, &b).unwrap();
        let ba = add(&b, &a).unwrap();
        prop_assert!(ab.max_abs_diff(&ba).unwrap() == 0.0);
    }
}

/// The strided GEMM and the contraction compiler over it: bitwise equality
/// with the scalar `k`-ascending reference whatever the tiling, strides,
/// operand roles or pack path.
mod gemm {
    use super::*;
    use xform_tensor::into_ops::{contract_into, ContractPlan};
    use xform_tensor::matmul::{
        gemm, gemm_packed, pack_panels, panel_words, MatMut, MatRef, Start, KC, MC, MR, NR,
    };

    /// A `rows×cols` matrix of `vals` (row-major) stored with the drawn
    /// strides: transposed or not, every step stretched by `gap`, `pad`
    /// dead words after each run. Dead words hold `fill`.
    struct Stored {
        data: Vec<f32>,
        rs: usize,
        cs: usize,
    }

    fn store(
        rows: usize,
        cols: usize,
        vals: &[f32],
        transposed: bool,
        gap: usize,
        pad: usize,
        fill: f32,
    ) -> Stored {
        let (rs, cs) = if transposed {
            (gap, gap * rows + pad)
        } else {
            (gap * cols + pad, gap)
        };
        let len = if rows == 0 || cols == 0 {
            pad
        } else {
            (rows - 1) * rs + (cols - 1) * cs + 1 + pad
        };
        let mut data = vec![fill; len];
        for r in 0..rows {
            for c in 0..cols {
                data[r * rs + c * cs] = vals[r * cols + c];
            }
        }
        Stored { data, rs, cs }
    }

    /// `c (+)= a·b`, one accumulator per element, `k` ascending.
    fn reference(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        start: Start,
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = match start {
                    Start::FromC => c0[i * n + j],
                    Start::FromZero => 0.0,
                };
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    /// Runs `gemm` (and `gemm_packed`) on the stored operands and checks
    /// every element of C against `want` — bitwise where `want` is not NaN,
    /// NaN for NaN — and that no dead word of C's buffer moved.
    #[allow(clippy::too_many_arguments)]
    fn check_gemm(
        (m, n, k): (usize, usize, usize),
        a: &Stored,
        b: &Stored,
        c: &Stored,
        want: &[f32],
        start: Start,
        fill: f32,
    ) -> Result<(), String> {
        let mut direct = c.data.clone();
        gemm(
            m,
            n,
            k,
            MatRef::new(&a.data, a.rs, a.cs),
            MatRef::new(&b.data, b.rs, b.cs),
            MatMut::new(&mut direct, c.rs, c.cs),
            start,
        );
        let mut panels = vec![f32::NAN; panel_words(n, k)];
        pack_panels(n, k, MatRef::new(&b.data, b.rs, b.cs), &mut panels);
        let mut packed = c.data.clone();
        gemm_packed(
            m,
            n,
            k,
            MatRef::new(&a.data, a.rs, a.cs),
            &panels,
            MatMut::new(&mut packed, c.rs, c.cs),
            start,
        );
        for (what, got) in [("gemm", &direct), ("gemm_packed", &packed)] {
            let mut live = vec![false; got.len()];
            for i in 0..m {
                for j in 0..n {
                    let at = i * c.rs + j * c.cs;
                    live[at] = true;
                    let (g, w) = (got[at], want[i * n + j]);
                    prop_assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "{} c[{},{}] = {} but the reference has {}",
                        what,
                        i,
                        j,
                        g,
                        w
                    );
                }
            }
            for (at, &v) in got.iter().enumerate() {
                prop_assert!(
                    live[at] || v.to_bits() == fill.to_bits(),
                    "{} wrote {} into dead word {} of c",
                    what,
                    v,
                    at
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Sizes 0..=70 cover 0, 1 and non-multiples of `MR` and `NR`; a
        // quarter of the cases add one or two whole `KC` blocks to `k`,
        // and a quarter each force the matrix–vector shapes.
        #[test]
        fn strided_gemm_is_bitwise_the_scalar_reference(
            dims in (0usize..71, 0usize..71, 0usize..71, 0usize..8),
            a_lay in (0usize..2, 1usize..3, 0usize..4),
            b_lay in (0usize..2, 1usize..3, 0usize..4),
            c_lay in (0usize..2, 1usize..3, 0usize..4),
            overwrite in 0usize..2,
            seed in 0u64..1000,
        ) {
            let (mut m, mut n, mut k, shape) = dims;
            match shape {
                0 => k += KC,
                1 => k += 2 * KC,
                2 | 3 => n = 1,
                4 | 5 => m = 1,
                _ => {}
            }
            prop_assert!(MR > 1 && NR > 1 && 70 % NR != 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let (av, bv, cv) = (
                rand_vec(m * k, &mut rng),
                rand_vec(k * n, &mut rng),
                rand_vec(m * n, &mut rng),
            );
            let start = if overwrite == 1 { Start::FromZero } else { Start::FromC };
            let fill = -7.25f32;
            let a = store(m, k, &av, a_lay.0 == 1, a_lay.1, a_lay.2, fill);
            let b = store(k, n, &bv, b_lay.0 == 1, b_lay.1, b_lay.2, fill);
            let c = store(m, n, &cv, c_lay.0 == 1, c_lay.1, c_lay.2, fill);
            let want = reference((m, n, k), &av, &bv, &cv, start);
            check_gemm((m, n, k), &a, &b, &c, &want, start, fill)?;
        }

        // A NaN or infinite last row of A (a lone row of an `MR` tile when
        // `m` is odd) and last column of B (a lane next to the zero
        // padding of an edge panel) reach exactly the row and column of C
        // the reference says they reach, and no dead word.
        #[test]
        fn non_finite_edge_rows_and_columns_stay_where_they_belong(
            dims in (1usize..40, 1usize..40, 1usize..40),
            poison in 0usize..3,
            lay in (0usize..2, 0usize..2, 0usize..2, 0usize..3),
            overwrite in 0usize..2,
            seed in 0u64..1000,
        ) {
            let (m, n, k) = dims;
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison];
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut av, mut bv, cv) = (
                rand_vec(m * k, &mut rng),
                rand_vec(k * n, &mut rng),
                rand_vec(m * n, &mut rng),
            );
            av[(m - 1) * k..].fill(bad);
            for kk in 0..k {
                bv[kk * n + n - 1] = bad;
            }
            let start = if overwrite == 1 { Start::FromZero } else { Start::FromC };
            let fill = 3.5f32;
            let a = store(m, k, &av, lay.0 == 1, 1, lay.3, fill);
            let b = store(k, n, &bv, lay.1 == 1, 1, lay.3, fill);
            let c = store(m, n, &cv, lay.2 == 1, 1, lay.3, fill);
            let want = reference((m, n, k), &av, &bv, &cv, start);
            for i in 0..m - 1 {
                for j in 0..n - 1 {
                    prop_assert!(want[i * n + j].is_finite());
                }
            }
            check_gemm((m, n, k), &a, &b, &c, &want, start, fill)?;
        }
    }

    /// Blocks of `MC` rows and what is left over them — a last block one
    /// row short, exact, one single-row slab, and `MR − 1` of them after two
    /// whole blocks — with A strided both ways and both `Start`s, over a
    /// depth with a block edge in it and a ragged last panel.
    #[test]
    fn row_block_edges_are_bitwise_the_scalar_reference() {
        let (n, k, fill) = (NR + 3, KC + 5, -7.25f32);
        let mut rng = StdRng::seed_from_u64(5);
        for m in [MC - 1, MC, MC + 1, 2 * MC + MR - 1] {
            let (av, bv, cv) = (
                rand_vec(m * k, &mut rng),
                rand_vec(k * n, &mut rng),
                rand_vec(m * n, &mut rng),
            );
            let b = store(k, n, &bv, false, 1, 0, fill);
            let c = store(m, n, &cv, false, 1, 2, fill);
            for (transposed, start) in [
                (false, Start::FromC),
                (true, Start::FromC),
                (false, Start::FromZero),
                (true, Start::FromZero),
            ] {
                let a = store(m, k, &av, transposed, 2, 3, fill);
                let want = reference((m, n, k), &av, &bv, &cv, start);
                check_gemm((m, n, k), &a, &b, &c, &want, start, fill).unwrap();
            }
        }
    }

    /// The packed A block outlives a call: a short call after a tall one on
    /// the same thread must read only the slab words it packed itself, so
    /// its bits are those of the same call on a thread that never ran a
    /// GEMM (and of the reference).
    #[test]
    fn a_short_call_after_a_tall_one_has_a_cold_calls_bits() {
        let mut rng = StdRng::seed_from_u64(6);
        let (n, k) = (NR + 1, KC + 9);
        let run = |m: usize, av: &[f32], bv: &[f32], transposed: bool| {
            let a = store(m, k, av, transposed, 1, 0, 0.0);
            let mut c = vec![f32::NAN; m * n];
            gemm(
                m,
                n,
                k,
                MatRef::new(&a.data, a.rs, a.cs),
                MatRef::row_major(bv, n),
                MatMut::row_major(&mut c, n),
                Start::FromZero,
            );
            c
        };
        let bv = rand_vec(k * n, &mut rng);
        let tall = vec![f32::NAN; (MC + MR + 1) * k];
        for m in [1, MR - 1, MR, MR + 1, 2 * MR + 1] {
            let av = rand_vec(m * k, &mut rng);
            let want = reference((m, n, k), &av, &bv, &[], Start::FromZero);
            for transposed in [false, true] {
                // every slab word the tall call leaves behind is a NaN
                run(MC + MR + 1, &tall, &bv, transposed);
                let warm = run(m, &av, &bv, transposed);
                let cold = std::thread::scope(|s| {
                    s.spawn(|| run(m, &av, &bv, transposed)).join().unwrap()
                });
                assert_eq!(bits(&warm), bits(&cold), "m = {m}");
                assert_eq!(bits(&warm), bits(&want), "m = {m}");
            }
        }
    }

    /// A NaN or infinite row of A — at every position of an `MR` slab and
    /// as each leftover single row — reaches its own row of C and no other.
    #[test]
    fn a_non_finite_row_of_a_stays_in_its_own_row_of_c() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, n, k, fill) = (2 * MR + MR - 1, NR + 2, 19, 3.5f32);
        let (bv, cv) = (rand_vec(k * n, &mut rng), rand_vec(m * n, &mut rng));
        let b = store(k, n, &bv, false, 1, 0, fill);
        let c = store(m, n, &cv, false, 1, 0, fill);
        for bad_row in 0..m {
            for (bad, transposed) in [(f32::NAN, false), (f32::INFINITY, true)] {
                let mut av = rand_vec(m * k, &mut rng);
                av[bad_row * k..][..k].fill(bad);
                let a = store(m, k, &av, transposed, 1, 0, fill);
                let want = reference((m, n, k), &av, &bv, &cv, Start::FromC);
                for (i, row) in want.chunks(n).enumerate() {
                    assert_eq!(row.iter().all(|v| v.is_finite()), i != bad_row);
                }
                check_gemm((m, n, k), &a, &b, &c, &want, Start::FromC, fill).unwrap();
            }
        }
    }

    /// A matrix–vector product is the vector–matrix product of the
    /// transposes, to the bit: `n == 1` runs as that `m == 1` problem.
    #[test]
    fn a_matrix_vector_product_is_the_transposed_single_row_problem() {
        let mut rng = StdRng::seed_from_u64(9);
        for (m, k) in [(2, 1), (MR + 1, 7), (NR + 5, KC + 3), (3 * NR, 2 * KC)] {
            let (av, xv) = (rand_vec(m * k, &mut rng), rand_vec(k, &mut rng));
            let (a, x) = (MatRef::row_major(&av, k), MatRef::row_major(&xv, 1));
            let (mut y, mut yt) = (vec![f32::NAN; m], vec![f32::NAN; m]);
            gemm(m, 1, k, a, x, MatMut::row_major(&mut y, 1), Start::FromZero);
            let row = MatMut::row_major(&mut yt, m);
            gemm(1, m, k, x.t(), a.t(), row, Start::FromZero);
            assert_eq!(bits(&y), bits(&yt), "({m},{k})");
            let want = reference((m, 1, k), &av, &xv, &[], Start::FromZero);
            assert_eq!(bits(&y), bits(&want), "({m},{k})");
        }
    }

    /// The six forward einsums of a transformer block.
    const FORWARD_EINSUMS: [&str; 6] = [
        "phi,ibj->phbj",
        "phbk,phbj->hbjk",
        "whbk,hbjk->whbj",
        "whi,whbj->ibj",
        "ui,ibj->ubj",
        "iu,ubj->ibj",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        // Every layout of either input, with the output layouts cycled
        // through alongside: `contract` agrees with `naive_einsum`, and
        // bitwise with the same plan driven through the whole-operand
        // gather fallback.
        #[test]
        fn contract_on_every_operand_layout_equals_naive_and_the_gather_fallback(
            sizes in (1usize..4, 1usize..4, 1usize..4, 1usize..4),
            more in (1usize..4, 1usize..4, 1usize..4),
            seed in 0u64..1000,
        ) {
            let table = [
                ('p', sizes.0), ('w', sizes.0), ('h', sizes.1), ('i', sizes.2), ('b', sizes.3),
                ('j', more.0), ('k', more.1), ('u', more.2),
            ];
            for (si, text) in FORWARD_EINSUMS.iter().enumerate() {
                let spec: EinsumSpec = text.parse().unwrap();
                let label = |axes: &[Axis]| axes.iter().map(|a| a.name()).collect::<String>();
                let a = rand_tensor(
                    Shape::from_spec(&label(&spec.operands()[0]), &table).unwrap(),
                    seed + si as u64,
                );
                let b = rand_tensor(
                    Shape::from_spec(&label(&spec.operands()[1]), &table).unwrap(),
                    seed + 100 + si as u64,
                );
                let slow = naive_einsum(&spec, &[&a, &b]).unwrap();
                let outs = Layout::all(spec.output().len());
                for (ia, la) in Layout::all(a.shape().rank()).iter().enumerate() {
                    for (ib, lb) in Layout::all(b.shape().rank()).iter().enumerate() {
                        let lc = &outs[(7 * ia + ib) % outs.len()];
                        let (ap, bp) = (a.relayout(la), b.relayout(lb));
                        let fast = contract::contract(&spec, &ap, &bp, lc).unwrap();
                        prop_assert!(
                            fast.max_abs_diff(&slow).unwrap() < 1e-4,
                            "{} in layouts {} {} -> {} disagrees with naive_einsum",
                            text, la, lb, lc
                        );
                        let mut plan = ContractPlan::compile(
                            &spec,
                            ap.shape(),
                            ap.strides(),
                            bp.shape(),
                            bp.strides(),
                            fast.strides(),
                        )
                        .unwrap();
                        (plan.a.view, plan.b.view, plan.c.view) = (None, None, None);
                        let mut out = vec![f32::NAN; fast.len()];
                        let mut scratch = vec![f32::NAN; plan.scratch_words()];
                        contract_into(&plan, ap.data(), bp.data(), &mut out, &mut scratch);
                        prop_assert!(
                            bits(&out) == bits(fast.data()),
                            "{} in layouts {} {} -> {}: views and gathers disagree",
                            text, la, lb, lc
                        );
                    }
                }
            }
        }
    }
}

/// The tile-program driver (`into_ops::tile_into`) against the chain of
/// allocating kernels it stands for — `contract` of the first contraction,
/// the tail's whole-tensor kernel, `contract` of the second over the tail's
/// output, every intermediate materialized — bit for bit, masks included:
/// the driver keys its masks where the chain's first kernel did.
mod tile_program {
    use super::*;
    use xform_tensor::into_ops::{tile_into, RowTail, TilePlan, ATTENTION_TILE_ROWS};
    use xform_tensor::lanes::Dropout;
    use xform_tensor::matmul::{KC, NR};
    use xform_tensor::ops::dropout::dropout_disabled;
    use ActivationKind::Gelu;

    /// The tail classes, each with the contractions around it. Every
    /// second contraction sums over the tile's columns.
    #[derive(Debug, Clone, Copy)]
    enum Class {
        /// Attention: scale/mask/softmax/dropout between the scores and the
        /// context, over the block's projections or position-major caches.
        Softmax { cache_major: bool },
        /// BRD behind a projection, one bias word per row.
        Brd,
        /// BDR likewise, with a residual stream.
        Bdr,
        /// The head's bias and softmax, one bias word per column.
        Bsv,
    }

    impl Class {
        fn specs(self) -> (EinsumSpec, EinsumSpec) {
            let (first, second) = match self {
                Class::Softmax { cache_major: false } => ("phbk,phbj->hbjk", "whbk,hbjk->whbj"),
                Class::Softmax { cache_major: true } => ("kphb,phbj->hbjk", "kwhb,hbjk->whbj"),
                Class::Brd | Class::Bdr => ("ui,ibj->ubj", "wbj,ubj->uw"),
                Class::Bsv => ("ibj,vi->bjv", "wv,bjv->bjw"),
            };
            (first.parse().unwrap(), second.parse().unwrap())
        }
    }

    /// One program: its operands (in whatever layouts), the output's
    /// layout, a second contraction or none, masking, dropout, tile height.
    struct Program {
        class: Class,
        a: Tensor,
        b: Tensor,
        v: Tensor,
        bias: Tensor,
        residual: Tensor,
        out: Layout,
        second: bool,
        /// Causal (the softmax's): the absolute position of row 0.
        causal: Option<usize>,
        p: f32,
        tile_rows: usize,
    }

    impl Program {
        /// The chain: the streams the tail writes (natural layout), the
        /// rows it hands on, and the second contraction's output, if any.
        fn chain(&self, rng: &mut StdRng) -> (Vec<Tensor>, Tensor, Option<Tensor>) {
            let (first, second) = self.class.specs();
            let rank = first.output().len();
            let head =
                contract::contract(&first, &self.a, &self.b, &Layout::row_major(rank)).unwrap();
            let (streams, rows) = match self.class {
                Class::Softmax { .. } => {
                    let (j, k) = (Axis('j'), Axis('k'));
                    let sm = match self.causal {
                        Some(pos) => fused::sm_causal_at(&head, 0.5, j, k, self.p, rng, pos),
                        None => fused::sm(&head, 0.5, k, self.p, rng),
                    };
                    (vec![], sm.unwrap().alpha)
                }
                Class::Brd => {
                    let r = fused::brd_act(&head, &self.bias, Gelu, self.p, rng).unwrap();
                    (vec![r.pre_activation, r.out.clone(), r.mask], r.out)
                }
                Class::Bdr => {
                    let biased = bias_add(&head, &self.bias).unwrap();
                    let (dropped, mask) = if self.p > 0.0 {
                        dropout(&biased, self.p, rng)
                    } else {
                        dropout_disabled(&biased)
                    };
                    let out = add(&dropped, &self.residual).unwrap();
                    (vec![mask, out.clone()], out)
                }
                Class::Bsv => {
                    let out = softmax(&bias_add(&head, &self.bias).unwrap(), Axis('v')).unwrap();
                    (vec![out.clone()], out)
                }
            };
            let then =
                (self.second).then(|| contract::contract(&second, &self.v, &rows, &self.out));
            (streams, rows, then.map(Result::unwrap))
        }

        /// The driver, its streams and second output over poison, the
        /// output laid out like `like`, its masks keyed by `key`.
        fn tile(&self, like: Option<&Tensor>, key: &StdRng) -> (Vec<Vec<f32>>, Vec<f32>) {
            let (first, second) = self.class.specs();
            fn of(t: &Tensor) -> (&Shape, &[usize]) {
                (t.shape(), t.strides())
            }
            let then = like.map(|like| (&second, of(&self.v), like.strides()));
            let plan = TilePlan::compile(&first, of(&self.a), of(&self.b), then, self.tile_rows)
                .expect("the forward chains compile in any layout");
            let words = plan.first.batch * plan.first.m * plan.first.n;
            let mut streams = vec![vec![f32::NAN; words]; 3];
            let [s0, s1, s2] = &mut streams[..] else {
                unreachable!()
            };
            let bias = self.bias.data();
            let mut tail = match self.class {
                Class::Softmax { .. } => RowTail::Softmax {
                    scaler: 0.5,
                    causal: self.causal,
                },
                Class::Brd => RowTail::BiasActDrop {
                    bias,
                    kind: Gelu,
                    pre_activation: s0,
                    out: s1,
                    mask: s2,
                },
                Class::Bdr => RowTail::BiasDropResidual {
                    bias,
                    residual: self.residual.data(),
                    mask: s0,
                    out: s1,
                },
                Class::Bsv => RowTail::BiasSoftmax { bias, out: s0 },
            };
            let mut out = vec![f32::NAN; like.map_or(0, Tensor::len)];
            tile_into(
                &plan,
                self.a.data(),
                self.b.data(),
                &mut tail,
                like.map(|_| (self.v.data(), &mut out[..])),
                &Dropout::new(self.p, key).unwrap(),
                &mut vec![f32::NAN; plan.scratch_words()],
            );
            (streams, out)
        }
    }

    /// Extents on both sides of every block the driver cuts by — a panel of
    /// query rows, a vector of key columns, a `KC` block of keys (two and a
    /// bit of them, so the V pack spans blocks and a causal panel skips
    /// one) — with `j ≠ k`; one query row is the decode step's shape.
    fn extents() -> impl Strategy<Value = (usize, usize)> {
        let rows = [
            1,
            7,
            ATTENTION_TILE_ROWS,
            ATTENTION_TILE_ROWS + 5,
            2 * ATTENTION_TILE_ROWS + 9,
        ];
        let keys = [1, NR - 1, 37, KC, KC + 44, 2 * KC + 3];
        (0..rows.len(), 0..keys.len()).prop_map(move |(r, c)| (rows[r], keys[c]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Every tail class, with a second contraction and without (the
        // softmax's weights are a tile no stream holds: it runs only ahead
        // of one); A, B and V in every layout; tiles of the attention panel,
        // of one row, of a height that does not divide the rows, and of more
        // rows than there are.
        #[test]
        fn the_tile_program_is_its_chain_bitwise(
            (class, second) in (0usize..5, any::<bool>()),
            (j, k) in extents(),
            (b, h) in (1usize..3, 1usize..3),
            (depth, width, wide) in (0usize..4, 0usize..4, 0usize..4),
            (mask, pos) in (any::<bool>(), 0usize..600),
            (p, vocab) in (0usize..3, 0usize..4),
            height in 0usize..4,
            lay in (0usize..24, 0usize..24, 0usize..24, 0usize..24),
            seed in 0u64..1000,
        ) {
            let class = [
                Class::Softmax { cache_major: false },
                Class::Softmax { cache_major: true },
                Class::Brd,
                Class::Bdr,
                Class::Bsv,
            ][class];
            let softmax = matches!(class, Class::Softmax { .. });
            // the bias classes: `u` rows, `b·j` columns (the head: `b·j`
            // rows, `v` columns), a depth `i` of up to two and a bit `KC`
            // blocks; at most 37 query rows, so the chain stays small
            let (jb, wide) = (j.min(37), [1, 3, 17, 2 * KC + 3][wide]);
            let (depth, width) = ([1, 3, 16, 20][depth], [1, 2, 16, 17][width]);
            let table = [
                ('p', depth), ('w', width), ('h', h), ('b', b),
                ('j', if softmax { j } else { jb }), ('k', k),
                ('u', width + 5), ('i', wide), ('v', [1, 15, 37, 7][vocab]),
            ];
            let t = |spec: &str, layout: usize, seed: u64| {
                let t = rand_tensor(Shape::from_spec(spec, &table).unwrap(), seed);
                let layouts = Layout::all(t.shape().rank());
                t.relayout(&layouts[layout % layouts.len()])
            };
            let (first, second_spec) = class.specs();
            let labels = |axes: &[Axis]| axes.iter().map(|a| a.name()).collect::<String>();
            let [la, lb] = first.operands() else { unreachable!() };
            let program = Program {
                class,
                a: t(&labels(la), lay.0, seed),
                b: t(&labels(lb), lay.1, seed + 1),
                v: t(&labels(&second_spec.operands()[0]), lay.2, seed + 2),
                bias: t(if matches!(class, Class::Bsv) { "v" } else { "u" }, 0, seed + 3),
                residual: t("ubj", 0, seed + 4),
                out: {
                    let layouts = Layout::all(second_spec.output().len());
                    layouts[lay.3 % layouts.len()]
                },
                second: second || softmax,
                // row 0 somewhere in the keys, the last rows often past them
                causal: (softmax && mask).then_some(pos % k),
                p: [0.0, 0.1, 0.5][p],
                tile_rows: 0,
            };
            let key = StdRng::seed_from_u64(seed);
            let (streams, _, then) = program.chain(&mut key.clone());
            let rows = match class {
                Class::Softmax { .. } => j,
                Class::Brd | Class::Bdr => width + 5,
                Class::Bsv => b * jb,
            };
            let program = Program {
                tile_rows: [ATTENTION_TILE_ROWS, 1, rows / 2 + 1, rows + 3][height],
                ..program
            };
            let (got, out) = program.tile(then.as_ref(), &key);
            for (s, (want, got)) in streams.iter().zip(&got).enumerate() {
                prop_assert!(bits(got) == bits(want.data()), "stream {} differs", s);
            }
            if let Some(want) = then {
                prop_assert!(bits(&out) == bits(want.data()), "the second product differs");
            }
        }
    }

    /// The lane rules `softmax_lane` documents, through the driver: a fully
    /// masked (all `−inf`) row is zero and shifts no later row's masks, a
    /// NaN in a row's visible prefix poisons that row and no other, a `+inf`
    /// likewise.
    #[test]
    fn dead_and_poisoned_rows_stay_their_own() {
        let (j, k) = (ATTENTION_TILE_ROWS + 3, KC + 9);
        let table = [('p', 4), ('w', 3), ('h', 2), ('b', 1), ('j', j), ('k', k)];
        let unit = |spec: &str, seed| {
            let shape = Shape::from_spec(spec, &table).unwrap();
            Tensor::random(
                shape,
                &Uniform::new(0.1f32, 1.0),
                &mut StdRng::seed_from_u64(seed),
            )
        };
        // positive keys, so a query row of `∓inf` scores `∓inf` at every key
        let (mut qq, mut kk, vv) = (unit("phbj", 1), unit("phbk", 2), unit("whbk", 3));
        let (dead, blown, nan_key) = (2, ATTENTION_TILE_ROWS + 1, 4);
        for d in 0..4 {
            for hh in 0..2 {
                qq.set(&[d, hh, 0, dead], f32::NEG_INFINITY);
                qq.set(&[d, hh, 0, blown], f32::INFINITY);
            }
        }
        // one key of head 0 is NaN: under the causal mask only rows from
        // `nan_key` on see it — `dead` is before it
        kk.set(&[0, 0, 0, nan_key], f32::NAN);
        for (causal, p) in [(Some(0), 0.3f32), (None, 0.0)] {
            let program = Program {
                class: Class::Softmax { cache_major: false },
                a: kk.clone(),
                b: qq.clone(),
                v: vv.clone(),
                bias: unit("w", 4),
                residual: unit("w", 5),
                out: Layout::row_major(4),
                second: true,
                causal,
                p,
                tile_rows: ATTENTION_TILE_ROWS,
            };
            let key = StdRng::seed_from_u64(8);
            let (_, weights, want) = program.chain(&mut key.clone());
            let want = want.unwrap();
            let (_, got) = program.tile(Some(&want), &key);
            // the same bits, NaN for NaN (a product of two NaNs keeps the
            // payload of whichever operand the GEMM's role choice put first)
            for (g, w) in got.iter().zip(want.data()) {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{g} vs {w}"
                );
            }
            let row = |hh: usize, r: usize| -> Vec<f32> {
                (0..3).map(|w| got[((w * 2 + hh) * j) + r]).collect()
            };
            for (hh, r) in (0..2).flat_map(|hh| (0..j).map(move |r| (hh, r))) {
                // the NaN key: every row of head 0 that sees it, none of head 1
                let sees_nan = hh == 0 && (causal.is_none() || r >= nan_key);
                let row = row(hh, r);
                if r == blown || sees_nan {
                    assert!(
                        row.iter().all(|v| v.is_nan()),
                        "{causal:?} row {r} of head {hh}"
                    );
                } else if r == dead {
                    // zero weights and a `+0` context
                    assert!(row.iter().all(|v| v.to_bits() == 0), "{causal:?} head {hh}");
                    assert!((0..k).all(|kk| weights.at(&[hh, 0, dead, kk]) == 0.0));
                } else {
                    assert!(
                        row.iter().all(|v| v.is_finite()),
                        "{causal:?} row {r} of head {hh}"
                    );
                }
            }
        }
    }
}

mod parser_robustness {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn einsum_parser_never_panics(s in "[a-d,>-]{0,12}") {
            // arbitrary strings either parse or error; no panics
            let _ = s.parse::<EinsumSpec>();
        }

        #[test]
        fn parsed_specs_roundtrip_through_display(
            a in "[a-f]{1,4}", b in "[a-f]{1,4}",
        ) {
            let uniq = |s: &str| {
                let mut out = String::new();
                for c in s.chars() {
                    if !out.contains(c) {
                        out.push(c);
                    }
                }
                out
            };
            let (a, b) = (uniq(&a), uniq(&b));
            // output = union of labels (deduped) — always valid
            let mut out = a.clone();
            for c in b.chars() {
                if !out.contains(c) {
                    out.push(c);
                }
            }
            let text = format!("{a},{b}->{out}");
            if let Ok(spec) = text.parse::<EinsumSpec>() {
                let rt: EinsumSpec = spec.to_string().parse().unwrap();
                prop_assert_eq!(spec, rt);
            }
        }

        #[test]
        fn layout_from_order_never_panics(order in proptest::collection::vec(0usize..8, 0..8)) {
            let _ = Layout::from_order(&order);
        }

        #[test]
        fn shape_from_spec_never_panics(spec in "[a-z]{0,8}") {
            let sizes: Vec<(char, usize)> = ('a'..='z').map(|c| (c, 3)).collect();
            let _ = Shape::from_spec(&spec, &sizes);
        }
    }
}
