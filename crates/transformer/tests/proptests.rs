//! Property-based tests of the executable encoder: executor equivalence,
//! layer-norm output statistics, gradient linearity, and dropout scaling —
//! over randomly drawn (valid) layer dimensions.

use proptest::prelude::*;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::{Shape, Tensor};
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::params::EncoderWeights;

fn arb_dims() -> impl Strategy<Value = EncoderDims> {
    (1usize..3, 2usize..5, 1usize..3, 2usize..4, 2usize..6).prop_map(|(b, j, h, p, u)| {
        EncoderDims {
            b,
            j,
            k: j,
            h,
            p,
            i: h * p,
            u,
        }
    })
}

fn batch(dims: &EncoderDims, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::random(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn executors_agree_for_any_dims(dims in arb_dims(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = batch(&dims, seed + 1);
        let fused = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let reference = EncoderLayer::new(dims, Executor::Reference, 0.0);
        let opts = ExecOptions::builder().seed(0).build();
        let (y1, a1) = fused.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        let (y2, a2) = reference.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        prop_assert!(y1.max_abs_diff(&y2).unwrap() < 1e-4);
        let (dx1, g1) = fused.backward(&y1, &x, &w, &a1).unwrap();
        let (dx2, g2) = reference.backward(&y2, &x, &w, &a2).unwrap();
        prop_assert!(dx1.max_abs_diff(&dx2).unwrap() < 1e-3);
        for ((n, t1), (_, t2)) in g1.fields().iter().zip(g2.fields()) {
            prop_assert!(t1.max_abs_diff(t2).unwrap() < 1e-3, "gradient {} differs", n);
        }
    }

    #[test]
    fn output_is_layer_normalized(dims in arb_dims(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = batch(&dims, seed + 1);
        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let opts = ExecOptions::builder().seed(seed).build();
        let (y, _) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        for b in 0..dims.b {
            for j in 0..dims.j {
                let mean: f32 =
                    (0..dims.i).map(|i| y.at(&[i, b, j])).sum::<f32>() / dims.i as f32;
                prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            }
        }
    }

    #[test]
    fn backward_is_linear_in_dy(dims in arb_dims(), seed in 0u64..500, c in 0.25f32..4.0) {
        // dx(c·dy) == c·dx(dy): backprop is a linear map for fixed acts.
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = batch(&dims, seed + 1);
        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let opts = ExecOptions::builder().seed(seed).build();
        let (y, acts) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        let dy = batch(&dims, seed + 2);
        let scaled = xform_tensor::ops::elementwise::scale(&dy, c);
        let (dx1, _) = layer.backward(&dy, &x, &w, &acts).unwrap();
        let (dx2, _) = layer.backward(&scaled, &x, &w, &acts).unwrap();
        let expect = xform_tensor::ops::elementwise::scale(&dx1, c);
        let scale_mag = y.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        prop_assert!(
            dx2.max_abs_diff(&expect).unwrap() < 1e-3 * (1.0 + c) * (1.0 + scale_mag)
        );
    }

    #[test]
    fn dropout_masks_scale_survivors(dims in arb_dims(), p in 0.1f32..0.7, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = batch(&dims, seed + 1);
        let layer = EncoderLayer::new(dims, Executor::Fused, p);
        let opts = ExecOptions::builder().seed(seed).build();
        let (_, acts) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
        let keep = 1.0 / (1.0 - p);
        for name in ["drop2_mask", "drop1_mask"] {
            for m in acts.tensor(name).unwrap().data() {
                prop_assert!(*m == 0.0 || (*m - keep).abs() < 1e-5);
            }
        }
    }
}
