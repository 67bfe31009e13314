//! Property-based tests of the performance model: costs are positive,
//! deterministic and physically sensible (bounded by launch overhead and
//! roofline terms), MUE stays in range, and access-pattern degradations
//! never make a kernel faster.

use proptest::prelude::*;

use xform_gpusim::contraction::{
    algorithms, gemm_cost, GemmLayout, GemmShape, InnerRole, MathMode,
};
use xform_gpusim::kernel::{kernel_cost, KernelDesc, TensorAccess};
use xform_gpusim::DeviceSpec;

fn arb_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..129, 1usize..2049, 1usize..2049, 1usize..2049).prop_map(|(batch, m, n, k)| GemmShape {
        batch,
        m,
        n,
        k,
    })
}

fn arb_layout() -> impl Strategy<Value = GemmLayout> {
    (0usize..3, 0usize..3, 0usize..3, any::<bool>()).prop_map(|(a, b, c, blocked)| {
        let roles = [InnerRole::M, InnerRole::K, InnerRole::Batch];
        let c_roles = [InnerRole::M, InnerRole::N, InnerRole::Batch];
        GemmLayout {
            a_inner: roles[a],
            b_inner: [InnerRole::N, InnerRole::K, InnerRole::Batch][b],
            c_inner: c_roles[c],
            blocked,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gemm_cost_is_physical(shape in arb_shape(), layout in arb_layout(), algo_id in 0usize..8) {
        let device = DeviceSpec::v100();
        let algo = algorithms()[algo_id];
        let cost = gemm_cost(&device, shape, layout, algo, MathMode::TensorCore);
        prop_assert!(cost.time_us.is_finite() && cost.time_us > 0.0);
        prop_assert!(cost.time_us >= device.kernel_launch_us);
        prop_assert!(cost.moved_words >= shape.min_words() * 0.999);
        // never faster than the absolute roofline (125 Tflop/s)
        let roofline_us = shape.flop() / (device.tensor_core_tflops * 1e12) * 1e6;
        prop_assert!(cost.time_us + 1e-9 >= roofline_us, "beat the roofline");
        prop_assert!((0.0..=1.0).contains(&cost.bandwidth_frac));
    }

    #[test]
    fn gemm_cost_is_deterministic(shape in arb_shape(), algo_id in 0usize..8) {
        let device = DeviceSpec::v100();
        let algo = algorithms()[algo_id];
        let a = gemm_cost(&device, shape, GemmLayout::ideal(), algo, MathMode::TensorCore);
        let b = gemm_cost(&device, shape, GemmLayout::ideal(), algo, MathMode::TensorCore);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn deeper_reduction_costs_more(m in 64usize..1025, n in 64usize..1025, k in 64usize..1025) {
        // Quadrupling K (pure work, no extra parallelism) must cost more.
        // Scaling M/N instead can be nearly free when the GPU was severely
        // underutilized — that near-cancellation is physical, so the
        // monotonicity property is stated over the reduction depth.
        let device = DeviceSpec::v100();
        let algo = algorithms()[3];
        let shape = GemmShape { batch: 1, m, n, k };
        let big = GemmShape { k: k * 4, ..shape };
        let t1 = gemm_cost(&device, shape, GemmLayout::ideal(), algo, MathMode::TensorCore);
        let t2 = gemm_cost(&device, big, GemmLayout::ideal(), algo, MathMode::TensorCore);
        prop_assert!(t2.time_us > t1.time_us);
    }

    #[test]
    fn access_degradation_never_speeds_kernels(
        words in 1024u64..(1 << 24),
        flop_per_word in 0u64..8,
        key in 0u64..10_000,
    ) {
        let device = DeviceSpec::v100();
        let mk = |vectorized: bool, coalesced: bool| KernelDesc {
            flop: words * flop_per_word,
            accesses: vec![
                TensorAccess { words, is_input: true, vectorized, coalesced },
                TensorAccess { words, is_input: false, vectorized, coalesced },
            ],
            has_reduction: false,
            warp_matches_reduce: true,
            reduce_contiguous: true,
            two_pass: false,
            config_key: key,
        };
        let fast = kernel_cost(&device, &mk(true, false));
        let mid = kernel_cost(&device, &mk(false, true));
        let slow = kernel_cost(&device, &mk(false, false));
        prop_assert!(fast.time_us <= mid.time_us);
        prop_assert!(mid.time_us <= slow.time_us);
    }

    #[test]
    fn reduction_penalties_compose_monotonically(
        words in 4096u64..(1 << 22),
        key in 0u64..10_000,
    ) {
        let device = DeviceSpec::v100();
        let mk = |warp_ok: bool, contiguous: bool| KernelDesc {
            flop: 4 * words,
            accesses: vec![
                TensorAccess { words, is_input: true, vectorized: true, coalesced: false },
                TensorAccess { words, is_input: false, vectorized: true, coalesced: false },
            ],
            has_reduction: true,
            warp_matches_reduce: warp_ok,
            reduce_contiguous: contiguous,
            two_pass: true,
            config_key: key,
        };
        let best = kernel_cost(&device, &mk(true, true));
        let worse = kernel_cost(&device, &mk(false, true));
        let worst = kernel_cost(&device, &mk(false, false));
        prop_assert!(best.time_us <= worse.time_us);
        prop_assert!(worse.time_us <= worst.time_us);
    }

    #[test]
    fn fp16_mode_never_beats_tensor_cores_on_large_gemms(
        m in 512usize..4097, n in 512usize..4097, k in 512usize..4097,
    ) {
        let device = DeviceSpec::v100();
        let shape = GemmShape { batch: 1, m, n, k };
        let algo = algorithms()[3];
        let tc = gemm_cost(&device, shape, GemmLayout::ideal(), algo, MathMode::TensorCore);
        let fp = gemm_cost(&device, shape, GemmLayout::ideal(), algo, MathMode::Fp16);
        prop_assert!(tc.time_us < fp.time_us);
    }
}

mod mue_props {
    use super::*;
    use xform_dataflow::{build, EncoderDims};
    use xform_gpusim::mue::mue;
    use xform_gpusim::opmodel::{config_space, op_cost, OpConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn mue_in_range_for_random_configs(op_pick in 0usize..50, cfg_pick in 0usize..200) {
            let dims = EncoderDims::bert_large();
            let e = build::encoder(&dims);
            let device = DeviceSpec::v100();
            let ops = e.graph.ops();
            let op = ops[op_pick % ops.len()];
            let mut space = config_space(&e.graph, op).unwrap();
            let cfg: OpConfig = space.nth(cfg_pick % space.len()).unwrap();
            if let Ok(cost) = op_cost(&device, &e.graph, op, &cfg) {
                let m = mue(&e.graph, op, &cost);
                prop_assert!((0.0..=100.0).contains(&m.value));
                prop_assert!(m.d_words >= m.q_words);
            }
        }
    }
}

mod space_props {
    use super::*;
    use xform_core::fusion::{
        apply_epilogues, apply_plan, apply_regions, decoder_fusion_plan, encoder_fusion_plan,
    };
    use xform_dataflow::{build, EncoderDims, Graph};
    use xform_gpusim::opmodel::{config_space, op_cost, OpConfig, OpModel};
    use xform_gpusim::KernelCost;
    use xform_tensor::{Layout, Result};

    /// Every graph family the pipeline prices: standalone attention, the two
    /// decode-step graphs, and both blocks unfused, fused by their tables,
    /// with attention regions, and with bias epilogues on top.
    fn family(pick: usize) -> Graph {
        let dims = EncoderDims::tiny();
        let step = EncoderDims { j: 1, ..dims };
        match pick % 11 {
            0 => build::mha_forward(&dims),
            1 => build::decoder_step_project(&step).graph,
            2 => build::decoder_step_attend(&step).graph,
            n => {
                let (bundle, plan) = if n < 7 {
                    (build::encoder(&dims), encoder_fusion_plan())
                } else {
                    (build::decoder(&dims), decoder_fusion_plan())
                };
                let stage = (n - 3) % 4;
                let mut g = bundle.graph;
                if stage >= 1 {
                    apply_plan(&mut g, &plan).unwrap();
                }
                if stage >= 2 {
                    apply_regions(&mut g, 2).unwrap();
                }
                if stage >= 3 {
                    apply_epilogues(&mut g).unwrap();
                }
                g
            }
        }
    }

    /// The same price to the bit, or the same error.
    fn same(a: &Result<KernelCost>, b: &Result<KernelCost>) -> bool {
        let bits =
            |c: &KernelCost| [c.time_us, c.moved_words, c.bandwidth_frac, c.flop].map(f64::to_bits);
        match (a, b) {
            (Ok(x), Ok(y)) => bits(x) == bits(y),
            (Err(x), Err(y)) => x == y,
            _ => false,
        }
    }

    /// `cfg` made invalid: a layout of another rank, an algorithm that does
    /// not exist, or no second layout.
    fn spoiled(cfg: OpConfig, how: usize) -> OpConfig {
        match how {
            0 => OpConfig {
                in_layout: Layout::row_major(cfg.in_layout.rank() + 1),
                ..cfg
            },
            1 => OpConfig { algo: 99, ..cfg },
            _ => OpConfig {
                in2_layout: None,
                ..cfg
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        // The space is sampled as it is walked — `nth` from any position,
        // `len`, `step_by` — and a batch priced with one memo per GEMM class
        // is priced as `op_cost` prices each configuration alone, errors
        // and their positions included.
        #[test]
        fn a_space_samples_as_it_walks_and_a_batch_prices_as_op_cost(
            graph_pick in 0usize..1000,
            op_pick in 0usize..1000,
            at in (0usize..1_000_000, 0usize..1_000_000),
            stride in 1usize..5000,
            spoil in proptest::collection::vec((0usize..1000, 0usize..3), 0..6),
        ) {
            let g = family(graph_pick);
            let ops = g.ops();
            let op = ops[op_pick % ops.len()];
            let space = config_space(&g, op).unwrap();
            let walk: Vec<OpConfig> = space.clone().collect();
            prop_assert_eq!(space.len(), walk.len());
            let (i, j) = (at.0 % (walk.len() + 1), at.1 % (walk.len() + 1));
            let mut it = space.clone();
            prop_assert_eq!(it.nth(i), walk.get(i).copied());
            prop_assert_eq!(it.nth(j), walk.get(i + 1 + j).copied());
            prop_assert_eq!(it.len(), walk.len().saturating_sub(i + 2 + j));
            let sampled: Vec<OpConfig> = space.clone().step_by(stride).collect();
            let filtered: Vec<OpConfig> = (walk.iter().enumerate())
                .filter(|(k, _)| k % stride == 0)
                .map(|(_, &cfg)| cfg)
                .collect();
            prop_assert_eq!(&sampled, &filtered);

            let mut batch: Vec<OpConfig> = sampled.into_iter().take(48).collect();
            for &(pos, how) in &spoil {
                if let Some(&cfg) = batch.get(pos % batch.len().max(1)) {
                    batch.insert(pos % (batch.len() + 1), spoiled(cfg, how));
                }
            }
            let device = DeviceSpec::v100();
            let model = OpModel::new(&g, op).unwrap();
            let many: Vec<Result<KernelCost>> = model.costs(&device, batch.iter().copied()).collect();
            prop_assert_eq!(many.len(), batch.len());
            for (k, (cfg, got)) in batch.iter().zip(&many).enumerate() {
                let want = op_cost(&device, &g, op, cfg);
                prop_assert!(same(got, &want), "config {} of `{}`: {:?} vs {:?}",
                    k, g.op(op).unwrap().name, got, want);
            }
        }
    }
}
