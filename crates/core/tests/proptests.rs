//! Property-based tests of the recipe machinery: sweeps dominate their
//! per-layout tables, selection respects its lower bound, fusion-plan
//! application preserves totals across dimension choices.

use proptest::prelude::*;

use xform_core::fusion::{apply_plan, detect_groups, encoder_fusion_plan};
use xform_core::recipe::{backward_ops, forward_ops};
use xform_core::selection::select_forward;
use xform_core::sweep::{sweep_all, sweep_op, SimulatorSource, SweepOptions};
use xform_dataflow::{build, flops, EncoderDims};
use xform_gpusim::DeviceSpec;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sweep_best_dominates_per_io_table(dims in arb_dims(), pick in 0usize..14) {
        let mut g = build::encoder(&dims).graph;
        let fused = apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let op = fused[pick % fused.len()];
        let sweep = sweep_op(
            &SimulatorSource::default(),
            &g,
            op,
            SweepOptions { max_configs: Some(1500), ..SweepOptions::default() },
        )
        .unwrap();
        for t in sweep.per_io.values() {
            prop_assert!(t.time_us + 1e-9 >= sweep.best.time_us);
        }
        prop_assert!(sweep.worst_us + 1e-9 >= sweep.best.time_us);
        prop_assert!(!sweep.times_us.is_empty());
    }

    #[test]
    fn selection_bounded_by_per_op_best(dims in arb_dims()) {
        let device = DeviceSpec::v100();
        let mut g = build::encoder(&dims).graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let dy = g.data_by_name("dy").unwrap();
        let fwd = forward_ops(&g, dy);
        let sweeps = sweep_all(
            &SimulatorSource { device: device.clone() },
            &g,
            SweepOptions { max_configs: Some(1500), ..SweepOptions::default() },
        )
        .unwrap();
        let sel = select_forward(&g, &device, &fwd, &sweeps).unwrap();
        prop_assert!(sel.total_us + 1e-9 >= sel.per_op_best_us);
        prop_assert_eq!(sel.per_op.len(), fwd.len());
        // every chosen timing is at least its op's best
        for (op, t) in &sel.per_op {
            prop_assert!(t.time_us + 1e-9 >= sweeps[op].best.time_us);
        }
    }

    #[test]
    fn fusion_plan_invariant_across_dims(dims in arb_dims()) {
        let unfused = build::encoder(&dims).graph;
        let flop_before = flops::total_flop(&unfused);
        let io_before = unfused.total_io_words();
        let mut g = unfused;
        let fused = apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        prop_assert_eq!(fused.len(), 14);
        prop_assert_eq!(flops::total_flop(&g), flop_before);
        prop_assert!(g.total_io_words() < io_before);
        // forward/backward split is stable
        let dy = g.data_by_name("dy").unwrap();
        prop_assert_eq!(forward_ops(&g, dy).len(), 11);
        prop_assert_eq!(backward_ops(&g, dy).len(), 21);
    }

    #[test]
    fn detection_partitions_non_contractions(dims in arb_dims()) {
        let g = build::encoder(&dims).graph;
        let groups = detect_groups(&g);
        let mut seen = std::collections::HashSet::new();
        for grp in &groups {
            prop_assert!(!grp.is_empty());
            for id in grp {
                prop_assert!(seen.insert(*id), "op in two groups");
            }
        }
    }
}
