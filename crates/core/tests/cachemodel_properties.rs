//! Property tests for the static cache-hierarchy analyzer: over random
//! cache geometries and every canned tiny plan, predicted DRAM traffic
//! must be monotone non-increasing in cache capacity, must never exceed
//! the flat audit's byte account, must equal it exactly when the
//! hierarchy has no levels, and the cache-corrected MUE must dominate
//! the flat MUE without touching `Q` — no execution, analysis only.

use proptest::collection;
use proptest::prelude::*;

use xform_core::analyze::audit;
use xform_core::cachemodel::{cache_audit, plan_dram_words, CacheGeometry, CacheLevel};
use xform_core::fusion::{apply_epilogues, apply_plan, decoder_fusion_plan, encoder_fusion_plan};
use xform_core::plan::ExecutionPlan;
use xform_core::recipe::forward_ops;
use xform_dataflow::{build, EncoderDims, Graph};
use xform_gpusim::DeviceSpec;

fn fused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn epilogue() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    apply_epilogues(&mut g).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn unfused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
    (eg.graph, plan)
}

fn decoder() -> (Graph, ExecutionPlan) {
    let eg = build::decoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn plans() -> Vec<(Graph, ExecutionPlan)> {
    vec![fused(), epilogue(), unfused(), decoder()]
}

/// A random hierarchy: up to three levels with arbitrary (unsorted,
/// possibly tiny or generous) capacities — `CacheGeometry::new` owns the
/// sorting and zero-dropping.
fn arb_geometry() -> impl Strategy<Value = CacheGeometry> {
    collection::vec((1u64..4097, 0usize..3, 1u64..17), 0..4).prop_map(|levels| {
        CacheGeometry::new(
            levels
                .into_iter()
                .enumerate()
                .map(|(i, (kib, line_ix, assoc))| CacheLevel {
                    name: format!("L{}", i + 1),
                    size_bytes: kib << 10,
                    line_bytes: [16, 32, 64][line_ix],
                    assoc,
                })
                .collect(),
        )
    })
}

/// Grows every level of `g` by `factor` and optionally appends one more,
/// larger level — a strictly more capable hierarchy.
fn grown(g: &CacheGeometry, factor: u64, extra: bool) -> CacheGeometry {
    let mut levels: Vec<CacheLevel> = g
        .levels
        .iter()
        .map(|l| CacheLevel {
            size_bytes: l.size_bytes * factor,
            ..l.clone()
        })
        .collect();
    if extra {
        levels.push(CacheLevel {
            name: "LLC".to_string(),
            size_bytes: levels.iter().map(|l| l.size_bytes).max().unwrap_or(1 << 20) * 4,
            line_bytes: 64,
            assoc: 16,
        });
    }
    CacheGeometry::new(levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Growing every level (and optionally adding one) never increases
    // the predicted DRAM traffic: the hit set is monotone in capacity.
    #[test]
    fn dram_words_monotone_in_cache_size(
        geom in arb_geometry(),
        factor in 2u64..17,
        extra in any::<bool>(),
        wb_ix in 0usize..3,
    ) {
        let wb = [1u64, 2, 4][wb_ix];
        let bigger = grown(&geom, factor, extra);
        for (g, plan) in plans() {
            let base = plan_dram_words(&g, &plan, &geom, wb);
            let less = plan_dram_words(&g, &plan, &bigger, wb);
            prop_assert!(
                less <= base,
                "growing the hierarchy raised predicted DRAM: {less} > {base} words"
            );
        }
    }

    // Predicted DRAM bytes never exceed the flat audit's byte account —
    // the cache can only remove traffic, never add it.
    #[test]
    fn dram_bytes_never_exceed_flat_audit(geom in arb_geometry()) {
        let device = DeviceSpec::v100();
        let wb = device.word_bytes as u64;
        for (g, plan) in plans() {
            let flat = audit(&g, &plan, &device);
            let dram = plan_dram_words(&g, &plan, &geom, wb);
            prop_assert!(
                dram * wb <= flat.total_bytes(),
                "predicted {} DRAM bytes exceed the flat audit's {}",
                dram * wb,
                flat.total_bytes()
            );
        }
    }

    // The cache-corrected MUE dominates the flat MUE under any
    // hierarchy, with `Q` untouched and `D` never raised.
    #[test]
    fn cache_mue_dominates_flat(geom in arb_geometry()) {
        let device = DeviceSpec::v100();
        for (g, plan) in plans() {
            let flat = audit(&g, &plan, &device);
            let cached = cache_audit(&g, &plan, &device, &geom);
            prop_assert!(cached.plan_mue.value + 1e-9 >= flat.plan_mue.value);
            prop_assert!((cached.plan_mue.q_words - flat.plan_mue.q_words).abs() < 0.5);
            prop_assert!(cached.plan_mue.d_words <= flat.plan_mue.d_words + 0.5);
        }
    }
}

/// With no cache levels every reference reaches DRAM: the prediction
/// degenerates to the flat audit's byte account exactly, and the
/// corrected MUE equals the flat one.
#[test]
fn zero_geometry_is_exactly_the_flat_audit() {
    let device = DeviceSpec::v100();
    let wb = device.word_bytes as u64;
    for (g, plan) in plans() {
        let flat = audit(&g, &plan, &device);
        let dram = plan_dram_words(&g, &plan, &CacheGeometry::none(), wb);
        assert_eq!(dram * wb, flat.total_bytes());
        let cached = cache_audit(&g, &plan, &device, &CacheGeometry::none());
        assert!((cached.plan_mue.value - flat.plan_mue.value).abs() < 1e-9);
        // the flat fold is the cache fold with zero hits, bit for bit
        assert_eq!(cached.plan_mue, flat.plan_mue);
    }
}
