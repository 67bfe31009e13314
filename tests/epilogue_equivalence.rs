//! Equivalence of the GEMM-epilogue mega-kernel plans with their unfused
//! (element-wise-fused) counterparts: the epilogue plans must compute the
//! same function bitwise — same values, same dropout masks, same RNG draw
//! order — even though the contraction outputs they eliminate are never
//! materialized. (The attention core is no epilogue any more: both plan
//! families run it as one region, whose equivalence with the chain it
//! replaced `xform-tensor`'s proptests and `golden_digests` hold; here it is
//! counted, and its slab saving checked.) Three layers of evidence:
//!
//! * a proptest drives the single-stream reference interpreter over both plans
//!   at random dims with dropout on and asserts every surviving container
//!   is bitwise-equal AND the dropout RNG streams end in the same state
//!   (proven by drawing from both after execution);
//! * the arena-routed layer forwards (`Executor::Epilogue`,
//!   `DecoderLayer::with_epilogue`) agree with the reference interpreter
//!   bitwise when no RNG is drawn, at both granularities —
//!   CI runs this file under `XFORM_SANITIZE=1` so every arena run is in
//!   its poison mode;
//! * at sequence-length-dominant dims the canned arena slabs are strictly
//!   smaller than that of the same block with its attention core run as
//!   three steps, because the `[h,b,j,k]` tensors between them no longer
//!   have a slot; the epilogue slab is never the larger of the two.
//!
//! The model head is one such step too (`Head` → bias → softmax over the
//! vocabulary): a proptest holds it — served, on the arena at both
//! granularities, and through the reference interpreter, beside its
//! un-epilogued twin — to the three allocating passes it replaced.

use proptest::prelude::*;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use substation::core::analyze::ArenaGranularity;
use substation::core::arena;
use substation::core::fusion::{apply_plan, decoder_fusion_plan, encoder_fusion_plan};
use substation::core::plan::{
    execute_plan, random_externals, ExecOptions, ExecState, ExecutionPlan,
};
use substation::core::recipe::forward_ops;
use substation::dataflow::{build, EncoderDims, OpKind};
use substation::tensor::ops::elementwise::bias_add;
use substation::tensor::ops::softmax::softmax;
use substation::tensor::{einsum, Axis, Shape, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp::{self, PlanKind};
use substation::transformer::params::EncoderWeights;

fn setup(dims: &EncoderDims) -> (EncoderWeights, Tensor) {
    let mut rng = StdRng::seed_from_u64(41);
    let w = EncoderWeights::init(dims, &mut rng);
    let x = Tensor::random(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    (w, x)
}

fn steps_of(pf: &interp::PlannedForward, kind: fn(&OpKind) -> bool) -> usize {
    let kinds = pf.plan.steps.iter().filter_map(|s| pf.graph.op(s.op));
    kinds.filter(|n| kind(&n.kind)).count()
}

fn mega_steps(pf: &interp::PlannedForward) -> usize {
    steps_of(pf, |k| {
        matches!(k, OpKind::TileProgram { second: None, .. })
    })
}

fn region_steps(pf: &interp::PlannedForward) -> usize {
    steps_of(pf, |k| {
        matches!(
            k,
            OpKind::TileProgram {
                second: Some(_),
                ..
            }
        )
    })
}

#[test]
fn canned_epilogue_plans_lower_mega_kernel_steps() {
    use interp::PlanKind::*;
    let dims = EncoderDims::tiny();
    let plan = |kind| interp::cached_plan(&dims, kind).unwrap();
    let (enc, dec) = (plan(EncoderEpilogue), plan(DecoderEpilogue));
    assert_eq!(mega_steps(&enc), 1, "encoder: Linear 1+BRD");
    assert_eq!(
        mega_steps(&dec),
        3,
        "decoder: Out+BDR, Linear 1+BRD, Linear 2+BDR2"
    );
    // every plan behind a fused SM runs the attention core as one region,
    // the decode attend step (its one-row case) included; the unfused
    // reference plan, the oracle, has none
    let step = EncoderDims { j: 1, ..dims };
    let attend = interp::cached_plan(&step, DecoderStep).unwrap();
    for pf in [
        &enc,
        &dec,
        &plan(EncoderFused),
        &plan(DecoderFused),
        &attend,
    ] {
        assert_eq!(region_steps(pf), 1, "QKT+SM+Gamma");
        // nothing between the region's two contractions has a container
        let steps = pf.plan.steps.iter();
        let mut names = steps.flat_map(|s| s.inputs.iter().chain(&s.outputs).map(|o| &o.name));
        assert!(!names.any(|n| ["beta", "att", "alpha", "att_mask"].contains(&n.as_str())));
    }
    assert_eq!(region_steps(&plan(EncoderReference)), 0);
    // the contraction outputs the epilogues eliminate are gone too
    for (pf, interim) in [
        (&enc, "ff1"),
        (&dec, "out_mm"),
        (&dec, "ff1"),
        (&dec, "ff2"),
    ] {
        let mut operands = pf
            .plan
            .steps
            .iter()
            .flat_map(|s| s.inputs.iter().chain(&s.outputs));
        assert!(
            !operands.any(|o| o.name == interim),
            "{interim} still referenced"
        );
    }
}

/// Runs a plan through the reference interpreter on the given
/// externals and returns the final container environment plus the RNG.
fn run_env(
    pf: &interp::PlannedForward,
    externals: &substation::core::plan::ExecState,
    dropout_p: f32,
) -> (substation::core::plan::ExecState, StdRng) {
    let mut state = substation::core::plan::ExecState {
        env: externals.env.clone(),
        ..Default::default()
    };
    let opts = ExecOptions::builder().dropout_p(dropout_p).build();
    let mut rng = StdRng::seed_from_u64(97);
    execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
    (state, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Epilogue-fused == unfused bitwise at random dims, dropout on: every
    // container both plans materialize has identical bits, and both RNG
    // streams end in the same state (the mega-kernel draws the tail's
    // dropout mask in exactly the unfused order, no more, no fewer).
    #[test]
    fn epilogue_env_execution_is_bitwise_equal_at_random_dims(
        b in 1usize..3,
        j in 2usize..5,
        h in 1usize..3,
        p in 2usize..4,
        u in 4usize..7,
        seed in 0u64..1_000,
    ) {
        let (j, p, u) = (j * 2, 1 << p, u * 2);
        let drop_p = if seed % 2 == 0 { 0.0f32 } else { 0.3 };
        let dims = EncoderDims { b, j, k: j, h, p, i: h * p, u };
        for (fused, epilogue) in [
            (PlanKind::EncoderFused, PlanKind::EncoderEpilogue),
            (PlanKind::DecoderFused, PlanKind::DecoderEpilogue),
        ] {
            let plan = |kind| interp::cached_plan(&dims, kind).unwrap();
            let (pf, pe) = (plan(fused), plan(epilogue));
            prop_assert!(mega_steps(&pe) >= 1, "no mega-kernel lowered at {dims:?}");
            prop_assert!(region_steps(&pe) == 1 && region_steps(&pf) == 1, "no region at {dims:?}");
            // both graphs share the same external set; generate once from
            // the epilogue plan so both runs see identical inputs
            let externals = random_externals(&pe.graph, &pe.plan, seed).unwrap();
            let (sf, mut rf) = run_env(&pf, &externals, drop_p);
            let (se, mut re) = run_env(&pe, &externals, drop_p);
            let mut shared = 0usize;
            for (name, tf) in &sf.env {
                if let Some(te) = se.env.get(name) {
                    prop_assert!(tf.data() == te.data(), "container {name} diverged");
                    shared += 1;
                }
            }
            prop_assert!(shared > externals.env.len(), "no produced container compared");
            for _ in 0..4 {
                prop_assert!(rf.next_u64() == re.next_u64(), "RNG streams diverged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The head as one step is the head as three allocating passes, bit for
    // bit: served by the model's entry point, on the arena at both
    // granularities, under the reference interpreter, and so is its
    // un-epilogued twin (the `BSV` kernel over materialized logits) — over
    // vocabularies shorter than a 16-lane row, more rows than a tile holds
    // or fewer, and a depth past one `KC` block.
    #[test]
    fn the_head_plan_is_the_three_pass_head_bitwise(
        b in 1usize..4,
        j in 1usize..24,
        // half the depths past one `KC` block, half the vocabularies short
        i in (0usize..2, 1usize..48).prop_map(|(deep, i)| if deep == 1 { 250 + i } else { i }),
        vocab in (0usize..2, 1usize..16).prop_map(|(long, v)| if long == 1 { 16 + 3 * v } else { v }),
        seed in 0u64..1_000,
    ) {
        let dims = EncoderDims { b, j, k: j, h: 1, p: i, i, u: 1 };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut random = |spec: &[(char, usize)]| {
            Tensor::random(Shape::new(spec.iter().copied()).unwrap(), &Uniform::new(-1.0, 1.0), &mut rng)
        };
        let h = random(&[('i', i), ('b', b), ('j', j)]);
        let head = random(&[('v', vocab), ('i', i)]);
        let bias = random(&[('v', vocab)]);
        let logits = einsum("vi,ibj->vbj", &[&head, &h]).unwrap();
        let three = softmax(&bias_add(&logits, &bias).unwrap(), Axis('v')).unwrap();
        let served = interp::head_forward(&dims, &h, &head, &bias, &ExecOptions::default()).unwrap();
        prop_assert!(served.shape() == three.shape());

        let mut base = ExecState::default();
        for (name, t) in [("h", &h), ("head", &head), ("head_bias", &bias)] {
            base.env.insert(name.into(), t.clone());
        }
        let mut probs = vec![served];
        let served_plan = interp::cached_plan(&dims, PlanKind::Head { vocab }).unwrap();
        for pf in [&*served_plan, &interp::head_fused(&dims, vocab).unwrap()] {
            prop_assert!(mega_steps(pf) <= 1 && pf.plan.steps.len() == 2 - mega_steps(pf));
            for threads in [1usize, 2] {
                let mut state = base.clone();
                let opts = ExecOptions::builder().threads(threads).build();
                arena::execute(&pf.graph, &pf.plan, &mut state, &opts).unwrap();
                probs.push(state.take("probs").unwrap());
            }
            let mut state = base.clone();
            execute_plan(&pf.graph, &pf.plan, &mut state, &ExecOptions::default(), &mut rng).unwrap();
            probs.push(state.take("probs").unwrap());
        }
        // `[v,b,j]` against the plans' `[b,j,v]`, index by index
        for (idx, want) in three.iter() {
            let [v, b, j] = idx[..] else { unreachable!() };
            for (k, got) in probs.iter().enumerate() {
                let at = if k == 0 { [v, b, j] } else { [b, j, v] };
                prop_assert!(got.at(&at).to_bits() == want.to_bits(), "leg {} at {:?}", k, idx);
            }
        }
    }
}

#[test]
fn epilogue_arena_forward_matches_the_env_interpreter_bitwise_without_rng() {
    // With dropout off no RNG is drawn, so the arena-routed epilogue
    // forward and the reference interpreter called on the same canned plan
    // must agree bitwise — at both arena granularities. Under
    // XFORM_SANITIZE=1 the arena runs in its poison mode.
    let dims = EncoderDims::tiny();
    let (w, x) = setup(&dims);
    let enc = EncoderLayer::new(dims, Executor::Epilogue, 0.0);
    let dec = DecoderLayer::new(dims, 0.0).with_epilogue();
    let pe = interp::cached_plan(&dims, interp::PlanKind::EncoderEpilogue).unwrap();
    let pd = interp::cached_plan(&dims, interp::PlanKind::DecoderEpilogue).unwrap();
    for threads in [1usize, 4] {
        let arena_opts = ExecOptions::builder().threads(threads).build();
        for (tag, pf, arena_y) in [
            ("encoder", &pe, enc.forward(&x, &w, &arena_opts).unwrap().y),
            ("decoder", &pd, dec.forward(&x, &w, &arena_opts).unwrap().y),
        ] {
            let knobs = ExecOptions::default();
            let mut state = interp::bind_inputs(&x, &w);
            let mut rng = StdRng::seed_from_u64(knobs.seed);
            execute_plan(&pf.graph, &pf.plan, &mut state, &knobs, &mut rng).unwrap();
            let env_y = state.get("y").unwrap();
            assert_eq!(arena_y.data(), env_y.data(), "{tag} threads={threads}");
        }
    }
}

#[test]
fn epilogue_forward_equals_unfused_forward_without_rng() {
    // Dropout off: the epilogue executors compute the same function as
    // the element-wise-fused ones, bitwise, through the arena path.
    let dims = EncoderDims::tiny();
    let (w, x) = setup(&dims);
    let opts = ExecOptions::default();
    let y_fused = EncoderLayer::new(dims, Executor::Fused, 0.0)
        .forward(&x, &w, &opts)
        .unwrap()
        .y;
    let y_epi = EncoderLayer::new(dims, Executor::Epilogue, 0.0)
        .forward(&x, &w, &opts)
        .unwrap()
        .y;
    assert_eq!(y_fused.data(), y_epi.data(), "encoder");
    let y_fused = DecoderLayer::new(dims, 0.0)
        .forward(&x, &w, &opts)
        .unwrap()
        .y;
    let y_epi = DecoderLayer::new(dims, 0.0)
        .with_epilogue()
        .forward(&x, &w, &opts)
        .unwrap()
        .y;
    assert_eq!(y_fused.data(), y_epi.data(), "decoder");
}

#[test]
fn epilogue_dropout_is_thread_count_invariant_under_the_arena() {
    // The arena draws one RNG stream per step, so the epilogue plans'
    // dropout masks are a function of (seed, step) alone and survive any
    // worker count unchanged.
    let dims = EncoderDims::tiny();
    let (w, x) = setup(&dims);
    for p in [0.3f32, 0.5] {
        let layer = EncoderLayer::new(dims, Executor::Epilogue, p);
        let serial = layer
            .forward(&x, &w, &ExecOptions::builder().seed(23).build())
            .unwrap()
            .y;
        for threads in [2usize, 4] {
            let par = layer
                .forward(
                    &x,
                    &w,
                    &ExecOptions::builder().seed(23).threads(threads).build(),
                )
                .unwrap()
                .y;
            assert_eq!(serial.data(), par.data(), "p={p} threads={threads}");
        }
    }
}

#[test]
fn epilogue_arena_slab_is_smaller_at_sequence_dominant_dims() {
    // The intermediates of the attention core (`beta`, `att`, `alpha`,
    // `att_mask`) scale with j·k while everything else a block keeps scales
    // linearly in j, so once the sequence length dominates, a plan that gives
    // them no slot has a strictly smaller slab than the same block with the
    // core run as three steps (the fusion table applied, no region pass).
    // The epilogue plans drop further intermediates (`ff1`, ...): never a
    // larger slab than the fused plans. A run holds its slab and its record
    // (the saved containers, `att`, `alpha` and `att_mask` among them).
    use interp::PlanKind::*;
    let dims = EncoderDims {
        b: 2,
        j: 128,
        k: 128,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    };
    type Build = fn(&EncoderDims) -> build::EncoderGraph;
    let blocks: [(Build, _, _, _); 2] = [
        (
            build::encoder,
            encoder_fusion_plan(),
            EncoderFused,
            EncoderEpilogue,
        ),
        (
            build::decoder,
            decoder_fusion_plan(),
            DecoderFused,
            DecoderEpilogue,
        ),
    ];
    for (build, table, fused, epilogue) in blocks {
        let eg = build(&dims);
        let mut g = eg.graph;
        apply_plan(&mut g, &table).unwrap();
        let chain = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        let held = |a: &arena::CompiledArena| a.slab_words() + a.record_words();
        let slab = |kind| {
            let a = interp::cached_arena(&dims, kind, ArenaGranularity::Serial);
            held(&a.unwrap().unwrap())
        };
        let sc = held(&arena::compiled(&g, &chain).unwrap());
        let (sf, se) = (slab(fused), slab(epilogue));
        assert!(
            se <= sf && sf < sc,
            "{epilogue:?} slab {se}, {fused:?} slab {sf}, three-step core {sc}"
        );
        // the three saved `[h,b,j,k]` containers at least
        assert!(
            sc - sf >= 3 * dims.h * dims.b * dims.j * dims.k,
            "{sc} - {sf}"
        );
    }
}
