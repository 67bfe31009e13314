//! Value equivalence of the arena interpreter through the public layer
//! API: the slab-executing forward must be bitwise-equal to the reference
//! interpreter whenever no RNG is drawn, the zero-allocation
//! `forward_into` must agree with `forward` exactly, dropout masks must be
//! invariant to the thread count (the arena draws each step's stream
//! independently, so serial and wave-parallel runs see identical
//! randomness), and nothing but the plan — not a profiler, not the door it
//! comes through, not the sanitizer, not a second caller on the same layer —
//! may change which executor runs or one bit of what it returns. The tests
//! share the process-wide memoized arenas of one `dims` across the
//! harness's threads, which is the point.

mod common;

use std::collections::HashMap;
use std::sync::{Barrier, Mutex};

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::access::{step_accesses, AccessPath};
use substation::core::analyze::{analyze, assign_arena, ArenaGranularity};
use substation::core::arena::{self, ArenaArtifact, CompiledArena};
use substation::core::plan::{execute_plan, ExecOptions, ExecState, ExecutionPlan, SanitizeMode};
use substation::core::profile::{PlanProfiler, ProfilerSink};
use substation::dataflow::{DataRole, EncoderDims, Graph, NodeId, OpKind};
use substation::tensor::ops::layernorm::LayerNormStats;
use substation::tensor::{into_ops, Layout, Shape, Tensor, TensorError};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::params::{weight_pack, EncoderWeights, PackedWeight};

fn setup() -> (EncoderDims, EncoderWeights, Tensor) {
    let dims = EncoderDims::tiny();
    let mut rng = StdRng::seed_from_u64(41);
    let w = EncoderWeights::init(&dims, &mut rng);
    let x = Tensor::random(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    (dims, w, x)
}

fn out_buffer(dims: &EncoderDims) -> Tensor {
    Tensor::from_vec(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        vec![0.0; dims.i * dims.b * dims.j],
    )
    .unwrap()
}

#[test]
fn every_canned_plan_compiles_its_one_arena() {
    let dims = EncoderDims::tiny();
    for kind in [
        interp::PlanKind::EncoderReference,
        interp::PlanKind::EncoderFused,
        interp::PlanKind::DecoderFused,
        interp::PlanKind::EncoderReferenceTrain,
        interp::PlanKind::EncoderTrain,
        interp::PlanKind::DecoderTrain,
    ] {
        let arena = interp::cached_arena(&dims, kind, ArenaGranularity::Serial)
            .unwrap()
            .unwrap_or_else(|| panic!("{kind:?} must compile"));
        assert!(arena.slab_words() > 0);
    }
}

#[test]
fn arena_views_are_the_certified_access_paths_embedded_in_their_slots() {
    // The certificate must describe the words the kernels are given: for
    // every canned plan, and for the same plan with its operand layouts
    // shuffled (strided views, relayout insertions), each operand view a
    // step hands its kernel is its certified path — base, extents and
    // strides — offset by the slab slot of the operand's container.
    let dims = EncoderDims::tiny();
    // a decode step sees one query column against the cache's `k`
    let step = EncoderDims { j: 1, ..dims };
    for (dims, kind) in [
        (dims, interp::PlanKind::EncoderReference),
        (dims, interp::PlanKind::EncoderFused),
        (dims, interp::PlanKind::EncoderEpilogue),
        (dims, interp::PlanKind::DecoderFused),
        (dims, interp::PlanKind::DecoderEpilogue),
        (step, interp::PlanKind::DecoderStepProject),
        (step, interp::PlanKind::DecoderStep),
        (dims, interp::PlanKind::EncoderReferenceTrain),
        (dims, interp::PlanKind::EncoderTrain),
        (dims, interp::PlanKind::DecoderTrain),
    ] {
        let pf = interp::cached_plan(&dims, kind).unwrap();
        let shuffled = (1..4).map(|seed| common::permuted(&pf.graph, &pf.plan, seed));
        for plan in std::iter::once(pf.plan.clone()).chain(shuffled) {
            let analysis = analyze(&pf.graph, &plan);
            let arena =
                CompiledArena::compile(&pf.graph, &plan, &analysis, ArenaGranularity::Serial)
                    .unwrap()
                    .expect("every gated plan compiles");
            let slot: HashMap<NodeId, u64> = assign_arena(&analysis)
                .slots
                .iter()
                .map(|s| (s.data, s.offset))
                .collect();
            for (si, step) in plan.steps.iter().enumerate() {
                let derived = step_accesses(&pf.graph, step);
                assert!(derived.derived, "{kind:?}: `{}` derives exactly", step.name);
                // the relayouts' gather and write-back come first
                let certified: Vec<AccessPath> = (derived.accesses.iter())
                    .skip(2 * step.relayouts.len())
                    .map(|a| AccessPath {
                        base: slot[&a.data] + a.path.base,
                        dims: a.path.dims.clone(),
                    })
                    .collect();
                let views: Vec<AccessPath> = arena.step_views(si).collect();
                assert_eq!(views, certified, "{kind:?}: step {si} (`{}`)", step.name);
            }
        }
    }
}

#[test]
fn a_step_the_lowering_does_not_model_is_refused_by_the_arena_and_underived_by_the_certifier() {
    // One `None` from the step lowering, two consequences: the arena names
    // the step in a compile error, the certifier falls back to
    // whole-buffer paths it does not count as derived. The lowering models
    // every operator kind, backward ones included, so the step is one with
    // an operand count no kernel has: an activation dX without its saved
    // pre-activation.
    let mut g = Graph::new();
    let shape = || Shape::new([('b', 2), ('i', 3)]).unwrap();
    let dy = g.add_data("dy", shape(), DataRole::Input);
    let dx = g.add_data("dx", shape(), DataRole::Output);
    let op = g.add_op("ReLU dX", OpKind::ReluGrad, &[dy], &[dx]);
    let plan = ExecutionPlan::natural(&g, &[op]).unwrap();
    let analysis = analyze(&g, &plan);
    assert!(analysis.is_clean(), "{:?}", analysis.errors());
    let err = CompiledArena::compile(&g, &plan, &analysis, ArenaGranularity::Serial)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("step 0 (`ReLU dX`) has no arena lowering"),
        "{err}"
    );
    let derived = step_accesses(&g, &plan.steps[0]);
    assert!(!derived.derived);
    assert_eq!(derived.accesses.len(), 2);
    for a in &derived.accesses {
        assert_eq!(a.path, AccessPath::flat(6), "`{}`", a.name);
        assert!(!a.swept, "`{}` carries no unit-stride claim", a.name);
    }
}

/// The reference interpreter on the canned plan of `kind`, called
/// directly at `p = 0`.
fn reference_run(
    dims: &EncoderDims,
    kind: interp::PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
) -> ExecState {
    let pf = interp::cached_plan(dims, kind).unwrap();
    let opts = ExecOptions::default();
    let mut state = interp::bind_inputs(x, w);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
    state
}

#[test]
fn arena_forward_matches_the_env_interpreter_bitwise_without_rng() {
    // With dropout off no RNG is drawn, so the arena-routed forward and
    // the reference interpreter must agree bitwise.
    let (dims, w, x) = setup();
    for (executor, kind) in [
        (Executor::Reference, interp::PlanKind::EncoderReference),
        (Executor::Fused, interp::PlanKind::EncoderFused),
        (Executor::Epilogue, interp::PlanKind::EncoderEpilogue),
    ] {
        let layer = EncoderLayer::new(dims, executor, 0.0);
        let arena_y = layer.forward(&x, &w, &ExecOptions::default()).unwrap().y;
        let reference = reference_run(&dims, kind, &x, &w);
        assert_eq!(arena_y.data(), reference.env["y"].data(), "{executor:?}");
    }
}

#[test]
fn forward_into_agrees_with_forward_exactly() {
    let (dims, w, x) = setup();
    let mut y = out_buffer(&dims);
    for p in [0.0f32, 0.3] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::builder().threads(threads).seed(17).build();
            let encoder = EncoderLayer::new(dims, Executor::Fused, p);
            let full = encoder.forward(&x, &w, &opts).unwrap().y;
            encoder.forward_into(&x, &w, &opts, &mut y).unwrap();
            assert_eq!(full.data(), y.data(), "encoder p={p} threads={threads}");

            let decoder = DecoderLayer::new(dims, p);
            let full = decoder.forward(&x, &w, &opts).unwrap().y;
            decoder.forward_into(&x, &w, &opts, &mut y).unwrap();
            assert_eq!(full.data(), y.data(), "decoder p={p} threads={threads}");
        }
    }
}

#[test]
fn forward_into_refuses_a_buffer_of_another_shape_or_storage() {
    // a `y` of the right word count in another axis order, or of the right
    // shape stored permuted, would be filled in the wrong order: it is
    // refused before the run and left as it was
    let (dims, w, x) = setup();
    let bij = Tensor::zeros(Shape::from_spec("bij", &dims.size_table()).unwrap());
    let permuted = out_buffer(&dims).relayout(&Layout::from_order(&[2, 0, 1]).unwrap());
    assert!(permuted.natural_words().is_none());
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let decoder = DecoderLayer::new(dims, 0.0);
    let opts = ExecOptions::default();
    for (tag, mut y) in [("[b,i,j]", bij), ("permuted", permuted)] {
        let before = y.clone();
        for r in [
            encoder.forward_into(&x, &w, &opts, &mut y),
            decoder.forward_into(&x, &w, &opts, &mut y),
        ] {
            assert!(
                matches!(r, Err(TensorError::ShapeMismatch { .. })),
                "{tag}: {r:?}"
            );
        }
        assert_eq!(y.data(), before.data(), "{tag}");
    }
}

/// An operand of the right word count in another axis order — `x`, `dy`
/// or the head's hidden state as `[b,i,j]`, the head weight as `[i,v]` —
/// would be read as the plan's container, its words scrambled: every entry
/// that binds one refuses it before the run, and a caller's `y` keeps its
/// words.
#[test]
fn an_operand_of_another_shape_is_refused_before_the_run() {
    let (dims, w, x) = setup();
    let bij = |seed| {
        let shape = Shape::from_spec("bij", &dims.size_table()).unwrap();
        Tensor::random(
            shape,
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(seed),
        )
    };
    let (x_bij, dy_bij, dy) = (bij(1), bij(2), x.clone());
    let opts = ExecOptions::builder().seed(3).build();
    let refused = |r: Result<(), TensorError>, what: &str| {
        assert!(
            matches!(r, Err(TensorError::ShapeMismatch { .. })),
            "{what}: {r:?}"
        );
    };
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.1);
    let decoder = DecoderLayer::new(dims, 0.1);
    let mut y = Tensor::from_vec(x.shape().clone(), vec![7.0; x.len()]).unwrap();
    refused(
        encoder.forward(&x_bij, &w, &opts).map(drop),
        "encoder forward",
    );
    refused(
        decoder.forward(&x_bij, &w, &opts).map(drop),
        "decoder forward",
    );
    refused(
        encoder.forward_into(&x_bij, &w, &opts, &mut y),
        "encoder into",
    );
    refused(
        decoder.forward_into(&x_bij, &w, &opts, &mut y),
        "decoder into",
    );
    assert!(y.data().iter().all(|&v| v == 7.0), "no kernel wrote `y`");

    let encoder_saved = encoder.forward(&x, &w, &opts).unwrap().saved;
    let decoder_saved = decoder.forward(&x, &w, &opts).unwrap().saved;
    for (dy, x, what) in [(&dy_bij, &x, "dy"), (&dy, &x_bij, "x")] {
        let r = encoder.backward(dy, x, &w, &encoder_saved, &opts);
        refused(r.map(drop), &format!("encoder backward, {what} as [b,i,j]"));
        let r = decoder.backward(dy, x, &w, &decoder_saved, &opts);
        refused(r.map(drop), &format!("decoder backward, {what} as [b,i,j]"));
    }

    let vocab = 5;
    let mut rng = StdRng::seed_from_u64(4);
    let mut random = |spec: [(char, usize); 2]| {
        Tensor::random(
            Shape::new(spec).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        )
    };
    let (head, head_iv) = (
        random([('v', vocab), ('i', dims.i)]),
        random([('i', dims.i), ('v', vocab)]),
    );
    let bias = Tensor::zeros(Shape::new([('v', vocab)]).unwrap());
    assert!(interp::head_forward(&dims, &x, &head, &bias, &opts).is_ok());
    for (h, head, what) in [
        (&x_bij, &head, "h as [b,i,j]"),
        (&x, &head_iv, "head as [i,v]"),
    ] {
        let r = interp::head_forward(&dims, h, head, &bias, &opts);
        refused(r.map(drop), what);
    }
}

#[test]
fn dropout_is_thread_count_invariant_under_the_arena() {
    // Per-step RNG streams make the drawn masks a function of (seed,
    // step) alone: the serial arena and the wave-parallel arena at any
    // worker count produce bitwise-identical outputs even with dropout
    // active.
    let (dims, w, x) = setup();
    for p in [0.0f32, 0.3, 0.5] {
        let layer = EncoderLayer::new(dims, Executor::Fused, p);
        let serial = layer
            .forward(&x, &w, &ExecOptions::builder().seed(23).build())
            .unwrap()
            .y;
        for threads in [2usize, 4, 8] {
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
fn collected_activations_match_between_arena_and_env_interpreter() {
    // Saved activations and layer-norm statistics written into the record
    // must be the same values the reference interpreter produces.
    let (dims, w, x) = setup();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let arena_out = layer.forward(&x, &w, &ExecOptions::default()).unwrap();
    let reference = reference_run(&dims, interp::PlanKind::EncoderFused, &x, &w);
    let a = &arena_out.saved;
    // neither executor materializes the attention weights: the plan's
    // region keeps them in its panel, the forward saves the stream instead
    assert!(a.region().is_some());
    assert!(!reference.env.contains_key("att"));
    for name in a.names() {
        let t = a.tensor(name).unwrap();
        assert_eq!(t.data(), reference.env[name].data(), "`{name}`");
    }
    for name in reference.stats.keys() {
        let s = a.stats(name).unwrap();
        assert_eq!(s.mean, reference.stats[name].mean, "`{name}`");
        assert_eq!(s.inv_std, reference.stats[name].inv_std, "`{name}`");
    }
    assert_eq!(arena_out.y.data(), reference.env["y"].data());
}

/// Everything a forward returns, as bit patterns: `y`, the saved
/// activations that carry dropout masks, and both layer-norm statistics.
fn encoder_bits(layer: &EncoderLayer, x: &Tensor, w: &EncoderWeights, o: &ExecOptions) -> Vec<u32> {
    let (y, a) = layer.forward(x, w, o).unwrap().into_pair().unwrap();
    let tensors = a
        .names()
        .map(|n| (n.into(), a.tensor(n).unwrap()))
        .collect();
    let stats = ["ln1_out", "y"].map(|n| (n.into(), a.stats(n).unwrap()));
    bits(&y, &tensors, &stats.into())
}

/// [`encoder_bits`] of what a run left: `y`, its saved containers and its
/// statistics.
fn bits(
    y: &Tensor,
    tensors: &HashMap<String, Tensor>,
    stats: &HashMap<String, LayerNormStats>,
) -> Vec<u32> {
    let saved = ["drop1_mask", "drop2_mask", "ff1_drop", "drop3_mask"].map(|n| &tensors[n]);
    let (ln1, ln2) = (&stats["ln1_out"], &stats["y"]);
    let stats = [&ln1.mean, &ln1.inv_std, &ln2.mean];
    std::iter::once(y)
        .chain(saved)
        .flat_map(|t| t.data())
        .chain(stats.iter().flat_map(|s| s.iter()))
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn concurrent_forwards_on_one_layer_return_the_lone_result() {
    // N threads released together onto one layer's one arena, dropout on,
    // same seed: each must get, bit for bit, what a lone call gets. (At
    // the parent a caller that lost the race for the slab was rerouted to
    // the other interpreter and its single RNG stream.)
    const CALLERS: usize = 6;
    let (dims, w, x) = setup();
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.3);
    let decoder = DecoderLayer::new(dims, 0.3);
    for threads in [1usize, 2] {
        let opts = ExecOptions::builder().threads(threads).seed(31).build();
        let lone_enc = encoder_bits(&encoder, &x, &w, &opts);
        let lone_dec = decoder.forward(&x, &w, &opts).unwrap().y;
        let gate = Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        let enc = encoder_bits(&encoder, &x, &w, &opts);
                        let dec = decoder.forward(&x, &w, &opts).unwrap().y;
                        (enc, dec)
                    })
                })
                .collect();
            for (c, caller) in callers.into_iter().enumerate() {
                let (enc, dec) = caller.join().expect("caller panicked");
                assert!(enc == lone_enc, "encoder caller {c} at {threads} thread(s)");
                assert_eq!(dec.data(), lone_dec.data(), "decoder caller {c}");
            }
        });
    }
}

#[test]
fn route_and_results_depend_on_the_plan_alone() {
    // One canned plan at p = 0.3 under every combination of the knobs that
    // used to pick an interpreter: the outputs, the saved masks and the
    // layer-norm statistics are bitwise those of the plain call.
    let (dims, w, x) = setup();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.3);
    // the same plan through the door any plan takes, the layer's
    // `dropout_p` set by hand: on its arena from the bound inputs, and —
    // what `forward_into` does — bound where they lie, `y` copied out
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let executed = |opts: &ExecOptions| {
        let mut state = interp::bind_inputs(&x, &w);
        arena::execute(&pf.graph, &pf.plan, &mut state, opts).unwrap();
        bits(&state.env["y"], &state.env, &state.stats)
    };
    let bound = |opts: &ExecOptions, y: &mut Tensor| {
        let arena = arena::compiled(&pf.graph, &pf.plan).unwrap();
        let ydata = y.data_mut();
        let sink = &mut |a: ArenaArtifact<'_>| {
            if let ArenaArtifact::Tensor {
                name: "y",
                shape,
                layout,
                data,
                ..
            } = a
            {
                into_ops::copy_layout_into(shape, layout, data, ydata);
            }
        };
        let resolve = &mut |name: &str| match name {
            "x" => x.natural_words(),
            _ => w.container(name),
        };
        arena.execute_bound(opts, resolve, sink).unwrap();
    };
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&pf.graph, &pf.plan, 1.0));
    let plain = encoder_bits(&layer, &x, &w, &ExecOptions::builder().seed(19).build());
    let mut y = out_buffer(&dims);
    for threads in [1usize, 4] {
        for profiler in [None, Some(&sink)] {
            for sanitize in [SanitizeMode::On, SanitizeMode::Off] {
                let opts = ExecOptions::builder()
                    .seed(19)
                    .threads(threads)
                    .profiler(profiler)
                    .sanitize(sanitize)
                    .build();
                let tag = format!(
                    "threads={threads} profiler={} {sanitize:?}",
                    profiler.is_some()
                );
                let y_bits = |y: &Tensor| y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    encoder_bits(&layer, &x, &w, &opts) == plain,
                    "forward, {tag}"
                );
                layer.forward_into(&x, &w, &opts, &mut y).unwrap();
                assert!(y_bits(&y) == plain[..y.len()], "forward_into, {tag}");
                let any = opts.to_builder().dropout_p(0.3).build();
                assert!(executed(&any) == plain, "arena::execute, {tag}");
                bound(&any, &mut y);
                assert!(y_bits(&y) == plain[..y.len()], "execute_bound, {tag}");
            }
        }
    }
    // the sink watched the arena: one record per step, however often
    let prof = sink.into_inner().unwrap();
    assert_eq!(prof.steps().count(), pf.plan.steps.len());
    assert!(prof.steps().all(|s| s.runs == 16 && s.time_us > 0.0));
}

#[test]
fn a_weight_of_the_wrong_size_is_a_typed_error_naming_its_container() {
    let (dims, mut w, x) = setup();
    let small = Tensor::zeros(Shape::from_spec("ui", &[('u', 3), ('i', 5)]).unwrap());
    let pack = weight_pack("w1", small.shape()).unwrap();
    w.w1 = PackedWeight::new(&small, pack).unwrap();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let mut y = out_buffer(&dims);
    let opts = ExecOptions::default();
    let unbound = |e: TensorError| matches!(&e, TensorError::UnboundExternal { container, .. } if container == "w1");
    assert!(unbound(layer.forward(&x, &w, &opts).unwrap_err()));
    assert!(unbound(
        layer.forward_into(&x, &w, &opts, &mut y).unwrap_err()
    ));
}

#[test]
fn out_of_range_dropout_is_a_typed_error_for_every_executor() {
    // `p = 1` used to reach the kernels: `1/(1-p)` is infinite, and the
    // arena path returned an all-NaN `y` where the reference executor
    // returned a finite one. The layer now rejects it where it merges its
    // knobs, identically for every executor and entry point.
    use substation::tensor::TensorError;
    use substation::transformer::decode::{DecodeOptions, DecodeSession};
    use substation::transformer::model::{BlockKind, ModelConfig, TransformerModel};

    let (dims, w, x) = setup();
    let mut y = out_buffer(&dims);
    let invalid = |e: TensorError| matches!(e, TensorError::InvalidDropout(_));
    for p in [1.0f32, 1.5, -0.5, f32::NAN] {
        for threads in [1usize, 2] {
            let opts = ExecOptions::builder().threads(threads).build();
            for executor in [Executor::Reference, Executor::Fused, Executor::Epilogue] {
                let layer = EncoderLayer::new(dims, executor, p);
                let err = layer.forward(&x, &w, &opts).unwrap_err();
                assert!(invalid(err), "{executor:?} forward p={p}");
                let err = layer.forward_into(&x, &w, &opts, &mut y).unwrap_err();
                assert!(invalid(err), "{executor:?} forward_into p={p}");
            }
            for layer in [
                DecoderLayer::new(dims, p),
                DecoderLayer::new(dims, p).with_epilogue(),
            ] {
                assert!(invalid(layer.forward(&x, &w, &opts).unwrap_err()));
                assert!(invalid(
                    layer.forward_into(&x, &w, &opts, &mut y).unwrap_err()
                ));
            }
        }
        let cfg = ModelConfig {
            dims,
            layers: 1,
            vocab: 5,
            block: BlockKind::Decoder,
            dropout_p: p,
        };
        let model = TransformerModel::init(cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        let err = DecodeSession::new(&model, DecodeOptions::default()).unwrap_err();
        assert!(invalid(err), "DecodeSession::new p={p}");
    }
}
