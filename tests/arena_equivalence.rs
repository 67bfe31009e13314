//! Value equivalence of the arena interpreter through the public layer
//! API: the slab-executing forward must be bitwise-equal to the
//! allocating environment interpreter whenever no RNG is drawn, the
//! zero-allocation `forward_into` must agree with `forward` exactly, and
//! dropout masks must be invariant to the thread count (the arena draws
//! each step's stream independently, so serial and wave-parallel runs see
//! identical randomness).

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::plan::{ExecOptions, PlanOverride};
use substation::dataflow::EncoderDims;
use substation::tensor::{Shape, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::params::EncoderWeights;

/// The tests below share the process-wide cached arenas of one `dims`. A
/// forward that finds its arena busy in another test thread falls back to
/// the allocating interpreter, whose serial dropout stream differs from the
/// arena's per-step streams — so tests that compare arena runs hold this
/// for their whole body.
static ARENAS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive_arenas() -> std::sync::MutexGuard<'static, ()> {
    ARENAS.lock().unwrap_or_else(|e| e.into_inner())
}

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
fn every_canned_plan_compiles_an_arena_at_both_granularities() {
    let _arenas = exclusive_arenas();
    let dims = EncoderDims::tiny();
    for kind in [
        interp::PlanKind::EncoderReference,
        interp::PlanKind::EncoderFused,
        interp::PlanKind::DecoderFused,
    ] {
        for threads in [1, 4] {
            let arena = interp::cached_arena(&dims, kind, interp::granularity_for(threads))
                .unwrap()
                .unwrap_or_else(|| panic!("{kind:?} must compile at {threads} thread(s)"));
            assert!(arena.slab_words() > 0);
        }
    }
}

#[test]
fn arena_forward_matches_the_env_interpreter_bitwise_without_rng() {
    let _arenas = exclusive_arenas();
    // With dropout off no RNG is drawn, so the arena-routed forward and a
    // PlanOverride forward (which bypasses the arena and runs the
    // allocating environment interpreter) must agree bitwise.
    let (dims, w, x) = setup();
    for executor in [Executor::Reference, Executor::Fused, Executor::Epilogue] {
        let layer = EncoderLayer::new(dims, executor, 0.0);
        let arena_y = layer.forward(&x, &w, &ExecOptions::default()).unwrap().y;
        let pf = interp::cached_plan(
            &dims,
            match executor {
                Executor::Reference => interp::PlanKind::EncoderReference,
                Executor::Fused => interp::PlanKind::EncoderFused,
                Executor::Epilogue => interp::PlanKind::EncoderEpilogue,
            },
        )
        .unwrap();
        let env_opts = ExecOptions::builder()
            .plan(Some(PlanOverride {
                graph: &pf.graph,
                plan: &pf.plan,
                cert: Some(&pf.cert),
            }))
            .build();
        let env_y = layer.forward(&x, &w, &env_opts).unwrap().y;
        assert_eq!(arena_y.data(), env_y.data(), "{executor:?}");
    }
}

#[test]
fn forward_into_agrees_with_forward_exactly() {
    let _arenas = exclusive_arenas();
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
fn dropout_is_thread_count_invariant_under_the_arena() {
    let _arenas = exclusive_arenas();
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
    let _arenas = exclusive_arenas();
    // Saved activations and layer-norm statistics materialized out of the
    // slab must be the same values the environment interpreter produces.
    let (dims, w, x) = setup();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let arena_out = layer.forward(&x, &w, &ExecOptions::default()).unwrap();
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let env_opts = ExecOptions::builder()
        .plan(Some(PlanOverride {
            graph: &pf.graph,
            plan: &pf.plan,
            cert: Some(&pf.cert),
        }))
        .build();
    let env_out = layer.forward(&x, &w, &env_opts).unwrap();
    let (a, b) = (
        arena_out.activations.as_ref().unwrap(),
        env_out.activations.as_ref().unwrap(),
    );
    assert_eq!(a.qq.data(), b.qq.data());
    assert_eq!(a.sm.softmax.data(), b.sm.softmax.data());
    assert_eq!(a.gam.data(), b.gam.data());
    assert_eq!(a.ln1.stats.mean, b.ln1.stats.mean);
    assert_eq!(a.ln1.stats.inv_std, b.ln1.stats.inv_std);
    assert_eq!(a.ln2.out.data(), b.ln2.out.data());
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
