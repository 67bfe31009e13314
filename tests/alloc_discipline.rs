//! Heap-allocation discipline of the arena interpreter: after one warmup
//! call has populated the plan and arena caches, every subsequent
//! `forward_into` — encoder and decoder, serial and wave-parallel, the
//! canned plans (whose norm steps run in panels), serially into a profiler
//! sink too — and a caller's strided
//! plan with its relayouts, bound onto its compiled arena the same way,
//! executes out of the preallocated slab through the `*_into` kernels and
//! must touch the heap **not at all**. A counting global allocator makes
//! the claim falsifiable: any stray `Vec`, `String`, or `HashMap` rehash
//! on the steady-state path shows up as a nonzero event delta and fails
//! the test. The model head and the block backwards are that plus the
//! tensors they return: a warm run allocates the `probs`, or the `dx` and
//! weight gradients, it returns and nothing else. A warm model forward
//! returns its block inputs and `probs` and one handle a block's record,
//! whose words its plan's pool recycled.
//!
//! Everything runs inside one `#[test]` function: the default harness
//! runs tests on separate threads, and the allocator counters are
//! process-wide, so splitting the cases would let one case's setup
//! allocations land inside another case's measured window.

mod common;

use std::sync::Mutex;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::access::certify_access;
use substation::core::arena::{self, ArenaArtifact};
use substation::core::plan::ExecOptions;
use substation::core::profile::{CountingAlloc, PlanProfiler, ProfilerSink};
use substation::dataflow::EncoderDims;
use substation::tensor::{into_ops, Shape, Tensor};
use substation::transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::model::{BlockKind, ModelConfig, TransformerModel};
use substation::transformer::params::{EncoderGrads, EncoderWeights};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const STEADY_CALLS: usize = 10;

/// Runs `STEADY_CALLS` forwards after warmup and returns the heap-event
/// delta across them (allocations + deallocations + reallocations).
fn steady_state_events(tag: &str, mut forward: impl FnMut(&mut Tensor), y: &mut Tensor) -> u64 {
    // Warmup: lowers the plan, compiles the arena, spawns pool workers,
    // resolves `XFORM_SANITIZE` — all cached process-wide.
    forward(y);
    forward(y);
    let before = ALLOC.events();
    for _ in 0..STEADY_CALLS {
        forward(y);
    }
    let delta = ALLOC.events() - before;
    assert!(
        y.data().iter().all(|v| v.is_finite()),
        "{tag}: steady-state output is not finite"
    );
    delta
}

#[test]
fn steady_state_forwards_touch_no_heap() {
    let dims = EncoderDims::tiny();
    let mut rng = StdRng::seed_from_u64(9);
    let w = EncoderWeights::init(&dims, &mut rng);
    let shape = Shape::from_spec("ibj", &dims.size_table()).unwrap();
    let x = Tensor::random(shape.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    let mut y = Tensor::from_vec(shape, vec![0.0; dims.i * dims.b * dims.j]).unwrap();

    let fused = EncoderLayer::new(dims, Executor::Fused, 0.3);
    let reference = EncoderLayer::new(dims, Executor::Reference, 0.3);
    let decoder = DecoderLayer::new(dims, 0.3);
    // the fused plan with its operand layouts shuffled: strided views,
    // relayout insertions, `y` left in whatever layout the shuffle chose
    let canned = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    // the canned plan's norm steps reduce `[i,b,j]` along `i`, a strided
    // lane: they certify unit-stride only because they run in panels, so
    // the panel walk (and, in the shuffled plan below, the lane-at-a-time
    // strided one) is inside every measured window
    let cert = certify_access(&canned.graph, &canned.plan).unwrap();
    assert_eq!(cert.unit_stride_steps(), canned.plan.steps.len());
    let strided = common::permuted(&canned.graph, &canned.plan, 7);
    assert!(strided.relayout_count() > 0);

    let mut failures: Vec<String> = Vec::new();
    // Name lookups search the built graph's node table in place: a hit on
    // the last operator, a hit on `y` and a miss all touch no heap.
    let graph = &canned.graph;
    let last_op = graph.op(*graph.ops().last().unwrap()).unwrap().name.clone();
    let before = ALLOC.events();
    let found = (
        graph.op_by_name(&last_op),
        graph.data_by_name("y"),
        graph.data_by_name("no such container"),
    );
    let lookups = ALLOC.events() - before;
    assert!(found.0.is_some() && found.1.is_some() && found.2.is_none());
    if lookups != 0 {
        failures.push(format!("graph name lookups: {lookups} heap event(s)"));
    }
    for threads in [1usize, 2, 4] {
        let opts = ExecOptions::builder().threads(threads).seed(5).build();
        // the strided plan on its own arena, compiled once, `x` and the
        // weights bound where they lie and `y` copied out in logical order
        // (a layer's `forward_into`), the fused layer's `dropout_p` stated
        let strided_arena = arena::compiled(&canned.graph, &strided).unwrap();
        let strided_opts = opts.to_builder().dropout_p(0.3).build();
        let strided_into = |y: &mut Tensor| {
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
            strided_arena.execute_bound(&strided_opts, resolve, sink)
        };
        type Case<'a> = (&'a str, &'a dyn Fn(&mut Tensor));
        let cases: [Case; 4] = [
            ("encoder/fused", &|y: &mut Tensor| {
                fused.forward_into(&x, &w, &opts, y).unwrap()
            }),
            ("encoder/reference", &|y: &mut Tensor| {
                reference.forward_into(&x, &w, &opts, y).unwrap()
            }),
            ("decoder/fused", &|y: &mut Tensor| {
                decoder.forward_into(&x, &w, &opts, y).unwrap()
            }),
            ("encoder/strided plan", &|y: &mut Tensor| {
                strided_into(y).unwrap()
            }),
        ];
        for (tag, fwd) in cases {
            let delta = steady_state_events(tag, fwd, &mut y);
            if delta != 0 {
                failures.push(format!(
                    "{tag} at {threads} thread(s): {delta} heap event(s) across \
                     {STEADY_CALLS} steady-state forwards"
                ));
            }
        }
    }
    // A profiled serial forward: the sink, made for the canned plan, holds
    // a record per step from its construction, and the arena merges each
    // run's timing slots into them in place.
    let sink: ProfilerSink = Mutex::new(PlanProfiler::with_peak(&canned.graph, &canned.plan, 1.0));
    let profiled = ExecOptions::builder().seed(5).profiler(Some(&sink)).build();
    let tag = "encoder/fused profiled";
    let profiled_into = |y: &mut Tensor| fused.forward_into(&x, &w, &profiled, y).unwrap();
    let delta = steady_state_events(tag, profiled_into, &mut y);
    if delta != 0 {
        failures.push(format!(
            "{tag}: {delta} heap event(s) across {STEADY_CALLS} steady-state forwards"
        ));
    }
    let prof = sink.into_inner().unwrap();
    assert!(prof.steps().all(|s| s.runs == STEADY_CALLS + 2), "{tag}");

    // The model head: a warm run allocates the `probs` it returns — as many
    // heap events as a copy of that tensor — and nothing else. The logits
    // exist as a tile of the step's scratch, `h` and the weights are read
    // where they lie.
    let head_dims = EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 4,
        i: 8,
        u: 16,
    };
    let unit = Uniform::new(-1.0, 1.0);
    let shape = Shape::from_spec("ibj", &head_dims.size_table()).unwrap();
    let hidden = Tensor::random(shape, &unit, &mut rng);
    let head = Tensor::random(Shape::new([('v', 37), ('i', 8)]).unwrap(), &unit, &mut rng);
    let head_bias = Tensor::random(Shape::new([('v', 37)]).unwrap(), &unit, &mut rng);
    let run = || {
        interp::head_forward(
            &head_dims,
            &hidden,
            &head,
            &head_bias,
            &ExecOptions::default(),
        )
        .unwrap()
    };
    drop((run(), run()));
    let before = ALLOC.events();
    let probs = run();
    let served = ALLOC.events() - before;
    let before = ALLOC.events();
    let copy = probs.clone();
    let copied = ALLOC.events() - before;
    drop((probs, copy));
    if served != copied {
        failures.push(format!(
            "head: {served} heap event(s) for a `probs` whose copy takes {copied}"
        ));
    }

    // The block backwards: a warm call allocates the tensors it returns —
    // `dx` and every weight gradient, as many heap events as a copy of
    // them — and nothing else. `dy`, `x`, the weights and the forward's
    // record are read where they lie; every intermediate gradient lives in
    // the backward plan's slab.
    let dy = Tensor::random(x.shape().clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    for p in [0.0f32, 0.3] {
        let fused = EncoderLayer::new(dims, Executor::Fused, p);
        let decoder = DecoderLayer::new(dims, p);
        let opts = ExecOptions::builder().seed(5).build();
        let encoder_saved = fused.forward(&x, &w, &opts).unwrap().saved;
        let decoder_saved = decoder.forward(&x, &w, &opts).unwrap().saved;
        type Backward<'a> = (&'a str, &'a dyn Fn() -> (Tensor, EncoderGrads));
        let cases: [Backward; 2] = [
            ("encoder", &|| {
                fused
                    .backward(&dy, &x, &w, &encoder_saved, &ExecOptions::default())
                    .unwrap()
            }),
            ("decoder", &|| {
                decoder
                    .backward(&dy, &x, &w, &decoder_saved, &ExecOptions::default())
                    .unwrap()
            }),
        ];
        for (tag, backward) in cases {
            drop((backward(), backward()));
            let before = ALLOC.events();
            let returned = backward();
            let served = ALLOC.events() - before;
            let before = ALLOC.events();
            let copy = returned.clone();
            let copied = ALLOC.events() - before;
            drop((returned, copy));
            if served != copied {
                failures.push(format!(
                    "{tag} backward at p = {p}: {served} heap event(s) for a `dx` and \
                     gradients whose copy takes {copied}"
                ));
            }
        }
    }

    // A warm model forward while the previous one's activations are still
    // alive, as a benchmark op keeps them: each block writes its record
    // into a buffer its plan's pool kept from the forward before, so at `L`
    // layers the forward makes 2L + 4 heap events — the vector of `L + 1`
    // block inputs and each input, the vector of records and one handle a
    // record, and the `probs` — and none is for a record's words: what it
    // allocates beyond the tensors it returns is less than one record.
    let model_dims = EncoderDims {
        b: 3,
        j: 5,
        k: 5,
        h: 2,
        p: 4,
        i: 8,
        u: 12,
    };
    for (layers, block) in [(1, BlockKind::Encoder), (3, BlockKind::Decoder)] {
        let cfg = ModelConfig {
            dims: model_dims,
            layers,
            vocab: 11,
            block,
            dropout_p: 0.3,
        };
        let model = TransformerModel::init(cfg, &mut rng).unwrap();
        let tokens = vec![vec![4; model_dims.j]; model_dims.b];
        let first = model.forward(&tokens, &mut rng).unwrap();
        let last = model.forward(&tokens, &mut rng).unwrap();
        drop(first);
        let (events, bytes) = (ALLOC.events(), ALLOC.bytes_allocated());
        let acts = model.forward(&tokens, &mut rng).unwrap();
        let (events, bytes) = (ALLOC.events() - events, ALLOC.bytes_allocated() - bytes);
        let returned = acts.block_inputs.iter().chain([&acts.probs]);
        let returned: usize = returned.map(|t| t.len() * 4).sum();
        let record = acts.blocks[0].words().len() * 4;
        if events != 2 * layers as u64 + 4 || bytes as usize >= returned + record {
            failures.push(format!(
                "{block:?} model forward at {layers} layer(s): {events} heap event(s), \
                 {bytes} bytes, against 2L + 4 events and {returned} bytes of tensors \
                 plus less than a {record}-byte record"
            ));
        }
        drop((last, acts));
    }

    // Streaming decode: after prefill has compiled the bucket's step plans
    // and arenas, every advance + sample pair inside a bucket is two
    // arena executions, two cache-column copies, and an in-place sampling
    // pass — zero heap events per decoded token. The window runs 64 steps
    // and crosses one bucket migration (the step that re-plans and moves
    // the caches allocates by design and is told apart by its capacity
    // change), so the steps *after* a migration are held to zero too: the
    // benchmark's `transformer.decode.allocs_per_step` window has the same
    // shape, and a stray allocation that only the second bucket's first
    // steps made would have slipped past a window inside one bucket.
    const DECODE_STEPS: usize = 64;
    let cfg = ModelConfig {
        dims: EncoderDims {
            b: 2,
            j: 128,
            k: 128,
            h: 2,
            p: 4,
            i: 8,
            u: 16,
        },
        layers: 2,
        vocab: 7,
        block: BlockKind::Decoder,
        dropout_p: 0.0,
    };
    let model = TransformerModel::init(cfg, &mut rng).unwrap();
    let opts = DecodeOptions {
        bucket: Some(64),
        ..DecodeOptions::default()
    };
    let mut sess = DecodeSession::new(&model, opts).unwrap();
    sess.prefill(&[vec![1, 2, 3, 4], vec![2, 3, 4, 5]]).unwrap();
    let sampling = Sampling::Temperature {
        temperature: 0.8,
        top_k: Some(3),
    };
    let mut tokens = [0usize; 2];
    // warmup: first sample sizes the scratch vectors
    for _ in 0..2 {
        sess.sample(sampling, &mut tokens).unwrap();
        sess.advance(&tokens).unwrap();
    }
    let (mut steady_events, mut steady_steps, mut migrations) = (0u64, 0usize, 0usize);
    for _ in 0..DECODE_STEPS {
        let capacity = sess.capacity();
        let before = ALLOC.events();
        sess.sample(sampling, &mut tokens).unwrap();
        sess.advance(&tokens).unwrap();
        let delta = ALLOC.events() - before;
        if sess.capacity() == capacity {
            steady_events += delta;
            steady_steps += 1;
        } else {
            migrations += 1;
        }
    }
    assert_eq!(
        (migrations, steady_steps),
        (1, DECODE_STEPS - 1),
        "the decode window must cross exactly one bucket migration"
    );
    if steady_events != 0 {
        failures.push(format!(
            "decode/steady-state: {steady_events} heap event(s) across {steady_steps} \
             advance+sample steps around one bucket migration"
        ));
    }

    assert!(
        failures.is_empty(),
        "steady-state forwards must not touch the heap:\n  {}",
        failures.join("\n  ")
    );
}
