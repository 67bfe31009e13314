//! Data-layout tuning, both simulated and for real.
//!
//! ```text
//! cargo run --release --example layout_tuning
//! ```
//!
//! Part 1 sweeps the layout configuration space of the fused `SM`
//! (scale+softmax+dropout) kernel through the V100 model, reproducing the
//! Fig. 5 methodology for one kernel. Part 2 is the CPU analogue of
//! Figs. 4/5 *on this machine*, at the benchmark's `bert_fwd` dimensions:
//! for every forward kernel of the fused encoder, the runtime distribution
//! over sampled layout configurations, each measured on the executor that
//! ships (the kernel compiled alone onto an arena, its operands strided
//! views in the configuration's layouts). Part 3 is what the sweeps feed:
//! per shape, the SSSP-selected plan against the canned natural plan, both
//! on the arena — strided views and in-place relayouts against natural
//! layouts, nothing else differing. EXPERIMENTS.md records the output.

use std::collections::HashMap;
use std::time::Instant;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::arena::{self, ArenaArtifact};
use substation::core::cpusource::CpuSource;
use substation::core::fusion::{apply_plan, encoder_fusion_plan};
use substation::core::plan::{ExecOptions, ExecutionPlan};
use substation::core::selection::select_forward;
use substation::core::sweep::{sweep_op, PerfSource, SimulatorSource, SweepOptions};
use substation::dataflow::{build, EncoderDims};
use substation::gpusim::opmodel::OpConfig;
use substation::gpusim::DeviceSpec;
use substation::tensor::{into_ops, Shape, Tensor};
use substation::transformer::interp::{self, PlanKind};
use substation::transformer::params::EncoderWeights;

type Outcome<T> = Result<T, Box<dyn std::error::Error>>;

/// The benchmark's `bert_fwd` shape.
const BERT_FWD: EncoderDims = EncoderDims {
    b: 4,
    j: 128,
    k: 128,
    h: 8,
    p: 64,
    i: 512,
    u: 2048,
};

/// Sweeps every forward kernel of the fused encoder at `dims` on this CPU
/// (printing each kernel's distribution when `print` is set), selects
/// layouts along the shortest path — transposes priced at the host's own
/// streaming rate — and duels the lowered plan against the canned natural
/// one on the arena. Returns `(natural ms, selected ms)`.
fn study(source: &CpuSource, dims: EncoderDims, print: bool) -> Outcome<(f64, f64)> {
    let planned = interp::cached_plan(&dims, PlanKind::EncoderFused)?;
    let (graph, natural) = (&planned.graph, &planned.plan);
    let opts = SweepOptions {
        max_configs: Some(24),
        threads: 1,
    };
    let mut sweeps = HashMap::new();
    for step in &natural.steps {
        let r = sweep_op(source, graph, step.op, opts)?;
        if print {
            let natural_cfg = OpConfig::natural(graph, step.op)?;
            let natural_us = source.measure(graph, step.op, &natural_cfg)?.time_us;
            let mut t = r.times_us.clone();
            t.sort_by(f64::total_cmp);
            let (best, worst) = (t[0], t[t.len() - 1]);
            println!(
                "  {:<9} {:>4} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}x",
                r.name,
                t.len(),
                best / 1e3,
                natural_us / 1e3,
                t[t.len() / 2] / 1e3,
                worst / 1e3,
                worst / best
            );
        }
        sweeps.insert(step.op, r);
    }

    // a "device" that prices a transpose at what this host streams
    let host = DeviceSpec {
        name: "host-cpu".into(),
        dram_bandwidth_gbs: source.peak_bytes_per_us() / 1e3,
        kernel_launch_us: 0.0,
        word_bytes: 4,
        ..DeviceSpec::v100()
    };
    let fwd: Vec<_> = natural.steps.iter().map(|s| s.op).collect();
    let sel = select_forward(graph, &host, &fwd, &sweeps)?;
    let plan = ExecutionPlan::lower(graph, &sel)?;

    let mut rng = StdRng::seed_from_u64(42);
    let w = EncoderWeights::init(&dims, &mut rng);
    let shape = Shape::from_spec("ibj", &dims.size_table())?;
    let x = Tensor::random(shape.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    // each plan compiled once onto its arena, `x` and the weights bound
    // where they lie, `y` copied out in logical order: a layer's
    // `forward_into`, for any plan
    let opts = ExecOptions::builder().seed(7).build();
    let natural_arena = arena::compiled(graph, natural)?;
    let selected_arena = arena::compiled(graph, &plan)?;
    let run = |arena: &arena::CompiledArena, y: &mut Tensor| {
        let resolve = &mut |name: &str| match name {
            "x" => x.natural_words(),
            _ => w.container(name),
        };
        let ydata = y.data_mut();
        let sink = &mut |a: ArenaArtifact<'_>| {
            if let ArenaArtifact {
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
        arena.execute_bound(&opts, resolve, None, sink)
    };
    let (mut y_nat, mut y_sel) = (Tensor::zeros(shape.clone()), Tensor::zeros(shape));
    // alternate the two sides so drift hits both; keep each side's best
    let (mut nat_ms, mut sel_ms) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..8 {
        let t0 = Instant::now();
        run(&natural_arena, &mut y_nat)?;
        let t1 = Instant::now();
        run(&selected_arena, &mut y_sel)?;
        let t2 = Instant::now();
        if rep > 0 {
            nat_ms = nat_ms.min((t1 - t0).as_secs_f64() * 1e3);
            sel_ms = sel_ms.min((t2 - t1).as_secs_f64() * 1e3);
        }
    }
    assert_eq!(
        y_sel.max_abs_diff(&y_nat)?.to_bits(),
        0,
        "the selected plan must compute the natural plan's bits"
    );
    let strided = plan.strided_operand_count();
    println!(
        "  i={} j={} b={} h={} p={} u={}: natural {nat_ms:.3} ms, selected {sel_ms:.3} ms \
         ({:.2}x; {strided} strided operands, {} relayouts; selection {:.1}% above the per-op \
         measured optimum), outputs bitwise equal",
        dims.i,
        dims.j,
        dims.b,
        dims.h,
        dims.p,
        dims.u,
        sel_ms / nat_ms,
        plan.relayout_count(),
        100.0 * (sel.total_us / sel.per_op_best_us - 1.0)
    );
    Ok((nat_ms, sel_ms))
}

fn main() -> Outcome<()> {
    // --- Part 1: simulated exhaustive sweep (the paper's Step 3) ---
    let dims = EncoderDims::bert_large();
    let mut g = build::encoder(&dims).graph;
    apply_plan(&mut g, &encoder_fusion_plan())?;
    let sm = g.op_by_name("SM").expect("fused graph has SM");
    let sweep = sweep_op(&SimulatorSource::default(), &g, sm, SweepOptions::default())?;
    println!(
        "SM kernel layout sweep on the V100 model ({} configurations):",
        sweep.times_us.len()
    );
    let (in_spec, _, out_spec) = sweep.best.cfg.specs(&g, sm)?;
    println!(
        "  best  : {:8.0} µs   ({in_spec} → {out_spec}, vectorize {:?}, warp {:?})",
        sweep.best.time_us, sweep.best.cfg.vector_axis, sweep.best.cfg.warp_axis,
    );
    println!(
        "  worst : {:8.0} µs   ({:.0}× worse — the Fig. 5 long tail)",
        sweep.worst_us,
        sweep.worst_us / sweep.best.time_us
    );

    // --- Part 2: the same effect, measured on this CPU, on the arena ---
    let source = CpuSource::new(3);
    println!(
        "\nCPU Fig. 4/5 — forward-kernel runtime (ms) over layout configurations, measured on \
         the arena at bert_fwd dims\n(host streams {:.1} GB/s; ≤24 configurations sampled per \
         kernel, best of 3 runs each)",
        source.peak_bytes_per_us() / 1e3
    );
    println!(
        "  {:<9} {:>4} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "kernel", "cfgs", "best", "natural", "median", "worst", "w/b"
    );
    let mut duels = vec![study(&source, BERT_FWD, true)?];

    // --- Part 3: what the sweeps buy end to end ---
    println!(
        "\nSSSP-selected vs canned natural encoder layer, both on the arena (bert_fwd above):"
    );
    let longseq = EncoderDims {
        b: 2,
        j: 512,
        k: 512,
        h: 8,
        p: 16,
        i: 128,
        u: 512,
    };
    let toy = EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    };
    for dims in [longseq, toy] {
        duels.push(study(&source, dims, false)?);
    }
    let wins = duels.iter().filter(|(nat, sel)| sel < nat).count();
    println!(
        "\nthe selected plan measured faster on {wins} of {} shapes — layout choice changes \
         kernel time by large factors on both substrates, and the best layout is found by \
         measuring, not guessing.",
        duels.len()
    );
    Ok(())
}
