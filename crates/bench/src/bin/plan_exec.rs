//! End-to-end plan-driven execution on real CPU kernels: the canned
//! natural-layout schedule against a plan lowered from the full recipe —
//! CPU-measured sweeps → SSSP layout selection → [`ExecutionPlan::lower`]
//! — both on the one executor, the arena: the selected plan's strided
//! operands are views, its transposes in-place relayouts. This is the
//! paper's punchline made concrete: the selected configuration is not a
//! report, it executes — and the comparison it enters is layout against
//! layout, not interpreter against interpreter.
//!
//! Every plan is then run at 1/2/4/8 worker threads and must stay
//! bitwise-equal to its one-thread run (timings are printed, never gated:
//! the dimensions are toys and `benchmark/` owns performance).

use std::time::Instant;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_core::cpusource::CpuSource;
use xform_core::plan::{ExecOptions, ExecutionPlan, PlanOverride};
use xform_core::selection::select_forward;
use xform_core::sweep::{sweep_all, SweepOptions};
use xform_dataflow::EncoderDims;
use xform_gpusim::DeviceSpec;
use xform_tensor::{Shape, Tensor};
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::interp;
use xform_transformer::params::EncoderWeights;

const REPS: usize = 5;

/// Minimum wall-clock of `reps` runs of `f`, in milliseconds.
fn time_ms<F: FnMut() -> Tensor>(reps: usize, mut f: F) -> (f64, Tensor) {
    let mut best = f64::INFINITY;
    let mut last = f();
    for _ in 0..reps {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, last)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    };
    println!(
        "plan-driven execution, dims i={} j={} b={} h={} p={} u={} ({REPS} reps, min reported)",
        dims.i, dims.j, dims.b, dims.h, dims.p, dims.u
    );

    let mut rng = StdRng::seed_from_u64(42);
    let w = EncoderWeights::init(&dims, &mut rng);
    let x = Tensor::random(
        Shape::from_spec("ibj", &dims.size_table())?,
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );

    // the two canned schedules (dropout off so all three paths agree)
    let reference = EncoderLayer::new(dims, Executor::Reference, 0.0);
    let fused = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let fwd_opts = ExecOptions::builder().seed(7).build();
    let (ref_ms, y_ref) = time_ms(REPS, || {
        reference
            .forward(&x, &w, &fwd_opts)
            .expect("reference forward")
            .y
    });
    let (fus_ms, y_fus) = time_ms(REPS, || {
        fused.forward(&x, &w, &fwd_opts).expect("fused forward").y
    });

    // the recipe: fuse, sweep every kernel on this CPU, select layouts
    // along the shortest path, lower the selection to a schedule
    let planned = interp::encoder_fused(&dims)?;
    let graph = planned.graph;
    // the canned plan already schedules exactly the forward operators
    let fwd: Vec<_> = planned.plan.steps.iter().map(|s| s.op).collect();
    let source = CpuSource::new(2);
    println!("sweeping {} forward kernels on this CPU...", fwd.len());
    let sweeps = sweep_all(
        &source,
        &graph,
        SweepOptions {
            max_configs: Some(64),
            ..SweepOptions::default()
        },
    )?;
    let sel = select_forward(&graph, &DeviceSpec::v100(), &fwd, &sweeps)?;
    let plan = ExecutionPlan::lower(&graph, &sel)?;
    println!(
        "selection: {:.1} µs modeled, {} transposes; lowered plan: {} steps, {} strided \
         operands, {} relayouts",
        sel.total_us,
        sel.transposes,
        plan.steps.len(),
        plan.strided_operand_count(),
        plan.relayout_count()
    );

    let sel_opts = fwd_opts
        .to_builder()
        .plan(Some(PlanOverride {
            graph: &graph,
            plan: &plan,
        }))
        .build();
    let (sel_ms, y_sel) = time_ms(REPS, || {
        fused
            .forward(&x, &w, &sel_opts)
            .expect("plan-driven forward")
            .y
    });

    // logical comparison: the selected plan may materialize `y` in a
    // non-natural layout, so raw-buffer order differs between executors
    let max_dev = |a: &Tensor, b: &Tensor| {
        let mut idx = vec![0usize; a.shape().rank()];
        let mut m = 0.0f64;
        loop {
            let d = (a.data()[a.offset(&idx)] - b.data()[b.offset(&idx)]).abs() as f64;
            m = m.max(d);
            if !a.advance(&mut idx) {
                break;
            }
        }
        m
    };
    println!("\nforward wall-clock on the arena (same input, same RNG streams):");
    println!("  reference (unfused, natural layouts)         {ref_ms:>8.3} ms");
    println!("  natural   (canned fused schedule)            {fus_ms:>8.3} ms");
    println!("  selected  (SSSP-selected layouts, same fused steps) {sel_ms:>8.3} ms");
    println!(
        "  selected / natural = {:.2}x (layouts and relayouts are the only difference)",
        sel_ms / fus_ms
    );
    println!(
        "\nmax |y_selected - y_reference| = {:.2e}, max |y_fused - y_reference| = {:.2e}",
        max_dev(&y_sel, &y_ref),
        max_dev(&y_fus, &y_ref)
    );
    assert!(
        max_dev(&y_sel, &y_ref) < 1e-4,
        "plan-driven output diverged from the reference executor"
    );
    println!("plan-driven output matches the reference executor.");

    // --- wave dispatch: every plan bitwise-equal at any thread count ---
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused)?;
    println!(
        "\ncertified wave-parallel forward (fused encoder, {} steps in {} waves):",
        pf.plan.steps.len(),
        pf.cert.waves.len()
    );
    for (label, opts, y_serial) in [
        ("natural", &fwd_opts, &y_fus),
        ("selected", &sel_opts, &y_sel),
    ] {
        for threads in [1usize, 2, 4, 8] {
            let par_opts = opts.to_builder().threads(threads).build();
            let (par_ms, y_par) = time_ms(REPS, || {
                fused
                    .forward(&x, &w, &par_opts)
                    .expect("parallel forward")
                    .y
            });
            assert_eq!(
                y_par.data(),
                y_serial.data(),
                "{label} plan diverged from serial at {threads} threads"
            );
            println!(
                "  {label:<8} {threads} thread(s)  {par_ms:>8.3} ms  (bitwise-equal to serial)"
            );
        }
    }
    Ok(())
}
