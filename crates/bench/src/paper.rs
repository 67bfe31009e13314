//! The paper's artifacts as one table of entries: Tables I–V, Figs. 1, 2
//! and 4–6, and the studies of Secs. V–VIII, each a function over one
//! `Context` — the V100, BERT-large, and everything more than one entry
//! reads (the recipe's run, the framework baselines, the fused graph's
//! sweeps), computed at most once per process. `repro <entry>…` runs them;
//! `crates/bench/tests/repro/` holds each simulated entry's expected output.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};

use xform_core::algebraic::{qkv_variants, AlgebraicTiming};
use xform_core::cpusource::CpuSource;
use xform_core::fusion::{apply_plan, decoder_fusion_plan, encoder_fusion_plan};
use xform_core::recipe::{
    backward_ops, forward_ops, optimize_decoder, optimize_encoder, optimize_encoder_with,
    optimize_swept, OptimizedEncoder, RecipeOptions,
};
use xform_core::report::{table3 as table3_rows, whatif as whatif_totals};
use xform_core::selection::select_stacked;
use xform_core::sweep::{sweep_all, sweep_op, SimulatorSource, SweepOptions, SweepResult};
use xform_dataflow::{analysis, build, EncoderDims, Graph, NodeId, OpClass, OpKind};
use xform_gpusim::contraction::{
    algorithms, all_layouts, best_algo_cost, gemm_cost, heuristic_algorithm, GemmLayout, GemmShape,
    MathMode,
};
use xform_gpusim::framework::{cudnn_mha_time_ms, execute, ExecutionProfile, FrameworkPolicy};
use xform_gpusim::opmodel::{op_cost, OpConfig};
use xform_gpusim::DeviceSpec;

use crate::{Distribution, Res, TablePrinter};

/// Simulator sweeps by operator.
type Sweeps = HashMap<NodeId, SweepResult>;

/// One paper artifact `repro` can regenerate.
#[derive(Debug)]
pub struct Entry {
    /// The name `repro` takes (`table3`, `fig6`, …).
    pub name: &'static str,
    /// One help line.
    pub about: &'static str,
    run: fn(&Context) -> Res<()>,
}

/// Every entry, in `repro all` order.
pub const ENTRIES: &[Entry] = &[
    entry("table1", "% flop / % runtime per operator class", table1),
    entry(
        "table2",
        "algebraic fusion of the Q/K/V projections",
        table2,
    ),
    entry(
        "table3",
        "per-kernel flop, I/O, time, % peak, MUE, speedup",
        table3,
    ),
    entry(
        "table4",
        "multi-head attention under four implementations",
        table4,
    ),
    entry(
        "table5",
        "the encoder layer under four implementations",
        table5,
    ),
    entry("fig1", "the MHA dataflow graph, annotated", fig1),
    entry(
        "fig2",
        "the encoder training dataflow graph, annotated",
        fig2,
    ),
    entry(
        "fig4",
        "contraction runtime over every layout and algorithm",
        fig4,
    ),
    entry(
        "fig5",
        "fused-kernel runtime over every configuration",
        fig5,
    ),
    entry("fig6", "the configuration-selection shortest path", fig6),
    entry(
        "config_b96",
        "Sec. VI-C: B = 96, L = 128, retuned",
        config_b96,
    ),
    entry(
        "heuristic_gap",
        "Sec. V-A: heuristic vs exhaustive GEMM algorithm",
        heuristic_gap,
    ),
    entry(
        "ablation_fusion",
        "fusion on vs off, same tuned layouts",
        ablation_fusion,
    ),
    entry(
        "ablation_selection",
        "selection strategies: SSSP, per-op best, fixed",
        ablation_selection,
    ),
    entry(
        "gpt2_block",
        "Sec. VIII: the recipe on a GPT-2-style decoder block",
        gpt2_block,
    ),
    entry(
        "cpu_recipe",
        "the recipe on real CPU measurements (small dims)",
        cpu_recipe,
    ),
    entry(
        "hardware_study",
        "Sec. VIII-B: the recipe on a V100 and an A100",
        hardware_study,
    ),
    entry(
        "scaling_study",
        "the recipe from BERT-base to GPT-3-scale blocks",
        scaling_study,
    ),
    entry(
        "seq_sweep",
        "memory-bound share vs sequence length",
        seq_sweep,
    ),
    entry(
        "stack_study",
        "chained layout selection across 24 layers",
        stack_study,
    ),
    entry(
        "whatif",
        "the optimized encoder on counterfactual hardware",
        whatif,
    ),
];

const fn entry(name: &'static str, about: &'static str, run: fn(&Context) -> Res<()>) -> Entry {
    Entry { name, about, run }
}

/// Runs `entries` in order over one `Context`; with more than one, each
/// output opens with its name.
///
/// # Errors
///
/// The first entry that fails.
pub fn run(entries: &[&Entry]) -> Res<()> {
    let cx = Context::default();
    for (i, e) in entries.iter().enumerate() {
        if entries.len() > 1 {
            println!("{}=== {} ===\n", if i > 0 { "\n" } else { "" }, e.name);
        }
        (e.run)(&cx)?;
    }
    Ok(())
}

/// Runs `init` into `cell` unless it already holds a value.
fn lazy<T>(cell: &OnceCell<T>, init: impl FnOnce() -> Res<T>) -> Res<&T> {
    if let Some(v) = cell.get() {
        return Ok(v);
    }
    let v = init()?;
    Ok(cell.get_or_init(|| v))
}

/// What the entries share: the paper's device and dimensions and, built on
/// first use, every result more than one entry reads.
#[derive(Debug)]
struct Context {
    /// The modelled device, the paper's V100.
    device: DeviceSpec,
    /// The paper's dimensions, BERT-large.
    dims: EncoderDims,
    unfused: OnceCell<Graph>,
    fused: OnceCell<Graph>,
    sweeps: OnceCell<Sweeps>,
    recipe: OnceCell<OptimizedEncoder>,
    pytorch: OnceCell<ExecutionProfile>,
    deepspeed: OnceCell<ExecutionProfile>,
    qkv: OnceCell<Vec<AlgebraicTiming>>,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            device: DeviceSpec::v100(),
            dims: EncoderDims::bert_large(),
            unfused: OnceCell::new(),
            fused: OnceCell::new(),
            sweeps: OnceCell::new(),
            recipe: OnceCell::new(),
            pytorch: OnceCell::new(),
            deepspeed: OnceCell::new(),
            qkv: OnceCell::new(),
        }
    }
}

impl Context {
    fn source(&self) -> SimulatorSource {
        SimulatorSource {
            device: self.device.clone(),
        }
    }

    /// The unfused encoder training graph.
    fn unfused(&self) -> &Graph {
        (self.unfused).get_or_init(|| build::encoder(&self.dims).graph)
    }

    /// The graph the fusion table leaves, which the recipe sweeps.
    fn fused(&self) -> Res<&Graph> {
        lazy(&self.fused, || {
            let mut g = self.unfused().clone();
            apply_plan(&mut g, &encoder_fusion_plan())?;
            Ok(g)
        })
    }

    /// The simulator's sweeps of [`Context::fused`] at the recipe's cap.
    fn sweeps(&self) -> Res<&Sweeps> {
        let opts = RecipeOptions::default().sweep;
        lazy(&self.sweeps, || {
            Ok(sweep_all(&self.source(), self.fused()?, opts)?)
        })
    }

    /// What `optimize_encoder` returns, selected from [`Context::sweeps`].
    fn recipe(&self) -> Res<&OptimizedEncoder> {
        lazy(&self.recipe, || {
            let fused = self.fused()?;
            let reduction = analysis::movement_reduction_pct(self.unfused(), fused);
            let (source, sweeps, opts) = (self.source(), self.sweeps()?, RecipeOptions::default());
            Ok(optimize_swept(
                &source,
                &self.device,
                fused.clone(),
                sweeps,
                reduction,
                &opts,
            )?)
        })
    }

    /// The recipe at `device` and `dims`: the shared run when they are the
    /// context's.
    fn recipe_at(&self, device: &DeviceSpec, dims: &EncoderDims) -> Res<Cow<'_, OptimizedEncoder>> {
        if *device == self.device && *dims == self.dims {
            return Ok(Cow::Borrowed(self.recipe()?));
        }
        let opts = RecipeOptions::default();
        Ok(Cow::Owned(optimize_encoder(device, dims, &opts)?))
    }

    /// PyTorch's execution of the unfused graph.
    fn pytorch(&self) -> Res<&ExecutionProfile> {
        let policy = FrameworkPolicy::pytorch();
        lazy(&self.pytorch, || {
            Ok(execute(self.unfused(), &self.device, &policy)?)
        })
    }

    /// DeepSpeed's execution of the fused graph.
    fn deepspeed(&self) -> Res<&ExecutionProfile> {
        let policy = FrameworkPolicy::deepspeed();
        lazy(&self.deepspeed, || {
            Ok(execute(self.fused()?, &self.device, &policy)?)
        })
    }

    /// Table II's three Q/K/V projection variants.
    fn qkv(&self) -> &[AlgebraicTiming] {
        (self.qkv).get_or_init(|| qkv_variants(&self.device, &self.dims))
    }

    /// The forward operators of [`Context::fused`].
    fn forward(&self) -> Res<(&Graph, Vec<NodeId>)> {
        let g = self.fused()?;
        Ok((
            g,
            forward_ops(g, g.data_by_name("dy").ok_or("encoder graph has dy")?),
        ))
    }
}

/// Table I: flop and runtime proportions per operator class under the
/// PyTorch execution model.
fn table1(cx: &Context) -> Res<()> {
    let shares = analysis::class_shares(cx.unfused());
    let profile = cx.pytorch()?;
    let classes = [
        (OpClass::TensorContraction, 99.80, 61.0),
        (OpClass::StatisticalNormalization, 0.17, 25.5),
        (OpClass::Elementwise, 0.03, 13.5),
    ];
    let total_rt: f64 = classes
        .iter()
        .map(|(c, _, _)| profile.class_time_us(*c))
        .sum();

    println!("Table I: proportions for operator classes (BERT-large encoder, B=8, L=512)\n");
    let mut t = TablePrinter::new(&[
        "operator class",
        "% flop (paper)",
        "% flop (ours)",
        "% runtime (paper)",
        "% runtime (ours)",
    ]);
    for (class, paper_flop, paper_rt) in classes {
        let share = shares
            .iter()
            .find(|s| s.class == class)
            .expect("class present");
        let rt = 100.0 * profile.class_time_us(class) / total_rt;
        t.row(&[
            format!("{} {}", class.glyph(), class),
            format!("{paper_flop:.2}"),
            format!("{:.2}", share.flop_pct),
            format!("{paper_rt:.1}"),
            format!("{rt:.1}"),
        ]);
    }
    t.print();
    println!(
        "\nOver a third of the runtime is spent in memory-bound (non-contraction) operators,\n\
         while they perform <0.2% of the flop — the paper's headline observation."
    );
    Ok(())
}

/// Prints an ours/paper row pair per direction: `rows` are (label, ours,
/// paper) with the cells preformatted.
fn ours_vs_paper(header: &[&str], rows: [(&str, Vec<String>, &[&str]); 2]) {
    let mut t = TablePrinter::new(header);
    for (label, ours, paper) in rows {
        t.row(&[vec![format!("{label} (ours)")], ours].concat());
        let paper = paper.iter().map(|c| c.to_string());
        t.row(&[vec![format!("{label} (paper)")], paper.collect()].concat());
    }
    t.print();
}

/// Table II: algebraic fusion of the self-attention Q/K/V input
/// projections (unfused / QK fused / QKV fused), in µs.
fn table2(cx: &Context) -> Res<()> {
    let rows = cx.qkv();
    println!("Table II: algebraic fusion for MHA Q/K/V (µs)\n");
    let us = |f: fn(&AlgebraicTiming) -> f64| rows.iter().map(|r| format!("{:.0}", f(r))).collect();
    ours_vs_paper(
        &["", "Unfused", "QK fused", "QKV fused"],
        [
            ("Forward", us(|r| r.forward_us), &["345", "294", "275"]),
            ("Backward", us(|r| r.backward_us), &["342", "312", "291"]),
        ],
    );
    println!(
        "\nFully fusing the batched MMM performs best, as in the paper (Sec. IV-D).\n\
         Note: our backward row prices the dX *and* dW stacked GEMMs, so its\n\
         magnitude is ≈2× the paper's backward row; the ordering is what matters."
    );
    Ok(())
}

/// Table III: per-operator flop, I/O, time, % peak, MUE and speedup for
/// the PyTorch baseline vs the fused, layout-selected implementation.
fn table3(cx: &Context) -> Res<()> {
    let t3 = table3_rows(&cx.device, cx.pytorch()?, cx.recipe()?);
    println!("Table III: flop analysis for a BERT-large encoder layer (fwd + bwd)\n");
    let mut t = TablePrinter::new(&[
        "kernel", "members", "cls", "Gflop", "in(M)", "out(M)", "PT µs", "ours µs", "% peak",
        "MUE", "speedup",
    ]);
    for r in &t3.rows {
        t.row(&[
            r.kernel.clone(),
            if r.members.len() > 1 {
                format!("{} ops", r.members.len())
            } else {
                "-".into()
            },
            r.class.glyph().to_string(),
            format!("{:.3}", r.gflop),
            format!("{:.1}", r.input_mw),
            format!("{:.1}", r.output_mw),
            format!("{:.0}", r.pytorch_us),
            format!("{:.0}", r.ours_us),
            format!("{:.1}", r.ours_pct_peak),
            format!("{:.0}", r.mue),
            format!("{:.2}", r.speedup),
        ]);
    }
    t.print();
    println!("\nclass totals (µs):");
    let paper = [
        (OpClass::TensorContraction, 4951.0, 4411.0),
        (OpClass::StatisticalNormalization, 2063.0, 1591.0),
        (OpClass::Elementwise, 1096.0, 735.0),
    ];
    let mut ct = TablePrinter::new(&[
        "class",
        "PT µs (paper)",
        "PT µs (ours)",
        "opt µs (paper)",
        "opt µs (ours)",
    ]);
    for ((class, p, o), (pc, pp, po)) in t3.class_totals.iter().zip(paper) {
        assert_eq!(*class, pc);
        ct.row(&[
            format!("{} {class}", class.glyph()),
            format!("{pp:.0}"),
            format!("{p:.0}"),
            format!("{po:.0}"),
            format!("{o:.0}"),
        ]);
    }
    ct.print();
    println!(
        "\ntotal: PT {:.0} µs vs ours {:.0} µs — {:.2}× kernel speedup (paper: 8110 vs 6739, 1.20×)",
        t3.totals.0,
        t3.totals.1,
        t3.totals.0 / t3.totals.1
    );
    println!(
        "data-movement reduction from fusion: {:.1}% (paper: ~22.91%)",
        t3.movement_reduction_pct
    );
    Ok(())
}

/// The MHA sub-graph's kernels in the fused encoder, forward.
const MHA_FORWARD_KERNELS: &[&str] = &["Q,K,V", "AIB", "QKT", "SM", "Gamma", "Out"];

/// The MHA sub-graph's kernels in the fused encoder, backward.
const MHA_BACKWARD_KERNELS: &[&str] = &[
    "BAOB",
    "Out dX",
    "Out dW",
    "Gamma dX1",
    "Gamma dX2",
    "BS",
    "QKT dX1",
    "QKT dX2",
    "BAIB",
    "Q,K,V dX",
    "Q,K,V dW",
];

/// The MHA sub-graph's operators in the unfused encoder, forward.
const MHA_FORWARD_OPS: &[&str] = &[
    "Q,K,V",
    "Input bias Q",
    "Input bias K",
    "Input bias V",
    "QKT",
    "Scaled softmax",
    "Dropout att",
    "Gamma",
    "Out",
];

/// The MHA sub-graph's operators in the unfused encoder, backward.
const MHA_BACKWARD_OPS: &[&str] = &[
    "Output bias dW",
    "Out dX",
    "Out dW",
    "Gamma dX1",
    "Gamma dX2",
    "Dropout att dX",
    "Scaled softmax dX",
    "QKT dX1",
    "QKT dX2",
    "Input bias dW",
    "Q,K,V dX",
    "Q,K,V dW",
];

/// Table IV: multi-head attention forward/backward time under TF+XLA,
/// PyTorch, cuDNN's MHA path and the recipe.
fn table4(cx: &Context) -> Res<()> {
    let ms = |profile: &ExecutionProfile, names: &[&str]| -> String {
        let us: f64 = names
            .iter()
            .map(|n| profile.op_time_us(n).unwrap_or(0.0))
            .sum();
        format!("{:.2}", us / 1000.0)
    };
    let pt = cx.pytorch()?;
    let xla = execute(cx.unfused(), &cx.device, &FrameworkPolicy::tf_xla())?;
    let (cudnn_fwd, cudnn_bwd) = cudnn_mha_time_ms(&cx.device, &cx.dims);
    let ours = cx.recipe()?;
    let ours_ms = |names: &[&str]| -> String {
        let us: f64 = names
            .iter()
            .map(|n| ours.op_time_us(n).unwrap_or(0.0))
            .sum();
        format!("{:.2}", us / 1000.0)
    };

    println!("Table IV: multi-head attention performance for BERT (ms)\n");
    let (fwd, bwd) = (MHA_FORWARD_OPS, MHA_BACKWARD_OPS);
    ours_vs_paper(
        &["", "TF+XLA", "PT", "cuDNN", "Ours"],
        [
            (
                "Forward",
                vec![
                    ms(&xla, fwd),
                    ms(pt, fwd),
                    format!("{cudnn_fwd:.0}"),
                    ours_ms(MHA_FORWARD_KERNELS),
                ],
                &["1.60", "1.90", "131", "1.25"],
            ),
            (
                "Backward",
                vec![
                    ms(&xla, bwd),
                    ms(pt, bwd),
                    format!("{cudnn_bwd:.0}"),
                    ours_ms(MHA_BACKWARD_KERNELS),
                ],
                &["2.25", "2.77", "652", "1.86"],
            ),
        ],
    );
    println!(
        "\nShape check: ours < TF+XLA < PT ≪ cuDNN, as in the paper.\n\
         (XLA here runs its element-wise fusion but not algebraic QKV fusion;\n\
         the cuDNN path is dominated by its softmax kernel-launch storm.)"
    );
    Ok(())
}

/// Forward and backward time (ms) of `profile` over `graph`.
fn split_ms(graph: &Graph, profile: &ExecutionProfile) -> Res<(f64, f64)> {
    let dy = graph.data_by_name("dy").ok_or("encoder graph has dy")?;
    let time = |ops: &[NodeId]| -> f64 {
        profile
            .rows
            .iter()
            .filter(|r| ops.contains(&r.op))
            .map(|r| r.cost.time_us + r.overhead_us)
            .sum::<f64>()
            / 1000.0
    };
    Ok((
        time(&forward_ops(graph, dy)),
        time(&backward_ops(graph, dy)),
    ))
}

/// Table V: the encoder layer's forward/backward time under PyTorch,
/// TF+XLA, DeepSpeed and the recipe.
fn table5(cx: &Context) -> Res<()> {
    // PyTorch: eager, unfused graph (but with the algebraic QKV fusion,
    // which PyTorch's implementation performs — Sec. VI-C).
    let (pt_f, pt_b) = split_ms(cx.unfused(), cx.pytorch()?)?;

    // TF+XLA: fuses element-wise chains (the paper's fusion plan is a
    // superset of XLA's) but misses the algebraic QKV fusion: add back the
    // Table II gap.
    let fused = cx.fused()?;
    let xla = execute(fused, &cx.device, &FrameworkPolicy::tf_xla())?;
    let (mut xla_f, mut xla_b) = split_ms(fused, &xla)?;
    let alg = cx.qkv();
    xla_f += (alg[0].forward_us - alg[2].forward_us) / 1000.0;
    xla_b += 2.0 * (alg[0].backward_us - alg[2].backward_us) / 1000.0; // dX and dW

    // DeepSpeed: manually fused and tuned.
    let (ds_f, ds_b) = split_ms(fused, cx.deepspeed()?)?;

    // Ours: the full recipe.
    let ours = cx.recipe()?;
    let (our_f, our_b) = (ours.forward_us / 1000.0, ours.backward_us / 1000.0);

    println!("Table V: full BERT encoder layer performance (ms)\n");
    let cells = |v: [f64; 4]| v.iter().map(|x| format!("{x:.2}")).collect();
    ours_vs_paper(
        &["", "PT", "TF+XLA", "DS", "Ours"],
        [
            (
                "Forward",
                cells([pt_f, xla_f, ds_f, our_f]),
                &["3.45", "3.2", "2.8", "2.63"],
            ),
            (
                "Backward",
                cells([pt_b, xla_b, ds_b, our_b]),
                &["5.69", "5.2", "4.8", "4.38"],
            ),
        ],
    );
    let speedup_pt = (pt_f + pt_b) / (our_f + our_b);
    let speedup_ds = (ds_f + ds_b) / (our_f + our_b);
    println!(
        "\nspeedups (fwd+bwd): {speedup_pt:.2}× over PyTorch (paper: 1.30×), \
         {speedup_ds:.2}× over DeepSpeed (paper: 1.08×)"
    );
    Ok(())
}

/// Fig. 1b: the multi-head attention dataflow graph with per-operator flop
/// and flop/IO annotations.
fn fig1(cx: &Context) -> Res<()> {
    let g = build::mha_forward(&cx.dims);
    println!(
        "Fig. 1b: MHA forward dataflow (P=W=64, H=16, I=1024, B=8, J=K=512)\n\
         Paper annotations: projections 8G flop @ 910 flop/word; QKT 4G @ 102;\n\
         softmax 160M @ 2.5; bias nodes ~4M @ 0.5.\n"
    );
    let mut t = TablePrinter::new(&["operator", "class", "Gflop (2^30)", "flop/word", "bound"]);
    for a in analysis::annotate(&g) {
        let fpw = a.flop_per_word();
        t.row(&[
            a.name.clone(),
            a.class.glyph().to_string(),
            format!("{:.3}", a.flop as f64 / 1_073_741_824.0),
            format!("{fpw:.1}"),
            if fpw < 1.0 {
                "IO > flop".into()
            } else if fpw < 10.0 {
                "IO ≈ flop".into()
            } else {
                "IO < flop".into()
            },
        ]);
    }
    t.print();
    Ok(())
}

/// Fig. 2: the encoder-layer training dataflow with flop and flop-per-word
/// annotations, forward and backward.
fn fig2(cx: &Context) -> Res<()> {
    let g = cx.unfused();
    println!(
        "Fig. 2: BERT-large encoder forward+backward dataflow (B=8, L=512)\n\
         Paper reference points: Linear 34G flop @ 585 flop/word; LayerNorm 29M @ 2.33;\n\
         dropout/bias/residual @ ~1/3 flop/word; total 312.6 Gi flop.\n"
    );
    let mut t = TablePrinter::new(&[
        "operator",
        "class",
        "Gflop (2^30)",
        "in (Mwords)",
        "out (Mwords)",
        "flop/word",
    ]);
    let mut total = 0.0;
    for a in analysis::annotate(g) {
        total += a.flop as f64;
        t.row(&[
            a.name.clone(),
            a.class.glyph().to_string(),
            format!("{:.3}", a.flop as f64 / 1_073_741_824.0),
            format!("{:.1}", a.input_words as f64 / 1e6),
            format!("{:.1}", a.output_words as f64 / 1e6),
            format!("{:.2}", a.flop_per_word()),
        ]);
    }
    t.print();
    println!(
        "\ntotal: {:.1} Gi flop (paper: 312.6);  total data movement: {:.0} Mwords",
        total / 1_073_741_824.0,
        g.total_io_words() as f64 / 1e6
    );
    Ok(())
}

/// Every einsum of `g` with its name and GEMM shape.
fn contractions(g: &Graph) -> Res<Vec<(String, GemmShape)>> {
    let mut out = Vec::new();
    for op in g.ops() {
        let node = g.op(op).ok_or("live op")?;
        let OpKind::Einsum(spec) = &node.kind else {
            continue;
        };
        let inputs = g.inputs_of(op);
        let a = &g.data(inputs[0]).ok_or("data")?.shape;
        let b = &g.data(inputs[1]).ok_or("data")?.shape;
        let s = spec.gemm_sizes(a, b)?;
        let (batch, m, n, k) = (s.batch, s.m, s.n, s.k);
        out.push((node.name.clone(), GemmShape { batch, m, n, k }));
    }
    Ok(out)
}

/// Fig. 4: runtime distributions over all data layouts for every tensor
/// contraction in encoder training, on tensor cores and on FP16 FPUs.
fn fig4(cx: &Context) -> Res<()> {
    // group contractions by GEMM shape, like the figure's tiles
    let mut tiles: BTreeMap<(usize, usize, usize, usize), Vec<String>> = BTreeMap::new();
    for (name, s) in contractions(cx.unfused())? {
        // the figure labels tiles with M ≥ N
        let (m, n) = if s.m >= s.n { (s.m, s.n) } else { (s.n, s.m) };
        tiles.entry((m, n, s.k, s.batch)).or_default().push(name);
    }

    println!(
        "Fig. 4: tensor contraction performance over all layouts and algorithms\n\
         (tensor-core peak 125 Tflop/s; FP16 peak 31.4 Tflop/s)\n"
    );
    for ((m, n, k, batch), ops) in tiles {
        let shape = GemmShape { batch, m, n, k };
        println!("{}", ops.join(", "));
        println!("  M: {m}, N: {n}, K: {k}, B: {batch}");
        for (math, label) in [
            (MathMode::TensorCore, "Tensor Cores"),
            (MathMode::Fp16, "16-bit FPUs "),
        ] {
            let mut times = Vec::new();
            for layout in all_layouts() {
                for algo in algorithms() {
                    times.push(gemm_cost(&cx.device, shape, layout, algo, math).time_us / 1000.0);
                }
            }
            let d = Distribution::from_times(&times);
            println!(
                "  {label}  best: {:.2} ms  worst: {:.2} ms  median: {:.2} ms  {}",
                d.best,
                d.worst,
                d.median,
                d.sparkline(&times, 24)
            );
        }
        println!();
    }
    println!(
        "Tensor cores win on large GEMMs; where a dimension is 64 they fail to\n\
         saturate and FP16 FPUs come close — as the paper observes (Sec. V-A)."
    );
    Ok(())
}

/// Fig. 5: runtime distributions over all layout / vectorization /
/// warp-axis configurations for every fused element-wise and
/// statistical-normalization kernel.
fn fig5(cx: &Context) -> Res<()> {
    let (g, src) = (cx.fused()?, cx.source());
    println!("Fig. 5: fused-kernel performance over all configurations (ms)\n");
    println!(
        "{:<8} {:>9} {:>10} {:>9}  distribution (log bins)",
        "kernel", "best", "worst", "median"
    );
    for op in g.ops() {
        let node = g.op(op).ok_or("live op")?;
        if node.kind.class() == OpClass::TensorContraction {
            continue;
        }
        let r = sweep_op(&src, g, op, SweepOptions::default())?;
        let times_ms: Vec<f64> = r.times_us.iter().map(|t| t / 1000.0).collect();
        let d = Distribution::from_times(&times_ms);
        println!(
            "{:<8} {:>9.3} {:>10.3} {:>9.3}  {}",
            node.name,
            d.best,
            d.worst,
            d.median,
            d.sparkline(&times_ms, 24)
        );
    }
    println!(
        "\nPaper reference (best/worst ms): AIB 0.065/5.3, SM 0.402/81.3, BRD 0.176/6.6,\n\
         BDRLN 0.071/3.5, BS 0.396/45.4, BSB 0.033/0.86, EBSB 0.034/0.88.\n\
         The long tails come from uncoalesced layouts — a bad configuration is\n\
         orders of magnitude worse, which is why exhaustive search matters (Sec. V-B)."
    );
    Ok(())
}

/// Fig. 6 / Sec. VI-A: the configuration-selection graph and its shortest
/// path, plus the "within 4% of per-op best" check.
fn fig6(cx: &Context) -> Res<()> {
    let ours = cx.recipe()?;
    let sel = &ours.selection;

    println!("Configuration selection (Sec. VI-A): shortest path through the layout graph\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "operator", "in layout", "out layout", "µs"
    );
    let layouts = sel.layout_specs(&ours.graph);
    for ((op, in_l, out_l), (_, timing)) in layouts.iter().zip(&sel.per_op) {
        let name = ours
            .graph
            .op(*op)
            .map(|o| o.name.clone())
            .unwrap_or_default();
        println!("{name:<10} {in_l:>12} {out_l:>12} {:>10.0}", timing.time_us);
    }
    println!(
        "\nselected forward path: {:.0} µs with {} explicit transposes",
        sel.total_us, sel.transposes
    );
    println!(
        "sum of unconstrained per-op bests: {:.0} µs → selection is {:.1}% above it\n\
         (paper: within 4% of the per-op lower bound)",
        sel.per_op_best_us,
        100.0 * (sel.total_us / sel.per_op_best_us - 1.0)
    );
    println!(
        "\nExample selection sub-graph (Fig. 6's QKV-fused → AIB slice):\n\
         each data container expands into one node per layout; operator edges\n\
         carry the best sweep time for that (in, out) pair; transpose edges\n\
         allow layout changes mid-graph.\n"
    );
    // one literal per line: a `\`-continued line loses its leading spaces
    for line in [
        "  source ─0─> [qkv_raw @ shbj] ──QKV──> [qq @ phbj] ──AIB──> ...",
        "         ─0─> [qkv_raw @ sbhj] ──QKV──> [qq @ pbhj] ──AIB──> ...",
        "         ─0─> [qkv_raw @ hjsb] ──QKV──> [qq @ hjpb] ──AIB──> ...",
        "                   │ transpose edges between layout rows │",
    ] {
        println!("{line}");
    }
    Ok(())
}

/// Sec. VI-C's alternative configuration, B = 96, L = 128, with the layout
/// selection retuned. Paper: PyTorch 18.43 ms, DeepSpeed 16.19 ms, ours
/// 16.22 ms for one encoder layer fwd+bwd.
fn config_b96(cx: &Context) -> Res<()> {
    let dims = EncoderDims::bert_b96();
    let unfused = build::encoder(&dims).graph;
    let pt = execute(&unfused, &cx.device, &FrameworkPolicy::pytorch())?;
    let mut ds_graph = unfused;
    apply_plan(&mut ds_graph, &encoder_fusion_plan())?;
    let ds = execute(&ds_graph, &cx.device, &FrameworkPolicy::deepspeed())?;
    // retuned: the recipe re-runs its sweeps and selection at these dims
    let ours = optimize_encoder(&cx.device, &dims, &RecipeOptions::default())?;

    println!("Sec. VI-C configuration: B=96, L=128 (ms, fwd+bwd)\n");
    let mut t = TablePrinter::new(&["", "PT", "DS", "Ours"]);
    t.row(&[
        "fwd+bwd (ours)".into(),
        format!("{:.2}", pt.total_us / 1000.0),
        format!("{:.2}", ds.total_us / 1000.0),
        format!("{:.2}", ours.total_us() / 1000.0),
    ]);
    t.row(&[
        "fwd+bwd (paper)".into(),
        "18.43".into(),
        "16.19".into(),
        "16.22".into(),
    ]);
    t.print();
    println!(
        "\nShape check: ours clearly beats PyTorch after retuning, as the paper\n\
         reports. Deviation: the paper's implementation only *matched* DeepSpeed\n\
         here (16.22 vs 16.19 ms) because its layout-selection algorithm handled\n\
         this configuration less well; our model keeps the exhaustive-selection\n\
         advantage, so we come out ahead of the DeepSpeed model instead."
    );
    Ok(())
}

/// Sec. V-A's library-heuristic study: how much worse the cuBLAS-style
/// heuristic algorithm choice is than exhaustive algorithm selection, per
/// encoder contraction. Paper: up to 14.24% (half precision) / 7.18%
/// (single precision).
fn heuristic_gap(cx: &Context) -> Res<()> {
    println!("GEMM algorithm heuristic vs exhaustive selection (Sec. V-A)\n");
    let mut t = TablePrinter::new(&["contraction", "B", "M", "N", "K", "gap TC %", "gap FP16 %"]);
    let mut max_tc = 0.0f64;
    let mut max_fp = 0.0f64;
    for (name, shape) in contractions(cx.unfused())? {
        let gap = |math: MathMode| -> f64 {
            let ideal = GemmLayout::ideal();
            let h = gemm_cost(&cx.device, shape, ideal, heuristic_algorithm(shape), math);
            let (_, best) = best_algo_cost(&cx.device, shape, ideal, math);
            100.0 * (h.time_us / best.time_us - 1.0)
        };
        let (gtc, gfp) = (gap(MathMode::TensorCore), gap(MathMode::Fp16));
        max_tc = max_tc.max(gtc);
        max_fp = max_fp.max(gfp);
        t.row(&[
            name,
            shape.batch.to_string(),
            shape.m.to_string(),
            shape.n.to_string(),
            shape.k.to_string(),
            format!("{gtc:.2}"),
            format!("{gfp:.2}"),
        ]);
    }
    t.print();
    println!(
        "\nmax gap: {max_tc:.2}% (tensor cores) / {max_fp:.2}% (FP16 FPUs)\n\
         paper: up to 14.24% at half precision, 7.18% at single precision —\n\
         the heuristic is good but not always optimal, so exhaustive search pays."
    );
    Ok(())
}

/// Ablation: kernel fusion on vs off (same exhaustively tuned layouts),
/// isolating fusion's contribution to the end-to-end win and to the
/// data-movement reduction.
fn ablation_fusion(cx: &Context) -> Res<()> {
    let (unfused, fused) = (cx.unfused(), cx.fused()?);
    let best_total = |s: &Sweeps| -> f64 { s.values().map(|s| s.best.time_us).sum() };
    let t_unfused = best_total(&sweep_all(
        &cx.source(),
        unfused,
        RecipeOptions::default().sweep,
    )?);
    let t_fused = best_total(cx.sweeps()?);

    println!("Ablation: fusion on/off with per-op best layouts (BERT-large encoder)\n");
    println!(
        "unfused kernels : {:>8.0} µs over {} kernels",
        t_unfused,
        unfused.ops().len()
    );
    println!(
        "fused kernels   : {:>8.0} µs over {} kernels",
        t_fused,
        fused.ops().len()
    );
    println!("fusion speedup  : {:>8.2}×", t_unfused / t_fused);
    println!(
        "data movement   : {:>8.1}% reduction (paper: ~22.91%)",
        analysis::movement_reduction_pct(unfused, fused)
    );
    println!(
        "kernel launches : {} → {} (−{})",
        unfused.ops().len(),
        fused.ops().len(),
        unfused.ops().len() - fused.ops().len()
    );
    Ok(())
}

/// Ablation: configuration-selection strategies — global shortest-path
/// (the paper's), unconstrained per-op best (a lower bound that ignores
/// layout compatibility), and a fixed natural layout everywhere.
fn ablation_selection(cx: &Context) -> Res<()> {
    let (g, fwd) = cx.forward()?;
    let sel = &cx.recipe()?.selection;
    let fixed: f64 = fwd
        .iter()
        .map(|&op| {
            let cfg = OpConfig::natural(g, op).expect("natural config");
            op_cost(&cx.device, g, op, &cfg).map_or(f64::NAN, |c| c.time_us)
        })
        .sum();

    println!("Ablation: layout-selection strategies (forward pass, µs)\n");
    println!(
        "per-op best (lower bound, ignores compatibility): {:>8.0}",
        sel.per_op_best_us
    );
    println!(
        "global shortest-path selection (the recipe)     : {:>8.0}  (+{:.1}%, paper: ≤4%)",
        sel.total_us,
        100.0 * (sel.total_us / sel.per_op_best_us - 1.0)
    );
    println!(
        "fixed natural layout everywhere                 : {:>8.0}  (+{:.1}%)",
        fixed,
        100.0 * (fixed / sel.per_op_best_us - 1.0)
    );
    println!(
        "transposes inserted by the selected path        : {:>8}",
        sel.transposes
    );
    println!(
        "\nGlobal selection recovers nearly all of the per-op optimum while staying\n\
         layout-consistent; a single fixed layout leaves substantial time on the table\n\
         (\"one cannot simply pick a single data layout a priori\", Sec. VI)."
    );
    Ok(())
}

/// Sec. VIII "beyond BERT": the identical recipe applied to a GPT-2-style
/// decoder block (pre-layer-norm, causally masked self-attention, GELU).
/// The paper argues only the dataflow graph changes; the recipe does not.
fn gpt2_block(cx: &Context) -> Res<()> {
    let unfused = build::decoder(&cx.dims).graph;
    let pt = execute(&unfused, &cx.device, &FrameworkPolicy::pytorch())?;
    let mut fused = unfused.clone();
    apply_plan(&mut fused, &decoder_fusion_plan())?;
    let ours = optimize_decoder(&cx.device, &cx.dims, &RecipeOptions::default())?;
    let enc = cx.recipe()?;

    println!("GPT-2-style decoder block (pre-LN, causal, GELU) under the same recipe\n");
    let mut t = TablePrinter::new(&["", "PyTorch model", "Ours (recipe)", "speedup"]);
    t.row(&[
        "decoder fwd+bwd (ms)".into(),
        format!("{:.2}", pt.total_us / 1000.0),
        format!("{:.2}", ours.total_us() / 1000.0),
        format!("{:.2}×", pt.total_us / ours.total_us()),
    ]);
    t.print();
    println!(
        "\nmovement reduction from the decoder fusion plan: {:.1}%",
        analysis::movement_reduction_pct(&unfused, &fused)
    );
    println!(
        "decoder vs encoder optimized totals: {:.2} ms vs {:.2} ms\n\
         (same contractions; pre-LN shifts which element-wise chains fuse)",
        ours.total_us() / 1000.0,
        enc.total_us() / 1000.0
    );
    println!(
        "selection: {:.1}% above the per-op lower bound with {} transposes",
        100.0 * (ours.selection.total_us / ours.selection.per_op_best_us - 1.0),
        ours.selection.transposes
    );
    Ok(())
}

/// The recipe on *real measurements*: the V100 model swapped for
/// [`CpuSource`], which times each forward kernel compiled alone onto an
/// arena, through the identical fuse → sweep → select pipeline (Sec.
/// VIII's hardware-agnosticity claim). Small dimensions: real measurement
/// is a million times slower than the analytical model, and its selection
/// varies from run to run (`examples/layout_tuning.rs` runs the forward
/// half at the benchmark's `bert_fwd` dimensions).
fn cpu_recipe(cx: &Context) -> Res<()> {
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
        "running the recipe against real CPU measurements (dims: i={}, j={}, b={})",
        dims.i, dims.j, dims.b
    );
    let opts = RecipeOptions {
        sweep: SweepOptions {
            max_configs: Some(96),
            ..SweepOptions::default()
        },
        per_op_overhead_us: 0.0,
    };
    // the device only prices transpose bookkeeping
    let plan = optimize_encoder_with(&CpuSource::new(3), &cx.device, &dims, &opts)?;
    println!("\nselected configuration (measured µs per kernel):");
    for r in plan.rows.iter().filter(|r| r.forward) {
        let (in_spec, _, out_spec) = r.config.specs(&plan.graph, r.op)?;
        println!(
            "  {:<10} {:>9.1} µs   in {:<6} out {:<6} vec {:?}",
            r.name, r.time_us, in_spec, out_spec, r.config.vector_axis
        );
    }
    println!(
        "\nforward {:.2} ms, backward {:.2} ms (measured on this machine)",
        plan.forward_us / 1000.0,
        plan.backward_us / 1000.0
    );
    println!(
        "selection {:.1}% above the per-op measured optimum — the same global\n\
         selection machinery, driven by real numbers instead of a model.",
        100.0 * (plan.selection.total_us / plan.selection.per_op_best_us - 1.0)
    );
    Ok(())
}

/// Kernel time (µs) of `plan`'s contractions and of everything else.
fn contraction_split(plan: &OptimizedEncoder) -> (f64, f64) {
    let time = |tc: bool| -> f64 {
        let rows = plan.rows.iter();
        rows.filter(|r| (r.class == OpClass::TensorContraction) == tc)
            .map(|r| r.time_us)
            .sum()
    };
    (time(true), time(false))
}

/// Sec. VIII-B "hardware implications": the identical recipe on the
/// paper's V100 and on an A100 model. Compute grows faster than bandwidth
/// between the generations, so the memory-bound share of the optimized
/// encoder *increases* — data movement matters more on newer hardware.
fn hardware_study(cx: &Context) -> Res<()> {
    println!("The same recipe, two GPU generations (BERT-large encoder, fwd+bwd)\n");
    let mut t = TablePrinter::new(&[
        "device",
        "total ms",
        "contraction ms",
        "memory-bound ms",
        "memory-bound %",
    ]);
    let mut rows = Vec::new();
    for device in [DeviceSpec::v100(), DeviceSpec::a100()] {
        let plan = cx.recipe_at(&device, &cx.dims)?;
        let (tc, mem) = contraction_split(&plan);
        t.row(&[
            device.name.clone(),
            format!("{:.2}", plan.total_us() / 1000.0),
            format!("{:.2}", tc / 1000.0),
            format!("{:.2}", mem / 1000.0),
            format!("{:.1}", 100.0 * mem / (tc + mem)),
        ]);
        rows.push((tc, mem));
    }
    t.print();
    let [(tc_v, mem_v), (tc_a, mem_a)] = [rows[0], rows[1]];
    println!(
        "\ncontractions sped up {:.2}×, memory-bound kernels only {:.2}× —\n\
         the memory-bound share grows with each hardware generation, so the\n\
         paper's data-movement recipe matters *more* over time (Sec. VIII-B).",
        tc_v / tc_a,
        mem_v / mem_a
    );
    Ok(())
}

/// Model-size scaling: the recipe across BERT-base, BERT-large and
/// GPT-scale blocks, and the paper's projection of its 1.30× speedup onto
/// training bills (>$85k saved on BERT, ~$3.6M and >120 MWh on GPT-3).
fn scaling_study(cx: &Context) -> Res<()> {
    let dims = |b, j, h, p, u| EncoderDims {
        b,
        j,
        k: j,
        h,
        p,
        i: h * p,
        u,
    };
    let configs = [
        ("BERT-base", dims(8, 512, 12, 64, 3072)),
        ("BERT-large", cx.dims),
        ("GPT-2 XL-ish", dims(8, 1024, 25, 64, 6400)),
        ("GPT-3-ish", dims(4, 2048, 96, 128, 49152)),
    ];
    println!("The recipe across model scales (one encoder layer, fwd+bwd)\n");
    let mut t = TablePrinter::new(&[
        "model",
        "hidden",
        "PT model ms",
        "ours ms",
        "speedup",
        "movement −%",
    ]);
    let mut last_speedup = 1.0;
    for (name, dims) in &configs {
        let pt = if *dims == cx.dims {
            Cow::Borrowed(cx.pytorch()?)
        } else {
            let graph = build::encoder(dims).graph;
            Cow::Owned(execute(&graph, &cx.device, &FrameworkPolicy::pytorch())?)
        };
        let ours = cx.recipe_at(&cx.device, dims)?;
        let speedup = pt.total_us / ours.total_us();
        last_speedup = speedup;
        t.row(&[
            name.to_string(),
            dims.i.to_string(),
            format!("{:.2}", pt.total_us / 1000.0),
            format!("{:.2}", ours.total_us() / 1000.0),
            format!("{speedup:.2}×"),
            format!("{:.1}", ours.movement_reduction_pct),
        ]);
    }
    t.print();
    // the paper's cost projection (GPT-3 training ≈ $12M, >120 MWh at stake)
    let gpt3_cost_musd = 12.0;
    let saved = gpt3_cost_musd * (1.0 - 1.0 / last_speedup);
    println!(
        "\nprojection: at a ${gpt3_cost_musd}M GPT-3 training cost, a {last_speedup:.2}× layer\n\
         speedup saves ≈ ${saved:.1}M (the paper projects $3.6M from its 1.30×).\n\
         The speedup holds — and the data-movement share grows — as models scale,\n\
         because attention and normalization traffic grow with L² and N."
    );
    Ok(())
}

/// Sequence-length sweep: how the memory-bound share of encoder training
/// grows with L. Attention's O(L²) softmax/dropout traffic is exactly the
/// bottleneck later work (e.g. FlashAttention) attacked.
fn seq_sweep(cx: &Context) -> Res<()> {
    println!("Memory-bound share vs sequence length (BERT-large encoder)\n");
    let mut t = TablePrinter::new(&[
        "L",
        "total ms",
        "attention-softmax ms",
        "memory-bound %",
        "movement Mwords",
    ]);
    for l in [128usize, 256, 512, 1024] {
        let dims = EncoderDims {
            j: l,
            k: l,
            ..cx.dims
        };
        let plan = cx.recipe_at(&cx.device, &dims)?;
        let sm: f64 = plan
            .rows
            .iter()
            .filter(|r| r.name == "SM" || r.name == "BS")
            .map(|r| r.time_us)
            .sum();
        let (tc, mem) = contraction_split(&plan);
        t.row(&[
            l.to_string(),
            format!("{:.2}", plan.total_us() / 1000.0),
            format!("{:.2}", sm / 1000.0),
            format!("{:.1}", 100.0 * mem / (tc + mem)),
            format!("{:.0}", plan.graph.total_io_words() as f64 / 1e6),
        ]);
    }
    t.print();
    println!(
        "\nThe fused softmax/dropout pair (SM + BS) grows quadratically with L and\n\
         dominates the memory-bound time at long sequences — the attention\n\
         memory wall this paper diagnosed and FlashAttention later removed."
    );
    Ok(())
}

/// Stacked-layer selection: stacked into a network (Sec. VI-C), layer N's
/// output layout constrains layer N+1's input. Chained shortest-path
/// selection settles into a steady-state interior configuration after the
/// first boundary, so a deep network pays at most one boundary adjustment.
fn stack_study(cx: &Context) -> Res<()> {
    let (g, fwd) = cx.forward()?;
    let layers = 24; // BERT-large depth
    let stack = select_stacked(g, &cx.device, &fwd, cx.sweeps()?, layers)?;
    let single = &cx.recipe()?.selection;

    println!("Chained layout selection across a {layers}-layer stack (forward, µs)\n");
    let mut t = TablePrinter::new(&["layer", "selected µs", "transposes"]);
    for (i, (us, sel)) in stack
        .per_layer_us
        .iter()
        .zip(&stack.layers)
        .enumerate()
        .take(4)
    {
        t.row(&[
            i.to_string(),
            format!("{us:.0}"),
            sel.transposes.to_string(),
        ]);
    }
    t.row(&["…".into(), "…".into(), "…".into()]);
    let last = stack.per_layer_us.last().ok_or("an empty stack")?;
    t.row(&[
        (layers - 1).to_string(),
        format!("{last:.0}"),
        String::new(),
    ]);
    t.print();
    println!(
        "\nsteady state from layer {}; stack total {:.0} µs vs {layers}× unconstrained\n\
         single-layer optimum {:.0} µs ({:+.2}%) — stacking optimized layers costs\n\
         at most one boundary adjustment, so per-layer results compose to full\n\
         networks, as the paper asserts.",
        stack.steady_state_from,
        stack.total_us,
        layers as f64 * single.total_us,
        100.0 * (stack.total_us / (layers as f64 * single.total_us) - 1.0)
    );
    Ok(())
}

/// Counterfactual hardware: the optimized encoder re-priced on machines
/// with 10× bandwidth, 10× compute, or free kernel launches — even after
/// the recipe, compute alone recovers far less than bandwidth (Sec. VIII-B).
fn whatif(cx: &Context) -> Res<()> {
    let w = whatif_totals(&cx.device, cx.recipe()?)?;
    println!("Counterfactual hardware for the optimized encoder (fwd+bwd kernels)\n");
    println!("  as modelled (V100)        : {:8.0} µs", w.current_us);
    for (label, us) in [
        ("10× DRAM bandwidth        ", w.bandwidth_10x_us),
        ("10× compute peaks         ", w.compute_10x_us),
        ("zero launch overhead      ", w.zero_launch_us),
    ] {
        println!("  {label}: {us:8.0} µs  ({:.2}× faster)", w.current_us / us);
    }
    println!(
        "\nA 10× compute machine recovers {:.0}% of the ideal 10×; the rest is\n\
         data movement. The same budget spent on bandwidth is the better deal —\n\
         the hardware lesson the paper closes with.",
        100.0 * (w.current_us / w.compute_10x_us) / 10.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mha_kernel_lists_are_disjoint_fwd_bwd() {
        for f in MHA_FORWARD_KERNELS {
            assert!(!MHA_BACKWARD_KERNELS.contains(f));
        }
        for f in MHA_FORWARD_OPS {
            assert!(!MHA_BACKWARD_OPS.contains(f));
        }
    }

    #[test]
    fn entry_names_are_unique() {
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|o| o.name != e.name), "{}", e.name);
        }
    }
}
