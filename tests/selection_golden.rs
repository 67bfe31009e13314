//! Bitwise pins on the recipe's *output*: what `optimize_encoder` /
//! `optimize_decoder` select, what `ExecutionPlan::lower` makes of it, and
//! what one operator's configuration turns into as a plan step and as a
//! price — recorded in PR 24 as a test-only commit on PR 23's library,
//! ahead of layouts becoming values instead of axis strings. Every row is
//! the FNV-1a digest of a text rendering (layouts as axis letters, times as
//! `f64` bit patterns); a row that moves means a selection, a lowered plan
//! or a simulated time changed.
//!
//! The functions under "How a layout is spelled" are the only code here
//! that touches the representation of a layout; a change of representation
//! edits those and no row.
//!
//! Each selection is run twice in one process (the tiny recipes at one and
//! at two sweep threads) and the renderings compared: every `HashMap` in
//! the sweep and the selection gets its own `RandomState`, so a tie that
//! iteration order decides shows up as a difference between the two runs.
//! On PR 23's library it does: a GEMM's price does not depend on which of
//! its equally-blocked layouts is chosen, the SSSP takes the first of
//! several equal-cost entries in iteration order, and *which* cheapest path
//! a run selects follows the hasher. So the rows of a selection hold what
//! no tie moves — totals, transposes, every operator's time, the backward
//! configurations — the sweep tables, per-operator-best plans and single
//! steps are held whole, and the test that the path itself repeats is
//! recorded ignored, for the change that decides ties to switch on.
//!
//! PR 26 added, test-only on PR 24's library, what a sweep samples: every
//! operator's whole configuration space in enumeration order (the unfused,
//! fused and regions-only graphs), the sweep tables of the regions-only
//! graphs, and the BERT-large encoder sweep at the recipe's cap as
//! per-operator sampled times — ahead of the space being sampled without
//! being built and a contraction being priced once per GEMM class; and,
//! with that change, the sweep tables of the epilogue graphs, which PR 24's
//! library could not sweep.
//!
//! On a mismatch the test prints the digest it computed and the rendering
//! behind it, so an *intended* change can re-record the row.

use std::collections::HashMap;
use std::fmt::Write as _;

use substation::core::analyze::lint_selection;
use substation::core::cachemodel::CacheGeometry;
use substation::core::fusion::{
    apply_epilogues, apply_plan, apply_regions, decoder_fusion_plan, encoder_fusion_plan,
    FusionGroup,
};
use substation::core::plan::{layout_spec, ExecutionPlan, Operand, PlanStep, Relayout};
use substation::core::recipe::{
    forward_ops, optimize_decoder, optimize_encoder, OptimizedEncoder, RecipeOptions,
};
use substation::core::selection::{
    select_forward, select_forward_cost, select_stacked, CostModel, Selection,
};
use substation::core::sweep::{
    sweep_all, ConfigTiming, SimulatorSource, SweepOptions, SweepResult,
};
use substation::dataflow::{build, EncoderDims, Graph, NodeId};
use substation::gpusim::opmodel::{config_space, op_cost, primary_tensors, OpConfig};
use substation::gpusim::DeviceSpec;
use substation::tensor::Layout;

// ---------------------------------------------------------------------
// How a layout is spelled
// ---------------------------------------------------------------------

/// The three layouts of a configuration as axis letters, memory order.
fn cfg_specs(graph: &Graph, op: NodeId, cfg: &OpConfig) -> (String, Option<String>, String) {
    cfg.specs(graph, op).unwrap()
}

/// An operand's declared layout as axis letters.
fn operand_spec(graph: &Graph, o: &Operand) -> String {
    layout_spec(graph, o.data, o.layout)
}

/// A relayout's two layouts as axis letters.
fn relayout_specs(graph: &Graph, r: &Relayout) -> (String, String) {
    (
        layout_spec(graph, r.data, r.from),
        layout_spec(graph, r.data, r.to),
    )
}

/// The selected (flowing-input, output) layouts per operator as letters.
fn selection_specs(graph: &Graph, sel: &Selection) -> Vec<(NodeId, String, String)> {
    sel.layout_specs(graph)
}

/// A sweep's `per_io` table keyed by letters.
fn per_io_specs<'a>(
    graph: &Graph,
    op: NodeId,
    sweep: &'a SweepResult,
) -> Vec<((String, String), &'a ConfigTiming)> {
    let flowing = graph.inputs_of(op)[sweep.flowing_input];
    let (_, priced_out) = primary_tensors(graph, op).unwrap();
    let spelled = |(&(in_l, out_l), t): (&(Layout, Layout), &'a ConfigTiming)| {
        let key = (
            layout_spec(graph, flowing, in_l),
            layout_spec(graph, priced_out, out_l),
        );
        (key, t)
    };
    sweep.per_io.iter().map(spelled).collect()
}

/// `natural` with each of its layouts re-ordered: memory position `m` of
/// the result holds what position `pi[m]` of the natural layout held.
fn permuted_cfg(
    natural: &OpConfig,
    pi_in: &[usize],
    pi_in2: &[usize],
    pi_out: &[usize],
) -> OpConfig {
    let pick = |layout: Layout, pi: &[usize]| -> Layout {
        let order: Vec<usize> = layout.order().collect();
        Layout::from_order(&pi.iter().map(|&i| order[i]).collect::<Vec<_>>()).unwrap()
    };
    OpConfig {
        in_layout: pick(natural.in_layout, pi_in),
        in2_layout: natural.in2_layout.map(|l| pick(l, pi_in2)),
        out_layout: pick(natural.out_layout, pi_out),
        ..*natural
    }
}

/// The ranks of a configuration's three layouts.
fn cfg_ranks(cfg: &OpConfig) -> (usize, Option<usize>, usize) {
    (
        cfg.in_layout.rank(),
        cfg.in2_layout.map(|l| l.rank()),
        cfg.out_layout.rank(),
    )
}

/// A configuration as bytes — each layout's permutation of positions,
/// closed by `0xff`, `0xfe` for a missing second input — for the digests of
/// whole configuration spaces, which are too long to render as text.
fn cfg_bytes(h: &mut Fnv, cfg: &OpConfig) {
    for layout in [Some(cfg.in_layout), cfg.in2_layout, Some(cfg.out_layout)] {
        match layout {
            Some(l) => {
                for p in l.order() {
                    h.bytes(&[p as u8]);
                }
                h.bytes(&[0xff]);
            }
            None => h.bytes(&[0xfe]),
        }
    }
    for axis in [cfg.vector_axis, cfg.warp_axis] {
        h.bytes(&axis.map_or(0, u32::from).to_le_bytes());
    }
    h.bytes(&[cfg.algo as u8, cfg.math as u8]);
}

// ---------------------------------------------------------------------
// Renderings
// ---------------------------------------------------------------------

/// FNV-1a, fed a piece at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

fn op_name(graph: &Graph, op: NodeId) -> &str {
    graph.op(op).map_or("?", |o| o.name.as_str())
}

fn render_cfg(out: &mut String, graph: &Graph, op: NodeId, cfg: &OpConfig) {
    let (i, i2, o) = cfg_specs(graph, op, cfg);
    let _ = write!(
        out,
        "in={i} in2={} out={o} vec={:?} warp={:?} algo={} math={:?}",
        i2.as_deref().unwrap_or("-"),
        cfg.vector_axis,
        cfg.warp_axis,
        cfg.algo,
        cfg.math
    );
}

fn render_step(out: &mut String, graph: &Graph, step: &PlanStep) {
    let _ = write!(out, "step `{}` in:", step.name);
    for o in &step.inputs {
        let _ = write!(out, " {}@{}", o.name, operand_spec(graph, o));
    }
    let _ = write!(out, " out:");
    for o in &step.outputs {
        let _ = write!(out, " {}@{}", o.name, operand_spec(graph, o));
    }
    let _ = write!(out, " relayouts:");
    for r in &step.relayouts {
        let (from, to) = relayout_specs(graph, r);
        let _ = write!(out, " {}:{from}>{to}", r.name);
    }
    out.push('\n');
}

/// A selection: its totals and each operator's time — which no tie moves
/// — and, with `paths`, the layouts and configurations chosen, which on a
/// library that lets `HashMap` iteration order decide between equal-cost
/// paths differ from one run to the next.
fn render_selection(out: &mut String, graph: &Graph, sel: &Selection, paths: bool) {
    if paths {
        for (op, i, o) in selection_specs(graph, sel) {
            let _ = writeln!(out, "layout `{}` {i} {o}", op_name(graph, op));
        }
    }
    let _ = writeln!(
        out,
        "total_us {:016x} per_op_best_us {:016x} transposes {}",
        sel.total_us.to_bits(),
        sel.per_op_best_us.to_bits(),
        sel.transposes
    );
    for (op, t) in &sel.per_op {
        let _ = write!(out, "per_op `{}` ", op_name(graph, *op));
        if paths {
            render_cfg(out, graph, *op, &t.cfg);
        }
        let _ = writeln!(out, " time {:016x}", t.time_us.to_bits());
    }
}

fn render_plan(out: &mut String, graph: &Graph, plan: &ExecutionPlan) {
    for step in &plan.steps {
        render_step(out, graph, step);
    }
    let _ = writeln!(out, "relayout_count {}", plan.relayout_count());
}

/// A recipe's result; the backward rows are per-operator bests (the first
/// fastest configuration in enumeration order) and are rendered whole
/// either way, the forward rows and the lowered plan follow the path.
fn render_optimized(o: &OptimizedEncoder, paths: bool) -> String {
    let mut out = String::new();
    render_selection(&mut out, &o.graph, &o.selection, paths);
    let _ = writeln!(
        out,
        "forward_us {:016x} backward_us {:016x}",
        o.forward_us.to_bits(),
        o.backward_us.to_bits()
    );
    for r in &o.rows {
        let _ = write!(out, "row `{}` fwd={} ", r.name, r.forward);
        if paths || !r.forward {
            render_cfg(&mut out, &o.graph, r.op, &r.config);
        }
        let _ = writeln!(out, " time {:016x}", r.time_us.to_bits());
    }
    if paths {
        let plan = ExecutionPlan::lower(&o.graph, &o.selection).unwrap();
        render_plan(&mut out, &o.graph, &plan);
    }
    out
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

const GOLDEN: &[(&str, u64)] = &[
    ("selection/encoder-bert-large", 0xfb4bb2e0ca44306c),
    ("selection/decoder-bert-large", 0xcfd6e60ad3be1dd4),
    ("selection/encoder-tiny", 0x4cd18658cfc9ef1f),
    ("selection/decoder-tiny", 0x36e4cffd462578c6),
    ("selection/stacked-tiny", 0xf1d958c253f69065),
    ("selection/cache-aware-tiny", 0x0aba7a8a1f168140),
    ("selection/sweeps-encoder", 0x7bca9bd9e7fbad6b),
    ("selection/sweeps-decoder", 0x1806b26efeb4310b),
    ("selection/steps-encoder", 0xf891036272a38fb6),
    ("selection/steps-decoder", 0xd07a7816017a5141),
    // the paths: recorded in PR 24 with the change that decides ties (no
    // two runs of PR 23's library agree on them)
    ("selection/encoder-bert-large/path", 0x72bbffc561eb5b8a),
    ("selection/decoder-bert-large/path", 0x06687a6caabeb491),
    ("selection/encoder-tiny/path", 0x302d04a80005a14e),
    ("selection/decoder-tiny/path", 0xa669a918f5849b08),
    ("selection/stacked-tiny/path", 0x7a3c45d3897be6e6),
    ("selection/cache-aware-tiny/path", 0xc7575bd63d6b4b74),
    // configuration spaces and sampled sweeps: recorded in PR 26 on PR
    // 24's library
    ("selection/space-encoder", 0x922fe668a08617b9),
    ("selection/space-decoder", 0xadffefac1ec5371f),
    ("selection/sweeps-regions-encoder", 0xa373231a9d98fd03),
    ("selection/sweeps-regions-decoder", 0xa15a365627fe07b5),
    ("selection/sampled-bert-large", 0x1549ec8456b1f55b),
    // epilogue graphs: recorded in PR 26 with the change that sweeps a
    // GEMM-epilogue kernel as a contraction (on PR 24's library every one
    // of its configurations failed to price, and so did the sweep)
    ("selection/sweeps-epilogues-encoder", 0xbe661b537212a2b9),
    ("selection/sweeps-epilogues-decoder", 0x826dcddfefcf6ad9),
];

fn check(name: &str, text: &str) {
    let want = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden row `{name}`"))
        .1;
    let got = fnv(text);
    if got != want {
        eprintln!("---- {name} ----\n{text}");
        panic!(
            "`{name}`: digest 0x{got:016x}, recorded 0x{want:016x}\n    (\"{name}\", 0x{got:016x}),"
        );
    }
}

fn assert_same(what: &str, first: &str, second: &str) {
    assert!(
        first == second,
        "{what}: two runs in one process differ\n{first}\n---- vs ----\n{second}"
    );
}

/// What `plan_audit`'s `recipe-selected` row and the benchmark's
/// `plan_compile` run: the library's defaults on one sweep thread.
fn options(threads: usize) -> RecipeOptions {
    let mut options = RecipeOptions::default();
    options.sweep.threads = threads;
    options
}

type Recipe =
    fn(&DeviceSpec, &EncoderDims, &RecipeOptions) -> substation::tensor::Result<OptimizedEncoder>;

/// Runs `recipe` once per entry of `threads` and returns the first run's
/// two renderings — its costs, and its costs and path — every other run's
/// required to equal them.
fn recipe_texts(recipe: Recipe, dims: &EncoderDims, threads: &[usize]) -> [String; 2] {
    let device = DeviceSpec::v100();
    let mut texts = threads.iter().map(|&t| {
        let optimized = recipe(&device, dims, &options(t)).unwrap();
        [false, true].map(|paths| render_optimized(&optimized, paths))
    });
    let first = texts.next().unwrap();
    for (text, t) in texts.zip(&threads[1..]) {
        for (a, b) in first.iter().zip(&text) {
            assert_same(&format!("{} and {t} sweep threads", threads[0]), a, b);
        }
    }
    first
}

#[test]
fn encoder_at_bert_large() {
    let [costs, path] = recipe_texts(optimize_encoder, &EncoderDims::bert_large(), &[1]);
    check("selection/encoder-bert-large", &costs);
    check("selection/encoder-bert-large/path", &path);
}

#[test]
fn decoder_at_bert_large() {
    let [costs, path] = recipe_texts(optimize_decoder, &EncoderDims::bert_large(), &[1]);
    check("selection/decoder-bert-large", &costs);
    check("selection/decoder-bert-large/path", &path);
}

#[test]
fn encoder_at_tiny_on_one_and_two_threads() {
    let [costs, path] = recipe_texts(optimize_encoder, &EncoderDims::tiny(), &[1, 2]);
    check("selection/encoder-tiny", &costs);
    check("selection/encoder-tiny/path", &path);
}

#[test]
fn decoder_at_tiny_on_one_and_two_threads() {
    let [costs, path] = recipe_texts(optimize_decoder, &EncoderDims::tiny(), &[1, 2]);
    check("selection/decoder-tiny", &costs);
    check("selection/decoder-tiny/path", &path);
}

/// Recorded ignored on PR 23's library, where it was red: the SSSP kept its
/// labels, its transition tables and the sweep's `per_io` in `HashMap`s and
/// took the first of several equal-cost entries in iteration order, a
/// GEMM's price does not depend on which of its equally-blocked layouts is
/// chosen, and so *which* of the cheapest paths a run selected — its
/// layouts, its configurations, its lowered plan — followed each map's
/// `RandomState`. Since PR 24 those tables are in layout order and the
/// first of equals is the same one every run, which is also what lets the
/// `/path` rows exist.
#[test]
fn the_selected_path_is_the_same_in_two_runs() {
    for recipe in [optimize_encoder as Recipe, optimize_decoder] {
        recipe_texts(recipe, &EncoderDims::tiny(), &[1, 1]);
    }
}

fn fused_tiny(bundle: build::EncoderGraph, plan: &[FusionGroup]) -> (Graph, Vec<NodeId>) {
    let mut g = bundle.graph;
    apply_plan(&mut g, plan).unwrap();
    let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
    (g, fwd)
}

fn fused_tiny_encoder() -> (Graph, Vec<NodeId>) {
    fused_tiny(build::encoder(&EncoderDims::tiny()), &encoder_fusion_plan())
}

fn capped_sweeps(g: &Graph, max: usize) -> HashMap<NodeId, SweepResult> {
    let opts = SweepOptions {
        max_configs: Some(max),
        threads: 1,
    };
    sweep_all(&SimulatorSource::default(), g, opts).unwrap()
}

/// The entry-layout chain of `select_stacked`.
#[test]
fn stacked_selection_at_tiny() {
    let (g, fwd) = fused_tiny_encoder();
    let device = DeviceSpec::v100();
    let run = |paths: bool| {
        let sweeps = capped_sweeps(&g, 3_000);
        let stack = select_stacked(&g, &device, &fwd, &sweeps, 3).unwrap();
        let mut out = String::new();
        let _ = writeln!(out, "total_us {:016x}", stack.total_us.to_bits());
        for (layer, us) in stack.layers.iter().zip(&stack.per_layer_us) {
            let _ = writeln!(out, "layer {:016x}", us.to_bits());
            render_selection(&mut out, &g, layer, paths);
        }
        if paths {
            let _ = writeln!(out, "steady_state_from {}", stack.steady_state_from);
        }
        out
    };
    for (row, paths) in [
        ("selection/stacked-tiny", false),
        ("selection/stacked-tiny/path", true),
    ] {
        let first = run(paths);
        assert_same("stacked selection", &first, &run(paths));
        check(row, &first);
    }
}

/// `CostModel::CacheAware`: every (in, out) pair of every forward operator
/// priced through `cachemodel::op_dram_words`.
#[test]
fn cache_aware_selection_at_tiny() {
    let (g, fwd) = fused_tiny_encoder();
    let device = DeviceSpec::v100();
    let model = CostModel::CacheAware(CacheGeometry::for_device(&device));
    let run = |paths: bool| {
        let sweeps = capped_sweeps(&g, 3_000);
        let sel = select_forward_cost(&g, &device, &fwd, &sweeps, None, &model).unwrap();
        let mut out = String::new();
        render_selection(&mut out, &g, &sel, paths);
        if paths {
            render_plan(&mut out, &g, &ExecutionPlan::lower(&g, &sel).unwrap());
        }
        out
    };
    for (row, paths) in [
        ("selection/cache-aware-tiny", false),
        ("selection/cache-aware-tiny/path", true),
    ] {
        let first = run(paths);
        assert_same("cache-aware selection", &first, &run(paths));
        check(row, &first);
    }
}

/// Every operator's sweep as a table — the best configuration, the
/// distribution, and `per_io` in key order — then the per-operator bests of
/// the forward operators lowered to a plan (a selection no tie can move)
/// and that plan's selection lints.
fn sweeps_text(g: &Graph, fwd: &[NodeId]) -> String {
    let sweeps = capped_sweeps(g, 3_000);
    let mut out = String::new();
    for op in g.ops() {
        let s = &sweeps[&op];
        let _ = write!(out, "sweep `{}` flowing {} best ", s.name, s.flowing_input);
        render_cfg(&mut out, g, op, &s.best.cfg);
        let _ = writeln!(
            out,
            " time {:016x} worst {:016x}",
            s.best.time_us.to_bits(),
            s.worst_us.to_bits()
        );
        let mut times = String::new();
        for t in &s.times_us {
            let _ = write!(times, "{:016x}", t.to_bits());
        }
        let _ = writeln!(out, "times {} {:016x}", s.times_us.len(), fnv(&times));
        let mut table: Vec<String> = per_io_specs(g, op, s)
            .into_iter()
            .map(|((i, o), t)| {
                let mut line = format!("io {i} {o} ");
                render_cfg(&mut line, g, op, &t.cfg);
                let _ = write!(line, " time {:016x}", t.time_us.to_bits());
                line
            })
            .collect();
        table.sort();
        out.push_str(&table.join("\n"));
        out.push('\n');
    }
    let device = DeviceSpec::v100();
    let bests = Selection {
        per_op: fwd.iter().map(|&op| (op, sweeps[&op].best)).collect(),
        ..select_forward(g, &device, fwd, &sweeps).unwrap()
    };
    let plan = ExecutionPlan::lower(g, &bests).unwrap();
    render_plan(&mut out, g, &plan);
    let mut lints: Vec<String> = (lint_selection(g, &plan, &sweeps).iter())
        .map(|l| l.to_string())
        .collect();
    lints.sort();
    for l in lints {
        let _ = writeln!(out, "lint {l}");
    }
    out
}

#[test]
fn sweep_tables_of_the_encoder() {
    let (g, fwd) = fused_tiny_encoder();
    check("selection/sweeps-encoder", &sweeps_text(&g, &fwd));
}

#[test]
fn sweep_tables_of_the_decoder() {
    let (g, fwd) = fused_tiny(build::decoder(&EncoderDims::tiny()), &decoder_fusion_plan());
    check("selection/sweeps-decoder", &sweeps_text(&g, &fwd));
}

/// The `k`-th permutation of `0..n` in lexicographic order (`k` taken
/// modulo `n!`).
fn nth_permutation(n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut fact: usize = (1..=n).product();
    let mut k = k % fact.max(1);
    let mut out = Vec::with_capacity(n);
    for left in (1..=n).rev() {
        fact /= left;
        out.push(pool.remove(k / fact));
        k %= fact;
    }
    out
}

/// Every operator of `g` — forward and backward — under its natural
/// configuration and sixteen re-orderings of it: the configuration, the
/// step `single_step` makes of it, and its price on the V100 model.
fn steps_text(out: &mut String, label: &str, g: &Graph) {
    let device = DeviceSpec::v100();
    for op in g.ops() {
        let natural = OpConfig::natural(g, op).unwrap();
        let (r_in, r_in2, r_out) = cfg_ranks(&natural);
        let _ = writeln!(out, "{label} op `{}`", op_name(g, op));
        for k in 0..17usize {
            let cfg = if k == 0 {
                natural
            } else {
                permuted_cfg(
                    &natural,
                    &nth_permutation(r_in, 5 * k + 1),
                    &nth_permutation(r_in2.unwrap_or(0), 11 * k + 2),
                    &nth_permutation(r_out, 7 * k + 3),
                )
            };
            render_cfg(out, g, op, &cfg);
            match op_cost(&device, g, op, &cfg) {
                Ok(c) => {
                    let _ = writeln!(
                        out,
                        " time {:016x} moved {:016x}",
                        c.time_us.to_bits(),
                        c.moved_words.to_bits()
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, " error {e}");
                }
            }
            render_step(out, g, &ExecutionPlan::single_step(g, op, &cfg).unwrap());
        }
    }
}

fn graph_family(bundle: build::EncoderGraph, plan: &[FusionGroup]) -> String {
    let mut out = String::new();
    let mut g = bundle.graph;
    steps_text(&mut out, "unfused", &g);
    apply_plan(&mut g, plan).unwrap();
    steps_text(&mut out, "fused", &g);
    apply_regions(&mut g, 2).unwrap();
    apply_epilogues(&mut g).unwrap();
    steps_text(&mut out, "regions+epilogues", &g);
    out
}

#[test]
fn single_steps_and_prices_over_the_encoder_graphs() {
    let text = graph_family(build::encoder(&EncoderDims::tiny()), &encoder_fusion_plan());
    check("selection/steps-encoder", &text);
}

#[test]
fn single_steps_and_prices_over_the_decoder_graphs() {
    let text = graph_family(build::decoder(&EncoderDims::tiny()), &decoder_fusion_plan());
    check("selection/steps-decoder", &text);
}

// ---------------------------------------------------------------------
// Configuration spaces and what sampling picks (recorded in PR 26 on PR
// 24's library, ahead of the space becoming an iterator that is sampled
// without being built)
// ---------------------------------------------------------------------

/// Every operator's whole configuration space, in enumeration order — the
/// order stride sampling and the first-of-equals rule read — as its length
/// and a digest.
fn space_text(out: &mut String, label: &str, g: &Graph) {
    for op in g.ops() {
        let _ = write!(out, "{label} space `{}` ", op_name(g, op));
        match config_space(g, op) {
            Ok(space) => {
                let (mut h, mut n) = (Fnv::new(), 0usize);
                for cfg in space {
                    cfg_bytes(&mut h, &cfg);
                    n += 1;
                }
                let _ = writeln!(out, "{n} {:016x}", h.0);
            }
            Err(e) => {
                let _ = writeln!(out, "error {e}");
            }
        }
    }
}

/// The unfused, fused and regions-only graphs of one block (an epilogue
/// graph's space is not pinned here: its contractions were enumerated as
/// normalizations until PR 26).
fn space_family(bundle: build::EncoderGraph, plan: &[FusionGroup]) -> String {
    let mut out = String::new();
    let mut g = bundle.graph;
    space_text(&mut out, "unfused", &g);
    apply_plan(&mut g, plan).unwrap();
    space_text(&mut out, "fused", &g);
    apply_regions(&mut g, 2).unwrap();
    space_text(&mut out, "regions", &g);
    out
}

#[test]
fn configuration_spaces_of_the_encoder_graphs() {
    let text = space_family(build::encoder(&EncoderDims::tiny()), &encoder_fusion_plan());
    check("selection/space-encoder", &text);
}

#[test]
fn configuration_spaces_of_the_decoder_graphs() {
    let text = space_family(build::decoder(&EncoderDims::tiny()), &decoder_fusion_plan());
    check("selection/space-decoder", &text);
}

fn regions_tiny(bundle: build::EncoderGraph, plan: &[FusionGroup]) -> (Graph, Vec<NodeId>) {
    let mut g = bundle.graph;
    apply_plan(&mut g, plan).unwrap();
    apply_regions(&mut g, 2).unwrap();
    let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
    (g, fwd)
}

#[test]
fn sweep_tables_of_the_encoder_regions() {
    let (g, fwd) = regions_tiny(build::encoder(&EncoderDims::tiny()), &encoder_fusion_plan());
    check("selection/sweeps-regions-encoder", &sweeps_text(&g, &fwd));
}

#[test]
fn sweep_tables_of_the_decoder_regions() {
    let (g, fwd) = regions_tiny(build::decoder(&EncoderDims::tiny()), &decoder_fusion_plan());
    check("selection/sweeps-regions-decoder", &sweeps_text(&g, &fwd));
}

/// The graph that ships: fusion table, regions, then bias epilogues.
fn epilogues_tiny(bundle: build::EncoderGraph, plan: &[FusionGroup]) -> (Graph, Vec<NodeId>) {
    let (mut g, _) = regions_tiny(bundle, plan);
    apply_epilogues(&mut g).unwrap();
    let fwd = forward_ops(&g, g.data_by_name("dy").unwrap());
    (g, fwd)
}

#[test]
fn sweep_tables_of_the_encoder_epilogues() {
    let (g, fwd) = epilogues_tiny(build::encoder(&EncoderDims::tiny()), &encoder_fusion_plan());
    check("selection/sweeps-epilogues-encoder", &sweeps_text(&g, &fwd));
}

#[test]
fn sweep_tables_of_the_decoder_epilogues() {
    let (g, fwd) = epilogues_tiny(build::decoder(&EncoderDims::tiny()), &decoder_fusion_plan());
    check("selection/sweeps-epilogues-decoder", &sweeps_text(&g, &fwd));
}

/// The recipe's own sweep of the BERT-large encoder at its 30 000 cap: per
/// operator the sampled times, in order, which pins the configurations
/// stride sampling picks out of each space.
#[test]
fn sampled_sweep_at_bert_large() {
    let mut g = build::encoder(&EncoderDims::bert_large()).graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    let sweeps = sweep_all(&SimulatorSource::default(), &g, options(1).sweep).unwrap();
    let mut out = String::new();
    for op in g.ops() {
        let s = &sweeps[&op];
        let mut times = Fnv::new();
        for t in &s.times_us {
            times.bytes(&t.to_bits().to_le_bytes());
        }
        let _ = writeln!(
            out,
            "sampled `{}` {} {:016x} best {:016x} worst {:016x} per_io {}",
            s.name,
            s.times_us.len(),
            times.0,
            s.best.time_us.to_bits(),
            s.worst_us.to_bits(),
            s.per_io.len()
        );
    }
    check("selection/sampled-bert-large", &out);
}
