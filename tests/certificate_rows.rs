//! Pins what the plan certifiers conclude, row by row, so a refactor of
//! the certifiers moves no verdict. Two kinds of row, each an FNV-1a digest
//! of a canonical text:
//!
//! * `plan/<dims>/<kind>` — one per canned [`PlanKind`] at `tiny` and
//!   `bert_large` (the backward plans' rows appended when blocks' backwards
//!   became plans): the plan fingerprint, the certified wave partition, the
//!   slab words of the arena's coloring over those waves, every step's
//!   `(in_bounds, unit_stride, alias_free, derived)` proof and the
//!   warnings — logically and embedded in that coloring — the geometry of
//!   every cache container, and the footprint words the profiler records
//!   per step;
//! * `inject/<injection>` — one per corruption the property suites
//!   (`crates/core/tests/{sanitize,access}_properties.rs`) inject, over a
//!   fixed enumeration of its picks: for each pick the union of the lints
//!   of both certifier entries, sorted and deduplicated by their `Display`.
//!
//! The expected digests live in `tests/certificate_rows.txt`, recorded on
//! the library that still certified a plan four ways — a race, an arena, an
//! access and a decode certificate — and are never edited by a change that
//! means to keep every verdict. Since one certificate took their place, the
//! arena rows read it over the wave coloring and partition; since the arena
//! has one coloring, a row prints that one (re-recorded once, test-only, when
//! the step-interval coloring's line left the rows). On a mismatch the test
//! prints every row it computed, and the canonical text of each row that
//! moved.

use std::collections::BTreeSet;

use substation::core::access::certify_access;
use substation::core::analyze::{analyze, assign_arena, PlanLint};
use substation::core::plan::ExecutionPlan;
use substation::core::profile::PlanProfiler;
use substation::core::sanitize::{certify, certify_plan, certify_waves, plan_fingerprint};
use substation::dataflow::{build, DataRole, EncoderDims, Graph, OpKind};
use substation::tensor::{Layout, Shape};
use substation::transformer::interp::{self, PlanKind};

const EXPECTED: &str = include_str!("certificate_rows.txt");

/// FNV-1a over the bytes of a canonical text.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The lints of several entries as one sorted, deduplicated set of their
/// `Display`.
fn union<'a>(entries: impl IntoIterator<Item = &'a [PlanLint]>) -> String {
    let set: BTreeSet<String> = entries
        .into_iter()
        .flatten()
        .map(ToString::to_string)
        .collect();
    set.into_iter().collect::<Vec<_>>().join(" | ")
}

fn lints_of<T>(r: &Result<T, Vec<PlanLint>>) -> &[PlanLint] {
    r.as_ref().err().map_or(&[], Vec::as_slice)
}

/// The two certifier entries over one plan.
fn both(g: &Graph, plan: &ExecutionPlan) -> String {
    let race = certify(g, plan);
    let access = certify_access(g, plan);
    union([lints_of(&race), lints_of(&access)])
}

/// The canonical text of one canned plan's row.
fn plan_row(g: &Graph, plan: &ExecutionPlan) -> String {
    let mut out = format!("hash {:#018x}\n", plan_fingerprint(plan));
    let cert = certify(g, plan).expect("a canned plan certifies");
    out += &format!("waves {:?}\n", cert.waves);
    let analysis = analyze(g, plan);
    let proofs = |steps: &[substation::core::access::StepAccessProof]| {
        let flag = |b: bool| if b { '1' } else { '0' };
        let step = |p: &substation::core::access::StepAccessProof| {
            let flags = [p.in_bounds, p.unit_stride, p.alias_free, p.derived].map(flag);
            format!("{}:{}", p.step, flags.iter().collect::<String>())
        };
        steps.iter().map(step).collect::<Vec<_>>().join(" ")
    };
    let logical = certify_access(g, plan).expect("access certifies");
    out += &format!(
        "logical {} | {}\n",
        proofs(&logical.steps),
        union([&logical.lints[..]])
    );
    let (asg, waves) = (assign_arena(&analysis), analysis.parallel_waves());
    let embedded = certify_plan(g, plan, &analysis, &waves, Some(&asg)).expect("embedding");
    out += &format!(
        "Waves slab {} {} | {}\n",
        embedded.slab_words,
        proofs(&embedded.steps),
        union([&embedded.lints[..]])
    );
    let caches = cert.caches.iter();
    let caches: Vec<String> = caches
        .map(|c| format!("{}:{}:{}", c.name, c.capacity, c.col_words))
        .collect();
    out += &format!("caches {}\n", caches.join(" "));
    let mut prof = PlanProfiler::new(g, plan);
    for si in 0..plan.steps.len() {
        prof.record_step(si, None, 1.0, false);
    }
    let words: Vec<u64> = prof.steps().map(|s| s.footprint_words).collect();
    out += &format!("footprint {words:?}\n");
    out
}

fn canned_rows(rows: &mut Vec<(String, String)>) {
    for (label, dims) in [
        ("tiny", EncoderDims::tiny()),
        ("bert_large", EncoderDims::bert_large()),
    ] {
        let step = EncoderDims { j: 1, ..dims };
        let vocab = if label == "tiny" { 64 } else { 30_522 };
        for (kind, dims) in [
            (PlanKind::EncoderReference, dims),
            (PlanKind::EncoderFused, dims),
            (PlanKind::EncoderEpilogue, dims),
            (PlanKind::DecoderFused, dims),
            (PlanKind::DecoderEpilogue, dims),
            (PlanKind::DecoderStepProject, EncoderDims { k: 1, ..step }),
            (PlanKind::DecoderStep, step),
            (PlanKind::Head { vocab }, dims),
            (PlanKind::EncoderReferenceTrain, dims),
            (PlanKind::EncoderTrain, dims),
            (PlanKind::DecoderTrain, dims),
        ] {
            let pf = interp::cached_plan(&dims, kind).expect("canned plan");
            rows.push((
                format!("plan/{label}/{kind:?}"),
                plan_row(&pf.graph, &pf.plan),
            ));
        }
        interp::clear_plan_cache();
    }
}

fn fused() -> (Graph, ExecutionPlan) {
    encoder(true)
}

fn unfused() -> (Graph, ExecutionPlan) {
    encoder(false)
}

/// The property suites' plans: the encoder at `tiny`, natural layouts.
fn encoder(fused: bool) -> (Graph, ExecutionPlan) {
    use substation::core::fusion::{apply_plan, encoder_fusion_plan};
    let eg = build::encoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    if fused {
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    }
    let ops = substation::core::recipe::forward_ops(&g, eg.dy);
    let plan = ExecutionPlan::natural(&g, &ops).unwrap();
    (g, plan)
}

/// Rotates a layout left by one, as `access_properties` does.
fn rotate(layout: Layout) -> Layout {
    let mut order: Vec<usize> = layout.order().collect();
    order.rotate_left(1);
    Layout::from_order(&order).unwrap()
}

fn injection_rows(rows: &mut Vec<(String, String)>) {
    for (label, (g, sound)) in [("unfused", unfused()), ("fused", fused())] {
        // every declared input dropped, one at a time
        let mut text = String::new();
        for si in 0..sound.steps.len() {
            for k in 0..sound.steps[si].inputs.len() {
                let mut plan = sound.clone();
                let removed = plan.steps[si].inputs.remove(k);
                plan.steps[si].relayouts.retain(|r| r.data != removed.data);
                text += &format!("{si}/{k}: {}\n", both(&g, &plan));
            }
        }
        rows.push((format!("inject/under-declared/{label}"), text));

        // every input retargeted at the plan's smallest container
        let victim = (sound.steps.iter().flat_map(|s| s.inputs.iter()))
            .min_by_key(|o| g.data(o.data).unwrap().shape.num_elements())
            .unwrap()
            .clone();
        let victim_words = g.data(victim.data).unwrap().shape.num_elements();
        let mut text = String::new();
        for si in 0..sound.steps.len() {
            for k in 0..sound.steps[si].inputs.len() {
                let s = &sound.steps[si];
                let edge = g.inputs_of(s.op)[k];
                let fits = g.data(edge).unwrap().shape.num_elements() > victim_words
                    && s.inputs.iter().all(|o| o.name != victim.name)
                    && s.outputs.iter().all(|o| o.name != victim.name);
                if !fits {
                    continue;
                }
                let mut plan = sound.clone();
                plan.steps[si].inputs[k].data = victim.data;
                plan.steps[si].inputs[k].name = victim.name.clone();
                plan.steps[si].relayouts.clear();
                text += &format!("{si}/{k}: {}\n", both(&g, &plan));
            }
        }
        rows.push((format!("inject/out-of-bounds/{label}"), text));
    }

    let (g, sound) = fused();
    let n = sound.steps.len();
    // every output renamed to every other step's output name
    let mut text = String::new();
    for si in 0..n {
        for vi in 0..n {
            let victim = sound.steps[vi].outputs[0].name.clone();
            if sound.steps[si].outputs[0].name == victim {
                continue;
            }
            let mut plan = sound.clone();
            plan.steps[si].outputs[0].name = victim;
            text += &format!("{si}<-{vi}: {}\n", both(&g, &plan));
        }
    }
    rows.push(("inject/aliased-write/fused".into(), text));

    // every step's first input rotated
    let mut text = String::new();
    for si in 0..n {
        let Some(op0) = sound.steps[si].inputs.first() else {
            continue;
        };
        if op0.layout.rank() < 2 {
            continue;
        }
        let mut plan = sound.clone();
        plan.steps[si].inputs[0].layout = rotate(op0.layout);
        text += &format!("{si}: {}\n", both(&g, &plan));
    }
    rows.push(("inject/strided/fused".into(), text));

    // every same-size input/output pair aliased onto one container
    let mut text = String::new();
    for si in 0..n {
        let s = &sound.steps[si];
        let same = s
            .inputs
            .first()
            .zip(s.outputs.first())
            .is_some_and(|(i, o)| {
                g.data(i.data).unwrap().shape.num_elements()
                    == g.data(o.data).unwrap().shape.num_elements()
            });
        if !same {
            continue;
        }
        let mut plan = sound.clone();
        plan.steps[si].outputs[0].data = plan.steps[si].inputs[0].data;
        text += &format!("{si}: {}\n", both(&g, &plan));
    }
    rows.push(("inject/intra-step-alias/fused".into(), text));

    // every shrinkable slot halved
    let analysis = analyze(&g, &sound);
    let mut text = String::new();
    let (sound_asg, waves) = (assign_arena(&analysis), analysis.parallel_waves());
    for vi in 0..sound_asg.slots.len() {
        if sound_asg.slots[vi].words <= 1 {
            continue;
        }
        let mut asg = sound_asg.clone();
        asg.slots[vi].words /= 2;
        let embedded = certify_plan(&g, &sound, &analysis, &waves, Some(&asg));
        let lints = union([lints_of(&embedded)]);
        text += &format!("Waves/{vi}: {lints}\n");
    }
    rows.push(("inject/shrunken-slot/fused".into(), text));

    // the WAR race of `sanitize_properties`, its reader and rewriter in one
    // wave
    let mut text = String::new();
    for (rows_, cols) in [(2, 2), (3, 5), (5, 4)] {
        let mut g = Graph::new();
        let shape = || Shape::new([('b', rows_), ('i', cols)]).unwrap();
        let a = g.add_data("a", shape(), DataRole::Input);
        let b = g.add_data("b", shape(), DataRole::Input);
        let c = g.add_data("c", shape(), DataRole::Input);
        let y = g.add_data("y", shape(), DataRole::Activation);
        let w = g.add_data("w", shape(), DataRole::Output);
        let z = g.add_data("z", shape(), DataRole::Output);
        let first = g.add_op("first write", OpKind::Residual, &[a, b], &[y]);
        let reader = g.add_op("reader", OpKind::Residual, &[y, a], &[w]);
        let rewrite = g.add_op("rewrite", OpKind::Residual, &[a, c], &[y]);
        let sink = g.add_op("sink", OpKind::Residual, &[y, w], &[z]);
        let plan = ExecutionPlan::natural(&g, &[first, reader, rewrite, sink]).unwrap();
        let racy = vec![vec![0], vec![1, 2], vec![3]];
        let race = certify_waves(&g, &plan, &racy);
        let access = certify_access(&g, &plan);
        let lints = union([lints_of(&race), lints_of(&access)]);
        text += &format!("{rows_}x{cols}: {lints}\n");
    }
    rows.push(("inject/war-race".into(), text));
}

#[test]
fn certificate_rows_match_the_recorded_table() {
    let mut rows = Vec::new();
    canned_rows(&mut rows);
    injection_rows(&mut rows);
    let expected: Vec<(&str, &str)> = EXPECTED
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    let mut moved = Vec::new();
    let mut table = String::new();
    for (name, text) in &rows {
        let digest = format!("{:016x}", fnv(text));
        table += &format!("{name} {digest}\n");
        if expected.iter().find(|(n, _)| n == name).map(|e| e.1) != Some(digest.as_str()) {
            moved.push(format!("--- {name}\n{text}"));
        }
    }
    if !moved.is_empty() || expected.len() != rows.len() {
        panic!(
            "certificate rows moved ({} computed, {} recorded):\n{}\ncomputed table:\n{table}",
            rows.len(),
            expected.len(),
            moved.join("\n")
        );
    }
}
