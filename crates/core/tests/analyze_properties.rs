//! Property tests for the static plan analyzer: `parallel_waves()` must
//! respect every hazard edge under random layout perturbations, injected
//! schedule corruptions (shuffled steps, duplicated writes, orphan
//! relayouts) must each be caught statically, and the arena coloring must
//! never alias simultaneously-live buffers while packing the slab down to
//! the liveness analysis's peak-resident prediction — no execution.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::analyze::{
    analyze, assign_arena, ArenaAssignment, DepKind, Home, PlanLint, Severity,
};
use xform_core::fusion::{apply_plan, decoder_fusion_plan, encoder_fusion_plan};
use xform_core::plan::{ExecutionPlan, Relayout};
use xform_core::recipe::forward_ops;
use xform_dataflow::{build, EncoderDims, Graph};
use xform_tensor::Layout;

fn fused_at(dims: &EncoderDims) -> (Graph, ExecutionPlan) {
    let eg = build::encoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn unfused_at(dims: &EncoderDims) -> (Graph, ExecutionPlan) {
    let eg = build::encoder(dims);
    let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
    (eg.graph, plan)
}

fn decoder_at(dims: &EncoderDims) -> (Graph, ExecutionPlan) {
    let eg = build::decoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn fused() -> (Graph, ExecutionPlan) {
    fused_at(&EncoderDims::tiny())
}

fn unfused() -> (Graph, ExecutionPlan) {
    unfused_at(&EncoderDims::tiny())
}

/// The arena invariants every assignment must satisfy, checked from the
/// slot list alone (independently of the coloring internals):
/// overlapping live intervals get disjoint ranges — a borrowed external's,
/// the caller's memory, against every other at any time — the slab is
/// exactly the furthest extent of the slots it owns and every borrowed
/// range lies past it, it never undershoots the peak-resident words of what
/// it owns, recomputed here from the intervals, and it matches that peak
/// exactly unless a fragmentation lint says otherwise.
fn check_assignment(a: &ArenaAssignment) -> std::result::Result<(), String> {
    for (i, s) in a.slots.iter().enumerate() {
        for t in &a.slots[i + 1..] {
            if s.borrowed || t.borrowed || (s.start <= t.end && t.start <= s.end) {
                prop_assert!(
                    s.offset + s.words <= t.offset || t.offset + t.words <= s.offset,
                    "live-overlapping `{}` [{},{}] and `{}` [{},{}] share slab words \
                     ({}+{} vs {}+{})",
                    s.name,
                    s.start,
                    s.end,
                    t.name,
                    t.start,
                    t.end,
                    s.offset,
                    s.words,
                    t.offset,
                    t.words,
                );
            }
        }
    }
    let owned = || a.slots.iter().filter(|s| !s.borrowed);
    let extent = owned().map(|s| s.offset + s.words).max().unwrap_or(0);
    prop_assert_eq!(a.slab_words, extent);
    prop_assert!(a.slots.iter().all(|s| !s.borrowed || s.offset >= extent));
    let horizon = a.slots.iter().map(|s| s.end).max().unwrap_or(0);
    let peak = (0..=horizon)
        .map(|t| {
            owned()
                .filter(|s| s.start <= t && t <= s.end)
                .map(|s| s.words)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    prop_assert_eq!(a.target_words, peak);
    prop_assert!(
        a.slab_words >= peak,
        "a slab below peak residency cannot hold the plan"
    );
    if a.lints.is_empty() {
        prop_assert_eq!(a.slab_words, peak);
    } else {
        prop_assert!(a
            .lints
            .iter()
            .all(|l| matches!(l, PlanLint::ArenaFragmentation { .. })));
        prop_assert!(a.slab_words > peak);
    }
    Ok(())
}

/// Rotates `layout` left by `n`.
fn rotate(layout: Layout, n: usize) -> Layout {
    let mut order: Vec<usize> = layout.order().collect();
    let n = n % order.len().max(1);
    order.rotate_left(n);
    Layout::from_order(&order).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Any reflowed layout perturbation stays error-clean, and the waves
    // schedule respects every hazard edge (RAW, WAR, WAW) while covering
    // each step exactly once.
    #[test]
    fn waves_respect_hazards_under_random_perturbations(seed in 0u64..10_000) {
        for (g, base) in [unfused(), fused()] {
            let mut plan = base.clone();
            let mut twist = StdRng::seed_from_u64(seed);
            for step in &mut plan.steps {
                for o in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                    let n = twist.gen_range(0..4usize);
                    o.layout = rotate(o.layout, n);
                }
            }
            plan.reflow(&g);
            let a = analyze(&g, &plan);
            prop_assert!(a.is_clean(), "{:?}", a.errors());

            let mut covered: Vec<usize> =
                a.parallel_waves().into_iter().flatten().collect();
            covered.sort_unstable();
            prop_assert_eq!(covered, (0..plan.steps.len()).collect::<Vec<_>>());
            let wave_of = a.wave_of();
            for e in &a.deps {
                prop_assert!(
                    wave_of[e.from] < wave_of[e.to],
                    "wave schedule violates {:?}",
                    e
                );
            }
            // every RAW edge in particular orders producer before consumer
            prop_assert!(a.deps.iter().any(|e| e.kind == DepKind::Raw));
        }
    }

    // Moving the target of any hazard edge in front of its source makes
    // the schedule incoherent, and the analyzer says so.
    #[test]
    fn shuffling_across_a_hazard_edge_is_caught(seed in 0u64..10_000) {
        let (g, base) = fused();
        let a = analyze(&g, &base);
        let raws: Vec<_> = a.deps.iter().filter(|e| e.kind == DepKind::Raw).collect();
        prop_assert!(!raws.is_empty());
        let mut pick = StdRng::seed_from_u64(seed);
        let edge = raws[pick.gen_range(0..raws.len())];
        let mut shuffled = base.clone();
        let moved = shuffled.steps.remove(edge.to);
        shuffled.steps.insert(edge.from, moved);
        let b = analyze(&g, &shuffled);
        prop_assert!(
            !b.is_clean(),
            "consumer of step {} hoisted above it went undetected",
            edge.from
        );
        prop_assert!(b
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::UseBeforeDef { .. })));
    }

    // Duplicating any step is a double write of a single-producer
    // container.
    #[test]
    fn duplicated_steps_are_caught(pick in 0usize..64) {
        let (g, base) = fused();
        let idx = pick % base.steps.len();
        let mut plan = base.clone();
        let dup = plan.steps[idx].clone();
        plan.steps.insert(idx + 1, dup);
        let a = analyze(&g, &plan);
        prop_assert!(
            a.lints
                .iter()
                .any(|l| matches!(l, PlanLint::DoubleWrite { .. })),
            "duplicate of step {idx} went undetected: {:?}",
            a.lints
        );
    }

    // A relayout of a container the step never consumes is flagged, as is
    // a from == to no-op relayout.
    #[test]
    fn orphan_relayouts_are_caught(pick in 0usize..64) {
        let (g, base) = fused();
        let idx = 1 + pick % (base.steps.len() - 1);
        let mut plan = base.clone();
        let foreign = plan.steps[idx].outputs[0].clone();
        if plan.steps[0].inputs.iter().any(|i| i.data == foreign.data) {
            return Ok(()); // skip: not foreign to step 0 after all
        }
        plan.steps[0].relayouts.push(Relayout {
            data: foreign.data,
            name: foreign.name.clone(),
            from: foreign.layout,
            to: foreign.layout,
        });
        let a = analyze(&g, &plan);
        prop_assert!(a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::OrphanRelayout { .. })));
        prop_assert!(a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::RedundantRelayout { .. })));
    }

    // The arena coloring never aliases simultaneously-live buffers, for
    // any problem dimensions — and its declared target and the borrowed
    // externals bracket the liveness analysis's wave-resident high-water
    // mark, which counts both.
    #[test]
    fn arena_coloring_never_aliases_live_buffers(seed in 0u64..10_000) {
        let mut pick = StdRng::seed_from_u64(seed);
        let j = pick.gen_range(2..6);
        let dims = EncoderDims {
            b: pick.gen_range(1..3),
            j,
            k: j, // self-attention requires equal sequence lengths
            h: pick.gen_range(1..3),
            p: pick.gen_range(2..5),
            i: pick.gen_range(2..6),
            u: pick.gen_range(2..8),
        };
        let cases = [unfused_at(&dims), fused_at(&dims), decoder_at(&dims)];
        for (g, plan) in cases {
            let analysis = analyze(&g, &plan);
            prop_assert!(analysis.is_clean());
            let a = assign_arena(&analysis);
            prop_assert_eq!(a.slots.len(), analysis.liveness.len());
            check_assignment(&a)?;
            let peak = analysis.peak_wave_resident_words().1;
            let borrowed = analysis.home_words(Home::Borrowed);
            prop_assert!(borrowed > 0, "inputs and weights are borrowed");
            prop_assert!(a.target_words <= peak && peak <= a.target_words + borrowed);
        }
    }
}

#[test]
fn canned_plans_color_to_the_audited_peak_exactly() {
    // On every canned plan the randomized packing search must close the
    // fragmentation gap completely: slab words == the wave-resident peak
    // of the buffers the slab owns (`check_assignment` recomputes it), with
    // no lint — the audited wave peak less the borrowed externals live at
    // it.
    let dims = EncoderDims::tiny();
    for (tag, (g, plan)) in [
        ("encoder/reference", unfused_at(&dims)),
        ("encoder/fused", fused_at(&dims)),
        ("decoder/fused", decoder_at(&dims)),
    ] {
        let analysis = analyze(&g, &plan);
        let a = assign_arena(&analysis);
        assert!(a.lints.is_empty(), "{tag}: {:?}", a.lints);
        check_assignment(&a).unwrap();
        assert_eq!(
            a.slab_words, a.target_words,
            "{tag}: slab must equal the peak-resident words of what it owns"
        );
        assert_eq!(a.slab_bytes(4), a.target_words * 4);
        assert!(
            a.slab_words < analysis.peak_wave_resident_words().1,
            "{tag}"
        );
    }
}

#[test]
fn severity_partition_matches_executability() {
    // a plan whose only lints are warnings still executes; one with any
    // error does not — checked through the public severity API
    let (g, plan) = unfused();
    let lints = analyze(&g, &plan).lints;
    assert!(lints.iter().all(|l| l.severity() != Severity::Error));
    assert!(
        lints.iter().any(|l| l.severity() == Severity::Warning),
        "the unfused schedule should warn about missed fusion"
    );
    let mut broken = plan.clone();
    broken.steps.remove(2);
    assert!(analyze(&g, &broken)
        .lints
        .iter()
        .any(|l| l.severity() == Severity::Error));
}
