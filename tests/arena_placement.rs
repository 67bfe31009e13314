//! Pins the traffic the arena's one placement order was checked on: every
//! canned plan the benchmark's workloads run or compile colors to exactly
//! its liveness peak, with no fragmentation lint, and the same offsets on
//! every call.
//!
//! * the encoder and decoder forward kinds (fused, epilogue, reference),
//!   the three backward kinds and the head at both workload vocabularies,
//!   at the four workload shapes;
//! * at the generation shape, the fused decoder at each prompt length
//!   (the prefill's plan) and both decode-step kinds at `j = 1` and each
//!   cache capacity a request reaches, the projection also at `k = 1`,
//!   where a session compiles it.
//!
//! `tests/certificate_rows.rs` pins slab words at `tiny` and `bert_large`
//! only; these are the shapes the timed runs place.

use substation::core::analyze::{analyze, assign_arena, PlanLint};
use substation::dataflow::EncoderDims;
use substation::transformer::interp::{self, PlanKind};

/// Self-attention block dimensions: `k = j`, `i = h·p`.
fn dims(b: usize, j: usize, h: usize, p: usize, u: usize) -> EncoderDims {
    let i = h * p;
    EncoderDims {
        b,
        j,
        k: j,
        h,
        p,
        i,
        u,
    }
}

/// Every canned `(dims, kind)` the workloads place.
fn placed() -> Vec<(EncoderDims, PlanKind)> {
    let shapes = [
        dims(4, 128, 8, 64, 2048),
        dims(2, 512, 8, 16, 512),
        dims(1, 256, 4, 64, 1024),
        dims(4, 64, 4, 64, 1024),
    ];
    let mut out = Vec::new();
    for d in shapes {
        let kinds = [
            PlanKind::EncoderReference,
            PlanKind::EncoderFused,
            PlanKind::EncoderEpilogue,
            PlanKind::DecoderFused,
            PlanKind::DecoderEpilogue,
            PlanKind::EncoderReferenceTrain,
            PlanKind::EncoderTrain,
            PlanKind::DecoderTrain,
            PlanKind::Head { vocab: 1024 },
            PlanKind::Head { vocab: 2048 },
        ];
        out.extend(kinds.map(|kind| (d, kind)));
    }
    let gpt = shapes[2];
    for s in [32, 48, 64, 80, 96] {
        out.push((EncoderDims { j: s, k: s, ..gpt }, PlanKind::DecoderFused));
    }
    let step = EncoderDims { j: 1, k: 1, ..gpt };
    out.push((step, PlanKind::DecoderStepProject));
    for k in [64, 96, 128, 160] {
        out.push((EncoderDims { k, ..step }, PlanKind::DecoderStepProject));
        out.push((EncoderDims { k, ..step }, PlanKind::DecoderStep));
    }
    out
}

#[test]
fn every_placed_plan_colors_to_its_peak_the_same_way_twice() {
    let mut missed = Vec::new();
    for (d, kind) in placed() {
        let pf = interp::cached_plan(&d, kind).expect("canned plan");
        let analysis = analyze(&pf.graph, &pf.plan);
        let (a, again) = (assign_arena(&analysis), assign_arena(&analysis));
        let fragmented = a
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::ArenaFragmentation { .. }));
        let offsets = |asg: &substation::core::analyze::ArenaAssignment| {
            asg.slots.iter().map(|s| s.offset).collect::<Vec<_>>()
        };
        if a.slab_words != a.target_words || fragmented || offsets(&a) != offsets(&again) {
            missed.push(format!(
                "{d:?} {kind:?}: slab {} target {} fragmented {fragmented} stable {}",
                a.slab_words,
                a.target_words,
                offsets(&a) == offsets(&again),
            ));
        }
        interp::clear_plan_cache();
    }
    assert!(missed.is_empty(), "{}", missed.join("\n"));
}
