//! A sweep allocates per operator, not per configuration: the space is
//! sampled by stride without being built, a contraction is priced through
//! one memo per GEMM class, and the sampled times, the prices and `per_io`
//! are each one buffer sized up front. So the heap events of sweeping one
//! operator do not grow with how many configurations the cap lets through.
//!
//! One `#[test]`: the counters are process-wide.

use substation::core::profile::CountingAlloc;
use substation::core::sweep::{sweep_op, SimulatorSource, SweepOptions};
use substation::dataflow::{build, EncoderDims};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_capped_sweep_allocates_per_operator_not_per_configuration() {
    let g = build::encoder(&EncoderDims::bert_large()).graph;
    let qkt = g.op_by_name("QKT").unwrap();
    let source = SimulatorSource::default();
    // heap events of one capped sweep of `QKT` (its result dropped inside
    // the window) and the configurations it priced
    let sweep = |cap: usize| {
        let opts = SweepOptions {
            max_configs: Some(cap),
            threads: 1,
        };
        let before = ALLOC.events();
        let priced = sweep_op(&source, &g, qkt, opts).unwrap().times_us.len();
        (ALLOC.events() - before, priced)
    };
    sweep(3_000);
    let (few_events, few) = sweep(3_000);
    let (many_events, many) = sweep(30_000);
    assert!(
        many > 9 * few,
        "caps 3 000 and 30 000 priced {few} and {many}"
    );
    assert_eq!(
        few_events, many_events,
        "{few} configurations cost {few_events} heap events, {many} cost {many_events}"
    );
}
