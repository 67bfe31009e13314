//! The allocation probe behind `substation-bench-allocs`: the ops whose
//! heap traffic the per-layer metrics report, each run once warm with the
//! process-wide counters read around it. Counts, not times: they must
//! repeat exactly from run to run.

use std::process::ExitCode;

use substation::core::plan::ExecOptions;
use substation::tensor::Tensor;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::params::EncoderWeights;

use crate::inputs::{self, Stream};
use crate::metrics::Metric;
use crate::workloads::forward::Forward;
use crate::workloads::generate::Generate;
use crate::workloads::train::Train;
use crate::workloads::{err, OpResult, Workload, BERT_DIMS};

/// A reading of the process-wide heap counters.
pub struct Heap {
    pub allocs: u64,
    pub bytes: u64,
    /// Allocations, deallocations and reallocations together.
    pub events: u64,
}

/// How the probe reads the counters of the allocator its binary installed.
pub type ReadHeap = fn() -> Heap;

/// Allocations and MB allocated by one warm op of `w`.
fn one_op(w: &mut dyn Workload, heap: ReadHeap, prefix: &str, op: &str) -> OpResult<[Metric; 2]> {
    w.op(0)?;
    let before = heap();
    w.op(1)?;
    let after = heap();
    Ok([
        Metric::new(
            format!("{prefix}.allocs_per_{op}"),
            (after.allocs - before.allocs) as f64,
            "count",
            1,
        ),
        Metric::new(
            format!("{prefix}.alloc_mb_per_{op}"),
            (after.bytes - before.bytes) as f64 / 1e6,
            "MB",
            1,
        ),
    ])
}

/// Heap events of one warm `forward_into`, the entry point the repo claims
/// touches the heap zero times. Warm because the model forwards before it
/// filled the plan and arena caches for these dims.
fn forward_into_events(seed: u64, heap: ReadHeap) -> OpResult<Metric> {
    let rng = &mut inputs::rng(seed, Stream::Weights);
    let d = BERT_DIMS;
    let x = crate::replay::tensor(rng, "ibj", &d, &[])?;
    let w = EncoderWeights::init(&d, rng);
    let mut y = Tensor::zeros(x.shape().clone());
    let layer = EncoderLayer::new(d, Executor::Fused, 0.0);
    let opts = ExecOptions::builder().threads(1).seed(seed).build();
    let before = heap().events;
    layer.forward_into(&x, &w, &opts, &mut y).map_err(err)?;
    Ok(Metric::new(
        "transformer.layer.allocs_per_forward_into",
        (heap().events - before) as f64,
        "count",
        1,
    ))
}

pub fn probe(seed: u64, heap: ReadHeap) -> OpResult<Vec<Metric>> {
    let mut out = Vec::new();
    let mut forward = Forward::bert_unwarmed(seed)?;
    out.extend(one_op(&mut forward, heap, "transformer.model", "forward")?);
    drop(forward);
    out.push(forward_into_events(seed, heap)?);
    let mut generate = Generate::single_prompt(seed, heap)?;
    generate.op(0)?;
    out.push(generate.steady_heap_events_per_step());
    drop(generate);
    let mut train = Train::unwarmed(seed)?;
    out.extend(one_op(&mut train, heap, "transformer.training", "step")?);
    Ok(out)
}

/// Entry point of `substation-bench-allocs`: `--seed N`, then one `metric`
/// line per count.
pub fn main(heap: ReadHeap) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let seed = match argv.as_slice() {
        [] => Ok(1),
        [flag, n] if flag == "--seed" => n.parse::<u64>().map_err(|e| e.to_string()),
        _ => Err("usage: substation-bench-allocs [--seed N]".to_string()),
    };
    match seed.and_then(|seed| probe(seed, heap)) {
        Ok(metrics) => {
            for m in metrics {
                println!("metric {}", m.line());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("allocation probe failed: {e}");
            ExitCode::FAILURE
        }
    }
}
