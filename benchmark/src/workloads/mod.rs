//! The five workloads. Each one owns its inputs and its model, runs one op
//! the way a user would (`op`), runs the same computation composed from
//! the library's public parts with a span around each (`traced_op`), and
//! checks its own outputs outside the timed window (`check`).

use std::fmt::Display;

use substation::dataflow::EncoderDims;

use crate::metrics::Metric;
use crate::trace::Tracer;

pub mod compile;
pub mod forward;
pub mod generate;
pub mod train;

/// Workload names, in the order `run.sh` runs them. Final: later issues
/// cite them.
pub const NAMES: [&str; 5] = [
    "bert_fwd",
    "longseq_fwd",
    "gpt_generate",
    "train_step",
    "plan_compile",
];

pub type OpResult<T> = Result<T, String>;

/// Library errors cross into the harness as text.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Self-attention block dimensions: `k = j`, `i = h·p`.
pub const fn dims(b: usize, j: usize, h: usize, p: usize, u: usize) -> EncoderDims {
    EncoderDims {
        b,
        j,
        k: j,
        h,
        p,
        i: h * p,
        u,
    }
}

pub const BERT_DIMS: EncoderDims = dims(4, 128, 8, 64, 2048);
pub const LONGSEQ_DIMS: EncoderDims = dims(2, 512, 8, 16, 512);
pub const GPT_DIMS: EncoderDims = dims(1, 256, 4, 64, 1024);
pub const TRAIN_DIMS: EncoderDims = dims(4, 64, 4, 64, 1024);

pub trait Workload {
    /// Ops in one pass over the workload's distinct inputs. The timed
    /// window is a whole number of passes, so every run measures the same
    /// mix whatever order the seed put it in.
    fn cycle_len(&self) -> usize;

    /// Units of work op `i` completes (tokens, or compile passes).
    fn units(&self, i: usize) -> f64;

    /// Runs op `i` through the entry points a user calls.
    fn op(&mut self, i: usize) -> OpResult<()>;

    /// The same computation composed from public parts, a span around each.
    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> OpResult<()>;

    /// Output checks, run once outside the timed window. One line per
    /// failure; each counts as a failed op.
    fn check(&mut self) -> Vec<String>;

    /// Failures an op noticed while it ran without failing as a whole (a
    /// result that differs from an earlier one); drained by the call.
    fn noticed(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Hash of the generated inputs: identical across runs of one seed.
    fn fingerprint(&self) -> u64;

    /// Workload-specific readings of the untraced run, printed for the
    /// reader and kept in the baseline files; not part of the contract.
    fn info(&self) -> Vec<Metric> {
        Vec::new()
    }

    /// This workload's per-layer metrics, from the spans `traced_op`
    /// recorded and the wall times (ms) of the untraced ops run beside them.
    fn layer_metrics(&mut self, tr: &Tracer, opaque_ms: &[f64], out: &mut Vec<Metric>);
}

/// Sets a workload up: generates its inputs from `seed`, initialises its
/// model, runs the cold first op and the warm-up ops.
pub fn build(name: &str, seed: u64) -> OpResult<Box<dyn Workload>> {
    Ok(match name {
        "bert_fwd" => Box::new(forward::Forward::bert(seed)?),
        "longseq_fwd" => Box::new(forward::Forward::longseq(seed)?),
        "gpt_generate" => Box::new(generate::Generate::new(seed)?),
        "train_step" => Box::new(train::Train::new(seed)?),
        "plan_compile" => Box::new(compile::Compile::new()?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Median of the spans called `name`, as the per-layer metric
/// `<name>_ms_p50`: a span is named for the metric it feeds.
pub fn span_p50(tr: &Tracer, name: &str) -> Metric {
    let d = tr.durations_ms(name);
    Metric::new(
        format!("{name}_ms_p50"),
        crate::stats::median(&d),
        "ms",
        d.len(),
    )
}
