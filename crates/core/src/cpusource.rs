//! A real-measurement [`PerfSource`]: prices operator configurations by
//! timing actual kernels on the host CPU instead of querying the V100
//! model.
//!
//! This demonstrates the paper's Sec. VIII claim that the recipe is
//! hardware-agnostic — the fuse → sweep → select pipeline only consumes
//! `(configuration → runtime)` pairs, and this source supplies them from
//! measurements:
//!
//! * **every operator the step lowering models** — forward and backward
//!   contractions, element-wise, normalization, fused and GEMM-epilogue
//!   kernels — executes the *real kernel on the executor that ships*: the
//!   operator is lowered to a single [`crate::plan::PlanStep`] with the
//!   configuration's layouts, compiled onto an arena of its own
//!   ([`crate::arena::CompiledArena`], un-memoized, its inputs externals
//!   in those layouts), and the arena's own per-step timing slot is read —
//!   so a sweep prices exactly the strided views a selected plan will run
//!   through;
//! * **contractions the lowering refuses in a configuration's layouts**
//!   (an input gradient over the stacked Q/K/V axis whose output is no
//!   view) execute the real einsum engine ([`xform_tensor::contract`])
//!   with the operands physically stored in those layouts.
//!
//! Timings are medians over `repetitions` runs. Because real measurement
//! is ~10⁶× slower than the analytical model, use small dimensions and
//! capped sweeps (see `SweepOptions::max_configs`).

use std::time::Instant;

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_gpusim::opmodel::OpConfig;
use xform_gpusim::KernelCost;
use xform_tensor::contract::contract;
use xform_tensor::{Result, Shape, Tensor, TensorError};

use crate::analyze::analyze;
use crate::arena::CompiledArena;
use crate::lower::lower_step;
use crate::plan::{relaid, ExecOptions, ExecutionPlan, SanitizeMode};
use crate::profile::PlanProfiler;
use crate::sweep::PerfSource;

/// The CPU measurement source.
#[derive(Debug, Clone)]
pub struct CpuSource {
    /// Timed repetitions per configuration (median taken).
    pub repetitions: usize,
    /// Calibrated streaming rate of this machine, bytes per µs, measured
    /// once at construction with a contiguous sweep. Used to report
    /// `bandwidth_frac` relative to the machine's own peak.
    peak_bytes_per_us: f64,
}

impl CpuSource {
    /// Creates a source at the host's streaming bandwidth, measured once
    /// per process.
    pub fn new(repetitions: usize) -> Self {
        CpuSource {
            repetitions: repetitions.max(1),
            peak_bytes_per_us: calibrate_stream_rate(),
        }
    }

    /// The calibrated streaming rate of this machine, bytes per µs.
    pub fn peak_bytes_per_us(&self) -> f64 {
        self.peak_bytes_per_us
    }

    fn time_once(&self, f: &mut dyn FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..self.repetitions {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    }

    /// The best of `repetitions` runs of `op` as a [`StandaloneKernel`];
    /// `None` when the lowering does not model it in the configuration's
    /// layouts — the caller falls back to the einsum engine.
    fn time_on_arena(&self, graph: &Graph, op: NodeId, cfg: &OpConfig) -> Option<f64> {
        let mut kernel = StandaloneKernel::compile(graph, op, cfg)?;
        let mut best = f64::INFINITY;
        for _ in 0..self.repetitions {
            best = best.min(kernel.run().ok()?);
        }
        Some(best.max(1e-3))
    }
}

/// One operator compiled alone onto an arena of its own, its operands in a
/// configuration's layouts: the real kernel, on the executor that ships,
/// through exactly the strided views a plan selecting that configuration
/// would run it through. What [`CpuSource`] times, and what the layout
/// benches and examples drive.
#[derive(Debug)]
pub struct StandaloneKernel {
    arena: CompiledArena,
    /// The operands by container name, drawn once: the arena reads them
    /// where they are and a lone step never overwrites its inputs.
    inputs: Vec<(String, Vec<f32>)>,
    /// A profiler made for the one-step plan, holding no record: each run
    /// fills a copy of it.
    profiler: PlanProfiler,
}

impl StandaloneKernel {
    /// Lowers `op` to a single plan step with the configuration's layouts
    /// and compiles that one-step plan, its inputs externals in the
    /// declared layouts (the statistics a backward norm reads among them).
    /// `None` for an operator the step lowering does not model in those
    /// layouts.
    pub fn compile(graph: &Graph, op: NodeId, cfg: &OpConfig) -> Option<StandaloneKernel> {
        let step = ExecutionPlan::single_step(graph, op, cfg).ok()?;
        lower_step(graph, &step)?;
        let plan = ExecutionPlan { steps: vec![step] };
        let analysis = analyze(graph, &plan);
        // past the gate: a lone step's inputs have no producer and sit in
        // the layouts under test, which the schedule lints would refuse
        let arena = CompiledArena::build(graph, &plan, &analysis).ok()?;
        let dist = rand::distributions::Uniform::new(-1.0f32, 1.0);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut draw = |words| (0..words).map(|_| dist.sample(&mut rng)).collect();
        let inputs = (arena.externals())
            .map(|(name, words)| (name.to_string(), draw(words)))
            .collect();
        let profiler = PlanProfiler::with_peak(graph, &plan, 1.0);
        Some(StandaloneKernel {
            arena,
            inputs,
            profiler,
        })
    }

    /// Runs the kernel once over its random operands (which no layout can
    /// tell apart) and returns its wall time in µs — the arena's own
    /// timing of the step, read from a sink made for its one-step plan, so
    /// materialization stays outside the measurement. Every operand is
    /// drawn from U(−1, 1) directly: a softmax handed such inputs spans
    /// less than `e²` per lane and cannot underflow, unlike one fed by a
    /// chain of unscaled projections ([`crate::plan::random_externals`]
    /// scales weights by their fan-in for that reason).
    ///
    /// # Errors
    ///
    /// As [`CompiledArena::execute_bound`].
    pub fn run(&mut self) -> Result<f64> {
        let inputs = &self.inputs;
        let resolve = &mut |name: &str| {
            let named = inputs.iter().find(|(n, _)| n == name);
            named.map(|(_, words)| words.as_slice())
        };
        let sink = std::sync::Mutex::new(self.profiler.clone());
        let opts = ExecOptions::builder()
            .seed(0xD15C)
            .sanitize(SanitizeMode::Off)
            .profiler(Some(&sink))
            .build();
        self.arena
            .execute_bound(&opts, resolve, None, &mut |_| {})?;
        let prof = sink
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(prof.step(0).map_or(0.0, |s| s.time_us))
    }
}

impl Default for CpuSource {
    fn default() -> Self {
        CpuSource::new(3)
    }
}

/// The contiguous read rate of this host (bytes/µs), measured once per
/// process. Shared with [`crate::profile::PlanProfiler`] so sweep
/// microbenches and every runtime profile normalize achieved bandwidth
/// against the same peak.
pub(crate) fn calibrate_stream_rate() -> f64 {
    static PEAK: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *PEAK.get_or_init(|| {
        let n = 1 << 22; // 4M f32 = 16 MB, larger than L2
        let buf: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut sink = 0.0f32;
        let start = Instant::now();
        for &v in &buf {
            sink += v;
        }
        let us = start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(sink);
        (n as f64 * 4.0) / us.max(1e-3)
    })
}

impl PerfSource for CpuSource {
    fn name(&self) -> &str {
        "host-cpu"
    }

    fn measure(&self, graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<KernelCost> {
        let node = graph
            .op(op)
            .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
        let inputs = graph.inputs_of(op);
        let shape_of = |id: NodeId| -> Result<Shape> {
            graph
                .data(id)
                .map(|d| d.shape.clone())
                .ok_or_else(|| TensorError::Unsupported("endpoint is not data".into()))
        };
        let flop = xform_dataflow::flops::op_flop(graph, op).unwrap_or(0) as f64;
        let io_words = graph.io_words(op) as f64;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let dist = rand::distributions::Uniform::new(-1.0f32, 1.0);

        let time_us = match (self.time_on_arena(graph, op, cfg), &node.kind) {
            // whatever the lowering models: the real kernel on the arena
            (Some(time_us), _) => time_us,
            // a backward contraction or slice writer: the einsum engine
            (None, OpKind::Einsum(spec)) => {
                if inputs.len() < 2 {
                    return Err(TensorError::Unsupported(format!(
                        "contraction `{}` has one input",
                        node.name
                    )));
                }
                let a_shape = shape_of(inputs[0])?;
                let b_shape = shape_of(inputs[1])?;
                let in2 = cfg.in2_layout.ok_or_else(|| {
                    TensorError::Unsupported("contraction config lacks in2 layout".into())
                })?;
                let a = relaid(&Tensor::random(a_shape, &dist, &mut rng), cfg.in_layout)?;
                let b = relaid(&Tensor::random(b_shape, &dist, &mut rng), in2)?;
                // a slice writer (`QKT dX1` filling the stacked Q/K/V
                // gradient) names its container's axes differently from the
                // einsum's output labels; the layout is the same value
                if cfg.out_layout.rank() != spec.output().len() {
                    return Err(TensorError::LayoutRankMismatch {
                        expected: spec.output().len(),
                        found: cfg.out_layout.rank(),
                    });
                }
                let spec = spec.clone();
                self.time_once(&mut || {
                    let c = contract(&spec, &a, &b, &cfg.out_layout).expect("measured contraction");
                    std::hint::black_box(c.data()[0]);
                })
            }
            (None, _) => {
                let what = format!("operator `{}` has no arena lowering", node.name);
                return Err(TensorError::Unsupported(what));
            }
        };
        let bytes = io_words * 4.0; // CPU substrate stores f32
        let achieved = bytes / time_us.max(1e-3);
        Ok(KernelCost {
            time_us,
            moved_words: io_words,
            bandwidth_frac: (achieved / self.peak_bytes_per_us).clamp(0.0, 1.0),
            flop,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::sweep::{sweep_op, SweepOptions};
    use xform_dataflow::{build, EncoderDims};
    use xform_gpusim::opmodel::OpConfig;

    fn tiny_fused() -> xform_dataflow::Graph {
        let mut g = build::encoder(&EncoderDims::tiny()).graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        g
    }

    #[test]
    fn calibration_returns_a_sane_rate() {
        let src = CpuSource::new(1);
        // any machine streams somewhere between 0.1 and 1000 GB/s
        assert!(
            src.peak_bytes_per_us > 100.0,
            "rate {}",
            src.peak_bytes_per_us
        );
        assert!(src.peak_bytes_per_us < 1e6);
    }

    #[test]
    fn measures_every_tiny_encoder_op() {
        let g = tiny_fused();
        let src = CpuSource::new(1);
        for op in g.ops() {
            let cfg = OpConfig::natural(&g, op).unwrap();
            let cost = src.measure(&g, op, &cfg).unwrap();
            assert!(cost.time_us > 0.0 && cost.time_us.is_finite());
            assert!((0.0..=1.0).contains(&cost.bandwidth_frac));
        }
    }

    #[test]
    fn cpu_sweep_has_layout_spread() {
        // a real sweep over a normalization kernel shows layout sensitivity
        let g = tiny_fused();
        let sm = g.op_by_name("SM").unwrap();
        let src = CpuSource::new(3);
        let r = sweep_op(
            &src,
            &g,
            sm,
            SweepOptions {
                max_configs: Some(60),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(r.best.time_us > 0.0);
        assert!(r.worst_us >= r.best.time_us);
        assert!(!r.per_io.is_empty());
    }

    #[test]
    fn recipe_runs_end_to_end_on_cpu_measurements() {
        // the headline demonstration: same recipe, real measurements
        let device = xform_gpusim::DeviceSpec::v100(); // used only for transpose-cost bookkeeping
        let src = CpuSource::new(1);
        let plan = crate::recipe::optimize_encoder_with(
            &src,
            &device,
            &EncoderDims::tiny(),
            &crate::recipe::RecipeOptions {
                sweep: SweepOptions {
                    max_configs: Some(40),
                    ..SweepOptions::default()
                },
                per_op_overhead_us: 0.0,
            },
        )
        .unwrap();
        assert_eq!(plan.rows.len(), plan.graph.ops().len());
        assert!(plan.forward_us > 0.0);
        assert!(plan.backward_us > 0.0);
    }

    #[test]
    fn every_backward_kernel_is_timed_on_the_arena() {
        let dy = build::encoder(&EncoderDims::tiny()).dy;
        let g = tiny_fused();
        let src = CpuSource::new(1);
        for op in crate::recipe::backward_ops(&g, dy) {
            let cfg = OpConfig::natural(&g, op).unwrap();
            let name = &g.op(op).unwrap().name;
            assert!(src.time_on_arena(&g, op, &cfg).is_some(), "`{name}`");
        }
    }
}
