//! A real-measurement [`PerfSource`]: prices operator configurations by
//! timing actual kernels on the host CPU instead of querying the V100
//! model.
//!
//! This demonstrates the paper's Sec. VIII claim that the recipe is
//! hardware-agnostic — the fuse → sweep → select pipeline only consumes
//! `(configuration → runtime)` pairs, and this source supplies them from
//! measurements:
//!
//! * **every operator the step lowering models** — the forward
//!   contractions, element-wise, normalization, fused and GEMM-epilogue
//!   kernels — executes the *real kernel on the executor that ships*: the
//!   operator is lowered to a single [`crate::plan::PlanStep`] with the
//!   configuration's layouts, compiled onto an arena of its own
//!   ([`crate::arena::CompiledArena`], un-memoized, its inputs externals
//!   in those layouts), and the arena's own per-step timing slot is read —
//!   so a sweep prices exactly the strided views a selected plan will run
//!   through;
//! * **contractions the lowering refuses** (the backward einsums and the
//!   slice writers that fill a stacked gradient) execute the real einsum
//!   engine ([`xform_tensor::contract`]) with the operands physically
//!   stored in the configuration's layouts;
//! * **backward kernels** (which the forward-only lowering does not
//!   model) execute a *representative strided sweep*: the kernel's
//!   exact tensors are allocated in the configuration's layouts and walked
//!   in the iteration order the configuration implies (reduction lane
//!   innermost when the warp/vector axes say so), reading every input word
//!   and writing every output word. This reproduces on the CPU cache
//!   hierarchy the access-pattern effects the GPU model captures
//!   analytically — a microbenchmark of the kernel's memory behaviour,
//!   which is what dominates these operators (Table I).
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
use xform_tensor::{Layout, Result, Shape, Tensor, TensorError};

use crate::analyze::{analyze, ArenaGranularity};
use crate::arena::{ArenaArtifact, CompiledArena};
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
    /// Creates a source and calibrates the host's streaming bandwidth.
    pub fn new(repetitions: usize) -> Self {
        let peak = calibrate_stream_rate();
        CpuSource {
            repetitions: repetitions.max(1),
            peak_bytes_per_us: peak,
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
    /// `None` when the lowering does not model it — the caller falls back
    /// to the einsum engine or the synthetic sweep.
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
}

impl StandaloneKernel {
    /// Lowers `op` to a single plan step with the configuration's layouts
    /// and compiles that one-step plan, its inputs externals in the
    /// declared layouts. `None` for operators the step lowering does not
    /// model (backward kernels, slice writers).
    pub fn compile(graph: &Graph, op: NodeId, cfg: &OpConfig) -> Option<StandaloneKernel> {
        let step = ExecutionPlan::single_step(graph, op, cfg).ok()?;
        lower_step(graph, &step)?;
        let plan = ExecutionPlan { steps: vec![step] };
        let analysis = analyze(graph, &plan);
        // past the gate: a lone step's inputs have no producer and sit in
        // the layouts under test, which the schedule lints would refuse
        let arena = CompiledArena::build(graph, &plan, &analysis, ArenaGranularity::Serial).ok()?;
        let dist = rand::distributions::Uniform::new(-1.0f32, 1.0);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut draw = |words| (0..words).map(|_| dist.sample(&mut rng)).collect();
        let inputs = (arena.externals())
            .map(|(name, words)| (name.to_string(), draw(words)))
            .collect();
        Some(StandaloneKernel { arena, inputs })
    }

    /// Runs the kernel once over its random operands (which no layout can
    /// tell apart) and returns its wall time in µs — the arena's own
    /// timing slot of the step, so materialization stays outside the
    /// measurement. Every operand is drawn
    /// from U(−1, 1) directly: a softmax handed such inputs spans less than
    /// `e²` per lane and cannot underflow, unlike one fed by a chain of
    /// unscaled projections ([`crate::plan::random_externals`] scales
    /// weights by their fan-in for that reason).
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
        // the sink only switches the arena's timing slots on
        let sink = std::sync::Mutex::new(PlanProfiler::with_peak(1.0));
        let opts = ExecOptions::builder()
            .seed(0xD15C)
            .sanitize(SanitizeMode::Off)
            .profiler(Some(&sink))
            .build();
        let mut time_us = 0.0;
        let mut read = |a: ArenaArtifact<'_>| {
            if let ArenaArtifact::Timings { step_us, .. } = a {
                time_us = step_us[0];
            }
        };
        self.arena.execute_bound(&opts, resolve, &mut read)?;
        Ok(time_us)
    }
}

impl Default for CpuSource {
    fn default() -> Self {
        CpuSource::new(3)
    }
}

/// Measures the contiguous read rate of this host (bytes/µs). Shared with
/// [`crate::profile::PlanProfiler`] so sweep microbenches and the runtime
/// profiler normalize achieved bandwidth against the same peak.
pub(crate) fn calibrate_stream_rate() -> f64 {
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
}

/// The strides of `t`'s axes in the order `iter` walks them (logical axis
/// indices, outermost first), and their extents.
fn walk(t: &Tensor, iter: &[usize]) -> (Vec<usize>, Vec<usize>) {
    debug_assert_eq!(iter.len(), t.shape().rank());
    let sizes = iter.iter().map(|&i| t.shape().sizes()[i]).collect();
    let strides = iter.iter().map(|&i| t.strides()[i]).collect();
    (sizes, strides)
}

/// Visits the offset of every element of a walk in odometer order
/// (innermost last).
fn sweep(sizes: &[usize], strides: &[usize], mut visit: impl FnMut(usize)) {
    let mut idx = vec![0usize; sizes.len()];
    let mut off = 0usize;
    loop {
        visit(off);
        let mut d = idx.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            off += strides[d];
            if idx[d] < sizes[d] {
                break;
            }
            off -= sizes[d] * strides[d];
            idx[d] = 0;
        }
    }
}

/// Walks every element of `t` in the index order `iter`, accumulating
/// reads. Returns a value to keep the optimizer honest.
fn sweep_read(t: &Tensor, iter: &[usize]) -> f32 {
    let (sizes, strides) = walk(t, iter);
    let mut acc = 0.0f32;
    sweep(&sizes, &strides, |off| acc += t.data()[off]);
    acc
}

/// Writes every element of `t` in `iter` order.
fn sweep_write(t: &mut Tensor, iter: &[usize], v: f32) {
    let (sizes, strides) = walk(t, iter);
    sweep(&sizes, &strides, |off| t.data_mut()[off] = v);
}

/// Iteration order for a tensor under a configuration: its layout's order,
/// with the vector axis rotated to the innermost position (that is what
/// "vectorize along this axis" means for the sweep).
fn iter_order(t: &Tensor, vector_axis: Option<char>) -> Vec<usize> {
    let vector = vector_axis.and_then(|v| t.shape().index_of(xform_tensor::Axis(v)).ok());
    let rest = t.layout().order().filter(|&i| Some(i) != vector);
    rest.chain(vector).collect()
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
        let outputs = graph.outputs_of(op);
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
                // backward kernel: representative strided sweep over the
                // kernel's tensors, those of a configured layout's rank in it
                let two_pass = node.kind.has_reduction();
                let fitting = |s: &Shape, l: Layout| {
                    if s.rank() == l.rank() {
                        l
                    } else {
                        Layout::row_major(s.rank())
                    }
                };
                let in_tensors: Vec<Tensor> = inputs
                    .iter()
                    .map(|&id| {
                        let s = shape_of(id)?;
                        let layout = fitting(&s, cfg.in_layout);
                        Ok(Tensor::random(s, &dist, &mut rng).relayout(&layout))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let mut out_tensors: Vec<Tensor> = outputs
                    .iter()
                    .map(|&id| {
                        let s = shape_of(id)?;
                        let layout = fitting(&s, cfg.out_layout);
                        Ok(Tensor::zeros_with_layout(s, layout))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let vector_axis = cfg.vector_axis;
                self.time_once(&mut || {
                    let mut acc = 0.0f32;
                    for t in &in_tensors {
                        let order = iter_order(t, vector_axis);
                        acc += sweep_read(t, &order);
                        if two_pass && t.len() == in_tensors[0].len() {
                            // second loop of reduce-then-map kernels
                            acc += sweep_read(t, &order);
                        }
                    }
                    for t in &mut out_tensors {
                        let order = iter_order(t, vector_axis);
                        sweep_write(t, &order, acc);
                    }
                    std::hint::black_box(acc);
                })
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
    fn contiguous_iteration_beats_strided_on_real_hardware() {
        // sanity-check the sweep primitive itself at a size with cache
        // pressure: iterating the contiguous axis last is faster
        let shape = Shape::new([('a', 256), ('b', 512)]).unwrap();
        let t = Tensor::zeros(shape); // row-major: 'b' contiguous
        let src = CpuSource::new(5);
        let time = |order: &[usize]| {
            src.clone().time_once(&mut || {
                std::hint::black_box(sweep_read(&t, order));
            })
        };
        let good = time(&[0, 1]);
        let bad = time(&[1, 0]);
        assert!(
            bad > good * 0.8,
            "strided {bad} µs vs contiguous {good} µs — expected no large win for strided"
        );
    }
}
