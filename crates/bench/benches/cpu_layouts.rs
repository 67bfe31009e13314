//! Real-CPU measurement of data-layout sensitivity (the paper's Sec. V) on
//! the executor that ships: the same kernel, compiled alone onto an arena
//! ([`StandaloneKernel`]), with the reduction axis contiguous vs strided in
//! its input view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xform_core::cpusource::StandaloneKernel;
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_dataflow::{build, EncoderDims, Graph};
use xform_gpusim::opmodel::{primary_tensors, OpConfig};
use xform_tensor::Layout;

/// The fused encoder at a shape whose attention and embedding tensors are
/// a few hundred thousand words.
fn graph() -> Graph {
    let dims = EncoderDims {
        b: 4,
        j: 96,
        k: 96,
        h: 8,
        p: 32,
        i: 256,
        u: 1024,
    };
    let mut g = build::encoder(&dims).graph;
    apply_plan(&mut g, &encoder_fusion_plan()).expect("the canned fusion plan applies");
    g
}

/// Times kernel `op` with its flowing input stored in each of `specs`.
fn bench_input_layouts(c: &mut Criterion, group: &str, op: &str, specs: &[&str]) {
    let g = graph();
    let id = g.op_by_name(op).expect("the fused encoder has the kernel");
    let (input, _) = primary_tensors(&g, id).expect("a live operator");
    let shape = &g.data(input).expect("a data container").shape;
    let mut group = c.benchmark_group(group);
    for spec in specs {
        let mut cfg = OpConfig::natural(&g, id).expect("a live operator");
        cfg.in_layout = Layout::from_axis_order(shape, spec).expect("a layout of the input");
        let mut kernel = StandaloneKernel::compile(&g, id, &cfg).expect("a forward kernel");
        group.bench_with_input(BenchmarkId::new("layout", spec), spec, |b, _| {
            b.iter(|| black_box(kernel.run().expect("the kernel runs")))
        });
    }
    group.finish();
}

fn bench_softmax_layouts(c: &mut Criterion) {
    // `hbjk` is natural (k contiguous); `kjbh` strides k by j·b·h
    bench_input_layouts(c, "softmax-layouts", "SM", &["hbjk", "hbkj", "kjbh"]);
}

fn bench_layernorm_layouts(c: &mut Criterion) {
    // `ibj` is natural (the normalized axis strided); `bji` makes it
    // contiguous
    bench_input_layouts(c, "layernorm-layouts", "BDRLN", &["bji", "ibj", "jbi"]);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_softmax_layouts, bench_layernorm_layouts
}
criterion_main!(benches);
