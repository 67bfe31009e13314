//! Cross-crate consistency: the dataflow graph (what we *analyze*) and the
//! CPU executor (what we *run*) must describe the same computation — same
//! tensor shapes, same saved values, same operator inventory.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::plan::ExecOptions;
use substation::dataflow::{build, DataRole, EncoderDims};
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp::Saved;
use substation::transformer::params::EncoderWeights;
use substation::transformer::training::synthetic_batch;

fn dims() -> EncoderDims {
    EncoderDims::tiny()
}

#[test]
fn activations_match_graph_containers() {
    let d = dims();
    let enc = build::encoder(&d);
    let mut rng = StdRng::seed_from_u64(1);
    let w = EncoderWeights::init(&d, &mut rng);
    let layer = EncoderLayer::new(d, Executor::Fused, 0.0);
    let x = synthetic_batch(&d, &mut rng).unwrap();
    let (y, acts) = layer
        .forward(&x, &w, &ExecOptions::default())
        .unwrap()
        .into_pair()
        .unwrap();

    // Every saved container the graph declares has a live counterpart in
    // the reference executor's record, with an identical shape, and the
    // record holds nothing else
    let graph_saved: BTreeSet<String> = (enc.graph.data_nodes().into_iter())
        .filter_map(|id| enc.graph.data(id))
        .filter(|n| n.role == DataRole::Saved)
        .map(|n| n.name.clone())
        .collect();
    let reference = EncoderLayer::new(d, Executor::Reference, 0.0);
    let kept = reference.forward(&x, &w, &ExecOptions::default()).unwrap();
    for record in [&acts, &kept.saved] {
        for name in record.names() {
            let t = record.tensor(name).unwrap();
            let id = enc.graph.data_by_name(name).unwrap();
            let node = enc.graph.data(id).unwrap();
            assert_eq!(&node.shape, t.shape(), "shape mismatch for {name}");
            assert_eq!(node.role, DataRole::Saved, "{name} should be Saved");
        }
    }
    let names = |record: &Saved| record.names().map(String::from).collect::<BTreeSet<_>>();
    assert_eq!(names(&kept.saved), graph_saved);
    // the softmax bundle is the reference executor's to keep: the fused
    // one runs the attention core as a region and saves the dropout stream
    // to compute the bundle again from
    let bundle = ["att", "alpha", "att_mask"].map(String::from);
    assert_eq!(
        names(&acts),
        &graph_saved - &BTreeSet::from(bundle),
        "the fused record is all but the softmax bundle"
    );
    assert!(acts.region().is_some() && kept.saved.region().is_none());

    // output container
    let y_id = enc.graph.data_by_name("y").unwrap();
    assert_eq!(&enc.graph.data(y_id).unwrap().shape, y.shape());
}

#[test]
fn gradients_match_graph_outputs() {
    let d = dims();
    let enc = build::encoder(&d);
    let mut rng = StdRng::seed_from_u64(2);
    let w = EncoderWeights::init(&d, &mut rng);
    let layer = EncoderLayer::new(d, Executor::Fused, 0.0);
    let x = synthetic_batch(&d, &mut rng).unwrap();
    let (y, acts) = layer
        .forward(&x, &w, &ExecOptions::default())
        .unwrap()
        .into_pair()
        .unwrap();
    let (dx, grads) = layer
        .backward(&y, &x, &w, &acts, &ExecOptions::default())
        .unwrap();

    let shape_of = |name: &str| {
        let id = enc.graph.data_by_name(name).unwrap();
        enc.graph.data(id).unwrap().shape.clone()
    };
    assert_eq!(&shape_of("dx"), dx.shape());
    assert_eq!(&shape_of("d_w1"), grads.w1.shape());
    assert_eq!(&shape_of("d_w2"), grads.w2.shape());
    assert_eq!(&shape_of("d_bo"), grads.bo.shape());
    assert_eq!(&shape_of("d_ln1_gamma"), grads.ln1_gamma.shape());
    assert_eq!(&shape_of("d_b1"), grads.b1.shape());
    assert_eq!(&shape_of("d_w_qkv"), grads.w_qkv.shape());
}

#[test]
fn graph_flop_dominated_by_real_multiplies() {
    // The graph's flop total should equal the sum over einsum ops computed
    // from the same shapes the executor contracts.
    let d = EncoderDims::bert_large();
    let enc = build::encoder(&d);
    let total = substation::dataflow::flops::total_flop(&enc.graph) as f64;
    // closed form: fwd contractions 104 Gi + bwd 208 Gi + small kernels
    let gi = 1_073_741_824.0;
    assert!((total / gi - 312.6).abs() < 2.0, "total {}", total / gi);
}

#[test]
fn executor_weight_count_matches_graph_weight_words() {
    let d = dims();
    let enc = build::encoder(&d);
    let mut rng = StdRng::seed_from_u64(3);
    let w = EncoderWeights::init(&d, &mut rng);
    let graph_weight_words: usize = enc
        .graph
        .data_nodes()
        .into_iter()
        .filter_map(|id| enc.graph.data(id))
        .filter(|n| n.role == DataRole::Weight)
        .map(|n| n.shape.num_elements())
        .sum();
    assert_eq!(graph_weight_words, w.num_parameters());
}
