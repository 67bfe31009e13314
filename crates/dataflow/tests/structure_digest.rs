//! Structural pins across builder refactors: an FNV-1a digest of every
//! graph `xform_dataflow::build` produces, at `EncoderDims::tiny()` and
//! `bert_large()` — every node in id order (name, kind, shape, role), every
//! memlet in insertion order (endpoints, words), and the recorded
//! `forward_ops`/`backward_ops` — held against a table recorded before the
//! builders were rewritten from shared sub-block emitters. NodeIds feed the
//! plan fingerprints and `BENCH_plan_audit.json`, so a digest that moves
//! means a plan somewhere downstream moved with it.
//!
//! On a mismatch the test prints the table it computed, in source form,
//! with the moved rows marked.

use xform_dataflow::build::{self, EncoderGraph, ForwardGraph};
use xform_dataflow::{EncoderDims, Graph, Node, NodeId};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
    /// Length-prefixed, so adjacent strings cannot trade characters.
    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Every live node by ascending id.
fn nodes(g: &Graph) -> Vec<NodeId> {
    let mut ids = g.data_nodes();
    ids.extend(g.ops());
    ids.sort();
    ids
}

fn graph_digest(h: &mut Fnv, g: &Graph) {
    let ids = nodes(g);
    h.num(ids.len() as u64);
    for id in ids {
        h.num(id.0 as u64);
        match g.node(id).expect("live node") {
            Node::Data(d) => {
                h.text("data");
                h.text(&d.name);
                h.text(&d.shape.spec());
                for &n in d.shape.sizes() {
                    h.num(n as u64);
                }
                h.text(&format!("{:?}", d.role));
            }
            Node::Op(o) => {
                h.text("op");
                h.text(&o.name);
                h.text(&format!("{:?}", o.kind));
            }
        }
    }
    h.num(g.edges().len() as u64);
    for e in g.edges() {
        h.num(e.from.0 as u64);
        h.num(e.to.0 as u64);
        h.num(e.volume_words);
    }
}

fn names(h: &mut Fnv, ops: &[String]) {
    h.num(ops.len() as u64);
    for n in ops {
        h.text(n);
    }
}

fn training(e: &EncoderGraph) -> u64 {
    let mut h = Fnv::new();
    graph_digest(&mut h, &e.graph);
    for id in [e.x, e.dy, e.y, e.dx] {
        h.num(id.0 as u64);
    }
    names(&mut h, &e.forward_ops);
    names(&mut h, &e.backward_ops);
    h.0
}

fn forward_only(f: &ForwardGraph) -> u64 {
    let mut h = Fnv::new();
    graph_digest(&mut h, &f.graph);
    names(&mut h, &f.forward_ops);
    h.0
}

/// The decode-step geometry of `dims`: one query column against a cache of
/// `dims.k` positions.
fn step(dims: &EncoderDims) -> EncoderDims {
    EncoderDims { j: 1, ..*dims }
}

fn shapes() -> [(&'static str, EncoderDims); 2] {
    [
        ("tiny", EncoderDims::tiny()),
        ("bert_large", EncoderDims::bert_large()),
    ]
}

#[test]
fn builder_structure_matches_the_recorded_table() {
    let mut table: Vec<(String, u64)> = Vec::new();
    for (tag, dims) in shapes() {
        let mut row = |builder: &str, d: u64| table.push((format!("{builder}/{tag}"), d));
        let mut h = Fnv::new();
        graph_digest(&mut h, &build::mha_forward(&dims));
        row("mha_forward", h.0);
        row("encoder", training(&build::encoder(&dims)));
        row("decoder", training(&build::decoder(&dims)));
        row(
            "decoder_step_project",
            forward_only(&build::decoder_step_project(&step(&dims))),
        );
        row(
            "decoder_step_attend",
            forward_only(&build::decoder_step_attend(&step(&dims))),
        );
    }
    let recorded: Vec<(String, u64)> = RECORDED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if table != recorded {
        for (name, d) in &table {
            let moved = recorded.iter().all(|r| r != &(name.clone(), *d));
            println!(
                "    (\"{name}\", {d:#018x}),{}",
                if moved { " // MOVED" } else { "" }
            );
        }
        panic!("builder structure moved; the computed table is printed above");
    }
}

#[rustfmt::skip]
const RECORDED: &[(&str, u64)] = &[
    ("mha_forward/tiny", 0xa2656a1b33ec6e88),
    ("encoder/tiny", 0x369c2c80cf875147),
    ("decoder/tiny", 0x3325d800cf4756e5),
    ("decoder_step_project/tiny", 0x8684d3b62c10430e),
    ("decoder_step_attend/tiny", 0x66854cee3d0a363b),
    ("mha_forward/bert_large", 0x262db8caea31f5cc),
    ("encoder/bert_large", 0x5c9a5ee26ad16c12),
    ("decoder/bert_large", 0x664a85b181269e86),
    ("decoder_step_project/bert_large", 0x436b491b9cca3f3a),
    ("decoder_step_attend/bert_large", 0x99bcc89de358b899),
];
