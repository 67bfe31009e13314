//! Graph-level analyses: per-operator annotations (Fig. 1b / Fig. 2),
//! operator-class shares (Table I), and I/O lower bounds for MUE.

use crate::flops::op_flop;
use crate::graph::{Graph, NodeId};
use crate::op::OpClass;

/// One operator's static annotation, as drawn on the paper's dataflow
/// figures: flop, words moved, and their ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct OpAnnotation {
    /// Operator id within the graph.
    pub op: NodeId,
    /// Operator name.
    pub name: String,
    /// Operator class.
    pub class: OpClass,
    /// Flop performed.
    pub flop: u64,
    /// Words read.
    pub input_words: u64,
    /// Words written.
    pub output_words: u64,
}

impl OpAnnotation {
    /// Total words moved.
    pub fn io_words(&self) -> u64 {
        self.input_words + self.output_words
    }

    /// The flop-per-word ratio annotated on Fig. 2. Ratios below ~1 mean
    /// the operator is memory-bound on any modern GPU.
    pub fn flop_per_word(&self) -> f64 {
        self.flop as f64 / self.io_words() as f64
    }
}

/// Annotates every operator in execution order.
pub fn annotate(graph: &Graph) -> Vec<OpAnnotation> {
    graph
        .ops()
        .into_iter()
        .map(|op| {
            let node = graph.op(op).expect("live op");
            OpAnnotation {
                op,
                name: node.name.clone(),
                class: node.kind.class(),
                flop: op_flop(graph, op).unwrap_or(0),
                input_words: graph.input_words(op),
                output_words: graph.output_words(op),
            }
        })
        .collect()
}

/// Flop and I/O totals for one operator class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassShare {
    /// The class.
    pub class: OpClass,
    /// Total flop in the class.
    pub flop: u64,
    /// Percentage of the graph's flop.
    pub flop_pct: f64,
    /// Total words moved by the class.
    pub io_words: u64,
    /// Percentage of the graph's data movement.
    pub io_pct: f64,
}

/// Per-class flop and I/O shares (the static half of Table I; the runtime
/// column needs a performance model).
pub fn class_shares(graph: &Graph) -> Vec<ClassShare> {
    let anns = annotate(graph);
    let total_flop: u64 = anns.iter().map(|a| a.flop).sum();
    let total_io: u64 = anns.iter().map(|a| a.io_words()).sum();
    [
        OpClass::TensorContraction,
        OpClass::StatisticalNormalization,
        OpClass::Elementwise,
    ]
    .into_iter()
    .map(|class| {
        let flop: u64 = anns
            .iter()
            .filter(|a| a.class == class)
            .map(|a| a.flop)
            .sum();
        let io: u64 = anns
            .iter()
            .filter(|a| a.class == class)
            .map(|a| a.io_words())
            .sum();
        ClassShare {
            class,
            flop,
            flop_pct: 100.0 * flop as f64 / total_flop.max(1) as f64,
            io_words: io,
            io_pct: 100.0 * io as f64 / total_io.max(1) as f64,
        }
    })
    .collect()
}

/// Data-movement reduction between two versions of a graph (e.g. unfused vs
/// fused), as a percentage of the baseline movement — the paper's headline
/// "up to 22.91%" figure.
pub fn movement_reduction_pct(baseline: &Graph, optimized: &Graph) -> f64 {
    let b = baseline.total_io_words() as f64;
    let o = optimized.total_io_words() as f64;
    100.0 * (b - o) / b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::encoder;
    use crate::dims::EncoderDims;
    use crate::graph::DataRole;
    use crate::op::OpKind;
    use xform_tensor::Shape;

    #[test]
    fn annotations_cover_all_ops() {
        let e = encoder(&EncoderDims::tiny());
        let anns = annotate(&e.graph);
        assert_eq!(anns.len(), e.graph.ops().len());
        for a in &anns {
            assert!(a.io_words() > 0, "{} moved no data", a.name);
        }
    }

    #[test]
    fn flop_per_word_identifies_memory_bound_ops() {
        let e = encoder(&EncoderDims::bert_large());
        let anns = annotate(&e.graph);
        let by_name = |n: &str| anns.iter().find(|a| a.name == n).unwrap();
        // Fig. 2: tensor contractions have flop/word in the hundreds;
        // element-wise operators are below 1.
        assert!(by_name("Linear 1").flop_per_word() > 100.0);
        assert!(by_name("Dropout 1").flop_per_word() < 1.0);
        assert!(by_name("Residual 1").flop_per_word() < 1.0);
        // layernorm ≈ 7/3 per Fig. 2's "2.33"
        let ln = by_name("LayerNorm 1").flop_per_word();
        assert!(ln > 1.5 && ln < 4.0, "layernorm flop/word {ln}");
    }

    #[test]
    fn class_shares_sum_to_hundred() {
        let e = encoder(&EncoderDims::bert_large());
        let shares = class_shares(&e.graph);
        let flop_total: f64 = shares.iter().map(|s| s.flop_pct).sum();
        let io_total: f64 = shares.iter().map(|s| s.io_pct).sum();
        assert!((flop_total - 100.0).abs() < 1e-6);
        assert!((io_total - 100.0).abs() < 1e-6);
    }

    #[test]
    fn movement_reduction_measures_fusion() {
        let mut g = Graph::new();
        let s = Shape::new([('x', 100)]).unwrap();
        let a = g.add_data("a", s.clone(), DataRole::Input);
        let b = g.add_data("b", s.clone(), DataRole::Activation);
        let c = g.add_data("c", s, DataRole::Output);
        let o1 = g.add_op("o1", OpKind::Relu, &[a], &[b]);
        let o2 = g.add_op("o2", OpKind::Dropout, &[b], &[c]);
        let baseline = g.clone();
        g.fuse(&[o1, o2], "F").unwrap();
        let red = movement_reduction_pct(&baseline, &g);
        // 400 words before, 200 after
        assert!((red - 50.0).abs() < 1e-6);
    }
}
