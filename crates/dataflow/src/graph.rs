//! The dataflow graph: operators, data containers, and memlet edges.
//!
//! A simplified stateful-dataflow-multigraph (SDFG) in the spirit of DaCe
//! (Sec. II-C): data containers and operators are nodes; every edge is a
//! *memlet* carrying the exact number of words moved. Because every edge
//! represents exact data movement, access volumes can be inspected directly
//! — the property the paper's whole recipe rests on.

use std::fmt;

use xform_tensor::ops::elementwise::ActivationKind;
use xform_tensor::{Shape, TensorError};

use crate::op::{OpClass, OpKind};

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a data container, used by analyses and by the fusion pass to
/// decide which containers are interim values that fusion eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRole {
    /// External input to the computation (e.g. the encoder input `X`).
    Input,
    /// Learned parameter.
    Weight,
    /// Intermediate activation. Fusion may eliminate these.
    Activation,
    /// Forward-pass value saved for backpropagation (masks, layer-norm
    /// inputs, softmax outputs). Never eliminated by element-wise or
    /// epilogue fusion; the attention region ([`Graph::fuse_tile`] with a
    /// second contraction) takes the attention core's off the forward side.
    Saved,
    /// Gradient tensor.
    Gradient,
    /// External output (e.g. the layer output, weight gradients).
    Output,
    /// Persistent cross-call state (e.g. a decoder KV cache). Lives in the
    /// arena slab across plan executions: live-in and live-out of every
    /// plan, never recolored, never produced by a plan step.
    Cache,
}

/// A data-container node.
#[derive(Debug, Clone, PartialEq)]
pub struct DataNode {
    /// Container name (e.g. `"qq"`, `"drop1_mask"`).
    pub name: String,
    /// Logical shape of the container.
    pub shape: Shape,
    /// Role in the computation.
    pub role: DataRole,
}

/// An operator node.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// Operator name, matching the paper's table rows where applicable.
    pub name: String,
    /// What the operator computes.
    pub kind: OpKind,
}

/// A node: either a data container or an operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A data container.
    Data(DataNode),
    /// An operator.
    Op(OpNode),
}

/// A memlet edge. Data→op edges are operator reads; op→data edges are
/// operator writes. `volume_words` is the exact number of words moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Words moved along this edge.
    pub volume_words: u64,
}

/// A dataflow graph for one training step (or a fragment of one), and the
/// arithmetic of its generic operators: the function behind every
/// [`OpKind::Relu`] node (and its gradient) and the factor every softmax
/// (and its gradient) scales by. Every executor reads both from here.
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Option<Node>>,
    edges: Vec<Edge>,
    activation: ActivationKind,
    softmax_scale: f32,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            activation: ActivationKind::Relu,
            softmax_scale: 1.0,
        }
    }
}

impl Graph {
    /// Creates an empty graph: ReLU activations, unscaled softmaxes.
    pub fn new() -> Self {
        Graph::default()
    }

    /// The function every [`OpKind::Relu`] node applies.
    pub fn activation(&self) -> ActivationKind {
        self.activation
    }

    /// The factor every softmax scales its input by (`1/√p` in attention).
    pub fn softmax_scale(&self) -> f32 {
        self.softmax_scale
    }

    /// Sets the function every [`OpKind::Relu`] node applies.
    pub fn set_activation(&mut self, activation: ActivationKind) {
        self.activation = activation;
    }

    /// Sets the factor every softmax scales its input by.
    pub fn set_softmax_scale(&mut self, scale: f32) {
        self.softmax_scale = scale;
    }

    /// Adds a data container.
    pub fn add_data(&mut self, name: impl Into<String>, shape: Shape, role: DataRole) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(Node::Data(DataNode {
            name: name.into(),
            shape,
            role,
        })));
        id
    }

    /// Adds an operator reading `inputs` and writing `outputs` (all data
    /// nodes), creating one memlet per connection with the full container
    /// volume.
    ///
    /// # Panics
    ///
    /// Panics if an input or output id does not refer to a data node.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> NodeId {
        let ins: Vec<(NodeId, u64)> = inputs
            .iter()
            .map(|&i| {
                let words = self
                    .data(i)
                    .expect("op input must be a data node")
                    .shape
                    .num_elements() as u64;
                (i, words)
            })
            .collect();
        let outs: Vec<(NodeId, u64)> = outputs
            .iter()
            .map(|&o| {
                let words = self
                    .data(o)
                    .expect("op output must be a data node")
                    .shape
                    .num_elements() as u64;
                (o, words)
            })
            .collect();
        self.add_op_with_volumes(name, kind, &ins, &outs)
    }

    /// Like [`Graph::add_op`] but with explicit memlet volumes, for
    /// operators that access only a slice of a container (e.g. the writers
    /// of the stacked Q/K/V gradient).
    ///
    /// # Panics
    ///
    /// Panics if an id does not refer to a data node.
    pub fn add_op_with_volumes(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[(NodeId, u64)],
        outputs: &[(NodeId, u64)],
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(Node::Op(OpNode {
            name: name.into(),
            kind,
        })));
        for &(i, words) in inputs {
            assert!(self.data(i).is_some(), "op input must be a data node");
            self.edges.push(Edge {
                from: i,
                to: id,
                volume_words: words,
            });
        }
        for &(o, words) in outputs {
            assert!(self.data(o).is_some(), "op output must be a data node");
            self.edges.push(Edge {
                from: id,
                to: o,
                volume_words: words,
            });
        }
        id
    }

    /// The node behind an id, if it still exists.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0).and_then(|n| n.as_ref())
    }

    /// The data node behind an id, if it is one.
    pub fn data(&self, id: NodeId) -> Option<&DataNode> {
        match self.node(id) {
            Some(Node::Data(d)) => Some(d),
            _ => None,
        }
    }

    /// The operator node behind an id, if it is one.
    pub fn op(&self, id: NodeId) -> Option<&OpNode> {
        match self.node(id) {
            Some(Node::Op(o)) => Some(o),
            _ => None,
        }
    }

    /// Ids of all live operator nodes, in insertion (execution) order.
    pub fn ops(&self) -> Vec<NodeId> {
        self.ids(|n| matches!(n, Node::Op(_)))
    }

    /// Ids of all live data nodes, in insertion order.
    pub fn data_nodes(&self) -> Vec<NodeId> {
        self.ids(|n| matches!(n, Node::Data(_)))
    }

    fn ids(&self, pred: impl Fn(&Node) -> bool) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Some(n) if pred(n) => Some(NodeId(i)),
                _ => None,
            })
            .collect()
    }

    /// Looks up an operator by name (first match in insertion order).
    pub fn op_by_name(&self, name: &str) -> Option<NodeId> {
        self.find(|n| matches!(n, Node::Op(o) if o.name == name))
    }

    /// Looks up a data node by name (first match in insertion order).
    pub fn data_by_name(&self, name: &str) -> Option<NodeId> {
        self.find(|n| matches!(n, Node::Data(d) if d.name == name))
    }

    /// The first live node `pred` holds for, searched in place.
    fn find(&self, pred: impl Fn(&Node) -> bool) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.as_ref().is_some_and(&pred))
            .map(NodeId)
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Data nodes read by an operator, in edge order.
    pub fn inputs_of(&self, op: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.to == op)
            .map(|e| e.from)
            .collect()
    }

    /// Data nodes written by an operator, in edge order.
    pub fn outputs_of(&self, op: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.from == op)
            .map(|e| e.to)
            .collect()
    }

    /// The operator that writes a data node, if any.
    pub fn producer_of(&self, data: NodeId) -> Option<NodeId> {
        self.edges.iter().find(|e| e.to == data).map(|e| e.from)
    }

    /// Operators that read a data node.
    pub fn consumers_of(&self, data: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.from == data)
            .map(|e| e.to)
            .collect()
    }

    /// Words read by an operator (sum of incoming memlet volumes).
    pub fn input_words(&self, op: NodeId) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.to == op)
            .map(|e| e.volume_words)
            .sum()
    }

    /// Words written by an operator (sum of outgoing memlet volumes).
    pub fn output_words(&self, op: NodeId) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.from == op)
            .map(|e| e.volume_words)
            .sum()
    }

    /// Total words moved by an operator (inputs + outputs) — the paper's
    /// per-operator I/O measure.
    pub fn io_words(&self, op: NodeId) -> u64 {
        self.input_words(op) + self.output_words(op)
    }

    /// Words `op` reads from one specific container (the exact memlet
    /// volume, summed if several edges connect the pair). Slice readers of
    /// stacked containers move only their slice, not the whole container.
    pub fn read_words(&self, op: NodeId, data: NodeId) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.from == data && e.to == op)
            .map(|e| e.volume_words)
            .sum()
    }

    /// Words `op` writes into one specific container (the exact memlet
    /// volume, summed if several edges connect the pair).
    pub fn write_words(&self, op: NodeId, data: NodeId) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.from == op && e.to == data)
            .map(|e| e.volume_words)
            .sum()
    }

    /// Total bytes moved by an operator at the given word width — the
    /// byte-volume figure static audits aggregate per operator class.
    pub fn io_bytes(&self, op: NodeId, word_bytes: usize) -> u64 {
        self.io_words(op) * word_bytes as u64
    }

    /// Deletes nodes together with every memlet that touches them.
    fn delete(&mut self, dead: &[NodeId]) {
        self.edges
            .retain(|e| !dead.contains(&e.from) && !dead.contains(&e.to));
        for id in dead {
            self.nodes[id.0] = None;
        }
    }

    /// Replaces a group of operators with one fused operator named `name`.
    ///
    /// External inputs/outputs of the group become the fused operator's
    /// memlets. Interim data nodes — role [`DataRole::Activation`], produced
    /// and consumed exclusively inside the group — are deleted together with
    /// their memlets: this deletion *is* the data-movement saving of fusion.
    /// The fused node records the constituents' summed flop.
    ///
    /// # Errors
    ///
    /// Returns an error if the group is empty, an id is not a live operator,
    /// or a constituent is itself a tensor contraction (the paper never
    /// fuses contractions into element-wise kernels; Sec. IV-C).
    pub fn fuse(&mut self, group: &[NodeId], name: &str) -> Result<NodeId, TensorError> {
        if group.is_empty() {
            return Err(TensorError::Unsupported(
                "cannot fuse an empty group".into(),
            ));
        }
        let mut parts = Vec::new();
        let mut flop_total = 0u64;
        let mut class = OpClass::Elementwise;
        let mut reduce_axis = None;
        for &id in group {
            let op = self
                .op(id)
                .ok_or_else(|| TensorError::Unsupported(format!("{id} is not an operator")))?;
            if op.kind.class() == OpClass::TensorContraction {
                return Err(TensorError::Unsupported(format!(
                    "cannot fuse tensor contraction `{}` into an element-wise kernel",
                    op.name
                )));
            }
            if op.kind.class() == OpClass::StatisticalNormalization {
                class = OpClass::StatisticalNormalization;
            }
            if reduce_axis.is_none() {
                reduce_axis = op.kind.reduce_axis();
            }
            parts.push(op.name.clone());
            flop_total += crate::flops::op_flop(self, id).unwrap_or(0);
        }

        // Classify the group's data connections.
        let in_group = |id: NodeId| group.contains(&id);
        let mut ext_inputs: Vec<NodeId> = Vec::new();
        let mut ext_outputs: Vec<NodeId> = Vec::new();
        let mut interim: Vec<NodeId> = Vec::new();
        for &op_id in group {
            for d in self.inputs_of(op_id) {
                let produced_inside = self.producer_of(d).map(in_group).unwrap_or(false);
                if !produced_inside && !ext_inputs.contains(&d) {
                    ext_inputs.push(d);
                }
            }
            for d in self.outputs_of(op_id) {
                let consumers = self.consumers_of(d);
                let all_inside = !consumers.is_empty() && consumers.iter().all(|&c| in_group(c));
                let role = self.data(d).expect("edge target is data").role;
                let interim_role = role == DataRole::Activation || role == DataRole::Gradient;
                if all_inside && interim_role {
                    if !interim.contains(&d) {
                        interim.push(d);
                    }
                } else if !ext_outputs.contains(&d) {
                    ext_outputs.push(d);
                }
            }
        }

        // Delete the group's ops, their memlets, and interim containers.
        let dead: Vec<NodeId> = group
            .iter()
            .copied()
            .chain(interim.iter().copied())
            .collect();
        self.delete(&dead);

        let fused = OpKind::Fused {
            name: name.to_string(),
            parts,
            flop: flop_total,
            class,
            reduce_axis,
        };
        Ok(self.add_op(name, fused, &ext_inputs, &ext_outputs))
    }

    /// Replaces a chain with one [`OpKind::TileProgram`] named `name`,
    /// standing for `span` schedule positions: the contraction `head`, the
    /// non-contraction `tail` that alone reads its output (first), and — if
    /// given — the contraction `second` that reads one of `tail`'s outputs
    /// as its second operand. The program reads `head`'s operands, `tail`'s
    /// other inputs and `second`'s first operand, and writes `second`'s
    /// output or, without one, `tail`'s outputs. This is the one sanctioned
    /// exception to [`Graph::fuse`]'s no-contraction rule; the paper stops
    /// at element-wise groups, this goes one step further (CODA/VTC-style
    /// virtual intermediates).
    ///
    /// `head`'s output is deleted with its memlets: the program keeps it as
    /// a tile of rows, never materialized. With a second contraction, so is
    /// everything between the two where nothing else reads `tail`'s outputs
    /// (a forward-only graph). Where something does — the backward half of
    /// a training graph reads the attention core's saved softmax, dropped-out
    /// weights and mask — `head` and `tail` stay, feeding only those
    /// readers: the *rematerialization* of what the forward pass no longer
    /// keeps, to be scheduled with the backward pass.
    ///
    /// # Errors
    ///
    /// As [`Graph::tile_program`].
    pub fn fuse_tile(
        &mut self,
        head: NodeId,
        tail: NodeId,
        second: Option<NodeId>,
        name: &str,
        span: usize,
    ) -> Result<NodeId, TensorError> {
        let (kind, inputs, outputs) = self.tile_program(head, tail, second, span)?;
        let [mid] = self.outputs_of(head)[..] else {
            unreachable!("`tile_program` checked the head writes one container");
        };
        let mut dead = vec![head, tail, mid];
        if let Some(second) = second {
            // readers of the chain's values other than the second
            // contraction keep `head` and `tail` alive as their
            // rematerialization
            let tail_out = self.outputs_of(tail);
            let read_elsewhere = |&d: &NodeId| self.consumers_of(d).iter().any(|&c| c != second);
            if tail_out.iter().any(read_elsewhere) {
                dead.clear();
            } else {
                dead.extend(tail_out);
            }
            dead.push(second);
        }
        self.delete(&dead);
        Ok(self.add_op(name, kind, &inputs, &outputs))
    }

    /// The [`OpKind::TileProgram`] that [`Graph::fuse_tile`] collapses the
    /// chain `head → tail` (`→ second`) into, with the containers it reads
    /// and writes, in edge order; the graph is left as it is.
    ///
    /// # Errors
    ///
    /// Returns an error unless `head` is a two-operand einsum writing one
    /// interim activation that `tail`, a live non-contraction operator,
    /// alone reads, as its first input; and `second`, if given, is a
    /// two-operand einsum writing one container that reads one of `tail`'s
    /// outputs second.
    pub fn tile_program(
        &self,
        head: NodeId,
        tail: NodeId,
        second: Option<NodeId>,
        span: usize,
    ) -> Result<(OpKind, Vec<NodeId>, Vec<NodeId>), TensorError> {
        let refuse = |why: &str| Err(TensorError::Unsupported(format!("tile program: {why}")));
        let einsum = |id: NodeId| match self.op(id).map(|o| &o.kind) {
            Some(OpKind::Einsum(spec)) => Some(spec.clone()),
            _ => None,
        };
        let Some(first) = einsum(head) else {
            return refuse("the head is not a contraction");
        };
        let chain = |o: &&OpNode| o.kind.class() != OpClass::TensorContraction;
        let Some(tail_op) = self.op(tail).filter(chain) else {
            return refuse("the tail is not a live non-contraction operator");
        };
        let (head_in, tail_in, tail_out) = (
            self.inputs_of(head),
            self.inputs_of(tail),
            self.outputs_of(tail),
        );
        let [mid] = self.outputs_of(head)[..] else {
            return refuse("the head must write exactly one container");
        };
        let mid_node = self.data(mid).expect("edge target is data");
        if head_in.len() != 2
            || mid_node.role != DataRole::Activation
            || self.consumers_of(mid) != [tail]
            || tail_in.first() != Some(&mid)
        {
            return refuse(
                "the head's output is not an interim activation its tail alone reads first",
            );
        }
        let mut inputs = head_in;
        for d in tail_in {
            if d != mid && !inputs.contains(&d) {
                inputs.push(d);
            }
        }
        let (spec, outputs) = match second.map(|op| (einsum(op), self.inputs_of(op))) {
            None => (None, tail_out),
            Some((Some(spec), ins)) if ins.len() == 2 && tail_out.contains(&ins[1]) => {
                inputs.push(ins[0]);
                (Some(spec), self.outputs_of(second.expect("matched")))
            }
            Some(_) => return refuse("the second contraction must read the tail's rows second"),
        };
        if spec.is_some() && outputs.len() != 1 {
            return refuse("the second contraction must write one container");
        }
        // the chain's reduction axis, by position in the first contraction's
        // letters
        let at = (tail_op.kind.reduce_axis()).and_then(|ax| mid_node.shape.index_of(ax).ok());
        let reduce_axis = at.and_then(|at| first.output().get(at).copied());
        let name_of = |op: NodeId| self.op(op).expect("live").name.clone();
        let members = match &tail_op.kind {
            OpKind::Fused { parts, .. } => parts.clone(),
            _ => vec![name_of(tail)],
        };
        let ops = [Some(head), Some(tail), second];
        let flop = (ops.iter().flatten()).map(|&op| crate::flops::op_flop(self, op).unwrap_or(0));
        let kind = OpKind::TileProgram {
            first,
            second: spec,
            parts: [
                vec![name_of(head)],
                members,
                second.map(name_of).into_iter().collect(),
            ]
            .concat(),
            flop: flop.sum(),
            reduce_axis,
            span,
        };
        Ok((kind, inputs, outputs))
    }

    /// Total words moved across all operators (the graph-level data-movement
    /// figure that fusion reduces by ~22.91% in the paper).
    pub fn total_io_words(&self) -> u64 {
        self.ops().iter().map(|&op| self.io_words(op)).sum()
    }

    /// Operators in a topological order of their data dependencies
    /// (Kahn's algorithm; insertion order breaks ties, so builder emission
    /// order is preserved where dependencies allow).
    pub fn topo_ops(&self) -> Vec<NodeId> {
        let ops = self.ops();
        let mut indeg: Vec<usize> = ops
            .iter()
            .map(|&op| {
                self.inputs_of(op)
                    .into_iter()
                    .flat_map(|d| self.producers_of(d))
                    .filter(|p| ops.contains(p))
                    .count()
            })
            .collect();
        let mut order = Vec::with_capacity(ops.len());
        let mut done = vec![false; ops.len()];
        while order.len() < ops.len() {
            let mut progressed = false;
            for (i, &op) in ops.iter().enumerate() {
                if !done[i] && indeg[i] == 0 {
                    done[i] = true;
                    progressed = true;
                    order.push(op);
                    for d in self.outputs_of(op) {
                        for c in self.consumers_of(d) {
                            if let Some(j) = ops.iter().position(|&o| o == c) {
                                indeg[j] = indeg[j].saturating_sub(1);
                            }
                        }
                    }
                }
            }
            if !progressed {
                // cycle (should not happen for training graphs): emit rest
                for (i, &op) in ops.iter().enumerate() {
                    if !done[i] {
                        order.push(op);
                    }
                }
                break;
            }
        }
        order
    }

    /// All operators writing a data node (stacked containers like the
    /// Q/K/V gradient have several slice writers).
    pub fn producers_of(&self, data: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|e| e.to == data)
            .map(|e| e.from)
            .collect()
    }

    /// Structural validation: every edge connects a data node to an
    /// operator (the graph is bipartite), every operator reads and writes
    /// at least one container, no memlet volume exceeds its container, and
    /// every non-source container has at least one producer. Returns all
    /// violations found (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for e in &self.edges {
            let from_data = self.data(e.from).is_some();
            let to_data = self.data(e.to).is_some();
            let from_op = self.op(e.from).is_some();
            let to_op = self.op(e.to).is_some();
            if !((from_data && to_op) || (from_op && to_data)) {
                problems.push(format!("edge {} -> {} is not data↔op", e.from, e.to));
                continue;
            }
            let container = if from_data { e.from } else { e.to };
            let cap = self
                .data(container)
                .expect("validated")
                .shape
                .num_elements() as u64;
            if e.volume_words > cap {
                problems.push(format!(
                    "edge {} -> {} moves {} words but the container holds {}",
                    e.from, e.to, e.volume_words, cap
                ));
            }
            if e.volume_words == 0 {
                problems.push(format!("edge {} -> {} moves zero words", e.from, e.to));
            }
        }
        for op in self.ops() {
            let name = &self.op(op).expect("live").name;
            if self.inputs_of(op).is_empty() {
                problems.push(format!("operator `{name}` reads nothing"));
            }
            if self.outputs_of(op).is_empty() {
                problems.push(format!("operator `{name}` writes nothing"));
            }
        }
        for d in self.data_nodes() {
            let node = self.data(d).expect("live");
            let produced = !self.producers_of(d).is_empty();
            let consumed = !self.consumers_of(d).is_empty();
            match node.role {
                DataRole::Input | DataRole::Weight => {
                    if produced {
                        problems.push(format!("`{}` ({:?}) has a producer", node.name, node.role));
                    }
                }
                DataRole::Output => {
                    if !produced {
                        problems.push(format!("output `{}` is never produced", node.name));
                    }
                }
                DataRole::Activation => {
                    if !produced {
                        problems.push(format!("`{}` is never produced", node.name));
                    }
                    if !consumed {
                        problems.push(format!("`{}` is never consumed", node.name));
                    }
                }
                DataRole::Saved => {
                    // saved tensors exist *for* a later (possibly absent)
                    // backward graph; production is required, consumption
                    // is not (e.g. a forward-only MHA graph)
                    if !produced {
                        problems.push(format!("`{}` is never produced", node.name));
                    }
                }
                DataRole::Gradient => {
                    // `dy` is the backward seed: consumed but not produced
                    if !consumed && !produced {
                        problems.push(format!("gradient `{}` is disconnected", node.name));
                    }
                }
                DataRole::Cache => {
                    // persistent state is appended to *between* plan runs,
                    // never produced by a plan step; it must feed something
                    if produced {
                        problems.push(format!("cache `{}` has a producer", node.name));
                    }
                    if !consumed {
                        problems.push(format!("cache `{}` is never consumed", node.name));
                    }
                }
            }
        }
        problems
    }

    /// Renders the graph in Graphviz DOT format: operator nodes as boxes
    /// labelled with their class glyph, data containers as ellipses (saved
    /// tensors dashed), memlets as edges annotated with their volume in
    /// Mwords. Feed the output to `dot -Tsvg` to draw Fig. 1/2-style
    /// diagrams.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB; node [fontsize=10];");
        for id in self.data_nodes() {
            let d = self.data(id).expect("live data");
            let style = match d.role {
                DataRole::Saved => "shape=ellipse, style=dashed",
                DataRole::Weight => "shape=ellipse, style=dotted",
                DataRole::Input | DataRole::Output => "shape=ellipse, style=bold",
                _ => "shape=ellipse",
            };
            let _ = writeln!(out, "  n{} [label=\"{}\", {}];", id.0, d.name, style);
        }
        for id in self.ops() {
            let o = self.op(id).expect("live op");
            let _ = writeln!(
                out,
                "  n{} [label=\"{} {}\", shape=box, style=filled, fillcolor=lightgrey];",
                id.0,
                o.kind.class().glyph(),
                o.name
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{:.1}M\"];",
                e.from.0,
                e.to.0,
                e.volume_words as f64 / 1e6
            );
        }
        out.push_str("}\n");
        out
    }

    /// Every node (op or data) reachable downstream of `start` by following
    /// edges forward. Used to split a training graph into forward and
    /// backward halves (everything reachable from `dy` is backward).
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![start];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            for e in &self.edges {
                if e.from == n && !seen.contains(&e.to) {
                    seen.push(e.to);
                    stack.push(e.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xform_tensor::Axis;

    fn shape(n: usize) -> Shape {
        Shape::new([('x', n)]).unwrap()
    }

    fn chain_graph() -> (Graph, [NodeId; 3], [NodeId; 4]) {
        // a --op1--> b --op2--> c, with op3 reading c
        let mut g = Graph::new();
        let a = g.add_data("a", shape(10), DataRole::Input);
        let b = g.add_data("b", shape(10), DataRole::Activation);
        let c = g.add_data("c", shape(10), DataRole::Activation);
        let d = g.add_data("d", shape(10), DataRole::Output);
        let op1 = g.add_op("op1", OpKind::Relu, &[a], &[b]);
        let op2 = g.add_op("op2", OpKind::Residual, &[b], &[c]);
        let op3 = g.add_op("op3", OpKind::Dropout, &[c], &[d]);
        (g, [op1, op2, op3], [a, b, c, d])
    }

    #[test]
    fn structure_queries() {
        let (g, [op1, op2, _], [a, b, _, _]) = chain_graph();
        assert_eq!(g.ops().len(), 3);
        assert_eq!(g.data_nodes().len(), 4);
        assert_eq!(g.inputs_of(op1), vec![a]);
        assert_eq!(g.outputs_of(op1), vec![b]);
        assert_eq!(g.producer_of(b), Some(op1));
        assert_eq!(g.consumers_of(b), vec![op2]);
        assert_eq!(g.op_by_name("op2"), Some(op2));
        assert_eq!(g.data_by_name("a"), Some(a));
        assert_eq!(g.io_words(op1), 20);
        assert_eq!(g.read_words(op1, a), 10);
        assert_eq!(g.write_words(op1, b), 10);
        assert_eq!(g.read_words(op1, b), 0);
        assert_eq!(g.io_bytes(op1, 2), 40);
    }

    #[test]
    fn fuse_removes_interim_container() {
        let (mut g, [op1, op2, _], [a, b, c, _]) = chain_graph();
        let before = g.total_io_words();
        let fused = g.fuse(&[op1, op2], "F").unwrap();
        // b was interim: gone. a and c remain external.
        assert!(g.node(b).is_none());
        assert!(g.node(op1).is_none());
        assert_eq!(g.inputs_of(fused), vec![a]);
        assert_eq!(g.outputs_of(fused), vec![c]);
        // io dropped by the two memlets touching b (2 × 10 words)
        assert_eq!(g.total_io_words(), before - 20);
        match &g.op(fused).unwrap().kind {
            OpKind::Fused { parts, .. } => assert_eq!(parts, &["op1", "op2"]),
            other => panic!("expected fused, got {other:?}"),
        }
    }

    #[test]
    fn fuse_keeps_saved_containers() {
        let mut g = Graph::new();
        let a = g.add_data("a", shape(8), DataRole::Input);
        let b = g.add_data("b", shape(8), DataRole::Saved); // e.g. a mask
        let c = g.add_data("c", shape(8), DataRole::Output);
        let op1 = g.add_op("op1", OpKind::Dropout, &[a], &[b]);
        let op2 = g.add_op("op2", OpKind::Relu, &[b], &[c]);
        let fused = g.fuse(&[op1, op2], "F").unwrap();
        // b is Saved: must survive as an output of the fused kernel.
        assert!(g.node(b).is_some());
        assert!(g.outputs_of(fused).contains(&b));
        assert!(g.outputs_of(fused).contains(&c));
    }

    #[test]
    fn fuse_rejects_contractions_and_empty() {
        let mut g = Graph::new();
        let a = g.add_data("a", shape(4), DataRole::Input);
        let b = g.add_data("b", shape(4), DataRole::Input);
        let c = g.add_data("c", shape(4), DataRole::Output);
        let spec = "xy,yz->xz".parse().unwrap();
        let mm = g.add_op("mm", OpKind::Einsum(spec), &[a, b], &[c]);
        assert!(g.fuse(&[], "F").is_err());
        assert!(g.fuse(&[mm], "F").is_err());
        assert!(g.fuse(&[a], "F").is_err()); // not an op
    }

    #[test]
    fn validate_accepts_well_formed_and_flags_broken() {
        let (g, _, _) = chain_graph();
        assert!(g.validate().is_empty(), "{:?}", g.validate());
        // orphan activation
        let mut g2 = g.clone();
        g2.add_data("orphan", shape(4), DataRole::Activation);
        let problems = g2.validate();
        assert!(problems.iter().any(|p| p.contains("orphan")));
    }

    #[test]
    fn to_dot_renders_all_nodes_and_edges() {
        let (g, ops, data) = {
            let (g, o, d) = chain_graph();
            (g, o, d)
        };
        let dot = g.to_dot("test");
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        for id in ops {
            assert!(dot.contains(&format!("n{}", id.0)));
        }
        for id in data {
            assert!(dot.contains(&format!("n{}", id.0)));
        }
        assert!(dot.contains("op1"));
        assert!(dot.matches(" -> ").count() == g.edges().len());
    }

    #[test]
    fn fused_class_prefers_normalization() {
        let mut g = Graph::new();
        let a = g.add_data("a", shape(8), DataRole::Input);
        let b = g.add_data("b", shape(8), DataRole::Activation);
        let c = g.add_data("c", shape(8), DataRole::Output);
        let op1 = g.add_op("s", OpKind::Softmax { axis: Axis('x') }, &[a], &[b]);
        let op2 = g.add_op("d", OpKind::Dropout, &[b], &[c]);
        let fused = g.fuse(&[op1, op2], "SM").unwrap();
        assert_eq!(
            g.op(fused).unwrap().kind.class(),
            OpClass::StatisticalNormalization
        );
    }
}
