//! Graph isomorphism network (GIN) layers and the subgraph classifier used
//! by the OMLA-style attack.
//!
//! OMLA represents the locality around each key-gate as an enclosing
//! subgraph with node features, and classifies the subgraph to predict the
//! key bit. The model here follows that recipe: K rounds of GIN message
//! passing (`H' = MLP(Â H)`, `Â = A + I`), mean-pool readout, and a small
//! MLP head producing a single logit.
//!
//! With K = 0 the model is a plain MLP (`Linear → ReLU → Linear`) over
//! the mean of the node features; SnapShot's flattened-locality MLP is
//! that model applied to one-node graphs.

use crate::nn::{BoundLinear, Linear};
use crate::tape::{sigmoid, NodeId, Tape};
use crate::tensor::{Matrix, SparseMatrix};
use std::sync::Arc;

/// One input graph: a symmetric CSR adjacency (with self-loops folded in)
/// plus node features and a binary label.
///
/// The adjacency is shared behind an [`Arc`] so cloning a `Graph` (the
/// dataset utilities do) and recording it on a tape (every forward pass
/// does) are both refcount bumps, not structure copies.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `Â = A + I`, n × n, symmetric, stored sparse (AIG localities have
    /// fan-in ≤ 2, so `Â` carries ~3 entries per row).
    pub adj_hat: Arc<SparseMatrix>,
    /// Node features, n × d.
    pub features: Matrix,
    /// The key bit (training target).
    pub label: bool,
}

impl Graph {
    /// Builds a graph from an undirected edge list, folding in self-loops.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node outside `features`' rows.
    pub fn from_edges(
        num_nodes: usize,
        edges: &[(usize, usize)],
        features: Matrix,
        label: bool,
    ) -> Self {
        assert_eq!(features.rows(), num_nodes);
        Graph {
            adj_hat: Arc::new(SparseMatrix::adjacency_hat(num_nodes, edges)),
            features,
            label,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }
}

/// The OMLA-style GIN subgraph classifier.
#[derive(Clone, Debug)]
pub struct GinClassifier {
    convs: Vec<(Linear, Linear)>,
    readout: Linear,
    head: Linear,
    input_dim: usize,
}

/// Tape bindings of all model parameters, in [`GinClassifier::parameters`]
/// order.
#[derive(Clone, Debug)]
pub struct BoundModel {
    convs: Vec<(BoundLinear, BoundLinear)>,
    readout: BoundLinear,
    head: BoundLinear,
}

impl BoundModel {
    /// Parameter node ids, in [`GinClassifier::parameters`] order.
    pub fn param_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (l1, l2) in &self.convs {
            out.extend([l1.w, l1.b, l2.w, l2.b]);
        }
        out.extend([self.readout.w, self.readout.b, self.head.w, self.head.b]);
        out
    }
}

impl GinClassifier {
    /// A classifier with `num_layers` GIN rounds of width `hidden` over
    /// `input_dim`-dimensional node features. With `num_layers == 0` the
    /// readout reads the pooled input features directly.
    pub fn new(input_dim: usize, hidden: usize, num_layers: usize, seed: u64) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        for k in 0..num_layers {
            let d_in = if k == 0 { input_dim } else { hidden };
            convs.push((
                Linear::new(d_in, hidden, seed.wrapping_add(2 * k as u64 + 1)),
                Linear::new(hidden, hidden, seed.wrapping_add(2 * k as u64 + 2)),
            ));
        }
        let readout_in = if num_layers == 0 { input_dim } else { hidden };
        GinClassifier {
            convs,
            readout: Linear::new(readout_in, hidden, seed.wrapping_add(101)),
            head: Linear::new(hidden, 1, seed.wrapping_add(102)),
            input_dim,
        }
    }

    /// The expected feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// All trainable parameter matrices (stable order).
    pub fn parameters(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        for (l1, l2) in &self.convs {
            out.extend([&l1.w, &l1.b, &l2.w, &l2.b]);
        }
        out.extend([&self.readout.w, &self.readout.b, &self.head.w, &self.head.b]);
        out
    }

    /// Mutable access to the parameters (same order as
    /// [`GinClassifier::parameters`]).
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for (l1, l2) in &mut self.convs {
            out.push(&mut l1.w);
            out.push(&mut l1.b);
            out.push(&mut l2.w);
            out.push(&mut l2.b);
        }
        out.push(&mut self.readout.w);
        out.push(&mut self.readout.b);
        out.push(&mut self.head.w);
        out.push(&mut self.head.b);
        out
    }

    /// Inserts all parameters onto a tape.
    pub fn bind(&self, tape: &mut Tape) -> BoundModel {
        BoundModel {
            convs: self
                .convs
                .iter()
                .map(|(l1, l2)| (l1.bind(tape), l2.bind(tape)))
                .collect(),
            readout: self.readout.bind(tape),
            head: self.head.bind(tape),
        }
    }

    /// Batched forward pass: the graphs are fused into one block-diagonal
    /// union (one spmm per GIN round for the whole minibatch, fatter MLP
    /// matmuls) and the result is a `graphs.len()` × 1 logit column.
    ///
    /// Because every op involved treats rows independently — spmm rows
    /// only reach within their own diagonal block, the MLPs are row-wise,
    /// and pooling is per segment — row `b` of the output is
    /// bit-identical to the output for a batch of graph `b` alone.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or a feature width differs from
    /// [`GinClassifier::input_dim`].
    pub fn forward_batch(&self, tape: &mut Tape, bound: &BoundModel, graphs: &[&Graph]) -> NodeId {
        let union = Arc::new(SparseMatrix::block_diagonal(
            &graphs
                .iter()
                .map(|g| g.adj_hat.as_ref())
                .collect::<Vec<_>>(),
        ));
        self.forward_union(tape, bound, graphs, |tape, h| tape.spmm(&union, h))
    }

    /// Batched dense-aggregation reference: identical structure to
    /// [`GinClassifier::forward_batch`], but the union operator is
    /// materialised and multiplied with the dense O(n²·d) kernel — the
    /// "before" of the sparse hot path, bit-identical in output, because
    /// CSR rows add the same products in the same order as a dense row
    /// scan.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or a feature width differs from
    /// [`GinClassifier::input_dim`].
    pub fn forward_batch_dense(
        &self,
        tape: &mut Tape,
        bound: &BoundModel,
        graphs: &[&Graph],
    ) -> NodeId {
        let union = SparseMatrix::block_diagonal(
            &graphs
                .iter()
                .map(|g| g.adj_hat.as_ref())
                .collect::<Vec<_>>(),
        );
        let adj = tape.leaf(union.to_dense());
        self.forward_union(tape, bound, graphs, |tape, h| tape.matmul(adj, h))
    }

    /// Shared body of the batched forward passes: concatenated features,
    /// K rounds of `aggregate` + MLP, segment-mean readout, head.
    fn forward_union(
        &self,
        tape: &mut Tape,
        bound: &BoundModel,
        graphs: &[&Graph],
        mut aggregate: impl FnMut(&mut Tape, NodeId) -> NodeId,
    ) -> NodeId {
        assert!(!graphs.is_empty(), "batch must be non-empty");
        for g in graphs {
            assert_eq!(g.features.cols(), self.input_dim, "feature width");
        }
        let feats: Vec<&Matrix> = graphs.iter().map(|g| &g.features).collect();
        let mut h = tape.leaf_concat_rows(&feats);
        for (b1, b2) in &bound.convs {
            let agg = aggregate(tape, h);
            h = self.conv_tail(tape, *b1, *b2, agg);
        }
        let seg_lens: Vec<u32> = graphs.iter().map(|g| g.num_nodes() as u32).collect();
        let pooled = tape.segment_mean_rows(h, &seg_lens);
        let r = Linear::forward(bound.readout, tape, pooled);
        let r = tape.relu(r);
        Linear::forward(bound.head, tape, r)
    }

    /// The two-layer MLP of one GIN round.
    fn conv_tail(&self, tape: &mut Tape, b1: BoundLinear, b2: BoundLinear, agg: NodeId) -> NodeId {
        let z1 = Linear::forward(b1, tape, agg);
        let a1 = tape.relu(z1);
        let z2 = Linear::forward(b2, tape, a1);
        tape.relu(z2)
    }

    /// Predicted probability that the key bit is 1.
    pub fn predict(&self, graph: &Graph) -> f32 {
        self.predict_probs_batch(&[graph])[0]
    }

    /// Predicted probabilities for a whole batch through one
    /// block-diagonal [`GinClassifier::forward_batch`] call — one spmm
    /// per GIN round for the entire batch instead of one per graph. Every
    /// inference goes through here.
    ///
    /// Row `b` is bit-identical to [`GinClassifier::predict`] on
    /// `graphs[b]` (the batched forward's row-independence contract), so
    /// a graph's probability does not depend on the batch it is scored in.
    pub fn predict_probs_batch(&self, graphs: &[&Graph]) -> Vec<f32> {
        if graphs.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new();
        let bound = self.bind(&mut tape);
        let logits = self.forward_batch(&mut tape, &bound, graphs);
        let values = tape.value(logits);
        (0..graphs.len())
            .map(|b| sigmoid(values.get(b, 0)))
            .collect()
    }

    /// Classification accuracy over a labelled set (threshold 0.5).
    pub fn accuracy(&self, graphs: &[Graph]) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        let refs: Vec<&Graph> = graphs.iter().collect();
        let correct = graphs
            .iter()
            .zip(self.predict_probs_batch(&refs))
            .filter(|(g, p)| (*p >= 0.5) == g.label)
            .count();
        correct as f64 / graphs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph(label: bool, bias: f32) -> Graph {
        // Two nodes, one edge; features separated by `bias`.
        let features = Matrix::from_rows(&[&[bias, 1.0], &[bias, 0.0]]);
        Graph::from_edges(2, &[(0, 1)], features, label)
    }

    #[test]
    fn forward_is_deterministic() {
        let model = GinClassifier::new(2, 8, 2, 42);
        let g = toy_graph(true, 0.5);
        assert_eq!(model.predict(&g), model.predict(&g));
    }

    #[test]
    fn batched_forward_rows_match_single_graph_forwards() {
        let model = GinClassifier::new(2, 8, 2, 9);
        let graphs = [
            toy_graph(true, 0.4),
            toy_graph(false, -1.2),
            toy_graph(true, 2.0),
        ];
        let refs: Vec<&Graph> = graphs.iter().collect();

        let mut tb = Tape::new();
        let bb = model.bind(&mut tb);
        let logits = model.forward_batch(&mut tb, &bb, &refs);
        assert_eq!((tb.value(logits).rows(), tb.value(logits).cols()), (3, 1));

        let mut td = Tape::new();
        let bd = model.bind(&mut td);
        let dense_logits = model.forward_batch_dense(&mut td, &bd, &refs);
        assert_eq!(
            tb.value(logits),
            td.value(dense_logits),
            "sparse/dense batch parity"
        );

        for (b, g) in graphs.iter().enumerate() {
            let mut t = Tape::new();
            let bound = model.bind(&mut t);
            let single = model.forward_batch(&mut t, &bound, &[g]);
            assert_eq!(
                t.value(single).get(0, 0),
                tb.value(logits).get(b, 0),
                "row {b} of the batch must equal the one-graph batch bitwise"
            );
        }
    }

    #[test]
    fn batched_probabilities_match_serial_predictions_bitwise() {
        let model = GinClassifier::new(2, 8, 2, 31);
        let graphs = [
            toy_graph(true, 0.4),
            toy_graph(false, -1.2),
            toy_graph(true, 2.0),
            toy_graph(false, 0.0),
        ];
        let refs: Vec<&Graph> = graphs.iter().collect();
        let probs = model.predict_probs_batch(&refs);
        assert_eq!(probs.len(), graphs.len());
        for (g, p) in graphs.iter().zip(&probs) {
            assert_eq!(
                *p,
                model.predict(g),
                "batch row must equal the one-graph predict"
            );
        }
        assert!(model.predict_probs_batch(&[]).is_empty());
    }

    #[test]
    fn adjacency_is_sparse_and_symmetric() {
        let g = toy_graph(true, 1.0);
        assert!(g.adj_hat.is_symmetric());
        assert_eq!(g.adj_hat.nnz(), 4); // two self-loops + one edge both ways
    }

    #[test]
    fn parameter_count_is_consistent() {
        let model = GinClassifier::new(3, 16, 2, 1);
        let n = model.parameters().len();
        assert_eq!(n, 2 * 4 + 4);
        let mut m = model.clone();
        assert_eq!(m.parameters_mut().len(), n);
        let mut tape = Tape::new();
        assert_eq!(model.bind(&mut tape).param_nodes().len(), n);
    }

    #[test]
    fn zero_round_model_is_an_mlp_over_the_feature_mean() {
        let model = GinClassifier::new(2, 8, 0, 5);
        assert_eq!(model.parameters().len(), 4);
        let rows: [&[f32]; 3] = [&[0.3, -1.1], &[2.0, 0.7], &[-0.4, 0.25]];
        // Rows summed ascending, then divided: the readout's own order.
        let mean: Vec<f32> = (0..2)
            .map(|c| rows.iter().fold(0.0, |s, r| s + r[c]) / 3.0)
            .collect();
        let graph = Graph::from_edges(3, &[(0, 1), (1, 2)], Matrix::from_rows(&rows), true);
        let pooled = Graph::from_edges(1, &[], Matrix::from_vec(1, 2, mean), true);
        assert_eq!(
            model.predict(&graph).to_bits(),
            model.predict(&pooled).to_bits()
        );
    }

    #[test]
    fn untrained_predictions_are_probabilities() {
        let model = GinClassifier::new(2, 8, 2, 7);
        for bias in [-2.0, 0.0, 2.0] {
            let p = model.predict(&toy_graph(false, bias));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let model = GinClassifier::new(2, 4, 1, 3);
        assert_eq!(model.accuracy(&[]), 0.0);
    }
}
