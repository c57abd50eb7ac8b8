//! Key-gate locality extraction: the enclosing subgraphs OMLA classifies.
//!
//! After synthesis the inserted XOR/XNOR key gates are dissolved into the
//! AIG, but the *key inputs* are interface-stable. A locality is the
//! h-hop undirected neighbourhood of a key-input node; node features
//! describe gate kind, fanin complementation (where the XOR-vs-XNOR signal
//! survives bubble pushing), fanout and distance — the information OMLA's
//! GNN learns from. [`generate_samples`] manufactures labelled localities
//! by relocking and resynthesising, the protocol every model here trains
//! with.

use almost_aig::{Aig, NodeKind, Script, Var};
use almost_locking::{relock, Rll};
use almost_ml::gin::Graph;
use almost_ml::tensor::Matrix;
use rand::rngs::StdRng;
use std::collections::{HashMap, HashSet, VecDeque};

/// Locality-extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SubgraphConfig {
    /// Neighbourhood radius in hops (undirected).
    pub hops: usize,
    /// Hard cap on subgraph size (BFS order keeps the closest nodes).
    pub max_nodes: usize,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        SubgraphConfig {
            hops: 3,
            max_nodes: 40,
        }
    }
}

/// Number of per-node features produced by the extractor.
pub const NUM_FEATURES: usize = 11;

/// Extracts the localities of all listed key inputs at once.
///
/// `labels[i]` is the key bit of `key_input_positions[i]`.
///
/// # Panics
///
/// Panics if the two slices have different lengths or a position is out
/// of range.
pub fn extract_all_localities(
    aig: &Aig,
    key_input_positions: &[usize],
    labels: &[bool],
    config: &SubgraphConfig,
) -> Vec<Graph> {
    assert_eq!(key_input_positions.len(), labels.len());
    let fanouts = aig.fanouts();
    let key_vars: HashSet<Var> = key_input_positions
        .iter()
        .map(|&p| aig.inputs()[p])
        .collect();
    key_input_positions
        .iter()
        .zip(labels)
        .map(|(&pos, &label)| locality(aig, &fanouts, &key_vars, aig.inputs()[pos], label, config))
        .collect()
}

/// Manufactures labelled localities by the self-referencing protocol that
/// OMLA, SnapShot and the ALMOST proxies train with: relock `base` with
/// `relock_key_size` fresh RLL key gates, synthesise it with the recipe
/// `next_recipe` draws (after the relock, from the same stream) and
/// extract the new key gates' localities, labelled with their key bits,
/// until `count` are made. Stops short (with nothing, at worst) once
/// `base` cannot take such a relock.
pub fn generate_samples(
    base: &Aig,
    mut next_recipe: impl FnMut(&mut StdRng) -> Script,
    count: usize,
    relock_key_size: usize,
    subgraph: &SubgraphConfig,
    rng: &mut StdRng,
) -> Vec<Graph> {
    let scheme = Rll::new(relock_key_size);
    let mut data = Vec::with_capacity(count);
    while data.len() < count {
        let Ok(relocked) = relock(&scheme, base, rng) else {
            break;
        };
        let synthesised = next_recipe(rng).apply(&relocked.aig);
        let positions: Vec<usize> = relocked.key_input_positions().collect();
        data.extend(extract_all_localities(
            &synthesised,
            &positions,
            relocked.key.bits(),
            subgraph,
        ));
    }
    data.truncate(count);
    data
}

/// The locality of key input `center`, labelled with `label`.
fn locality(
    aig: &Aig,
    fanouts: &[Vec<Var>],
    key_vars: &HashSet<Var>,
    center: Var,
    label: bool,
    config: &SubgraphConfig,
) -> Graph {
    // BFS out to `hops`, collecting nodes in distance order.
    let mut dist: HashMap<Var, usize> = HashMap::new();
    let mut order: Vec<Var> = Vec::new();
    let mut queue = VecDeque::new();
    dist.insert(center, 0);
    queue.push_back(center);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        order.push(v);
        if order.len() >= config.max_nodes || d >= config.hops {
            continue;
        }
        let mut neighbours: Vec<Var> = Vec::new();
        if let NodeKind::And(a, b) = aig.node(v) {
            neighbours.push(a.var());
            neighbours.push(b.var());
        }
        neighbours.extend(fanouts[v as usize].iter().copied());
        for n in neighbours {
            if n != 0 && !dist.contains_key(&n) {
                dist.insert(n, d + 1);
                queue.push_back(n);
            }
        }
    }
    order.truncate(config.max_nodes);
    let index: HashMap<Var, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Edges within the subgraph (undirected, deduplicated by from<to).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (&v, &i) in &index {
        if let NodeKind::And(a, b) = aig.node(v) {
            for f in [a.var(), b.var()] {
                if let Some(&j) = index.get(&f) {
                    if i < j {
                        edges.push((i, j));
                    } else {
                        edges.push((j, i));
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    // Node features.
    let mut features = Matrix::zeros(order.len(), NUM_FEATURES);
    for (i, &v) in order.iter().enumerate() {
        let node = aig.node(v);
        let is_center = v == center;
        let is_key = key_vars.contains(&v);
        features.set(i, 0, is_center as u8 as f32);
        features.set(i, 1, (is_key && !is_center) as u8 as f32);
        match node {
            NodeKind::Input(_) => {
                if !is_key {
                    features.set(i, 2, 1.0);
                }
            }
            NodeKind::And(a, b) => {
                features.set(i, 3, 1.0);
                let compl = a.is_complement() as usize + b.is_complement() as usize;
                features.set(i, 4 + compl, 1.0);
            }
            NodeKind::Const0 => {}
        }
        let fo = fanouts[v as usize].len() as f32;
        features.set(i, 7, (1.0 + fo).ln() / 3.0);
        features.set(i, 8, dist[&v] as f32 / config.hops.max(1) as f32);
        // Fraction of fanout edges that consume this node complemented.
        let mut compl_out = 0usize;
        for &fo_node in &fanouts[v as usize] {
            if let NodeKind::And(a, b) = aig.node(fo_node) {
                if (a.var() == v && a.is_complement()) || (b.var() == v && b.is_complement()) {
                    compl_out += 1;
                }
            }
        }
        if !fanouts[v as usize].is_empty() {
            features.set(i, 9, compl_out as f32 / fanouts[v as usize].len() as f32);
        }
        features.set(i, 10, 1.0);
    }

    Graph::from_edges(order.len(), &edges, features, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn locality_contains_the_center() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(8).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        assert_eq!(graphs.len(), 8);
        for g in &graphs {
            assert!(g.num_nodes() >= 2, "locality must include neighbours");
            // Exactly one center flag.
            let centers: f32 = (0..g.num_nodes()).map(|i| g.features.get(i, 0)).sum();
            assert_eq!(centers, 1.0);
        }
    }

    #[test]
    fn labels_match_key_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(16).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        for (g, &bit) in graphs.iter().zip(locked.key.bits()) {
            assert_eq!(g.label, bit);
        }
    }

    #[test]
    fn respects_max_nodes() {
        let mut rng = StdRng::seed_from_u64(3);
        let base = IscasBenchmark::C1355.build();
        let locked = Rll::new(4).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let cfg = SubgraphConfig {
            hops: 6,
            max_nodes: 12,
        };
        for g in extract_all_localities(&locked.aig, &positions, locked.key.bits(), &cfg) {
            assert!(g.num_nodes() <= 12);
        }
    }

    #[test]
    fn features_have_expected_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(4).lock(&base, &mut rng).expect("lockable");
        let positions: Vec<usize> = locked.key_input_positions().collect();
        let graphs = extract_all_localities(
            &locked.aig,
            &positions,
            locked.key.bits(),
            &SubgraphConfig::default(),
        );
        assert_eq!(graphs[0].features.cols(), NUM_FEATURES);
    }
}
