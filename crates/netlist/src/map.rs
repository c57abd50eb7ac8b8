//! Cut-based technology mapping (area-flow DP with indexed cell matching).
//!
//! The mapper covers an AIG with library cells: 4-feasible cuts are
//! enumerated per node (each carrying its truth table), each cut function
//! is compressed to its support and looked up in the library's match
//! index (every binding of every cell, enumerated once when the library is
//! built), and a dynamic program selects the cover minimising *area flow*
//! (area amortised over estimated fanout), with arrival time as tiebreak.
//! Additional iterations re-run the DP with fanout counts measured on the
//! previous cover — the classical "area recovery" loop, which is what the
//! `+opt` (extreme optimisation) setting of the paper's Table III maps to.

use crate::cell::{CellLibrary, CellMatch};
use crate::netlist::{MappedNetlist, NetId};
use almost_aig::cut::{swap_vars, CutConfig, CutSet, K};
use almost_aig::{Aig, Var};
use std::collections::HashMap;

/// Mapper configuration.
#[derive(Clone, Copy, Debug)]
pub struct MapConfig {
    /// Number of area-flow DP iterations (1 = plain mapping, the paper's
    /// `-opt`; 3 = with area recovery, the paper's `+opt`).
    pub area_iterations: usize,
    /// Maximum cuts per node during enumeration.
    pub max_cuts: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            area_iterations: 1,
            max_cuts: 8,
        }
    }
}

impl MapConfig {
    /// The paper's "no optimisation" setting.
    pub fn no_opt() -> Self {
        Self::default()
    }

    /// The paper's "extreme optimisation" setting (ultra effort + area
    /// recovery).
    pub fn extreme_opt() -> Self {
        MapConfig {
            area_iterations: 3,
            max_cuts: 12,
        }
    }
}

/// Per-node mapping decision.
#[derive(Clone, Copy, Debug)]
enum Choice<'lib> {
    /// The node is functionally a (possibly complemented) copy of another
    /// node.
    Wire { leaf: Var, flip: bool },
    /// A library binding over the first `len` of `leaves` (the
    /// support-compressed cut leaves).
    Bind {
        leaves: [Var; K],
        len: u8,
        cell_match: &'lib CellMatch,
    },
}

/// Maps `aig` onto `library`.
///
/// The returned netlist is topologically ordered and functionally
/// equivalent to the AIG (validated in tests by exhaustive/random
/// cross-evaluation).
///
/// # Panics
///
/// Panics if some cut function has no library match, which cannot happen
/// with a complete library such as [`CellLibrary::nangate45`] (every 2-input
/// function is covered).
pub fn map_aig(aig: &Aig, library: &CellLibrary, config: &MapConfig) -> MappedNetlist {
    let cuts = CutSet::compute(
        aig,
        CutConfig {
            max_cuts: config.max_cuts,
        },
    );
    let inv_area = library.cell(library.inverter()).area();
    let inv_delay = library.cell(library.inverter()).delay();

    let mut refs: Vec<f64> = aig.fanout_counts().iter().map(|&r| r as f64).collect();
    let mut choices: Vec<Option<Choice>> = vec![None; aig.num_nodes()];

    for _iter in 0..config.area_iterations.max(1) {
        let mut flow = vec![0.0f64; aig.num_nodes()];
        let mut arrival = vec![0.0f64; aig.num_nodes()];
        for v in aig.iter_ands() {
            let mut best: Option<(f64, f64, Choice)> = None;
            for cut in cuts.cuts_of(v) {
                if cut.leaves() == [v] {
                    continue;
                }
                let (support, len, ctt) = compress(cut.truth(), cut.size());
                if len == 0 {
                    continue; // constant nodes cannot exist in a hashed AIG
                }
                let mut leaves = [0; K];
                for (leaf, &s) in leaves.iter_mut().zip(&support[..len]) {
                    *leaf = cut.leaves()[s];
                }
                if len == 1 {
                    let flip = ctt & 1 != 0; // f(0)=1 means complement
                    let leaf = leaves[0];
                    let cost = flow[leaf as usize] + if flip { inv_area } else { 0.0 };
                    let arr = arrival[leaf as usize] + if flip { inv_delay } else { 0.0 };
                    if improves(&best, cost, arr) {
                        best = Some((cost, arr, Choice::Wire { leaf, flip }));
                    }
                    continue;
                }
                for m in library.matches_for_bits(len, ctt) {
                    let cell = library.cell(m.cell);
                    let mut cost = cell.area();
                    let mut arr: f64 = 0.0;
                    for (li, &leaf) in leaves[..len].iter().enumerate() {
                        let flip = m.leaf_flips >> li & 1 != 0;
                        cost += flow[leaf as usize] + if flip { inv_area } else { 0.0 };
                        arr = arr.max(arrival[leaf as usize] + if flip { inv_delay } else { 0.0 });
                    }
                    if m.output_flip {
                        // The positive polarity may need one more inverter;
                        // charge half (consumers often want either phase).
                        cost += inv_area * 0.5;
                    }
                    arr += cell.delay();
                    if improves(&best, cost, arr) {
                        let choice = Choice::Bind {
                            leaves,
                            len: len as u8,
                            cell_match: m,
                        };
                        best = Some((cost, arr, choice));
                    }
                }
            }
            let (cost, arr, choice) = best.expect("complete library always matches some cut");
            flow[v as usize] = cost / refs[v as usize].max(1.0);
            arrival[v as usize] = arr;
            choices[v as usize] = Some(choice);
        }

        // Measure usage on the implied cover for the next iteration.
        refs = measure_usage(aig, &choices);
    }

    emit(aig, library, &choices)
}

/// True if `(cost, arr)` beats the best choice so far: cheaper area flow,
/// or equal flow and earlier arrival (both up to 1e-12).
fn improves(best: &Option<(f64, f64, Choice)>, cost: f64, arr: f64) -> bool {
    match best {
        None => true,
        Some((bc, ba, _)) => cost < *bc - 1e-12 || (cost < *bc + 1e-12 && arr < *ba - 1e-12),
    }
}

/// Restricts a cut's 4-variable table over `size` leaves to the variables
/// it depends on: returns that support (the first `len` entries, sorted
/// leaf positions), `len`, and the table over it (bit `i` = value on
/// support assignment `i`, bits from `2^len` on clear).
///
/// Support variable `i` moves down from position `support[i]` to `i`, in
/// increasing `i`, one variable swap each; the position it moves into
/// holds a variable the table ignores.
fn compress(truth: u16, size: usize) -> ([usize; K], usize, u16) {
    const HALF: [u16; K] = [0x5555, 0x3333, 0x0F0F, 0x00FF];
    let mut support = [0; K];
    let mut len = 0;
    for (v, half) in HALF[..size].iter().enumerate() {
        if (truth >> (1 << v)) & half != truth & half {
            support[len] = v;
            len += 1;
        }
    }
    let mut out = truth;
    for (i, &s) in support[..len].iter().enumerate() {
        if s != i {
            out = swap_vars(out, i, s);
        }
    }
    let rows = 1u32 << (1 << len);
    (support, len, (out as u32 & (rows - 1)) as u16)
}

/// Counts how often each node's signal is consumed by the cover implied by
/// `choices` (plus the primary outputs).
fn measure_usage(aig: &Aig, choices: &[Option<Choice>]) -> Vec<f64> {
    let mut usage = vec![0.0f64; aig.num_nodes()];
    let mut stack: Vec<Var> = Vec::new();
    let mut visited = vec![false; aig.num_nodes()];
    for out in aig.outputs() {
        usage[out.var() as usize] += 1.0;
        stack.push(out.var());
    }
    while let Some(v) = stack.pop() {
        if visited[v as usize] || !aig.is_and(v) {
            continue;
        }
        visited[v as usize] = true;
        match choices[v as usize]
            .as_ref()
            .expect("AND nodes have choices")
        {
            Choice::Wire { leaf, .. } => {
                usage[*leaf as usize] += 1.0;
                stack.push(*leaf);
            }
            Choice::Bind { leaves, len, .. } => {
                for &l in &leaves[..*len as usize] {
                    usage[l as usize] += 1.0;
                    stack.push(l);
                }
            }
        }
    }
    usage
}

/// Emits the mapped netlist for the cover implied by `choices`.
fn emit(aig: &Aig, library: &CellLibrary, choices: &[Option<Choice>]) -> MappedNetlist {
    let mut nl = MappedNetlist::new();
    // Net for each (var, phase); created on demand.
    let mut pos: HashMap<Var, NetId> = HashMap::new();
    let mut neg: HashMap<Var, NetId> = HashMap::new();

    for (i, &v) in aig.inputs().iter().enumerate() {
        let net = nl.add_net(Some((v, false)));
        pos.insert(v, net);
        nl.add_input_net(net);
        let _ = i;
    }

    // Which nodes are needed, in topological order.
    let usage = measure_usage(aig, choices);

    // Tie nets for constant outputs, created lazily.
    let mut tie_nets: [Option<NetId>; 2] = [None, None];

    for v in aig.iter_ands() {
        if usage[v as usize] == 0.0 {
            continue;
        }
        match choices[v as usize].as_ref().expect("covered AND") {
            Choice::Wire { leaf, flip } => {
                // Alias: the node's nets are the leaf's nets (swapped on
                // flip).
                let (lp, ln) = (pos.get(leaf).copied(), neg.get(leaf).copied());
                let (p, n) = if *flip { (ln, lp) } else { (lp, ln) };
                if let Some(p) = p {
                    pos.insert(v, p);
                }
                if let Some(n) = n {
                    neg.insert(v, n);
                }
                // Ensure at least one polarity exists.
                if !pos.contains_key(&v) && !neg.contains_key(&v) {
                    let src = net_for(&mut nl, library, &mut pos, &mut neg, *leaf, *flip);
                    pos.insert(v, src);
                }
            }
            Choice::Bind {
                leaves, cell_match, ..
            } => {
                let cell = library.cell(cell_match.cell);
                let mut fanins: Vec<NetId> = Vec::with_capacity(cell.num_inputs());
                for p in 0..cell.num_inputs() {
                    let li = cell_match.pin_to_leaf[p];
                    let leaf = leaves[li];
                    let flip = cell_match.leaf_flips >> li & 1 != 0;
                    fanins.push(net_for(&mut nl, library, &mut pos, &mut neg, leaf, flip));
                }
                let out_net = nl.add_net(Some((v, cell_match.output_flip)));
                nl.add_gate(cell_match.cell, fanins, out_net);
                if cell_match.output_flip {
                    neg.insert(v, out_net);
                } else {
                    pos.insert(v, out_net);
                }
            }
        }
    }

    for out in aig.outputs() {
        let v = out.var();
        let net = if v == 0 {
            // Constant output: tie cell.
            let want_one = out.is_complement();
            let slot = want_one as usize;
            *tie_nets[slot].get_or_insert_with(|| {
                let n = nl.add_net(None);
                let cell = if want_one {
                    library.tie1()
                } else {
                    library.tie0()
                };
                nl.add_gate(cell, vec![], n);
                n
            })
        } else {
            net_for(&mut nl, library, &mut pos, &mut neg, v, out.is_complement())
        };
        nl.add_output_net(net);
    }
    nl
}

/// Returns the net carrying `(var, complemented)`, inserting an inverter if
/// only the opposite polarity exists.
fn net_for(
    nl: &mut MappedNetlist,
    library: &CellLibrary,
    pos: &mut HashMap<Var, NetId>,
    neg: &mut HashMap<Var, NetId>,
    var: Var,
    complemented: bool,
) -> NetId {
    let (have, other) = if complemented {
        (neg.get(&var).copied(), pos.get(&var).copied())
    } else {
        (pos.get(&var).copied(), neg.get(&var).copied())
    };
    if let Some(n) = have {
        return n;
    }
    let src = other.expect("at least one polarity must exist for a covered node");
    let net = nl.add_net(Some((var, complemented)));
    nl.add_gate(library.inverter(), vec![src], net);
    if complemented {
        neg.insert(var, net);
    } else {
        pos.insert(var, net);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_aig(num_inputs: usize, num_ands: usize, seed: u64) -> Aig {
        // Every AND over one input folds to a constant or the input, so
        // fewer than two inputs would never reach `num_ands`.
        assert!(num_inputs >= 2, "random_aig needs at least two inputs");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new();
        let mut pool: Vec<almost_aig::Lit> = (0..num_inputs).map(|_| aig.add_input()).collect();
        while aig.num_ands() < num_ands {
            let a = pool[rng.random_range(0..pool.len())];
            let b = pool[rng.random_range(0..pool.len())];
            let lit = aig.and(
                a.xor_complement(rng.random()),
                b.xor_complement(rng.random()),
            );
            if !lit.is_const() {
                pool.push(lit);
            }
        }
        for i in 0..3.min(pool.len()) {
            let lit = pool[pool.len() - 1 - i];
            aig.add_output(lit);
        }
        aig
    }

    fn check_mapping_equivalence(aig: &Aig, nl: &MappedNetlist, lib: &CellLibrary, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let ins: Vec<bool> = (0..aig.num_inputs()).map(|_| rng.random()).collect();
            assert_eq!(
                aig.eval(&ins),
                nl.eval(lib, &ins),
                "mapped netlist diverges on {ins:?}"
            );
        }
    }

    #[test]
    fn compress_matches_row_by_row_restriction() {
        const HALF: [u16; K] = [0x5555, 0x3333, 0x0F0F, 0x00FF];
        for size in 1..=K {
            for bits in 0..1u32 << (1 << size) {
                // A cut table ignores the variables past its size.
                let mut truth = 0u16;
                for row in 0..16 {
                    truth |= ((bits >> (row % (1 << size)) & 1) as u16) << row;
                }
                let support: Vec<usize> = (0..size)
                    .filter(|&v| (truth >> (1 << v)) & HALF[v] != truth & HALF[v])
                    .collect();
                let mut want = 0u16;
                for idx in 0..1usize << support.len() {
                    let full = support
                        .iter()
                        .enumerate()
                        .fold(0, |f, (i, &s)| f | (idx >> i & 1) << s);
                    want |= (truth >> full & 1) << idx;
                }
                let (got_support, len, got) = compress(truth, size);
                assert_eq!(&got_support[..len], &support[..], "{truth:04x}");
                assert_eq!(got, want, "{truth:04x} over {size}");
            }
        }
    }

    #[test]
    fn maps_simple_functions_correctly() {
        let lib = CellLibrary::nangate45();
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f1 = aig.xor(a, b);
        let f2 = aig.mux(c, a, b);
        let f3 = aig.nand(a, c);
        aig.add_output(f1);
        aig.add_output(f2);
        aig.add_output(f3);
        let nl = map_aig(&aig, &lib, &MapConfig::default());
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| bits >> i & 1 != 0).collect();
            assert_eq!(aig.eval(&ins), nl.eval(&lib, &ins), "bits={bits}");
        }
    }

    #[test]
    fn maps_random_circuits_correctly() {
        let lib = CellLibrary::nangate45();
        for seed in 0..4 {
            let aig = random_aig(8, 120, seed);
            let nl = map_aig(&aig, &lib, &MapConfig::default());
            check_mapping_equivalence(&aig, &nl, &lib, seed);
        }
    }

    #[test]
    fn extreme_opt_never_larger_area() {
        let lib = CellLibrary::nangate45();
        let aig = random_aig(10, 200, 9);
        let plain = map_aig(&aig, &lib, &MapConfig::no_opt());
        let opt = map_aig(&aig, &lib, &MapConfig::extreme_opt());
        check_mapping_equivalence(&aig, &opt, &lib, 5);
        let area = |nl: &MappedNetlist| -> f64 {
            nl.gates().iter().map(|g| lib.cell(g.cell).area()).sum()
        };
        // Area recovery should not make things meaningfully worse.
        assert!(
            area(&opt) <= area(&plain) * 1.05 + 1.0,
            "extreme opt area {} vs plain {}",
            area(&opt),
            area(&plain)
        );
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let lib = CellLibrary::nangate45();
        let mut aig = Aig::new();
        let a = aig.add_input();
        aig.add_output(almost_aig::Lit::TRUE);
        aig.add_output(almost_aig::Lit::FALSE);
        aig.add_output(a);
        aig.add_output(!a);
        let nl = map_aig(&aig, &lib, &MapConfig::default());
        assert_eq!(nl.eval(&lib, &[true]), vec![true, false, true, false]);
        assert_eq!(nl.eval(&lib, &[false]), vec![true, false, false, true]);
    }
}
