//! The core and-inverter-graph data structure.
//!
//! An [`Aig`] is an append-only DAG of two-input AND nodes with optional
//! complemented edges, the canonical internal representation of combinational
//! logic in ABC-style synthesis tools. Node 0 is the constant-false node;
//! primary inputs and AND nodes follow in creation order, which is also a
//! valid topological order (fanins always precede fanouts).
//!
//! Structural hashing plus the usual one-level simplification rules are
//! applied on construction, so building the same function twice yields the
//! same literal.

use crate::hash::FastBuild;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Index of a node in an [`Aig`].
pub type Var = u32;

/// Most nodes an [`Aig`] holds, the constant included. The largest
/// variable, `MAX_NODES - 1`, still has both of its literals in a `u32`:
/// `(MAX_NODES - 1) << 1 | 1` is `u32::MAX`.
pub const MAX_NODES: usize = 1 << 31;

/// The variable of the next node of a graph that holds `len` nodes.
///
/// # Panics
///
/// Panics if the graph already holds [`MAX_NODES`] nodes.
fn next_var(len: usize) -> Var {
    assert!(len < MAX_NODES, "an Aig holds at most {MAX_NODES} nodes");
    len as Var
}

/// A literal: a node index together with a complement flag.
///
/// The encoding is `var << 1 | complement`, matching the AIGER convention.
/// `Lit::FALSE` (node 0, non-complemented) and `Lit::TRUE` (node 0,
/// complemented) represent the constants.
///
/// # Example
///
/// ```
/// use almost_aig::Lit;
/// let l = Lit::new(3, true);
/// assert_eq!(l.var(), 3);
/// assert!(l.is_complement());
/// assert_eq!(!l, Lit::new(3, false));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Creates a literal for `var`, complemented if `complement` is true.
    pub fn new(var: Var, complement: bool) -> Self {
        Lit(var << 1 | complement as u32)
    }

    /// Creates a positive (non-complemented) literal for `var`.
    pub fn positive(var: Var) -> Self {
        Lit(var << 1)
    }

    /// Returns the node index this literal refers to.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Returns true if the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns this literal complemented iff `c` is true.
    pub fn xor_complement(self, c: bool) -> Lit {
        Lit(self.0 ^ c as u32)
    }

    /// Returns true if this literal is one of the two constants.
    pub fn is_const(self) -> bool {
        self.var() == 0
    }

    /// Returns the raw AIGER-style encoding (`var << 1 | complement`).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.var())
        } else {
            write!(f, "n{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The kind of a node in an [`Aig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Const0,
    /// A primary input; the payload is the input's position in
    /// [`Aig::inputs`].
    Input(u32),
    /// A two-input AND of the given fanin literals (normalised so the first
    /// literal is not greater than the second).
    And(Lit, Lit),
}

/// An and-inverter graph.
///
/// See the [module documentation](self) for the representation invariants.
///
/// # Example
///
/// ```
/// use almost_aig::Aig;
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.or(a, b);
/// aig.add_output(f);
/// assert_eq!(aig.eval(&[false, true]), vec![true]);
/// ```
#[derive(Clone)]
pub struct Aig {
    nodes: Vec<NodeKind>,
    inputs: Vec<Var>,
    outputs: Vec<Lit>,
    input_names: Vec<String>,
    output_names: Vec<String>,
    strash: HashMap<(Lit, Lit), Var, FastBuild>,
    num_ands: usize,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG containing only the constant-false node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![NodeKind::Const0],
            inputs: Vec::new(),
            outputs: Vec::new(),
            input_names: Vec::new(),
            output_names: Vec::new(),
            strash: HashMap::default(),
            num_ands: 0,
        }
    }

    /// Creates an empty AIG with room for `nodes` nodes (the constant
    /// included) before its node array or structural hash reallocates.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut aig = Aig::new();
        aig.nodes.reserve(nodes.saturating_sub(1));
        aig.strash.reserve(nodes);
        aig
    }

    /// Adds a primary input with an auto-generated name (`i<k>`).
    pub fn add_input(&mut self) -> Lit {
        let name = format!("i{}", self.inputs.len());
        self.add_named_input(name)
    }

    /// Adds a primary input with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds [`MAX_NODES`] nodes.
    pub fn add_named_input(&mut self, name: impl Into<String>) -> Lit {
        let var = next_var(self.nodes.len());
        self.nodes.push(NodeKind::Input(self.inputs.len() as u32));
        self.inputs.push(var);
        self.input_names.push(name.into());
        Lit::positive(var)
    }

    /// Registers `lit` as a primary output with an auto-generated name
    /// (`o<k>`).
    pub fn add_output(&mut self, lit: Lit) {
        let name = format!("o{}", self.outputs.len());
        self.add_named_output(lit, name);
    }

    /// Registers `lit` as a primary output with the given name.
    ///
    /// # Panics
    ///
    /// Panics if `lit` refers to a node that does not exist.
    pub fn add_named_output(&mut self, lit: Lit, name: impl Into<String>) {
        assert!(
            (lit.var() as usize) < self.nodes.len(),
            "output literal {lit:?} refers to a nonexistent node"
        );
        self.outputs.push(lit);
        self.output_names.push(name.into());
    }

    /// Replaces the literal driving output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `lit` refers to a nonexistent
    /// node.
    pub fn set_output(&mut self, index: usize, lit: Lit) {
        assert!((lit.var() as usize) < self.nodes.len());
        self.outputs[index] = lit;
    }

    /// Builds (or finds) the AND of two literals.
    ///
    /// Applies constant folding, the idempotence/complement rules and
    /// structural hashing, so the returned literal may refer to an existing
    /// node.
    ///
    /// The structural hash is probed once. Its keys may be stale:
    /// [`Aig::rollback`] truncates the node array without removing the
    /// keys of the nodes it drops. A key `(a, b) -> var` counts as live only
    /// while `nodes[var]` is `And(a, b)`, and every hit is checked against
    /// the node array, so a stale key is never returned; the new node just
    /// takes its slot. Every live AND node's key is in the table, because
    /// only this method creates AND nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph already holds [`MAX_NODES`] nodes.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // One-level simplification rules.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let node = NodeKind::And(a, b);
        let var = next_var(self.nodes.len());
        match self.strash.entry((a, b)) {
            Entry::Occupied(mut slot) => {
                let old = *slot.get();
                if self.nodes.get(old as usize) == Some(&node) {
                    return Lit::positive(old);
                }
                slot.insert(var); // a key left behind by a rollback
            }
            Entry::Vacant(slot) => {
                slot.insert(var);
            }
        }
        self.nodes.push(node);
        self.num_ands += 1;
        Lit::positive(var)
    }

    /// Builds the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Builds the NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// Builds the XOR of two literals (three AND nodes in the worst case).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// Builds the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Builds a 2:1 multiplexer: `if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Builds the majority-of-three function.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Builds the AND of an arbitrary number of literals as a balanced tree.
    ///
    /// Returns `Lit::TRUE` for an empty slice.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Aig::and)
    }

    /// Builds the OR of an arbitrary number of literals as a balanced tree.
    ///
    /// Returns `Lit::FALSE` for an empty slice.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::or)
    }

    /// Builds the XOR of an arbitrary number of literals as a balanced tree.
    ///
    /// Returns `Lit::FALSE` for an empty slice.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        op: fn(&mut Aig, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            n => {
                let (lo, hi) = lits.split_at(n / 2);
                let l = self.reduce_balanced(lo, empty, op);
                let r = self.reduce_balanced(hi, empty, op);
                op(self, l, r)
            }
        }
    }

    /// Returns the kind of node `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of bounds.
    pub fn node(&self, var: Var) -> NodeKind {
        self.nodes[var as usize]
    }

    /// Returns the fanin literals of an AND node, or `None` for inputs and
    /// the constant.
    pub fn and_fanins(&self, var: Var) -> Option<(Lit, Lit)> {
        match self.nodes[var as usize] {
            NodeKind::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Returns true if `var` is an AND node.
    pub fn is_and(&self, var: Var) -> bool {
        matches!(self.nodes[var as usize], NodeKind::And(..))
    }

    /// Total number of nodes including the constant and inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes (the usual "size" metric in synthesis).
    pub fn num_ands(&self) -> usize {
        self.num_ands
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The primary-input node indices, in input order.
    pub fn inputs(&self) -> &[Var] {
        &self.inputs
    }

    /// The primary-output literals, in output order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// The name of input `index`.
    pub fn input_name(&self, index: usize) -> &str {
        &self.input_names[index]
    }

    /// The name of output `index`.
    pub fn output_name(&self, index: usize) -> &str {
        &self.output_names[index]
    }

    /// Renames input `index`.
    pub fn set_input_name(&mut self, index: usize, name: impl Into<String>) {
        self.input_names[index] = name.into();
    }

    /// Iterates over all node indices in topological order (fanins first).
    pub fn iter_vars(&self) -> impl Iterator<Item = Var> + '_ {
        0..self.nodes.len() as Var
    }

    /// Iterates over the indices of all AND nodes in topological order.
    pub fn iter_ands(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len() as Var).filter(move |&v| self.is_and(v))
    }

    /// Computes the logic level of every node (inputs and the constant are
    /// level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for v in 0..self.nodes.len() {
            if let NodeKind::And(a, b) = self.nodes[v] {
                level[v] = 1 + level[a.var() as usize].max(level[b.var() as usize]);
            }
        }
        level
    }

    /// The depth of the graph: the maximum level over all outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|l| levels[l.var() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Counts, for every node, how many fanout references it has (from AND
    /// fanins and primary outputs).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let NodeKind::And(a, b) = node {
                refs[a.var() as usize] += 1;
                refs[b.var() as usize] += 1;
            }
        }
        for out in &self.outputs {
            refs[out.var() as usize] += 1;
        }
        refs
    }

    /// Builds the fanout adjacency: for every node, the list of AND nodes
    /// that reference it (outputs are not included).
    pub fn fanouts(&self) -> Vec<Vec<Var>> {
        let mut fo: Vec<Vec<Var>> = vec![Vec::new(); self.nodes.len()];
        for v in 0..self.nodes.len() {
            if let NodeKind::And(a, b) = self.nodes[v] {
                fo[a.var() as usize].push(v as Var);
                if a.var() != b.var() {
                    fo[b.var() as usize].push(v as Var);
                }
            }
        }
        fo
    }

    /// Evaluates the AIG on a single input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Aig::num_inputs`].
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} input values, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (v, node) in self.nodes.iter().enumerate() {
            values[v] = match *node {
                NodeKind::Const0 => false,
                NodeKind::Input(i) => inputs[i as usize],
                NodeKind::And(a, b) => {
                    let va = values[a.var() as usize] ^ a.is_complement();
                    let vb = values[b.var() as usize] ^ b.is_complement();
                    va && vb
                }
            };
        }
        self.outputs
            .iter()
            .map(|l| values[l.var() as usize] ^ l.is_complement())
            .collect()
    }

    /// A checkpoint for speculative construction; see [`Aig::rollback`].
    pub fn checkpoint(&self) -> usize {
        self.nodes.len()
    }

    /// Removes all nodes created after `checkpoint`.
    ///
    /// This is only safe while the removed nodes have no fanout, which holds
    /// for nodes created speculatively since construction is append-only and
    /// outputs are registered separately.
    ///
    /// The node array is truncated; the structural hash is not touched.
    /// The keys of the dropped nodes stay behind as stale entries, which
    /// are harmless because [`Aig::and`] checks every hit against the node
    /// array.
    ///
    /// # Panics
    ///
    /// Panics if an input was added after the checkpoint (inputs cannot be
    /// rolled back) or if a registered output references a rolled-back node.
    pub fn rollback(&mut self, checkpoint: usize) {
        assert!(checkpoint >= 1, "cannot roll back the constant node");
        let dropped = self.nodes.get(checkpoint..).unwrap_or_default();
        assert!(
            dropped.iter().all(|n| matches!(n, NodeKind::And(..))),
            "cannot roll back an input"
        );
        self.num_ands -= dropped.len();
        self.nodes.truncate(checkpoint);
        for out in &self.outputs {
            assert!(
                (out.var() as usize) < self.nodes.len(),
                "rollback would orphan a registered output"
            );
        }
    }

    /// Returns a structurally compacted copy containing only the constant,
    /// all primary inputs (in order) and the nodes reachable from the
    /// outputs.
    ///
    /// Names are preserved. This is the standard "cleanup" at the end of a
    /// synthesis pass.
    pub fn compact(&self) -> Aig {
        // Mark reachable nodes with a DFS from the outputs.
        let mut reachable = vec![false; self.nodes.len()];
        let mut reachable_ands = 0;
        let mut stack: Vec<Var> = self.outputs.iter().map(|l| l.var()).collect();
        while let Some(v) = stack.pop() {
            if reachable[v as usize] {
                continue;
            }
            reachable[v as usize] = true;
            if let NodeKind::And(a, b) = self.nodes[v as usize] {
                reachable_ands += 1;
                stack.push(a.var());
                stack.push(b.var());
            }
        }
        let mut new = Aig::with_capacity(1 + self.inputs.len() + reachable_ands);
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        for (i, &var) in self.inputs.iter().enumerate() {
            map[var as usize] = new.add_named_input(self.input_names[i].clone());
        }
        for v in 0..self.nodes.len() {
            if !reachable[v] {
                continue;
            }
            if let NodeKind::And(a, b) = self.nodes[v] {
                let na = map[a.var() as usize].xor_complement(a.is_complement());
                let nb = map[b.var() as usize].xor_complement(b.is_complement());
                map[v] = new.and(na, nb);
            }
        }
        for (i, out) in self.outputs.iter().enumerate() {
            let lit = map[out.var() as usize].xor_complement(out.is_complement());
            new.add_named_output(lit, self.output_names[i].clone());
        }
        new
    }

    /// Copies the transitive fanin cone of `roots` into `dest`, driving it
    /// from the literals given in `leaf_map` (old var → literal in `dest`).
    ///
    /// Returns the images of `roots`. Nodes not present in `leaf_map` are
    /// recreated as AND nodes; reaching an input or the constant that is not
    /// mapped is an error.
    ///
    /// # Panics
    ///
    /// Panics if the cone depends on an unmapped input.
    pub fn copy_cone_into(
        &self,
        dest: &mut Aig,
        roots: &[Lit],
        leaf_map: &HashMap<Var, Lit>,
    ) -> Vec<Lit> {
        let mut memo: HashMap<Var, Lit> = leaf_map.clone();
        memo.insert(0, Lit::FALSE);
        let mut order: Vec<Var> = Vec::new();
        // Iterative DFS to find the required nodes in topological order.
        let mut stack: Vec<(Var, bool)> = roots.iter().map(|l| (l.var(), false)).collect();
        let mut visited = vec![false; self.nodes.len()];
        while let Some((v, expanded)) = stack.pop() {
            if memo.contains_key(&v) {
                continue;
            }
            if expanded {
                order.push(v);
                continue;
            }
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            match self.nodes[v as usize] {
                NodeKind::And(a, b) => {
                    stack.push((v, true));
                    stack.push((a.var(), false));
                    stack.push((b.var(), false));
                }
                NodeKind::Input(i) => {
                    panic!("cone depends on unmapped input {i}");
                }
                NodeKind::Const0 => {}
            }
        }
        for v in order {
            if let NodeKind::And(a, b) = self.nodes[v as usize] {
                let na = memo[&a.var()].xor_complement(a.is_complement());
                let nb = memo[&b.var()].xor_complement(b.is_complement());
                let lit = dest.and(na, nb);
                memo.insert(v, lit);
            }
        }
        roots
            .iter()
            .map(|l| memo[&l.var()].xor_complement(l.is_complement()))
            .collect()
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig {{ inputs: {}, outputs: {}, ands: {}, depth: {} }}",
            self.num_inputs(),
            self.num_outputs(),
            self.num_ands(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_literals() {
        assert_eq!(Lit::FALSE.var(), 0);
        assert!(!Lit::FALSE.is_complement());
        assert!(Lit::TRUE.is_complement());
        assert_eq!(!Lit::TRUE, Lit::FALSE);
        let l = Lit::new(5, true);
        assert_eq!(l.var(), 5);
    }

    #[test]
    fn the_largest_variable_fits_a_u32_literal() {
        assert_eq!((MAX_NODES - 1) << 1 | 1, u32::MAX as usize);
        let top = Lit::new(next_var(MAX_NODES - 1), true);
        assert_eq!(top.index(), u32::MAX);
        assert_eq!(top.var() as usize, MAX_NODES - 1);
    }

    #[test]
    #[should_panic(expected = "an Aig holds at most 2147483648 nodes")]
    fn the_node_cap_panics() {
        next_var(MAX_NODES);
    }

    #[test]
    fn and_simplification_rules() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::TRUE, b), b);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_deduplicates() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn eval_basic_gates() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f_and = aig.and(a, b);
        let f_or = aig.or(a, b);
        let f_xor = aig.xor(a, b);
        let f_xnor = aig.xnor(a, b);
        aig.add_output(f_and);
        aig.add_output(f_or);
        aig.add_output(f_xor);
        aig.add_output(f_xnor);
        for (ia, ib) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = aig.eval(&[ia, ib]);
            assert_eq!(out[0], ia && ib);
            assert_eq!(out[1], ia || ib);
            assert_eq!(out[2], ia ^ ib);
            assert_eq!(out[3], !(ia ^ ib));
        }
    }

    #[test]
    fn mux_and_maj() {
        let mut aig = Aig::new();
        let s = aig.add_input();
        let t = aig.add_input();
        let e = aig.add_input();
        let m = aig.mux(s, t, e);
        let mj = aig.maj(s, t, e);
        aig.add_output(m);
        aig.add_output(mj);
        for bits in 0..8u32 {
            let vs = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let out = aig.eval(&vs);
            assert_eq!(out[0], if vs[0] { vs[1] } else { vs[2] });
            let count = vs.iter().filter(|&&v| v).count();
            assert_eq!(out[1], count >= 2);
        }
    }

    #[test]
    fn many_input_reducers() {
        let mut aig = Aig::new();
        let lits: Vec<Lit> = (0..5).map(|_| aig.add_input()).collect();
        let fa = aig.and_many(&lits);
        let fo = aig.or_many(&lits);
        let fx = aig.xor_many(&lits);
        aig.add_output(fa);
        aig.add_output(fo);
        aig.add_output(fx);
        for bits in 0..32u32 {
            let vs: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 != 0).collect();
            let out = aig.eval(&vs);
            assert_eq!(out[0], vs.iter().all(|&v| v));
            assert_eq!(out[1], vs.iter().any(|&v| v));
            assert_eq!(out[2], vs.iter().filter(|&&v| v).count() % 2 == 1);
        }
        let empty = aig.and_many(&[]);
        assert_eq!(empty, Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
    }

    #[test]
    fn rollback_removes_speculative_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let kept = aig.and(a, b);
        let cp = aig.checkpoint();
        let spec = aig.and(kept, c);
        assert_ne!(spec, kept);
        aig.rollback(cp);
        assert_eq!(aig.num_ands(), 1);
        // Rebuilding after rollback works and re-inserts into the strash.
        let again = aig.and(kept, c);
        assert_eq!(again.var() as usize, cp);
    }

    #[test]
    fn compact_drops_dangling_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let keep = aig.and(a, b);
        let _dangling = aig.or(a, b);
        aig.add_output(keep);
        let compacted = aig.compact();
        assert_eq!(compacted.num_ands(), 1);
        assert_eq!(compacted.num_inputs(), 2);
        assert_eq!(aig.eval(&[true, true]), compacted.eval(&[true, true]));
    }

    #[test]
    fn levels_and_depth() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        aig.add_output(abc);
        assert_eq!(aig.depth(), 2);
        let levels = aig.levels();
        assert_eq!(levels[ab.var() as usize], 1);
        assert_eq!(levels[abc.var() as usize], 2);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        let y = aig.or(x, a);
        aig.add_output(y);
        aig.add_output(x);
        let refs = aig.fanout_counts();
        assert_eq!(refs[x.var() as usize], 2); // fanin of y + output
        assert_eq!(refs[y.var() as usize], 1);
    }

    #[test]
    fn copy_cone_into_remaps_leaves() {
        let mut src = Aig::new();
        let a = src.add_input();
        let b = src.add_input();
        let f = src.xor(a, b);
        src.add_output(f);

        let mut dst = Aig::new();
        let x = dst.add_input();
        let y = dst.add_input();
        let mut leaf_map = HashMap::new();
        leaf_map.insert(a.var(), y); // swap the inputs
        leaf_map.insert(b.var(), x);
        let roots = src.copy_cone_into(&mut dst, &[f], &leaf_map);
        dst.add_output(roots[0]);
        for (ia, ib) in [(false, true), (true, false), (true, true)] {
            assert_eq!(src.eval(&[ia, ib])[0], dst.eval(&[ib, ia])[0]);
        }
    }
}
