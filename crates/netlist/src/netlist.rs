//! Mapped gate-level netlists.

use crate::cell::CellLibrary;
use almost_aig::Var;

/// A net identifier in a [`MappedNetlist`].
pub type NetId = usize;

/// One placed cell instance.
#[derive(Clone, Debug)]
pub struct GateInstance {
    /// Index into the [`CellLibrary`].
    pub cell: usize,
    /// Driving nets of each input pin, in pin order.
    pub fanins: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A technology-mapped netlist.
///
/// Produced by [`crate::map::map_aig`]; nets are plain indices, each driven
/// by exactly one gate or primary input. `net_origin` records which AIG
/// node (and phase) a net carries, which lets the PPA analysis reuse AIG
/// simulation for switching activity.
#[derive(Clone, Debug, Default)]
pub struct MappedNetlist {
    gates: Vec<GateInstance>,
    num_nets: usize,
    input_nets: Vec<NetId>,
    output_nets: Vec<NetId>,
    net_origin: Vec<Option<(Var, bool)>>,
}

impl MappedNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a net carrying AIG node `origin` (var, complemented).
    pub fn add_net(&mut self, origin: Option<(Var, bool)>) -> NetId {
        let id = self.num_nets;
        self.num_nets += 1;
        self.net_origin.push(origin);
        id
    }

    /// Adds a gate instance and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any referenced net does not exist.
    pub fn add_gate(&mut self, cell: usize, fanins: Vec<NetId>, output: NetId) -> usize {
        assert!(output < self.num_nets);
        for &f in &fanins {
            assert!(f < self.num_nets);
        }
        self.gates.push(GateInstance {
            cell,
            fanins,
            output,
        });
        self.gates.len() - 1
    }

    /// Registers a primary-input net.
    pub fn add_input_net(&mut self, net: NetId) {
        self.input_nets.push(net);
    }

    /// Registers a primary-output net.
    pub fn add_output_net(&mut self, net: NetId) {
        self.output_nets.push(net);
    }

    /// All gate instances.
    pub fn gates(&self) -> &[GateInstance] {
        &self.gates
    }

    /// Number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Primary-input nets, in input order.
    pub fn input_nets(&self) -> &[NetId] {
        &self.input_nets
    }

    /// Primary-output nets, in output order.
    pub fn output_nets(&self) -> &[NetId] {
        &self.output_nets
    }

    /// The AIG origin of a net, if recorded.
    pub fn net_origin(&self, net: NetId) -> Option<(Var, bool)> {
        self.net_origin[net]
    }

    /// Per-net fanout counts (loads), counting gate inputs and primary
    /// outputs.
    pub fn net_fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.num_nets];
        for g in &self.gates {
            for &f in &g.fanins {
                fo[f] += 1;
            }
        }
        for &o in &self.output_nets {
            fo[o] += 1;
        }
        fo
    }

    /// Evaluates the netlist on one input assignment (for cross-checking
    /// against the source AIG).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of input nets, or
    /// the netlist is not topologically ordered (gates must be added in
    /// topological order, which [`crate::map::map_aig`] guarantees).
    pub fn eval(&self, library: &CellLibrary, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.input_nets.len());
        let mut values = vec![None::<bool>; self.num_nets];
        for (i, &net) in self.input_nets.iter().enumerate() {
            values[net] = Some(inputs[i]);
        }
        for gate in &self.gates {
            let cell = library.cell(gate.cell);
            let mut idx = 0usize;
            for (p, &f) in gate.fanins.iter().enumerate() {
                let v = values[f].expect("netlist must be topologically ordered");
                if v {
                    idx |= 1 << p;
                }
            }
            let out = if cell.num_inputs() == 0 {
                cell.function().get_bit(0)
            } else {
                cell.function().get_bit(idx)
            };
            values[gate.output] = Some(out);
        }
        self.output_nets
            .iter()
            .map(|&n| values[n].expect("outputs must be driven"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;

    #[test]
    fn manual_netlist_evaluates() {
        let lib = CellLibrary::nangate45();
        let nand2 = lib
            .cells()
            .iter()
            .position(|c| c.name() == "NAND2")
            .expect("NAND2 exists");
        let mut nl = MappedNetlist::new();
        let a = nl.add_net(None);
        let b = nl.add_net(None);
        let y = nl.add_net(None);
        nl.add_input_net(a);
        nl.add_input_net(b);
        nl.add_gate(nand2, vec![a, b], y);
        nl.add_output_net(y);
        assert_eq!(nl.eval(&lib, &[true, true]), vec![false]);
        assert_eq!(nl.eval(&lib, &[true, false]), vec![true]);
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.net_fanouts(), vec![1, 1, 1]);
    }

    #[test]
    fn tie_cells_evaluate() {
        let lib = CellLibrary::nangate45();
        let mut nl = MappedNetlist::new();
        let n0 = nl.add_net(None);
        let n1 = nl.add_net(None);
        nl.add_gate(lib.tie0(), vec![], n0);
        nl.add_gate(lib.tie1(), vec![], n1);
        nl.add_output_net(n0);
        nl.add_output_net(n1);
        assert_eq!(nl.eval(&lib, &[]), vec![false, true]);
    }
}
