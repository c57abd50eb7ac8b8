//! A NanGate-45-flavoured standard-cell library.
//!
//! Sixteen combinational cells with area (µm²), intrinsic delay (ns),
//! per-fanout load delay, input capacitance (normalised fF) and leakage
//! (nW) in the ballpark of the open NanGate 45 nm PDK. The absolute values
//! matter less than the *relative* costs — the paper's Table III reports
//! percentage overheads against a baseline mapped with the same library.

use almost_aig::hash::FastBuild;
use almost_aig::Tt;
use std::collections::HashMap;

/// One combinational standard cell.
#[derive(Clone, Debug)]
pub struct Cell {
    name: String,
    function: Tt,
    area: f64,
    delay: f64,
    load_coeff: f64,
    input_cap: f64,
    leakage: f64,
}

impl Cell {
    /// Creates a cell; `function` defines the number of input pins.
    pub fn new(
        name: impl Into<String>,
        function: Tt,
        area: f64,
        delay: f64,
        input_cap: f64,
        leakage: f64,
    ) -> Self {
        Cell {
            name: name.into(),
            function,
            area,
            delay,
            load_coeff: 0.003,
            input_cap,
            leakage,
        }
    }

    /// Cell name (e.g. `NAND2_X1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's Boolean function over its input pins.
    pub fn function(&self) -> &Tt {
        &self.function
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.function.nvars()
    }

    /// Cell area in µm².
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Intrinsic pin-to-pin delay in ns.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Additional delay per fanout (ns).
    pub fn load_coeff(&self) -> f64 {
        self.load_coeff
    }

    /// Input pin capacitance (normalised).
    pub fn input_cap(&self) -> f64 {
        self.input_cap
    }

    /// Leakage power (nW).
    pub fn leakage(&self) -> f64 {
        self.leakage
    }
}

/// A concrete binding of a library cell onto a cut function: which leaf
/// drives each pin, which leaves are complemented and whether the output
/// is (see [`CellLibrary::matches_for`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellMatch {
    /// Index of the cell in the library.
    pub cell: usize,
    /// Permutation: cell pin `p` is driven by cut leaf `pin_to_leaf[p]`.
    pub pin_to_leaf: Vec<usize>,
    /// Mask of cut leaves that must be complemented (through an inverter).
    pub leaf_flips: u32,
    /// Whether the cell output must be inverted.
    pub output_flip: bool,
}

/// An immutable cell library with a match index: every binding of every
/// cell, keyed by the function it realises.
#[derive(Clone, Debug)]
pub struct CellLibrary {
    cells: Vec<Cell>,
    /// (inputs, truth table) → the bindings realising that function, in
    /// library cell order, then pin permutation order, then pin-flip order.
    bindings: HashMap<(usize, u16), Vec<CellMatch>, FastBuild>,
    inv_cell: usize,
    buf_cell: usize,
    tie0_cell: usize,
    tie1_cell: usize,
}

impl CellLibrary {
    /// Builds a library from cells plus the four required service cells
    /// (INV, BUF, TIE0, TIE1), which must be present among `cells` with
    /// those exact names.
    ///
    /// # Panics
    ///
    /// Panics if a service cell is missing or a cell has more than 4
    /// inputs.
    pub fn from_cells(cells: Vec<Cell>) -> Self {
        let find = |name: &str| {
            cells
                .iter()
                .position(|c| c.name == name)
                .unwrap_or_else(|| panic!("library must contain a {name} cell"))
        };
        let inv_cell = find("INV");
        let buf_cell = find("BUF");
        let tie0_cell = find("TIE0");
        let tie1_cell = find("TIE1");
        // Each cell is matched once, here: its function under every pin
        // permutation and pin-flip mask (at most 4! · 2^4 = 384 bindings of
        // a 4-input cell), with the output either way. A cut function's
        // matches are then one lookup, and they are exactly the bindings a
        // brute-force search within the function's NPN class finds.
        let mut bindings: HashMap<(usize, u16), Vec<CellMatch>, FastBuild> = HashMap::default();
        for (i, cell) in cells.iter().enumerate() {
            let n = cell.num_inputs();
            assert!(n <= 4, "cells are limited to 4 inputs");
            if n == 0 {
                continue;
            }
            let rows = (1u32 << (1 << n)) - 1;
            for perm in permutations(n) {
                for flips in 0..(1u32 << n) {
                    let bound = bind(&cell.function, &perm, flips);
                    for (bits, output_flip) in [(bound, false), (!bound & rows as u16, true)] {
                        bindings.entry((n, bits)).or_default().push(CellMatch {
                            cell: i,
                            pin_to_leaf: perm.clone(),
                            leaf_flips: flips_as_leaf_mask(&perm, flips),
                            output_flip,
                        });
                    }
                }
            }
        }
        CellLibrary {
            cells,
            bindings,
            inv_cell,
            buf_cell,
            tie0_cell,
            tie1_cell,
        }
    }

    /// The NanGate-45-flavoured default library.
    #[allow(clippy::vec_init_then_push)] // one push per cell reads as a datasheet
    pub fn nangate45() -> Self {
        let v = |i: usize, n: usize| Tt::var(i, n);
        let mut cells = Vec::new();
        // Service cells.
        cells.push(Cell::new("INV", v(0, 1).not(), 0.532, 0.008, 1.0, 1.7));
        cells.push(Cell::new("BUF", v(0, 1), 0.798, 0.012, 1.0, 1.4));
        cells.push(Cell::new("TIE0", Tt::zero(0), 0.266, 0.0, 0.0, 0.4));
        cells.push(Cell::new("TIE1", Tt::one(0), 0.266, 0.0, 0.0, 0.4));
        // Two-input cells.
        let a2 = v(0, 2);
        let b2 = v(1, 2);
        cells.push(Cell::new(
            "NAND2",
            a2.and(&b2).not(),
            0.798,
            0.010,
            1.0,
            2.0,
        ));
        cells.push(Cell::new("NOR2", a2.or(&b2).not(), 0.798, 0.012, 1.2, 2.0));
        cells.push(Cell::new("AND2", a2.and(&b2), 1.064, 0.015, 1.0, 1.9));
        cells.push(Cell::new("OR2", a2.or(&b2), 1.064, 0.016, 1.0, 1.9));
        cells.push(Cell::new("XOR2", a2.xor(&b2), 1.596, 0.024, 2.0, 2.4));
        cells.push(Cell::new(
            "XNOR2",
            a2.xor(&b2).not(),
            1.596,
            0.024,
            2.0,
            2.4,
        ));
        // Three-input cells.
        let a3 = v(0, 3);
        let b3 = v(1, 3);
        let c3 = v(2, 3);
        cells.push(Cell::new(
            "NAND3",
            a3.and(&b3).and(&c3).not(),
            1.064,
            0.014,
            1.0,
            2.2,
        ));
        cells.push(Cell::new(
            "NOR3",
            a3.or(&b3).or(&c3).not(),
            1.064,
            0.018,
            1.2,
            2.2,
        ));
        cells.push(Cell::new(
            "AOI21",
            a3.and(&b3).or(&c3).not(),
            1.064,
            0.014,
            1.1,
            2.1,
        ));
        cells.push(Cell::new(
            "OAI21",
            a3.or(&b3).and(&c3).not(),
            1.064,
            0.014,
            1.1,
            2.1,
        ));
        cells.push(Cell::new(
            "MUX2",
            // s ? b : a with pins (a, b, s).
            {
                let s = c3.clone();
                s.and(&b3).or(&s.not().and(&a3))
            },
            1.862,
            0.020,
            1.3,
            2.6,
        ));
        // Four-input cells.
        let a4 = v(0, 4);
        let b4 = v(1, 4);
        let c4 = v(2, 4);
        let d4 = v(3, 4);
        cells.push(Cell::new(
            "NAND4",
            a4.and(&b4).and(&c4).and(&d4).not(),
            1.330,
            0.018,
            1.0,
            2.5,
        ));
        cells.push(Cell::new(
            "AOI22",
            a4.and(&b4).or(&c4.and(&d4)).not(),
            1.330,
            0.016,
            1.1,
            2.4,
        ));
        cells.push(Cell::new(
            "OAI22",
            a4.or(&b4).and(&c4.or(&d4)).not(),
            1.330,
            0.016,
            1.1,
            2.4,
        ));
        Self::from_cells(cells)
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell at `index`.
    pub fn cell(&self, index: usize) -> &Cell {
        &self.cells[index]
    }

    /// Index of the inverter cell.
    pub fn inverter(&self) -> usize {
        self.inv_cell
    }

    /// Index of the buffer cell.
    pub fn buffer(&self) -> usize {
        self.buf_cell
    }

    /// Index of the constant-0 tie cell.
    pub fn tie0(&self) -> usize {
        self.tie0_cell
    }

    /// Index of the constant-1 tie cell.
    pub fn tie1(&self) -> usize {
        self.tie1_cell
    }

    /// Finds all concrete bindings of library cells realising `function`
    /// (a cut function with full support).
    ///
    /// Each returned [`CellMatch`] satisfies: cell output (optionally
    /// inverted per `output_flip`) equals `function` when cell pin `p` is
    /// driven by leaf `pin_to_leaf[p]`, complemented iff bit
    /// `pin_to_leaf[p]` of `leaf_flips` is set.
    pub fn matches_for(&self, function: &Tt) -> &[CellMatch] {
        match function.nvars() {
            n @ 1..=4 => self.matches_for_bits(n, function.as_u64() as u16),
            _ => &[],
        }
    }

    /// [`CellLibrary::matches_for`] on an `n`-input truth table given as
    /// its bits (bit `i` = value on assignment `i`).
    pub(crate) fn matches_for_bits(&self, n: usize, bits: u16) -> &[CellMatch] {
        self.bindings.get(&(n, bits)).map_or(&[], Vec::as_slice)
    }
}

/// The function of a cell whose pin `p` is driven by variable `perm[p]`,
/// complemented iff bit `p` of `pin_flips` is set, as truth-table bits.
fn bind(cell_f: &Tt, perm: &[usize], pin_flips: u32) -> u16 {
    let mut out = 0u16;
    for idx in 0..cell_f.num_bits() {
        // Determine each pin's value from the leaf assignment `idx`.
        let mut pin_idx = 0usize;
        for (p, &leaf) in perm.iter().enumerate() {
            let val = (idx >> leaf) & 1 != 0;
            if val != (pin_flips >> p & 1 != 0) {
                pin_idx |= 1 << p;
            }
        }
        if cell_f.get_bit(pin_idx) {
            out |= 1 << idx;
        }
    }
    out
}

/// Converts per-pin flips into a per-leaf mask.
fn flips_as_leaf_mask(perm: &[usize], pin_flips: u32) -> u32 {
    let mut mask = 0u32;
    for (p, &leaf) in perm.iter().enumerate() {
        if pin_flips >> p & 1 != 0 {
            mask |= 1 << leaf;
        }
    }
    mask
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rem: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rem.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rem.len() {
            let v = rem.remove(i);
            prefix.push(v);
            rec(prefix, rem, out);
            prefix.pop();
            rem.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_service_cells() {
        let lib = CellLibrary::nangate45();
        assert_eq!(lib.cell(lib.inverter()).name(), "INV");
        assert_eq!(lib.cell(lib.buffer()).name(), "BUF");
        assert_eq!(lib.cell(lib.tie0()).name(), "TIE0");
        assert_eq!(lib.cell(lib.tie1()).name(), "TIE1");
    }

    #[test]
    fn and2_matches_directly() {
        let lib = CellLibrary::nangate45();
        let f = Tt::var(0, 2).and(&Tt::var(1, 2));
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty());
        // AND2 must be among them without any flips.
        assert!(matches
            .iter()
            .any(|m| { lib.cell(m.cell).name() == "AND2" && m.leaf_flips == 0 && !m.output_flip }));
        // NAND2 with an output flip also matches.
        assert!(matches
            .iter()
            .any(|m| lib.cell(m.cell).name() == "NAND2" && m.output_flip));
    }

    #[test]
    fn bindings_are_functionally_correct() {
        let lib = CellLibrary::nangate45();
        // f(l0,l1,l2) = !(l2 & (l0 | l1)) -- an OAI21 shape with permuted
        // leaves.
        let l0 = Tt::var(0, 3);
        let l1 = Tt::var(1, 3);
        let l2 = Tt::var(2, 3);
        let f = l2.and(&l0.or(&l1)).not();
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty(), "OAI21 shape must match");
        for m in matches {
            let cell_f = lib.cell(m.cell).function();
            // Recompute the bound function and compare.
            let n = f.nvars();
            let mut ok = true;
            for idx in 0..f.num_bits() {
                let mut pin_idx = 0usize;
                for (p, &leaf) in m.pin_to_leaf.iter().enumerate() {
                    let mut val = (idx >> leaf) & 1 != 0;
                    if m.leaf_flips >> leaf & 1 != 0 {
                        val = !val;
                    }
                    if val {
                        pin_idx |= 1 << p;
                    }
                }
                let got = cell_f.get_bit(pin_idx) ^ m.output_flip;
                if got != f.get_bit(idx) {
                    ok = false;
                    break;
                }
            }
            assert!(ok, "binding of {} is wrong", lib.cell(m.cell).name());
            let _ = n;
        }
    }

    #[test]
    fn xor_matches_xor_cells_only_in_class() {
        let lib = CellLibrary::nangate45();
        let f = Tt::var(0, 2).xor(&Tt::var(1, 2));
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty());
        for m in matches {
            let name = lib.cell(m.cell).name();
            assert!(name == "XOR2" || name == "XNOR2", "unexpected cell {name}");
        }
    }

    /// The NPN-class brute force the match index replaces: canonise the
    /// function, then try every binding of every cell in its class.
    fn npn_reference(lib: &CellLibrary, f: &Tt) -> Vec<CellMatch> {
        use almost_aig::npn::canonize;
        let canon = canonize(f).0;
        let mut matches = Vec::new();
        for (ci, cell) in lib.cells().iter().enumerate() {
            if cell.num_inputs() != f.nvars() || canonize(cell.function()).0 != canon {
                continue;
            }
            for perm in permutations(f.nvars()) {
                for flips in 0..(1u32 << f.nvars()) {
                    let bound = Tt::from_u64(f.nvars(), bind(cell.function(), &perm, flips) as u64);
                    if bound == *f || bound.not() == *f {
                        matches.push(CellMatch {
                            cell: ci,
                            pin_to_leaf: perm.clone(),
                            leaf_flips: flips_as_leaf_mask(&perm, flips),
                            output_flip: bound != *f,
                        });
                    }
                }
            }
        }
        matches
    }

    #[test]
    fn match_index_equals_npn_brute_force() {
        let lib = CellLibrary::nangate45();
        let mut functions: Vec<Tt> = Vec::new();
        for n in 1..=3 {
            functions.extend((0..1u64 << (1 << n)).map(|bits| Tt::from_u64(n, bits)));
        }
        functions.extend(
            (0..1u64 << 16)
                .step_by(257)
                .map(|bits| Tt::from_u64(4, bits)),
        );
        functions.extend(lib.cells().iter().map(|c| c.function().clone()));
        for f in functions.iter().filter(|f| f.nvars() > 0) {
            assert_eq!(
                lib.matches_for(f),
                npn_reference(&lib, f).as_slice(),
                "{f:?}"
            );
        }
    }

    #[test]
    fn no_match_for_unsupported_function() {
        let lib = CellLibrary::nangate45();
        // 4-input parity is not in the library.
        let mut f = Tt::zero(4);
        for v in 0..4 {
            f = f.xor(&Tt::var(v, 4));
        }
        assert!(lib.matches_for(&f).is_empty());
    }
}
