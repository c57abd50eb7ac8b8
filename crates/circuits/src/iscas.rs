//! ISCAS85-profile benchmark circuits.
//!
//! The real ISCAS85 netlists are distributed as `.bench` files that this
//! workspace can read (`almost_netlist::bench_format`), but cannot ship.
//! Each [`IscasBenchmark`] therefore *generates* a deterministic circuit
//! with the same primary-input/primary-output counts and the same
//! functional flavour as its namesake (see the table below), sized to the
//! same order of magnitude. The ALMOST evaluation needs a spread of circuit
//! sizes and structural styles — which these provide — rather than the
//! bit-exact 1985 gate lists.
//!
//! | Name  | PI/PO (real) | Flavour |
//! |-------|--------------|---------|
//! | c432  | 36/7    | 27-channel interrupt controller (priority logic) |
//! | c499  | 41/32   | 32-bit SEC error corrector (XOR-dominated) |
//! | c880  | 60/26   | 8-bit ALU |
//! | c1355 | 41/32   | same function as c499, expanded structure |
//! | c1908 | 33/25   | 16-bit error detector/translator |
//! | c2670 | 233/140 | 12-bit ALU + comparator + parity control |
//! | c3540 | 50/22   | 8-bit ALU with BCD arithmetic and shifting |
//! | c5315 | 178/123 | 9-bit ALU with parallel datapaths |
//! | c6288 | 32/32   | 16×16 array multiplier |
//! | c7552 | 207/108 | 34-bit adder/comparator + parity |

use crate::blocks::*;
use almost_aig::{Aig, Lit};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The named benchmark circuits.
///
/// # Example
///
/// ```
/// use almost_circuits::IscasBenchmark;
/// let aig = IscasBenchmark::C6288.build();
/// assert_eq!(aig.num_inputs(), 32);
/// assert_eq!(aig.num_outputs(), 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IscasBenchmark {
    /// 27-channel interrupt controller.
    C432,
    /// 32-bit single-error-correction circuit.
    C499,
    /// 8-bit ALU.
    C880,
    /// c499 re-expressed with expanded XOR structure.
    C1355,
    /// 16-bit error detector / translator.
    C1908,
    /// ALU and control with wide I/O.
    C2670,
    /// 8-bit BCD-capable ALU.
    C3540,
    /// 9-bit parallel ALU.
    C5315,
    /// 16×16 array multiplier.
    C6288,
    /// 34-bit adder/comparator.
    C7552,
}

impl IscasBenchmark {
    /// All ten generated benchmarks.
    pub const ALL: [IscasBenchmark; 10] = [
        IscasBenchmark::C432,
        IscasBenchmark::C499,
        IscasBenchmark::C880,
        IscasBenchmark::C1355,
        IscasBenchmark::C1908,
        IscasBenchmark::C2670,
        IscasBenchmark::C3540,
        IscasBenchmark::C5315,
        IscasBenchmark::C6288,
        IscasBenchmark::C7552,
    ];

    /// The seven largest benchmarks used in the paper's tables.
    pub const PAPER_SEVEN: [IscasBenchmark; 7] = [
        IscasBenchmark::C1355,
        IscasBenchmark::C1908,
        IscasBenchmark::C2670,
        IscasBenchmark::C3540,
        IscasBenchmark::C5315,
        IscasBenchmark::C6288,
        IscasBenchmark::C7552,
    ];

    /// The lowercase benchmark name (`c1355`, ...).
    pub fn name(self) -> &'static str {
        match self {
            IscasBenchmark::C432 => "c432",
            IscasBenchmark::C499 => "c499",
            IscasBenchmark::C880 => "c880",
            IscasBenchmark::C1355 => "c1355",
            IscasBenchmark::C1908 => "c1908",
            IscasBenchmark::C2670 => "c2670",
            IscasBenchmark::C3540 => "c3540",
            IscasBenchmark::C5315 => "c5315",
            IscasBenchmark::C6288 => "c6288",
            IscasBenchmark::C7552 => "c7552",
        }
    }

    /// Gate count of the real ISCAS85 netlist (for context in reports).
    pub fn paper_gate_count(self) -> usize {
        match self {
            IscasBenchmark::C432 => 160,
            IscasBenchmark::C499 => 202,
            IscasBenchmark::C880 => 383,
            IscasBenchmark::C1355 => 546,
            IscasBenchmark::C1908 => 880,
            IscasBenchmark::C2670 => 1193,
            IscasBenchmark::C3540 => 1669,
            IscasBenchmark::C5315 => 2307,
            IscasBenchmark::C6288 => 2406,
            IscasBenchmark::C7552 => 3512,
        }
    }

    /// Generates the benchmark circuit.
    pub fn build(self) -> Aig {
        match self {
            IscasBenchmark::C432 => build_c432(),
            IscasBenchmark::C499 => build_sec_corrector(0x499),
            IscasBenchmark::C880 => build_c880(),
            IscasBenchmark::C1355 => build_sec_corrector(0x1355),
            IscasBenchmark::C1908 => build_c1908(),
            IscasBenchmark::C2670 => build_c2670(),
            IscasBenchmark::C3540 => build_c3540(),
            IscasBenchmark::C5315 => build_c5315(),
            IscasBenchmark::C6288 => build_c6288(),
            IscasBenchmark::C7552 => build_c7552(),
        }
    }
}

impl std::fmt::Display for IscasBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn inputs(aig: &mut Aig, prefix: &str, n: usize) -> Vec<Lit> {
    (0..n)
        .map(|i| aig.add_named_input(format!("{prefix}{i}")))
        .collect()
}

/// A deterministic "control logic" mixing stage: combines a signal pool
/// through rounds of XOR/MUX/MAJ gates, growing structural depth and
/// reconvergence. Returns the final signal pool.
fn mixing_rounds(aig: &mut Aig, pool: &[Lit], rounds: usize, seed: u64) -> Vec<Lit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current: Vec<Lit> = pool.to_vec();
    for _ in 0..rounds {
        let n = current.len();
        let mut next = Vec::with_capacity(n);
        for i in 0..n {
            let a = current[i];
            let b = current[(i + 1) % n];
            let c = current[rng.random_range(0..n)];
            let lit = match rng.random_range(0..4u32) {
                0 => aig.xor(a, b),
                1 => aig.mux(c, a, b),
                2 => aig.maj(a, b, c),
                _ => {
                    let t = aig.and(a, !b);
                    aig.or(t, c)
                }
            };
            next.push(lit);
        }
        current = next;
    }
    current
}

/// c432 flavour: 27 interrupt requests in 3 banks of 9, plus 9 enables.
fn build_c432() -> Aig {
    let mut aig = Aig::new();
    let reqs = inputs(&mut aig, "req", 27);
    let ens = inputs(&mut aig, "en", 9);
    // Mask requests by their bank enables.
    let masked: Vec<Lit> = reqs
        .iter()
        .enumerate()
        .map(|(i, &r)| aig.and(r, ens[i % 9]))
        .collect();
    let (grants, any) = priority_encoder(&mut aig, &masked);
    // Encode the 27 grants into a 5-bit channel id plus parity.
    let mut id = [Lit::FALSE; 5];
    for (i, &g) in grants.iter().enumerate() {
        for (b, slot) in id.iter_mut().enumerate() {
            if i >> b & 1 != 0 {
                *slot = aig.or(*slot, g);
            }
        }
    }
    let par = parity_tree(&mut aig, &masked);
    for (i, &b) in id.iter().enumerate() {
        aig.add_named_output(b, format!("id{i}"));
    }
    aig.add_named_output(any, "any");
    aig.add_named_output(par, "par");
    aig
}

/// c499/c1355 flavour: 32-bit data + 9 check/control inputs, single-error
/// syndrome computation and correction.
fn build_sec_corrector(seed: u64) -> Aig {
    let mut aig = Aig::new();
    let data = inputs(&mut aig, "d", 32);
    let check = inputs(&mut aig, "c", 9);
    let mut rng = StdRng::seed_from_u64(seed);
    // Six syndrome bits, each a parity over a random half of the data plus
    // one check bit.
    let mut syndromes = Vec::new();
    for (s, &chk) in check.iter().enumerate().take(6) {
        let members: Vec<Lit> = data
            .iter()
            .enumerate()
            .filter(|(i, _)| (i >> s) & 1 == 1 || rng.random_bool(0.15))
            .map(|(_, &l)| l)
            .collect();
        let mut p = parity_tree(&mut aig, &members);
        p = aig.xor(p, chk);
        syndromes.push(p);
    }
    // Correction: decode the syndrome and flip the indicated bit when the
    // enable (check[8]) is set.
    let flips = decoder(&mut aig, &syndromes); // 64 one-hot lines
    let overall = aig.xor(check[6], check[7]);
    for (i, &d) in data.iter().enumerate() {
        let sel = flips[i];
        let gated = aig.and(sel, check[8]);
        let gated = aig.and(gated, !overall);
        let corrected = aig.xor(d, gated);
        aig.add_named_output(corrected, format!("q{i}"));
    }
    aig
}

/// c880 flavour: 8-bit ALU with 60 inputs / 26 outputs.
fn build_c880() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 8);
    let b = inputs(&mut aig, "b", 8);
    let c = inputs(&mut aig, "c", 8);
    let mode = inputs(&mut aig, "m", 4);
    let misc = inputs(&mut aig, "x", 32);
    let (sum, carry) = ripple_adder(&mut aig, &a, &b, mode[0]);
    let (diff, borrow) = subtractor(&mut aig, &a, &c);
    let anded: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| aig.and(x, y)).collect();
    let sel = aig.and(mode[1], !mode[2]);
    let r1 = mux_bank(&mut aig, sel, &sum, &diff);
    let r2 = mux_bank(&mut aig, mode[3], &r1, &anded);
    let mixed = mixing_rounds(&mut aig, &misc, 2, 0x880);
    for (i, &o) in r2.iter().enumerate() {
        aig.add_named_output(o, format!("r{i}"));
    }
    aig.add_named_output(carry, "cout");
    aig.add_named_output(borrow, "bout");
    for (i, &m) in mixed.iter().enumerate().take(16) {
        aig.add_named_output(m, format!("y{i}"));
    }
    aig
}

/// c1908 flavour: 16-bit error detector/translator, 33 in / 25 out.
fn build_c1908() -> Aig {
    let mut aig = Aig::new();
    let data = inputs(&mut aig, "d", 16);
    let tag = inputs(&mut aig, "t", 16);
    let en = inputs(&mut aig, "en", 1);
    // CRC-like folding: several rounds of shifted XOR/AND mixing.
    let mut state: Vec<Lit> = data
        .iter()
        .zip(&tag)
        .map(|(&d, &t)| aig.xor(d, t))
        .collect();
    state = mixing_rounds(&mut aig, &state, 3, 0x1908);
    let (sum, carry) = ripple_adder(&mut aig, &state, &tag, en[0]);
    let (less, equal, greater) = comparator(&mut aig, &data, &tag);
    let par = parity_tree(&mut aig, &state);
    for (i, &s) in sum.iter().enumerate() {
        aig.add_named_output(s, format!("s{i}"));
    }
    for (i, &st) in state.iter().enumerate().take(4) {
        aig.add_named_output(st, format!("st{i}"));
    }
    aig.add_named_output(carry, "cout");
    aig.add_named_output(less, "lt");
    aig.add_named_output(equal, "eq");
    aig.add_named_output(greater, "gt");
    aig.add_named_output(par, "par");
    aig
}

/// c2670 flavour: ALU + control with 233 in / 140 out.
fn build_c2670() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 32);
    let b = inputs(&mut aig, "b", 32);
    let c = inputs(&mut aig, "c", 32);
    let reqs = inputs(&mut aig, "req", 27);
    let ctrl = inputs(&mut aig, "k", 14);
    let pass = inputs(&mut aig, "p", 96);

    let (sum, carry) = ripple_adder(&mut aig, &a, &b, ctrl[0]);
    let (less, equal, greater) = comparator(&mut aig, &b, &c);
    let par_a = parity_tree(&mut aig, &a);
    let (grants, any) = priority_encoder(&mut aig, &reqs);
    let sel = decoder(&mut aig, &ctrl[1..4]);
    let muxed = mux_bank(&mut aig, sel[1], &sum, &c);
    let gated: Vec<Lit> = pass
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let s = sel[i % 8];
            aig.and(p, s)
        })
        .collect();

    for (i, &m) in muxed.iter().enumerate() {
        aig.add_named_output(m, format!("alu{i}"));
    }
    for (i, &g) in grants.iter().enumerate() {
        aig.add_named_output(g, format!("gr{i}"));
    }
    for (i, &g) in gated.iter().enumerate().take(75) {
        aig.add_named_output(g, format!("pg{i}"));
    }
    aig.add_named_output(carry, "cout");
    aig.add_named_output(less, "lt");
    aig.add_named_output(equal, "eq");
    aig.add_named_output(greater, "gt");
    aig.add_named_output(par_a, "par");
    aig.add_named_output(any, "irq");
    aig
}

/// c3540 flavour: 8-bit BCD-capable ALU, 50 in / 22 out.
fn build_c3540() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 16);
    let b = inputs(&mut aig, "b", 16);
    let sh = inputs(&mut aig, "sh", 4);
    let mode = inputs(&mut aig, "m", 6);
    let misc = inputs(&mut aig, "x", 8);

    let (sum, carry) = ripple_adder(&mut aig, &a, &b, mode[0]);
    let (diff, _borrow) = subtractor(&mut aig, &a, &b);
    // Two BCD digits on the low byte.
    let (bcd_lo, c_lo) = bcd_adder_digit(&mut aig, &a[0..4], &b[0..4], mode[1]);
    let (bcd_hi, c_hi) = bcd_adder_digit(&mut aig, &a[4..8], &b[4..8], c_lo);
    let shifted = barrel_shifter(&mut aig, &a, &sh);
    let logic: Vec<Lit> = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| {
            let t = aig.xor(x, y);
            let u = aig.and(x, y);
            aig.mux(mode[2], t, u)
        })
        .collect();
    let r1 = mux_bank(&mut aig, mode[3], &sum, &diff);
    let r2 = mux_bank(&mut aig, mode[4], &r1, &shifted);
    let r3 = mux_bank(&mut aig, mode[5], &r2, &logic);
    let mixed = mixing_rounds(&mut aig, &misc, 3, 0x3540);

    for (i, &r) in r3.iter().enumerate().take(16) {
        aig.add_named_output(r, format!("r{i}"));
    }
    for (i, &d) in bcd_lo.iter().chain(bcd_hi.iter()).enumerate().take(2) {
        aig.add_named_output(d, format!("bcd{i}"));
    }
    aig.add_named_output(carry, "cout");
    aig.add_named_output(c_hi, "bcdc");
    aig.add_named_output(mixed[0], "y0");
    aig.add_named_output(mixed[1], "y1");
    aig
}

/// c5315 flavour: 9-bit parallel ALU, 178 in / 123 out.
fn build_c5315() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 36);
    let b = inputs(&mut aig, "b", 36);
    let c = inputs(&mut aig, "c", 36);
    let d = inputs(&mut aig, "d", 36);
    let sh = inputs(&mut aig, "sh", 5);
    let mode = inputs(&mut aig, "m", 9);
    let misc = inputs(&mut aig, "x", 20);

    let (sum1, carry1) = ripple_adder(&mut aig, &a, &b, mode[0]);
    let (sum2, carry2) = ripple_adder(&mut aig, &c, &d, mode[1]);
    let (less, equal, greater) = comparator(&mut aig, &a, &c);
    let shifted = barrel_shifter(&mut aig, &b[0..32], &sh);
    let r1 = mux_bank(&mut aig, mode[2], &sum1, &sum2);
    let r2 = mux_bank(&mut aig, mode[3], &r1[0..32], &shifted);
    let par1 = parity_tree(&mut aig, &a);
    let par2 = parity_tree(&mut aig, &d);
    let mixed = mixing_rounds(&mut aig, &misc, 3, 0x5315);
    let mixed2 = mixing_rounds(&mut aig, &c[0..28], 2, 0x5316);

    for (i, &r) in r2.iter().enumerate() {
        aig.add_named_output(r, format!("r{i}"));
    }
    for (i, &s) in sum2.iter().enumerate().take(36) {
        aig.add_named_output(s, format!("s{i}"));
    }
    for (i, &m) in mixed.iter().chain(mixed2.iter()).enumerate() {
        aig.add_named_output(m, format!("y{i}"));
    }
    aig.add_named_output(carry1, "c1");
    aig.add_named_output(carry2, "c2");
    aig.add_named_output(less, "lt");
    aig.add_named_output(equal, "eq");
    aig.add_named_output(greater, "gt");
    aig.add_named_output(par1, "p1");
    aig.add_named_output(par2, "p2");
    aig
}

/// c6288: a 16×16 array multiplier, the classic structure of the real
/// benchmark.
fn build_c6288() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 16);
    let b = inputs(&mut aig, "b", 16);
    let product = array_multiplier(&mut aig, &a, &b);
    for (i, &p) in product.iter().enumerate() {
        aig.add_named_output(p, format!("p{i}"));
    }
    aig
}

/// c7552 flavour: 34-bit adder + comparator + parity, 207 in / 108 out.
fn build_c7552() -> Aig {
    let mut aig = Aig::new();
    let a = inputs(&mut aig, "a", 34);
    let b = inputs(&mut aig, "b", 34);
    let c = inputs(&mut aig, "c", 34);
    let d = inputs(&mut aig, "d", 34);
    let e = inputs(&mut aig, "e", 34);
    let ctrl = inputs(&mut aig, "k", 17);
    let misc = inputs(&mut aig, "x", 20);

    let (sum1, carry1) = ripple_adder(&mut aig, &a, &b, ctrl[0]);
    let (sum2, carry2) = ripple_adder(&mut aig, &c, &d, ctrl[1]);
    let (sum3, carry3) = ripple_adder(&mut aig, &sum1, &e, ctrl[2]);
    let (less, equal, greater) = comparator(&mut aig, &sum1, &sum2);
    let (less2, _eq2, _gt2) = comparator(&mut aig, &c, &e);
    let par1 = parity_tree(&mut aig, &a);
    let par2 = parity_tree(&mut aig, &d);
    let muxed = mux_bank(&mut aig, less, &sum2, &sum3);
    let sel = decoder(&mut aig, &ctrl[3..7]);
    let gated: Vec<Lit> = misc
        .iter()
        .enumerate()
        .map(|(i, &p)| aig.and(p, sel[i % 16]))
        .collect();
    let mixed = mixing_rounds(&mut aig, &gated, 4, 0x7552);

    for (i, &m) in muxed.iter().enumerate() {
        aig.add_named_output(m, format!("r{i}"));
    }
    for (i, &s) in sum3.iter().enumerate().take(34) {
        aig.add_named_output(s, format!("s{i}"));
    }
    for (i, &y) in mixed.iter().enumerate().take(32) {
        aig.add_named_output(y, format!("y{i}"));
    }
    for (i, &s) in sum2.iter().enumerate().take(12) {
        aig.add_named_output(s, format!("t{i}"));
    }
    aig.add_named_output(carry1, "c1");
    aig.add_named_output(carry2, "c2");
    aig.add_named_output(carry3, "c3");
    aig.add_named_output(less2, "lt2");
    aig.add_named_output(par1, "p1");
    aig.add_named_output(par2, "p2");
    aig.add_named_output(equal, "eq");
    aig.add_named_output(greater, "gt");
    aig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interfaces_are_stable() {
        // (benchmark, inputs, outputs) — the generated interface contract.
        let expect = [
            (IscasBenchmark::C432, 36, 7),
            (IscasBenchmark::C499, 41, 32),
            (IscasBenchmark::C1355, 41, 32),
            (IscasBenchmark::C6288, 32, 32),
        ];
        for (b, pi, po) in expect {
            let aig = b.build();
            assert_eq!(aig.num_inputs(), pi, "{b} inputs");
            assert_eq!(aig.num_outputs(), po, "{b} outputs");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for b in IscasBenchmark::ALL {
            let x = b.build();
            let y = b.build();
            assert_eq!(x.num_ands(), y.num_ands(), "{b}");
            assert_eq!(x.num_inputs(), y.num_inputs());
            assert!(almost_aig::sim::probably_equivalent(&x, &y, 4, 1));
        }
    }

    #[test]
    fn sizes_are_in_the_right_ballpark() {
        for b in IscasBenchmark::PAPER_SEVEN {
            let aig = b.build();
            let target = b.paper_gate_count() as f64;
            let got = aig.num_ands() as f64;
            assert!(
                got > target * 0.3 && got < target * 3.0,
                "{b}: {got} ANDs vs paper {target} gates"
            );
        }
    }

    #[test]
    fn multiplier_benchmark_multiplies() {
        let aig = IscasBenchmark::C6288.build();
        let mut ins = vec![false; 32];
        // 7 * 11 = 77.
        for i in 0..16 {
            ins[i] = (7u64 >> i) & 1 != 0;
            ins[16 + i] = (11u64 >> i) & 1 != 0;
        }
        let out = aig.eval(&ins);
        let got: u64 = out
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (b as u64) << i);
        assert_eq!(got, 77);
    }

    #[test]
    fn name_roundtrip() {
        // Each name picks out exactly one benchmark.
        for b in IscasBenchmark::ALL {
            let named: Vec<IscasBenchmark> = IscasBenchmark::ALL
                .into_iter()
                .filter(|c| c.name() == b.name())
                .collect();
            assert_eq!(named, vec![b]);
        }
    }

    #[test]
    fn outputs_are_not_constant() {
        // Sanity: every benchmark must have live logic on most outputs.
        for b in IscasBenchmark::PAPER_SEVEN {
            let aig = b.build();
            let sim = almost_aig::sim::SimVectors::random(&aig, 4, 7);
            let live = aig
                .outputs()
                .iter()
                .filter(|&&l| {
                    let words: Vec<u64> =
                        (0..sim.num_words()).map(|w| sim.lit_word(l, w)).collect();
                    words.iter().any(|&w| w != 0) && words.iter().any(|&w| w != u64::MAX)
                })
                .count();
            assert!(
                live * 10 >= aig.num_outputs() * 7,
                "{b}: only {live}/{} outputs toggle",
                aig.num_outputs()
            );
        }
    }
}
