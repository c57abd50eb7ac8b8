//! Truth tables over up to 16 variables, stored as bit-parallel `u64` words.
//!
//! Truth tables are the workhorse of cut-based synthesis: a cut's function is
//! computed by simulating the cone over the elementary variable tables, then
//! canonised ([NPN](crate::npn)), matched, or re-synthesised
//! ([ISOP](crate::isop)).

use std::fmt;

/// Maximum number of variables supported by [`Tt`].
pub const MAX_VARS: usize = 16;

const MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth table over `nvars` variables.
///
/// Bit `i` of the table is the function value for the input assignment whose
/// binary encoding is `i` (variable 0 is the least significant).
///
/// # Example
///
/// ```
/// use almost_aig::Tt;
/// let a = Tt::var(0, 2);
/// let b = Tt::var(1, 2);
/// let f = a.and(&b);
/// assert_eq!(f.count_ones(), 1);
/// assert!(f.get_bit(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: usize,
    words: Vec<u64>,
}

fn words_for(nvars: usize) -> usize {
    if nvars <= 6 {
        1
    } else {
        1 << (nvars - 6)
    }
}

/// Mask selecting the valid bits of the (single) word of a small table.
fn small_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << nvars)) - 1
    }
}

impl Tt {
    /// The constant-false table over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 16`.
    pub fn zero(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        Tt {
            nvars,
            words: vec![0; words_for(nvars)],
        }
    }

    /// The constant-true table over `nvars` variables.
    pub fn one(nvars: usize) -> Self {
        let mut tt = Tt::zero(nvars);
        for w in &mut tt.words {
            *w = u64::MAX;
        }
        tt.mask();
        tt
    }

    /// The projection function for variable `var` over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= nvars` or `nvars > 16`.
    pub fn var(var: usize, nvars: usize) -> Self {
        assert!(var < nvars, "variable {var} out of range for {nvars} vars");
        let mut tt = Tt::zero(nvars);
        if var < 6 {
            for w in &mut tt.words {
                *w = MASKS[var];
            }
        } else {
            let stride = 1 << (var - 6);
            let mut i = 0;
            while i < tt.words.len() {
                for j in 0..stride {
                    if i + stride + j < tt.words.len() {
                        tt.words[i + stride + j] = u64::MAX;
                    }
                }
                i += 2 * stride;
            }
        }
        tt.mask();
        tt
    }

    /// Builds a table from raw words.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match the word count for `nvars`.
    pub fn from_words(nvars: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(nvars));
        let mut tt = Tt { nvars, words };
        tt.mask();
        tt
    }

    /// Builds a ≤6-variable table from a single word.
    pub fn from_u64(nvars: usize, word: u64) -> Self {
        assert!(nvars <= 6);
        let mut tt = Tt {
            nvars,
            words: vec![word],
        };
        tt.mask();
        tt
    }

    fn mask(&mut self) {
        if self.nvars < 6 {
            self.words[0] &= small_mask(self.nvars);
        }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The underlying words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// For tables of ≤6 variables, the single backing word.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than 6 variables.
    pub fn as_u64(&self) -> u64 {
        assert!(self.nvars <= 6);
        self.words[0]
    }

    /// Reads the function value for input assignment `index`.
    pub fn get_bit(&self, index: usize) -> bool {
        (self.words[index >> 6] >> (index & 63)) & 1 != 0
    }

    /// Sets the function value for input assignment `index`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        if value {
            self.words[index >> 6] |= 1 << (index & 63);
        } else {
            self.words[index >> 6] &= !(1 << (index & 63));
        }
    }

    /// Number of input assignments (2^nvars).
    pub fn num_bits(&self) -> usize {
        1 << self.nvars
    }

    /// Number of minterms (assignments mapped to true).
    pub fn count_ones(&self) -> u32 {
        if self.nvars < 6 {
            (self.words[0] & small_mask(self.nvars)).count_ones()
        } else {
            self.words.iter().map(|w| w.count_ones()).sum()
        }
    }

    /// Returns true if the table is constant false.
    pub fn is_zero(&self) -> bool {
        self.count_ones() == 0
    }

    /// Returns true if the table is constant true.
    pub fn is_one(&self) -> bool {
        self.count_ones() as usize == self.num_bits()
    }

    /// Bitwise complement.
    pub fn not(&self) -> Tt {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask();
        out
    }

    /// Bitwise AND with another table over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn and(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(&self, other: &Tt) -> Tt {
        self.zip(other, |a, b| a ^ b)
    }

    fn zip(&self, other: &Tt, op: fn(u64, u64) -> u64) -> Tt {
        assert_eq!(self.nvars, other.nvars, "variable counts differ");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| op(a, b))
            .collect();
        let mut tt = Tt {
            nvars: self.nvars,
            words,
        };
        tt.mask();
        tt
    }

    /// Positive cofactor: the function with `var` fixed to 1 (the result
    /// still ranges over the same variable set, with `var` redundant).
    pub fn cofactor1(&self, var: usize) -> Tt {
        assert!(var < self.nvars);
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut out.words {
                let hi = *w & MASKS[var];
                *w = hi | (hi >> shift);
            }
        } else {
            let stride = 1 << (var - 6);
            let n = out.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    out.words[i + j] = out.words[i + stride + j];
                }
                i += 2 * stride;
            }
        }
        out.mask();
        out
    }

    /// Negative cofactor: the function with `var` fixed to 0.
    pub fn cofactor0(&self, var: usize) -> Tt {
        assert!(var < self.nvars);
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            for w in &mut out.words {
                let lo = *w & !MASKS[var];
                *w = lo | (lo << shift);
            }
        } else {
            let stride = 1 << (var - 6);
            let n = out.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    out.words[i + stride + j] = out.words[i + j];
                }
                i += 2 * stride;
            }
        }
        out.mask();
        out
    }

    /// Returns true if the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Swaps two variables of the function.
    pub fn swap_vars(&self, a: usize, b: usize) -> Tt {
        if a == b {
            return self.clone();
        }
        let ta = Tt::var(a, self.nvars);
        let tb = Tt::var(b, self.nvars);
        // f' = (f with a=1,b=1 on a&b) | ... via cofactor recomposition.
        let f11 = self.cofactor1(a).cofactor1(b);
        let f10 = self.cofactor1(a).cofactor0(b);
        let f01 = self.cofactor0(a).cofactor1(b);
        let f00 = self.cofactor0(a).cofactor0(b);
        // After swapping, (a,b) plays the role of (b,a).
        let mut out = Tt::zero(self.nvars);
        out = out.or(&ta.and(&tb).and(&f11));
        out = out.or(&ta.and(&tb.not()).and(&f01));
        out = out.or(&ta.not().and(&tb).and(&f10));
        out = out.or(&ta.not().and(&tb.not()).and(&f00));
        out
    }

    /// Flips (complements) one input variable of the function.
    pub fn flip_var(&self, var: usize) -> Tt {
        let tv = Tt::var(var, self.nvars);
        let c0 = self.cofactor0(var);
        let c1 = self.cofactor1(var);
        tv.and(&c0).or(&tv.not().and(&c1))
    }

    /// Applies an input permutation: output variable `i` takes the role of
    /// input variable `perm[i]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute(&self, perm: &[usize]) -> Tt {
        assert_eq!(perm.len(), self.nvars);
        let mut out = Tt::zero(self.nvars);
        for idx in 0..self.num_bits() {
            if self.get_bit(idx) {
                let mut new_idx = 0usize;
                for (new_var, &old_var) in perm.iter().enumerate() {
                    if (idx >> old_var) & 1 != 0 {
                        new_idx |= 1 << new_var;
                    }
                }
                out.set_bit(new_idx, true);
            }
        }
        out
    }

    /// Extends the table to `nvars` variables (the new variables are
    /// redundant).
    ///
    /// # Panics
    ///
    /// Panics if `nvars` is smaller than the current variable count.
    pub fn extend_to(&self, nvars: usize) -> Tt {
        assert!(nvars >= self.nvars);
        if nvars == self.nvars {
            return self.clone();
        }
        let mut out = Tt::zero(nvars);
        let self_bits = self.num_bits();
        for idx in 0..out.num_bits() {
            if self.get_bit(idx % self_bits) {
                out.set_bit(idx, true);
            }
        }
        out
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt({}v,", self.nvars)?;
        for w in self.words.iter().rev() {
            write!(f, " {w:016x}")?;
        }
        write!(f, ")")
    }
}

/// A truth table over at most 8 variables in fixed, stack-allocated
/// 256-bit storage: the fast path of the cut and window kernels.
///
/// A function of `n < 8` variables is stored *replicated*: the table
/// ranges over all 8 variables and simply does not depend on variables
/// `n..8`. Every operation preserves that, so equality, complement,
/// cofactors and support of two functions over the same `n` variables
/// agree with the corresponding [`Tt`] operations, and `count_ones` is the
/// `n`-variable count scaled by `2^(8 - n)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tt8(pub [u64; 4]);

impl Tt8 {
    /// Constant false.
    pub const ZERO: Tt8 = Tt8([0; 4]);
    /// Constant true.
    pub const ONE: Tt8 = Tt8([u64::MAX; 4]);

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= 8`.
    pub fn var(var: usize) -> Tt8 {
        match var {
            0..=5 => Tt8([MASKS[var]; 4]),
            6 => Tt8([0, u64::MAX, 0, u64::MAX]),
            7 => Tt8([0, 0, u64::MAX, u64::MAX]),
            _ => panic!("variable {var} out of range for an 8-variable table"),
        }
    }

    /// Replicates a 4-variable table (bit `i` = value on assignment `i`).
    pub fn from_u16(bits: u16) -> Tt8 {
        let w = bits as u64 * 0x0001_0001_0001_0001;
        Tt8([w; 4])
    }

    /// Converts a table of at most 8 variables.
    ///
    /// # Panics
    ///
    /// Panics if `tt` has more than 8 variables.
    pub fn from_tt(tt: &Tt) -> Tt8 {
        let words = tt.words();
        match tt.nvars() {
            0..=6 => {
                let mut w = words[0];
                for k in tt.nvars()..6 {
                    w |= w << (1 << k);
                }
                Tt8([w; 4])
            }
            7 => Tt8([words[0], words[1], words[0], words[1]]),
            8 => Tt8([words[0], words[1], words[2], words[3]]),
            n => panic!("{n}-variable table does not fit in 8 variables"),
        }
    }

    /// The table as a [`Tt`] over its first `nvars` variables.
    pub fn to_tt(self, nvars: usize) -> Tt {
        assert!(nvars <= 8, "at most 8 variables");
        Tt::from_words(nvars, self.0[..words_for(nvars)].to_vec())
    }

    /// Bitwise complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tt8 {
        self.map(|w| !w)
    }

    /// Complements the table iff `c` is true.
    pub fn xor_complement(self, c: bool) -> Tt8 {
        if c {
            self.not()
        } else {
            self
        }
    }

    /// Bitwise AND.
    pub fn and(self, other: Tt8) -> Tt8 {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR.
    pub fn or(self, other: Tt8) -> Tt8 {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    pub fn xor(self, other: Tt8) -> Tt8 {
        self.zip(other, |a, b| a ^ b)
    }

    fn map(self, f: impl Fn(u64) -> u64) -> Tt8 {
        Tt8(self.0.map(f))
    }

    fn zip(self, other: Tt8, f: impl Fn(u64, u64) -> u64) -> Tt8 {
        Tt8(std::array::from_fn(|i| f(self.0[i], other.0[i])))
    }

    /// Negative cofactor: `var` fixed to 0 (and then redundant).
    pub fn cofactor0(self, var: usize) -> Tt8 {
        let w = self.0;
        match var {
            0..=5 => self.map(|x| {
                let lo = x & !MASKS[var];
                lo | lo << (1 << var)
            }),
            6 => Tt8([w[0], w[0], w[2], w[2]]),
            _ => Tt8([w[0], w[1], w[0], w[1]]),
        }
    }

    /// Positive cofactor: `var` fixed to 1 (and then redundant).
    pub fn cofactor1(self, var: usize) -> Tt8 {
        let w = self.0;
        match var {
            0..=5 => self.map(|x| {
                let hi = x & MASKS[var];
                hi | hi >> (1 << var)
            }),
            6 => Tt8([w[1], w[1], w[3], w[3]]),
            _ => Tt8([w[2], w[3], w[2], w[3]]),
        }
    }

    /// Returns true if the function depends on `var`.
    pub fn depends_on(self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// Number of true rows over all 8 variables.
    pub fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Returns true if the table is constant false.
    pub fn is_zero(self) -> bool {
        self == Tt8::ZERO
    }

    /// Returns true if the table is constant true.
    pub fn is_one(self) -> bool {
        self == Tt8::ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementary_variables() {
        for nvars in 1..=8 {
            for v in 0..nvars {
                let tt = Tt::var(v, nvars);
                for idx in 0..tt.num_bits() {
                    assert_eq!(tt.get_bit(idx), (idx >> v) & 1 != 0, "v={v} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn constants() {
        let z = Tt::zero(4);
        let o = Tt::one(4);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 16);
        assert_eq!(z.not(), o);
    }

    #[test]
    fn small_tables_stay_masked() {
        let o = Tt::one(2);
        assert_eq!(o.as_u64(), 0xF);
        let a = Tt::var(0, 1);
        assert_eq!(a.as_u64(), 0b10);
        assert_eq!(a.not().as_u64(), 0b01);
    }

    #[test]
    fn boolean_ops() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c.not());
        for idx in 0..8 {
            let (va, vb, vc) = (idx & 1 != 0, idx & 2 != 0, idx & 4 != 0);
            assert_eq!(f.get_bit(idx), (va && vb) || !vc);
        }
    }

    #[test]
    fn cofactors_small() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let f = a.xor(&b);
        assert_eq!(f.cofactor0(0), b);
        assert_eq!(f.cofactor1(0), b.not());
        assert!(!f.depends_on(2));
        assert_eq!(f.support(), vec![0, 1]);
    }

    #[test]
    fn cofactors_large() {
        // 8-variable table: f = x7 XOR x0.
        let a = Tt::var(0, 8);
        let h = Tt::var(7, 8);
        let f = a.xor(&h);
        assert_eq!(f.cofactor0(7), a);
        assert_eq!(f.cofactor1(7), a.not());
        assert_eq!(f.cofactor0(0), h);
        assert!(f.depends_on(7));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn swap_and_flip() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let f = a.and(&b.not());
        let g = f.swap_vars(0, 1);
        assert_eq!(g, b.and(&a.not()));
        let h = f.flip_var(1);
        assert_eq!(h, a.and(&b));
    }

    #[test]
    fn permute_matches_definition() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c);
        let perm = [1usize, 2, 0];
        let g = f.permute(&perm);
        // g(new_idx) = f(idx) where new_idx bit i = idx bit perm[i].
        for idx in 0..8usize {
            let mut new_idx = 0usize;
            for (new_var, &old_var) in perm.iter().enumerate() {
                if (idx >> old_var) & 1 != 0 {
                    new_idx |= 1 << new_var;
                }
            }
            assert_eq!(g.get_bit(new_idx), f.get_bit(idx), "idx={idx}");
        }
        // A swap expressed as a permutation equals swap_vars.
        let swap = f.permute(&[1, 0, 2]);
        assert_eq!(swap, f.swap_vars(0, 1));
    }

    #[test]
    fn extend_keeps_function() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        let f = a.xor(&b);
        let g = f.extend_to(4);
        for idx in 0..16 {
            assert_eq!(g.get_bit(idx), f.get_bit(idx & 3));
        }
        assert!(!g.depends_on(2));
        assert!(!g.depends_on(3));
    }
}
