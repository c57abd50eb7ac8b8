//! NPN canonisation of small truth tables.
//!
//! Two functions are NPN-equivalent if one can be obtained from the other by
//! Negating inputs, Permuting inputs, and/or Negating the output; the
//! 65 536 four-variable functions fall into 222 classes.
//!
//! No synthesis kernel canonises on its hot path. The rewriting passes
//! resynthesise each cut function directly (see [`crate::isop::Resynth`]),
//! and the technology mapper looks cut functions up in an index of every
//! binding of every library cell, which holds exactly the bindings an NPN
//! class search would find. [`canonize`] is the exhaustive reference that
//! index is tested against.

use crate::truth::Tt;

/// A concrete NPN transformation: apply input negations (`input_flips`),
/// then the permutation (`perm[i]` = which original variable feeds new
/// position `i`), then optional output negation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Bitmask of inputs complemented before permutation.
    pub input_flips: u32,
    /// Permutation applied after flipping.
    pub perm: Vec<usize>,
    /// Whether the output is complemented.
    pub output_flip: bool,
}

impl NpnTransform {
    /// The identity transformation over `nvars` variables.
    pub fn identity(nvars: usize) -> Self {
        NpnTransform {
            input_flips: 0,
            perm: (0..nvars).collect(),
            output_flip: false,
        }
    }

    /// Applies this transformation to a truth table.
    pub fn apply(&self, tt: &Tt) -> Tt {
        let mut t = tt.clone();
        for v in 0..t.nvars() {
            if self.input_flips >> v & 1 != 0 {
                t = t.flip_var(v);
            }
        }
        t = t.permute(&self.perm);
        if self.output_flip {
            t = t.not();
        }
        t
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, remaining: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            let v = remaining.remove(i);
            prefix.push(v);
            rec(prefix, remaining, out);
            prefix.pop();
            remaining.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// Canonises a truth table of up to 4 variables under NPN equivalence by
/// exhaustive search (at most 2·16·24 = 768 transforms).
///
/// Returns the canonical representative (the minimum table under word
/// ordering) and a transformation such that `transform.apply(tt) ==
/// canonical`.
///
/// # Panics
///
/// Panics if `tt` has more than 4 variables.
pub fn canonize(tt: &Tt) -> (Tt, NpnTransform) {
    let n = tt.nvars();
    assert!(
        n <= 4,
        "exhaustive NPN canonisation is limited to 4 variables"
    );
    let perms = permutations(n);
    let mut best: Option<(Tt, NpnTransform)> = None;
    for flips in 0..(1u32 << n) {
        let mut flipped = tt.clone();
        for v in 0..n {
            if flips >> v & 1 != 0 {
                flipped = flipped.flip_var(v);
            }
        }
        for perm in &perms {
            let permuted = flipped.permute(perm);
            for &out_flip in &[false, true] {
                let cand = if out_flip {
                    permuted.not()
                } else {
                    permuted.clone()
                };
                let better = match &best {
                    None => true,
                    Some((b, _)) => cand.words() < b.words(),
                };
                if better {
                    best = Some((
                        cand,
                        NpnTransform {
                            input_flips: flips,
                            perm: perm.clone(),
                            output_flip: out_flip,
                        },
                    ));
                }
            }
        }
    }
    best.expect("at least the identity transform exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_roundtrip() {
        let a = Tt::var(0, 3);
        let b = Tt::var(1, 3);
        let c = Tt::var(2, 3);
        let f = a.and(&b).or(&c.not());
        let (canon, tr) = canonize(&f);
        assert_eq!(tr.apply(&f), canon);
    }

    #[test]
    fn npn_equivalent_functions_share_canon() {
        let a = Tt::var(0, 2);
        let b = Tt::var(1, 2);
        // AND, NOR, a&!b, !a&b, NAND, OR ... all NPN-equivalent to AND2.
        let funcs = [
            a.and(&b),
            a.not().and(&b.not()),
            a.and(&b.not()),
            a.not().and(&b),
            a.and(&b).not(),
            a.or(&b),
        ];
        let canon0 = canonize(&funcs[0]).0;
        for f in &funcs[1..] {
            assert_eq!(canonize(f).0, canon0);
        }
        // XOR is in a different class.
        assert_ne!(canonize(&a.xor(&b)).0, canon0);
    }

    #[test]
    fn four_var_class_count_is_plausible() {
        // Count NPN classes over a sample of 4-var functions; the classic
        // result is 222 classes over all 65536 functions. A random sample
        // must never produce more canonical forms than inputs and every
        // canonical form must be a fixed point.
        let mut classes = std::collections::HashSet::new();
        let mut seed = 1u64;
        for _ in 0..64 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let f = Tt::from_u64(4, seed >> 32);
            let (canon, _) = canonize(&f);
            let (canon2, _) = canonize(&canon);
            assert_eq!(canon, canon2, "canonisation must be idempotent");
            classes.insert(canon.words().to_vec());
        }
        assert!(classes.len() <= 64);
        assert!(classes.len() > 5, "random sample spans several classes");
    }

    #[test]
    fn identity_transform_is_noop() {
        let f = Tt::from_u64(3, 0x5A);
        let id = NpnTransform::identity(3);
        assert_eq!(id.apply(&f), f);
    }
}
