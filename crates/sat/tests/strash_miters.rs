//! Brute-force checks of the hash-consed key miters on tiny locks.
//!
//! With at most four data inputs and four key bits, every key and every
//! input pattern can be enumerated, so each miter verdict is compared with
//! the definition it answers for:
//!
//! - [`KeyMiter::find_dip`] returns `Settled` exactly when no two keys
//!   consistent with the I/O constraints disagree on any input, and every
//!   `Found(x)` is such a disagreement;
//! - [`KeyMiter::two_dip`]'s `find_dip` returns `Settled` exactly when no
//!   input has two distinct output values each produced by a pair of
//!   distinct, probe-agreeing consistent keys, and every `Found(x)` is one;
//! - after a full DIP loop against a consistent oracle, the settled key
//!   computes the oracle's function, and contradictory constraints settle
//!   no key at all.
//!
//! The locks are random AIGs mixing key and data logic, so some gates are
//! key-free (shared between copies), some fold to constants under an I/O
//! constraint and some residue gates repeat across constraints.

use almost_aig::{Aig, Lit};
use almost_sat::{DipSearch, KeyMiter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Lock {
    aig: Aig,
    num_data: usize,
    key_start: usize,
    key_len: usize,
}

impl Lock {
    fn random(rng: &mut StdRng) -> Lock {
        let num_data = rng.random_range(1..=4usize);
        let key_len = rng.random_range(1..=4usize);
        let key_start = rng.random_range(0..=num_data);
        let mut aig = Aig::new();
        let mut lits: Vec<Lit> = Vec::new();
        for i in 0..num_data + key_len {
            lits.push(if (key_start..key_start + key_len).contains(&i) {
                aig.add_named_input(format!("keyinput{}", i - key_start))
            } else {
                aig.add_input()
            });
        }
        for _ in 0..rng.random_range(2..=14usize) {
            let a = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let b = lits[rng.random_range(0..lits.len())].xor_complement(rng.random());
            let gate = if rng.random_bool(0.3) {
                aig.xor(a, b)
            } else {
                aig.and(a, b)
            };
            lits.push(gate);
        }
        let first_gate = num_data + key_len;
        for _ in 0..rng.random_range(1..=3usize) {
            let out = lits[rng.random_range(first_gate..lits.len())];
            aig.add_output(out.xor_complement(rng.random()));
        }
        Lock {
            aig,
            num_data,
            key_start,
            key_len,
        }
    }

    fn bits(value: usize, width: usize) -> Vec<bool> {
        (0..width).map(|i| value >> i & 1 == 1).collect()
    }

    fn eval(&self, x: &[bool], key: &[bool]) -> Vec<bool> {
        let mut full = x[..self.key_start].to_vec();
        full.extend_from_slice(key);
        full.extend_from_slice(&x[self.key_start..]);
        self.aig.eval(&full)
    }

    fn inputs(&self) -> Vec<Vec<bool>> {
        (0..1 << self.num_data)
            .map(|v| Lock::bits(v, self.num_data))
            .collect()
    }

    /// Every key that reproduces each constraint `(x, y)`.
    fn consistent_keys(&self, constraints: &[(Vec<bool>, Vec<bool>)]) -> Vec<Vec<bool>> {
        (0..1 << self.key_len)
            .map(|v| Lock::bits(v, self.key_len))
            .filter(|k| constraints.iter().all(|(x, y)| &self.eval(x, k) == y))
            .collect()
    }

    /// True when two keys of `keys` disagree at `x`.
    fn is_dip(&self, keys: &[Vec<bool>], x: &[bool]) -> bool {
        keys.iter()
            .any(|k| self.eval(x, k) != self.eval(x, &keys[0]))
    }

    /// True when two distinct output values at `x` are each produced by a
    /// pair of distinct keys of `keys` that agree on every probe.
    fn is_two_dip(&self, keys: &[Vec<bool>], probes: &[Vec<bool>], x: &[bool]) -> bool {
        let mut paired: Vec<Vec<bool>> = Vec::new();
        for (i, k1) in keys.iter().enumerate() {
            for k2 in &keys[i + 1..] {
                let y = self.eval(x, k1);
                if y == self.eval(x, k2)
                    && probes.iter().all(|p| self.eval(p, k1) == self.eval(p, k2))
                    && !paired.contains(&y)
                {
                    paired.push(y);
                }
            }
        }
        paired.len() >= 2
    }
}

/// Random data patterns, answered either by a hidden key (consistent) or,
/// now and then, with random outputs (possibly contradictory).
fn random_constraints(
    lock: &Lock,
    hidden: &[bool],
    rng: &mut StdRng,
) -> Vec<(Vec<bool>, Vec<bool>)> {
    let lie = rng.random_bool(0.25);
    (0..rng.random_range(0..=3usize))
        .map(|_| {
            let x = Lock::bits(rng.random_range(0..1usize << lock.num_data), lock.num_data);
            let y = if lie {
                (0..lock.aig.num_outputs()).map(|_| rng.random()).collect()
            } else {
                lock.eval(&x, hidden)
            };
            (x, y)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn key_miter_verdicts_match_brute_force(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lock = Lock::random(&mut rng);
        let hidden = Lock::bits(rng.random_range(0..1usize << lock.key_len), lock.key_len);
        let mut constraints = random_constraints(&lock, &hidden, &mut rng);
        let mut miter = KeyMiter::new(&lock.aig, lock.key_start, lock.key_len);
        for (x, y) in &constraints {
            miter.constrain_io(x, y);
        }
        // Continue as a DIP loop against the hidden key's oracle; the
        // verdict is checked at every step.
        for _ in 0..=1usize << lock.key_len {
            let keys = lock.consistent_keys(&constraints);
            let any_dip = !keys.is_empty() && lock.inputs().iter().any(|x| lock.is_dip(&keys, x));
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    prop_assert!(!keys.is_empty() && lock.is_dip(&keys, &x), "not a DIP: {x:?}");
                    let y = lock.eval(&x, &hidden);
                    miter.constrain_io(&x, &y);
                    constraints.push((x, y));
                }
                DipSearch::Settled => {
                    prop_assert!(!any_dip, "settled while a DIP exists");
                    match miter.settle_key() {
                        None => prop_assert!(keys.is_empty(), "consistent keys exist"),
                        Some(k) => {
                            prop_assert!(keys.contains(&k), "settled key {k:?} is inconsistent");
                            if lock.consistent_keys(&constraints).contains(&hidden) {
                                for x in lock.inputs() {
                                    prop_assert_eq!(lock.eval(&x, &k), lock.eval(&x, &hidden));
                                }
                            }
                        }
                    }
                    return Ok(());
                }
                DipSearch::OutOfBudget => prop_assert!(false, "no budget was set"),
            }
        }
        prop_assert!(false, "the DIP loop outlived the key space");
    }

    #[test]
    fn double_dip_miter_verdicts_match_brute_force(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lock = Lock::random(&mut rng);
        let hidden = Lock::bits(rng.random_range(0..1usize << lock.key_len), lock.key_len);
        let mut constraints = random_constraints(&lock, &hidden, &mut rng);
        let probes: Vec<Vec<bool>> = (0..rng.random_range(0..=2usize))
            .map(|_| Lock::bits(rng.random_range(0..1usize << lock.num_data), lock.num_data))
            .collect();
        let mut miter =
            KeyMiter::two_dip(&lock.aig, lock.key_start, lock.key_len, &probes);
        for (x, y) in &constraints {
            miter.constrain_io(x, y);
        }
        for _ in 0..=1usize << lock.key_len {
            let keys = lock.consistent_keys(&constraints);
            let any = lock.inputs().iter().any(|x| lock.is_two_dip(&keys, &probes, x));
            match miter.find_dip(None) {
                DipSearch::Found(x) => {
                    prop_assert!(lock.is_two_dip(&keys, &probes, &x), "not a 2-DIP: {x:?}");
                    let y = lock.eval(&x, &hidden);
                    miter.constrain_io(&x, &y);
                    constraints.push((x, y));
                }
                DipSearch::Settled => {
                    prop_assert!(!any, "settled while a 2-DIP exists");
                    match miter.settle_key() {
                        None => prop_assert!(keys.is_empty(), "consistent keys exist"),
                        Some(k) => prop_assert!(keys.contains(&k), "settled key {k:?} is inconsistent"),
                    }
                    return Ok(());
                }
                DipSearch::OutOfBudget => prop_assert!(false, "no budget was set"),
            }
        }
        prop_assert!(false, "the 2-DIP loop outlived the key space");
    }
}
