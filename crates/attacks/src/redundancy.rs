//! The redundancy attack: key recovery through testability analysis
//! (Li & Orailoglu, DATE 2019).
//!
//! Premise: shipped designs are fully testable, so the *correct* key
//! assignment yields a circuit with few untestable (redundant) stuck-at
//! faults; a wrong key constant introduces logic redundancy. For each key
//! bit the attack specialises the netlist under both constants, counts
//! SAT-proved-untestable faults over a sampled fault list, and picks the
//! hypothesis with fewer untestable faults.

use crate::report::{AttackOutcome, AttackTarget, OracleLessAttack};
use almost_aig::{Aig, Var};
use almost_locking::apply_key;
use almost_sat::test_stuck_at;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Redundancy-attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct RedundancyConfig {
    /// Number of fault sites sampled per hypothesis (each checked for both
    /// stuck-at-0 and stuck-at-1).
    pub fault_samples: usize,
    /// If set, only this many key bits (evenly sampled) are attacked;
    /// accuracy is reported over the sampled bits.
    pub max_bits: Option<usize>,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for RedundancyConfig {
    fn default() -> Self {
        RedundancyConfig {
            fault_samples: 24,
            max_bits: None,
            seed: 0xFA017,
        }
    }
}

/// The redundancy attack.
#[derive(Clone, Debug, Default)]
pub struct Redundancy {
    /// Attack configuration.
    pub config: RedundancyConfig,
}

impl Redundancy {
    /// A redundancy attacker with the given configuration.
    pub fn new(config: RedundancyConfig) -> Self {
        Redundancy { config }
    }

    /// Counts untestable faults in `aig` over a deterministic fault
    /// sample.
    pub fn count_untestable(&self, aig: &Aig, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sites: Vec<Var> = aig.iter_ands().collect();
        sites.shuffle(&mut rng);
        sites.truncate(self.config.fault_samples);
        let mut untestable = 0;
        for &site in &sites {
            for value in [false, true] {
                if test_stuck_at(aig, site, value).is_none() {
                    untestable += 1;
                }
            }
        }
        untestable
    }

    /// Decides one key bit; `None` when both hypotheses are equally
    /// redundant.
    pub fn decide_bit(&self, deployed: &Aig, key_start: usize, bit_offset: usize) -> Option<bool> {
        let mut counts = [0usize; 2];
        for (i, value) in [false, true].into_iter().enumerate() {
            let specialised = apply_key(deployed, key_start + bit_offset, &[value]);
            counts[i] = self.count_untestable(&specialised, self.config.seed ^ bit_offset as u64);
        }
        match counts[0].cmp(&counts[1]) {
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Equal => None,
        }
    }
}

impl OracleLessAttack for Redundancy {
    fn name(&self) -> &'static str {
        "Redundancy"
    }

    fn attack(&self, target: &AttackTarget) -> AttackOutcome {
        let key_start = target.locked.key_input_start;
        let key_size = target.locked.key_size();
        let bits = crate::scope::sample_bits(key_size, self.config.max_bits);
        let predicted: Vec<Option<bool>> = bits
            .iter()
            .map(|&k| self.decide_bit(&target.deployed, key_start, k))
            .collect();
        let truth: Vec<bool> = bits.iter().map(|&k| target.locked.key.bits()[k]).collect();
        AttackOutcome::score("Redundancy", predicted, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almost_aig::Script;
    use almost_circuits::IscasBenchmark;
    use almost_locking::{LockingScheme, Rll};

    #[test]
    fn untestable_count_detects_redundancy() {
        // A redundant circuit: out = x | (x & y). The (x & y) node's
        // stuck-at-0 is untestable.
        let mut redundant = Aig::new();
        let x = redundant.add_input();
        let y = redundant.add_input();
        let xy = redundant.and(x, y);
        let out = redundant.or(x, xy);
        redundant.add_output(out);
        redundant.add_output(xy); // keep the node observable on its own too

        // An irredundant circuit of the same size: out = x & y, out2 = x^y.
        let mut clean = Aig::new();
        let a = clean.add_input();
        let b = clean.add_input();
        let f = clean.and(a, b);
        let g = clean.xor(a, b);
        clean.add_output(f);
        clean.add_output(g);

        let att = Redundancy::new(RedundancyConfig {
            fault_samples: 16,
            seed: 1,
            ..RedundancyConfig::default()
        });
        // In `redundant`, at least the masked fault exists when only `out`
        // is observable; rebuild without the second output.
        let mut masked = Aig::new();
        let x2 = masked.add_input();
        let y2 = masked.add_input();
        let xy2 = masked.and(x2, y2);
        let o2 = masked.or(x2, xy2);
        masked.add_output(o2);
        assert!(att.count_untestable(&masked, 3) > 0);
        assert_eq!(att.count_untestable(&clean, 3), 0);
    }

    #[test]
    fn attack_returns_full_vector() {
        let mut rng = StdRng::seed_from_u64(9);
        let base = IscasBenchmark::C432.build();
        let locked = Rll::new(6).lock(&base, &mut rng).expect("lockable");
        let target = AttackTarget::new(locked, Script::default());
        let att = Redundancy::new(RedundancyConfig {
            fault_samples: 8,
            seed: 2,
            ..RedundancyConfig::default()
        });
        let outcome = att.attack(&target);
        assert_eq!(outcome.predicted.len(), 6);
        assert!((0.0..=1.0).contains(&outcome.accuracy));
    }
}
