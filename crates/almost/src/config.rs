//! Experiment scaling: `quick` (laptop-friendly defaults used by `cargo
//! bench`) vs `paper` (the §IV-A hyperparameters).
//!
//! Selected via the `ALMOST_SCALE` environment variable, which takes one
//! of three values:
//!
//! - `quick` (the default when unset): [`Scale::Quick`];
//! - `ci`: also [`Scale::Quick`] for every harness; the value only opts
//!   the release test job into the full-size scenarios that read
//!   `ALMOST_SCALE` themselves (the c1355 SARLock-over-RLL Double DIP
//!   scenario in `tests/double_dip_recovery.rs`);
//! - `paper`: [`Scale::Paper`], the full-scale reproduction (hours).
//!
//! Any other value runs at quick scale with a warning on stderr.

use crate::proxy::ProxyConfig;
use crate::sa::SaConfig;
use almost_attacks::subgraph::SubgraphConfig;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sample counts / epochs / SA budgets so every bench target
    /// finishes in minutes.
    Quick,
    /// The paper's §IV-A settings (1000 samples, 350 epochs, R = 50,
    /// 200-sample augments, 100 SA iterations, 1000-recipe random set).
    Paper,
}

impl Scale {
    /// Reads `ALMOST_SCALE` (default [`Scale::Quick`]; see the
    /// [module documentation](self) for its values). An unknown value
    /// selects [`Scale::Quick`] and warns on stderr.
    pub fn from_env() -> Scale {
        let value = match std::env::var("ALMOST_SCALE") {
            Err(std::env::VarError::NotPresent) => return Scale::Quick,
            value => value.unwrap_or_default(),
        };
        Scale::parse(&value).unwrap_or_else(|| {
            eprintln!("warning: ALMOST_SCALE={value:?} is not quick, ci or paper; using quick");
            Scale::Quick
        })
    }

    /// The scale an `ALMOST_SCALE` value selects, or `None` for a value
    /// other than `quick`, `ci` or `paper` (lower or upper case).
    fn parse(value: &str) -> Option<Scale> {
        match value {
            "quick" | "QUICK" | "ci" | "CI" => Some(Scale::Quick),
            "paper" | "PAPER" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Proxy-model training configuration at this scale.
    pub fn proxy_config(self, seed: u64) -> ProxyConfig {
        match self {
            Scale::Quick => ProxyConfig {
                initial_samples: 120,
                augment_samples: 40,
                epochs: 36,
                period: 12,
                relock_key_size: 40,
                hidden: 20,
                layers: 2,
                batch_size: 32,
                learning_rate: 5e-3,
                subgraph: SubgraphConfig {
                    hops: 3,
                    max_nodes: 32,
                },
                adversarial_sa: SaConfig {
                    iterations: 6,
                    seed: seed ^ 0xAD,
                    ..SaConfig::default()
                },
                seed,
            },
            Scale::Paper => ProxyConfig {
                initial_samples: 1000,
                augment_samples: 200,
                epochs: 350,
                period: 50,
                relock_key_size: 32,
                hidden: 32,
                layers: 3,
                batch_size: 64,
                learning_rate: 3e-3,
                subgraph: SubgraphConfig {
                    hops: 3,
                    max_nodes: 48,
                },
                adversarial_sa: SaConfig {
                    iterations: 20,
                    seed: seed ^ 0xAD,
                    ..SaConfig::default()
                },
                seed,
            },
        }
    }

    /// Recipe-search SA configuration (Fig. 4: 100 iterations, T0 = 120,
    /// acceptance = 1.8), proposing one mutation per temperature step, so
    /// the trajectory is bit-identical to the serial annealer.
    pub fn sa_config(self, seed: u64) -> SaConfig {
        let iterations = match self {
            Scale::Quick => 7,
            Scale::Paper => 100,
        };
        SaConfig {
            iterations,
            seed,
            ..SaConfig::default()
        }
    }

    /// Size of the "random set" used in Table I.
    pub fn random_set_size(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Paper => 1000,
        }
    }

    /// Key bits actually evaluated by the per-bit attacks (SCOPE and the
    /// redundancy attack specialise + synthesise per bit, so quick mode
    /// samples a subset).
    pub fn attack_bit_sample(self) -> Option<usize> {
        match self {
            Scale::Quick => Some(8),
            Scale::Paper => None,
        }
    }

    /// Key sizes evaluated (the paper uses 64 and 128).
    pub fn key_sizes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[64],
            Scale::Paper => &[64, 128],
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // (Does not consult the env var, to stay hermetic.)
        let s = Scale::Quick;
        assert_eq!(s.label(), "quick");
        assert!(s.proxy_config(1).initial_samples < 500);
    }

    #[test]
    fn scale_values_parse_and_unknown_ones_are_rejected() {
        for (value, scale) in [
            ("quick", Scale::Quick),
            ("QUICK", Scale::Quick),
            ("ci", Scale::Quick),
            ("CI", Scale::Quick),
            ("paper", Scale::Paper),
            ("PAPER", Scale::Paper),
        ] {
            assert_eq!(Scale::parse(value), Some(scale), "{value}");
        }
        for value in ["", "full", "Paper", "ci ", "fast"] {
            assert_eq!(Scale::parse(value), None, "{value:?}");
        }
    }

    #[test]
    fn paper_scale_matches_section_iv_a() {
        let cfg = Scale::Paper.proxy_config(0);
        assert_eq!(cfg.initial_samples, 1000);
        assert_eq!(cfg.augment_samples, 200);
        assert_eq!(cfg.epochs, 350);
        assert_eq!(cfg.period, 50);
        let sa = Scale::Paper.sa_config(0);
        assert_eq!(sa.iterations, 100);
        assert_eq!(sa.initial_temperature, 120.0);
        assert_eq!(sa.acceptance, 1.8);
        assert_eq!(Scale::Paper.random_set_size(), 1000);
        assert_eq!(Scale::Paper.key_sizes(), &[64, 128]);
    }
}
