//! Oracle-less attacks on logic locking.
//!
//! The attacks the ALMOST paper evaluates against (its §II), implemented
//! over the workspace's own substrates:
//!
//! - [`Omla`] — GIN subgraph classification of key-gate localities with
//!   self-referencing training (re-lock → re-synthesise with the
//!   defender's recipe → label by inserted bits).
//! - [`Scope`] — unsupervised constant-propagation attack comparing
//!   synthesis reports under both constants of each key bit.
//! - [`Redundancy`] — non-ML testability attack counting SAT-proved
//!   untestable faults per key hypothesis.
//! - [`Snapshot`] — SnapShot-style MLP over flattened localities (the
//!   "classic tensor-based model" family the paper contrasts with OMLA).
//!
//! All of the above implement [`OracleLessAttack`] and are scored with the
//! paper's metric: correctly predicted key bits / key size, unresolved
//! bits counting as incorrect.
//!
//! The crate also implements the *oracle-guided* threat model the paper's
//! baselines are measured against in the wider literature:
//!
//! - [`SatAttack`] — the HOST'15 SAT attack: a DIP loop over the
//!   key-conditioned [`almost_sat::KeyMiter`] with an activated-IC
//!   oracle, plus an AppSAT-style approximate mode with iteration/conflict
//!   budgets and random-query settlement. It implements [`OracleGuidedAttack`], and
//!   [`report::render_report`] shows both threat models side by side.
//! - [`DoubleDip`] — the GLSVLSI'17 2-DIP attack, over the same miter
//!   built by [`almost_sat::KeyMiter::two_dip`], that strips
//!   point-function defences (`almost_locking::SarLock`,
//!   `almost_locking::AntiSat`): each accepted input is guaranteed to
//!   eliminate at least two wrong keys, so one-key-per-input flips can
//!   never stall it and the base scheme's key is recovered.
//!   [`report::render_dip_scaling`] prints the family's defence metric —
//!   DIPs required versus the `2^k` exhaustion ceiling.

pub mod double_dip;
pub mod omla;
pub mod redundancy;
pub mod report;
pub mod sat_attack;
pub mod scope;
pub mod snapshot;
pub mod subgraph;
pub mod testutil;

pub use double_dip::{DoubleDip, DoubleDipConfig, DoubleDipRun};
pub use omla::{Omla, OmlaConfig};
pub use redundancy::{Redundancy, RedundancyConfig};
pub use report::{
    dip_log_consistent, render_dip_scaling, render_report, AttackOutcome, AttackTarget,
    DipIteration, DipScalingRow, OracleAttackOutcome, OracleGuidedAttack, OracleLessAttack,
    PortfolioStats, SolverStats,
};
pub use sat_attack::{SatAttack, SatAttackConfig, SatAttackMode, SatAttackRun};
pub use scope::{Scope, ScopeConfig};
pub use snapshot::{Snapshot, SnapshotConfig};
pub use subgraph::{extract_all_localities, SubgraphConfig, NUM_FEATURES};
