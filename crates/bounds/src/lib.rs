//! # lintime-bounds
//!
//! The quantitative content of Wang, Talmage, Lee, Welch (IPPS 2014), made
//! executable:
//!
//! * [`formulas`] — every bound expression (Theorems 2–5, Lemma 4, previous
//!   work) as a function of the model parameters;
//! * [`tables`] — generators for Tables 1–5, with a "measured" column filled
//!   by running Algorithm 1 on the simulator;
//! * [`fig11`] — Figure 11 (operation-class relationships) computed from the
//!   executable classification of every built-in data type;
//! * [`adversary`] — the lower-bound proof constructions as attacks that
//!   exhibit checker-verified linearizability violations against
//!   too-fast victim algorithms, and fail against the standard Algorithm 1;
//! * [`theorem`] — the one standard instance of each Theorem 2–5
//!   construction that the reports, searches and benches run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod crossover;
pub mod fig11;
pub mod formulas;
pub mod tables;
pub mod theorem;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::adversary::{
        interference_attack, thm2_attack, thm3_attack, thm4_attack, thm4_attack_seeded,
        thm5_attack, AttackReport, Outcome,
    };
    pub use crate::crossover::{find_crossover, Crossover};
    pub use crate::fig11::{check_relationships, classify_all, render as render_fig11};
    pub use crate::formulas;
    pub use crate::tables::{
        measure_into, measure_worst_case, table1, table2, table3, table4, table5, Table, TableRow,
    };
    pub use crate::theorem::Theorem;
}
