//! # lintime-sim
//!
//! A deterministic discrete-event simulation of the partially synchronous
//! message-passing model of Wang, Talmage, Lee, Welch (IPPS 2014), Section
//! 2.2: `n` reliable processes with drift-free clocks synchronized to within
//! `ε`, exchanging point-to-point messages whose delays fall in `[d - u, d]`.
//!
//! * [`time`] — integer virtual time and the model parameters `(n, d, u, ε)`;
//! * [`node`] — the event-triggered process interface ([`node::Node`]) and
//!   effect sink ([`node::Effects`]);
//! * [`delay`] — deterministic message-delay models, including the pair-wise
//!   uniform matrices used by the lower-bound constructions;
//! * [`schedule`] — open-loop (timed) and closed-loop (scripted) invocation
//!   schedules, including the paper's `R_A(ρ, C, D)` prefix;
//! * [`workload`] — declarative workload mixes materialized into schedules;
//! * [`faults`] — deterministic, seedable fault injection
//!   ([`faults::FaultPlan`]): message drops/duplicates/delay overrides, node
//!   crashes, and stall windows, threaded through the engine;
//! * [`rng`] — a vendored SplitMix64 generator (no external dependencies);
//! * [`engine`] — the simulator: [`engine::simulate`] turns a
//!   [`engine::SimConfig`] plus a node factory into a recorded [`run::Run`];
//! * [`run`] — recorded runs: operation/message records, timed views,
//!   admissibility, and record-level shifting (Theorem 1);
//! * [`fragment`] — run fragments, the `chop` operator, and appendability
//!   (Section 4.1, Lemma 2).
//!
//! ## The shifting technique, executably
//!
//! `shift(R, x̄)` exists at two levels, and the test-suite checks they agree:
//!
//! 1. **Configuration level** — [`engine::SimConfig::shifted`] transforms
//!    `(C, D, schedule)` per Theorem 1 and *re-executes*; because processes
//!    cannot observe real time, the re-executed run has identical views.
//! 2. **Record level** — [`run::Run::shifted`] moves the recorded timestamps
//!    directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delay;
pub mod engine;
pub mod faults;
pub mod fragment;
pub mod node;
pub mod rng;
pub mod run;
pub mod schedule;
pub mod time;
pub mod workload;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::delay::DelaySpec;
    pub use crate::engine::{simulate, simulate_full, OpEvent, SimConfig};
    pub use crate::faults::{FaultPlan, InjectedFault, StallWindow};
    pub use crate::fragment::{apply_cuts, chop, shortest_paths, Fragment};
    pub use crate::node::{EffectParts, Effects, NoTimer, Node};
    pub use crate::rng::SplitMix64;
    pub use crate::run::{CrashedPendingByClass, MsgRecord, OpRecord, Run, StepTrigger, ViewStep};
    pub use crate::schedule::{Schedule, Script, TimedInvocation};
    pub use crate::time::{ModelParams, Pid, Time};
    pub use crate::workload::{Mix, Workload};
}
