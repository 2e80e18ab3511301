//! # lintime-check
//!
//! Linearizability checking for recorded runs, implementing the correctness
//! condition of Section 2.3 of Wang, Talmage, Lee, Welch (IPPS 2014): a run
//! is correct when there is a permutation of its operation instances that is
//! legal for the sequential specification and respects the real-time order
//! of non-overlapping operations.
//!
//! * [`history`] — concurrent histories extracted from runs;
//! * [`wing_gong`] — the decision procedure (Wing–Gong search with Lowe's
//!   state memoization);
//! * [`monitor`] — type-specialized fast-path monitors (register, queue,
//!   stack, set/kv, counter) with Wing–Gong fallback via
//!   [`monitor::check_fast`];
//! * [`compositional`] — per-object checking for multi-object (product)
//!   histories, exploiting the locality of linearizability;
//! * [`stream`] — the online bounded-memory checker
//!   ([`stream::StreamChecker`]): feed live operation events, garbage-collect
//!   settled prefixes at canonical cuts, keep resident memory flat over
//!   arbitrarily long traces.
//!
//! There is one history type, [`history::History`]: completed operations
//! plus a column of pending ones. The offline checker has six entry points,
//! all of which decide Herlihy–Wing completions whenever that column is
//! non-empty (or refuse the history): [`wing_gong::check`] and
//! [`wing_gong::check_with`] (the general search), [`monitor::check_fast`]
//! and [`monitor::check_fast_with`] (the monitor fast path; the `_with` form
//! takes a `lintime_obs::Obs`), [`stream::replay_run`], and
//! [`compositional::check_components`]. Internally every check shares one
//! struct-of-arrays history arena (timestamps, sort orders, and payload
//! columns built once per decision, read by all parallel search workers).
//!
//! The paper's Construction 1 (the *specific* linearization Algorithm 1
//! induces) is verified separately in `lintime-core::construction`, since it
//! inspects algorithm-internal timestamps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod bitset;
pub mod compositional;
pub mod history;
pub mod monitor;
pub mod stream;
pub mod wing_gong;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::compositional::{check_components, ComponentVerdicts, ShardVerdicts};
    pub use crate::history::{History, PendingOp, TimedOp};
    pub use crate::monitor::{check_fast, check_fast_with, verify_witness, MonitorOutcome};
    pub use crate::stream::{
        replay_run, StreamChecker, StreamConfig, StreamStats, StreamVerdict, UnknownReason,
    };
    pub use crate::wing_gong::{check, check_with, CheckConfig, Verdict};
}
