//! # lintime-bench
//!
//! The benchmark and reproduction harness: every table and figure of the
//! paper has a generator here (see [`experiments`]), printed by the one
//! binary, `lintime` (`lintime report <name>`, `lintime attack …`), and a
//! timing bench under `benches` that measures the corresponding simulator
//! workload. The example programs
//! live under this crate's `examples/` directory, and the
//! workspace-level `tests/` directory is wired into this crate. The
//! robustness extension adds a fault-injection sweep
//! ([`experiments::fault_sweep_report`]) and a cross-backend availability
//! matrix ([`matrix`]), both run by `lintime faults`, and the
//! observability extension adds traced scenario replay ([`tracecmd`],
//! `lintime trace`) plus a `--metrics-out` snapshot flag on `lintime
//! faults` and `lintime report`. The streaming extension adds generated live event streams
//! ([`streamgen`], `lintime stream`, `benches/streaming.rs`) for the
//! bounded-memory online checker. The serving extension adds a sharded
//! multi-object deployment under open-loop load ([`serve`], `lintime
//! serve`) with per-shard online checking composed by locality, and a
//! shared structured flag parser for the generator-driven subcommands
//! ([`genflags`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod genflags;
pub mod matrix;
pub mod microbench;
pub mod serve;
pub mod streamgen;
pub mod sweep;
pub mod timeline;
pub mod tracecmd;
