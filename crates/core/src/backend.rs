//! A uniform `Backend` abstraction over every implementation in this crate.
//!
//! The paper's Algorithm 1 and the folklore baselines assume reliable
//! channels and crash-free processes; the quorum register
//! ([`crate::mr_register`]) and the recovery wrapper ([`crate::reliable`])
//! each relax a different part of that assumption. This module makes those
//! differences *declarative*: every backend states the fault classes it
//! claims to survive ([`FaultTolerance`]), and [`run_backend`] drives any of
//! them through the simulator uniformly, folding backend-specific
//! bookkeeping (recovery-layer suspects, quorum metrics) into one
//! [`BackendRun`].
//!
//! The availability matrix in `lintime-bench` sweeps
//! scenario × backend cells and uses the tolerance claims to decide which
//! cells *must* stay linearizable: a `NotLinearizable` verdict inside a
//! claimed-tolerated cell on a non-suspect run is a confirmed violation.

use crate::cluster::{Algorithm, AnyNode};
use lintime_adt::spec::{ObjectSpec, SpecKind};
use lintime_obs::Obs;
use lintime_sim::engine::{simulate_full, SimConfig};
use lintime_sim::run::Run;
use lintime_sim::time::{ModelParams, Pid};
use std::fmt;
use std::sync::Arc;

/// The fault classes a backend claims to survive *without* losing
/// linearizability or availability (completed operations may slow down, but
/// must not return wrong values, and non-crashed invokers must still get
/// responses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTolerance {
    /// Maximum number of process crashes tolerated.
    pub crashes: usize,
    /// Survives message omission (drops).
    pub omission: bool,
    /// Survives message duplication.
    pub duplication: bool,
    /// Survives bounded process stalls (delivery-window pauses).
    pub stalls: bool,
}

impl FaultTolerance {
    /// No tolerance claims at all.
    pub const NONE: FaultTolerance =
        FaultTolerance { crashes: 0, omission: false, duplication: false, stalls: false };

    /// Human-readable summary, e.g. `"crashes≤2 +dup +stall"`.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.crashes > 0 {
            parts.push(format!("crashes≤{}", self.crashes));
        }
        if self.omission {
            parts.push("+drop".to_string());
        }
        if self.duplication {
            parts.push("+dup".to_string());
        }
        if self.stalls {
            parts.push("+stall".to_string());
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// A runnable shared-object implementation: something that can build a node
/// per process and declare what faults it survives.
///
/// Implemented by [`Algorithm`]; the trait exists so drivers (simulator
/// sweeps, the live runtime router, the availability matrix) can treat all
/// implementations — and future ones — uniformly.
pub trait Backend {
    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// Build the node for process `pid`, attaching `obs` where the backend
    /// exports metrics.
    fn make_node(
        &self,
        pid: Pid,
        spec: &Arc<dyn ObjectSpec>,
        params: ModelParams,
        obs: &Obs,
    ) -> AnyNode;

    /// The fault classes this backend claims to survive in a cluster of
    /// `params.n` processes.
    fn tolerance(&self, params: ModelParams) -> FaultTolerance;

    /// Whether this backend can implement `spec` at all (e.g. the quorum
    /// register only implements read/write registers).
    fn supports(&self, spec: &Arc<dyn ObjectSpec>) -> Result<(), String> {
        let _ = spec;
        Ok(())
    }
}

impl Backend for Algorithm {
    fn label(&self) -> String {
        Algorithm::label(self)
    }

    fn make_node(
        &self,
        pid: Pid,
        spec: &Arc<dyn ObjectSpec>,
        params: ModelParams,
        obs: &Obs,
    ) -> AnyNode {
        AnyNode::build_observed(*self, pid, Arc::clone(spec), params, obs)
    }

    fn tolerance(&self, params: ModelParams) -> FaultTolerance {
        match self {
            // Algorithm 1 assumes reliable channels, live processes, and
            // honest timers; stalls break its timer-based ordering windows.
            // The batching wrapper only re-times announcements (within the
            // stretched waits), so it inherits the same claims.
            Algorithm::Wtlw { .. } | Algorithm::WtlwWaits(_) | Algorithm::BatchedWtlw { .. } => {
                FaultTolerance::NONE
            }
            // The coordinator and the broadcast quorum wait for *messages*,
            // not timers, so a stalled process only delays; but a single
            // crash (coordinator / any acker) wedges them, and lost or
            // duplicated messages wedge or reorder them.
            Algorithm::Centralized | Algorithm::Broadcast => {
                FaultTolerance { stalls: true, ..FaultTolerance::NONE }
            }
            // Majority quorums: up to ⌊(n−1)/2⌋ crashes; duplicate replies
            // are idempotent (quorums are sets); message-driven, so stalls
            // only delay. The per-key composition inherits the register's
            // envelope wholesale.
            Algorithm::MrRegister | Algorithm::AbdKv => FaultTolerance {
                crashes: params.n.saturating_sub(1) / 2,
                duplication: true,
                stalls: true,
                ..FaultTolerance::NONE
            },
            // Same quorum machinery, but the response values of mixed ops
            // and accessors come from a *stability* wait whose delivery
            // bound a stalled client's delayed commit broadcast violates —
            // so no stall claim.
            Algorithm::QuorumSm => FaultTolerance {
                crashes: params.n.saturating_sub(1) / 2,
                duplication: true,
                ..FaultTolerance::NONE
            },
            // Retransmission recovers drops; the dedup layer suppresses
            // duplicates. Timer-driven inner node → stalls still break it.
            Algorithm::ReliableWtlw { .. } => {
                FaultTolerance { omission: true, duplication: true, ..FaultTolerance::NONE }
            }
            // The strawman is incorrect even fault-free.
            Algorithm::NaiveLocal(_) => FaultTolerance::NONE,
        }
    }

    fn supports(&self, spec: &Arc<dyn ObjectSpec>) -> Result<(), String> {
        match self {
            Algorithm::MrRegister if spec.kind() != SpecKind::Register => {
                Err(format!("mr-register implements a read/write register, not {:?}", spec.kind()))
            }
            Algorithm::AbdKv if spec.kind() != SpecKind::KvStore => {
                Err(format!("abd-kv implements a kv-store, not {:?}", spec.kind()))
            }
            _ => Ok(()),
        }
    }
}

/// A backend × spec combination the backend cannot implement, reported by
/// [`run_backend`] instead of running. The availability matrix renders these
/// as honest `n/a` cells rather than crashing the whole sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedSpec {
    /// The refusing backend's label.
    pub backend: String,
    /// The spec's type name.
    pub spec: String,
    /// The backend's own explanation.
    pub why: String,
}

impl fmt::Display for UnsupportedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend {} cannot run {}: {}", self.backend, self.spec, self.why)
    }
}

impl std::error::Error for UnsupportedSpec {}

/// A [`run_backend`] result: the recorded run plus backend-specific
/// aggregates (zero for backends without them).
#[derive(Debug)]
pub struct BackendRun {
    /// The simulated run. For [`Algorithm::ReliableWtlw`], every node's
    /// detected violations have been folded into [`Run::suspect`].
    pub run: Run,
    /// Completed quorum phases across all quorum-backend nodes
    /// ([`Algorithm::MrRegister`], [`Algorithm::QuorumSm`],
    /// [`Algorithm::AbdKv`]).
    pub quorum_round_trips: u64,
    /// Reads answered in one round trip (uniform quorum timestamps).
    pub fast_reads: u64,
    /// Reads that needed the write-back phase before responding.
    pub read_writebacks: u64,
}

/// Run `backend` over `spec` under `cfg`: simulate, then fold
/// backend-specific node state into the result uniformly.
///
/// Returns [`UnsupportedSpec`] (without simulating anything) when
/// `backend.supports(spec)` fails, so callers probing arbitrary
/// backend × type combinations can render honest `n/a` cells.
pub fn run_backend(
    backend: &dyn Backend,
    spec: &Arc<dyn ObjectSpec>,
    cfg: &SimConfig,
) -> Result<BackendRun, UnsupportedSpec> {
    if let Err(why) = backend.supports(spec) {
        return Err(UnsupportedSpec {
            backend: backend.label(),
            spec: spec.name().to_string(),
            why,
        });
    }
    // A run that keeps no op log keeps no per-op node logs either.
    let (mut run, nodes) = simulate_full(cfg, |pid| {
        backend.make_node(pid, spec, cfg.params, &cfg.obs).with_logs(cfg.record_ops)
    });
    let mut quorum_round_trips = 0;
    let mut fast_reads = 0;
    let mut read_writebacks = 0;
    for node in &nodes {
        match node {
            AnyNode::Rel(n) => run.suspect.extend(n.violations().iter().cloned()),
            AnyNode::Mr(n) => {
                quorum_round_trips += n.round_trips();
                fast_reads += n.fast_reads();
                read_writebacks += n.read_writebacks();
            }
            AnyNode::Qsm(n) => {
                quorum_round_trips += n.round_trips();
                fast_reads += n.fast_reads();
                read_writebacks += n.read_writebacks();
            }
            _ => {}
        }
    }
    Ok(BackendRun { run, quorum_round_trips, fast_reads, read_writebacks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::{erase, Invocation};
    use lintime_adt::types::{FifoQueue, Register};
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::faults::FaultPlan;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{ModelParams, Time};

    fn params5() -> ModelParams {
        ModelParams::new(5, Time(6000), Time(2400), Time(1800))
    }

    #[test]
    fn tolerance_claims_are_declared() {
        let p = params5();
        let mr = Algorithm::MrRegister.tolerance(p);
        assert_eq!(mr.crashes, 2);
        assert!(mr.stalls && mr.duplication && !mr.omission);
        assert_eq!(Algorithm::Wtlw { x: Time::ZERO }.tolerance(p), FaultTolerance::NONE);
        let rel = Algorithm::ReliableWtlw {
            x: Time::ZERO,
            recovery: crate::reliable::RecoveryConfig::standard(p),
        }
        .tolerance(p);
        assert!(rel.omission && rel.duplication && !rel.stalls);
        assert_eq!(mr.summary(), "crashes≤2 +dup +stall");
        assert_eq!(FaultTolerance::NONE.summary(), "none");
        let qsm = Algorithm::QuorumSm.tolerance(p);
        assert_eq!(qsm.crashes, 2);
        assert!(qsm.duplication && !qsm.stalls && !qsm.omission);
        assert_eq!(Algorithm::AbdKv.tolerance(p), mr);
    }

    #[test]
    fn mr_register_refuses_non_register_specs() {
        let queue = erase(FifoQueue::new());
        assert!(Algorithm::MrRegister.supports(&queue).is_err());
        let reg = erase(Register::new(0));
        assert!(Algorithm::MrRegister.supports(&reg).is_ok());
        assert!(Algorithm::Centralized.supports(&queue).is_ok());
        // The state machine supports everything; the composition only kv.
        assert!(Algorithm::QuorumSm.supports(&queue).is_ok());
        assert!(Algorithm::QuorumSm.supports(&reg).is_ok());
        assert!(Algorithm::AbdKv.supports(&queue).is_err());
        assert!(Algorithm::AbdKv.supports(&erase(lintime_adt::types::KvStore::new())).is_ok());
    }

    #[test]
    fn unsupported_combos_return_structured_errors() {
        let p = params5();
        let queue = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(Schedule::new().at(
            Pid(0),
            Time(0),
            Invocation::new("enqueue", 1),
        ));
        let err = run_backend(&Algorithm::MrRegister, &queue, &cfg)
            .expect_err("a queue is not a register");
        assert_eq!(err.backend, "mr-register");
        assert_eq!(err.spec, "fifo-queue");
        assert!(err.to_string().contains("cannot run"), "{err}");
        let err = run_backend(&Algorithm::AbdKv, &queue, &cfg).expect_err("a queue is not a kv");
        assert_eq!(err.backend, "abd-kv");
    }

    #[test]
    fn run_backend_aggregates_quorum_metrics() {
        let p = params5();
        let spec = erase(Register::new(0));
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 9)).at(
                Pid(1),
                Time(60_000),
                Invocation::nullary("read"),
            ),
        );
        let out = run_backend(&Algorithm::MrRegister, &spec, &cfg).expect("register supported");
        assert!(out.run.complete(), "{}", out.run);
        assert_eq!(out.run.ops[1].ret, Some(Value::Int(9)));
        // Write = 2 phases, quiescent read = 1 fast phase.
        assert_eq!(out.quorum_round_trips, 3);
        assert_eq!(out.fast_reads, 1);
        assert_eq!(out.read_writebacks, 0);
        assert!(out.run.msgs_sent > 0 && out.run.bytes_sent > out.run.msgs_sent);
    }

    #[test]
    fn runs_without_the_op_log_match_runs_with_it() {
        // `record_ops: false` also builds Algorithm 1 nodes without their
        // execution logs; nothing a run emits may change.
        let p = params5();
        let spec = erase(FifoQueue::new());
        let mut schedule = Schedule::new();
        for i in 0..40i64 {
            let inv = match i % 3 {
                0 => Invocation::new("enqueue", i),
                1 => Invocation::nullary("dequeue"),
                _ => Invocation::nullary("peek"),
            };
            schedule = schedule.arrival(Pid(i as usize % p.n), Time(900 * i), inv);
        }
        let recovery = crate::reliable::RecoveryConfig::standard(p);
        for algo in [
            Algorithm::Wtlw { x: Time::ZERO },
            Algorithm::BatchedWtlw { x: Time::ZERO, tick: p.epsilon },
            Algorithm::ReliableWtlw { x: Time::ZERO, recovery },
        ] {
            let emitted = |record_ops: bool| {
                let (tx, rx) = std::sync::mpsc::channel();
                let cfg = SimConfig { record_ops, ..SimConfig::new(p, DelaySpec::AllMax) }
                    .with_schedule(schedule.clone())
                    .with_op_sink(tx);
                let run = run_backend(&algo, &spec, &cfg).expect("queue supported").run;
                let events: Vec<String> = rx.try_iter().map(|e| format!("{e:?}")).collect();
                (events, run.events, run.msgs_sent, run.complete(), run.suspect)
            };
            let (on, off) = (emitted(true), emitted(false));
            assert_eq!(on.0.len(), 80, "{algo:?}");
            assert_eq!(on, off, "{algo:?}");
        }
    }

    #[test]
    fn run_backend_survives_tolerated_crashes() {
        let p = params5();
        let spec = erase(Register::new(0));
        let crashes = Algorithm::MrRegister.tolerance(p).crashes;
        let cfg = SimConfig::new(p, DelaySpec::AllMax)
            .with_schedule(Schedule::new().at(Pid(0), Time(0), Invocation::new("write", 3)).at(
                Pid(1),
                Time(60_000),
                Invocation::nullary("read"),
            ))
            .with_faults(FaultPlan::new(1).crash(Pid(3), Time(10)).crash(Pid(4), Time(10)));
        assert_eq!(crashes, 2);
        let out = run_backend(&Algorithm::MrRegister, &spec, &cfg).expect("register supported");
        assert!(out.run.complete(), "{}", out.run);
        assert_eq!(out.run.ops[1].ret, Some(Value::Int(3)));
    }
}
