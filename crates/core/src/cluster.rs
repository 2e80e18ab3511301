//! Uniform driver for every implementation in this crate: pick an
//! [`Algorithm`], a data type, and a [`SimConfig`], get a recorded run and
//! per-class latency statistics. Used by the table binaries and benches.

use crate::batch::{BatchMsg, BatchTimer, BatchWtlwNode};
use crate::broadcast::{BcastMsg, BroadcastNode};
use crate::centralized::{CentralMsg, CentralizedNode};
use crate::mr_register::{MrMsg, MrNode};
use crate::naive::{NaiveLocalNode, NaiveMsg, NaiveTimer};
use crate::quorum_sm::{QsmMsg, QsmNode, QsmTimer};
use crate::reliable::{RecoveryConfig, RelMsg, RelTimer, ReliableWtlwNode};
use crate::wtlw::{Waits, WtlwMsg, WtlwNode, WtlwTimer};
use lintime_adt::spec::{Invocation, ObjectSpec, OpClass};
use lintime_obs::Obs;
use lintime_sim::engine::SimConfig;
use lintime_sim::node::{Effects, NoTimer, Node};
use lintime_sim::run::Run;
use lintime_sim::time::{Pid, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which shared-object implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's Algorithm 1 with tradeoff parameter `X`.
    Wtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]`.
        x: Time,
    },
    /// Algorithm 1 with explicit (possibly incorrect) timer durations.
    WtlwWaits(Waits),
    /// Folklore baseline 1: centralized coordinator (≈ `2d`).
    Centralized,
    /// Folklore baseline 2: Lamport total-order broadcast (≈ `2d`).
    Broadcast,
    /// Majority-quorum read/write register (Mostéfaoui–Raynal style):
    /// crash-tolerant up to `⌊(n−1)/2⌋` failures.
    MrRegister,
    /// Majority-quorum replicated state machine over a timestamp-ordered
    /// operation log: crash-tolerant up to `⌊(n−1)/2⌋` failures for
    /// **arbitrary** data types.
    QuorumSm,
    /// The kv-store as one majority-quorum register per key (the
    /// [`MrRegister`](Algorithm::MrRegister) node in kv mode), at register
    /// cost per key; crash-tolerant up to `⌊(n−1)/2⌋` failures.
    AbdKv,
    /// Algorithm 1 behind the tick-batching wrapper: mutator announcements
    /// flush once per batch tick, trading `+tick` of accessor/mixed latency
    /// for one broadcast per tick instead of one per operation.
    BatchedWtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]` for the inner node.
        x: Time,
        /// Batch tick `B` (0 disables batching).
        tick: Time,
    },
    /// Algorithm 1 behind the reliable-delivery recovery wrapper.
    ReliableWtlw {
        /// Tradeoff parameter `X ∈ [0, d − ε]` for the inner node.
        x: Time,
        /// Retransmission/detection policy.
        recovery: RecoveryConfig,
    },
    /// Incorrect optimistic replication responding after the given wait.
    NaiveLocal(Time),
}

impl Algorithm {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Wtlw { x } => format!("wtlw(X={x})"),
            Algorithm::WtlwWaits(_) => "wtlw(custom waits)".to_string(),
            Algorithm::Centralized => "centralized".to_string(),
            Algorithm::Broadcast => "broadcast".to_string(),
            Algorithm::MrRegister => "mr-register".to_string(),
            Algorithm::QuorumSm => "quorum-sm".to_string(),
            Algorithm::AbdKv => "abd-kv".to_string(),
            Algorithm::BatchedWtlw { x, tick } => format!("batched-wtlw(X={x}, B={tick})"),
            Algorithm::ReliableWtlw { x, .. } => format!("reliable-wtlw(X={x})"),
            Algorithm::NaiveLocal(w) => format!("naive(wait={w})"),
        }
    }
}

/// Unified message type for [`AnyNode`].
#[derive(Clone, Debug, PartialEq)]
pub enum AnyMsg {
    /// Algorithm 1 announcement.
    Wtlw(WtlwMsg),
    /// Centralized request/reply.
    Central(CentralMsg),
    /// Broadcast-baseline message.
    Bcast(BcastMsg),
    /// Quorum-register phase message (register or per-key kv-store).
    Mr(MrMsg),
    /// Quorum state-machine phase message.
    Qsm(QsmMsg),
    /// Recovery-wrapped announcement or acknowledgement.
    Rel(RelMsg),
    /// Tick-batched announcement bundle.
    Batch(BatchMsg),
    /// Naive gossip.
    Naive(NaiveMsg),
}

impl AnyMsg {
    /// Estimated serialized size in bytes: algorithm tag plus the inner
    /// message's own estimate.
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            AnyMsg::Wtlw(m) => m.wire_bytes(),
            AnyMsg::Central(m) => m.wire_bytes(),
            AnyMsg::Bcast(m) => m.wire_bytes(),
            AnyMsg::Mr(m) => m.wire_bytes(),
            AnyMsg::Qsm(m) => m.wire_bytes(),
            AnyMsg::Rel(m) => m.wire_bytes(),
            AnyMsg::Batch(m) => m.wire_bytes(),
            AnyMsg::Naive(m) => m.wire_bytes(),
        }
    }
}

/// Unified timer type for [`AnyNode`].
#[derive(Clone, Debug, PartialEq)]
pub enum AnyTimer {
    /// Algorithm 1 timer.
    Wtlw(WtlwTimer),
    /// Recovery-wrapper timer (inner Algorithm 1 or retransmit).
    Rel(RelTimer),
    /// Batching-wrapper timer (inner Algorithm 1 or flush).
    Batch(BatchTimer),
    /// Naive respond timer.
    Naive(NaiveTimer),
    /// Quorum state-machine stability timer.
    Qsm(QsmTimer),
}

/// A node of any of the supported algorithms, with unified message/timer
/// types so heterogeneous experiments share one engine instantiation.
pub enum AnyNode {
    /// Algorithm 1.
    Wtlw(WtlwNode),
    /// Centralized baseline.
    Central(CentralizedNode),
    /// Broadcast baseline.
    Bcast(BroadcastNode),
    /// Quorum register (register or per-key kv-store).
    Mr(MrNode),
    /// Quorum state machine.
    Qsm(QsmNode),
    /// Recovery-wrapped Algorithm 1.
    Rel(ReliableWtlwNode),
    /// Tick-batched Algorithm 1.
    Batch(BatchWtlwNode),
    /// Naive strawman.
    Naive(NaiveLocalNode),
}

impl AnyNode {
    /// Build a node of `algo` for process `pid` (works for both the
    /// simulator and the live runtime — only the model parameters matter).
    pub fn build(
        algo: Algorithm,
        pid: Pid,
        spec: Arc<dyn ObjectSpec>,
        params: lintime_sim::time::ModelParams,
    ) -> AnyNode {
        Self::build_observed(algo, pid, spec, params, &Obs::off())
    }

    /// [`AnyNode::build`] with an observability bundle attached to the
    /// algorithms that export metrics (quorum register, recovery wrapper).
    pub fn build_observed(
        algo: Algorithm,
        pid: Pid,
        spec: Arc<dyn ObjectSpec>,
        params: lintime_sim::time::ModelParams,
        obs: &Obs,
    ) -> AnyNode {
        match algo {
            Algorithm::Wtlw { x } => AnyNode::Wtlw(WtlwNode::new(pid, spec, params, x)),
            Algorithm::WtlwWaits(waits) => AnyNode::Wtlw(WtlwNode::with_waits(pid, spec, waits)),
            Algorithm::Centralized => AnyNode::Central(CentralizedNode::new(pid, spec)),
            Algorithm::Broadcast => AnyNode::Bcast(BroadcastNode::new(pid, params.n, spec)),
            Algorithm::MrRegister | Algorithm::AbdKv => {
                AnyNode::Mr(MrNode::new(pid, spec, params.n).with_obs(obs.clone()))
            }
            Algorithm::QuorumSm => {
                AnyNode::Qsm(QsmNode::new(pid, spec, params).with_obs(obs.clone()))
            }
            Algorithm::BatchedWtlw { x, tick } => {
                AnyNode::Batch(BatchWtlwNode::new(pid, spec, params, x, tick).with_obs(obs.clone()))
            }
            Algorithm::ReliableWtlw { x, recovery } => AnyNode::Rel(
                ReliableWtlwNode::new(pid, spec, params, x, recovery).with_obs(obs.clone()),
            ),
            Algorithm::NaiveLocal(wait) => AnyNode::Naive(NaiveLocalNode::new(spec, wait)),
        }
    }

    /// Keep (the default) or skip the Algorithm 1 execution logs of the
    /// nodes that have them (see [`WtlwNode::with_logs`]).
    pub(crate) fn with_logs(self, keep: bool) -> AnyNode {
        match self {
            AnyNode::Wtlw(n) => AnyNode::Wtlw(n.with_logs(keep)),
            AnyNode::Batch(n) => AnyNode::Batch(n.with_logs(keep)),
            AnyNode::Rel(n) => AnyNode::Rel(n.with_logs(keep)),
            other => other,
        }
    }
}

/// The timer of a timer-free node, as an [`AnyTimer`] (it has no values).
fn no_timer(t: NoTimer) -> AnyTimer {
    match t {}
}

/// Dispatch a handler call through the unified types.
macro_rules! dispatch {
    ($fx:ident, $inner:ident, $call:expr, $msg_var:expr, $tmr_var:expr) => {{
        let mut inner_fx = Effects::new($fx.pid(), $fx.n(), $fx.local_time());
        {
            let $inner = &mut inner_fx;
            $call;
        }
        $fx.absorb(inner_fx.into_parts(), $msg_var, $tmr_var);
    }};
}

impl Node for AnyNode {
    type Msg = AnyMsg;
    type Timer = AnyTimer;

    fn msg_wire_bytes(msg: &AnyMsg) -> usize {
        msg.wire_bytes()
    }

    fn on_invoke(&mut self, inv: Invocation, fx: &mut Effects<AnyMsg, AnyTimer>) {
        match self {
            AnyNode::Wtlw(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Wtlw, AnyTimer::Wtlw)
            }
            AnyNode::Central(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Central, no_timer)
            }
            AnyNode::Bcast(n) => dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Bcast, no_timer),
            AnyNode::Mr(n) => dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Mr, no_timer),
            AnyNode::Qsm(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Qsm, AnyTimer::Qsm)
            }
            AnyNode::Rel(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Rel, AnyTimer::Rel)
            }
            AnyNode::Batch(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Batch, AnyTimer::Batch)
            }
            AnyNode::Naive(n) => {
                dispatch!(fx, ifx, n.on_invoke(inv, ifx), AnyMsg::Naive, AnyTimer::Naive)
            }
        }
    }

    fn on_deliver(&mut self, from: Pid, msg: AnyMsg, fx: &mut Effects<AnyMsg, AnyTimer>) {
        match (self, msg) {
            (AnyNode::Wtlw(n), AnyMsg::Wtlw(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Wtlw, AnyTimer::Wtlw)
            }
            (AnyNode::Central(n), AnyMsg::Central(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Central, no_timer)
            }
            (AnyNode::Bcast(n), AnyMsg::Bcast(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Bcast, no_timer)
            }
            (AnyNode::Mr(n), AnyMsg::Mr(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Mr, no_timer)
            }
            (AnyNode::Qsm(n), AnyMsg::Qsm(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Qsm, AnyTimer::Qsm)
            }
            (AnyNode::Rel(n), AnyMsg::Rel(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Rel, AnyTimer::Rel)
            }
            (AnyNode::Batch(n), AnyMsg::Batch(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Batch, AnyTimer::Batch)
            }
            (AnyNode::Naive(n), AnyMsg::Naive(m)) => {
                dispatch!(fx, ifx, n.on_deliver(from, m, ifx), AnyMsg::Naive, AnyTimer::Naive)
            }
            _ => panic!("message type does not match node algorithm"),
        }
    }

    fn on_timer(&mut self, timer: AnyTimer, fx: &mut Effects<AnyMsg, AnyTimer>) {
        match (self, timer) {
            (AnyNode::Wtlw(n), AnyTimer::Wtlw(t)) => {
                dispatch!(fx, ifx, n.on_timer(t, ifx), AnyMsg::Wtlw, AnyTimer::Wtlw)
            }
            (AnyNode::Rel(n), AnyTimer::Rel(t)) => {
                dispatch!(fx, ifx, n.on_timer(t, ifx), AnyMsg::Rel, AnyTimer::Rel)
            }
            (AnyNode::Batch(n), AnyTimer::Batch(t)) => {
                dispatch!(fx, ifx, n.on_timer(t, ifx), AnyMsg::Batch, AnyTimer::Batch)
            }
            (AnyNode::Naive(n), AnyTimer::Naive(t)) => {
                dispatch!(fx, ifx, n.on_timer(t, ifx), AnyMsg::Naive, AnyTimer::Naive)
            }
            (AnyNode::Qsm(n), AnyTimer::Qsm(t)) => {
                dispatch!(fx, ifx, n.on_timer(t, ifx), AnyMsg::Qsm, AnyTimer::Qsm)
            }
            _ => panic!("timer type does not match node algorithm"),
        }
    }
}

/// Run `algo` over `spec` under `cfg`.
///
/// Delegates to [`crate::backend::run_backend`], so algorithm-level
/// bookkeeping (recovery-layer suspects folded into [`Run::suspect`],
/// quorum metrics) is applied uniformly no matter which entry point is used.
pub fn run_algorithm(algo: Algorithm, spec: &Arc<dyn ObjectSpec>, cfg: &SimConfig) -> Run {
    crate::backend::run_backend(&algo, spec, cfg).unwrap_or_else(|err| panic!("{err}")).run
}

/// Latency statistics for one operation name.
#[derive(Clone, Debug, PartialEq)]
pub struct OpStats {
    /// Operation name.
    pub op: &'static str,
    /// Declared class.
    pub class: OpClass,
    /// Number of completed instances.
    pub count: usize,
    /// Minimum latency.
    pub min: Time,
    /// Maximum latency.
    pub max: Time,
    /// Mean latency (ticks, rounded down).
    pub mean: Time,
}

/// Gather per-operation latency statistics from a run.
pub fn op_stats(run: &Run, spec: &Arc<dyn ObjectSpec>) -> Vec<OpStats> {
    let mut grouped: BTreeMap<&'static str, Vec<Time>> = BTreeMap::new();
    for op in run.completed() {
        if let Some(lat) = op.latency() {
            grouped.entry(op.invocation.op).or_default().push(lat);
        }
    }
    grouped
        .into_iter()
        .map(|(op, lats)| {
            let class = spec.op_meta(op).map(|m| m.class).unwrap_or(OpClass::Mixed);
            let min = lats.iter().copied().min().expect("non-empty");
            let max = lats.iter().copied().max().expect("non-empty");
            let sum: i64 = lats.iter().map(|t| t.as_ticks()).sum();
            OpStats { op, class, count: lats.len(), min, max, mean: Time(sum / lats.len() as i64) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::erase;
    use lintime_adt::types::FifoQueue;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::ModelParams;

    fn queue_workload() -> Schedule {
        Schedule::new()
            .at(Pid(0), Time(0), Invocation::new("enqueue", 1))
            .at(Pid(1), Time(0), Invocation::new("enqueue", 2))
            .at(Pid(2), Time(40_000), Invocation::nullary("peek"))
            .at(Pid(3), Time(80_000), Invocation::nullary("dequeue"))
    }

    #[test]
    fn all_algorithms_complete_the_workload() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        for algo in [
            Algorithm::Wtlw { x: Time(600) },
            Algorithm::Centralized,
            Algorithm::Broadcast,
            Algorithm::NaiveLocal(Time::ZERO),
        ] {
            let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 1 })
                .with_schedule(queue_workload());
            let run = run_algorithm(algo, &spec, &cfg);
            assert!(run.complete(), "{} did not complete: {run}", algo.label());
            assert!(run.errors.is_empty(), "{}: {:?}", algo.label(), run.errors);
        }
    }

    #[test]
    fn wtlw_beats_folklore_on_every_class() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let mk_cfg = || SimConfig::new(p, DelaySpec::AllMax).with_schedule(queue_workload());
        let wtlw = run_algorithm(Algorithm::Wtlw { x: Time(1200) }, &spec, &mk_cfg());
        let central = run_algorithm(Algorithm::Centralized, &spec, &mk_cfg());
        let bcast = run_algorithm(Algorithm::Broadcast, &spec, &mk_cfg());
        for op in ["enqueue", "peek", "dequeue"] {
            let w = wtlw.max_latency(Some(op)).unwrap();
            let c = central.max_latency(Some(op)).unwrap();
            let b = bcast.max_latency(Some(op)).unwrap();
            assert!(w < c, "{op}: wtlw {w} !< centralized {c}");
            assert!(w < b, "{op}: wtlw {w} !< broadcast {b}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn unified_message_stays_72_bytes() {
        // Every simulated message is an `AnyMsg`; its size is set by the
        // largest variant (`QsmMsg::Commit`), not by the quorum register's.
        assert_eq!(std::mem::size_of::<AnyMsg>(), 72);
        assert!(std::mem::size_of::<MrMsg>() < 72);
    }

    #[test]
    fn op_stats_aggregates() {
        let p = ModelParams::default_experiment();
        let spec = erase(FifoQueue::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(queue_workload());
        let run = run_algorithm(Algorithm::Wtlw { x: Time::ZERO }, &spec, &cfg);
        let stats = op_stats(&run, &spec);
        assert_eq!(stats.len(), 3);
        let enq = stats.iter().find(|s| s.op == "enqueue").unwrap();
        assert_eq!(enq.count, 2);
        assert_eq!(enq.class, OpClass::PureMutator);
        assert_eq!(enq.min, enq.max);
        assert_eq!(enq.mean, p.epsilon); // X = 0 → MOP latency = ε
    }
}
