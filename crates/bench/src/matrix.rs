//! Cross-backend availability/latency matrix under injected faults.
//!
//! The robustness extension's headline experiment: every backend
//! ([`Algorithm`]) runs the same seeded workload under every fault scenario
//! (crashes, stalls, drops, duplicates at several rates), and each cell
//! reports
//!
//! * **availability** — completed operations over operations that *could*
//!   have completed (pending ops attributable to the invoker's own crash are
//!   excluded from the denominator: a crashed client is not an availability
//!   failure of the backend);
//! * **latency** — mean completed-operation latency;
//! * **communication cost** — protocol messages and estimated wire bytes
//!   per completed operation, plus quorum round trips for the MR register;
//! * **verdicts** — every non-truncated run's history (pending operations
//!   included) is fed through the checker, which decides Herlihy–Wing
//!   completions of the pending ones
//!   ([`lintime_check::monitor::check_fast_with`]).
//!
//! Each backend *declares* the fault classes it tolerates
//! ([`Backend::tolerance`]); a `NotLinearizable` verdict on a non-suspect
//! run inside a tolerated cell is a **confirmed violation** — the CI gate
//! (`lintime faults --matrix-only`) exits 2 on any.

use crate::experiments::fault_sweep_schedule;
use crate::sweep::parallel_map;
use lintime_adt::spec::{erase, Invocation, ObjectSpec, OpClass};
use lintime_adt::types::{Counter, FifoQueue, KvStore, Register};
use lintime_check::history::History;
use lintime_check::monitor::check_fast_with;
use lintime_check::wing_gong::{CheckConfig, Verdict};
use lintime_core::backend::{run_backend, Backend, FaultTolerance};
use lintime_core::cluster::Algorithm;
use lintime_core::reliable::RecoveryConfig;
use lintime_obs::Obs;
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::faults::FaultPlan;
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::fmt::Write as _;
use std::sync::Arc;

/// One fault scenario of the matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scenario {
    /// Fault-free baseline: every backend must be linearizable here.
    None,
    /// One early crash, chosen adversarially: the centralized coordinator.
    CrashCoordinator,
    /// Two early crashes (the largest minority at `n = 5`), avoiding the
    /// coordinator so the quorum claim — not coordinator placement — is
    /// what's exercised.
    CrashMinority,
    /// One process stalls (delivery-window pause) for the first `5d`.
    Stall,
    /// Uniform message drops at this rate.
    Drop(f64),
    /// Uniform message duplication at this rate.
    Duplicate(f64),
}

impl Scenario {
    /// Human-readable label, e.g. `drop(10%)`.
    pub fn label(&self) -> String {
        match self {
            Scenario::None => "none".to_string(),
            Scenario::CrashCoordinator => "crash(p0)".to_string(),
            Scenario::CrashMinority => "crash(2)".to_string(),
            Scenario::Stall => "stall".to_string(),
            Scenario::Drop(r) => format!("drop({:.0}%)", r * 100.0),
            Scenario::Duplicate(r) => format!("dup({:.0}%)", r * 100.0),
        }
    }

    /// The fault plan for one seeded run; `None` for the fault-free cell.
    pub fn plan(&self, params: ModelParams, seed: u64) -> Option<FaultPlan> {
        match *self {
            Scenario::None => None,
            Scenario::CrashCoordinator => Some(FaultPlan::new(seed).crash(Pid(0), Time(1))),
            Scenario::CrashMinority => Some(
                FaultPlan::new(seed)
                    .crash(Pid(params.n - 2), Time(1))
                    .crash(Pid(params.n - 1), Time(1)),
            ),
            Scenario::Stall => Some(FaultPlan::new(seed).stall(Pid(1), Time::ZERO, params.d * 5)),
            Scenario::Drop(rate) => Some(FaultPlan::new(seed).drop_all(rate)),
            Scenario::Duplicate(rate) => Some(FaultPlan::new(seed).duplicate_all(rate)),
        }
    }

    /// Whether a backend with tolerance claim `tol` is *expected* to stay
    /// linearizable (or self-flag as suspect) in this scenario.
    pub fn tolerated(&self, tol: &FaultTolerance) -> bool {
        match *self {
            Scenario::None => true,
            Scenario::CrashCoordinator => tol.crashes >= 1,
            Scenario::CrashMinority => tol.crashes >= 2,
            Scenario::Stall => tol.stalls,
            Scenario::Drop(_) => tol.omission,
            Scenario::Duplicate(_) => tol.duplication,
        }
    }
}

/// The default scenario set: crashes, a stall, drops and duplicates at two
/// rates each.
pub fn default_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::None,
        Scenario::CrashCoordinator,
        Scenario::CrashMinority,
        Scenario::Stall,
        Scenario::Drop(0.05),
        Scenario::Drop(0.20),
        Scenario::Duplicate(0.20),
    ]
}

/// The default backend set: Algorithm 1, both folklore baselines, the
/// recovery wrapper, and the three quorum backends (register, replicated
/// state machine, per-key kv composition).
pub fn default_backends(params: ModelParams) -> Vec<Algorithm> {
    vec![
        Algorithm::Wtlw { x: Time::ZERO },
        Algorithm::Centralized,
        Algorithm::Broadcast,
        Algorithm::ReliableWtlw {
            x: Time::ZERO,
            recovery: RecoveryConfig { rto: params.d * 2, max_retries: 2 },
        },
        Algorithm::MrRegister,
        Algorithm::QuorumSm,
        Algorithm::AbdKv,
    ]
}

/// The data type each backend's matrix column runs over. The register-only
/// backends keep the engineered register workload; the state machine rotates
/// through queue, counter, and kv-store by seed (its claim is *arbitrary*
/// types, so the matrix should not let it specialize); the composition runs
/// the kv-store it implements.
pub fn backend_workload_spec(algo: Algorithm, seed: u64) -> (Arc<dyn ObjectSpec>, &'static str) {
    match algo {
        Algorithm::AbdKv => (erase(KvStore::new()), "kv-store"),
        Algorithm::QuorumSm => match seed % 3 {
            0 => (erase(FifoQueue::new()), "rotating"),
            1 => (erase(Counter::new()), "rotating"),
            _ => (erase(KvStore::new()), "rotating"),
        },
        _ => (erase(Register::new(0)), "register"),
    }
}

/// A seeded workload for an arbitrary spec, mirroring the shape of the
/// register-specific `fault_sweep_schedule`: a burst of six mutator/mixed
/// operations, then two pure-accessor rounds at every process after the
/// burst has quiesced. Mixed ops (dequeue, fetch_inc) in the burst are
/// deliberate: under crash scenarios they become the pending operations
/// whose completions only the free-response search can enumerate.
pub fn spec_workload_schedule(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    seed: u64,
    slack: Time,
) -> Schedule {
    use lintime_sim::rng::SplitMix64;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5EED_C0DE);
    let ops = spec.ops();
    let mutators: Vec<_> = ops.iter().filter(|m| m.class.is_mutator()).collect();
    let accessors: Vec<_> = ops.iter().filter(|m| m.class == OpClass::PureAccessor).collect();
    assert!(!mutators.is_empty() && !accessors.is_empty(), "{} lacks a class", spec.name());
    let pick = |metas: &[&lintime_adt::spec::OpMeta], rng: &mut SplitMix64| {
        let meta = metas[rng.gen_range(0..metas.len())];
        let args = spec.suggested_args(meta.name);
        Invocation::new(meta.name, args[rng.gen_range(0..args.len())].clone())
    };
    let mut schedule = Schedule::new();
    let mut next_free = vec![Time::ZERO; p.n];
    for _ in 0..6 {
        let inv = pick(&mutators, &mut rng);
        let pid = rng.gen_range(0usize..p.n);
        let at = next_free[pid] + Time(rng.gen_range(0i64..2 * p.d.as_ticks()));
        next_free[pid] = at + slack;
        schedule = schedule.at(Pid(pid), at, inv);
    }
    let mut base = *next_free.iter().max().unwrap() + slack;
    for _ in 0..2 {
        for (i, nf) in next_free.iter_mut().enumerate() {
            let inv = pick(&accessors, &mut rng);
            let at = base.max(*nf) + Time(rng.gen_range(0i64..p.d.as_ticks()));
            *nf = at + slack;
            schedule = schedule.at(Pid(i), at, inv);
        }
        base = *next_free.iter().max().unwrap();
    }
    schedule
}

/// Aggregated results for one backend × scenario cell.
#[derive(Clone, Debug, Default)]
pub struct MatrixCell {
    /// Backend label.
    pub backend: String,
    /// Scenario label.
    pub scenario: String,
    /// Label of the data type the backend's workload ran over.
    pub spec: String,
    /// Whether the backend claims to tolerate this scenario.
    pub tolerated: bool,
    /// Seeded runs aggregated into this cell.
    pub runs: u64,
    /// Runs refused by the backend (spec not supported): the honest `n/a`
    /// count — nothing was simulated for them.
    pub unsupported: u64,
    /// Total invoked operations.
    pub ops_total: u64,
    /// Operations that responded.
    pub ops_completed: u64,
    /// Pending operations attributable to the invoker's crash (excluded
    /// from the availability denominator).
    pub crashed_pending: u64,
    /// Crash-attributable pending pure mutators (ret-free completions).
    pub crashed_mutators: u64,
    /// Crash-attributable pending pure accessors (effect-free).
    pub crashed_accessors: u64,
    /// Crash-attributable pending mixed ops — the bucket whose completions
    /// need the free-response search.
    pub crashed_mixed: u64,
    /// Runs whose (pending-aware) history linearized.
    pub linearizable: u64,
    /// Runs refuted by the checker.
    pub not_linearizable: u64,
    /// Runs the checker could not decide (budget / uncompletable pending).
    pub unknown: u64,
    /// Runs the backend's own detectors flagged as suspect.
    pub suspect: u64,
    /// Runs the engine truncated (event budget).
    pub truncated: u64,
    /// Refuted, non-suspect runs in a tolerated cell: must be zero.
    pub confirmed_violations: u64,
    /// Sum and count of completed-op latencies (ticks).
    pub lat_sum: i64,
    /// Number of completed-op latencies summed.
    pub lat_n: u64,
    /// Protocol messages sent, all runs.
    pub msgs_sent: u64,
    /// Estimated wire bytes sent, all runs.
    pub bytes_sent: u64,
    /// Completed quorum phases (quorum backends only; 0 elsewhere).
    pub quorum_round_trips: u64,
    /// One-round-trip reads (quorum backends only).
    pub fast_reads: u64,
}

impl MatrixCell {
    /// Completed ops over ops that could have completed, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        let denom = self.ops_total.saturating_sub(self.crashed_pending);
        if denom == 0 {
            1.0
        } else {
            self.ops_completed as f64 / denom as f64
        }
    }

    /// Mean latency of completed operations, in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.lat_n == 0 {
            0.0
        } else {
            self.lat_sum as f64 / self.lat_n as f64
        }
    }

    /// Protocol messages per completed operation.
    pub fn msgs_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.msgs_sent as f64 / self.ops_completed as f64
        }
    }

    /// Estimated wire bytes per completed operation.
    pub fn bytes_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.ops_completed as f64
        }
    }
}

/// The full matrix: parameters, seed count, and one cell per
/// backend × scenario pair.
#[derive(Clone, Debug)]
pub struct AvailabilityMatrix {
    /// Model parameters of every run.
    pub params: ModelParams,
    /// Seeds per cell.
    pub seeds: u64,
    /// Cells, scenario-major (all backends of scenario 0 first).
    pub cells: Vec<MatrixCell>,
}

impl AvailabilityMatrix {
    /// Total confirmed violations across all cells. Non-zero fails CI.
    pub fn confirmed_violations(&self) -> u64 {
        self.cells.iter().map(|c| c.confirmed_violations).sum()
    }

    /// Render the human-readable matrix report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "AVAILABILITY MATRIX (n = {}, {} seeds/cell; availability = completed / \
             (invoked − crashed-pending); verdicts via the pending-aware checker; \
             * marks cells the backend claims to tolerate)",
            self.params.n, self.seeds
        )
        .unwrap();
        writeln!(
            out,
            "  {:<22} {:<10} {:<9} {:>6} {:>6} {:>9} {:>8} {:>9} {:>5} {:>5} {:>5} {:>5} {:>8}",
            "backend",
            "scenario",
            "spec",
            "avail",
            "lin",
            "mean-lat",
            "msgs/op",
            "bytes/op",
            "nlin",
            "unk",
            "susp",
            "viol",
            "cr-pend"
        )
        .unwrap();
        for c in &self.cells {
            if c.unsupported > 0 && c.unsupported == c.runs {
                // The backend refused this spec for every seed: an honest
                // n/a cell, not a zero-availability one.
                writeln!(
                    out,
                    "  {:<22} {:<9}{} {:<9} n/a (backend does not implement this spec)",
                    c.backend,
                    c.scenario,
                    if c.tolerated { "*" } else { " " },
                    c.spec,
                )
                .unwrap();
                continue;
            }
            writeln!(
                out,
                "  {:<22} {:<9}{} {:<9} {:>5.0}% {:>6} {:>9.0} {:>8.1} {:>9.1} {:>5} {:>5} {:>5} {:>5} {:>8}",
                c.backend,
                c.scenario,
                if c.tolerated { "*" } else { " " },
                c.spec,
                c.availability() * 100.0,
                c.linearizable,
                c.mean_latency(),
                c.msgs_per_op(),
                c.bytes_per_op(),
                c.not_linearizable,
                c.unknown,
                c.suspect,
                c.confirmed_violations,
                format!("{}m/{}a/{}x", c.crashed_mutators, c.crashed_accessors, c.crashed_mixed),
            )
            .unwrap();
        }
        let viol = self.confirmed_violations();
        writeln!(out, "  confirmed violations (tolerated cell, non-suspect, refuted): {viol}")
            .unwrap();
        out
    }

    /// Serialize the matrix as JSON (hand-rolled: labels are plain ASCII,
    /// no external dependency needed).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let p = self.params;
        writeln!(
            s,
            "  \"params\": {{\"n\": {}, \"d\": {}, \"u\": {}, \"epsilon\": {}}},",
            p.n,
            p.d.as_ticks(),
            p.u.as_ticks(),
            p.epsilon.as_ticks()
        )
        .unwrap();
        writeln!(s, "  \"seeds\": {},", self.seeds).unwrap();
        writeln!(s, "  \"confirmed_violations\": {},", self.confirmed_violations()).unwrap();
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            write!(
                s,
                "    {{\"backend\": \"{}\", \"scenario\": \"{}\", \"spec\": \"{}\", \
                 \"tolerated\": {}, \
                 \"runs\": {}, \"unsupported\": {}, \"ops_total\": {}, \"ops_completed\": {}, \
                 \"crashed_pending\": {}, \"crashed_mutators\": {}, \
                 \"crashed_accessors\": {}, \"crashed_mixed\": {}, \"availability\": {:.4}, \
                 \"mean_latency\": {:.1}, \"msgs_per_op\": {:.2}, \"bytes_per_op\": {:.2}, \
                 \"quorum_round_trips\": {}, \"fast_reads\": {}, \
                 \"linearizable\": {}, \"not_linearizable\": {}, \"unknown\": {}, \
                 \"suspect\": {}, \"truncated\": {}, \"confirmed_violations\": {}}}",
                c.backend,
                c.scenario,
                c.spec,
                c.tolerated,
                c.runs,
                c.unsupported,
                c.ops_total,
                c.ops_completed,
                c.crashed_pending,
                c.crashed_mutators,
                c.crashed_accessors,
                c.crashed_mixed,
                c.availability(),
                c.mean_latency(),
                c.msgs_per_op(),
                c.bytes_per_op(),
                c.quorum_round_trips,
                c.fast_reads,
                c.linearizable,
                c.not_linearizable,
                c.unknown,
                c.suspect,
                c.truncated,
                c.confirmed_violations,
            )
            .unwrap();
            s.push_str(if i + 1 < self.cells.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Model parameters for the matrix: `n = 5` (so two crashes are a tolerated
/// minority for the quorum register), timing as in the default experiment.
pub fn matrix_params() -> ModelParams {
    let base = ModelParams::default_experiment();
    ModelParams::new(5, base.d, base.u, base.epsilon)
}

/// Simulate one seeded run of `algo` under `scenario` and score it into a
/// single-run [`MatrixCell`]. Register backends get the engineered register
/// workload; the generic backends get the seeded workload over the spec
/// [`backend_workload_spec`] picks. An [`UnsupportedSpec`] refusal becomes a
/// run with `unsupported = 1` and nothing simulated.
pub(crate) fn matrix_cell_for(
    algo: Algorithm,
    scenario: Scenario,
    p: ModelParams,
    seed: u64,
    slack: Time,
    obs: &Obs,
) -> MatrixCell {
    let (spec, spec_label) = backend_workload_spec(algo, seed);
    let schedule = if spec_label == "register" {
        fault_sweep_schedule(p, seed, slack)
    } else {
        spec_workload_schedule(p, &spec, seed, slack)
    };
    let tolerated = scenario.tolerated(&algo.tolerance(p));
    let mut cell = MatrixCell {
        backend: algo.label(),
        scenario: scenario.label(),
        spec: spec_label.to_string(),
        tolerated,
        runs: 1,
        ..MatrixCell::default()
    };
    let mut cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
        .with_schedule(schedule)
        .with_obs(obs.clone());
    if let Some(plan) = scenario.plan(p, seed) {
        cfg = cfg.with_faults(plan);
    }
    let out = match run_backend(&algo, &spec, &cfg) {
        Ok(out) => out,
        Err(_) => {
            // Honest n/a: the backend refused the spec, so no run happened
            // and the cell contributes nothing to availability.
            cell.unsupported = 1;
            return cell;
        }
    };
    let run = &out.run;

    let verdict = History::from_run_with_pending(run)
        .map(|h| check_fast_with(&spec, &h, CheckConfig::default(), obs));
    let by_class = run.crashed_pending_by_class(spec.as_ref());
    cell.ops_total = run.ops.len() as u64;
    cell.ops_completed = run.completed().count() as u64;
    cell.crashed_pending = run.crashed_pending;
    cell.crashed_mutators = by_class.mutators;
    cell.crashed_accessors = by_class.accessors;
    cell.crashed_mixed = by_class.mixed;
    cell.suspect = run.is_suspect() as u64;
    cell.truncated = run.truncated as u64;
    cell.lat_sum = run.ops.iter().filter_map(|o| o.latency()).map(|t| t.as_ticks()).sum();
    cell.lat_n = run.ops.iter().filter_map(|o| o.latency()).count() as u64;
    cell.msgs_sent = run.msgs_sent;
    cell.bytes_sent = run.bytes_sent;
    cell.quorum_round_trips = out.quorum_round_trips;
    cell.fast_reads = out.fast_reads;
    match verdict {
        Ok(Verdict::Linearizable(_)) => cell.linearizable = 1,
        Ok(Verdict::NotLinearizable) => {
            cell.not_linearizable = 1;
            if tolerated && !run.is_suspect() {
                cell.confirmed_violations = 1;
            }
        }
        // Undecided and truncated runs alike are tallied as unknown;
        // neither is a confirmed violation.
        Ok(Verdict::Unknown) | Err(_) => cell.unknown = 1,
    }
    cell
}

/// Run the full cross-backend availability matrix with `seeds` runs per
/// cell, threading `obs` through every simulation (engine counters,
/// `mr.*` / `qsm.*` / `abd.*` quorum metrics, `reliable.*` recovery metrics
/// aggregate there).
pub fn availability_matrix(seeds: u64, obs: &Obs) -> AvailabilityMatrix {
    let p = matrix_params();
    let scenarios = default_scenarios();
    let backends = default_backends(p);
    // Space same-process invocations past the recovery wrapper's extended
    // waits, like the drop-rate sweep does.
    let recovery = RecoveryConfig { rto: p.d * 2, max_retries: 2 };
    let slack = p.d + p.u + p.epsilon + recovery.backoff_budget() + Time(1);

    let jobs: Vec<(usize, usize, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(si, _)| {
            (0..backends.len()).flat_map(move |bi| (0..seeds).map(move |s| (si, bi, s)))
        })
        .collect();
    let results = parallel_map(jobs, 0, |&(si, bi, seed)| {
        (si, bi, matrix_cell_for(backends[bi], scenarios[si], p, seed, slack, obs))
    });

    // Fold per-run cells into per-(scenario, backend) aggregates.
    let nb = backends.len();
    let mut cells: Vec<MatrixCell> = Vec::with_capacity(scenarios.len() * nb);
    for (si, s) in scenarios.iter().enumerate() {
        for (bi, b) in backends.iter().enumerate() {
            let mut agg = MatrixCell {
                backend: b.label(),
                scenario: s.label(),
                tolerated: s.tolerated(&b.tolerance(p)),
                ..MatrixCell::default()
            };
            for (_, _, c) in results.iter().filter(|(rsi, rbi, _)| *rsi == si && *rbi == bi) {
                if agg.spec.is_empty() {
                    agg.spec = c.spec.clone();
                }
                agg.runs += c.runs;
                agg.unsupported += c.unsupported;
                agg.ops_total += c.ops_total;
                agg.ops_completed += c.ops_completed;
                agg.crashed_pending += c.crashed_pending;
                agg.crashed_mutators += c.crashed_mutators;
                agg.crashed_accessors += c.crashed_accessors;
                agg.crashed_mixed += c.crashed_mixed;
                agg.linearizable += c.linearizable;
                agg.not_linearizable += c.not_linearizable;
                agg.unknown += c.unknown;
                agg.suspect += c.suspect;
                agg.truncated += c.truncated;
                agg.confirmed_violations += c.confirmed_violations;
                agg.lat_sum += c.lat_sum;
                agg.lat_n += c.lat_n;
                agg.msgs_sent += c.msgs_sent;
                agg.bytes_sent += c.bytes_sent;
                agg.quorum_round_trips += c.quorum_round_trips;
                agg.fast_reads += c.fast_reads;
            }
            cells.push(agg);
        }
    }
    AvailabilityMatrix { params: p, seeds, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_smoke_two_seeds() {
        let m = availability_matrix(2, &Obs::off());
        assert_eq!(m.cells.len(), default_scenarios().len() * default_backends(m.params).len());
        assert_eq!(m.confirmed_violations(), 0, "{}", m.render());

        // Fault-free cells: full availability and all-linearizable for every
        // backend.
        for c in m.cells.iter().filter(|c| c.scenario == "none") {
            assert_eq!(c.linearizable, m.seeds, "{}: {}", c.backend, m.render());
            assert!((c.availability() - 1.0).abs() < 1e-9, "{}", c.backend);
        }
        // The MR register keeps full availability through a two-crash
        // minority...
        let mr_crash = m
            .cells
            .iter()
            .find(|c| c.backend == "mr-register" && c.scenario == "crash(2)")
            .unwrap();
        assert!(mr_crash.tolerated);
        assert_eq!(mr_crash.linearizable, m.seeds);
        assert!((mr_crash.availability() - 1.0).abs() < 1e-9, "{}", m.render());
        // ...while the centralized backend loses its coordinator.
        let central_crash = m
            .cells
            .iter()
            .find(|c| c.backend == "centralized" && c.scenario == "crash(p0)")
            .unwrap();
        assert!(!central_crash.tolerated);
        assert!(central_crash.availability() < 1.0, "{}", m.render());
        // Communication cost is recorded wherever ops completed.
        for c in m.cells.iter().filter(|c| c.ops_completed > 0 && c.backend != "naive") {
            assert!(c.msgs_per_op() >= 0.0);
        }
        let mr_none =
            m.cells.iter().find(|c| c.backend == "mr-register" && c.scenario == "none").unwrap();
        assert!(mr_none.quorum_round_trips > 0);
        assert!(mr_none.bytes_per_op() > mr_none.msgs_per_op());

        // The two generic quorum backends tolerate the crash minority too:
        // every seeded run linearizes with full availability, over non-register
        // workloads.
        for backend in ["quorum-sm", "abd-kv"] {
            let c =
                m.cells.iter().find(|c| c.backend == backend && c.scenario == "crash(2)").unwrap();
            assert!(c.tolerated, "{backend}");
            assert_eq!(c.unsupported, 0, "{backend}");
            assert_eq!(c.linearizable, m.seeds, "{backend}: {}", m.render());
            assert!((c.availability() - 1.0).abs() < 1e-9, "{backend}: {}", m.render());
            assert_ne!(c.spec, "register", "{backend}");
        }

        // JSON is well-formed enough to round-trip the headline number.
        let json = m.to_json();
        assert!(json.contains("\"confirmed_violations\": 0"));
        assert!(json.contains("\"backend\": \"mr-register\""));
        assert!(json.contains("\"backend\": \"quorum-sm\""));
        assert!(json.contains("\"spec\": \"kv-store\""));
    }

    /// ISSUE acceptance gate: the quorum state machine completes and
    /// linearizes (pending-aware, non-`Unknown`) on queue, counter, and
    /// kv-store workloads at `n = 5` with `⌊(n−1)/2⌋ = 2` crashes, across
    /// 50+ seeds. The seed rotation in [`backend_workload_spec`] covers all
    /// three types.
    #[test]
    fn quorum_sm_linearizes_every_type_under_minority_crashes() {
        let p = matrix_params();
        let recovery = RecoveryConfig { rto: p.d * 2, max_retries: 2 };
        let slack = p.d + p.u + p.epsilon + recovery.backoff_budget() + Time(1);
        let mut by_spec = [0u64; 3];
        for seed in 0..51 {
            let cell = matrix_cell_for(
                Algorithm::QuorumSm,
                Scenario::CrashMinority,
                p,
                seed,
                slack,
                &Obs::off(),
            );
            by_spec[(seed % 3) as usize] += 1;
            assert_eq!(cell.unsupported, 0, "seed {seed}");
            assert_eq!(
                (cell.linearizable, cell.unknown, cell.not_linearizable),
                (1, 0, 0),
                "seed {seed}"
            );
            assert_eq!(cell.ops_completed + cell.crashed_pending, cell.ops_total, "seed {seed}");
        }
        assert_eq!(by_spec, [17, 17, 17]);
    }

    /// An unsupported backend × spec combination renders as an honest `n/a`
    /// cell instead of zero availability, and is marked in the JSON.
    #[test]
    fn unsupported_cells_render_as_na() {
        let p = matrix_params();
        let cell = MatrixCell {
            backend: "abd-kv".to_string(),
            scenario: "none".to_string(),
            spec: "fifo-queue".to_string(),
            runs: 2,
            unsupported: 2,
            ..MatrixCell::default()
        };
        let m = AvailabilityMatrix { params: p, seeds: 2, cells: vec![cell] };
        assert!(
            m.render().contains("n/a (backend does not implement this spec)"),
            "{}",
            m.render()
        );
        assert!(m.to_json().contains("\"unsupported\": 2"));
    }

    /// The seeded generic workload respects per-process spacing and always
    /// ends in pure-accessor rounds, for any spec.
    #[test]
    fn spec_workloads_mix_classes_and_space_invocations() {
        let p = matrix_params();
        let slack = Time(46_201);
        for seed in 0..6 {
            let (spec, _) = backend_workload_spec(Algorithm::QuorumSm, seed);
            let schedule = spec_workload_schedule(p, &spec, seed, slack);
            assert_eq!(schedule.timed.len(), 6 + 2 * p.n);
            let mut per_pid: std::collections::BTreeMap<Pid, Vec<Time>> =
                std::collections::BTreeMap::new();
            for ti in &schedule.timed {
                per_pid.entry(ti.pid).or_default().push(ti.at);
            }
            for times in per_pid.values() {
                for w in times.windows(2) {
                    assert!(w[1] - w[0] >= slack, "seed {seed}: {times:?}");
                }
            }
        }
    }
}
