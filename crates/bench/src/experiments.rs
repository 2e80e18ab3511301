//! The experiment implementations behind every table and figure of the
//! paper. Each function produces a printable text report. [`REPORTS`] names
//! them for `lintime report`, the `lintime attack` subcommands run the
//! Theorem 2–5 reports, and the integration tests assert on the reports'
//! content.

use crate::sweep::parallel_map;
use crate::timeline;
use lintime_adt::classify;
use lintime_adt::spec::{erase, Invocation, ObjectSpec};
use lintime_adt::types::{FifoQueue, Register, RmwRegister, RootedTree, Stack};
use lintime_adt::universe::{ExploreLimits, Universe};
use lintime_bounds::adversary::{AttackReport, Outcome};
use lintime_bounds::tables::{measure_into, measure_worst_case, Table};
use lintime_bounds::theorem::Theorem;
use lintime_bounds::{fig11, formulas, tables};
use lintime_core::cluster::{run_algorithm, Algorithm};
use lintime_obs::Obs;
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::SimConfig;
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{ModelParams, Pid, Time};
use std::fmt::Write as _;
use std::sync::Arc;

/// Default experiment parameters (see DESIGN.md): `n = 4`, `d = 6000`,
/// `u = 2400`, `ε = (1 − 1/4)u = 1800`, so every division in the bound
/// formulas is exact.
pub fn default_params() -> ModelParams {
    ModelParams::default_experiment()
}

fn measured_table(mut table: Table, spec: &Arc<dyn ObjectSpec>, x: Time) -> String {
    let p = table.params;
    let measured = measure_worst_case(spec, p, x, Algorithm::Wtlw { x });
    measure_into(&mut table, &measured);
    table.render()
}

/// Table 1: registers with Read-Modify-Write.
pub fn table1_report() -> String {
    let p = default_params();
    let x = Time::ZERO;
    let spec = erase(RmwRegister::new(0));
    measured_table(tables::table1(p, x), &spec, x)
}

/// Table 2: FIFO queues.
pub fn table2_report() -> String {
    let p = default_params();
    let x = Time::ZERO;
    let spec = erase(FifoQueue::new());
    measured_table(tables::table2(p, x), &spec, x)
}

/// Table 3: stacks.
pub fn table3_report() -> String {
    let p = default_params();
    let x = Time::ZERO;
    let spec = erase(Stack::new());
    measured_table(tables::table3(p, x), &spec, x)
}

/// Table 4: rooted trees. The Theorem 3 rows use the last-sensitivity
/// parameters `k` *certified by the classifier* for our tree semantics,
/// reported alongside the paper's claimed `k = n` (see DESIGN.md §1).
pub fn table4_report() -> String {
    let p = default_params();
    let x = Time::ZERO;
    let tree = RootedTree::new();
    let universe = Universe::for_type(&tree);
    let limits = ExploreLimits { max_depth: 3, max_states: 100 };
    let k_insert = classify::max_last_sensitive_k(&tree, "insert", &universe, limits, p.n);
    let k_delete = classify::max_last_sensitive_k(&tree, "delete", &universe, limits, p.n);
    let spec = erase(RootedTree::new());
    let mut out = measured_table(tables::table4(p, x, k_insert, k_delete), &spec, x);
    writeln!(
        out,
        "\n  classifier-certified last-sensitivity: insert k = {k_insert}, delete k = {k_delete} \
         (paper asserts k = n = {} without fixing tree semantics)",
        p.n
    )
    .unwrap();
    out
}

/// Table 5: the class-level summary, with the measured column taken from the
/// queue (one representative operation per class).
pub fn table5_report() -> String {
    let p = default_params();
    let x = Time::ZERO;
    let spec = erase(FifoQueue::new());
    let measured = measure_worst_case(&spec, p, x, Algorithm::Wtlw { x });
    let mut t = tables::table5(p, x);
    for row in &mut t.rows {
        row.measured = match row.operation.as_str() {
            "Pure accessor" => measured.get("peek").copied(),
            s if s.starts_with("Last-sensitive") => measured.get("enqueue").copied(),
            s if s.starts_with("Pair-free") => measured.get("dequeue").copied(),
            s if s.starts_with("Transposable") => Some(measured["enqueue"] + measured["peek"]),
            _ => None,
        };
    }
    t.render()
}

/// Figure 11: the operation-class relationships, computed.
pub fn fig11_report() -> String {
    let limits = ExploreLimits { max_depth: 3, max_states: 120 };
    let reports = fig11::classify_all(limits, 4);
    let violations = fig11::check_relationships(&reports);
    let mut out = fig11::render(&reports);
    writeln!(
        out,
        "\n  consistency check: {}",
        if violations.is_empty() {
            "all declared classes match the computed classes ✓".to_string()
        } else {
            format!("VIOLATIONS: {violations:?}")
        }
    )
    .unwrap();
    out
}

fn outcome_label(o: &Outcome) -> &'static str {
    match o {
        Outcome::ViolationInBase => "VIOLATION (base run)",
        Outcome::ViolationInShifted => "VIOLATION (shifted run)",
        Outcome::NoViolation => "no violation",
        Outcome::Inconclusive(_) => "no violation (bound respected / inconclusive)",
    }
}

/// The lower-bound crossover sweeps (Figures 1–10 territory): for each
/// theorem, run the proof's adversarial construction against victims of
/// decreasing speed and report where violations stop — which should be the
/// bound formula. Ends with the standard Algorithm 1's control runs.
pub fn lower_bounds_report() -> String {
    sweeps_report(&Theorem::ALL, "all four constructions")
}

/// [`lower_bounds_report`] for one theorem: its sweep and its control run.
pub fn theorem_report(t: Theorem) -> String {
    sweeps_report(&[t], "this construction")
}

fn sweeps_report(theorems: &[Theorem], scope: &str) -> String {
    let p = default_params();
    let mut out = String::new();
    writeln!(
        out,
        "Lower-bound adversaries (n = {}, d = {}, u = {}, ε = {})",
        p.n, p.d, p.u, p.epsilon
    )
    .unwrap();
    for &t in theorems {
        writeln!(out, "\n{}", t.heading(p)).unwrap();
        let rows = parallel_map(t.sweep(), 0, |speed| (*speed, t.attack(p, *speed)));
        render_sweep(&mut out, t.quantity(), t.bound(p), &rows);
    }
    writeln!(out, "\nControl: the standard Algorithm 1 (X = 0) survives {scope}:").unwrap();
    for &t in theorems {
        let o = t.control(p).outcome;
        writeln!(out, "  {}: {}", t.name(), outcome_label(&o)).unwrap();
        assert!(!o.violated(), "standard algorithm must survive {}", t.name());
    }
    out
}

fn render_sweep(out: &mut String, label: &str, bound: Time, rows: &[(Time, AttackReport)]) {
    writeln!(out, "  {label:>18} | outcome").unwrap();
    for (speed, report) in rows {
        let marker = if *speed < bound { "<" } else { "≥" };
        writeln!(
            out,
            "  {:>13} ({marker} bound) | {}",
            speed.to_string(),
            outcome_label(&report.outcome)
        )
        .unwrap();
    }
    // Shape assertion: every victim strictly below the bound is defeated,
    // every victim at or above it survives.
    for (speed, report) in rows {
        if *speed < bound {
            assert!(
                report.outcome.violated(),
                "{label}: victim at {speed} (< {bound}) was NOT defeated"
            );
        } else {
            assert!(
                !report.outcome.violated(),
                "{label}: victim at {speed} (≥ {bound}) was wrongly defeated"
            );
        }
    }
    writeln!(out, "  crossover matches the formula: violations iff {label} < {bound} ✓").unwrap();
}

/// Binary-search the victim-speed axis of each Theorem 2–5 construction and
/// report the tick-exact violation threshold next to the bound formula.
pub fn crossover_report() -> String {
    let p = default_params();
    let mut out = String::new();
    writeln!(
        out,
        "Tick-exact lower-bound thresholds (n = {}, d = {}, u = {}, ε = {}):\n",
        p.n, p.d, p.u, p.epsilon
    )
    .unwrap();
    writeln!(out, "  {:<42} {:>10} {:>10} {:>7}", "construction", "measured", "formula", "probes")
        .unwrap();
    for t in Theorem::ALL {
        let c = t.crossover(p).unwrap();
        let (label, formula) = (t.search_label(), t.bound(p));
        writeln!(
            out,
            "  {:<42} {:>10} {:>10} {:>7}",
            label,
            c.first_safe.to_string(),
            formula.to_string(),
            c.probes
        )
        .unwrap();
        assert_eq!(c.first_safe, formula, "{label}: measured ≠ formula");
    }
    writeln!(out, "\nevery threshold equals its formula to the tick ✓").unwrap();
    out
}

/// Textual reproductions of the paper's run diagrams (Figures 1–10): the
/// base and shifted runs of the Theorem 3, 4 and 5 constructions against a
/// victim inside each bound, drawn to scale.
pub fn timelines_report() -> String {
    let p = default_params();
    let width = 100;
    let mut out = String::new();
    let draw = |out: &mut String, run: &Option<lintime_sim::run::Run>| {
        if let Some(run) = run {
            out.push_str(&timeline::render(run, width));
        }
    };

    writeln!(out, "=== Figure 1 analogue: Theorem 3 runs R1 (base) and R2 (shifted) ===").unwrap();
    writeln!(out, "k = {} concurrent write instances under the circulant delay matrix;", p.n)
        .unwrap();
    writeln!(out, "in R2 the algorithm's last-ordered instance finishes before its cyclic")
        .unwrap();
    writeln!(out, "successor begins, pinning it into the linearization prefix.\n").unwrap();
    let report = Theorem::Thm3.attack(p, Time(1500));
    if report.base.is_some() {
        writeln!(out, "R1 (admissible, linearizable):").unwrap();
        draw(&mut out, &report.base);
    }
    if report.shifted.is_some() {
        writeln!(out, "\nR2 = shift(R1, x̄) (admissible, NOT linearizable — checker verdict):")
            .unwrap();
        draw(&mut out, &report.shifted);
    }
    writeln!(out, "outcome: {:?}\n", report.outcome).unwrap();

    writeln!(out, "=== Figures 2–7 analogue: Theorem 4 run (pair-free rmw) ===").unwrap();
    writeln!(out, "p0's clock runs m = {} behind; both instances carry equal local", p.m())
        .unwrap();
    writeln!(out, "timestamps; every message takes the full d = {}.\n", p.d).unwrap();
    let report = Theorem::Thm4.attack(p, p.d + p.epsilon - Time(600));
    draw(&mut out, &report.base);
    writeln!(out, "outcome: {:?} (both returned the pre-state)\n", report.outcome).unwrap();

    writeln!(out, "=== Figures 8–10 analogue: Theorem 5 run (enqueue + peek) ===").unwrap();
    // A victim in the [d, d + m) band.
    let report = Theorem::Thm5.attack(p, p.d + p.m() - Time(600));
    draw(&mut out, &report.base);
    writeln!(
        out,
        "outcome: {:?} (p1's peek returned 2 while p0's and p2's returned 1)",
        report.outcome
    )
    .unwrap();
    out
}

/// The Section 1 claim: Algorithm 1 beats both folklore algorithms on every
/// operation class.
pub fn folklore_report() -> String {
    let p = default_params();
    let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
    let mut out = String::new();
    writeln!(
        out,
        "Folklore comparison (queue; worst-case latency in ticks; folklore bound 2d = {})",
        formulas::folklore_ub(p)
    )
    .unwrap();
    writeln!(out, "  {:<22} {:>9} {:>9} {:>9}", "algorithm", "enqueue", "peek", "dequeue").unwrap();
    let algos = vec![
        Algorithm::Wtlw { x: Time::ZERO },
        Algorithm::Wtlw { x: (p.d - p.epsilon) / 2 },
        Algorithm::Wtlw { x: p.d - p.epsilon },
        Algorithm::Centralized,
        Algorithm::Broadcast,
    ];
    let rows = parallel_map(algos, 0, |algo| {
        let measured = measure_worst_case(&spec, p, Time::ZERO, *algo);
        (*algo, measured)
    });
    for (algo, measured) in &rows {
        writeln!(
            out,
            "  {:<22} {:>9} {:>9} {:>9}",
            algo.label(),
            measured["enqueue"].to_string(),
            measured["peek"].to_string(),
            measured["dequeue"].to_string(),
        )
        .unwrap();
    }
    // Shape assertions: every WTLW configuration beats both baselines on
    // every operation.
    let baselines: Vec<_> = rows
        .iter()
        .filter(|(a, _)| matches!(a, Algorithm::Centralized | Algorithm::Broadcast))
        .collect();
    for (algo, measured) in &rows {
        if matches!(algo, Algorithm::Wtlw { .. }) {
            for op in ["enqueue", "peek", "dequeue"] {
                for (b, bm) in &baselines {
                    assert!(
                        measured[op] < bm[op],
                        "{} {op} {} !< {} {}",
                        algo.label(),
                        measured[op],
                        b.label(),
                        bm[op]
                    );
                }
            }
        }
    }
    writeln!(
        out,
        "\n  every Algorithm-1 configuration beats both folklore baselines on every operation ✓"
    )
    .unwrap();
    out
}

/// The Section 5 tradeoff: `|AOP| = d − X` vs `|MOP| = X + ε` as `X` sweeps
/// over `[0, d − ε]`; the sum is the constant `d + ε` and mixed operations
/// are unaffected.
pub fn x_tradeoff_report() -> String {
    let p = default_params();
    let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
    let steps = 7usize;
    let xs: Vec<Time> = (0..steps)
        .map(|i| Time((p.d - p.epsilon).as_ticks() * i as i64 / (steps as i64 - 1)))
        .collect();
    let rows = parallel_map(xs, 0, |x| {
        let measured = measure_worst_case(&spec, p, *x, Algorithm::Wtlw { x: *x });
        (*x, measured)
    });
    let mut out = String::new();
    writeln!(out, "X tradeoff (queue): |AOP| = d − X, |MOP| = X + ε, |OOP| = d + ε").unwrap();
    writeln!(
        out,
        "  {:>6} | {:>9} {:>9} {:>9} | {:>11}",
        "X", "peek", "enqueue", "dequeue", "peek+enq"
    )
    .unwrap();
    for (x, measured) in &rows {
        let (peek, enq, deq) = (measured["peek"], measured["enqueue"], measured["dequeue"]);
        writeln!(
            out,
            "  {:>6} | {:>9} {:>9} {:>9} | {:>11}",
            x.to_string(),
            peek.to_string(),
            enq.to_string(),
            deq.to_string(),
            (peek + enq).to_string()
        )
        .unwrap();
        assert_eq!(peek, p.d - *x, "AOP formula at X = {x}");
        assert_eq!(enq, *x + p.epsilon, "MOP formula at X = {x}");
        assert_eq!(deq, p.d + p.epsilon, "OOP formula at X = {x}");
        assert_eq!(peek + enq, p.d + p.epsilon, "constant sum at X = {x}");
    }
    writeln!(out, "  measured latencies equal the Lemma 4 formulas at every X ✓").unwrap();
    out
}

/// Section 5 assumption: the clock-sync substrate achieves `(1 − 1/n)u`.
pub fn clocksync_report() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Clock synchronization (Lundelius–Lynch averaging): achieved skew vs optimal (1 − 1/n)u"
    )
    .unwrap();
    writeln!(out, "  {:>3} | {:>10} | {:>13} | {:>13}", "n", "raw skew", "achieved", "bound")
        .unwrap();
    for n in [2usize, 3, 4, 6, 8] {
        let params = ModelParams::new(n, Time(6000), Time(2400), Time(1_000_000));
        let mut worst = Time::ZERO;
        let mut raw_worst = Time::ZERO;
        for seed in 0..10u64 {
            let raw: Vec<Time> = (0..n)
                .map(|i| Time(((seed as i64 + 1) * 7919 * i as i64) % 80_000 - 40_000))
                .collect();
            let outcome =
                lintime_clocksync::run_sync_round(params, raw, DelaySpec::UniformRandom { seed });
            worst = worst.max(outcome.achieved_skew);
            raw_worst = raw_worst.max(outcome.raw_skew);
        }
        let bound = ModelParams::optimal_epsilon(n, params.u);
        writeln!(
            out,
            "  {n:>3} | {:>10} | {:>13} | {:>13}",
            raw_worst.to_string(),
            worst.to_string(),
            bound.to_string()
        )
        .unwrap();
        assert!(worst <= bound + Time(n as i64), "n = {n}: {worst} > {bound}");
    }
    writeln!(out, "  achieved skew is within the optimal bound for every n ✓").unwrap();
    out
}

/// End-to-end linearizability sweep (Theorem 6): random workloads on every
/// data type, every delay model, checker must accept every run.
pub fn linearizability_sweep_report(seeds: u64) -> String {
    let p = default_params();
    let mut out = String::new();
    let mut total = 0u64;
    let configs: Vec<(usize, u64)> = (0..seeds)
        .flat_map(|s| (0..lintime_adt::types::all_types().len()).map(move |t| (t, s)))
        .collect();
    let results = parallel_map(configs, 0, |(type_idx, seed)| {
        let spec = lintime_adt::types::all_types().swap_remove(*type_idx);
        let run = random_workload_run(p, &spec, *seed);
        let history = lintime_check::history::History::from_run(&run).expect("complete");
        let verdict = lintime_check::monitor::check_fast(&spec, &history);
        (spec.name(), *seed, verdict, run.ops.len(), run.truncated, run.is_suspect())
    });
    let mut unknown = 0u64;
    let (mut truncated, mut suspect) = (0u64, 0u64);
    for (name, seed, verdict, ops, trunc, susp) in &results {
        total += *ops as u64;
        truncated += *trunc as u64;
        suspect += *susp as u64;
        // Unknown (checker budget) is reported, never conflated with a
        // violation; NotLinearizable is a hard failure of Theorem 6.
        match verdict {
            lintime_check::wing_gong::Verdict::Linearizable(_) => {}
            lintime_check::wing_gong::Verdict::Unknown => unknown += 1,
            lintime_check::wing_gong::Verdict::NotLinearizable => {
                panic!("{name} seed {seed}: non-linearizable run found")
            }
        }
    }
    assert_eq!(unknown, 0, "checker budget exhausted on {unknown} runs");
    writeln!(
        out,
        "Theorem 6 sweep: {} runs ({} ops total) across {} types × {} seeds — all linearizable ✓",
        results.len(),
        total,
        lintime_adt::types::all_types().len(),
        seeds
    )
    .unwrap();
    // Verdicts only bind on runs the engine and violation detector vouch
    // for, so the honesty flags are part of the result, not a footnote.
    writeln!(out, "honesty flags: {truncated} truncated, {suspect} suspect runs").unwrap();
    out
}

/// A deterministic pseudo-random contended workload for one type.
pub fn random_workload_run(
    p: ModelParams,
    spec: &Arc<dyn ObjectSpec>,
    seed: u64,
) -> lintime_sim::run::Run {
    use lintime_sim::rng::SplitMix64;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut schedule = Schedule::new();
    let ops = spec.ops().to_vec();
    let mut next_free = vec![Time::ZERO; p.n];
    for _ in 0..12 {
        let meta = &ops[rng.gen_range(0..ops.len())];
        let args = spec.suggested_args(meta.name);
        let arg = args[rng.gen_range(0..args.len())].clone();
        let pid = rng.gen_range(0..p.n);
        // Invoke at a random time ≥ when that process is free again
        // (operations take at most d + u + ε).
        let at = next_free[pid] + Time(rng.gen_range(0..3 * p.d.as_ticks()));
        next_free[pid] = at + p.d + p.u + p.epsilon + Time(1);
        schedule = schedule.at(Pid(pid), at, Invocation::new(meta.name, arg));
    }
    let delay = match rng.gen_range(0..3) {
        0 => DelaySpec::AllMax,
        1 => DelaySpec::AllMin,
        _ => DelaySpec::UniformRandom { seed },
    };
    // Random-but-admissible clock offsets.
    let offsets: Vec<Time> =
        (0..p.n).map(|_| Time(rng.gen_range(0..=p.epsilon.as_ticks()))).collect();
    let x = Time(rng.gen_range(0..=(p.d - p.epsilon).as_ticks()));
    let cfg = SimConfig::new(p, delay).with_offsets(offsets).with_schedule(schedule);
    let run = run_algorithm(Algorithm::Wtlw { x }, spec, &cfg);
    assert!(run.complete(), "workload did not complete: {run}");
    assert!(run.errors.is_empty(), "{:?}", run.errors);
    run
}

/// A register workload engineered to expose lost mutator announcements: a
/// burst of writes followed by reads at *every* process well after the last
/// write responded. A process that silently missed the final write then
/// returns a stale value under real-time precedence — exactly what the
/// checker refutes. `slack` spaces same-process invocations so the recovery
/// layer's extended waits never overlap. (Also replayed by `lintime trace
/// faults`, see [`crate::tracecmd`].)
pub(crate) fn fault_sweep_schedule(p: ModelParams, seed: u64, slack: Time) -> Schedule {
    use lintime_sim::rng::SplitMix64;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFA17_5EED);
    let mut schedule = Schedule::new();
    let mut next_free = vec![Time::ZERO; p.n];
    for w in 0..6 {
        let pid = rng.gen_range(0usize..p.n);
        let at = next_free[pid] + Time(rng.gen_range(0i64..2 * p.d.as_ticks()));
        next_free[pid] = at + slack;
        schedule = schedule.at(Pid(pid), at, Invocation::new("write", w + 1));
    }
    // Two read rounds per process, after every write has responded (writes
    // ack in ε, so all reads causally follow all writes).
    let mut base = *next_free.iter().max().unwrap() + slack;
    for _ in 0..2 {
        for (i, nf) in next_free.iter_mut().enumerate() {
            let at = base.max(*nf) + Time(rng.gen_range(0i64..p.d.as_ticks()));
            *nf = at + slack;
            schedule = schedule.at(Pid(i), at, Invocation::nullary("read"));
        }
        base = *next_free.iter().max().unwrap();
    }
    schedule
}

/// Fault-injection sweep (robustness extension): linearizability survival
/// rate and mean latency vs message drop rate, for the bare Algorithm 1
/// versus the recovery-wrapped variant. Bare nodes stay *complete* under
/// omission faults (responses are timer-driven) but silently lose mutator
/// announcements, so the checker catches non-linearizable runs; the recovery
/// wrapper retransmits and must keep every run certified.
///
/// Every simulator run and checker call is routed through `obs`, so
/// `--metrics-out` can leave a machine-readable metrics snapshot next to the
/// text report. The sweep runs in parallel, so counters aggregate across all
/// seeds and rates.
pub fn fault_sweep_report(seeds: u64, obs: &Obs) -> String {
    use lintime_core::reliable::{run_reliable, RecoveryConfig};
    use lintime_core::wtlw::WtlwNode;
    use lintime_sim::engine::simulate;
    use lintime_sim::faults::FaultPlan;

    let p = default_params();
    let x = Time::ZERO;
    let recovery = RecoveryConfig { rto: p.d * 2, max_retries: 2 };
    let slack = p.d + p.u + p.epsilon + recovery.backoff_budget() + Time(1);
    let rates: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

    let jobs: Vec<(usize, u64, bool)> = rates
        .iter()
        .enumerate()
        .flat_map(|(ri, _)| (0..seeds).flat_map(move |s| [(ri, s, false), (ri, s, true)]))
        .collect();
    let results = parallel_map(jobs, 0, |&(ri, seed, recovered)| {
        let spec = erase(Register::new(0));
        let plan = FaultPlan::new(seed).drop_all(rates[ri]);
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
            .with_faults(plan)
            .with_schedule(fault_sweep_schedule(p, seed, slack))
            .with_obs(obs.clone());
        let run = if recovered {
            run_reliable(&spec, &cfg, x, recovery)
        } else {
            simulate(&cfg, |pid| WtlwNode::new(pid, Arc::clone(&spec), p, x))
        };
        // Three-way verdict: `Unknown` (checker budget) is tallied in its
        // own column — an unresolved run is not a failed one.
        let (lin, unknown) = match lintime_check::history::History::from_run(&run) {
            Ok(h) => {
                let cfg = lintime_check::wing_gong::CheckConfig::default();
                match lintime_check::monitor::check_fast_with(&spec, &h, cfg, obs) {
                    lintime_check::wing_gong::Verdict::Linearizable(_) => (true, false),
                    lintime_check::wing_gong::Verdict::NotLinearizable => (false, false),
                    lintime_check::wing_gong::Verdict::Unknown => (false, true),
                }
            }
            Err(_) => (false, false), // incomplete run: did not survive
        };
        let lats: Vec<i64> =
            run.ops.iter().filter_map(|o| o.latency()).map(|t| t.as_ticks()).collect();
        // The "flagged, never silently wrong" guarantee: an unflagged
        // recovered run must never be *refuted* (a lost announcement
        // implies an exhausted retransmission budget at the sender, which
        // marks the run suspect). An Unknown verdict is unresolved, not a
        // refutation.
        if recovered && !run.is_suspect() {
            assert!(
                lin || unknown,
                "recovered run not flagged yet non-linearizable (seed {seed}): {run}"
            );
        }
        (
            ri,
            recovered,
            lin,
            unknown,
            run.is_suspect(),
            run.truncated,
            lats.iter().sum::<i64>(),
            lats.len() as u64,
        )
    });

    #[derive(Default, Clone, Copy)]
    struct Cell {
        survived: u64,
        unknown: u64,
        suspect: u64,
        truncated: u64,
        lat_sum: i64,
        lat_n: u64,
    }
    let mut cells = [[Cell::default(); 2]; 5];
    for (ri, recovered, survived, unknown, suspect, truncated, lat_sum, lat_n) in results {
        let c = &mut cells[ri][recovered as usize];
        c.survived += survived as u64;
        c.unknown += unknown as u64;
        c.suspect += suspect as u64;
        c.truncated += truncated as u64;
        c.lat_sum += lat_sum;
        c.lat_n += lat_n;
    }

    let mut out = String::new();
    writeln!(
        out,
        "  survival = complete + checker-verified linearizable, over {seeds} seeds; \
         'flagged' counts recovered runs the violation detector marked suspect; \
         'trunc' counts runs the engine cut at its event budget (Run::truncated); \
         unknown verdicts (checker budget) are tallied separately, not as failures"
    )
    .unwrap();
    writeln!(
        out,
        "  recovery: rto = 2d = {}, max_retries = {}, backoff budget = {}",
        recovery.rto,
        recovery.max_retries,
        recovery.backoff_budget()
    )
    .unwrap();
    writeln!(
        out,
        "  drop rate |  bare: survive  mean-lat | recovered: survive  mean-lat  flagged  trunc"
    )
    .unwrap();
    let pct = |c: &Cell| 100.0 * c.survived as f64 / seeds as f64;
    let lat = |c: &Cell| if c.lat_n == 0 { 0.0 } else { c.lat_sum as f64 / c.lat_n as f64 };
    for (ri, rate) in rates.iter().enumerate() {
        let bare = &cells[ri][0];
        let rec = &cells[ri][1];
        writeln!(
            out,
            "  {:>8.2}% | {:>13.0}% {:>9.0} | {:>16.0}% {:>9.0} {:>7} {:>6}",
            rate * 100.0,
            pct(bare),
            lat(bare),
            pct(rec),
            lat(rec),
            rec.suspect,
            bare.truncated + rec.truncated
        )
        .unwrap();
    }
    // Sanity anchors: a faultless network certifies everywhere (and raises
    // no flags), and the recovery wrapper never survives less often than
    // the bare algorithm.
    assert_eq!(cells[0][0].survived, seeds, "bare must be linearizable with no faults");
    assert_eq!(cells[0][1].survived, seeds, "recovered must be linearizable with no faults");
    assert_eq!(cells[0][1].suspect, 0, "no faults must raise no flags");
    let bare_total: u64 = cells.iter().map(|r| r[0].survived).sum();
    let rec_total: u64 = cells.iter().map(|r| r[1].survived).sum();
    assert!(
        rec_total >= bare_total,
        "recovery must not reduce survival ({rec_total} < {bare_total})"
    );
    let unk_total: u64 = cells.iter().flat_map(|r| r.iter()).map(|c| c.unknown).sum();
    writeln!(out, "  unknown verdicts (checker budget exhausted): {unk_total}").unwrap();
    let trunc_total: u64 = cells.iter().flat_map(|r| r.iter()).map(|c| c.truncated).sum();
    writeln!(out, "  truncated runs (engine event budget): {trunc_total}").unwrap();
    writeln!(
        out,
        "  recovery survival {rec_total}/{} ≥ bare {bare_total}/{} ✓",
        5 * seeds,
        5 * seeds
    )
    .unwrap();
    out
}

/// One named report: `lintime report <name>` prints it, and the digest
/// prints it under its section banner.
pub struct Report {
    /// The name on the command line.
    pub name: &'static str,
    /// The digest's banner for it, which also describes it.
    pub section: &'static str,
    /// Builds the text. Only the fault sweep routes its runs through the
    /// [`Obs`].
    pub run: fn(&Obs) -> String,
}

/// Every report of the reproduction, in digest order.
pub const REPORTS: &[Report] = &[
    Report { name: "table1", section: "TABLE 1", run: |_| table1_report() },
    Report { name: "table2", section: "TABLE 2", run: |_| table2_report() },
    Report { name: "table3", section: "TABLE 3", run: |_| table3_report() },
    Report { name: "table4", section: "TABLE 4", run: |_| table4_report() },
    Report { name: "table5", section: "TABLE 5", run: |_| table5_report() },
    Report { name: "fig11", section: "FIGURE 11", run: |_| fig11_report() },
    Report {
        name: "lower_bounds",
        section: "LOWER BOUNDS (Thms 2-5 / Figs 1-10)",
        run: |_| lower_bounds_report(),
    },
    Report { name: "folklore_compare", section: "FOLKLORE COMPARISON", run: |_| folklore_report() },
    Report { name: "x_tradeoff", section: "X TRADEOFF", run: |_| x_tradeoff_report() },
    Report { name: "clocksync_skew", section: "CLOCK SYNC", run: |_| clocksync_report() },
    Report {
        name: "linearizability",
        section: "LINEARIZABILITY SWEEP",
        run: |_| linearizability_sweep_report(6),
    },
    Report {
        name: "drop_sweep",
        section: "FAULT SWEEP (EXTENSION)",
        run: |obs| fault_sweep_report(4, obs),
    },
    Report {
        name: "table6_kv",
        section: "TABLE 6 (EXTENSION, KV STORE)",
        run: |_| table_kv_report(),
    },
    Report { name: "throughput", section: "THROUGHPUT (EXTENSION)", run: |_| throughput_report() },
    Report { name: "n_scaling", section: "N SCALING (EXTENSION)", run: |_| n_scaling_report() },
    Report {
        name: "workload_mix",
        section: "WORKLOAD MIXES (EXTENSION)",
        run: |_| workload_mix_report(),
    },
];

/// Every report in [`REPORTS`] under its section banner (`lintime report
/// all`), with the fault sweep instrumented through `obs`.
pub fn all_reports(obs: &Obs) -> String {
    let mut out = String::new();
    for r in REPORTS {
        writeln!(out, "\n================ {} ================\n{}", r.section, (r.run)(obs))
            .unwrap();
    }
    out
}

/// Extension "Table 6": the kv-store, a data type the paper never mentions,
/// bounded purely by its computed operation classes. `put` is last-sensitive
/// (last-wins per key) → Theorem 3; `get` is a pure accessor → Theorem 2;
/// `del` is a commutative pure mutator → *no* nontrivial lower bound from
/// the paper's theorems applies; `put`+`get` admit discriminators →
/// Theorem 5.
pub fn table_kv_report() -> String {
    use lintime_adt::types::KvStore;
    use lintime_bounds::tables::TableRow;
    let p = default_params();
    let x = Time::ZERO;
    let spec = erase(KvStore::new());

    // Certify the classification claims before printing bounds from them.
    let kv = KvStore::new();
    let universe = Universe::for_type(&kv);
    let limits = ExploreLimits { max_depth: 2, max_states: 80 };
    let k_put = classify::max_last_sensitive_k(&kv, "put", &universe, limits, p.n);
    assert_eq!(k_put, p.n, "put must certify k = n");
    assert!(classify::check_thm5_hypotheses(&kv, "put", "get", &universe, limits).is_some());
    assert_eq!(classify::max_last_sensitive_k(&kv, "del", &universe, limits, p.n), 0);

    let mut table = lintime_bounds::tables::Table {
        title: "Table 6 (extension): Operation Bounds for a Key-Value Store".into(),
        params: p,
        x,
        rows: vec![
            TableRow {
                operation: "Put".into(),
                previous_lb: None,
                new_lb: Some((formulas::thm3_last_sensitive_lb(p, k_put), "Thm 3")),
                new_ub: formulas::alg1_ub(p, x, lintime_adt::spec::OpClass::PureMutator),
                measured: None,
            },
            TableRow {
                operation: "Get".into(),
                previous_lb: None,
                new_lb: Some((formulas::thm2_pure_accessor_lb(p), "Thm 2")),
                new_ub: formulas::alg1_ub(p, x, lintime_adt::spec::OpClass::PureAccessor),
                measured: None,
            },
            TableRow {
                operation: "Del".into(),
                previous_lb: None,
                new_lb: None, // commutative: escapes Theorem 3
                new_ub: formulas::alg1_ub(p, x, lintime_adt::spec::OpClass::PureMutator),
                measured: None,
            },
            TableRow {
                operation: "Put + Get".into(),
                previous_lb: None,
                new_lb: Some((formulas::thm5_sum_lb(p), "Thm 5")),
                new_ub: formulas::alg1_ub(p, x, lintime_adt::spec::OpClass::PureMutator)
                    + formulas::alg1_ub(p, x, lintime_adt::spec::OpClass::PureAccessor),
                measured: None,
            },
        ],
    };
    let measured = measure_worst_case(&spec, p, x, Algorithm::Wtlw { x });
    measure_into(&mut table, &measured);
    table.render()
}

/// Sustained closed-loop throughput (extension): every process issues
/// back-to-back operations; completed operations per 1000 ticks of virtual
/// time, per algorithm.
pub fn throughput_report() -> String {
    let p = default_params();
    let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
    let per_proc = 25usize;
    let mut out = String::new();
    writeln!(
        out,
        "Sustained throughput (queue; {} processes × {per_proc} back-to-back enqueues):",
        p.n
    )
    .unwrap();
    writeln!(
        out,
        "  {:<22} {:>10} {:>14} {:>16}",
        "algorithm", "makespan", "ops/1000 ticks", "per-op latency"
    )
    .unwrap();
    let algos = vec![
        Algorithm::Wtlw { x: Time::ZERO },
        Algorithm::Wtlw { x: p.d - p.epsilon },
        Algorithm::Centralized,
        Algorithm::Broadcast,
    ];
    let rows = parallel_map(algos, 0, |algo| {
        let mut schedule = Schedule::new();
        for i in 0..p.n {
            schedule = schedule.script(lintime_sim::schedule::Script {
                pid: Pid(i),
                start: Time(i as i64),
                gap: Time::ZERO,
                invocations: (0..per_proc)
                    .map(|k| Invocation::new("enqueue", (i * 1000 + k) as i64))
                    .collect(),
            });
        }
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(schedule);
        let run = run_algorithm(*algo, &spec, &cfg);
        assert!(run.complete());
        let done = run.completed().count();
        let last_response =
            run.ops.iter().filter_map(|o| o.t_respond).max().expect("ops completed");
        let mean_latency = {
            let lats = run.latencies(Some("enqueue"));
            Time(lats.iter().map(|t| t.as_ticks()).sum::<i64>() / lats.len() as i64)
        };
        (*algo, done, last_response, mean_latency)
    });
    let mut rates = Vec::new();
    for (algo, done, makespan, mean_latency) in &rows {
        let rate = (*done as f64) * 1000.0 / (makespan.as_ticks() as f64);
        rates.push((algo.label(), rate));
        writeln!(
            out,
            "  {:<22} {:>10} {:>14.2} {:>16}",
            algo.label(),
            makespan.to_string(),
            rate,
            mean_latency.to_string()
        )
        .unwrap();
    }
    // Shape: closed-loop throughput is 1/latency per process, so the X = 0
    // configuration (ε per op) beats everything, and both folklore baselines
    // trail every Algorithm 1 configuration.
    let wtlw_min = rates
        .iter()
        .filter(|(l, _)| l.starts_with("wtlw"))
        .map(|(_, r)| *r)
        .fold(f64::INFINITY, f64::min);
    let folklore_max =
        rates.iter().filter(|(l, _)| !l.starts_with("wtlw")).map(|(_, r)| *r).fold(0.0, f64::max);
    assert!(
        wtlw_min > folklore_max,
        "every Algorithm 1 configuration must out-sustain the baselines"
    );
    writeln!(out, "\n  closed-loop throughput = 1 / per-op latency per process; Algorithm 1 sustains\n  {:.1}× the folklore rate at X = 0 ✓", rates[0].1 / folklore_max).unwrap();
    out
}

/// Bounds as functions of `n` (extension): with optimal synchronization,
/// `ε = (1 − 1/n)u`, so the pure-mutator upper bound and the Theorem 3
/// lower bound climb together toward `u` while everything else stands still.
pub fn n_scaling_report() -> String {
    let mut out = String::new();
    let (d, u) = (Time(6000), Time(2400));
    writeln!(out, "Scaling with n (d = {d}, u = {u}, ε = (1 − 1/n)u, X = 0):").unwrap();
    writeln!(
        out,
        "  {:>3} | {:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>9}",
        "n", "ε", "MOP measured", "Thm3 LB", "OOP measured", "Thm4 LB", "folklore"
    )
    .unwrap();
    let ns = vec![2usize, 3, 4, 6, 8];
    let rows = parallel_map(ns, 0, |n| {
        let p = ModelParams::with_optimal_epsilon(*n, d, u);
        let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
        let measured = measure_worst_case(&spec, p, Time::ZERO, Algorithm::Wtlw { x: Time::ZERO });
        (*n, p, measured["enqueue"], measured["dequeue"])
    });
    for (n, p, mop, oop) in &rows {
        let lb3 = formulas::thm3_last_sensitive_lb(*p, *n);
        let lb4 = formulas::thm4_pair_free_lb(*p);
        writeln!(
            out,
            "  {n:>3} | {:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>9}",
            p.epsilon.to_string(),
            mop.to_string(),
            lb3.to_string(),
            oop.to_string(),
            lb4.to_string(),
            formulas::folklore_ub(*p).to_string()
        )
        .unwrap();
        // Tightness at every n: MOP measured = ε = Thm 3 bound; OOP = d + ε.
        assert_eq!(*mop, p.epsilon);
        assert_eq!(*mop, lb3);
        assert_eq!(*oop, p.d + p.epsilon);
        assert!(*oop <= lb4.max(p.d + p.epsilon));
    }
    writeln!(out, "  the MOP bound is tight (measured = Thm 3 LB = ε) at every n ✓").unwrap();
    out
}

/// Mean (not worst-case) latencies per workload mix (extension): the X knob
/// should be tuned to the mix — read-heavy workloads favour large X
/// (accessors respond in `d − X`), write-heavy favour small X (mutators
/// respond in `X + ε`), and the folklore baseline loses on every mix.
pub fn workload_mix_report() -> String {
    use lintime_sim::workload::{Mix, Workload};
    let p = default_params();
    let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
    let mixes = [
        ("read-heavy", Mix::READ_HEAVY),
        ("balanced", Mix::BALANCED),
        ("write-heavy", Mix::WRITE_HEAVY),
    ];
    let algos = [
        ("wtlw X=0", Algorithm::Wtlw { x: Time::ZERO }),
        ("wtlw X=(d-ε)/2", Algorithm::Wtlw { x: (p.d - p.epsilon) / 2 }),
        ("wtlw X=d-ε", Algorithm::Wtlw { x: p.d - p.epsilon }),
        ("centralized", Algorithm::Centralized),
    ];
    let mut out = String::new();
    writeln!(out, "Mean latency by workload mix (queue; 10 ops/process × 3 seeds; ticks):")
        .unwrap();
    writeln!(
        out,
        "  {:<16} {:>12} {:>12} {:>12} {:>12}",
        "mix", algos[0].0, algos[1].0, algos[2].0, algos[3].0
    )
    .unwrap();
    let cells: Vec<((usize, usize), i64)> = parallel_map(
        (0..mixes.len()).flat_map(|m| (0..algos.len()).map(move |a| (m, a))).collect(),
        0,
        |(m, a)| {
            let mut sum = 0i64;
            let mut count = 0i64;
            for seed in 0..3u64 {
                let w = Workload { mix: mixes[*m].1, ops_per_process: 10, max_gap: p.d, seed };
                let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed })
                    .with_schedule(w.schedule(p, spec.as_ref()));
                let run = run_algorithm(algos[*a].1, &spec, &cfg);
                assert!(run.complete());
                for lat in run.latencies(None) {
                    sum += lat.as_ticks();
                    count += 1;
                }
            }
            ((*m, *a), sum / count)
        },
    );
    let mut grid = vec![vec![0i64; algos.len()]; mixes.len()];
    for ((m, a), v) in cells {
        grid[m][a] = v;
    }
    for (m, (label, _)) in mixes.iter().enumerate() {
        writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>12} {:>12}",
            label, grid[m][0], grid[m][1], grid[m][2], grid[m][3]
        )
        .unwrap();
    }
    // Shape: read-heavy best at X = d − ε (fast accessors); write-heavy
    // best at X = 0 (fast mutators); and the centralized baseline loses to
    // every Algorithm 1 setting on every mix.
    assert!(grid[0][2] < grid[0][0], "read-heavy must favour X = d − ε");
    assert!(grid[2][0] < grid[2][2], "write-heavy must favour X = 0");
    for (m, row) in grid.iter().enumerate() {
        for (a, v) in row.iter().enumerate().take(3) {
            assert!(v < &row[3], "mix {m}: wtlw[{a}] must beat centralized");
        }
    }
    writeln!(out, "  X tuning follows the mix; folklore loses everywhere ✓").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_core::cluster::op_stats;

    #[test]
    fn stats_helper_smoke() {
        let p = default_params();
        let spec: Arc<dyn ObjectSpec> = erase(FifoQueue::new());
        let run = random_workload_run(p, &spec, 1);
        let stats = op_stats(&run, &spec);
        assert!(!stats.is_empty());
    }

    #[test]
    fn table_reports_contain_measured_column() {
        let r = table2_report();
        assert!(r.contains("Enqueue + Peek"));
        assert!(r.contains("Measured"));
        // Measured column filled: MOP at X=0 measures ε = 1800.
        assert!(r.contains("1800"));
    }

    #[test]
    fn x_tradeoff_holds() {
        let r = x_tradeoff_report();
        assert!(r.contains("✓"));
    }

    #[test]
    fn linearizability_sweep_small() {
        let r = linearizability_sweep_report(2);
        assert!(r.contains("all linearizable"));
    }
}
