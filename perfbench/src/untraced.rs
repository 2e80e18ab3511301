//! Untraced runs: the program's public entry points, timed from outside.
//! They give the end-to-end metrics.

use crate::json::{array, Obj};
use crate::workload::{queue_stream, StreamEvent, Workload, CHECK_KIND};
use lintime_bench::serve::{serve, ServeConfig, ServeReport};
use lintime_bench::streamgen::run_scenario;
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats};
use std::hint::black_box;
use std::time::Instant;

/// Constructions timed per `setup_s` sample of the checker workload, whose
/// set-up (spec and checker construction) takes about a microsecond.
const CHECKER_SETUPS: u32 = 2_000;

/// The outcome of one untraced run.
pub fn run(workload: &Workload) -> Result<Obj, String> {
    match workload {
        Workload::Serve(cfg) => run_serve(cfg),
        &Workload::Check { ops, procs, flush_ops } => Ok(run_check(ops, procs, flush_ops)),
    }
}

/// Operations that failed in a serve run: every arrival of a shard whose
/// verdict is not `linearizable`; otherwise arrivals that never completed
/// plus completed operations over their class envelope.
pub fn serve_failed(report: &ServeReport) -> u64 {
    report
        .shard_reports
        .iter()
        .map(|s| {
            if s.verdict_class != "linearizable" {
                s.arrivals
            } else {
                s.arrivals.saturating_sub(s.ops) + s.envelope_violations
            }
        })
        .sum()
}

/// Whether a serve run's output is right: every shard linearizable, no
/// envelope violation, every arrival admitted and completed.
pub fn serve_correct(report: &ServeReport) -> bool {
    report.verdicts.is_linearizable()
        && report.envelope_violations == 0
        && report.ops == report.arrivals
        && report.shard_reports.iter().all(|s| s.unadmitted == 0 && !s.truncated)
}

/// Per-shard figures the traced run must reproduce exactly.
#[derive(Clone, Debug)]
pub struct ShardPrint {
    pub shard: usize,
    pub arrivals: u64,
    pub ops: u64,
    pub verdict: &'static str,
    pub peak_in_flight: u64,
    pub flushes: u64,
    pub gc_reclaimed: u64,
    pub peak_resident: u64,
    /// `(class, max service ticks)` of each class that completed an op.
    pub classes: Vec<(&'static str, i64)>,
    pub envelope_violations: u64,
}

/// The per-shard figures of an untraced report.
pub fn prints(report: &ServeReport) -> Vec<ShardPrint> {
    report
        .shard_reports
        .iter()
        .map(|s| ShardPrint {
            shard: s.shard,
            arrivals: s.arrivals,
            ops: s.ops,
            verdict: s.verdict_class,
            peak_in_flight: s.peak_in_flight as u64,
            flushes: s.stats.flushes,
            gc_reclaimed: s.stats.gc_reclaimed,
            peak_resident: s.stats.peak_resident as u64,
            classes: s.classes.iter().map(|c| (c.class, c.max_ticks)).collect(),
            envelope_violations: s.envelope_violations,
        })
        .collect()
}

/// Render per-shard figures as a JSON array.
pub fn shard_fingerprint(prints: &[ShardPrint]) -> String {
    array(prints.iter().map(|s| {
        let classes = array(s.classes.iter().map(|&(class, max)| {
            Obj::default().str("class", class).int("max_ticks", max as u64).render()
        }));
        Obj::default()
            .int("shard", s.shard as u64)
            .int("arrivals", s.arrivals)
            .int("ops", s.ops)
            .str("verdict", s.verdict)
            .int("peak_in_flight", s.peak_in_flight)
            .int("flushes", s.flushes)
            .int("gc_reclaimed", s.gc_reclaimed)
            .int("peak_resident", s.peak_resident)
            .int("envelope_violations", s.envelope_violations)
            .raw("classes", &classes)
            .render()
    }))
}

fn ticks(v: Option<u64>) -> f64 {
    v.map_or(f64::NAN, |t| t as f64)
}

fn run_serve(cfg: &ServeConfig) -> Result<Obj, String> {
    let t0 = Instant::now();
    let report = serve(cfg)?;
    let elapsed = t0.elapsed();
    // `serve` times its worker span itself; everything else it does —
    // generating the arrivals and registering histograms before the span,
    // rolling the shard reports up after it — is set-up, not service.
    let setup = elapsed.saturating_sub(report.wall);
    Ok(Obj::default()
        .num("setup_s", setup.as_secs_f64())
        .num("run_s", report.wall.as_secs_f64())
        .num("ops_per_s", report.ops as f64 / report.wall.as_secs_f64())
        .int("attempted", report.arrivals)
        .int("failed", serve_failed(&report))
        .bool("correct", serve_correct(&report))
        .int("ops", report.ops)
        .int("events", report.events)
        .num("service_p50_ticks", ticks(report.service_p50))
        .num("service_p999_ticks", ticks(report.service_p999))
        .num("total_p99_ticks", ticks(report.total_p99))
        .int("peak_in_flight", report.peak_in_flight as u64)
        .str("verdict", report.verdicts.class())
        .raw("shards", &shard_fingerprint(&prints(&report))))
}

/// Invocation → response latencies of the generated checker stream, in
/// ticks, indexed by latency (the stream's ops all take a handful of ticks).
pub fn stream_latency_counts(ops: usize, procs: usize) -> Vec<u64> {
    let mut invoked = vec![0i64; procs.max(1)];
    let mut counts: Vec<u64> = Vec::new();
    queue_stream(ops, procs, |ev| match ev {
        StreamEvent::Invoke(pid, t, _, _) => invoked[pid.0] = t.as_ticks(),
        StreamEvent::Respond(pid, t, _) => {
            let lat = (t.as_ticks() - invoked[pid.0]) as usize;
            if lat >= counts.len() {
                counts.resize(lat + 1, 0);
            }
            counts[lat] += 1;
        }
    });
    counts
}

/// The smallest latency at or below which a share `q` of the samples lie.
pub fn percentile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (lat, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return lat as f64;
        }
    }
    f64::NAN
}

/// Whether a checker run's output is right: verdict `Ok` over at least the
/// requested operations.
pub fn check_correct(stats: &StreamStats, verdict_ok: bool, ops: usize) -> bool {
    verdict_ok && stats.ops >= ops as u64
}

fn run_check(ops: usize, procs: usize, flush_ops: usize) -> Obj {
    let cfg = StreamConfig::default().with_flush_ops(flush_ops);
    // Set-up of `run_scenario`: the spec and the checker, built before the
    // first event; timed over many constructions.
    let t0 = Instant::now();
    for _ in 0..CHECKER_SETUPS {
        let spec = CHECK_KIND.spec();
        black_box(StreamChecker::with_config(&spec, cfg.clone()));
    }
    let setup_s = t0.elapsed().as_secs_f64() / f64::from(CHECKER_SETUPS);

    let t0 = Instant::now();
    let report = run_scenario(CHECK_KIND, black_box(ops), procs, cfg);
    let run_s = t0.elapsed().as_secs_f64();

    let ok = report.verdict.is_ok();
    let counts = stream_latency_counts(ops, procs);
    let p50 = percentile(&counts, 0.50);
    Obj::default()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .num("ops_per_s", report.stats.ops as f64 / run_s)
        .int("attempted", report.stats.ops.max(ops as u64))
        .int("failed", if ok { 0 } else { report.stats.ops.max(ops as u64) })
        .bool("correct", check_correct(&report.stats, ok, ops))
        .int("ops", report.stats.ops)
        .int("events", report.stats.events)
        .num("service_p50_ticks", p50)
        .num("service_p999_ticks", percentile(&counts, 0.999))
        // No ingress queue: arrival is invocation, so total = service.
        .num("total_p99_ticks", percentile(&counts, 0.99))
        .str("verdict", report.verdict.class())
        .raw("stats", &stats_json(&report.stats))
}

/// The checker statistics the traced run must reproduce exactly.
pub fn stats_json(s: &StreamStats) -> String {
    Obj::default()
        .int("events", s.events)
        .int("ops", s.ops)
        .int("flushes", s.flushes)
        .int("gc_reclaimed", s.gc_reclaimed)
        .int("fallbacks", s.fallbacks)
        .int("peak_resident", s.peak_resident as u64)
        .int("peak_pending", s.peak_pending as u64)
        .render()
}
