//! The three named workloads and the input generators the traced run shares
//! with the program.
//!
//! `serve` generates its open-loop arrivals privately, so the traced run
//! carries a copy of that generator ([`arrivals`]) and of `run_scenario`'s
//! queue stream ([`queue_stream`]). Both copies are pinned to the program:
//! the traced run must reproduce the untraced run's per-shard events, ops,
//! verdicts and per-class max ticks, and the checker's final statistics,
//! exactly, or the benchmark fails.

use lintime_adt::spec::{Invocation, OpClass};
use lintime_adt::value::Value;
use lintime_bench::serve::ServeConfig;
use lintime_bench::streamgen::StreamKind;
use lintime_sim::rng::SplitMix64;
use lintime_sim::time::{Pid, Time};
use lintime_sim::workload::Mix;

/// Open-loop arrivals per `serve-queue-backlog` run.
pub const BACKLOG_ARRIVALS: usize = 100_000;
/// Open-loop arrivals per `serve-register-reads` run, which serves an op
/// about twice as fast: both runs take under a second, so one measurement
/// holds dozens of them.
pub const READS_ARRIVALS: usize = 200_000;
/// Base length of the checker stream; the seed adds at most one more
/// flush window's worth of rounds (see [`Workload::from_name`]).
pub const CHECK_OPS: usize = 3_000_000;
/// Processes of the checker stream.
pub const CHECK_PROCS: usize = 4;
/// Flush window of every checker (and admission epoch of every shard).
pub const FLUSH_OPS: usize = 1024;

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["serve-queue-backlog", "serve-register-reads", "check-stream-queue"];

/// A workload with its inputs fixed by the seed.
#[derive(Clone, Debug)]
pub enum Workload {
    /// One `lintime serve` deployment.
    Serve(ServeConfig),
    /// One generated fifo-queue stream fed to one `StreamChecker`.
    Check {
        /// Completed operations the stream is generated for.
        ops: usize,
        /// Concurrent processes of the stream.
        procs: usize,
        /// Flush window of the checker.
        flush_ops: usize,
    },
}

impl Workload {
    /// The workload called `name`, with inputs drawn from `seed`.
    pub fn from_name(name: &str, seed: u64) -> Result<Workload, String> {
        let serve = |kind, mix, mean_gap, total_ops| {
            Workload::Serve(ServeConfig {
                kind,
                mix,
                mean_gap: Time(mean_gap),
                total_ops,
                seed,
                flush_ops: FLUSH_OPS,
                zipf_s: 1.0,
                ..ServeConfig::new(4, 1)
            })
        };
        match name {
            "serve-queue-backlog" => {
                Ok(serve(StreamKind::Queue, Mix::BALANCED, 1, BACKLOG_ARRIVALS))
            }
            "serve-register-reads" => {
                Ok(serve(StreamKind::Register, Mix::READ_HEAVY, 2000, READS_ARRIVALS))
            }
            // `run_scenario` takes no seed: the seed picks the stream length
            // (whole rounds of 2·procs ops), which moves where the flush
            // windows fall relative to the final, partial one.
            "check-stream-queue" => Ok(Workload::Check {
                ops: CHECK_OPS + 2 * CHECK_PROCS * (seed % FLUSH_OPS as u64) as usize,
                procs: CHECK_PROCS,
                flush_ops: FLUSH_OPS,
            }),
            other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
        }
    }
}

/// One open-loop arrival, as `serve` generates it.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Arrival time on the global open-loop clock.
    pub at: Time,
    /// Process of the shard the arrival goes to.
    pub pid: Pid,
    /// The invocation.
    pub inv: Invocation,
    /// Its operation class.
    pub class: OpClass,
}

/// The arrivals `serve` generates for `cfg`, split by shard: Zipf shard
/// popularity, uniform process choice, mix-weighted classes, and each
/// producer followed by the same process's consumer on container ADTs.
pub fn arrivals(cfg: &ServeConfig) -> Vec<Vec<Arrival>> {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let weights: Vec<f64> =
        (0..cfg.shards).map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(cfg.shards);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let spec = cfg.kind.spec();
    let metas = spec.ops();
    let mix_total = cfg.mix.accessors + cfg.mix.mutators + cfg.mix.mixed;
    let consumer = metas.iter().find(|m| m.class == OpClass::Mixed);
    let producing = metas.iter().any(|m| m.class == OpClass::PureMutator && m.has_arg);
    let pairing = consumer.filter(|_| producing);
    let mut owes_consumer = vec![vec![false; cfg.params.n]; cfg.shards];

    let mut per_shard: Vec<Vec<Arrival>> = vec![Vec::new(); cfg.shards];
    let mut t = Time::ZERO;
    for _ in 0..cfg.total_ops {
        t += Time(rng.gen_range(0..=(2 * cfg.mean_gap.as_ticks()).max(0)));
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let shard = cdf.partition_point(|&c| c <= u).min(cfg.shards - 1);
        let pid = Pid(rng.gen_range(0..cfg.params.n));
        let meta = if let Some(consumer) = pairing.filter(|_| owes_consumer[shard][pid.0]) {
            owes_consumer[shard][pid.0] = false;
            consumer
        } else {
            let roll = rng.gen_range(0..mix_total);
            let class = if roll < cfg.mix.accessors {
                OpClass::PureAccessor
            } else if roll < cfg.mix.accessors + cfg.mix.mutators {
                OpClass::PureMutator
            } else {
                OpClass::Mixed
            };
            let candidates: Vec<_> = metas.iter().filter(|m| m.class == class).collect();
            if candidates.is_empty() {
                &metas[rng.gen_range(0..metas.len())]
            } else {
                candidates[rng.gen_range(0..candidates.len())]
            }
        };
        if pairing.is_some() && meta.class == OpClass::PureMutator {
            owes_consumer[shard][pid.0] = true;
        }
        let args = spec.suggested_args(meta.name);
        let arg = args[rng.gen_range(0..args.len())].clone();
        per_shard[shard].push(Arrival {
            at: t,
            pid,
            inv: Invocation::new(meta.name, arg),
            class: meta.class,
        });
    }
    per_shard
}

/// One event of the generated checker stream.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// `pid` invokes `op(arg)` at `t`.
    Invoke(Pid, Time, &'static str, Value),
    /// `pid` responds `ret` at `t`.
    Respond(Pid, Time, Value),
}

/// `run_scenario(StreamKind::Queue, ops, procs, _)`'s event stream, one
/// event at a time: rounds of `procs` overlapping enqueues of distinct
/// values, then `procs` overlapping dequeues returning them in order.
pub fn queue_stream(ops: usize, procs: usize, mut emit: impl FnMut(StreamEvent)) {
    let procs = procs.max(1);
    let (mut t, mut next_val, mut done) = (0i64, 0i64, 0usize);
    while done < ops {
        for i in 0..procs {
            let v = Value::Int(next_val + i as i64);
            emit(StreamEvent::Invoke(Pid(i), Time(t + i as i64), "enqueue", v));
        }
        for i in 0..procs {
            emit(StreamEvent::Respond(Pid(i), Time(t + (procs + i) as i64), Value::Unit));
        }
        t += 2 * procs as i64;
        for i in 0..procs {
            emit(StreamEvent::Invoke(Pid(i), Time(t + i as i64), "dequeue", Value::Unit));
        }
        for i in 0..procs {
            let v = Value::Int(next_val + i as i64);
            emit(StreamEvent::Respond(Pid(i), Time(t + (procs + i) as i64), v));
        }
        t += 2 * procs as i64;
        next_val += procs as i64;
        done += 2 * procs;
    }
}

/// The kind `check-stream-queue` streams.
pub const CHECK_KIND: StreamKind = StreamKind::Queue;
