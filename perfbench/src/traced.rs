//! The traced run: the same per-shard pipeline as `serve` (or the same
//! stream as `run_scenario`), rebuilt from each layer's public functions so
//! that every call into a layer can be timed from outside. It gives the
//! per-layer metrics and must reproduce the untraced run exactly.

use crate::json::Obj;
use crate::ledger::{self, enter, exit, time, Layer, Ledger, NONE};
use crate::untraced::{self, stats_json};
use crate::workload::{arrivals, queue_stream, Arrival, StreamEvent, Workload, CHECK_KIND};
use lintime_adt::spec::{ObjState, ObjectSpec, OpClass, OpMeta, SpecKind};
use lintime_adt::value::Value;
use lintime_bench::serve::{serve, ServeConfig};
use lintime_bench::streamgen::run_scenario;
use lintime_check::stream::{StreamChecker, StreamConfig, StreamStats, StreamVerdict};
use lintime_core::batch::batched_predicted_latency;
use lintime_core::cluster::{Algorithm, AnyMsg, AnyNode, AnyTimer};
use lintime_obs::{Histogram, Obs, Registry};
use lintime_sim::delay::DelaySpec;
use lintime_sim::engine::{simulate_full, OpEvent, SimConfig};
use lintime_sim::node::{Effects, Node};
use lintime_sim::rng::mix;
use lintime_sim::schedule::Schedule;
use lintime_sim::time::{Pid, Time};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Run `workload` untraced, then traced; render the per-layer metrics and
/// whether the two runs agree.
pub fn run(workload: &Workload, spans: Option<&str>) -> Result<String, String> {
    let (metrics, mismatch, ledger, reference) = match workload {
        Workload::Serve(cfg) => traced_serve(cfg)?,
        &Workload::Check { ops, procs, flush_ops } => traced_check(ops, procs, flush_ops),
    };
    if let Some(path) = spans {
        ledger.write_spans(path)?;
    }
    let mut out = Obj::default();
    for (name, value) in &metrics {
        out = out.num(name, *value);
    }
    Ok(Obj::default()
        .bool("correct", reference.correct)
        .int("attempted", reference.attempted)
        .int("failed", reference.failed)
        .bool("equivalent", mismatch.is_empty())
        .str("mismatch", &mismatch)
        .raw("metrics", &out.render())
        .render())
}

// ---------------------------------------------------------------- adt layer

/// Forwarding `ObjectSpec` whose objects time every `apply`.
struct TimedSpec(Arc<dyn ObjectSpec>);

impl ObjectSpec for TimedSpec {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn kind(&self) -> SpecKind {
        self.0.kind()
    }
    fn ops(&self) -> &[OpMeta] {
        self.0.ops()
    }
    fn op_meta(&self, op: &str) -> Option<&OpMeta> {
        self.0.op_meta(op)
    }
    fn new_object(&self) -> Box<dyn ObjState> {
        Box::new(TimedState(self.0.new_object()))
    }
    fn suggested_args(&self, op: &'static str) -> Vec<Value> {
        self.0.suggested_args(op)
    }
}

struct TimedState(Box<dyn ObjState>);

impl ObjState for TimedState {
    fn apply(&mut self, op: &'static str, arg: &Value) -> Value {
        time(Layer::Apply, NONE, || self.0.apply(op, arg))
    }
    fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
        time(Layer::Apply, NONE, || self.0.apply_if(op, arg, expected))
    }
    fn clone_box(&self) -> Box<dyn ObjState> {
        Box::new(TimedState(self.0.clone_box()))
    }
    fn canonical(&self) -> Value {
        self.0.canonical()
    }
    fn state_hash(&self) -> u64 {
        self.0.state_hash()
    }
}

// --------------------------------------------------------------- core layer

/// Forwarding `Node` that times every handler of the wrapped node.
struct TimedNode(AnyNode);

impl Node for TimedNode {
    type Msg = AnyMsg;
    type Timer = AnyTimer;

    fn msg_wire_bytes(msg: &AnyMsg) -> usize {
        AnyNode::msg_wire_bytes(msg)
    }
    fn on_invoke(
        &mut self,
        inv: lintime_adt::spec::Invocation,
        fx: &mut Effects<AnyMsg, AnyTimer>,
    ) {
        time(Layer::Invoke, ledger::next_op(), || self.0.on_invoke(inv, fx))
    }
    fn on_deliver(&mut self, from: Pid, msg: AnyMsg, fx: &mut Effects<AnyMsg, AnyTimer>) {
        time(Layer::Deliver, NONE, || self.0.on_deliver(from, msg, fx))
    }
    fn on_timer(&mut self, timer: AnyTimer, fx: &mut Effects<AnyMsg, AnyTimer>) {
        time(Layer::Timer, NONE, || self.0.on_timer(timer, fx))
    }
}

// ------------------------------------------------------ sink + check layers

struct Consumed {
    verdict: StreamVerdict,
    stats: StreamStats,
    ledger: Ledger,
    lifetime_ns: u64,
    received: u64,
}

/// `serve`'s consumer thread, with the receiver and every checker call timed.
fn consume(
    spec: Arc<dyn ObjectSpec>,
    cfg: StreamConfig,
    rx: mpsc::Receiver<OpEvent>,
    shard: usize,
) -> Consumed {
    ledger::set_shard(shard);
    let born = Instant::now();
    let mut checker = StreamChecker::with_config(&spec, cfg);
    let (mut next, mut pending, mut received) = (0u64, Vec::<u64>::new(), 0u64);
    loop {
        enter(Layer::Recv, NONE);
        let ev = rx.recv();
        exit(Layer::Recv);
        match ev {
            Ok(OpEvent::Invoke { pid, t, op, arg }) => {
                if pid.0 >= pending.len() {
                    pending.resize(pid.0 + 1, NONE);
                }
                pending[pid.0] = next;
                time(Layer::FeedInvoke, next, || {
                    checker.feed_invoke(pid, t, op, arg);
                });
                next += 1;
            }
            Ok(OpEvent::Respond { pid, t, ret }) => {
                let id = pending.get(pid.0).copied().unwrap_or(NONE);
                time(Layer::FeedRespond, id, || {
                    checker.feed_respond(pid, t, ret);
                });
            }
            Err(_) => break,
        }
        received += 1;
    }
    let (verdict, stats) = time(Layer::Finish, NONE, || checker.finish());
    let lifetime_ns = born.elapsed().as_nanos() as u64;
    Consumed { verdict, stats, ledger: ledger::take(), lifetime_ns, received }
}

// -------------------------------------------------------------- serve path

/// `serve`'s latency histograms: bounds at the three envelopes for service,
/// geometric open buckets for queueing and total latency.
struct Hists {
    service: Histogram,
    total: Histogram,
    queue: Histogram,
}

fn register_hists(r: &Registry, cfg: &ServeConfig) -> Hists {
    let mut env: Vec<u64> = [OpClass::PureMutator, OpClass::PureAccessor, OpClass::Mixed]
        .iter()
        .map(|&c| batched_predicted_latency(cfg.params, cfg.x, cfg.tick, c).as_ticks() as u64)
        .collect();
    env.sort_unstable();
    env.dedup();
    let top = *env.last().expect("three classes");
    env.extend([top * 2, top * 4]);
    env.dedup();
    let d = cfg.params.d.as_ticks() as u64;
    let ceiling = (cfg.total_ops as u64).max(1).saturating_mul(top).max(d * 4096);
    let mut open = vec![cfg.params.epsilon.as_ticks() as u64, d / 2];
    let mut b = d;
    while b <= ceiling {
        open.push(b);
        b *= 2;
    }
    open.sort_unstable();
    open.dedup();
    Hists {
        service: r.histogram("serve.latency.service_ticks", &env),
        total: r.histogram("serve.latency.total_ticks", &open),
        queue: r.histogram("serve.latency.queue_wait_ticks", &open),
    }
}

fn observe(h: &Histogram, v: i64, op: u64) {
    time(Layer::Observe, op, || h.observe_i64(v));
}

/// What one traced shard hands back.
struct ShardOut {
    print: untraced::ShardPrint,
    flight: Vec<(Time, i32)>,
    events: u64,
    msgs: u64,
    bytes: u64,
    flushes: u64,
    announcements: u64,
    consumed: Consumed,
}

fn traced_shard(cfg: &ServeConfig, shard: usize, arrivals: &[Arrival], hists: &Hists) -> ShardOut {
    let spec = cfg.kind.spec();
    let timed_spec: Arc<dyn ObjectSpec> = Arc::new(TimedSpec(Arc::clone(&spec)));
    let (tx, rx) = mpsc::channel();
    let sim = time(Layer::Schedule, NONE, || {
        let mut schedule = Schedule::new();
        for a in arrivals {
            schedule = schedule.arrival(a.pid, a.at, a.inv.clone());
        }
        SimConfig::new(cfg.params, DelaySpec::UniformRandom { seed: mix(cfg.seed ^ shard as u64) })
            .with_schedule(schedule)
            .with_op_sink(tx)
            .with_admission_epoch(cfg.flush_ops.max(1) as u64)
    });
    let stream_cfg = StreamConfig::default().with_flush_ops(cfg.flush_ops);
    let consumer = time(Layer::Spawn, NONE, || {
        std::thread::spawn(move || consume(spec, stream_cfg, rx, shard))
    });
    let algo = Algorithm::BatchedWtlw { x: cfg.x, tick: cfg.tick };
    let (run, nodes) = time(Layer::Engine, NONE, || {
        simulate_full(&sim, |pid| {
            TimedNode(AnyNode::build_observed(
                algo,
                pid,
                Arc::clone(&timed_spec),
                cfg.params,
                &Obs::off(),
            ))
        })
    });
    // Dropping the config closes the op sink, ending the consumer's loop.
    time(Layer::Schedule, NONE, || drop(sim));
    let consumed =
        time(Layer::JoinWait, NONE, || consumer.join()).expect("checker thread panicked");

    enter(Layer::Reconcile, NONE);
    let (mut flushes, mut announcements) = (0, 0);
    for node in &nodes {
        if let AnyNode::Batch(b) = &node.0 {
            flushes += b.flushes();
            announcements += b.announcements();
        }
    }
    let mut arr_by_pid: Vec<VecDeque<&Arrival>> = vec![VecDeque::new(); cfg.params.n];
    for a in arrivals {
        arr_by_pid[a.pid.0].push_back(a);
    }
    let classes = [OpClass::PureAccessor, OpClass::PureMutator, OpClass::Mixed];
    let labels = ["accessor", "mutator", "mixed"];
    let envelope =
        classes.map(|c| batched_predicted_latency(cfg.params, cfg.x, cfg.tick, c).as_ticks());
    let (mut count, mut max_ticks, mut over) = ([0u64; 3], [0i64; 3], [0u64; 3]);
    let mut sums = [0i128; 3];
    let mut flight: Vec<(Time, i32)> = Vec::with_capacity(2 * run.ops.len());
    let mut max_queue_wait = 0i64;
    for (id, op) in run.ops.iter().enumerate() {
        let id = id as u64;
        let Some(arrival) = arr_by_pid[op.pid.0].pop_front() else { continue };
        let Some(t_respond) = op.t_respond else { continue };
        let wait = (op.t_invoke - arrival.at).as_ticks();
        let service = (t_respond - op.t_invoke).as_ticks();
        max_queue_wait = max_queue_wait.max(wait);
        observe(&hists.queue, wait, id);
        observe(&hists.service, service, id);
        observe(&hists.total, (t_respond - arrival.at).as_ticks(), id);
        flight.push((arrival.at, 1));
        flight.push((t_respond, -1));
        let slot = classes.iter().position(|&c| c == arrival.class).expect("known class");
        count[slot] += 1;
        sums[slot] += service as i128;
        max_ticks[slot] = max_ticks[slot].max(service);
        if service > envelope[slot] {
            over[slot] += 1;
        }
    }
    // `serve` keeps these for its report; they are computed so the copy
    // does the same work.
    std::hint::black_box((sums, max_queue_wait));
    let mut sorted = flight.clone();
    sorted.sort_by_key(|&(t, delta)| (t, -delta));
    let (mut cur, mut peak) = (0i64, 0i64);
    for &(_, delta) in &sorted {
        cur += delta as i64;
        peak = peak.max(cur);
    }
    let print = untraced::ShardPrint {
        shard,
        arrivals: arrivals.len() as u64,
        ops: run.ops.iter().filter(|o| o.t_respond.is_some()).count() as u64,
        verdict: consumed.verdict.class(),
        peak_in_flight: peak as u64,
        flushes: consumed.stats.flushes,
        gc_reclaimed: consumed.stats.gc_reclaimed,
        peak_resident: consumed.stats.peak_resident as u64,
        classes: (0..3).filter(|&i| count[i] > 0).map(|i| (labels[i], max_ticks[i])).collect(),
        envelope_violations: over.iter().sum(),
    };
    let out = ShardOut {
        print,
        flight,
        events: run.events,
        msgs: run.msgs_sent,
        bytes: run.bytes_sent,
        flushes,
        announcements,
        consumed,
    };
    drop((run, nodes, sorted));
    exit(Layer::Reconcile);
    out
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The untraced reference run's correctness figures.
struct Reference {
    correct: bool,
    attempted: u64,
    failed: u64,
}

type Traced = (Vec<(&'static str, f64)>, String, Ledger, Reference);

fn traced_serve(cfg: &ServeConfig) -> Result<Traced, String> {
    // The untraced reference: the equivalence baseline and the base of
    // `trace.overhead_share`.
    let report = serve(cfg)?;
    let reference = untraced::shard_fingerprint(&untraced::prints(&report));
    let (ref_events, ref_ops_per_s) =
        (report.events, report.ops as f64 / report.wall.as_secs_f64());
    let ref_ticks = (report.service_p50, report.service_p999, report.total_p99);
    let correctness = Reference {
        correct: untraced::serve_correct(&report),
        attempted: report.arrivals,
        failed: untraced::serve_failed(&report),
    };
    drop(report);

    ledger::start_clock();
    ledger::set_shard(0);
    let per_shard = time(Layer::Generate, NONE, || arrivals(cfg));
    let registry = Registry::new();
    let hists = register_hists(&registry, cfg);
    let wall0 = Instant::now();
    let mut outs = Vec::with_capacity(cfg.shards);
    for (s, arrivals) in per_shard.iter().enumerate() {
        ledger::set_shard(s);
        let out = time(Layer::Shard, NONE, || traced_shard(cfg, s, arrivals, &hists));
        outs.push(out);
    }
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let mut flight_all: Vec<(Time, i32)> = Vec::new();
    let peak_in_flight = time(Layer::Rollup, NONE, || {
        for o in &mut outs {
            flight_all.append(&mut o.flight);
        }
        flight_all.sort_by_key(|&(t, delta)| (t, -delta));
        let (mut cur, mut peak) = (0i64, 0i64);
        for &(_, delta) in &flight_all {
            cur += delta as i64;
            peak = peak.max(cur);
        }
        peak as u64
    });
    let (service, total) = (hists.service.snapshot(), hists.total.snapshot());
    let ticks = (service.percentile(0.50), service.percentile(0.999), total.percentile(0.99));

    // Equivalence with the untraced run.
    let prints: Vec<_> = outs.iter().map(|o| o.print.clone()).collect();
    let traced_print = untraced::shard_fingerprint(&prints);
    let events: u64 = outs.iter().map(|o| o.events).sum();
    let mut mismatch = Vec::new();
    if traced_print != reference {
        mismatch.push(format!("per-shard figures: untraced {reference} traced {traced_print}"));
    }
    if events != ref_events {
        mismatch.push(format!("events: untraced {ref_events} traced {events}"));
    }
    if ticks != ref_ticks {
        mismatch.push(format!("tick percentiles: untraced {ref_ticks:?} traced {ticks:?}"));
    }

    // The worker thread's ledger, then the checker threads'.
    let worker = ledger::take();
    let mut checker = Ledger::default();
    let (mut lifetime, mut received) = (0u64, 0u64);
    let mut stats = StreamStats::default();
    for o in &mut outs {
        checker.merge(std::mem::take(&mut o.consumed.ledger));
        lifetime += o.consumed.lifetime_ns;
        received += o.consumed.received;
        let s = &o.consumed.stats;
        stats.flushes += s.flushes;
        stats.fallbacks += s.fallbacks;
        stats.gc_reclaimed += s.gc_reclaimed;
        stats.events += s.events;
        stats.ops += s.ops;
        stats.peak_resident = stats.peak_resident.max(s.peak_resident);
    }
    let ops = prints.iter().map(|p| p.ops).sum::<u64>() as f64;
    let sum = |f: fn(&ShardOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    let (msgs, bytes) = (sum(|o| o.msgs), sum(|o| o.bytes));
    let (flushes, announcements) = (sum(|o| o.flushes), sum(|o| o.announcements));
    let w = |l: Layer| worker.self_ns(l) as f64;
    let wc = |l: Layer| worker.calls(l) as f64;
    let attributed: f64 = [
        Layer::Schedule,
        Layer::Spawn,
        Layer::Engine,
        Layer::Invoke,
        Layer::Deliver,
        Layer::Timer,
        Layer::Apply,
        Layer::JoinWait,
        Layer::Reconcile,
        Layer::Observe,
    ]
    .iter()
    .map(|&l| w(l))
    .sum();
    let wall = wall_ns as f64;
    let traced_ops_per_s = ops / (wall / 1e9);
    let events = events as f64;
    let check_busy = checker.incl(Layer::FeedInvoke)
        + checker.incl(Layer::FeedRespond)
        + checker.incl(Layer::Finish);
    let metrics = vec![
        ("serve.generate_ms", worker.incl(Layer::Generate) as f64 / 1e6),
        ("serve.rollup_ms", worker.incl(Layer::Rollup) as f64 / 1e6),
        ("serve.reconcile_ns_per_op", per(w(Layer::Reconcile), ops)),
        ("serve.join_wait_ms", worker.incl(Layer::JoinWait) as f64 / 1e6),
        ("serve.unattributed_share", per(wall - attributed, wall)),
        ("serve.peak_in_flight", peak_in_flight as f64),
        ("engine.events_per_op", per(events, ops)),
        ("engine.self_ns_per_event", per(w(Layer::Engine), events)),
        ("engine.events_per_s", per(events, worker.incl(Layer::Engine) as f64 / 1e9)),
        ("core.invoke_calls_per_op", per(wc(Layer::Invoke), ops)),
        ("core.deliver_calls_per_op", per(wc(Layer::Deliver), ops)),
        ("core.timer_calls_per_op", per(wc(Layer::Timer), ops)),
        ("core.invoke_ns", per(w(Layer::Invoke), wc(Layer::Invoke))),
        ("core.deliver_ns", per(w(Layer::Deliver), wc(Layer::Deliver))),
        ("core.timer_ns", per(w(Layer::Timer), wc(Layer::Timer))),
        ("core.msgs_per_op", per(msgs, ops)),
        ("core.bytes_per_op", per(bytes, ops)),
        ("core.batch.announcements_per_flush", per(announcements, flushes)),
        ("adt.apply_calls_per_op", per(wc(Layer::Apply), ops)),
        ("adt.apply_ns", per(w(Layer::Apply), wc(Layer::Apply))),
        ("sink.events_per_op", per(received as f64, ops)),
        ("sink.recv_wait_share", per(checker.incl(Layer::Recv) as f64, lifetime as f64)),
        (
            "check.feed_ns_per_event",
            per(
                (checker.incl(Layer::FeedInvoke) + checker.incl(Layer::FeedRespond)) as f64,
                stats.events as f64,
            ),
        ),
        ("check.finish_ms", checker.incl(Layer::Finish) as f64 / 1e6),
        ("check.flushes", stats.flushes as f64),
        ("check.fallbacks_per_flush", per(stats.fallbacks as f64, stats.flushes as f64)),
        ("check.gc_reclaimed_share", per(stats.gc_reclaimed as f64, stats.ops as f64)),
        ("check.peak_resident_ops", stats.peak_resident as f64),
        ("check.busy_share", per(check_busy as f64, lifetime as f64)),
        ("obs.observe_calls_per_op", per(wc(Layer::Observe), ops)),
        ("obs.observe_ns", per(w(Layer::Observe), wc(Layer::Observe))),
        ("trace.untraced_ops_per_s", ref_ops_per_s),
        ("trace.traced_ops_per_s", traced_ops_per_s),
    ];
    let mut all = worker;
    all.merge(checker);
    Ok((metrics, mismatch.join("; "), all, correctness))
}

// -------------------------------------------------------------- check path

fn traced_check(ops: usize, procs: usize, flush_ops: usize) -> Traced {
    let cfg = StreamConfig::default().with_flush_ops(flush_ops);
    let t0 = Instant::now();
    let reference = run_scenario(CHECK_KIND, ops, procs, cfg.clone());
    let ref_ops_per_s = reference.stats.ops as f64 / t0.elapsed().as_secs_f64();

    ledger::start_clock();
    ledger::set_shard(0);
    let spec = CHECK_KIND.spec();
    let wall0 = Instant::now();
    let mut checker = StreamChecker::with_config(&spec, cfg);
    let (mut next, mut pending) = (0u64, vec![NONE; procs.max(1)]);
    queue_stream(ops, procs, |ev| match ev {
        StreamEvent::Invoke(pid, t, op, arg) => {
            pending[pid.0] = next;
            time(Layer::FeedInvoke, next, || {
                checker.feed_invoke(pid, t, op, arg);
            });
            next += 1;
        }
        StreamEvent::Respond(pid, t, ret) => time(Layer::FeedRespond, pending[pid.0], || {
            checker.feed_respond(pid, t, ret);
        }),
    });
    let (verdict, stats) = time(Layer::Finish, NONE, || checker.finish());
    let wall = wall0.elapsed().as_nanos() as f64;
    let l = ledger::take();

    let mut mismatch = Vec::new();
    let (a, b) = (stats_json(&reference.stats), stats_json(&stats));
    if a != b {
        mismatch.push(format!("checker stats: untraced {a} traced {b}"));
    }
    if verdict.class() != reference.verdict.class() {
        mismatch.push(format!(
            "verdict: untraced {} traced {}",
            reference.verdict.class(),
            verdict.class()
        ));
    }
    let feed = (l.incl(Layer::FeedInvoke) + l.incl(Layer::FeedRespond)) as f64;
    let busy = feed + l.incl(Layer::Finish) as f64;
    let traced_ops_per_s = stats.ops as f64 / (wall / 1e9);
    // No engine, node, spec, sink or histogram runs on this workload: those
    // layers report zero work.
    let metrics = vec![
        ("serve.generate_ms", 0.0),
        ("serve.rollup_ms", 0.0),
        ("serve.reconcile_ns_per_op", 0.0),
        ("serve.join_wait_ms", 0.0),
        ("serve.unattributed_share", per(wall - busy, wall)),
        ("serve.peak_in_flight", 0.0),
        ("engine.events_per_op", 0.0),
        ("engine.self_ns_per_event", 0.0),
        ("engine.events_per_s", 0.0),
        ("core.invoke_calls_per_op", 0.0),
        ("core.deliver_calls_per_op", 0.0),
        ("core.timer_calls_per_op", 0.0),
        ("core.invoke_ns", 0.0),
        ("core.deliver_ns", 0.0),
        ("core.timer_ns", 0.0),
        ("core.msgs_per_op", 0.0),
        ("core.bytes_per_op", 0.0),
        ("core.batch.announcements_per_flush", 0.0),
        ("adt.apply_calls_per_op", 0.0),
        ("adt.apply_ns", 0.0),
        ("sink.events_per_op", 0.0),
        ("sink.recv_wait_share", 0.0),
        ("check.feed_ns_per_event", per(feed, stats.events as f64)),
        ("check.finish_ms", l.incl(Layer::Finish) as f64 / 1e6),
        ("check.flushes", stats.flushes as f64),
        ("check.fallbacks_per_flush", per(stats.fallbacks as f64, stats.flushes as f64)),
        ("check.gc_reclaimed_share", per(stats.gc_reclaimed as f64, stats.ops as f64)),
        ("check.peak_resident_ops", stats.peak_resident as f64),
        ("check.busy_share", per(busy, wall)),
        ("obs.observe_calls_per_op", 0.0),
        ("obs.observe_ns", 0.0),
        ("trace.untraced_ops_per_s", ref_ops_per_s),
        ("trace.traced_ops_per_s", traced_ops_per_s),
    ];
    let attempted = reference.stats.ops.max(ops as u64);
    let correct = untraced::check_correct(&reference.stats, reference.verdict.is_ok(), ops);
    let failed = if reference.verdict.is_ok() { 0 } else { attempted };
    (metrics, mismatch.join("; "), l, Reference { correct, attempted, failed })
}
