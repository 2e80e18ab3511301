//! The per-layer cost ledger of the traced run.
//!
//! Every call into a layer is wrapped in a frame ([`enter`] … [`exit`]): its
//! start and end are read with `Instant::now`, its inclusive time is added to
//! its layer, and its parent's child time grows by the same amount, so a
//! layer's self time is its span minus the spans of its children. Counts and
//! totals cover every call. A span record — name, start, end, parent, shard,
//! op id — is kept in memory for a sample of the calls (each op whose id is a
//! multiple of [`SAMPLE_EVERY`], each call whose per-layer index is, and every
//! frame of the coarse layers) and written out when the run ends.
//!
//! Each thread keeps its own ledger; a thread hands it over with [`take`].

use crate::json::Obj;
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One in this many ops (and calls without an op id) keeps span records.
pub const SAMPLE_EVERY: u64 = 256;

/// "No op id" / "no parent" marker.
pub const NONE: u64 = u64::MAX;

/// The layers a frame can belong to, named after the crate and module they
/// enter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One shard end to end; its self time is not attributed to any layer.
    Shard,
    /// `serve`'s arrival generator.
    Generate,
    /// `Schedule::arrival` + `SimConfig` construction.
    Schedule,
    /// Starting the shard's checker thread.
    Spawn,
    /// `simulate_full`: the engine's heap, timers, ingress and op sink.
    Engine,
    /// `Node::on_invoke` of the batched Algorithm 1 node.
    Invoke,
    /// `Node::on_deliver`.
    Deliver,
    /// `Node::on_timer`.
    Timer,
    /// `ObjState::apply`.
    Apply,
    /// Waiting for the shard's checker thread to drain and return.
    JoinWait,
    /// Matching arrivals to recorded ops, envelope checks, in-flight sweep.
    Reconcile,
    /// `Histogram::observe_i64`.
    Observe,
    /// Merging the shards' in-flight figures after the last shard.
    Rollup,
    /// The checker thread blocked in the op-event receiver.
    Recv,
    /// `StreamChecker::feed_invoke`.
    FeedInvoke,
    /// `StreamChecker::feed_respond`.
    FeedRespond,
    /// `StreamChecker::finish`.
    Finish,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 17;

impl Layer {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Shard => "serve.shard",
            Layer::Generate => "serve.generate",
            Layer::Schedule => "serve.schedule",
            Layer::Spawn => "serve.spawn",
            Layer::Engine => "sim.engine",
            Layer::Invoke => "core.invoke",
            Layer::Deliver => "core.deliver",
            Layer::Timer => "core.timer",
            Layer::Apply => "adt.apply",
            Layer::JoinWait => "serve.join_wait",
            Layer::Reconcile => "serve.reconcile",
            Layer::Observe => "obs.observe",
            Layer::Rollup => "serve.rollup",
            Layer::Recv => "sink.recv",
            Layer::FeedInvoke => "check.feed_invoke",
            Layer::FeedRespond => "check.feed_respond",
            Layer::Finish => "check.finish",
        }
    }

    /// Coarse layers keep a span record for every frame.
    fn coarse(self) -> bool {
        matches!(
            self,
            Layer::Shard
                | Layer::Generate
                | Layer::Schedule
                | Layer::Spawn
                | Layer::Engine
                | Layer::JoinWait
                | Layer::Reconcile
                | Layer::Rollup
                | Layer::Finish
        )
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Layer name.
    name: &'static str,
    /// Start, in ns since the process's first frame.
    start_ns: u64,
    /// End, in ns since the process's first frame.
    end_ns: u64,
    /// Index of the nearest recorded ancestor in the same thread's span
    /// list, or [`NONE`].
    parent: u64,
    /// Shard the span belongs to.
    shard: u64,
    /// Op id (per shard, in invocation order), or [`NONE`].
    op: u64,
}

/// Exact per-layer totals plus the sampled spans of one thread.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Calls per layer.
    calls: [u64; LAYERS],
    /// Inclusive ns per layer.
    incl_ns: [u64; LAYERS],
    /// Self ns per layer (inclusive minus children).
    self_ns: [u64; LAYERS],
    /// Sampled spans.
    spans: Vec<Span>,
}

impl Ledger {
    /// Calls of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Inclusive ns of `layer`.
    pub fn incl(&self, layer: Layer) -> u64 {
        self.incl_ns[layer as usize]
    }

    /// Self ns of `layer`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Fold another thread's ledger into this one (spans are re-based so
    /// parents still point inside their own thread's list).
    pub fn merge(&mut self, other: Ledger) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.incl_ns[i] += other.incl_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        let base = self.spans.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Write the sampled spans as JSON lines.
    pub fn write_spans(&self, path: &str) -> Result<(), String> {
        let io = |e: std::io::Error| format!("writing spans to {path}: {e}");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let file = std::fs::File::create(path).map_err(io)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let mut o = Obj::default()
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .int("shard", s.shard);
            if s.parent != NONE {
                o = o.int("parent", s.parent);
            }
            if s.op != NONE {
                o = o.int("op", s.op);
            }
            writeln!(out, "{}", o.render()).map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// An open frame on the current thread's stack.
struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    span: Option<u64>,
    op: u64,
}

#[derive(Default)]
struct ThreadLedger {
    ledger: Ledger,
    stack: Vec<Open>,
    shard: u64,
    next_op: u64,
}

thread_local! {
    static LEDGER: RefCell<ThreadLedger> = RefCell::new(ThreadLedger::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Set the shard later spans of this thread belong to, and restart its op
/// ids.
pub fn set_shard(shard: usize) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.shard = shard as u64;
        l.next_op = 0;
    });
}

/// The next op id of this thread's shard: ids follow invocation order, the
/// order of `Run::ops` and of the checker's invoke events.
pub fn next_op() -> u64 {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.next_op += 1;
        l.next_op - 1
    })
}

/// Take this thread's ledger, leaving an empty one.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut l.borrow_mut().ledger))
}

/// Open a frame of `layer` for op `op` (or [`NONE`]).
pub fn enter(layer: Layer, op: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let op = if op == NONE { l.stack.last().map_or(NONE, |f| f.op) } else { op };
        let index = l.ledger.calls[layer as usize];
        let sampled = layer.coarse()
            || if op == NONE { index % SAMPLE_EVERY == 0 } else { op % SAMPLE_EVERY == 0 };
        l.stack.push(Open { layer, start: Instant::now(), child_ns: 0, span: None, op });
        if sampled {
            // Reserve the span now so children can name it as their parent.
            let parent = l.stack.iter().rev().skip(1).find_map(|f| f.span).unwrap_or(NONE);
            let shard = l.shard;
            let id = l.ledger.spans.len() as u64;
            l.ledger.spans.push(Span {
                name: layer.name(),
                start_ns: 0,
                end_ns: 0,
                parent,
                shard,
                op,
            });
            l.stack.last_mut().expect("just pushed").span = Some(id);
        }
    });
}

/// Close the innermost frame, which must be of `layer`.
pub fn exit(layer: Layer) {
    let end = Instant::now();
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let f = l.stack.pop().expect("exit without enter");
        debug_assert_eq!(f.layer, layer, "frames must nest");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        let i = f.layer as usize;
        l.ledger.calls[i] += 1;
        l.ledger.incl_ns[i] += dur;
        l.ledger.self_ns[i] += dur.saturating_sub(f.child_ns);
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(id) = f.span {
            let e = epoch();
            let s = &mut l.ledger.spans[id as usize];
            s.start_ns = f.start.saturating_duration_since(e).as_nanos() as u64;
            s.end_ns = end.saturating_duration_since(e).as_nanos() as u64;
        }
    });
}

/// Run `f` inside a frame of `layer` for op `op`.
pub fn time<R>(layer: Layer, op: u64, f: impl FnOnce() -> R) -> R {
    enter(layer, op);
    let r = f();
    exit(layer);
    r
}

/// Pin the span epoch before the first frame of the run.
pub fn start_clock() {
    epoch();
}
