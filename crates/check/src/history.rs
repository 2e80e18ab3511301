//! Concurrent histories: operation instances with real-time intervals,
//! extracted from recorded runs.

use lintime_adt::spec::{Invocation, OpInstance};
use lintime_sim::faults::InjectedFault;
use lintime_sim::run::Run;
use lintime_sim::time::{Pid, Time};

/// One completed operation in a concurrent history.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedOp {
    /// Invoking process.
    pub pid: Pid,
    /// The completed instance.
    pub instance: OpInstance,
    /// Real invocation time.
    pub t_invoke: Time,
    /// Real response time.
    pub t_respond: Time,
}

impl TimedOp {
    /// True iff this operation responded strictly before `other` was invoked
    /// (the real-time precedence that linearizations must respect).
    pub fn precedes(&self, other: &TimedOp) -> bool {
        self.t_respond < other.t_invoke
    }
}

/// A concurrent history: a set of completed operations with intervals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct History {
    /// The operations, in no particular order.
    pub ops: Vec<TimedOp>,
}

impl History {
    /// Extract a history from a run. Fails if any operation is missing its
    /// response (linearizability is defined over complete runs; see
    /// Section 2.3) or if the run was truncated (event cap, crash, or
    /// invalid configuration) — a verdict on a partial run would be
    /// meaningless and must never be certified.
    pub fn from_run(run: &Run) -> Result<History, String> {
        if run.truncated {
            return Err(format!(
                "run is truncated and cannot be checked: {}",
                if run.errors.is_empty() {
                    "no diagnostic recorded".to_string()
                } else {
                    run.errors.join("; ")
                }
            ));
        }
        if !run.complete() {
            let pending = run.ops.iter().filter(|o| o.ret.is_none()).count();
            return Err(format!("run is not complete: {pending} pending operations"));
        }
        Ok(Self::from_run_lossy(run))
    }

    /// Extract a history from a run, dropping operations that are not fully
    /// recorded. Sound for *refuting* linearizability only if the dropped
    /// operations could not have helped; prefer [`History::from_run`], or
    /// [`History::from_run_lossy_counted`] when the caller needs to know
    /// what was lost.
    pub fn from_run_lossy(run: &Run) -> History {
        Self::from_run_lossy_counted(run).0
    }

    /// [`History::from_run_lossy`] plus an accounting of everything dropped.
    ///
    /// Two distinct kinds of records are excluded, and conflating them hides
    /// recorder bugs behind crash semantics:
    ///
    /// * **pending** — invoked, never responded (`ret` and `t_respond` both
    ///   absent). Legitimate under crashes; the pending-aware pipeline
    ///   re-admits these via [`History::from_run_with_pending`].
    /// * **malformed** — exactly one of `ret` / `t_respond` is present. Such
    ///   a record is neither a completed operation nor a well-formed pending
    ///   one; it can only come from a corrupted or buggy recorder, so it is
    ///   surfaced separately (and the pending-aware checker refuses to
    ///   certify a refutation over it).
    pub fn from_run_lossy_counted(run: &Run) -> (History, LossyDrops) {
        let mut drops = LossyDrops::default();
        let ops = run
            .ops
            .iter()
            .filter_map(|op| match (op.instance(), op.t_respond) {
                (Some(instance), Some(t_respond)) => {
                    Some(TimedOp { pid: op.pid, instance, t_invoke: op.t_invoke, t_respond })
                }
                (None, None) => {
                    drops.pending += 1;
                    None
                }
                _ => {
                    drops.malformed += 1;
                    None
                }
            })
            .collect();
        (History { ops }, drops)
    }

    /// Build a history from explicit tuples (for tests):
    /// `(pid, instance, t_invoke, t_respond)`.
    pub fn from_tuples(items: Vec<(usize, OpInstance, i64, i64)>) -> History {
        History {
            ops: items
                .into_iter()
                .map(|(pid, instance, ti, tr)| TimedOp {
                    pid: Pid(pid),
                    instance,
                    t_invoke: Time(ti),
                    t_respond: Time(tr),
                })
                .collect(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Extract a *pending-aware* history: completed operations plus the
    /// pending (open-interval) ones, failing only on truncation. This is the
    /// entry point for fault-injected runs, where a crashed process's
    /// in-flight operation legitimately never responds; see
    /// [`crate::monitor::check_fast_pending`] for the matching decision
    /// procedure.
    pub fn from_run_with_pending(run: &Run) -> Result<PendingHistory, String> {
        if run.truncated {
            return Err(format!(
                "run is truncated and cannot be checked: {}",
                if run.errors.is_empty() {
                    "no diagnostic recorded".to_string()
                } else {
                    run.errors.join("; ")
                }
            ));
        }
        let crash_at = |pid: Pid| {
            run.faults.iter().find_map(|f| match f {
                InjectedFault::Crashed { pid: p, at } if *p == pid => Some(*at),
                _ => None,
            })
        };
        let pending = run
            .ops
            .iter()
            .filter(|op| op.ret.is_none() && op.t_respond.is_none())
            .map(|op| PendingOp {
                pid: op.pid,
                invocation: op.invocation.clone(),
                t_invoke: op.t_invoke,
                // An operation invoked at or after its process's crash was
                // never executed by the node — no message, timer, or state
                // change can stem from it, so it provably took no effect.
                may_have_effect: crash_at(op.pid).is_none_or(|at| op.t_invoke < at),
            })
            .collect();
        let (complete, drops) = Self::from_run_lossy_counted(run);
        Ok(PendingHistory { complete, pending, horizon: run.last_time, malformed: drops.malformed })
    }

    /// The precedence matrix: `prec[i]` lists (in ascending index order) the
    /// indices that must come before op `i` in any linearization.
    ///
    /// Built on the crate's internal struct-of-arrays history arena: one
    /// transposition, then a word-at-a-time bitset sweep whose per-op cost
    /// is a word-level copy rather than per-edge pushes. The bit order makes the ascending-index edge
    /// lists fall out of the set iteration for free.
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        crate::arena::HistoryArena::from_history(self)
            .predecessor_sets()
            .iter()
            .map(|set| set.ones().collect())
            .collect()
    }
}

/// A count of the operation records [`History::from_run_lossy_counted`]
/// excluded from the completed history, by reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossyDrops {
    /// Well-formed pending operations (no response value, no response time).
    pub pending: usize,
    /// Ill-formed records with exactly one of response value / response time
    /// recorded — evidence of recorder corruption, never of a crash.
    pub malformed: usize,
}

impl LossyDrops {
    /// Total records dropped.
    pub fn total(&self) -> usize {
        self.pending + self.malformed
    }
}

/// A pending (open-interval) operation: invoked, never responded.
///
/// Linearizability over histories with pending operations (Herlihy–Wing)
/// quantifies over *completions*: each pending operation is either removed
/// (it never took effect) or completed with some response. [`PendingOp`]
/// carries the information the checker needs to enumerate completions.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingOp {
    /// Invoking process.
    pub pid: Pid,
    /// The invocation (no return value exists).
    pub invocation: Invocation,
    /// Real invocation time.
    pub t_invoke: Time,
    /// Whether the operation could have taken effect before the run ended.
    /// `false` is a *proof* of no effect (e.g. the invoking process crashed
    /// before the invocation executed), letting the checker drop the
    /// operation unconditionally instead of trying both completions.
    pub may_have_effect: bool,
}

/// A history with its pending operations preserved, extracted by
/// [`History::from_run_with_pending`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PendingHistory {
    /// The completed operations.
    pub complete: History,
    /// The pending ones.
    pub pending: Vec<PendingOp>,
    /// The run's end time: fabricated responses for included pending
    /// operations are placed here, which (being ≥ every other event) imposes
    /// the fewest real-time precedence constraints — the most permissive
    /// sound choice of completion time.
    pub horizon: Time,
    /// Ill-formed operation records dropped during extraction (see
    /// [`LossyDrops::malformed`]). When non-zero the record of the run is
    /// incomplete in a way crashes cannot explain, so the pending-aware
    /// checker degrades refutations to `Unknown` instead of certifying them.
    pub malformed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::OpInstance;

    fn inst(op: &'static str, arg: i64, ret: i64) -> OpInstance {
        OpInstance::new(op, arg, ret)
    }

    #[test]
    fn precedence_is_strict_response_before_invoke() {
        let h = History::from_tuples(vec![
            (0, inst("a", 0, 0), 0, 10),
            (1, inst("b", 0, 0), 10, 20), // touches at 10: NOT preceded
            (2, inst("c", 0, 0), 11, 30),
        ]);
        assert!(!h.ops[0].precedes(&h.ops[1]));
        assert!(h.ops[0].precedes(&h.ops[2]));
        let prec = h.predecessors();
        assert_eq!(prec[2], vec![0]);
        assert!(prec[1].is_empty());
    }

    #[test]
    fn predecessor_edge_counts_on_known_history() {
        // A fixed 6-op history with a mix of nesting, overlap, and strict
        // sequencing; edge counts pin the sweep against the all-pairs
        // definition (j in prec[i] iff respond_j < invoke_i).
        let h = History::from_tuples(vec![
            (0, inst("a", 0, 0), 0, 10),  // precedes c, d, e, f
            (1, inst("b", 0, 0), 5, 40),  // overlaps everything up to e
            (2, inst("c", 0, 0), 12, 20), // precedes d, f
            (3, inst("d", 0, 0), 25, 30), // precedes f
            (4, inst("e", 0, 0), 25, 35), // precedes f
            (5, inst("f", 0, 0), 50, 60),
        ]);
        let prec = h.predecessors();
        assert_eq!(prec[0], Vec::<usize>::new());
        assert_eq!(prec[1], Vec::<usize>::new());
        assert_eq!(prec[2], vec![0]);
        assert_eq!(prec[3], vec![0, 2]);
        assert_eq!(prec[4], vec![0, 2]);
        assert_eq!(prec[5], vec![0, 1, 2, 3, 4]);
        let edge_count: usize = prec.iter().map(Vec::len).sum();
        assert_eq!(edge_count, 10);
        // Cross-check against the definitional all-pairs loop.
        for (i, slot) in prec.iter().enumerate() {
            let naive: Vec<usize> =
                (0..h.len()).filter(|&j| j != i && h.ops[j].precedes(&h.ops[i])).collect();
            assert_eq!(*slot, naive);
        }
    }

    #[test]
    fn lossy_extraction_counts_pending_and_malformed_separately() {
        use lintime_adt::value::Value;
        use lintime_sim::run::OpRecord;
        use lintime_sim::time::ModelParams;

        let params = ModelParams::default_experiment();
        let rec = |ret: Option<Value>, t_respond: Option<Time>| OpRecord {
            pid: Pid(0),
            invocation: lintime_adt::spec::Invocation::nullary("read"),
            ret,
            t_invoke: Time(0),
            t_respond,
        };
        let run = Run {
            params,
            offsets: vec![Time(0); params.n],
            ops: vec![
                rec(Some(Value::Int(1)), Some(Time(5))), // complete
                rec(None, None),                         // pending
                rec(None, None),                         // pending
                rec(Some(Value::Int(2)), None),          // malformed: ret without time
                rec(None, Some(Time(9))),                // malformed: time without ret
            ],
            msgs: vec![],
            views: vec![],
            last_time: Time(100),
            events: 5,
            errors: vec![],
            delay_violations: 0,
            truncated: false,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults: vec![],
            suspect: vec![],
        };
        let (h, drops) = History::from_run_lossy_counted(&run);
        assert_eq!(h.len(), 1);
        assert_eq!(drops, LossyDrops { pending: 2, malformed: 2 });
        assert_eq!(drops.total(), 4);
        // The pending-aware pipeline surfaces the malformed count and keeps
        // ill-formed records out of the pending (completable) list.
        let ph = History::from_run_with_pending(&run).unwrap();
        assert_eq!(ph.complete.len(), 1);
        assert_eq!(ph.pending.len(), 2);
        assert_eq!(ph.malformed, 2);
    }

    #[test]
    fn from_tuples_roundtrip() {
        let h = History::from_tuples(vec![(3, inst("x", 1, 2), 5, 9)]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.ops[0].pid, Pid(3));
        assert_eq!(h.ops[0].t_invoke, Time(5));
    }

    #[test]
    fn pending_extraction_classifies_crash_effects() {
        use lintime_adt::value::Value;
        use lintime_sim::run::OpRecord;
        use lintime_sim::time::ModelParams;

        let params = ModelParams::default_experiment();
        let pending = |pid: usize, t: i64| OpRecord {
            pid: Pid(pid),
            invocation: lintime_adt::spec::Invocation::nullary("read"),
            ret: None,
            t_invoke: Time(t),
            t_respond: None,
        };
        let run = Run {
            params,
            offsets: vec![Time(0); params.n],
            ops: vec![
                OpRecord {
                    pid: Pid(0),
                    invocation: lintime_adt::spec::Invocation::new("write", 1),
                    ret: Some(Value::Unit),
                    t_invoke: Time(0),
                    t_respond: Some(Time(10)),
                },
                // Invoked before p1's crash: may have taken effect.
                pending(1, 5),
                // Invoked after p2's crash: provably effect-free.
                pending(2, 50),
                // No crash for p3: conservatively may have effect.
                pending(3, 60),
            ],
            msgs: vec![],
            views: vec![],
            last_time: Time(100),
            events: 4,
            errors: vec![],
            delay_violations: 0,
            truncated: false,
            crashed_pending: 2,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults: vec![
                InjectedFault::Crashed { pid: Pid(1), at: Time(20) },
                InjectedFault::Crashed { pid: Pid(2), at: Time(20) },
            ],
            suspect: vec![],
        };
        let ph = History::from_run_with_pending(&run).unwrap();
        assert_eq!(ph.complete.len(), 1);
        assert_eq!(ph.malformed, 0);
        assert_eq!(ph.horizon, Time(100));
        assert_eq!(ph.pending.len(), 3);
        assert!(ph.pending[0].may_have_effect, "invoked before crash");
        assert!(!ph.pending[1].may_have_effect, "invoked after crash");
        assert!(ph.pending[2].may_have_effect, "no crash recorded");

        let truncated = Run { truncated: true, ..run };
        assert!(History::from_run_with_pending(&truncated).is_err());
    }
}
