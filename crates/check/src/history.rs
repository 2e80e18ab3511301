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

/// A concurrent history: completed operations with intervals, plus the
/// pending ones and a count of the records that were neither.
///
/// Linearizability over a history with pending operations (Herlihy–Wing) is
/// decided over its *completions*; every public checker entry point does so
/// whenever `pending` is non-empty or `malformed > 0` (see
/// [`crate::monitor::check_fast`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct History {
    /// The completed operations, in no particular order.
    pub ops: Vec<TimedOp>,
    /// The pending (invoked, never responded) operations.
    pub pending: Vec<PendingOp>,
    /// Ill-formed operation records dropped during extraction: exactly one
    /// of response value / response time recorded, or a response recorded
    /// before its own invocation. Such a record can only come from a
    /// corrupted or buggy recorder, never from a crash; when non-zero the
    /// checker degrades refutations to `Unknown` instead of certifying them.
    pub malformed: usize,
}

impl History {
    /// Extract a complete history from a run. Fails if the run was truncated
    /// (event cap, crash, or invalid configuration) or if any operation is
    /// missing its response or is malformed (linearizability is defined over
    /// complete runs; see Section 2.3) — a verdict on a partial run would be
    /// meaningless and must never be certified.
    pub fn from_run(run: &Run) -> Result<History, String> {
        let h = Self::from_run_with_pending(run)?;
        if !h.pending.is_empty() || h.malformed > 0 {
            return Err(format!(
                "run is not complete: {} pending and {} malformed operations",
                h.pending.len(),
                h.malformed
            ));
        }
        Ok(h)
    }

    /// Extract a *pending-aware* history: completed operations plus the
    /// pending (open-interval) ones, failing only on truncation. This is the
    /// entry point for fault-injected runs, where a crashed process's
    /// in-flight operation legitimately never responds.
    pub fn from_run_with_pending(run: &Run) -> Result<History, String> {
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
        let mut h = History::default();
        for op in &run.ops {
            match (&op.ret, op.t_respond) {
                (Some(ret), Some(t_respond)) if op.t_invoke <= t_respond => h.ops.push(TimedOp {
                    pid: op.pid,
                    instance: OpInstance {
                        op: op.invocation.op,
                        arg: op.invocation.arg.clone(),
                        ret: ret.clone(),
                    },
                    t_invoke: op.t_invoke,
                    t_respond,
                }),
                (None, None) => h.pending.push(PendingOp {
                    pid: op.pid,
                    invocation: op.invocation.clone(),
                    t_invoke: op.t_invoke,
                    // An operation invoked at or after its process's crash
                    // was never executed by the node — no message, timer, or
                    // state change can stem from it, so it provably took no
                    // effect.
                    may_have_effect: crash_at(op.pid).is_none_or(|at| op.t_invoke < at),
                }),
                _ => h.malformed += 1,
            }
        }
        Ok(h)
    }

    /// Build a complete history from explicit tuples (for tests):
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
            ..History::default()
        }
    }

    /// Number of completed operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history has no completed operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The latest recorded time of any operation, completed or pending
    /// (`Time(0)` for an empty history). Fabricated responses of included
    /// pending operations are placed here: being ≥ every other event, it
    /// imposes the fewest real-time precedence constraints — the most
    /// permissive sound choice of completion time, and any later time gives
    /// exactly the same precedence.
    pub fn horizon(&self) -> Time {
        let done = self.ops.iter().map(|o| o.t_invoke.max(o.t_respond));
        done.chain(self.pending.iter().map(|p| p.t_invoke)).max().unwrap_or(Time(0))
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

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::Invocation;
    use lintime_adt::value::Value;
    use lintime_sim::run::OpRecord;
    use lintime_sim::time::ModelParams;

    fn inst(op: &'static str, arg: i64, ret: i64) -> OpInstance {
        OpInstance::new(op, arg, ret)
    }

    fn rec(pid: usize, ret: Option<Value>, t_invoke: i64, t_respond: Option<i64>) -> OpRecord {
        OpRecord {
            pid: Pid(pid),
            invocation: Invocation::nullary("read"),
            ret,
            t_invoke: Time(t_invoke),
            t_respond: t_respond.map(Time),
        }
    }

    fn run(ops: Vec<OpRecord>, faults: Vec<InjectedFault>) -> Run {
        let params = ModelParams::default_experiment();
        Run {
            params,
            offsets: vec![Time(0); params.n],
            events: ops.len() as u64,
            ops,
            msgs: vec![],
            views: vec![],
            last_time: Time(100),
            errors: vec![],
            delay_violations: 0,
            truncated: false,
            crashed_pending: 0,
            unadmitted: 0,
            msgs_sent: 0,
            bytes_sent: 0,
            faults,
            suspect: vec![],
        }
    }

    #[test]
    fn lossy_extraction_counts_pending_and_malformed_separately() {
        let run = run(
            vec![
                rec(0, Some(Value::Int(1)), 0, Some(5)),  // complete
                rec(0, None, 0, None),                    // pending
                rec(0, None, 0, None),                    // pending
                rec(0, Some(Value::Int(2)), 0, None),     // malformed: ret without time
                rec(0, None, 0, Some(9)),                 // malformed: time without ret
                rec(0, Some(Value::Int(3)), 10, Some(5)), // malformed: responds before invoke
            ],
            vec![],
        );
        // Ill-formed records stay out of both the completed ops and the
        // pending (completable) list, and are counted on their own.
        let h = History::from_run_with_pending(&run).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.pending.len(), 2);
        assert_eq!(h.malformed, 3);
        assert!(History::from_run(&run).is_err());
    }

    #[test]
    fn from_run_refuses_malformed_records() {
        // A response value without a response time passes `Run::complete`
        // (which looks only at `ret`), but the record is not a completed
        // operation: dropping it silently would check a different history.
        let bad = run(
            vec![rec(0, Some(Value::Int(0)), 0, Some(5)), rec(1, Some(Value::Int(0)), 1, None)],
            vec![],
        );
        assert!(bad.complete());
        let err = History::from_run(&bad).unwrap_err();
        assert!(err.contains("1 malformed"), "{err}");
        let good = run(vec![rec(0, Some(Value::Int(0)), 0, Some(5))], vec![]);
        assert_eq!(History::from_run(&good).unwrap().len(), 1);
    }

    #[test]
    fn from_tuples_roundtrip() {
        let h = History::from_tuples(vec![(3, inst("x", 1, 2), 5, 9)]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.ops[0].pid, Pid(3));
        assert_eq!(h.ops[0].t_invoke, Time(5));
        assert!(h.pending.is_empty());
        assert_eq!(h.horizon(), Time(9));
    }

    #[test]
    fn pending_extraction_classifies_crash_effects() {
        let mut write = rec(0, Some(Value::Unit), 0, Some(10));
        write.invocation = Invocation::new("write", 1);
        let crashed = |pid: usize| InjectedFault::Crashed { pid: Pid(pid), at: Time(20) };
        let run = run(
            vec![
                write,
                // Invoked before p1's crash: may have taken effect.
                rec(1, None, 5, None),
                // Invoked after p2's crash: provably effect-free.
                rec(2, None, 50, None),
                // No crash for p3: conservatively may have effect.
                rec(3, None, 60, None),
            ],
            vec![crashed(1), crashed(2)],
        );
        let h = History::from_run_with_pending(&run).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.malformed, 0);
        assert_eq!(h.horizon(), Time(60), "the latest recorded time");
        assert_eq!(h.pending.len(), 3);
        assert!(h.pending[0].may_have_effect, "invoked before crash");
        assert!(!h.pending[1].may_have_effect, "invoked after crash");
        assert!(h.pending[2].may_have_effect, "no crash recorded");
        assert!(History::from_run(&run).unwrap_err().contains("3 pending"));

        let truncated = Run { truncated: true, ..run };
        assert!(History::from_run_with_pending(&truncated).is_err());
    }
}
