//! Compositional checking for multi-object histories.
//!
//! Linearizability is *local* (Section 2.3 / the original Herlihy–Wing
//! result): a history over several objects is linearizable iff each
//! per-object projection is. For product-typed histories
//! (`lintime_adt::product::ProductSpec`, operations named `"prefix/op"`)
//! this turns one search over the interleaved history into several much
//! smaller independent searches — exponentially cheaper when objects are
//! contended concurrently.

use crate::history::History;
use crate::stream::StreamVerdict;
use crate::wing_gong::{check_with, CheckConfig, Verdict};
use lintime_adt::product::ProductSpec;
use std::collections::BTreeMap;

/// Per-object verdicts of a compositional check.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentVerdicts {
    /// `(component prefix, verdict)` for every component with operations in
    /// the history.
    pub components: Vec<(&'static str, Verdict)>,
}

impl ComponentVerdicts {
    /// True iff every component linearizes.
    pub fn is_linearizable(&self) -> bool {
        self.components.iter().all(|(_, v)| v.is_linearizable())
    }

    /// True iff any component hit the search budget.
    pub fn any_unknown(&self) -> bool {
        self.components.iter().any(|(_, v)| *v == Verdict::Unknown)
    }
}

/// Composition of per-shard streaming verdicts — the live-deployment
/// analogue of [`ComponentVerdicts`]. A sharded service (`lintime serve`)
/// runs one independent object per shard, each monitored by its own
/// [`crate::stream::StreamChecker`]; by locality, the whole multi-object
/// execution is linearizable iff every shard's stream is.
///
/// The composed verdict keeps the offline lattice's risk asymmetry: a single
/// shard violation refutes the whole deployment, a single `Unknown` (with no
/// violation anywhere) degrades the whole deployment to `Unknown`, and only
/// all-shards-`Ok` certifies it.
#[derive(Clone, Debug, Default)]
pub struct ShardVerdicts {
    /// `(shard label, final streaming verdict)`, one entry per shard.
    pub shards: Vec<(String, StreamVerdict)>,
}

impl ShardVerdicts {
    /// Record one shard's final verdict.
    pub fn push(&mut self, label: impl Into<String>, verdict: StreamVerdict) {
        self.shards.push((label.into(), verdict));
    }

    /// True iff every shard certified `Ok` (and there is at least one
    /// shard — an empty deployment vacuously proves nothing worth claiming).
    pub fn is_linearizable(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|(_, v)| v.is_ok())
    }

    /// True iff some shard found a sound violation.
    pub fn any_violation(&self) -> bool {
        self.shards.iter().any(|(_, v)| v.is_violation())
    }

    /// True iff some shard degraded to `Unknown`.
    pub fn any_unknown(&self) -> bool {
        self.shards.iter().any(|(_, v)| matches!(v, StreamVerdict::Unknown(_)))
    }

    /// Labels of the shards that refuted, in shard order — the attribution a
    /// locality argument buys: the violation is *in those objects*, not an
    /// artifact of interleaving with the healthy shards.
    pub fn violating_shards(&self) -> Vec<&str> {
        self.shards
            .iter()
            .filter(|(_, v)| v.is_violation())
            .map(|(label, _)| label.as_str())
            .collect()
    }

    /// Composed verdict class (`"linearizable"`, `"not-linearizable"`,
    /// `"unknown"`), matching [`StreamVerdict::class`]. Violations dominate
    /// Unknown: a proven refutation anywhere stays a refutation even if
    /// another shard could not be decided.
    pub fn class(&self) -> &'static str {
        if self.any_violation() {
            "not-linearizable"
        } else if self.any_unknown() || self.shards.is_empty() {
            "unknown"
        } else {
            "linearizable"
        }
    }
}

/// Check a product-typed history one component at a time.
///
/// Every operation name must be namespaced (`"prefix/op"`) and resolvable in
/// `product`, and the history must be complete (no pending operations or
/// malformed records); returns `Err` otherwise.
pub fn check_components(
    product: &ProductSpec,
    history: &History,
    cfg: CheckConfig,
) -> Result<ComponentVerdicts, String> {
    if !history.pending.is_empty() || history.malformed > 0 {
        return Err("per-component checking needs a complete history".to_string());
    }
    // Bucket ops per component, translating names into the component's own
    // static operation names.
    let mut buckets: BTreeMap<&'static str, History> = BTreeMap::new();
    for op in &history.ops {
        let (prefix, inner) = ProductSpec::split(op.instance.op)
            .ok_or_else(|| format!("operation {:?} is not namespaced", op.instance.op))?;
        let component =
            product.component(prefix).ok_or_else(|| format!("unknown component {prefix:?}"))?;
        let meta = component
            .op_meta(inner)
            .ok_or_else(|| format!("component {prefix:?} has no operation {inner:?}"))?;
        let mut projected = op.clone();
        projected.instance.op = meta.name;
        // Keys must be 'static; reuse the prefix stored in the product.
        let key = product.prefixes().find(|p| *p == prefix).expect("component exists");
        buckets.entry(key).or_default().ops.push(projected);
    }
    let components = buckets
        .into_iter()
        .map(|(prefix, h)| {
            let spec = product.component(prefix).expect("bucketed by component");
            (prefix, check_with(spec, &h, cfg))
        })
        .collect();
    Ok(ComponentVerdicts { components })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_adt::spec::{erase, OpInstance};
    use lintime_adt::types::{FifoQueue, Register};
    use lintime_adt::value::Value;

    fn product() -> ProductSpec {
        ProductSpec::new(
            "reg+queue",
            vec![("reg", erase(Register::new(0))), ("q", erase(FifoQueue::new()))],
        )
    }

    fn ns(p: &ProductSpec, full: &str) -> &'static str {
        use lintime_adt::spec::ObjectSpec as _;
        p.op_meta(full).expect("namespaced op").name
    }

    #[test]
    fn consistent_components_pass() {
        let p = product();
        let h = History::from_tuples(vec![
            (
                0,
                OpInstance { op: ns(&p, "reg/write"), arg: Value::Int(5), ret: Value::Unit },
                0,
                10,
            ),
            (
                1,
                OpInstance { op: ns(&p, "q/enqueue"), arg: Value::Int(9), ret: Value::Unit },
                0,
                10,
            ),
            (
                2,
                OpInstance { op: ns(&p, "reg/read"), arg: Value::Unit, ret: Value::Int(5) },
                20,
                30,
            ),
            (3, OpInstance { op: ns(&p, "q/peek"), arg: Value::Unit, ret: Value::Int(9) }, 20, 30),
        ]);
        let v = check_components(&p, &h, CheckConfig::default()).unwrap();
        assert!(v.is_linearizable());
        assert_eq!(v.components.len(), 2);
        // Per-component checking does not enumerate completions: a history
        // with a pending op is refused, never silently checked without it.
        let mut pending = h.clone();
        pending.pending.push(crate::history::PendingOp {
            pid: lintime_sim::time::Pid(4),
            invocation: lintime_adt::spec::Invocation::new(ns(&p, "reg/write"), 6),
            t_invoke: lintime_sim::time::Time(25),
            may_have_effect: true,
        });
        assert!(check_components(&p, &pending, CheckConfig::default()).is_err());
    }

    #[test]
    fn violation_is_attributed_to_the_right_component() {
        let p = product();
        let h = History::from_tuples(vec![
            // Register fine.
            (
                0,
                OpInstance { op: ns(&p, "reg/write"), arg: Value::Int(5), ret: Value::Unit },
                0,
                10,
            ),
            (
                1,
                OpInstance { op: ns(&p, "reg/read"), arg: Value::Unit, ret: Value::Int(5) },
                20,
                30,
            ),
            // Queue broken: peek of a value never enqueued.
            (2, OpInstance { op: ns(&p, "q/peek"), arg: Value::Unit, ret: Value::Int(42) }, 20, 30),
        ]);
        let v = check_components(&p, &h, CheckConfig::default()).unwrap();
        assert!(!v.is_linearizable());
        let by: BTreeMap<_, _> = v.components.iter().cloned().collect();
        assert!(by["reg"].is_linearizable());
        assert_eq!(by["q"], Verdict::NotLinearizable);
    }

    #[test]
    fn shard_verdicts_compose_with_violation_dominating_unknown() {
        use crate::stream::{UnknownReason, ViolationEvidence};
        let ok = StreamVerdict::Ok;
        let unknown = StreamVerdict::Unknown(UnknownReason::WindowOverflow);
        let bad = StreamVerdict::Violation(ViolationEvidence { window: History::default() });

        let mut all_ok = ShardVerdicts::default();
        assert_eq!(all_ok.class(), "unknown", "an empty deployment proves nothing");
        assert!(!all_ok.is_linearizable());
        all_ok.push("shard-0", ok.clone());
        all_ok.push("shard-1", ok.clone());
        assert!(all_ok.is_linearizable());
        assert_eq!(all_ok.class(), "linearizable");
        assert!(all_ok.violating_shards().is_empty());

        let mut degraded = ShardVerdicts::default();
        degraded.push("shard-0", ok.clone());
        degraded.push("shard-1", unknown.clone());
        assert!(!degraded.is_linearizable());
        assert!(degraded.any_unknown() && !degraded.any_violation());
        assert_eq!(degraded.class(), "unknown");

        let mut refuted = ShardVerdicts::default();
        refuted.push("shard-0", ok);
        refuted.push("shard-1", unknown);
        refuted.push("shard-2", bad);
        assert_eq!(refuted.class(), "not-linearizable", "violation dominates unknown");
        assert_eq!(refuted.violating_shards(), vec!["shard-2"]);
    }

    #[test]
    fn non_namespaced_ops_are_rejected() {
        let p = product();
        let h = History::from_tuples(vec![(0, OpInstance::new("write", 5, ()), 0, 10)]);
        assert!(check_components(&p, &h, CheckConfig::default()).is_err());
    }

    #[test]
    fn compositional_matches_monolithic_on_interleavings() {
        // Many concurrent ops on both objects: the monolithic search and the
        // compositional one must agree.
        let p = product();
        let mut tuples = Vec::new();
        for i in 0..5i64 {
            tuples.push((
                0usize,
                OpInstance { op: ns(&p, "q/enqueue"), arg: Value::Int(i), ret: Value::Unit },
                0,
                100,
            ));
            tuples.push((
                1usize,
                OpInstance { op: ns(&p, "reg/write"), arg: Value::Int(i), ret: Value::Unit },
                0,
                100,
            ));
        }
        tuples.push((
            2usize,
            OpInstance { op: ns(&p, "q/dequeue"), arg: Value::Unit, ret: Value::Int(3) },
            200,
            210,
        ));
        let h = History::from_tuples(tuples);
        let mono = crate::wing_gong::check(
            &(std::sync::Arc::new(product()) as std::sync::Arc<dyn lintime_adt::spec::ObjectSpec>),
            &h,
        );
        let comp = check_components(&p, &h, CheckConfig::default()).unwrap();
        assert_eq!(mono.is_linearizable(), comp.is_linearizable());
        assert!(comp.is_linearizable());
    }
}
