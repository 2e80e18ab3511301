//! The benchmark's own tests: its correctness check bites, the traced run
//! reproduces the untraced one, and one seed gives one set of figures.

use crate::untraced::{self, percentile, prints, serve_correct, serve_failed, shard_fingerprint};
use crate::workload::{arrivals, Workload};
use crate::{json, traced};
use lintime_bench::serve::{serve, ServeConfig};

/// A workload's serve configuration, cut down to test size.
fn small(name: &str, seed: u64) -> ServeConfig {
    match Workload::from_name(name, seed).expect("known workload") {
        Workload::Serve(cfg) => ServeConfig { total_ops: 6_000, ..cfg },
        Workload::Check { .. } => panic!("{name} is not a serve workload"),
    }
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + key.len() + 4..];
    &rest[..rest.find([',', '}']).expect("field ends")]
}

#[test]
fn healthy_runs_pass_the_check_with_nothing_failed() {
    for name in ["serve-queue-backlog", "serve-register-reads"] {
        let report = serve(&small(name, 1)).expect("serve");
        assert!(serve_correct(&report), "{name}: {}", report.render_text());
        assert_eq!(serve_failed(&report), 0, "{name}");
    }
}

#[test]
fn a_corrupted_shard_fails_the_check_and_counts_its_ops_failed() {
    let cfg = ServeConfig { corrupt_shard: Some(1), ..small("serve-queue-backlog", 1) };
    let report = serve(&cfg).expect("serve");
    assert!(!serve_correct(&report), "{}", report.render_text());
    let failed = serve_failed(&report);
    assert_eq!(failed, report.shard_reports[1].arrivals, "every op of the refuted shard fails");
    assert!(failed as f64 / report.arrivals as f64 > 0.0);

    let line = untraced::run(&Workload::Serve(cfg)).expect("untraced run").render();
    assert_eq!(field(&line, "correct"), "false", "{line}");
    assert_ne!(field(&line, "failed"), "0", "{line}");
}

#[test]
fn the_arrival_generator_matches_serve() {
    for name in ["serve-queue-backlog", "serve-register-reads"] {
        let cfg = small(name, 7);
        let report = serve(&cfg).expect("serve");
        let ours: Vec<u64> = arrivals(&cfg).iter().map(|a| a.len() as u64).collect();
        let theirs: Vec<u64> = report.shard_reports.iter().map(|s| s.arrivals).collect();
        assert_eq!(ours, theirs, "{name}");
    }
}

#[test]
fn one_seed_gives_identical_figures() {
    let cfg = small("serve-queue-backlog", 3);
    let (a, b) = (serve(&cfg).expect("serve"), serve(&cfg).expect("serve"));
    assert_eq!(shard_fingerprint(&prints(&a)), shard_fingerprint(&prints(&b)));
    assert_eq!(
        (a.events, a.service_p50, a.service_p999, a.total_p99),
        (b.events, b.service_p50, b.service_p999, b.total_p99)
    );
}

#[test]
fn the_traced_run_reproduces_the_untraced_run() {
    for name in ["serve-queue-backlog", "serve-register-reads"] {
        let line = traced::run(&Workload::Serve(small(name, 5)), None).expect("traced run");
        assert_eq!(field(&line, "equivalent"), "true", "{name}: {line}");
        assert_eq!(field(&line, "correct"), "true", "{name}: {line}");
        // Every event reaches the checker: one invoke and one respond per op.
        assert_eq!(field(&line, "sink.events_per_op"), "2", "{line}");
    }
    let check = Workload::Check { ops: 50_000, procs: 4, flush_ops: 1024 };
    let line = traced::run(&check, None).expect("traced run");
    assert_eq!(field(&line, "equivalent"), "true", "{line}");
}

#[test]
fn the_worker_threads_self_times_cover_its_wall_time() {
    let line = traced::run(&Workload::Serve(small("serve-queue-backlog", 2)), None).expect("run");
    let unattributed: f64 = field(&line, "serve.unattributed_share").parse().expect("number");
    assert!((0.0..0.1).contains(&unattributed), "{line}");
}

#[test]
fn percentiles_pick_the_smallest_covering_value() {
    let counts = [0, 10, 0, 89, 1];
    assert_eq!(percentile(&counts, 0.5), 3.0);
    assert_eq!(percentile(&counts, 0.1), 1.0);
    assert_eq!(percentile(&counts, 0.999), 4.0);
}

#[test]
fn json_fields_render_in_order() {
    let o = json::Obj::default().int("a", 1).str("b", "x\"y").num("c", f64::NAN).bool("d", true);
    assert_eq!(o.render(), r#"{"a": 1, "b": "x\"y", "c": null, "d": true}"#);
}
