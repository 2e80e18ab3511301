//! The `lintime` binary's front door: subcommand and report dispatch, and
//! flag validation. Only cheap commands run here; the reports themselves
//! are covered by `tests/reports.rs`.

use lintime_bench::experiments::REPORTS;
use std::process::{Command, Output};

fn lintime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lintime")).args(args).output().expect("run lintime")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn unknown_subcommand_prints_every_subcommand() {
    let out = lintime(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let err = text(&out.stderr);
    let usage = err.lines().find(|l| l.starts_with("usage:")).expect("a usage line");
    for cmd in ["types", "report", "attack", "faults", "simulate", "stream", "serve", "trace"] {
        assert!(usage.contains(cmd), "usage line lacks {cmd}: {usage}");
    }
}

#[test]
fn bare_report_lists_exactly_the_registry() {
    let out = lintime(&["report"]);
    assert!(out.status.success());
    let listed: Vec<String> = text(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    let names: Vec<&str> = REPORTS.iter().map(|r| r.name).collect();
    assert_eq!(listed, names);
}

#[test]
fn unknown_report_name_fails() {
    let out = lintime(&["report", "table9"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(text(&out.stderr).contains("table9"), "{}", text(&out.stderr));
    assert!(out.stdout.is_empty(), "nothing runs before every name resolves");
}

#[test]
fn zero_fault_seeds_are_rejected() {
    let out = lintime(&["faults", "--seeds", "0"]);
    assert!(!out.status.success());
    assert!(text(&out.stderr).contains("--seeds"), "{}", text(&out.stderr));
}

#[test]
fn negative_seeds_are_rejected() {
    for cmd in ["simulate", "serve", "trace"] {
        let out = lintime(&[cmd, "--seed", "-1"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        assert!(text(&out.stderr).contains("--seed expects"), "{cmd}: {}", text(&out.stderr));
    }
}

#[test]
fn attack_thm2_prints_only_theorem_2_and_its_control() {
    let out = lintime(&["attack", "thm2"]);
    assert!(out.status.success());
    let r = text(&out.stdout);
    assert!(r.contains("Theorem 2:"), "{r}");
    assert!(r.contains("crossover matches the formula"), "{r}");
    assert!(r.contains("  thm2: "), "Theorem 2's control line: {r}");
    for other in ["3", "4", "5"] {
        assert!(!r.contains(&format!("Theorem {other}")), "{r}");
        assert!(!r.contains(&format!("thm{other}")), "{r}");
    }
}
