//! Integration tests over the experiment reports themselves: every table and
//! figure generator must produce its expected rows, and the internal shape
//! assertions (crossovers, formula matches) must hold. These are the same
//! code paths `lintime report` and `lintime attack` print.

use lintime_bench::experiments;
use lintime_bounds::formulas;

#[test]
fn table1_reproduces() {
    let r = experiments::table1_report();
    assert!(r.contains("Read-Modify-Write"));
    assert!(r.contains("7800 (Thm 4)")); // d + m at default params
    assert!(r.contains("(1 - 1/n)u") || r.contains("Thm 3"));
    // Measured column is exact: RMW = d + ε = 7800.
    let rmw_line = r.lines().find(|l| l.trim_start().starts_with("Read-Modify-Write")).unwrap();
    assert!(rmw_line.trim_end().ends_with("7800"), "{rmw_line}");
}

#[test]
fn table2_and_3_reproduce() {
    let r2 = experiments::table2_report();
    assert!(r2.contains("Enqueue + Peek"));
    assert!(r2.contains("Thm 5"));
    let r3 = experiments::table3_report();
    assert!(r3.contains("Push + Peek"));
    // The stack sum row must NOT carry a Theorem 5 bound.
    let row = r3.lines().find(|l| l.contains("Push + Peek")).unwrap();
    assert!(!row.contains("Thm 5"), "{row}");
}

#[test]
fn table4_reports_certified_k() {
    let r = experiments::table4_report();
    assert!(r.contains("Insert + Depth"));
    assert!(r.contains("insert k = 4"));
    assert!(r.contains("delete k = 2"));
}

#[test]
fn table5_summarizes_classes() {
    let r = experiments::table5_report();
    assert!(r.contains("Pure accessor"));
    assert!(r.contains("Pair-free"));
    assert!(r.contains("Transposable"));
}

#[test]
fn fig11_is_consistent() {
    let r = experiments::fig11_report();
    assert!(r.contains("all declared classes match the computed classes ✓"));
}

#[test]
fn folklore_comparison_shape() {
    // Contains its own assertions (Algorithm 1 beats both baselines).
    let r = experiments::folklore_report();
    assert!(r.contains("beats both folklore baselines"));
}

#[test]
fn x_tradeoff_formulas_hold() {
    let r = experiments::x_tradeoff_report();
    assert!(r.contains("equal the Lemma 4 formulas"));
}

#[test]
fn clocksync_within_bound() {
    let r = experiments::clocksync_report();
    assert!(r.contains("within the optimal bound"));
}

#[test]
fn linearizability_sweep_clean() {
    let r = experiments::linearizability_sweep_report(3);
    assert!(r.contains("all linearizable ✓"));
}

#[test]
fn kv_extension_table() {
    let r = experiments::table_kv_report();
    assert!(r.contains("Put + Get"));
    assert!(r.contains("Thm 5"));
    // del has no lower bound.
    let del = r.lines().find(|l| l.trim_start().starts_with("Del")).unwrap();
    assert!(!del.contains("Thm"), "{del}");
}

#[test]
fn throughput_extension() {
    let r = experiments::throughput_report();
    assert!(r.contains("folklore rate"));
}

#[test]
fn n_scaling_extension() {
    let r = experiments::n_scaling_report();
    assert!(r.contains("tight"));
}

#[test]
fn workload_mix_extension() {
    let r = experiments::workload_mix_report();
    assert!(r.contains("X tuning follows the mix"));
}

#[test]
fn lower_bound_crossovers() {
    // The report asserts internally that violations occur exactly below each
    // bound.
    let r = experiments::lower_bounds_report();
    assert!(r.matches("crossover matches the formula").count() == 4);
}

#[test]
fn crossover_search_matches_every_formula() {
    // The report asserts internally that each threshold equals its formula.
    let r = experiments::crossover_report();
    let p = experiments::default_params();
    let rows: Vec<&str> = r.lines().filter(|l| l.trim_start().starts_with("Thm ")).collect();
    assert_eq!(rows.len(), 4, "{r}");
    let formulas = [
        formulas::thm2_pure_accessor_lb(p),
        formulas::thm3_last_sensitive_lb(p, p.n),
        formulas::thm4_pair_free_lb(p),
        formulas::thm5_sum_lb(p),
    ];
    for (row, formula) in rows.iter().zip(formulas) {
        let cols: Vec<&str> = row.split_whitespace().rev().take(3).collect();
        // Columns from the right: probes, formula, measured.
        assert_eq!(cols[1], formula.to_string(), "{row}");
        assert_eq!(cols[2], formula.to_string(), "{row}");
    }
    assert!(r.trim_end().ends_with("every threshold equals its formula to the tick ✓"), "{r}");
}

#[test]
fn timelines_draw_the_proof_runs() {
    let r = experiments::timelines_report();
    assert!(r.contains("R1 (admissible, linearizable):"), "{r}");
    assert!(r.contains("R2 = shift(R1, x̄) (admissible, NOT linearizable"), "{r}");
    let outcomes: Vec<&str> = r.lines().filter(|l| l.starts_with("outcome: ")).collect();
    assert_eq!(outcomes.len(), 3, "{r}");
    assert!(outcomes[0].starts_with("outcome: ViolationInShifted"), "{}", outcomes[0]);
    for o in &outcomes[1..] {
        assert!(o.starts_with("outcome: ViolationIn"), "every victim is defeated: {o}");
    }
}
