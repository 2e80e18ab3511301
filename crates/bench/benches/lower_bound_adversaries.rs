//! Timing benches for the Theorem 2–5 adversarial constructions
//! (Figures 1–10): wall-clock cost of building the proof's runs, executing
//! the victim, and checking linearizability.

use lintime_bench::microbench::Group;
use lintime_bounds::theorem::Theorem;
use lintime_sim::prelude::*;

fn main() {
    let p = ModelParams::default_experiment();
    let group = Group::new("adversaries").sample_size(20);

    // One victim strictly inside each bound.
    for (name, t, speed) in [
        ("thm2_pure_accessor", Theorem::Thm2, Time(500)),
        ("thm3_last_sensitive", Theorem::Thm3, Time(1500)),
        ("thm4_pair_free", Theorem::Thm4, p.min_delay() + p.u / 2),
        ("thm5_sum", Theorem::Thm5, p.d + p.epsilon - p.m() * 2),
    ] {
        group.bench(name, || {
            let r = t.attack(p, speed);
            assert!(r.outcome.violated());
            r
        });
    }
}
