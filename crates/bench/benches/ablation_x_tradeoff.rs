//! Ablation: the X tradeoff (Section 5). This bench measures the harness
//! cost per X setting; the virtual-time results (|AOP| = d − X vs
//! |MOP| = X + ε) are printed by `lintime report x_tradeoff` and asserted exact.

use lintime_adt::prelude::*;
use lintime_bench::microbench::Group;
use lintime_bounds::tables::measure_worst_case;
use lintime_core::cluster::Algorithm;
use lintime_sim::prelude::*;

fn main() {
    let p = ModelParams::default_experiment();
    let group = Group::new("x_tradeoff").sample_size(15);
    let x_max = p.d - p.epsilon;
    for frac in [0i64, 1, 2] {
        let x = Time(x_max.as_ticks() * frac / 2);
        let spec = erase(FifoQueue::new());
        group.bench(&format!("queue_measure/{x}"), || {
            let measured = measure_worst_case(&spec, p, x, Algorithm::Wtlw { x });
            assert_eq!(measured["peek"], p.d - x);
            assert_eq!(measured["enqueue"], x + p.epsilon);
            measured
        });
    }
}
