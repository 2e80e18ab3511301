//! Automatic crossover location: binary-search the victim-speed axis of each
//! adversarial construction for the exact tick at which violations stop.
//!
//! The theorems predict a sharp threshold — any algorithm strictly faster
//! than the bound is defeated; the bound itself is achievable. Because the
//! simulator is exact, the measured threshold should equal the formula *to
//! the tick*, which is a far stronger reproduction statement than a few
//! sweep points. `find_crossover` assumes monotonicity (faster victims stay
//! defeated), which it verifies at the endpoints.

use crate::adversary::Outcome;
use lintime_sim::time::Time;

/// Result of a crossover search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Crossover {
    /// The smallest probed speed at which NO violation was found.
    pub first_safe: Time,
    /// Number of attack executions performed.
    pub probes: u32,
}

/// Binary-search `[lo, hi]` for the smallest victim speed whose attack finds
/// no violation. `attack(speed)` runs the construction and reports whether a
/// violation was exhibited.
///
/// Preconditions (checked): `attack(lo)` violates, `attack(hi)` does not.
pub fn find_crossover(
    lo: Time,
    hi: Time,
    mut attack: impl FnMut(Time) -> Outcome,
) -> Result<Crossover, String> {
    let mut probes = 0u32;
    let mut run = |t: Time, probes: &mut u32| -> bool {
        *probes += 1;
        attack(t).violated()
    };
    if !run(lo, &mut probes) {
        return Err(format!("no violation at the fast end {lo}; nothing to search"));
    }
    if run(hi, &mut probes) {
        return Err(format!("still violating at the slow end {hi}; widen the range"));
    }
    let (mut lo, mut hi) = (lo, hi); // invariant: lo violates, hi does not
    while hi - lo > Time(1) {
        let mid = Time((lo.as_ticks() + hi.as_ticks()) / 2);
        if run(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Crossover { first_safe: hi, probes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulas;
    use crate::theorem::Theorem;
    use lintime_sim::time::ModelParams;

    fn p() -> ModelParams {
        ModelParams::default_experiment()
    }

    fn first_safe(t: Theorem) -> Time {
        t.crossover(p()).unwrap().first_safe
    }

    #[test]
    fn thm2_crossover_is_exactly_u_over_4() {
        assert_eq!(first_safe(Theorem::Thm2), formulas::thm2_pure_accessor_lb(p()));
    }

    #[test]
    fn thm3_crossover_is_exactly_one_minus_one_over_n_u() {
        assert_eq!(first_safe(Theorem::Thm3), formulas::thm3_last_sensitive_lb(p(), p().n));
    }

    #[test]
    fn thm4_crossover_is_exactly_d_plus_m() {
        assert_eq!(first_safe(Theorem::Thm4), formulas::thm4_pair_free_lb(p()));
    }

    #[test]
    fn thm5_crossover_is_exactly_d_plus_m() {
        assert_eq!(first_safe(Theorem::Thm5), formulas::thm5_sum_lb(p()));
    }

    #[test]
    fn rejects_ranges_without_a_threshold() {
        // Constant outcomes at both ends are reported, not mis-searched.
        assert!(find_crossover(Time(0), Time(10), |_| Outcome::NoViolation).is_err());
        assert!(find_crossover(Time(0), Time(10), |_| Outcome::ViolationInBase).is_err());
    }
}
