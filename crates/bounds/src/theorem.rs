//! The paper's four standard lower-bound constructions, defined once.
//!
//! [`adversary`](crate::adversary) builds each proof's runs for any spec,
//! invocations and victim. The reports, the crossover search, the timelines
//! and the benches all run one fixed instance per theorem: the data type and
//! invocations below, against Algorithm 1 with exactly one wait cut to the
//! victim's "speed". [`Theorem`] is that table.

use crate::adversary::{thm2_attack, thm3_attack, thm4_attack, thm5_attack, AttackReport};
use crate::crossover::{find_crossover, Crossover};
use crate::formulas;
use lintime_adt::spec::{erase, Invocation};
use lintime_adt::types::{FifoQueue, Register, RmwRegister};
use lintime_adt::value::Value;
use lintime_core::cluster::Algorithm;
use lintime_core::wtlw::Waits;
use lintime_sim::time::{ModelParams, Time};

/// One of the standard Theorem 2–5 constructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Theorem {
    /// Theorem 2 on the queue's `peek` (pure accessor, `u/4`); the speed is
    /// `|peek|`, from Algorithm 1 at `X = d − ε`.
    Thm2,
    /// Theorem 3 on the register's `write` with `k = n` instances
    /// (last-sensitive mutator, `(1 − 1/k)u`); the speed is `|write|`.
    Thm3,
    /// Theorem 4 on `rmw` (pair-free, `d + m`); the speed is the mixed
    /// latency `add + execute`.
    Thm4,
    /// Theorem 5 on the queue's `enqueue` and `peek` (`d + m`); the speed is
    /// the sum `|enqueue| + |peek|`.
    Thm5,
}

impl Theorem {
    /// All four, in the paper's order.
    pub const ALL: [Theorem; 4] = [Theorem::Thm2, Theorem::Thm3, Theorem::Thm4, Theorem::Thm5];

    /// The command-line name: `thm2` … `thm5`.
    pub fn name(self) -> &'static str {
        match self {
            Theorem::Thm2 => "thm2",
            Theorem::Thm3 => "thm3",
            Theorem::Thm4 => "thm4",
            Theorem::Thm5 => "thm5",
        }
    }

    /// The theorem called `name`, if any.
    pub fn by_name(name: &str) -> Option<Theorem> {
        Theorem::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The bound the construction proves: the speed below which every
    /// victim is defeated.
    pub fn bound(self, p: ModelParams) -> Time {
        match self {
            Theorem::Thm2 => formulas::thm2_pure_accessor_lb(p),
            Theorem::Thm3 => formulas::thm3_last_sensitive_lb(p, p.n),
            Theorem::Thm4 => formulas::thm4_pair_free_lb(p),
            Theorem::Thm5 => formulas::thm5_sum_lb(p),
        }
    }

    /// The latency the speed stands for, as the sweep table labels it.
    pub fn quantity(self) -> &'static str {
        match self {
            Theorem::Thm2 => "|peek|",
            Theorem::Thm3 => "|write|",
            Theorem::Thm4 => "|rmw|",
            Theorem::Thm5 => "|enqueue|+|peek|",
        }
    }

    /// The one-line heading of the theorem's sweep.
    pub fn heading(self, p: ModelParams) -> String {
        let b = self.bound(p);
        match self {
            Theorem::Thm2 => format!("Theorem 2: pure accessor (queue peek); bound u/4 = {b}"),
            Theorem::Thm3 => format!(
                "Theorem 3: last-sensitive mutator (register write, k = {}); bound (1 − 1/k)u = {b}",
                p.n
            ),
            Theorem::Thm4 => format!("Theorem 4: pair-free (rmw); bound d + m = {b}"),
            Theorem::Thm5 => format!("Theorem 5: enqueue + peek sum; bound d + m = {b}"),
        }
    }

    /// The row label of the crossover search.
    pub fn search_label(self) -> &'static str {
        match self {
            Theorem::Thm2 => "Thm 2: |peek| (pure accessor)",
            Theorem::Thm3 => "Thm 3: |write| (last-sensitive mutator)",
            Theorem::Thm4 => "Thm 4: |rmw| (pair-free)",
            Theorem::Thm5 => "Thm 5: |enqueue| + |peek| (sum)",
        }
    }

    /// The speeds the sweep probes, straddling the bound at
    /// [`ModelParams::default_experiment`].
    pub fn sweep(self) -> Vec<Time> {
        let ticks: &[i64] = match self {
            Theorem::Thm2 => &[150, 300, 450, 599, 600, 900],
            Theorem::Thm3 => &[600, 1200, 1500, 1799, 1800, 2100],
            Theorem::Thm4 => &[6000, 6600, 7200, 7799, 7800, 8400],
            Theorem::Thm5 => &[5400, 6000, 6600, 7200, 7799, 7800, 8400],
        };
        ticks.iter().map(|&t| Time(t)).collect()
    }

    /// The `(fast, slow)` ends the crossover search bisects: the attack
    /// must violate at the first and not at the second.
    fn search_range(self, p: ModelParams) -> (Time, Time) {
        match self {
            Theorem::Thm2 => (Time(50), p.u / 2),
            Theorem::Thm3 => (Time(600), p.u),
            Theorem::Thm4 => (p.d, p.d + p.m() * 2),
            Theorem::Thm5 => (p.d - p.m(), p.d + p.m() * 2),
        }
    }

    /// The victim at `speed`: Algorithm 1's standard waits with the one
    /// latency the construction attacks set to `speed`. Theorem 2 starts
    /// from `X = d − ε`, so its base run stays linearizable; the others
    /// from `X = 0`.
    fn victim(self, p: ModelParams, speed: Time) -> Waits {
        let x = if self == Theorem::Thm2 { p.d - p.epsilon } else { Time::ZERO };
        let mut w = Waits::standard(p, x);
        match self {
            Theorem::Thm2 => w.aop_respond = speed,
            Theorem::Thm3 => w.mop_respond = speed,
            Theorem::Thm4 => w.execute = speed - w.add, // mixed latency = add + execute
            Theorem::Thm5 => w.aop_respond = speed - w.mop_respond,
        }
        w
    }

    /// Run the construction against the victim at `speed`.
    pub fn attack(self, p: ModelParams, speed: Time) -> AttackReport {
        let w = self.victim(p, speed);
        self.construct(p, Algorithm::WtlwWaits(w), w)
    }

    /// Run the construction against the standard Algorithm 1 (`X = 0`),
    /// which must survive it.
    pub fn control(self, p: ModelParams) -> AttackReport {
        self.construct(p, Algorithm::Wtlw { x: Time::ZERO }, Waits::standard(p, Time::ZERO))
    }

    /// Bisect the construction's speed range for the first speed the victim
    /// survives at.
    pub fn crossover(self, p: ModelParams) -> Result<Crossover, String> {
        let (fast, slow) = self.search_range(p);
        find_crossover(fast, slow, |speed| self.attack(p, speed).outcome)
    }

    /// The construction itself. Only Theorem 2 reads the victim's claimed
    /// latencies (`waits`), to size its accessor chain.
    fn construct(self, p: ModelParams, victim: Algorithm, waits: Waits) -> AttackReport {
        let peek = Invocation::nullary("peek");
        match self {
            Theorem::Thm2 => thm2_attack(
                p,
                &erase(FifoQueue::new()),
                Invocation::new("enqueue", 7),
                peek,
                waits.aop_respond,
                waits.mop_respond,
                victim,
            ),
            Theorem::Thm3 => {
                let args: Vec<Value> = (0..p.n as i64).map(|i| Value::Int(100 + i)).collect();
                let probe = [Invocation::nullary("read")];
                thm3_attack(p, &erase(Register::new(0)), "write", &args, &probe, victim)
            }
            Theorem::Thm4 => {
                let rmw = Invocation::new("rmw", 1);
                thm4_attack(p, &erase(RmwRegister::new(0)), rmw.clone(), rmw, victim)
            }
            Theorem::Thm5 => thm5_attack(
                p,
                &erase(FifoQueue::new()),
                "enqueue",
                Value::Int(1),
                Value::Int(2),
                peek,
                victim,
            ),
        }
    }
}
