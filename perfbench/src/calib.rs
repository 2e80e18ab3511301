//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! Shared hosts change speed by tens of percent over minutes (other tenants
//! on the same cores and memory), which no amount of repetition averages
//! away. Each measured run therefore times this kernel right before and
//! right after its work; the kernel is frozen here, outside the program
//! under test, so no change to the program can move it.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64 step, written out so the kernel depends on nothing else.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pass of the kernel: random reads and writes over a 1 MiB table,
/// ordered-map churn, a FIFO of boxed values and short-lived vectors — the
/// access mix of an event loop with per-event allocation.
fn pass(rounds: u32) -> u64 {
    let mut state = 0x5EED;
    let mut table = vec![0u64; 1 << 17];
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut fifo: VecDeque<Box<(u64, u64)>> = VecDeque::new();
    let mut acc = 0u64;
    for _ in 0..rounds {
        let r = next(&mut state);
        let slot = (r as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(r);
        acc ^= table[(r >> 20) as usize & (table.len() - 1)];
        map.insert(r & 0xFFF, r);
        if let Some((&k, _)) = map.range((r >> 12) & 0xFFF..).next() {
            acc = acc.wrapping_add(map.remove(&k).unwrap_or(0));
        }
        fifo.push_back(Box::new((r, acc)));
        if fifo.len() > 512 {
            acc ^= fifo.pop_front().map_or(0, |b| b.0 ^ b.1);
        }
        let v: Vec<u64> = (0..(r & 7)).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
    }
    black_box(acc)
}

/// Rounds per kernel run: about 20 ms on a 2 GHz core.
const ROUNDS: u32 = 100_000;

/// Seconds the kernel takes now (the median of three runs).
pub fn kernel_seconds() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pass(black_box(ROUNDS)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}
