//! A small fixed-capacity bit set used as the "done" mask in the
//! linearizability search. Supports histories of arbitrary size (one `u64`
//! word per 64 operations) and hashes cheaply for memoization keys.

/// A fixed-capacity bit set.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitSet {
    words: Box<[u64]>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for `len` bits.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)].into_boxed_slice(), len }
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Test bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// In-place union: `self |= other`. Capacities must match.
    #[cfg(test)]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Iterate the indices of set bits in ascending order, consuming one
    /// word at a time (each word costs one trailing-zero count per set bit,
    /// not 64 probes).
    #[cfg(test)]
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn set_clear_get() {
        let mut b = BitSet::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.ones().count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn prefix_counts_and_ones_iteration() {
        let mut b = BitSet::new(200);
        let set = [0usize, 3, 63, 64, 127, 128, 199];
        for &i in &set {
            b.set(i);
        }
        assert_eq!(b.ones().collect::<Vec<_>>(), set);
        let count_prefix = |n: usize| b.ones().take_while(|&i| i < n).count();
        assert_eq!(count_prefix(0), 0);
        assert_eq!(count_prefix(64), 3);
        assert_eq!(count_prefix(65), 4);
        assert_eq!(count_prefix(200), 7);
    }

    #[test]
    fn union_merges_words() {
        let mut a = BitSet::new(100);
        a.set(1);
        a.set(70);
        let mut b = BitSet::new(100);
        b.set(70);
        b.set(99);
        a.union_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![1, 70, 99]);
    }

    #[test]
    fn hashes_as_key() {
        let mut s = HashSet::new();
        let mut a = BitSet::new(100);
        a.set(7);
        let mut b = BitSet::new(100);
        b.set(7);
        s.insert(a);
        assert!(s.contains(&b));
    }
}
