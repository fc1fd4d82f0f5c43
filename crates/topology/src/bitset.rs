//! A compact fixed-universe bit set used for sink *valencies*.
//!
//! Valency analysis (Section 5.3 of the paper) computes, for every wire and
//! balancer, the set of sink nodes reachable from it. Networks of fan `w`
//! have `w` sinks but can have thousands of wires, so valencies are stored as
//! packed bit sets rather than `BTreeSet`s.

use cnet_util::json_struct;
use std::fmt;

/// A set of small integers over a fixed universe `0..universe`.
///
/// # Example
///
/// ```
/// use cnet_topology::bitset::BitSet;
///
/// let mut a = BitSet::new(8);
/// a.insert(1);
/// a.insert(5);
/// let mut b = BitSet::new(8);
/// b.insert(5);
/// assert!(b.is_subset(&a));
/// assert_eq!(a.len(), 2);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    universe: usize,
    words: Vec<u64>,
}

json_struct!(BitSet { universe, words });

impl BitSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet { universe, words: vec![0; universe.div_ceil(64)] }
    }

    /// Creates the full set `{0, …, universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = BitSet::new(universe);
        for i in 0..universe {
            s.insert(i);
        }
        s
    }

    /// Creates a set containing exactly the given elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= universe`.
    pub fn from_elems<I: IntoIterator<Item = usize>>(universe: usize, elems: I) -> Self {
        let mut s = BitSet::new(universe);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Returns the size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts `i` into the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= universe`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.universe, "element {i} out of universe {}", self.universe);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set (no-op if absent).
    pub fn remove(&mut self, i: usize) {
        if i < self.universe {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        i < self.universe && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the union of two sets.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the intersection of two sets.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        out
    }

    /// Returns `true` if the two sets share no elements.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Returns the smallest element, or `None` if empty.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Returns the largest element, or `None` if empty.
    pub fn max(&self) -> Option<usize> {
        self.iter().next_back()
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, front: 0, back: self.universe }
    }

    /// Returns `true` if every element of `self` is strictly less than every
    /// element of `other` (the paper's `V1 ≺ V2` relation on valencies).
    ///
    /// Both sets must be non-empty for the relation to hold.
    pub fn precedes(&self, other: &BitSet) -> bool {
        match (self.max(), other.min()) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set whose universe is one past the maximum
    /// element (or 0 for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let universe = elems.iter().copied().max().map_or(0, |m| m + 1);
        BitSet::from_elems(universe, elems)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Double-ended iterator over the elements of a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    front: usize,
    back: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.front < self.back {
            let i = self.front;
            self.front += 1;
            if self.set.contains(i) {
                return Some(i);
            }
        }
        None
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<usize> {
        while self.back > self.front {
            self.back -= 1;
            if self.set.contains(self.back) {
                return Some(self.back);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_util::proptest::prelude::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
        let f = BitSet::full(10);
        assert_eq!(f.len(), 10);
        assert_eq!(f.min(), Some(0));
        assert_eq!(f.max(), Some(9));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(50));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn precedes_relation() {
        let a = BitSet::from_elems(8, [0, 1, 2]);
        let b = BitSet::from_elems(8, [3, 4]);
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        // overlapping sets are unordered
        let c = BitSet::from_elems(8, [2, 5]);
        assert!(!a.precedes(&c));
        assert!(!c.precedes(&a));
        // empty sets never precede anything
        let e = BitSet::new(8);
        assert!(!e.precedes(&b));
        assert!(!b.precedes(&e));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_elems(70, [0, 10, 65]);
        let b = BitSet::from_elems(70, [10, 20]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![0, 10, 20, 65]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![10]);
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::from_elems(70, [1]).is_disjoint(&b));
        assert!(BitSet::from_elems(70, [10]).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn double_ended_iteration() {
        let s = BitSet::from_elems(128, [3, 64, 100]);
        assert_eq!(s.iter().rev().collect::<Vec<_>>(), vec![100, 64, 3]);
        let mut it = s.iter();
        assert_eq!(it.next(), Some(3));
        assert_eq!(it.next_back(), Some(100));
        assert_eq!(it.next(), Some(64));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 3);
        let empty: BitSet = std::iter::empty().collect();
        assert_eq!(empty.universe(), 0);
        assert!(empty.is_empty());
    }

    proptest! {
        #[test]
        fn union_len_bounds(xs in prop::collection::vec(0usize..256, 0..64),
                            ys in prop::collection::vec(0usize..256, 0..64)) {
            let a = BitSet::from_elems(256, xs.iter().copied());
            let b = BitSet::from_elems(256, ys.iter().copied());
            let u = a.union(&b);
            prop_assert!(u.len() >= a.len().max(b.len()));
            prop_assert!(u.len() <= a.len() + b.len());
            for x in xs { prop_assert!(u.contains(x)); }
            for y in ys { prop_assert!(u.contains(y)); }
        }

        #[test]
        fn iter_is_sorted_and_consistent(xs in prop::collection::vec(0usize..200, 0..80)) {
            let s = BitSet::from_elems(200, xs.iter().copied());
            let elems: Vec<usize> = s.iter().collect();
            prop_assert!(elems.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(elems.len(), s.len());
            let mut sorted: Vec<usize> = xs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(elems, sorted);
        }

        #[test]
        fn disjoint_iff_empty_intersection(
            xs in prop::collection::vec(0usize..64, 0..32),
            ys in prop::collection::vec(0usize..64, 0..32),
        ) {
            let a = BitSet::from_elems(64, xs);
            let b = BitSet::from_elems(64, ys);
            prop_assert_eq!(a.is_disjoint(&b), a.intersection(&b).is_empty());
        }
    }
}
