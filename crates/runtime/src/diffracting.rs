//! The diffracting tree of Shavit and Zemach (\[SZ96\]) — the optimized
//! concurrent form of the paper's counting tree (Section 2.6.3).
//!
//! A plain counting tree funnels every token through the root balancer's
//! toggle bit. A *diffracting* tree puts a **prism** in front of each
//! toggle: an array of exchanger slots where two concurrent tokens can
//! *collide* and agree to go opposite ways — one left, one right — without
//! touching the toggle at all. Collisions preserve the balancer invariant
//! exactly (a pair contributes one token to each subtree) while removing
//! the hot toggle from both tokens' paths; only collision-less tokens fall
//! back to the toggle.
//!
//! The exchanger protocol per slot (a single atomic word):
//!
//! * `EMPTY → WAITING`: the token parks and spins briefly;
//! * a second token seeing `WAITING` swaps it to `SIGNALED` and goes
//!   **right**; the waiter observes `SIGNALED`, resets the slot, and goes
//!   **left**;
//! * a waiter that times out retracts (`WAITING → EMPTY`); if the
//!   retraction CAS fails, a partner just signaled — the collision counts.

use crate::ProcessCounter;
use cnet_util::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use cnet_util::sync::CachePadded;

const EMPTY: usize = 0;
const WAITING: usize = 1;
const SIGNALED: usize = 2;

/// How long a waiter spins before retracting, in loop iterations. Small:
/// on an uncontended (or single-core) host the fallback toggle is cheap.
const SPIN_LIMIT: u32 = 16;

/// After this many consecutive collision-less prism visits the node backs
/// off to the toggle, re-probing the prism only occasionally — \[SZ96\]'s
/// adaptive strategy, which keeps the uncontended path fast.
const MISS_BACKOFF: u64 = 8;

/// One inner node: a prism of exchanger slots plus the fallback toggle.
///
/// Every contended word — each prism slot and the toggle — sits on its own
/// cache line: a slot exists precisely so two threads can meet on it
/// *without* disturbing anyone else, which false sharing would undo.
#[derive(Debug)]
struct Node {
    prism: Vec<CachePadded<AtomicUsize>>,
    toggle: CachePadded<AtomicUsize>,
    /// Tokens that left this node via a collision (both partners counted).
    diffracted: AtomicU64,
    /// Tokens that fell back to the toggle.
    toggled: AtomicU64,
    /// Consecutive prism visits without a collision (adaptation signal).
    miss_streak: AtomicU64,
}

impl Node {
    fn new(prism_width: usize) -> Node {
        Node {
            prism: (0..prism_width).map(|_| CachePadded::new(AtomicUsize::new(EMPTY))).collect(),
            toggle: CachePadded::new(AtomicUsize::new(0)),
            diffracted: AtomicU64::new(0),
            toggled: AtomicU64::new(0),
            miss_streak: AtomicU64::new(0),
        }
    }

    /// Whether this visit should pay for a prism attempt: yes while
    /// collisions are landing, occasionally otherwise (to detect returning
    /// contention).
    fn probe_prism(&self, slot_hint: usize) -> bool {
        !self.prism.is_empty()
            && (self.miss_streak.load(Ordering::Relaxed) < MISS_BACKOFF
                || slot_hint.is_multiple_of(64))
    }

    /// Decides this token's direction: `false` = left (port 0), `true` =
    /// right (port 1).
    fn traverse(&self, slot_hint: usize) -> bool {
        if self.probe_prism(slot_hint) {
            let slot = &self.prism[slot_hint % self.prism.len()];
            // Try to become the waiter.
            if slot.compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                for _ in 0..SPIN_LIMIT {
                    if slot.load(Ordering::Acquire) == SIGNALED {
                        slot.store(EMPTY, Ordering::Release);
                        self.diffracted.fetch_add(1, Ordering::Relaxed);
                        self.miss_streak.store(0, Ordering::Relaxed);
                        return false; // collided: waiter goes left
                    }
                    std::hint::spin_loop();
                }
                // Timed out: retract. Failure means a partner signaled at
                // the last instant — take the collision.
                if slot
                    .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    slot.store(EMPTY, Ordering::Release);
                    self.diffracted.fetch_add(1, Ordering::Relaxed);
                    self.miss_streak.store(0, Ordering::Relaxed);
                    return false;
                }
                self.miss_streak.fetch_add(1, Ordering::Relaxed);
            } else if slot
                .compare_exchange(WAITING, SIGNALED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.diffracted.fetch_add(1, Ordering::Relaxed);
                self.miss_streak.store(0, Ordering::Relaxed);
                return true; // collided: signaler goes right
            }
        }
        // Fallback: the toggle bit, exactly a (1,2)-balancer.
        self.toggled.fetch_add(1, Ordering::Relaxed);
        self.toggle.fetch_xor(1, Ordering::AcqRel) == 1
    }
}

/// A diffracting tree handing out values `0, 1, 2, …` from `w` leaf
/// counters.
///
/// # Example
///
/// ```
/// use cnet_runtime::diffracting::DiffractingTree;
///
/// let tree = DiffractingTree::new(8, 4)?;
/// let mut values: Vec<u64> = (0..16).map(|k| tree.increment(k)).collect();
/// values.sort_unstable();
/// assert_eq!(values, (0..16).collect::<Vec<_>>());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct DiffractingTree {
    /// Inner nodes in heap order: node `i` has children `2i+1`, `2i+2`.
    nodes: Vec<Node>,
    /// Leaf counters: leaf `j` hands out `j, j+w, j+2w, …` — one cache
    /// line each, so leaves absorb their shares of traffic independently.
    counters: Vec<CachePadded<AtomicU64>>,
    /// Sequence salt so callers that pass constant entropy (e.g. a thread
    /// id through [`ProcessCounter::next_for`]) still probe varying slots.
    salt: CachePadded<AtomicU64>,
    width: usize,
    depth: usize,
}

impl DiffractingTree {
    /// Builds a diffracting tree with `width` leaves (a power of two) and
    /// the given prism width per node (0 disables diffraction, leaving a
    /// plain counting tree).
    ///
    /// # Errors
    ///
    /// Returns a message if `width` is not a power of two at least 2.
    pub fn new(width: usize, prism_width: usize) -> Result<DiffractingTree, String> {
        if !width.is_power_of_two() || width < 2 {
            return Err(format!("width {width} must be a power of two, at least 2"));
        }
        let depth = width.trailing_zeros() as usize;
        Ok(DiffractingTree {
            nodes: (0..width - 1).map(|_| Node::new(prism_width)).collect(),
            counters: (0..width).map(|j| CachePadded::new(AtomicU64::new(j as u64))).collect(),
            salt: CachePadded::new(AtomicU64::new(0)),
            width,
            depth,
        })
    }

    /// The number of leaf counters.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Performs one increment; `entropy` seeds the prism slot choices
    /// (callers typically pass a thread id or a per-thread counter).
    pub fn increment(&self, entropy: usize) -> u64 {
        // Mix the entropy so consecutive calls probe different slots.
        let mut h = entropy.wrapping_mul(0x9e3779b97f4a7c15);
        let mut node = 0usize; // heap index
        let mut leaf_bits = 0usize;
        for level in 0..self.depth {
            h = h.rotate_left(17).wrapping_mul(0xbf58476d1ce4e5b9);
            let right = self.nodes[node].traverse(h);
            // Leaf index accumulates LSB-first, matching the counting
            // tree's step-order leaves (port p at level l contributes
            // p << l).
            leaf_bits |= usize::from(right) << level;
            node = 2 * node + 1 + usize::from(right);
        }
        self.counters[leaf_bits].fetch_add(self.width as u64, Ordering::AcqRel)
    }

    /// Total tokens that left any node via a prism collision, and total
    /// that used a toggle — the diffraction rate `(diffracted, toggled)`.
    pub fn diffraction_stats(&self) -> (u64, u64) {
        let d = self.nodes.iter().map(|n| n.diffracted.load(Ordering::Relaxed)).sum();
        let t = self.nodes.iter().map(|n| n.toggled.load(Ordering::Relaxed)).sum();
        (d, t)
    }

    /// Per-leaf token counts (exact only at quiescence).
    pub fn leaf_counts(&self) -> Vec<u64> {
        let w = self.width as u64;
        self.counters
            .iter()
            .enumerate()
            .map(|(j, c)| (c.load(Ordering::Acquire) - j as u64) / w)
            .collect()
    }
}

impl ProcessCounter for DiffractingTree {
    fn next_for(&self, process: usize) -> u64 {
        // Salt the caller's (possibly constant) entropy with a sequence
        // number so successive operations probe different prism slots.
        let salt = self.salt.fetch_add(1, Ordering::Relaxed) as usize;
        let entropy = process.wrapping_mul(0x9e37_79b9).wrapping_add(salt);
        self.increment(entropy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn rejects_bad_widths() {
        assert!(DiffractingTree::new(0, 4).is_err());
        assert!(DiffractingTree::new(1, 4).is_err());
        assert!(DiffractingTree::new(6, 4).is_err());
    }

    #[test]
    fn sequential_counting_without_prisms_matches_the_tree() {
        // prism_width 0: every token uses the toggles; the value sequence
        // must match the counting tree's reference semantics.
        let tree = DiffractingTree::new(8, 0).unwrap();
        let net = cnet_topology::construct::counting_tree(8).unwrap();
        let mut reference = cnet_topology::state::NetworkState::new(&net);
        for k in 0..32usize {
            assert_eq!(tree.increment(k), reference.traverse(&net, 0).value);
        }
    }

    #[test]
    fn concurrent_increments_are_dense_with_prisms() {
        for prism_width in [0usize, 1, 4] {
            let tree = DiffractingTree::new(8, prism_width).unwrap();
            let mut values: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..6)
                    .map(|p| {
                        let t = &tree;
                        s.spawn(move || {
                            (0..500).map(|k| t.increment(p * 10_007 + k)).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            values.sort_unstable();
            assert_eq!(values, (0..3000).collect::<Vec<_>>(), "prism width {prism_width}");
        }
    }

    #[test]
    fn increments_are_gap_free_under_heavy_contention() {
        // Mirror of `fetch_add_is_gap_free_under_contention` in baseline.rs:
        // many threads, a real prism, and the full dense-range assertion —
        // no gaps, no duplicates, exact total.
        let threads = 8usize;
        let per_thread = 1000usize;
        let tree = DiffractingTree::new(8, 4).unwrap();
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|p| {
                    let t = &tree;
                    s.spawn(move || {
                        (0..per_thread).map(|k| t.increment(p * 10_007 + k)).collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        let total = (threads * per_thread) as u64;
        assert_eq!(values, (0..total).collect::<Vec<_>>());
        assert_eq!(tree.leaf_counts().iter().sum::<u64>(), total);
    }

    #[test]
    fn leaf_counts_balance_at_quiescence() {
        let tree = DiffractingTree::new(4, 2).unwrap();
        thread::scope(|s| {
            for p in 0..4usize {
                let t = &tree;
                s.spawn(move || {
                    for k in 0..250 {
                        t.increment(p * 31 + k);
                    }
                });
            }
        });
        let counts = tree.leaf_counts();
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        // Collisions keep subtrees balanced: totals per leaf are exactly
        // even here because 1000 is a multiple of the width... not quite —
        // diffraction guarantees pairwise balance, and leftovers go through
        // toggles, so leaves differ by at most 1 at quiescence.
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn diffraction_stats_account_for_every_node_visit() {
        let tree = DiffractingTree::new(8, 4).unwrap();
        thread::scope(|s| {
            for p in 0..4usize {
                let t = &tree;
                s.spawn(move || {
                    for k in 0..500 {
                        t.increment(p * 7919 + k);
                    }
                });
            }
        });
        let (diffracted, toggled) = tree.diffraction_stats();
        // Every token visits depth nodes; each visit ends in exactly one of
        // the two outcomes.
        assert_eq!(diffracted + toggled, 2000 * 3);
        // Collisions always come in pairs.
        assert_eq!(diffracted % 2, 0);
    }

    #[test]
    fn values_are_dense_under_the_generic_driver() {
        use crate::history::drive;
        use crate::Workload;
        let tree = DiffractingTree::new(8, 4).unwrap();
        let ops = drive(&tree, Workload { threads: 4, increments_per_thread: 250 });
        let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..1000).collect::<Vec<_>>());
    }
}
