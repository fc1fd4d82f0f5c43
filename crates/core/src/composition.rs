//! Compositionality of the two consistency conditions (the paper's
//! footnote to Section 1.2).
//!
//! Linearizability is *compositional*: a system of counters is linearizable
//! iff each counter is \[HW90\]. Sequential consistency is **not**: two
//! counters can each be sequentially consistent while no single global
//! order explains both at once. This module makes that checkable:
//!
//! * [`system_is_linearizable`] — per-object linearizability (which, by
//!   compositionality, *is* system linearizability);
//! * [`system_is_sequentially_consistent`] — an exact search for a global
//!   serialization that respects every process's program order and gives
//!   every counter a legal (gap-free, in-order) value sequence;
//! * plus the classic two-counter counterexample in the tests.

use crate::consistency::is_linearizable;
use crate::op::Op;
use std::collections::BTreeMap;

/// One operation on a multi-counter system: which counter it incremented,
/// plus the usual operation record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemOp {
    /// The counter the operation incremented.
    pub object: usize,
    /// The operation record.
    pub op: Op,
}

/// Whether every counter's projection is linearizable. By the
/// compositionality of linearizability \[HW90\], this is equivalent to the
/// whole system being linearizable.
pub fn system_is_linearizable(ops: &[SystemOp]) -> bool {
    let mut by_object: BTreeMap<usize, Vec<Op>> = BTreeMap::new();
    for s in ops {
        by_object.entry(s.object).or_default().push(s.op);
    }
    by_object.values().all(|ops| is_linearizable(ops))
}

/// Whether the system is sequentially consistent: some total order of all
/// operations (a) preserves each process's program order and (b) restricts,
/// on each counter, to its values in increasing order `0, 1, 2, …`.
///
/// Exact exponential-time search with memoization over frontier states;
/// intended for the small histories used to demonstrate
/// (non-)compositionality.
///
/// # Panics
///
/// Panics if the history has more than 24 operations (the search space
/// would be too large) or if a process's operations overlap in time
/// (program order undefined).
pub fn system_is_sequentially_consistent(ops: &[SystemOp]) -> bool {
    assert!(ops.len() <= 24, "exact search limited to 24 operations");
    // Program order per process.
    let mut per_process: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in ops.iter().enumerate() {
        per_process.entry(s.op.process).or_default().push(i);
    }
    for queue in per_process.values_mut() {
        queue.sort_by_key(|&i| ops[i].op.enter_key());
        for pair in queue.windows(2) {
            assert!(
                !ops[pair[0]].op.overlaps(&ops[pair[1]].op),
                "a process's operations must not overlap"
            );
        }
    }
    let queues: Vec<Vec<usize>> = per_process.into_values().collect();
    // Next expected value per object.
    let objects: Vec<usize> = {
        let mut o: Vec<usize> = ops.iter().map(|s| s.object).collect();
        o.sort_unstable();
        o.dedup();
        o
    };
    let object_index: BTreeMap<usize, usize> =
        objects.iter().enumerate().map(|(i, &o)| (o, i)).collect();

    // DFS over frontier positions with memoization: the set of reachable
    // frontiers is determined by per-queue positions (object counters are a
    // function of which ops were consumed... not quite — but the *multiset*
    // of consumed ops IS determined by the positions, and so are the object
    // counters, since each op's value is fixed).
    fn dfs(
        queues: &[Vec<usize>],
        ops: &[SystemOp],
        object_index: &BTreeMap<usize, usize>,
        pos: &mut Vec<usize>,
        next_value: &mut Vec<u64>,
        seen: &mut std::collections::HashSet<Vec<usize>>,
    ) -> bool {
        if pos.iter().zip(queues).all(|(&p, q)| p == q.len()) {
            return true;
        }
        if !seen.insert(pos.clone()) {
            return false;
        }
        for qi in 0..queues.len() {
            if pos[qi] == queues[qi].len() {
                continue;
            }
            let op_idx = queues[qi][pos[qi]];
            let s = &ops[op_idx];
            let oi = object_index[&s.object];
            if s.op.value == next_value[oi] {
                pos[qi] += 1;
                next_value[oi] += 1;
                if dfs(queues, ops, object_index, pos, next_value, seen) {
                    return true;
                }
                pos[qi] -= 1;
                next_value[oi] -= 1;
            }
        }
        false
    }

    let mut pos = vec![0usize; queues.len()];
    let mut next_value = vec![0u64; objects.len()];
    let mut seen = std::collections::HashSet::new();
    dfs(&queues, ops, &object_index, &mut pos, &mut next_value, &mut seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::op;

    fn sys(object: usize, process: usize, enter: f64, exit: f64, value: u64) -> SystemOp {
        SystemOp { object, op: op(process, enter, exit, value) }
    }

    #[test]
    fn single_object_reduces_to_plain_sc() {
        // One counter, one process, increasing values: SC.
        let h = vec![sys(0, 0, 0.0, 1.0, 0), sys(0, 0, 2.0, 3.0, 1)];
        assert!(system_is_sequentially_consistent(&h));
        // Decreasing: not SC.
        let h = vec![sys(0, 0, 0.0, 1.0, 1), sys(0, 0, 2.0, 3.0, 0)];
        assert!(!system_is_sequentially_consistent(&h));
    }

    #[test]
    fn sequential_consistency_is_not_compositional() {
        // The classic crossing pattern, phrased with counters. Two counters
        // A (object 0) and B (object 1); two processes.
        //   p0: A.inc -> 1        then B.inc -> 0
        //   p1: B.inc -> 1        then A.inc -> 0
        // Projection on A: p0 got 1, p1 got 0 — per-process single ops, SC.
        // Projection on B: likewise SC.
        // Globally: p0's program order forces A=1 before B=0; for A to give
        // 1 to p0, p1's A=0 must come first, i.e. p1's second op before
        // p0's first; but symmetrically p1 needs p0's B=0 ... wait, B=0 is
        // p0's SECOND op. Cycle: p1.A0 < p0.A1 < p0.B0 < p1.B1 < p1.A0.
        let h = vec![
            sys(0, 0, 0.0, 1.0, 1), // p0: A -> 1
            sys(1, 0, 2.0, 3.0, 0), // p0: B -> 0
            sys(1, 1, 0.0, 1.0, 1), // p1: B -> 1
            sys(0, 1, 2.0, 3.0, 0), // p1: A -> 0
        ];
        // Each object alone is sequentially consistent:
        for object in [0usize, 1] {
            let proj: Vec<SystemOp> = h.iter().copied().filter(|s| s.object == object).collect();
            assert!(system_is_sequentially_consistent(&proj), "object {object} alone must be SC");
        }
        // The system is not.
        assert!(!system_is_sequentially_consistent(&h));
    }

    #[test]
    fn linearizability_is_compositional_on_the_same_history() {
        // The crossing history is not linearizable per object (on A, p0's op
        // [0,1] completely precedes p1's [2,3] yet returns the larger value),
        // so compositionality has nothing to contradict here.
        let h = vec![
            sys(0, 0, 0.0, 1.0, 1),
            sys(1, 0, 2.0, 3.0, 0),
            sys(1, 1, 0.0, 1.0, 1),
            sys(0, 1, 2.0, 3.0, 0),
        ];
        assert!(!system_is_linearizable(&h));
    }

    #[test]
    fn linearizable_objects_make_linearizable_systems() {
        // Interleaved but real-time-consistent accesses to two counters.
        let h = vec![
            sys(0, 0, 0.0, 1.0, 0),
            sys(1, 1, 0.5, 1.5, 0),
            sys(0, 1, 2.0, 3.0, 1),
            sys(1, 0, 2.5, 3.5, 1),
        ];
        assert!(system_is_linearizable(&h));
        // And a globally SC order exists too (here: the real-time order).
        assert!(system_is_sequentially_consistent(&h));
    }

    #[test]
    fn global_sc_requires_gap_free_per_object_values() {
        // Object 0 hands out value 1 with no 0 ever: no legal serialization.
        let h = vec![sys(0, 0, 0.0, 1.0, 1)];
        assert!(!system_is_sequentially_consistent(&h));
    }

    #[test]
    fn search_handles_many_interleavings() {
        // 3 processes x 4 ops on one counter, values consistent with an
        // interleaving: must be found.
        let h = vec![
            sys(0, 0, 0.0, 1.0, 0),
            sys(0, 1, 0.0, 1.0, 1),
            sys(0, 2, 0.0, 1.0, 2),
            sys(0, 0, 2.0, 3.0, 3),
            sys(0, 1, 2.0, 3.0, 4),
            sys(0, 2, 2.0, 3.0, 5),
            sys(0, 0, 4.0, 5.0, 6),
            sys(0, 1, 4.0, 5.0, 7),
            sys(0, 2, 4.0, 5.0, 8),
        ];
        assert!(system_is_sequentially_consistent(&h));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_process_ops_are_rejected() {
        let h = vec![sys(0, 0, 0.0, 5.0, 0), sys(0, 0, 1.0, 2.0, 1)];
        system_is_sequentially_consistent(&h);
    }
}
