//! Graph isomorphism of balancing networks.
//!
//! Herlihy and Tirthapura established that the block network `L(w)` and the
//! merging network `M(w)` are isomorphic as graphs (Section 2.6.2 of the
//! paper uses this to transfer path properties from `M(w)` to `L(w)`).
//! [`are_isomorphic`] verifies such claims computationally.
//!
//! The isomorphism notion is *unlabeled graph* isomorphism: a bijection of
//! balancers (plus arbitrary bijections of sources and sinks) preserving
//! wire multiplicities. Port order is not preserved — as graphs, balancers
//! are unordered multi-degree nodes.

use crate::ids::BalancerId;
use crate::network::{Network, WireEnd, WireStart};

/// Decides whether two networks are isomorphic as graphs.
///
/// Uses layer-by-layer backtracking: balancers are matched in topological
/// order, and a candidate match must agree on fan-in/fan-out, depth, number
/// of source inputs, number of sink outputs, and the multiset of
/// already-matched predecessor balancers (with wire multiplicities).
///
/// Exponential in the worst case; intended for the moderate-size networks of
/// the paper's constructions (it verifies `L(w) ≅ M(w)` up to `w = 32` in
/// well under a second).
///
/// # Example
///
/// ```
/// use cnet_topology::construct::{block, merger};
/// use cnet_topology::analysis::are_isomorphic;
///
/// let l8 = block(8)?;
/// let m8 = merger(8)?;
/// assert!(are_isomorphic(&l8, &m8));
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
pub fn are_isomorphic(a: &Network, b: &Network) -> bool {
    if a.fan_in() != b.fan_in()
        || a.fan_out() != b.fan_out()
        || a.size() != b.size()
        || a.depth() != b.depth()
        || a.num_wires() != b.num_wires()
    {
        return false;
    }
    let sig_a = Signatures::compute(a);
    let sig_b = Signatures::compute(b);
    // Quick rejection: the multiset of local signatures must agree.
    let mut sa: Vec<_> = sig_a.local.clone();
    let mut sb: Vec<_> = sig_b.local.clone();
    sa.sort_unstable();
    sb.sort_unstable();
    if sa != sb {
        return false;
    }

    let order = a.topo_order();
    let mut mapping: Vec<Option<BalancerId>> = vec![None; a.size()];
    let mut used: Vec<bool> = vec![false; b.size()];
    backtrack(b, &sig_a, &sig_b, &order, 0, &mut mapping, &mut used)
}

/// Local invariants of each balancer, used for pruning.
#[derive(Clone, Debug)]
struct Signatures {
    /// `(depth, fan_in, fan_out, #source inputs, #sink outputs)` per
    /// balancer.
    local: Vec<(usize, usize, usize, usize, usize)>,
    /// Predecessor balancers (with multiplicity) per balancer.
    preds: Vec<Vec<BalancerId>>,
}

impl Signatures {
    fn compute(net: &Network) -> Self {
        let n = net.size();
        let mut source_inputs = vec![0usize; n];
        let mut sink_outputs = vec![0usize; n];
        let mut preds: Vec<Vec<BalancerId>> = vec![Vec::new(); n];
        for (_, wire) in net.wires() {
            match (wire.start, wire.end) {
                (WireStart::Source(_), WireEnd::Balancer { balancer, .. }) => {
                    source_inputs[balancer.index()] += 1;
                }
                (
                    WireStart::Balancer { balancer: from, .. },
                    WireEnd::Balancer { balancer: to, .. },
                ) => {
                    preds[to.index()].push(from);
                }
                (WireStart::Balancer { balancer, .. }, WireEnd::Sink(_)) => {
                    sink_outputs[balancer.index()] += 1;
                }
                (WireStart::Source(_), WireEnd::Sink(_)) => {}
            }
        }
        for p in &mut preds {
            p.sort_unstable();
        }
        let local = (0..n)
            .map(|i| {
                let bid = BalancerId(i);
                let bal = net.balancer(bid);
                (
                    net.balancer_depth(bid),
                    bal.fan_in(),
                    bal.fan_out(),
                    source_inputs[i],
                    sink_outputs[i],
                )
            })
            .collect();
        Signatures { local, preds }
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack(
    b: &Network,
    sig_a: &Signatures,
    sig_b: &Signatures,
    order: &[BalancerId],
    pos: usize,
    mapping: &mut Vec<Option<BalancerId>>,
    used: &mut Vec<bool>,
) -> bool {
    if pos == order.len() {
        return true;
    }
    let cur = order[pos];
    // Mapped predecessor multiset of `cur` (all predecessors are earlier in
    // topological order, hence already mapped).
    let mut mapped_preds: Vec<BalancerId> = sig_a.preds[cur.index()]
        .iter()
        .map(|p| mapping[p.index()].expect("topological order maps predecessors first"))
        .collect();
    mapped_preds.sort_unstable();

    for cand_idx in 0..b.size() {
        if used[cand_idx] {
            continue;
        }
        let cand = BalancerId(cand_idx);
        if sig_a.local[cur.index()] != sig_b.local[cand_idx] {
            continue;
        }
        if sig_b.preds[cand_idx] != mapped_preds {
            continue;
        }
        mapping[cur.index()] = Some(cand);
        used[cand_idx] = true;
        if backtrack(b, sig_a, sig_b, order, pos + 1, mapping, used) {
            return true;
        }
        mapping[cur.index()] = None;
        used[cand_idx] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayeredBuilder;
    use crate::construct::{bitonic, block, block_interleaved, merger, periodic};

    #[test]
    fn herlihy_tirthapura_block_is_isomorphic_to_merger() {
        for w in [2usize, 4, 8, 16] {
            assert!(are_isomorphic(&block(w).unwrap(), &merger(w).unwrap()), "L({w}) ≅ M({w})");
        }
    }

    #[test]
    fn both_block_constructions_are_isomorphic() {
        for w in [2usize, 4, 8, 16] {
            assert!(
                are_isomorphic(&block(w).unwrap(), &block_interleaved(w).unwrap()),
                "two constructions of L({w})"
            );
        }
    }

    #[test]
    fn network_is_isomorphic_to_itself() {
        let net = bitonic(8).unwrap();
        assert!(are_isomorphic(&net, &net));
    }

    #[test]
    fn different_sizes_are_not_isomorphic() {
        assert!(!are_isomorphic(&bitonic(4).unwrap(), &bitonic(8).unwrap()));
    }

    #[test]
    fn bitonic_and_periodic_differ() {
        // B(4) has depth 3 and 6 balancers; P(4) has depth 4 and 8.
        assert!(!are_isomorphic(&bitonic(4).unwrap(), &periodic(4).unwrap()));
    }

    #[test]
    fn same_profile_different_wiring_detected() {
        // Two 4-line, two-balancer networks: series on the same lines vs
        // parallel on disjoint lines. Same size, different structure.
        let mut s = LayeredBuilder::new(4);
        s.balancer(&[0, 1]);
        s.balancer(&[0, 1]);
        let series = s.finish().unwrap();

        let mut p = LayeredBuilder::new(4);
        p.balancer(&[0, 1]);
        p.balancer(&[2, 3]);
        let parallel = p.finish().unwrap();

        assert!(!are_isomorphic(&series, &parallel));
    }

    #[test]
    fn line_permutation_preserves_isomorphism() {
        // The same abstract network laid out on permuted lines.
        let mut x = LayeredBuilder::new(4);
        x.balancer(&[0, 1]);
        x.balancer(&[1, 2]);
        let a = x.finish().unwrap();

        let mut y = LayeredBuilder::new(4);
        y.balancer(&[3, 2]);
        y.balancer(&[2, 0]);
        let b = y.finish().unwrap();

        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn merger_and_block_internal_structure_differs_from_random_column() {
        // lg w columns of (0,1),(2,3),… balancers has the right size and
        // depth for L(4) but is two disconnected components.
        let mut lb = LayeredBuilder::new(4);
        lb.balancer(&[0, 1]);
        lb.balancer(&[2, 3]);
        lb.balancer(&[0, 1]);
        lb.balancer(&[2, 3]);
        let columns = lb.finish().unwrap();
        assert_eq!(columns.size(), block(4).unwrap().size());
        assert_eq!(columns.depth(), block(4).unwrap().depth());
        assert!(!are_isomorphic(&columns, &block(4).unwrap()));
    }
}
