//! Global structural metrics used by the timing conditions of Table 1.

use crate::analysis::valency::Valencies;
use crate::error::TopologyError;
use crate::network::Network;

/// Computes the **influence radius** `irad(G)` of a uniform counting
/// network (Table 1, after \[MPT97\]): the maximum, over all pairs of distinct
/// output wires `j` and `k`, of the distance from `j` to the least common
/// ancestor of `j` and `k` — where an *ancestor* of a pair of sinks is a
/// balancer from which both are reachable, the *least* common ancestor is a
/// deepest one, and the distance from a node at layer `ℓ` to a sink is
/// `d(G) + 1 − ℓ` wire hops (well-defined because the network is uniform).
///
/// For the bitonic network, `irad(B(w)) = lg w`, so \[MPT97\]'s necessary
/// condition `c_max/c_min ≤ d/irad + 1` specializes to `(lg w + 3)/2` —
/// exactly the asynchrony threshold of Proposition 5.2.
///
/// # Errors
///
/// Returns [`TopologyError::NotUniform`] if the network is not uniform, and
/// [`TopologyError::Precondition`] if some pair of sinks has no common
/// ancestor (the network is not a counting network) or the network has fewer
/// than two sinks.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_topology::analysis::influence_radius;
///
/// let b8 = bitonic(8)?;
/// assert_eq!(influence_radius(&b8)?, 3); // lg 8
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn influence_radius(net: &Network) -> Result<usize, TopologyError> {
    if !net.is_uniform() {
        return Err(TopologyError::NotUniform);
    }
    if net.fan_out() < 2 {
        return Err(TopologyError::Precondition {
            what: "influence radius needs at least two output wires",
        });
    }
    let val = Valencies::compute(net);
    // Per-balancer valency, cached.
    let bal_val: Vec<_> = net.balancers().map(|(b, _)| val.balancer(net, b)).collect();
    let mut irad = 0usize;
    for j in 0..net.fan_out() {
        for k in j + 1..net.fan_out() {
            let mut deepest: Option<usize> = None;
            for (b, _) in net.balancers() {
                let v = &bal_val[b.index()];
                if v.contains(j) && v.contains(k) {
                    let d = net.balancer_depth(b);
                    deepest = Some(deepest.map_or(d, |cur| cur.max(d)));
                }
            }
            let lca_depth = deepest.ok_or(TopologyError::Precondition {
                what: "a pair of sinks has no common ancestor balancer",
            })?;
            irad = irad.max(net.depth() + 1 - lca_depth);
        }
    }
    Ok(irad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayeredBuilder;
    use crate::construct::{bitonic, counting_tree, periodic};

    #[test]
    fn bitonic_influence_radius_is_lg_w() {
        for lgw in 1usize..6 {
            let w = 1 << lgw;
            let net = bitonic(w).unwrap();
            assert_eq!(influence_radius(&net).unwrap(), lgw, "irad(B({w}))");
        }
    }

    #[test]
    fn periodic_influence_radius_is_lg_w() {
        // The last block's TB layer is the deepest complete layer; its
        // distance to the sinks is lg w.
        for lgw in 1usize..5 {
            let w = 1 << lgw;
            let net = periodic(w).unwrap();
            assert_eq!(influence_radius(&net).unwrap(), lgw, "irad(P({w}))");
        }
    }

    #[test]
    fn tree_influence_radius_is_depth() {
        // Sinks 0 and 1 only share the root as an ancestor (their paths
        // diverge immediately: 0 is an even position, 1 odd).
        let net = counting_tree(8).unwrap();
        assert_eq!(influence_radius(&net).unwrap(), net.depth());
    }

    #[test]
    fn non_uniform_network_is_rejected() {
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1]);
        let net = lb.finish().unwrap();
        assert_eq!(influence_radius(&net), Err(TopologyError::NotUniform));
    }

    #[test]
    fn single_output_is_rejected() {
        let net = counting_tree(1).unwrap();
        assert!(matches!(influence_radius(&net), Err(TopologyError::Precondition { .. })));
    }

    #[test]
    fn disconnected_pair_is_rejected() {
        // Two independent balancers on lines (0,1) and (2,3): sinks 0 and 2
        // share no common ancestor.
        let mut lb = LayeredBuilder::new(4);
        lb.balancer(&[0, 1]);
        lb.balancer(&[2, 3]);
        let net = lb.finish().unwrap();
        assert!(matches!(influence_radius(&net), Err(TopologyError::Precondition { .. })));
    }
}
