//! Valency analysis: which sinks are reachable from each wire and balancer.
//!
//! Section 5.3 of the paper defines, for an output wire `j` of a balancer,
//! `Val(j)` as the set of sink nodes reachable from `j`, and `Val(B)` as the
//! union over the balancer's output wires. These sets drive the definitions
//! of *univalent*, *totally ordering*, and *complete* balancers and layers,
//! which in turn define split depths and split sequences.

use crate::bitset::BitSet;
use crate::ids::{BalancerId, WireId};
use crate::network::{Layer, Network, WireEnd};

/// Precomputed sink-reachability sets for every wire of a network.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_topology::analysis::Valencies;
/// use cnet_topology::ids::BalancerId;
///
/// let net = bitonic(4)?;
/// let val = Valencies::compute(&net);
/// // Every layer-1 balancer of a counting network is complete.
/// for b in net.layer(1).balancers() {
///     assert!(val.is_complete(&net, b));
/// }
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Valencies {
    per_wire: Vec<BitSet>,
}

impl Valencies {
    /// Computes all wire valencies by a reverse topological sweep.
    pub fn compute(net: &Network) -> Self {
        let w_out = net.fan_out();
        let mut per_wire: Vec<BitSet> = vec![BitSet::new(w_out); net.num_wires()];
        // Wires into sinks reach exactly that sink.
        for (id, wire) in net.wires() {
            if let WireEnd::Sink(s) = wire.end {
                per_wire[id.index()].insert(s.index());
            }
        }
        // In reverse topological order, a balancer's input wires reach the
        // union of whatever its output wires reach.
        for &b in net.topo_order().iter().rev() {
            let bal = net.balancer(b);
            let mut out_union = BitSet::new(w_out);
            for &w in bal.outputs() {
                out_union.union_with(&per_wire[w.index()]);
            }
            for &w in bal.inputs() {
                per_wire[w.index()].union_with(&out_union);
            }
        }
        Valencies { per_wire }
    }

    /// `Val(z)`: the sinks reachable from wire `z`.
    pub fn wire(&self, id: WireId) -> &BitSet {
        &self.per_wire[id.index()]
    }

    /// `Val(j)` for output port `port` of `balancer`: the sinks reachable
    /// from that output wire.
    pub fn output_port(&self, net: &Network, balancer: BalancerId, port: usize) -> &BitSet {
        self.wire(net.balancer(balancer).output(port))
    }

    /// `Val(B)`: the union of the valencies of the balancer's output wires.
    pub fn balancer(&self, net: &Network, balancer: BalancerId) -> BitSet {
        let bal = net.balancer(balancer);
        let mut v = BitSet::new(net.fan_out());
        for &w in bal.outputs() {
            v.union_with(&self.per_wire[w.index()]);
        }
        v
    }

    /// A balancer is **univalent** if its output-port valencies are pairwise
    /// disjoint: each reachable sink unambiguously determines the output
    /// wire.
    pub fn is_univalent(&self, net: &Network, balancer: BalancerId) -> bool {
        let bal = net.balancer(balancer);
        for a in 0..bal.fan_out() {
            for b in a + 1..bal.fan_out() {
                if !self.wire(bal.output(a)).is_disjoint(self.wire(bal.output(b))) {
                    return false;
                }
            }
        }
        true
    }

    /// A balancer is **totally ordering** if its output-port valencies are
    /// totally ordered by the "every element smaller" relation `≺`.
    pub fn is_totally_ordering(&self, net: &Network, balancer: BalancerId) -> bool {
        let bal = net.balancer(balancer);
        for a in 0..bal.fan_out() {
            for b in a + 1..bal.fan_out() {
                let va = self.wire(bal.output(a));
                let vb = self.wire(bal.output(b));
                if !va.precedes(vb) && !vb.precedes(va) {
                    return false;
                }
            }
        }
        true
    }

    /// A balancer is **complete** if `Val(B)` is the full sink set.
    pub fn is_complete(&self, net: &Network, balancer: BalancerId) -> bool {
        self.balancer(net, balancer).len() == net.fan_out()
    }

    /// A balancer is **uniformly splittable** if all of its output-port
    /// valencies have equal cardinality.
    pub fn is_uniformly_splittable(&self, net: &Network, balancer: BalancerId) -> bool {
        let bal = net.balancer(balancer);
        let first = self.wire(bal.output(0)).len();
        (1..bal.fan_out()).all(|p| self.wire(bal.output(p)).len() == first)
    }

    /// A layer is univalent if every balancer in it is.
    pub fn layer_is_univalent(&self, net: &Network, layer: &Layer) -> bool {
        layer.balancers().all(|b| self.is_univalent(net, b))
    }

    /// A layer is totally ordering if every balancer in it is.
    pub fn layer_is_totally_ordering(&self, net: &Network, layer: &Layer) -> bool {
        layer.balancers().all(|b| self.is_totally_ordering(net, b))
    }

    /// A layer is complete if every balancer in it is.
    pub fn layer_is_complete(&self, net: &Network, layer: &Layer) -> bool {
        layer.balancers().all(|b| self.is_complete(net, b))
    }

    /// A layer is uniformly splittable if every balancer in it is.
    pub fn layer_is_uniformly_splittable(&self, net: &Network, layer: &Layer) -> bool {
        layer.balancers().all(|b| self.is_uniformly_splittable(net, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{bitonic, counting_tree, merger, periodic};

    #[test]
    fn counting_network_has_path_from_every_input_to_every_output() {
        // Section 2.5: in a counting network there is a path from every input
        // wire to every output wire — i.e. every input wire's valency is full.
        for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
            let val = Valencies::compute(&net);
            for i in 0..net.fan_in() {
                let v = val.wire(net.source_wire(crate::ids::SourceId(i)));
                assert_eq!(v.len(), net.fan_out(), "input {i} of {net}");
            }
        }
    }

    #[test]
    fn layer_one_balancers_are_complete() {
        let net = bitonic(8).unwrap();
        let val = Valencies::compute(&net);
        assert!(val.layer_is_complete(&net, net.layer(1)));
    }

    #[test]
    fn last_layer_balancers_are_totally_ordering() {
        // The final column of any counting network of (2,2)-balancers feeds
        // adjacent sinks: valencies {j} and {j'}, totally ordered.
        for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
            let val = Valencies::compute(&net);
            let d = net.depth();
            assert!(val.layer_is_totally_ordering(&net, net.layer(d)));
            assert!(val.layer_is_univalent(&net, net.layer(d)));
        }
    }

    #[test]
    fn first_bitonic_layer_is_not_totally_ordering() {
        let net = bitonic(8).unwrap();
        let val = Valencies::compute(&net);
        assert!(!val.layer_is_totally_ordering(&net, net.layer(1)));
    }

    #[test]
    fn tree_balancers_are_totally_ordering_and_uniform() {
        // Every balancer in the counting tree splits its reachable leaves
        // into two sets that interleave — wait: with step-order leaves, port
        // 0 reaches the even-position leaves. Those interleave with port 1's,
        // so tree balancers are univalent but NOT totally ordering (except at
        // the last layer).
        let net = counting_tree(8).unwrap();
        let val = Valencies::compute(&net);
        for (b, _) in net.balancers() {
            assert!(val.is_univalent(&net, b));
            assert!(val.is_uniformly_splittable(&net, b));
        }
        let d = net.depth();
        assert!(val.layer_is_totally_ordering(&net, net.layer(d)));
        assert!(!val.layer_is_totally_ordering(&net, net.layer(1)));
    }

    #[test]
    fn merger_first_layer_splits_halves() {
        // Proposition 5.9's key step: in M(w), each first-layer balancer has
        // Val(port 0) = top half, Val(port 1) = bottom half.
        let w = 8;
        let net = merger(w).unwrap();
        let val = Valencies::compute(&net);
        for b in net.layer(1).balancers() {
            let top = val.output_port(&net, b, 0);
            let bottom = val.output_port(&net, b, 1);
            assert_eq!(top.iter().collect::<Vec<_>>(), (0..w / 2).collect::<Vec<_>>());
            assert_eq!(bottom.iter().collect::<Vec<_>>(), (w / 2..w).collect::<Vec<_>>());
            assert!(val.is_totally_ordering(&net, b));
            assert!(val.is_complete(&net, b));
            assert!(val.is_uniformly_splittable(&net, b));
        }
    }

    #[test]
    fn valencies_shrink_with_depth_in_uniform_splits() {
        let net = bitonic(16).unwrap();
        let val = Valencies::compute(&net);
        // Deeper wires reach no more sinks than shallower ones on any path.
        for (id, wire) in net.wires() {
            if let crate::network::WireEnd::Balancer { balancer, .. } = wire.end {
                // The wire's valency is exactly the downstream balancer's.
                assert_eq!(val.wire(id), &val.balancer(&net, balancer));
            }
        }
    }
}
