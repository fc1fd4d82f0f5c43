//! Partitioning a network across cluster nodes.
//!
//! A [`Partition`] cuts a *uniform* network into `N` contiguous layer
//! ranges, one per node. Node `k` owns the balancers whose depth lies in
//! `(bound[k], bound[k+1]]` and materialises them as a standalone
//! [`Network`] via [`Partition::sub_network`]. Adjacent sub-networks are
//! glued along *cuts*: the set of wires crossing a boundary depth, listed
//! in a canonical order so that sink `j` of node `k`'s sub-network is the
//! same physical wire as source `j` of node `k+1`'s. A token that exits
//! node `k` on output `j` therefore continues through node `k+1` on input
//! `j`, and the sequential composition of the sub-networks routes every
//! token exactly as the whole network does.
//!
//! The canonical cut orders are:
//!
//! - the *entry* cut (depth 0): input wires in [`SourceId`] order, so the
//!   cluster's entry ports are the whole network's entry ports;
//! - the *exit* cut (depth `d(G)`): output wires in [`SinkId`] order, so
//!   the final node's counters are the whole network's counters;
//! - interior cuts: crossing wires in [`WireId`] order. Both sides of a
//!   boundary compute the cut from the same whole network, so the order
//!   agrees without any coordination.
//!
//! Uniformity matters: in a uniform network every wire spans exactly one
//! layer boundary (a wire skipping layers would put source→sink paths of
//! different lengths through it), so each cut has exactly `w` wires and
//! every token crosses each boundary exactly once.

use crate::builder::NetworkBuilder;
use crate::error::BuildError;
use crate::ids::{SinkId, SourceId, WireId};
use crate::network::{Network, WireEnd, WireStart};
use std::error::Error;
use std::fmt;

/// Errors produced while planning a partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// Partitioning requires a uniform network (every wire spans exactly
    /// one layer boundary).
    NotUniform,
    /// Partitioning requires fan-in = fan-out.
    AsymmetricFan {
        /// The network's fan-in.
        fan_in: usize,
        /// The network's fan-out.
        fan_out: usize,
    },
    /// A partition must have at least one node.
    ZeroNodes,
    /// More nodes than balancer layers: some node would own no balancers.
    TooManyNodes {
        /// The requested node count.
        nodes: usize,
        /// The network's depth (number of balancer layers).
        depth: usize,
    },
    /// A boundary cut did not contain exactly `w` wires — the network is
    /// not layer-partitionable even though it claimed uniformity.
    RaggedCut {
        /// The boundary depth of the offending cut.
        depth: usize,
        /// How many wires crossed it.
        got: usize,
        /// The network fan `w` it should have been.
        want: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NotUniform => {
                write!(f, "partitioning requires a uniform network")
            }
            PartitionError::AsymmetricFan { fan_in, fan_out } => {
                write!(f, "partitioning requires fan-in = fan-out, got {fan_in} in / {fan_out} out")
            }
            PartitionError::ZeroNodes => write!(f, "a partition needs at least one node"),
            PartitionError::TooManyNodes { nodes, depth } => {
                write!(f, "{nodes} nodes over {depth} balancer layers: a node would own nothing")
            }
            PartitionError::RaggedCut { depth, got, want } => {
                write!(f, "cut at depth {depth} has {got} wires, expected {want}")
            }
        }
    }
}

impl Error for PartitionError {}

/// A plan assigning contiguous layer ranges of a network to cluster nodes.
///
/// Built once (identically, by every node and every client) from the whole
/// network with [`Partition::contiguous`]; node `k`'s share is then
/// materialised with [`Partition::sub_network`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    fan: usize,
    /// Boundary depths: node `k` owns balancers at depths
    /// `bounds[k]+1 ..= bounds[k+1]`. `bounds[0] = 0`,
    /// `bounds[nodes] = depth(G)`.
    bounds: Vec<usize>,
    /// `cuts[k]` is the boundary cut at depth `bounds[k]`, in canonical
    /// order; `cuts[0]` is the entry cut, `cuts[nodes]` the exit cut.
    cuts: Vec<Vec<WireId>>,
}

impl Partition {
    /// Plans a contiguous layer partition of `net` across `nodes` nodes,
    /// balancing layer counts (the first `depth % nodes` nodes own one
    /// extra layer).
    ///
    /// # Errors
    ///
    /// Rejects non-uniform or fan-asymmetric networks, a zero node count,
    /// more nodes than layers, and (defensively) any boundary whose cut is
    /// not exactly `w` wires.
    pub fn contiguous(net: &Network, nodes: usize) -> Result<Partition, PartitionError> {
        if nodes == 0 {
            return Err(PartitionError::ZeroNodes);
        }
        if !net.is_uniform() {
            return Err(PartitionError::NotUniform);
        }
        let Some(fan) = net.fan() else {
            return Err(PartitionError::AsymmetricFan {
                fan_in: net.fan_in(),
                fan_out: net.fan_out(),
            });
        };
        let depth = net.depth();
        if nodes > depth {
            return Err(PartitionError::TooManyNodes { nodes, depth });
        }
        let (base, rem) = (depth / nodes, depth % nodes);
        let mut bounds = Vec::with_capacity(nodes + 1);
        bounds.push(0);
        for k in 0..nodes {
            bounds.push(bounds[k] + base + usize::from(k < rem));
        }
        let mut cuts = Vec::with_capacity(nodes + 1);
        for (k, &d) in bounds.iter().enumerate() {
            let cut = if k == 0 {
                (0..fan).map(|i| net.source_wire(SourceId(i))).collect::<Vec<_>>()
            } else if k == nodes {
                (0..fan).map(|j| net.sink_wire(SinkId(j))).collect()
            } else {
                net.wires().filter(|&(id, _)| net.wire_depth(id) == d).map(|(id, _)| id).collect()
            };
            if cut.len() != fan {
                return Err(PartitionError::RaggedCut { depth: d, got: cut.len(), want: fan });
            }
            cuts.push(cut);
        }
        Ok(Partition { fan, bounds, cuts })
    }

    /// The number of nodes in the plan.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The common fan `w` of the partitioned network and of every cut.
    #[inline]
    pub fn fan(&self) -> usize {
        self.fan
    }

    /// Node `k`'s balancer-depth range as `(lo, hi]` boundaries: node `k`
    /// owns the balancers at depths `lo+1 ..= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= nodes()`.
    #[inline]
    pub fn layer_range(&self, k: usize) -> (usize, usize) {
        (self.bounds[k], self.bounds[k + 1])
    }

    /// The boundary cut at index `k` (`0` = entry cut, `nodes()` = exit
    /// cut), in canonical order: position `j` in `cut(k)` is sink `j` of
    /// node `k-1`'s sub-network and source `j` of node `k`'s.
    ///
    /// # Panics
    ///
    /// Panics if `k > nodes()`.
    #[inline]
    pub fn cut(&self, k: usize) -> &[WireId] {
        &self.cuts[k]
    }

    /// Materialises node `k`'s share of `net` as a standalone network:
    /// the balancers in its layer range, with entry-cut wires re-rooted at
    /// sources and exit-cut wires terminated at sinks (in canonical cut
    /// order).
    ///
    /// `net` must be the same network the plan was built from.
    ///
    /// # Panics
    ///
    /// Panics if `k >= nodes()` or if `net` is not the planned network.
    pub fn sub_network(&self, net: &Network, k: usize) -> Network {
        let (lo, hi) = self.layer_range(k);
        let entry = &self.cuts[k];
        let exit = &self.cuts[k + 1];
        let position = |cut: &[WireId], w: WireId| cut.iter().position(|&c| c == w);

        let mut builder = NetworkBuilder::new(self.fan, self.fan);
        // Owned balancers, remapped densely in BalancerId order (so the
        // sub-network's structure is deterministic given the plan).
        let owned: Vec<_> = net
            .balancers()
            .filter(|&(id, _)| {
                let d = net.balancer_depth(id);
                lo < d && d <= hi
            })
            .map(|(id, b)| (id, builder.add_balancer(b.fan_in(), b.fan_out())))
            .collect();
        let remap = |old| owned.iter().find(|&&(o, _)| o == old).map(|&(_, n)| n);

        for (id, wire) in net.wires() {
            let start = if let Some(i) = position(entry, id) {
                WireStart::Source(SourceId(i))
            } else {
                match wire.start {
                    WireStart::Balancer { balancer, port } => match remap(balancer) {
                        Some(b) => WireStart::Balancer { balancer: b, port },
                        None => continue,
                    },
                    WireStart::Source(_) => continue,
                }
            };
            let end = if let Some(j) = position(exit, id) {
                WireEnd::Sink(SinkId(j))
            } else {
                match wire.end {
                    WireEnd::Balancer { balancer, port } => match remap(balancer) {
                        Some(b) => WireEnd::Balancer { balancer: b, port },
                        None => continue,
                    },
                    WireEnd::Sink(_) => continue,
                }
            };
            builder
                .connect(start, end)
                .unwrap_or_else(|e| panic!("planned wire w{} rejected: {e}", id.index()));
        }
        builder.finish().unwrap_or_else(|e: BuildError| {
            panic!("sub-network {k} of a planned partition failed to assemble: {e}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{bitonic, periodic};

    #[test]
    fn rejects_degenerate_plans() {
        let net = bitonic(4).expect("B(4)");
        assert_eq!(Partition::contiguous(&net, 0), Err(PartitionError::ZeroNodes));
        let depth = net.depth();
        assert_eq!(
            Partition::contiguous(&net, depth + 1),
            Err(PartitionError::TooManyNodes { nodes: depth + 1, depth })
        );
    }

    #[test]
    fn single_node_plan_reproduces_the_whole_network_shape() {
        let net = bitonic(8).expect("B(8)");
        let plan = Partition::contiguous(&net, 1).expect("one node");
        assert_eq!(plan.nodes(), 1);
        assert_eq!(plan.layer_range(0), (0, net.depth()));
        let sub = plan.sub_network(&net, 0);
        assert_eq!(sub.size(), net.size());
        assert_eq!(sub.depth(), net.depth());
        assert_eq!(sub.fan(), net.fan());
        assert!(sub.is_uniform());
    }

    #[test]
    fn two_node_plan_splits_balancers_exactly_and_keeps_cut_width() {
        for fan in [2usize, 4, 8] {
            let net = bitonic(fan).expect("bitonic");
            let nodes = 2.min(net.depth());
            let plan = Partition::contiguous(&net, nodes).expect("plan");
            let mut total = 0;
            for k in 0..nodes {
                let sub = plan.sub_network(&net, k);
                let (lo, hi) = plan.layer_range(k);
                assert_eq!(sub.depth(), hi - lo, "node {k} owns its layer count");
                assert_eq!(sub.fan(), Some(fan));
                assert!(sub.is_uniform(), "sub-networks stay uniform");
                total += sub.size();
                assert_eq!(plan.cut(k).len(), fan);
            }
            assert_eq!(plan.cut(nodes).len(), fan);
            assert_eq!(total, net.size(), "every balancer owned exactly once");
        }
    }

    #[test]
    fn layer_counts_balance_across_nodes() {
        let net = periodic(8).expect("periodic");
        let depth = net.depth();
        for nodes in 1..=depth.min(4) {
            let plan = Partition::contiguous(&net, nodes).expect("plan");
            let mut sizes: Vec<usize> = (0..nodes)
                .map(|k| {
                    let (lo, hi) = plan.layer_range(k);
                    hi - lo
                })
                .collect();
            assert_eq!(sizes.iter().sum::<usize>(), depth);
            sizes.sort_unstable();
            assert!(sizes[sizes.len() - 1] - sizes[0] <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn a_cut_at_every_layer_gives_each_node_one_layer() {
        // The layer-by-layer message-passing network: as many nodes as
        // layers, each owning one layer of w/2 balancers.
        for fan in [4usize, 8] {
            let net = bitonic(fan).expect("bitonic");
            let plan = Partition::contiguous(&net, net.depth()).expect("plan");
            for k in 0..plan.nodes() {
                assert_eq!(plan.layer_range(k), (k, k + 1), "B({fan}) node {k}");
                let sub = plan.sub_network(&net, k);
                assert_eq!((sub.depth(), sub.size()), (1, fan / 2), "B({fan}) node {k}");
            }
        }
    }

    #[test]
    fn adjacent_cuts_agree_on_wire_identity() {
        // Sink j of node k's sub-network and source j of node k+1's must
        // name the same whole-network wire — the gluing invariant the
        // forwarding path depends on.
        let net = bitonic(8).expect("B(8)");
        let plan = Partition::contiguous(&net, 3).expect("plan");
        for k in 0..plan.nodes() - 1 {
            assert_eq!(plan.cut(k + 1).len(), plan.fan());
            // The cut is a set of distinct wires.
            let mut seen = plan.cut(k + 1).to_vec();
            seen.sort_unstable_by_key(|w| w.index());
            seen.dedup();
            assert_eq!(seen.len(), plan.fan());
        }
    }
}
