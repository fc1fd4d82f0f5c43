//! The balancing network: an acyclic graph of balancers, sources, and sinks.

use crate::balancer::Balancer;
use crate::ids::{BalancerId, SinkId, SourceId, WireId};
use cnet_util::json::{self, FromJson, JsonError, ToJson, Value};
use cnet_util::json_struct;
use std::fmt;

/// Where a wire begins: at a source node or at a balancer output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireStart {
    /// The wire is the network's input wire `source`.
    Source(SourceId),
    /// The wire leaves `balancer` from output port `port`.
    Balancer {
        /// The balancer the wire leaves.
        balancer: BalancerId,
        /// The output port (0 = top).
        port: usize,
    },
}

// Externally tagged, like serde: {"Source": 0} / {"Balancer": {...}}.
impl ToJson for WireStart {
    fn to_json(&self) -> Value {
        match self {
            WireStart::Source(s) => Value::Object(vec![("Source".to_string(), s.to_json())]),
            WireStart::Balancer { balancer, port } => Value::Object(vec![(
                "Balancer".to_string(),
                Value::Object(vec![
                    ("balancer".to_string(), balancer.to_json()),
                    ("port".to_string(), port.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for WireStart {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Some(s) = v.get("Source") {
            Ok(WireStart::Source(FromJson::from_json(s)?))
        } else if let Some(b) = v.get("Balancer") {
            Ok(WireStart::Balancer {
                balancer: json::field(b, "balancer")?,
                port: json::field(b, "port")?,
            })
        } else {
            Err(JsonError::new(format!("invalid WireStart: {v:?}")))
        }
    }
}

/// Where a wire ends: at a sink node (counter) or at a balancer input port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireEnd {
    /// The wire is the network's output wire `sink`, feeding its counter.
    Sink(SinkId),
    /// The wire enters `balancer` on input port `port`.
    Balancer {
        /// The balancer the wire enters.
        balancer: BalancerId,
        /// The input port (0 = top).
        port: usize,
    },
}

impl ToJson for WireEnd {
    fn to_json(&self) -> Value {
        match self {
            WireEnd::Sink(s) => Value::Object(vec![("Sink".to_string(), s.to_json())]),
            WireEnd::Balancer { balancer, port } => Value::Object(vec![(
                "Balancer".to_string(),
                Value::Object(vec![
                    ("balancer".to_string(), balancer.to_json()),
                    ("port".to_string(), port.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for WireEnd {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Some(s) = v.get("Sink") {
            Ok(WireEnd::Sink(FromJson::from_json(s)?))
        } else if let Some(b) = v.get("Balancer") {
            Ok(WireEnd::Balancer {
                balancer: json::field(b, "balancer")?,
                port: json::field(b, "port")?,
            })
        } else {
            Err(JsonError::new(format!("invalid WireEnd: {v:?}")))
        }
    }
}

/// A wire (edge) of the network, acting as an interconnection and delay
/// element with no queueing or ordering of pending tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Wire {
    /// Where the wire begins.
    pub start: WireStart,
    /// Where the wire ends.
    pub end: WireEnd,
}

json_struct!(Wire { start, end });

/// A node reference as it appears in a [`Layer`]: either an inner balancer
/// node or a sink node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// An inner (balancer) node.
    Balancer(BalancerId),
    /// A sink node.
    Sink(SinkId),
}

impl ToJson for NodeRef {
    fn to_json(&self) -> Value {
        match self {
            NodeRef::Balancer(b) => Value::Object(vec![("Balancer".to_string(), b.to_json())]),
            NodeRef::Sink(s) => Value::Object(vec![("Sink".to_string(), s.to_json())]),
        }
    }
}

impl FromJson for NodeRef {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        if let Some(b) = v.get("Balancer") {
            Ok(NodeRef::Balancer(FromJson::from_json(b)?))
        } else if let Some(s) = v.get("Sink") {
            Ok(NodeRef::Sink(FromJson::from_json(s)?))
        } else {
            Err(JsonError::new(format!("invalid NodeRef: {v:?}")))
        }
    }
}

/// A layer of the network: the maximal set of nodes sharing the same depth
/// (Section 2.5). Layer indices are 1-based, matching the paper: balancer
/// layers run `1..=depth`, and in a uniform network all sinks sit in layer
/// `depth + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layer {
    /// The 1-based layer index ℓ.
    pub index: usize,
    /// The nodes at depth ℓ.
    pub nodes: Vec<NodeRef>,
}

json_struct!(Layer { index, nodes });

impl Layer {
    /// Iterates over the balancers in this layer (skipping sinks).
    pub fn balancers(&self) -> impl Iterator<Item = BalancerId> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            NodeRef::Balancer(b) => Some(*b),
            NodeRef::Sink(_) => None,
        })
    }
}

/// A `(w_in, w_out)`-balancing network (Section 2.1): a finite acyclic graph
/// of balancers, with `w_in` source nodes and `w_out` sink nodes, every
/// endpoint connected by exactly one wire.
///
/// Construct networks through [`crate::NetworkBuilder`],
/// [`crate::LayeredBuilder`], or the ready-made constructions in
/// [`crate::construct`]. A `Network` is immutable once built; all derived
/// structure (depths, layers, uniformity, shallowness) is precomputed.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
///
/// let b8 = bitonic(8)?;
/// assert_eq!(b8.fan_in(), 8);
/// assert_eq!(b8.fan_out(), 8);
/// assert_eq!(b8.depth(), 6);
/// assert!(b8.is_uniform());
/// assert_eq!(b8.size(), 24); // 24 (2,2)-balancers in B(8)
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Clone)]
pub struct Network {
    fan_in: usize,
    fan_out: usize,
    balancers: Vec<Balancer>,
    wires: Vec<Wire>,
    /// `source_wires[i]` is the wire leaving source `i`.
    source_wires: Vec<WireId>,
    /// `sink_wires[j]` is the wire entering sink `j`.
    sink_wires: Vec<WireId>,
    /// Longest-path depth of every wire (paper's `d(z)`).
    wire_depth: Vec<usize>,
    /// Shortest-path depth of every wire (for shallowness / uniformity).
    wire_min_depth: Vec<usize>,
    /// `d(B)` for every balancer.
    balancer_depth: Vec<usize>,
    depth: usize,
    shallowness: usize,
    uniform: bool,
    layers: Vec<Layer>,
}

json_struct!(Network {
    fan_in,
    fan_out,
    balancers,
    wires,
    source_wires,
    sink_wires,
    wire_depth,
    wire_min_depth,
    balancer_depth,
    depth,
    shallowness,
    uniform,
    layers,
});

impl Network {
    /// Assembles a validated network. Called only by the builder, which has
    /// already checked connectivity and acyclicity; this constructor computes
    /// the derived structure.
    pub(crate) fn assemble(
        fan_in: usize,
        fan_out: usize,
        balancers: Vec<Balancer>,
        wires: Vec<Wire>,
        source_wires: Vec<WireId>,
        sink_wires: Vec<WireId>,
        topo_order: &[BalancerId],
    ) -> Self {
        let mut wire_depth = vec![0usize; wires.len()];
        let mut wire_min_depth = vec![0usize; wires.len()];
        let mut balancer_depth = vec![0usize; balancers.len()];

        // Wires from sources have depth 0; balancers in topological order.
        for &b in topo_order {
            let bal = &balancers[b.index()];
            let in_max =
                bal.inputs().iter().map(|w| wire_depth[w.index()]).max().expect("fan-in >= 1");
            let in_min =
                bal.inputs().iter().map(|w| wire_min_depth[w.index()]).min().expect("fan-in >= 1");
            for &w in bal.outputs() {
                wire_depth[w.index()] = in_max + 1;
                wire_min_depth[w.index()] = in_min + 1;
            }
            balancer_depth[b.index()] = in_max + 1;
        }

        let depth = balancer_depth.iter().copied().max().unwrap_or(0);
        let shallowness = sink_wires.iter().map(|w| wire_min_depth[w.index()]).min().unwrap_or(0);

        // Uniform: every source→sink path has the same length. Equivalent to
        // all wires having equal longest- and shortest-path depth and every
        // sink wire sitting at full depth.
        let uniform = wire_depth == wire_min_depth
            && sink_wires.iter().all(|w| wire_depth[w.index()] == depth);

        // Layers 1..=depth+1 (1-based). Sinks sit one past their feeding wire.
        let mut layers: Vec<Layer> =
            (1..=depth + 1).map(|index| Layer { index, nodes: Vec::new() }).collect();
        for (i, &d) in balancer_depth.iter().enumerate() {
            layers[d - 1].nodes.push(NodeRef::Balancer(BalancerId(i)));
        }
        for (j, &w) in sink_wires.iter().enumerate() {
            let d = wire_depth[w.index()] + 1;
            layers[d - 1].nodes.push(NodeRef::Sink(SinkId(j)));
        }

        Network {
            fan_in,
            fan_out,
            balancers,
            wires,
            source_wires,
            sink_wires,
            wire_depth,
            wire_min_depth,
            balancer_depth,
            depth,
            shallowness,
            uniform,
            layers,
        }
    }

    /// The network's fan-in `w_in` (number of input wires).
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The network's fan-out `w_out` (number of output wires / counters).
    #[inline]
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The common fan `w`, if fan-in equals fan-out.
    pub fn fan(&self) -> Option<usize> {
        (self.fan_in == self.fan_out).then_some(self.fan_in)
    }

    /// The *size* of the network: its number of inner (balancer) nodes.
    #[inline]
    pub fn size(&self) -> usize {
        self.balancers.len()
    }

    /// The depth `d(G)`: the maximum balancer depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The *shallowness* `s(G)`: the length of the shortest path from an
    /// input wire to an output wire. Always `s(G) <= d(G)`, with equality
    /// exactly when the network is uniform.
    #[inline]
    pub fn shallowness(&self) -> usize {
        self.shallowness
    }

    /// Returns `true` if the network is *uniform*: every node lies on a
    /// source→sink path and all such paths have the same length
    /// ([LSST99, Definition 2.1]).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Returns `true` if every balancer is regular (fan-in = fan-out).
    pub fn is_regular(&self) -> bool {
        self.balancers.iter().all(Balancer::is_regular)
    }

    /// The balancer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn balancer(&self, id: BalancerId) -> &Balancer {
        &self.balancers[id.index()]
    }

    /// Iterates over `(id, balancer)` pairs.
    pub fn balancers(&self) -> impl Iterator<Item = (BalancerId, &Balancer)> {
        self.balancers.iter().enumerate().map(|(i, b)| (BalancerId(i), b))
    }

    /// The wire with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn wire(&self, id: WireId) -> Wire {
        self.wires[id.index()]
    }

    /// Iterates over `(id, wire)` pairs.
    pub fn wires(&self) -> impl Iterator<Item = (WireId, Wire)> + '_ {
        self.wires.iter().enumerate().map(|(i, w)| (WireId(i), *w))
    }

    /// The number of wires.
    #[inline]
    pub fn num_wires(&self) -> usize {
        self.wires.len()
    }

    /// The wire leaving source `i` (the network's `i`-th input wire).
    ///
    /// # Panics
    ///
    /// Panics if `i >= fan_in()`.
    #[inline]
    pub fn source_wire(&self, i: SourceId) -> WireId {
        self.source_wires[i.index()]
    }

    /// The wire entering sink `j` (the network's `j`-th output wire).
    ///
    /// # Panics
    ///
    /// Panics if `j >= fan_out()`.
    #[inline]
    pub fn sink_wire(&self, j: SinkId) -> WireId {
        self.sink_wires[j.index()]
    }

    /// The depth `d(z)` of a wire: 0 for input wires, otherwise the length of
    /// the longest path from a source node to the wire.
    #[inline]
    pub fn wire_depth(&self, id: WireId) -> usize {
        self.wire_depth[id.index()]
    }

    /// The length of the *shortest* path from a source node to the wire.
    #[inline]
    pub fn wire_min_depth(&self, id: WireId) -> usize {
        self.wire_min_depth[id.index()]
    }

    /// The depth `d(B)` of a balancer: the maximum depth over its output
    /// wires.
    #[inline]
    pub fn balancer_depth(&self, id: BalancerId) -> usize {
        self.balancer_depth[id.index()]
    }

    /// All layers, in order; `layers()[l-1]` is layer `l` (1-based, as in the
    /// paper). There are `depth() + 1` layers; in a uniform network layer
    /// `depth() + 1` holds exactly the sinks.
    #[inline]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer `l` (1-based).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= l <= depth() + 1`.
    #[inline]
    pub fn layer(&self, l: usize) -> &Layer {
        assert!((1..=self.depth + 1).contains(&l), "layer {l} out of range 1..={}", self.depth + 1);
        &self.layers[l - 1]
    }

    /// Balancers in topological order (every balancer after all balancers
    /// feeding it). Derived from depths, which the builder computed from a
    /// true topological order.
    pub fn topo_order(&self) -> Vec<BalancerId> {
        let mut order: Vec<BalancerId> = (0..self.balancers.len()).map(BalancerId).collect();
        order.sort_by_key(|b| self.balancer_depth[b.index()]);
        order
    }

    /// Follows wires forward from `wire` choosing output port `port_choice`
    /// at every balancer, returning the sink eventually reached. Used by
    /// tests and by path-construction helpers.
    pub fn walk_to_sink(
        &self,
        mut wire: WireId,
        mut port_choice: impl FnMut(BalancerId) -> usize,
    ) -> SinkId {
        loop {
            match self.wire(wire).end {
                WireEnd::Sink(s) => return s,
                WireEnd::Balancer { balancer, .. } => {
                    let port = port_choice(balancer);
                    wire = self.balancer(balancer).output(port);
                }
            }
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("fan_in", &self.fan_in)
            .field("fan_out", &self.fan_out)
            .field("size", &self.balancers.len())
            .field("depth", &self.depth)
            .field("uniform", &self.uniform)
            .finish()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {})-balancing network, size {}, depth {}{}",
            self.fan_in,
            self.fan_out,
            self.size(),
            self.depth,
            if self.uniform { ", uniform" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LayeredBuilder;

    /// Two (2,2)-balancers in series on two lines.
    fn two_column() -> Network {
        let mut b = LayeredBuilder::new(2);
        b.balancer(&[0, 1]);
        b.balancer(&[0, 1]);
        b.finish().unwrap()
    }

    #[test]
    fn depths_and_layers_of_series_network() {
        let net = two_column();
        assert_eq!(net.depth(), 2);
        assert_eq!(net.size(), 2);
        assert_eq!(net.shallowness(), 2);
        assert!(net.is_uniform());
        assert!(net.is_regular());
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.layer(1).balancers().count(), 1);
        assert_eq!(net.layer(2).balancers().count(), 1);
        // layer 3 holds the two sinks
        assert_eq!(net.layer(3).balancers().count(), 0);
        assert_eq!(net.layer(3).nodes.len(), 2);
    }

    #[test]
    fn fan_of_symmetric_network() {
        let net = two_column();
        assert_eq!(net.fan(), Some(2));
        assert_eq!(net.fan_in(), 2);
        assert_eq!(net.fan_out(), 2);
    }

    #[test]
    fn source_and_sink_wires_have_extreme_depths() {
        let net = two_column();
        for i in 0..2 {
            assert_eq!(net.wire_depth(net.source_wire(SourceId(i))), 0);
        }
        for j in 0..2 {
            assert_eq!(net.wire_depth(net.sink_wire(SinkId(j))), 2);
        }
    }

    #[test]
    fn non_uniform_network_detected() {
        // Three lines; a balancer on lines 0,1 only. Line 2 runs straight
        // from source to sink, so paths have lengths 1 and 0.
        let mut b = LayeredBuilder::new(3);
        b.balancer(&[0, 1]);
        let net = b.finish().unwrap();
        assert!(!net.is_uniform());
        assert_eq!(net.depth(), 1);
        assert_eq!(net.shallowness(), 0);
    }

    #[test]
    fn walk_to_sink_follows_ports() {
        let net = two_column();
        // Always take the top port: source 0 -> b0 top -> b1 top -> sink 0.
        let s = net.walk_to_sink(net.source_wire(SourceId(0)), |_| 0);
        assert_eq!(s, SinkId(0));
        let s = net.walk_to_sink(net.source_wire(SourceId(0)), |_| 1);
        assert_eq!(s, SinkId(1));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let net = two_column();
        let order = net.topo_order();
        assert_eq!(order.len(), 2);
        assert!(net.balancer_depth(order[0]) <= net.balancer_depth(order[1]));
    }

    #[test]
    fn display_and_debug_are_informative() {
        let net = two_column();
        let d = format!("{net}");
        assert!(d.contains("(2, 2)-balancing network"));
        assert!(d.contains("uniform"));
        let dbg = format!("{net:?}");
        assert!(dbg.contains("depth"));
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        use crate::construct::{bitonic, counting_tree, periodic};
        use crate::state::NetworkState;
        for net in
            [two_column(), bitonic(8).unwrap(), periodic(4).unwrap(), counting_tree(8).unwrap()]
        {
            let json = json::to_string(&net);
            let back: Network = json::from_str(&json).expect("networks deserialize");
            assert_eq!(back.fan_in(), net.fan_in());
            assert_eq!(back.fan_out(), net.fan_out());
            assert_eq!(back.size(), net.size());
            assert_eq!(back.depth(), net.depth());
            assert_eq!(back.is_uniform(), net.is_uniform());
            // Behavioral equality: both route tokens identically.
            let mut a = NetworkState::new(&net);
            let mut b = NetworkState::new(&back);
            for k in 0..20 {
                let input = k % net.fan_in();
                assert_eq!(a.traverse(&net, input), b.traverse(&back, input));
            }
        }
    }
}
