//! Builders for assembling balancing networks.
//!
//! Two levels are provided:
//!
//! * [`NetworkBuilder`] — the raw graph API: declare balancers with arbitrary
//!   fan-in/fan-out, then wire up every endpoint explicitly. Validates full
//!   connectivity and acyclicity.
//! * [`LayeredBuilder`] — the "horizontal lines" API matching the paper's
//!   figures: `w` lines run left to right, and each call drops a regular
//!   balancer across a chosen set of lines. Most classic constructions
//!   (bitonic, periodic, mergers, blocks) are built this way.

use crate::balancer::Balancer;
use crate::error::BuildError;
use crate::ids::{BalancerId, SinkId, SourceId, WireId};
use crate::network::{Network, Wire, WireEnd, WireStart};

/// Raw graph builder for balancing networks.
///
/// # Example
///
/// Build a single (2,2)-balancer network by hand:
///
/// ```
/// use cnet_topology::{NetworkBuilder, WireStart, WireEnd};
/// use cnet_topology::ids::{SourceId, SinkId};
///
/// let mut nb = NetworkBuilder::new(2, 2);
/// let b = nb.add_balancer(2, 2);
/// nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer: b, port: 0 })?;
/// nb.connect(WireStart::Source(SourceId(1)), WireEnd::Balancer { balancer: b, port: 1 })?;
/// nb.connect(WireStart::Balancer { balancer: b, port: 0 }, WireEnd::Sink(SinkId(0)))?;
/// nb.connect(WireStart::Balancer { balancer: b, port: 1 }, WireEnd::Sink(SinkId(1)))?;
/// let net = nb.finish()?;
/// assert_eq!(net.depth(), 1);
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    fan_in: usize,
    fan_out: usize,
    /// Each declared balancer's fans and where its ports sit in `ends`.
    balancers: Vec<Declared>,
    wires: Vec<Wire>,
    /// The wire attached to every endpoint, or `None`: the `fan_in`
    /// sources, then the `fan_out` sinks, then each balancer's input ports
    /// followed by its output ports, in declaration order. One flat table,
    /// so declaring a balancer allocates nothing of its own.
    ends: Vec<Option<WireId>>,
}

/// A declared balancer: its fans and the index in [`NetworkBuilder`]'s
/// endpoint table of its input port 0 (its output ports follow the inputs).
#[derive(Clone, Copy, Debug)]
struct Declared {
    f_in: usize,
    f_out: usize,
    first_in: usize,
}

impl Declared {
    fn first_out(&self) -> usize {
        self.first_in + self.f_in
    }
}

/// How a [`BuildError`] names a wire's start (built only on an error path).
fn start_name(start: WireStart) -> String {
    match start {
        WireStart::Source(s) => format!("{s}"),
        WireStart::Balancer { balancer, port } => format!("{balancer} output port {port}"),
    }
}

/// How a [`BuildError`] names a wire's end (built only on an error path).
fn end_name(end: WireEnd) -> String {
    match end {
        WireEnd::Sink(s) => format!("{s}"),
        WireEnd::Balancer { balancer, port } => format!("{balancer} input port {port}"),
    }
}

impl NetworkBuilder {
    /// Starts building a `(w_in, w_out)`-balancing network.
    pub fn new(fan_in: usize, fan_out: usize) -> Self {
        NetworkBuilder {
            fan_in,
            fan_out,
            balancers: Vec::new(),
            wires: Vec::new(),
            ends: vec![None; fan_in + fan_out],
        }
    }

    /// Declares a new `(f_in, f_out)`-balancer and returns its id. Both fans
    /// must be at least 1 (checked at [`finish`](Self::finish)).
    pub fn add_balancer(&mut self, f_in: usize, f_out: usize) -> BalancerId {
        let id = BalancerId(self.balancers.len());
        self.balancers.push(Declared { f_in, f_out, first_in: self.ends.len() });
        self.ends.resize(self.ends.len() + f_in + f_out, None);
        id
    }

    /// The declared balancer `b`.
    fn declared(&self, b: BalancerId) -> Result<Declared, BuildError> {
        self.balancers
            .get(b.index())
            .copied()
            .ok_or_else(|| BuildError::IndexOutOfRange { endpoint: format!("{b}") })
    }

    /// `slot`, if no wire is attached there yet; `name` says which endpoint
    /// it is in the error.
    fn free(&self, slot: usize, name: impl FnOnce() -> String) -> Result<usize, BuildError> {
        match self.ends[slot] {
            Some(_) => Err(BuildError::DoublyConnected { endpoint: name() }),
            None => Ok(slot),
        }
    }

    /// The endpoint-table index of `start`, which must exist and be free.
    fn start_slot(&self, start: WireStart) -> Result<usize, BuildError> {
        let slot = match start {
            WireStart::Source(s) => (s.index() < self.fan_in).then_some(s.index()),
            WireStart::Balancer { balancer, port } => {
                let b = self.declared(balancer)?;
                (port < b.f_out).then(|| b.first_out() + port)
            }
        }
        .ok_or_else(|| BuildError::IndexOutOfRange { endpoint: start_name(start) })?;
        self.free(slot, || start_name(start))
    }

    /// The endpoint-table index of `end`, which must exist and be free.
    fn end_slot(&self, end: WireEnd) -> Result<usize, BuildError> {
        let slot = match end {
            WireEnd::Sink(s) => (s.index() < self.fan_out).then(|| self.fan_in + s.index()),
            WireEnd::Balancer { balancer, port } => {
                let b = self.declared(balancer)?;
                (port < b.f_in).then(|| b.first_in + port)
            }
        }
        .ok_or_else(|| BuildError::IndexOutOfRange { endpoint: end_name(end) })?;
        self.free(slot, || end_name(end))
    }

    /// Connects a wire from `start` to `end`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::IndexOutOfRange`] if either endpoint refers to a
    /// nonexistent node or port, and [`BuildError::DoublyConnected`] if either
    /// endpoint already has a wire. A failed call claims neither endpoint.
    pub fn connect(&mut self, start: WireStart, end: WireEnd) -> Result<WireId, BuildError> {
        let from = self.start_slot(start)?;
        let to = self.end_slot(end)?;
        let id = WireId(self.wires.len());
        self.ends[from] = Some(id);
        self.ends[to] = Some(id);
        self.wires.push(Wire { start, end });
        Ok(id)
    }

    /// Validates connectivity and acyclicity and produces the [`Network`].
    ///
    /// # Errors
    ///
    /// * [`BuildError::ZeroFan`] if a balancer has fan-in or fan-out 0.
    /// * [`BuildError::Unconnected`] if any source, sink, or balancer port
    ///   has no wire.
    /// * [`BuildError::Cyclic`] if the wires form a directed cycle.
    pub fn finish(self) -> Result<Network, BuildError> {
        for (i, b) in self.balancers.iter().enumerate() {
            if b.f_in == 0 || b.f_out == 0 {
                return Err(BuildError::ZeroFan { balancer: i });
            }
        }
        let (sources, rest) = self.ends.split_at(self.fan_in);
        let (sinks, ports) = rest.split_at(self.fan_out);
        let mut source_wires = Vec::with_capacity(self.fan_in);
        for (i, w) in sources.iter().enumerate() {
            source_wires.push(
                w.ok_or_else(|| BuildError::Unconnected { endpoint: format!("{}", SourceId(i)) })?,
            );
        }
        let mut sink_wires = Vec::with_capacity(self.fan_out);
        for (j, w) in sinks.iter().enumerate() {
            sink_wires.push(
                w.ok_or_else(|| BuildError::Unconnected { endpoint: format!("{}", SinkId(j)) })?,
            );
        }
        let mut balancers = Vec::with_capacity(self.balancers.len());
        let mut ports = ports.iter().copied();
        for (i, b) in self.balancers.iter().enumerate() {
            let inputs: Option<Vec<WireId>> = ports.by_ref().take(b.f_in).collect();
            let outputs: Option<Vec<WireId>> = ports.by_ref().take(b.f_out).collect();
            match (inputs, outputs) {
                (Some(inputs), Some(outputs)) => balancers.push(Balancer::new(inputs, outputs)),
                _ => {
                    return Err(BuildError::Unconnected {
                        endpoint: format!("a port of {}", BalancerId(i)),
                    })
                }
            }
        }

        let topo_order = kahn_topo_order(&balancers, &self.wires)?;
        Ok(Network::assemble(
            self.fan_in,
            self.fan_out,
            balancers,
            self.wires,
            source_wires,
            sink_wires,
            &topo_order,
        ))
    }
}

/// Kahn's algorithm over the balancer-to-balancer edges. A balancer's
/// successors are read off its own output wires, so no adjacency lists
/// are built.
fn kahn_topo_order(balancers: &[Balancer], wires: &[Wire]) -> Result<Vec<BalancerId>, BuildError> {
    let n = balancers.len();
    let mut indegree = vec![0usize; n];
    for w in wires {
        if let (WireStart::Balancer { .. }, WireEnd::Balancer { balancer: to, .. }) =
            (w.start, w.end)
        {
            indegree[to.index()] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(BalancerId(i));
        for &w in balancers[i].outputs() {
            if let WireEnd::Balancer { balancer: j, .. } = wires[w.index()].end {
                indegree[j.index()] -= 1;
                if indegree[j.index()] == 0 {
                    queue.push(j.index());
                }
            }
        }
    }
    if order.len() != n {
        return Err(BuildError::Cyclic);
    }
    Ok(order)
}

/// Line-oriented builder mirroring the paper's figures: `w` horizontal lines,
/// balancers stretched vertically across chosen lines.
///
/// Each line starts at a source node and ends at the same-numbered sink node.
/// [`balancer`](Self::balancer) drops a regular balancer across lines; input
/// and output port `k` both sit on `lines[k]`.
///
/// # Example
///
/// The (2,2)-balancer network, then a 3-line network with a (3,3)-balancer:
///
/// ```
/// use cnet_topology::LayeredBuilder;
///
/// let mut lb = LayeredBuilder::new(3);
/// lb.balancer(&[0, 1, 2]);
/// let net = lb.finish()?;
/// assert_eq!(net.size(), 1);
/// assert_eq!(net.balancer(cnet_topology::BalancerId(0)).fan_in(), 3);
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Debug)]
pub struct LayeredBuilder {
    inner: NetworkBuilder,
    width: usize,
    /// For each line, where the next wire segment on that line begins.
    heads: Vec<WireStart>,
}

impl LayeredBuilder {
    /// Starts a builder with `width` horizontal lines (fan-in = fan-out =
    /// `width`).
    pub fn new(width: usize) -> Self {
        LayeredBuilder {
            inner: NetworkBuilder::new(width, width),
            width,
            heads: (0..width).map(|i| WireStart::Source(SourceId(i))).collect(),
        }
    }

    /// The number of lines.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Places a regular balancer across the given lines: input port `k` is
    /// fed by the current segment of `lines[k]`, and output port `k`
    /// continues `lines[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is empty, contains duplicates, or refers to a line
    /// `>= width()`. (These are programming errors in a construction, not
    /// recoverable conditions.)
    pub fn balancer(&mut self, lines: &[usize]) -> BalancerId {
        assert!(!lines.is_empty(), "balancer must span at least one line");
        assert!(
            lines.iter().all(|&l| l < self.width),
            "line out of range for width {}",
            self.width
        );
        // A balancer spans a handful of lines: a scan beats a bitmap here.
        for (k, &l) in lines.iter().enumerate() {
            assert!(!lines[..k].contains(&l), "duplicate line {l} in balancer");
        }
        let b = self.inner.add_balancer(lines.len(), lines.len());
        for (port, &line) in lines.iter().enumerate() {
            let start = self.heads[line];
            self.inner
                .connect(start, WireEnd::Balancer { balancer: b, port })
                .expect("layered builder maintains single-connection invariant");
            self.heads[line] = WireStart::Balancer { balancer: b, port };
        }
        b
    }

    /// Crosses wires: after this call, the token stream previously heading
    /// down line `order[j]` continues on line `j`. Wires are pointers, so a
    /// permutation costs nothing and adds no depth — this models the free
    /// wire crossings in the paper's figures.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..width()`.
    pub fn permute(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.width, "permutation must cover every line");
        let mut seen = vec![false; self.width];
        for &o in order {
            assert!(o < self.width, "line {o} out of range for width {}", self.width);
            assert!(!seen[o], "duplicate line {o} in permutation");
            seen[o] = true;
        }
        self.heads = order.iter().map(|&o| self.heads[o]).collect();
    }

    /// Embeds a copy of an entire sub-network across the given lines:
    /// sub-source `k` is fed by the current segment of `lines[k]`, and
    /// sub-sink `k` continues `lines[k]`.
    ///
    /// The sub-network must have fan-in = fan-out = `lines.len()`.
    ///
    /// # Panics
    ///
    /// Panics on line misuse (as in [`balancer`](Self::balancer)) or if the
    /// sub-network's fan does not match `lines.len()`.
    pub fn embed(&mut self, sub: &Network, lines: &[usize]) {
        assert_eq!(sub.fan_in(), lines.len(), "sub-network fan-in mismatch");
        assert_eq!(sub.fan_out(), lines.len(), "sub-network fan-out mismatch");
        assert!(
            lines.iter().all(|&l| l < self.width),
            "line out of range for width {}",
            self.width
        );

        // Copy balancers.
        let mut bal_map: Vec<BalancerId> = Vec::with_capacity(sub.size());
        for (_, bal) in sub.balancers() {
            bal_map.push(self.inner.add_balancer(bal.fan_in(), bal.fan_out()));
        }
        // Sub-source starts must resolve against the heads as they were when
        // `embed` was called, not against heads already moved by sub-sink
        // wires processed earlier in the loop — so snapshot them first.
        let entry_heads: Vec<WireStart> = lines.iter().map(|&l| self.heads[l]).collect();
        let resolve_start = |wire_start: WireStart| -> WireStart {
            match wire_start {
                WireStart::Source(s) => entry_heads[s.index()],
                WireStart::Balancer { balancer, port } => {
                    WireStart::Balancer { balancer: bal_map[balancer.index()], port }
                }
            }
        };
        for (_, wire) in sub.wires() {
            let start = resolve_start(wire.start);
            match wire.end {
                WireEnd::Sink(s) => {
                    // Don't create a wire: the sub-sink just moves the head of
                    // the line to the feeding balancer port (or propagates the
                    // original head if the sub-wire ran source → sink).
                    self.heads[lines[s.index()]] = start;
                }
                WireEnd::Balancer { balancer, port } => {
                    self.inner
                        .connect(
                            start,
                            WireEnd::Balancer { balancer: bal_map[balancer.index()], port },
                        )
                        .expect("embed preserves single-connection invariant");
                }
            }
        }
    }

    /// Connects each line to its sink and validates the network.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`]s from validation (the layered discipline
    /// prevents most of them by construction).
    pub fn finish(mut self) -> Result<Network, BuildError> {
        for line in 0..self.width {
            let start = self.heads[line];
            self.inner.connect(start, WireEnd::Sink(SinkId(line)))?;
        }
        self.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconnected_source_is_reported() {
        let nb = NetworkBuilder::new(1, 0);
        let err = nb.finish().unwrap_err();
        assert!(matches!(err, BuildError::Unconnected { .. }));
    }

    #[test]
    fn unconnected_balancer_port_is_reported() {
        let mut nb = NetworkBuilder::new(1, 1);
        let b = nb.add_balancer(1, 2);
        nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer: b, port: 0 })
            .unwrap();
        nb.connect(WireStart::Balancer { balancer: b, port: 0 }, WireEnd::Sink(SinkId(0))).unwrap();
        // output port 1 dangling
        let err = nb.finish().unwrap_err();
        assert!(matches!(err, BuildError::Unconnected { .. }));
    }

    #[test]
    fn double_connection_is_rejected_and_rolled_back() {
        let mut nb = NetworkBuilder::new(2, 2);
        let b = nb.add_balancer(2, 2);
        nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer: b, port: 0 })
            .unwrap();
        let err = nb
            .connect(WireStart::Source(SourceId(1)), WireEnd::Balancer { balancer: b, port: 0 })
            .unwrap_err();
        assert!(matches!(err, BuildError::DoublyConnected { .. }));
        // The failed connect must not have consumed source 1.
        nb.connect(WireStart::Source(SourceId(1)), WireEnd::Balancer { balancer: b, port: 1 })
            .unwrap();
        nb.connect(WireStart::Balancer { balancer: b, port: 0 }, WireEnd::Sink(SinkId(0))).unwrap();
        nb.connect(WireStart::Balancer { balancer: b, port: 1 }, WireEnd::Sink(SinkId(1))).unwrap();
        assert!(nb.finish().is_ok());
    }

    #[test]
    fn cycle_is_detected() {
        let mut nb = NetworkBuilder::new(1, 1);
        let a = nb.add_balancer(2, 2);
        let b = nb.add_balancer(2, 2);
        nb.connect(WireStart::Source(SourceId(0)), WireEnd::Balancer { balancer: a, port: 0 })
            .unwrap();
        // a -> b, b -> a: cycle.
        nb.connect(
            WireStart::Balancer { balancer: a, port: 0 },
            WireEnd::Balancer { balancer: b, port: 0 },
        )
        .unwrap();
        nb.connect(
            WireStart::Balancer { balancer: b, port: 0 },
            WireEnd::Balancer { balancer: a, port: 1 },
        )
        .unwrap();
        nb.connect(
            WireStart::Balancer { balancer: a, port: 1 },
            WireEnd::Balancer { balancer: b, port: 1 },
        )
        .unwrap();
        nb.connect(WireStart::Balancer { balancer: b, port: 1 }, WireEnd::Sink(SinkId(0))).unwrap();
        let err = nb.finish().unwrap_err();
        assert_eq!(err, BuildError::Cyclic);
    }

    #[test]
    fn zero_fan_is_reported() {
        let mut nb = NetworkBuilder::new(0, 0);
        nb.add_balancer(0, 1);
        let err = nb.finish().unwrap_err();
        assert!(matches!(err, BuildError::ZeroFan { balancer: 0 }));
    }

    #[test]
    fn index_out_of_range_is_reported() {
        let mut nb = NetworkBuilder::new(1, 1);
        let err = nb.connect(WireStart::Source(SourceId(5)), WireEnd::Sink(SinkId(0))).unwrap_err();
        assert!(matches!(err, BuildError::IndexOutOfRange { .. }));
    }

    #[test]
    fn layered_builder_wires_lines_in_order() {
        let mut lb = LayeredBuilder::new(4);
        let b = lb.balancer(&[1, 3]);
        let net = lb.finish().unwrap();
        assert_eq!(net.size(), 1);
        // Lines 0 and 2 run straight through.
        let w0 = net.source_wire(SourceId(0));
        assert!(matches!(net.wire(w0).end, WireEnd::Sink(SinkId(0))));
        // Line 1 enters the balancer on port 0, line 3 on port 1.
        let w1 = net.source_wire(SourceId(1));
        assert_eq!(net.wire(w1).end, WireEnd::Balancer { balancer: b, port: 0 });
        let w3 = net.source_wire(SourceId(3));
        assert_eq!(net.wire(w3).end, WireEnd::Balancer { balancer: b, port: 1 });
        // Output port 0 continues line 1.
        let out0 = net.balancer(b).output(0);
        assert!(matches!(net.wire(out0).end, WireEnd::Sink(SinkId(1))));
    }

    #[test]
    #[should_panic(expected = "duplicate line")]
    fn layered_builder_rejects_duplicate_lines() {
        let mut lb = LayeredBuilder::new(2);
        lb.balancer(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "line out of range")]
    fn layered_builder_rejects_bad_line() {
        let mut lb = LayeredBuilder::new(2);
        lb.balancer(&[0, 2]);
    }

    #[test]
    fn permute_crosses_wires_without_balancers() {
        // A single balancer, then swap the two lines: its top output now
        // feeds sink 1.
        let mut lb = LayeredBuilder::new(2);
        let b = lb.balancer(&[0, 1]);
        lb.permute(&[1, 0]);
        let net = lb.finish().unwrap();
        assert_eq!(net.size(), 1);
        let top = net.balancer(b).output(0);
        assert!(matches!(net.wire(top).end, WireEnd::Sink(SinkId(1))));
        let bottom = net.balancer(b).output(1);
        assert!(matches!(net.wire(bottom).end, WireEnd::Sink(SinkId(0))));
    }

    #[test]
    fn permute_is_free_of_depth() {
        let mut lb = LayeredBuilder::new(4);
        lb.balancer(&[0, 1]);
        lb.permute(&[3, 2, 1, 0]);
        lb.balancer(&[0, 1]);
        let net = lb.finish().unwrap();
        // Second balancer is fed by the (previous) lines 3 and 2: straight
        // source wires, so it sits at depth 1, not 2.
        assert_eq!(net.depth(), 1);
        assert_eq!(net.size(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate line")]
    fn permute_rejects_non_permutations() {
        let mut lb = LayeredBuilder::new(3);
        lb.permute(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "cover every line")]
    fn permute_rejects_wrong_length() {
        let mut lb = LayeredBuilder::new(3);
        lb.permute(&[0, 1]);
    }

    #[test]
    fn embed_copies_subnetwork() {
        // A sub-network of one balancer on two lines, embedded twice in
        // series on lines (0,1) of a 2-line network = two balancers in series.
        let mut sub_b = LayeredBuilder::new(2);
        sub_b.balancer(&[0, 1]);
        let sub = sub_b.finish().unwrap();

        let mut lb = LayeredBuilder::new(2);
        lb.embed(&sub, &[0, 1]);
        lb.embed(&sub, &[0, 1]);
        let net = lb.finish().unwrap();
        assert_eq!(net.size(), 2);
        assert_eq!(net.depth(), 2);
        assert!(net.is_uniform());
    }

    #[test]
    fn embed_crossed_lines_permutes() {
        // Embedding on reversed lines flips which sink each port reaches.
        let mut sub_b = LayeredBuilder::new(2);
        sub_b.balancer(&[0, 1]);
        let sub = sub_b.finish().unwrap();

        let mut lb = LayeredBuilder::new(2);
        lb.embed(&sub, &[1, 0]);
        let net = lb.finish().unwrap();
        // The balancer's output port 0 (sub-line 0) continues outer line 1.
        let b = BalancerId(0);
        let out0 = net.balancer(b).output(0);
        assert!(matches!(net.wire(out0).end, WireEnd::Sink(SinkId(1))));
    }
}
