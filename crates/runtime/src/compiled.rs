//! The compiled traversal engine: a [`cnet_topology::Network`] flattened
//! into contiguous routing tables so the shared-memory hot path is a tight
//! loop over array indices.
//!
//! The graph form of a network is the right representation for analysis —
//! wires, ports, and layers are all first-class — but it is the wrong
//! representation for a traversal that the paper charges *one atomic
//! operation per balancer* (Section 2.7): every hop through the graph pays
//! a wire lookup, an enum match, a balancer deref, and an output-port
//! lookup before it ever touches the balancer word. [`CompiledNetwork`]
//! performs all of that resolution **once, at construction**:
//!
//! * a CSR-style table `routing` holds, for every balancer output port,
//!   the [`Hop`] the token takes next (another balancer, or a counter);
//!   `route_offset[b]` indexes balancer `b`'s slice of it;
//! * `entries[i]` is the first hop from source wire `i`;
//! * `fan[b]` caches balancer `b`'s fan-out, so the traversal never
//!   touches the `Balancer` records at all.
//!
//! The balancer *state* update is also specialized at compile time. A
//! round-robin step is `s ← (s + 1) mod f`; for the ubiquitous fan-out-2
//! balancer that is exactly `fetch_xor(1)`, and for any power-of-two
//! fan-out it is `fetch_add(1)` with the port read modulo `f` — both
//! **wait-free single atomics**, where a `fetch_update` loop can livelock
//! retries under contention. Only irregular fan-outs fall back to a CAS
//! loop, and that loop pays a bounded-spin [`Backoff`] per failure instead
//! of hammering the line.
//!
//! The engine is pure routing: it owns no atomics. Counters that traverse
//! it ([`crate::SharedNetworkCounter`], [`crate::InstrumentedNetworkCounter`],
//! [`crate::MessagePassingCounter`]) own their own (cache-line-padded)
//! state words and either call [`CompiledNetwork::traverse`] or walk the
//! tables themselves.

use cnet_topology::ids::SourceId;
use cnet_topology::network::WireEnd;
use cnet_topology::Network;
use cnet_util::sync::{Backoff, CachePadded};
use cnet_util::sync::atomic::{AtomicUsize, Ordering};

/// Where a token goes after leaving a balancer output port (or entering on
/// a source wire): the next balancer, or a final counter.
///
/// Packed into one word — the low bit tags counters — so the routing table
/// stays dense and a hop is a single load.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Hop(usize);

impl Hop {
    fn balancer(index: usize) -> Hop {
        Hop(index << 1)
    }

    fn counter(index: usize) -> Hop {
        Hop((index << 1) | 1)
    }

    /// `true` if this hop lands on a counter (ends the traversal).
    #[inline]
    pub fn is_counter(self) -> bool {
        self.0 & 1 == 1
    }

    /// The balancer or counter index this hop lands on.
    #[inline]
    pub fn index(self) -> usize {
        self.0 >> 1
    }
}

impl std::fmt::Debug for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_counter() {
            write!(f, "Counter({})", self.index())
        } else {
            write!(f, "Balancer({})", self.index())
        }
    }
}

/// A network flattened into contiguous per-balancer routing tables: the
/// compiled form every shared-memory runtime traverses.
///
/// # Example
///
/// ```
/// use cnet_runtime::compiled::CompiledNetwork;
/// use cnet_topology::construct::bitonic;
///
/// let engine = CompiledNetwork::compile(&bitonic(8)?);
/// assert_eq!(engine.fan_in(), 8);
/// assert_eq!(engine.fan_out(), 8);
/// assert_eq!(engine.size(), 24);
/// // A token entering on wire 3, always taking port 0, reaches a counter.
/// let mut hop = engine.entry(3);
/// while !hop.is_counter() {
///     hop = engine.hops(hop.index())[0];
/// }
/// assert!(hop.index() < 8);
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledNetwork {
    fan_in: usize,
    fan_out: usize,
    depth: usize,
    /// First hop from each source wire.
    entries: Vec<Hop>,
    /// CSR offsets: balancer `b`'s output hops are
    /// `routing[route_offset[b]..route_offset[b + 1]]`.
    route_offset: Vec<usize>,
    /// All output hops, balancer-major, port-minor.
    routing: Vec<Hop>,
    /// Cached fan-out per balancer (`route_offset[b+1] - route_offset[b]`,
    /// kept flat so the hot loop avoids the extra offset load).
    fan: Vec<usize>,
    /// Whether every balancer has fan-out 2 (true for all the classic
    /// constructions). Then `route_offset[b] == 2 * b`, and [`Self::traverse`]
    /// runs a specialized loop with no fan or offset loads at all.
    uniform_binary: bool,
    /// Balancer indices in topological order (every wire goes from an
    /// earlier entry to a later one). [`Self::traverse_counts`] sweeps this
    /// order so a balancer's whole sub-batch has accumulated before its
    /// single atomic fires. Networks are validated acyclic at build time,
    /// so the order always exists.
    topo: Vec<usize>,
}

/// Resolves a wire's terminus to a hop.
fn hop_of(end: WireEnd) -> Hop {
    match end {
        WireEnd::Balancer { balancer, .. } => Hop::balancer(balancer.index()),
        WireEnd::Sink(sink) => Hop::counter(sink.index()),
    }
}

/// Kahn's algorithm over the balancer→balancer hops: the returned order
/// visits every balancer after all of its predecessors.
fn topo_order(route_offset: &[usize], routing: &[Hop], size: usize) -> Vec<usize> {
    let mut indegree = vec![0usize; size];
    for hop in routing {
        if !hop.is_counter() {
            indegree[hop.index()] += 1;
        }
    }
    let mut order: Vec<usize> = (0..size).filter(|&b| indegree[b] == 0).collect();
    let mut next = 0;
    while next < order.len() {
        let b = order[next];
        next += 1;
        for hop in &routing[route_offset[b]..route_offset[b + 1]] {
            if !hop.is_counter() {
                let succ = hop.index();
                indegree[succ] -= 1;
                if indegree[succ] == 0 {
                    order.push(succ);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), size, "networks are validated acyclic");
    order
}

impl CompiledNetwork {
    /// Flattens `net` into routing tables. All graph resolution — wire
    /// lookups, port maps, balancer records — happens here, once.
    pub fn compile(net: &Network) -> CompiledNetwork {
        let entries: Vec<Hop> = (0..net.fan_in())
            .map(|i| hop_of(net.wire(net.source_wire(SourceId(i))).end))
            .collect();
        let mut route_offset = Vec::with_capacity(net.size() + 1);
        let mut routing = Vec::new();
        let mut fan = Vec::with_capacity(net.size());
        route_offset.push(0);
        for (_, bal) in net.balancers() {
            for &wire in bal.outputs() {
                routing.push(hop_of(net.wire(wire).end));
            }
            fan.push(bal.fan_out());
            route_offset.push(routing.len());
        }
        let uniform_binary = fan.iter().all(|&f| f == 2);
        let topo = topo_order(&route_offset, &routing, fan.len());
        CompiledNetwork {
            fan_in: net.fan_in(),
            fan_out: net.fan_out(),
            depth: net.depth(),
            entries,
            route_offset,
            routing,
            fan,
            uniform_binary,
            topo,
        }
    }

    /// The network's fan-in (number of input wires).
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The network's fan-out (number of output wires / counters).
    #[inline]
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The number of balancers.
    #[inline]
    pub fn size(&self) -> usize {
        self.fan.len()
    }

    /// The network depth `d(G)`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The first hop from source wire `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()`.
    #[inline]
    pub fn entry(&self, input: usize) -> Hop {
        self.entries[input]
    }

    /// Balancer `balancer`'s output hops, in port order.
    #[inline]
    pub fn hops(&self, balancer: usize) -> &[Hop] {
        &self.routing[self.route_offset[balancer]..self.route_offset[balancer + 1]]
    }

    /// Balancer `balancer`'s fan-out.
    #[inline]
    pub fn balancer_fan_out(&self, balancer: usize) -> usize {
        self.fan[balancer]
    }

    /// Routes one token from source wire `input` to a counter, asking
    /// `choose_port(balancer, fan_out)` for the output port at every
    /// balancer; returns the counter index reached.
    ///
    /// This is the generic walk — the closure supplies the balancer-state
    /// discipline, so the same tight loop serves the atomic counters, the
    /// instrumented counter (which counts retries), and tests that force
    /// fixed ports.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()` or the closure returns a port out of
    /// range.
    #[inline]
    pub fn route(&self, input: usize, mut choose_port: impl FnMut(usize, usize) -> usize) -> usize {
        assert!(input < self.fan_in, "input wire {input} out of range");
        let mut hop = self.entries[input];
        while !hop.is_counter() {
            let b = hop.index();
            let base = self.route_offset[b];
            let port = choose_port(b, self.fan[b]);
            hop = self.routing[base + port];
        }
        hop.index()
    }

    /// Routes one token from `input` through shared atomic balancer words
    /// to a counter: the lock-free hot path. Returns the counter reached.
    ///
    /// The round-robin update is specialized by fan-out — `fetch_xor` for
    /// 2, masked `fetch_add` for other powers of two (both wait-free), and
    /// a backoff-paced CAS loop otherwise — so on the classic
    /// constructions every balancer visit is **one** atomic instruction
    /// with no retry loop at all.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()` or `balancers.len() != size()`.
    #[inline]
    pub fn traverse(&self, input: usize, balancers: &[CachePadded<AtomicUsize>]) -> usize {
        assert_eq!(balancers.len(), self.fan.len(), "one state word per balancer");
        if self.uniform_binary {
            // All-binary network (every classic construction): the CSR
            // offset of balancer `b` is just `2 * b`, so the loop touches
            // only the state word and the routing table — one atomic and
            // one load per hop.
            assert!(input < self.fan_in, "input wire {input} out of range");
            let mut hop = self.entries[input];
            while !hop.is_counter() {
                let b = hop.index();
                let port = balancers[b].fetch_xor(1, Ordering::AcqRel) & 1;
                hop = self.routing[2 * b + port];
            }
            return hop.index();
        }
        self.route(input, |b, f| {
            let word = &*balancers[b];
            if f == 2 {
                // (s + 1) mod 2 == s xor 1: a single wait-free atomic.
                word.fetch_xor(1, Ordering::AcqRel)
            } else if f.is_power_of_two() {
                // Wrapping add preserves congruence mod a power of two, so
                // the word may run ahead of the paper's state `s`; the port
                // handed out is still exactly round-robin.
                word.fetch_add(1, Ordering::AcqRel) & (f - 1)
            } else {
                let backoff = Backoff::new();
                let mut s = word.load(Ordering::Acquire);
                loop {
                    match word.compare_exchange_weak(
                        s,
                        (s + 1) % f,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(prev) => break prev,
                        Err(actual) => {
                            backoff.snooze();
                            s = actual;
                        }
                    }
                }
            }
        })
    }

    /// Routes a whole batch — `entering[i]` tokens on every source wire `i`
    /// at once — through the shared balancer words in one sweep, charging
    /// **at most one atomic per balancer for the whole batch** instead of
    /// one per balancer per token. On return, `sink_counts[j]` holds how
    /// many of the tokens reached counter `j` (`sink_counts` is resized to
    /// `fan_out()` and overwritten; its spare capacity carries the sweep's
    /// working counts, so a caller that reuses the `Vec` allocates nothing).
    ///
    /// # Why one atomic suffices
    ///
    /// A balancer is round-robin state plus fan-out `f`: `n` consecutive
    /// tokens arriving at state `s` take ports `s, s+1, …, s+n−1 (mod f)`
    /// and leave the state at `(s + n) mod f`. Both facts are pure
    /// arithmetic in `(s, n, f)`, so the balancer's entire contribution to
    /// the batch is captured by atomically advancing the state by `n` and
    /// reading the prior `s`: port `p` receives `⌊n/f⌋ + [((p−s) mod f) <
    /// n mod f]` tokens. The advance is specialized exactly like
    /// [`Self::traverse`]: `fetch_xor(1)` when `f == 2` and `n` is odd, a
    /// masked `fetch_add(n)` for other powers of two (congruence mod a
    /// power of two survives wrapping), a backoff-paced CAS advancing by
    /// `n mod f` otherwise — and when `n ≡ 0 (mod f)` the split is uniform
    /// and the state unchanged, so the balancer is not touched at all.
    ///
    /// Balancers are visited in topological order, so every upstream
    /// sub-batch has been split before a downstream balancer fires. From a
    /// quiescent state the resulting per-counter counts equal the same
    /// tokens sent through [`Self::traverse`] one by one, in any order
    /// (induction over the topological order: same arrival counts and same
    /// starting state at every balancer imply the same port split). Tokens
    /// entering on several wires together are as legal a batch as tokens
    /// entering on one: a balancer's split depends only on how many tokens
    /// reach it, not on the wires they came by, and the step property holds
    /// for every interleaving of the tokens. Under concurrency each atomic
    /// advance claims `n` consecutive round-robin slots, so the gap-freedom
    /// argument of the single-token path carries over unchanged.
    ///
    /// An all-zero `entering` resets `sink_counts` to zeros and touches no
    /// balancer word — an empty batch is free, matching the
    /// `ProcessCounter::next_batch_for` contract.
    ///
    /// # Panics
    ///
    /// Panics if `entering.len() != fan_in()` or `balancers.len() != size()`.
    pub fn traverse_counts(
        &self,
        entering: &[usize],
        balancers: &[CachePadded<AtomicUsize>],
        sink_counts: &mut Vec<usize>,
    ) {
        assert_eq!(entering.len(), self.fan_in, "one count per input wire");
        self.sweep(entering.iter().copied().enumerate(), balancers, sink_counts);
    }

    /// [`traverse_counts`](Self::traverse_counts) for `k` tokens that all
    /// enter on source wire `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()` or `balancers.len() != size()`.
    pub fn traverse_batch(
        &self,
        input: usize,
        k: usize,
        balancers: &[CachePadded<AtomicUsize>],
        sink_counts: &mut Vec<usize>,
    ) {
        assert!(input < self.fan_in, "input wire {input} out of range");
        self.sweep(std::iter::once((input, k)), balancers, sink_counts);
    }

    /// The wavefront behind both batched traversals: `entering` yields
    /// `(source wire, tokens)` pairs.
    fn sweep(
        &self,
        entering: impl Iterator<Item = (usize, usize)>,
        balancers: &[CachePadded<AtomicUsize>],
        sink_counts: &mut Vec<usize>,
    ) {
        assert_eq!(balancers.len(), self.fan.len(), "one state word per balancer");
        // One buffer, two tables: tokens arrived at each counter, then
        // tokens waiting at each balancer, accumulated wavefront-style.
        let waiting = self.fan_out;
        let slot = |hop: Hop| hop.index() + if hop.is_counter() { 0 } else { waiting };
        sink_counts.clear();
        sink_counts.resize(waiting + self.fan.len(), 0);
        let mut total = 0;
        for (input, k) in entering {
            sink_counts[slot(self.entries[input])] += k;
            total += k;
        }
        for &b in &self.topo {
            let n = sink_counts[waiting + b];
            if n == 0 {
                continue;
            }
            let f = self.fan[b];
            let rem = n % f;
            let s = if rem == 0 {
                // Uniform split, state unchanged: zero atomics.
                0
            } else if f == 2 {
                // (s + n) mod 2 == s xor 1 for odd n: one wait-free atomic
                // that also returns the prior state.
                balancers[b].fetch_xor(1, Ordering::AcqRel) & 1
            } else if f.is_power_of_two() {
                // Wrapping add preserves congruence mod a power of two.
                balancers[b].fetch_add(n, Ordering::AcqRel) & (f - 1)
            } else {
                let word = &*balancers[b];
                let backoff = Backoff::new();
                let mut cur = word.load(Ordering::Acquire);
                loop {
                    match word.compare_exchange_weak(
                        cur,
                        (cur + rem) % f,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(prev) => break prev,
                        Err(actual) => {
                            backoff.snooze();
                            cur = actual;
                        }
                    }
                }
            };
            let base = self.route_offset[b];
            let share = n / f;
            for p in 0..f {
                // Ports s, s+1, …, s+rem−1 (mod f) carry the remainder.
                sink_counts[slot(self.routing[base + p])] +=
                    share + usize::from((p + f - s) % f < rem);
            }
        }
        sink_counts.truncate(self.fan_out);
        debug_assert_eq!(
            sink_counts.iter().sum::<usize>(),
            total,
            "feed-forward conservation: every token reaches exactly one sink"
        );
    }

    /// A fresh bank of balancer state words, one per balancer, each on its
    /// own cache line, all in the initial state 0.
    pub fn new_balancer_states(&self) -> Box<[CachePadded<AtomicUsize>]> {
        (0..self.fan.len()).map(|_| CachePadded::new(AtomicUsize::new(0))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::builder::LayeredBuilder;
    use cnet_topology::construct::{bitonic, counting_tree, periodic};
    use cnet_topology::state::NetworkState;

    #[test]
    fn tables_mirror_the_graph() {
        let net = bitonic(8).unwrap();
        let engine = CompiledNetwork::compile(&net);
        assert_eq!(engine.fan_in(), 8);
        assert_eq!(engine.fan_out(), 8);
        assert_eq!(engine.size(), net.size());
        assert_eq!(engine.depth(), net.depth());
        // Every balancer's hop slice matches its fan-out and the graph's
        // wire endpoints.
        for (b, bal) in net.balancers() {
            let hops = engine.hops(b.index());
            assert_eq!(hops.len(), bal.fan_out());
            assert_eq!(engine.balancer_fan_out(b.index()), bal.fan_out());
            for (port, &hop) in hops.iter().enumerate() {
                let end = net.wire(bal.output(port)).end;
                match end {
                    WireEnd::Balancer { balancer, .. } => {
                        assert!(!hop.is_counter());
                        assert_eq!(hop.index(), balancer.index());
                    }
                    WireEnd::Sink(s) => {
                        assert!(hop.is_counter());
                        assert_eq!(hop.index(), s.index());
                    }
                }
            }
        }
    }

    #[test]
    fn route_agrees_with_walk_to_sink() {
        for net in [bitonic(8).unwrap(), periodic(4).unwrap(), counting_tree(8).unwrap()] {
            let engine = CompiledNetwork::compile(&net);
            for input in 0..net.fan_in() {
                for fixed_port in 0..2usize {
                    let compiled = engine.route(input, |_, f| fixed_port.min(f - 1));
                    let graph = net
                        .walk_to_sink(net.source_wire(SourceId(input)), |b| {
                            fixed_port.min(net.balancer(b).fan_out() - 1)
                        })
                        .index();
                    assert_eq!(compiled, graph, "{net} input {input} port {fixed_port}");
                }
            }
        }
    }

    #[test]
    fn traverse_matches_reference_semantics() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let engine = CompiledNetwork::compile(&net);
            let states = engine.new_balancer_states();
            let mut reference = NetworkState::new(&net);
            for k in 0..64usize {
                let input = k % net.fan_in();
                let sink = engine.traverse(input, &states);
                assert_eq!(sink, reference.traverse(&net, input).sink.index(), "{net}");
            }
        }
    }

    #[test]
    fn irregular_fan_outs_use_the_cas_path_correctly() {
        // A single (3,3)-balancer: fan-out 3 is not a power of two, so the
        // traversal exercises the CAS fallback. Round-robin must hold.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        let net = lb.finish().unwrap();
        let engine = CompiledNetwork::compile(&net);
        let states = engine.new_balancer_states();
        let sinks: Vec<usize> = (0..7).map(|_| engine.traverse(0, &states)).collect();
        assert_eq!(sinks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_input_panics() {
        let engine = CompiledNetwork::compile(&bitonic(2).unwrap());
        let states = engine.new_balancer_states();
        engine.traverse(5, &states);
    }

    /// `k` sequential single-token traversals, tallied per sink.
    fn sequential_histogram(
        engine: &CompiledNetwork,
        input: usize,
        k: usize,
        states: &[CachePadded<AtomicUsize>],
    ) -> Vec<usize> {
        let mut counts = vec![0usize; engine.fan_out()];
        for _ in 0..k {
            counts[engine.traverse(input, states)] += 1;
        }
        counts
    }

    #[test]
    fn batch_matches_sequential_traversals_from_quiescence() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let engine = CompiledNetwork::compile(&net);
            for input in 0..engine.fan_in() {
                for k in [0usize, 1, 2, 3, 7, 8, 64, 1001] {
                    let batched = engine.new_balancer_states();
                    let mut counts = Vec::new();
                    engine.traverse_batch(input, k, &batched, &mut counts);
                    let sequential = engine.new_balancer_states();
                    let reference = sequential_histogram(&engine, input, k, &sequential);
                    assert_eq!(counts, reference, "{net} input {input} k {k}");
                }
            }
        }
    }

    #[test]
    fn batch_interleaves_with_single_tokens() {
        // Singles and batches share the same state words, so a batch must
        // pick up the round-robin exactly where the singles left it (and
        // vice versa) on every specialization: parity xor, masked add, CAS.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        let irregular = lb.finish().unwrap();
        for net in [bitonic(8).unwrap(), counting_tree(8).unwrap(), irregular] {
            let engine = CompiledNetwork::compile(&net);
            let mixed = engine.new_balancer_states();
            let sequential = engine.new_balancer_states();
            let mut mixed_counts = vec![0usize; engine.fan_out()];
            let mut reference = vec![0usize; engine.fan_out()];
            let mut scratch = Vec::new();
            for (round, k) in [1usize, 5, 2, 16, 3, 9].into_iter().enumerate() {
                let input = round % engine.fan_in();
                if round % 2 == 0 {
                    for _ in 0..k {
                        mixed_counts[engine.traverse(input, &mixed)] += 1;
                    }
                } else {
                    engine.traverse_batch(input, k, &mixed, &mut scratch);
                    for (sink, n) in scratch.iter().enumerate() {
                        mixed_counts[sink] += n;
                    }
                }
                for (sink, n) in
                    sequential_histogram(&engine, input, k, &sequential).into_iter().enumerate()
                {
                    reference[sink] += n;
                }
                assert_eq!(mixed_counts, reference, "{net} after round {round}");
            }
        }
    }

    #[test]
    fn batch_round_robin_on_the_irregular_cas_path() {
        // One (3,3)-balancer, batch of 7 from state 0: ports 0,1,2 repeat
        // so the counts are [3,2,2] and the state ends at 7 mod 3 = 1.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        let net = lb.finish().unwrap();
        let engine = CompiledNetwork::compile(&net);
        let states = engine.new_balancer_states();
        let mut counts = Vec::new();
        engine.traverse_batch(0, 7, &states, &mut counts);
        assert_eq!(counts, vec![3, 2, 2]);
        assert_eq!(engine.traverse(0, &states), 1);
    }

    #[test]
    fn uniform_batches_leave_balancer_state_untouched() {
        // A multiple-of-fan batch splits uniformly without an atomic; the
        // next single token must still come out on the original port.
        let net = bitonic(8).unwrap();
        let engine = CompiledNetwork::compile(&net);
        let states = engine.new_balancer_states();
        let first = engine.traverse(0, &states);
        let mut counts = Vec::new();
        let fresh = engine.new_balancer_states();
        engine.traverse_batch(0, 1024, &fresh, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        assert!(counts.iter().all(|&c| c == 1024 / 8), "uniform split: {counts:?}");
        assert_eq!(engine.traverse(0, &fresh), first, "state must be unchanged");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_batch_input_panics() {
        let engine = CompiledNetwork::compile(&bitonic(2).unwrap());
        let states = engine.new_balancer_states();
        engine.traverse_batch(5, 1, &states, &mut Vec::new());
    }

    #[test]
    fn hop_debug_is_informative() {
        assert_eq!(format!("{:?}", Hop::balancer(3)), "Balancer(3)");
        assert_eq!(format!("{:?}", Hop::counter(1)), "Counter(1)");
    }
}
