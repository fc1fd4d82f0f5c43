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
//! # Fewer shared lines per token
//!
//! A token writes every word on its path, so what a traversal costs under
//! contention is how many of those words another processor wrote last. Two
//! facts about the topology, both settled at compile time, cut that number:
//!
//! * **The entry plan** ([`EntryPlan`]). Which input wire a process enters
//!   on is free — any assignment counts correctly — so the plan orders the
//!   wires farthest-first by *where their paths first meet*: wire 0, then
//!   always the wire whose shallowest common balancer with the wires
//!   already handed out lies deepest. On `B(8)` that is `0, 4, 2, 6, 1, 3,
//!   5, 7`: two processes enter the two disjoint `B(4)` halves and share
//!   nothing above the merger. [`CompiledNetwork::entry_for`] is the one
//!   process→wire map every runtime uses.
//! * **Terminal balancers.** A balancer all of whose outputs are sinks is
//!   the last thing its tokens touch before their counters, and each of
//!   those counters is fed by nothing else. Its word therefore *counts
//!   arrivals* instead of cycling: one `fetch_add(1)` returns `t`, the
//!   port is `t mod f`, and the token is that port's `⌊t/f⌋`-th, so the
//!   value for sink `j` is `j + w·⌊t/f⌋` — the sinks behind it own no
//!   counter word at all, and no fan-out needs a CAS loop there. This is
//!   the Section 2.2 BAL step followed at once by the same token's COUNT
//!   step, a schedule the model already allows. [`Exit::rank`] carries
//!   `⌊t/f⌋` out of the traversal; a sink fed by a source wire or by a
//!   balancer with mixed outputs keeps a counter word of its own
//!   ([`CompiledNetwork::free_sinks`]).
//!
//! The engine is pure routing: it owns no atomics. Counters that traverse
//! it ([`crate::SharedNetworkCounter`], and each stage of `cnet-net`'s
//! cluster chain over its own sub-network) own their own
//! (cache-line-padded) state words and either call
//! [`CompiledNetwork::traverse`] or walk the tables themselves. It is the
//! one shared-memory walk of a network; `tests/model_check.rs` checks it
//! against the Section 2.2 model under every bounded schedule (see
//! DESIGN.md, "The runtime refines the model"), and
//! `cnet_topology::state::NetworkState` is its sequential oracle.

use cnet_topology::ids::{BalancerId, SourceId};
use cnet_topology::network::WireEnd;
use cnet_topology::Network;
use cnet_util::sync::atomic::{AtomicU64, Ordering};
use cnet_util::sync::{Backoff, CachePadded};

/// Where a token goes after leaving a balancer output port (or entering on
/// a source wire): the next balancer, or a final counter.
///
/// Packed into one word — bit 0 tags counters, bit 1 tags terminal
/// balancers — so the routing table stays dense and a hop is a single load.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Hop(usize);

impl Hop {
    const COUNTER: usize = 1;
    const TERMINAL: usize = 2;

    fn balancer(index: usize) -> Hop {
        Hop(index << 2)
    }

    fn counter(index: usize) -> Hop {
        Hop((index << 2) | Hop::COUNTER)
    }

    /// `true` if this hop lands on a counter (ends the traversal).
    #[inline]
    pub fn is_counter(self) -> bool {
        self.0 & Hop::COUNTER != 0
    }

    /// `true` if this hop lands on a terminal balancer: one all of whose
    /// outputs are sinks, so its word gives port and value in one step.
    #[inline]
    fn is_terminal(self) -> bool {
        self.0 & Hop::TERMINAL != 0
    }

    /// `true` if this hop lands on a balancer that is not the last on its
    /// tokens' paths — the only kind the traversal loop keeps walking from.
    #[inline]
    fn is_interior(self) -> bool {
        self.0 & (Hop::COUNTER | Hop::TERMINAL) == 0
    }

    /// The balancer or counter index this hop lands on.
    #[inline]
    pub fn index(self) -> usize {
        self.0 >> 2
    }
}

impl std::fmt::Debug for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_counter() {
            "Counter"
        } else if self.is_terminal() {
            "Terminal"
        } else {
            "Balancer"
        };
        write!(f, "{kind}({})", self.index())
    }
}

/// Where a token left the network: the sink it reached and, when a
/// terminal balancer sent it there, how many tokens that balancer had sent
/// to the same sink before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exit {
    /// The output wire (sink) reached.
    pub sink: usize,
    /// `Some(⌊t/f⌋)` for the `t`-th arrival at a terminal balancer of
    /// fan-out `f`: the token's value is `sink + fan_out() · rank`, and no
    /// counter word is involved. `None` for a free-standing sink, whose own
    /// counter hands out the value. A partition's relay nodes ignore it.
    pub rank: Option<u64>,
}

/// The process→wire map: a permutation of the input wires, wire 0 first,
/// then farthest-first by the depth of the shallowest balancer two wires
/// can both reach (wires that never meet are farthest of all; ties go to
/// the lower wire). The first `k` processes thereby enter where their
/// paths meet as late as the topology allows, and share no word above that
/// depth.
///
/// Counting is indifferent to the assignment — the step property holds for
/// tokens entering anywhere — so this is purely a placement decision. The
/// simulator (`cnet-sim`) keeps the paper's `p mod w`, which its seeded
/// traces are recorded against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryPlan(Box<[usize]>);

impl EntryPlan {
    /// The input wire `process` enters on. Processes beyond the fan-in
    /// wrap around the plan.
    #[inline]
    pub fn entry_for(&self, process: usize) -> usize {
        self.0[process % self.0.len()]
    }

    /// The input wires in plan order: `wires()[p]` is process `p`'s.
    pub fn wires(&self) -> &[usize] {
        &self.0
    }

    /// Derives the plan from the compiled tables. `topo` must list the
    /// balancers by non-decreasing depth. One pass fills the reach masks;
    /// each wire handed out then costs one scan down `topo` to where its
    /// masks have met every other wire — `O(fan_in · size)` word operations
    /// in all, four flat allocations, none per wire.
    fn derive(
        net: &Network,
        entries: &[Hop],
        route_offset: &[usize],
        routing: &[Hop],
        topo: &[usize],
    ) -> EntryPlan {
        let fan_in = entries.len();
        if fan_in == 0 {
            return EntryPlan(Box::default());
        }
        // reach[b]: the set of input wires with a path to balancer `b`, as
        // `lanes` 64-bit words — one flat allocation, filled in one pass
        // down the topological order.
        let lanes = fan_in.div_ceil(64);
        let mut reach = vec![0u64; topo.len() * lanes];
        for (wire, hop) in entries.iter().enumerate() {
            if !hop.is_counter() {
                reach[hop.index() * lanes + wire / 64] |= 1 << (wire % 64);
            }
        }
        for &b in topo {
            for hop in &routing[route_offset[b]..route_offset[b + 1]] {
                if !hop.is_counter() {
                    let succ = hop.index();
                    for lane in 0..lanes {
                        reach[succ * lanes + lane] |= reach[b * lanes + lane];
                    }
                }
            }
        }
        // near[x]: the depth at which wire `x` first meets any wire already
        // in the plan (MAX: never; 0: `x` is in the plan, depths start at 1).
        let mut near = vec![usize::MAX; fan_in];
        let mut seen = vec![0u64; lanes];
        let mut plan = Vec::with_capacity(fan_in);
        let mut next = 0;
        loop {
            plan.push(next);
            near[next] = 0;
            if plan.len() == fan_in {
                return EntryPlan(plan.into());
            }
            // Walking the balancers `next` reaches by increasing depth, a
            // wire's first appearance in their reach sets is at the depth
            // where it first meets `next`.
            seen.fill(0);
            seen[next / 64] = 1 << (next % 64);
            let mut unseen = fan_in - 1;
            for &b in topo {
                if unseen == 0 {
                    break;
                }
                let set = &reach[b * lanes..(b + 1) * lanes];
                if set[next / 64] & (1 << (next % 64)) == 0 {
                    continue;
                }
                let depth = net.balancer_depth(BalancerId(b));
                for lane in 0..lanes {
                    let mut fresh = set[lane] & !seen[lane];
                    seen[lane] |= fresh;
                    while fresh != 0 {
                        let wire = lane * 64 + fresh.trailing_zeros() as usize;
                        near[wire] = near[wire].min(depth);
                        fresh &= fresh - 1;
                        unseen -= 1;
                    }
                }
            }
            // Farthest first; `>` keeps the lowest wire among equals.
            next = (0..fan_in).fold(0, |best, x| if near[x] > near[best] { x } else { best });
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
/// // Processes enter where their paths meet last: 0 and 1 take the two
/// // B(4) halves.
/// assert_eq!(engine.entry_plan().wires(), [0, 4, 2, 6, 1, 3, 5, 7]);
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
    /// Balancer indices in topological order, by non-decreasing depth
    /// (every wire goes from an earlier entry to a later one).
    /// [`Self::traverse_counts`] sweeps this order so a balancer's whole
    /// sub-batch has accumulated before its single atomic fires. Networks
    /// are validated acyclic at build time, so the order always exists.
    topo: Vec<usize>,
    /// Whether balancer `b` is terminal: every output a sink.
    terminal: Vec<bool>,
    /// The sinks no terminal balancer feeds, ascending — the only ones that
    /// own a counter word. Empty on every classic construction.
    free_sinks: Vec<usize>,
    plan: EntryPlan,
}

/// Resolves a wire's terminus to a hop.
fn hop_of(end: WireEnd) -> Hop {
    match end {
        WireEnd::Balancer { balancer, .. } => Hop::balancer(balancer.index()),
        WireEnd::Sink(sink) => Hop::counter(sink.index()),
    }
}

/// Kahn's algorithm over the balancer→balancer hops, first in first out:
/// the returned order visits every balancer after all of its predecessors,
/// and — a balancer joins the queue when its *deepest* predecessor leaves
/// it — by non-decreasing depth.
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
    /// lookups, port maps, balancer records, which balancers are terminal,
    /// the entry plan — happens here, once.
    pub fn compile(net: &Network) -> CompiledNetwork {
        let mut entries: Vec<Hop> =
            (0..net.fan_in()).map(|i| hop_of(net.wire(net.source_wire(SourceId(i))).end)).collect();
        let mut route_offset = Vec::with_capacity(net.size() + 1);
        let mut routing = Vec::new();
        let mut fan = Vec::with_capacity(net.size());
        let mut terminal = Vec::with_capacity(net.size());
        let mut fused_sinks = 0;
        route_offset.push(0);
        for (_, bal) in net.balancers() {
            let base = routing.len();
            routing.extend(bal.outputs().iter().map(|&wire| hop_of(net.wire(wire).end)));
            let last = routing[base..].iter().all(|hop| hop.is_counter());
            fused_sinks += if last { bal.fan_out() } else { 0 };
            terminal.push(last);
            fan.push(bal.fan_out());
            route_offset.push(routing.len());
        }
        let uniform_binary = fan.iter().all(|&f| f == 2);
        let topo = topo_order(&route_offset, &routing, fan.len());
        debug_assert!(
            topo.windows(2).all(|pair| {
                net.balancer_depth(BalancerId(pair[0])) <= net.balancer_depth(BalancerId(pair[1]))
            }),
            "first-in-first-out Kahn order is by depth"
        );
        let plan = EntryPlan::derive(net, &entries, &route_offset, &routing, &topo);
        // Every sink is fed by exactly one wire, so the sinks left over are
        // those a source wire or a balancer with mixed outputs leads to.
        let mut free_sinks = Vec::new();
        if fused_sinks < net.fan_out() {
            let mixed = (0..fan.len())
                .filter(|&b| !terminal[b])
                .flat_map(|b| &routing[route_offset[b]..route_offset[b + 1]]);
            let to_sinks = entries.iter().chain(mixed).filter(|hop| hop.is_counter());
            free_sinks.extend(to_sinks.map(|hop| hop.index()));
            free_sinks.sort_unstable();
        }
        for hop in entries.iter_mut().chain(&mut routing) {
            if !hop.is_counter() && terminal[hop.index()] {
                hop.0 |= Hop::TERMINAL;
            }
        }
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
            terminal,
            free_sinks,
            plan,
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

    /// The input wire `process` enters on, by the [`EntryPlan`].
    #[inline]
    pub fn entry_for(&self, process: usize) -> usize {
        self.plan.entry_for(process)
    }

    /// The process→wire map, for runtimes that route without the tables.
    pub fn entry_plan(&self) -> &EntryPlan {
        &self.plan
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

    /// Which balancers a token entering on source wire `input` can visit,
    /// indexed by balancer: the words a process entering there may write.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()`.
    pub fn reachable_from(&self, input: usize) -> Vec<bool> {
        let mut seen = vec![false; self.fan.len()];
        let mut stack = vec![self.entries[input]];
        while let Some(hop) = stack.pop() {
            if !hop.is_counter() && !std::mem::replace(&mut seen[hop.index()], true) {
                stack.extend(self.hops(hop.index()));
            }
        }
        seen
    }

    /// Whether balancer `balancer` is terminal — every output a sink — so
    /// that its word counts arrivals and its sinks own no counter.
    #[inline]
    pub fn is_terminal(&self, balancer: usize) -> bool {
        self.terminal[balancer]
    }

    /// The sinks that own a counter word, ascending: those fed by a source
    /// wire or by a balancer with mixed outputs. A counter bank laid out
    /// over this engine has one word per entry, in this order.
    pub fn free_sinks(&self) -> &[usize] {
        &self.free_sinks
    }

    /// Routes one token from `input` through the shared state words to a
    /// sink: the lock-free hot path.
    ///
    /// The round-robin update is specialized by fan-out — `fetch_xor` for
    /// 2, masked `fetch_add` for other powers of two (both wait-free), and
    /// a backoff-paced CAS loop otherwise — and a terminal balancer, of any
    /// fan-out, is one `fetch_add(1)` whose result is both the port and the
    /// token's [`rank`](Exit::rank). On the classic constructions every
    /// balancer visit is therefore **one** atomic instruction with no retry
    /// loop, and the last of them is the counter.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()` or `words.len() != size()`.
    #[inline]
    pub fn traverse(&self, input: usize, words: &[CachePadded<AtomicU64>]) -> Exit {
        self.walk(input, words, |_, _, _| {})
    }

    /// [`traverse`](Self::traverse), telling `claimed(balancer, before, 1)`
    /// of every balancer-word RMW right after it, with the value the word
    /// held before it: the hook a claim log hangs on. A no-op hook compiles
    /// to `traverse` itself.
    #[inline(always)]
    pub(crate) fn walk(
        &self,
        input: usize,
        words: &[CachePadded<AtomicU64>],
        mut claimed: impl FnMut(usize, Option<u64>, usize),
    ) -> Exit {
        assert_eq!(words.len(), self.fan.len(), "one state word per balancer");
        assert!(input < self.fan_in, "input wire {input} out of range");
        let mut hop = self.entries[input];
        if self.uniform_binary {
            // All-binary network (every classic construction): the CSR
            // offset of balancer `b` is just `2 * b`, so the loop touches
            // only the state word and the routing table — one atomic and
            // one load per hop.
            while hop.is_interior() {
                let b = hop.index();
                let s = words[b].fetch_xor(1, Ordering::AcqRel);
                claimed(b, Some(s), 1);
                hop = self.routing[2 * b + (s & 1) as usize];
            }
            if hop.is_counter() {
                return Exit { sink: hop.index(), rank: None };
            }
            let b = hop.index();
            let t = words[b].fetch_add(1, Ordering::AcqRel);
            claimed(b, Some(t), 1);
            #[cfg(feature = "model-check")]
            let t = t ^ model_bugs::sibling_sink();
            let sink = self.routing[2 * b + (t & 1) as usize].index();
            return Exit { sink, rank: Some(t >> 1) };
        }
        while hop.is_interior() {
            let b = hop.index();
            let f = self.fan[b] as u64;
            let word = &*words[b];
            let (s, port) = if f == 2 {
                // (s + 1) mod 2 == s xor 1: a single wait-free atomic.
                let s = word.fetch_xor(1, Ordering::AcqRel);
                (s, s & 1)
            } else if f.is_power_of_two() {
                // Wrapping add preserves congruence mod a power of two, so
                // the word may run ahead of the paper's state `s`; the port
                // handed out is still exactly round-robin.
                let s = word.fetch_add(1, Ordering::AcqRel);
                (s, s & (f - 1))
            } else {
                let s = advance_cas(word, 1, f);
                (s, s)
            };
            claimed(b, Some(s), 1);
            hop = self.routing[self.route_offset[b] + port as usize];
        }
        if hop.is_counter() {
            return Exit { sink: hop.index(), rank: None };
        }
        let b = hop.index();
        let t = words[b].fetch_add(1, Ordering::AcqRel);
        claimed(b, Some(t), 1);
        let (rank, port) = div_rem(t, self.fan[b] as u64);
        Exit { sink: self.hops(b)[port as usize].index(), rank: Some(rank) }
    }

    /// Routes a whole batch — `entering[i]` tokens on every source wire `i`
    /// at once — through the shared state words in one sweep, charging
    /// **at most one atomic per balancer for the whole batch** instead of
    /// one per balancer per token. On return, `sink_counts[j]` holds how
    /// many of the tokens reached sink `j` (`sink_counts` is resized to
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
    /// and the state unchanged, so the balancer is not touched at all. A
    /// terminal word is the exception to that last shortcut: it counts
    /// arrivals, not positions, so it always advances by the full `n`.
    ///
    /// Balancers are visited in topological order, so every upstream
    /// sub-batch has been split before a downstream balancer fires. From a
    /// quiescent state the resulting per-sink counts equal the same
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
    /// state word — an empty batch is free, matching the
    /// `ProcessCounter::next_batch_for` contract.
    ///
    /// # Panics
    ///
    /// Panics if `entering.len() != fan_in()` or `words.len() != size()`.
    pub fn traverse_counts(
        &self,
        entering: &[usize],
        words: &[CachePadded<AtomicU64>],
        sink_counts: &mut Vec<usize>,
    ) {
        assert_eq!(entering.len(), self.fan_in, "one count per input wire");
        let entering = entering.iter().copied().enumerate();
        self.sweep(entering, words, sink_counts, |_, _, _| {});
        sink_counts.truncate(self.fan_out);
    }

    /// [`traverse_counts`](Self::traverse_counts) for `k` tokens that all
    /// enter on source wire `input`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= fan_in()` or `words.len() != size()`.
    pub fn traverse_batch(
        &self,
        input: usize,
        k: usize,
        words: &[CachePadded<AtomicU64>],
        sink_counts: &mut Vec<usize>,
    ) {
        assert!(input < self.fan_in, "input wire {input} out of range");
        let entering = std::iter::once((input, k));
        self.sweep(entering, words, sink_counts, |_, _, _| {});
        sink_counts.truncate(self.fan_out);
    }

    /// The wavefront behind the batched traversals: `entering` yields
    /// `(source wire, tokens)` pairs, and on return `scratch` holds `2·w`
    /// slots: `scratch[j]` tokens reached sink `j`, and if a terminal
    /// balancer feeds that sink, `scratch[w + j]` is the rank of the first
    /// of them — all a counter needs to hand out the values. A terminal
    /// word that stood at arrival count `round·f + s` when the batch
    /// claimed its run of arrivals gives port `p` consecutive ranks from
    /// `round + [p < s]`. A free-standing sink's rank slot is left 0: its
    /// counter word knows the rank. `claimed(balancer, before, n)` is told
    /// of every balancer the batch's `n > 0` tokens cross, in sweep order,
    /// right after the word's RMW with the value it held before — `None`
    /// when a uniform split left the word untouched — as [`Self::walk`]
    /// tells of a single token's.
    pub(crate) fn sweep(
        &self,
        entering: impl Iterator<Item = (usize, usize)>,
        words: &[CachePadded<AtomicU64>],
        scratch: &mut Vec<usize>,
        mut claimed: impl FnMut(usize, Option<u64>, usize),
    ) {
        assert_eq!(words.len(), self.fan.len(), "one state word per balancer");
        // One buffer, three tables: tokens arrived at each sink, each
        // sink's first rank, then tokens waiting at each balancer,
        // accumulated wavefront-style.
        let (ranks, waiting) = (self.fan_out, 2 * self.fan_out);
        let slot = |hop: Hop| hop.index() + if hop.is_counter() { 0 } else { waiting };
        scratch.clear();
        scratch.resize(waiting + self.fan.len(), 0);
        let mut total = 0;
        for (input, k) in entering {
            scratch[slot(self.entries[input])] += k;
            total += k;
        }
        for &b in &self.topo {
            let n = scratch[waiting + b];
            if n == 0 {
                continue;
            }
            let f = self.fan[b];
            let (share, rem) = div_rem(n as u64, f as u64);
            let (share, rem) = (share as usize, rem as usize);
            let word = &*words[b];
            let mut terminal = None;
            let s = if self.terminal[b] {
                let before = word.fetch_add(n as u64, Ordering::AcqRel);
                claimed(b, Some(before), n);
                let (round, s) = div_rem(before, f as u64);
                terminal = Some(round);
                s as usize
            } else if rem == 0 {
                // Uniform split, state unchanged: zero atomics.
                claimed(b, None, n);
                0
            } else {
                let (before, s) = if f == 2 {
                    // (s + n) mod 2 == s xor 1 for odd n: one wait-free
                    // atomic that also returns the prior state.
                    let before = word.fetch_xor(1, Ordering::AcqRel);
                    (before, before as usize & 1)
                } else if f.is_power_of_two() {
                    // Wrapping add preserves congruence mod a power of two.
                    let before = word.fetch_add(n as u64, Ordering::AcqRel);
                    (before, before as usize & (f - 1))
                } else {
                    let before = advance_cas(word, rem as u64, f as u64);
                    (before, before as usize)
                };
                claimed(b, Some(before), n);
                s
            };
            for (p, &hop) in self.hops(b).iter().enumerate() {
                // Ports s, s+1, …, s+rem−1 (mod f) carry the remainder.
                let ahead = if p >= s { p - s } else { p + f - s };
                scratch[slot(hop)] += share + usize::from(ahead < rem);
                if let Some(round) = terminal {
                    scratch[ranks + hop.index()] = (round + u64::from(p < s)) as usize;
                }
            }
        }
        scratch.truncate(waiting);
        debug_assert_eq!(
            scratch[..ranks].iter().sum::<usize>(),
            total,
            "feed-forward conservation: every token reaches exactly one sink"
        );
    }

    /// A fresh bank of state words, one per balancer, each on its own
    /// cache line, all zero: an interior balancer's word is its round-robin
    /// position (modulo its fan-out), a terminal balancer's the number of
    /// tokens that have arrived at it.
    pub fn new_balancer_states(&self) -> Box<[CachePadded<AtomicU64>]> {
        (0..self.fan.len()).map(|_| CachePadded::new(AtomicU64::new(0))).collect()
    }
}

/// Deliberately seedable bugs for the model checker's own validation
/// (`model-check` builds only — see `tests/model_check.rs`), like
/// `combine::model_bugs`.
#[cfg(feature = "model-check")]
pub mod model_bugs {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When `true`, a single token leaving a terminal balancer of an
    /// all-binary network through [`super::CompiledNetwork::traverse`] is
    /// handed the *other* port's sink at its own rank: its value is its
    /// sibling's. Whenever every terminal word ends on an even count the
    /// values handed out are still exactly `0..n` and the words still read
    /// a step, so output checks alone cannot see it; no Section 2.2
    /// execution hands those values in that order.
    pub static SIBLING_SINK: AtomicBool = AtomicBool::new(false);

    pub(super) fn sibling_sink() -> u64 {
        u64::from(SIBLING_SINK.load(Ordering::Relaxed))
    }
}

/// `(x / f, x mod f)`, by shift and mask when `f` is a power of two: no
/// classic construction pays a hardware divide per word.
#[inline]
fn div_rem(x: u64, f: u64) -> (u64, u64) {
    if f.is_power_of_two() {
        (x >> f.trailing_zeros(), x & (f - 1))
    } else {
        (x / f, x % f)
    }
}

/// Advances an irregular-fan-out balancer's position by `by` (mod `f`) and
/// returns the position it stood at: a CAS loop, paced by a bounded-spin
/// [`Backoff`] per failure.
fn advance_cas(word: &AtomicU64, by: u64, f: u64) -> u64 {
    let backoff = Backoff::new();
    let mut s = word.load(Ordering::Acquire);
    loop {
        match word.compare_exchange_weak(s, (s + by) % f, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => break prev,
            Err(actual) => {
                backoff.snooze();
                s = actual;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::builder::LayeredBuilder;
    use cnet_topology::construct::{append_adjacent_balancer, bitonic, counting_tree, periodic};
    use cnet_topology::state::NetworkState;

    /// One (3,3)-balancer: terminal, and of a fan-out that is no power of
    /// two.
    fn lone_fan3() -> Network {
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        lb.finish().unwrap()
    }

    /// A (3,3)-balancer over a (2,2) one: the fan-3 balancer is interior
    /// (it takes the CAS path) and has mixed outputs, so sink 2 is
    /// free-standing.
    fn fan3_over_fan2() -> Network {
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        lb.balancer(&[0, 1]);
        lb.finish().unwrap()
    }

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
                        assert_eq!(hop.is_terminal(), engine.is_terminal(balancer.index()));
                    }
                    WireEnd::Sink(s) => {
                        assert!(hop.is_counter() && !hop.is_terminal());
                        assert_eq!(hop.index(), s.index());
                    }
                }
            }
        }
    }

    #[test]
    fn the_last_layer_is_terminal_and_leaves_no_free_sink() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let engine = CompiledNetwork::compile(&net);
            for (b, _) in net.balancers() {
                let last = net.balancer_depth(b) == net.depth();
                assert_eq!(engine.is_terminal(b.index()), last, "{net} {b}");
            }
            assert!(engine.free_sinks().is_empty(), "{net}");
        }
    }

    #[test]
    fn sinks_not_behind_a_terminal_balancer_are_free() {
        // B(4) with a balancer appended across outputs 1 and 2: the two
        // last-layer balancers of B(4) now have mixed outputs.
        let net = append_adjacent_balancer(&bitonic(4).unwrap(), 1).unwrap();
        let engine = CompiledNetwork::compile(&net);
        assert_eq!(engine.free_sinks(), [0, 3]);
        assert_eq!((0..engine.size()).filter(|&b| engine.is_terminal(b)).count(), 1);
        // A line no balancer touches runs from its source straight to its
        // sink.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1]);
        let engine = CompiledNetwork::compile(&lb.finish().unwrap());
        assert_eq!(engine.free_sinks(), [2]);
        assert!(engine.entry(2).is_counter());
        assert_eq!(CompiledNetwork::compile(&fan3_over_fan2()).free_sinks(), [2]);
    }

    #[test]
    fn traverse_matches_reference_semantics() {
        let extended = append_adjacent_balancer(&bitonic(4).unwrap(), 1).unwrap();
        for net in [
            bitonic(8).unwrap(),
            periodic(8).unwrap(),
            counting_tree(8).unwrap(),
            extended,
            lone_fan3(),
            fan3_over_fan2(),
        ] {
            let engine = CompiledNetwork::compile(&net);
            let states = engine.new_balancer_states();
            let mut reference = NetworkState::new(&net);
            let w = net.fan_out() as u64;
            for k in 0..64usize {
                let input = k % net.fan_in();
                let exit = engine.traverse(input, &states);
                let expect = reference.traverse(&net, input);
                assert_eq!(exit.sink, expect.sink.index(), "{net}");
                // A ranked exit is the value without a counter word.
                match exit.rank {
                    Some(rank) => assert_eq!(exit.sink as u64 + w * rank, expect.value, "{net}"),
                    None => assert!(engine.free_sinks().contains(&exit.sink), "{net}"),
                }
            }
        }
    }

    #[test]
    fn a_terminal_word_counts_arrivals_at_any_fan_out() {
        // Fan-out 3 is not a power of two, but the balancer is terminal, so
        // it is one `fetch_add` all the same: port `t mod 3`, rank `⌊t/3⌋`.
        let engine = CompiledNetwork::compile(&lone_fan3());
        let states = engine.new_balancer_states();
        let exits: Vec<(usize, Option<u64>)> = (0..7)
            .map(|_| engine.traverse(0, &states))
            .map(|exit| (exit.sink, exit.rank))
            .collect();
        let expect: Vec<_> = (0..7).map(|t| (t % 3, Some(t as u64 / 3))).collect();
        assert_eq!(exits, expect);
        assert_eq!(states[0].load(Ordering::Acquire), 7);
    }

    #[test]
    fn interior_irregular_fan_outs_use_the_cas_path_correctly() {
        let engine = CompiledNetwork::compile(&fan3_over_fan2());
        let states = engine.new_balancer_states();
        let sinks: Vec<usize> = (0..7).map(|_| engine.traverse(0, &states).sink).collect();
        // Round-robin over ports 0,1,2; ports 0 and 1 lead to the fan-2
        // balancer, which alternates in step.
        assert_eq!(sinks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(states[0].load(Ordering::Acquire), 7 % 3, "the CAS keeps a position");
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
        states: &[CachePadded<AtomicU64>],
    ) -> Vec<usize> {
        let mut counts = vec![0usize; engine.fan_out()];
        for _ in 0..k {
            counts[engine.traverse(input, states).sink] += 1;
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
        // vice versa) on every specialization: parity xor, masked add, CAS,
        // and the terminal arrival count.
        for net in [bitonic(8).unwrap(), counting_tree(8).unwrap(), lone_fan3(), fan3_over_fan2()] {
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
                        mixed_counts[engine.traverse(input, &mixed).sink] += 1;
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
        // A batch of 7 from state 0 through the interior (3,3)-balancer:
        // ports 0,1,2 repeat, so it sends on [3,2,2] and stands at
        // 7 mod 3 = 1; the five tokens reaching the fan-2 balancer split
        // [3,2].
        let engine = CompiledNetwork::compile(&fan3_over_fan2());
        let states = engine.new_balancer_states();
        let mut counts = Vec::new();
        engine.traverse_batch(0, 7, &states, &mut counts);
        assert_eq!(counts, vec![3, 2, 2]);
        assert_eq!(states[0].load(Ordering::Acquire), 1);
        assert_eq!(engine.traverse(0, &states).sink, 1, "port 1, then the fan-2 balancer's port 1");
    }

    #[test]
    fn a_sweep_reports_each_terminal_claim() {
        // 5 tokens into B(2)'s one balancer after 3 singles: the batch
        // claims arrivals 3..8 and is told so.
        let engine = CompiledNetwork::compile(&bitonic(2).unwrap());
        let states = engine.new_balancer_states();
        for _ in 0..3 {
            engine.traverse(1, &states);
        }
        let (mut scratch, mut claims) = (Vec::new(), Vec::new());
        let entering = [(0, 2), (1, 3)].into_iter();
        engine.sweep(entering, &states, &mut scratch, |b, before, n| claims.push((b, before, n)));
        assert_eq!(claims, [(0, Some(3), 5)], "one claim of five arrivals");
        assert_eq!(scratch[..2], [2, 3], "arrivals 3..8 leave by ports 1,0,1,0,1");
        // The word stood at 3 = 1·2 + 1: port 0's first token has rank
        // 1 + [0 < 1] = 2, port 1's rank 1 + [1 < 1] = 1.
        assert_eq!(scratch[2..], [2, 1], "values 4, 6 at sink 0 and 3, 5, 7 at sink 1");
    }

    #[test]
    fn a_walk_reports_each_claim_with_the_word_before_it() {
        // After one token on wire 0, a second one finds the words its path
        // shares with the first already moved: each word it writes is
        // reported once, in path order, with what it held before, and the
        // last — terminal — word's prior value gives the sink.
        for net in [bitonic(4).unwrap(), fan3_over_fan2()] {
            let engine = CompiledNetwork::compile(&net);
            let states = engine.new_balancer_states();
            engine.traverse(0, &states);
            let before: Vec<u64> = states.iter().map(|w| w.load(Ordering::Acquire)).collect();
            let mut claims = Vec::new();
            let exit = engine.walk(0, &states, |b, word, n| claims.push((b, word, n)));
            assert_eq!(claims.len(), net.depth(), "{net}: one claim per layer");
            for &(b, word, n) in &claims {
                assert_eq!((word, n), (Some(before[b]), 1), "{net}: balancer {b}");
            }
            let last = claims[claims.len() - 1].0;
            assert!(engine.is_terminal(last) && exit.rank == Some(before[last] / 2), "{net}");
            assert_eq!(engine.hops(last)[before[last] as usize % 2].index(), exit.sink, "{net}");
        }
    }

    #[test]
    fn uniform_batches_skip_interior_words_but_advance_terminal_ones() {
        // A multiple-of-fan batch splits uniformly over an interior
        // balancer without an atomic; a terminal word counts arrivals, so it
        // advances all the same and the next token's rank reflects it.
        let net = bitonic(8).unwrap();
        let engine = CompiledNetwork::compile(&net);
        let first = engine.traverse(0, &engine.new_balancer_states());
        let mut counts = Vec::new();
        let fresh = engine.new_balancer_states();
        engine.traverse_batch(0, 1024, &fresh, &mut counts);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        assert!(counts.iter().all(|&c| c == 1024 / 8), "uniform split: {counts:?}");
        for b in 0..engine.size() {
            let expect = if engine.is_terminal(b) { 256 } else { 0 };
            assert_eq!(fresh[b].load(Ordering::Acquire), expect, "balancer {b}");
        }
        let next = engine.traverse(0, &fresh);
        assert_eq!(next.sink, first.sink, "positions must be unchanged");
        assert_eq!((first.rank, next.rank), (Some(0), Some(128)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_batch_input_panics() {
        let engine = CompiledNetwork::compile(&bitonic(2).unwrap());
        let states = engine.new_balancer_states();
        engine.traverse_batch(5, 1, &states, &mut Vec::new());
    }

    /// The depth at which the paths from input wires `a` and `c` first
    /// meet, by exhaustive walk of the tables: `None` if they never do.
    fn meeting_depth(net: &Network, engine: &CompiledNetwork, a: usize, c: usize) -> Option<usize> {
        let (from_a, from_c) = (engine.reachable_from(a), engine.reachable_from(c));
        (0..engine.size())
            .filter(|&b| from_a[b] && from_c[b])
            .map(|b| net.balancer_depth(BalancerId(b)))
            .min()
    }

    #[test]
    fn the_entry_plan_is_a_farthest_first_permutation() {
        let mut disjoint = LayeredBuilder::new(4);
        disjoint.balancer(&[0, 1]);
        disjoint.balancer(&[2, 3]);
        for net in [
            bitonic(8).unwrap(),
            bitonic(16).unwrap(),
            periodic(8).unwrap(),
            counting_tree(8).unwrap(),
            fan3_over_fan2(),
            disjoint.finish().unwrap(),
        ] {
            let engine = CompiledNetwork::compile(&net);
            let plan = engine.entry_plan().wires();
            let mut sorted = plan.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..net.fan_in()).collect::<Vec<_>>(), "{net}: a permutation");
            assert_eq!(engine.entry_for(0), 0, "{net}");
            assert_eq!(engine.entry_for(net.fan_in() + 1), plan[1 % plan.len()], "{net}: wraps");
            // Each wire is, among those left, one whose first meeting with
            // the wires before it lies deepest (never meeting is deepest).
            let distance = |x: usize, chosen: &[usize]| {
                chosen
                    .iter()
                    .map(|&c| meeting_depth(&net, &engine, x, c).unwrap_or(usize::MAX))
                    .min()
            };
            for k in 1..plan.len() {
                let best = plan[k..].iter().map(|&x| distance(x, &plan[..k])).max().unwrap();
                assert_eq!(distance(plan[k], &plan[..k]), best, "{net}: position {k} of {plan:?}");
            }
        }
        // Two disjoint balancers: process 1 goes to the one process 0 is not on.
        let mut disjoint = LayeredBuilder::new(4);
        disjoint.balancer(&[0, 1]);
        disjoint.balancer(&[2, 3]);
        let engine = CompiledNetwork::compile(&disjoint.finish().unwrap());
        assert_eq!(engine.entry_plan().wires(), [0, 2, 1, 3]);
    }

    #[test]
    fn on_the_bitonic_network_the_first_processes_share_only_the_mergers() {
        // B(w) is two B(w/2) under a merger, recursively: the first 2^j
        // processes land in 2^j different B(w/2^j) blocks, so no two of
        // them share a balancer at or above depth d(B(w/2^j)).
        for lgw in 1..=5usize {
            let w = 1 << lgw;
            let net = bitonic(w).unwrap();
            let engine = CompiledNetwork::compile(&net);
            for j in 0..=lgw {
                let block_depth = bitonic(w >> j).map_or(0, |block| block.depth());
                let first: Vec<usize> = (0..1 << j).map(|p| engine.entry_for(p)).collect();
                for (i, &a) in first.iter().enumerate() {
                    for &c in &first[..i] {
                        let meet = meeting_depth(&net, &engine, a, c).expect("B(w) counts");
                        assert!(
                            meet > block_depth,
                            "B({w}): wires {a} and {c} of the first {} meet at depth {meet}",
                            1 << j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hop_debug_is_informative() {
        assert_eq!(format!("{:?}", Hop::balancer(3)), "Balancer(3)");
        assert_eq!(format!("{:?}", Hop::counter(1)), "Counter(1)");
        let engine = CompiledNetwork::compile(&bitonic(2).unwrap());
        assert_eq!(format!("{:?}", engine.entry(0)), "Terminal(0)");
    }
}
