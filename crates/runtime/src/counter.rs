//! The shared-memory counting network (Section 2.7).
//!
//! Two implementations live here:
//!
//! * [`SharedNetworkCounter`] — the production path: traverses the
//!   [`CompiledNetwork`] flat routing tables with cache-line-padded state
//!   words, one per balancer; the last balancer on a token's path *is* its
//!   counter (see `crates/runtime/src/compiled.rs`, "Fewer shared lines
//!   per token", and DESIGN.md, "Runtime performance");
//! * [`GraphWalkCounter`] — the retained pre-compilation reference: the
//!   same lock-free protocol, unfused — every balancer a position, every
//!   sink a counter — resolving every hop through the [`Network`] graph
//!   with unpadded state vectors. It exists so the benchmark pipeline can
//!   measure the compiled engine against its own baseline in a single run,
//!   and so equivalence tests can hold the two traversals against each
//!   other.
//!
//! Both (and every other runtime over a network) send process `p` in on
//! wire [`CompiledNetwork::entry_for`]`(p)`.

use crate::compiled::{CompiledNetwork, EntryPlan};
use crate::ProcessCounter;
use cnet_topology::ids::SourceId;
use cnet_topology::network::WireEnd;
use cnet_topology::Network;
use cnet_util::sync::CachePadded;
use cnet_util::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A counting network laid out in shared memory: one atomic word per
/// balancer — every word on its own cache line, routed by compiled flat
/// tables — and no counter words at all on the classic constructions,
/// where every sink sits behind a terminal balancer whose word hands out
/// the values (only a sink fed by a source wire, or by a balancer some of
/// whose outputs go on to other balancers, owns a counter).
///
/// Threads traverse the structure with [`increment_from`]; each balancer
/// visit is a single atomic instruction on the classic constructions
/// (`fetch_xor`/`fetch_add` — see [`CompiledNetwork::traverse`]), the last
/// of them yielding the value — so the whole operation is lock-free
/// (wait-free on power-of-two fan-outs) and contention spreads across the
/// network instead of piling onto one word.
///
/// [`increment_from`]: SharedNetworkCounter::increment_from
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_runtime::SharedNetworkCounter;
/// use std::thread;
///
/// let net = bitonic(8)?;
/// let counter = SharedNetworkCounter::new(&net);
/// let mut values: Vec<u64> = thread::scope(|s| {
///     let handles: Vec<_> = (0..8)
///         .map(|p| {
///             let counter = &counter;
///             s.spawn(move || (0..100).map(|_| counter.increment_from(p % 8)).collect::<Vec<_>>())
///         })
///         .collect();
///     handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
/// });
/// values.sort_unstable();
/// assert_eq!(values, (0..800).collect::<Vec<_>>()); // no gaps, no duplicates
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Debug)]
pub struct SharedNetworkCounter {
    engine: CompiledNetwork,
    /// One word per balancer, one cache line each: the round-robin position
    /// of an interior balancer, the arrival count of a terminal one.
    balancers: Box<[CachePadded<AtomicU64>]>,
    /// Next value handed out by each free-standing sink, in
    /// [`CompiledNetwork::free_sinks`] order; sink `j`'s starts at `j` and
    /// strides by the fan-out. One cache line each.
    counters: Box<[CachePadded<AtomicU64>]>,
}

impl SharedNetworkCounter {
    /// Compiles the network and lays it out in shared memory, all balancers
    /// in their initial state and sink `j` poised to hand out `j`.
    pub fn new(net: &Network) -> Self {
        SharedNetworkCounter::from_compiled(CompiledNetwork::compile(net))
    }

    /// Lays out a counter over an already-compiled network (sharing no
    /// state with any other counter over the same engine).
    pub fn from_compiled(engine: CompiledNetwork) -> Self {
        let balancers = engine.new_balancer_states();
        let counters = engine
            .free_sinks()
            .iter()
            .map(|&j| CachePadded::new(AtomicU64::new(j as u64)))
            .collect();
        SharedNetworkCounter { engine, balancers, counters }
    }

    /// The compiled routing tables this counter traverses.
    pub fn engine(&self) -> &CompiledNetwork {
        &self.engine
    }

    /// Shepherds one token from input wire `input` to a sink and returns
    /// the value obtained. Safe to call from any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if `input >= engine().fan_in()`.
    pub fn increment_from(&self, input: usize) -> u64 {
        let exit = self.engine.traverse(input, &self.balancers);
        let w = self.engine.fan_out() as u64;
        match exit.rank {
            Some(rank) => exit.sink as u64 + w * rank,
            None => {
                let slot = self
                    .engine
                    .free_sinks()
                    .binary_search(&exit.sink)
                    .expect("a sink no terminal balancer feeds owns a counter");
                self.counters[slot].fetch_add(w, Ordering::AcqRel)
            }
        }
    }

    /// Shepherds `n` tokens from input wire `input` in one batched sweep —
    /// at most one atomic per balancer (see
    /// [`CompiledNetwork::traverse_counts`]) plus one `fetch_add` per
    /// reached free-standing counter — appending the `n` values obtained to
    /// `out`. A word reached by `c` of the tokens hands out `c` consecutive
    /// round-robin values with a single `fetch_add`. The values are
    /// gap-free against every concurrent caller, batched or not, because
    /// each atomic claims its whole sub-batch at once. `scratch` is the
    /// sweep's working buffer; a caller that keeps it allocates nothing
    /// here.
    ///
    /// # Panics
    ///
    /// Panics if `input >= engine().fan_in()`.
    pub fn increment_batch_from(
        &self,
        input: usize,
        n: usize,
        scratch: &mut Vec<usize>,
        out: &mut Vec<u64>,
    ) {
        assert!(input < self.engine.fan_in(), "input wire {input} out of range");
        self.claim(std::iter::once((input, n)), n, scratch, out);
    }

    /// [`increment_batch_from`](Self::increment_batch_from) for a batch
    /// spread over the input wires, `entering[i]` tokens on wire `i` — what
    /// a partition cut delivers to the node that owns the counters.
    ///
    /// # Panics
    ///
    /// Panics if `entering.len() != engine().fan_in()`.
    pub fn increment_counts_from(
        &self,
        entering: &[usize],
        scratch: &mut Vec<usize>,
        out: &mut Vec<u64>,
    ) {
        assert_eq!(entering.len(), self.engine.fan_in(), "one count per input wire");
        let total = entering.iter().sum();
        self.claim(entering.iter().copied().enumerate(), total, scratch, out);
    }

    /// Sweeps the batch and appends its `total` values, grouped by sink: a
    /// terminal word that stood at `round·f + s` gives port `p` consecutive
    /// ranks from `round + [p < s]`, and a free-standing counter reached
    /// by `c` of the tokens hands out `c` consecutive values in one
    /// `fetch_add`.
    fn claim(
        &self,
        entering: impl Iterator<Item = (usize, usize)>,
        total: usize,
        scratch: &mut Vec<usize>,
        out: &mut Vec<u64>,
    ) {
        let w = self.engine.fan_out() as u64;
        out.reserve(total);
        self.engine.sweep(entering, &self.balancers, scratch, |hops, round, s, counts| {
            for (port, hop) in hops.iter().enumerate() {
                let base = hop.index() as u64 + w * (round + u64::from(port < s));
                out.extend((0..counts[hop.index()] as u64).map(|i| base + i * w));
            }
        });
        for (counter, &sink) in self.counters.iter().zip(self.engine.free_sinks()) {
            let count = scratch[sink] as u64;
            if count > 0 {
                let base = counter.fetch_add(count * w, Ordering::AcqRel);
                out.extend((0..count).map(|i| base + i * w));
            }
        }
    }

    /// The number of tokens that have fully traversed the network so far
    /// (exact only in quiescent moments).
    pub fn tokens_counted(&self) -> u64 {
        self.output_counts().iter().sum()
    }

    /// Reads the per-sink token counts (exact only in quiescent moments)
    /// — the history variables `y_j`, for step-property checks. A terminal
    /// word `t` of fan-out `f` has sent `⌊t/f⌋ + [p < t mod f]` tokens out
    /// of port `p`.
    pub fn output_counts(&self) -> Vec<u64> {
        let w = self.engine.fan_out() as u64;
        let mut counts = vec![0; self.engine.fan_out()];
        for (counter, &sink) in self.counters.iter().zip(self.engine.free_sinks()) {
            counts[sink] = (counter.load(Ordering::Acquire) - sink as u64) / w;
        }
        for b in (0..self.engine.size()).filter(|&b| self.engine.is_terminal(b)) {
            let arrivals = self.balancers[b].load(Ordering::Acquire);
            let f = self.engine.balancer_fan_out(b) as u64;
            for (port, hop) in self.engine.hops(b).iter().enumerate() {
                counts[hop.index()] = arrivals / f + u64::from((port as u64) < arrivals % f);
            }
        }
        counts
    }
}

impl ProcessCounter for SharedNetworkCounter {
    #[inline]
    fn next_for(&self, process: usize) -> u64 {
        self.increment_from(self.engine.entry_for(process))
    }

    fn next_batch_for(&self, process: usize, n: usize) -> Vec<u64> {
        let mut values = Vec::with_capacity(n);
        self.increment_batch_from(self.engine.entry_for(process), n, &mut Vec::new(), &mut values);
        values
    }
}

/// The pre-compilation shared-memory counter, retained as a measured
/// baseline and as the unfused oracle: every hop resolves through the
/// [`Network`] graph (wire lookup, enum match, balancer record, output-port
/// lookup), balancer updates go through a `fetch_update` CAS loop, every
/// sink has a counter, and the state words sit unpadded in plain `Vec`s —
/// so logically independent balancers share cache lines.
///
/// Semantically identical to [`SharedNetworkCounter`] (the equivalence
/// property test holds the two against each other), entry plan included;
/// only the constant factors differ. `BENCH_throughput.json` records both.
#[derive(Debug)]
pub struct GraphWalkCounter {
    net: Network,
    plan: EntryPlan,
    balancers: Vec<AtomicUsize>,
    counters: Vec<AtomicU64>,
}

impl GraphWalkCounter {
    /// Lays the network out in shared memory, graph-walk style.
    pub fn new(net: &Network) -> Self {
        GraphWalkCounter {
            net: net.clone(),
            plan: CompiledNetwork::compile(net).entry_plan().clone(),
            balancers: (0..net.size()).map(|_| AtomicUsize::new(0)).collect(),
            counters: (0..net.fan_out()).map(|j| AtomicU64::new(j as u64)).collect(),
        }
    }

    /// The network this counter walks.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Shepherds one token from input wire `input` to a counter and returns
    /// the value obtained, resolving every hop through the graph.
    ///
    /// # Panics
    ///
    /// Panics if `input >= network().fan_in()`.
    pub fn increment_from(&self, input: usize) -> u64 {
        assert!(input < self.net.fan_in(), "input wire {input} out of range");
        let mut wire = self.net.source_wire(SourceId(input));
        loop {
            match self.net.wire(wire).end {
                WireEnd::Balancer { balancer, .. } => {
                    let bal = self.net.balancer(balancer);
                    let f = bal.fan_out();
                    let port = self.balancers[balancer.index()]
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| {
                            Some((s + 1) % f)
                        })
                        .expect("fetch_update closure always returns Some");
                    wire = bal.output(port);
                }
                WireEnd::Sink(sink) => {
                    return self.counters[sink.index()]
                        .fetch_add(self.net.fan_out() as u64, Ordering::AcqRel);
                }
            }
        }
    }

    /// Per-counter token counts (exact only in quiescent moments).
    pub fn output_counts(&self) -> Vec<u64> {
        let w = self.net.fan_out() as u64;
        self.counters
            .iter()
            .enumerate()
            .map(|(j, c)| (c.load(Ordering::Acquire) - j as u64) / w)
            .collect()
    }
}

impl ProcessCounter for GraphWalkCounter {
    fn next_for(&self, process: usize) -> u64 {
        self.increment_from(self.plan.entry_for(process))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::construct::{bitonic, counting_tree, periodic};
    use cnet_topology::state::has_step_property;
    use std::thread;

    #[test]
    fn sequential_use_matches_reference_semantics() {
        let net = bitonic(4).unwrap();
        let shared = SharedNetworkCounter::new(&net);
        let mut reference = cnet_topology::state::NetworkState::new(&net);
        for k in 0..32 {
            let input = k % 4;
            assert_eq!(shared.increment_from(input), reference.traverse(&net, input).value);
        }
        assert_eq!(shared.output_counts(), reference.output_counts());
    }

    #[test]
    fn compiled_and_graph_walk_agree_sequentially() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let compiled = SharedNetworkCounter::new(&net);
            let walk = GraphWalkCounter::new(&net);
            for k in 0..96usize {
                let input = k % net.fan_in();
                assert_eq!(compiled.increment_from(input), walk.increment_from(input), "{net}");
            }
            assert_eq!(compiled.output_counts(), walk.output_counts());
        }
    }

    #[test]
    fn concurrent_increments_are_gap_free() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap()] {
            let counter = SharedNetworkCounter::new(&net);
            let per_thread = 500;
            let threads = 8;
            let mut values: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|p| {
                        let c = &counter;
                        s.spawn(move || {
                            (0..per_thread).map(|_| c.increment_from(p)).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            values.sort_unstable();
            let n = (threads * per_thread) as u64;
            assert_eq!(values, (0..n).collect::<Vec<_>>());
            assert_eq!(counter.tokens_counted(), n);
        }
    }

    #[test]
    fn graph_walk_concurrent_increments_are_gap_free() {
        let net = bitonic(8).unwrap();
        let counter = GraphWalkCounter::new(&net);
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|p| {
                    let c = &counter;
                    s.spawn(move || (0..500).map(|_| c.increment_from(p)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        assert_eq!(values, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn quiescent_state_has_step_property() {
        let net = bitonic(8).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        // 8 threads, unequal token counts, all through different wires.
        thread::scope(|s| {
            for p in 0..8usize {
                let c = &counter;
                s.spawn(move || {
                    for _ in 0..(50 + 13 * p) {
                        c.increment_from(p);
                    }
                });
            }
        });
        assert!(has_step_property(&counter.output_counts()));
    }

    #[test]
    fn counting_tree_runtime() {
        let net = counting_tree(8).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = &counter;
                    s.spawn(move || (0..200).map(|_| c.increment_from(0)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        assert_eq!(values, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn batched_increments_hand_out_the_same_value_set() {
        for net in [bitonic(8).unwrap(), periodic(8).unwrap(), counting_tree(8).unwrap()] {
            let batched = SharedNetworkCounter::new(&net);
            let sequential = SharedNetworkCounter::new(&net);
            let (mut got, mut want, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
            for (round, n) in [3usize, 64, 1, 17, 8].into_iter().enumerate() {
                let input = round % net.fan_in();
                batched.increment_batch_from(input, n, &mut scratch, &mut got);
                for _ in 0..n {
                    want.push(sequential.increment_from(input));
                }
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{net}");
            assert_eq!(batched.output_counts(), sequential.output_counts());
        }
    }

    #[test]
    fn concurrent_batches_are_gap_free() {
        let net = bitonic(8).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        let per_thread = 40; // batches per thread, 25 tokens each
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..8usize)
                .map(|p| {
                    let c = &counter;
                    s.spawn(move || {
                        let (mut out, mut scratch) = (Vec::new(), Vec::new());
                        for _ in 0..per_thread {
                            if p % 2 == 0 {
                                c.increment_batch_from(p, 25, &mut scratch, &mut out);
                            } else {
                                out.extend((0..25).map(|_| c.increment_from(p)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        let n = 8 * per_thread * 25;
        assert_eq!(values, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(counter.tokens_counted(), n as u64);
    }

    #[test]
    fn next_batch_for_is_batched_and_empty_batches_are_free() {
        let net = bitonic(4).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        assert!(counter.next_batch_for(0, 0).is_empty());
        let mut values = counter.next_batch_for(1, 10);
        values.sort_unstable();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_compiled_shares_no_state() {
        let net = bitonic(4).unwrap();
        let engine = CompiledNetwork::compile(&net);
        let a = SharedNetworkCounter::from_compiled(engine.clone());
        let b = SharedNetworkCounter::from_compiled(engine);
        assert_eq!(a.increment_from(0), 0);
        assert_eq!(b.increment_from(0), 0); // fresh state, same first value
        assert_eq!(a.engine().size(), b.engine().size());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_input_wire_panics() {
        let net = bitonic(2).unwrap();
        SharedNetworkCounter::new(&net).increment_from(7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn graph_walk_bad_input_wire_panics() {
        let net = bitonic(2).unwrap();
        GraphWalkCounter::new(&net).increment_from(7);
    }
}
