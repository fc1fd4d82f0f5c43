//! The shared-memory counting network (Section 2.7).
//!
//! [`SharedNetworkCounter`] traverses the [`CompiledNetwork`] flat routing
//! tables with cache-line-padded state words, one per balancer; the last
//! balancer on a token's path *is* its counter (see
//! `crates/runtime/src/compiled.rs`, "Fewer shared lines per token", and
//! DESIGN.md, "Runtime performance"). It sends process `p` in on wire
//! [`CompiledNetwork::entry_for`]`(p)`, as every other runtime over a
//! network does.
//!
//! Under the `model-check` feature the counter also keeps a claim log
//! (`counter::claims`): every claim its traversals make on a state word,
//! in the order the claims took effect. `tests/model_check.rs` rebuilds the
//! Section 2.2 execution each explored schedule claims to be and has
//! `cnet_sim::validate` check it.

use crate::compiled::CompiledNetwork;
use crate::ProcessCounter;
use cnet_topology::Network;
use cnet_util::sync::atomic::{AtomicU64, Ordering};
use cnet_util::sync::CachePadded;

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
    /// Every claim on the words above, in the order the claims took effect.
    #[cfg(feature = "model-check")]
    log: std::sync::Mutex<claims::ClaimLog>,
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
        SharedNetworkCounter {
            engine,
            balancers,
            counters,
            #[cfg(feature = "model-check")]
            log: Default::default(),
        }
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
        let traversal = self.log_enter(std::iter::once((input, 1)));
        let exit = self
            .engine
            .walk(input, &self.balancers, |b, before, n| self.log_claim(traversal, b, before, n));
        let w = self.engine.fan_out() as u64;
        let value = match exit.rank {
            Some(rank) => exit.sink as u64 + w * rank,
            None => {
                let slot = self
                    .engine
                    .free_sinks()
                    .binary_search(&exit.sink)
                    .expect("a sink no terminal balancer feeds owns a counter");
                let value = self.counters[slot].fetch_add(w, Ordering::AcqRel);
                self.log_claim(traversal, self.engine.size() + exit.sink, Some(value), 1);
                value
            }
        };
        self.log_values(traversal, &[value]);
        value
    }

    /// Shepherds `n` tokens from input wire `input` in one batched sweep —
    /// at most one atomic per balancer (see
    /// [`CompiledNetwork::traverse_counts`]) plus one `fetch_add` per
    /// reached free-standing counter — appending the `n` values obtained to
    /// `out`, ascending: row `v / w`, column `v mod w`, where `w` is the
    /// fan-out. A word reached by `c` of the tokens hands out `c`
    /// consecutive round-robin values with a single `fetch_add`. The values
    /// are gap-free against every concurrent caller, batched or not,
    /// because each atomic claims its whole sub-batch at once. `scratch` is
    /// the sweep's working buffer; a caller that keeps it allocates nothing
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

    /// Sweeps the batch and appends its `total` values ascending: row
    /// `v / w`, column `v mod w`. The sweep leaves each sink's count and
    /// first rank in `scratch`: a terminal word that stood at `round·f + s`
    /// gives port `p` consecutive ranks from `round + [p < s]`, and a
    /// free-standing counter reached by `c` of the tokens hands out `c`
    /// consecutive values in one `fetch_add`, from rank `(base − j)/w`.
    /// The values are then read off row by row, each row's active sinks
    /// in index order. Each pass emits at least one value and visits `w`
    /// sinks, so the merge costs O(total·w) at worst; when the sinks'
    /// ranks start within a row of each other, as a lone caller's do, it
    /// emits about `w` values a pass and is linear.
    fn claim(
        &self,
        entering: impl Iterator<Item = (usize, usize)> + Clone,
        total: usize,
        scratch: &mut Vec<usize>,
        out: &mut Vec<u64>,
    ) {
        let traversal = self.log_enter(entering.clone());
        let (w, first) = (self.engine.fan_out(), out.len());
        out.reserve(total);
        self.engine.sweep(entering, &self.balancers, scratch, |b, before, n| {
            self.log_claim(traversal, b, before, n)
        });
        let (counts, ranks) = scratch.split_at_mut(w);
        for (counter, &sink) in self.counters.iter().zip(self.engine.free_sinks()) {
            let count = counts[sink] as u64;
            if count > 0 {
                let base = counter.fetch_add(count * w as u64, Ordering::AcqRel);
                self.log_claim(traversal, self.engine.size() + sink, Some(base), count as usize);
                ranks[sink] = ((base - sink as u64) / w as u64) as usize;
            }
        }
        let active = |(&count, &rank): (&usize, &usize)| (count > 0).then_some(rank);
        let mut row = counts.iter().zip(&*ranks).filter_map(active).min();
        while let Some(r) = row {
            row = None;
            for (sink, (count, rank)) in counts.iter_mut().zip(ranks.iter_mut()).enumerate() {
                if *count > 0 && *rank == r {
                    out.push((sink + w * r) as u64);
                    *count -= 1;
                    *rank += 1;
                }
                if *count > 0 {
                    row = Some(row.map_or(*rank, |next: usize| next.min(*rank)));
                }
            }
        }
        self.log_values(traversal, &out[first..]);
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

/// The claim log's hooks: a traversal enters with its tokens per source
/// wire, claims words (a balancer's index, or `size()` plus a free-standing
/// sink's), and hands out its values. Without `model-check` they are empty
/// and inline away, so a release traversal is the plain one.
#[cfg(not(feature = "model-check"))]
impl SharedNetworkCounter {
    #[inline(always)]
    fn log_enter(&self, _entering: impl Iterator<Item = (usize, usize)>) -> usize {
        0
    }

    #[inline(always)]
    fn log_claim(&self, _traversal: usize, _word: usize, _before: Option<u64>, _tokens: usize) {}

    #[inline(always)]
    fn log_values(&self, _traversal: usize, _values: &[u64]) {}
}

#[cfg(feature = "model-check")]
impl SharedNetworkCounter {
    /// A copy of the claim log: every claim on a state word since the
    /// counter was built, in the order the claims took effect.
    pub fn claim_log(&self) -> claims::ClaimLog {
        self.log().clone()
    }

    // A `std` lock, not a shim one: taking it is no scheduling point, so a
    // claim is logged before any other thread runs.
    fn log(&self) -> std::sync::MutexGuard<'_, claims::ClaimLog> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn log_enter(&self, entering: impl Iterator<Item = (usize, usize)>) -> usize {
        let mut log = self.log();
        log.traversals.push(claims::Traversal {
            thread: std::thread::current().id(),
            entering: entering.filter(|&(_, k)| k > 0).collect(),
            values: Vec::new(),
        });
        log.traversals.len() - 1
    }

    fn log_claim(&self, traversal: usize, word: usize, before: Option<u64>, tokens: usize) {
        let size = self.engine.size();
        let word = match word.checked_sub(size) {
            Some(sink) => claims::Word::Sink(sink),
            None => claims::Word::Balancer(word),
        };
        self.log().claims.push(claims::Claim { traversal, word, before, tokens });
    }

    fn log_values(&self, traversal: usize, values: &[u64]) {
        self.log().traversals[traversal].values.extend_from_slice(values);
    }
}

/// The claim log a [`SharedNetworkCounter`] keeps under the `model-check`
/// feature: enough to rebuild the Section 2.2 execution a run claims to be.
#[cfg(feature = "model-check")]
pub mod claims {
    /// A state word: a balancer's, or a free-standing sink's counter.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Word {
        /// Balancer `b`'s word (its `BalancerId` index).
        Balancer(usize),
        /// The counter of sink `j`, one no terminal balancer feeds.
        Sink(usize),
    }

    /// One read-modify-write on a word, made for `tokens` of one
    /// traversal's tokens at once.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Claim {
        /// The claiming traversal, an index into [`ClaimLog::traversals`].
        pub traversal: usize,
        /// The word claimed.
        pub word: Word,
        /// What the word held just before; `None` when a batch crossed an
        /// interior balancer in whole rounds, leaving its word untouched.
        pub before: Option<u64>,
        /// How many of the traversal's tokens the claim moved on.
        pub tokens: usize,
    }

    /// One single-token or batched traversal.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Traversal {
        /// The thread that ran it.
        pub thread: std::thread::ThreadId,
        /// `(source wire, tokens)` for every wire a token entered on.
        pub entering: Vec<(usize, usize)>,
        /// The values handed out, in the order the caller got them.
        pub values: Vec<u64>,
    }

    /// Claims in the order they took effect, and the traversals that made
    /// them.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ClaimLog {
        /// Every claim, in the order the words were written.
        pub claims: Vec<Claim>,
        /// Every traversal, in the order it began.
        pub traversals: Vec<Traversal>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::builder::LayeredBuilder;
    use cnet_topology::construct::{append_adjacent_balancer, bitonic, counting_tree, periodic};
    use cnet_topology::state::has_step_property;
    use cnet_util::proptest::prelude::*;
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
    fn bad_batch_input_wire_panics() {
        let net = bitonic(2).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        counter.increment_batch_from(7, 3, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "one count per input wire")]
    fn spread_batches_need_one_count_per_wire() {
        let net = bitonic(4).unwrap();
        let counter = SharedNetworkCounter::new(&net);
        counter.increment_counts_from(&[1, 2], &mut Vec::new(), &mut Vec::new());
    }

    /// A (3,3)-balancer over a (2,2) one: the interior fan-3 word takes the
    /// CAS path, and sink 2 owns a free-standing counter.
    fn fan3_over_fan2() -> Network {
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        lb.balancer(&[0, 1]);
        lb.finish().unwrap()
    }

    /// The classic constructions, plus networks with free-standing sinks
    /// and an interior irregular fan-out.
    fn every_layout() -> Vec<Network> {
        vec![
            bitonic(8).unwrap(),
            periodic(8).unwrap(),
            counting_tree(8).unwrap(),
            append_adjacent_balancer(&bitonic(4).unwrap(), 1).unwrap(),
            fan3_over_fan2(),
        ]
    }

    #[test]
    fn sequential_use_matches_the_reference_on_every_layout() {
        for net in every_layout() {
            let shared = SharedNetworkCounter::new(&net);
            let mut reference = cnet_topology::state::NetworkState::new(&net);
            for k in 0..96usize {
                let input = (k * 5) % net.fan_in();
                let want = reference.traverse(&net, input).value;
                assert_eq!(shared.increment_from(input), want, "{net} token {k}");
            }
            assert_eq!(shared.output_counts(), reference.output_counts(), "{net}");
        }
    }

    #[test]
    fn concurrent_increments_are_gap_free_on_every_layout() {
        for net in every_layout() {
            let counter = SharedNetworkCounter::new(&net);
            let (threads, per_thread) = (4usize, 300usize);
            let mut values: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|p| {
                        let c = &counter;
                        s.spawn(move || (0..per_thread).map(|_| c.next_for(p)).collect::<Vec<_>>())
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            values.sort_unstable();
            let n = (threads * per_thread) as u64;
            assert_eq!(values, (0..n).collect::<Vec<_>>(), "{net}");
            assert_eq!(counter.tokens_counted(), n, "{net}");
            assert!(has_step_property(&counter.output_counts()), "{net}");
        }
    }

    #[test]
    fn a_spread_batch_hands_out_what_its_tokens_would_one_by_one() {
        for net in every_layout() {
            let spread = SharedNetworkCounter::new(&net);
            let sequential = SharedNetworkCounter::new(&net);
            let (mut got, mut want, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
            for round in 0..4usize {
                // Uneven counts, one wire left empty each round.
                let entering: Vec<usize> = (0..net.fan_in())
                    .map(|i| if i == round % net.fan_in() { 0 } else { 3 * i + round + 1 })
                    .collect();
                spread.increment_counts_from(&entering, &mut scratch, &mut got);
                for (input, &k) in entering.iter().enumerate() {
                    want.extend((0..k).map(|_| sequential.increment_from(input)));
                }
                assert_eq!(got.len(), want.len(), "{net} round {round}");
            }
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{net}");
            assert_eq!(spread.output_counts(), sequential.output_counts(), "{net}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// From any prior state, a batch hands out ascending values that are
        /// exactly what its tokens would get one by one on a twin counter in
        /// the same state, and each sink's values in the order that sink's
        /// tokens would leave it (what the model checker's per-sink replay
        /// reads).
        fn a_batch_is_its_tokens_one_by_one_in_ascending_order(
            layout in 0usize..5,
            prior in prop::collection::vec(0usize..8, 0..48),
            entering in prop::collection::vec(0usize..24, 8),
            one_wire in proptest::bool::ANY,
        ) {
            let net = &every_layout()[layout];
            let (fan_in, w) = (net.fan_in(), net.fan_out() as u64);
            let batched = SharedNetworkCounter::new(net);
            let twin = SharedNetworkCounter::new(net);
            for &p in &prior {
                prop_assert_eq!(batched.increment_from(p % fan_in), twin.increment_from(p % fan_in));
            }
            let mut entering = entering[..fan_in].to_vec();
            let mut got = Vec::new();
            if one_wire {
                let (input, n) = (prior.len() % fan_in, entering[0]);
                entering.iter_mut().for_each(|k| *k = 0);
                entering[input] = n;
                batched.increment_batch_from(input, n, &mut Vec::new(), &mut got);
            } else {
                batched.increment_counts_from(&entering, &mut Vec::new(), &mut got);
            }
            let mut want = Vec::new();
            for (input, &k) in entering.iter().enumerate() {
                want.extend((0..k).map(|_| twin.increment_from(input)));
            }
            prop_assert!(got.windows(2).all(|v| v[0] < v[1]), "{} not ascending: {:?}", net, got);
            for sink in 0..w {
                let at = |values: &[u64]| values.iter().copied().filter(|v| v % w == sink).collect::<Vec<_>>();
                prop_assert_eq!(at(&got), at(&want), "{} sink {}", net, sink);
            }
            want.sort_unstable();
            prop_assert_eq!(got, want, "{}", net);
        }
    }

    #[test]
    fn process_calls_enter_on_the_entry_plan() {
        let net = bitonic(8).unwrap();
        let by_process = SharedNetworkCounter::new(&net);
        let by_wire = SharedNetworkCounter::new(&net);
        let engine = by_wire.engine();
        for p in 0..20usize {
            let want = by_wire.increment_from(engine.entry_for(p));
            assert_eq!(by_process.next_for(p), want, "process {p}");
        }
        let mut want = Vec::new();
        by_wire.increment_batch_from(engine.entry_for(3), 11, &mut Vec::new(), &mut want);
        assert_eq!(by_process.next_batch_for(3, 11), want);
    }

    #[test]
    fn output_counts_read_terminal_words_by_port_and_free_counters_by_stride() {
        // One (3,3)-balancer: terminal, so its word counts arrivals and
        // 7 of them leave by ports 0,1,2,0,1,2,0.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1, 2]);
        let counter = SharedNetworkCounter::new(&lb.finish().unwrap());
        let values: Vec<u64> = (0..7).map(|_| counter.increment_from(0)).collect();
        assert_eq!(values, (0..7).collect::<Vec<_>>());
        assert_eq!(counter.output_counts(), [3, 2, 2]);
        // A line no balancer touches: sink 2's counter starts at 2 and
        // strides by the fan-out.
        let mut lb = LayeredBuilder::new(3);
        lb.balancer(&[0, 1]);
        let counter = SharedNetworkCounter::new(&lb.finish().unwrap());
        let values: Vec<u64> = (0..3).map(|_| counter.increment_from(2)).collect();
        assert_eq!(values, [2, 5, 8]);
        assert_eq!(counter.output_counts(), [0, 0, 3]);
        assert_eq!(counter.tokens_counted(), 3);
    }
}
