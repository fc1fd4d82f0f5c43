//! Property test: the compiled traversal engine is observationally
//! identical to the sequential semantics of the network.
//!
//! Over random small counting networks, a deterministic single-threaded
//! token schedule must produce the same value from two independent
//! implementations of the same round-robin balancer semantics:
//!
//! - [`NetworkState::traverse`] — the sequential reference interpreter in
//!   `cnet-topology`, a position per balancer and a counter per sink;
//! - [`SharedNetworkCounter`] — the compiled engine (flat routing tables,
//!   wait-free `fetch_xor`/`fetch_add` specializations, the last balancer
//!   on a path fused with its counters).
//!
//! Concurrent schedules are `tests/model_check.rs`'s: there every explored
//! schedule of the compiled engine is checked to be a Section 2.2
//! execution.
//!
//! The harness logs its base seed to stderr on start; rerun a failure
//! deterministically with `CNET_PROPTEST_SEED=<seed>`.

use cnet_runtime::{CompiledNetwork, SharedNetworkCounter};
use cnet_topology::construct::{
    append_adjacent_balancer, bitonic, counting_tree, periodic, random_counting_network,
    RandomNetworkConfig,
};
use cnet_topology::state::NetworkState;
use cnet_topology::{LayeredBuilder, Network};
use cnet_util::proptest::prelude::*;
use cnet_util::sync::atomic::{AtomicU64, Ordering};
use cnet_util::sync::CachePadded;

/// A strategy over random counting networks of modest size: fans 2..=8,
/// 0..=3 random prefix columns, with and without crossing wires, over
/// either a bitonic or a periodic core.
fn random_network() -> impl Strategy<Value = Network> {
    (1usize..4, 0usize..4, prop::bool::ANY, prop::bool::ANY, 0u64..1_000_000).prop_map(
        |(lgw, prefix_columns, crossing, periodic_core, seed)| {
            let cfg =
                RandomNetworkConfig { fan: 1 << lgw, prefix_columns, crossing, periodic_core };
            random_counting_network(&cfg, seed).expect("valid config")
        },
    )
}

/// Ways to cover six lines with balancers of fan-out 2, 3 and 4.
const GROUPINGS: [&[usize]; 4] = [&[3, 3], &[2, 4], &[4, 2], &[2, 2, 2]];

/// A seeded draw of a number below `below`.
fn draws(seed: u64) -> impl FnMut(usize) -> usize {
    let mut x = seed.wrapping_mul(2).wrapping_add(1);
    move |below| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize % below
    }
}

/// Adds one layer to `lb`: balancers of the fan-outs in `grouping` over
/// lines `0..6`, shuffled. Returns the shuffled lines the grouping left
/// over.
fn shuffled_layer(
    lb: &mut LayeredBuilder,
    grouping: &[usize],
    draw: &mut impl FnMut(usize) -> usize,
) -> Vec<usize> {
    let mut lines: Vec<usize> = (0..6).collect();
    for i in (1..6).rev() {
        lines.swap(i, draw(i + 1));
    }
    let mut rest = &lines[..];
    for &fan in grouping {
        let (group, tail) = rest.split_at(fan);
        lb.balancer(group);
        rest = tail;
    }
    rest.to_vec()
}

/// Six lines, three layers, each layer one of four ways to cover the
/// (shuffled) lines with balancers of fan-out 2, 3 and 4 — so a batched
/// sweep meets the parity-xor, masked-add and CAS updates in one network,
/// and terminal words of every fan-out. A balancing network, not a
/// counting one: the equivalences below hold for any feed-forward network.
fn mixed_fan_network(seed: u64) -> Network {
    let mut draw = draws(seed);
    let mut lb = LayeredBuilder::new(6);
    for _ in 0..3 {
        let grouping = GROUPINGS[draw(GROUPINGS.len())];
        shuffled_layer(&mut lb, grouping, &mut draw);
    }
    lb.finish().expect("the layered discipline builds")
}

/// Seven lines with every way a sink can miss a terminal balancer: line 6
/// is touched by nothing, so its sink is fed straight from its source; two
/// full layers over lines `0..6` are followed by a fan-3 and a fan-2
/// balancer that leave one of those lines out, so the balancer that last
/// drove that line has mixed outputs. Returns the network and the line left
/// out.
fn irregular_network(seed: u64) -> (Network, usize) {
    let mut draw = draws(seed);
    let mut lb = LayeredBuilder::new(7);
    for _ in 0..2 {
        let grouping = GROUPINGS[draw(GROUPINGS.len())];
        shuffled_layer(&mut lb, grouping, &mut draw);
    }
    let left_out = shuffled_layer(&mut lb, &[3, 2], &mut draw);
    (lb.finish().expect("the layered discipline builds"), left_out[0])
}

/// A network for the fused step: the classic constructions (every sink
/// behind a terminal balancer), a bitonic network with a balancer appended
/// across two adjacent outputs (its last layer turns mixed), or an
/// irregular one.
fn fused_network() -> impl Strategy<Value = Network> {
    (0usize..5, 1u32..4, 0u64..1_000_000).prop_map(|(family, lgw, seed)| {
        let w = 1usize << lgw;
        match family {
            0 => bitonic(w).expect("power-of-two fan"),
            1 => periodic(w).expect("power-of-two fan"),
            2 => counting_tree(w).expect("power-of-two fan"),
            3 => {
                let base = bitonic(2 * w).expect("power-of-two fan");
                append_adjacent_balancer(&base, seed as usize % (2 * w - 1))
                    .expect("an adjacent pair")
            }
            _ => irregular_network(seed).0,
        }
    })
}

/// A network for the batched kernel: one of the classic constructions at
/// fan 2, 4 or 8 (the counting tree has a single input wire), a mixed-fan
/// one, or an irregular one.
fn batch_network() -> impl Strategy<Value = Network> {
    (0usize..5, 1u32..4, 0u64..1_000_000).prop_map(|(family, lgw, seed)| match family {
        0 => bitonic(1 << lgw).expect("power-of-two fan"),
        1 => periodic(1 << lgw).expect("power-of-two fan"),
        2 => counting_tree(1 << lgw).expect("power-of-two fan"),
        3 => mixed_fan_network(seed),
        _ => irregular_network(seed).0,
    })
}

/// Every balancer's round-robin position: its state word modulo its
/// fan-out. (The words themselves are no positions: an interior word may
/// differ by a multiple of the fan-out — a batch that splits evenly over a
/// balancer skips the atomic that `f` single tokens would each pay, and a
/// power-of-two fan-out runs ahead of its position — and a terminal word
/// counts every arrival, fan-out 2 included.)
fn positions(engine: &CompiledNetwork, states: &[CachePadded<AtomicU64>]) -> Vec<u64> {
    words(states)
        .iter()
        .enumerate()
        .map(|(b, word)| word % engine.balancer_fan_out(b) as u64)
        .collect()
}

/// The balancer state words as they stand.
fn words(states: &[CachePadded<AtomicU64>]) -> Vec<u64> {
    states.iter().map(|word| word.load(Ordering::Acquire)).collect()
}

/// The arrival counts on the terminal words: however the tokens came —
/// singly, wire by wire, all at once — these must agree exactly, not just
/// modulo the fan-out.
fn arrivals(engine: &CompiledNetwork, states: &[CachePadded<AtomicU64>]) -> Vec<u64> {
    let words = words(states);
    (0..engine.size()).filter(|&b| engine.is_terminal(b)).map(|b| words[b]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch entering on several wires at once is the same batch entered
    /// wire by wire, and the same tokens entered one by one: from a fresh
    /// state all three leave every counter with the same number of tokens
    /// and every balancer at the same round-robin position. An all-zero
    /// batch moves no word at all.
    #[test]
    fn multi_wire_batches_equal_wire_by_wire_and_token_by_token(
        net in batch_network(),
        counts in prop::collection::vec((prop::bool::ANY, 0usize..40), 8),
    ) {
        let engine = CompiledNetwork::compile(&net);
        let entering: Vec<usize> = counts[..engine.fan_in()]
            .iter()
            .map(|&(empty, count)| if empty { 0 } else { count })
            .collect();

        let together = engine.new_balancer_states();
        let mut sinks = Vec::new();
        engine.traverse_counts(&entering, &together, &mut sinks);
        prop_assert_eq!(sinks.len(), engine.fan_out());

        let by_wire = engine.new_balancer_states();
        let mut by_wire_sinks = vec![0usize; engine.fan_out()];
        let mut scratch = Vec::new();
        for (wire, &k) in entering.iter().enumerate() {
            engine.traverse_batch(wire, k, &by_wire, &mut scratch);
            for (total, n) in by_wire_sinks.iter_mut().zip(&scratch) {
                *total += n;
            }
        }
        prop_assert_eq!(&sinks, &by_wire_sinks, "wire by wire diverges on {}", net);
        prop_assert_eq!(positions(&engine, &together), positions(&engine, &by_wire));
        prop_assert_eq!(arrivals(&engine, &together), arrivals(&engine, &by_wire));

        let by_token = engine.new_balancer_states();
        let mut by_token_sinks = vec![0usize; engine.fan_out()];
        for (wire, &k) in entering.iter().enumerate() {
            for _ in 0..k {
                by_token_sinks[engine.traverse(wire, &by_token).sink] += 1;
            }
        }
        prop_assert_eq!(&sinks, &by_token_sinks, "token by token diverges on {}", net);
        prop_assert_eq!(positions(&engine, &together), positions(&engine, &by_token));
        prop_assert_eq!(arrivals(&engine, &together), arrivals(&engine, &by_token));

        let before = words(&together);
        engine.traverse_counts(&vec![0; engine.fan_in()], &together, &mut sinks);
        prop_assert_eq!(words(&together), before, "an empty batch touched a word");
        prop_assert!(sinks.iter().all(|&n| n == 0));
    }

    /// Under an identical deterministic single-threaded schedule, the
    /// compiled engine and the reference interpreter hand out exactly the
    /// same value on every step.
    #[test]
    fn compiled_and_reference_agree(
        net in random_network(),
        schedule_seed in 0u64..1_000_000,
        tokens in 1usize..80,
    ) {
        let compiled = SharedNetworkCounter::new(&net);
        let mut reference = NetworkState::new(&net);
        // A deterministic pseudo-random input schedule: the same wire
        // sequence is fed to both implementations.
        let mut x = schedule_seed.wrapping_mul(2).wrapping_add(1);
        for step in 0..tokens {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let input = (x >> 33) as usize % net.fan_in();
            let expect = reference.traverse(&net, input).value;
            prop_assert_eq!(
                compiled.increment_from(input), expect,
                "compiled diverges at step {} on input {} of {}", step, input, net
            );
        }
        prop_assert_eq!(compiled.tokens_counted(), tokens as u64);
    }

    /// The fused step changes no value: on networks where every sink sits
    /// behind a terminal balancer, and on networks where some sinks are fed
    /// by a source wire or by a balancer with mixed outputs, the compiled
    /// counter (terminal words, counters only where needed) and the
    /// unfused reference interpreter (a position per balancer, a counter
    /// per sink) agree token by token, single tokens and batches
    /// interleaved, and read the same counts at the end.
    #[test]
    fn fused_compiled_and_reference_agree_token_by_token(
        net in fused_network(),
        schedule_seed in 0u64..1_000_000,
        steps in 1usize..60,
    ) {
        let compiled = SharedNetworkCounter::new(&net);
        let mut reference = NetworkState::new(&net);
        let mut draw = draws(schedule_seed);
        let (mut scratch, mut batch) = (Vec::new(), Vec::new());
        for step in 0..steps {
            let input = draw(net.fan_in());
            if draw(4) == 0 {
                let k = 1 + draw(9);
                let mut expect: Vec<u64> =
                    (0..k).map(|_| reference.traverse(&net, input).value).collect();
                batch.clear();
                compiled.increment_batch_from(input, k, &mut scratch, &mut batch);
                batch.sort_unstable();
                expect.sort_unstable();
                prop_assert_eq!(&batch, &expect, "batch of {} at step {} of {}", k, step, net);
            } else {
                let expect = reference.traverse(&net, input).value;
                prop_assert_eq!(
                    compiled.increment_from(input), expect,
                    "compiled diverges at step {} on input {} of {}", step, input, net
                );
            }
        }
        prop_assert_eq!(compiled.output_counts(), reference.output_counts());
        prop_assert_eq!(compiled.tokens_counted(), reference.output_counts().iter().sum::<u64>());
    }

    /// Batched traversal is observationally a multiset of sequential
    /// traversals: on a random network under a random mixed schedule of
    /// `(input, k)` batches, every `next_batch_for`-claimed batch hands
    /// out exactly the values `k` sequential reference traversals from
    /// the same state would — the batch may reorder values internally,
    /// never invent or drop one. The first step runs from quiescence.
    #[test]
    fn batched_traversal_equals_sequential_multisets(
        net in random_network(),
        schedule_seed in 0u64..1_000_000,
        steps in 1usize..20,
    ) {
        let batched = SharedNetworkCounter::new(&net);
        let mut reference = NetworkState::new(&net);
        let mut x = schedule_seed.wrapping_mul(2).wrapping_add(1);
        let (mut values, mut scratch) = (Vec::new(), Vec::new());
        let mut total = 0u64;
        for step in 0..steps {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let input = (x >> 33) as usize % net.fan_in();
            let k = 1 + (x >> 17) as usize % 9;
            let mut expect: Vec<u64> =
                (0..k).map(|_| reference.traverse(&net, input).value).collect();
            values.clear();
            batched.increment_batch_from(input, k, &mut scratch, &mut values);
            values.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(
                &values, &expect,
                "batch of {} diverges at step {} on input {} of {}", k, step, input, net
            );
            total += k as u64;
        }
        prop_assert_eq!(batched.tokens_counted(), total);
    }

    /// The trait-level batched path agrees too: `next_batch_for` on one
    /// counter claims the same multiset as `n` `next_for` calls on an
    /// identically scheduled twin.
    #[test]
    fn next_batch_for_matches_sequential_next_for(
        net in random_network(),
        schedule_seed in 0u64..1_000_000,
        steps in 1usize..12,
    ) {
        use cnet_runtime::ProcessCounter;
        let batched = SharedNetworkCounter::new(&net);
        let sequential = SharedNetworkCounter::new(&net);
        let mut x = schedule_seed.wrapping_mul(2).wrapping_add(1);
        for step in 0..steps {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let process = (x >> 33) as usize % net.fan_in();
            let k = 1 + (x >> 17) as usize % 7;
            let mut via_batch = batched.next_batch_for(process, k);
            let mut via_singles: Vec<u64> =
                (0..k).map(|_| sequential.next_for(process)).collect();
            via_batch.sort_unstable();
            via_singles.sort_unstable();
            prop_assert_eq!(
                &via_batch, &via_singles,
                "trait batch of {} diverges at step {} as process {} on {}",
                k, step, process, net
            );
        }
    }

    /// The compiled tables cover every input wire: the engine has the
    /// graph's fan-in and fan-out, and its entry plan is a permutation of
    /// the input wires.
    #[test]
    fn compiled_tables_cover_every_input(
        net in random_network(),
        bias in 0usize..8,
    ) {
        let engine = CompiledNetwork::compile(&net);
        prop_assert_eq!(engine.fan_in(), net.fan_in());
        prop_assert_eq!(engine.fan_out(), net.fan_out());
        // The entry plan hands every input wire to exactly one of the first
        // `fan_in` processes, wire 0 to process 0, and wraps after that.
        let mut entered: Vec<usize> = (0..net.fan_in()).map(|p| engine.entry_for(p)).collect();
        prop_assert_eq!(entered[0], 0);
        prop_assert_eq!(engine.entry_for(net.fan_in() + bias), entered[bias % net.fan_in()]);
        entered.sort_unstable();
        prop_assert_eq!(entered, (0..net.fan_in()).collect::<Vec<_>>());
    }
}

/// The irregular generator really has what the fused-step property needs
/// it for — a fan-3 terminal balancer, a sink fed straight from a source
/// wire, and a balancer with mixed outputs — and the engine gives exactly
/// those two sinks a counter.
#[test]
fn irregular_networks_mix_terminal_and_free_standing_sinks() {
    for seed in 0..32 {
        let (net, left_out) = irregular_network(seed);
        let engine = CompiledNetwork::compile(&net);
        let mut free = vec![left_out, 6];
        free.sort_unstable();
        assert_eq!(engine.free_sinks(), free, "seed {seed}: {net}");
        assert!(engine.entry(6).is_counter(), "seed {seed}: line 6 is a bare wire");
        let terminal_fans: Vec<usize> = (0..engine.size())
            .filter(|&b| engine.is_terminal(b))
            .map(|b| engine.balancer_fan_out(b))
            .collect();
        assert_eq!(terminal_fans, [3, 2], "seed {seed}");
        let mixed = (0..engine.size()).any(|b| {
            let sinks = engine.hops(b).iter().filter(|hop| hop.is_counter()).count();
            0 < sinks && sinks < engine.balancer_fan_out(b)
        });
        assert!(mixed, "seed {seed}: some balancer drives both a sink and a balancer");
    }
}
