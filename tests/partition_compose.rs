//! Partition composition: chaining a network's per-node sub-networks is
//! the same function as traversing the whole network.
//!
//! The cluster fabric's correctness rests on one identity: feed a token
//! into node 0 on entry port `p`, traverse each node's compiled layer
//! range, carry the exit port across each cut, and let the final node's
//! counter hand out the value — and you must get exactly the value the
//! un-partitioned network would have produced. This file checks that
//! identity sequentially (one token in flight at a time, so both sides see
//! the same arrival order at every balancer) over randomized widths, node
//! counts, and entry-port sequences — and batch by batch, the way the
//! fabric carries a batch: every stage's per-wire counts handed to the
//! next stage whole.

use cnet_runtime::{CompiledNetwork, SharedNetworkCounter};
use cnet_topology::construct::{bitonic, periodic};
use cnet_topology::{Network, Partition};
use cnet_util::proptest::prelude::*;
use cnet_util::sync::atomic::AtomicU64;
use cnet_util::sync::CachePadded;

/// One non-final stage: the compiled sub-network plus its balancer states.
struct Stage {
    engine: CompiledNetwork,
    balancers: Box<[CachePadded<AtomicU64>]>,
}

/// Compiles nodes `0..nodes-1` as forwarding stages and the final node as
/// a counting stage — the shapes the cluster fabric runs.
fn compile_chain(net: &Network, nodes: usize) -> (Vec<Stage>, SharedNetworkCounter) {
    let plan = Partition::contiguous(net, nodes).expect("plan");
    let upstream = (0..nodes - 1)
        .map(|k| {
            let engine = CompiledNetwork::compile(&plan.sub_network(net, k));
            let balancers = engine.new_balancer_states();
            Stage { engine, balancers }
        })
        .collect();
    let tail = SharedNetworkCounter::from_compiled(CompiledNetwork::compile(
        &plan.sub_network(net, nodes - 1),
    ));
    (upstream, tail)
}

/// Drives `inputs` one token at a time through the partitioned chain and
/// the whole network, asserting the counter values agree token-by-token.
fn assert_composition(net: &Network, nodes: usize, inputs: &[usize]) {
    let fan = net.fan().expect("common fan");
    let (upstream, tail) = compile_chain(net, nodes);
    let whole = SharedNetworkCounter::new(net);
    for &input in inputs {
        let p = input % fan;
        let mut port = p;
        for stage in &upstream {
            port = stage.engine.traverse(port, &stage.balancers).sink;
        }
        let clustered = tail.increment_from(port);
        let direct = whole.increment_from(p);
        assert_eq!(
            clustered, direct,
            "token entering on port {p} diverged across the {nodes}-node cut"
        );
    }
}

#[test]
fn two_node_bitonic_chain_matches_the_whole_network() {
    let net = bitonic(8).expect("B(8)");
    let inputs: Vec<usize> = (0..256).map(|i| (i * 5 + 3) % 8).collect();
    assert_composition(&net, 2, &inputs);
}

#[test]
fn every_node_count_on_the_periodic_network_matches() {
    let net = periodic(4).expect("periodic 4");
    let inputs: Vec<usize> = (0..128).collect();
    for nodes in 1..=net.depth() {
        assert_composition(&net, nodes, &inputs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partitioned composition equals the whole network for random
    /// widths, node counts, and entry-port sequences — the tentpole
    /// equivalence the forwarding path relies on.
    #[test]
    fn partitioned_composition_equals_whole_network(
        wexp in 1u32..4,
        node_pick in 1usize..8,
        inputs in prop::collection::vec(0usize..64, 1usize..200),
    ) {
        let fan = 1usize << wexp;
        let net = bitonic(fan).expect("power-of-two fan");
        let nodes = 1 + node_pick % net.depth();
        let (upstream, tail) = compile_chain(&net, nodes);
        let whole = SharedNetworkCounter::new(&net);
        for &input in &inputs {
            let p = input % fan;
            let mut port = p;
            for stage in &upstream {
                port = stage.engine.traverse(port, &stage.balancers).sink;
            }
            prop_assert_eq!(tail.increment_from(port), whole.increment_from(p));
        }
    }

    /// A batch carried stage to stage as per-wire counts — one
    /// `traverse_counts` per node, the counts it leaves on the cut entering
    /// the next node together — is handed the same values as the same batch
    /// through the whole network, for every node count, batch after batch
    /// on the same state.
    #[test]
    fn batches_chained_over_the_cuts_equal_the_whole_network(
        wexp in 1u32..4,
        periodic_core in prop::bool::ANY,
        batches in prop::collection::vec(prop::collection::vec(0usize..30, 8), 1usize..6),
    ) {
        let fan = 1usize << wexp;
        let net = if periodic_core { periodic(fan) } else { bitonic(fan) }.expect("power-of-two fan");
        for nodes in 1..=net.depth() {
            let (upstream, tail) = compile_chain(&net, nodes);
            let whole = SharedNetworkCounter::new(&net);
            for batch in &batches {
                let entering = &batch[..fan];
                let mut on_cut = entering.to_vec();
                let mut next = Vec::new();
                for stage in &upstream {
                    stage.engine.traverse_counts(&on_cut, &stage.balancers, &mut next);
                    std::mem::swap(&mut on_cut, &mut next);
                }
                let (mut chained, mut direct) = (Vec::new(), Vec::new());
                tail.increment_counts_from(&on_cut, &mut next, &mut chained);
                whole.increment_counts_from(entering, &mut next, &mut direct);
                chained.sort_unstable();
                direct.sort_unstable();
                prop_assert_eq!(chained, direct, "{} nodes, batch {:?}", nodes, entering);
            }
        }
    }

    /// The sub-networks tile the whole network: balancer counts sum, every
    /// stage keeps the fan, and stage depths sum to the whole depth.
    #[test]
    fn sub_networks_tile_the_network(wexp in 1u32..4, node_pick in 1usize..8) {
        let fan = 1usize << wexp;
        let net = bitonic(fan).expect("power-of-two fan");
        let nodes = 1 + node_pick % net.depth();
        let plan = Partition::contiguous(&net, nodes).expect("plan");
        let mut size = 0;
        let mut depth = 0;
        for k in 0..nodes {
            let sub = plan.sub_network(&net, k);
            prop_assert_eq!(sub.fan(), Some(fan));
            size += sub.size();
            depth += sub.depth();
        }
        prop_assert_eq!(size, net.size());
        prop_assert_eq!(depth, net.depth());
    }
}
