//! Integration tests for the threaded counting-network implementations,
//! audited with the `cnet-core` checkers: the shared-memory network, the
//! diffracting tree, and the message-passing network of Section 2.3 — a
//! loopback cluster chain whose nodes each own a range of layers and pass
//! a batch across each cut as one message over a socket. Also the backend
//! registry's counters.

use cnet_core::consistency::{is_linearizable, is_sequentially_consistent};
use cnet_core::fractions::{non_linearizability_fraction, non_sequential_consistency_fraction};
use cnet_net::{ClusterNode, CounterServer, RemoteCounter, ServerConfig};
use cnet_runtime::{
    drive, Backend, CounterBarrier, DiffractingTree, FetchAddCounter, LockCounter, ProcessCounter,
    SharedNetworkCounter, Workload,
};
use cnet_topology::construct::{bitonic, counting_tree, periodic};
use cnet_topology::state::{has_step_property, NetworkState};
use cnet_topology::Network;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long a barrier test may run before it fails as hung. Each takes
/// well under a second; a hang used to spin until the test run was killed.
const BARRIER_LIMIT: Duration = Duration::from_secs(60);

/// Runs `f` on a thread of its own, so that a threaded test whose
/// parties could wait for each other forever fails by name within `limit`
/// instead of spinning until it is killed. An overrunning thread is left
/// running until the process ends; a panic of `f` is passed on.
fn within(what: &str, limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let body = thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("{what}: no result within {limit:?}");
    }
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A loopback chain of `nodes` cluster nodes over `net`, each served over
/// TCP: the tail first, then every other node pointed at the one after
/// it. Returns the head in-process and the servers, the head's last.
fn loopback_chain(net: &Network, nodes: usize) -> (Arc<ClusterNode>, Vec<CounterServer>) {
    let cfg =
        ServerConfig { max_connections: 8, processes: 8, reactors: 1, ..ServerConfig::default() };
    let mut servers: Vec<CounterServer> = Vec::new();
    let mut peers: Vec<String> = Vec::new();
    let mut node = None;
    for k in (0..nodes).rev() {
        let n = Arc::new(ClusterNode::new(net, k, nodes, &peers, cfg.max_connections).unwrap());
        let server =
            CounterServer::start_cluster("127.0.0.1:0", Arc::clone(&n), None, cfg).unwrap();
        peers.insert(0, server.local_addr().to_string());
        servers.push(server);
        node = Some(n);
    }
    (node.expect("at least one node"), servers)
}

/// 4 client threads × 100 increments through the served head of a
/// loopback chain: the values are exactly `0..400`, and the history
/// audits with both fractions in `[0, 1]`. Each client thread issues its
/// increments one after another, so every non-SC operation is also
/// non-linearizable.
fn assert_chain_counts_and_audits(net: &Network, nodes: usize) {
    let (head, servers) = loopback_chain(net, nodes);
    assert_eq!((head.node(), head.nodes()), (0, nodes));
    let client = RemoteCounter::connect(servers.last().unwrap().local_addr(), 4).unwrap();
    let ops = drive(&client, Workload { threads: 4, increments_per_thread: 100 });
    let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
    values.sort_unstable();
    assert_eq!(values, (0..400).collect::<Vec<_>>(), "{net} over {nodes} nodes");
    let f_nl = non_linearizability_fraction(&ops);
    let f_nsc = non_sequential_consistency_fraction(&ops);
    assert!((0.0..=1.0).contains(&f_nl), "{net}: F_nl = {f_nl}");
    assert!((0.0..=1.0).contains(&f_nsc), "{net}: F_nsc = {f_nsc}");
    assert!(f_nsc <= f_nl, "every non-SC op is non-linearizable");
}

#[test]
fn all_backends_hand_out_dense_unique_ids() {
    let workload = Workload { threads: 6, increments_per_thread: 400 };
    let total = 6 * 400;
    let b8 = bitonic(8).unwrap();
    let p8 = periodic(8).unwrap();
    let t8 = counting_tree(8).unwrap();

    let network_b = SharedNetworkCounter::new(&b8);
    let network_p = SharedNetworkCounter::new(&p8);
    let network_t = SharedNetworkCounter::new(&t8);
    let fetch_add = FetchAddCounter::new();
    let lock = LockCounter::new();

    fn check<C: ProcessCounter>(c: &C, workload: Workload, total: u64, label: &str) {
        let ops = drive(c, workload);
        let mut ids: Vec<u64> = ops.iter().map(|o| o.value).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>(), "{label}");
    }
    check(&network_b, workload, total, "bitonic");
    check(&network_p, workload, total, "periodic");
    check(&network_t, workload, total, "tree");
    check(&fetch_add, workload, total, "fetch-add");
    check(&lock, workload, total, "lock");
}

#[test]
fn centralized_backends_are_linearizable_in_practice() {
    let workload = Workload { threads: 4, increments_per_thread: 500 };
    let fetch_add = FetchAddCounter::new();
    let ops = drive(&fetch_add, workload);
    assert!(is_linearizable(&ops));
    assert!(is_sequentially_consistent(&ops));
    assert_eq!(non_linearizability_fraction(&ops), 0.0);
    assert_eq!(non_sequential_consistency_fraction(&ops), 0.0);
}

#[test]
fn network_runs_are_auditable_and_fractions_are_bounded() {
    let net = bitonic(8).unwrap();
    let counter = SharedNetworkCounter::new(&net);
    let ops = drive(&counter, Workload { threads: 8, increments_per_thread: 300 });
    let f_nl = non_linearizability_fraction(&ops);
    let f_nsc = non_sequential_consistency_fraction(&ops);
    assert!((0.0..=1.0).contains(&f_nl));
    assert!(f_nsc <= f_nl, "every non-SC op is non-linearizable");
}

#[test]
fn quiescent_runtime_satisfies_the_step_property() {
    for net in [bitonic(16).unwrap(), periodic(8).unwrap(), counting_tree(16).unwrap()] {
        let counter = SharedNetworkCounter::new(&net);
        thread::scope(|s| {
            for p in 0..6usize {
                let c = &counter;
                s.spawn(move || {
                    for _ in 0..(100 + p * 37) {
                        c.next_for(p);
                    }
                });
            }
        });
        assert!(has_step_property(&counter.output_counts()), "{net}");
    }
}

#[test]
fn barrier_works_over_every_counter_backend() {
    fn rounds<C: ProcessCounter + Send + Sync + 'static>(name: &str, c: C) {
        within(&format!("5-party barrier over {name}"), BARRIER_LIMIT, move || {
            let barrier = CounterBarrier::new(c, 5);
            thread::scope(|s| {
                for p in 0..5 {
                    let b = &barrier;
                    s.spawn(move || {
                        for _ in 0..50 {
                            b.wait(p);
                        }
                    });
                }
            });
            assert_eq!(barrier.rounds_completed(), 50);
        });
    }
    rounds("fetch_add", FetchAddCounter::new());
    rounds("lock", LockCounter::new());
    let net = bitonic(8).unwrap();
    rounds("bitonic(8)", SharedNetworkCounter::new(&net));
    let tree = counting_tree(8).unwrap();
    rounds("counting_tree(8)", SharedNetworkCounter::new(&tree));
}

#[test]
fn all_runtime_variants_agree_with_the_reference_sequentially() {
    // Two implementations of the same counting tree, driven one token at a
    // time, must produce the identical value sequence.
    let net = counting_tree(8).unwrap();
    let shm = SharedNetworkCounter::new(&net);
    let diff = DiffractingTree::new(8, 0).unwrap(); // prisms off: pure toggles
    let mut reference = NetworkState::new(&net);
    for k in 0..100usize {
        let expected = reference.traverse(&net, 0).value;
        assert_eq!(shm.increment_from(0), expected, "shared memory, token {k}");
        assert_eq!(diff.increment(k), expected, "diffracting, token {k}");
    }
}

#[test]
fn a_loopback_chain_agrees_with_the_reference_sequentially() {
    // One token at a time, every input wire in turn, through B(4) cut at
    // every layer: the value each token gets after two socket hops is the
    // one the whole network gives it.
    let net = bitonic(4).unwrap();
    let (head, _servers) = loopback_chain(&net, 3);
    let mut reference = NetworkState::new(&net);
    for k in 0..64usize {
        let input = (k * 3 + 1) % 4;
        let mut entering = vec![0; 4];
        entering[input] = 1;
        let values = head.step_batch(0, k as u64, &entering).unwrap();
        assert_eq!(values, vec![reference.traverse(&net, input).value], "token {k}");
    }
}

#[test]
fn a_loopback_chain_agrees_with_the_whole_network_batch_by_batch() {
    // A batch spread over the input wires crosses each cut as one
    // `ForwardBatch` of per-wire counts; batch after batch on the same
    // state, it is handed the values the whole network hands the same
    // batch.
    let net = bitonic(4).unwrap();
    let (head, _servers) = loopback_chain(&net, 3);
    let whole = SharedNetworkCounter::new(&net);
    let mut scratch = Vec::new();
    let batches = [[3, 0, 2, 1], [0, 5, 0, 0], [1, 1, 1, 1], [7, 2, 0, 4]];
    for (k, entering) in batches.iter().enumerate() {
        let mut chained = head.step_batch(0, k as u64, entering).unwrap();
        let mut direct = Vec::new();
        whole.increment_counts_from(entering, &mut scratch, &mut direct);
        chained.sort_unstable();
        direct.sort_unstable();
        assert_eq!(chained, direct, "batch {k}: {entering:?}");
    }
}

#[test]
fn a_chain_cut_at_every_layer_counts_and_audits() {
    // B(4) has three layers: three nodes, one layer each — the
    // layer-by-layer message-passing network of Section 2.3.
    assert_chain_counts_and_audits(&bitonic(4).unwrap(), 3);
}

#[test]
fn a_two_node_chain_counts_and_audits() {
    assert_chain_counts_and_audits(&bitonic(8).unwrap(), 2);
}

#[test]
fn a_chain_cut_at_every_layer_serves_concurrent_batches() {
    // Relay to relay to tail, several batches in flight at once: every
    // value is handed out exactly once.
    let net = bitonic(4).unwrap();
    let (_head, servers) = loopback_chain(&net, 3);
    let client = RemoteCounter::connect(servers.last().unwrap().local_addr(), 4).unwrap();
    let mut values: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let c = &client;
                s.spawn(move || (0..4).flat_map(|_| c.next_batch_for(p, 50)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    values.sort_unstable();
    assert_eq!(values, (0..800).collect::<Vec<_>>());
}

#[test]
fn barrier_works_over_a_loopback_chain() {
    // The Section 1.1 application needs only gap-free values, which the
    // message-passing network gives as the shared-memory one does.
    within("3-party barrier over a 2-node bitonic(4) chain", BARRIER_LIMIT, || {
        let net = bitonic(4).unwrap();
        let (head, _servers) = loopback_chain(&net, 2);
        let barrier = CounterBarrier::new(head, 3);
        thread::scope(|s| {
            for p in 0..3 {
                let b = &barrier;
                s.spawn(move || {
                    for _ in 0..20 {
                        b.wait(p);
                    }
                });
            }
        });
        assert_eq!(barrier.rounds_completed(), 20);
    });
}

#[test]
fn diffracting_histories_are_auditable() {
    let tree = DiffractingTree::new(8, 4).unwrap();
    let ops = drive(&tree, Workload { threads: 4, increments_per_thread: 100 });
    assert!(non_linearizability_fraction(&ops) <= 1.0);
    let mut values: Vec<u64> = ops.iter().map(|o| o.value).collect();
    values.sort_unstable();
    assert_eq!(values, (0..400).collect::<Vec<_>>());
}

#[test]
fn runtime_agrees_with_simulator_semantics_sequentially() {
    // Driving the shared-memory network from one thread must replay exactly
    // the sequential reference semantics, for every construction.
    for net in [bitonic(8).unwrap(), periodic(4).unwrap(), counting_tree(4).unwrap()] {
        let counter = SharedNetworkCounter::new(&net);
        let mut reference = NetworkState::new(&net);
        for k in 0..200usize {
            let input = k % net.fan_in();
            assert_eq!(
                counter.increment_from(input),
                reference.traverse(&net, input).value,
                "{net} token {k}"
            );
        }
    }
}

#[test]
fn all_lists_the_five_counters_in_usage_order() {
    let names = Backend::ALL.map(Backend::name);
    assert_eq!(names, ["compiled", "combining", "diffracting", "fetch_add", "lock"]);
    for name in ["relaxed", "elimination"] {
        assert_eq!(Backend::parse(name), None, "{name}");
    }
}

#[test]
fn one_process_gets_every_backend_in_order_singles_and_batches_alike() {
    // Alone, each counter is a sequential fetch-and-increment: singles
    // and batches interleave into 0, 1, 2, … in the order claimed.
    let net = bitonic(8).unwrap();
    for b in Backend::ALL {
        let counter = b.build(Some(&net), 8, 2).unwrap();
        let mut values = Vec::new();
        for k in [1, 5, 0, 16, 3] {
            values.push(counter.next_for(0));
            values.extend(counter.next_batch_for(0, k));
        }
        assert_eq!(values, (0..30).collect::<Vec<_>>(), "{}", b.name());
    }
}

#[test]
fn an_empty_batch_claims_nothing_on_every_backend() {
    let net = bitonic(4).unwrap();
    for b in Backend::ALL {
        let counter = b.build(Some(&net), 4, 2).unwrap();
        assert!(counter.next_batch_for(1, 0).is_empty(), "{}", b.name());
        assert_eq!(counter.next_for(1), 0, "{}", b.name());
        assert!(counter.next_batch_for(0, 0).is_empty(), "{}", b.name());
        assert_eq!(counter.next_batch_for(0, 2), [1, 2], "{}", b.name());
    }
}

#[test]
fn every_backend_mixes_batches_and_singles_densely_under_contention() {
    // Four threads each alternate a single with a batch of 1..=7: the
    // union must be exactly 0..n, and each batch exactly k values.
    let net = bitonic(8).unwrap();
    let (threads, rounds) = (4, 150);
    for b in Backend::ALL {
        let counter = b.build(Some(&net), 8, threads).unwrap();
        let mut values: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|p| {
                    let counter = &counter;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for r in 0..rounds {
                            mine.push(counter.next_for(p));
                            let k = 1 + (r + p) % 7;
                            let batch = counter.next_batch_for(p, k);
                            assert_eq!(batch.len(), k);
                            mine.extend(batch);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let n = values.len() as u64;
        values.sort_unstable();
        assert_eq!(values, (0..n).collect::<Vec<_>>(), "{}", b.name());
    }
}
