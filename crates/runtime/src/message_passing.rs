//! A message-passing implementation of counting networks.
//!
//! Section 2.3 of the paper notes its timing model "is sufficiently general
//! to capture both shared memory and message passing implementations of
//! balancers". This module provides the second kind: every balancer and
//! every counter is a **server thread** owning its state, wires are
//! channels, and a token is a message carrying a reply channel. No shared
//! mutable state exists at all — coordination is purely by communication.
//!
//! The per-wire channel hop is the physical realization of the paper's wire
//! delay `c`; a loaded scheduler stretches it toward `c_max`.
//!
//! Deployment routes through the [`CompiledNetwork`] flat tables: the wire
//! graph is resolved once into per-balancer hop slices, and each server's
//! output channels are read straight off them.

use crate::compiled::{CompiledNetwork, EntryPlan, Hop};
use crate::drain::Drain;
use crate::ProcessCounter;
use cnet_topology::Network;
use cnet_util::sync::{unbounded, Receiver, Sender};

/// A token in flight: where to send the obtained value.
enum Msg {
    Token {
        /// Where the counter sends the value.
        reply: Sender<u64>,
    },
    Shutdown,
}

/// A counting network deployed as a set of balancer and counter server
/// threads connected by channels.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_runtime::message_passing::MessagePassingCounter;
///
/// let net = bitonic(4)?;
/// let counter = MessagePassingCounter::start(&net);
/// let mut values: Vec<u64> = (0..8).map(|k| counter.increment_from(k % 4)).collect();
/// values.sort_unstable();
/// assert_eq!(values, (0..8).collect::<Vec<_>>());
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
#[derive(Debug)]
pub struct MessagePassingCounter {
    /// Senders for the network's input wires.
    inputs: Vec<Sender<Msg>>,
    /// Every server's inbox sender, for shutdown.
    all_servers: Vec<Sender<Msg>>,
    /// Server threads, joined on drop (the shared signal-then-join idiom —
    /// see [`Drain`]).
    drain: Drain,
    /// Which input wire each process enters on.
    plan: EntryPlan,
}

impl MessagePassingCounter {
    /// Deploys the network: one thread per balancer and per counter.
    pub fn start(net: &Network) -> Self {
        MessagePassingCounter::start_compiled(&CompiledNetwork::compile(net))
    }

    /// Deploys an already-compiled network.
    pub fn start_compiled(engine: &CompiledNetwork) -> Self {
        let w = engine.fan_out() as u64;
        // One inbox per balancer, one per counter.
        let bal_channels: Vec<(Sender<Msg>, Receiver<Msg>)> =
            (0..engine.size()).map(|_| unbounded()).collect();
        let counter_channels: Vec<(Sender<Msg>, Receiver<Msg>)> =
            (0..engine.fan_out()).map(|_| unbounded()).collect();

        let sender_for = |hop: Hop| -> Sender<Msg> {
            if hop.is_counter() {
                counter_channels[hop.index()].0.clone()
            } else {
                bal_channels[hop.index()].0.clone()
            }
        };

        let mut drain = Drain::with_capacity(engine.size() + engine.fan_out());
        // Balancer servers: round-robin forwarding, wired straight off the
        // compiled hop slices.
        for b in 0..engine.size() {
            let inbox = bal_channels[b].1.clone();
            let outputs: Vec<Sender<Msg>> =
                engine.hops(b).iter().map(|&hop| sender_for(hop)).collect();
            drain.push(std::thread::spawn(move || {
                let mut state = 0usize;
                while let Ok(msg) = inbox.recv() {
                    match msg {
                        Msg::Token { reply } => {
                            // A send fails only during teardown races; the
                            // token is then dropped along with the system.
                            let _ = outputs[state].send(Msg::Token { reply });
                            state = (state + 1) % outputs.len();
                        }
                        Msg::Shutdown => break,
                    }
                }
            }));
        }
        // Counter servers: hand out j, j+w, j+2w, …
        for (j, (_, inbox)) in counter_channels.iter().enumerate() {
            let inbox = inbox.clone();
            let mut value = j as u64;
            drain.push(std::thread::spawn(move || {
                while let Ok(msg) = inbox.recv() {
                    match msg {
                        Msg::Token { reply } => {
                            let _ = reply.send(value);
                            value += w;
                        }
                        Msg::Shutdown => break,
                    }
                }
            }));
        }

        let inputs: Vec<Sender<Msg>> =
            (0..engine.fan_in()).map(|i| sender_for(engine.entry(i))).collect();
        let all_servers: Vec<Sender<Msg>> = bal_channels
            .iter()
            .map(|(s, _)| s.clone())
            .chain(counter_channels.iter().map(|(s, _)| s.clone()))
            .collect();

        MessagePassingCounter { inputs, all_servers, drain, plan: engine.entry_plan().clone() }
    }

    /// Injects one token on input wire `input` and blocks until its value
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range or the network was torn down.
    pub fn increment_from(&self, input: usize) -> u64 {
        assert!(input < self.inputs.len(), "input wire {input} out of range");
        let (reply_tx, reply_rx) = unbounded();
        self.inputs[input]
            .send(Msg::Token { reply: reply_tx })
            .expect("network servers are running");
        reply_rx.recv().expect("counter replies to every token")
    }
}

impl ProcessCounter for MessagePassingCounter {
    fn next_for(&self, process: usize) -> u64 {
        self.increment_from(self.plan.entry_for(process))
    }
}

impl Drop for MessagePassingCounter {
    fn drop(&mut self) {
        // Signal, then drain: every server sees a Shutdown in its inbox and
        // exits its loop; `Drain` joins them all (and would also do so from
        // its own drop, were this impl removed — the explicit call keeps
        // the signal and the join visibly paired).
        for s in &self.all_servers {
            let _ = s.send(Msg::Shutdown);
        }
        self.drain.join_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedNetworkCounter;
    use cnet_topology::construct::{bitonic, counting_tree, periodic};
    use std::thread;

    #[test]
    fn single_client_matches_reference_semantics() {
        let net = bitonic(4).unwrap();
        let mp = MessagePassingCounter::start(&net);
        let mut reference = cnet_topology::state::NetworkState::new(&net);
        for k in 0..40usize {
            let input = k % 4;
            assert_eq!(mp.increment_from(input), reference.traverse(&net, input).value);
        }
    }

    #[test]
    fn concurrent_clients_get_dense_values() {
        for net in [bitonic(8).unwrap(), periodic(4).unwrap(), counting_tree(8).unwrap()] {
            let mp = MessagePassingCounter::start(&net);
            let mut values: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|p| {
                        let mp = &mp;
                        let fan = net.fan_in();
                        s.spawn(move || {
                            (0..100).map(|_| mp.increment_from(p % fan)).collect::<Vec<u64>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
            values.sort_unstable();
            assert_eq!(values, (0..400).collect::<Vec<_>>(), "{net}");
        }
    }

    #[test]
    fn message_passing_and_shared_memory_agree_sequentially() {
        let net = bitonic(8).unwrap();
        let mp = MessagePassingCounter::start(&net);
        let shm = SharedNetworkCounter::new(&net);
        for k in 0..64usize {
            assert_eq!(mp.increment_from(k % 8), shm.increment_from(k % 8));
        }
    }

    #[test]
    fn start_compiled_reuses_an_engine() {
        let net = bitonic(4).unwrap();
        let engine = CompiledNetwork::compile(&net);
        let mp = MessagePassingCounter::start_compiled(&engine);
        let mut reference = cnet_topology::state::NetworkState::new(&net);
        for k in 0..16usize {
            assert_eq!(mp.increment_from(k % 4), reference.traverse(&net, k % 4).value);
        }
    }

    #[test]
    fn teardown_is_clean() {
        let net = bitonic(4).unwrap();
        {
            let mp = MessagePassingCounter::start(&net);
            mp.increment_from(0);
        } // drop joins all 6 + 4 server threads
        // Starting a fresh deployment afterwards works.
        let mp = MessagePassingCounter::start(&net);
        assert_eq!(mp.increment_from(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_input_wire_panics() {
        let net = bitonic(2).unwrap();
        MessagePassingCounter::start(&net).increment_from(9);
    }
}
