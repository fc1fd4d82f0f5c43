//! Contention statistics for the shared-memory counting network.
//!
//! [`InstrumentedNetworkCounter`] counts, per balancer, how many tokens
//! passed and how many atomic update *retries* were paid (a retry means
//! another thread changed the balancer state mid-update — the memory-level
//! signature of contention that counting networks exist to spread).
//!
//! The instrumented counter routes through the same compiled flat tables
//! as [`crate::SharedNetworkCounter`] (via [`CompiledNetwork::route`]) and
//! pads its state words identically, but it deliberately keeps the manual
//! CAS loop at every balancer and a counter behind every sink — the retry
//! count *is* the measurement, and the wait-free `fetch_xor`/`fetch_add`
//! specializations and the fused terminal step would hide it. Processes
//! enter by the same [`CompiledNetwork::entry_for`] plan.

use crate::compiled::CompiledNetwork;
use crate::ProcessCounter;
use cnet_topology::Network;
use cnet_util::sync::CachePadded;
use cnet_util::sync::atomic::{AtomicU64, Ordering};

/// A [`crate::SharedNetworkCounter`] variant that additionally records
/// per-balancer traffic and CAS-retry counts.
#[derive(Debug)]
pub struct InstrumentedNetworkCounter {
    /// The graph is kept (unlike the plain counter) for layer attribution.
    net: Network,
    engine: CompiledNetwork,
    balancers: Box<[CachePadded<AtomicU64>]>,
    counters: Box<[CachePadded<AtomicU64>]>,
    visits: Vec<AtomicU64>,
    retries: Vec<AtomicU64>,
}

impl InstrumentedNetworkCounter {
    /// Compiles and lays the network out in shared memory with
    /// instrumentation.
    pub fn new(net: &Network) -> Self {
        let engine = CompiledNetwork::compile(net);
        let balancers = engine.new_balancer_states();
        let counters = (0..engine.fan_out())
            .map(|j| CachePadded::new(AtomicU64::new(j as u64)))
            .collect();
        InstrumentedNetworkCounter {
            net: net.clone(),
            engine,
            balancers,
            counters,
            visits: (0..net.size()).map(|_| AtomicU64::new(0)).collect(),
            retries: (0..net.size()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The network this counter is laid out over.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The compiled tables this counter routes through.
    pub fn engine(&self) -> &CompiledNetwork {
        &self.engine
    }

    /// Shepherds one token from `input` to a counter, recording per-balancer
    /// visits and retries.
    ///
    /// # Panics
    ///
    /// Panics if `input >= network().fan_in()`.
    pub fn increment_from(&self, input: usize) -> u64 {
        let sink = self.engine.route(input, |idx, f| {
            // Manual CAS loop so retries can be counted.
            let word = &*self.balancers[idx];
            let mut current = word.load(Ordering::Acquire);
            let port = loop {
                match word.compare_exchange_weak(
                    current,
                    (current + 1) % f as u64,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(prev) => break prev,
                    Err(actual) => {
                        self.retries[idx].fetch_add(1, Ordering::Relaxed);
                        current = actual;
                    }
                }
            };
            self.visits[idx].fetch_add(1, Ordering::Relaxed);
            port as usize
        });
        self.counters[sink].fetch_add(self.engine.fan_out() as u64, Ordering::AcqRel)
    }

    /// Tokens that passed each balancer so far.
    pub fn visits(&self) -> Vec<u64> {
        self.visits.iter().map(|v| v.load(Ordering::Relaxed)).collect()
    }

    /// Atomic-update retries paid at each balancer so far.
    pub fn retries(&self) -> Vec<u64> {
        self.retries.iter().map(|v| v.load(Ordering::Relaxed)).collect()
    }

    /// Aggregates visits and retries by layer: `(layer, visits, retries)`
    /// rows, 1-based layers — the contention profile across the network's
    /// depth.
    pub fn layer_profile(&self) -> Vec<(usize, u64, u64)> {
        let visits = self.visits();
        let retries = self.retries();
        (1..=self.net.depth())
            .map(|l| {
                let mut v = 0;
                let mut r = 0;
                for b in self.net.layer(l).balancers() {
                    v += visits[b.index()];
                    r += retries[b.index()];
                }
                (l, v, r)
            })
            .collect()
    }
}

impl ProcessCounter for InstrumentedNetworkCounter {
    fn next_for(&self, process: usize) -> u64 {
        self.increment_from(self.engine.entry_for(process))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_topology::construct::{bitonic, counting_tree};
    use std::thread;

    #[test]
    fn visits_count_every_balancer_crossing() {
        let net = bitonic(8).unwrap();
        let counter = InstrumentedNetworkCounter::new(&net);
        let tokens = 64u64;
        for k in 0..tokens {
            counter.increment_from(k as usize % 8);
        }
        // Every token crosses depth() balancers.
        let total: u64 = counter.visits().iter().sum();
        assert_eq!(total, tokens * net.depth() as u64);
        // Uniform traffic: each balancer sees tokens proportional to fan-in.
        let profile = counter.layer_profile();
        for &(l, v, _) in &profile {
            assert_eq!(v, tokens, "layer {l} must carry every token once");
        }
    }

    #[test]
    fn sequential_use_has_no_retries() {
        let net = bitonic(4).unwrap();
        let counter = InstrumentedNetworkCounter::new(&net);
        for k in 0..40 {
            counter.increment_from(k % 4);
        }
        assert!(counter.retries().iter().all(|&r| r == 0));
    }

    #[test]
    fn concurrent_values_remain_gap_free() {
        let net = counting_tree(8).unwrap();
        let counter = InstrumentedNetworkCounter::new(&net);
        let mut values: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = &counter;
                    s.spawn(move || (0..250).map(|_| c.increment_from(0)).collect::<Vec<u64>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        values.sort_unstable();
        assert_eq!(values, (0..1000).collect::<Vec<_>>());
        // The root of the tree carries all traffic.
        let root_visits = counter.visits()[0];
        assert_eq!(root_visits, 1000);
    }

    #[test]
    fn agrees_with_plain_counter_semantics() {
        let net = bitonic(8).unwrap();
        let instrumented = InstrumentedNetworkCounter::new(&net);
        let plain = crate::SharedNetworkCounter::new(&net);
        for k in 0..100 {
            assert_eq!(instrumented.increment_from(k % 8), plain.increment_from(k % 8));
        }
    }
}
