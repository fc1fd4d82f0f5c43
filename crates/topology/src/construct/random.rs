//! Randomized counting networks, for property-based testing.
//!
//! A counting network guarantees step-property outputs at quiescence for
//! *every* execution — in particular for every input distribution. So any
//! balancing network followed by a counting network is itself a counting
//! network: the suffix repairs whatever the prefix does. This gives a rich
//! generator of *novel* counting networks (random balancer columns and wire
//! crossings, then a classic core) on which every analysis and adversary in
//! the workspace can be exercised beyond the textbook constructions.

use super::{bitonic, periodic};
use crate::builder::LayeredBuilder;
use crate::error::BuildError;
use crate::network::Network;

/// Configuration for [`random_counting_network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomNetworkConfig {
    /// Fan of the network (power of two).
    pub fan: usize,
    /// Number of random prefix columns of (2,2)-balancers.
    pub prefix_columns: usize,
    /// Whether to insert a random wire crossing between prefix and core.
    pub crossing: bool,
    /// Whether the repairing core is the periodic network (else bitonic).
    pub periodic_core: bool,
}

/// A tiny deterministic generator (SplitMix64) so the topology crate does
/// not need a `rand` dependency for this test utility.
#[derive(Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Builds a random counting network: `prefix_columns` random columns of
/// (2,2)-balancers over random disjoint line pairs, an optional random
/// permutation of the lines, then a bitonic or periodic core of the same
/// fan. Deterministic in `seed`.
///
/// # Errors
///
/// Returns [`BuildError::UnsupportedWidth`] unless the fan is a power of
/// two with `fan >= 2`.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::{random_counting_network, RandomNetworkConfig};
/// use cnet_topology::state::NetworkState;
///
/// let cfg = RandomNetworkConfig { fan: 8, prefix_columns: 3, crossing: true, periodic_core: false };
/// let net = random_counting_network(&cfg, 42)?;
/// let mut st = NetworkState::new(&net);
/// st.push_tokens(&net, &[5, 0, 2, 7, 1, 0, 3, 2]);
/// assert!(st.output_counts_have_step_property());
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
pub fn random_counting_network(
    cfg: &RandomNetworkConfig,
    seed: u64,
) -> Result<Network, BuildError> {
    super::require_power_of_two(cfg.fan, 2)?;
    let w = cfg.fan;
    let mut rng = SplitMix(seed);
    let mut lb = LayeredBuilder::new(w);
    // Random prefix: each column pairs up a random subset of the lines.
    for _ in 0..cfg.prefix_columns {
        let mut lines: Vec<usize> = (0..w).collect();
        // Fisher–Yates shuffle.
        for i in (1..w).rev() {
            let j = rng.below(i + 1);
            lines.swap(i, j);
        }
        // Pair up a random number of disjoint pairs (at least one).
        let pairs = 1 + rng.below(w / 2);
        for p in 0..pairs {
            lb.balancer(&[lines[2 * p], lines[2 * p + 1]]);
        }
    }
    if cfg.crossing {
        let mut order: Vec<usize> = (0..w).collect();
        for i in (1..w).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        lb.permute(&order);
    }
    // The repairing core.
    let core = if cfg.periodic_core { periodic(w)? } else { bitonic(w)? };
    let lines: Vec<usize> = (0..w).collect();
    lb.embed(&core, &lines);
    lb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NetworkState;
    use cnet_util::proptest::prelude::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg =
            RandomNetworkConfig { fan: 8, prefix_columns: 2, crossing: true, periodic_core: false };
        let a = random_counting_network(&cfg, 5).unwrap();
        let b = random_counting_network(&cfg, 5).unwrap();
        assert_eq!(a.size(), b.size());
        assert_eq!(a.depth(), b.depth());
        let c = random_counting_network(&cfg, 6).unwrap();
        // Different seeds usually give different sizes (pair counts vary).
        let _ = c;
    }

    #[test]
    fn rejects_non_power_of_two() {
        let cfg = RandomNetworkConfig {
            fan: 6,
            prefix_columns: 1,
            crossing: false,
            periodic_core: false,
        };
        assert!(random_counting_network(&cfg, 0).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// Whatever the random prefix does, the composite counts.
        #[test]
        fn random_networks_count(
            lgw in 1usize..4,
            prefix in 0usize..4,
            crossing in proptest::bool::ANY,
            periodic_core in proptest::bool::ANY,
            seed in 0u64..10_000,
            counts in prop::collection::vec(0u64..7, 8),
        ) {
            let w = 1usize << lgw;
            let cfg = RandomNetworkConfig { fan: w, prefix_columns: prefix, crossing, periodic_core };
            let net = random_counting_network(&cfg, seed).unwrap();
            let counts: Vec<u64> = counts[..w].to_vec();
            let mut st = NetworkState::new(&net);
            let ts = st.push_tokens(&net, &counts);
            prop_assert!(
                st.output_counts_have_step_property(),
                "seed {} cfg {:?}: {:?}", seed, cfg, st.output_counts()
            );
            let mut values: Vec<u64> = ts.iter().map(|t| t.value).collect();
            values.sort_unstable();
            let n: u64 = counts.iter().sum();
            prop_assert_eq!(values, (0..n).collect::<Vec<_>>());
        }

        /// Prefix-only columns may break uniformity; with no prefix and no
        /// crossing the composite is exactly the (uniform) core plus
        /// nothing, so it stays uniform.
        #[test]
        fn core_only_networks_are_uniform(
            lgw in 1usize..4,
            periodic_core in proptest::bool::ANY,
            seed in 0u64..100,
        ) {
            let w = 1usize << lgw;
            let cfg = RandomNetworkConfig {
                fan: w,
                prefix_columns: 0,
                crossing: false,
                periodic_core,
            };
            let net = random_counting_network(&cfg, seed).unwrap();
            prop_assert!(net.is_uniform());
        }
    }
}
