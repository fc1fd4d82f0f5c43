//! Randomized schedule generation inside a timing envelope.
//!
//! Sufficiency results (e.g. [LSST99, Cor. 3.7/3.10] and the paper's
//! Theorem 4.1) claim that *every* schedule satisfying a timing condition is
//! consistent. We exercise them by sampling many random schedules whose
//! per-wire delays and local inter-operation delays respect the envelope,
//! then asserting zero violations; the measured [`crate::TimingParams`] of
//! each generated execution confirm which conditions it satisfies.

use crate::ids::ProcessId;
use crate::spec::TimedTokenSpec;
use cnet_topology::Network;
use cnet_util::rng::{Rng, SeedableRng, StdRng};

/// Configuration of a randomized workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of processes; process `p` is assigned input wire
    /// `p mod fan_in`.
    pub processes: usize,
    /// Tokens issued by each process, back to back.
    pub tokens_per_process: usize,
    /// Lower bound for every per-wire delay.
    pub c_min: f64,
    /// Upper bound for every per-wire delay.
    pub c_max: f64,
    /// Minimum local inter-operation delay: after a token exits, the process
    /// waits at least this long (and at most twice this long, jittered)
    /// before its next token enters. Zero means immediate reentry.
    pub local_delay: f64,
    /// Each process's first token enters at a random time in
    /// `[0, start_spread]`.
    pub start_spread: f64,
}

/// Generates one token spec per `(process, round)`, deterministically from
/// the seed.
///
/// Per-wire delays are drawn uniformly from `[c_min, c_max]`; local gaps
/// from `[local_delay, 2·local_delay]` (exactly `local_delay` when it is 0).
///
/// # Panics
///
/// Panics if `c_min > c_max`, if either is negative, or if `local_delay` or
/// `start_spread` is negative.
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
/// use cnet_sim::workload::{WorkloadConfig, generate};
///
/// let net = bitonic(8)?;
/// let cfg = WorkloadConfig {
///     processes: 3,
///     tokens_per_process: 2,
///     c_min: 1.0,
///     c_max: 2.0,
///     local_delay: 0.0,
///     start_spread: 1.0,
/// };
/// let specs = generate(&net, &cfg, 7);
/// assert_eq!(specs.len(), 6);
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
pub fn generate(net: &Network, cfg: &WorkloadConfig, seed: u64) -> Vec<TimedTokenSpec> {
    assert!(cfg.c_min >= 0.0 && cfg.c_max >= cfg.c_min, "need 0 <= c_min <= c_max");
    assert!(cfg.local_delay >= 0.0, "local_delay must be non-negative");
    assert!(cfg.start_spread >= 0.0, "start_spread must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let depth = net.depth();
    let mut specs = Vec::with_capacity(cfg.processes * cfg.tokens_per_process);
    for p in 0..cfg.processes {
        let process = ProcessId(p);
        let input = p % net.fan_in();
        let mut t = sample(&mut rng, 0.0, cfg.start_spread);
        for _ in 0..cfg.tokens_per_process {
            // Each wire delay is added as it is drawn, as `with_delays` sums.
            let mut step_times = Vec::with_capacity(depth + 1);
            step_times.push(t);
            for _ in 0..depth {
                t += sample(&mut rng, cfg.c_min, cfg.c_max);
                step_times.push(t);
            }
            t += sample(&mut rng, cfg.local_delay, 2.0 * cfg.local_delay);
            specs.push(TimedTokenSpec { process, input, step_times });
        }
    }
    specs
}

fn sample(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::timing::TimingParams;
    use cnet_topology::construct::bitonic;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            processes: 5,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: 3.0,
            local_delay: 0.5,
            start_spread: 2.0,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let net = bitonic(4).unwrap();
        let a = generate(&net, &cfg(), 9);
        let b = generate(&net, &cfg(), 9);
        assert_eq!(a, b);
        let c = generate(&net, &cfg(), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_schedules_respect_the_envelope() {
        let net = bitonic(8).unwrap();
        for seed in 0..10 {
            let specs = generate(&net, &cfg(), seed);
            let exec = run(&net, &specs).unwrap();
            let p = TimingParams::measure(&exec);
            assert!(p.c_min.unwrap() >= 1.0);
            assert!(p.c_max.unwrap() < 3.0);
            assert!(p.local_delay.unwrap() >= 0.5);
        }
    }

    #[test]
    fn processes_share_input_wires_round_robin() {
        let net = bitonic(2).unwrap();
        let specs = generate(&net, &cfg(), 1);
        for s in &specs {
            assert_eq!(s.input, s.process.index() % 2);
        }
    }

    #[test]
    fn degenerate_envelope_is_lock_step() {
        let net = bitonic(4).unwrap();
        let mut c = cfg();
        c.c_min = 2.0;
        c.c_max = 2.0;
        c.local_delay = 0.0;
        c.start_spread = 0.0;
        let specs = generate(&net, &c, 3);
        for s in &specs {
            for w in s.step_times.windows(2) {
                assert_eq!(w[1] - w[0], 2.0);
            }
        }
        // All processes start at 0; consecutive tokens of a process are
        // back-to-back.
        let exec = run(&net, &specs).unwrap();
        let p = TimingParams::measure(&exec);
        assert_eq!(p.c_min, Some(2.0));
        assert_eq!(p.c_max, Some(2.0));
        assert_eq!(p.local_delay, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "c_min <= c_max")]
    fn bad_envelope_panics() {
        let net = bitonic(2).unwrap();
        let mut c = cfg();
        c.c_min = 5.0;
        c.c_max = 1.0;
        generate(&net, &c, 0);
    }
}
