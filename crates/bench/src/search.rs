//! Randomized schedule search: hill-climbing over the space of valid timed
//! schedules to *maximize* an inconsistency objective.
//!
//! The paper leaves tightness open in both directions (open problems 4
//! and 5): is Theorem 5.4's ceiling `(ℓ−2)/(ℓ−1)` reachable, and can any
//! schedule beat Theorem 5.11's wave construction? This module provides the
//! experimental instrument: a genome encodes per-process start offsets,
//! per-token inter-operation gaps, and per-hop wire delays clamped to
//! `[c_min, c_max]` — so every genome decodes to a *valid* schedule with
//! the desired asynchrony ratio by construction — and a mutate-and-keep
//! loop climbs the chosen objective.

use cnet_core::op::Op;
use cnet_sim::engine::run;
use cnet_sim::ids::ProcessId;
use cnet_sim::spec::TimedTokenSpec;
use cnet_topology::Network;
use cnet_util::rng::{Rng, SeedableRng, StdRng};

/// The search space: processes, tokens, and the timing envelope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchSpace {
    /// Number of processes (round-robin over input wires).
    pub processes: usize,
    /// Tokens per process.
    pub tokens_per_process: usize,
    /// Lower wire-delay bound.
    pub c_min: f64,
    /// Upper wire-delay bound (so the ratio is `c_max/c_min` exactly when
    /// some delay hits each bound; always `≤ c_max/c_min`).
    pub c_max: f64,
    /// Maximum inter-operation gap and start offset the genome may use.
    pub max_gap: f64,
}

/// A genome: raw timing knobs that always decode to a valid schedule.
#[derive(Clone, Debug)]
struct Genome {
    /// Process id of each genome row.
    process_ids: Vec<usize>,
    /// Per (row, token): the input wire.
    inputs: Vec<Vec<usize>>,
    /// Start offset per row.
    offsets: Vec<f64>,
    /// Per (row, token): gap after the previous token's exit.
    gaps: Vec<Vec<f64>>,
    /// Per (row, token): the per-hop wire delays.
    delays: Vec<Vec<Vec<f64>>>,
}

impl Genome {
    /// Encodes an existing schedule as a genome (tokens grouped by process,
    /// in entry order), so searches can start from analytic constructions.
    fn from_specs(specs: &[TimedTokenSpec]) -> Genome {
        // Rows ordered by each process's first appearance in the original
        // slice: the engine breaks time ties by position, so preserving the
        // order keeps the decoded schedule's semantics identical to the
        // original (important when refining from wave constructions whose
        // waves enter simultaneously).
        let mut row_order: Vec<usize> = Vec::new();
        let mut by_process: std::collections::BTreeMap<usize, Vec<&TimedTokenSpec>> =
            std::collections::BTreeMap::new();
        for s in specs {
            let pid = s.process.index();
            if !by_process.contains_key(&pid) {
                row_order.push(pid);
            }
            by_process.entry(pid).or_default().push(s);
        }
        let mut process_ids = Vec::new();
        let mut inputs = Vec::new();
        let mut offsets = Vec::new();
        let mut gaps = Vec::new();
        let mut delays = Vec::new();
        for pid in row_order {
            let mut tokens = by_process.remove(&pid).expect("row order lists seen processes");
            tokens.sort_by(|a, b| a.enter_time().total_cmp(&b.enter_time()));
            process_ids.push(pid);
            inputs.push(tokens.iter().map(|t| t.input).collect());
            offsets.push(tokens[0].enter_time());
            let mut g = vec![0.0];
            for pair in tokens.windows(2) {
                g.push((pair[1].enter_time() - pair[0].exit_time()).max(0.0));
            }
            gaps.push(g);
            delays.push(
                tokens
                    .iter()
                    .map(|t| t.step_times.windows(2).map(|w| w[1] - w[0]).collect())
                    .collect(),
            );
        }
        Genome { process_ids, inputs, offsets, gaps, delays }
    }

    fn random(space: &SearchSpace, net: &Network, rng: &mut StdRng) -> Genome {
        let depth = net.depth();
        let sample = |rng: &mut StdRng, lo: f64, hi: f64| {
            if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            }
        };
        Genome {
            process_ids: (0..space.processes).collect(),
            inputs: (0..space.processes)
                .map(|p| vec![p % net.fan_in(); space.tokens_per_process])
                .collect(),
            offsets: (0..space.processes).map(|_| sample(rng, 0.0, space.max_gap)).collect(),
            gaps: (0..space.processes)
                .map(|_| {
                    (0..space.tokens_per_process).map(|_| sample(rng, 0.0, space.max_gap)).collect()
                })
                .collect(),
            delays: (0..space.processes)
                .map(|_| {
                    (0..space.tokens_per_process)
                        .map(|_| {
                            (0..depth).map(|_| sample(rng, space.c_min, space.c_max)).collect()
                        })
                        .collect()
                })
                .collect(),
        }
    }

    fn decode(&self) -> Vec<TimedTokenSpec> {
        let mut specs = Vec::new();
        for (row, &pid) in self.process_ids.iter().enumerate() {
            let mut t = self.offsets[row];
            for k in 0..self.gaps[row].len() {
                if k > 0 {
                    t += self.gaps[row][k];
                }
                let spec = TimedTokenSpec::with_delays(
                    ProcessId(pid),
                    self.inputs[row][k],
                    t,
                    &self.delays[row][k],
                );
                t = spec.exit_time();
                specs.push(spec);
            }
        }
        specs
    }

    /// Mutates one random knob in place.
    fn mutate(&mut self, space: &SearchSpace, rng: &mut StdRng) {
        let p = rng.random_range(0..self.offsets.len());
        match rng.random_range(0..3u8) {
            0 => {
                self.offsets[p] = rng.random_range(0.0..space.max_gap.max(f64::MIN_POSITIVE));
            }
            1 => {
                let k = rng.random_range(0..self.gaps[p].len());
                self.gaps[p][k] = rng.random_range(0.0..space.max_gap.max(f64::MIN_POSITIVE));
            }
            _ => {
                let k = rng.random_range(0..self.delays[p].len());
                let d = &mut self.delays[p][k];
                if d.is_empty() {
                    return;
                }
                let h = rng.random_range(0..d.len());
                d[h] = if space.c_max > space.c_min {
                    // Bias toward the extremes: adversarial schedules live
                    // at the envelope's edges.
                    match rng.random_range(0..4u8) {
                        0 => space.c_min,
                        1 => space.c_max,
                        _ => rng.random_range(space.c_min..space.c_max),
                    }
                } else {
                    space.c_min
                };
            }
        }
    }
}

/// Result of a search run.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The best objective value found.
    pub best_score: f64,
    /// The schedule achieving it.
    pub best_specs: Vec<TimedTokenSpec>,
    /// Total schedule evaluations spent.
    pub evaluations: usize,
}

/// Hill-climbs `objective` over the schedule space with random restarts.
///
/// The objective receives the decoded execution's operations; return e.g.
/// the non-SC fraction to search for Theorem 5.4's worst case.
///
/// # Panics
///
/// Panics if the space is degenerate (`processes` or `tokens_per_process`
/// is zero, or `c_min > c_max` / negative bounds).
pub fn maximize<F>(
    net: &Network,
    space: &SearchSpace,
    seed: u64,
    restarts: usize,
    steps_per_restart: usize,
    mut objective: F,
) -> SearchOutcome
where
    F: FnMut(&[Op]) -> f64,
{
    assert!(space.processes > 0 && space.tokens_per_process > 0, "empty search space");
    let mut rng = StdRng::seed_from_u64(seed);
    let starts: Vec<Genome> = (0..restarts).map(|_| Genome::random(space, net, &mut rng)).collect();
    climb(net, space, starts, &mut rng, steps_per_restart, &mut objective)
}

/// Hill-climbs starting from an *existing* schedule (e.g. a wave
/// construction), mutating within the space's envelope. The initial
/// schedule's delays should already respect the envelope.
///
/// # Panics
///
/// Panics on a degenerate envelope or an empty initial schedule.
pub fn refine<F>(
    net: &Network,
    space: &SearchSpace,
    initial: &[TimedTokenSpec],
    seed: u64,
    steps: usize,
    mut objective: F,
) -> SearchOutcome
where
    F: FnMut(&[Op]) -> f64,
{
    assert!(!initial.is_empty(), "refine needs a non-empty initial schedule");
    let mut rng = StdRng::seed_from_u64(seed);
    let starts = vec![Genome::from_specs(initial)];
    climb(net, space, starts, &mut rng, steps, &mut objective)
}

fn climb<F>(
    net: &Network,
    space: &SearchSpace,
    starts: Vec<Genome>,
    rng: &mut StdRng,
    steps_per_start: usize,
    objective: &mut F,
) -> SearchOutcome
where
    F: FnMut(&[Op]) -> f64,
{
    assert!(
        space.c_min > 0.0 && space.c_max >= space.c_min && space.max_gap >= 0.0,
        "invalid envelope"
    );
    let mut best_score = f64::NEG_INFINITY;
    let mut best_specs = Vec::new();
    let mut evaluations = 0usize;

    let mut evaluate = |genome: &Genome, evaluations: &mut usize| -> f64 {
        *evaluations += 1;
        let specs = genome.decode();
        let exec = run(net, &specs).expect("genomes decode to valid schedules");
        objective(&Op::from_execution(&exec))
    };

    for mut genome in starts {
        let mut score = evaluate(&genome, &mut evaluations);
        for _ in 0..steps_per_start {
            let mut candidate = genome.clone();
            candidate.mutate(space, rng);
            let cand_score = evaluate(&candidate, &mut evaluations);
            if cand_score >= score {
                genome = candidate;
                score = cand_score;
            }
        }
        if score > best_score {
            best_score = score;
            best_specs = genome.decode();
        }
    }
    SearchOutcome { best_score, best_specs, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnet_core::fractions::non_sequential_consistency_fraction;
    use cnet_core::theory;
    use cnet_sim::timing::TimingParams;
    use cnet_topology::construct::bitonic;

    #[test]
    fn search_respects_the_envelope() {
        let net = bitonic(4).unwrap();
        let space = SearchSpace {
            processes: 4,
            tokens_per_process: 3,
            c_min: 1.0,
            c_max: 2.5,
            max_gap: 3.0,
        };
        let outcome = maximize(&net, &space, 7, 2, 30, non_sequential_consistency_fraction);
        assert!(outcome.evaluations > 0);
        let exec = run(&net, &outcome.best_specs).unwrap();
        let params = TimingParams::measure(&exec);
        assert!(params.c_min.unwrap() >= 1.0 - 1e-12);
        assert!(params.c_max.unwrap() <= 2.5 + 1e-12);
    }

    #[test]
    fn search_finds_violations_when_the_envelope_allows_them() {
        // Under a generous ratio the search should discover SOME non-SC
        // schedule on a small network (the holding race exists at ratio
        // d+1, so the space contains positive-score points).
        let net = bitonic(2).unwrap();
        let space = SearchSpace {
            processes: 3,
            tokens_per_process: 2,
            c_min: 1.0,
            c_max: 20.0,
            max_gap: 4.0,
        };
        let outcome = maximize(&net, &space, 11, 6, 200, non_sequential_consistency_fraction);
        assert!(
            outcome.best_score > 0.0,
            "ratio 20 on B(2) admits non-SC schedules; search found none"
        );
    }

    #[test]
    fn search_never_beats_theorem_5_4() {
        // Under ratio < 3 the ceiling is 1/2; whatever the search finds must
        // respect it (a counterexample here would be a *result*).
        let net = bitonic(4).unwrap();
        let space = SearchSpace {
            processes: 4,
            tokens_per_process: 4,
            c_min: 1.0,
            c_max: 2.99,
            max_gap: 2.0,
        };
        let outcome = maximize(&net, &space, 3, 4, 150, non_sequential_consistency_fraction);
        assert!(outcome.best_score <= theory::thm_5_4_nsc_upper(3) + 1e-9);
    }

    fn small_space() -> SearchSpace {
        SearchSpace { processes: 3, tokens_per_process: 2, c_min: 1.0, c_max: 6.0, max_gap: 2.0 }
    }

    #[test]
    fn a_seed_replays_the_same_search() {
        let net = bitonic(4).unwrap();
        let objective = |ops: &[Op]| non_sequential_consistency_fraction(ops);
        let a = maximize(&net, &small_space(), 5, 3, 40, objective);
        let b = maximize(&net, &small_space(), 5, 3, 40, objective);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.best_specs, b.best_specs);
        // One evaluation per start plus one per step.
        assert_eq!(a.evaluations, 3 * (40 + 1));
    }

    #[test]
    fn the_best_schedule_scores_what_the_search_reports() {
        let net = bitonic(4).unwrap();
        let outcome = maximize(&net, &small_space(), 9, 2, 60, |ops| {
            non_sequential_consistency_fraction(ops)
        });
        assert_eq!(outcome.best_specs.len(), 3 * 2);
        let exec = run(&net, &outcome.best_specs).unwrap();
        let rescored = non_sequential_consistency_fraction(&Op::from_execution(&exec));
        assert_eq!(rescored, outcome.best_score);
    }

    #[test]
    fn refine_never_ends_below_its_starting_schedule() {
        let net = bitonic(4).unwrap();
        let space = small_space();
        let objective = |ops: &[Op]| non_sequential_consistency_fraction(ops);
        let start = maximize(&net, &space, 21, 1, 10, objective);
        let refined = refine(&net, &space, &start.best_specs, 22, 50, objective);
        assert!(
            refined.best_score >= start.best_score,
            "{} < {}",
            refined.best_score,
            start.best_score
        );
        assert_eq!(refined.evaluations, 50 + 1);
        assert_eq!(refined.best_specs.len(), start.best_specs.len());
    }

    #[test]
    #[should_panic(expected = "empty search space")]
    fn an_empty_space_is_rejected() {
        let net = bitonic(2).unwrap();
        let space = SearchSpace { processes: 0, ..small_space() };
        let _ = maximize(&net, &space, 0, 1, 1, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid envelope")]
    fn an_inverted_envelope_is_rejected() {
        let net = bitonic(2).unwrap();
        let space = SearchSpace { c_min: 3.0, c_max: 2.0, ..small_space() };
        let _ = maximize(&net, &space, 0, 1, 1, |_| 0.0);
    }
}
