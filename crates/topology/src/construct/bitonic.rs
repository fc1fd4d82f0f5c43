//! The bitonic counting network `B(w)` and merging network `M(w)`
//! (Section 2.6.1 of the paper, after \[AHS94\]).
//!
//! The merger follows \[AHS94\]'s even–odd recursion exactly: `Merger[2k]`
//! sends the even-position half of its first input sequence and the
//! odd-position half of its second to one `Merger[k]`, the complementary
//! positions to another, and joins the two recursive outputs pairwise with a
//! final column of balancers. (The paper's Section 2.6.1 presents the same
//! network "column-first"; the two views describe the same graph read from
//! opposite ends — the first *layer* of `M(w)` joins wire `i` with wire
//! `w−1−i`, and the final column joins adjacent output pairs.)

use super::require_power_of_two;
use crate::builder::LayeredBuilder;
use crate::error::BuildError;
use crate::network::Network;

/// Builds the bitonic counting network `B(w)` of fan `w`.
///
/// `B(2)` is a single (2,2)-balancer; `B(w)` is two parallel `B(w/2)`
/// networks feeding the merging network `M(w)`. The depth is
/// `lg w · (lg w + 1) / 2`.
///
/// # Errors
///
/// Returns [`BuildError::UnsupportedWidth`] unless `w` is a power of two
/// (`w = 1` yields the trivial single-wire network).
///
/// # Example
///
/// ```
/// use cnet_topology::construct::bitonic;
///
/// let b16 = bitonic(16)?;
/// assert_eq!(b16.depth(), 10); // 4 * 5 / 2
/// assert!(b16.is_uniform());
/// # Ok::<(), cnet_topology::BuildError>(())
/// ```
pub fn bitonic(w: usize) -> Result<Network, BuildError> {
    require_power_of_two(w, 1)?;
    let mut lb = LayeredBuilder::new(w);
    let lines: Vec<usize> = (0..w).collect();
    let out = build_bitonic(&mut lb, &lines);
    lb.permute(&out);
    lb.finish()
}

/// Builds the merging network `M(w)` as a standalone network of fan `w`.
///
/// `M(w)` merges two step sequences of width `w/2` (on its top and bottom
/// halves of input wires) into one step sequence of width `w`. Its depth is
/// `lg w`, and there is a path from every input wire to every output wire.
///
/// # Errors
///
/// Returns [`BuildError::UnsupportedWidth`] unless `w` is a power of two with
/// `w >= 2`.
pub fn merger(w: usize) -> Result<Network, BuildError> {
    require_power_of_two(w, 2)?;
    let mut lb = LayeredBuilder::new(w);
    let lines: Vec<usize> = (0..w).collect();
    let out = build_merger(&mut lb, &lines);
    lb.permute(&out);
    lb.finish()
}

/// Recursively lays `B(w)` onto the given lines of a [`LayeredBuilder`].
///
/// Returns the lines carrying outputs `0, 1, …` in order (the recursion uses
/// free wire crossings, so outputs need not land on `lines` in input order —
/// top-level callers typically follow with [`LayeredBuilder::permute`]).
///
/// # Panics
///
/// Panics if `lines.len()` is not a power of two (callers validate widths).
pub fn build_bitonic(lb: &mut LayeredBuilder, lines: &[usize]) -> Vec<usize> {
    let w = lines.len();
    assert!(w.is_power_of_two(), "bitonic width must be a power of two");
    if w == 1 {
        return lines.to_vec();
    }
    let top = build_bitonic(lb, &lines[..w / 2]);
    let bottom = build_bitonic(lb, &lines[w / 2..]);
    let merged: Vec<usize> = top.into_iter().chain(bottom).collect();
    build_merger(lb, &merged)
}

/// Recursively lays `M(w)` onto the given lines of a [`LayeredBuilder`],
/// where `lines[..w/2]` carry the first step sequence and `lines[w/2..]` the
/// second. Returns the lines carrying merged outputs `0, 1, …` in order.
///
/// # Panics
///
/// Panics if `lines.len()` is not a power of two `>= 2`.
pub fn build_merger(lb: &mut LayeredBuilder, lines: &[usize]) -> Vec<usize> {
    let w = lines.len();
    assert!(w.is_power_of_two() && w >= 2, "merger width must be a power of two >= 2");
    if w == 2 {
        lb.balancer(lines);
        return lines.to_vec();
    }
    let k = w / 2;
    let (x, y) = lines.split_at(k);
    // Merger A: even positions of x, odd positions of y.
    let a_lines: Vec<usize> =
        x.iter().step_by(2).chain(y.iter().skip(1).step_by(2)).copied().collect();
    // Merger B: odd positions of x, even positions of y.
    let b_lines: Vec<usize> =
        x.iter().skip(1).step_by(2).chain(y.iter().step_by(2)).copied().collect();
    let a_out = build_merger(lb, &a_lines);
    let b_out = build_merger(lb, &b_lines);
    // Final column: balancer i joins the i-th outputs of A and B, producing
    // merged outputs 2i (top) and 2i+1 (bottom).
    let mut out = Vec::with_capacity(w);
    for i in 0..k {
        lb.balancer(&[a_out[i], b_out[i]]);
        out.push(a_out[i]);
        out.push(b_out[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NetworkState;
    use cnet_util::proptest::prelude::*;

    fn lg(w: usize) -> usize {
        w.trailing_zeros() as usize
    }

    #[test]
    fn bitonic_depth_formula() {
        for w in [2usize, 4, 8, 16, 32] {
            let net = bitonic(w).unwrap();
            let k = lg(w);
            assert_eq!(net.depth(), k * (k + 1) / 2, "depth of B({w})");
            assert!(net.is_uniform(), "B({w}) must be uniform");
        }
    }

    #[test]
    fn bitonic_size_formula() {
        // Each of the depth layers holds w/2 (2,2)-balancers.
        for w in [2usize, 4, 8, 16] {
            let net = bitonic(w).unwrap();
            assert_eq!(net.size(), w / 2 * net.depth());
            for (_, b) in net.balancers() {
                assert_eq!(b.fan_in(), 2);
                assert_eq!(b.fan_out(), 2);
            }
        }
    }

    #[test]
    fn merger_depth_is_lg_w() {
        for w in [2usize, 4, 8, 16, 32] {
            let net = merger(w).unwrap();
            assert_eq!(net.depth(), lg(w));
            assert!(net.is_uniform());
            assert_eq!(net.size(), w / 2 * lg(w));
        }
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        assert!(bitonic(0).is_err());
        assert!(bitonic(3).is_err());
        assert!(bitonic(12).is_err());
        assert!(merger(1).is_err());
    }

    #[test]
    fn bitonic_4_structure_matches_figure_4() {
        // Figure 4 (left): B(4) has 6 balancers in 3 layers of 2.
        let net = bitonic(4).unwrap();
        assert_eq!(net.size(), 6);
        assert_eq!(net.depth(), 3);
        for l in 1..=3 {
            assert_eq!(net.layer(l).balancers().count(), 2, "layer {l}");
        }
        // Layer 1 balancers are fed directly by input wires.
        for b in net.layer(1).balancers() {
            for &w in net.balancer(b).inputs() {
                assert_eq!(net.wire_depth(w), 0);
            }
        }
    }

    #[test]
    fn bitonic_8_structure_matches_figure_4() {
        // Figure 4 (right): B(8) has 24 balancers in 6 layers of 4.
        let net = bitonic(8).unwrap();
        assert_eq!(net.size(), 24);
        assert_eq!(net.depth(), 6);
        for l in 1..=6 {
            assert_eq!(net.layer(l).balancers().count(), 4, "layer {l}");
        }
    }

    /// Exhaustively drain small bitonic networks and check the step property
    /// and gap-free values for many input distributions.
    #[test]
    fn bitonic_counts_exhaustive_small() {
        for w in [2usize, 4] {
            let net = bitonic(w).unwrap();
            let mut vecs = vec![vec![]];
            for _ in 0..w {
                vecs = vecs
                    .into_iter()
                    .flat_map(|v: Vec<u64>| {
                        (0..4u64).map(move |x| {
                            let mut v2 = v.clone();
                            v2.push(x);
                            v2
                        })
                    })
                    .collect();
            }
            for counts in vecs {
                let mut st = NetworkState::new(&net);
                let ts = st.push_tokens(&net, &counts);
                assert!(
                    st.output_counts_have_step_property(),
                    "B({w}) violates step property on input {counts:?}: {:?}",
                    st.output_counts()
                );
                let mut values: Vec<u64> = ts.iter().map(|t| t.value).collect();
                values.sort_unstable();
                let n: u64 = counts.iter().sum();
                assert_eq!(values, (0..n).collect::<Vec<_>>());
            }
        }
    }

    /// Regression seed once found by the property test below (shrunk to
    /// `lgw = 2, counts = [5, 0, 1, 8, 0, …]`), kept as an explicit case so
    /// it runs on every suite invocation.
    #[test]
    fn bitonic_counts_regression_lgw2_5_0_1_8() {
        let net = bitonic(4).unwrap();
        let counts = [5u64, 0, 1, 8];
        let mut st = NetworkState::new(&net);
        let ts = st.push_tokens(&net, &counts);
        assert!(st.output_counts_have_step_property(), "{:?}", st.output_counts());
        let mut values: Vec<u64> = ts.iter().map(|t| t.value).collect();
        values.sort_unstable();
        assert_eq!(values, (0..14).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bitonic_counts_random(
            lgw in 1usize..5,
            counts in prop::collection::vec(0u64..12, 16),
        ) {
            let w = 1 << lgw;
            let net = bitonic(w).unwrap();
            let counts: Vec<u64> = counts[..w].to_vec();
            let mut st = NetworkState::new(&net);
            let ts = st.push_tokens(&net, &counts);
            prop_assert!(st.output_counts_have_step_property());
            let mut values: Vec<u64> = ts.iter().map(|t| t.value).collect();
            values.sort_unstable();
            let n: u64 = counts.iter().sum();
            prop_assert_eq!(values, (0..n).collect::<Vec<_>>());
        }

        /// M(w) merges two step sequences into one step sequence.
        #[test]
        fn merger_merges_step_inputs(
            lgw in 1usize..5,
            a_total in 0u64..40,
            b_total in 0u64..40,
        ) {
            let w = 1usize << lgw;
            let net = merger(w).unwrap();
            // Build step-shaped input counts for each half.
            let half = w / 2;
            let mut counts = vec![0u64; w];
            for i in 0..half {
                counts[i] = a_total / half as u64
                    + u64::from((a_total % half as u64) > i as u64);
                counts[half + i] = b_total / half as u64
                    + u64::from((b_total % half as u64) > i as u64);
            }
            let mut st = NetworkState::new(&net);
            st.push_tokens(&net, &counts);
            prop_assert!(
                st.output_counts_have_step_property(),
                "M({}) failed on {:?} -> {:?}", w, counts, st.output_counts()
            );
        }
    }
}
