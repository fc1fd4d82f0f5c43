//! Theorem 5.11 and Corollaries 5.12/5.13: the family of lower bounds on
//! both inconsistency fractions, one per level `ℓ ∈ 1..=sp(G)`.
//!
//! For each classic network and each level, the three-wave schedule runs
//! just above its threshold `1 + d(G)/d(S⁽ℓ⁾)`; the measured fractions must
//! meet the predicted lower bounds — and, for this construction, match them
//! exactly. The final rows (ℓ = lg w) are Corollaries 5.12/5.13.
//!
//! Run: `cargo run --release -p cnet-bench --bin exp_thm511`

use cnet_bench::report::f3;
use cnet_bench::{adversarial_fractions, Table};
use cnet_core::theory;
use cnet_topology::construct::{bitonic, periodic};
use cnet_topology::Network;

fn panel(title: &str, nets: &[(&str, Network)]) {
    println!("--- {title} ---\n");
    let mut table = Table::new(vec![
        "network",
        "l",
        "threshold 1 + d/d(S^l)",
        "F_nl measured",
        "F_nl bound",
        "F_nsc measured",
        "F_nsc bound",
    ]);
    for (label, net) in nets {
        let w = net.fan().expect("classic fans");
        let sp = theory::classic_split_number(w);
        for ell in 1..=sp {
            let point = adversarial_fractions(net, ell);
            let nl_bound = theory::thm_5_11_nl_lower(ell);
            let nsc_bound = theory::thm_5_11_nsc_lower(ell);
            assert!(point.f_nl >= nl_bound - 1e-9, "{label} l={ell}");
            assert!(point.f_nsc >= nsc_bound - 1e-9, "{label} l={ell}");
            let cor = if ell == sp { " (Cor 5.12/5.13)" } else { "" };
            table.row(vec![
                format!("{label}{cor}"),
                ell.to_string(),
                format!("{:.2}", point.threshold),
                f3(point.f_nl),
                f3(nl_bound),
                f3(point.f_nsc),
                f3(nsc_bound),
            ]);
        }
    }
    println!("{table}");
}

fn main() {
    println!("== Theorem 5.11: inconsistency-fraction lower bounds per level ==\n");
    panel(
        "Bitonic networks",
        &[
            ("B(8)", bitonic(8).unwrap()),
            ("B(16)", bitonic(16).unwrap()),
            ("B(32)", bitonic(32).unwrap()),
        ],
    );
    panel("Periodic networks", &[("P(8)", periodic(8).unwrap()), ("P(16)", periodic(16).unwrap())]);
    println!(
        "Reading: as l grows (stronger asynchrony required), F_nl rises toward 1/2 while\n\
         F_nsc falls toward 0 — the bounds diverge under strong asynchrony and coincide\n\
         (both 1/3) at l = 1, exactly as the paper concludes. At l = lg w the values are\n\
         (w-1)/(2w-1) and 1/(2w-1): Corollaries 5.12 and 5.13."
    );
}
