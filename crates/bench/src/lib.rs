//! Experiment harness for the counting-networks reproduction.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index); this library holds the pieces they
//! share — plain-text table rendering and the reusable experiment drivers —
//! so the integration tests can assert the same results the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod search;
pub mod sweeps;

pub use report::Table;
pub use search::{maximize, SearchOutcome, SearchSpace};
pub use sweeps::{
    adversarial_fractions, local_delay_sufficiency, sufficiency_scan, FractionPoint,
    SufficiencyReport,
};
