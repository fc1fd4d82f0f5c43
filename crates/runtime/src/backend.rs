//! The one place a backend name becomes a counter.
//!
//! `cnet serve` and `cnet audit` both construct their counter through
//! [`Backend::build`], and every usage and error list is generated from
//! [`Backend::ALL`] — so a backend cannot be added without being listed,
//! served and audited. (`remote` and `cluster` are not here: they wrap a
//! socket, which this crate does not know about.)

use crate::{
    CombiningFunnel, DiffractingTree, FetchAddCounter, LockCounter, ProcessCounter,
    SharedNetworkCounter,
};
use cnet_topology::Network;
use std::sync::Arc;

/// Prism slots per diffracting-tree node.
const PRISM_WIDTH: usize = 4;

/// An in-process counter backend, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// [`SharedNetworkCounter`]: the compiled traversal.
    Compiled,
    /// [`CombiningFunnel`] over the compiled traversal.
    Combining,
    /// [`DiffractingTree`].
    Diffracting,
    /// [`FetchAddCounter`]: one fetch-and-increment word.
    FetchAdd,
    /// [`LockCounter`].
    Lock,
}

impl Backend {
    /// Every backend, in the order usage texts list them.
    pub const ALL: [Backend; 5] = [
        Backend::Compiled,
        Backend::Combining,
        Backend::Diffracting,
        Backend::FetchAdd,
        Backend::Lock,
    ];

    /// The backend called `name`, if any.
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The name [`parse`](Self::parse) accepts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Compiled => "compiled",
            Backend::Combining => "combining",
            Backend::Diffracting => "diffracting",
            Backend::FetchAdd => "fetch_add",
            Backend::Lock => "lock",
        }
    }

    /// Whether [`build`](Self::build) needs a [`Network`] to lay out.
    pub fn uses_network(self) -> bool {
        matches!(self, Backend::Compiled | Backend::Combining)
    }

    /// Constructs the backend: over `net` when it
    /// [`uses_network`](Self::uses_network), with `fan` diffracting-tree
    /// leaves and `width` combining-funnel slots.
    ///
    /// # Errors
    ///
    /// Returns a message if the backend needs a network and `net` is
    /// `None`, or if `fan` is not a valid diffracting-tree width.
    pub fn build(
        self,
        net: Option<&Network>,
        fan: usize,
        width: usize,
    ) -> Result<Arc<dyn ProcessCounter + Send + Sync>, String> {
        let net = || net.ok_or_else(|| format!("backend {} needs a network", self.name()));
        Ok(match self {
            Backend::Compiled => Arc::new(SharedNetworkCounter::new(net()?)),
            Backend::Combining => {
                Arc::new(CombiningFunnel::new(SharedNetworkCounter::new(net()?), width))
            }
            Backend::Diffracting => Arc::new(DiffractingTree::new(fan, PRISM_WIDTH)?),
            Backend::FetchAdd => Arc::new(FetchAddCounter::new()),
            Backend::Lock => Arc::new(LockCounter::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{drain_remaining, drive, TraceRecorder, Traced, Workload};
    use cnet_core::trace::StreamingAuditor;
    use cnet_topology::construct::bitonic;

    #[test]
    fn every_backend_parses_builds_and_counts() {
        let net = bitonic(4).unwrap();
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            let counter = b.build(Some(&net), 4, 2).unwrap();
            let mut values: Vec<u64> = (0..12).map(|p| counter.next_for(p % 2)).collect();
            values.sort_unstable();
            assert_eq!(values, (0..12).collect::<Vec<_>>(), "{}", b.name());
            assert_eq!(b.build(None, 4, 2).is_err(), b.uses_network(), "{}", b.name());
            // Behind the recorder at two threads: still exactly 0..n, and
            // the audit's two meters agree on what clean means.
            let workload = Workload { threads: 2, increments_per_thread: 500 };
            let recorder = Arc::new(TraceRecorder::new(2, 500));
            let traced = Traced::new(b.build(Some(&net), 4, 2).unwrap(), Arc::clone(&recorder));
            let mut values: Vec<u64> = drive(&traced, workload).iter().map(|o| o.value).collect();
            values.sort_unstable();
            assert_eq!(values, (0..1000).collect::<Vec<_>>(), "{}", b.name());
            let mut auditor = StreamingAuditor::new();
            assert_eq!(drain_remaining(&recorder, &mut auditor), 1000, "{}", b.name());
            assert_eq!(auditor.f_nl() == 0.0, auditor.qqc_max() == 0, "{}", b.name());
        }
        assert_eq!(Backend::parse("remote"), None);
        assert!(Backend::Diffracting.build(None, 6, 2).is_err());
    }

    #[test]
    fn names_are_distinct_and_nothing_else_parses() {
        // `parse` takes the first match, so a repeated name would shadow a
        // backend.
        let mut names = Backend::ALL.map(Backend::name).to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Backend::ALL.len());
        for name in ["", "Compiled", "fetch-add", "graph_walk", "cluster"] {
            assert_eq!(Backend::parse(name), None, "{name:?}");
        }
    }

    #[test]
    fn a_missing_network_is_named_in_the_error() {
        for b in Backend::ALL.into_iter().filter(|b| b.uses_network()) {
            let err = b.build(None, 4, 2).err().unwrap();
            assert_eq!(err, format!("backend {} needs a network", b.name()));
        }
        // A network is ignored, not rejected, where none is needed.
        let net = bitonic(4).unwrap();
        for b in Backend::ALL.into_iter().filter(|b| !b.uses_network()) {
            assert!(b.build(Some(&net), 4, 2).is_ok(), "{}", b.name());
        }
    }
}
