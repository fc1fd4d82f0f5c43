//! Strongly-typed indices for the entities of a balancing network.
//!
//! All ids are plain `usize` newtypes ([C-NEWTYPE]); they are only meaningful
//! relative to the [`crate::Network`] that produced them.

use cnet_util::json_newtype;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default,
        )]
        pub struct $name(pub usize);

        json_newtype!($name: usize);

        impl $name {
            /// Returns the underlying index.
            #[inline]
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.0
            }
        }
    };
}

id_type!(
    /// Index of a balancer (inner node) within a network.
    BalancerId,
    "b"
);
id_type!(
    /// Index of a wire (edge) within a network.
    WireId,
    "w"
);
id_type!(
    /// Index of a source node — the `i`-th input wire of the network.
    SourceId,
    "x"
);
id_type!(
    /// Index of a sink node — the `j`-th output wire / counter of the network.
    SinkId,
    "y"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_letters() {
        assert_eq!(BalancerId(3).to_string(), "b3");
        assert_eq!(WireId(0).to_string(), "w0");
        assert_eq!(SourceId(7).to_string(), "x7");
        assert_eq!(SinkId(2).to_string(), "y2");
    }

    #[test]
    fn round_trips_through_usize() {
        let b: BalancerId = 5usize.into();
        assert_eq!(usize::from(b), 5);
        assert_eq!(b.index(), 5);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(BalancerId(1) < BalancerId(2));
        assert_eq!(SinkId(4), SinkId(4));
    }

    #[test]
    fn ids_serialize_as_bare_indices() {
        // Saved schedules and networks carry ids as plain numbers.
        assert_eq!(cnet_util::json::to_string(&WireId(12)), "12");
        let back: SinkId = cnet_util::json::from_str("3").unwrap();
        assert_eq!(back, SinkId(3));
        assert!(cnet_util::json::from_str::<BalancerId>("\"b3\"").is_err());
        assert_eq!(SourceId::default(), SourceId(0));
    }
}
