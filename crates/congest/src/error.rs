//! The simulator error type.
//!
//! Every run — CONGEST, reliable transport, or congested clique — fails
//! through the one [`SimError`]: a model violation by the algorithm
//! (bandwidth, port, destination, broadcast-only), a configuration the
//! selected backend cannot honor, or a configuration value that is invalid
//! in itself.

use std::fmt;

/// Any error a simulation can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A CONGEST node tried to push more bits through an edge than the
    /// bandwidth allows in one round.
    BandwidthExceeded {
        /// Sending node index.
        node: usize,
        /// Port the violation happened on.
        port: usize,
        /// Bits the node attempted to send this round on that port.
        attempted: usize,
        /// The configured limit.
        limit: usize,
        /// The round of the violation.
        round: usize,
    },
    /// A CONGEST node addressed a port it does not have.
    InvalidPort {
        /// Sending node index.
        node: usize,
        /// The bad port.
        port: usize,
        /// The node's degree.
        degree: usize,
    },
    /// A node unicast a message under broadcast-CONGEST (the model variant
    /// of \[DKO14\] where every node must send the same message on all of
    /// its edges).
    UnicastForbidden {
        /// Sending node index.
        node: usize,
        /// The round of the violation.
        round: usize,
    },
    /// A congested-clique node exceeded the per-pair bandwidth in one
    /// round.
    PairBandwidthExceeded {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Bits attempted this round on that pair.
        attempted: usize,
        /// Configured limit.
        limit: usize,
        /// Round of the violation.
        round: usize,
    },
    /// A congested-clique message addressed outside `0..n` or to the
    /// sender itself.
    InvalidDestination {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
    },
    /// The builder was configured with options the selected backend does
    /// not support (e.g. fault injection on the clique engine).
    Unsupported(String),
    /// A configuration value is invalid in itself (e.g. a zero-width ARQ
    /// window, a loss probability above 1, or the wrong number of ids),
    /// caught before the run instead of hanging or panicking mid-run.
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BandwidthExceeded {
                node,
                port,
                attempted,
                limit,
                round,
            } => write!(
                f,
                "bandwidth exceeded: node {node} port {port} sent {attempted} bits \
                 (limit {limit}) in round {round}"
            ),
            SimError::InvalidPort { node, port, degree } => {
                write!(f, "invalid port {port} on node {node} (degree {degree})")
            }
            SimError::UnicastForbidden { node, round } => {
                write!(
                    f,
                    "node {node} unicast in round {round} under broadcast-CONGEST"
                )
            }
            SimError::PairBandwidthExceeded {
                from,
                to,
                attempted,
                limit,
                round,
            } => write!(
                f,
                "clique bandwidth exceeded: {from}->{to} sent {attempted} bits \
                 (limit {limit}) in round {round}"
            ),
            SimError::InvalidDestination { from, to } => {
                write!(f, "invalid destination {to} from node {from}")
            }
            SimError::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
            SimError::Config(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_texts() {
        let cases = [
            (
                SimError::BandwidthExceeded {
                    node: 1,
                    port: 2,
                    attempted: 64,
                    limit: 8,
                    round: 3,
                },
                "bandwidth exceeded: node 1 port 2 sent 64 bits (limit 8) in round 3",
            ),
            (
                SimError::InvalidPort {
                    node: 1,
                    port: 9,
                    degree: 2,
                },
                "invalid port 9 on node 1 (degree 2)",
            ),
            (
                SimError::UnicastForbidden { node: 3, round: 2 },
                "node 3 unicast in round 2 under broadcast-CONGEST",
            ),
            (
                SimError::PairBandwidthExceeded {
                    from: 0,
                    to: 4,
                    attempted: 40,
                    limit: 32,
                    round: 1,
                },
                "clique bandwidth exceeded: 0->4 sent 40 bits (limit 32) in round 1",
            ),
            (
                SimError::InvalidDestination { from: 0, to: 7 },
                "invalid destination 7 from node 0",
            ),
            (
                SimError::Unsupported("faults on clique".into()),
                "unsupported configuration: faults on clique",
            ),
            (
                SimError::Config("window must be at least 1".into()),
                "invalid configuration: window must be at least 1",
            ),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
        }
    }
}
