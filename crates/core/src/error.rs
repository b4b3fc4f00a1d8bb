//! Error type shared by the relevance algorithms.

use std::fmt;

/// Errors produced by the relevance algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The reference/seed node index is out of bounds.
    InvalidReference {
        /// Offending node index.
        node: u32,
        /// Graph node count.
        node_count: usize,
    },
    /// A personalized algorithm was invoked without a reference node.
    MissingReference,
    /// The damping factor α must lie in (0, 1).
    InvalidDamping(f64),
    /// The maximum cycle length K must be ≥ 2.
    InvalidMaxCycleLength(u32),
    /// A numeric parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint violated.
        message: String,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::EmptyGraph => write!(f, "graph has no nodes"),
            AlgoError::InvalidReference { node, node_count } => {
                write!(f, "reference node {node} out of bounds ({node_count} nodes)")
            }
            AlgoError::MissingReference => {
                write!(f, "personalized algorithm requires a reference node")
            }
            AlgoError::InvalidDamping(a) => {
                write!(f, "damping factor must be in (0, 1), got {a}")
            }
            AlgoError::InvalidMaxCycleLength(k) => {
                write!(f, "maximum cycle length K must be >= 2, got {k}")
            }
            AlgoError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter {name}: {message}")
            }
        }
    }
}

impl std::error::Error for AlgoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        assert!(AlgoError::EmptyGraph.to_string().contains("no nodes"));
        assert!(AlgoError::InvalidReference { node: 9, node_count: 3 }.to_string().contains("9"));
        assert!(AlgoError::MissingReference.to_string().contains("reference"));
        assert!(AlgoError::InvalidDamping(1.5).to_string().contains("1.5"));
        assert!(AlgoError::InvalidMaxCycleLength(1).to_string().contains("K"));
        let e = AlgoError::InvalidParameter { name: "epsilon", message: "must be > 0".into() };
        assert!(e.to_string().contains("epsilon"));
    }
}
