//! Witness cycles.
//!
//! Per Definition 1.1 of the paper, the distributed algorithms compute the
//! *weight* of a (near-)minimum weight cycle but can also reconstruct the
//! cycle itself. Every algorithm in this repository returns a
//! [`CycleWitness`] alongside the weight so tests can check that the
//! reported value is the weight of a **real simple cycle** — this is what
//! makes the "never underestimates the MWC" guarantee checkable.

use crate::graph::{Graph, NodeId, Weight};
use std::collections::HashSet;
use std::fmt;

/// A simple cycle given as its vertex sequence `v₀, v₁, …, v_{k−1}`; the
/// edges are `(v₀,v₁), …, (v_{k−2},v_{k−1}), (v_{k−1},v₀)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CycleWitness {
    vertices: Vec<NodeId>,
}

/// Reasons a [`CycleWitness`] can fail validation against a graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WitnessError {
    /// Fewer vertices than a simple cycle needs (2 for directed graphs,
    /// 3 for undirected graphs, where a 2-cycle would reuse one edge).
    TooShort {
        /// Number of vertices in the witness.
        len: usize,
        /// Minimum required for this orientation.
        min: usize,
    },
    /// A vertex appears twice.
    RepeatedVertex {
        /// The repeated vertex.
        node: NodeId,
    },
    /// A vertex id is `>= n`.
    NodeOutOfRange {
        /// The out-of-range vertex.
        node: NodeId,
    },
    /// A required edge is missing from the graph.
    MissingEdge {
        /// Tail endpoint.
        u: NodeId,
        /// Head endpoint.
        v: NodeId,
    },
    /// The cycle's total weight exceeds [`Weight`]'s range.
    WeightOverflow,
}

impl fmt::Display for WitnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WitnessError::TooShort { len, min } => {
                write!(f, "cycle has {len} vertices, fewer than the minimum {min}")
            }
            WitnessError::RepeatedVertex { node } => {
                write!(f, "vertex {node} repeats, cycle is not simple")
            }
            WitnessError::NodeOutOfRange { node } => write!(f, "vertex {node} not in graph"),
            WitnessError::MissingEdge { u, v } => write!(f, "edge ({u}, {v}) not in graph"),
            WitnessError::WeightOverflow => write!(f, "cycle weight overflows a 64-bit word"),
        }
    }
}

impl std::error::Error for WitnessError {}

impl CycleWitness {
    /// Wraps a vertex sequence as a witness. No validation happens here;
    /// call [`CycleWitness::validate`] to check it against a graph.
    pub fn new(vertices: Vec<NodeId>) -> Self {
        CycleWitness { vertices }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }

    /// Number of vertices (equivalently, edges) on the cycle — the *hop
    /// length* in the paper's terminology.
    pub fn hop_len(&self) -> usize {
        self.vertices.len()
    }

    /// Checks that this is a simple cycle of `graph` and returns its total
    /// weight.
    ///
    /// # Errors
    ///
    /// Returns a [`WitnessError`] describing the first violated condition:
    /// minimum length (2 directed / 3 undirected), vertex range,
    /// simplicity, existence of every edge including the closing edge, and
    /// a total weight that fits in [`Weight`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mwc_graph::{Graph, CycleWitness};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = Graph::from_edges(3, mwc_graph::Orientation::Directed,
    ///     [(0, 1, 2), (1, 2, 3), (2, 0, 4)])?;
    /// let w = CycleWitness::new(vec![0, 1, 2]);
    /// assert_eq!(w.validate(&g)?, 9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn validate(&self, graph: &Graph) -> Result<Weight, WitnessError> {
        let min = if graph.is_directed() { 2 } else { 3 };
        if self.vertices.len() < min {
            return Err(WitnessError::TooShort {
                len: self.vertices.len(),
                min,
            });
        }
        let mut seen = HashSet::with_capacity(self.vertices.len());
        for &v in &self.vertices {
            if v >= graph.n() {
                return Err(WitnessError::NodeOutOfRange { node: v });
            }
            if !seen.insert(v) {
                return Err(WitnessError::RepeatedVertex { node: v });
            }
        }
        let mut total: Weight = 0;
        for i in 0..self.vertices.len() {
            let u = self.vertices[i];
            let v = self.vertices[(i + 1) % self.vertices.len()];
            let w = graph
                .weight(u, v)
                .ok_or(WitnessError::MissingEdge { u, v })?;
            total = total.checked_add(w).ok_or(WitnessError::WeightOverflow)?;
        }
        Ok(total)
    }
}

impl fmt::Display for CycleWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, " → …]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Orientation;

    fn triangle() -> Graph {
        Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 2), (2, 0, 3), (2, 3, 9)],
        )
        .unwrap()
    }

    #[test]
    fn valid_triangle() {
        let w = CycleWitness::new(vec![0, 1, 2]);
        assert_eq!(w.validate(&triangle()), Ok(6));
        assert_eq!(w.hop_len(), 3);
    }

    #[test]
    fn order_reversed_is_also_valid_undirected() {
        let w = CycleWitness::new(vec![2, 1, 0]);
        assert_eq!(w.validate(&triangle()), Ok(6));
    }

    #[test]
    fn undirected_two_cycle_rejected() {
        let w = CycleWitness::new(vec![0, 1]);
        assert_eq!(
            w.validate(&triangle()),
            Err(WitnessError::TooShort { len: 2, min: 3 })
        );
    }

    #[test]
    fn directed_two_cycle_allowed() {
        let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 4), (1, 0, 6)]).unwrap();
        let w = CycleWitness::new(vec![0, 1]);
        assert_eq!(w.validate(&g), Ok(10));
    }

    #[test]
    fn rejects_repeat() {
        let w = CycleWitness::new(vec![0, 1, 0, 2]);
        assert_eq!(
            w.validate(&triangle()),
            Err(WitnessError::RepeatedVertex { node: 0 })
        );
    }

    #[test]
    fn rejects_missing_edge() {
        let w = CycleWitness::new(vec![0, 1, 3]);
        assert_eq!(
            w.validate(&triangle()),
            Err(WitnessError::MissingEdge { u: 1, v: 3 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let w = CycleWitness::new(vec![0, 1, 17]);
        assert_eq!(
            w.validate(&triangle()),
            Err(WitnessError::NodeOutOfRange { node: 17 })
        );
    }

    #[test]
    fn overflowing_weight_is_rejected() {
        let big = Weight::MAX / 2;
        let g = Graph::from_edges(
            3,
            Orientation::Undirected,
            [(0, 1, big), (1, 2, big), (2, 0, 2)],
        )
        .unwrap();
        assert_eq!(
            CycleWitness::new(vec![0, 1, 2]).validate(&g),
            Err(WitnessError::WeightOverflow)
        );
        let fits = Graph::from_edges(
            3,
            Orientation::Undirected,
            [(0, 1, big), (1, 2, big), (2, 0, 1)],
        )
        .unwrap();
        assert_eq!(
            CycleWitness::new(vec![0, 1, 2]).validate(&fits),
            Ok(Weight::MAX)
        );
    }

    #[test]
    fn directed_orientation_matters() {
        let g =
            Graph::from_edges(3, Orientation::Directed, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]).unwrap();
        assert!(CycleWitness::new(vec![0, 1, 2]).validate(&g).is_ok());
        assert_eq!(
            CycleWitness::new(vec![2, 1, 0]).validate(&g),
            Err(WitnessError::MissingEdge { u: 2, v: 1 })
        );
    }
}
