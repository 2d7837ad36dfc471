//! Sequential reference algorithms ("oracles").
//!
//! These are the classical centralized algorithms the paper cites in §1.5:
//! BFS/Dijkstra shortest paths and the textbook exact MWC reductions. Every
//! distributed algorithm in this repository is validated against them.
//!
//! The oracles favour obvious correctness over speed: the undirected
//! weighted MWC oracle is the per-edge-deletion `O(m · Dijkstra)` method,
//! whose correctness is unconditional, rather than a cleverer formula with
//! edge cases. Their only speed-ups are buffer reuse and strict
//! bound pruning, and a property test pins them, witnesses included, to
//! the unpruned loops.

mod mwc;
mod paths;

pub use mwc::{girth_exact, mwc_directed_exact, mwc_exact, mwc_undirected_exact, Mwc};
pub use paths::{
    bellman_ford_hops, bfs, dijkstra, extract_path, Direction, DistTree, HopDistTree, HOP_INF, INF,
};
