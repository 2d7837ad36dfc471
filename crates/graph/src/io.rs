//! Plain-text edge-list serialization.
//!
//! Format (whitespace-separated, `#` comments allowed):
//!
//! ```text
//! <n> directed|undirected
//! u v [w]     # one edge per line; weight defaults to 1
//! ```
//!
//! # Examples
//!
//! ```
//! use mwc_graph::{io, Graph, Orientation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Graph::from_edges(3, Orientation::Directed, [(0, 1, 2), (1, 2, 1)])?;
//! let text = io::to_edge_list(&g);
//! let back = io::parse_edge_list(&text)?;
//! assert_eq!(back.n(), 3);
//! assert_eq!(back.weight(0, 1), Some(2));
//! # Ok(())
//! # }
//! ```

use crate::graph::{Graph, GraphError, Orientation};
use std::fmt;

/// The largest vertex count the simulator accepts. Its node ids are stored
/// in 32 bits (flood-plan hops, distance-matrix predecessors, whose
/// `u32::MAX` marks "no predecessor"), so ids stay below `u32::MAX`.
pub const MAX_VERTICES: usize = u32::MAX as usize;

/// Errors produced by [`parse_edge_list`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseGraphError {
    /// The input had no header line.
    MissingHeader,
    /// The header was not `<n> directed|undirected`.
    BadHeader {
        /// The offending header line.
        line: String,
    },
    /// The header declared more than [`MAX_VERTICES`] vertices.
    TooManyVertices {
        /// The declared vertex count.
        n: usize,
    },
    /// An edge line did not parse.
    BadEdge {
        /// 1-based line number in the input.
        line_no: usize,
        /// The offending line.
        line: String,
    },
    /// The edge was rejected by the graph (self-loop, duplicate, range).
    Graph {
        /// 1-based line number in the input.
        line_no: usize,
        /// The underlying graph error.
        source: GraphError,
    },
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::MissingHeader => f.write_str("missing header line"),
            ParseGraphError::BadHeader { line } => {
                write!(
                    f,
                    "bad header {line:?}: expected \"<n> directed|undirected\""
                )
            }
            ParseGraphError::TooManyVertices { n } => {
                write!(f, "{n} vertices: at most {MAX_VERTICES} are supported")
            }
            ParseGraphError::BadEdge { line_no, line } => {
                write!(f, "line {line_no}: bad edge {line:?}: expected \"u v [w]\"")
            }
            ParseGraphError::Graph { line_no, source } => {
                write!(f, "line {line_no}: {source}")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGraphError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses a graph from the edge-list format (see the [module docs](self)).
///
/// # Errors
///
/// Returns a [`ParseGraphError`] pinpointing the offending line, before
/// allocating anything for a header above [`MAX_VERTICES`].
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (_, header) = lines.next().ok_or(ParseGraphError::MissingHeader)?;
    let mut h = header.split_whitespace();
    let bad_header = || ParseGraphError::BadHeader {
        line: header.to_owned(),
    };
    let n: usize = h
        .next()
        .ok_or_else(bad_header)?
        .parse()
        .map_err(|_| bad_header())?;
    if n > MAX_VERTICES {
        return Err(ParseGraphError::TooManyVertices { n });
    }
    let orientation = match h.next().unwrap_or("undirected") {
        "directed" => Orientation::Directed,
        "undirected" => Orientation::Undirected,
        _ => return Err(bad_header()),
    };

    let mut g = Graph::new(n, orientation);
    for (line_no, line) in lines {
        let bad = || ParseGraphError::BadEdge {
            line_no,
            line: line.to_owned(),
        };
        let mut t = line.split_whitespace();
        let u: usize = t.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let v: usize = t.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let w: u64 = match t.next() {
            Some(x) => x.parse().map_err(|_| bad())?,
            None => 1,
        };
        if t.next().is_some() {
            return Err(bad());
        }
        g.add_edge(u, v, w)
            .map_err(|source| ParseGraphError::Graph { line_no, source })?;
    }
    Ok(g)
}

/// Serializes a graph to the edge-list format (round-trips through
/// [`parse_edge_list`]).
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = format!("{} {}\n", g.n(), g.orientation());
    for e in g.edges() {
        out.push_str(&format!("{} {} {}\n", e.u, e.v, e.weight));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{connected_gnm, WeightRange};

    #[test]
    fn round_trip_preserves_everything() {
        for orientation in [Orientation::Directed, Orientation::Undirected] {
            let g = connected_gnm(30, 60, orientation, WeightRange::uniform(1, 9), 3);
            let back = parse_edge_list(&to_edge_list(&g)).unwrap();
            assert_eq!(back.n(), g.n());
            assert_eq!(back.orientation(), g.orientation());
            assert_eq!(back.edges(), g.edges());
        }
    }

    #[test]
    fn parses_comments_blanks_and_default_weights() {
        let text = "
            # a triangle
            3 undirected

            0 1      # unit weight
            1 2 5
            2 0 2
        ";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.weight(0, 1), Some(1));
        assert_eq!(g.weight(1, 2), Some(5));
    }

    #[test]
    fn error_cases_pinpoint_lines() {
        assert_eq!(parse_edge_list(""), Err(ParseGraphError::MissingHeader));
        assert!(matches!(
            parse_edge_list("3 sideways"),
            Err(ParseGraphError::BadHeader { .. })
        ));
        // Rejected before anything is allocated for the vertices.
        for n in [u64::MAX, 5_000_000_000, u32::MAX as u64 + 1] {
            assert_eq!(
                parse_edge_list(&format!("{n} undirected")),
                Err(ParseGraphError::TooManyVertices { n: n as usize })
            );
        }
        assert!(matches!(
            parse_edge_list("3 directed\n0 x"),
            Err(ParseGraphError::BadEdge { line_no: 2, .. })
        ));
        assert!(matches!(
            parse_edge_list("3 directed\n0 1 2 9"),
            Err(ParseGraphError::BadEdge { .. })
        ));
        match parse_edge_list("2 directed\n0 0") {
            Err(ParseGraphError::Graph { line_no: 2, source }) => {
                assert_eq!(source, GraphError::SelfLoop { node: 0 });
            }
            other => panic!("expected self-loop error, got {other:?}"),
        }
    }

    #[test]
    fn header_defaults_to_undirected() {
        let g = parse_edge_list("2\n0 1 4").unwrap();
        assert_eq!(g.orientation(), Orientation::Undirected);
        assert_eq!(g.weight(1, 0), Some(4));
    }
}
