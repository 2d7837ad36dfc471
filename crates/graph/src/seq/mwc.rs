//! Exact sequential minimum-weight-cycle oracles.
//!
//! - [`mwc_directed_exact`]: one Dijkstra per source `v`; for every edge
//!   `(u, v)` the cheapest cycle through that edge is `d(v, u) + w(u, v)`.
//! - [`mwc_undirected_exact`]: per-edge deletion; the cheapest cycle through
//!   edge `e = (x, y)` is `w(e) + d_{G−e}(x, y)`. Unconditionally correct.
//! - [`girth_exact`]: all-source BFS; for a source on a shortest cycle the
//!   "antipodal" non-tree edge certifies the girth exactly, and every
//!   candidate corresponds to a real simple cycle (via the BFS-tree LCA),
//!   so the minimum over sources and non-tree edges is exact.
//!
//! All oracles return a validated [`CycleWitness`] so distributed results
//! can be compared both by value and by structure.
//!
//! # Parallelism and determinism
//!
//! The per-source / per-edge outer loops are embarrassingly parallel and
//! dominate bench wall-clock, so they run through
//! [`mwc_par::ordered_map_jobs`] (worker count from `MWC_JOBS` / `--jobs`,
//! default 1), one contiguous chunk of items per task, each chunk with its
//! own reused search buffers. The returned cycle is **identical for every
//! worker count**: each oracle updates its running best only on *strict*
//! improvement, so the sequential winner is the first item (in iteration
//! order) attaining the global minimum — and merging per-item results in
//! input order with the same strict rule reproduces exactly that item.
//!
//! # Pruning
//!
//! All three oracles share the weight of the best cycle found so far
//! through an [`AtomicU64`] bound, and stop a search or drop an item once
//! it provably cannot reach the bound: a directed Dijkstra stops past the
//! bound, an undirected one at its target or past the bound, and a girth
//! LCA walk once its cycle must be longer than the bound (or than the
//! source's best, which a candidate has to beat strictly). The answer,
//! witness included, is the one the full searches would give, because:
//!
//! - **The bound check is strict.** A search stops, or an item is dropped,
//!   only when everything it could still find weighs *more* than a cycle
//!   already found. Items that could tie the final minimum always run, so
//!   the first item attaining it, which wins the merge, is unchanged. The
//!   bound only shrinks, so a stale read merely prunes less.
//! - **Candidates come from settled nodes only.** A Dijkstra node is used
//!   as a cycle candidate only once it has been popped, when its distance
//!   is final. A node left unpopped when a search stops is at distance
//!   greater than the bound, so no cycle through it can tie the minimum.
//! - **A node's parent chain is final once it is popped.** Pops come in
//!   `(distance, node id)` order and a later pop can never relax a popped
//!   node, so a truncated search leaves every popped node with exactly the
//!   distance and shortest-path tree path of the full search, and the
//!   witness read off that path is the same.

use crate::graph::{Graph, NodeId, Weight};
use crate::seq::paths::{
    bfs_into, dijkstra_into, extract_path, BfsBuf, DijkstraBuf, Direction, HopDistTree, HOP_INF,
    INF,
};
use crate::witness::CycleWitness;
use std::sync::atomic::{AtomicU64, Ordering};

/// Merges per-item oracle results in input order: keeps the earlier item
/// on ties, exactly like the sequential strict-improvement loop.
fn first_min(results: impl IntoIterator<Item = Option<Mwc>>) -> Option<Mwc> {
    results
        .into_iter()
        .flatten()
        .fold(None, |acc: Option<Mwc>, m| match acc {
            Some(b) if b.weight <= m.weight => Some(b),
            _ => Some(m),
        })
}

/// [`first_min`] of `item(buf, i)` over `i ∈ 0..n`, on `jobs` workers.
/// Items run in contiguous chunks, each chunk reusing one set of search
/// buffers `B`; a few chunks per worker keep the load balanced when
/// pruning makes item costs uneven.
fn min_over_items<B: Default>(
    n: usize,
    jobs: usize,
    item: impl Fn(&mut B, usize) -> Option<Mwc> + Sync,
) -> Option<Mwc> {
    let chunk = n.div_ceil(4 * jobs).max(1);
    let starts = (0..n).step_by(chunk).collect();
    first_min(mwc_par::ordered_map_jobs(starts, jobs, |lo| {
        let mut buf = B::default();
        first_min((lo..n.min(lo + chunk)).map(|i| item(&mut buf, i)))
    }))
}

/// Lowers `bound` to `weight` and reports whether a cycle *strictly*
/// lighter than `weight` was already known, i.e. whether the candidate
/// cannot win.
fn beaten(bound: &AtomicU64, weight: Weight) -> bool {
    bound.fetch_min(weight, Ordering::Relaxed) < weight
}

/// A minimum weight cycle: its weight and a witness vertex sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mwc {
    /// Total weight of the cycle (equals hop length for unit weights).
    pub weight: Weight,
    /// The cycle itself.
    pub witness: CycleWitness,
}

/// Exact MWC of a directed graph, or `None` if the graph is acyclic.
///
/// Runs Dijkstra from every node (`O(n · (m + n log n))`). A cycle through
/// edge `(u, v)` of minimal weight is a shortest `v → u` path plus the edge.
/// Each search stops once it pops a distance above the best cycle found so
/// far.
///
/// # Examples
///
/// ```
/// use mwc_graph::{Graph, Orientation};
/// use mwc_graph::seq::mwc_directed_exact;
///
/// # fn main() -> Result<(), mwc_graph::GraphError> {
/// let g = Graph::from_edges(4, Orientation::Directed,
///     [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 0, 1)])?;
/// let mwc = mwc_directed_exact(&g).expect("graph has a cycle");
/// assert_eq!(mwc.weight, 3);
/// # Ok(())
/// # }
/// ```
pub fn mwc_directed_exact(g: &Graph) -> Option<Mwc> {
    directed_exact_jobs(g, mwc_par::jobs())
}

fn directed_exact_jobs(g: &Graph, jobs: usize) -> Option<Mwc> {
    assert!(
        g.is_directed(),
        "mwc_directed_exact requires a directed graph"
    );
    let bound = AtomicU64::new(u64::MAX);
    let best = min_over_items(g.n(), jobs, |buf: &mut DijkstraBuf, v| {
        dijkstra_into(g, v, Direction::Forward, usize::MAX, buf, |d, u| {
            if d > bound.load(Ordering::Relaxed) {
                return false;
            }
            if let Some(a) = g.out_adj(u).iter().find(|a| a.to == v) {
                bound.fetch_min(d + a.weight, Ordering::Relaxed);
            }
            true
        });
        // Every node at distance ≤ the bound was popped before the search
        // stopped, so these candidates are exactly the settled ones that
        // could still win.
        let settled = bound.load(Ordering::Relaxed);
        let t = &buf.tree;
        let mut best: Option<(Weight, NodeId)> = None;
        for a in g.in_adj(v) {
            let u = a.to;
            if t.dist[u] == INF || t.dist[u] > settled {
                continue;
            }
            let cand = t.dist[u] + a.weight;
            if best.is_none_or(|(b, _)| cand < b) {
                best = Some((cand, u));
            }
        }
        let (weight, u) = best?;
        if beaten(&bound, weight) {
            return None;
        }
        let path = extract_path(&t.parent, v, u).expect("u is settled so the parent chain exists");
        Some(Mwc {
            weight,
            witness: CycleWitness::new(path),
        })
    });
    debug_assert!(best
        .as_ref()
        .is_none_or(|b| b.witness.validate(g) == Ok(b.weight)));
    best
}

/// Exact MWC of an undirected graph, or `None` if the graph is a forest.
///
/// For every edge `e = (x, y)` computes `w(e) + d_{G−e}(x, y)` with a
/// point-to-point Dijkstra that skips `e`; the minimum over edges is the
/// MWC. A search stops once `y` is popped, or once the popped distance plus
/// `w(e)` exceeds the best candidate so far.
pub fn mwc_undirected_exact(g: &Graph) -> Option<Mwc> {
    undirected_exact_jobs(g, mwc_par::jobs())
}

fn undirected_exact_jobs(g: &Graph, jobs: usize) -> Option<Mwc> {
    assert!(
        !g.is_directed(),
        "mwc_undirected_exact requires an undirected graph"
    );
    // Every candidate through `e` weighs at least `w(e)` plus the distance
    // popped so far; `e.weight == bound` could still tie via a zero-weight
    // path, so only a strictly heavier lower bound prunes.
    let bound = AtomicU64::new(u64::MAX);
    let best = min_over_items(g.m(), jobs, |buf: &mut DijkstraBuf, eid| {
        let e = &g.edges()[eid];
        if e.weight > bound.load(Ordering::Relaxed) {
            return None;
        }
        let mut reached = false;
        dijkstra_into(g, e.u, Direction::Forward, eid, buf, |d, u| {
            reached = u == e.v;
            !reached && d.saturating_add(e.weight) <= bound.load(Ordering::Relaxed)
        });
        if !reached {
            return None;
        }
        let weight = e.weight + buf.tree.dist[e.v];
        if beaten(&bound, weight) {
            return None;
        }
        let path = extract_path(&buf.tree.parent, e.u, e.v)
            .expect("e.v is settled so the parent chain exists");
        // path = x … y; closing edge (y, x) is e itself.
        Some(Mwc {
            weight,
            witness: CycleWitness::new(path),
        })
    });
    debug_assert!(best
        .as_ref()
        .is_none_or(|b| b.witness.validate(g) == Ok(b.weight)));
    best
}

/// Exact girth (shortest cycle *hop length*) of an undirected graph via
/// all-source BFS, or `None` if the graph is a forest.
///
/// Edge weights are ignored; for unit-weight graphs the girth equals the
/// MWC weight. This is the `O(nm)` classical method: from each source the
/// BFS-tree LCA `z` of every non-tree edge `(u, v)` yields a real simple
/// cycle of length `d(u) + d(v) + 1 − 2·d(z)`, and for a source on a
/// shortest cycle the antipodal edge yields the girth exactly.
pub fn girth_exact(g: &Graph) -> Option<Mwc> {
    girth_exact_jobs(g, mwc_par::jobs())
}

fn girth_exact_jobs(g: &Graph, jobs: usize) -> Option<Mwc> {
    assert!(!g.is_directed(), "girth_exact requires an undirected graph");
    let bound = AtomicU64::new(u64::MAX);
    let best = min_over_items(g.n(), jobs, |buf: &mut BfsBuf, s| {
        bfs_into(g, s, Direction::Forward, buf);
        let t = &buf.tree;
        let known = usize::try_from(bound.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
        let mut best: Option<(usize, NodeId, NodeId, NodeId)> = None;
        for e in g.edges() {
            let (u, v) = (e.u, e.v);
            if t.dist[u] == HOP_INF || t.dist[v] == HOP_INF {
                continue;
            }
            // Skip BFS-tree edges: they close no cycle from this source.
            if t.parent[u] == Some(v) || t.parent[v] == Some(u) {
                continue;
            }
            // A candidate matters only if it strictly beats this source's
            // best and does not exceed the best cycle known overall.
            let limit = best.map_or(known, |(b, ..)| known.min(b - 1));
            if let Some((len, z)) = lca_cycle(t, u, v, limit) {
                best = Some((len, u, v, z));
            }
        }
        let (len, u, v, z) = best?;
        if beaten(&bound, len as Weight) {
            return None;
        }
        // Cycle: the tree path z … u, then v back up to just below z (the
        // two tree paths diverge at z and never rejoin).
        let mut cyc = extract_path(&t.parent, z, u).expect("z is an ancestor of u");
        let mut x = v;
        while x != z {
            cyc.push(x);
            x = t.parent[x].expect("z is an ancestor of v");
        }
        Some(Mwc {
            weight: len as Weight,
            witness: CycleWitness::new(cyc),
        })
    });
    debug_assert!(best.as_ref().is_none_or(|b| {
        b.witness.validate(g).is_ok() && b.witness.hop_len() as Weight == b.weight
    }));
    best
}

/// The cycle a non-tree edge `(u, v)` closes in a BFS tree: its length
/// `d(u) + d(v) + 1 − 2·d(z)` and the LCA `z`, found by lifting the deeper
/// endpoint to the other's depth and then both until they meet. `None` once
/// the length is sure to exceed `limit`: while the two are still apart at
/// depth `h`, `z` lies at depth `h − 1` or above.
fn lca_cycle(
    t: &HopDistTree,
    mut u: NodeId,
    mut v: NodeId,
    limit: usize,
) -> Option<(usize, NodeId)> {
    let up = |x: NodeId| t.parent[x].expect("a non-root tree node has a parent");
    let span = t.dist[u] + t.dist[v] + 1;
    while t.dist[u] > t.dist[v] {
        u = up(u);
    }
    while t.dist[v] > t.dist[u] {
        v = up(v);
    }
    while u != v {
        if span - 2 * (t.dist[u] - 1) > limit {
            return None;
        }
        u = up(u);
        v = up(v);
    }
    let len = span - 2 * t.dist[u];
    debug_assert!(len >= 3, "a non-tree edge closes a cycle of length ≥ 3");
    (len <= limit).then_some((len, u))
}

/// Exact MWC for any graph, dispatching to the cheapest applicable oracle:
/// [`mwc_directed_exact`] for directed graphs, [`girth_exact`] for
/// unit-weight undirected graphs, [`mwc_undirected_exact`] otherwise.
pub fn mwc_exact(g: &Graph) -> Option<Mwc> {
    if g.is_directed() {
        mwc_directed_exact(g)
    } else if g.is_unit_weight() {
        girth_exact(g)
    } else {
        mwc_undirected_exact(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{connected_gnm, planted_cycle, ring_with_chords, WeightRange};
    use crate::graph::Orientation;
    use crate::seq::paths::{bfs, dijkstra};
    use mwc_rng::proptest_lite::Config;
    use mwc_rng::{prop_assert_eq, prop_tests};

    /// Strict-improvement fold of one candidate into a running best; the
    /// witness is built only when the candidate wins.
    fn improve(best: &mut Option<Mwc>, weight: Weight, cycle: impl FnOnce() -> Vec<NodeId>) {
        if best.as_ref().is_none_or(|b| weight < b.weight) {
            *best = Some(Mwc {
                weight,
                witness: CycleWitness::new(cycle()),
            });
        }
    }

    /// Reference directed oracle: a full Dijkstra per source, candidates
    /// in `in_adj` order, no pruning.
    fn reference_directed(g: &Graph) -> Option<Mwc> {
        let mut best = None;
        for v in 0..g.n() {
            let t = dijkstra(g, v, Direction::Forward);
            for a in g.in_adj(v) {
                if t.dist[a.to] != INF {
                    improve(&mut best, t.dist[a.to] + a.weight, || {
                        extract_path(&t.parent, v, a.to).unwrap()
                    });
                }
            }
        }
        best
    }

    /// Reference undirected oracle: a full Dijkstra of `G − e` per edge `e`.
    fn reference_undirected(g: &Graph) -> Option<Mwc> {
        let mut best = None;
        let mut buf = DijkstraBuf::default();
        for (eid, e) in g.edges().iter().enumerate() {
            dijkstra_into(g, e.u, Direction::Forward, eid, &mut buf, |_, _| true);
            let t = &buf.tree;
            if t.dist[e.v] != INF {
                improve(&mut best, e.weight + t.dist[e.v], || {
                    extract_path(&t.parent, e.u, e.v).unwrap()
                });
            }
        }
        best
    }

    /// Reference girth oracle: per source and non-tree edge, both tree
    /// paths are extracted and the cycle is cut at their divergence point.
    fn reference_girth(g: &Graph) -> Option<Mwc> {
        let mut best = None;
        for s in 0..g.n() {
            let t = bfs(g, s, Direction::Forward);
            for e in g.edges() {
                let (u, v) = (e.u, e.v);
                if t.dist[u] == HOP_INF || t.dist[v] == HOP_INF {
                    continue;
                }
                if t.parent[u] == Some(v) || t.parent[v] == Some(u) {
                    continue;
                }
                let pu = extract_path(&t.parent, s, u).unwrap();
                let pv = extract_path(&t.parent, s, v).unwrap();
                let mut z = 0;
                while z + 1 < pu.len() && z + 1 < pv.len() && pu[z + 1] == pv[z + 1] {
                    z += 1;
                }
                let mut cyc: Vec<NodeId> = pu[z..].to_vec();
                cyc.extend(pv[z + 1..].iter().rev());
                let len = cyc.len() as Weight;
                if len >= 3 {
                    improve(&mut best, len, || cyc);
                }
            }
        }
        best
    }

    /// Brute-force MWC by DFS enumeration of simple cycles; only usable for
    /// tiny graphs, used as an independent ground truth.
    fn brute_force_mwc(g: &Graph) -> Option<Weight> {
        let mut best: Option<Weight> = None;
        let n = g.n();
        // Enumerate cycles whose minimum vertex is `start` to avoid
        // counting rotations; for undirected graphs each cycle is seen in
        // both orientations, which is harmless for a minimum.
        fn dfs(
            g: &Graph,
            start: NodeId,
            u: NodeId,
            weight: Weight,
            visited: &mut Vec<bool>,
            depth: usize,
            best: &mut Option<Weight>,
        ) {
            for a in g.out_adj(u) {
                if a.to == start {
                    // Simple graphs: a closure of `depth` vertices reuses no
                    // edge as long as depth ≥ 3 (undirected) / 2 (directed).
                    let min_len = if g.is_directed() { 2 } else { 3 };
                    if depth >= min_len {
                        let w = weight + a.weight;
                        if best.is_none() || w < best.unwrap() {
                            *best = Some(w);
                        }
                    }
                    continue;
                }
                if a.to < start || visited[a.to] {
                    continue;
                }
                visited[a.to] = true;
                dfs(g, start, a.to, weight + a.weight, visited, depth + 1, best);
                visited[a.to] = false;
            }
        }
        for start in 0..n {
            let mut visited = vec![false; n];
            visited[start] = true;
            dfs(g, start, start, 0, &mut visited, 1, &mut best);
        }
        best
    }

    #[test]
    fn directed_triangle() {
        let g =
            Graph::from_edges(3, Orientation::Directed, [(0, 1, 2), (1, 2, 3), (2, 0, 4)]).unwrap();
        let m = mwc_directed_exact(&g).unwrap();
        assert_eq!(m.weight, 9);
        assert_eq!(m.witness.validate(&g), Ok(9));
    }

    #[test]
    fn directed_two_cycle_beats_triangle() {
        let g = Graph::from_edges(
            3,
            Orientation::Directed,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 0, 1)],
        )
        .unwrap();
        assert_eq!(mwc_directed_exact(&g).unwrap().weight, 2);
    }

    #[test]
    fn directed_acyclic_is_none() {
        let g =
            Graph::from_edges(4, Orientation::Directed, [(0, 1, 1), (0, 2, 1), (1, 3, 1)]).unwrap();
        assert!(mwc_directed_exact(&g).is_none());
    }

    #[test]
    fn undirected_weighted_square_vs_heavy_diagonal() {
        // Square of weight 4 with a heavy chord: MWC is a triangle using
        // the chord only if the chord is light enough.
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)],
        )
        .unwrap();
        let m = mwc_undirected_exact(&g).unwrap();
        assert_eq!(m.weight, 4);
        assert_eq!(m.witness.hop_len(), 4);
    }

    #[test]
    fn undirected_forest_is_none() {
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (1, 3, 1)],
        )
        .unwrap();
        assert!(mwc_undirected_exact(&g).is_none());
        assert!(girth_exact(&g).is_none());
    }

    #[test]
    fn girth_of_ring() {
        let g = ring_with_chords(9, 0, Orientation::Undirected, WeightRange::unit(), 0);
        assert_eq!(girth_exact(&g).unwrap().weight, 9);
    }

    #[test]
    fn girth_petersen() {
        // The Petersen graph has girth 5.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let mut g = Graph::undirected(10);
        for (u, v) in outer.iter().chain(&spokes).chain(&inner) {
            g.add_edge(*u, *v, 1).unwrap();
        }
        let m = girth_exact(&g).unwrap();
        assert_eq!(m.weight, 5);
        assert_eq!(m.witness.validate(&g), Ok(5));
    }

    #[test]
    fn planted_cycle_found_by_all_oracles() {
        let (g, _) = planted_cycle(
            30,
            40,
            4,
            1,
            Orientation::Undirected,
            WeightRange::uniform(40, 80),
            5,
        );
        assert_eq!(mwc_undirected_exact(&g).unwrap().weight, 4);
        assert_eq!(mwc_exact(&g).unwrap().weight, 4);
    }

    #[test]
    fn girth_matches_per_edge_deletion_on_unit_weights() {
        for seed in 0..8 {
            let g = connected_gnm(24, 30, Orientation::Undirected, WeightRange::unit(), seed);
            let a = girth_exact(&g).map(|m| m.weight);
            let b = mwc_undirected_exact(&g).map(|m| m.weight);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn dispatcher_picks_matching_oracle() {
        let d = ring_with_chords(6, 0, Orientation::Directed, WeightRange::unit(), 0);
        assert_eq!(mwc_exact(&d).unwrap().weight, 6);
        let u = ring_with_chords(6, 0, Orientation::Undirected, WeightRange::uniform(2, 2), 0);
        assert_eq!(mwc_exact(&u).unwrap().weight, 12);
    }

    #[test]
    fn oracles_are_identical_for_any_worker_count() {
        // Tie-heavy instances (tiny weight range, zero weights in the last
        // two) so tie-breaking — the part a naive parallel merge or a
        // non-strict prune gets wrong — is actually exercised. Compares
        // full `Mwc` values, i.e. witnesses too, not just weights.
        let directed = [
            (WeightRange::uniform(1, 3), 11),
            (WeightRange::uniform(0, 2), 14),
        ]
        .map(|(w, seed)| connected_gnm(40, 90, Orientation::Directed, w, seed));
        let undirected = [
            (WeightRange::uniform(1, 3), 12),
            (WeightRange::uniform(0, 2), 15),
        ]
        .map(|(w, seed)| connected_gnm(40, 70, Orientation::Undirected, w, seed));
        let un = connected_gnm(40, 70, Orientation::Undirected, WeightRange::unit(), 13);
        for jobs in [2, 4, 8] {
            for d in &directed {
                let base = directed_exact_jobs(d, 1);
                assert_eq!(directed_exact_jobs(d, jobs), base, "directed, jobs={jobs}");
            }
            for u in &undirected {
                let base = undirected_exact_jobs(u, 1);
                assert_eq!(
                    undirected_exact_jobs(u, jobs),
                    base,
                    "undirected, jobs={jobs}"
                );
            }
            assert_eq!(
                girth_exact_jobs(&un, jobs),
                girth_exact_jobs(&un, 1),
                "girth, jobs={jobs}"
            );
        }
    }

    prop_tests! {
        config = Config::with_cases(64);

        fn directed_oracle_matches_brute_force(seed in 0u64..500, n in 4usize..8, extra in 0usize..10) {
            let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(1, 9), seed);
            let oracle = mwc_directed_exact(&g).map(|m| m.weight);
            let brute = brute_force_mwc(&g);
            prop_assert_eq!(oracle, brute);
        }

        fn undirected_oracle_matches_brute_force(seed in 0u64..500, n in 4usize..8, extra in 0usize..10) {
            let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 9), seed);
            let oracle = mwc_undirected_exact(&g).map(|m| m.weight);
            let brute = brute_force_mwc(&g);
            prop_assert_eq!(oracle, brute);
        }

        fn pruned_oracles_match_the_reference(seed in 0u64..10_000, n in 3usize..14, extra in 0usize..24) {
            let un = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed);
            let d = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(0, 2), seed);
            let u = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(0, 2), seed);
            let want = (reference_girth(&un), reference_directed(&d), reference_undirected(&u));
            for jobs in [1, 4] {
                prop_assert_eq!(girth_exact_jobs(&un, jobs), want.0.clone());
                prop_assert_eq!(directed_exact_jobs(&d, jobs), want.1.clone());
                prop_assert_eq!(undirected_exact_jobs(&u, jobs), want.2.clone());
            }
        }

        fn witnesses_always_validate(seed in 0u64..200, n in 4usize..12, extra in 0usize..16) {
            let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(1, 9), seed);
            if let Some(m) = mwc_directed_exact(&g) {
                prop_assert_eq!(m.witness.validate(&g), Ok(m.weight));
            }
            let u = connected_gnm(n, extra, Orientation::Undirected, WeightRange::uniform(1, 9), seed);
            if let Some(m) = mwc_undirected_exact(&u) {
                prop_assert_eq!(m.witness.validate(&u), Ok(m.weight));
            }
        }
    }
}
