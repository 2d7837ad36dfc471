//! Global BFS tree, broadcast and convergecast — the standard CONGEST
//! building blocks the paper invokes from \[43\] (§1.1):
//!
//! - building a BFS tree of the communication topology costs `O(D)` rounds;
//! - broadcasting `M` words to all nodes costs `O(M + D)` rounds;
//! - a convergecast of an associative operation costs `O(D)` rounds.
//!
//! All three are *simulated* (the data really flows through the engine), so
//! their measured round counts are the ones charged to algorithms.

use crate::engine::{Network, RoundOutput};
use crate::ledger::Ledger;
use mwc_graph::{Graph, NodeId};

/// A BFS spanning tree of the communication topology, the backbone for
/// [`broadcast`] and [`convergecast_min`].
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// `parent[v]` for every non-root node.
    pub parent: Vec<Option<NodeId>>,
    /// Hop depth of every node below the root.
    pub depth: Vec<usize>,
    /// Children lists (inverse of `parent`).
    pub children: Vec<Vec<NodeId>>,
    /// Height of the tree (max depth) — at most the diameter `D`.
    pub height: usize,
}

impl BfsTree {
    /// Builds the tree by flooding from `root`, charging `O(ecc(root)) ≤
    /// O(D)` rounds to `ledger`.
    ///
    /// # Panics
    ///
    /// Panics if the communication topology is disconnected (a CONGEST
    /// network is connected by assumption).
    pub fn build(g: &Graph, root: NodeId, ledger: &mut Ledger) -> BfsTree {
        let _span = mwc_trace::span("tree/build");
        let n = g.n();
        let mut net: Network<u64> = Network::new_auto(g);
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        depth[root] = 0;
        for w in g.comm_neighbors(root) {
            net.send(root, w, 1, 1).expect("neighbors are linked");
        }
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            for d in out.deliveries.drain(..) {
                let v = d.to;
                if depth[v] == usize::MAX {
                    depth[v] = d.payload as usize;
                    parent[v] = Some(d.from);
                    for w in g.comm_neighbors(v) {
                        if depth[w] == usize::MAX {
                            net.send(v, w, d.payload + 1, 1)
                                .expect("neighbors are linked");
                        }
                    }
                }
            }
        }
        ledger.absorb("bfs tree", &net);
        assert!(
            depth.iter().all(|&d| d != usize::MAX),
            "communication topology must be connected"
        );
        let mut children = vec![Vec::new(); n];
        for v in 0..n {
            if let Some(p) = parent[v] {
                children[p].push(v);
            }
        }
        let height = depth.iter().copied().max().unwrap_or(0);
        mwc_trace::check_bound(
            "congest/bfs_tree",
            mwc_trace::BoundInputs::n(n).diameter(height as u64),
            net.round(),
            crate::bounds::bfs_tree,
        );
        BfsTree {
            root,
            parent,
            depth,
            children,
            height,
        }
    }
}

/// Broadcasts every `(origin, item)` to **all** nodes by pipelining items
/// up to the root and flooding them back down the tree. Each item occupies
/// `words_per_item` words. Costs `O(M · words_per_item + D)` rounds.
///
/// Returns the items in a deterministic (engine-arrival) order together
/// with their origins; conceptually every node now holds this list.
pub fn broadcast<T: Clone + Send>(
    g: &Graph,
    tree: &BfsTree,
    items: Vec<(NodeId, T)>,
    words_per_item: u64,
    ledger: &mut Ledger,
) -> Vec<(NodeId, T)> {
    let _span = mwc_trace::span("tree/broadcast");
    let n = g.n();
    // Upcast: every node forwards items toward the root.
    let mut net: Network<(NodeId, T)> = Network::new_auto(g);
    let mut collected: Vec<(NodeId, T)> = Vec::with_capacity(items.len());
    for (origin, item) in items {
        match tree.parent[origin] {
            Some(p) => net
                .send(origin, p, (origin, item), words_per_item)
                .expect("tree edges are links"),
            None => collected.push((origin, item)),
        }
    }
    let mut out = RoundOutput::default();
    while net.step(&mut out) {
        for d in out.deliveries.drain(..) {
            let v = d.to;
            match tree.parent[v] {
                Some(p) => net
                    .send(v, p, d.payload, words_per_item)
                    .expect("tree edges are links"),
                None => collected.push(d.payload),
            }
        }
    }
    ledger.absorb("broadcast: upcast", &net);
    let up_rounds = net.round();

    // Downcast: the root streams the full list down every tree edge. The
    // schedule is a fully saturated pipeline (item `i` reaches depth `d`
    // at round `words_per_item·(i+d)`), so under the bitset kernel the
    // whole phase is charged in closed form instead of stepping the
    // engine per message — byte-identical ledger, O(links + rounds)
    // instead of O(items · links) work. The scalar kernel keeps the
    // engine-stepped loop as the executable reference.
    let mut net: Network<(NodeId, T)> = Network::new_auto(g);
    if crate::flood::flood_kernel() == crate::flood::FloodKernel::Bitset {
        // Tree links in BFS order (depth ascending, siblings in
        // `children[]` order) — the order the engine's active list
        // settles into, which pins the event-log order.
        let mut links: Vec<(u32, u32)> = Vec::with_capacity(n.saturating_sub(1));
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();
        queue.push_back(tree.root);
        while let Some(v) = queue.pop_front() {
            for &c in &tree.children[v] {
                let l = net.link_id(v, c).expect("tree edges are links");
                links.push((l as u32, tree.depth[c] as u32));
                queue.push_back(c);
            }
        }
        net.charge_pipelined_downcast(&links, collected.len() as u64, words_per_item);
    } else {
        let mut received: Vec<usize> = vec![0; n];
        for &c in &tree.children[tree.root] {
            for item in &collected {
                net.send(tree.root, c, item.clone(), words_per_item)
                    .expect("tree edges are links");
            }
        }
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            for d in out.deliveries.drain(..) {
                let v = d.to;
                received[v] += 1;
                for &c in &tree.children[v] {
                    net.send(v, c, d.payload.clone(), words_per_item)
                        .expect("tree edges are links");
                }
            }
        }
        debug_assert!((0..n).all(|v| v == tree.root || received[v] == collected.len()));
    }
    ledger.absorb("broadcast: downcast", &net);
    mwc_trace::check_bound(
        "congest/broadcast",
        mwc_trace::BoundInputs::n(n)
            .diameter(tree.height as u64)
            .k((collected.len() as u64).saturating_mul(words_per_item.max(1))),
        up_rounds + net.round(),
        crate::bounds::broadcast,
    );
    collected
}

/// Convergecast of an associative, commutative operation over one value per
/// node, followed by flooding the result down so **every node knows it**.
/// Costs `O(D)` rounds (values are single words).
pub fn convergecast<T, F>(
    g: &Graph,
    tree: &BfsTree,
    values: Vec<T>,
    op: F,
    ledger: &mut Ledger,
) -> T
where
    T: Copy + Send,
    F: Fn(T, T) -> T,
{
    let _span = mwc_trace::span("tree/convergecast");
    let n = g.n();
    assert_eq!(values.len(), n, "one value per node");
    let mut pending: Vec<usize> = (0..n).map(|v| tree.children[v].len()).collect();
    let mut acc: Vec<T> = values;
    let mut net: Network<T> = Network::new_auto(g);
    // Leaves start immediately; internal nodes send once all children
    // reported.
    for v in 0..n {
        if pending[v] == 0 {
            if let Some(p) = tree.parent[v] {
                net.send(v, p, acc[v], 1).expect("tree edges are links");
            }
        }
    }
    let mut out = RoundOutput::default();
    while net.step(&mut out) {
        for d in out.deliveries.drain(..) {
            let v = d.to;
            acc[v] = op(acc[v], d.payload);
            pending[v] -= 1;
            if pending[v] == 0 {
                if let Some(p) = tree.parent[v] {
                    net.send(v, p, acc[v], 1).expect("tree edges are links");
                }
            }
        }
    }
    ledger.absorb("convergecast: up", &net);
    let up_rounds = net.round();
    let result = acc[tree.root];

    // Flood the result down so every node knows it (the paper requires
    // every node to know the final MWC weight).
    let mut net: Network<T> = Network::new_auto(g);
    for &c in &tree.children[tree.root] {
        net.send(tree.root, c, result, 1)
            .expect("tree edges are links");
    }
    let mut out = RoundOutput::default();
    while net.step(&mut out) {
        for d in out.deliveries.drain(..) {
            for &c in &tree.children[d.to] {
                net.send(d.to, c, result, 1).expect("tree edges are links");
            }
        }
    }
    ledger.absorb("convergecast: down", &net);
    mwc_trace::check_bound(
        "congest/convergecast",
        mwc_trace::BoundInputs::n(n).diameter(tree.height as u64),
        up_rounds + net.round(),
        crate::bounds::convergecast,
    );
    result
}

/// Convenience: convergecast of the minimum of one `u64` per node.
pub fn convergecast_min(g: &Graph, tree: &BfsTree, values: Vec<u64>, ledger: &mut Ledger) -> u64 {
    convergecast(g, tree, values, u64::min, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, WeightRange};
    use mwc_graph::seq::{bfs, Direction};
    use mwc_graph::Orientation;

    fn path(n: usize) -> Graph {
        let mut g = Graph::undirected(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        g
    }

    #[test]
    fn tree_depths_match_bfs() {
        let g = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), 7);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 3, &mut ledger);
        let reference = bfs(&g, 3, Direction::Forward);
        for v in 0..g.n() {
            assert_eq!(tree.depth[v], reference.dist[v]);
        }
        assert_eq!(tree.height, *reference.dist.iter().max().unwrap());
        // Building the tree costs Θ(ecc(root)) rounds.
        assert!(ledger.rounds as usize <= tree.height + 1);
    }

    #[test]
    fn tree_parents_are_one_level_up() {
        let g = connected_gnm(30, 40, Orientation::Undirected, WeightRange::unit(), 1);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        for v in 0..g.n() {
            if let Some(p) = tree.parent[v] {
                assert_eq!(tree.depth[v], tree.depth[p] + 1);
                assert!(g.has_edge(p, v) || g.has_edge(v, p));
            } else {
                assert_eq!(v, 0);
            }
        }
    }

    #[test]
    fn tree_works_on_directed_support() {
        // Directed edges all one way; the communication tree still spans.
        let mut g = Graph::directed(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 1).unwrap();
        }
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 4, &mut ledger);
        assert_eq!(tree.depth[0], 4);
    }

    #[test]
    fn broadcast_reaches_everyone_within_budget() {
        let g = path(16);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let items: Vec<(NodeId, u64)> = (0..16).map(|v| (v, 100 + v as u64)).collect();
        let mut bl = Ledger::new();
        let all = broadcast(&g, &tree, items, 1, &mut bl);
        assert_eq!(all.len(), 16);
        let mut values: Vec<u64> = all.iter().map(|(_, x)| *x).collect();
        values.sort_unstable();
        assert_eq!(values, (100..116).collect::<Vec<_>>());
        // O(M + D): M = 16 items, D = 15 → comfortably under 4·(M + D).
        assert!(
            bl.rounds <= 4 * (16 + 15),
            "broadcast took {} rounds",
            bl.rounds
        );
    }

    #[test]
    fn broadcast_rounds_scale_linearly_in_items() {
        let g = path(12);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let cost = |m: usize| {
            let items: Vec<(NodeId, u64)> = (0..m).map(|i| (11, i as u64)).collect();
            let mut bl = Ledger::new();
            broadcast(&g, &tree, items, 1, &mut bl);
            bl.rounds
        };
        let c10 = cost(10);
        let c100 = cost(100);
        // Pipelining: 10× the items must be far less than 10× rounds.
        assert!(c100 < c10 * 6, "items 10: {c10} rounds, 100: {c100} rounds");
    }

    #[test]
    fn broadcast_multiword_items_cost_proportionally() {
        let g = path(8);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let mut l1 = Ledger::new();
        broadcast(&g, &tree, vec![(7, 0u64); 20], 1, &mut l1);
        let mut l3 = Ledger::new();
        broadcast(&g, &tree, vec![(7, 0u64); 20], 3, &mut l3);
        assert!(
            l3.rounds > l1.rounds * 2,
            "3-word items must cost ~3×: {} vs {}",
            l3.rounds,
            l1.rounds
        );
    }

    #[test]
    fn convergecast_min_within_depth_budget() {
        let g = path(20);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 10, &mut ledger);
        let mut values: Vec<u64> = (0..20).map(|v| 50 + v as u64).collect();
        values[17] = 3;
        let mut cl = Ledger::new();
        let m = convergecast_min(&g, &tree, values, &mut cl);
        assert_eq!(m, 3);
        // Up + down ≤ 2·height + slack.
        assert!(
            cl.rounds as usize <= 2 * tree.height + 2,
            "convergecast took {} rounds",
            cl.rounds
        );
    }

    #[test]
    fn single_node_tree_and_broadcast() {
        let g = Graph::undirected(1);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        assert_eq!(tree.height, 0);
        assert_eq!(ledger.rounds, 0);
        let all = broadcast(&g, &tree, vec![(0, 42u64)], 1, &mut ledger);
        assert_eq!(all, vec![(0, 42)]);
        let m = convergecast_min(&g, &tree, vec![7], &mut ledger);
        assert_eq!(m, 7);
    }

    #[test]
    fn star_tree_has_height_one() {
        let mut g = Graph::undirected(9);
        for i in 1..9 {
            g.add_edge(0, i, 1).unwrap();
        }
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        assert_eq!(tree.height, 1);
        assert_eq!(tree.children[0].len(), 8);
        // Convergecast over a star: up + down ≤ 4 rounds.
        let mut cl = Ledger::new();
        let m = convergecast_min(&g, &tree, (10..19).collect(), &mut cl);
        assert_eq!(m, 10);
        assert!(cl.rounds <= 4);
    }

    #[test]
    fn empty_broadcast_costs_nothing() {
        let g = path(6);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let mut bl = Ledger::new();
        let all: Vec<(NodeId, u64)> = broadcast(&g, &tree, vec![], 1, &mut bl);
        assert!(all.is_empty());
        assert_eq!(bl.rounds, 0);
    }

    #[test]
    fn convergecast_sum() {
        let g = connected_gnm(25, 30, Orientation::Undirected, WeightRange::unit(), 3);
        let mut ledger = Ledger::new();
        let tree = BfsTree::build(&g, 0, &mut ledger);
        let s = convergecast(&g, &tree, vec![1u64; 25], |a, b| a + b, &mut ledger);
        assert_eq!(s, 25);
    }
}
