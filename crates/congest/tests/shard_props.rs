//! Property-based tests for the engine's shard partitioner and the
//! sharded round kernel (`mwc_rng::proptest_lite`):
//!
//! - the [`ShardPlan`] is a true partition — every vertex (and every
//!   link id) lands in exactly one shard, ranges are contiguous, and the
//!   point lookups agree with the ranges;
//! - the cut-link set is complete (exactly the links whose endpoints
//!   live on different shards) and symmetric on undirected graphs;
//! - congestion artifacts derived from per-link word counts —
//!   [`Ledger::words_across`] and [`Ledger::hot_links`] — are invariant
//!   under the shard count;
//! - wakeups scheduled on nodes owned by remote shards fire at exactly
//!   the scheduled round.
//!
//! The shard knobs are process globals, so the properties that engage
//! the parallel kernel serialize on a lock and restore the unsharded
//! default before releasing it.

use std::sync::Mutex;

use mwc_congest::{multi_source_bfs, Ledger, MultiBfsSpec, Network, RoundOutput, ShardPlan};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::{NodeId, Orientation};
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests};

static SHARD_GLOBALS: Mutex<()> = Mutex::new(());

prop_tests! {
    config = Config::with_cases(32);

    /// The plan partitions vertices and link ids: ranges are contiguous,
    /// cover everything exactly once, and the point lookups agree.
    fn plan_is_a_partition(degrees in plite::vec(0usize..6, 1..40), shards in 1usize..12) {
        let plan = ShardPlan::new(&degrees, shards);
        let n = degrees.len();
        prop_assert_eq!(plan.n(), n);
        prop_assert!(plan.shards() >= 1 && plan.shards() <= shards.max(1));

        let mut next_node = 0;
        let mut next_link = 0;
        for s in 0..plan.shards() {
            let nodes = plan.node_range(s);
            let links = plan.link_range(s);
            prop_assert_eq!(nodes.start, next_node, "vertex ranges must be contiguous");
            prop_assert_eq!(links.start, next_link, "link ranges must be contiguous");
            // A shard's link range is the degree sum of its vertex range.
            let degree_sum: usize = degrees[nodes.clone()].iter().sum();
            prop_assert_eq!(links.len(), degree_sum);
            for v in nodes.clone() {
                prop_assert_eq!(plan.shard_of_node(v), s, "node lookup disagrees with range");
            }
            for l in links.clone() {
                prop_assert_eq!(plan.shard_of_link(l), s, "link lookup disagrees with range");
            }
            next_node = nodes.end;
            next_link = links.end;
        }
        prop_assert_eq!(next_node, n, "vertex ranges must cover every node");
        prop_assert_eq!(next_link, degrees.iter().sum::<usize>());
    }

    /// The cut-link set is exactly the links whose endpoints live on
    /// different shards, and on undirected graphs it is symmetric: the
    /// reverse of every cut link is cut too.
    fn cut_links_complete_and_symmetric(seed in 0u64..5000, n in 2usize..28, extra in 0usize..50, shards in 1usize..9) {
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed);
        let plan = ShardPlan::for_graph(&g, shards);
        let net: Network<u8> = Network::new(&g);
        let ends = net.link_ends();
        let cut = plan.cut_links(ends);

        let in_cut: std::collections::HashSet<usize> = cut.iter().copied().collect();
        prop_assert_eq!(in_cut.len(), cut.len(), "cut set must not repeat links");
        for (l, &(u, v)) in ends.iter().enumerate() {
            let crosses = plan.shard_of_node(u) != plan.shard_of_node(v);
            prop_assert_eq!(in_cut.contains(&l), crosses, "completeness fails at link {}", l);
        }
        // Symmetry: undirected graphs create both directions of every
        // edge as links, so the reversed endpoint pair of a cut link is
        // itself a cut link.
        let pairs: std::collections::HashSet<(NodeId, NodeId)> =
            cut.iter().map(|&l| ends[l]).collect();
        for &(u, v) in &pairs {
            prop_assert!(pairs.contains(&(v, u)), "cut set asymmetric at ({}, {})", u, v);
        }
    }

    /// Per-link word counts — and with them `words_across` over arbitrary
    /// vertex sides and the `hot_links` ranking — do not depend on the
    /// shard count.
    fn congestion_artifacts_shard_invariant(seed in 0u64..5000, n in 4usize..24, extra in 0usize..40, shards in 2usize..9) {
        let g = connected_gnm(n, extra, Orientation::Undirected, WeightRange::unit(), seed);
        let sources: Vec<NodeId> = (0..n).step_by(3).collect();
        let run = |k: usize| {
            let _guard = SHARD_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
            mwc_par::set_shard_threshold(0);
            mwc_par::set_shards(k);
            let mut ledger = Ledger::new();
            let _ = multi_source_bfs(&g, &sources, &MultiBfsSpec::default(), "p", &mut ledger);
            mwc_par::set_shards(1);
            ledger
        };
        let base = run(1);
        let sharded = run(shards);
        prop_assert_eq!(sharded.hot_links(6), base.hot_links(6));
        // words_across over an alternating side and every singleton side.
        let stripes: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
        prop_assert_eq!(sharded.words_across(&stripes), base.words_across(&stripes));
        for v in 0..n {
            let mut side = vec![false; n];
            side[v] = true;
            prop_assert_eq!(sharded.words_across(&side), base.words_across(&side));
        }
        prop_assert_eq!((sharded.rounds, sharded.words, sharded.messages),
                        (base.rounds, base.words, base.messages));
    }

    /// Wakeups land at exactly the scheduled round regardless of which
    /// shard owns the node, with cross-shard traffic keeping the sharded
    /// kernel engaged while the clock advances.
    fn remote_wakeups_fire_on_time(seed in 0u64..5000, n in 6usize..24, shards in 2usize..9) {
        let g = connected_gnm(n, n, Orientation::Undirected, WeightRange::unit(), seed);
        let _guard = SHARD_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        mwc_par::set_shard_threshold(0);
        let mut net: Network<u32> = Network::new_sharded(&g, shards);
        mwc_par::set_shards(1);
        prop_assert!(net.shards() > 1, "kernel must actually shard {} nodes", n);
        // Long transfers on every link keep rounds busy past the wakeups.
        for v in 0..n {
            for w in g.comm_neighbors(v) {
                net.send(v, w, v as u32, 12).unwrap();
            }
        }
        // One wakeup per node, spread over the active window; every node
        // that is remote from shard 0 exercises the cross-shard path.
        let scheduled: Vec<(u64, NodeId)> = (0..n).map(|v| (1 + (v as u64 * 3) % 10, v)).collect();
        for &(round, v) in &scheduled {
            net.schedule_wakeup(round, v);
        }
        let mut fired: Vec<(u64, NodeId)> = Vec::new();
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            for v in out.wakeups.drain(..) {
                fired.push((net.round(), v));
            }
            out.deliveries.clear();
        }
        let mut want = scheduled;
        want.sort_unstable();
        fired.sort_unstable();
        prop_assert_eq!(fired, want);
    }
}
