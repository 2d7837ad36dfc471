//! ENGINE — stopwatch microbenchmarks of the CONGEST simulator itself:
//! raw step throughput, pipelined multi-source BFS, and tree broadcast.
//!
//! Run with `cargo bench -p mwc-bench --bench engine`; results land in
//! `results/bench/engine.json`.

use mwc_bench::stopwatch::Suite;
use mwc_congest::{
    broadcast, multi_source_bfs, BfsTree, Ledger, MultiBfsSpec, Network, RoundOutput,
};
use mwc_graph::generators::{connected_gnm, grid, WeightRange};
use mwc_graph::{NodeId, Orientation};
use std::hint::black_box;

fn bench_engine_steps(suite: &mut Suite) {
    let g = grid(32, 32, Orientation::Undirected, WeightRange::unit(), 0);
    suite.bench("engine/flood_1024_nodes", || {
        let mut net: Network<u64> = Network::new(&g);
        for w in g.comm_neighbors(0) {
            net.send(0, w, 1, 1).unwrap();
        }
        let mut seen = vec![false; g.n()];
        seen[0] = true;
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            for d in out.deliveries.drain(..) {
                if !seen[d.to] {
                    seen[d.to] = true;
                    for w in g.comm_neighbors(d.to) {
                        net.send(d.to, w, d.payload + 1, 1).unwrap();
                    }
                }
            }
        }
        black_box(net.round())
    });
}

fn bench_multibfs(suite: &mut Suite) {
    let g = connected_gnm(512, 1536, Orientation::Directed, WeightRange::unit(), 3);
    let sources: Vec<NodeId> = (0..16).map(|i| i * 31).collect();
    suite.bench("engine/multi_source_bfs_512n_16k", || {
        let mut ledger = Ledger::new();
        let m = multi_source_bfs(&g, &sources, &MultiBfsSpec::default(), "b", &mut ledger);
        black_box(m.get_row(0, 511))
    });
}

fn bench_broadcast(suite: &mut Suite) {
    let g = connected_gnm(256, 512, Orientation::Undirected, WeightRange::unit(), 5);
    let mut ledger = Ledger::new();
    let tree = BfsTree::build(&g, 0, &mut ledger);
    suite.bench("engine/broadcast_1024_items_256n", || {
        let items: Vec<(NodeId, u64)> = (0..1024).map(|i| (i % 256, i as u64)).collect();
        let mut ledger = Ledger::new();
        black_box(broadcast(&g, &tree, items, 1, &mut ledger).len())
    });
}

fn main() {
    let mut suite = Suite::new("engine");
    bench_engine_steps(&mut suite);
    bench_multibfs(&mut suite);
    bench_broadcast(&mut suite);
    suite.finish();
}
