//! PRIMITIVES — stopwatch microbenchmarks of the remaining CONGEST
//! building blocks: source detection, convergecast, stretched BFS, and
//! the node-program runtime.
//!
//! Run with `cargo bench -p mwc-bench --bench primitives`; results land
//! in `results/bench/primitives.json`.

use mwc_bench::stopwatch::Suite;
use mwc_congest::program::{run_programs, FloodMax};
use mwc_congest::{
    convergecast_min, multi_source_bfs, source_detection, BfsTree, Ledger, MultiBfsSpec, Network,
    RoundOutput,
};
use mwc_graph::generators::{connected_gnm, grid, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{NodeId, Orientation, Weight};
use std::hint::black_box;

fn bench_source_detection(suite: &mut Suite) {
    let g = grid(20, 20, Orientation::Undirected, WeightRange::unit(), 0);
    let sources: Vec<NodeId> = (0..g.n()).collect();
    suite.bench("primitives/source_detection_400n_sigma20", || {
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &sources,
            20,
            20,
            Direction::Forward,
            None,
            "b",
            &mut ledger,
        );
        black_box(det.lists[0].len())
    });
}

fn bench_convergecast(suite: &mut Suite) {
    let g = connected_gnm(512, 1024, Orientation::Undirected, WeightRange::unit(), 4);
    let mut ledger = Ledger::new();
    let tree = BfsTree::build(&g, 0, &mut ledger);
    suite.bench("primitives/convergecast_512n", || {
        let values: Vec<u64> = (0..512u64).collect();
        let mut ledger = Ledger::new();
        black_box(convergecast_min(&g, &tree, values, &mut ledger))
    });
}

fn bench_stretched_bfs(suite: &mut Suite) {
    let g = connected_gnm(
        256,
        768,
        Orientation::Directed,
        WeightRange::uniform(1, 20),
        6,
    );
    let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
    suite.bench("primitives/stretched_bfs_256n_8src", || {
        let sources: Vec<NodeId> = (0..8).map(|i| i * 31).collect();
        let spec = MultiBfsSpec {
            max_dist: mwc_congest::INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let m = multi_source_bfs(&g, &sources, &spec, "b", &mut ledger);
        black_box(m.get_row(0, 200))
    });
}

fn bench_node_programs(suite: &mut Suite) {
    let g = grid(16, 16, Orientation::Undirected, WeightRange::unit(), 0);
    suite.bench("primitives/floodmax_256n", || {
        let mut ledger = Ledger::new();
        let nodes = run_programs(&g, FloodMax::new, 10_000, &mut ledger);
        black_box(nodes[0].leader())
    });
}

fn bench_raw_send_throughput(suite: &mut Suite) {
    let g = grid(8, 8, Orientation::Undirected, WeightRange::unit(), 0);
    suite.bench("primitives/raw_100k_word_steps", || {
        let mut net: Network<u8> = Network::new(&g);
        // Saturate every link with long messages and drain.
        for v in 0..g.n() {
            for w in g.comm_neighbors(v) {
                net.send(v, w, 0, 450).unwrap();
            }
        }
        while net.step(&mut RoundOutput::default()) {}
        black_box(net.stats().words)
    });
}

fn main() {
    let mut suite = Suite::new("primitives");
    bench_source_detection(&mut suite);
    bench_convergecast(&mut suite);
    bench_stretched_bfs(&mut suite);
    bench_node_programs(&mut suite);
    bench_raw_send_throughput(&mut suite);
    suite.finish();
}
