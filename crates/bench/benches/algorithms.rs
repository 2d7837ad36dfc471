//! ALGORITHMS — stopwatch wall-clock benchmarks of the end-to-end MWC
//! algorithms at fixed sizes (round-complexity sweeps live in the
//! `src/bin/table1_*` binaries; these measure simulator throughput).
//!
//! Run with `cargo bench -p mwc-bench --bench algorithms`; results land
//! in `results/bench/algorithms.json`.

use mwc_bench::stopwatch::Suite;
use mwc_core::ksssp::pick_h;
use mwc_core::{approx_girth, exact_mwc, k_source_bfs, two_approx_directed_mwc, Params};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::Orientation;
use std::hint::black_box;

fn bench_exact(suite: &mut Suite) {
    let g = connected_gnm(256, 768, Orientation::Directed, WeightRange::unit(), 1);
    suite.bench("mwc/exact_directed_256", || black_box(exact_mwc(&g).weight));
    let gu = connected_gnm(256, 512, Orientation::Undirected, WeightRange::unit(), 2);
    suite.bench("mwc/exact_girth_256", || black_box(exact_mwc(&gu).weight));
}

fn bench_approx(suite: &mut Suite) {
    let params = Params::lean().with_seed(9);
    let g = connected_gnm(256, 768, Orientation::Directed, WeightRange::unit(), 3);
    suite.bench("mwc/two_approx_directed_256", || {
        black_box(two_approx_directed_mwc(&g, &params).weight)
    });
    let gu = connected_gnm(512, 1024, Orientation::Undirected, WeightRange::unit(), 4);
    suite.bench("mwc/approx_girth_512", || {
        black_box(approx_girth(&gu, &params).weight)
    });
}

/// Algorithm 1 on the skeleton branch, where its local combine
/// (`k·n·|S|`) runs next to the `h`-hop floods.
fn bench_ksssp(suite: &mut Suite) {
    let (n, k) = (1024, 200);
    assert!(
        pick_h(n, k) as usize + 1 < n,
        "k = {k} must take the skeleton branch"
    );
    let g = connected_gnm(n, 3 * n, Orientation::Directed, WeightRange::unit(), 5);
    let sources: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let params = Params::new().with_seed(3);
    suite.bench("ksssp/k_source_bfs_directed_1024", || {
        black_box(
            k_source_bfs(&g, &sources, Direction::Forward, &params)
                .ledger
                .rounds,
        )
    });
}

fn main() {
    let mut suite = Suite::new("algorithms");
    bench_exact(&mut suite);
    bench_approx(&mut suite);
    bench_ksssp(&mut suite);
    suite.finish();
}
