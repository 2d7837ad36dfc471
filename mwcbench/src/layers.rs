//! The traced pass: per-layer self time from the program's own spans,
//! read through an in-memory trace session with span profiling on, plus
//! direct timings of per-flood set-up.

use crate::workload::{self, Family, Pool, Workload};
use crate::{check, median, metric, percentile, solve, Metric, SetupTimes, Timed};
use mwc_congest::{FloodPlan, Network};
use mwc_graph::seq::Direction;
use mwc_graph::Weight;
use mwc_trace::{profile, span, SpanNode, TraceSession};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The layer a span's self time belongs to, by label prefix. Labels
/// opened by the benchmark itself are `bench/*`; the self time of
/// `bench/solve` is solve time no span of the program covers.
fn layer_of(label: &str) -> &'static str {
    const LAYERS: [(&str, &str); 20] = [
        ("bench/generate", "bench.generate"),
        ("bench/oracle", "bench.oracle"),
        ("bench/solve", "bench.solve"),
        ("bench/validate", "bench.validate"),
        ("detect/cycle-within", "core"),
        ("multibfs/", "multibfs.bfs"),
        ("detect/", "multibfs.detect"),
        ("directed/alg3", "directed.alg3"),
        ("tree/build", "tree.build"),
        ("tree/broadcast", "tree.broadcast"),
        ("tree/convergecast", "tree.convergecast"),
        ("girth/", "core"),
        ("directed/", "core"),
        ("weighted/", "core"),
        ("ksssp/", "core"),
        ("sssp/", "core"),
        ("exact/", "core"),
        ("apsp/", "core"),
        ("basis/", "core"),
        ("program/", "engine"),
    ];
    LAYERS
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or("other", |&(_, layer)| layer)
}

/// Adds each span's self wall time to its layer.
fn tally(node: &SpanNode, by_layer: &mut BTreeMap<&'static str, u64>) {
    *by_layer.entry(layer_of(&node.label)).or_default() += node.wall_ns;
    for child in &node.children {
        tally(child, by_layer);
    }
}

/// Median wall microseconds of `f` over `reps` calls.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Per-flood set-up on each pool graph: `Network::new_auto` and a forward
/// `FloodPlan::build` (over the graph's weights when it is weighted).
fn flood_setup_us(pool: &Pool) -> (f64, f64) {
    let (mut net_us, mut plan_us) = (Vec::new(), Vec::new());
    for g in pool.graphs.iter().take(8) {
        let latency: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let latency = (!g.is_unit_weight()).then_some(latency.as_slice());
        net_us.push(time_us(5, || Network::<u64>::new_auto(g)));
        let net = Network::<u64>::new_auto(g);
        plan_us.push(time_us(5, || {
            FloodPlan::build(g, &net, Direction::Forward, latency)
        }));
    }
    (median(&net_us), median(&plan_us))
}

/// What the traced run adds to the result line.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Every how many instances the traced pass solves.
const TRACED_STRIDE: usize = 2;

/// Runs one traced pass: generates every pool graph and runs its oracle,
/// then solves and validates every second instance, each step under a
/// `bench/*` span, and derives the per-layer metrics. The pass must repeat
/// the timed loop's exact counts.
pub fn traced_run(
    w: Workload,
    family: &Family,
    seed: u64,
    pool: &Pool,
    timed: &Timed,
    setups: &[SetupTimes],
) -> LayerReport {
    let mut failures = Vec::new();
    let mut traced_ms = Vec::new();

    profile::set_thread_profiling(true);
    let session = TraceSession::memory();
    let start = Instant::now();
    for i in 0..family.graphs {
        let g = {
            let _s = span("bench/generate");
            workload::generate(family, seed, i)
        };
        let _s = span("bench/oracle");
        black_box(w.oracle(&g));
    }
    for (i, inst) in pool.instances.iter().enumerate().step_by(TRACED_STRIDE) {
        let raw = {
            let _s = span("bench/solve");
            solve(w, pool, inst)
        };
        let _s = span("bench/validate");
        match raw.and_then(|raw| check(w, pool, inst, raw)) {
            Ok(s) if timed.first[i] != Some(s.exact) => failures.push(format!(
                "instance {i}: traced counts {:?} differ from the timed loop's",
                s.exact
            )),
            Ok(s) => traced_ms.push(s.ms),
            Err(e) => failures.push(format!("instance {i} (traced): {e}")),
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let data = session.finish();
    profile::set_thread_profiling(false);

    let mut by_layer = BTreeMap::new();
    let mut by_root: BTreeMap<&str, u64> = BTreeMap::new();
    for root in &data.roots {
        tally(root, &mut by_layer);
        *by_root.entry(root.label.as_str()).or_default() += root.total_wall_ns();
    }
    let spanned_ns: u64 = by_root.values().sum();
    let traced = pool.instances.len().div_ceil(TRACED_STRIDE);
    let k = traced as f64;
    let ms_per_instance = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6 / k;
    let root_ms = |label: &str| by_root.get(label).copied().unwrap_or(0) as f64 / 1e6;
    let hit_ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;

    let untraced_p50 = percentile(&timed.ms, 0.5);
    let traced_p50 = median(&traced_ms);
    let (net_us, plan_us) = flood_setup_us(pool);
    // Counts come from the timed loop's first solve of every instance.
    let first: Vec<_> = timed.first.iter().flatten().collect();
    let per_instance = |count: u64| count as f64 / first.len().max(1) as f64;
    let floods: u64 = first.iter().map(|e| e.floods).sum();
    let scalar_floods: u64 = first.iter().map(|e| e.scalar_floods).sum();
    let phases: u64 = first.iter().map(|e| e.phases).sum();
    let setup_share = (net_us + plan_us) * per_instance(floods) / (untraced_p50 * 1e3) * 100.0;
    let cache = &data.cache;

    println!(
        "set-up (median of {}): generate {:.1} ms, oracle {:.1} ms, warm-up {:.1} ms",
        setups.len(),
        median(
            &setups
                .iter()
                .map(|s| s.generate_s * 1e3)
                .collect::<Vec<_>>()
        ),
        median(&setups.iter().map(|s| s.oracle_s * 1e3).collect::<Vec<_>>()),
        median(&setups.iter().map(|s| s.warmup_s * 1e3).collect::<Vec<_>>()),
    );
    println!("traced pass self time per instance, by layer:");
    for (layer, ns) in &by_layer {
        println!("  {layer:<20} {:>10.3} ms", *ns as f64 / 1e6 / k);
    }
    println!("flood.setup_share is computed: (network_new_us + plan_build_us) × floods/instance ÷ solve_ms.p50");

    let metrics = vec![
        metric("graph.generate_ms", root_ms("bench/generate"), "ms"),
        metric("graph.oracle_ms", root_ms("bench/oracle"), "ms"),
        metric("core.self_ms", ms_per_instance("core"), "ms"),
        metric("core.phases", per_instance(phases), "count"),
        metric(
            "multibfs.bfs_self_ms",
            ms_per_instance("multibfs.bfs"),
            "ms",
        ),
        metric(
            "multibfs.detect_self_ms",
            ms_per_instance("multibfs.detect"),
            "ms",
        ),
        metric("multibfs.floods", floods as f64, "count"),
        metric("multibfs.scalar_floods", scalar_floods as f64, "count"),
        metric(
            "directed.alg3_self_ms",
            ms_per_instance("directed.alg3"),
            "ms",
        ),
        metric("tree.build_self_ms", ms_per_instance("tree.build"), "ms"),
        metric(
            "tree.broadcast_self_ms",
            ms_per_instance("tree.broadcast"),
            "ms",
        ),
        metric(
            "tree.convergecast_self_ms",
            ms_per_instance("tree.convergecast"),
            "ms",
        ),
        metric(
            "cache.tree_hit_ratio",
            hit_ratio(cache.tree_hits, cache.tree_misses),
            "ratio",
        ),
        metric(
            "cache.latency_hit_ratio",
            hit_ratio(cache.latency_hits, cache.latency_misses),
            "ratio",
        ),
        metric("cache.rounds_saved", cache.rounds_saved as f64, "rounds"),
        metric("engine.network_new_us", net_us, "us"),
        metric("flood.plan_build_us", plan_us, "us"),
        metric("flood.setup_share", setup_share, "%"),
        metric(
            "trace.unattributed_pct",
            wall_ns.saturating_sub(spanned_ns) as f64 / wall_ns as f64 * 100.0,
            "%",
        ),
        metric(
            "trace.overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
    ];
    LayerReport {
        metrics,
        attempted: traced as u64,
        failures,
    }
}
