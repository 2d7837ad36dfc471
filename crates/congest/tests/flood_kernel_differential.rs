//! Flood-kernel differential suite: the bitset inner loop of
//! [`multi_source_bfs`] / [`source_detection`] is purely an execution
//! strategy, so *everything observable* must be byte-identical between
//! `MWC_FLOOD_KERNEL=scalar` and the default `bitset` kernel. On the
//! three workload families the Table-1 experiments sweep — unit-weight
//! girth graphs, weighted graphs run both plain and latency-stretched,
//! and directed graphs in both traversal directions — an identical
//! pipeline runs once per kernel and the suite compares, against the
//! scalar run:
//!
//! - the rendered [`RunRecord`] (params, spans, totals, congestion
//!   summaries — the exact bytes `trace_diff` gates on; the
//!   informational `flood_kernel` stamp is absent in records built
//!   straight from a trace, so the bytes really must match),
//! - the ledger's hot links and round/word/message totals,
//! - the [`DistMatrix`] digest (distances AND predecessors) and the
//!   full detection lists, plain and stretched,
//! - the `MWC_TRACE_EVENTS` event log, line for line.
//!
//! The kernel knob is a process global, so runs take a lock and restore
//! the default on drop. Zero-weight edges ride along in the stretched
//! family: a `w = 0` edge stays unit-latency (one round to cross, zero
//! distance added), which is exactly the aliasing case the bitset
//! frontier's distance buckets must get right.

use std::sync::{Mutex, MutexGuard};

use mwc_congest::{
    broadcast, flood_engagement, multi_source_bfs, set_flood_kernel, source_detection, BfsTree,
    DetectionLists, EventCapture, FloodKernel, Ledger, MultiBfsSpec, INF,
};
use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation, Weight};
use mwc_trace::{RunRecord, TraceSession};

static KERNEL_GLOBAL: Mutex<()> = Mutex::new(());

/// Holds the process-global kernel selection for one observed run:
/// takes the lock (the knob is shared by every test thread), installs
/// the kernel, and restores the bitset default on drop.
struct KernelConfig {
    _guard: MutexGuard<'static, ()>,
}

fn with_kernel(k: FloodKernel) -> KernelConfig {
    let guard = KERNEL_GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_flood_kernel(k);
    KernelConfig { _guard: guard }
}

impl Drop for KernelConfig {
    fn drop(&mut self) {
        set_flood_kernel(FloodKernel::Bitset);
    }
}

/// Everything a run exposes to the outside world. Two [`Observed`]
/// values comparing equal means no artifact — record bytes, ledger,
/// tables, event log — could distinguish the kernels.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    record: String,
    events: Vec<String>,
    unit_digest: u64,
    stretched_digest: u64,
    detection: DetectionLists,
    stretched_detection: DetectionLists,
    hot_links: Vec<((NodeId, NodeId), u64)>,
    totals: (u64, u64, u64),
}

/// Runs the flood-primitive pipeline on `g` under `kernel` and captures
/// every observable artifact: a plain multi-source BFS, a
/// latency-stretched BFS over the edge weights (sends parked in the
/// bitset kernel's calendar ring), and a source detection both plain and
/// stretched.
fn observe(g: &Graph, direction: Direction, latency: &[Weight], kernel: FloodKernel) -> Observed {
    let _cfg = with_kernel(kernel);
    let cap = EventCapture::memory();
    let session = TraceSession::memory();
    let mut ledger = Ledger::new();

    let sources: Vec<NodeId> = (0..g.n()).step_by(2).collect();
    let unit_spec = MultiBfsSpec {
        direction,
        ..MultiBfsSpec::default()
    };
    let unit = multi_source_bfs(g, &sources, &unit_spec, "probe/unit", &mut ledger);
    let stretched_spec = MultiBfsSpec {
        direction,
        latency: Some(latency),
        ..MultiBfsSpec::default()
    };
    let stretched = multi_source_bfs(g, &sources, &stretched_spec, "probe/stretched", &mut ledger);
    let det = source_detection(g, &sources, 64, 3, direction, None, "probe", &mut ledger);
    let stretched_det = source_detection(
        g,
        &sources,
        INF - 1,
        3,
        direction,
        Some(latency),
        "probe/stretched",
        &mut ledger,
    );

    let mut record = RunRecord::from_trace(
        "kernel_probe",
        vec![("n".into(), g.n().to_string())],
        &session.finish(),
    );
    record.push_congestion(ledger.congestion_summary("pipeline"));

    Observed {
        record: record.render(),
        events: cap.finish(),
        unit_digest: unit.digest(),
        stretched_digest: stretched.digest(),
        detection: det.lists,
        stretched_detection: stretched_det.lists,
        hot_links: ledger.hot_links(8),
        totals: (ledger.rounds, ledger.words, ledger.messages),
    }
}

/// Stretch table over `g`'s edge weights: `ℓ(e) = max(w(e), 1)`, so a
/// unit-weight graph stays unit-latency and a weighted one exercises
/// in-flight delivery (the scalar transit slab vs. the calendar ring).
fn weight_latency(g: &Graph) -> Vec<Weight> {
    g.edges().iter().map(|e| e.weight.max(1)).collect()
}

/// Raw edge weights as the latency table, 0 entries included: a `w = 0`
/// edge then adds zero distance but still takes one round to cross
/// (`FloodPlan` clamps travel time, not distance), and the whole flood
/// stays unit-latency when no weight exceeds 1 — the zero-distance
/// aliasing case for the bitset kernel's frontier.
fn raw_weight_latency(g: &Graph) -> Vec<Weight> {
    g.edges().iter().map(|e| e.weight).collect()
}

fn assert_kernel_invariant(g: &Graph, direction: Direction, latency: &[Weight], family: &str) {
    let scalar = observe(g, direction, latency, FloodKernel::Scalar);
    assert!(
        scalar.totals.0 > 0 && scalar.totals.1 > 0,
        "{family}: the pipeline must move traffic"
    );
    let bitset = observe(g, direction, latency, FloodKernel::Bitset);
    assert_eq!(
        bitset.record, scalar.record,
        "{family}: RunRecord bytes diverge between kernels"
    );
    assert_eq!(
        bitset.events, scalar.events,
        "{family}: event log diverges between kernels"
    );
    assert_eq!(
        bitset, scalar,
        "{family}: observable state diverges between kernels"
    );
}

#[test]
fn girth_family_is_kernel_invariant() {
    for seed in 0..3 {
        let g = connected_gnm(40, 90, Orientation::Undirected, WeightRange::unit(), seed);
        let lat = weight_latency(&g);
        assert_kernel_invariant(&g, Direction::Forward, &lat, "girth/connected_gnm");
    }
}

#[test]
fn weighted_family_is_kernel_invariant() {
    for seed in [2, 9] {
        let g = ring_with_chords(
            30,
            10,
            Orientation::Undirected,
            WeightRange::uniform(1, 9),
            seed,
        );
        let lat = weight_latency(&g);
        assert_kernel_invariant(&g, Direction::Forward, &lat, "weighted/ring_with_chords");
    }
}

#[test]
fn directed_family_is_kernel_invariant() {
    for seed in [3, 11] {
        let g = connected_gnm(
            28,
            70,
            Orientation::Directed,
            WeightRange::uniform(1, 6),
            seed,
        );
        let lat = weight_latency(&g);
        assert_kernel_invariant(&g, Direction::Forward, &lat, "directed/connected_gnm");
        assert_kernel_invariant(
            &g,
            Direction::Reverse,
            &lat,
            "directed-reverse/connected_gnm",
        );
    }
}

/// Zero-weight edges: a `{0, 1}`-weight graph run with its raw weights
/// as the latency table stays unit-latency, so the bitset kernel really
/// executes a flood where some hops add `dist_add = 0` — the aliasing
/// case for the frontier's distance buckets (one round crossed, zero
/// distance gained). Both kernels must agree byte-for-byte.
#[test]
fn zero_weight_family_is_kernel_invariant() {
    for seed in [1, 7] {
        let g = connected_gnm(
            32,
            80,
            Orientation::Directed,
            WeightRange::uniform(0, 1),
            seed,
        );
        let lat = raw_weight_latency(&g);
        assert!(
            lat.contains(&0) && lat.iter().all(|&l| l <= 1),
            "family must mix zero- and unit-weight edges"
        );
        assert_kernel_invariant(&g, Direction::Forward, &lat, "zero-weight/connected_gnm");
    }
}

/// Captures every observable of a [`broadcast`] (tree build + pipelined
/// upcast + downcast) under `kernel`. The downcast is charged in closed
/// form under the bitset kernel, so this pins its byte-identity to the
/// engine-stepped scalar reference: record bytes, event log, the
/// collected item list (content AND order), hot links, and totals.
fn observe_broadcast(
    g: &Graph,
    root: NodeId,
    items: Vec<(NodeId, u64)>,
    words_per_item: u64,
    kernel: FloodKernel,
) -> Observed {
    let _cfg = with_kernel(kernel);
    let cap = EventCapture::memory();
    let session = TraceSession::memory();
    let mut ledger = Ledger::new();

    let tree = BfsTree::build(g, root, &mut ledger);
    let all = broadcast(g, &tree, items, words_per_item, &mut ledger);

    let mut record = RunRecord::from_trace(
        "broadcast_probe",
        vec![("n".into(), g.n().to_string())],
        &session.finish(),
    );
    record.push_congestion(ledger.congestion_summary("broadcast"));

    // Fold the collected list into the digest slots so a reorder or a
    // dropped item shows up even though this probe has no DistMatrix.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (origin, item) in &all {
        for part in [*origin as u64, *item] {
            digest ^= part;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Observed {
        record: record.render(),
        events: cap.finish(),
        unit_digest: digest,
        stretched_digest: all.len() as u64,
        detection: DetectionLists::default(),
        stretched_detection: DetectionLists::default(),
        hot_links: ledger.hot_links(8),
        totals: (ledger.rounds, ledger.words, ledger.messages),
    }
}

fn assert_broadcast_kernel_invariant(
    g: &Graph,
    root: NodeId,
    items: Vec<(NodeId, u64)>,
    words_per_item: u64,
    family: &str,
) {
    let scalar = observe_broadcast(g, root, items.clone(), words_per_item, FloodKernel::Scalar);
    let bitset = observe_broadcast(g, root, items, words_per_item, FloodKernel::Bitset);
    assert_eq!(
        bitset.record, scalar.record,
        "{family}: RunRecord bytes diverge between kernels"
    );
    assert_eq!(
        bitset.events, scalar.events,
        "{family}: event log diverges between kernels"
    );
    assert_eq!(
        bitset, scalar,
        "{family}: observable state diverges between kernels"
    );
}

/// The broadcast downcast — a saturated pipelined flood down the BFS
/// tree — is charged in closed form under the bitset kernel. Sweep the
/// shapes that stress the schedule: a path (maximum height, one chain),
/// a star (height 1, the root queue holds all `m` items), and random
/// connected graphs (branching trees), each with `m ∈ {0, 1, many}` and
/// single- vs multi-word items.
#[test]
fn broadcast_downcast_is_kernel_invariant() {
    // Path: 12 nodes rooted at one end.
    let mut path = Graph::undirected(12);
    for i in 0..11 {
        path.add_edge(i, i + 1, 1).unwrap();
    }
    // Star: hub 0 with 9 leaves.
    let mut star = Graph::undirected(10);
    for i in 1..10 {
        star.add_edge(0, i, 1).unwrap();
    }
    let gnm = connected_gnm(26, 50, Orientation::Undirected, WeightRange::unit(), 13);
    let shapes: [(&str, &Graph, NodeId); 3] =
        [("path", &path, 0), ("star", &star, 0), ("gnm", &gnm, 5)];
    for (name, g, root) in shapes {
        for m in [0usize, 1, 17] {
            for w in [1u64, 3] {
                let items: Vec<(NodeId, u64)> =
                    (0..m).map(|i| (i % g.n(), 1000 + i as u64)).collect();
                let family = format!("broadcast/{name}/m={m}/w={w}");
                assert_broadcast_kernel_invariant(g, root, items, w, &family);
            }
        }
    }
}

/// Heavy-tail latencies: one graph mixing zero-weight edges (unit travel,
/// zero distance — the deliver-before-expiry aliasing case), stretch-1
/// edges, latencies hundreds of rounds long, and a rare class whose
/// stretch exceeds the calendar ring's window (65 536 buckets), so its
/// arrivals wait in the ring's overflow level. The stretched runs stress
/// every calendar-ring behavior at once — deep parking, overflow
/// promotion, quiet-gap fast-forwards across empty buckets and past the
/// whole window, same-round collisions of fast and slow arrivals — and
/// the whole [`Observed`] surface must still be byte-identical across
/// `MWC_FLOOD_KERNEL=scalar|bitset`.
#[test]
fn heavy_tail_latency_family_is_kernel_invariant() {
    for seed in [4, 19] {
        let base = connected_gnm(
            36,
            96,
            Orientation::Directed,
            WeightRange::uniform(0, 1),
            seed,
        );
        // Remap weights onto a heavy-tailed scale keyed by edge index:
        // mostly short (0 / 1 / 2), a thick tail of 37s, rare 211-round
        // outliers that dwarf the rest of the schedule, and rarer
        // 100 003-round edges beyond the ring's window.
        let edges: Vec<(usize, usize, Weight)> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let w = match i % 19 {
                    0 | 9 => 0,
                    1..=3 | 10..=12 => 1,
                    4 | 5 | 13 | 14 => 2,
                    6 | 7 | 15 | 16 => 37,
                    8 | 17 => 211,
                    _ => 100_003,
                };
                (e.u, e.v, w)
            })
            .collect();
        let g = Graph::from_edges(base.n(), Orientation::Directed, edges).unwrap();
        let lat = raw_weight_latency(&g);
        assert!(
            lat.contains(&0) && lat.contains(&1) && lat.contains(&211) && lat.contains(&100_003),
            "family must mix zero-weight, stretch-1, max-scale and beyond-window edges"
        );
        assert_kernel_invariant(&g, Direction::Forward, &lat, "heavy-tail/connected_gnm");
        assert_kernel_invariant(
            &g,
            Direction::Reverse,
            &lat,
            "heavy-tail-reverse/connected_gnm",
        );

        // No latency table sends a flood back to the scalar reference:
        // the bitset kernel serves the beyond-window stretch itself.
        let _cfg = with_kernel(FloodKernel::Bitset);
        let (bitset0, scalar0) = flood_engagement();
        let spec = MultiBfsSpec {
            latency: Some(&lat),
            ..MultiBfsSpec::default()
        };
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0, 5], &spec, "probe/overflow", &mut ledger);
        let _ = source_detection(
            &g,
            &[0, 5],
            INF - 1,
            2,
            Direction::Forward,
            Some(&lat),
            "probe/overflow",
            &mut ledger,
        );
        let (bitset1, scalar1) = flood_engagement();
        assert_eq!(
            scalar1 - scalar0,
            0,
            "a beyond-window flood ran the scalar path"
        );
        assert!(bitset1 - bitset0 >= 2, "both floods ran the bitset kernel");
    }
}

/// Source detection charges a round in which nodes popped announcements
/// but the budget `h` filtered every send, even while a stretched
/// announcement is still in transit: the scalar loop must execute that
/// one round, not fast-forward to the arrival. On `0→1 (w 1)`,
/// `1→2 (w 5)`, `0→3 (w 3)` with `h = 4`, node 1 pops at round 2 and
/// its only send (distance 6) is filtered while `0→3` is in flight until
/// round 3; node 3 then pops with nothing to send, charging round 4.
#[test]
fn budget_filtered_round_is_kernel_invariant() {
    let g = Graph::from_edges(4, Orientation::Directed, [(0, 1, 1), (1, 2, 5), (0, 3, 3)]).unwrap();
    let lat = raw_weight_latency(&g);
    let run = |kernel| {
        let _cfg = with_kernel(kernel);
        let cap = EventCapture::memory();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[0],
            4,
            1,
            Direction::Forward,
            Some(&lat),
            "probe/budget",
            &mut ledger,
        );
        (
            (ledger.rounds, ledger.words, ledger.messages),
            det.lists,
            cap.finish(),
        )
    };
    let scalar = run(FloodKernel::Scalar);
    assert_eq!(scalar.0, (4, 2, 2), "scalar rounds, words, messages");
    assert_eq!(run(FloodKernel::Bitset), scalar);
}
