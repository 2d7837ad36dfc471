//! Shard-count differential suite: the engine's sharded round kernel is
//! purely an execution strategy, so *everything observable* must be
//! byte-identical for any `--shards` count. On the three workload
//! families the Table-1 experiments sweep — unit-weight girth graphs,
//! undirected weighted graphs, and directed weighted graphs — an
//! identical pipeline (BFS tree + broadcast + convergecast, a
//! history-enabled hand-rolled delivery phase, multi-source BFS, source
//! detection) runs once per shard count in {1, 2, 4, 8} and the suite
//! compares, against the unsharded run:
//!
//! - the rendered [`RunRecord`] (params, spans, totals, congestion
//!   summaries — the exact bytes `trace_diff` gates on),
//! - the ledger's congestion history (`words_per_round`), hot links, and
//!   totals,
//! - the [`DistMatrix`] digest and the full detection lists,
//! - the phase-cache `CacheStats` counters and the ledger's canonical
//!   `ShardProfile` (words per reference shard),
//! - the `MWC_TRACE_EVENTS` event log, line for line.
//!
//! The shard knobs are process globals, so runs take a lock and restore
//! the unsharded default on drop; the engagement threshold is pinned to
//! zero so the parallel kernel really runs on these small graphs.

use std::sync::{Mutex, MutexGuard};

use mwc_congest::{
    broadcast, convergecast_min, multi_source_bfs, source_detection, CacheStats, DetectionLists,
    EventCapture, Ledger, MultiBfsSpec, Network, PhaseCache, RoundOutput, ShardProfile,
};
use mwc_graph::generators::{connected_gnm, ring_with_chords, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Orientation};
use mwc_trace::{RunRecord, TraceSession};

static SHARD_GLOBALS: Mutex<()> = Mutex::new(());

/// Holds the process-global shard configuration for one observed run:
/// takes the lock (the knobs are shared by every test thread), pins the
/// engagement threshold to zero, installs the shard count, and restores
/// the unsharded default on drop.
struct ShardConfig {
    _guard: MutexGuard<'static, ()>,
}

fn with_shards(k: usize) -> ShardConfig {
    let guard = SHARD_GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    mwc_par::set_shard_threshold(0);
    mwc_par::set_shards(k);
    ShardConfig { _guard: guard }
}

impl Drop for ShardConfig {
    fn drop(&mut self) {
        mwc_par::set_shards(1);
    }
}

/// Everything a run exposes to the outside world. Two [`Observed`]
/// values comparing equal means no artifact — record bytes, ledger,
/// tables, event log — could distinguish the shard counts.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    record: String,
    events: Vec<String>,
    bfs_digest: u64,
    detection: DetectionLists,
    history: Vec<(u64, u64)>,
    hot_links: Vec<((NodeId, NodeId), u64)>,
    totals: (u64, u64, u64, u64),
    tree_min: u64,
    cache_stats: CacheStats,
    shard_profile: ShardProfile,
}

/// A delivery-driven phase with history on: every node seeds tokens of
/// varying size and latency, wakeups trigger fresh sends, deliveries
/// re-forward while hops remain. This is the part of the pipeline that
/// exercises queue depth, transit ordering, and the per-round ledger
/// history under the sharded kernel.
fn echo_phase(g: &Graph, ledger: &mut Ledger) {
    let mut net: Network<(u32, u32)> = Network::new_auto(g);
    net.enable_history();
    for v in 0..g.n() {
        for w in g.comm_neighbors(v) {
            let words = 1 + ((v + w) % 3) as u64;
            net.send_latency(v, w, (v as u32, 2), words, (v % 2) as u64)
                .expect("neighbors are linked");
        }
        if v % 5 == 0 {
            net.schedule_wakeup(4 + (v % 3) as u64, v);
        }
    }
    let mut out = RoundOutput::default();
    while net.step(&mut out) {
        for v in out.wakeups.drain(..) {
            if let Some(&w) = g.comm_neighbors(v).first() {
                net.send(v, w, (u32::MAX, 0), 3).expect("neighbors");
            }
        }
        for d in out.deliveries.drain(..) {
            let (tok, hops) = d.payload;
            if hops == 0 {
                continue;
            }
            let nbrs = g.comm_neighbors(d.to);
            let w = nbrs[(d.to + hops as usize) % nbrs.len()];
            net.send(d.to, w, (tok, hops - 1), 1 + (tok as u64 % 4))
                .expect("neighbors");
        }
    }
    ledger.absorb("echo", &net);
}

/// Runs the full pipeline on `g` under `shards` engine shards and
/// captures every observable artifact.
fn observe(g: &Graph, direction: Direction, shards: usize) -> Observed {
    let _cfg = with_shards(shards);
    let cap = EventCapture::memory();
    let session = TraceSession::memory();
    let mut ledger = Ledger::new();

    // Build the tree through the phase cache, twice: the second build is
    // a hit, so the run exercises the CacheStats counters (and the
    // ledger's rounds_saved credit) that must stay shard-invariant.
    let cache = PhaseCache::scope();
    let tree = PhaseCache::bfs_tree(g, 0, &mut ledger);
    let tree_again = PhaseCache::bfs_tree(g, 0, &mut ledger);
    assert_eq!(tree.parent, tree_again.parent, "cache replays the tree");
    let items: Vec<(NodeId, u32)> = (0..g.n()).step_by(3).map(|v| (v, v as u32)).collect();
    let _gathered = broadcast(g, &tree, items, 2, &mut ledger);
    let values: Vec<u64> = (0..g.n() as u64).map(|v| v * 7 % 23 + 1).collect();
    let tree_min = convergecast_min(g, &tree, values, &mut ledger);

    echo_phase(g, &mut ledger);

    let sources: Vec<NodeId> = (0..g.n()).step_by(2).collect();
    let spec = MultiBfsSpec {
        direction,
        ..MultiBfsSpec::default()
    };
    let mat = multi_source_bfs(g, &sources, &spec, "probe", &mut ledger);
    let det = source_detection(g, &sources, 64, 3, direction, None, "probe", &mut ledger);

    // Capture the counters, then drop the scope BEFORE finishing the
    // session so the cache event lands in this session's trace (and the
    // record's gated `cache` tally is populated).
    let cache_stats = PhaseCache::stats().expect("scope is active");
    drop(cache);

    let mut record = RunRecord::from_trace(
        "shard_probe",
        vec![("n".into(), g.n().to_string())],
        &session.finish(),
    );
    record.push_congestion(ledger.congestion_summary("pipeline"));

    Observed {
        record: record.render(),
        events: cap.finish(),
        bfs_digest: mat.digest(),
        detection: det.lists,
        history: ledger.words_per_round().to_vec(),
        hot_links: ledger.hot_links(8),
        totals: (
            ledger.rounds,
            ledger.words,
            ledger.messages,
            ledger.rounds_saved,
        ),
        tree_min,
        cache_stats,
        shard_profile: ledger.shard_profile(),
    }
}

fn assert_shard_invariant(g: &Graph, direction: Direction, family: &str) {
    let baseline = observe(g, direction, 1);
    assert!(
        !baseline.history.is_empty(),
        "{family}: the history-enabled phase must populate the ledger"
    );
    assert!(
        baseline.cache_stats.tree_hits >= 1 && baseline.totals.3 > 0,
        "{family}: the pipeline must exercise the phase cache"
    );
    assert!(
        !baseline.shard_profile.words.is_empty()
            && baseline.shard_profile.imbalance_milli() >= 1000,
        "{family}: the ledger must carry a canonical shard profile"
    );
    assert!(
        baseline.record.contains("\"tree_hits\": 1")
            && baseline.record.contains("\"shard_imbalance_milli\":"),
        "{family}: the record must carry the gated cache/shard metrics"
    );
    for shards in [2, 4, 8] {
        let got = observe(g, direction, shards);
        assert_eq!(
            got.record, baseline.record,
            "{family}: RunRecord bytes diverge at {shards} shards"
        );
        assert_eq!(
            got.events, baseline.events,
            "{family}: event log diverges at {shards} shards"
        );
        assert_eq!(
            got, baseline,
            "{family}: observable state diverges at {shards} shards"
        );
    }
}

#[test]
fn girth_family_is_shard_invariant() {
    for seed in 0..2 {
        let g = connected_gnm(26, 44, Orientation::Undirected, WeightRange::unit(), seed);
        assert_shard_invariant(&g, Direction::Forward, "girth/connected_gnm");
    }
}

#[test]
fn undirected_weighted_family_is_shard_invariant() {
    let g = ring_with_chords(
        24,
        8,
        Orientation::Undirected,
        WeightRange::uniform(1, 9),
        5,
    );
    assert_shard_invariant(&g, Direction::Forward, "weighted/ring_with_chords");
}

#[test]
fn directed_family_is_shard_invariant() {
    for seed in [3, 11] {
        let g = connected_gnm(
            22,
            50,
            Orientation::Directed,
            WeightRange::uniform(1, 6),
            seed,
        );
        assert_shard_invariant(&g, Direction::Forward, "directed/connected_gnm");
        let g = connected_gnm(20, 46, Orientation::Directed, WeightRange::unit(), seed);
        assert_shard_invariant(&g, Direction::Reverse, "directed-reverse/connected_gnm");
    }
}

/// Shard counts beyond the node count must clamp, not panic, and still
/// produce identical artifacts.
#[test]
fn oversharding_clamps_and_stays_identical() {
    let g = ring_with_chords(6, 2, Orientation::Undirected, WeightRange::unit(), 1);
    let baseline = observe(&g, Direction::Forward, 1);
    let got = observe(&g, Direction::Forward, 64);
    assert_eq!(got, baseline, "oversharded run diverges");
}
