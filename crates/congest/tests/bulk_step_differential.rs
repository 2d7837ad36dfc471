//! Differential test for round advancement: on the three graph families
//! the bound audits sweep (G(n,m), grid, ring-with-chords), plus the
//! engine's three-node mixed load, an identical delivery-driven workload
//! runs twice — once under [`Network::step`], which jumps quiet gaps and
//! bulk-skips multi-word runs, and once under a reference that executes
//! exactly one round per call — and everything observable must match
//! exactly: the full [`NetStats`] (including the `words_per_round` ledger
//! history and `queue_high_water`), the `MWC_TRACE_EVENTS` event log, and
//! the final round counter.

use mwc_congest::{EventCapture, NetStats, Network, RoundOutput};
use mwc_graph::generators::{connected_gnm, grid, ring_with_chords, WeightRange};
use mwc_graph::{Graph, Orientation};

/// Payload: `(token, hops_left)`.
type Msg = (u32, u32);

/// How one run advances the network. Returns `false` when the network is
/// drained.
type Advance = fn(&mut Network<Msg>, &mut RoundOutput<Msg>) -> bool;

/// A node no workload ever wakes: the reference's round marker.
const MARKER: usize = 1;

/// The one-round-per-call reference, through the public API only: a
/// wakeup at `round() + 1` on [`MARKER`] stops the step there, and is
/// dropped before the workload sees the output.
fn one_round(net: &mut Network<Msg>, out: &mut RoundOutput<Msg>) -> bool {
    if net.is_idle() {
        return false;
    }
    net.schedule_wakeup(net.round() + 1, MARKER);
    net.step(out);
    out.wakeups.retain(|&v| v != MARKER);
    true
}

/// How a workload seeds the network before the first round.
type Seed = fn(&Graph, &mut Network<Msg>);

/// Every node seeds a token to each neighbor with varying word counts and
/// latencies, and nodes `v ≡ 0 (mod 4)` get wakeups.
fn seed_everywhere(g: &Graph, net: &mut Network<Msg>) {
    for v in 0..g.n() {
        for w in g.comm_neighbors(v) {
            let words = 1 + ((v + w) % 4) as u64 * 2;
            let latency = (v % 3) as u64;
            net.send_latency(v, w, (v as u32, 3), words, latency)
                .expect("neighbors are linked");
        }
        if v % 4 == 0 {
            net.schedule_wakeup(5 + (v % 7) as u64, v);
        }
    }
}

/// The three-node path `0 - 1 - 2`.
fn path3() -> Graph {
    Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap()
}

/// Mixed multi-word, latency and plain-word traffic on [`path3`], with
/// wakeups on nodes 0 and 2: transit expiries and wakeups interrupt the
/// bulk runs.
fn mixed_load(_: &Graph, net: &mut Network<Msg>) {
    net.send(0, 1, (1, 0), 5).unwrap();
    net.send(0, 1, (2, 0), 1).unwrap();
    net.send_latency(1, 2, (3, 0), 4, 3).unwrap();
    net.send(2, 1, (4, 0), 2).unwrap();
    net.schedule_wakeup(2, 0);
    net.schedule_wakeup(9, 2);
}

/// Runs a deterministic multi-wave workload on `g`: after `seed`, woken
/// nodes send a fresh multi-word message, and every delivery with hop
/// budget left is re-forwarded with a different size. This exercises all
/// the regimes bulk advancement must cross: long multi-word transfers
/// (skippable runs), 1-word rounds (no skip), latency gaps (transit
/// boundary), and wakeup rounds (wakeup boundary).
fn run_workload(g: &Graph, seed: Seed, advance: Advance) -> (NetStats, Vec<String>, u64) {
    let cap = EventCapture::memory();
    let mut net: Network<Msg> = Network::new(g);
    net.enable_history();
    seed(g, &mut net);
    let mut out = RoundOutput::default();
    while advance(&mut net, &mut out) {
        for v in out.wakeups.drain(..) {
            if let Some(&w) = g.comm_neighbors(v).first() {
                net.send(v, w, (u32::MAX, 0), 6).expect("neighbors");
            }
        }
        for d in out.deliveries.drain(..) {
            let (tok, hops) = d.payload;
            if hops == 0 {
                continue;
            }
            let nbrs = g.comm_neighbors(d.to);
            let w = nbrs[(d.to + hops as usize) % nbrs.len()];
            let words = 1 + (tok as u64 + hops as u64) % 5;
            let latency = hops as u64 % 2;
            net.send_latency(d.to, w, (tok, hops - 1), words, latency)
                .expect("neighbors");
        }
    }
    (net.stats().clone(), cap.finish(), net.round())
}

fn assert_step_matches_one_round(g: &Graph, seed: Seed, family: &str) {
    let reference = run_workload(g, seed, one_round);
    let got = run_workload(g, seed, Network::step);
    assert_eq!(got.0, reference.0, "{family}: NetStats diverge");
    assert_eq!(got.1, reference.1, "{family}: event log diverges");
    assert_eq!(got.2, reference.2, "{family}: final round diverges");
}

#[test]
fn bulk_matches_single_stepping_on_gnm() {
    for seed in 0..3 {
        let g = connected_gnm(24, 40, Orientation::Undirected, WeightRange::unit(), seed);
        assert_step_matches_one_round(&g, seed_everywhere, "connected_gnm");
    }
}

#[test]
fn bulk_matches_single_stepping_on_grid() {
    let g = grid(5, 5, Orientation::Undirected, WeightRange::unit(), 7);
    assert_step_matches_one_round(&g, seed_everywhere, "grid");
}

#[test]
fn bulk_matches_single_stepping_on_ring_with_chords() {
    let g = ring_with_chords(20, 6, Orientation::Undirected, WeightRange::unit(), 3);
    assert_step_matches_one_round(&g, seed_everywhere, "ring_with_chords");
}

#[test]
fn bulk_matches_single_stepping_on_path3_mixed_load() {
    assert_step_matches_one_round(&path3(), mixed_load, "path3");
}

/// Fan-in regression: a deep per-link queue — one sender
/// stacking several multi-word messages on the same link — must report
/// the same `queue_high_water` whether the run single-steps or bulk-skips
/// through the long transfers.
#[test]
fn queue_high_water_survives_bulk_advancement() {
    let g = grid(3, 3, Orientation::Undirected, WeightRange::unit(), 0);
    let load = |net: &mut Network<Msg>| {
        // Six 4-word messages queued on one link: depth 6.
        for i in 0..6u32 {
            net.send(0, 1, (i, 0), 4).expect("linked");
        }
        // Keep other links busy with long transfers so bulk skipping
        // actually engages while the deep queue drains.
        net.send(4, 5, (99, 0), 16).expect("linked");
        net.send(8, 7, (98, 0), 16).expect("linked");
    };
    let mut out = RoundOutput::default();
    let mut single: Network<Msg> = Network::new(&g);
    load(&mut single);
    while one_round(&mut single, &mut out) {}
    let mut bulk: Network<Msg> = Network::new(&g);
    load(&mut bulk);
    while bulk.step(&mut out) {}
    assert_eq!(single.stats().queue_high_water, 6);
    assert_eq!(
        bulk.stats().queue_high_water,
        single.stats().queue_high_water
    );
    assert_eq!(bulk.stats(), single.stats());
}
