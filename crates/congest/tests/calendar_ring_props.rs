//! Property-based tests of the [`CalendarRing`] behind the bitset flood
//! kernel: against a reference `BinaryHeap<Reverse<(arrival, seq)>>`
//! (the scalar engine's transit order), random insert schedules must
//! agree on pop order, bucket rotation across many wraparounds, overflow
//! promotion for latencies beyond the ring's window, and quiet-gap
//! fast-forwards (mid-schedule and in the tail, including gaps longer
//! than the window); and random stretched floods must leave both kernels
//! — including the one-word ghost that replays the scalar heap's stale
//! entries in the re-pend test — in byte-identical agreement, send order
//! (the event log) included.
//!
//! Runs on `mwc_rng::proptest_lite`; new failures persist their case
//! seed under `proplite-regressions/`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mwc_congest::{
    multi_source_bfs, set_flood_kernel, source_detection, CalendarRing, EventCapture, FloodKernel,
    Ledger, MultiBfsSpec,
};
use mwc_graph::generators::{connected_gnm, WeightRange};
use mwc_graph::seq::Direction;
use mwc_graph::{NodeId, Orientation, Weight};
use mwc_rng::proptest_lite::{self as plite, Config};
use mwc_rng::{prop_assert, prop_assert_eq, prop_tests};

/// Ring span used by the schedule tests: small enough that long schedules
/// lap the ring many times (the rotation being tested), large enough for
/// same-round pileups of fast and slow arrivals.
const MAX_LAT: u64 = 7;

/// Sampled latencies reach this many windows of a `MAX_LAT` ring, so
/// unfolded schedules keep its overflow level busy.
const OVERFLOW_WINDOWS: u64 = 5;

/// Drains round `round` from both the ring and the reference heap and
/// returns `(ring expiries, heap expiries)`.
fn expire(
    ring: &mut CalendarRing<u64>,
    heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
    round: u64,
) -> (Vec<u64>, Vec<u64>) {
    let mut got = Vec::new();
    ring.drain_round_into(round, &mut got);
    let mut want = Vec::new();
    while let Some(&Reverse((a, s))) = heap.peek() {
        if a > round {
            break;
        }
        heap.pop();
        want.push(s);
    }
    (got, want)
}

prop_tests! {
    config = Config::with_cases(64);

    /// Round-by-round schedule: each batch of latencies is inserted at
    /// its send round and that round's expiries are drained. The ring
    /// must pop exactly what the scalar transit heap pops, in `(arrival,
    /// send sequence)` order, with occupancy in lockstep. With `fold`
    /// the latencies fit the `MAX_LAT` window; without it they reach
    /// `OVERFLOW_WINDOWS` windows, so most sends overflow and get
    /// promoted back. A batch flagged `quiet` is preceded by a
    /// fast-forward to the next arrival, the kernel's move when nothing
    /// was sent; unfolded, such gaps often exceed the window.
    fn ring_matches_transit_heap(
        batches in plite::vec(
            (plite::any_bool(), plite::vec(0u64..OVERFLOW_WINDOWS * (MAX_LAT + 1), 0..5)),
            1..24,
        ),
        fold in plite::any_bool(),
    ) {
        let mut ring: CalendarRing<u64> = CalendarRing::new(MAX_LAT);
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut round = 0u64;
        for (quiet, batch) in &batches {
            if *quiet {
                if let Some(next) = ring.next_arrival() {
                    prop_assert_eq!(
                        heap.peek().map(|&Reverse((a, _))| a),
                        Some(next),
                        "mid-schedule fast-forward skipped or invented an arrival"
                    );
                    round = next;
                    let (got, want) = expire(&mut ring, &mut heap, round);
                    prop_assert_eq!(&got, &want, "quiet round {} expiries diverge", round);
                }
            }
            round += 1;
            for &lat in batch {
                let lat = if fold { lat % (MAX_LAT + 1) } else { lat };
                let arrival = round + lat;
                ring.push(arrival, seq);
                heap.push(Reverse((arrival, seq)));
                seq += 1;
            }
            let (got, want) = expire(&mut ring, &mut heap, round);
            prop_assert_eq!(&got, &want, "round {} expiries diverge", round);
            prop_assert_eq!(ring.len(), heap.len());
        }
        // Tail: no more sends, so every remaining arrival is reached via
        // the quiet-gap fast-forward — `next_arrival` must land exactly
        // on the heap's minimum, every time, until both are empty.
        while let Some(next) = ring.next_arrival() {
            prop_assert!(next > round, "fast-forward must advance");
            prop_assert_eq!(
                heap.peek().map(|&Reverse((a, _))| a),
                Some(next),
                "fast-forward skipped or invented an arrival"
            );
            round = next;
            let (got, want) = expire(&mut ring, &mut heap, round);
            prop_assert_eq!(&got, &want, "tail round {} expiries diverge", round);
        }
        prop_assert!(ring.is_empty() && heap.is_empty(), "pending arrivals leaked");
        prop_assert_eq!(ring.next_arrival(), None);
    }

    /// Random stretched floods agree across kernels: the calendar-ring
    /// bitset kernel (ghost re-pends included) must reproduce the scalar
    /// reference's distances, predecessors, detection lists and per-pair
    /// detection tables, every ledger total, and the event log line for
    /// line — the event log is what sees send order — on arbitrary
    /// connected graphs with zero-weight edges mixed in. σ runs from 1 to
    /// 4, so truncation evictions leave stale entries behind, and every
    /// first, second or third node is a source: with many rows a node
    /// retires a far announcement before a near one, which is what tells
    /// the ghost's max apart from the last retired entry.
    fn stretched_kernels_agree(
        seed in 0u64..5000,
        n in 4usize..24,
        extra in 0usize..48,
        wmax in 1u64..9,
        sigma in 1usize..5,
        step in 1usize..4,
    ) {
        let g = connected_gnm(n, extra, Orientation::Directed, WeightRange::uniform(0, wmax), seed);
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let sources: Vec<NodeId> = (0..n).step_by(step).collect();
        let spec = MultiBfsSpec {
            direction: Direction::Forward,
            latency: Some(&lat),
            ..MultiBfsSpec::default()
        };
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            set_flood_kernel(kernel);
            let cap = EventCapture::memory();
            let mut ledger = Ledger::new();
            let mat = multi_source_bfs(&g, &sources, &spec, "p", &mut ledger);
            let det = source_detection(
                &g,
                &sources,
                3 * wmax,
                sigma,
                Direction::Forward,
                Some(&lat),
                "p",
                &mut ledger,
            );
            let pairs: Vec<_> = (0..n)
                .flat_map(|v| sources.iter().map(move |&s| (v, s)))
                .map(|(v, s)| (det.dist(v, s), det.pred(v, s)))
                .collect();
            results.push((
                mat.digest(),
                det.lists,
                pairs,
                ledger.rounds,
                ledger.words,
                ledger.messages,
                ledger.hot_links(8),
                cap.finish(),
            ));
        }
        set_flood_kernel(FloodKernel::Bitset);
        prop_assert_eq!(&results[0], &results[1], "kernels disagree on stretched flood");
    }
}
