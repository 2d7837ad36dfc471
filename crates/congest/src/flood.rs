//! Shared flood-kernel machinery for the flood primitives: the
//! precomputed traversal-edge CSR ([`FloodPlan`]), the u64-bitset frontier
//! ([`BitFrontier`]) and the arrival-round calendar queue
//! ([`CalendarRing`]) behind the bitset kernel, and the [`FloodKernel`]
//! selection knob (`MWC_FLOOD_KERNEL`).
//!
//! # One ring kernel, one reference, one schedule
//!
//! The pipelined flood primitives ([`crate::multi_source_bfs`] and
//! [`crate::source_detection`]) have two interchangeable inner loops:
//!
//! - **Scalar**: the reference implementation — per-node `BinaryHeap`
//!   outboxes, every announcement enqueued on a [`Network`] link and moved
//!   by `Network::step` (stretched edges through the engine's transit heap),
//!   stale heap entries skipped lazily at pop time.
//! - **Bitset**: frontiers are distance-bucketed u64 words, 64 source rows
//!   per word, maintained *eagerly* (an improved or evicted announcement is
//!   cleared with one AND-NOT instead of lingering as a stale heap entry;
//!   a new one is ORed into or appended past the last word when it lands
//!   at the tail, as it almost always does, and binary-searched into place
//!   otherwise), and the engine's queue machinery is bypassed entirely.
//!   A send over a zero-latency hop is delivered in its send round; a send
//!   over a hop of stretch `ℓ + 1` is parked `ℓ` rounds ahead in a
//!   [`CalendarRing`].
//!   Links are charged at send time (`Network::charge_flood_link`: the
//!   link's word), and each round is
//!   closed in one `Network::charge_flood_round` call (the round's
//!   transfer count; the zero-latency sends, then this round's calendar
//!   expiries, as the arrivals). Every send is charged in the round it is
//!   made, so charging its link early changes no statistic.
//!
//! Both kernels execute the *same schedule*: the pop order of a
//! [`BitFrontier`] is exactly the `(distance, source row)` heap order,
//! eager removal is observationally identical to lazy stale-skipping (a
//! stale entry is popped and discarded for free; an eagerly-removed entry
//! is simply never popped), and the ring expires arrivals in the transit
//! heap's `(arrival round, send sequence)` order.
//!
//! One thing about the stale entries *is* observable: the scalar loop
//! re-pends a node while its heap holds any entry, stale or fresh, and
//! the re-pend order feeds the next round's send order. The bitset kernel
//! keeps that test exact with one word per node, the *ghost*: the largest
//! stale `(distance, row)` the scalar heap would still hold. A pop of the
//! fresh minimum `(d, row)` consumes exactly the stale entries below it,
//! so the stale set survives the pop iff its maximum is above `(d, row)`
//! — equality is impossible, because a row's best distance only
//! decreases and an announcement once retired is never fresh again. So
//! retiring an announcement takes the max, a pop clears the ghost when
//! the ghost is below the popped entry, and a pop that finds no fresh
//! entry clears it (the scalar walk drained the whole heap).
//!
//! The ledger keeps charging model-faithful rounds/words — bitset packing
//! is an implementation detail, not a model change — so every run record,
//! congestion profile, event log, and distance-table digest is
//! byte-identical across kernels. The differential suites
//! (`crates/congest/tests/flood_kernel_differential.rs`,
//! `calendar_ring_props.rs`, and the `MWC_FLOOD_KERNEL=scalar` CI
//! perf-gate leg) pin that.
//!
//! The bitset kernel serves every flood, at every latency: a unit-latency
//! flood (plain BFS, or a stretched search whose edges all have weight
//! ≤ 1) simply never parks anything, and a latency table of any size fits
//! because the ring's window is capped and later arrivals wait in its
//! overflow level.
//!
//! Kernel resolution, highest priority first (the [`mwc_par::shards`]
//! convention): [`set_flood_kernel`] → the `MWC_FLOOD_KERNEL` environment
//! variable (`scalar` | `bitset`) → [`FloodKernel::Bitset`]. Bitset is the
//! default because it is byte-identical by construction and strictly
//! faster; `scalar` is the reference the differential suites check it
//! against.

use crate::engine::Network;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Which inner loop the flood primitives run. The choice is invisible to
/// every gated metric — only wall-clock moves (the `flood` module docs
/// give the equivalence argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodKernel {
    /// Engine-stepped reference loop (heap outboxes, per-link queues, the
    /// engine's transit heap for stretched hops).
    Scalar,
    /// Bit-parallel loop (u64 frontier words, direct delivery, stretched
    /// hops parked in a [`CalendarRing`], rounds charged in bulk via
    /// `Network::charge_flood_round`).
    Bitset,
}

impl FloodKernel {
    /// Parses a knob value (`"scalar"` / `"bitset"`, case-insensitive).
    pub fn parse(s: &str) -> Option<FloodKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(FloodKernel::Scalar),
            "bitset" => Some(FloodKernel::Bitset),
            _ => None,
        }
    }

    /// The knob spelling of this kernel (what run records stamp).
    pub fn name(self) -> &'static str {
        match self {
            FloodKernel::Scalar => "scalar",
            FloodKernel::Bitset => "bitset",
        }
    }
}

/// Process-wide override set by [`set_flood_kernel`]; `0` = unset,
/// `1` = scalar, `2` = bitset.
static FLOOD_KERNEL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the flood kernel for the whole process. Bench bins call this
/// when given a `--flood-kernel=NAME` flag; it wins over
/// `MWC_FLOOD_KERNEL`.
pub fn set_flood_kernel(k: FloodKernel) {
    let v = match k {
        FloodKernel::Scalar => 1,
        FloodKernel::Bitset => 2,
    };
    FLOOD_KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The effective flood kernel: [`set_flood_kernel`] override, else
/// `MWC_FLOOD_KERNEL`, else [`FloodKernel::Bitset`] (unrecognized values
/// fall through to the default, the lenient env-knob convention).
pub fn flood_kernel() -> FloodKernel {
    match FLOOD_KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        1 => return FloodKernel::Scalar,
        2 => return FloodKernel::Bitset,
        _ => {}
    }
    std::env::var("MWC_FLOOD_KERNEL")
        .ok()
        .as_deref()
        .and_then(FloodKernel::parse)
        .unwrap_or(FloodKernel::Bitset)
}

/// Process-cumulative count of floods dispatched to the bitset kernel.
static FLOODS_BITSET: AtomicU64 = AtomicU64::new(0);
/// Process-cumulative count of floods dispatched to the scalar reference.
static FLOODS_SCALAR: AtomicU64 = AtomicU64::new(0);

/// Process-cumulative kernel engagement: how many floods (one
/// [`crate::multi_source_bfs`] or [`crate::source_detection`] call each)
/// dispatched to the bitset kernel vs. the scalar reference, as
/// `(bitset, scalar)`. The scalar count moves only under
/// `MWC_FLOOD_KERNEL=scalar` (or [`set_flood_kernel`]). Bench bins snapshot this at run start and stamp the
/// delta on the run record as the informational `floods_bitset` /
/// `floods_scalar` fields.
pub fn flood_engagement() -> (u64, u64) {
    (
        FLOODS_BITSET.load(Ordering::Relaxed),
        FLOODS_SCALAR.load(Ordering::Relaxed),
    )
}

/// Tallies one flood dispatch for [`flood_engagement`].
pub(crate) fn note_flood_engagement(bitset: bool) {
    let ctr = if bitset {
        &FLOODS_BITSET
    } else {
        &FLOODS_SCALAR
    };
    ctr.fetch_add(1, Ordering::Relaxed);
}

/// Per traversal edge, everything a flood's inner loop needs: the link to
/// occupy, the receiving node, the announced distance increment, and the
/// extra delivery latency. Distance and travel time are decoupled so
/// zero-weight edges (the paper allows `w = 0`) stay exact: they add 0 to
/// the distance but still take one round to cross.
#[derive(Clone, Copy, Debug)]
pub struct FloodHop {
    /// Link id ([`Network::link_id`]) the announcement occupies.
    pub link: u32,
    /// The node at the receiving end of the link.
    pub to: u32,
    /// Announced distance increment (may be 0 for zero-weight edges).
    pub dist_add: Weight,
    /// Extra delivery latency in rounds: `stretch − 1`, where the stretch
    /// of an edge is `max(weight, 1)` — even a zero-weight edge takes one
    /// round to cross, so `latency == 0` means unit travel time.
    pub latency: u64,
}

/// Precomputed CSR over a graph's traversal edges. Resolving link ids,
/// receiver nodes, and latency-table entries once up front keeps the
/// per-announcement loops free of adjacency searches — it matters at
/// millions of announcements per run. Built per flood (direction and
/// latency table are parameters); shared by the flood primitives here and
/// the restricted-BFS phase loop in `mwc-core`.
pub struct FloodPlan {
    /// CSR offsets: node `v`'s hops are `hops[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    /// One [`FloodHop`] per traversal edge, grouped by sending node.
    hops: Vec<FloodHop>,
    /// Largest hop latency — 0 means every edge crosses in one round and
    /// the flood never parks anything in a [`CalendarRing`].
    max_latency: u64,
}

impl FloodPlan {
    /// Distance contribution of an edge (the *announced* weight — may be
    /// 0). `None` means all-unit (plain BFS).
    pub(crate) fn dist_add(latency: Option<&[Weight]>, edge: usize) -> Weight {
        latency.map_or(1, |l| l[edge])
    }

    /// Travel time of an edge in rounds (≥ 1: even a zero-weight edge
    /// takes a round to cross).
    pub(crate) fn stretch(latency: Option<&[Weight]>, edge: usize) -> Weight {
        latency.map_or(1, |l| l[edge].max(1))
    }

    /// Builds the plan for `direction`-traversal of `g` with the given
    /// per-edge latency table (`None` = all-unit). The network is only
    /// consulted for link ids, so any message type works.
    ///
    /// # Panics
    ///
    /// Panics if a traversal edge is not a communication link of `net`,
    /// or if the edge count does not fit `u32`.
    pub fn build<M>(
        g: &Graph,
        net: &Network<M>,
        direction: Direction,
        latency: Option<&[Weight]>,
    ) -> FloodPlan {
        let n = g.n();
        let mut start = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        let mut max_latency = 0;
        start.push(0);
        for v in 0..n {
            for a in direction.adj(g, v) {
                let l = net
                    .link_id(v, a.to)
                    .expect("traversal edges are communication links");
                let lat = Self::stretch(latency, a.edge) - 1;
                max_latency = max_latency.max(lat);
                hops.push(FloodHop {
                    link: l as u32,
                    to: a.to as u32,
                    dist_add: Self::dist_add(latency, a.edge),
                    latency: lat,
                });
            }
            start.push(u32::try_from(hops.len()).expect("edge count fits u32"));
        }
        FloodPlan {
            start,
            hops,
            max_latency,
        }
    }

    /// Node `v`'s outgoing traversal hops.
    pub fn of(&self, v: NodeId) -> &[FloodHop] {
        &self.hops[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// Largest hop latency in the plan.
    pub fn max_latency(&self) -> u64 {
        self.max_latency
    }

    /// The [`CalendarRing`] a flood over this plan with distance budget
    /// `max_dist` parks its sends in, sized for the slowest hop that can
    /// actually send: a sent announcement `d + dist_add` stays within
    /// `max_dist`, and the hop's latency is `max(dist_add, 1) − 1`, so no
    /// send is parked more than `max_dist − 1` rounds ahead, whatever
    /// [`FloodPlan::max_latency`] says. Capping the window there leaves
    /// the schedule unchanged and allocates at most `max_dist + 1`
    /// buckets.
    pub(crate) fn calendar<T: Ord>(&self, max_dist: Weight) -> CalendarRing<T> {
        CalendarRing::new(self.max_latency.min(max_dist))
    }
}

/// Most buckets a [`CalendarRing`] allocates: a latency table whose
/// largest stretch exceeds this still runs on the ring, with the furthest
/// arrivals waiting in the overflow level until the window reaches them.
/// 65 536 buckets ≈ 1.5 MiB of empty `Vec` headers, well above the
/// latencies of every workload in the repo.
const RING_SPAN: u64 = 1 << 16;

/// A calendar queue over flood arrival rounds: a ring of `window`
/// buckets, one per pending arrival round, indexed by `arrival % window`,
/// plus an overflow min-heap for arrivals beyond the window. The bitset
/// flood kernel parks a latency-`ℓ` send `ℓ` rounds ahead of the round
/// being charged and drains exactly one round per charged round —
/// replacing the scalar engine's global transit `BinaryHeap` with O(1)
/// insert and pop for every arrival the window covers.
///
/// The window covers rounds `[base, base + window)`, where `base` is the
/// earliest undrained round. While the ring is sized for the slowest
/// send (`window = max_latency + 1`, where `max_latency` bounds every
/// parked latency: the flood kernel passes the slowest hop its budget
/// lets send), every send lands inside it: a send
/// charged at round `R = base` arrives in `[R + 1, R + max_latency]`, and
/// the arrivals still pending lie in `[R, R + max_latency]`, so arrivals
/// map injectively onto buckets and the bucket for round `R` holds
/// *exactly* the round-`R` arrivals. When `max_latency + 1` exceeds
/// `RING_SPAN`, sends beyond the window wait in the overflow heap,
/// keyed by `(arrival, send sequence)`, and move into their bucket as
/// soon as a drain brings their round into the window — before any
/// direct push to that bucket can happen, since a direct push needs the
/// same window.
///
/// Order fidelity: the scalar transit heap pops by `(arrival round,
/// global send sequence)`. Items are pushed in send order and rounds are
/// drained in increasing order; an overflowed arrival was sent before
/// every direct push to its round, and the overflow heap releases a
/// round's arrivals in send order, so each bucket's contents are in
/// send-sequence order and a per-round drain replays the heap's pop order
/// exactly. [`CalendarRing::next_arrival`] is the bulk analogue of the
/// engine's quiet-round fast-forward: it finds the earliest pending
/// arrival (scanning at most one window, then the overflow heap) so
/// fully-quiet gaps are skipped without charging rounds.
#[derive(Clone, Debug)]
pub struct CalendarRing<T> {
    /// `buckets[a % buckets.len()]` holds the pending round-`a` arrivals
    /// in send order, tagged with `a` to assert the window invariant.
    /// Empty for a latency-0 ring, which never parks anything.
    buckets: Vec<Vec<(u64, T)>>,
    /// Pending arrivals across all buckets.
    len: usize,
    /// Earliest undrained round: the window is `[base, base + window)`.
    base: u64,
    /// Arrivals beyond the window as `(arrival, seq, item)`, earliest
    /// `(arrival, seq)` on top (`seq` is unique, so `item` never breaks a
    /// tie).
    overflow: BinaryHeap<Reverse<(u64, u64, T)>>,
    /// Send sequence number of the next overflowed arrival.
    seq: u64,
}

impl<T: Ord> CalendarRing<T> {
    /// A ring sized for arrival latencies up to `max_latency`: a window
    /// of `min(max_latency + 1, RING_SPAN)` buckets (a latency-1 send
    /// charged at round `R` arrives at `R + 1`, the furthest at
    /// `R + max_latency`). A latency-0 ring allocates nothing. Arrivals
    /// beyond the window are still accepted; they wait in the overflow
    /// level. Rounds start at 1, the first round a flood can charge.
    pub fn new(max_latency: u64) -> CalendarRing<T> {
        let window = if max_latency == 0 {
            0
        } else {
            max_latency.saturating_add(1).min(RING_SPAN)
        };
        CalendarRing {
            buckets: (0..window).map(|_| Vec::new()).collect(),
            len: 0,
            base: 1,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Parks `item` for delivery at round `arrival`, which must not be a
    /// drained round.
    pub fn push(&mut self, arrival: u64, item: T) {
        debug_assert!(arrival >= self.base, "arrival {arrival} already drained");
        let window = self.buckets.len() as u64;
        if arrival - self.base < window {
            self.buckets[(arrival % window) as usize].push((arrival, item));
            self.len += 1;
        } else {
            self.overflow.push(Reverse((arrival, self.seq, item)));
            self.seq += 1;
        }
    }

    /// Drains the round-`round` arrivals into `out` in send order —
    /// exactly what the scalar transit heap would pop while expiring
    /// round `round`. Rounds drain in increasing order, and every round
    /// skipped since the last drain must hold no arrival (the caller
    /// reaches `round` by [`CalendarRing::next_arrival`]).
    pub fn drain_round_into(&mut self, round: u64, out: &mut Vec<T>) {
        debug_assert!(round >= self.base, "rounds drain in increasing order");
        // Overflowed round-`round` arrivals exist only when `round` was
        // beyond the window at the last drain — so its bucket is empty.
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse((a, ..))| *a <= round)
        {
            let Reverse((arrival, _, item)) = self.overflow.pop().expect("peeked");
            debug_assert_eq!(arrival, round, "skipped a pending arrival");
            out.push(item);
        }
        let window = self.buckets.len() as u64;
        if self.len > 0 {
            let b = &mut self.buckets[(round % window) as usize];
            self.len -= b.len();
            for (arrival, item) in b.drain(..) {
                debug_assert_eq!(arrival, round, "calendar window invariant violated");
                out.push(item);
            }
        }
        self.base = round + 1;
        // Promote the overflow the window now covers, in `(arrival, seq)`
        // order, before any direct push to those buckets can happen.
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse((a, ..))| a - self.base < window)
        {
            let Reverse((arrival, _, item)) = self.overflow.pop().expect("peeked");
            self.buckets[(arrival % window) as usize].push((arrival, item));
            self.len += 1;
        }
    }

    /// The earliest pending arrival, or `None` when the ring is empty —
    /// the bitset kernel's quiet-round fast-forward (the gap jump of
    /// `Network::step` in the scalar path). Bucketed arrivals
    /// all precede the overflow, so this scans at most one window before
    /// consulting the heap.
    pub fn next_arrival(&self) -> Option<u64> {
        let window = self.buckets.len() as u64;
        let bucketed = if self.len > 0 {
            (self.base..self.base + window)
                .find(|r| !self.buckets[(r % window) as usize].is_empty())
        } else {
            None
        };
        bucketed.or_else(|| self.overflow.peek().map(|Reverse((a, ..))| *a))
    }

    /// `true` when no arrival is pending — the bitset kernel's
    /// `Network::is_idle` analogue.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.overflow.is_empty()
    }

    /// Number of pending arrivals (the scalar path's in-flight transit
    /// occupancy).
    pub fn len(&self) -> usize {
        self.len + self.overflow.len()
    }
}

/// Validates a flood's source list against the documented panic contract,
/// shared by [`crate::multi_source_bfs`] and [`crate::source_detection`].
///
/// # Panics
///
/// Panics if a source id is out of range or repeated.
pub(crate) fn validate_sources(n: usize, sources: &[NodeId]) {
    let mut seen = vec![false; n];
    for &s in sources {
        assert!(s < n, "source {s} out of range for {n} nodes");
        assert!(!seen[s], "source {s} repeated");
        seen[s] = true;
    }
}

/// A node's flood frontier as distance-bucketed u64 bitset words: entry
/// `(d, w, bits)` holds the fresh announcements at distance `d` for source
/// rows `64w .. 64w + 63` (bit `i` ⇔ row `64w + i`). Entries are sorted by
/// `(d, w)` and never empty, so the minimum announcement is the lowest set
/// bit of the first entry — `(d, row)` heap order by construction — and
/// one AND-NOT retires any of a word's 64 rows. Unlike the scalar heap,
/// the frontier is maintained eagerly: improvements and top-σ evictions
/// *clear bits* instead of leaving stale entries to skip at pop time,
/// which is what makes pops unconditional (always fresh) in the bitset
/// kernel's inner loop.
///
/// Insertion is *tail-append* first: an announcement almost always lands
/// at or past the frontier's last entry (a wave reaches a node at
/// nondecreasing distances, and rows arrive in the order the neighbors
/// forward them), so [`BitFrontier::insert`] ORs into the last entry when
/// `(d, w)` equals it and pushes when it is greater, and only falls back
/// to a binary search and a shifting insert otherwise.
///
/// What the scalar heap's stale entries still decide — the re-pend test —
/// the kernel tracks as a one-word *ghost* beside each frontier (see
/// `multibfs`'s `Frontiers`): the largest retired announcement the scalar
/// heap would still hold.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitFrontier {
    /// Sorted, deduplicated by `(dist, word)`; every `bits` is nonzero.
    entries: Vec<(Weight, u32, u64)>,
}

impl BitFrontier {
    /// Marks source row `row` fresh at distance `d` (idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, d: Weight, row: u32) {
        let (w, bit) = (row / 64, 1u64 << (row % 64));
        match self.entries.last_mut() {
            Some(last) if (last.0, last.1) == (d, w) => {
                last.2 |= bit;
                return;
            }
            Some(last) if (last.0, last.1) > (d, w) => {}
            _ => {
                self.entries.push((d, w, bit));
                return;
            }
        }
        match self.entries.binary_search_by_key(&(d, w), |e| (e.0, e.1)) {
            Ok(i) => self.entries[i].2 |= bit,
            Err(i) => self.entries.insert(i, (d, w, bit)),
        }
    }

    /// Clears row `row` at distance `d` if present (tolerant: the row may
    /// already have been popped and forwarded). Returns whether the bit
    /// was present — the caller ghosts removed bits, and an
    /// already-forwarded row has no scalar heap entry to ghost.
    pub(crate) fn remove(&mut self, d: Weight, row: u32) -> bool {
        let (w, bit) = (row / 64, 1u64 << (row % 64));
        if let Ok(i) = self.entries.binary_search_by_key(&(d, w), |e| (e.0, e.1)) {
            if self.entries[i].2 & bit != 0 {
                self.entries[i].2 &= !bit;
                if self.entries[i].2 == 0 {
                    self.entries.remove(i);
                }
                return true;
            }
        }
        false
    }

    /// Pops the minimum announcement in `(distance, source row)` order.
    pub(crate) fn pop_min(&mut self) -> Option<(Weight, u32)> {
        let &mut (d, w, ref mut bits) = self.entries.first_mut()?;
        let tz = bits.trailing_zeros();
        *bits &= *bits - 1; // clear the lowest set bit
        if *bits == 0 {
            self.entries.remove(0);
        }
        Some((d, w * 64 + tz))
    }

    /// `true` when no fresh announcement is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_frontier_pops_in_dist_then_row_order() {
        let mut f = BitFrontier::default();
        for (d, row) in [(3, 7), (1, 200), (1, 3), (3, 6), (2, 0), (1, 64)] {
            f.insert(d, row);
        }
        let mut got = Vec::new();
        while let Some(p) = f.pop_min() {
            got.push(p);
        }
        assert_eq!(got, vec![(1, 3), (1, 64), (1, 200), (2, 0), (3, 6), (3, 7)]);
        assert!(f.is_empty());
    }

    #[test]
    fn bit_frontier_insert_is_idempotent_and_remove_is_tolerant() {
        let mut f = BitFrontier::default();
        f.insert(5, 10);
        f.insert(5, 10);
        f.remove(5, 11); // absent row in a present word
        f.remove(4, 10); // absent word
        assert_eq!(f.pop_min(), Some((5, 10)));
        assert_eq!(f.pop_min(), None);
    }

    #[test]
    fn bit_frontier_remove_retires_moved_announcements() {
        let mut f = BitFrontier::default();
        f.insert(9, 65);
        f.insert(9, 66);
        // Row 65 improves to 4: the eager move of the bitset kernel.
        f.remove(9, 65);
        f.insert(4, 65);
        assert_eq!(f.pop_min(), Some((4, 65)));
        assert_eq!(f.pop_min(), Some((9, 66)));
        assert!(f.is_empty());
    }

    #[test]
    fn bit_frontier_remove_reports_presence() {
        let mut f = BitFrontier::default();
        f.insert(5, 10);
        assert!(f.remove(5, 10));
        assert!(!f.remove(5, 10), "second removal finds nothing");
        assert!(!f.remove(7, 3), "absent word finds nothing");
        assert!(f.is_empty());
    }

    #[test]
    fn bit_frontier_tail_append_keeps_pop_order() {
        let mut f = BitFrontier::default();
        // Equal to the tail (OR), past it (push), and before it (search).
        for (d, row) in [(2, 1), (2, 5), (2, 70), (3, 0), (1, 9), (2, 64), (3, 0)] {
            f.insert(d, row);
        }
        assert_eq!(f.entries.len(), 4, "(1,0) (2,0) (2,1) (3,0)");
        let mut got = Vec::new();
        while let Some(p) = f.pop_min() {
            got.push(p);
        }
        assert_eq!(got, vec![(1, 9), (2, 1), (2, 5), (2, 64), (2, 70), (3, 0)]);
    }

    #[test]
    fn flood_ring_is_capped_at_the_budget() {
        // Stretches of 400 and 7 000 rounds, far beyond a budget of 25:
        // no hop that slow can send, so the ring stops at budget + 1.
        let g = Graph::from_edges(
            3,
            mwc_graph::Orientation::Directed,
            [(0, 1, 400), (1, 2, 7_000), (2, 0, 3)],
        )
        .unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let net: Network<()> = Network::new(&g);
        let plan = FloodPlan::build(&g, &net, Direction::Forward, Some(&lat));
        assert_eq!(plan.max_latency(), 6_999);
        for budget in [0, 1, 25, 399] {
            let ring: CalendarRing<u32> = plan.calendar(budget);
            assert!(
                ring.buckets.len() as u64 <= budget + 1,
                "budget {budget}: {} buckets",
                ring.buckets.len()
            );
        }
        // An unbounded flood still gets the plan's full window.
        assert_eq!(plan.calendar::<u32>(u64::MAX).buckets.len(), 7_000);
    }

    #[test]
    fn ring_window_is_capped_and_free_at_latency_zero() {
        // A unit-latency flood never parks anything: no buckets at all.
        let unit: CalendarRing<u32> = CalendarRing::new(0);
        assert_eq!(unit.buckets.capacity(), 0);
        assert_eq!(unit.next_arrival(), None);
        assert_eq!(CalendarRing::<u32>::new(9).buckets.len(), 10);
        // Any latency table fits: the window stops at the span and the
        // rest waits in the overflow level.
        let mut wide: CalendarRing<u32> = CalendarRing::new(u64::MAX);
        assert_eq!(wide.buckets.len() as u64, RING_SPAN);
        wide.push(1 + 3 * RING_SPAN, 7);
        wide.push(2, 5);
        assert_eq!((wide.len(), wide.overflow.len()), (2, 1));
        assert_eq!(wide.next_arrival(), Some(2));
        let mut out = Vec::new();
        wide.drain_round_into(2, &mut out);
        assert_eq!(wide.next_arrival(), Some(1 + 3 * RING_SPAN));
        wide.drain_round_into(1 + 3 * RING_SPAN, &mut out);
        assert_eq!(out, vec![5, 7]);
        assert!(wide.is_empty());
    }

    #[test]
    fn kernel_parse_and_names_round_trip() {
        assert_eq!(FloodKernel::parse("scalar"), Some(FloodKernel::Scalar));
        assert_eq!(FloodKernel::parse(" BitSet "), Some(FloodKernel::Bitset));
        assert_eq!(FloodKernel::parse("simd"), None);
        assert_eq!(
            FloodKernel::parse(FloodKernel::Scalar.name()),
            Some(FloodKernel::Scalar)
        );
        assert_eq!(
            FloodKernel::parse(FloodKernel::Bitset.name()),
            Some(FloodKernel::Bitset)
        );
    }

    #[test]
    #[should_panic(expected = "source 3 repeated")]
    fn validate_sources_rejects_duplicates() {
        validate_sources(5, &[1, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validate_sources_rejects_out_of_range() {
        validate_sources(5, &[5]);
    }
}
