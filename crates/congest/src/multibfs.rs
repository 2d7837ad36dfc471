//! Pipelined multi-source BFS and source detection, after Lenzen,
//! Patt-Shamir & Peleg \[37\] (the paper's reference for `O(h + k)`-round
//! `k`-source `h`-hop BFS and `(S, h, σ)` source detection).
//!
//! Both primitives use the classic pipelining schedule: every node keeps a
//! priority queue of announcements `(distance, source)` and, each round,
//! forwards the smallest fresh one over all of its traversal-direction
//! links. With unit latencies this completes `k`-source `h`-hop BFS in
//! `O(h + k)` rounds; the tests assert that envelope empirically.
//!
//! Announcements can also travel with **per-edge latencies** (the scaled /
//! stretched graphs of paper §4–5): an edge of stretch `ℓ` delays delivery
//! by `ℓ` rounds and adds `ℓ` to the announced distance, which is exactly a
//! BFS on the stretched graph where each weighted edge becomes a path of
//! `ℓ` unit edges simulated at its endpoint.
//!
//! Each primitive has two interchangeable inner loops selected by
//! [`crate::flood::flood_kernel`]: the engine-stepped **scalar** reference
//! and the bit-parallel **bitset** kernel (u64 frontier words, direct
//! delivery, stretched hops parked in a
//! [`CalendarRing`](crate::flood::CalendarRing) of arrival-round buckets,
//! rounds charged via `Network::charge_flood_round`). Both primitives share
//! one bitset loop, [`ring_kernel`], at every latency; each supplies only
//! its admit step and its round rule ([`FloodRule`]). The bitset kernel is
//! byte-identical to the scalar one in every ledger count, event, and
//! output — see the [`crate::flood`] module docs for the equivalence
//! argument.

use crate::distmat::{DistMatrix, INF};
use crate::engine::{Network, RoundOutput};
use crate::flood::{
    flood_kernel, note_flood_engagement, validate_sources, BitFrontier, CalendarRing, FloodKernel,
    FloodPlan,
};
use crate::ledger::Ledger;
use mwc_graph::seq::Direction;
use mwc_graph::{Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Parameters of a multi-source search.
#[derive(Clone, Copy, Debug)]
pub struct MultiBfsSpec<'a> {
    /// Distance budget: announcements above this are not forwarded. For
    /// unit latencies this is the *hop* budget `h`; with latencies it is a
    /// stretched-distance budget. Use [`INF`] for an unbounded search.
    pub max_dist: Weight,
    /// Traversal direction over the (possibly directed) graph edges.
    pub direction: Direction,
    /// Per-[`EdgeId`](mwc_graph::EdgeId) stretch `ℓ(e) ≥ 1`; `None` means
    /// all-unit (plain BFS).
    pub latency: Option<&'a [Weight]>,
}

impl Default for MultiBfsSpec<'_> {
    fn default() -> Self {
        MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: None,
        }
    }
}

/// A BFS announcement: `(source row, distance at the receiver)`.
type Announce = (u32, Weight);

/// Adds an edge's announced weight to a distance, panicking when the sum
/// saturates into the [`INF`] sentinel: a genuine huge distance aliasing
/// to "unreachable" would silently flip the reachable-vs-unreachable
/// distinction for every `DistMatrix` / detection consumer, so it is a
/// contract violation rather than a value. (Real distances are bounded by
/// `n · max latency`, so this fires only on pathological latency tables.)
fn add_dist(d: Weight, add: Weight) -> Weight {
    match d.checked_add(add) {
        Some(c) if c < INF => c,
        _ => panic!("flood distance {d} + {add} saturates into the INF sentinel"),
    }
}

/// Runs a pipelined `h`-bounded search from `sources` and returns the
/// distance table. Costs `O(max_dist + k)` rounds for unit latencies,
/// charged to `ledger` under `label`.
///
/// # Panics
///
/// Panics if a source id is out of range or repeated, if `spec.latency`
/// is provided with fewer entries than the graph has edges, or if an
/// announced distance would saturate into the [`INF`] sentinel.
pub fn multi_source_bfs(
    g: &Graph,
    sources: &[NodeId],
    spec: &MultiBfsSpec<'_>,
    label: &str,
    ledger: &mut Ledger,
) -> DistMatrix {
    if let Some(l) = spec.latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("multibfs/{label}"));
    let n = g.n();
    let mut mat = DistMatrix::new(n, sources.to_vec());
    let mut net: Network<Announce> = Network::new_auto(g);
    let plan = FloodPlan::build(g, &net, spec.direction, spec.latency);

    let bitset = flood_kernel() == FloodKernel::Bitset;
    note_flood_engagement(bitset);
    if bitset {
        ring_kernel(n, sources, spec.max_dist, &plan, &mut net, &mut mat);
    } else {
        bfs_kernel_scalar(n, sources, spec.max_dist, &plan, &mut net, &mut mat);
    }

    ledger.absorb(label, &net);
    mwc_trace::check_bound(
        "congest/multibfs",
        mwc_trace::BoundInputs::n(n)
            .h(crate::bounds::effective_hops(
                n,
                spec.max_dist,
                spec.latency,
                g.m(),
            ))
            .k(sources.len() as u64),
        net.round(),
        crate::bounds::multibfs,
    );
    mat
}

/// The engine-stepped scalar BFS loop: heap outboxes with lazy
/// stale-skipping, every announcement moved through the [`Network`]'s
/// per-link queues (and, for stretched edges, its transit heap). The
/// reference semantics the bitset kernel must replicate byte-for-byte.
fn bfs_kernel_scalar(
    n: usize,
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    mat: &mut DistMatrix,
) {
    // outbox[v]: fresh announcements not yet forwarded, smallest first.
    let mut outbox: Vec<BinaryHeap<Reverse<Announce2>>> =
        (0..n).map(|_| BinaryHeap::new()).collect();
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];

    for (row, &s) in sources.iter().enumerate() {
        mat.set_row(row, s, 0, None);
        outbox[s].push(Reverse((0, row as u32)));
        if !pending_flag[s] {
            pending_flag[s] = true;
            pending.push(s);
        }
    }

    let mut out = RoundOutput::default();
    loop {
        // Node actions for this round: each pending node forwards its
        // smallest fresh announcement over every traversal link.
        let acting = std::mem::take(&mut pending);
        let mut any_sent = false;
        for v in acting {
            pending_flag[v] = false;
            // Pop entries until one is fresh (stale = improved since push).
            let fresh = loop {
                match outbox[v].pop() {
                    Some(Reverse((d, row))) => {
                        if mat.get_row(row as usize, v) == d {
                            break Some((d, row));
                        }
                    }
                    None => break None,
                }
            };
            let Some((d, row)) = fresh else { continue };
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                // Receiver-side pruning happens on delivery; sender-side we
                // also skip if the receiver is already known (to the
                // sender) to be closer — we cannot know that locally, so
                // no such check: CONGEST nodes only know their own state.
                any_sent = true;
                net.send_on_link(hop.link as usize, (row, cand), 1, hop.latency);
            }
            if !outbox[v].is_empty() && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if !any_sent {
            if !pending.is_empty() {
                // Entirely-filtered pops: keep draining outboxes locally
                // without charging rounds (nothing was transmitted).
                continue;
            }
            if net.is_idle() {
                break;
            }
        }
        let stepped = if any_sent {
            net.step_into(&mut out);
            true
        } else {
            net.step_fast_into(&mut out)
        };
        if !stepped {
            break;
        }
        for d in out.deliveries.drain(..) {
            let (row, cand) = d.payload;
            let v = d.to;
            if cand < mat.get_row(row as usize, v) {
                mat.set_row(row as usize, v, cand, Some(d.from));
                outbox[v].push(Reverse((cand, row)));
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// `(dist, src)` ordering helper — distance first, then source row for a
/// deterministic tiebreak.
type Announce2 = (Weight, u32);

/// Result of [`source_detection`]: for each node, its detected sources as
/// `(distance, source)` pairs sorted lexicographically — the `σ` closest
/// sources within distance `h`, ties broken by source id.
pub type DetectionLists = Vec<Vec<(Weight, NodeId)>>;

/// Output of [`source_detection`]: the per-node top-`σ` lists plus
/// predecessor bookkeeping for witness-path reconstruction.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Per node, the detected `(distance, source)` pairs (≤ `σ`, sorted).
    pub lists: DetectionLists,
    /// Per node, every source ever admitted with its best `(dist, pred)`
    /// (the neighbor the announcement arrived from).
    best: Vec<HashMap<NodeId, (Weight, NodeId)>>,
}

impl Detection {
    /// Best-known distance from `src` to `node`, if any announcement for
    /// `src` ever reached `node` (superset of the truncated lists).
    pub fn dist(&self, node: NodeId, src: NodeId) -> Option<Weight> {
        self.best[node].get(&src).map(|&(d, _)| d)
    }

    /// The first hop of [`Detection::path_to_source`] without walking or
    /// allocating the path: the neighbor `node`'s best announcement for
    /// `src` arrived from (`node` itself when `node == src`, mirroring the
    /// self-admission's predecessor). Predecessor chains always close —
    /// a sender admits its own entry before announcing, entries are never
    /// removed, and admission times strictly decrease along a chain — so
    /// this equals `path_to_source(node, src)?[1]` whenever that path has
    /// a second vertex.
    pub fn pred(&self, node: NodeId, src: NodeId) -> Option<NodeId> {
        self.best[node].get(&src).map(|&(_, p)| p)
    }

    /// The discovered path `node → … → src` following predecessor
    /// pointers (real graph edges). `None` if `src` never reached `node`.
    pub fn path_to_source(&self, node: NodeId, src: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![node];
        let mut cur = node;
        while cur != src {
            let &(_, pred) = self.best[cur].get(&src)?;
            cur = pred;
            path.push(cur);
            if path.len() > self.best.len() {
                return None;
            }
        }
        Some(path)
    }
}

/// Per-node detection state shared by both kernels: current best
/// `(distance, pred)` per source row and the top-`σ` set the truncation
/// discipline maintains. Stored flat — a `(dist, pred)` matrix with an
/// [`INF`] absent-sentinel and per-node sorted vectors of at most `σ`
/// entries — so the admit fast path is an array index plus a short
/// binary search instead of hash-map and B-tree traffic.
struct DetectState {
    rows: usize,
    best: Vec<(Weight, NodeId)>,
    top: Vec<Vec<(Weight, u32)>>,
    sigma: usize,
}

impl DetectState {
    fn new(n: usize, rows: usize, sigma: usize) -> DetectState {
        DetectState {
            rows,
            best: vec![(INF, NodeId::MAX); n * rows],
            top: (0..n).map(|_| Vec::with_capacity(sigma + 1)).collect(),
            sigma,
        }
    }

    /// Best-known distance of `row`'s source at `v` ([`INF`] when no
    /// announcement was ever admitted).
    fn best_dist(&self, v: NodeId, row: u32) -> Weight {
        self.best[v * self.rows + row as usize].0
    }

    /// Whether `entry` is currently in `v`'s top-`σ` set.
    fn in_top(&self, v: NodeId, entry: (Weight, u32)) -> bool {
        self.top[v].binary_search(&entry).is_ok()
    }
}

/// `(S, h, σ)` source detection \[37\]: every node learns the `σ`
/// lexicographically-smallest `(distance, source)` pairs among sources
/// within distance `h`. Costs `O(h + σ)` rounds for unit latencies.
///
/// Nodes only store and forward their current top-`σ` lists, so the
/// per-node memory and traffic stay proportional to `σ` — this is what
/// makes the girth algorithm's `√n`-neighborhood computation affordable
/// (paper §4). With `latency` set, distances are measured in the
/// stretched metric (paper §4's stretched graphs).
///
/// # Panics
///
/// Panics if a source id is out of range or repeated, if `latency` is
/// provided with fewer entries than the graph has edges, or if an
/// announced distance would saturate into the [`INF`] sentinel.
#[allow(clippy::too_many_arguments)] // mirrors the primitive's full (S, h, σ) signature
pub fn source_detection(
    g: &Graph,
    sources: &[NodeId],
    h: Weight,
    sigma: usize,
    direction: Direction,
    latency: Option<&[Weight]>,
    label: &str,
    ledger: &mut Ledger,
) -> Detection {
    if let Some(l) = latency {
        assert!(l.len() >= g.m(), "latency table must cover all edges");
    }
    validate_sources(g.n(), sources);
    let _span = mwc_trace::span_owned(|| format!("detect/{label}"));
    let n = g.n();
    let mut net: Network<(u32, Weight)> = Network::new_auto(g);
    let plan = FloodPlan::build(g, &net, direction, latency);

    // Sort sources so "source row" order matches id order (consistent
    // tie-breaking is what makes truncated detection exact).
    let mut srcs: Vec<NodeId> = sources.to_vec();
    srcs.sort_unstable();

    let mut state = DetectState::new(n, srcs.len(), sigma);
    let bitset = flood_kernel() == FloodKernel::Bitset;
    note_flood_engagement(bitset);
    if bitset {
        ring_kernel(n, &srcs, h, &plan, &mut net, &mut state);
    } else {
        detect_kernel_scalar(n, &srcs, h, &plan, &mut net, &mut state);
    }
    ledger.absorb(label, &net);
    mwc_trace::check_bound(
        "congest/source_detection",
        mwc_trace::BoundInputs::n(n)
            .h(crate::bounds::effective_hops(n, h, latency, g.m()))
            .k(sigma.min(srcs.len()) as u64),
        net.round(),
        crate::bounds::source_detection,
    );

    let lists: DetectionLists = (0..n)
        .map(|v| {
            state.top[v]
                .iter()
                .map(|&(d, row)| (d, srcs[row as usize]))
                .collect()
        })
        .collect();
    let best_by_id: Vec<HashMap<NodeId, (Weight, NodeId)>> = (0..n)
        .map(|v| {
            (0..srcs.len())
                .filter_map(|row| {
                    let dp = state.best[v * srcs.len() + row];
                    (dp.0 != INF).then_some((srcs[row], dp))
                })
                .collect()
        })
        .collect();
    Detection {
        lists,
        best: best_by_id,
    }
}

/// The engine-stepped scalar detection loop (reference semantics). Heap
/// outboxes hold entries that may go stale — superseded by a closer
/// announcement or evicted from the top-`σ` set — and are skipped lazily
/// at pop time.
fn detect_kernel_scalar(
    n: usize,
    srcs: &[NodeId],
    h: Weight,
    plan: &FloodPlan,
    net: &mut Network<(u32, Weight)>,
    state: &mut DetectState,
) {
    let mut outbox: Vec<BinaryHeap<Reverse<(Weight, u32)>>> =
        (0..n).map(|_| BinaryHeap::new()).collect();
    let mut pending: Vec<NodeId> = Vec::new();
    let mut pending_flag = vec![false; n];

    for (row, &s) in srcs.iter().enumerate() {
        if state.admit(s, row as u32, 0, None, |_, _| {}) {
            outbox[s].push(Reverse((0, row as u32)));
            if !pending_flag[s] {
                pending_flag[s] = true;
                pending.push(s);
            }
        }
    }

    let mut out = RoundOutput::default();
    loop {
        let acting = std::mem::take(&mut pending);
        let mut any_action = false;
        for v in acting {
            pending_flag[v] = false;
            let fresh = loop {
                match outbox[v].pop() {
                    Some(Reverse((d, row))) => {
                        // Fresh = still our best and still within top-σ.
                        if state.best_dist(v, row) == d && state.in_top(v, (d, row)) {
                            break Some((d, row));
                        }
                    }
                    None => break None,
                }
            };
            let Some((d, row)) = fresh else { continue };
            any_action = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > h {
                    continue;
                }
                net.send_on_link(hop.link as usize, (row, cand), 1, hop.latency);
            }
            if !outbox[v].is_empty() && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if !any_action && net.is_idle() {
            break;
        }
        let stepped = if any_action {
            net.step_into(&mut out);
            true
        } else {
            net.step_fast_into(&mut out)
        };
        if !stepped {
            break;
        }
        for dmsg in out.deliveries.drain(..) {
            let (row, cand) = dmsg.payload;
            let v = dmsg.to;
            if state.admit(v, row, cand, Some(dmsg.from), |_, _| {}) {
                outbox[v].push(Reverse((cand, row)));
                if !pending_flag[v] {
                    pending_flag[v] = true;
                    pending.push(v);
                }
            }
        }
    }
}

/// An in-flight announcement: `(link, to, row, dist, from)` — the link
/// whose transfer is charged in its send round, and everything delivery
/// needs on arrival.
type RingMsg = (u32, u32, u32, Weight, u32);

/// One flood primitive's side of [`ring_kernel`]: the state an arriving
/// announcement is offered to, and the one round rule on which the two
/// primitives' scalar loops differ.
trait FloodRule {
    /// Whether a round in which nodes popped announcements but the budget
    /// filtered every send is still charged. The scalar detection loop
    /// steps the engine whenever a node popped a fresh entry (an idle
    /// `step_into`: the round advances, nothing is transferred, and that
    /// round's arrivals still land); the scalar BFS loop only steps when
    /// something was sent, and otherwise keeps draining outboxes locally.
    const CHARGE_FILTERED_POPS: bool;

    /// Offers `(row, d)` arriving at `v` from `pred` (`None` for a
    /// source's self-seed). Returns whether the announcement is fresh —
    /// to be queued and forwarded. Every announcement it displaces (a
    /// superseded distance, a truncation eviction) is passed to `retire`,
    /// which is how the bitset kernel keeps its frontier eagerly fresh.
    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        pred: Option<NodeId>,
        retire: impl FnMut(Weight, u32),
    ) -> bool;
}

impl FloodRule for DistMatrix {
    const CHARGE_FILTERED_POPS: bool = false;

    #[inline(always)]
    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        pred: Option<NodeId>,
        mut retire: impl FnMut(Weight, u32),
    ) -> bool {
        let old = self.get_row(row as usize, v);
        if d >= old {
            return false;
        }
        if old != INF {
            retire(old, row);
        }
        self.set_row(row as usize, v, d, pred);
        true
    }
}

impl FloodRule for DetectState {
    const CHARGE_FILTERED_POPS: bool = true;

    /// Updates the best/top structures; fresh means the entry survived
    /// truncation. A self-seed is its own predecessor. The scalar kernel
    /// passes a no-op `retire` and skips stale heap entries lazily at pop
    /// time.
    #[inline(always)]
    fn admit(
        &mut self,
        v: NodeId,
        row: u32,
        d: Weight,
        pred: Option<NodeId>,
        mut retire: impl FnMut(Weight, u32),
    ) -> bool {
        let slot = &mut self.best[v * self.rows + row as usize];
        let old = slot.0;
        // Admitted distances never reach `INF` (announcements assert
        // against saturation), so the absent sentinel can only lose here.
        if old <= d {
            return false;
        }
        *slot = (d, pred.unwrap_or(v));
        let top = &mut self.top[v];
        if old != INF {
            // The superseded entry may already have been truncated away.
            if let Ok(i) = top.binary_search(&(old, row)) {
                top.remove(i);
            }
            retire(old, row);
        }
        let pos = top.binary_search(&(d, row)).unwrap_err();
        top.insert(pos, (d, row));
        while top.len() > self.sigma {
            let worst = top.pop().expect("nonempty");
            retire(worst.0, worst.1);
        }
        // Forward only if the entry survived truncation (it did exactly
        // when it landed inside the first σ slots).
        pos < self.sigma
    }
}

/// The bitset flood loop shared by both primitives, at every latency:
/// per-node [`BitFrontier`] outboxes (64 source rows per word, maintained
/// eagerly so every pop is fresh), a [`CalendarRing`] standing in for the
/// scalar engine's transit heap, and each round's traffic charged in one
/// `Network::charge_flood_round` pass. Executes the exact scalar
/// schedule — same pops, same sends, same delivery order, same
/// predecessor tie-breaks — without the per-message queue machinery.
///
/// A send over a hop with latency `ℓ ≥ 1` is charged as a transfer in
/// its send round but parked `ℓ` rounds ahead in the ring; zero-latency
/// sends are delivered in the send round itself, *before* that round's
/// calendar expiries — exactly the scalar `step_into` order (same-round
/// completions in send order, then transit pops in `(arrival,
/// send-sequence)` order, which the ring reproduces). A unit-latency
/// flood never parks anything.
///
/// Superseded announcements move into a per-node *ghost* frontier rather
/// than vanishing: the scalar heap keeps stale entries until a pop walks
/// past them, and "heap nonempty" is its re-pend test — so ghost
/// occupancy must feed the bitset re-pend test too, or nodes would enter
/// the pending list at different positions and the send order (observed
/// by the event log) would drift.
///
/// Round control mirrors the scalar loops branch for branch: a round
/// with sends (or, under [`FloodRule::CHARGE_FILTERED_POPS`], with pops)
/// is charged; filtered pops with pending work left otherwise spin
/// without charging a round; and when nothing was sent but arrivals are
/// still in flight, [`CalendarRing::next_arrival`] fast-forwards to the
/// next expiry (`step_fast_into` in the scalar path) — a charged round
/// with zero transfers, messages only.
fn ring_kernel<R: FloodRule>(
    n: usize,
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    rule: &mut R,
) {
    let mut q = Frontiers::new(n);
    let mut ring: CalendarRing<RingMsg> = CalendarRing::new(plan.max_latency());
    for (row, &s) in sources.iter().enumerate() {
        q.offer(rule, s, row as u32, 0, None);
    }

    // This round's traffic: every charged link in send order, and the
    // messages *delivered* this round — zero-latency sends first (send
    // order), then calendar expiries.
    let mut links: Vec<u32> = Vec::new();
    let mut deliv: Vec<RingMsg> = Vec::new();
    loop {
        let acting = q.take_pending();
        links.clear();
        deliv.clear();
        // If anything is sent this iteration, it is charged at this round.
        let send_round = net.round() + 1;
        let mut popped = false;
        for v in acting {
            let Some((d, row)) = q.pop(v) else {
                continue;
            };
            popped = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                links.push(hop.link);
                let msg = (hop.link, hop.to, row, cand, v as u32);
                if hop.latency == 0 {
                    deliv.push(msg);
                } else {
                    ring.push(send_round + hop.latency, msg);
                }
            }
            q.repend_if_queued(v);
        }

        let round = if !links.is_empty() || (R::CHARGE_FILTERED_POPS && popped) {
            send_round
        } else if q.any_pending() {
            // Entirely-filtered pops: no traffic, no round charged.
            continue;
        } else if let Some(next) = ring.next_arrival() {
            // Nothing to send and nothing ever will be unless an arrival
            // lands: fast-forward to the next expiry.
            next
        } else {
            break;
        };
        ring.drain_round_into(round, &mut deliv);
        net.charge_flood_round(round, &links, deliv.iter().map(|m| m.0));
        for &(_, to, row, cand, from) in &deliv {
            q.offer(rule, to as usize, row, cand, Some(from as usize));
        }
    }
}

/// The bitset kernel's per-node queues: fresh announcements (`outbox`),
/// superseded ones the scalar heap would still hold (`ghost`), and the
/// nodes to act next round, in the order they became pending. The kernel
/// reaches them only through the methods below.
struct Frontiers {
    outbox: Vec<BitFrontier>,
    ghost: Vec<BitFrontier>,
    pending: Vec<NodeId>,
    pending_flag: Vec<bool>,
}

impl Frontiers {
    fn new(n: usize) -> Frontiers {
        Frontiers {
            outbox: vec![BitFrontier::default(); n],
            ghost: vec![BitFrontier::default(); n],
            pending: Vec::new(),
            pending_flag: vec![false; n],
        }
    }

    /// Queues `v` to act next round unless it already is.
    fn pend(&mut self, v: NodeId) {
        if !self.pending_flag[v] {
            self.pending_flag[v] = true;
            self.pending.push(v);
        }
    }

    /// Takes the nodes that act this round, in the order they became
    /// pending.
    fn take_pending(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pending)
    }

    fn any_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Pops the smallest announcement of a node taken from the pending
    /// list. Eager maintenance means no stale entries, so this is the
    /// smallest fresh one; the scalar pop walk would have consumed the
    /// stale (ghost) entries ahead of it — or the whole heap when nothing
    /// fresh remains.
    fn pop(&mut self, v: NodeId) -> Option<(Weight, u32)> {
        self.pending_flag[v] = false;
        let Some((d, row)) = self.outbox[v].pop_min() else {
            self.ghost[v].clear();
            return None;
        };
        self.ghost[v].drain_below(d, row);
        Some((d, row))
    }

    /// Re-pends `v` while it still holds announcements, stale ones
    /// included: "heap nonempty" is the scalar re-pend test.
    fn repend_if_queued(&mut self, v: NodeId) {
        if !self.outbox[v].is_empty() || !self.ghost[v].is_empty() {
            self.pend(v);
        }
    }

    /// Offers `(row, d)` at `v` through `rule`; a fresh announcement joins
    /// the outbox and pends `v`. Displaced announcements become ghosts
    /// (the scalar heap would keep them as stale entries); rows already
    /// forwarded have no bit to move. Forced inline, with both
    /// [`FloodRule::admit`] impls: this is the per-delivery hot path, and
    /// an outlined call here cost the unit-latency BFS about 30% (2-vCPU
    /// x86-64 host, n = 1024).
    #[inline(always)]
    fn offer<R: FloodRule>(
        &mut self,
        rule: &mut R,
        v: NodeId,
        row: u32,
        d: Weight,
        pred: Option<NodeId>,
    ) {
        let (ob, gh) = (&mut self.outbox[v], &mut self.ghost[v]);
        let retire = |old, r| {
            if ob.remove(old, r) {
                gh.insert(old, r);
            }
        };
        if rule.admit(v, row, d, pred, retire) {
            self.outbox[v].insert(d, row);
            self.pend(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::generators::{connected_gnm, grid, WeightRange};
    use mwc_graph::seq::{bellman_ford_hops, bfs, HOP_INF};
    use mwc_graph::Orientation;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that flip the process-global flood kernel and
    /// restores the default on drop.
    static KERNEL_GLOBAL: Mutex<()> = Mutex::new(());

    struct KernelGuard {
        _guard: MutexGuard<'static, ()>,
    }

    fn with_kernel(k: FloodKernel) -> KernelGuard {
        let guard = KERNEL_GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        crate::flood::set_flood_kernel(k);
        KernelGuard { _guard: guard }
    }

    impl Drop for KernelGuard {
        fn drop(&mut self) {
            crate::flood::set_flood_kernel(FloodKernel::Bitset);
        }
    }

    fn assert_matches_bfs(g: &Graph, sources: &[NodeId], h: Weight, dir: Direction) {
        let mut ledger = Ledger::new();
        let spec = MultiBfsSpec {
            max_dist: h,
            direction: dir,
            latency: None,
        };
        let mat = multi_source_bfs(g, sources, &spec, "test", &mut ledger);
        for (row, &s) in sources.iter().enumerate() {
            let t = bfs(g, s, dir);
            for v in 0..g.n() {
                let expect = if t.dist[v] == HOP_INF || (t.dist[v] as Weight) > h {
                    INF
                } else {
                    t.dist[v] as Weight
                };
                assert_eq!(
                    mat.get_row(row, v),
                    expect,
                    "src {s} node {v} (dir {dir:?})"
                );
            }
        }
    }

    #[test]
    fn single_source_bfs_exact() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        assert_matches_bfs(&g, &[0], INF, Direction::Forward);
    }

    #[test]
    fn multi_source_bfs_exact_undirected() {
        let g = connected_gnm(50, 70, Orientation::Undirected, WeightRange::unit(), 9);
        assert_matches_bfs(&g, &[0, 7, 13, 31, 49], INF, Direction::Forward);
    }

    #[test]
    fn multi_source_bfs_exact_directed_both_directions() {
        let g = connected_gnm(50, 120, Orientation::Directed, WeightRange::unit(), 11);
        assert_matches_bfs(&g, &[1, 2, 3, 20, 40], INF, Direction::Forward);
        assert_matches_bfs(&g, &[1, 2, 3, 20, 40], INF, Direction::Reverse);
    }

    #[test]
    fn hop_budget_truncates() {
        let g = grid(6, 6, Orientation::Undirected, WeightRange::unit(), 0);
        assert_matches_bfs(&g, &[0, 35], 4, Direction::Forward);
    }

    #[test]
    fn bfs_rounds_within_h_plus_k_envelope() {
        // Grid: D = 28; 20 sources; pipelining must keep rounds ≲ c(h + k).
        let g = grid(15, 15, Orientation::Undirected, WeightRange::unit(), 0);
        let sources: Vec<NodeId> = (0..20).map(|i| i * 11).collect();
        let mut ledger = Ledger::new();
        let spec = MultiBfsSpec::default();
        let _ = multi_source_bfs(&g, &sources, &spec, "bfs", &mut ledger);
        let h = 28u64;
        let k = 20u64;
        assert!(
            ledger.rounds <= 3 * (h + k),
            "pipelined BFS took {} rounds, envelope {}",
            ledger.rounds,
            3 * (h + k)
        );
    }

    #[test]
    fn predecessor_chains_are_real_paths() {
        let g = connected_gnm(40, 60, Orientation::Directed, WeightRange::unit(), 2);
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[3, 17], &MultiBfsSpec::default(), "t", &mut ledger);
        for row in 0..2 {
            for v in 0..g.n() {
                if mat.get_row(row, v) == INF {
                    continue;
                }
                let path = mat.path_from_source(row, v).expect("reached");
                assert_eq!(path.len() as Weight - 1, mat.get_row(row, v));
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "edge {}→{} missing", w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn latency_bfs_computes_weighted_distances() {
        // Stretched search: latency = edge weight ⇒ distances = weighted
        // shortest paths (exact, because waves travel at weight-speed).
        let g = connected_gnm(
            40,
            80,
            Orientation::Directed,
            WeightRange::uniform(1, 6),
            21,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0, 5], &spec, "t", &mut ledger);
        for (row, &s) in [0usize, 5].iter().enumerate() {
            let exact = bellman_ford_hops(&g, s, g.n(), Direction::Forward);
            for v in 0..g.n() {
                assert_eq!(mat.get_row(row, v), exact[v], "src {s} node {v}");
            }
        }
    }

    #[test]
    fn latency_budget_is_weighted_budget() {
        // Path with weights 3,3,3: budget 6 reaches two hops only.
        let g = Graph::from_edges(
            4,
            Orientation::Undirected,
            [(0, 1, 3), (1, 2, 3), (2, 3, 3)],
        )
        .unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: 6,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0], &spec, "t", &mut ledger);
        assert_eq!(mat.get_row(0, 2), 6);
        assert_eq!(mat.get_row(0, 3), INF);
    }

    #[test]
    fn reverse_direction_with_latency_matches_oracle() {
        // Weighted reverse BFS: distances *to* the sources along edge
        // orientation, measured in the stretched metric.
        let g = connected_gnm(
            36,
            90,
            Orientation::Directed,
            WeightRange::uniform(1, 7),
            14,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Reverse,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[3, 30], &spec, "rl", &mut ledger);
        for (row, &s) in [3usize, 30].iter().enumerate() {
            let t = mwc_graph::seq::dijkstra(&g, s, Direction::Reverse);
            for v in 0..g.n() {
                let expect = if t.dist[v] == mwc_graph::seq::INF {
                    INF
                } else {
                    t.dist[v]
                };
                assert_eq!(mat.get_row(row, v), expect, "to {s} from {v}");
            }
        }
    }

    #[test]
    fn budget_zero_reaches_only_sources() {
        let g = grid(4, 4, Orientation::Undirected, WeightRange::unit(), 0);
        let spec = MultiBfsSpec {
            max_dist: 0,
            direction: Direction::Forward,
            latency: None,
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[5], &spec, "z", &mut ledger);
        assert_eq!(mat.get_row(0, 5), 0);
        assert!((0..16)
            .filter(|&v| v != 5)
            .all(|v| mat.get_row(0, v) == INF));
        assert_eq!(ledger.rounds, 0);
    }

    #[test]
    fn zero_weight_edges_stay_exact() {
        // w = 0 edges add nothing to distance but one round of travel.
        let g =
            Graph::from_edges(4, Orientation::Directed, [(0, 1, 0), (1, 2, 0), (2, 3, 5)]).unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let mat = multi_source_bfs(&g, &[0], &spec, "t", &mut ledger);
        assert_eq!(mat.get_row(0, 1), 0);
        assert_eq!(mat.get_row(0, 2), 0);
        assert_eq!(mat.get_row(0, 3), 5);
        // Travel still takes ≥ 1 round per hop.
        assert!(ledger.rounds >= 3);
    }

    #[test]
    fn zero_weight_edges_identical_across_kernels() {
        // `dist_add = 0` with `stretch = 1` must cost one round and add
        // zero distance in BOTH kernels. All weights ≤ 1, so the flood is
        // unit-latency and the bitset kernel never parks a send.
        let g = Graph::from_edges(
            6,
            Orientation::Directed,
            [
                (0, 1, 0),
                (1, 2, 1),
                (2, 3, 0),
                (3, 4, 0),
                (4, 5, 1),
                (0, 5, 1),
                (5, 2, 0),
            ],
        )
        .unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let mat = multi_source_bfs(&g, &[0, 3], &spec, "zw", &mut ledger);
            // Zero-weight edges added no distance…
            assert_eq!(mat.get_row(0, 1), 0, "{kernel:?}");
            assert_eq!(mat.get_row(1, 4), 0, "{kernel:?}");
            // …but still cost a round each to cross.
            assert!(ledger.rounds >= 3, "{kernel:?}: {} rounds", ledger.rounds);
            results.push((mat.digest(), ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(results[0], results[1], "kernels disagree on w = 0 flood");
    }

    #[test]
    fn stretched_flood_identical_across_kernels() {
        // Latency-stretched floods park sends in the calendar ring: pin
        // digests, predecessors, and every ledger count against the
        // scalar engine-stepped reference, for both a bounded and an
        // unbounded search.
        let g = connected_gnm(
            44,
            100,
            Orientation::Directed,
            WeightRange::uniform(0, 9),
            17,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        for max_dist in [INF, 11] {
            let spec = MultiBfsSpec {
                max_dist,
                direction: Direction::Forward,
                latency: Some(&lat),
            };
            let mut results = Vec::new();
            for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
                let _k = with_kernel(kernel);
                let mut ledger = Ledger::new();
                let mat = multi_source_bfs(&g, &[0, 7, 21], &spec, "st", &mut ledger);
                results.push((
                    mat.digest(),
                    ledger.rounds,
                    ledger.words,
                    ledger.messages,
                    ledger.hot_links(8),
                ));
            }
            assert_eq!(
                results[0], results[1],
                "kernels disagree on stretched flood (max_dist {max_dist})"
            );
        }
    }

    #[test]
    fn stretched_detection_identical_across_kernels() {
        let g = connected_gnm(
            40,
            90,
            Orientation::Undirected,
            WeightRange::uniform(1, 8),
            23,
        );
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let sources: Vec<NodeId> = (0..40).step_by(3).collect();
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let det = source_detection(
                &g,
                &sources,
                20,
                4,
                Direction::Forward,
                Some(&lat),
                "sd",
                &mut ledger,
            );
            results.push((det.lists, ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(
            results[0], results[1],
            "kernels disagree on stretched detection"
        );
    }

    #[test]
    #[should_panic(expected = "source 60 out of range")]
    fn multibfs_rejects_out_of_range_source() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[60], &MultiBfsSpec::default(), "t", &mut ledger);
    }

    #[test]
    #[should_panic(expected = "source 7 repeated")]
    fn multibfs_rejects_repeated_source() {
        let g = connected_gnm(60, 90, Orientation::Undirected, WeightRange::unit(), 5);
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0, 7, 7], &MultiBfsSpec::default(), "t", &mut ledger);
    }

    #[test]
    #[should_panic(expected = "saturates into the INF sentinel")]
    fn multibfs_rejects_distance_saturation() {
        // A pathological latency table: one edge "adds" INF, which the
        // old saturating_add silently aliased to unreachable.
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let lat = vec![INF];
        let spec = MultiBfsSpec {
            max_dist: INF,
            direction: Direction::Forward,
            latency: Some(&lat),
        };
        let mut ledger = Ledger::new();
        let _ = multi_source_bfs(&g, &[0], &spec, "sat", &mut ledger);
    }

    fn detection_oracle(g: &Graph, sources: &[NodeId], h: Weight, sigma: usize) -> DetectionLists {
        let mut lists: DetectionLists = vec![Vec::new(); g.n()];
        let mut srcs = sources.to_vec();
        srcs.sort_unstable();
        for &s in &srcs {
            let t = bfs(g, s, Direction::Forward);
            for v in 0..g.n() {
                if t.dist[v] != HOP_INF && (t.dist[v] as Weight) <= h {
                    lists[v].push((t.dist[v] as Weight, s));
                }
            }
        }
        for l in &mut lists {
            l.sort_unstable();
            l.truncate(sigma);
        }
        lists
    }

    #[test]
    fn source_detection_matches_oracle() {
        let g = connected_gnm(48, 70, Orientation::Undirected, WeightRange::unit(), 33);
        let sources: Vec<NodeId> = (0..48).step_by(3).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            6,
            4,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        let want = detection_oracle(&g, &sources, 6, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn source_detection_all_sources_neighborhood() {
        // The girth algorithm's use: every node a source, σ nearest.
        let g = grid(7, 7, Orientation::Undirected, WeightRange::unit(), 0);
        let sources: Vec<NodeId> = (0..g.n()).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            12,
            7,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        let want = detection_oracle(&g, &sources, 12, 7);
        assert_eq!(got, want);
        // Rounds stay O(h + σ), far below O(n).
        assert!(
            ledger.rounds <= 4 * (12 + 7),
            "took {} rounds",
            ledger.rounds
        );
    }

    #[test]
    fn detection_pred_paths_are_real() {
        let g = connected_gnm(40, 60, Orientation::Undirected, WeightRange::unit(), 12);
        let sources: Vec<NodeId> = (0..40).step_by(4).collect();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &sources,
            8,
            5,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
        for v in 0..g.n() {
            for &(d, s) in &det.lists[v] {
                let p = det.path_to_source(v, s).expect("detected ⇒ path");
                assert_eq!(*p.first().unwrap(), v);
                assert_eq!(*p.last().unwrap(), s);
                assert_eq!(p.len() as Weight - 1, d, "path hops ≠ detected dist");
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]) || g.has_edge(w[1], w[0]));
                }
            }
        }
    }

    #[test]
    fn detection_with_latency_uses_stretched_metric() {
        // Path 0 -5- 1 -1- 2: source 0; at node 2 stretched dist = 6.
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 5), (1, 2, 1)]).unwrap();
        let lat: Vec<Weight> = g.edges().iter().map(|e| e.weight).collect();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[0],
            10,
            2,
            Direction::Forward,
            Some(&lat),
            "sd",
            &mut ledger,
        );
        assert_eq!(det.lists[2], vec![(6, 0)]);
        assert_eq!(det.dist(2, 0), Some(6));
        // Budget cuts off stretched-far nodes.
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[0],
            4,
            2,
            Direction::Forward,
            Some(&lat),
            "sd",
            &mut ledger,
        );
        assert!(det.lists[1].is_empty());
    }

    #[test]
    fn source_detection_directed() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let sources: Vec<NodeId> = (0..30).step_by(2).collect();
        let mut ledger = Ledger::new();
        let got = source_detection(
            &g,
            &sources,
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        )
        .lists;
        // Oracle with forward BFS.
        let mut want: DetectionLists = vec![Vec::new(); g.n()];
        for &s in &sources {
            let t = bfs(&g, s, Direction::Forward);
            for v in 0..g.n() {
                if t.dist[v] != HOP_INF && t.dist[v] <= 5 {
                    want[v].push((t.dist[v] as Weight, s));
                }
            }
        }
        for l in &mut want {
            l.sort_unstable();
            l.truncate(3);
        }
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "source 30 out of range")]
    fn detection_rejects_out_of_range_source() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[0, 30],
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
    }

    #[test]
    #[should_panic(expected = "source 4 repeated")]
    fn detection_rejects_repeated_source() {
        let g = connected_gnm(30, 80, Orientation::Directed, WeightRange::unit(), 8);
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[4, 2, 4],
            5,
            3,
            Direction::Forward,
            None,
            "sd",
            &mut ledger,
        );
    }

    #[test]
    #[should_panic(expected = "saturates into the INF sentinel")]
    fn detection_rejects_distance_saturation() {
        let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap();
        let lat = vec![INF];
        let mut ledger = Ledger::new();
        let _ = source_detection(
            &g,
            &[0],
            INF,
            2,
            Direction::Forward,
            Some(&lat),
            "sat",
            &mut ledger,
        );
    }

    #[test]
    fn detection_identical_across_kernels() {
        // Unit-weight flood: the bitset kernel engages by default; pin
        // that the scalar reference produces identical lists, paths, and
        // ledger counts.
        let g = connected_gnm(48, 70, Orientation::Undirected, WeightRange::unit(), 33);
        let sources: Vec<NodeId> = (0..48).step_by(3).collect();
        let mut results = Vec::new();
        for kernel in [FloodKernel::Scalar, FloodKernel::Bitset] {
            let _k = with_kernel(kernel);
            let mut ledger = Ledger::new();
            let det = source_detection(
                &g,
                &sources,
                6,
                4,
                Direction::Forward,
                None,
                "sd",
                &mut ledger,
            );
            results.push((det.lists, ledger.rounds, ledger.words, ledger.messages));
        }
        assert_eq!(results[0], results[1], "kernels disagree on detection");
    }
}
