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
//! [`CalendarRing`](crate::flood::CalendarRing) of arrival-round buckets
//! sized to the budget, links charged at send time and each round closed
//! by `Network::charge_flood_round`). Both primitives share one bitset
//! loop, [`ring_kernel`], at every latency; each supplies only its admit
//! step and its round rule ([`FloodRule`]). The bitset kernel is
//! byte-identical to the scalar one in every ledger count, event, and
//! output — see the [`crate::flood`] module docs for the equivalence
//! argument.
//!
//! The bitset loop's per-word work is kept to array operations: a
//! frontier insert ORs into or appends past the last entry when it can
//! (tail-append; announcements almost always land there) and searches
//! only otherwise; the scalar heap's stale entries survive as one word
//! per node, the largest of them (the *ghost*), which is all the re-pend
//! test can observe; the acting list and the delivery buffer are reused
//! across rounds; and [`source_detection`] hands its flat node-major
//! distance and predecessor tables to [`Detection`] as they are.

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
use std::collections::BinaryHeap;

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

        if !any_sent && !pending.is_empty() {
            // Entirely-filtered pops: keep draining outboxes locally
            // without charging rounds (nothing was transmitted).
            continue;
        }
        if !net.step(&mut out) {
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
///
/// The best-known `(distance, pred)` of every (node, source) pair is kept
/// as the flood left it: two flat node-major tables indexed by
/// `node * sources + row`, where `row` is the source's rank in id order.
/// Every accessor is an array read.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Per node, the detected `(distance, source)` pairs (≤ `σ`, sorted).
    pub lists: DetectionLists,
    /// `row_of[s]`: the table row of source `s`, `NO_ROW` for a node
    /// that is not a source.
    row_of: Vec<u32>,
    /// Number of sources: the row count of `dist` and `pred`.
    rows: usize,
    /// Best admitted distance per (node, row); [`INF`] when no
    /// announcement for the row ever reached the node.
    dist: Vec<Weight>,
    /// The neighbor the best announcement arrived from (the node itself
    /// for a source's self-seed), parallel to `dist`.
    pred: Vec<u32>,
}

/// The `row_of` sentinel of [`Detection`] for a node that is not a source.
const NO_ROW: u32 = u32::MAX;

impl Detection {
    /// Index of the (node, source) pair in `dist`/`pred`, if `src` is a
    /// source, both ids are in range, and an announcement for `src` was
    /// ever admitted at `node`.
    fn cell(&self, node: NodeId, src: NodeId) -> Option<usize> {
        let row = *self.row_of.get(src)?;
        if row == NO_ROW || node >= self.row_of.len() {
            return None;
        }
        let i = node * self.rows + row as usize;
        (self.dist[i] != INF).then_some(i)
    }

    /// Best-known distance from `src` to `node`, if any announcement for
    /// `src` ever reached `node` (superset of the truncated lists).
    pub fn dist(&self, node: NodeId, src: NodeId) -> Option<Weight> {
        self.cell(node, src).map(|i| self.dist[i])
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
        self.cell(node, src).map(|i| self.pred[i] as NodeId)
    }

    /// The discovered path `node → … → src` following predecessor
    /// pointers (real graph edges). `None` if `src` never reached `node`.
    pub fn path_to_source(&self, node: NodeId, src: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![node];
        let mut cur = node;
        while cur != src {
            cur = self.pred[self.cell(cur, src)?] as NodeId;
            path.push(cur);
            if path.len() > self.row_of.len() {
                return None;
            }
        }
        Some(path)
    }
}

/// Per-node detection state shared by both kernels: current best
/// distance and predecessor per source row and the top-`σ` set the
/// truncation discipline maintains. Stored flat — split node-major
/// `dist`/`pred` tables with an [`INF`] absent-sentinel (12 bytes a cell,
/// handed to [`Detection`] as they are) and per-node sorted vectors of at
/// most `σ` entries — so the admit fast path is an array index plus a
/// short binary search instead of hash-map and B-tree traffic.
struct DetectState {
    rows: usize,
    dist: Vec<Weight>,
    pred: Vec<u32>,
    top: Vec<Vec<(Weight, u32)>>,
    sigma: usize,
}

impl DetectState {
    fn new(n: usize, rows: usize, sigma: usize) -> DetectState {
        DetectState {
            rows,
            dist: vec![INF; n * rows],
            pred: vec![u32::MAX; n * rows],
            top: (0..n).map(|_| Vec::with_capacity(sigma + 1)).collect(),
            sigma,
        }
    }

    /// Best-known distance of `row`'s source at `v` ([`INF`] when no
    /// announcement was ever admitted).
    fn best_dist(&self, v: NodeId, row: u32) -> Weight {
        self.dist[v * self.rows + row as usize]
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
    let mut row_of = vec![NO_ROW; n];
    for (row, &s) in srcs.iter().enumerate() {
        row_of[s] = row as u32;
    }
    Detection {
        lists,
        row_of,
        rows: srcs.len(),
        dist: state.dist,
        pred: state.pred,
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
        let mut popper = None;
        let mut any_sent = false;
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
            popper = Some(v);
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > h {
                    continue;
                }
                any_sent = true;
                net.send_on_link(hop.link as usize, (row, cand), 1, hop.latency);
            }
            if !outbox[v].is_empty() && !pending_flag[v] {
                pending_flag[v] = true;
                pending.push(v);
            }
        }

        if let (Some(v), false) = (popper, any_sent) {
            // The budget filtered every pop, yet the round is charged:
            // wake the popper next round so the step executes exactly
            // that round instead of jumping to the next arrival.
            net.schedule_wakeup(net.round() + 1, v);
        }
        if !net.step(&mut out) {
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
    /// charges a round whenever a node popped a fresh entry (a wakeup
    /// stops its step at the next round: the round advances, nothing is
    /// transferred, and that round's arrivals still land); the scalar BFS
    /// loop only steps when something was sent, and otherwise keeps
    /// draining outboxes locally.
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
        let i = v * self.rows + row as usize;
        let old = self.dist[i];
        // Admitted distances never reach `INF` (announcements assert
        // against saturation), so the absent sentinel can only lose here.
        if old <= d {
            return false;
        }
        self.dist[i] = d;
        self.pred[i] = pred.unwrap_or(v) as u32;
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
/// scalar engine's transit heap, each send's link charged as it is made
/// (`Network::charge_flood_link`) and each round closed in one
/// `Network::charge_flood_round` call. Executes the exact scalar
/// schedule — same pops, same sends, same delivery order, same
/// predecessor tie-breaks — without the per-message queue machinery.
///
/// A send over a hop with latency `ℓ ≥ 1` is charged as a transfer in
/// its send round but parked `ℓ` rounds ahead in the ring; zero-latency
/// sends are delivered in the send round itself, *before* that round's
/// calendar expiries — exactly the engine's order in a round (same-round
/// completions in send order, then transit pops in `(arrival,
/// send-sequence)` order, which the ring reproduces). A unit-latency
/// flood never parks anything, and the ring is sized for the slowest hop
/// the budget lets send ([`FloodPlan::calendar`]).
///
/// Superseded announcements leave a per-node *ghost* behind rather than
/// vanishing: the scalar heap keeps stale entries until a pop walks past
/// them, and "heap nonempty" is its re-pend test — so the ghost must feed
/// the bitset re-pend test too, or nodes would enter the pending list at
/// different positions and the send order (observed by the event log)
/// would drift. The [`crate::flood`] module docs show why one word, the
/// largest stale entry, is all the test needs.
///
/// Round control mirrors the scalar loops branch for branch: a round
/// with sends (or, under [`FloodRule::CHARGE_FILTERED_POPS`], with pops)
/// is charged; filtered pops with pending work left otherwise spin
/// without charging a round; and when nothing was sent but arrivals are
/// still in flight, [`CalendarRing::next_arrival`] fast-forwards to the
/// next expiry (where the scalar path's `Network::step` jumps the quiet
/// gap) — a charged round with zero transfers, messages only.
fn ring_kernel<R: FloodRule>(
    n: usize,
    sources: &[NodeId],
    max_dist: Weight,
    plan: &FloodPlan,
    net: &mut Network<Announce>,
    rule: &mut R,
) {
    let mut q = Frontiers::new(n);
    let mut ring: CalendarRing<RingMsg> = plan.calendar(max_dist);
    for (row, &s) in sources.iter().enumerate() {
        q.offer(rule, s, row as u32, 0, None);
    }

    // The nodes acting this round, and the messages *delivered* this
    // round — zero-latency sends first (send order), then calendar
    // expiries. Both buffers live across rounds.
    let mut acting: Vec<NodeId> = Vec::new();
    let mut deliv: Vec<RingMsg> = Vec::new();
    loop {
        q.take_pending(&mut acting);
        deliv.clear();
        // If anything is sent this iteration, it is charged at this round.
        let send_round = net.round() + 1;
        let mut popped = false;
        let mut sent = 0u64;
        for &v in &acting {
            let Some((d, row)) = q.pop(v) else {
                continue;
            };
            popped = true;
            for hop in plan.of(v) {
                let cand = add_dist(d, hop.dist_add);
                if cand > max_dist {
                    continue;
                }
                net.charge_flood_link(hop.link);
                sent += 1;
                let msg = (hop.link, hop.to, row, cand, v as u32);
                if hop.latency == 0 {
                    deliv.push(msg);
                } else {
                    ring.push(send_round + hop.latency, msg);
                }
            }
            q.repend_if_queued(v);
        }

        let round = if sent > 0 || (R::CHARGE_FILTERED_POPS && popped) {
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
        net.charge_flood_round(round, sent, deliv.iter().map(|m| m.0));
        for &(_, to, row, cand, from) in &deliv {
            q.offer(rule, to as usize, row, cand, Some(from as usize));
        }
    }
}

/// The bitset kernel's per-node queues: fresh announcements (`outbox`),
/// the largest superseded one the scalar heap would still hold (`ghost`),
/// and the nodes to act next round, in the order they became pending.
/// The kernel reaches them only through the methods below.
struct Frontiers {
    outbox: Vec<BitFrontier>,
    /// Per node, the maximum `(distance, row)` of the stale entries the
    /// scalar heap would still hold, `None` when it holds none. Only
    /// whether such an entry remains is observable; the max answers that
    /// after every pop (see the [`crate::flood`] module docs).
    ghost: Vec<Option<(Weight, u32)>>,
    pending: Vec<NodeId>,
    pending_flag: Vec<bool>,
}

impl Frontiers {
    fn new(n: usize) -> Frontiers {
        Frontiers {
            outbox: vec![BitFrontier::default(); n],
            ghost: vec![None; n],
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

    /// Moves the nodes that act this round, in the order they became
    /// pending, into `acting` (cleared first); the pending list carries on
    /// in `acting`'s old buffer, so no round allocates.
    fn take_pending(&mut self, acting: &mut Vec<NodeId>) {
        acting.clear();
        std::mem::swap(&mut self.pending, acting);
    }

    fn any_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Pops the smallest announcement of a node taken from the pending
    /// list. Eager maintenance means no stale entries, so this is the
    /// smallest fresh one; the scalar pop walk would have consumed the
    /// stale entries below it — so the ghost survives only if it is above
    /// the pop — or the whole heap when nothing fresh remains.
    fn pop(&mut self, v: NodeId) -> Option<(Weight, u32)> {
        self.pending_flag[v] = false;
        let popped = self.outbox[v].pop_min();
        let ghost = &mut self.ghost[v];
        if ghost.is_some_and(|g| popped.is_none_or(|p| g < p)) {
            *ghost = None;
        }
        popped
    }

    /// Whether the scalar heap of `v` would be nonempty: fresh or stale
    /// entries remain.
    fn queued(&self, v: NodeId) -> bool {
        !self.outbox[v].is_empty() || self.ghost[v].is_some()
    }

    /// Re-pends `v` while it still holds announcements, stale ones
    /// included: "heap nonempty" is the scalar re-pend test.
    fn repend_if_queued(&mut self, v: NodeId) {
        if self.queued(v) {
            self.pend(v);
        }
    }

    /// Retires `(d, row)` at `v`: a fresh announcement leaves the outbox
    /// and becomes stale, raising the ghost; a row already forwarded has
    /// no scalar heap entry left to go stale.
    #[inline(always)]
    fn retire(&mut self, v: NodeId, d: Weight, row: u32) {
        if self.outbox[v].remove(d, row) {
            let ghost = &mut self.ghost[v];
            *ghost = (*ghost).max(Some((d, row)));
        }
    }

    /// Offers `(row, d)` at `v` through `rule`; a fresh announcement joins
    /// the outbox and pends `v`, and every announcement it displaces is
    /// retired. Forced inline, with both [`FloodRule::admit`] impls: this
    /// is the per-delivery hot path, and an outlined call here cost the
    /// unit-latency BFS about 30% (2-vCPU x86-64 host, n = 1024).
    #[inline(always)]
    fn offer<R: FloodRule>(
        &mut self,
        rule: &mut R,
        v: NodeId,
        row: u32,
        d: Weight,
        pred: Option<NodeId>,
    ) {
        if rule.admit(v, row, d, pred, |old, r| self.retire(v, old, r)) {
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
    fn ghost_max_matches_sorted_set_reference() {
        // Random admissions, retirements, and pops on one node, mirrored
        // on the scalar heap's model: a sorted set of fresh entries and a
        // sorted set of stale ones. A pop of the fresh minimum consumes
        // the stale entries below it, or all of them when nothing fresh
        // remains. The one-word ghost must equal the stale set's max, and
        // the re-pend test must match "heap nonempty", after every step.
        use std::collections::BTreeSet;
        let mut rng = mwc_rng::Rng::seed_from_u64(0x6057);
        for _case in 0..64 {
            let rows = 1 + rng.below(150) as u32;
            let mut q = Frontiers::new(1);
            let (mut fresh, mut stale) = (BTreeSet::new(), BTreeSet::new());
            let mut best = vec![INF; rows as usize];
            for _step in 0..200 {
                match rng.below(4) {
                    // Admission at a better distance: the old fresh entry
                    // (if still queued) goes stale.
                    0 | 1 => {
                        let row = rng.below(rows as u64) as u32;
                        let old = best[row as usize];
                        if old == 0 {
                            continue;
                        }
                        let d = rng.below(old.min(40));
                        if fresh.remove(&(old, row)) {
                            stale.insert((old, row));
                        }
                        q.retire(0, old, row);
                        best[row as usize] = d;
                        fresh.insert((d, row));
                        q.outbox[0].insert(d, row);
                    }
                    // Truncation eviction: a fresh entry goes stale and
                    // its row's best stays (never fresh again).
                    2 => {
                        let Some(&(d, row)) = fresh.iter().nth(rng.below(4) as usize) else {
                            continue;
                        };
                        fresh.remove(&(d, row));
                        stale.insert((d, row));
                        q.retire(0, d, row);
                        best[row as usize] = 0;
                    }
                    _ => {
                        let want = fresh.pop_first();
                        match want {
                            Some(p) => stale.retain(|&g| g > p),
                            None => stale.clear(),
                        }
                        assert_eq!(q.pop(0), want);
                    }
                }
                assert_eq!(q.ghost[0], stale.last().copied());
                assert_eq!(q.queued(0), !fresh.is_empty() || !stale.is_empty());
            }
        }
    }

    #[test]
    fn detection_accessors_reject_non_sources_and_unreached_pairs() {
        // Two components: {0, 1, 2} holds source 0; {3, 4} holds source
        // 4; node 5 is isolated from both.
        let g = Graph::from_edges(
            6,
            Orientation::Undirected,
            [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)],
        )
        .unwrap();
        let mut ledger = Ledger::new();
        let det = source_detection(
            &g,
            &[4, 0],
            1,
            2,
            Direction::Forward,
            None,
            "acc",
            &mut ledger,
        );
        assert_eq!(det.dist(1, 0), Some(1));
        assert_eq!(det.pred(1, 0), Some(0));
        assert_eq!(det.dist(0, 0), Some(0));
        assert_eq!(det.pred(0, 0), Some(0), "a self-seed is its own pred");
        assert_eq!(det.path_to_source(3, 4), Some(vec![3, 4]));
        // Non-source ids.
        assert_eq!(det.dist(0, 1), None);
        assert_eq!(det.pred(2, 3), None);
        assert_eq!(det.path_to_source(2, 1), None);
        // Out-of-range ids, as node or as source.
        assert_eq!(det.dist(0, 6), None);
        assert_eq!(det.pred(0, usize::MAX), None);
        assert_eq!(det.dist(6, 0), None);
        assert_eq!(det.pred(usize::MAX, 4), None);
        assert_eq!(det.path_to_source(9, 0), None);
        // Never-admitted pairs: another component, or past the budget.
        assert_eq!(det.dist(3, 0), None);
        assert_eq!(det.pred(0, 4), None);
        assert_eq!(det.dist(2, 0), None, "2 is two hops out, budget 1");
        assert_eq!(det.path_to_source(2, 0), None);
    }

    #[test]
    fn detection_paths_are_real_on_random_unit_graphs() {
        // Every admitted (node, source) pair — truncated away or not —
        // has a predecessor path of real edges ending at the source, no
        // longer than its admitted distance (a predecessor's best only
        // improves after it announced).
        for seed in 0..12u64 {
            let n = 20 + (seed as usize * 7) % 30;
            let g = connected_gnm(n, n, Orientation::Undirected, WeightRange::unit(), seed);
            let sources: Vec<NodeId> = (0..n).filter(|v| v % 3 != 1).collect();
            let mut ledger = Ledger::new();
            let det = source_detection(
                &g,
                &sources,
                6,
                1 + seed as usize % 4,
                Direction::Forward,
                None,
                "paths",
                &mut ledger,
            );
            let mut admitted = 0;
            for v in 0..n {
                for &s in &sources {
                    let Some(d) = det.dist(v, s) else {
                        assert_eq!(det.path_to_source(v, s), None);
                        continue;
                    };
                    admitted += 1;
                    let p = det.path_to_source(v, s).expect("admitted ⇒ path");
                    assert_eq!((p[0], *p.last().unwrap()), (v, s));
                    assert!(p.len() as Weight - 1 <= d, "seed {seed}: {v} → {s}");
                    assert_eq!(det.pred(v, s), Some(*p.get(1).unwrap_or(&v)));
                    for w in p.windows(2) {
                        assert!(g.has_edge(w[0], w[1]), "seed {seed}: {w:?}");
                    }
                }
            }
            assert!(
                admitted > n,
                "seed {seed}: the flood must reach past the sources"
            );
        }
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
