//! The round-synchronous CONGEST network engine.
//!
//! The engine is the "hardware" of this reproduction: it is the only
//! channel through which node-local states may exchange information, and
//! its round counter is the complexity measure every experiment reports.
//!
//! # Model (paper §1.1)
//!
//! - The communication topology is the **undirected support** of the input
//!   graph: links are bidirectional even when the graph is directed.
//! - Per round, each link carries at most **one word** in each direction. A
//!   word is Θ(log n + log W) bits; a message of `w` words occupies its
//!   link for `w` consecutive rounds (per-link FIFO).
//! - Messages can optionally carry an **extra latency**: a message sent
//!   over a link with latency `ℓ` is delivered `ℓ` rounds after its last
//!   word leaves the link. This models *stretched* graphs (paper §4), where
//!   a weighted edge is replaced by a path of unit edges: bandwidth stays
//!   one word per round, but traversal takes the path length, and
//!   back-to-back messages pipeline.
//! - Local computation is free; nodes may schedule **wakeups** to act at a
//!   future round without receiving a message (used for the random-delay
//!   scheduling of Algorithm 3).
//!
//! # Advancing
//!
//! [`Network::step`] is the one way to advance the engine. It executes
//! the next round in which something can be observed, jumping over quiet
//! gaps and bulk-skipping the middle of multi-word transfers. Skipped
//! rounds still count in the round counter and in every statistic, so
//! the complexity measure equals that of executing every round in turn.
//! A node that must act at a given round without receiving a message
//! schedules a wakeup for it.

use mwc_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// A message delivered to a node at the start of a round.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Delivery<M> {
    /// The neighbor that sent the message.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The message body.
    pub payload: M,
}

/// Everything that happens at one node-visible round boundary.
#[derive(Clone, Debug)]
pub struct RoundOutput<M> {
    /// Messages whose transfer completed this round.
    pub deliveries: Vec<Delivery<M>>,
    /// Nodes whose scheduled wakeup fired this round.
    pub wakeups: Vec<NodeId>,
}

// Manual impl: `#[derive(Default)]` would needlessly bound `M: Default`.
impl<M> Default for RoundOutput<M> {
    fn default() -> Self {
        RoundOutput {
            deliveries: Vec::new(),
            wakeups: Vec::new(),
        }
    }
}

/// Aggregate traffic statistics of a [`Network`]: totals, per-link words,
/// and the congestion scalars [`crate::Ledger`] folds across phases.
///
/// `PartialEq` is derived so differential tests can assert that
/// [`Network::step`]'s gap jumps and bulk skips produce *bit-identical*
/// stats to executing every round one by one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total words transferred over all links.
    pub words: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Words transferred per directed link (parallel to the engine's link
    /// table); used by the lower-bound harness for cut accounting.
    pub per_link_words: Vec<u64>,
    /// When history is enabled ([`Network::enable_history`]): `(round,
    /// words transferred that round)` for every non-quiet round — the
    /// congestion timeline used by the scheduling ablations.
    pub words_per_round: Vec<(u64, u64)>,
    /// Rounds in which at least one word was transferred (quiet rounds
    /// jumped over by [`Network::step`] still count toward `round()` but
    /// not here).
    pub active_rounds: u64,
    /// The largest number of words any single round transferred — the peak
    /// of the congestion timeline, tracked even without history.
    pub max_words_in_round: u64,
    /// The round at which [`NetStats::max_words_in_round`] was *first*
    /// reached (ties break toward the earliest round, so reports are
    /// deterministic); 0 while no word has been transferred.
    pub peak_round: u64,
    /// High-water mark of any single link's send-queue depth (messages
    /// queued behind one FIFO link, the engine's backpressure signal).
    pub queue_high_water: u64,
}

/// A queued message. Endpoints are *not* stored: queues are per-link, so
/// `from`/`to` are recovered from the link table at delivery time, keeping
/// the struct (and the per-send copy) as small as the payload allows.
/// `pub(crate)` so the sharded round kernel can walk queue slices
/// directly.
pub(crate) struct InFlight<M> {
    pub(crate) payload: M,
    /// Total words of the message (for the event log).
    pub(crate) words: u64,
    pub(crate) words_left: u64,
    pub(crate) latency: u64,
}

/// The CONGEST network simulator. See the crate docs for the model.
///
/// `M` is the algorithm-specific message type. The engine never inspects
/// payloads; algorithms declare how many *words* each message occupies,
/// which is what the bandwidth accounting uses.
///
/// # Examples
///
/// ```
/// use mwc_congest::{Network, RoundOutput};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)])?;
/// let mut net: Network<&'static str> = Network::new(&g);
/// net.send(0, 1, "hello", 1)?;
/// let mut out = RoundOutput::default();
/// assert!(net.step(&mut out));
/// assert_eq!(out.deliveries.len(), 1);
/// assert_eq!(out.deliveries[0].payload, "hello");
/// assert_eq!(net.round(), 1);
/// assert!(!net.step(&mut out), "the network is idle");
/// # Ok(())
/// # }
/// ```
pub struct Network<M> {
    n: usize,
    round: u64,
    /// `links[l] = (from, to)`.
    link_ends: Vec<(NodeId, NodeId)>,
    /// For each node, its outgoing (neighbor, link id) pairs, sorted by
    /// neighbor.
    out_links: Vec<Vec<(NodeId, usize)>>,
    queues: Vec<VecDeque<InFlight<M>>>,
    /// Links with a non-empty queue.
    active: Vec<usize>,
    active_flag: Vec<bool>,
    /// Messages whose words all left their link, awaiting latency expiry:
    /// (arrival round, insertion sequence for FIFO stability, slab slot).
    /// The slot tags along outside the ordering key so expiry is a direct
    /// index into `transit_msgs` — on stretched graphs *every* message
    /// passes through here, so this path must not hash.
    transit: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Slab of in-transit `(delivery, message words)`; words ride along
    /// for the event log. Freed slots are recycled via `transit_free`.
    transit_msgs: Vec<Option<(Delivery<M>, u64)>>,
    transit_free: Vec<u32>,
    transit_seq: u64,
    wakeups: BinaryHeap<Reverse<(u64, NodeId)>>,
    stats: NetStats,
    history: bool,
    /// Sticky: set once any message longer than one word is enqueued.
    /// While false, every active link's head has exactly one word left, so
    /// [`Network::step`] can skip its `O(active)` bulk lookahead scan —
    /// one-word workloads (BFS floods, source detection) pay nothing for
    /// the bulk path.
    any_multiword: bool,
    /// Recycled backing storage for the `still_active` rebuild in
    /// [`Network::execute_round`], so steady-state stepping allocates
    /// nothing.
    scratch_active: Vec<usize>,
    /// Sequence number in the message-event log, when logging is active
    /// (see [`crate::events`]); `None` keeps the logging path cost-free.
    events_net: Option<u64>,
    /// Intra-simulation sharding state ([`Network::new_sharded`]); `None`
    /// (the [`Network::new`] default) keeps every round on the sequential
    /// path. Boxed so unsharded networks pay one pointer.
    sharding: Option<Box<crate::shard::Sharding<M>>>,
}

/// Error returned by [`Network::send`] variants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendError {
    /// `from` and `to` are not joined by a communication link.
    NoLink {
        /// Attempted sender.
        from: NodeId,
        /// Attempted recipient.
        to: NodeId,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SendError::NoLink { from, to } => {
                write!(f, "no communication link between {from} and {to}")
            }
        }
    }
}

impl std::error::Error for SendError {}

impl<M> Network<M> {
    /// Builds a network whose links are the undirected support of `graph`.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.n();
        let mut link_ends = Vec::new();
        let mut out_links = vec![Vec::new(); n];
        for u in 0..n {
            for v in graph.comm_neighbors(u) {
                let l = link_ends.len();
                link_ends.push((u, v));
                out_links[u].push((v, l));
            }
        }
        for links in &mut out_links {
            links.sort_unstable();
        }
        let m = link_ends.len();
        Network {
            n,
            round: 0,
            link_ends,
            out_links,
            queues: (0..m).map(|_| VecDeque::new()).collect(),
            active: Vec::new(),
            active_flag: vec![false; m],
            transit: BinaryHeap::new(),
            transit_msgs: Vec::new(),
            transit_free: Vec::new(),
            transit_seq: 0,
            wakeups: BinaryHeap::new(),
            stats: NetStats {
                per_link_words: vec![0; m],
                ..NetStats::default()
            },
            history: false,
            any_multiword: false,
            scratch_active: Vec::new(),
            events_net: crate::events::next_net_id(),
            sharding: None,
        }
    }

    /// [`Network::new`], sharded across [`mwc_par::shards`] engine shards
    /// when more than one is configured (`--shards=N` / `MWC_SHARDS`).
    /// This is the constructor the primitives use: sharding is an
    /// execution strategy, never an observable — see
    /// [`Network::new_sharded`].
    pub fn new_auto(graph: &Graph) -> Self
    where
        M: Send,
    {
        let shards = mwc_par::shards();
        if shards > 1 {
            Self::new_sharded(graph, shards)
        } else {
            Self::new(graph)
        }
    }

    /// [`Network::new`] with round transfers partitioned across `shards`
    /// contiguous vertex ranges (degree-balanced; see
    /// [`crate::ShardPlan`]), each stepped on its own worker thread with
    /// cut-link traffic exchanged at the round barrier.
    ///
    /// Every observable — [`RoundOutput`] contents and order, every
    /// [`NetStats`] field, the message-event log, transit FIFO
    /// tie-breaking — is **byte-identical** to the unsharded engine for
    /// any shard count, by construction: shards own disjoint link
    /// ranges, and the coordinator grafts their completions back in
    /// active-list order before anything order-sensitive happens (see
    /// the `shard` module). Rounds with fewer active links than
    /// [`mwc_par::shard_threshold`] run sequentially; the threshold is
    /// pure scheduling policy.
    pub fn new_sharded(graph: &Graph, shards: usize) -> Self
    where
        M: Send,
    {
        let mut net = Self::new(graph);
        let degrees: Vec<usize> = net.out_links.iter().map(Vec::len).collect();
        let plan = crate::shard::ShardPlan::new(&degrees, shards);
        if plan.shards() > 1 {
            net.sharding = Some(Box::new(crate::shard::Sharding::new(plan)));
        }
        net
    }

    /// The shard count this network was built with (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.sharding.as_ref().map_or(1, |s| s.plan.shards())
    }

    /// The network's sequence number in the message-event log, if logging
    /// was active when it was built.
    pub fn events_net(&self) -> Option<u64> {
        self.events_net
    }

    /// Records a `(round, words)` timeline entry for every non-quiet
    /// round, readable from [`NetStats::words_per_round`]. Off by default
    /// (costs memory proportional to active rounds).
    pub fn enable_history(&mut self) {
        self.history = true;
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round (rounds completed so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The directed communication links as `(from, to)` pairs, parallel to
    /// [`NetStats::per_link_words`].
    pub fn link_ends(&self) -> &[(NodeId, NodeId)] {
        &self.link_ends
    }

    /// Sum of words that crossed between the two sides of a node
    /// partition; `side[v]` is `v`'s side. Used by the two-party
    /// communication harness.
    pub fn words_across(&self, side: &[bool]) -> u64 {
        self.link_ends
            .iter()
            .zip(&self.stats.per_link_words)
            .filter(|((u, v), _)| side[*u] != side[*v])
            .map(|(_, w)| *w)
            .sum()
    }

    /// The directed link id for `from → to`, if the nodes are adjacent.
    /// Ids index [`NetStats::per_link_words`] / [`Network::link_ends`] and
    /// can be fed to [`Network::send_on_link`] to skip the per-send
    /// neighbor lookup in tight flooding loops.
    pub fn link_id(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let links = &self.out_links[from];
        links
            .binary_search_by_key(&to, |&(nb, _)| nb)
            .ok()
            .map(|i| links[i].1)
    }

    /// Enqueues a `words`-word message from `from` to its neighbor `to`.
    /// Transfer begins on the next [`Network::step`]; delivery happens
    /// after `words` rounds of link occupancy (FIFO behind earlier
    /// messages).
    ///
    /// # Errors
    ///
    /// [`SendError::NoLink`] if the nodes are not adjacent in the
    /// communication topology.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        words: u64,
    ) -> Result<(), SendError> {
        self.send_latency(from, to, payload, words, 0)
    }

    /// Like [`Network::send`] with an extra delivery latency of `latency`
    /// rounds after the last word leaves the link (stretched-edge
    /// traversal). Messages pipeline: the link is free for the next
    /// message while earlier ones are "in flight".
    ///
    /// # Errors
    ///
    /// [`SendError::NoLink`] if the nodes are not adjacent.
    pub fn send_latency(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        words: u64,
        latency: u64,
    ) -> Result<(), SendError> {
        let l = self
            .link_id(from, to)
            .ok_or(SendError::NoLink { from, to })?;
        self.send_on_link(l, payload, words, latency);
        Ok(())
    }

    /// [`Network::send_latency`] addressed by link id instead of endpoint
    /// pair — the flooding primitives resolve each node's links once with
    /// [`Network::link_id`] and then enqueue millions of one-word
    /// announcements without re-searching the adjacency every time.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a valid link id for this network.
    pub fn send_on_link(&mut self, l: usize, payload: M, words: u64, latency: u64) {
        let words = words.max(1);
        if words > 1 {
            self.any_multiword = true;
        }
        self.queues[l].push_back(InFlight {
            payload,
            words,
            words_left: words,
            latency,
        });
        // A queue's depth peaks immediately after a push, so send time is
        // the only point the high-water can move.
        let depth = self.queues[l].len() as u64;
        if depth > self.stats.queue_high_water {
            self.stats.queue_high_water = depth;
        }
        if !self.active_flag[l] {
            self.active_flag[l] = true;
            self.active.push(l);
        }
    }

    /// Schedules `node` to be woken at the end of round `round` (must be
    /// in the future). Fires as part of that round's [`RoundOutput`].
    pub fn schedule_wakeup(&mut self, round: u64, node: NodeId) {
        debug_assert!(round > self.round, "wakeup must be scheduled in the future");
        self.wakeups.push(Reverse((round, node)));
    }

    /// `true` if no traffic is queued, in flight, or scheduled.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.transit.is_empty() && self.wakeups.is_empty()
    }

    /// The round at which something next happens, if anything is pending.
    fn next_event_round(&self) -> Option<u64> {
        let mut next = None;
        if !self.active.is_empty() {
            next = Some(self.round + 1);
        }
        if let Some(Reverse((r, _, _))) = self.transit.peek() {
            next = Some(next.map_or(*r, |n: u64| n.min(*r)));
        }
        if let Some(Reverse((r, _))) = self.wakeups.peek() {
            next = Some(next.map_or(*r, |n: u64| n.min(*r)));
        }
        next
    }

    /// Completes a message whose last word left its link this round:
    /// counts it, logs it, and either delivers it now (zero latency) or
    /// parks it in transit until its latency expires. Shared by the
    /// sequential transfer loop and the sharded graft so message
    /// accounting, event emission, and transit sequence assignment have
    /// exactly one code path.
    fn finish_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: M,
        words: u64,
        latency: u64,
        out: &mut RoundOutput<M>,
    ) {
        let delivery = Delivery { from, to, payload };
        if latency == 0 {
            self.stats.messages += 1;
            if let Some(net) = self.events_net {
                crate::events::emit_msg(net, self.round, from, to, words);
            }
            out.deliveries.push(delivery);
        } else {
            let seq = self.transit_seq;
            self.transit_seq += 1;
            let slot = match self.transit_free.pop() {
                Some(s) => {
                    self.transit_msgs[s as usize] = Some((delivery, words));
                    s
                }
                None => {
                    self.transit_msgs.push(Some((delivery, words)));
                    (self.transit_msgs.len() - 1) as u32
                }
            };
            self.transit
                .push(Reverse((self.round + latency, seq, slot)));
        }
    }

    /// Advances the network to the next round in which something happens,
    /// executes that round, and fills `out` (cleared first, its buffers
    /// reused) with what the nodes observe at its end. Returns `false`,
    /// leaving `out` cleared, when the network is idle.
    ///
    /// This is the engine's only way to advance. Rounds in which nothing
    /// can be observed are not executed one by one, but the round counter
    /// and every statistic still count them:
    ///
    /// - a **quiet gap**, in which no link transfers and only in-transit
    ///   messages or wakeups are pending, is jumped over;
    /// - inside **multi-word runs**, when no delivery, transit expiry or
    ///   wakeup can fire before round `r + k`, every active link advances
    ///   `k - 1` words in one pass, with [`NetStats`] (words, per-link
    ///   words, active rounds, peak round, `words_per_round` history)
    ///   updated in closed form. During those rounds the active-link set
    ///   cannot change (no head finishes, by the choice of `k`), every
    ///   round transfers exactly `active.len()` words, and nothing is
    ///   delivered, so there is no event to log. The `O(active)` lookahead
    ///   runs only once the network has carried a multi-word message.
    ///
    /// Everything observable — `out`, every `NetStats` field, the
    /// message-event log — is bit-identical to executing each round in
    /// turn. To act at a given round without a message, schedule a wakeup
    /// ([`Network::schedule_wakeup`]): the advance stops there.
    pub fn step(&mut self, out: &mut RoundOutput<M>) -> bool {
        let Some(next) = self.next_event_round() else {
            out.deliveries.clear();
            out.wakeups.clear();
            return false;
        };
        if next > self.round + 1 {
            // Quiet gap: nothing is transferring; jump to the event.
            self.round = next - 1;
        } else if self.any_multiword && !self.active.is_empty() {
            // k = number of rounds until *any* observable event: the
            // earliest head completion, transit expiry, or wakeup.
            let mut k = u64::MAX;
            for &l in &self.active {
                let head = self.queues[l].front().expect("active links have traffic");
                k = k.min(head.words_left);
            }
            if let Some(Reverse((r, _, _))) = self.transit.peek() {
                k = k.min(r - self.round);
            }
            if let Some(Reverse((r, _))) = self.wakeups.peek() {
                k = k.min(r - self.round);
            }
            if k > 1 {
                // No send happens while skipping, and `send_on_link`
                // maintains the queue high-water, so it cannot move.
                let skipped = k - 1;
                self.charge_rounds(self.round + 1, skipped, self.active.len() as u64);
                let engaged = self
                    .sharding
                    .as_ref()
                    .is_some_and(|sh| sh.engaged(self.active.len()));
                if engaged {
                    let mut sh = self.sharding.take().expect("engaged sharding present");
                    let active = std::mem::take(&mut self.active);
                    sh.bulk_skip(
                        &active,
                        &mut self.queues,
                        &mut self.stats.per_link_words,
                        skipped,
                    );
                    self.active = active;
                    self.sharding = Some(sh);
                } else {
                    for &l in &self.active {
                        let head = self.queues[l].front_mut().expect("active");
                        head.words_left -= skipped;
                        self.stats.per_link_words[l] += skipped;
                    }
                }
                self.round += skipped;
            }
        }
        self.execute_round(out);
        true
    }

    /// The single-round tail of [`Network::step`]: transfers one word on
    /// every active link, then delivers expired transit and fires due
    /// wakeups.
    fn execute_round(&mut self, out: &mut RoundOutput<M>) {
        out.deliveries.clear();
        out.wakeups.clear();
        self.round += 1;

        // Transfer one word on every active link.
        self.charge_rounds(self.round, 1, self.active.len() as u64);
        let mut still_active = std::mem::take(&mut self.scratch_active);
        still_active.clear();
        let active = std::mem::take(&mut self.active);
        let engaged = self
            .sharding
            .as_ref()
            .is_some_and(|sh| sh.engaged(active.len()));
        if engaged {
            // Sharded round: workers transfer words on disjoint link
            // ranges; the coordinator grafts completions back in active
            // order so everything order-sensitive below is bit-identical
            // to the sequential loop. (The sharding state is taken out of
            // `self` for the duration so the worker slices and the graft
            // can borrow disjoint parts of the engine.)
            let mut sh = self.sharding.take().expect("engaged sharding present");
            sh.transfer_round(&active, &mut self.queues, &mut self.stats.per_link_words);
            for c in sh.merged.drain(..) {
                let (from, to) = self.link_ends[c.link as usize];
                self.finish_message(from, to, c.payload, c.words, c.latency, out);
            }
            self.sharding = Some(sh);
            for &l in &active {
                if self.queues[l].is_empty() {
                    self.active_flag[l] = false;
                } else {
                    still_active.push(l);
                }
            }
        } else {
            for &l in &active {
                let q = &mut self.queues[l];
                let head = q.front_mut().expect("active links have queued traffic");
                head.words_left -= 1;
                self.stats.per_link_words[l] += 1;
                if head.words_left == 0 {
                    let msg = q.pop_front().expect("head exists");
                    let (from, to) = self.link_ends[l];
                    self.finish_message(from, to, msg.payload, msg.words, msg.latency, out);
                }
                if self.queues[l].is_empty() {
                    self.active_flag[l] = false;
                } else {
                    still_active.push(l);
                }
            }
        }
        self.active = still_active;
        self.scratch_active = active;

        // Deliver messages whose latency expired.
        while let Some(Reverse((r, _, slot))) = self.transit.peek().copied() {
            if r > self.round {
                break;
            }
            self.transit.pop();
            let (msg, words) = self.transit_msgs[slot as usize]
                .take()
                .expect("transit message exists");
            self.transit_free.push(slot);
            self.stats.messages += 1;
            if let Some(net) = self.events_net {
                crate::events::emit_msg(net, self.round, msg.from, msg.to, words);
            }
            out.deliveries.push(msg);
        }

        // Fire wakeups.
        while let Some(Reverse((r, node))) = self.wakeups.peek().copied() {
            if r > self.round {
                break;
            }
            self.wakeups.pop();
            out.wakeups.push(node);
        }
    }

    /// Charges `count` consecutive rounds from round `first` on, each
    /// transferring `per_round` words: words, active rounds, the
    /// first-reach peak (strict `>`: the earliest round wins ties) and the
    /// optional history. Every advancement path charges its transfers
    /// here and nowhere else. A round that moves no word is quiet.
    fn charge_rounds(&mut self, first: u64, count: u64, per_round: u64) {
        if per_round == 0 {
            return;
        }
        self.stats.words += count * per_round;
        self.stats.active_rounds += count;
        if per_round > self.stats.max_words_in_round {
            self.stats.max_words_in_round = per_round;
            self.stats.peak_round = first;
        }
        if self.history {
            self.stats
                .words_per_round
                .extend((first..first + count).map(|r| (r, per_round)));
        }
    }

    /// Charges one bitset-flood send over link `l` at send time: the
    /// link's transferred word — the per-link half of what
    /// [`Network::send_on_link`] plus the [`Network::step`] that moves
    /// the word would record. In the flood primitives each directed link
    /// has a single sender, and a node forwards at most one announcement
    /// per round, so a link carries at most one word per round and its
    /// queue never holds more than one. The round itself is closed by
    /// [`Network::charge_flood_round`], which every round with a send
    /// reaches.
    #[inline]
    pub(crate) fn charge_flood_link(&mut self, l: u32) {
        self.stats.per_link_words[l as usize] += 1;
    }

    /// Charges round `round` of a bitset flood without touching the queue
    /// machinery. `round` may jump ahead over quiet rounds, like
    /// [`Network::step`]. `transferred` is the number of one-word
    /// transfers this round, whose links [`Network::charge_flood_link`]
    /// has already charged. `delivered` are the links whose messages
    /// *arrive* this round, in delivery order: a send with latency `ℓ`
    /// transfers now but arrives `ℓ` rounds later, so the flood kernel
    /// passes its zero-latency sends first, in send order, then this
    /// round's [`crate::flood::CalendarRing`] expiries — the scalar engine
    /// delivers same-round completions before transit expiries.
    ///
    /// Together with the per-send link charges, reproduces, stat for stat
    /// and event for event, what [`Network::send_on_link`] + one
    /// [`Network::step`] per charged round would record for that traffic
    /// pattern: the round's transfer stats (words, the queue high-water
    /// at depth 1, active rounds, first-reach peak tracking, the optional
    /// per-round history) are charged only when
    /// `transferred > 0` — a pure-arrival round is a quiet round that
    /// moves no words, matching an engine step whose active set is empty —
    /// while the message count and the message events follow `delivered`.
    /// This is what lets the bitset flood kernel ([`crate::flood`]) bypass
    /// per-message queueing while staying byte-identical to the
    /// engine-stepped scalar kernel in every ledger count, congestion
    /// profile, and event log. A round with neither transfers nor arrivals
    /// advances the round and records nothing, exactly like a
    /// [`Network::step`] that a wakeup stops with no link active (source
    /// detection charges such rounds when every popped announcement is
    /// filtered by the distance budget).
    pub(crate) fn charge_flood_round(
        &mut self,
        round: u64,
        transferred: u64,
        delivered: impl ExactSizeIterator<Item = u32>,
    ) {
        debug_assert!(round > self.round, "flood rounds advance monotonically");
        self.round = round;
        self.charge_rounds(round, 1, transferred);
        if transferred > 0 && self.stats.queue_high_water < 1 {
            self.stats.queue_high_water = 1;
        }
        self.stats.messages += delivered.len() as u64;
        if let Some(net) = self.events_net {
            for l in delivered {
                let (from, to) = self.link_ends[l as usize];
                crate::events::emit_msg(net, self.round, from, to, 1);
            }
        }
    }

    /// Charges a complete **pipelined tree downcast** in closed form: the
    /// root streams `m` messages of `w` words each down every tree edge,
    /// and every internal node forwards each message to its children the
    /// round it arrives (the [`crate::broadcast`] downcast loop). The
    /// schedule is fully determined: the pipeline saturates, so the link
    /// into a depth-`d` node transfers continuously during rounds
    /// `w·(d-1)+1 ..= w·(d+m-1)` and delivers message `i` at round
    /// `w·(i+d)`.
    ///
    /// `links` are the tree links as `(link id, depth of the child
    /// endpoint)` in **BFS order** (depth ascending, siblings in
    /// `children[]` order) — exactly the order the engine-stepped loop's
    /// active list settles into, so the event log comes out in the same
    /// order. Reproduces what per-message [`Network::send`] +
    /// [`Network::step`] would record, stat for stat: the queue
    /// high-water `m` (the root enqueues everything up front), every
    /// per-round transfer count, the first-reach peak round, the optional
    /// history, and one message event per delivery. A no-op when `m == 0`
    /// or `links` is empty, matching an engine run with nothing to send.
    pub(crate) fn charge_pipelined_downcast(&mut self, links: &[(u32, u32)], m: u64, w: u64) {
        debug_assert_eq!(self.round, 0, "downcast runs on a fresh network");
        if m == 0 || links.is_empty() {
            return;
        }
        let w = w.max(1);
        let height = links.iter().map(|&(_, d)| d).max().expect("nonempty") as u64;
        debug_assert!(links.windows(2).all(|p| p[0].1 <= p[1].1), "BFS order");
        // Per-link totals, plus nodes-per-depth for the per-round
        // transfer counts below.
        let mut cnt = vec![0u64; height as usize + 1];
        for &(l, d) in links {
            cnt[d as usize] += 1;
            self.stats.per_link_words[l as usize] += m * w;
        }
        if self.stats.queue_high_water < m {
            self.stats.queue_high_water = m;
        }
        let mut prefix = vec![0u64; height as usize + 1];
        for d in 1..=height as usize {
            prefix[d] = prefix[d - 1] + cnt[d];
        }
        // Transfer stats round by round: at round r the busy links are
        // those whose transfer window covers r, i.e. child depths in
        // [ceil(r/w) - (m-1), (r-1)/w + 1] clipped to [1, height].
        let total_rounds = w * (height + m - 1);
        for r in 1..=total_rounds {
            let d_max = ((r - 1) / w + 1).min(height) as usize;
            let d_min = (r.div_ceil(w).saturating_sub(m - 1)).max(1) as usize;
            let transferred = prefix[d_max] - prefix[d_min - 1];
            debug_assert!(transferred > 0, "the pipeline never idles mid-stream");
            self.charge_rounds(r, 1, transferred);
        }
        self.round = total_rounds;
        self.stats.messages += m * links.len() as u64;
        if let Some(net) = self.events_net {
            // Delivery rounds are the multiples of `w`: at r = w·t the
            // links with child depth in [t-m+1, t] each deliver one
            // message, in BFS order (depth-ascending, the engine's
            // active-list order).
            for t in 1..=(height + m - 1) {
                let d_max = t.min(height);
                let d_min = t.saturating_sub(m - 1).max(1);
                for &(l, d) in links {
                    let d = d as u64;
                    if d >= d_min && d <= d_max {
                        let (from, to) = self.link_ends[l as usize];
                        crate::events::emit_msg(net, w * t, from, to, w);
                    }
                }
            }
        }
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("n", &self.n)
            .field("round", &self.round)
            .field("links", &self.link_ends.len())
            .field("words", &self.stats.words)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::Orientation;

    fn path3() -> Graph {
        Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap()
    }

    /// One [`Network::step`] on a network with pending work.
    fn step(net: &mut Network<u32>) -> RoundOutput<u32> {
        let mut out = RoundOutput::default();
        assert!(net.step(&mut out), "network has pending work");
        out
    }

    /// Steps `net` until it is idle.
    fn run_to_idle(net: &mut Network<u32>) {
        let mut out = RoundOutput::default();
        while net.step(&mut out) {}
    }

    #[test]
    fn single_word_takes_one_round() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 7, 1).unwrap();
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].from, 0);
        assert_eq!(out.deliveries[0].to, 1);
        assert_eq!(out.deliveries[0].payload, 7);
        assert_eq!(net.round(), 1);
        assert!(net.is_idle());
    }

    #[test]
    fn multi_word_message_occupies_link() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 3).unwrap();
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(net.round(), 3);
        assert_eq!(net.stats().words, 3);
    }

    #[test]
    fn fifo_per_link() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 10, 1).unwrap();
        net.send(0, 1, 20, 1).unwrap();
        assert_eq!(step(&mut net).deliveries[0].payload, 10);
        assert_eq!(step(&mut net).deliveries[0].payload, 20);
        assert_eq!(net.round(), 2);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 0, 2, 1).unwrap();
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 2);
        assert_eq!(net.round(), 1);
    }

    #[test]
    fn directed_graph_links_are_bidirectional() {
        let g = Graph::from_edges(2, Orientation::Directed, [(0, 1, 1)]).unwrap();
        let mut net: Network<u32> = Network::new(&g);
        // Message against the edge orientation is fine: links are
        // bidirectional in CONGEST.
        net.send(1, 0, 5, 1).unwrap();
        assert_eq!(step(&mut net).deliveries.len(), 1);
    }

    #[test]
    fn send_to_non_neighbor_fails() {
        let mut net: Network<u32> = Network::new(&path3());
        assert_eq!(
            net.send(0, 2, 9, 1),
            Err(SendError::NoLink { from: 0, to: 2 })
        );
    }

    #[test]
    fn latency_delays_delivery_but_pipelines() {
        let mut net: Network<u32> = Network::new(&path3());
        // Two messages over a stretched edge of length 4 (latency 3):
        // arrivals at rounds 4 and 5 — pipelined, not serialized to 8.
        net.send_latency(0, 1, 1, 1, 3).unwrap();
        net.send_latency(0, 1, 2, 1, 3).unwrap();
        let mut arrivals = Vec::new();
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            for d in out.deliveries.drain(..) {
                arrivals.push((net.round(), d.payload));
            }
        }
        assert_eq!(arrivals, vec![(4, 1), (5, 2)]);
    }

    #[test]
    fn step_jumps_quiet_rounds_but_counts_them() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send_latency(0, 1, 1, 1, 9).unwrap();
        // Word leaves at round 1; arrival at round 10.
        let out = step(&mut net);
        assert!(out.deliveries.is_empty());
        assert_eq!(net.round(), 1);
        let out = step(&mut net);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(net.round(), 10);
        assert!(!net.step(&mut RoundOutput::default()));
    }

    #[test]
    fn wakeups_fire_at_their_round() {
        let mut net: Network<u32> = Network::new(&path3());
        net.schedule_wakeup(5, 2);
        net.schedule_wakeup(5, 0);
        net.schedule_wakeup(3, 1);
        let out = step(&mut net);
        assert_eq!(net.round(), 3);
        assert_eq!(out.wakeups, vec![1]);
        let out = step(&mut net);
        assert_eq!(net.round(), 5);
        let mut w = out.wakeups.clone();
        w.sort_unstable();
        assert_eq!(w, vec![0, 2]);
    }

    #[test]
    fn stats_count_words_and_cut() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 2).unwrap();
        net.send(2, 1, 1, 1).unwrap();
        run_to_idle(&mut net);
        assert_eq!(net.stats().words, 3);
        assert_eq!(net.stats().messages, 2);
        // Partition {0} vs {1,2}: only the 2-word message crosses.
        assert_eq!(net.words_across(&[true, false, false]), 2);
        assert_eq!(net.words_across(&[true, true, false]), 1);
    }

    #[test]
    fn history_records_congestion_timeline() {
        let mut net: Network<u32> = Network::new(&path3());
        net.enable_history();
        net.send(0, 1, 1, 2).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        run_to_idle(&mut net);
        // Round 1: both links busy (2 words); round 2: only 0→1 (1 word).
        assert_eq!(net.stats().words_per_round, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn peak_round_is_the_earliest_max_round() {
        let mut net: Network<u32> = Network::new(&path3());
        // Rounds 1 and 2 move 2 words each (a tie), round 3 moves 1: the
        // peak round must stay at 1.
        net.send(0, 1, 1, 2).unwrap();
        net.send(1, 2, 2, 2).unwrap();
        run_to_idle(&mut net);
        assert_eq!(net.round(), 2);
        net.send(0, 1, 3, 1).unwrap();
        step(&mut net);
        assert_eq!(net.stats().max_words_in_round, 2);
        assert_eq!(net.stats().peak_round, 1);
    }

    #[test]
    fn events_log_deliveries_with_rounds_and_words() {
        let cap = crate::events::EventCapture::memory();
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 7, 2).unwrap();
        net.send_latency(1, 2, 8, 1, 3).unwrap();
        run_to_idle(&mut net);
        let lines = cap.finish();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"msg","net":0,"round":2,"from":0,"to":1,"words":2}"#,
                r#"{"ev":"msg","net":0,"round":4,"from":1,"to":2,"words":1}"#,
            ]
        );
    }

    #[test]
    fn zero_word_send_is_clamped_to_one() {
        let mut net: Network<u32> = Network::new(&path3());
        net.send(0, 1, 1, 0).unwrap();
        assert_eq!(step(&mut net).deliveries.len(), 1);
    }

    /// Loads `net` with a mixed workload: multi-word, latency, and
    /// plain-word traffic plus wakeups (nodes 0 and 2, never node 1).
    fn mixed_load(net: &mut Network<u32>) {
        net.send(0, 1, 1, 5).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        net.send_latency(1, 2, 3, 4, 3).unwrap();
        net.send(2, 1, 4, 2).unwrap();
        net.schedule_wakeup(2, 0);
        net.schedule_wakeup(9, 2);
    }

    /// Advances exactly one round through the public API: a wakeup at
    /// `round() + 1` on node 1, which `mixed_load` never wakes, stops the
    /// step there and is dropped from the output.
    fn one_round(net: &mut Network<u32>, out: &mut RoundOutput<u32>) -> bool {
        if net.is_idle() {
            return false;
        }
        net.schedule_wakeup(net.round() + 1, 1);
        net.step(out);
        out.wakeups.retain(|&v| v != 1);
        true
    }

    /// Drains `net` with `advance`, recording `(round, deliveries,
    /// wakeups)` per non-empty output.
    fn drain(
        net: &mut Network<u32>,
        advance: fn(&mut Network<u32>, &mut RoundOutput<u32>) -> bool,
    ) -> Vec<(u64, Vec<(NodeId, NodeId, u32)>, Vec<NodeId>)> {
        let mut log = Vec::new();
        let mut out = RoundOutput::default();
        while advance(net, &mut out) {
            if !out.deliveries.is_empty() || !out.wakeups.is_empty() {
                let ds = out
                    .deliveries
                    .iter()
                    .map(|d| (d.from, d.to, d.payload))
                    .collect();
                log.push((net.round(), ds, out.wakeups.clone()));
            }
        }
        log
    }

    #[test]
    fn bulk_step_skips_rounds_inside_long_messages() {
        let mut net: Network<u32> = Network::new(&path3());
        net.enable_history();
        net.send(0, 1, 7, 100).unwrap();
        let mut calls = 0;
        let mut out = RoundOutput::default();
        while net.step(&mut out) {
            calls += 1;
        }
        // One call covers rounds 1..=100; the message arrives at 100.
        assert_eq!(calls, 1);
        assert_eq!(net.round(), 100);
        assert_eq!(net.stats().words, 100);
        assert_eq!(net.stats().active_rounds, 100);
        assert_eq!(net.stats().max_words_in_round, 1);
        assert_eq!(net.stats().peak_round, 1);
        let history: Vec<(u64, u64)> = (1..=100).map(|r| (r, 1)).collect();
        assert_eq!(net.stats().words_per_round, history);
    }

    #[test]
    fn bulk_step_peak_round_ties_break_earliest() {
        let mut net: Network<u32> = Network::new(&path3());
        // Two links active for 4 rounds (bulk), then one for 2 more.
        net.send(0, 1, 1, 4).unwrap();
        net.send(1, 2, 2, 6).unwrap();
        run_to_idle(&mut net);
        assert_eq!(net.stats().max_words_in_round, 2);
        assert_eq!(net.stats().peak_round, 1);
        assert_eq!(net.stats().words, 10);
    }

    /// A sharded clone of `path3` with the engagement threshold forced to
    /// 0 so even 2-link rounds take the parallel path.
    fn sharded_path3(shards: usize) -> Network<u32> {
        let mut net: Network<u32> = Network::new_sharded(&path3(), shards);
        if let Some(sh) = net.sharding.as_mut() {
            sh.force_threshold(0);
        }
        net
    }

    #[test]
    fn sharded_round_is_bit_identical_to_sequential() {
        let mut seq: Network<u32> = Network::new(&path3());
        let mut par = sharded_path3(2);
        assert_eq!(par.shards(), 2);
        seq.enable_history();
        par.enable_history();
        mixed_load(&mut seq);
        mixed_load(&mut par);
        let seq_log = drain(&mut seq, one_round);
        let par_log = drain(&mut par, one_round);
        assert_eq!(seq_log, par_log);
        assert_eq!(seq.round(), par.round());
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn sharded_bulk_step_is_bit_identical_to_sequential_bulk() {
        let mut seq: Network<u32> = Network::new(&path3());
        let mut par = sharded_path3(3);
        seq.enable_history();
        par.enable_history();
        mixed_load(&mut seq);
        mixed_load(&mut par);
        let seq_log = drain(&mut seq, Network::step);
        let par_log = drain(&mut par, Network::step);
        assert_eq!(seq_log, par_log);
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn sharded_event_log_matches_sequential() {
        let run = |shards: usize| {
            let cap = crate::events::EventCapture::memory();
            let mut net = if shards > 1 {
                sharded_path3(shards)
            } else {
                Network::new(&path3())
            };
            mixed_load(&mut net);
            run_to_idle(&mut net);
            cap.finish()
        };
        let baseline = run(1);
        assert!(!baseline.is_empty());
        assert_eq!(run(2), baseline);
        assert_eq!(run(3), baseline);
    }
}
