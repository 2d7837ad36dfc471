//! Round accounting across algorithm phases.
//!
//! The paper's algorithms are sequences of phases (sampling, multi-source
//! BFS, broadcasts, restricted BFS, convergecast, …), each simulated on its
//! own [`Network`](crate::Network) instance over the same topology. A
//! [`Ledger`] accumulates the round/word/message counts of those phases so
//! an end-to-end algorithm reports one total, with a per-phase breakdown
//! for the benchmark tables.

use crate::engine::{NetStats, Network};
use crate::shard::ShardProfile;
use mwc_graph::NodeId;
use std::fmt;

/// How many hot links [`Ledger::congestion_summary`] reports.
const SUMMARY_HOT_LINKS: usize = 3;

/// One accounted phase of a distributed algorithm: a label and the cost
/// of the network it ran on (zero for a [`Ledger::note`]).
#[derive(Clone, Debug)]
pub struct Phase {
    /// Human-readable phase name (e.g. `"h-hop BFS from S"`).
    pub label: String,
    /// Rounds the phase took.
    pub rounds: u64,
    /// Words it moved.
    pub words: u64,
}

/// The four whole-run congestion scalars [`Ledger::congestion_summary`]
/// reports, folded at every [`Ledger::absorb`] and [`Ledger::merge`].
#[derive(Clone, Copy, Debug, Default)]
struct Congestion {
    active_rounds: u64,
    max_words_in_round: u64,
    /// Global round (phase offsets applied) at which the peak was first
    /// reached.
    peak_round: u64,
    queue_high_water: u64,
}

impl Congestion {
    fn of(stats: &NetStats) -> Congestion {
        Congestion {
            active_rounds: stats.active_rounds,
            max_words_in_round: stats.max_words_in_round,
            peak_round: stats.peak_round,
            queue_high_water: stats.queue_high_water,
        }
    }

    /// Folds in the congestion of rounds that ran after the first
    /// `offset` rounds. Active rounds add up and queue peaks take the max
    /// (each phase runs its own network, so depths never stack); the
    /// strict `>` keeps the earliest peak on ties.
    fn fold(&mut self, offset: u64, later: Congestion) {
        self.active_rounds += later.active_rounds;
        if later.max_words_in_round > self.max_words_in_round {
            self.max_words_in_round = later.max_words_in_round;
            self.peak_round = offset + later.peak_round;
        }
        self.queue_high_water = self.queue_high_water.max(later.queue_high_water);
    }
}

/// Accumulated cost of a distributed computation.
///
/// # Examples
///
/// ```
/// use mwc_congest::{Ledger, Network, RoundOutput};
/// use mwc_graph::{Graph, Orientation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)])?;
/// let mut ledger = Ledger::new();
/// let mut net: Network<u8> = Network::new(&g);
/// net.send(0, 1, 42, 1)?;
/// net.step(&mut RoundOutput::default());
/// ledger.absorb("hello", &net);
/// assert_eq!(ledger.rounds, 1);
/// assert_eq!(ledger.phases.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Total rounds across phases (phases run sequentially).
    pub rounds: u64,
    /// Total words moved.
    pub words: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Rounds the phase cache avoided re-charging (cached BFS trees,
    /// reused latency tables). Not part of `rounds`; purely an audit trail
    /// so cache hits stay visible in reports and diffs.
    pub rounds_saved: u64,
    /// Phase breakdown, in execution order.
    pub phases: Vec<Phase>,
    link_ends: Vec<(NodeId, NodeId)>,
    per_link_words: Vec<u64>,
    congestion: Congestion,
    /// Concatenated congestion timeline: `(global round, words)` across all
    /// absorbed phases, with each phase's rounds offset so the timeline is
    /// monotone. Only populated for phases whose network had
    /// [`Network::enable_history`](crate::Network::enable_history) on.
    words_per_round: Vec<(u64, u64)>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Adds the cost of a finished phase simulated on `net`.
    ///
    /// The `mwc_trace::add_cost` call below charges the phase's simulated
    /// rounds/words/messages to the **innermost open span** on this
    /// thread. Wall-clock and allocation profiling in `mwc-trace` use the
    /// same attribution model: interval marks at every span open/close
    /// charge the elapsed wall-nanoseconds and allocator traffic since
    /// the last boundary to the innermost span, so a span's self-cost in
    /// all five metrics means "what happened while this span was the
    /// deepest one open". The difference is only *when* the charge lands:
    /// simulated cost arrives in one lump here at absorb time, while
    /// wall/alloc accrue continuously at span boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `net` was built over a different topology than earlier
    /// absorbed phases (the per-link tables would not line up).
    pub fn absorb<M>(&mut self, label: &str, net: &Network<M>) {
        let stats = net.stats();
        let offset = self.rounds;
        self.rounds += net.round();
        self.words += stats.words;
        self.messages += stats.messages;
        mwc_trace::add_cost(net.round(), stats.words, stats.messages);
        if let Some(id) = net.events_net() {
            crate::events::emit_phase(id, label, offset, net.round(), stats.words, stats.messages);
        }
        self.phases.push(Phase {
            label: label.to_owned(),
            rounds: net.round(),
            words: stats.words,
        });
        self.congestion.fold(offset, Congestion::of(stats));
        self.words_per_round
            .extend(stats.words_per_round.iter().map(|&(r, w)| (offset + r, w)));
        self.add_link_words(net.link_ends(), &stats.per_link_words);
    }

    /// Merges another ledger (e.g. a subroutine's) into this one. The
    /// other's phases are treated as running after this ledger's (their
    /// congestion timeline and peak round shift by this ledger's rounds).
    pub fn merge(&mut self, other: &Ledger) {
        let offset = self.rounds;
        self.rounds += other.rounds;
        self.words += other.words;
        self.messages += other.messages;
        self.rounds_saved += other.rounds_saved;
        self.phases.extend(other.phases.iter().cloned());
        self.congestion.fold(offset, other.congestion);
        self.words_per_round
            .extend(other.words_per_round.iter().map(|&(r, w)| (offset + r, w)));
        self.add_link_words(&other.link_ends, &other.per_link_words);
    }

    /// Adds per-link words over `link_ends`; the first non-empty table
    /// fixes the ledger's topology.
    fn add_link_words(&mut self, link_ends: &[(NodeId, NodeId)], per_link_words: &[u64]) {
        if self.link_ends.is_empty() {
            self.link_ends = link_ends.to_vec();
            self.per_link_words = per_link_words.to_vec();
        } else if !link_ends.is_empty() {
            assert_eq!(
                self.link_ends.len(),
                link_ends.len(),
                "ledger phases must share one topology"
            );
            for (acc, w) in self.per_link_words.iter_mut().zip(per_link_words) {
                *acc += w;
            }
        }
    }

    /// Appends a zero-cost phase that only carries `label` — an
    /// information line in the per-phase breakdown (a cache hit, a set
    /// size) with no network behind it.
    pub fn note(&mut self, label: impl Into<String>) {
        self.phases.push(Phase {
            label: label.into(),
            rounds: 0,
            words: 0,
        });
    }

    /// Records a phase-cache hit: a structure that would have cost
    /// `saved_rounds` was replayed instead of rebuilt. Adds a
    /// [`Ledger::note`] labeled `cached: <what> (saved N rounds)` so the
    /// reuse is visible in per-phase breakdowns, bumps
    /// [`Ledger::rounds_saved`], and attributes the saving to the open
    /// trace span. Totals (`rounds`/`words`/`messages`) are untouched — a
    /// real CONGEST execution pays for the structure exactly once.
    pub fn credit_cached(&mut self, what: &str, saved_rounds: u64) {
        self.rounds_saved += saved_rounds;
        mwc_trace::add_saved(saved_rounds);
        self.note(format!("cached: {what} (saved {saved_rounds} rounds)"));
    }

    /// The concatenated `(global round, words)` congestion timeline across
    /// all absorbed phases whose network had history enabled. Empty when no
    /// phase recorded history.
    pub fn words_per_round(&self) -> &[(u64, u64)] {
        &self.words_per_round
    }

    /// The `k` most-loaded directed links across all absorbed phases, as
    /// `((from, to), words)` heaviest first. The order is a total order —
    /// load descending, then `(from, to)` ascending — so manifests and
    /// diffs can never flake on ties.
    pub fn hot_links(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        top_links(&self.link_ends, &self.per_link_words, k)
    }

    /// The whole-run [`ShardProfile`]: the accumulated per-link words
    /// folded over the canonical
    /// [`PROFILE_SHARDS`](crate::PROFILE_SHARDS)-way partition.
    /// Deterministic for any execution shard count.
    pub fn shard_profile(&self) -> ShardProfile {
        ShardProfile::capture(&self.link_ends, &self.per_link_words)
    }

    /// Aggregates the ledger into the
    /// [`CongestionSummary`](mwc_trace::CongestionSummary) a
    /// [`RunRecord`](mwc_trace::RunRecord) carries: totals, the four
    /// congestion scalars folded at absorb/merge time (active rounds, peak
    /// load, the global round it was first reached at, queue high-water),
    /// the top three hot links, and the canonical per-shard word loads
    /// with their derived imbalance ratio.
    pub fn congestion_summary(&self, label: &str) -> mwc_trace::CongestionSummary {
        let shard = self.shard_profile();
        mwc_trace::CongestionSummary {
            label: label.to_owned(),
            rounds: self.rounds,
            words: self.words,
            messages: self.messages,
            rounds_saved: self.rounds_saved,
            active_rounds: self.congestion.active_rounds,
            max_words_in_round: self.congestion.max_words_in_round,
            peak_round: self.congestion.peak_round,
            queue_high_water: self.congestion.queue_high_water,
            hot_links: self
                .hot_links(SUMMARY_HOT_LINKS)
                .into_iter()
                .map(|((f, t), w)| (f as u64, t as u64, w))
                .collect(),
            shard_imbalance_milli: shard.imbalance_milli(),
            shard_words: shard.words,
        }
    }

    /// Total words that crossed the cut of a node partition (`side[v]` is
    /// `v`'s side), summed over all absorbed phases. Used by the
    /// lower-bound communication harness.
    pub fn words_across(&self, side: &[bool]) -> u64 {
        self.link_ends
            .iter()
            .zip(&self.per_link_words)
            .filter(|((u, v), _)| side[*u] != side[*v])
            .map(|(_, w)| *w)
            .sum()
    }
}

/// The `k` heaviest `(link, words)` pairs from a per-link load table.
///
/// The order is a *total* order — load descending, then `(from, to)`
/// ascending — never table or insertion order, so every hot-link report
/// is deterministic even on ties.
fn top_links(
    link_ends: &[(NodeId, NodeId)],
    per_link_words: &[u64],
    k: usize,
) -> Vec<((NodeId, NodeId), u64)> {
    let mut loaded: Vec<((NodeId, NodeId), u64)> = link_ends
        .iter()
        .copied()
        .zip(per_link_words.iter().copied())
        .filter(|&(_, w)| w > 0)
        .collect();
    loaded.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    loaded.truncate(k);
    loaded
}

impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total: {} rounds, {} words, {} messages",
            self.rounds, self.words, self.messages
        )?;
        if self.rounds_saved > 0 {
            writeln!(f, "cached: {} rounds saved", self.rounds_saved)?;
        }
        for p in &self.phases {
            writeln!(
                f,
                "  {:<40} {:>10} rounds {:>12} words",
                p.label, p.rounds, p.words
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::{Graph, Orientation};

    /// Steps `net` until it is idle.
    fn run_to_idle(net: &mut Network<u8>) {
        let mut out = crate::RoundOutput::default();
        while net.step(&mut out) {}
    }

    fn edge() -> Graph {
        Graph::from_edges(2, Orientation::Undirected, [(0, 1, 1)]).unwrap()
    }

    #[test]
    fn absorb_accumulates() {
        let g = edge();
        let mut ledger = Ledger::new();
        for i in 0..3u8 {
            let mut net: Network<u8> = Network::new(&g);
            net.send(0, 1, i, 2).unwrap();
            run_to_idle(&mut net);
            ledger.absorb("phase", &net);
        }
        assert_eq!(ledger.rounds, 6);
        assert_eq!(ledger.words, 6);
        assert_eq!(ledger.messages, 3);
        assert_eq!(ledger.phases.len(), 3);
    }

    #[test]
    fn cut_accounting_spans_phases() {
        let g = edge();
        let mut ledger = Ledger::new();
        for _ in 0..2 {
            let mut net: Network<u8> = Network::new(&g);
            net.send(1, 0, 0, 5).unwrap();
            run_to_idle(&mut net);
            ledger.absorb("phase", &net);
        }
        assert_eq!(ledger.words_across(&[true, false]), 10);
        assert_eq!(ledger.words_across(&[true, true]), 0);
    }

    #[test]
    fn display_renders_phases() {
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("hello phase", &net);
        let text = format!("{ledger}");
        assert!(text.contains("total: 1 rounds"));
        assert!(text.contains("hello phase"));
    }

    #[test]
    fn history_concatenates_with_round_offsets() {
        let g = edge();
        let mut ledger = Ledger::new();
        for _ in 0..2 {
            let mut net: Network<u8> = Network::new(&g);
            net.enable_history();
            net.send(0, 1, 7, 1).unwrap();
            net.send(1, 0, 8, 1).unwrap();
            run_to_idle(&mut net); // both link directions busy: 2 words
            net.send(0, 1, 9, 1).unwrap();
            run_to_idle(&mut net); // 1 word
            ledger.absorb("phase", &net);
        }
        // Each phase ran 2 rounds; the second phase's history must shift
        // by the first's 2 rounds.
        assert_eq!(ledger.words_per_round(), &[(1, 2), (2, 1), (3, 2), (4, 1)]);

        let mut other = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.enable_history();
        net.send(0, 1, 9, 1).unwrap();
        run_to_idle(&mut net);
        other.absorb("sub", &net);
        ledger.merge(&other);
        assert_eq!(ledger.words_per_round().last(), Some(&(5, 1)));
    }

    #[test]
    fn history_empty_without_enable() {
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("quiet", &net);
        assert!(ledger.words_per_round().is_empty());
    }

    #[test]
    fn congestion_summary_offsets_peak_round_and_breaks_ties_early() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut ledger = Ledger::new();
        // Phase 1: 1 round, 1 word — peak 1 at local round 1.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("light", &net);
        // Phase 2: local round 1 moves 2 words — new global peak at 1+1=2.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("heavy", &net);
        // Phase 3: ties the peak (2 words) — must NOT displace it.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(1, 2, 2, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("tie", &net);
        let s = ledger.congestion_summary("all");
        assert_eq!(s.rounds, 3);
        assert_eq!(s.words, 5);
        assert_eq!(s.max_words_in_round, 2);
        assert_eq!(s.peak_round, 2);
        assert_eq!(s.active_rounds, 3);
        assert_eq!(s.hot_links[0], (0, 1, 3));
    }

    #[test]
    fn absorb_emits_phase_event() {
        let cap = crate::events::EventCapture::memory();
        let g = edge();
        let mut ledger = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("p1", &net);
        let mut net: Network<u8> = Network::new(&g);
        net.send(1, 0, 2, 2).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("p2", &net);
        let lines = cap.finish();
        assert_eq!(
            lines,
            vec![
                r#"{"ev":"msg","net":0,"round":1,"from":0,"to":1,"words":1}"#,
                r#"{"ev":"phase","net":0,"label":"p1","offset":0,"rounds":1,"words":1,"messages":1}"#,
                r#"{"ev":"msg","net":1,"round":2,"from":1,"to":0,"words":2}"#,
                r#"{"ev":"phase","net":1,"label":"p2","offset":1,"rounds":2,"words":2,"messages":1}"#,
            ]
        );
    }

    #[test]
    fn shard_profile_aggregates_words_and_maxes_queue_highs() {
        let g = edge();
        let mut ledger = Ledger::new();
        // Phase 1: two messages queued on the same link → queue high 2.
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 1).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("deep", &net);
        // Phase 2: one message → queue high 1, two more words on 1->0.
        let mut net: Network<u8> = Network::new(&g);
        net.send(1, 0, 3, 2).unwrap();
        run_to_idle(&mut net);
        ledger.absorb("shallow", &net);
        let p = ledger.shard_profile();
        assert_eq!(p.words.iter().sum::<u64>(), 4);
        let s = ledger.congestion_summary("all");
        // Queue highs take the max across phases, not the sum.
        assert_eq!(s.queue_high_water, 2);
        assert_eq!(s.shard_words.iter().sum::<u64>(), 4);
        assert_eq!(s.shard_imbalance_milli, p.imbalance_milli());
    }

    #[test]
    fn merge_combines() {
        let g = edge();
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 0, 1).unwrap();
        run_to_idle(&mut net);
        a.absorb("a", &net);
        b.absorb("b", &net);
        a.merge(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.phases.len(), 2);
        assert_eq!(a.words_across(&[true, false]), 2);
    }

    /// A network over `g` that idles `delay` rounds, then runs `sends`
    /// (`(from, to, words)`, all queued up front) to idle.
    fn ran(g: &Graph, delay: u64, sends: &[(NodeId, NodeId, u64)]) -> Network<u8> {
        let mut net: Network<u8> = Network::new(g);
        if delay > 0 {
            net.schedule_wakeup(delay, 0);
            run_to_idle(&mut net);
        }
        for &(u, v, w) in sends {
            net.send(u, v, 0, w).unwrap();
        }
        run_to_idle(&mut net);
        net
    }

    /// The summaries of absorbing `nets` into one ledger, and of every
    /// split into a prefix ledger merged with a suffix ledger.
    fn seam_summaries(nets: &[Network<u8>]) -> Vec<mwc_trace::CongestionSummary> {
        (0..=nets.len())
            .map(|k| {
                let (mut a, mut b) = (Ledger::new(), Ledger::new());
                nets[..k].iter().for_each(|n| a.absorb("a", n));
                nets[k..].iter().for_each(|n| b.absorb("b", n));
                a.merge(&b);
                a.congestion_summary("x")
            })
            .collect()
    }

    #[test]
    fn merge_seam_folds_like_one_ledger() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap();
        // A 2-word peak at round 1, tied by the next network across the
        // seam, then three 1-word rounds behind a queue of depth 3.
        let nets = [
            ran(&g, 0, &[(0, 1, 1), (1, 2, 1)]),
            ran(&g, 0, &[(0, 1, 1), (2, 1, 1)]),
            ran(&g, 0, &[(1, 2, 1), (1, 2, 1), (1, 2, 1)]),
        ];
        let all = seam_summaries(&nets);
        assert!(all.iter().all(|s| *s == all[0]), "every seam agrees");
        let s = &all[0];
        assert_eq!((s.rounds, s.active_rounds), (5, 5));
        assert_eq!((s.max_words_in_round, s.peak_round), (2, 1));
        assert_eq!(s.queue_high_water, 3);
        // A later, strictly higher peak (3 words at local round 2) lands
        // at its offset global round.
        let nets = [
            ran(&g, 0, &[(0, 1, 1), (1, 2, 1)]),
            ran(&g, 1, &[(0, 1, 1), (1, 0, 1), (1, 2, 1)]),
        ];
        let all = seam_summaries(&nets);
        assert!(all.iter().all(|s| *s == all[0]), "every seam agrees");
        assert_eq!((all[0].max_words_in_round, all[0].peak_round), (3, 1 + 2));
    }

    #[test]
    fn top_links_is_deterministic_on_ties() {
        let ends = [(0, 1), (1, 0), (1, 2)];
        let words = [5, 5, 1];
        let top = top_links(&ends, &words, 2);
        assert_eq!(top, vec![((0, 1), 5), ((1, 0), 5)]);
        assert!(top_links(&ends, &[0, 0, 0], 2).is_empty());
    }

    #[test]
    fn top_links_ties_break_by_link_id_even_when_table_is_shuffled() {
        // The tie-break is on the (from, to) pair itself, not on the
        // position in the link table: a reordered table must produce the
        // identical report.
        let ends = [(2, 0), (0, 1), (1, 0)];
        let words = [5, 5, 5];
        let top = top_links(&ends, &words, 3);
        assert_eq!(top, vec![((0, 1), 5), ((1, 0), 5), ((2, 0), 5)]);
    }
}
