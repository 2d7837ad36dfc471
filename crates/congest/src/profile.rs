//! Per-phase congestion profiles: how a phase's traffic was *shaped*, not
//! just how much there was.
//!
//! A [`Phase`](crate::Phase) used to carry only round/word totals; the
//! profile adds the engine's always-on congestion metrics (peak round load,
//! active-round count, queue backpressure, hot links, and the per-round
//! word histogram) so benchmark reports and the `mwc-trace` flamegraph can
//! show *where* a phase saturates the network.

use crate::engine::{NetStats, Network, HIST_BUCKETS};
use mwc_graph::NodeId;

/// How many hot links a phase profile retains.
pub const PROFILE_HOT_LINKS: usize = 3;

/// The congestion shape of one finished phase.
#[derive(Clone, Debug, Default)]
pub struct CongestionProfile {
    /// Messages the phase delivered.
    pub messages: u64,
    /// Rounds that actually transferred words (≤ the phase's rounds;
    /// the difference is latency waits and wakeup gaps).
    pub active_rounds: u64,
    /// Peak words transferred in any single round.
    pub max_words_in_round: u64,
    /// The phase-local round at which the peak was first reached
    /// (earliest-round tie-break — deterministic); 0 for quiet phases.
    pub peak_round: u64,
    /// High-water mark of any link's send queue.
    pub queue_high_water: u64,
    /// The most-loaded links as `((from, to), words)`, heaviest first
    /// (top [`PROFILE_HOT_LINKS`], deterministic tie-break).
    pub hot_links: Vec<((NodeId, NodeId), u64)>,
    /// Histogram of per-round delivered words over power-of-two buckets
    /// (see [`crate::hist_bucket`]).
    pub round_histogram: [u64; HIST_BUCKETS],
}

impl CongestionProfile {
    /// Captures the profile of a finished phase from its network.
    pub fn capture<M>(net: &Network<M>) -> CongestionProfile {
        let stats: &NetStats = net.stats();
        CongestionProfile {
            messages: stats.messages,
            active_rounds: stats.active_rounds,
            max_words_in_round: stats.max_words_in_round,
            peak_round: stats.peak_round,
            queue_high_water: stats.queue_high_water,
            hot_links: net.hot_links(PROFILE_HOT_LINKS),
            round_histogram: stats.round_histogram,
        }
    }

    /// Mean words per *active* round — the phase's sustained parallelism.
    pub fn mean_active_load(&self, words: u64) -> f64 {
        if self.active_rounds == 0 {
            0.0
        } else {
            words as f64 / self.active_rounds as f64
        }
    }
}

/// The `k` heaviest `(link, words)` pairs from a per-link load table.
///
/// The order is a *total* order — load descending, then `(from, to)`
/// ascending — never map or insertion order, so every hot-link report
/// (engine, ledger, run records, diffs) is deterministic even on ties.
pub fn top_links(
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

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_graph::{Graph, Orientation};

    /// Steps `net` until it is idle.
    fn run_to_idle(net: &mut Network<u8>) {
        let mut out = crate::RoundOutput::default();
        while net.step(&mut out) {}
    }

    #[test]
    fn capture_reads_engine_metrics() {
        let g = Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap();
        let mut net: Network<u8> = Network::new(&g);
        net.send(0, 1, 1, 2).unwrap();
        net.send(0, 1, 2, 1).unwrap();
        net.send(1, 2, 3, 1).unwrap();
        run_to_idle(&mut net);
        let p = CongestionProfile::capture(&net);
        assert_eq!(p.messages, 3);
        assert_eq!(p.queue_high_water, 2); // two messages queued on 0→1
        assert_eq!(p.max_words_in_round, 2); // round 1: links 0→1 and 1→2
        assert_eq!(p.active_rounds, 3);
        assert_eq!(p.hot_links[0], ((0, 1), 3));
        // Histogram: one round moved 2 words (bucket 1), two rounds moved 1
        // word (bucket 0).
        assert_eq!(p.round_histogram[0], 2);
        assert_eq!(p.round_histogram[1], 1);
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
