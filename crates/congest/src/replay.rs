//! Reader for the message-level event log (see [`crate::events`]):
//! reconstructs round windows, renders per-vertex inbox/outbox views, and
//! bisects two logs to the first divergent `(round, link)`.
//!
//! The point is to turn "determinism test failed" from a boolean into a
//! located cause: two same-seed runs that disagree disagree *first* at
//! some global round on some link, and everything after that is fallout.
//! [`first_divergence`] finds exactly that point by walking the two logs'
//! per-round message multisets in global-round order.

use crate::events::EventCapture;
use mwc_graph::NodeId;
use mwc_trace::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One delivered message from the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgEvent {
    /// Network sequence number (creation order within the capture).
    pub net: u64,
    /// Network-local delivery round.
    pub round: u64,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Message size in words.
    pub words: u64,
}

/// One phase boundary from the log (emitted by `Ledger::absorb`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Network sequence number the phase ran on.
    pub net: u64,
    /// The phase label.
    pub label: String,
    /// Global round offset of the phase inside its ledger.
    pub offset: u64,
    /// Rounds the phase took.
    pub rounds: u64,
    /// Words it moved.
    pub words: u64,
    /// Messages it delivered.
    pub messages: u64,
}

/// A parsed event log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EventLog {
    /// Delivered messages, in emission order.
    pub messages: Vec<MsgEvent>,
    /// Phase boundaries, in emission order.
    pub phases: Vec<PhaseEvent>,
}

impl EventLog {
    /// Parses JSONL text as written by the event sink. Unknown `ev` kinds
    /// are skipped (forward compatibility); blank lines are ignored.
    ///
    /// # Errors
    ///
    /// The 1-based line number and cause for the first malformed line.
    pub fn parse(text: &str) -> Result<EventLog, String> {
        let mut log = EventLog::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let field = |key: &str| {
                v.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: missing u64 field {key:?}", i + 1))
            };
            match v.get("ev").and_then(Json::as_str) {
                Some("msg") => log.messages.push(MsgEvent {
                    net: field("net")?,
                    round: field("round")?,
                    from: field("from")? as NodeId,
                    to: field("to")? as NodeId,
                    words: field("words")?,
                }),
                Some("phase") => log.phases.push(PhaseEvent {
                    net: field("net")?,
                    label: v
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {}: missing label", i + 1))?
                        .to_owned(),
                    offset: field("offset")?,
                    rounds: field("rounds")?,
                    words: field("words")?,
                    messages: field("messages")?,
                }),
                Some(_) => {}
                None => return Err(format!("line {}: missing \"ev\" field", i + 1)),
            }
        }
        Ok(log)
    }

    /// Captures everything a closure's networks deliver into a parsed log
    /// (convenience over [`EventCapture::memory`] + [`EventLog::parse`]).
    pub fn capture(f: impl FnOnce()) -> EventLog {
        let cap = EventCapture::memory();
        f();
        EventLog::parse(&cap.finish().join("\n")).expect("sink emits valid JSONL")
    }

    /// Renders the log back to its canonical JSONL text (round-trip
    /// partner of [`EventLog::parse`]; unknown-event lines are dropped).
    pub fn render(&self) -> String {
        // Interleave in original emission order: messages of net i precede
        // the phase event of net i, phases are ordered by emission. We
        // reconstruct by walking phases and attaching their messages.
        let mut out = String::new();
        let mut by_net: BTreeMap<u64, Vec<&MsgEvent>> = BTreeMap::new();
        for m in &self.messages {
            by_net.entry(m.net).or_default().push(m);
        }
        let mut emitted: Vec<u64> = Vec::new();
        for p in &self.phases {
            if !emitted.contains(&p.net) {
                emitted.push(p.net);
                for m in by_net.get(&p.net).into_iter().flatten() {
                    let _ = writeln!(out, "{}", m.render());
                }
            }
            let _ = writeln!(out, "{}", p.render());
        }
        // Messages on nets never absorbed come last, in order.
        for (net, msgs) in &by_net {
            if !emitted.contains(net) {
                for m in msgs {
                    let _ = writeln!(out, "{}", m.render());
                }
            }
        }
        out
    }

    /// The phase label a network's traffic belongs to, if absorbed.
    pub fn phase_label(&self, net: u64) -> Option<&str> {
        self.phases
            .iter()
            .find(|p| p.net == net)
            .map(|p| p.label.as_str())
    }

    /// The global round of a message: its network's ledger offset plus the
    /// network-local round (0-offset for never-absorbed networks).
    pub fn global_round(&self, m: &MsgEvent) -> u64 {
        let offset = self
            .phases
            .iter()
            .find(|p| p.net == m.net)
            .map_or(0, |p| p.offset);
        offset + m.round
    }

    /// Messages grouped by global round, each round's messages sorted by
    /// `(from, to, words, net)` — the canonical per-round multiset used
    /// for window views and divergence bisection.
    pub fn rounds(&self) -> BTreeMap<u64, Vec<MsgEvent>> {
        let mut map: BTreeMap<u64, Vec<MsgEvent>> = BTreeMap::new();
        for m in &self.messages {
            map.entry(self.global_round(m)).or_default().push(*m);
        }
        for msgs in map.values_mut() {
            msgs.sort_by_key(|m| (m.from, m.to, m.words, m.net));
        }
        map
    }

    /// Renders the `[lo, hi]` global-round window: per round, every
    /// delivery, with per-vertex inbox/outbox views. `vertex` restricts to
    /// messages touching that vertex.
    pub fn render_window(&self, lo: u64, hi: u64, vertex: Option<NodeId>) -> String {
        let mut out = String::new();
        for (round, msgs) in self.rounds().range(lo..=hi.max(lo)) {
            let msgs: Vec<&MsgEvent> = msgs
                .iter()
                .filter(|m| vertex.is_none_or(|v| m.from == v || m.to == v))
                .collect();
            if msgs.is_empty() {
                continue;
            }
            let _ = writeln!(out, "round {round}:");
            // Per-vertex views: outbox then inbox, vertices ascending.
            let mut vertices: Vec<NodeId> = msgs.iter().flat_map(|m| [m.from, m.to]).collect();
            vertices.sort_unstable();
            vertices.dedup();
            if let Some(v) = vertex {
                vertices.retain(|&u| u == v);
            }
            for v in vertices {
                for m in &msgs {
                    if m.from == v {
                        let phase = self.phase_label(m.net).unwrap_or("?");
                        let _ = writeln!(
                            out,
                            "  {v:>5} out -> {:<5} {} word(s)  [{phase}]",
                            m.to, m.words
                        );
                    }
                }
                for m in &msgs {
                    if m.to == v {
                        let phase = self.phase_label(m.net).unwrap_or("?");
                        let _ = writeln!(
                            out,
                            "  {v:>5} in  <- {:<5} {} word(s)  [{phase}]",
                            m.from, m.words
                        );
                    }
                }
            }
        }
        if out.is_empty() {
            out.push_str("no deliveries in window\n");
        }
        out
    }

    /// Renders the per-phase summary table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} message(s) across {} phase(s)",
            self.messages.len(),
            self.phases.len()
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  net {:<3} rounds {:>6}..{:<6} {:<40} {:>8} words {:>7} msgs",
                p.net,
                p.offset + 1,
                p.offset + p.rounds,
                p.label,
                p.words,
                p.messages
            );
        }
        out
    }
}

impl MsgEvent {
    fn render(&self) -> String {
        Json::obj([
            ("ev", Json::str("msg")),
            ("net", Json::U64(self.net)),
            ("round", Json::U64(self.round)),
            ("from", Json::U64(self.from as u64)),
            ("to", Json::U64(self.to as u64)),
            ("words", Json::U64(self.words)),
        ])
        .render()
    }
}

impl PhaseEvent {
    fn render(&self) -> String {
        Json::obj([
            ("ev", Json::str("phase")),
            ("net", Json::U64(self.net)),
            ("label", Json::str(&self.label)),
            ("offset", Json::U64(self.offset)),
            ("rounds", Json::U64(self.rounds)),
            ("words", Json::U64(self.words)),
            ("messages", Json::U64(self.messages)),
        ])
        .render()
    }
}

/// The first point where two logs disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Global round of the first disagreement.
    pub round: u64,
    /// The first divergent link `(from, to)` within that round (lowest
    /// link in the canonical order), when the round's message sets differ;
    /// `None` when one log simply ends before the other.
    pub link: Option<(NodeId, NodeId)>,
    /// Human-readable account of what each side did there.
    pub detail: String,
}

/// Bisects two logs to the first divergent `(round, link)`: walks global
/// rounds in ascending order, compares each round's canonical message
/// multiset, and inside the first differing round finds the lowest link
/// whose message multiset differs. Returns `None` for identical logs.
pub fn first_divergence(a: &EventLog, b: &EventLog) -> Option<Divergence> {
    let ra = a.rounds();
    let rb = b.rounds();
    let empty: Vec<MsgEvent> = Vec::new();
    let mut all_rounds: Vec<u64> = ra.keys().chain(rb.keys()).copied().collect();
    all_rounds.sort_unstable();
    all_rounds.dedup();
    for round in all_rounds {
        let ma = ra.get(&round).unwrap_or(&empty);
        let mb = rb.get(&round).unwrap_or(&empty);
        if ma == mb {
            continue;
        }
        // Locate the lowest divergent link within the round.
        let mut links: Vec<(NodeId, NodeId)> =
            ma.iter().chain(mb).map(|m| (m.from, m.to)).collect();
        links.sort_unstable();
        links.dedup();
        for link in links {
            let la: Vec<&MsgEvent> = ma.iter().filter(|m| (m.from, m.to) == link).collect();
            let lb: Vec<&MsgEvent> = mb.iter().filter(|m| (m.from, m.to) == link).collect();
            if la != lb {
                let side = |msgs: &[&MsgEvent], log: &EventLog| {
                    if msgs.is_empty() {
                        "nothing".to_owned()
                    } else {
                        msgs.iter()
                            .map(|m| {
                                format!(
                                    "{} word(s) [{}]",
                                    m.words,
                                    log.phase_label(m.net).unwrap_or("?")
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    }
                };
                return Some(Divergence {
                    round,
                    link: Some(link),
                    detail: format!(
                        "round {round}, link {} -> {}: log A delivered {}; log B delivered {}",
                        link.0,
                        link.1,
                        side(&la, a),
                        side(&lb, b)
                    ),
                });
            }
        }
        // Message multisets differ but every link multiset matches: the
        // difference is net attribution only (phase structure drift).
        return Some(Divergence {
            round,
            link: None,
            detail: format!(
                "round {round}: same deliveries, different network attribution \
                 (phase structure drift)"
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ledger, Network};
    use mwc_graph::{Graph, Orientation};

    fn path3() -> Graph {
        Graph::from_edges(3, Orientation::Undirected, [(0, 1, 1), (1, 2, 1)]).unwrap()
    }

    /// Steps `net` until it is idle.
    fn run_to_idle(net: &mut Network<u8>) {
        let mut out = crate::RoundOutput::default();
        while net.step(&mut out) {}
    }

    fn run(extra: bool) -> EventLog {
        EventLog::capture(|| {
            let g = path3();
            let mut ledger = Ledger::new();
            let mut net: Network<u8> = Network::new(&g);
            net.send(0, 1, 1, 1).unwrap();
            net.send(1, 2, 2, 2).unwrap();
            run_to_idle(&mut net);
            ledger.absorb("phase-a", &net);
            let mut net: Network<u8> = Network::new(&g);
            net.send(2, 1, 3, 1).unwrap();
            if extra {
                net.send(1, 0, 4, 1).unwrap();
            }
            run_to_idle(&mut net);
            ledger.absorb("phase-b", &net);
        })
    }

    #[test]
    fn parse_render_round_trips() {
        let log = run(false);
        assert_eq!(log.messages.len(), 3);
        assert_eq!(log.phases.len(), 2);
        let text = log.render();
        let back = EventLog::parse(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn global_rounds_apply_phase_offsets() {
        let log = run(false);
        // Phase a: 2 rounds. Phase b's single message lands at global 2+1.
        let m = log.messages.last().unwrap();
        assert_eq!(log.phase_label(m.net), Some("phase-b"));
        assert_eq!(log.global_round(m), 3);
    }

    #[test]
    fn window_renders_inbox_and_outbox() {
        let log = run(false);
        let w = log.render_window(1, 1, None);
        assert!(w.contains("round 1:"), "{w}");
        assert!(w.contains("0 out -> 1"), "{w}");
        assert!(w.contains("1 in  <- 0"), "{w}");
        let v = log.render_window(0, 99, Some(2));
        assert!(v.contains("2 in  <- 1"), "{v}");
        assert!(!v.contains("1 in  <- 0"), "{v}");
        assert!(log.render_window(50, 99, None).contains("no deliveries"));
    }

    #[test]
    fn identical_logs_do_not_diverge() {
        assert_eq!(first_divergence(&run(false), &run(false)), None);
    }

    #[test]
    fn one_extra_message_is_located_exactly() {
        let a = run(false);
        let b = run(true);
        let d = first_divergence(&a, &b).expect("logs differ");
        // The extra message is delivered in phase-b's round 1, global 3,
        // on link 1 -> 0.
        assert_eq!(d.round, 3);
        assert_eq!(d.link, Some((1, 0)));
        assert!(d.detail.contains("log A delivered nothing"), "{}", d.detail);
        assert!(d.detail.contains("phase-b"), "{}", d.detail);
        // Symmetric call finds the same point.
        let d2 = first_divergence(&b, &a).expect("logs differ");
        assert_eq!((d2.round, d2.link), (d.round, d.link));
    }

    #[test]
    fn summary_lists_phases() {
        let s = run(false).render_summary();
        assert!(s.contains("phase-a"), "{s}");
        assert!(s.contains("3 message(s) across 2 phase(s)"), "{s}");
    }
}
