//! Graph sharding for the engine: contiguous vertex-range partitioning
//! and the barrier-synchronized round kernel.
//!
//! A [`ShardPlan`] cuts the node ids `0..n` into one contiguous range per
//! shard, balanced by out-degree. Because [`Network`](crate::Network)
//! creates link ids grouped by sender in ascending node order, a
//! contiguous vertex range owns a contiguous *link-id* range too — so a
//! shard's send queues and per-link word counters are plain disjoint
//! slices of the engine's arrays, handed to worker threads with
//! `split_at_mut` and no locking.
//!
//! # Determinism
//!
//! Sharding is purely an execution strategy; it must leave no trace in
//! any observable output. The engine guarantees that by construction,
//! using the same capture-and-graft discipline as `mwc_par::ordered_map`:
//!
//! 1. The coordinator tags each entry of the round's active-link list
//!    with its position (`idx`) and buckets the entries by owning shard.
//! 2. [`mwc_par::fork_join`] runs every shard's bucket on its own thread;
//!    each shard decrements queue heads and bumps its own slice of
//!    `per_link_words`, recording message completions tagged with `idx`.
//!    The scope join is the round barrier.
//! 3. The coordinator merges the per-shard completion buffers back into
//!    ascending `idx` order — exactly the order the sequential loop
//!    completes them in — and only then delivers, assigns transit
//!    sequence numbers, and emits trace events, all on its own thread.
//!
//! Delivery order, transit FIFO tie-breaks, event-log lines, and every
//! statistic are therefore byte-identical for any shard count (pinned by
//! `tests/shard_differential.rs`; partitioner invariants by
//! `tests/shard_props.rs`). Cut links need no special casing: a message
//! crossing shards is *processed* by the link's owner and *delivered* by
//! the coordinator at the barrier, which is the deterministic exchange.

use crate::engine::InFlight;
use mwc_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::ops::Range;

/// A contiguous, degree-balanced partition of node ids (and thereby link
/// ids) into shards. Built once per network; owns no simulation state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `node_bounds[s]..node_bounds[s + 1]` is shard `s`'s vertex range;
    /// length `shards + 1`, first 0, last `n`, strictly increasing while
    /// nodes remain.
    node_bounds: Vec<usize>,
    /// `link_bounds[s]..link_bounds[s + 1]` is shard `s`'s link-id range:
    /// the prefix sums of out-degree at the node bounds.
    link_bounds: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `out_degrees.len()` nodes into at most `shards`
    /// contiguous ranges, cutting so each range carries close to `1/k` of
    /// the total degree (the per-round work is proportional to busy
    /// links, not nodes). The effective shard count is clamped to the
    /// node count so every shard owns at least one node.
    pub fn new(out_degrees: &[usize], shards: usize) -> ShardPlan {
        let n = out_degrees.len();
        let k = shards.clamp(1, n.max(1));
        let total: u64 = out_degrees.iter().map(|&d| d as u64).sum();
        let mut node_bounds = Vec::with_capacity(k + 1);
        node_bounds.push(0usize);
        let mut v = 0usize;
        let mut cum = 0u64;
        for s in 1..k {
            // Aim the cut at s/k of the total degree, but always leave at
            // least one node for every shard on both sides.
            let target = total * s as u64 / k as u64;
            let min_v = s;
            let max_v = n - (k - s);
            while v < max_v && (v < min_v || cum < target) {
                cum += out_degrees[v] as u64;
                v += 1;
            }
            node_bounds.push(v);
        }
        node_bounds.push(n);
        let mut prefix = 0usize;
        let mut cursor = 0usize;
        let link_bounds = node_bounds
            .iter()
            .map(|&b| {
                while cursor < b {
                    prefix += out_degrees[cursor];
                    cursor += 1;
                }
                prefix
            })
            .collect();
        ShardPlan {
            node_bounds,
            link_bounds,
        }
    }

    /// [`ShardPlan::new`] over a graph's communication degrees (the
    /// undirected support — the same degrees the engine's link table
    /// uses).
    pub fn for_graph(g: &Graph, shards: usize) -> ShardPlan {
        let degrees: Vec<usize> = (0..g.n()).map(|u| g.comm_neighbors(u).len()).collect();
        ShardPlan::new(&degrees, shards)
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.node_bounds.len() - 1
    }

    /// Number of nodes partitioned.
    pub fn n(&self) -> usize {
        *self.node_bounds.last().expect("bounds are non-empty")
    }

    /// Number of links partitioned.
    pub fn links(&self) -> usize {
        *self.link_bounds.last().expect("bounds are non-empty")
    }

    /// Shard `s`'s vertex range.
    pub fn node_range(&self, s: usize) -> Range<usize> {
        self.node_bounds[s]..self.node_bounds[s + 1]
    }

    /// Shard `s`'s link-id range.
    pub fn link_range(&self, s: usize) -> Range<usize> {
        self.link_bounds[s]..self.link_bounds[s + 1]
    }

    /// The shard owning node `v`.
    pub fn shard_of_node(&self, v: NodeId) -> usize {
        debug_assert!(v < self.n());
        self.node_bounds.partition_point(|&b| b <= v) - 1
    }

    /// The shard owning link id `l` (the sender's shard).
    pub fn shard_of_link(&self, l: usize) -> usize {
        debug_assert!(l < self.links());
        self.link_bounds.partition_point(|&b| b <= l) - 1
    }

    /// Link ids whose endpoints live on different shards — the links
    /// whose traffic crosses a shard boundary and is exchanged at the
    /// round barrier. `link_ends` is the engine's `(from, to)` table.
    pub fn cut_links(&self, link_ends: &[(NodeId, NodeId)]) -> Vec<usize> {
        link_ends
            .iter()
            .enumerate()
            .filter(|(_, &(u, v))| self.shard_of_node(u) != self.shard_of_node(v))
            .map(|(l, _)| l)
            .collect()
    }
}

/// The fixed shard count every [`ShardProfile`] is computed against.
///
/// Profiling against the *execution* shard count would make the profile
/// depend on `--shards` — a scheduling knob that must stay invisible in
/// gated artifacts. Instead the profile always folds the deterministic
/// per-link counters over one canonical degree-balanced reference
/// partition, so it measures the workload's *potential* imbalance (what
/// an 8-way split would see) and is byte-identical for any actual shard
/// count, including unsharded runs.
pub const PROFILE_SHARDS: usize = 8;

/// Deterministic per-shard word loads over the canonical
/// [`PROFILE_SHARDS`]-way reference partition: how many words each
/// shard's links moved across a whole run, captured by
/// [`Ledger::shard_profile`](crate::Ledger::shard_profile) and reported by
/// [`Ledger::congestion_summary`](crate::Ledger::congestion_summary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Words moved, per canonical shard.
    pub words: Vec<u64>,
}

impl ShardProfile {
    /// Folds the engine's deterministic per-link word counters over the
    /// canonical reference partition. `link_ends` is the engine's
    /// `(from, to)` table (link ids grouped by sender in ascending node
    /// order — the same layout [`ShardPlan`] cuts), and `per_link_words`
    /// is parallel to it.
    pub fn capture(link_ends: &[(NodeId, NodeId)], per_link_words: &[u64]) -> ShardProfile {
        if link_ends.is_empty() {
            return ShardProfile::default();
        }
        let n = link_ends.iter().map(|&(u, v)| u.max(v)).max().unwrap() + 1;
        let mut out_degrees = vec![0usize; n];
        for &(u, _) in link_ends {
            out_degrees[u] += 1;
        }
        let plan = ShardPlan::new(&out_degrees, PROFILE_SHARDS);
        let words = (0..plan.shards())
            .map(|s| {
                plan.link_range(s)
                    .map(|l| per_link_words.get(l).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        ShardProfile { words }
    }

    /// The imbalance ratio max/mean of per-shard words, in integer
    /// milli-units (1000 = perfectly balanced, 2000 = the hottest shard
    /// carries twice the mean). Integer so the value is exactly
    /// reproducible and diffable; 0 when no words moved.
    pub fn imbalance_milli(&self) -> u64 {
        let total: u64 = self.words.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = *self.words.iter().max().expect("nonzero total has entries");
        max * 1000 * self.words.len() as u64 / total
    }
}

/// A message whose last word left its link this round, recorded by a
/// shard worker and finished (delivered / parked in transit) by the
/// coordinator. `idx` is the message's position in the round's active
/// list — the merge key that reproduces sequential completion order.
pub(crate) struct Completion<M> {
    pub(crate) idx: u32,
    pub(crate) link: u32,
    pub(crate) payload: M,
    pub(crate) words: u64,
    pub(crate) latency: u64,
}

/// The transfer kernel signature. Stored as a `fn` pointer, instantiated
/// only inside the `M: Send`-bounded constructors, so the unbounded
/// engine methods can invoke it without infecting every `Network<M>`
/// method with a `Send` bound.
type TransferFn<M> = fn(
    &ShardPlan,
    &mut [VecDeque<InFlight<M>>],
    &mut [u64],
    &[Vec<(u32, u32)>],
    &mut [Vec<Completion<M>>],
);

/// The bulk-skip kernel signature (see [`TransferFn`] for the `fn`
/// pointer rationale).
type BulkFn<M> = fn(&ShardPlan, &mut [VecDeque<InFlight<M>>], &mut [u64], &[Vec<(u32, u32)>], u64);

/// Per-network sharding state: the plan plus reusable scratch for the
/// per-round bucket/fork/graft cycle.
pub(crate) struct Sharding<M> {
    pub(crate) plan: ShardPlan,
    /// Active-list length below which rounds stay on the sequential path
    /// (forking threads for a handful of busy links costs more than it
    /// saves; eligibility cannot affect output, so this is pure policy).
    threshold: usize,
    /// Per-shard `(active idx, link id)` buckets, ascending by idx.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Per-shard completion buffers filled by the workers.
    completions: Vec<Vec<Completion<M>>>,
    /// This round's completions, merged back into active order — the
    /// graft the coordinator consumes.
    pub(crate) merged: Vec<Completion<M>>,
    transfer: TransferFn<M>,
    bulk: BulkFn<M>,
}

impl<M> Sharding<M> {
    /// Builds sharding state for `plan`, snapshotting the engagement
    /// threshold from [`mwc_par::shard_threshold`].
    pub(crate) fn new(plan: ShardPlan) -> Sharding<M>
    where
        M: Send,
    {
        let k = plan.shards();
        Sharding {
            threshold: mwc_par::shard_threshold(),
            buckets: vec![Vec::new(); k],
            completions: (0..k).map(|_| Vec::new()).collect(),
            merged: Vec::new(),
            transfer: par_transfer::<M>,
            bulk: par_bulk::<M>,
            plan,
        }
    }

    /// Unit-test hook: pins the engagement threshold after construction
    /// so tiny fixtures exercise the parallel path.
    #[cfg(test)]
    pub(crate) fn force_threshold(&mut self, threshold: usize) {
        self.threshold = threshold;
    }

    /// Whether a round with `active_len` busy links takes the parallel
    /// path.
    pub(crate) fn engaged(&self, active_len: usize) -> bool {
        self.plan.shards() > 1 && active_len >= self.threshold
    }

    fn bucket_active(&mut self, active: &[usize]) {
        for b in &mut self.buckets {
            b.clear();
        }
        for (idx, &l) in active.iter().enumerate() {
            self.buckets[self.plan.shard_of_link(l)].push((idx as u32, l as u32));
        }
    }

    /// Runs the word-transfer half of one round across the shards and
    /// leaves the round's completions in [`Sharding::merged`], sorted
    /// back into active order for the coordinator's graft.
    pub(crate) fn transfer_round(
        &mut self,
        active: &[usize],
        queues: &mut [VecDeque<InFlight<M>>],
        per_link_words: &mut [u64],
    ) {
        self.bucket_active(active);
        (self.transfer)(
            &self.plan,
            queues,
            per_link_words,
            &self.buckets,
            &mut self.completions,
        );
        self.merged.clear();
        for c in &mut self.completions {
            self.merged.append(c);
        }
        // Each buffer is already ascending; the concatenation is not.
        // idx values are unique, so unstable sorting is deterministic.
        self.merged.sort_unstable_by_key(|c| c.idx);
    }

    /// Applies a bulk advance of `skipped` rounds (see
    /// [`Network::step`](crate::Network::step)) across the
    /// shards: every active head loses `skipped` words and the per-link
    /// counters gain them. No head completes (the engine chose `skipped`
    /// so), hence no completions and no graft.
    pub(crate) fn bulk_skip(
        &mut self,
        active: &[usize],
        queues: &mut [VecDeque<InFlight<M>>],
        per_link_words: &mut [u64],
        skipped: u64,
    ) {
        self.bucket_active(active);
        (self.bulk)(&self.plan, queues, per_link_words, &self.buckets, skipped);
    }
}

/// One shard's disjoint view of the engine arrays for one round.
struct ShardTask<'a, M> {
    /// First link id of the shard's range; queue/counter slices are
    /// indexed by `link - link_base`.
    link_base: usize,
    queues: &'a mut [VecDeque<InFlight<M>>],
    per_link_words: &'a mut [u64],
    bucket: &'a [(u32, u32)],
    out: Option<&'a mut Vec<Completion<M>>>,
}

/// Splits the engine arrays into per-shard disjoint tasks along the
/// plan's link bounds. `outs` is `None` for the bulk path (no
/// completions possible).
fn split_tasks<'a, M>(
    plan: &ShardPlan,
    mut queues: &'a mut [VecDeque<InFlight<M>>],
    mut per_link_words: &'a mut [u64],
    buckets: &'a [Vec<(u32, u32)>],
    outs: Option<&'a mut [Vec<Completion<M>>]>,
) -> Vec<ShardTask<'a, M>> {
    let k = plan.shards();
    let mut outs = outs.map(|o| o.iter_mut());
    let mut tasks = Vec::with_capacity(k);
    for s in 0..k {
        let r = plan.link_range(s);
        let (q, rest_q) = queues.split_at_mut(r.len());
        let (w, rest_w) = per_link_words.split_at_mut(r.len());
        queues = rest_q;
        per_link_words = rest_w;
        let out = outs
            .as_mut()
            .map(|it| it.next().expect("one out per shard"));
        tasks.push(ShardTask {
            link_base: r.start,
            queues: q,
            per_link_words: w,
            bucket: &buckets[s],
            out,
        });
    }
    // Idle shards have nothing to do this round; don't spawn for them.
    tasks.retain(|t| !t.bucket.is_empty());
    tasks
}

/// The parallel word-transfer kernel: one thread per busy shard, each
/// walking its bucket in active order. Instantiated only via
/// [`Sharding::new`], which carries the `M: Send` bound.
fn par_transfer<M: Send>(
    plan: &ShardPlan,
    queues: &mut [VecDeque<InFlight<M>>],
    per_link_words: &mut [u64],
    buckets: &[Vec<(u32, u32)>],
    outs: &mut [Vec<Completion<M>>],
) {
    let tasks = split_tasks(plan, queues, per_link_words, buckets, Some(outs));
    mwc_par::fork_join(tasks, |task| {
        let ShardTask {
            link_base,
            queues,
            per_link_words,
            bucket,
            out,
        } = task;
        let out = out.expect("transfer tasks carry completion buffers");
        out.clear();
        for &(idx, l) in bucket {
            let rel = l as usize - link_base;
            let q = &mut queues[rel];
            let head = q.front_mut().expect("active links have queued traffic");
            head.words_left -= 1;
            per_link_words[rel] += 1;
            if head.words_left == 0 {
                let msg = q.pop_front().expect("head exists");
                out.push(Completion {
                    idx,
                    link: l,
                    payload: msg.payload,
                    words: msg.words,
                    latency: msg.latency,
                });
            }
        }
    });
}

/// The parallel bulk-skip kernel (closed-form multi-round advance; see
/// [`Sharding::bulk_skip`]).
fn par_bulk<M: Send>(
    plan: &ShardPlan,
    queues: &mut [VecDeque<InFlight<M>>],
    per_link_words: &mut [u64],
    buckets: &[Vec<(u32, u32)>],
    skipped: u64,
) {
    let tasks = split_tasks(plan, queues, per_link_words, buckets, None);
    mwc_par::fork_join(tasks, |task| {
        for &(_, l) in task.bucket {
            let rel = l as usize - task.link_base;
            let head = task.queues[rel]
                .front_mut()
                .expect("active links have queued traffic");
            head.words_left -= skipped;
            task.per_link_words[rel] += skipped;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_node_and_link_exactly_once() {
        let degrees = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let plan = ShardPlan::new(&degrees, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.n(), 8);
        assert_eq!(plan.links(), 31);
        let mut seen = [0usize; 8];
        for s in 0..plan.shards() {
            for v in plan.node_range(s) {
                seen[v] += 1;
                assert_eq!(plan.shard_of_node(v), s);
            }
            for l in plan.link_range(s) {
                assert_eq!(plan.shard_of_link(l), s);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn link_bounds_are_degree_prefix_sums_at_node_bounds() {
        let degrees = [2usize, 2, 2, 2, 2, 2];
        let plan = ShardPlan::new(&degrees, 2);
        assert_eq!(plan.node_range(0), 0..3);
        assert_eq!(plan.link_range(0), 0..6);
        assert_eq!(plan.link_range(1), 6..12);
    }

    #[test]
    fn more_shards_than_nodes_clamps() {
        let plan = ShardPlan::new(&[1, 1], 8);
        assert_eq!(plan.shards(), 2);
        let plan = ShardPlan::new(&[], 4);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.n(), 0);
    }

    #[test]
    fn shard_profile_folds_words_per_canonical_shard() {
        // 4 nodes, degrees [2, 1, 1, 1] → 5 links; the canonical plan
        // clamps PROFILE_SHARDS to the node count (4 shards).
        let link_ends: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (1, 0), (2, 0), (3, 0)];
        let words = [5u64, 0, 3, 2, 0];
        let p = ShardProfile::capture(&link_ends, &words);
        // Node 0 owns links 0..2: 5 words.
        assert_eq!(p.words, vec![5, 3, 2, 0]);
    }

    #[test]
    fn shard_profile_imbalance_is_max_over_mean_in_milli() {
        let p = ShardProfile { words: vec![6, 2] };
        // mean = 4, max = 6 → 1500 milli.
        assert_eq!(p.imbalance_milli(), 1500);
        let balanced = ShardProfile { words: vec![4, 4] };
        assert_eq!(balanced.imbalance_milli(), 1000);
        assert_eq!(ShardProfile::default().imbalance_milli(), 0);
    }

    #[test]
    fn shard_profile_of_empty_network_is_empty() {
        let p = ShardProfile::capture(&[], &[]);
        assert_eq!(p, ShardProfile::default());
    }

    #[test]
    fn skewed_degrees_still_give_every_shard_a_node() {
        // All the degree is on the first node; later shards must still
        // get non-empty vertex ranges.
        let degrees = [100usize, 0, 0, 0];
        let plan = ShardPlan::new(&degrees, 4);
        assert_eq!(plan.shards(), 4);
        for s in 0..4 {
            assert!(!plan.node_range(s).is_empty(), "shard {s} has no nodes");
        }
    }
}
