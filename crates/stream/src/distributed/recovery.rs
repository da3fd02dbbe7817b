//! Hardened streams: everything only a hardened coordinator runs.
//!
//! The [protocol overview](super::DistributedTriangleEngine) is the
//! protocol under a quiet [`FaultPlan`](congest_sim::FaultPlan). A
//! non-quiet plan *hardens* the engine: messages may now be lost,
//! duplicated or arrive with one bit flipped, and a node may sit out
//! whole epochs, so every stream is made to prove itself and every loss
//! to cost what was lost. The bit layouts live in [`wire`], the two
//! ends of an acknowledged convergecast link — and why its constants
//! have their values — in [`link`](super::link); this module holds the
//! coordinator's side.
//!
//! **Broadcast: one combined stream per link.** A (sender, receiver)
//! pair has one stream per epoch: the removal edges the sender owes
//! that neighbour, in the removal rounds, then the insertion edges, in
//! the insertion rounds — packed exactly as on the quiet path — closed,
//! in the rounds right after the insertion data rounds, by **one
//! trailer** of lengths and a checksum (its layout is
//! [`TrailerLayout`]'s). Receivers buffer a stream instead of trusting
//! deliveries and tell data from trailer by round alone; a stream whose
//! trailer verifies converts to candidates — its removal prefix against
//! the snapshot of the pre-batch slice a touched node took in round 0,
//! the rest against the live post-batch slice — and its sender joins
//! the node's verified set. The coordinator reads back the queues every
//! broadcaster sent and compares them with the verified sets; each pair
//! that is missing is re-sent, as the same combined stream closed by the
//! same trailer, in a **repair epoch** (a main epoch with no phase
//! boundary and no aggregation: one encoder and one verifier serve
//! both), at most [`MAX_REPAIR_ATTEMPTS`] times, accounted as
//! [`recovery_rounds`](super::CongestCost::recovery_rounds). A lost
//! broadcast message therefore costs one short repair epoch for the
//! streams it broke.
//!
//! **What the deadline is still for.** Every node also gets an absolute
//! round, `broadcast_end + (height + 1) · hop + 2`, at which it stops
//! counting on children whose streams are still open, latches trouble
//! and forwards what it has; `hop` is the batch-wide worst-case stream
//! length plus the rounds a link spends before giving itself up, so the
//! deadline cannot fire on a stream the link layer is still able to
//! deliver. It is the backstop for what acknowledgements cannot mend —
//! total loss, total corruption, a flipped `more` bit that leaves a
//! parent waiting for chunks that do not exist — and together with the
//! resend budget it bounds every epoch, so those cases still end in
//! [`StreamError::RecoveryExhausted`] or, under a small enough cap,
//! [`StreamError::RoundLimit`]. Because a hardened coordinator reads
//! every node's aggregates (not just the roots'), latched trouble loses
//! no verified candidate; it only marks the epoch
//! [`degraded`](super::RecoveryStats::degraded_epochs) — crashed,
//! uncovered or genuinely abandoned — its network-side merge having been
//! cut short.
//!
//! **Crash windows.** A node the plan crashes for an epoch sits it out:
//! its slice moves to a coordinator-side shadow kept current batch by
//! batch, the candidates it would have seen are recomputed centrally,
//! and when its window ends its next descriptor re-seeds it from the
//! shadow.

use std::collections::{BTreeMap, BTreeSet};

use congest_graph::{Edge, NodeId, Triangle, TriangleSet};
use congest_hash::CHECKSUM_BITS;
use congest_sim::Metrics;
use congest_wire::IdCodec;

use super::coordinator::{online, EpochDeltas, EpochPlan};
use super::link::{ACK_TIMEOUT_ROUNDS, MAX_LINK_RESENDS};
use super::node::{edges, runs};
use super::wire::{self, RepairStream, TrailerLayout, COUNT_BITS};
use super::DistributedTriangleEngine;
use crate::index::{ApplyReport, StreamError};
use crate::shard::{
    merge_added_candidates, merge_removed_candidates, sorted_insert, sorted_remove,
};

/// How many retransmission epochs the coordinator schedules before
/// giving up with [`StreamError::RecoveryExhausted`]. Each attempt
/// re-sends only the still-unverified streams, so under realistic loss
/// rates one or two attempts settle everything. The budget is sized for
/// narrow links: at small `n` the checksum trailer alone spans ~8
/// messages, so a single attempt under a few-percent loss rate fails
/// with non-trivial probability and several retries must stay cheap.
const MAX_REPAIR_ATTEMPTS: u32 = 8;

/// What a hardened epoch carries from the plan step to the merge step.
pub(super) struct HardenedEpoch {
    /// Rounds the stream trailers occupy after the data rounds.
    pub(super) trailer_rounds: u64,
    /// Deltas both of whose endpoints are crashed, by phase
    /// (`true` = insertion): no node broadcasts them.
    uncovered: Vec<(Edge, bool)>,
    snapshot: BatchSnapshot,
    /// Per-node convergecast deadlines, by node index.
    pub(super) deadlines: Vec<u64>,
    /// The slices rejoining nodes re-seed themselves from, ascending by
    /// node.
    pub(super) sync_lists: Vec<(NodeId, Vec<NodeId>)>,
}

/// Pre- and post-batch neighbour lists of the nodes a batch touches —
/// the endpoints of its effective deltas. Every central recomputation
/// and the deadline bound check membership against these through
/// [`DistributedTriangleEngine::snapshot_list`].
#[derive(Default)]
struct BatchSnapshot {
    pre: BTreeMap<NodeId, Vec<NodeId>>,
    post: BTreeMap<NodeId, Vec<NodeId>>,
}

/// One broadcast stream that failed verification at its receiver and
/// awaits retransmission: the removal-phase and insertion-phase edges
/// of one (sender, receiver) pair, re-sent as a single repair stream
/// (removals lead).
type PendingStream = [Vec<Edge>; 2];

/// What one hardened batch has gathered so far: the candidate sets, and
/// whether any of it needed a degradation.
#[derive(Default)]
struct Gathered {
    dead: TriangleSet,
    born: TriangleSet,
    degraded: bool,
}

/// Books what the fault layer did to one epoch's messages.
fn count_faults(metrics: &Metrics) {
    congest_obs::counter_add("faults.dropped", metrics.dropped_messages);
    congest_obs::counter_add("faults.corrupted", metrics.corrupted_messages);
    congest_obs::counter_add("faults.duplicated", metrics.duplicated_messages);
}

impl DistributedTriangleEngine {
    /// Which nodes the fault plan crashes for the coming epoch (none
    /// under a plan without crash windows); a newly crashed node's slice
    /// moves into the coordinator's shadow, where it is kept current
    /// while the node's own goes stale.
    pub(super) fn crash_bookkeeping(&mut self) -> Vec<bool> {
        let mut crashed = vec![false; self.node_count()];
        if self.fault_plan.crash_windows().next().is_none() {
            return crashed;
        }
        let epoch = self.sim.epoch();
        for (i, flag) in crashed.iter_mut().enumerate() {
            *flag = self.fault_plan.crashed(i, epoch);
            let node = NodeId::from_index(i);
            if *flag && !self.offline.contains_key(&node) {
                let list = self.sim.program(node).adjacency.clone();
                self.offline.insert(node, list);
            }
        }
        crashed
    }

    /// The hardened half of an epoch's plan, once the broadcast phases
    /// and the forest are fixed.
    pub(super) fn plan_hardened(
        &mut self,
        deltas: &EpochDeltas,
        crashed: &[bool],
        rm_rounds: u64,
        ins_rounds: u64,
    ) -> HardenedEpoch {
        let id_width = IdCodec::new(self.node_count() as u64).width();
        let per_message = wire::edges_per_message(self.bandwidth_bits, id_width);
        // A hardened epoch closes every stream with one trailer, in the
        // rounds right after the insertion data rounds.
        let trailer =
            TrailerLayout::for_phases(rm_rounds, ins_rounds, per_message, self.bandwidth_bits);
        let mut uncovered = Vec::new();
        let mut snapshot = BatchSnapshot::default();
        for (edges, ins_phase) in deltas.phases() {
            for e in edges {
                if crashed[e.lo().index()] && crashed[e.hi().index()] {
                    uncovered.push((*e, ins_phase));
                }
                for (node, other) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                    let pre = snapshot
                        .pre
                        .entry(node)
                        .or_insert_with(|| self.neighbors(node).to_vec());
                    let post = snapshot.post.entry(node).or_insert_with(|| pre.clone());
                    if ins_phase {
                        sorted_insert(post, other);
                    } else {
                        sorted_remove(post, other);
                    }
                }
            }
        }

        // Per-node convergecast deadlines, the backstop behind the
        // acknowledged links: a node abandons child streams still open
        // `height·hop` rounds into the aggregation phase, where `hop`
        // bounds the rounds any single subtree stream can need — its
        // chunks at full rate, plus the rounds a link spends before it
        // gives itself up — so a parent's deadline always leaves room for
        // a child that gave up at its own, and fires only on a stream the
        // link layer could not have saved.
        let mut cand_bound = 0u64;
        for (edges, post) in deltas.phases() {
            let degree = |v: NodeId| self.snapshot_list(&snapshot, v, post).len() as u64;
            cand_bound += edges
                .iter()
                .map(|e| degree(e.lo()).min(degree(e.hi())))
                .sum::<u64>();
        }
        let agg_bits =
            2 * COUNT_BITS as u64 + 3 * id_width as u64 * cand_bound + CHECKSUM_BITS as u64;
        let per_chunk = wire::chunk_data_bits(self.bandwidth_bits, true) as u64;
        let hop =
            agg_bits.div_ceil(per_chunk) + ACK_TIMEOUT_ROUNDS * (1 + u64::from(MAX_LINK_RESENDS));
        let broadcast_end = rm_rounds + ins_rounds + trailer.rounds();
        let deadlines = self
            .forest
            .heights()
            .into_iter()
            .map(|height| broadcast_end + (height + 1) * hop + 2)
            .collect();

        // Rejoining nodes leave the shadow now that their sync list is
        // fixed: from this epoch on their in-network slice is live again.
        let mut sync_lists = Vec::new();
        self.offline.retain(|&node, list| {
            let rejoins = !crashed[node.index()];
            if rejoins {
                sync_lists.push((node, std::mem::take(list)));
            }
            !rejoins
        });
        HardenedEpoch {
            trailer_rounds: trailer.rounds(),
            uncovered,
            snapshot,
            deadlines,
            sync_lists,
        }
    }

    /// `node`'s neighbour list before (`post == false`) or after the
    /// batch `snapshot` was taken for. Only the batch's own endpoints
    /// were copied; every other node's list is the same on both sides
    /// of the batch and is read live.
    fn snapshot_list<'a>(
        &'a self,
        snapshot: &'a BatchSnapshot,
        node: NodeId,
        post: bool,
    ) -> &'a [NodeId] {
        let touched = if post { &snapshot.post } else { &snapshot.pre };
        touched
            .get(&node)
            .map_or_else(|| self.neighbors(node), Vec::as_slice)
    }

    /// The hardened merge and everything after it. It collects
    /// idempotently from *everything* — every online node's direct
    /// candidates plus every node's (not just the roots') convergecast
    /// aggregates, so a lost convergecast stream costs nothing the
    /// broadcasts verified; the exactly-once merge core makes the overlap
    /// harmless — then recomputes centrally what no broadcast reached,
    /// re-sends the streams that did not verify, and merges the lot into
    /// the live set. `main` is the main epoch's metrics.
    pub(super) fn merge_hardened(
        &mut self,
        deltas: &EpochDeltas,
        plan: &EpochPlan,
        epoch: HardenedEpoch,
        main: &Metrics,
        report: &mut ApplyReport,
    ) -> Result<(), StreamError> {
        let merge_span = congest_obs::trace::span("distributed", "merge");
        count_faults(main);
        let crashed = &plan.crashed;
        let mut got = Gathered::default();
        got.degraded = self.collect_candidates(crashed, &mut got);
        drop(merge_span);

        // Everything from here on is recovery. Crashed nodes miss every
        // broadcast, and uncovered deltas (both endpoints down) had no
        // broadcaster at all: recompute their candidates centrally.
        let trace_on = congest_obs::trace::enabled();
        let recovery_start_us = if trace_on { congest_obs::now_us() } else { 0 };
        let snapshot = &epoch.snapshot;
        let down = (0..crashed.len()).filter(|&i| crashed[i]);
        for w in down.map(NodeId::from_index) {
            for (edges, ins_phase) in deltas.phases() {
                for e in edges {
                    self.central_candidate(snapshot, w, *e, ins_phase, &mut got);
                }
            }
        }
        for &(e, ins_phase) in &epoch.uncovered {
            for w in online(crashed) {
                self.central_candidate(snapshot, w, e, ins_phase, &mut got);
            }
        }
        got.degraded |= crashed.contains(&true) || !epoch.uncovered.is_empty();
        let pending = self.unverified_streams(plan);
        let repairs_ran = self.repair(pending, crashed, snapshot, &mut got)?;

        if got.degraded {
            self.recovery.degraded_epochs += 1;
        }
        report.triangles_removed += merge_removed_candidates(&mut self.triangles, &got.dead);
        report.triangles_added += merge_added_candidates(&mut self.triangles, &got.born);
        if trace_on && (repairs_ran || got.degraded) {
            let dur = congest_obs::now_us().saturating_sub(recovery_start_us);
            congest_obs::trace::record_span("distributed", "recovery", recovery_start_us, dur);
        }
        let stats = self.recovery;
        congest_obs::gauge_set("recovery.retransmit_rounds", stats.retransmit_rounds as f64);
        congest_obs::gauge_set("recovery.epoch_repairs", stats.epoch_repairs as f64);
        congest_obs::gauge_set("recovery.degraded_epochs", stats.degraded_epochs as f64);

        // Advance the shadow slices of still-crashed nodes to the
        // post-batch graph — the truth the rejoin sync (and the engine's
        // own adjacency view) will be read from.
        for (node, list) in self.offline.iter_mut() {
            if let Some(post) = snapshot.post.get(node) {
                list.clone_from(post);
            }
        }
        Ok(())
    }

    /// Drains every online node's per-epoch candidates *and*
    /// convergecast aggregates into `got`. The sets keep each candidate
    /// once, so calling this repeatedly (after the main epoch and after
    /// every repair epoch) is harmless. Returns whether any node latched
    /// convergecast trouble.
    fn collect_candidates(&mut self, crashed: &[bool], got: &mut Gathered) -> bool {
        let mut trouble = false;
        for node in online(crashed) {
            let prog = self.sim.program_mut(node);
            trouble |= prog.agg_trouble();
            prog.drain_candidates_into(&mut got.dead, &mut got.born);
            let (agg_dead, agg_born) = prog.aggregates();
            got.dead.extend(agg_dead.iter().copied());
            got.born.extend(agg_born.iter().copied());
        }
        trouble
    }

    /// Central (coordinator-side) recomputation of one third-vertex
    /// candidate: does `w` close a triangle over delta edge `e`?
    /// Removal candidates check the pre-batch snapshot, insertions the
    /// post-batch one — exactly the membership a healthy receiver
    /// would have tested in-network.
    fn central_candidate(
        &self,
        snapshot: &BatchSnapshot,
        w: NodeId,
        e: Edge,
        ins_phase: bool,
        got: &mut Gathered,
    ) {
        let adj = self.snapshot_list(snapshot, w, ins_phase);
        let (u, v) = e.endpoints();
        if !e.contains(w) && adj.binary_search(&u).is_ok() && adj.binary_search(&v).is_ok() {
            let set = if ins_phase {
                &mut got.born
            } else {
                &mut got.dead
            };
            set.insert(Triangle::new(u, v, w));
        }
    }

    /// The repair mirror: every stream an online broadcaster sent this
    /// epoch — the removal and insertion queues it built, read back from
    /// the node — that its online receiver did not verify, by
    /// `(sender, receiver)`. A pair has one stream an epoch, removals
    /// leading, so one that did not verify is pending retransmission as
    /// a whole. Crashed receivers are skipped: their candidates were
    /// recomputed centrally. (Receivers still say nothing; the mirror is
    /// an oracle.)
    fn unverified_streams(&self, plan: &EpochPlan) -> BTreeMap<(NodeId, NodeId), PendingStream> {
        let mut pending: BTreeMap<(NodeId, NodeId), PendingStream> = BTreeMap::new();
        for (phase, assignment) in [&plan.rm, &plan.ins].into_iter().enumerate() {
            for (s, _) in assignment.rows() {
                let sender = self.sim.program(s);
                for (w, q) in runs([&sender.rm_queues, &sender.ins_queues][phase]) {
                    if !plan.crashed[w.index()] && !self.sim.program(w).verified(s) {
                        pending.entry((s, w)).or_default()[phase] = edges(q).collect();
                    }
                }
            }
        }
        pending
    }

    /// The retransmission loop: re-sends every pending stream in
    /// dedicated repair epochs, accounted as recovery rounds, until
    /// everything verified or the attempt budget runs out. A repair
    /// epoch is a main epoch without a removal phase of its own: each
    /// stream goes out back to back, closed by the same trailer, which
    /// carries its removal prefix, and its data rounds cover the longest
    /// stream. Returns whether any stream was pending.
    fn repair(
        &mut self,
        mut pending: BTreeMap<(NodeId, NodeId), PendingStream>,
        crashed: &[bool],
        snapshot: &BatchSnapshot,
        got: &mut Gathered,
    ) -> Result<bool, StreamError> {
        let codec = IdCodec::new(self.node_count() as u64);
        let per_message = wire::edges_per_message(self.bandwidth_bits, codec.width());
        let mut attempts = 0u32;
        while !pending.is_empty() && attempts < MAX_REPAIR_ATTEMPTS {
            attempts += 1;
            // A pair whose participant is crashed during this repair
            // epoch cannot retransmit — fall back to central
            // recomputation for it (a degradation, not a failure).
            let (plan, epoch) = (self.fault_plan, self.sim.epoch());
            pending.retain(|(s, w), p| {
                if !plan.crashed(s.index(), epoch) && !plan.crashed(w.index(), epoch) {
                    return true;
                }
                for (phase, edges) in p.iter().enumerate() {
                    for e in edges {
                        self.central_candidate(snapshot, *w, *e, phase == 1, got);
                    }
                }
                got.degraded = true;
                false
            });
            if pending.is_empty() {
                break;
            }
            let mut streams: BTreeMap<NodeId, Vec<RepairStream<'_>>> = BTreeMap::new();
            let mut participants: BTreeSet<NodeId> = BTreeSet::new();
            for (&(s, w), [rm, ins]) in &pending {
                streams.entry(s).or_default().push((w, rm, ins));
                participants.extend([s, w]);
            }
            let longest = pending.values().map(|[rm, ins]| rm.len() + ins.len()).max();
            let rounds = longest.unwrap_or(0).div_ceil(per_message) as u64;
            for node in participants {
                let own = streams.get(&node).map_or(&[][..], Vec::as_slice);
                self.sim
                    .inject(node, wire::encode_repair(codec, rounds, own));
            }
            let repair = self.sim.run_epoch();
            if !repair.completed() {
                return Err(StreamError::RoundLimit {
                    rounds: repair.metrics.rounds,
                });
            }
            count_faults(&repair.metrics);
            self.last_batch.add_recovery_epoch(&repair.metrics);
            self.recovery.epoch_repairs += 1;
            self.recovery.retransmit_rounds += repair.metrics.rounds;
            self.collect_candidates(crashed, got);
            pending.retain(|(s, w), _| !self.sim.program(*w).verified(*s));
        }
        if !pending.is_empty() {
            return Err(StreamError::RecoveryExhausted {
                attempts,
                pending: pending.len(),
            });
        }
        Ok(attempts > 0)
    }
}
