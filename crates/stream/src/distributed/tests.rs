//! The engine's unit tests, end to end through its public API plus the
//! wire helpers the coordinator and the node share.

use congest_graph::generators::{Classic, Gnp};
use congest_graph::triangles as oracle;
use congest_graph::{AdjacencyView, Graph, NodeId, Triangle, TriangleSet};
use congest_sim::{Bandwidth, FaultPlan, Simulation};
use congest_wire::{BitReader, BitWriter, IdCodec};

use super::node::DynamicTriangleNode;
use super::{wire, CongestCost, DistributedTriangleEngine, HubSplit};
use crate::delta::DeltaBatch;
use crate::index::{ApplyMode, StreamError, TriangleIndex};

fn v(i: u32) -> NodeId {
    NodeId(i)
}

#[test]
fn empty_engine_counts_nothing() {
    let engine = DistributedTriangleEngine::new(5);
    assert_eq!(engine.node_count(), 5);
    assert_eq!(engine.edge_count(), 0);
    assert_eq!(engine.triangle_count(), 0);
    assert_eq!(engine.epochs(), 0);
    assert!(engine.matches_oracle());
}

#[test]
fn inserting_a_triangle_step_by_step() {
    let mut engine = DistributedTriangleEngine::new(4);
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(1), v(2));
    let r = engine.apply(&b).unwrap();
    assert_eq!(r.inserts_applied, 2);
    assert_eq!(r.triangles_added, 0);

    let mut close = DeltaBatch::new();
    close.insert(v(0), v(2));
    let r = engine.apply(&close).unwrap();
    assert_eq!(r.triangles_added, 1);
    assert_eq!(engine.triangle_count(), 1);
    assert!(engine
        .triangles()
        .contains(&Triangle::new(v(0), v(1), v(2))));
    assert!(engine.matches_oracle());
    assert_eq!(engine.epochs(), 2);
    assert!(engine.last_batch_cost().rounds >= 2);
    assert!(engine.total_cost().messages >= engine.last_batch_cost().messages);
}

#[test]
fn one_batch_inserting_a_whole_triangle_counts_it_once() {
    let mut engine = DistributedTriangleEngine::new(4);
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
    let r = engine.apply(&b).unwrap();
    assert_eq!(r.triangles_added, 1);
    assert_eq!(engine.triangle_count(), 1);
    assert!(engine.matches_oracle());
}

#[test]
fn one_batch_removing_two_edges_of_a_triangle_counts_it_once() {
    let k4 = Classic::Complete(4).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&k4);
    assert_eq!(engine.triangle_count(), 4);
    let mut b = DeltaBatch::new();
    b.remove(v(0), v(1)).remove(v(1), v(2));
    let r = engine.apply(&b).unwrap();
    // {0,1,2} dies by two of its edges but is counted once;
    // {0,1,3} and {1,2,3} die by one edge each.
    assert_eq!(r.triangles_removed, 3);
    assert_eq!(engine.triangle_count(), 1);
    assert!(engine.matches_oracle());
}

#[test]
fn mixed_insert_and_remove_batch_matches_oracle() {
    // Removing a wing while inserting the closing edge: the insert
    // must not report a triangle whose wing died in the same batch.
    let mut engine = DistributedTriangleEngine::new(4);
    let mut base = DeltaBatch::new();
    base.insert(v(0), v(1)).insert(v(1), v(2));
    engine.apply(&base).unwrap();
    let mut b = DeltaBatch::new();
    b.remove(v(1), v(2)).insert(v(0), v(2));
    let r = engine.apply(&b).unwrap();
    assert_eq!(r.triangles_added, 0);
    assert_eq!(r.triangles_removed, 0);
    assert_eq!(engine.triangle_count(), 0);
    assert!(engine.matches_oracle());
}

#[test]
fn from_graph_seeds_edges_and_triangles() {
    let g = Gnp::new(40, 0.2).seeded(9).generate();
    let engine = DistributedTriangleEngine::from_graph(&g);
    assert_eq!(engine.edge_count(), g.edge_count());
    assert_eq!(engine.triangles(), &oracle::list_all(&g));
    for node in g.nodes() {
        assert_eq!(engine.neighbors(node), g.neighbors(node));
    }
}

#[test]
fn out_of_range_batch_is_rejected_atomically() {
    let mut engine = DistributedTriangleEngine::new(3);
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(0), v(7));
    let err = engine.apply(&b).unwrap_err();
    assert_eq!(
        err,
        StreamError::NodeOutOfRange {
            node: v(7),
            node_count: 3
        }
    );
    assert_eq!(engine.edge_count(), 0);
    assert_eq!(engine.epochs(), 0);
}

#[test]
fn noop_batches_run_no_epoch() {
    let mut engine = DistributedTriangleEngine::new(4);
    let mut b = DeltaBatch::new();
    b.remove(v(0), v(1)); // absent edge
    let r = engine.apply(&b).unwrap();
    assert_eq!(r.noops, 1);
    assert_eq!(engine.epochs(), 0);
    assert_eq!(engine.last_batch_cost(), CongestCost::default());

    // A flap coalesces away entirely: still no epoch.
    let mut flap = DeltaBatch::new();
    flap.insert(v(0), v(1)).remove(v(0), v(1));
    let r = engine.apply(&flap).unwrap();
    assert_eq!(r.noops, 2);
    assert_eq!(engine.epochs(), 0);
}

#[test]
fn deferred_mode_buffers_until_flush() {
    let mut engine = DistributedTriangleEngine::new(3).with_mode(ApplyMode::Deferred);
    assert_eq!(engine.mode(), ApplyMode::Deferred);
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
    let r = engine.apply(&b).unwrap();
    assert_eq!(r.deltas_deferred, 3);
    assert_eq!(engine.triangle_count(), 0);
    assert_eq!(engine.pending_deltas(), 3);
    assert!(engine.pending_age().is_some());

    let r = engine.flush();
    assert_eq!(r.deltas_seen, 0);
    assert_eq!(r.inserts_applied, 3);
    assert_eq!(r.triangles_added, 1);
    assert_eq!(engine.pending_deltas(), 0);
    assert!(engine.pending_age().is_none());
    assert!(engine.matches_oracle());
    // The whole deferred window cost one epoch.
    assert_eq!(engine.epochs(), 1);
}

#[test]
fn switching_modes_flushes_pending_deltas_in_order() {
    let mut engine = DistributedTriangleEngine::new(2).with_mode(ApplyMode::Deferred);
    let mut ins = DeltaBatch::new();
    ins.insert(v(0), v(1));
    engine.apply(&ins).unwrap();
    let engine = engine.with_mode(ApplyMode::Eager);
    assert_eq!(engine.pending_deltas(), 0);
    assert!(engine.has_edge(v(0), v(1)));
}

#[test]
fn agrees_with_the_single_threaded_index_on_a_stream() {
    let g = Gnp::new(60, 0.12).seeded(11).generate();
    let mut reference = TriangleIndex::from_graph(&g);
    let mut engine = DistributedTriangleEngine::from_graph(&g);
    for step in 0..15u32 {
        let mut b = DeltaBatch::new();
        for j in 0..10u32 {
            let a = (step * 7 + j * 13) % 60;
            let c = (step * 11 + j * 17 + 1) % 60;
            if a != c {
                if (step + j) % 3 == 0 {
                    b.remove(v(a), v(c));
                } else {
                    b.insert(v(a), v(c));
                }
            }
        }
        reference.apply(&b).unwrap();
        engine.apply(&b).unwrap();
        assert_eq!(reference.triangles(), engine.triangles(), "step {step}");
        assert_eq!(reference.edge_count(), engine.edge_count());
    }
    assert!(engine.matches_oracle());
    assert!(engine.total_cost().rounds > 0);
    assert!(engine.total_cost().bits > 0);
}

#[test]
fn wider_bandwidth_packs_more_edges_and_saves_rounds() {
    // The same hub-heavy batch under 1-edge and 8-edge messages: the
    // narrow network needs more rounds for the same information.
    let run = |bandwidth: Bandwidth| {
        let mut engine = DistributedTriangleEngine::with_bandwidth(32, bandwidth);
        let mut base = DeltaBatch::new();
        for i in 1..16 {
            base.insert(v(0), v(i)); // hub
        }
        engine.apply(&base).unwrap();
        let mut b = DeltaBatch::new();
        for i in 1..9 {
            b.remove(v(0), v(i));
        }
        engine.apply(&b).unwrap();
        assert!(engine.matches_oracle());
        engine.last_batch_cost()
    };
    let narrow = run(Bandwidth::default());
    let wide = run(Bandwidth::Bits(16 * 10));
    assert!(
        narrow.rounds > wide.rounds,
        "narrow {narrow:?} should need more rounds than wide {wide:?}"
    );
    assert!(narrow.bits >= wide.bits);
}

#[test]
fn static_drivers_run_on_the_live_distributed_graph() {
    // Snapshot-free interop: the Theorem-style oracle runs directly
    // on the engine's AdjacencyView.
    let g = Gnp::new(30, 0.2).seeded(12).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&g);
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
    engine.apply(&b).unwrap();
    let view: &dyn AdjacencyView = &engine;
    assert_eq!(view.node_count(), 30);
    assert_eq!(oracle::count_all_on(&engine), engine.triangle_count());
}

#[test]
fn debug_summarizes() {
    let engine = DistributedTriangleEngine::new(6);
    let s = format!("{engine:?}");
    assert!(s.contains("n=6"));
    assert!(s.contains("epochs=0"));
}

#[test]
fn engine_and_its_simulation_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Simulation<DynamicTriangleNode>>();
    assert_send::<DistributedTriangleEngine>();
}

#[test]
#[should_panic(expected = "cannot carry one edge")]
fn sub_edge_bandwidth_is_rejected_at_construction() {
    // 8 bits cannot carry two 10-bit ids for n = 1000; the engine
    // must refuse up front instead of panicking mid-epoch.
    let _ = DistributedTriangleEngine::with_bandwidth(1000, Bandwidth::Bits(8));
}

#[test]
#[should_panic(expected = "deferred flush failed: epoch hit the round cap after 1 rounds")]
fn deferred_flush_panics_with_the_error_it_cannot_return() {
    let mut engine = DistributedTriangleEngine::new(20)
        .with_mode(ApplyMode::Deferred)
        .with_max_rounds(1);
    let mut b = DeltaBatch::new();
    for i in 0..10 {
        b.insert(v(i), v(i + 1));
    }
    engine.apply(&b).unwrap();
    engine.flush();
}

#[test]
fn minimum_viable_bandwidth_is_accepted_and_works() {
    // Exactly one edge per message (2 × 10 bits for n = 1000).
    let mut engine = DistributedTriangleEngine::with_bandwidth(1000, Bandwidth::Bits(20));
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1)).insert(v(1), v(2)).insert(v(0), v(2));
    engine.apply(&b).unwrap();
    assert_eq!(engine.triangle_count(), 1);
    assert!(engine.matches_oracle());
}

/// A star around node 0 with a rim, so hub removals retire real
/// triangles: the canonical hotspot input.
fn hub_star(spokes: u32) -> (Graph, DeltaBatch) {
    let mut b = congest_graph::GraphBuilder::new(spokes as usize + 1);
    for i in 1..=spokes {
        b.add_edge(v(0), v(i)).unwrap();
    }
    for i in 1..spokes {
        b.add_edge(v(i), v(i + 1)).unwrap();
    }
    let mut tear = DeltaBatch::new();
    for i in 1..=spokes {
        tear.remove(v(0), v(i));
    }
    (b.build(), tear)
}

#[test]
fn hub_split_flattens_hotspot_epochs() {
    // One hub with 24 incident removals, every helper with 1: the
    // split schedule must cost a small fraction of the unsplit one
    // while retiring the identical triangles. The broadcast prefix
    // (rounds less the convergecast) is what the split schedules;
    // the constants were pinned against a merge-free epoch of the
    // same batch.
    let (graph, tear) = hub_star(24);
    let run = |split: HubSplit| {
        let mut engine = DistributedTriangleEngine::from_graph(&graph).with_hub_split(split);
        assert_eq!(engine.hub_split(), split);
        let report = engine.apply(&tear).unwrap();
        assert!(engine.matches_oracle());
        let cost = engine.last_batch_cost();
        assert!(cost.convergecast_rounds > 0, "{split:?}");
        let prefix = cost.rounds - cost.convergecast_rounds;
        (report, prefix, engine.triangles().clone())
    };
    let (unsplit_report, unsplit_prefix, unsplit_set) = run(HubSplit::Off);
    let (split_report, split_prefix, split_set) = run(HubSplit::Auto);
    assert_eq!(unsplit_report, split_report);
    assert_eq!(unsplit_set, split_set);
    // 24 hub deltas vs an average-load budget of 2: the unsplit
    // phase is hub-bound, the split one near-flat.
    assert_eq!((unsplit_prefix, split_prefix), (25, 3));
    // Forcing the budget to 1 flattens as far as coverage allows.
    let (forced_report, forced_prefix, forced_set) = run(HubSplit::Budget(1));
    assert_eq!(forced_report, split_report);
    assert_eq!(forced_set, split_set);
    assert_eq!(forced_prefix, 2);
}

#[test]
fn convergecast_accounts_the_merge_and_changes_no_results() {
    let g = Gnp::new(40, 0.15).seeded(7).generate();
    let mut reference = TriangleIndex::from_graph(&g);
    let mut conv = DistributedTriangleEngine::from_graph(&g);
    for step in 0..6u32 {
        let mut b = DeltaBatch::new();
        for j in 0..9u32 {
            let a = (step * 5 + j * 7) % 40;
            let c = (step * 11 + j * 3 + 1) % 40;
            if a != c {
                if (step + j) % 3 == 0 {
                    b.remove(v(a), v(c));
                } else {
                    b.insert(v(a), v(c));
                }
            }
        }
        let rr = reference.apply(&b).unwrap();
        let rc = conv.apply(&b).unwrap();
        assert_eq!(rr, rc, "step {step}: the merge must not change reports");
        assert_eq!(reference.triangles(), conv.triangles(), "step {step}");
        // The convergecast pays real rounds for the merge.
        assert!(
            conv.last_batch_cost().convergecast_rounds > 0,
            "step {step}"
        );
    }
    assert!(conv.matches_oracle());
    assert!(conv.total_cost().convergecast_rounds > 0);
}

#[test]
fn fully_cancelling_batches_cost_the_zero_round_floor() {
    // A triangle {0,1,2} plus two spare nodes.
    let mut b = congest_graph::GraphBuilder::new(5);
    b.add_edge(v(0), v(1)).unwrap();
    b.add_edge(v(1), v(2)).unwrap();
    b.add_edge(v(0), v(2)).unwrap();
    let base = b.build();
    let mut engine = DistributedTriangleEngine::from_graph(&base);
    // One real batch first, so the floor demonstrably does not
    // reset earlier accounting.
    let mut real = DeltaBatch::new();
    real.insert(v(2), v(3));
    engine.apply(&real).unwrap();
    let epochs_before = engine.epochs();
    let cost_before = engine.total_cost();
    let last_before = engine.last_batch_cost();
    assert!(cost_before.rounds > 0);

    // insert+remove of an absent edge: the insert coalesces
    // away and the surviving remove classifies as a no-op —
    // zero effective deltas, zero-length broadcast phases.
    let mut cancel_absent = DeltaBatch::new();
    cancel_absent.insert(v(3), v(4)).remove(v(3), v(4));
    // remove+insert of a present edge: the remove coalesces
    // away and the surviving insert is already present.
    let mut cancel_present = DeltaBatch::new();
    cancel_present.remove(v(0), v(1)).insert(v(0), v(1));

    for (name, batch) in [("absent", &cancel_absent), ("present", &cancel_present)] {
        let r = engine.apply(batch).unwrap();
        let ctx = format!("{name} flap");
        assert_eq!(r.noops, 2, "{ctx}");
        assert_eq!(r.inserts_applied + r.removes_applied, 0, "{ctx}");
        assert_eq!(r.triangles_added + r.triangles_removed, 0, "{ctx}");
        // The documented floor: no epoch runs at all.
        assert_eq!(engine.epochs(), epochs_before, "{ctx}");
        assert_eq!(engine.total_cost(), cost_before, "{ctx}");
        assert_eq!(engine.last_batch_cost(), last_before, "{ctx}");
    }
    assert!(engine.matches_oracle());
    assert_eq!(engine.triangle_count(), 1);
}

#[test]
fn corrupt_injected_payload_surfaces_a_protocol_error() {
    // A truncated out-of-band payload lands in a node's round-0
    // inbox next to the real descriptor: the node must latch a
    // protocol error (instead of silently truncating ids) and the
    // coordinator must surface it from apply.
    let mut engine = DistributedTriangleEngine::new(8);
    let mut w = BitWriter::new();
    w.write_bits(3, 7); // far too short for a descriptor
    engine.sim.inject(v(2), w.finish());
    let mut b = DeltaBatch::new();
    b.insert(v(0), v(1));
    let err = engine.apply(&b).unwrap_err();
    match err {
        StreamError::Protocol { node, detail } => {
            assert_eq!(node, v(2));
            assert!(detail.contains("descriptor"), "detail: {detail}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "a hardened engine needs at least 4 bits")]
fn hardening_a_sub_chunk_bandwidth_is_rejected() {
    // 2 bits carry one edge of n = 2 but not a sequenced chunk.
    let _ = DistributedTriangleEngine::with_bandwidth(2, Bandwidth::Bits(2))
        .with_fault_plan(FaultPlan::default().with_drop(0.01));
}

#[test]
fn split_and_convergecast_runs_repeat_bit_for_bit() {
    let g = Gnp::new(16, 0.25).seeded(33).generate();
    let build = || DistributedTriangleEngine::from_graph(&g).with_hub_split(HubSplit::Budget(1));
    let mut first = build();
    let mut second = build();
    for step in 0..4u32 {
        let mut b = DeltaBatch::new();
        for j in 0..8u32 {
            let a = (step * 3 + j * 5) % 16;
            let c = (step * 7 + j * 11 + 1) % 16;
            if a != c {
                if (step + j) % 3 == 0 {
                    b.remove(v(a), v(c));
                } else {
                    b.insert(v(a), v(c));
                }
            }
        }
        let ra = first.apply(&b).unwrap();
        let rb = second.apply(&b).unwrap();
        assert_eq!(ra, rb, "step {step}");
        assert_eq!(first.triangles(), second.triangles(), "step {step}");
        assert_eq!(
            first.last_batch_cost(),
            second.last_batch_cost(),
            "step {step}"
        );
    }
    assert!(first.matches_oracle() && second.matches_oracle());
    assert_eq!(first.total_cost(), second.total_cost());
    assert!(first.total_cost().convergecast_rounds > 0);
}

#[test]
fn debug_names_the_scheduling_and_aggregation_modes() {
    let engine = DistributedTriangleEngine::new(4).with_hub_split(HubSplit::Off);
    let s = format!("{engine:?}");
    assert!(s.contains("split=off"));
    assert_eq!(HubSplit::Auto.name(), "auto");
    assert_eq!(HubSplit::Budget(3).name(), "budget");
    assert_eq!(HubSplit::default(), HubSplit::Auto);
}

#[test]
fn an_exhausted_recovery_poisons_the_engine() {
    // Unlatched, lifting the fault plan would let the next insert
    // report a no-op over a graph that had lost 4 of its edges.
    let base = Gnp::new(16, 0.3).seeded(7).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&base)
        .with_fault_plan(FaultPlan::default().with_drop(1.0).with_seed(3));
    let mut batch = DeltaBatch::new();
    for i in 0..6 {
        batch.insert(v(i), v(i + 6));
    }
    assert!(matches!(
        engine.apply(&batch),
        Err(StreamError::RecoveryExhausted { .. })
    ));
    let mut engine = engine.with_fault_plan(FaultPlan::default());
    let mut one = DeltaBatch::new();
    one.insert(v(0), v(15));
    assert_eq!(engine.apply(&one).unwrap_err(), StreamError::Poisoned);
    assert_eq!(engine.apply(&one).unwrap_err(), StreamError::Poisoned);
}

#[test]
fn a_round_limit_poisons_the_engine() {
    // Unlatched, raising the cap would let the next insert run on
    // slices that had lost their symmetry.
    let base = Gnp::new(30, 0.2).seeded(5).generate();
    let mut engine = DistributedTriangleEngine::from_graph(&base).with_max_rounds(3);
    let mut batch = DeltaBatch::new();
    for i in 0..15 {
        batch.insert(v(i), v(i + 15));
    }
    assert_eq!(
        engine.apply(&batch).unwrap_err(),
        StreamError::RoundLimit { rounds: 3 }
    );
    let mut engine = engine
        .with_max_rounds(10_000)
        .with_mode(ApplyMode::Deferred);
    let mut one = DeltaBatch::new();
    one.insert(v(0), v(1));
    assert_eq!(engine.apply(&one).unwrap_err(), StreamError::Poisoned);
    assert_eq!(engine.pending_deltas(), 0);
}

#[test]
fn decode_rejects_degenerate_and_truncated_payloads() {
    let codec = IdCodec::new(8);
    // Degenerate edge {3, 3}.
    let mut w = BitWriter::new();
    codec.encode(&mut w, 3);
    codec.encode(&mut w, 3);
    let err = wire::decode_edges(codec, &w.finish(), 8).unwrap_err();
    assert!(err.contains("degenerate edge"), "err: {err}");
    // Trailing bits that are not a whole edge.
    let mut w = BitWriter::new();
    codec.encode(&mut w, 1);
    codec.encode(&mut w, 2);
    w.write_bits(0, 3);
    let err = wire::decode_edges(codec, &w.finish(), 8).unwrap_err();
    assert!(err.contains("trailing"), "err: {err}");
    // An id decoded against a wider domain than the network size.
    let wide = IdCodec::new(16);
    let mut w = BitWriter::new();
    wide.encode(&mut w, 12);
    wide.encode(&mut w, 1);
    let err = wire::decode_edges(wide, &w.finish(), 8).unwrap_err();
    assert!(err.contains("out of range"), "err: {err}");
}

#[test]
fn aggregate_streams_round_trip_through_chunking() {
    let codec = IdCodec::new(64);
    let mut dead = TriangleSet::new();
    dead.insert(Triangle::new(v(0), v(1), v(2)));
    dead.insert(Triangle::new(v(3), v(10), v(40)));
    let mut born = TriangleSet::new();
    born.insert(Triangle::new(v(5), v(6), v(63)));
    let stream = wire::serialize_aggregate(codec, &dead, &born, false);
    // Chunk to a tiny budget and reassemble, exactly as a parent
    // node does.
    for bandwidth in [13usize, 20, 4096] {
        let chunks = wire::chunk_stream(&stream, bandwidth, false);
        let mut rebuilt = BitWriter::new();
        let mut finished = false;
        for chunk in &chunks {
            assert!(chunk.bit_len() <= bandwidth, "chunk over budget");
            assert!(!finished, "no chunks after the final one");
            let mut r = BitReader::new(chunk);
            finished = !r.read_bool().unwrap();
            rebuilt.append(&mut r, chunk.bit_len() - 1).unwrap();
        }
        assert!(finished);
        let (d, b) =
            wire::decode_aggregate(codec, 64, &rebuilt.finish(), false).expect("round trip");
        assert_eq!(d, dead.iter().copied().collect::<Vec<_>>());
        assert_eq!(b, born.iter().copied().collect::<Vec<_>>());
    }
    // The empty aggregate is a single flag-only chunk.
    let empty = wire::serialize_aggregate(codec, &TriangleSet::new(), &TriangleSet::new(), false);
    assert_eq!(empty.bit_len(), 0);
    let chunks = wire::chunk_stream(&empty, 16, false);
    assert_eq!(chunks.len(), 1);
    assert_eq!(chunks[0].bit_len(), 1);
    let (d, b) = wire::decode_aggregate(codec, 64, &empty, false).unwrap();
    assert!(d.is_empty() && b.is_empty());
}
