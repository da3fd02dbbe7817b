//! Bit layouts of everything the distributed engine puts on a link or
//! injects into a node: the batch and repair descriptors, broadcast data
//! messages, the self-checking trailer of a hardened broadcast stream,
//! convergecast aggregates, their chunk framing and the
//! acknowledgements that answer them. The node program and the
//! coordinator call these builders and parsers and never touch a bit
//! themselves; the [protocol overview](super::DistributedTriangleEngine)
//! and the [recovery](super::recovery) and [link](super::link) modules
//! give the layouts in prose.

use congest_graph::{Edge, NodeId, Triangle};
use congest_hash::{Checksum61, CHECKSUM_BITS};
use congest_wire::{bits_for_count, BitReader, BitWriter, IdCodec, Payload};

/// Width of the phase-length and list-length fields in the injected
/// batch descriptor (out-of-band client input, not CONGEST traffic) and
/// of the candidate-count fields in convergecast streams.
pub(super) const COUNT_BITS: usize = 32;

/// Width of the per-node convergecast deadline field in hardened
/// descriptors (an absolute round number; 32 bits could overflow on
/// pathological bounds, 48 cannot in practice).
const DEADLINE_BITS: usize = 48;

/// Width of the sequence number a hardened convergecast chunk carries
/// beside its `more` flag, and of the acknowledgement that answers it.
/// Sequence numbers count chunks modulo `2^SEQ_BITS`; go-back-N needs
/// more values than its window holds, and the window is 2.
pub(super) const SEQ_BITS: usize = 2;

/// Number of distinct sequence numbers.
pub(super) const SEQ_SPACE: usize = 1 << SEQ_BITS;

/// How many edges fit in one broadcast message under the per-link budget.
pub(super) fn edges_per_message(bandwidth_bits: usize, id_width: usize) -> usize {
    (bandwidth_bits / (2 * id_width)).max(1)
}

/// Decodes one node id, validating it against the network size `n`
/// (so a corrupt payload surfaces a protocol error instead of
/// silently truncating into the `u32` id space).
pub(super) fn decode_node(
    codec: IdCodec,
    r: &mut BitReader<'_>,
    n: usize,
) -> Result<NodeId, String> {
    let value = codec
        .decode(r)
        .map_err(|e| format!("undecodable node id: {e}"))?;
    if value >= n as u64 || value > u64::from(u32::MAX) {
        return Err(format!("node id {value} out of range for n = {n}"));
    }
    Ok(NodeId(value as u32))
}

/// Decodes one edge (two distinct, in-range ids).
pub(super) fn decode_edge(codec: IdCodec, r: &mut BitReader<'_>, n: usize) -> Result<Edge, String> {
    let a = decode_node(codec, r, n)?;
    let b = decode_node(codec, r, n)?;
    if a == b {
        return Err(format!("degenerate edge {{{a}, {b}}}"));
    }
    Ok(Edge::new(a, b))
}

/// Appends `edges` to `w`, two ids each.
pub(super) fn encode_edges(
    codec: IdCodec,
    w: &mut BitWriter,
    edges: impl IntoIterator<Item = Edge>,
) {
    for e in edges {
        codec.encode(w, e.lo().as_u64());
        codec.encode(w, e.hi().as_u64());
    }
}

/// Decodes the edges packed into a broadcast message, rejecting
/// payloads that are not an exact sequence of in-range edges. The whole
/// message is checked before its first edge is handed out, and nothing
/// is allocated: the edges are read off the payload as they are
/// iterated.
pub(super) fn decode_edges(
    codec: IdCodec,
    payload: &Payload,
    n: usize,
) -> Result<Edges<'_>, String> {
    let pair = 2 * codec.width();
    let edges = Edges {
        codec,
        n,
        reader: BitReader::new(payload),
        left: payload.bit_len() / pair,
    };
    let mut check = edges.reader.clone();
    for _ in 0..edges.left {
        decode_edge(codec, &mut check, n)?;
    }
    if !check.is_exhausted() {
        return Err(format!(
            "broadcast payload has {} trailing bits (not a whole edge)",
            check.remaining()
        ));
    }
    Ok(edges)
}

/// The edges of one checked broadcast message (see [`decode_edges`]).
#[derive(Debug)]
pub(super) struct Edges<'a> {
    codec: IdCodec,
    n: usize,
    reader: BitReader<'a>,
    left: usize,
}

impl Iterator for Edges<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        self.left = self.left.checked_sub(1)?;
        Some(decode_edge(self.codec, &mut self.reader, self.n).expect("checked whole"))
    }
}

/// One node's batch descriptor: the epoch's phase lengths, the node's
/// place in the convergecast forest (its parent, `None` at a component
/// root, and how many child streams it absorbs before forwarding its
/// own), its incident deltas flagged with whether it broadcasts them
/// and, on a hardened engine, the rejoin state sync and the
/// convergecast deadline. `S` and `L` are the sync
/// list and a delta list, borrowed when encoding and owned when decoded.
/// The layout, hardened-only fields bracketed and the deltas present
/// only behind a set `touched` flag — a node the batch does not touch
/// gets the header alone:
///
/// ```text
/// [kind = 0 | sync flag | sync count | sync ids]
/// rm_rounds | ins_rounds | parent flag | parent | child count | [deadline] | touched
/// (removal count | (edge | broadcast flag)* | insertion count | (edge | broadcast flag)*)
/// ```
#[derive(Default)]
pub(super) struct BatchDescriptor<S, L> {
    pub(super) rm_rounds: u64,
    pub(super) ins_rounds: u64,
    pub(super) parent: Option<NodeId>,
    pub(super) child_count: usize,
    pub(super) sync: Option<S>,
    /// Absolute round after which the node stops waiting for
    /// convergecast children (0 on a quiet engine).
    pub(super) deadline: u64,
    pub(super) removes: L,
    pub(super) inserts: L,
}

/// A batch descriptor as a node decodes and keeps it.
pub(super) type ReceivedBatch = BatchDescriptor<Vec<NodeId>, Vec<(Edge, bool)>>;

/// A decoded descriptor.
pub(super) enum Descriptor {
    Batch(ReceivedBatch),
    /// A repair epoch's (hardened only): its data rounds, and each
    /// stream to re-send as `(receiver, removal count, edges)`.
    Repair {
        rounds: u64,
        streams: Vec<(NodeId, usize, Vec<Edge>)>,
    },
}

/// Reads a `bits`-wide field, naming it in the detail if bits run out.
fn read(r: &mut BitReader<'_>, bits: usize, what: &str) -> Result<u64, String> {
    r.read_bits(bits).map_err(|e| format!("{what}: {e}"))
}

/// Encodes one node's batch descriptor. The kind bit, the sync list
/// and the deadline are written only when `hardened`.
pub(super) fn encode_batch(
    codec: IdCodec,
    hardened: bool,
    d: &BatchDescriptor<&[NodeId], &[(Edge, bool)]>,
) -> Payload {
    let mut w = BitWriter::new();
    if hardened {
        w.write_bool(false); // kind: batch, not repair
        w.write_bool(d.sync.is_some());
        if let Some(list) = d.sync {
            w.write_bits(list.len() as u64, COUNT_BITS);
            list.iter().for_each(|v| codec.encode(&mut w, v.as_u64()));
        }
    }
    w.write_bits(d.rm_rounds, COUNT_BITS);
    w.write_bits(d.ins_rounds, COUNT_BITS);
    w.write_bool(d.parent.is_some());
    if let Some(parent) = d.parent {
        codec.encode(&mut w, parent.as_u64());
    }
    w.write_bits(d.child_count as u64, COUNT_BITS);
    if hardened {
        w.write_bits(d.deadline, DEADLINE_BITS);
    }
    let touched = !(d.removes.is_empty() && d.inserts.is_empty());
    w.write_bool(touched);
    for list in [d.removes, d.inserts].into_iter().filter(|_| touched) {
        w.write_bits(list.len() as u64, COUNT_BITS);
        for &(e, bcast) in list {
            encode_edges(codec, &mut w, [e]);
            w.write_bool(bcast);
        }
    }
    w.finish()
}

/// One stream a repair descriptor names: `(receiver, removals,
/// insertions)`.
pub(super) type RepairStream<'a> = (NodeId, &'a [Edge], &'a [Edge]);

/// Encodes a repair descriptor: the epoch's data rounds, then each
/// stream the node re-sends.
///
/// ```text
/// kind = 1 | rounds | stream count | (receiver | removal count | edge count | edges)*
/// ```
pub(super) fn encode_repair(codec: IdCodec, rounds: u64, streams: &[RepairStream<'_>]) -> Payload {
    let mut w = BitWriter::new();
    w.write_bool(true); // kind: repair
    w.write_bits(rounds, COUNT_BITS);
    w.write_bits(streams.len() as u64, COUNT_BITS);
    for &(to, rm, ins) in streams {
        codec.encode(&mut w, to.as_u64());
        w.write_bits(rm.len() as u64, COUNT_BITS);
        w.write_bits((rm.len() + ins.len()) as u64, COUNT_BITS);
        encode_edges(codec, &mut w, rm.iter().chain(ins).copied());
    }
    w.finish()
}

/// Decodes a descriptor in the layout a `hardened` or quiet node
/// expects, ids checked against `0..n`; a repair stream must fit its
/// rounds at `per_message` edges a message.
pub(super) fn decode_descriptor(
    codec: IdCodec,
    n: usize,
    per_message: usize,
    hardened: bool,
    payload: &Payload,
) -> Result<Descriptor, String> {
    let r = &mut BitReader::new(payload);
    let mut sync = None;
    if hardened {
        if read(r, 1, "descriptor kind")? == 1 {
            return decode_repair(codec, n, per_message, r);
        }
        if read(r, 1, "descriptor sync flag")? == 1 {
            let count = read(r, COUNT_BITS, "descriptor sync length")?;
            let list: Result<_, _> = (0..count).map(|_| decode_node(codec, r, n)).collect();
            sync = Some(list?);
        }
    }
    let rm_rounds = read(r, COUNT_BITS, "descriptor rm_rounds")?;
    let ins_rounds = read(r, COUNT_BITS, "descriptor ins_rounds")?;
    let mut parent = None;
    if read(r, 1, "descriptor parent flag")? == 1 {
        parent = Some(decode_node(codec, r, n)?);
    }
    let child_count = read(r, COUNT_BITS, "descriptor child count")? as usize;
    let mut deadline = 0;
    if hardened {
        deadline = read(r, DEADLINE_BITS, "descriptor deadline")?;
    }
    let mut phases: [Vec<(Edge, bool)>; 2] = Default::default();
    let touched = read(r, 1, "descriptor touched flag")? == 1;
    for phase in phases.iter_mut().filter(|_| touched) {
        for _ in 0..read(r, COUNT_BITS, "descriptor list length")? {
            let e = decode_edge(codec, r, n)?;
            phase.push((e, read(r, 1, "descriptor broadcast flag")? == 1));
        }
    }
    let [removes, inserts] = phases;
    Ok(Descriptor::Batch(BatchDescriptor {
        rm_rounds,
        ins_rounds,
        parent,
        child_count,
        sync,
        deadline,
        removes,
        inserts,
    }))
}

/// The rest of a repair descriptor, after its kind bit.
fn decode_repair(
    codec: IdCodec,
    n: usize,
    per_message: usize,
    r: &mut BitReader<'_>,
) -> Result<Descriptor, String> {
    let rounds = read(r, COUNT_BITS, "repair descriptor rounds")?;
    let capacity = rounds as usize * per_message;
    let mut streams = Vec::new();
    for _ in 0..read(r, COUNT_BITS, "repair descriptor target count")? {
        let to = decode_node(codec, r, n)?;
        let rm_len = read(r, COUNT_BITS, "repair descriptor removal prefix")? as usize;
        let count = read(r, COUNT_BITS, "repair descriptor edge count")?;
        let edges: Vec<Edge> = (0..count)
            .map(|_| decode_edge(codec, r, n))
            .collect::<Result<_, _>>()?;
        if rm_len > edges.len() || edges.len() > capacity {
            return Err(format!(
                "repair stream of {} edges ({rm_len} removals) does not fit {rounds} rounds",
                edges.len()
            ));
        }
        streams.push((to, rm_len, edges));
    }
    Ok(Descriptor::Repair { rounds, streams })
}

/// One hardened broadcast stream being reassembled by its receiver: the
/// decoded edges in arrival order (removals lead) plus the trailer bits,
/// verified together once the trailer rounds are over.
#[derive(Default)]
pub(super) struct StreamBuf {
    edges: Vec<Edge>,
    trailer: BitWriter,
    /// Set when a data message failed to decode — the stream can no
    /// longer verify, but buffering continues so the epoch stays in
    /// lockstep.
    corrupt: bool,
}

impl StreamBuf {
    /// Buffers one data message.
    pub(super) fn push_data(&mut self, codec: IdCodec, n: usize, payload: &Payload) {
        match decode_edges(codec, payload, n) {
            Ok(edges) => self.edges.extend(edges),
            Err(_) => self.corrupt = true,
        }
    }

    /// Buffers one trailer chunk.
    pub(super) fn push_trailer(&mut self, payload: &Payload) {
        self.trailer.write_payload(payload);
    }
}

/// The self-checking trailer that closes every hardened broadcast
/// stream — one per (sender, receiver) per epoch, main and repair
/// epochs alike:
///
/// ```text
/// [ removal-prefix length | total edge count | Checksum61 ]
/// ```
///
/// The two length fields are as wide as the epoch's data rounds make
/// necessary (both ends read the round counts from their descriptors,
/// so they agree without shipping the widths); the checksum folds the
/// prefix length and then every id word in stream order, so a stream
/// that verifies has the edges, their order *and* the removal/insertion
/// split its sender meant.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TrailerLayout {
    rm_bits: usize,
    total_bits: usize,
    /// Rounds the trailer occupies after the data rounds (0 in an epoch
    /// without data rounds, which has no streams to close).
    rounds: u64,
}

impl TrailerLayout {
    /// The layout for an epoch whose data rounds can carry at most
    /// `max_rm` removal edges and `max_total` edges per stream.
    pub(super) fn new(max_rm: usize, max_total: usize, bandwidth_bits: usize) -> Self {
        let rm_bits = bits_for_count(max_rm as u64 + 1);
        let total_bits = bits_for_count(max_total as u64 + 1);
        let rounds = if max_total == 0 {
            0
        } else {
            (rm_bits + total_bits + CHECKSUM_BITS).div_ceil(bandwidth_bits.max(1)) as u64
        };
        TrailerLayout {
            rm_bits,
            total_bits,
            rounds,
        }
    }

    /// The layout for a main epoch of `rm_rounds` removal and
    /// `ins_rounds` insertion data rounds at `per_message` edges a
    /// message — computed alike by the coordinator and every node.
    pub(super) fn for_phases(
        rm_rounds: u64,
        ins_rounds: u64,
        per_message: usize,
        bandwidth_bits: usize,
    ) -> Self {
        Self::new(
            rm_rounds as usize * per_message,
            (rm_rounds + ins_rounds) as usize * per_message,
            bandwidth_bits,
        )
    }

    /// Rounds the trailer occupies after the data rounds.
    pub(super) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Folds a stream into the trailer checksum.
    fn checksum(rm_len: usize, edges: impl IntoIterator<Item = Edge>) -> u64 {
        let mut cs = Checksum61::new();
        cs.update(rm_len as u64);
        for e in edges {
            cs.update(e.lo().as_u64());
            cs.update(e.hi().as_u64());
        }
        cs.value()
    }

    /// The trailer of the stream `edges`, whose first `rm_len` edges are
    /// removals.
    pub(super) fn build(&self, rm_len: usize, edges: impl IntoIterator<Item = Edge>) -> Payload {
        let mut total = 0;
        let checksum = Self::checksum(rm_len, edges.into_iter().inspect(|_| total += 1));
        let mut w = BitWriter::new();
        w.write_bits(rm_len as u64, self.rm_bits);
        w.write_bits(total, self.total_bits);
        w.write_bits(checksum, CHECKSUM_BITS);
        w.finish()
    }

    /// The `index`-th link-budget-sized slice of a built trailer.
    pub(super) fn chunk(trailer: &Payload, index: usize, bandwidth_bits: usize) -> Option<Payload> {
        let lo = index * bandwidth_bits;
        if lo >= trailer.bit_len() {
            return None;
        }
        let mut r = BitReader::new(trailer);
        r.skip(lo).expect("offset within trailer");
        let mut out = BitWriter::new();
        out.append(&mut r, bandwidth_bits.min(trailer.bit_len() - lo))
            .expect("chunk within trailer");
        Some(out.finish())
    }

    /// Checks a buffered stream against its trailer: the trailer must
    /// have exactly this layout's length, its count must match the
    /// received edges and its checksum their fold. Returns the verified
    /// stream and the length of its removal prefix.
    pub(super) fn verify(&self, buf: StreamBuf) -> Option<(Vec<Edge>, usize)> {
        let trailer = buf.trailer.finish();
        if buf.corrupt || trailer.bit_len() != self.rm_bits + self.total_bits + CHECKSUM_BITS {
            return None;
        }
        let mut r = BitReader::new(&trailer);
        let rm_len = r.read_bits(self.rm_bits).expect("length-checked") as usize;
        let total = r.read_bits(self.total_bits).expect("length-checked") as usize;
        let checksum = r.read_bits(CHECKSUM_BITS).expect("length-checked");
        let sound = total == buf.edges.len()
            && rm_len <= total
            && checksum == Self::checksum(rm_len, buf.edges.iter().copied());
        sound.then_some((buf.edges, rm_len))
    }
}

/// Serializes the merged candidate aggregate — two sorted,
/// duplicate-free runs — for the upward convergecast leg. An empty
/// aggregate is the empty stream (one 1-bit chunk), so quiet subtrees
/// cost almost nothing, hardened or not. A non-empty `checked` stream
/// closes with a [`Checksum61`] over its id words so receivers can
/// reject corrupted reassemblies.
pub(super) fn serialize_aggregate(
    codec: IdCodec,
    dead: &[Triangle],
    born: &[Triangle],
    checked: bool,
) -> Payload {
    if dead.is_empty() && born.is_empty() {
        return Payload::new();
    }
    let mut w = BitWriter::new();
    let mut cs = Checksum61::new();
    for set in [dead, born] {
        w.write_bits(set.len() as u64, COUNT_BITS);
        for t in set {
            for v in t.nodes() {
                codec.encode(&mut w, v.as_u64());
                cs.update(v.as_u64());
            }
        }
    }
    if checked {
        w.write_bits(cs.value(), CHECKSUM_BITS);
    }
    w.finish()
}

/// Decodes a reassembled convergecast stream, appending its candidates
/// to `dead` and `born` and validating counts, ids and triangle
/// well-formedness (and the closing checksum of a `checked` stream). A
/// stream that fails appends nothing.
pub(super) fn decode_aggregate(
    codec: IdCodec,
    n: usize,
    stream: &Payload,
    checked: bool,
    dead: &mut Vec<Triangle>,
    born: &mut Vec<Triangle>,
) -> Result<(), String> {
    let kept = (dead.len(), born.len());
    let decoded = decode_aggregate_onto(codec, n, stream, checked, dead, born);
    if decoded.is_err() {
        dead.truncate(kept.0);
        born.truncate(kept.1);
    }
    decoded
}

/// [`decode_aggregate`] without the roll-back.
fn decode_aggregate_onto(
    codec: IdCodec,
    n: usize,
    stream: &Payload,
    checked: bool,
    dead: &mut Vec<Triangle>,
    born: &mut Vec<Triangle>,
) -> Result<(), String> {
    if stream.bit_len() == 0 {
        return Ok(());
    }
    let mut r = BitReader::new(stream);
    let mut cs = Checksum61::new();
    for list in [dead, born] {
        let count = read(&mut r, COUNT_BITS, "aggregate count")?;
        for _ in 0..count {
            let a = decode_node(codec, &mut r, n)?;
            let b = decode_node(codec, &mut r, n)?;
            let c = decode_node(codec, &mut r, n)?;
            if a == b || b == c || a == c {
                return Err(format!("degenerate triangle {{{a}, {b}, {c}}}"));
            }
            for v in [a, b, c] {
                cs.update(v.as_u64());
            }
            list.push(Triangle::new(a, b, c));
        }
    }
    if checked {
        let expect = read(&mut r, CHECKSUM_BITS, "aggregate checksum")?;
        if expect != cs.value() {
            return Err("aggregate checksum mismatch".into());
        }
    }
    if !r.is_exhausted() {
        return Err(format!(
            "aggregate stream has {} trailing bits",
            r.remaining()
        ));
    }
    Ok(())
}

/// Data bits one convergecast chunk carries beside its header: the
/// `more` flag, plus the sequence number when `sequenced`.
pub(super) fn chunk_data_bits(bandwidth_bits: usize, sequenced: bool) -> usize {
    let header = 1 + if sequenced { SEQ_BITS } else { 0 };
    bandwidth_bits.saturating_sub(header).max(1)
}

/// How many chunk messages a serialized aggregate of `stream_bits` bits
/// is cut into (see [`chunk_at`]): at least one, the flag-only chunk of
/// the empty stream.
pub(super) fn chunk_count(stream_bits: usize, bandwidth_bits: usize, sequenced: bool) -> usize {
    stream_bits
        .div_ceil(chunk_data_bits(bandwidth_bits, sequenced))
        .max(1)
}

/// The `index`-th link-budget-sized chunk message of a serialized
/// aggregate, built from the stream on demand so a sender keeps only the
/// stream: `[more | data]` on the quiet path and `[more | seq | data]`
/// when `sequenced`, each with at least one data bit. The empty stream
/// is the single flag-only chunk `[0]` in both framings — the cheapest
/// possible "my subtree saw nothing", and one a lost or flipped bit
/// cannot forge: it is the only 1-bit message there is.
pub(super) fn chunk_at(
    stream: &Payload,
    index: usize,
    bandwidth_bits: usize,
    sequenced: bool,
) -> Payload {
    let per_chunk = chunk_data_bits(bandwidth_bits, sequenced);
    let total = stream.bit_len();
    let offset = index * per_chunk;
    debug_assert!(
        offset < total || (index == 0 && total == 0),
        "chunk {index} out of range"
    );
    let take = per_chunk.min(total - offset);
    let mut w = BitWriter::new();
    w.write_bool(offset + take < total);
    if sequenced && total > 0 {
        w.write_bits((index % SEQ_SPACE) as u64, SEQ_BITS);
    }
    let mut reader = BitReader::new(stream);
    reader.skip(offset).expect("offset within stream");
    w.append(&mut reader, take).expect("chunk within stream");
    w.finish()
}

/// Every chunk of a serialized aggregate at once, cut in one pass — the
/// oracle [`chunk_at`] is tested against.
#[cfg(test)]
pub(super) fn chunk_stream(
    stream: &Payload,
    bandwidth_bits: usize,
    sequenced: bool,
) -> Vec<Payload> {
    let per_chunk = chunk_data_bits(bandwidth_bits, sequenced);
    let total = stream.bit_len();
    let mut reader = BitReader::new(stream);
    let mut chunks = Vec::new();
    let mut offset = 0;
    loop {
        let take = per_chunk.min(total - offset);
        let mut w = BitWriter::new();
        w.write_bool(offset + take < total);
        if sequenced && total > 0 {
            w.write_bits((chunks.len() % SEQ_SPACE) as u64, SEQ_BITS);
        }
        w.append(&mut reader, take).expect("chunk within stream");
        chunks.push(w.finish());
        offset += take;
        if offset >= total {
            return chunks;
        }
    }
}

/// One parsed convergecast chunk.
pub(super) struct Chunk<'a> {
    /// Whether more chunks of the stream follow.
    pub(super) more: bool,
    /// The chunk's sequence number (0 on the quiet path, which has
    /// none, and for the flag-only empty stream).
    pub(super) seq: usize,
    /// Positioned at the first data bit; everything that remains is
    /// data.
    pub(super) data: BitReader<'a>,
}

/// Parses one chunk produced by [`chunk_at`]. `None` for a message
/// that cannot be one: no bits at all, or — `sequenced` — a flag-only
/// message saying `more`, or a header with no data bit behind it.
pub(super) fn parse_chunk(payload: &Payload, sequenced: bool) -> Option<Chunk<'_>> {
    let mut data = BitReader::new(payload);
    let more = data.read_bool().ok()?;
    let mut seq = 0;
    if sequenced {
        match payload.bit_len() {
            1 if !more => {}
            len if len > 1 + SEQ_BITS => {
                seq = data.read_bits(SEQ_BITS).expect("length-checked") as usize;
            }
            _ => return None,
        }
    }
    Some(Chunk { more, seq, data })
}

/// The acknowledgement a parent answers a chunk with: the sequence
/// number it expects next.
pub(super) fn ack_payload(expected: usize) -> Payload {
    let mut w = BitWriter::new();
    w.write_bits((expected % SEQ_SPACE) as u64, SEQ_BITS);
    w.finish()
}

/// Parses an acknowledgement; `None` for anything of another length.
pub(super) fn parse_ack(payload: &Payload) -> Option<usize> {
    if payload.bit_len() != SEQ_BITS {
        return None;
    }
    let seq = BitReader::new(payload).read_bits(SEQ_BITS).ok()?;
    Some(seq as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(a, b)| Edge::new(v(a), v(b))).collect()
    }

    /// Delivers `stream` (its first `rm_len` edges removals) to a
    /// fresh buffer, data one edge per message, the trailer in
    /// `bandwidth`-bit chunks.
    fn deliver(
        layout: TrailerLayout,
        rm_len: usize,
        stream: &[Edge],
        bandwidth: usize,
    ) -> StreamBuf {
        let codec = IdCodec::new(64);
        let mut buf = StreamBuf::default();
        for e in stream {
            let mut w = BitWriter::new();
            encode_edges(codec, &mut w, [*e]);
            buf.push_data(codec, 64, &w.finish());
        }
        let trailer = layout.build(rm_len, stream.iter().copied());
        for i in 0..layout.rounds() as usize {
            let chunk = TrailerLayout::chunk(&trailer, i, bandwidth).expect("within rounds");
            assert!(chunk.bit_len() <= bandwidth);
            buf.push_trailer(&chunk);
        }
        assert!(TrailerLayout::chunk(&trailer, layout.rounds() as usize, bandwidth).is_none());
        buf
    }

    #[test]
    fn trailer_fields_are_sized_from_the_data_rounds() {
        // Two removal rounds and three rounds in all at one edge a
        // message: 2 + 2 + 61 bits, three 22-bit rounds.
        let layout = TrailerLayout::new(2, 3, 22);
        assert_eq!(layout.rm_bits + layout.total_bits, 4);
        assert_eq!(layout.rounds(), 3);
        assert_eq!(TrailerLayout::new(0, 0, 22).rounds(), 0);
        assert_eq!(TrailerLayout::new(0, 1, 12).rounds(), 6);
    }

    #[test]
    fn combined_stream_verifies_and_splits_at_the_removal_prefix() {
        let layout = TrailerLayout::new(2, 4, 12);
        let stream = edges(&[(1, 2), (3, 4), (5, 6)]);
        for rm_len in 0..=2 {
            let buf = deliver(layout, rm_len, &stream, 12);
            assert_eq!(layout.verify(buf), Some((stream.clone(), rm_len)));
        }
    }

    #[test]
    fn every_single_fault_in_a_stream_fails_verification() {
        let layout = TrailerLayout::new(2, 4, 12);
        let stream = edges(&[(1, 2), (3, 4), (5, 6)]);
        // A lost, duplicated or reordered data message.
        for broken in [
            edges(&[(1, 2), (5, 6)]),
            edges(&[(1, 2), (3, 4), (3, 4), (5, 6)]),
            edges(&[(3, 4), (1, 2), (5, 6)]),
        ] {
            let mut buf = deliver(layout, 1, &stream, 12);
            buf.edges = broken;
            assert!(layout.verify(buf).is_none());
        }
        // A lost trailer chunk.
        let mut buf = deliver(layout, 1, &stream, 12);
        buf.trailer = BitWriter::new();
        assert!(layout.verify(buf).is_none());
        // An undecodable data message.
        let mut buf = deliver(layout, 1, &stream, 12);
        buf.push_data(IdCodec::new(64), 64, &Payload::from_parts(vec![0xFF], 5));
        assert!(layout.verify(buf).is_none());
        // Any one flipped trailer bit — including the removal-prefix
        // length, which only the checksum guards.
        let good = deliver(layout, 1, &stream, 12);
        let trailer = good.trailer.clone().finish();
        for bit in 0..trailer.bit_len() {
            let mut buf = deliver(layout, 1, &stream, 12);
            buf.trailer = BitWriter::new();
            buf.trailer.write_payload(&trailer.with_flipped_bit(bit));
            assert!(layout.verify(buf).is_none(), "flipped trailer bit {bit}");
        }
    }

    #[test]
    fn sequenced_chunks_number_themselves_and_the_empty_stream_stays_one_bit() {
        let codec = IdCodec::new(64);
        let dead = [Triangle::new(v(0), v(1), v(2))];
        let stream = serialize_aggregate(codec, &dead, &[], true);
        assert_eq!(stream.bit_len(), 2 * COUNT_BITS + 18 + CHECKSUM_BITS);
        let chunks = chunk_stream(&stream, 16, true);
        assert_eq!(chunks.len(), stream.bit_len().div_ceil(13));
        let mut rebuilt = BitWriter::new();
        for (i, chunk) in chunks.iter().enumerate() {
            assert!(chunk.bit_len() <= 16 && chunk.bit_len() > 1 + SEQ_BITS);
            let mut parsed = parse_chunk(chunk, true).expect("well-formed");
            assert_eq!(parsed.seq, i % SEQ_SPACE);
            assert_eq!(parsed.more, i + 1 < chunks.len());
            let len = parsed.data.remaining();
            rebuilt.append(&mut parsed.data, len).unwrap();
        }
        let (mut d, mut b) = (Vec::new(), Vec::new());
        decode_aggregate(codec, 64, &rebuilt.finish(), true, &mut d, &mut b).expect("round trip");
        assert_eq!(d, dead);
        assert!(b.is_empty());

        // Hardened or not, "nothing seen" is the one-bit chunk.
        let empty = serialize_aggregate(codec, &[], &[], true);
        let chunks = chunk_stream(&empty, 16, true);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].bit_len(), 1);
        let parsed = parse_chunk(&chunks[0], true).expect("the empty stream");
        assert!(!parsed.more && parsed.seq == 0 && parsed.data.is_exhausted());
        // Its one bit flipped is not a chunk, nor is a bare header.
        assert!(parse_chunk(&chunks[0].with_flipped_bit(0), true).is_none());
        assert!(parse_chunk(&Payload::from_parts(vec![0b0100_0000], 3), true).is_none());
        assert!(parse_chunk(&Payload::new(), true).is_none());
        assert!(parse_chunk(&Payload::new(), false).is_none());
    }

    #[test]
    fn a_checked_aggregate_rejects_any_flipped_bit() {
        let codec = IdCodec::new(64);
        let born = [Triangle::new(v(5), v(6), v(63))];
        let stream = serialize_aggregate(codec, &[], &born, true);
        let kept = vec![Triangle::new(v(0), v(1), v(2))];
        for bit in 0..stream.bit_len() {
            let flipped = stream.with_flipped_bit(bit);
            let (mut d, mut b) = (kept.clone(), kept.clone());
            assert!(
                decode_aggregate(codec, 64, &flipped, true, &mut d, &mut b).is_err(),
                "flipped bit {bit} went unnoticed"
            );
            assert_eq!(
                (&d, &b),
                (&kept, &kept),
                "flipped bit {bit} left candidates behind"
            );
        }
    }

    #[test]
    fn on_demand_chunks_equal_the_materialised_ones() {
        // Every stream length up to four chunks and a bit, at every
        // narrow budget, in both framings.
        for bandwidth in 4..=24 {
            for sequenced in [false, true] {
                let per_chunk = chunk_data_bits(bandwidth, sequenced);
                for len in 0..=4 * per_chunk + 1 {
                    let mut w = BitWriter::new();
                    for i in 0..len {
                        w.write_bool((i * 7 + len) % 3 == 0);
                    }
                    let stream = w.finish();
                    let chunks = chunk_stream(&stream, bandwidth, sequenced);
                    let what = format!("{len} bits at {bandwidth}, sequenced={sequenced}");
                    assert_eq!(
                        chunk_count(len, bandwidth, sequenced),
                        chunks.len(),
                        "{what}"
                    );
                    for (i, chunk) in chunks.iter().enumerate() {
                        let built = chunk_at(&stream, i, bandwidth, sequenced);
                        assert_eq!(&built, chunk, "{what}: chunk {i}");
                        assert_eq!(built.as_bytes(), chunk.as_bytes(), "{what}: chunk {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn acks_round_trip_and_reject_other_lengths() {
        for expected in 0..2 * SEQ_SPACE {
            let ack = ack_payload(expected);
            assert_eq!(ack.bit_len(), SEQ_BITS);
            assert_eq!(parse_ack(&ack), Some(expected % SEQ_SPACE));
        }
        assert_eq!(parse_ack(&Payload::new()), None);
        assert_eq!(parse_ack(&Payload::from_parts(vec![0], 1)), None);
        assert_eq!(parse_ack(&Payload::from_parts(vec![0], 3)), None);
    }

    /// The first `len` bits of `payload`.
    fn prefix(payload: &Payload, len: usize) -> Payload {
        let mut w = BitWriter::new();
        w.append(&mut BitReader::new(payload), len).unwrap();
        w.finish()
    }

    #[test]
    fn descriptors_round_trip_and_every_truncation_fails() {
        let codec = IdCodec::new(64);
        let [a, b, c] = [(1, 2), (2, 9), (3, 4)].map(|(x, y)| Edge::new(v(x), v(y)));
        let (removes, inserts, sync) = ([(a, true), (b, false)], [(c, true)], [v(5), v(7)]);
        for hardened in [false, true] {
            let sent = BatchDescriptor {
                rm_rounds: 2,
                ins_rounds: 1,
                parent: Some(v(6)),
                child_count: 3,
                sync: hardened.then_some(&sync[..]),
                deadline: if hardened { 40 } else { 0 },
                removes: &removes[..],
                inserts: &inserts[..],
            };
            let payload = encode_batch(codec, hardened, &sent);
            let Ok(Descriptor::Batch(got)) = decode_descriptor(codec, 64, 1, hardened, &payload)
            else {
                panic!("hardened={hardened}: a batch descriptor must decode");
            };
            assert_eq!(
                (got.rm_rounds, got.ins_rounds, got.parent, got.child_count),
                (2, 1, Some(v(6)), 3)
            );
            assert_eq!(
                (got.sync.as_deref(), got.deadline),
                (sent.sync, sent.deadline)
            );
            assert_eq!(
                (&got.removes[..], &got.inserts[..]),
                (sent.removes, sent.inserts)
            );
            for len in 0..payload.bit_len() {
                let cut = prefix(&payload, len);
                assert!(decode_descriptor(codec, 64, 1, hardened, &cut).is_err());
            }
        }
        let streams: [RepairStream<'_>; 1] = [(v(3), &[a], &[b, c])];
        let payload = encode_repair(codec, 3, &streams);
        let Ok(Descriptor::Repair { rounds, streams }) =
            decode_descriptor(codec, 64, 1, true, &payload)
        else {
            panic!("a repair descriptor must decode");
        };
        assert_eq!((rounds, streams), (3, vec![(v(3), 1, vec![a, b, c])]));
        for len in 0..payload.bit_len() {
            assert!(decode_descriptor(codec, 64, 1, true, &prefix(&payload, len)).is_err());
        }
        // A stream longer than its rounds can carry is refused.
        let short = encode_repair(codec, 2, &[(v(3), &[a], &[b, c])]);
        assert!(decode_descriptor(codec, 64, 1, true, &short).is_err());
    }
}
