//! Temporal edge-list ingestion: SNAP/LDBC-style `src dst [w] time`
//! files, plus the deterministic synthetic writer CI replays without any
//! network access.
//!
//! The on-disk format is the one the timely/differential replay tools
//! consume: one whitespace-separated record per line, either
//! `src dst time` or `src dst weight time`, with `#`/`%` comment lines
//! and blank lines ignored. Times are non-negative integers in whatever
//! unit the file chooses (SNAP exports use seconds; the synthetic writer
//! uses milliseconds) — the replay driver only ever compares them. A
//! negative weight marks the event as an edge *departure*; any other
//! weight (including the implicit `1` of three-field records) is an
//! arrival. That convention lets one file carry real churn — births and
//! deaths — instead of insert-only growth.
//!
//! Loading is strict where silence would corrupt a benchmark and lenient
//! where real exports are messy:
//!
//! * malformed records (wrong field count, non-numeric tokens) fail with
//!   a line-numbered [`GraphError::ParseEdgeList`] and the load returns
//!   nothing — never a half-parsed timeline. An uncommented header such
//!   as `src dst time` is one of them, a line-1 error: mark it `#`;
//! * endpoints at or above an explicitly declared node count fail the
//!   same way, a self-loop's included (without a declared count the
//!   loader infers `max id + 1`);
//! * in-range self-loops are skipped and counted (SNAP exports contain
//!   them, and the simple-graph engines cannot represent them);
//! * exact duplicate events (same time, edge and sign) are dropped and
//!   counted — replaying a duplicated arrival would silently no-op but
//!   still bill the engines for it.
//!
//! The surviving events are stably sorted by time (ties keep file
//! order), so downstream batching is deterministic for a given file, and
//! the whole timeline folds into a [`TemporalEdgeList::fingerprint`]
//! that bench gates compare to refuse cross-source baselines.
//!
//! **Cost.** A load is one pass over the bytes and allocates nothing per
//! line: a line is cut into at most four fields where it lies, a field of
//! digits is folded into its integer as it is read (anything else — a
//! sign, an overflow, a stray character — is `str::parse`'s, so every
//! refusal is worded by std), and the only memory that grows with the
//! timeline is the event vector, 24 bytes an event (`parse_str` sizes it
//! once from a newline count; `load_path` reads a line at a time, so the
//! file is never resident beside its events). No set over the whole
//! timeline is kept to find duplicates: duplicates share a timestamp, so
//! after the stable sort each lies in the same equal-time run as its
//! original and behind it, and one run of two or more at a time is
//! passed through a set that lives no longer than the run. The byte scan
//! knows the ASCII members of `char::is_whitespace`; a line holding any
//! non-ASCII byte (a no-break space between fields, say) is cut by
//! `str::split_whitespace` instead, so both routes accept exactly the
//! same records. On the benchmark's `replay_hub` text (1 M events,
//! 19 MB) that is 8–12 M events/s on a shared 2-vCPU box, and the
//! workload peaks at 57 MB: the text, the events, and little else.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::{GraphError, NodeId};

/// Folds a word stream into a 64-bit FNV-1a fingerprint.
///
/// Deterministic and order-sensitive. Not a cryptographic hash — it
/// exists so two runs can cheaply agree (or refuse to agree) on *which*
/// input they measured. Bench JSON carries it through
/// [`fingerprint_hex`], never as a number: an `f64` cannot hold 64 bits.
pub fn fingerprint64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The one spelling of a fingerprint in bench JSON and on the command
/// line: 16 lower-case hex digits, compared as a string.
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// One timestamped edge event of a temporal edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TemporalEvent {
    /// Event time, in the file's own unit.
    pub time: u64,
    /// Lower endpoint (events are normalized so `u < v`).
    pub u: NodeId,
    /// Higher endpoint.
    pub v: NodeId,
    /// Signed weight: negative means the edge departs at `time`, any
    /// other value means it arrives.
    pub weight: i64,
}

impl TemporalEvent {
    /// Whether this event removes the edge (negative weight).
    pub fn is_departure(&self) -> bool {
        self.weight < 0
    }
}

/// A parsed, time-sorted temporal edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalEdgeList {
    node_count: usize,
    events: Vec<TemporalEvent>,
    self_loops_skipped: usize,
    duplicates_dropped: usize,
}

impl TemporalEdgeList {
    /// Number of nodes (declared via
    /// [`TemporalLoader::with_node_count`], or inferred as `max id + 1`).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The events, stably sorted by time (ties keep file order).
    pub fn events(&self) -> &[TemporalEvent] {
        &self.events
    }

    /// Number of surviving events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Self-loop records skipped during the load.
    pub fn self_loops_skipped(&self) -> usize {
        self.self_loops_skipped
    }

    /// Exact duplicate events dropped during the load.
    pub fn duplicates_dropped(&self) -> usize {
        self.duplicates_dropped
    }

    /// First and last event times, `None` when empty.
    pub fn time_span(&self) -> Option<(u64, u64)> {
        match (self.events.first(), self.events.last()) {
            (Some(first), Some(last)) => Some((first.time, last.time)),
            _ => None,
        }
    }

    /// Deterministic fingerprint of the whole timeline (node
    /// count plus every event in order). Two loads agree on it exactly
    /// when they parsed the same effective timeline.
    pub fn fingerprint(&self) -> u64 {
        let header = [0x007E_4A11_u64, self.node_count as u64];
        let words = header.into_iter().chain(self.events.iter().flat_map(|e| {
            [
                e.time,
                e.u.index() as u64,
                e.v.index() as u64,
                e.weight as u64,
            ]
        }));
        fingerprint64(words)
    }
}

/// Parser for `src dst [w] time` edge-list text.
///
/// ```
/// use congest_graph::temporal::TemporalLoader;
///
/// let text = "# toy timeline\n0 1 10\n1 2 -1 20\n";
/// let list = TemporalLoader::new().parse_str(text).unwrap();
/// assert_eq!(list.node_count(), 3);
/// assert_eq!(list.len(), 2);
/// assert!(list.events()[1].is_departure());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TemporalLoader {
    node_count: Option<usize>,
}

impl TemporalLoader {
    /// A loader with no declared node count.
    pub fn new() -> Self {
        TemporalLoader::default()
    }

    /// Declares the node count: any endpoint at or above `n` becomes a
    /// line-numbered parse error instead of silently growing the graph.
    pub fn with_node_count(mut self, n: usize) -> Self {
        self.node_count = Some(n);
        self
    }

    /// Loads and parses a file, one buffered line at a time: the text is
    /// never resident as a whole beside its events. I/O failures become
    /// [`GraphError::Io`]; parse failures are line-numbered. Either way
    /// nothing half-applied escapes: the error is the only output.
    pub fn load_path<P: AsRef<Path>>(&self, path: P) -> Result<TemporalEdgeList, GraphError> {
        let path = path.as_ref();
        let io_error = |e: std::io::Error| GraphError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let mut reader = BufReader::new(File::open(path).map_err(io_error)?);
        // Counting this file's newlines would mean reading it twice, so
        // the event vector grows by doubling here.
        let mut ingest = Ingest::new(self.node_count, 0);
        let mut raw = String::new();
        while reader.read_line(&mut raw).map_err(io_error)? > 0 {
            ingest.line(&raw)?;
            raw.clear();
        }
        Ok(ingest.finish())
    }

    /// Parses edge-list text (the file-free form the property tests and
    /// the synthetic writer round-trip through).
    pub fn parse_str(&self, text: &str) -> Result<TemporalEdgeList, GraphError> {
        // One record per line at most, and the shortest record
        // (`0 1 2\n`) is six bytes: the vector is sized once, and never
        // beyond a small multiple of the text the caller already holds.
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        let mut ingest = Ingest::new(self.node_count, (newlines + 1).min(text.len() / 6 + 1));
        // `str::lines` would also strip a `\r` before the `\n` and the
        // empty piece after a final `\n`; both are blank to `line`.
        for raw in text.split('\n') {
            ingest.line(raw)?;
        }
        Ok(ingest.finish())
    }
}

/// One load in progress: `parse_str` and `load_path` feed it lines, and
/// nothing it holds grows with the timeline except `events`.
struct Ingest {
    node_count: Option<usize>,
    /// 1-based number of the line `line` saw last.
    line: usize,
    events: Vec<TemporalEvent>,
    self_loops: usize,
    max_id: u32,
}

impl Ingest {
    fn new(node_count: Option<usize>, capacity: usize) -> Self {
        Ingest {
            node_count,
            line: 0,
            events: Vec::with_capacity(capacity),
            self_loops: 0,
            max_id: 0,
        }
    }

    /// Takes the next line of the input (with or without its line
    /// ending) and keeps the record on it, if there is one.
    fn line(&mut self, raw: &str) -> Result<(), GraphError> {
        self.line += 1;
        let line = self.line;
        // Both cuts split on `char::is_whitespace`; the byte scan only
        // knows its ASCII members, so a line with any other byte (a
        // U+00A0 or U+2003 between fields, say) goes the Unicode way.
        let (fields, count) = if raw.is_ascii() {
            cut_ascii(raw)
        } else {
            first_four(raw.split_whitespace())
        };
        if count == 0 || fields[0].starts_with(['#', '%']) {
            return Ok(());
        }
        let [src, dst, weight, time] = match count {
            3 => [fields[0], fields[1], "1", fields[2]],
            4 => fields,
            _ => {
                return Err(parse_error(
                    line,
                    format!("expected `src dst [w] time`, got {count} field(s)"),
                ));
            }
        };
        let src = parse_field::<u32>(line, "src", src)?;
        let dst = parse_field::<u32>(line, "dst", dst)?;
        let weight = parse_field::<i64>(line, "weight", weight)?;
        let time = parse_field::<u64>(line, "time", time)?;

        let (u, v) = if src < dst { (src, dst) } else { (dst, src) };
        if let Some(n) = self.node_count {
            if v as usize >= n {
                return Err(parse_error(
                    line,
                    format!("node {v} is outside the declared node count {n}"),
                ));
            }
        }
        if src == dst {
            self.self_loops += 1;
            return Ok(());
        }
        self.max_id = self.max_id.max(v);
        self.events.push(TemporalEvent {
            time,
            u: NodeId(u),
            v: NodeId(v),
            weight,
        });
        Ok(())
    }

    fn finish(self) -> TemporalEdgeList {
        let mut events = self.events;
        // Stable by time: records sharing a timestamp keep file order,
        // so the sorted timeline is a pure function of the file bytes.
        events.sort_by_key(|e| e.time);
        let duplicates_dropped = drop_duplicates(&mut events);
        let node_count = self.node_count.unwrap_or(if events.is_empty() {
            0
        } else {
            self.max_id as usize + 1
        });
        TemporalEdgeList {
            node_count,
            events,
            self_loops_skipped: self.self_loops,
            duplicates_dropped,
        }
    }
}

/// The first four of `tokens`, and how many there were in all.
fn first_four<'a>(tokens: impl Iterator<Item = &'a str>) -> ([&'a str; 4], usize) {
    let mut fields = [""; 4];
    let mut count = 0;
    for token in tokens {
        if let Some(field) = fields.get_mut(count) {
            *field = token;
        }
        count += 1;
    }
    (fields, count)
}

/// [`first_four`] of an ASCII line's whitespace-separated tokens, cut
/// on bytes. The separators are the ASCII members of
/// `char::is_whitespace` — U+0009 to U+000D and the space — and so
/// include the vertical tab, which `u8::is_ascii_whitespace` (and with
/// it `str::split_ascii_whitespace`) leaves out.
fn cut_ascii(line: &str) -> ([&str; 4], usize) {
    let is_space = |b: u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = line.as_bytes();
    let mut at = 0;
    first_four(std::iter::from_fn(|| {
        while at < bytes.len() && is_space(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && !is_space(bytes[at]) {
            at += 1;
        }
        (start < at).then(|| &line[start..at])
    }))
}

/// Drops exact duplicates (same time, edge and sign) from time-sorted
/// `events` in place, first occurrence surviving, and returns how many
/// went. Duplicates share a timestamp, so after the stable sort each
/// sits in the same equal-time run as its original, later in file
/// order: a run of one has none, and a longer run gets a set of its own
/// size that is gone before the next run starts.
fn drop_duplicates(events: &mut Vec<TemporalEvent>) -> usize {
    let mut kept = 0;
    let mut start = 0;
    while start < events.len() {
        let time = events[start].time;
        let end = start
            + events[start..]
                .iter()
                .take_while(|e| e.time == time)
                .count();
        if end - start == 1 {
            events[kept] = events[start];
            kept += 1;
        } else {
            let mut seen = HashSet::with_capacity(end - start);
            for at in start..end {
                let event = events[at];
                if seen.insert((event.u, event.v, event.is_departure())) {
                    events[kept] = event;
                    kept += 1;
                }
            }
        }
        start = end;
    }
    let dropped = events.len() - kept;
    events.truncate(kept);
    dropped
}

fn parse_error(line: usize, reason: String) -> GraphError {
    GraphError::ParseEdgeList { line, reason }
}

/// Parses one numeric field. A token of at most 19 digits and nothing
/// else cannot overflow a `u64` and is folded in one pass; every other
/// token — a sign, twenty digits, a stray character — is `str::parse`'s,
/// and so is the wording of every error.
fn parse_field<T>(line: usize, name: &str, token: &str) -> Result<T, GraphError>
where
    T: std::str::FromStr + TryFrom<u64>,
    <T as std::str::FromStr>::Err: std::fmt::Display,
{
    if token.len() <= 19 {
        let folded = token.bytes().try_fold(0u64, |acc, b| {
            b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
        });
        if let Some(Ok(value)) = folded.map(T::try_from) {
            return Ok(value);
        }
    }
    token
        .parse::<T>()
        .map_err(|e| parse_error(line, format!("{name} field {token:?}: {e}")))
}

/// Deterministic synthetic temporal-file writer.
///
/// Emits a realistic churn timeline — arrivals of fresh uniform edges
/// interleaved with departures of currently-live ones, at
/// non-decreasing millisecond timestamps — entirely from a seed, so CI
/// can exercise the full writer → loader → replay pipeline with no
/// network access. Output is byte-stable per seed (the seed itself is
/// embedded in the header comment, so distinct seeds can never collide
/// byte-for-byte).
///
/// ```
/// use congest_graph::temporal::{SyntheticTemporal, TemporalLoader};
///
/// let writer = SyntheticTemporal::new(50, 200).seeded(7);
/// let text = writer.render();
/// assert_eq!(text, writer.render()); // byte-stable
/// let list = TemporalLoader::new().parse_str(&text).unwrap();
/// assert_eq!(list.len(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTemporal {
    n: usize,
    events: usize,
    seed: u64,
    remove_fraction: f64,
}

impl SyntheticTemporal {
    /// A writer producing `events` events on `n` nodes (default seed 0,
    /// 30% departures).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (no pair to connect) or `events == 0`.
    pub fn new(n: usize, events: usize) -> Self {
        assert!(n >= 2, "need at least 2 nodes to form edges, got {n}");
        assert!(events > 0, "need at least one event");
        SyntheticTemporal {
            n,
            events,
            seed: 0,
            remove_fraction: 0.3,
        }
    }

    /// Sets the seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fraction of events that depart a live edge (builder
    /// style, clamped to `[0, 1]`).
    pub fn with_remove_fraction(mut self, fraction: f64) -> Self {
        self.remove_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Renders the timeline as edge-list text.
    pub fn render(&self) -> String {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::fmt::Write as _;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = String::with_capacity(self.events * 12 + 128);
        writeln!(
            out,
            "# synthetic temporal edge list: n={} events={} seed={:#x}",
            self.n, self.events, self.seed
        )
        .expect("writing to a String");
        out.push_str("# format: src dst w time (w < 0 departs the edge)\n");

        // `live` picks the departing edge by position (and `swap_remove`
        // keeps that order seed-stable); `is_live` answers membership.
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut is_live: HashSet<(u32, u32)> = HashSet::new();
        let mut time = 0u64;
        for _ in 0..self.events {
            time += rng.gen_range(1u64..=3);
            if !live.is_empty() && rng.gen_bool(self.remove_fraction) {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                is_live.remove(&(u, v));
                writeln!(out, "{u} {v} -1 {time}").expect("writing to a String");
            } else {
                let u = rng.gen_range(0..self.n as u32);
                let mut v = rng.gen_range(0..self.n as u32);
                while v == u {
                    v = rng.gen_range(0..self.n as u32);
                }
                let (u, v) = if u < v { (u, v) } else { (v, u) };
                if is_live.insert((u, v)) {
                    live.push((u, v));
                }
                writeln!(out, "{u} {v} 1 {time}").expect("writing to a String");
            }
        }
        out
    }

    /// Writes the rendered timeline to `path` ([`GraphError::Io`] on
    /// failure).
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        let path = path.as_ref();
        std::fs::write(path, self.render()).map_err(|e| GraphError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_and_four_field_records_parse() {
        let list = TemporalLoader::new()
            .parse_str("0 5 100\n2 1 -3 50\n")
            .unwrap();
        assert_eq!(list.node_count(), 6);
        // Sorted by time; endpoints normalized lo/hi.
        assert_eq!(
            list.events(),
            &[
                TemporalEvent {
                    time: 50,
                    u: NodeId(1),
                    v: NodeId(2),
                    weight: -3
                },
                TemporalEvent {
                    time: 100,
                    u: NodeId(0),
                    v: NodeId(5),
                    weight: 1
                },
            ]
        );
        assert_eq!(list.time_span(), Some((50, 100)));
    }

    #[test]
    fn comments_and_blanks_are_skipped_but_a_bare_header_is_a_line_one_error() {
        let text = "# comment\n% matrix-market comment\n\n0 1 7\n";
        assert_eq!(TemporalLoader::new().parse_str(text).unwrap().len(), 1);
        match TemporalLoader::new().parse_str("src dst time\n0 1 7\n") {
            Err(GraphError::ParseEdgeList { line: 1, .. }) => {}
            other => panic!("expected a line-1 parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_carry_their_line_number() {
        for (text, line) in [
            ("0 1 5\nnot numbers here\n", 2),
            ("0 1\n", 1),
            ("0 1 2 3 4 5\n", 1),
            ("0 1 5\n1 2 x\n", 2),
        ] {
            match TemporalLoader::new().parse_str(text) {
                Err(GraphError::ParseEdgeList { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
                other => panic!("expected a line-{line} parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn declared_node_count_rejects_out_of_range_ids() {
        let err = TemporalLoader::new()
            .with_node_count(3)
            .parse_str("0 1 5\n0 3 6\n")
            .unwrap_err();
        match err {
            GraphError::ParseEdgeList { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("node 3"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without a declared count the same text infers n = 4.
        let list = TemporalLoader::new().parse_str("0 1 5\n0 3 6\n").unwrap();
        assert_eq!(list.node_count(), 4);
    }

    #[test]
    fn declared_node_count_rejects_an_out_of_range_self_loop() {
        // The range check comes before the self-loop skip: node 9 does
        // not exist under a declared count of 3, loop or not.
        let text = "0 1 5\n9 9 6\n";
        match TemporalLoader::new().with_node_count(3).parse_str(text) {
            Err(GraphError::ParseEdgeList { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("node 9"), "{reason}");
            }
            other => panic!("expected a line-2 parse error, got {other:?}"),
        }
        // An in-range self-loop is still skipped under a declared count.
        let list = TemporalLoader::new()
            .with_node_count(3)
            .parse_str("0 1 5\n2 2 6\n")
            .unwrap();
        assert_eq!((list.len(), list.self_loops_skipped()), (1, 1));
        // Without a declared count the loop is skipped and never grows
        // the graph.
        let list = TemporalLoader::new().parse_str(text).unwrap();
        assert_eq!(list.self_loops_skipped(), 1);
        assert_eq!(list.node_count(), 2);
    }

    #[test]
    fn self_loops_and_duplicates_are_counted_not_kept() {
        let list = TemporalLoader::new()
            .parse_str("3 3 1\n0 1 5\n1 0 5\n0 1 -1 5\n")
            .unwrap();
        assert_eq!(list.self_loops_skipped(), 1);
        // `1 0 5` duplicates `0 1 5` after normalization; the departure
        // at the same time is a distinct event.
        assert_eq!(list.duplicates_dropped(), 1);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = TemporalLoader::new()
            .load_path("/definitely/not/here.txt")
            .unwrap_err();
        match err {
            GraphError::Io { path, .. } => assert!(path.contains("not/here")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fingerprints_distinguish_timelines() {
        let a = TemporalLoader::new().parse_str("0 1 5\n1 2 9\n").unwrap();
        let b = TemporalLoader::new().parse_str("0 1 5\n1 2 10\n").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            TemporalLoader::new()
                .parse_str("0 1 5\n1 2 9\n")
                .unwrap()
                .fingerprint()
        );
        assert_eq!(fingerprint_hex(a.fingerprint()).len(), 16);
        assert_eq!(fingerprint_hex(0xAB), "00000000000000ab");
    }

    #[test]
    fn synthetic_writer_is_deterministic_and_loadable() {
        let w = SyntheticTemporal::new(30, 120).seeded(42);
        assert_eq!(w.render(), w.render());
        assert_ne!(
            w.render(),
            SyntheticTemporal::new(30, 120).seeded(43).render()
        );
        let list = TemporalLoader::new().parse_str(&w.render()).unwrap();
        assert_eq!(list.len(), 120);
        assert!(list.node_count() <= 30);
        assert!(list.events().iter().any(|e| e.is_departure()));
        assert!(list.events().windows(2).all(|p| p[0].time <= p[1].time));
    }

    #[test]
    fn synthetic_writer_bytes_are_pinned() {
        // Taken before the writer's live-edge index became a hash set:
        // the same draws in the same order, so the same bytes.
        for (n, events, seed, bytes, pinned) in [
            (30, 120, 42, 1_453, 0x60a2_291f_79e5_d484_u64),
            (500, 20_000, 7, 311_717, 0x249f_a3d3_409c_a321),
        ] {
            let text = SyntheticTemporal::new(n, events).seeded(seed).render();
            assert_eq!(text.len(), bytes);
            assert_eq!(fingerprint64(text.bytes().map(u64::from)), pinned);
        }
    }

    #[test]
    fn empty_timeline_is_fine() {
        let list = TemporalLoader::new().parse_str("# nothing\n").unwrap();
        assert!(list.is_empty());
        assert_eq!(list.node_count(), 0);
        assert_eq!(list.time_span(), None);
    }
}
