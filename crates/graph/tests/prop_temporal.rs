//! Property tests for the temporal edge-list pipeline: the loader must
//! never panic on arbitrary text, errors must carry the offending line
//! number and leave nothing half-applied, and the synthetic writer must
//! round-trip byte-stably through the loader for every seed. The
//! loader's predecessor — a `Vec<&str>` a line and one hash set over the
//! whole timeline — is kept here as `reference_parse`, the oracle the
//! byte-cutting loader must agree with on every input.

use std::path::PathBuf;

use congest_graph::temporal::{fingerprint64, SyntheticTemporal, TemporalEvent, TemporalLoader};
use congest_graph::{GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fresh path under the cargo-managed integration-test temp dir.
fn tmp_path(name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{seed:x}.tel"))
}

/// Deterministic garbage: lines mixing valid records, near-miss records
/// (bad field counts, non-numeric tokens, negative times), comments and
/// junk bytes — the space a messy real-world export lives in.
fn garbage_text(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let lines = rng.gen_range(0usize..40);
    for _ in 0..lines {
        match rng.gen_range(0u32..8) {
            0 => out.push_str(&format!(
                "{} {} {}\n",
                rng.gen_range(0u32..50),
                rng.gen_range(0u32..50),
                rng.gen_range(0u64..1000),
            )),
            1 => out.push_str(&format!(
                "{} {} {} {}\n",
                rng.gen_range(0u32..50),
                rng.gen_range(0u32..50),
                rng.gen_range(-3i64..3),
                rng.gen_range(0u64..1000),
            )),
            2 => out.push_str("# comment line\n"),
            3 => out.push('\n'),
            4 => out.push_str(&format!("{}\n", rng.gen_range(0u32..100))),
            5 => out.push_str("one two three\n"),
            6 => out.push_str(&format!(
                "{} {} -{}\n",
                rng.gen_range(0u32..50),
                rng.gen_range(0u32..50),
                rng.gen_range(1u64..9),
            )),
            _ => {
                for _ in 0..rng.gen_range(1usize..12) {
                    out.push((32 + rng.gen_range(0u8..94)) as char);
                }
                out.push('\n');
            }
        }
    }
    out
}

/// What a load yields, field for field.
#[derive(Debug, PartialEq, Eq)]
struct Loaded {
    events: Vec<TemporalEvent>,
    node_count: usize,
    self_loops_skipped: usize,
    duplicates_dropped: usize,
    fingerprint: u64,
}

/// `TemporalLoader::parse_str` as it stood before the single-pass
/// rewrite, body verbatim less the header skip the loader has since
/// dropped (`self.node_count` is the argument; the fingerprint is
/// `TemporalEdgeList`'s formula).
fn reference_parse(node_count: Option<usize>, text: &str) -> Result<Loaded, GraphError> {
    fn parse_error(line: usize, reason: String) -> GraphError {
        GraphError::ParseEdgeList { line, reason }
    }
    fn parse_field<T: std::str::FromStr>(
        line: usize,
        name: &str,
        token: &str,
    ) -> Result<T, GraphError>
    where
        T::Err: std::fmt::Display,
    {
        token
            .parse::<T>()
            .map_err(|e| parse_error(line, format!("{name} field {token:?}: {e}")))
    }

    let mut events: Vec<TemporalEvent> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut self_loops = 0usize;
    let mut duplicates = 0usize;
    let mut max_id = 0usize;

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        let (src, dst, weight, time) = match fields.as_slice() {
            [s, d, t] => (*s, *d, None, *t),
            [s, d, w, t] => (*s, *d, Some(*w), *t),
            _ => {
                return Err(parse_error(
                    line,
                    format!("expected `src dst [w] time`, got {} field(s)", fields.len()),
                ));
            }
        };
        let src = parse_field::<u32>(line, "src", src)?;
        let dst = parse_field::<u32>(line, "dst", dst)?;
        let weight = match weight {
            Some(w) => parse_field::<i64>(line, "weight", w)?,
            None => 1,
        };
        let time = parse_field::<u64>(line, "time", time)?;

        if src == dst {
            self_loops += 1;
            continue;
        }
        let (u, v) = if src < dst { (src, dst) } else { (dst, src) };
        if let Some(n) = node_count {
            if v as usize >= n {
                return Err(parse_error(
                    line,
                    format!("node {v} is outside the declared node count {n}"),
                ));
            }
        }
        max_id = max_id.max(v as usize);
        if !seen.insert((time, u, v, weight < 0)) {
            duplicates += 1;
            continue;
        }
        events.push(TemporalEvent {
            time,
            u: NodeId(u),
            v: NodeId(v),
            weight,
        });
    }

    // Stable by time: records sharing a timestamp keep file order,
    // so the sorted timeline is a pure function of the file bytes.
    events.sort_by_key(|e| e.time);
    let node_count = node_count.unwrap_or(if events.is_empty() { 0 } else { max_id + 1 });
    let header = [0x007E_4A11_u64, node_count as u64];
    let fingerprint = fingerprint64(header.into_iter().chain(events.iter().flat_map(|e| {
        [
            e.time,
            e.u.index() as u64,
            e.v.index() as u64,
            e.weight as u64,
        ]
    })));
    Ok(Loaded {
        events,
        node_count,
        self_loops_skipped: self_loops,
        duplicates_dropped: duplicates,
        fingerprint,
    })
}

fn loader(node_count: Option<usize>) -> TemporalLoader {
    let loader = TemporalLoader::new();
    match node_count {
        Some(n) => loader.with_node_count(n),
        None => loader,
    }
}

fn load(loader: &TemporalLoader, text: &str) -> Result<Loaded, GraphError> {
    loader.parse_str(text).map(|list| Loaded {
        events: list.events().to_vec(),
        node_count: list.node_count(),
        self_loops_skipped: list.self_loops_skipped(),
        duplicates_dropped: list.duplicates_dropped(),
        fingerprint: list.fingerprint(),
    })
}

/// The loader and the oracle agree on `text`: equal timelines field for
/// field, or the same error variant, line and reason string. Returns
/// the shared outcome so a case can also say what it expected.
fn agree(node_count: Option<usize>, text: &str) -> Result<Loaded, GraphError> {
    let got = load(&loader(node_count), text);
    let want = reference_parse(node_count, text);
    assert_eq!(got, want, "node_count {node_count:?}, text {text:?}");
    got
}

fn reason_of(outcome: Result<Loaded, GraphError>) -> (usize, String) {
    match outcome {
        Err(GraphError::ParseEdgeList { line, reason }) => (line, reason),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// Field separators and line endings: every ASCII member of
/// `char::is_whitespace` cuts on the byte route, U+00A0 / U+2003 / U+0085
/// send the line down the Unicode route, and both routes mix in one file.
#[test]
fn separators_and_line_endings_match_the_reference() {
    let crlf = "# header\r\n0 1 5\r\n1 2 -1 6\r\n\r\n2 3 7";
    assert_eq!(agree(None, crlf).unwrap().events.len(), 3);
    assert_eq!(agree(None, &format!("{crlf}\r\n")).unwrap().events.len(), 3);
    assert_eq!(agree(None, &format!("{crlf}\r")).unwrap().events.len(), 3);
    // A bare `\r` is whitespace, not a line ending.
    assert_eq!(agree(None, "0 1\r5\n").unwrap().events.len(), 1);
    assert_eq!(reason_of(agree(None, "0 1 5\r1 2 6\n")).0, 1);

    for sep in [
        "\t",
        "\u{b}",
        "\u{c}",
        "\r",
        " \t ",
        "\u{a0}",
        "\u{2003}",
        "\u{85}",
        " \u{a0}\t",
    ] {
        let text = format!("{sep}0{sep}1{sep}2{sep}3{sep}\n4{sep}5{sep}6\n7 8 9\n");
        let list = agree(None, &text).unwrap();
        assert_eq!(list.events.len(), 3, "{sep:?}");
        assert_eq!(list.events[0].weight, 2, "{sep:?}");
    }
    // Not whitespace to either route: the token keeps the byte and
    // `str::parse` words the refusal.
    for junk in ["\u{1c}", "\u{1f}", "\u{0}", "\u{7f}", "\u{200b}", "é"] {
        let (line, reason) = reason_of(agree(None, &format!("0 1 5\n2{junk}3 4 6\n")));
        assert_eq!(line, 2, "{junk:?}");
        assert!(reason.starts_with("src field"), "{reason}");
    }
    // Comments and blanks behind leading whitespace, on both routes; a
    // `#` after a record is not a comment.
    let comments = "  # indented\n\t% matrix market\n \u{a0}# nbsp first\n\u{2003}\n \t \n#\n";
    assert!(agree(None, comments).unwrap().events.is_empty());
    assert_eq!(
        reason_of(agree(None, &format!("{comments}0 1 5 # 7\n"))),
        (7, "expected `src dst [w] time`, got 5 field(s)".to_owned())
    );
}

/// Numeric tokens: whatever the one-pass fold does not take is
/// `str::parse`'s, so acceptance and wording are std's at every edge.
#[test]
fn numeric_edges_match_the_reference() {
    let digits = |n: usize| "9".repeat(n);
    let u32_over = (u64::from(u32::MAX) + 1).to_string();
    let accepted = [
        "+5 1 7".to_owned(),
        "1 +5 +2 +7".to_owned(),
        "0 1 -0 5".to_owned(),
        "0 1 +0 5".to_owned(),
        "007 08 0009".to_owned(),
        "0 1 00000000000000000000000000005".to_owned(),
        format!("0 1 {}", digits(19)),
        format!("0 1 {}", u64::MAX),
        format!("0 {} 5", u32::MAX),
        format!("0 1 {} 5", i64::MAX),
        format!("0 1 {} 5", i64::MIN),
        format!("0 1 -{} 5", digits(18)),
    ];
    for line in &accepted {
        let list = agree(None, &format!("{line}\n")).unwrap();
        assert_eq!(list.events.len(), 1, "{line}");
    }
    let refused = [
        format!("0 1 {}", digits(20)),
        format!("0 1 {}", digits(21)),
        format!("0 1 {}0", u64::MAX),
        format!("{u32_over} 1 5"),
        format!("0 {u32_over} 5"),
        format!("0 {} 5", digits(19)),
        format!("0 1 {} 5", digits(19)),
        format!("0 1 {}0 5", i64::MIN),
        "0 1 -5".to_owned(),
        "-0 1 5".to_owned(),
        "0 1 + 5".to_owned(),
        "0 1 - 5".to_owned(),
        "0 1 5_000".to_owned(),
        "0 1 5.0".to_owned(),
        "0 1 1e3".to_owned(),
        "0 1 0x10".to_owned(),
        "0 1 ٣".to_owned(),
        "0 1 ５".to_owned(),
    ];
    for line in &refused {
        let (at, reason) = reason_of(agree(None, &format!("0 1 1\n{line}\n")));
        assert_eq!(at, 2, "{line}");
        assert!(reason.contains(" field \""), "{reason}");
    }
    // The first bad field is the one named, in `src dst w time` order.
    let (_, reason) = reason_of(agree(None, "x y z w\n"));
    assert!(reason.starts_with("src field \"x\""), "{reason}");
    let (_, reason) = reason_of(agree(None, "1 2 z w\n"));
    assert!(reason.starts_with("weight field \"z\""), "{reason}");
}

/// Field counts, declared node counts and uncommented headers.
#[test]
fn field_counts_ranges_and_headers_match_the_reference() {
    for (text, fields) in [
        ("0\n", 1),
        ("0 1\n", 2),
        ("0 1 2 3 4\n", 5),
        ("0 1 2 3 4 5\n", 6),
        ("0\u{a0}1\n", 2),
        ("0 1 2 3 4\u{2003}5\n", 6),
    ] {
        let (line, reason) = reason_of(agree(None, &format!("0 1 1\n\n{text}")));
        assert_eq!(line, 3);
        assert_eq!(
            reason,
            format!("expected `src dst [w] time`, got {fields} field(s)")
        );
    }
    for text in ["0 1 5\n0 3 6\n", "0 1 5\n3 0 6\n", "0 1 5\n4 3 -1 6\n"] {
        assert_eq!(reason_of(agree(Some(3), text)).0, 2);
    }
    assert_eq!(agree(Some(4), "0 1 5\n0 3 6\n").unwrap().node_count, 4);
    assert_eq!(agree(Some(7), "# nothing\n").unwrap().node_count, 7);
    assert_eq!(agree(Some(0), "\n").unwrap().node_count, 0);
    assert_eq!(reason_of(agree(Some(0), "\n0 1 5")).0, 2);

    // An uncommented header is a record like any other: it fails on
    // line 1. Marked as a comment, the first error is the bad record.
    let text = "src dst time\n0 1 5\nnot a record\n1 2 6";
    assert_eq!(reason_of(agree(None, text)).0, 1);
    assert_eq!(reason_of(agree(None, &format!("# {text}"))).0, 3);
    assert!(agree(None, "").unwrap().events.is_empty());
}

/// Duplicates are found after the sort, inside one equal-time run: the
/// same survivors in the same order as one set over the whole file,
/// however far apart the copies sat and however long the run.
#[test]
fn duplicates_match_the_reference() {
    // Copies separated by other timestamps, in both endpoint orders and
    // both signs; weights of one sign are one event, of two signs two.
    let text = "0 1 9\n2 3 4\n1 0 9\n0 1 -1 9\n5 6 1\n1 0 -7 9\n0 1 3 9\n2 3 4\n0 1 8\n3 2 -2 4\n";
    let list = agree(None, text).unwrap();
    assert_eq!(list.duplicates_dropped, 4);
    assert_eq!(
        list.events
            .iter()
            .map(|e| (e.time, e.weight))
            .collect::<Vec<_>>(),
        [(1, 1), (4, 1), (4, -2), (8, 1), (9, 1), (9, -1)]
    );

    for run in [1usize, 2, 40, 5_000] {
        // One run at time 100 whose every fourth record repeats an
        // earlier one of the run (alternating endpoint order, another
        // weight of the same sign), opened by a record far up the file
        // and fenced by other times.
        let mut text = String::from("7 8 100\n0 1 50\n");
        for i in 0..run {
            let (of, flip) = if i % 4 == 3 {
                (i - 1 - (i / 4) % 3, i % 8 == 3)
            } else {
                (i, false)
            };
            let (u, v) = (of, of + 1 + of % 5);
            let (u, v) = if flip { (v, u) } else { (u, v) };
            let w = if of % 3 == 0 {
                -1 - (i % 2) as i64
            } else {
                1 + (i % 2) as i64
            };
            text.push_str(&format!("{u} {v} {w} 100\n"));
            if i % 7 == 0 {
                text.push_str(&format!("{u} {v} {}\n", 150 + i));
            }
        }
        text.push_str("8 7 2 100\n0 1 -1 50\n");
        let list = agree(None, &text).unwrap();
        assert_eq!(list.duplicates_dropped, run / 4 + 1, "run of {run}");
        // Without its two opening lines the closing repeat is new.
        let body = text.splitn(3, '\n').nth(2).unwrap();
        assert_eq!(
            agree(Some(6_000), body).unwrap().duplicates_dropped,
            run / 4
        );
    }

    // One long run, then many medium runs holding the same edges, the
    // last of each a repeat: what one run saw says nothing about the
    // next, and no run pays for the size of an earlier one.
    let run = |len: usize, time: usize| -> String {
        let edges = (0..len - 1).map(|i| format!("{i} {} {time}\n", i + 1));
        edges.chain([format!("1 0 {time}\n")]).collect()
    };
    let text: String = [run(5_000, 100)]
        .into_iter()
        .chain((0..400).map(|k| run(20, 200 + k)))
        .collect();
    let list = agree(None, &text).unwrap();
    assert_eq!(
        (list.events.len(), list.duplicates_dropped),
        (4_999 + 400 * 19, 401)
    );
}

/// Before this fix a self-loop was skipped before its endpoints were
/// range-checked. The one place the loader and `reference_parse` part.
#[test]
fn an_out_of_range_self_loop_is_the_one_departure_from_the_reference() {
    let text = "0 1 5\n9 9 6\n";
    let old = reference_parse(Some(3), text).unwrap();
    assert_eq!((old.events.len(), old.self_loops_skipped), (1, 1));
    assert_eq!(
        load(&loader(Some(3)), text),
        Err(GraphError::ParseEdgeList {
            line: 2,
            reason: "node 9 is outside the declared node count 3".to_owned(),
        })
    );
    // In range, or with no count declared, the two still agree.
    assert_eq!(agree(Some(10), text).unwrap().self_loops_skipped, 1);
    assert_eq!(agree(None, text).unwrap().node_count, 2);
}

/// `load_path` reads a line at a time through a buffer smaller than the
/// file; the result is `parse_str`'s on the same bytes, final line
/// without a newline included, and a parse error keeps its line number.
#[test]
fn load_path_on_a_file_larger_than_the_read_buffer_equals_parse_str() {
    let mut text = SyntheticTemporal::new(300, 6_000).seeded(0xF11E).render();
    text.push_str("# a line the reader has to grow for: ");
    text.push_str(&"x".repeat(20_000));
    text.push_str("\r\n\u{2003}298\u{a0}299 -4 999999\r\n7 7 3\n298 299 -1 999999");
    assert!(text.len() > 64 * 1024 && !text.ends_with('\n'));
    let path = tmp_path("bigger-than-the-buffer", 0);
    std::fs::write(&path, &text).unwrap();
    let from_disk = TemporalLoader::new().load_path(&path);
    std::fs::write(&path, format!("{text} oops\n0 1 2\n")).unwrap();
    let poisoned = TemporalLoader::new().load_path(&path);
    std::fs::remove_file(&path).ok();

    let from_disk = from_disk.unwrap();
    let from_str = TemporalLoader::new().parse_str(&text).unwrap();
    assert_eq!(from_disk, from_str);
    assert_eq!(from_disk.len(), 6_001);
    assert_eq!(from_disk.self_loops_skipped(), 1);
    assert_eq!(from_disk.duplicates_dropped(), 1);
    assert_eq!(
        from_disk.fingerprint(),
        agree(None, &text).unwrap().fingerprint
    );
    assert_eq!(
        poisoned,
        TemporalLoader::new().parse_str(&format!("{text} oops\n0 1 2\n"))
    );
    assert_eq!(
        reason_of(poisoned.map(|_| unreachable!())).0,
        text.lines().count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The loader and its predecessor agree on the garbage family —
    /// valid records, near misses, comments and junk bytes — with and
    /// without a declared node count. (Ids
    /// there stay below 50, so a declared 50 refuses nothing and the
    /// self-loop fix cannot show.)
    #[test]
    fn garbage_parses_exactly_as_the_reference_does(seed in any::<u64>()) {
        let text = garbage_text(seed);
        for node_count in [None, Some(50)] {
            let _ = agree(node_count, &text);
        }
        // The same lines with CRLF endings and no final newline.
        let crlf = text.replace('\n', "\r\n");
        let _ = agree(None, crlf.trim_end_matches('\n'));
        // Only the valid records (so the load succeeds), their times in
        // no order, once and twice over: sort and dedup on the success
        // path.
        let valid: Vec<&str> = text
            .lines()
            .filter(|l| reference_parse(None, l).is_ok())
            .collect();
        let doubled = format!("{0}\n{0}\n", valid.join("\n"));
        let once = agree(None, &valid.join("\n")).unwrap();
        let twice = agree(None, &doubled).unwrap();
        prop_assert_eq!(&twice.events, &once.events);
        // Every record of the second copy goes, survivor or not.
        prop_assert_eq!(
            twice.duplicates_dropped,
            once.events.len() + 2 * once.duplicates_dropped
        );
    }

    /// Arbitrary text never panics the loader; failures are
    /// line-numbered within the file and successes keep every invariant
    /// the replay driver relies on (sorted times, normalized endpoints,
    /// in-range ids).
    #[test]
    fn garbage_never_panics_and_errors_point_at_a_line(seed in any::<u64>()) {
        let text = garbage_text(seed);
        let line_count = text.lines().count();
        match TemporalLoader::new().parse_str(&text) {
            Ok(list) => {
                prop_assert!(list.events().windows(2).all(|p| p[0].time <= p[1].time));
                for e in list.events() {
                    prop_assert!(e.u < e.v, "endpoints not normalized: {e:?}");
                    prop_assert!(e.v.index() < list.node_count());
                }
            }
            Err(GraphError::ParseEdgeList { line, reason }) => {
                prop_assert!(line >= 1 && line <= line_count,
                    "line {line} outside 1..={line_count}: {reason}");
                prop_assert!(!reason.is_empty());
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    /// One malformed line poisons the whole load — the error names
    /// exactly that line and no partial timeline escapes. The same text
    /// without the bad line parses clean, so the rejection is precise,
    /// not a side effect of surrounding records.
    #[test]
    fn a_single_bad_line_fails_the_load_with_its_number(
        seed in any::<u64>(),
        at in 0usize..60,
    ) {
        let text = SyntheticTemporal::new(20, 60).seeded(seed).render();
        let mut lines: Vec<&str> = text.lines().collect();
        let at = at.min(lines.len());
        lines.insert(at, "3 4 not_a_time");
        let poisoned = lines.join("\n");
        match TemporalLoader::new().parse_str(&poisoned) {
            Err(GraphError::ParseEdgeList { line, reason }) => {
                prop_assert_eq!(line, at + 1);
                prop_assert!(reason.contains("not_a_time"), "{}", reason);
            }
            other => prop_assert!(false, "expected a parse error, got {other:?}"),
        }
        prop_assert!(TemporalLoader::new().parse_str(&text).is_ok());
    }

    /// Truncating a file mid-byte either still parses (the cut landed on
    /// a record boundary, or left a shorter-but-valid record) or fails
    /// on the final line — never a panic, never an error blamed on an
    /// intact line.
    #[test]
    fn truncated_files_fail_cleanly_or_parse_a_prefix(
        seed in any::<u64>(),
        cut_back in 1usize..40,
    ) {
        let text = SyntheticTemporal::new(16, 40).seeded(seed).render();
        let cut = text.len().saturating_sub(cut_back);
        let truncated = &text[..cut];
        let full = TemporalLoader::new().parse_str(&text).unwrap();
        match TemporalLoader::new().parse_str(truncated) {
            Ok(list) => prop_assert!(list.len() <= full.len()),
            Err(GraphError::ParseEdgeList { line, .. }) => {
                prop_assert_eq!(line, truncated.lines().count());
            }
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    /// Replaying a file concatenated with itself drops every repeated
    /// event as a duplicate and yields the *identical* timeline — same
    /// fingerprint, same length — so accidental double-ingestion cannot
    /// silently double-bill the engines.
    #[test]
    fn self_concatenation_is_fully_deduplicated(seed in any::<u64>()) {
        let text = SyntheticTemporal::new(12, 50).seeded(seed).render();
        let once = TemporalLoader::new().parse_str(&text).unwrap();
        let twice = TemporalLoader::new()
            .parse_str(&format!("{text}{text}"))
            .unwrap();
        prop_assert_eq!(twice.duplicates_dropped(), once.len());
        prop_assert_eq!(twice.len(), once.len());
        prop_assert_eq!(twice.fingerprint(), once.fingerprint());
    }

    /// Writer → disk → loader is byte-stable and identity-preserving:
    /// the same seed always produces the same file and fingerprint,
    /// distinct seeds produce distinct bytes (the seed is in the
    /// header), and `load_path` agrees exactly with `parse_str`.
    #[test]
    fn writer_disk_loader_round_trip_is_stable(seed in any::<u64>()) {
        let writer = SyntheticTemporal::new(25, 80).seeded(seed);
        let text = writer.render();
        prop_assert_eq!(&text, &writer.render());
        prop_assert!(text != SyntheticTemporal::new(25, 80).seeded(seed ^ 1).render());

        let path = tmp_path("roundtrip", seed);
        writer.write_to(&path).unwrap();
        let from_disk = TemporalLoader::new().load_path(&path).unwrap();
        let from_str = TemporalLoader::new().parse_str(&text).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(from_disk.fingerprint(), from_str.fingerprint());
        prop_assert_eq!(from_disk.len(), 80);
        prop_assert_eq!(from_disk.events(), from_str.events());
    }
}

/// An unreadable path is a typed I/O error naming the path — not a
/// panic, not an empty timeline.
#[test]
fn unreadable_path_is_a_typed_io_error() {
    let path = tmp_path("missing-dir", 0).join("nope.tel");
    match TemporalLoader::new().load_path(&path) {
        Err(GraphError::Io { path: p, detail }) => {
            assert!(p.contains("nope.tel"), "{p}");
            assert!(!detail.is_empty());
        }
        other => panic!("expected GraphError::Io, got {other:?}"),
    }
}

/// Bytes that are not UTF-8 are an I/O error naming the file, as they
/// were when the file was read whole — not a panic, and not a timeline
/// made of the lines before them.
#[test]
fn a_file_that_is_not_utf8_is_a_typed_io_error() {
    let path = tmp_path("not-utf8", 0);
    std::fs::write(&path, b"0 1 5\n1 2 6\n\xff\xfe 3 7\n2 3 8\n").unwrap();
    let loaded = TemporalLoader::new().load_path(&path);
    std::fs::remove_file(&path).ok();
    match loaded {
        Err(GraphError::Io { path: p, detail }) => {
            assert!(p.contains("not-utf8"), "{p}");
            assert!(detail.contains("UTF-8"), "{detail}");
        }
        other => panic!("expected GraphError::Io, got {other:?}"),
    }
}
