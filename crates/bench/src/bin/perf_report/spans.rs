//! The benchmark's own span records, and the self-time attribution that
//! folds the program's drained span events underneath them.
//!
//! A [`Tracer`] belongs to one thread of the benchmark. It opens a span
//! around each call into a layer (`parse_str`, `apply`, a query, a
//! driver) and records name, start, end, parent and a request id (the
//! batch or query index). The span families the program itself emits
//! arrive through `congest_obs::trace::drain()` on the same clock and
//! are attached to the benchmark span that contains them in time.
//!
//! Attribution is a partition, not a sum of overlapping spans: every
//! instant inside a top-level benchmark span is credited to exactly one
//! span, the one that started last among those active at that instant.
//! On one thread that is the innermost span, so the credit is the usual
//! self time; where pool workers run beside the engine thread it credits
//! the worker's phase rather than the wave span that waits on it. The
//! credits therefore add up to the time the top-level spans cover, and
//! whatever the timed loop spent between them is the `unattributed`
//! remainder.

use std::collections::BTreeMap;
use std::time::Instant;

use congest_obs::TraceEvent;

/// Marks "no parent" in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// One completed benchmark span. Times are nanoseconds on the
/// `congest_obs` process clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Batch or query index this span worked for.
    pub request: u64,
    /// Whether the span lies inside the workload's timed loop. Set-up
    /// and correctness checks are traced too, but stay out of the
    /// partition of the loop's time.
    pub timed: bool,
}

/// Per-thread span recorder. Disabled, it costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    anchor: Instant,
    /// `congest_obs::now_us()` at `anchor`, in nanoseconds.
    anchor_ns: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose clock is aligned (to within a microsecond) with
    /// the one the program's own spans are stamped on.
    pub fn new(enabled: bool) -> Self {
        let anchor_ns = congest_obs::now_us() * 1_000;
        Tracer {
            enabled,
            anchor: Instant::now(),
            anchor_ns,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.anchor_ns + self.anchor.elapsed().as_nanos() as u64
    }

    /// Opens a span called `name`, working for `request`, under the
    /// span opened last and not yet closed. Pass the token to
    /// [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        self.open_span(name, request, true)
    }

    fn open_span(&mut self, name: &'static str, request: u64, timed: bool) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request,
            timed,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `token` names; spans close innermost first.
    pub fn close(&mut self, token: u32) {
        if token == NO_PARENT {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(token), "spans close innermost first");
        self.spans[token as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span outside the timed loop: a set-up step or
    /// a correctness check.
    pub fn untimed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.open_span(name, 0, false);
        let out = f();
        self.close(token);
        out
    }

    /// Takes the spans recorded so far.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "spans taken while one is open");
        std::mem::take(&mut self.spans)
    }
}

/// Where the time under a set of top-level spans went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// Span name → (spans seen, nanoseconds credited).
    pub rows: BTreeMap<String, (u64, u64)>,
    /// Nanoseconds covered by top-level timed benchmark spans; equals
    /// the sum of the credits in `rows`.
    pub covered_ns: u64,
    /// Untimed benchmark spans (set-up, checks): name → (spans seen,
    /// nanoseconds they lasted). Not part of the partition.
    pub outside: BTreeMap<String, (u64, u64)>,
}

impl SelfTimes {
    /// Nanoseconds credited to `name` (0 when the span never ran).
    pub fn credited(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |&(_, ns)| ns)
    }

    /// Share of the covered time credited to `name`.
    pub fn share(&self, name: &str) -> f64 {
        if self.covered_ns == 0 {
            0.0
        } else {
            self.credited(name) as f64 / self.covered_ns as f64
        }
    }

    pub fn absorb(&mut self, other: &SelfTimes) {
        for (name, &(count, ns)) in &other.rows {
            let row = self.rows.entry(name.clone()).or_insert((0, 0));
            row.0 += count;
            row.1 += ns;
        }
        for (name, &(count, ns)) in &other.outside {
            let row = self.outside.entry(name.clone()).or_insert((0, 0));
            row.0 += count;
            row.1 += ns;
        }
        self.covered_ns += other.covered_ns;
    }
}

/// The name a program event is reported under: `category.name`.
pub fn event_name(e: &TraceEvent) -> String {
    format!("{}.{}", e.cat, e.name)
}

/// Partitions the time under the top-level timed spans of `own` among
/// the timed spans and the program's `events` (see the module docs for
/// the rule). Events outside every top-level span are counted but
/// credited nothing; untimed spans are only listed.
pub fn attribute(own: &[Span], events: &[TraceEvent]) -> SelfTimes {
    struct Interval {
        name: String,
        start: u64,
        end: u64,
        top: bool,
    }
    let mut out = SelfTimes::default();
    for s in own.iter().filter(|s| !s.timed) {
        let row = out.outside.entry(s.name.to_string()).or_insert((0, 0));
        row.0 += 1;
        row.1 += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut intervals: Vec<Interval> = own
        .iter()
        .filter(|s| s.timed)
        .map(|s| Interval {
            name: s.name.to_string(),
            start: s.start_ns,
            end: s.end_ns.max(s.start_ns),
            top: s.parent == NO_PARENT,
        })
        .collect();
    intervals.extend(events.iter().map(|e| Interval {
        name: event_name(e),
        start: e.ts_us * 1_000,
        end: (e.ts_us + e.dur_us) * 1_000,
        top: false,
    }));

    for iv in &intervals {
        out.rows.entry(iv.name.clone()).or_insert((0, 0)).0 += 1;
    }

    // Boundaries in time order; at equal times closes sort before opens
    // so that back-to-back spans never both count as active.
    let mut bounds: Vec<(u64, bool, usize)> = Vec::with_capacity(intervals.len() * 2);
    for (i, iv) in intervals.iter().enumerate() {
        // A zero-length span (a sub-microsecond program event) covers
        // no time and would never leave the active set.
        if iv.end > iv.start {
            bounds.push((iv.start, true, i));
            bounds.push((iv.end, false, i));
        }
    }
    bounds.sort_by_key(|&(t, open, i)| (t, open, i));

    // Active spans ordered so that the last one started last; among
    // equal starts (microsecond-stamped program events) the shorter
    // span is the inner one.
    let mut active = std::collections::BTreeSet::new();
    let mut tops_active = 0usize;
    let mut cursor = 0u64;
    for (t, open, i) in bounds {
        if tops_active > 0 && t > cursor {
            if let Some(&(_, _, latest)) = active.iter().next_back() {
                let latest: usize = latest;
                let credit = t - cursor;
                out.rows
                    .get_mut(&intervals[latest].name)
                    .expect("every interval has a row")
                    .1 += credit;
                out.covered_ns += credit;
            }
        }
        cursor = t;
        let entry = (intervals[i].start, u64::MAX - intervals[i].end, i);
        if open {
            active.insert(entry);
            tops_active += intervals[i].top as usize;
        } else {
            active.remove(&entry);
            tops_active -= intervals[i].top as usize;
        }
    }
    out
}

/// Chrome trace-event JSON of the benchmark spans (`own` from the
/// driving thread, `side` from a helper thread) and the program events,
/// the latter carrying the request id of the top-level `own` span that
/// contains them in time.
pub fn chrome_trace(own: &[Span], side: &[Span], events: &[TraceEvent]) -> String {
    let mut tops: Vec<&Span> = own
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.timed)
        .collect();
    tops.sort_by_key(|s| s.start_ns);
    let request_of = |ts_ns: u64| -> Option<u64> {
        let i = tops.partition_point(|s| s.start_ns <= ts_ns);
        let top = tops.get(i.checked_sub(1)?)?;
        (ts_ns <= top.end_ns).then_some(top.request)
    };
    let mut out = String::from("{\"traceEvents\":[");
    let mut push = |name: &str, cat: &str, ts_us: f64, dur_us: f64, tid: u64, args: String| {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
             \"dur\":{dur_us:.3},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    };
    let threads = [(0u64, own), (1, side)];
    for (tid, s, id) in threads
        .iter()
        .flat_map(|&(tid, spans)| spans.iter().enumerate().map(move |(id, s)| (tid, s, id)))
    {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        push(
            s.name,
            "perf_report",
            s.start_ns as f64 / 1e3,
            (s.end_ns.saturating_sub(s.start_ns)) as f64 / 1e3,
            tid,
            format!("\"id\":{id},\"parent\":{parent},\"request\":{}", s.request),
        );
    }
    for e in events {
        let args = match request_of(e.ts_us * 1_000) {
            Some(request) => format!("\"request\":{request}"),
            None => String::new(),
        };
        push(e.name, e.cat, e.ts_us as f64, e.dur_us as f64, e.tid, args);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            timed: true,
        }
    }

    fn event(
        cat: &'static str,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        tid: u64,
    ) -> TraceEvent {
        TraceEvent {
            cat,
            name,
            ts_us,
            dur_us,
            tid,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        // apply [0, 100µs)
        //   ├─ own child "kernel" [10, 30)
        //   ├─ program  x.collect [40, 80)
        //   │    └─ program x.inner [50, 60)
        //   └─ (rest is apply's own)
        // apply [200, 250µs) with nothing inside
        let own = [
            span("apply", 0, 100_000, NO_PARENT),
            span("kernel", 10_000, 30_000, 0),
            span("apply", 200_000, 250_000, NO_PARENT),
            // A check after the loop: listed, not partitioned.
            Span {
                timed: false,
                ..span("check", 300_000, 400_000, NO_PARENT)
            },
        ];
        let events = [
            event("x", "collect", 40, 40, 1),
            event("x", "inner", 50, 10, 1),
            // Outside every top-level span: counted, credited nothing.
            event("x", "stray", 150, 20, 1),
            // Sub-microsecond: counted, covers no time.
            event("x", "blip", 45, 0, 1),
        ];
        let st = attribute(&own, &events);
        assert_eq!(st.rows["kernel"], (1, 20_000));
        assert_eq!(st.rows["x.inner"], (1, 10_000));
        assert_eq!(st.rows["x.collect"], (1, 30_000));
        assert_eq!(st.rows["apply"], (2, 40_000 + 50_000));
        assert_eq!(st.rows["x.stray"], (1, 0));
        assert_eq!(st.rows["x.blip"], (1, 0));
        assert_eq!(st.covered_ns, 150_000);
        assert_eq!(st.outside["check"], (1, 100_000));
        assert!(!st.rows.contains_key("check"));
        let credited: u64 = st.rows.values().map(|&(_, ns)| ns).sum();
        assert_eq!(credited, st.covered_ns);
        assert!((st.share("x.collect") - 0.2).abs() < 1e-12);
        assert_eq!(st.credited("absent"), 0);
    }

    #[test]
    fn parallel_children_partition_instead_of_double_counting() {
        // Two workers overlap under one apply: the later starter wins
        // the overlap, and the total still equals the apply span.
        let own = [span("apply", 0, 100_000, NO_PARENT)];
        let events = [
            event("pool", "wave", 10, 80, 1),
            event("w", "a", 20, 50, 2),
            event("w", "b", 40, 40, 3),
        ];
        let st = attribute(&own, &events);
        assert_eq!(st.covered_ns, 100_000);
        assert_eq!(st.rows["apply"].1, 10_000 + 10_000);
        assert_eq!(st.rows["pool.wave"].1, 10_000 + 10_000);
        assert_eq!(st.rows["w.a"].1, 20_000);
        assert_eq!(st.rows["w.b"].1, 40_000);
    }

    #[test]
    fn tracer_records_nesting_and_requests_only_when_enabled() {
        let mut off = Tracer::new(false);
        let token = off.open("a", 1);
        off.close(token);
        assert!(off.take().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.open("outer", 5);
        let child = on.open("child", 6);
        on.close(child);
        on.close(outer);
        on.untimed("check", || {});
        let spans = on.take();
        assert_eq!(spans.len(), 3);
        assert!(spans[0].timed && !spans[2].timed);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].request),
            ("outer", NO_PARENT, 5)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].request),
            ("child", 0, 6)
        );
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_ids_parents_and_requests() {
        let own = [
            span("apply", 1_000, 9_000, NO_PARENT),
            span("kernel", 2_000, 3_000, 0),
        ];
        let events = [
            event("x", "collect", 4, 2, 3),
            event("x", "stray", 50, 1, 3),
        ];
        let side = [span("query", 5_000, 6_000, NO_PARENT)];
        let text = chrome_trace(&own, &side, &events);
        let parsed = congest_obs::json::Value::parse(&text).expect("valid JSON");
        let items = parsed
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("array");
        assert_eq!(items.len(), 5);
        let args = |i: usize, k: &str| {
            items[i]
                .get("args")
                .and_then(|a| a.get(k))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(args(1, "parent"), Some(0.0));
        assert_eq!(items[2].get("tid").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(args(3, "request"), Some(0.0));
        assert_eq!(args(4, "request"), None);
    }
}
