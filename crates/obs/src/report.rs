//! The human-readable text exporter: span aggregates plus the registry,
//! as a plain table for terminals and logs.

use std::collections::BTreeMap;

use crate::registry::MetricsSnapshot;
use crate::trace::TraceEvent;

/// Aggregate of one `(cat, name)` span family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Renders drained span events and a registry snapshot as a text
/// report: one line per `(category, name)` span family with count /
/// total / mean / max, then every counter and gauge.
pub fn text_report(events: &[TraceEvent], snapshot: &MetricsSnapshot) -> String {
    let mut spans: BTreeMap<(&'static str, &'static str), SpanAgg> = BTreeMap::new();
    for e in events {
        let agg = spans.entry((e.cat, e.name)).or_default();
        agg.count += 1;
        agg.total_us += e.dur_us;
        agg.max_us = agg.max_us.max(e.dur_us);
    }
    let mut out = String::from("# observability report\n");
    if spans.is_empty() {
        out.push_str("spans: none recorded\n");
    } else {
        out.push_str(&format!(
            "{:<32} {:>8} {:>12} {:>10} {:>10}\n",
            "span", "count", "total_us", "mean_us", "max_us"
        ));
        for ((cat, name), agg) in &spans {
            out.push_str(&format!(
                "{:<32} {:>8} {:>12} {:>10.1} {:>10}\n",
                format!("{cat}/{name}"),
                agg.count,
                agg.total_us,
                agg.total_us as f64 / agg.count as f64,
                agg.max_us
            ));
        }
    }
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name:<30} {value}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("  {name:<30} {value:.6}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_span_families_and_lists_metrics() {
        let events = [
            TraceEvent {
                cat: "sharded",
                name: "collect",
                ts_us: 0,
                dur_us: 10,
                tid: 1,
            },
            TraceEvent {
                cat: "sharded",
                name: "collect",
                ts_us: 20,
                dur_us: 30,
                tid: 2,
            },
            TraceEvent {
                cat: "pool",
                name: "worker",
                ts_us: 5,
                dur_us: 7,
                tid: 2,
            },
        ];
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.insert("serve.buffer_swaps", 4);
        snapshot.gauges.insert("pool.busy_max_share", 0.5);
        let report = text_report(&events, &snapshot);
        assert!(report.contains("sharded/collect"));
        assert!(report.contains("pool/worker"));
        // collect: count 2, total 40, mean 20, max 30.
        let line = report
            .lines()
            .find(|l| l.contains("sharded/collect"))
            .expect("aggregated line");
        for token in ["2", "40", "20.0", "30"] {
            assert!(line.contains(token), "missing {token} in {line:?}");
        }
        assert!(report.contains("serve.buffer_swaps"));
        assert!(report.contains("pool.busy_max_share"));
    }

    #[test]
    fn empty_report_says_so() {
        let report = text_report(&[], &MetricsSnapshot::default());
        assert!(report.contains("none recorded"));
    }
}
