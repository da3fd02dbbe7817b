//! Bench-regression gating: compare a fresh `BENCH_*.json` against the
//! committed baseline and flag regressions.
//!
//! One [`GateTable`] per bench ([`TABLES`]) holds everything that differs
//! between the stream, dynamic and serve gates: the fingerprint keys that
//! must match for a comparison to be like-for-like and one [`Row`] per
//! gated metric (key, direction, tolerance). Absolute floors live in the
//! benches that measure them, not here. [`compare`] parses both files with
//! [`congest_obs::json::Value`], picks the table from their own
//! `"bench"` key and looks every key up at the top level, so nested
//! objects may repeat a key in any position.

use std::fmt::{self, Write as _};

use congest_obs::json::Value;

/// Maximum tolerated move against the baseline before the gate fails
/// (20%): throughputs, speedups and — deterministic per seed, so any
/// 20% move is a real protocol change — round counts.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Tolerance for the latency metrics (50%): tail latency is far noisier
/// run-to-run than throughput — a p99 is a single order statistic — so a
/// tighter band would flake CI without catching real regressions. A
/// genuine hotspot-serialization regression moves p99 by multiples, not
/// tens of percent.
pub const LATENCY_TOLERANCE: f64 = 0.50;

/// Absolute floor for the hotspot round improvement of the helper-split
/// schedule over the unsplit protocol (`dynamic_bench` enforces it
/// in-binary on a hub carrying ≥ 8x the per-phase budget; rounds are
/// deterministic, so the floor binds on every machine).
pub const HOTSPOT_SPLIT_IMPROVEMENT_FLOOR: f64 = 2.0;

/// Which way a gated metric may move freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughputs, speedups: fails on a drop beyond the tolerance.
    Higher,
    /// Latencies, round counts: fails on a rise beyond the tolerance.
    Lower,
}

use Direction::{Higher, Lower};

/// One gated metric: top-level JSON key, the direction that is better,
/// and the fraction of the baseline it may move the other way.
pub type Row = (&'static str, Direction, f64);

/// Everything the gate knows about one bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTable {
    /// The file's top-level `"bench"` value.
    pub bench: &'static str,
    /// Keys whose values must be equal on both sides for the rows to be
    /// enforced; against a foreign baseline the gate reports and passes,
    /// and regains teeth as soon as a matching baseline is committed.
    pub fingerprint: &'static [&'static str],
    /// The gated metrics.
    pub rows: &'static [Row],
}

/// The gate tables, one per bench binary.
#[rustfmt::skip] // one row per line
pub const TABLES: [GateTable; 3] = [
    // The parallel speedup is timing-derived and scales with core
    // count, so `hardware_threads` pins the machine, `quick` the run
    // shape and `source_fingerprint` the shard sweep's stream. Headline
    // throughput, the recompute ratio, the pool sweeps and the kernel
    // are `perf_report`'s, per layer. (`sweep_single_deltas_per_sec`
    // stays in the JSON as trajectory data: an 8-batch slice is as
    // noisy as the tolerance, and `stream_bench` enforces the S=1 floor
    // on the same run.)
    GateTable {
        bench: "stream",
        fingerprint: &["hardware_threads", "quick", "source_fingerprint"],
        rows: &[("sweep_best_parallel_speedup", Higher, DEFAULT_TOLERANCE)],
    },
    // Every dynamic metric is a round or bit count, deterministic per
    // seed and so comparable across machines: the fingerprint pins only
    // the scenario shape and the batch source. The lower-is-better rows
    // are the costs the protocol machinery exists to keep down — the
    // helper-split hotspot epoch, the convergecast rounds charged per
    // headline batch, and the hardened engine's rounds per batch at 1%
    // drop (retransmission recovery included).
    GateTable {
        bench: "dynamic",
        fingerprint: &["quick", "headline_n", "source_fingerprint"],
        rows: &[
            ("headline_round_speedup_vs_finding", Higher, DEFAULT_TOLERANCE),
            ("headline_round_speedup_vs_listing", Higher, DEFAULT_TOLERANCE),
            ("headline_bits_ratio_vs_listing", Higher, DEFAULT_TOLERANCE),
            ("hotspot_rounds_per_batch", Lower, DEFAULT_TOLERANCE),
            ("headline_convergecast_rounds_per_batch", Lower, DEFAULT_TOLERANCE),
            ("fault_drop1pct_rounds_per_batch", Lower, DEFAULT_TOLERANCE),
        ],
    },
    // Serve metrics are timing-derived and hardware-bound (readers and
    // the writer contend for cores): same fingerprint as the stream
    // table. The read p99 at the max sustainable rate is one tail order
    // statistic, as noisy as the stream p99.
    GateTable {
        bench: "serve",
        fingerprint: &["hardware_threads", "quick", "source_fingerprint"],
        rows: &[
            ("serve_max_sustainable_rps", Higher, DEFAULT_TOLERANCE),
            ("serve_read_p99_us", Lower, LATENCY_TOLERANCE),
        ],
    },
];

/// Why two files could not be gated at all (the gate binary exits 2).
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The `side` (`"baseline"` or `"current"`) file is not a JSON
    /// object with a string `"bench"` key: truncated, malformed, or not
    /// a bench file.
    Malformed {
        /// Which file.
        side: &'static str,
        /// What the parser or the lookup objected to.
        reason: String,
    },
    /// The baseline and the current run name different benches.
    BenchMismatch(String, String),
    /// Both files name a bench no table covers.
    UnknownBench(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Malformed { side, reason } => {
                write!(f, "{side} is not a bench JSON file: {reason}")
            }
            GateError::BenchMismatch(baseline, current) => {
                write!(
                    f,
                    "baseline is a \"{baseline}\" bench file, current a \"{current}\" one"
                )
            }
            GateError::UnknownBench(bench) => write!(f, "no gate table for bench \"{bench}\""),
        }
    }
}

/// Outcome of comparing one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Top-level JSON key of the metric.
    pub key: String,
    /// Value in the committed baseline, if present.
    pub baseline: Option<f64>,
    /// Value in the fresh run, if present.
    pub current: Option<f64>,
    /// `current / baseline` when both are present and baseline is > 0.
    pub ratio: Option<f64>,
    /// Whether this metric fails the gate.
    pub regressed: bool,
}

impl fmt::Display for MetricCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        write!(
            f,
            "{:<40} baseline {:>14} current {:>14} {}",
            self.key,
            show(self.baseline),
            show(self.current),
            match (self.ratio, self.regressed) {
                (Some(r), true) => format!("ratio {r:.3} REGRESSED"),
                (Some(r), false) => format!("ratio {r:.3} ok"),
                (None, _) => "skipped (missing on one side)".to_string(),
            }
        )
    }
}

/// The finite number under a top-level `key`, `None` when the key is
/// missing or holds anything else (`null` included).
fn number(file: &Value, key: &str) -> Option<f64> {
    file.get(key)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite())
}

/// Compares one metric between the two files.
///
/// A metric missing from either side is skipped, not failed: the baseline
/// may predate a metric (schema growth) and a run may write `null` for
/// one (a serve ramp whose first step trips has no sustainable rate).
/// Only a move of more than the row's tolerance in the bad direction
/// fails.
pub fn check(baseline: &Value, current: &Value, &(key, direction, tolerance): &Row) -> MetricCheck {
    let base = number(baseline, key);
    let cur = number(current, key);
    let ratio = match (base, cur) {
        (Some(b), Some(c)) if b > 0.0 => Some(c / b),
        _ => None,
    };
    let regressed = ratio.is_some_and(|r| match direction {
        Higher => r < 1.0 - tolerance,
        Lower => r > 1.0 + tolerance,
    });
    MetricCheck {
        key: key.to_string(),
        baseline: base,
        current: cur,
        ratio,
        regressed,
    }
}

/// What one gate run found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The bench both files come from.
    pub bench: &'static str,
    /// One line per fingerprint mismatch and row.
    pub report: String,
    /// Whether an enforced row regressed.
    pub failed: bool,
}

/// Parses one side and returns it with its `"bench"` value.
fn parse(side: &'static str, text: &str) -> Result<(Value, String), GateError> {
    let malformed = |reason: String| GateError::Malformed { side, reason };
    let file = Value::parse(text).map_err(malformed)?;
    let bench = file
        .get("bench")
        .and_then(Value::as_str)
        .ok_or_else(|| malformed("no top-level string \"bench\" key".to_string()))?
        .to_string();
    Ok((file, bench))
}

/// Gates the `current` bench file's text against the `baseline`'s.
///
/// # Errors
///
/// [`GateError`] when either file fails to parse, the two name
/// different benches, or no table covers the bench they name.
pub fn compare(baseline: &str, current: &str) -> Result<Outcome, GateError> {
    let (baseline, bench) = parse("baseline", baseline)?;
    let (current, current_bench) = parse("current", current)?;
    if bench != current_bench {
        return Err(GateError::BenchMismatch(bench, current_bench));
    }
    let Some(table) = TABLES.iter().find(|t| t.bench == bench) else {
        return Err(GateError::UnknownBench(bench));
    };

    let mut report = String::new();
    let mut comparable = true;
    for key in table.fingerprint {
        let (b, c) = (baseline.get(key), current.get(key));
        if b.is_none() || b != c {
            comparable = false;
            let _ = writeln!(
                report,
                "baseline {key} {b:?} != current {c:?}: not comparable like-for-like; \
                 reporting without gating."
            );
        }
    }
    let mut failed = false;
    for row in table.rows {
        let check = check(&baseline, &current, row);
        if comparable {
            failed |= check.regressed;
            let _ = writeln!(report, "{check}");
        } else {
            let _ = writeln!(report, "{check} [not gated: foreign baseline fingerprint]");
        }
    }
    Ok(Outcome {
        bench: table.bench,
        report,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: Row = ("m", Higher, DEFAULT_TOLERANCE);

    fn file(text: &str) -> Value {
        Value::parse(text).expect("test JSON parses")
    }

    fn check_text(baseline: &str, current: &str, row: &Row) -> MetricCheck {
        check(&file(baseline), &file(current), row)
    }

    const SAMPLE: &str =
        r#"{"bench":"stream","nested":[{"a":99}],"a":12.5,"b":null,"c":3,"last":7}"#;

    #[test]
    fn extracts_top_level_numbers() {
        // `a` also appears inside `nested`, ahead of the top-level one:
        // only the top level is consulted.
        let sample = file(SAMPLE);
        assert_eq!(number(&sample, "a"), Some(12.5));
        assert_eq!(number(&sample, "c"), Some(3.0));
        assert_eq!(number(&sample, "last"), Some(7.0));
    }

    #[test]
    fn null_and_missing_keys_are_none() {
        let sample = file(SAMPLE);
        for key in ["b", "zzz", "bench", "nested"] {
            assert_eq!(number(&sample, key), None, "{key}");
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let check = check_text(r#"{"m":100.0}"#, r#"{"m":85.0}"#, &M);
        assert!(!check.regressed);
        assert_eq!(check.ratio, Some(0.85));
        assert!(check.to_string().contains("ok"));
    }

    #[test]
    fn a_drop_beyond_tolerance_fails() {
        let check = check_text(r#"{"m":100.0}"#, r#"{"m":79.9}"#, &M);
        assert!(check.regressed);
        assert!(check.to_string().contains("REGRESSED"));
    }

    #[test]
    fn improvements_always_pass() {
        let check = check_text(r#"{"m":10}"#, r#"{"m":50}"#, &M);
        assert!(!check.regressed);
        assert_eq!(check.ratio, Some(5.0));
    }

    #[test]
    fn missing_side_is_skipped_not_failed() {
        let with = r#"{"m":10}"#;
        let without = r#"{"other":1}"#;
        for (b, c) in [(with, without), (without, with)] {
            let check = check_text(b, c, &M);
            assert!(!check.regressed);
            assert_eq!(check.ratio, None);
            assert!(check.to_string().contains("skipped"));
        }
    }

    #[test]
    fn gated_metric_keys_exist_in_the_harness_schema() {
        // Against the committed baselines: a renamed or retired key must
        // not leave a row that reads "skipped (missing on one side)"
        // forever.
        for table in &TABLES {
            let path = format!(
                "{}/../../BENCH_{}.json",
                env!("CARGO_MANIFEST_DIR"),
                table.bench
            );
            let baseline = file(&std::fs::read_to_string(&path).expect("committed baseline"));
            assert_eq!(
                baseline.get("bench").and_then(Value::as_str),
                Some(table.bench)
            );
            for key in table.fingerprint {
                assert!(baseline.get(key).is_some(), "{path}: no \"{key}\"");
            }
            for &(key, ..) in table.rows {
                assert!(number(&baseline, key).is_some(), "{path}: no \"{key}\"");
            }
        }
    }

    #[test]
    fn lower_is_better_metrics_fail_on_rises_not_drops() {
        let base = r#"{"p99":100.0}"#;
        let p99 = ("p99", Lower, LATENCY_TOLERANCE);
        // A 40% drop (latency improvement) passes.
        assert!(!check_text(base, r#"{"p99":60.0}"#, &p99).regressed);
        // A 40% rise stays within the 50% latency tolerance.
        assert!(!check_text(base, r#"{"p99":140.0}"#, &p99).regressed);
        // A 60% rise fails.
        assert!(check_text(base, r#"{"p99":160.0}"#, &p99).regressed);
        // The same drop read higher-is-better is a regression.
        let throughput = ("p99", Higher, DEFAULT_TOLERANCE);
        assert!(check_text(base, r#"{"p99":60.0}"#, &throughput).regressed);
    }
}
