//! Schema check for the chrome://tracing trace-event JSON that
//! `stream_bench --trace-out` / `dynamic_bench --trace-out` emit.
//!
//! CI runs this against a freshly captured trace so the export format
//! can never silently rot: the file must parse as JSON, every event must
//! carry the complete-event shape (`name`/`cat` strings, `ph == "X"`,
//! numeric `ts`/`dur`/`pid`/`tid`), and the trace must contain the span
//! families the instrumentation promises — all five sharded apply phases
//! (coalesce, classify, collect, record, merge), the
//! worker pool, the distributed engine's broadcast and convergecast
//! phases, and the serve layer's publish / lease-acquire / query
//! families.
//!
//! Usage: `trace_check <trace.json>`. Exits non-zero with a diagnostic
//! on the first violation; prints a per-category event tally on success.

use std::collections::BTreeMap;
use std::process::ExitCode;

use congest_bench::json::Value;

/// `(cat, name)` pairs that must appear in a trace captured from the
/// benches' instrumented runs (a pooled sharded stream, a distributed
/// convergecast stream — clean plus a lossy hardened replay — and a
/// served stream with leased readers).
const REQUIRED_SPANS: [(&str, &str); 12] = [
    ("sharded", "coalesce"),
    ("sharded", "classify"),
    ("sharded", "collect"),
    ("sharded", "record"),
    ("sharded", "merge"),
    ("pool", "worker"),
    ("distributed", "broadcast"),
    ("distributed", "convergecast"),
    ("distributed", "recovery"),
    ("serve", "publish"),
    ("serve", "lease_acquire"),
    ("serve", "query"),
];

fn check(input: &str) -> Result<BTreeMap<(String, String), usize>, String> {
    let root = Value::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let unit = root
        .get("displayTimeUnit")
        .and_then(Value::as_str)
        .ok_or("missing string key \"displayTimeUnit\"")?;
    if unit != "ms" {
        return Err(format!("displayTimeUnit is {unit:?}, expected \"ms\""));
    }
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing array key \"traceEvents\"")?;
    if events.is_empty() {
        return Err("traceEvents is empty — tracing recorded nothing".to_string());
    }

    let mut tally: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let field_str = |key: &str| {
            event
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing string field {key:?}"))
        };
        let field_num = |key: &str| {
            event
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric field {key:?}"))
        };
        let name = field_str("name")?;
        let cat = field_str("cat")?;
        let ph = field_str("ph")?;
        if ph != "X" {
            return Err(format!(
                "event {i} ({cat}/{name}): ph is {ph:?}, expected complete event \"X\""
            ));
        }
        for key in ["ts", "dur", "pid", "tid"] {
            let v = field_num(key)?;
            if v < 0.0 {
                return Err(format!("event {i} ({cat}/{name}): {key} is negative ({v})"));
            }
        }
        *tally
            .entry((cat.to_string(), name.to_string()))
            .or_insert(0) += 1;
    }

    for (cat, name) in REQUIRED_SPANS {
        if !tally.contains_key(&(cat.to_string(), name.to_string())) {
            return Err(format!(
                "required span family {cat}/{name} absent from the trace \
                 (present: {:?})",
                tally.keys().collect::<Vec<_>>()
            ));
        }
    }
    Ok(tally)
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: trace_check <trace.json>");
            return ExitCode::FAILURE;
        }
    };
    let input = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ERROR: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&input) {
        Ok(tally) => {
            let total: usize = tally.values().sum();
            println!(
                "{path}: ok — {total} events across {} span families",
                tally.len()
            );
            for ((cat, name), count) in &tally {
                println!("  {cat}/{name}: {count}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ERROR: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_trace() -> String {
        let mut events: Vec<String> = REQUIRED_SPANS
            .iter()
            .enumerate()
            .map(|(i, (cat, name))| {
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"ts\":{i},\"dur\":1,\"pid\":1,\"tid\":7}}"
                )
            })
            .collect();
        events.push(
            "{\"name\":\"flush\",\"cat\":\"runner\",\"ph\":\"X\",\
             \"ts\":99,\"dur\":0,\"pid\":1,\"tid\":7}"
                .to_string(),
        );
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }

    #[test]
    fn a_complete_trace_passes() {
        let tally = check(&minimal_trace()).expect("valid trace");
        assert_eq!(tally.len(), REQUIRED_SPANS.len() + 1);
        assert_eq!(tally[&("runner".to_string(), "flush".to_string())], 1);
    }

    #[test]
    fn a_missing_span_family_fails() {
        let trace = minimal_trace().replace("\"convergecast\"", "\"somethingelse\"");
        let err = check(&trace).unwrap_err();
        assert!(err.contains("distributed/convergecast"), "{err}");
    }

    #[test]
    fn a_wrong_phase_fails() {
        let trace = minimal_trace().replacen("\"ph\":\"X\"", "\"ph\":\"B\"", 1);
        let err = check(&trace).unwrap_err();
        assert!(err.contains("expected complete event"), "{err}");
    }

    #[test]
    fn a_missing_field_fails() {
        let trace = minimal_trace().replacen("\"ts\":0,", "", 1);
        let err = check(&trace).unwrap_err();
        assert!(err.contains("\"ts\""), "{err}");
    }

    #[test]
    fn garbage_and_empty_traces_fail() {
        assert!(check("not json").is_err());
        let err = check("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}").unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }
}
