//! One workload's result: metric rows, the operation tally behind
//! `fail_ratio`, and the JSON both the outside referee and the parent
//! process read from the last line of a child's standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use congest_obs::json::Value;

use crate::catalog::{self, Class, MetricDef};
use crate::stats::{summarize, Summary};

/// Which metrics a child's JSON line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The outside referee's `end_to_end` list, every one present.
    EndToEnd,
    /// Its `per_layer` list, every one present; a metric the workload
    /// does not produce reads 0.
    PerLayer,
    /// Every row measured, with quartiles: what the parent reads.
    Measured,
}

/// The result of running one workload once (one child process).
#[derive(Debug, Default)]
pub struct Record {
    rows: BTreeMap<&'static str, Summary>,
    /// Operations attempted: `apply` and driver calls, queries checked,
    /// oracle comparisons, pins.
    pub attempted: u64,
    /// Those that returned an error or a wrong answer.
    pub failed: u64,
    /// One line per failure, for the human reading the report.
    pub failures: Vec<String>,
}

impl Record {
    fn def(name: &str) -> &'static MetricDef {
        catalog::metric(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    /// Records a timing (or other noisy) metric from its per-repetition
    /// values: median, quartiles, sample count.
    pub fn put(&mut self, name: &str, values: &[f64]) {
        if !values.is_empty() {
            self.rows.insert(Self::def(name).name, summarize(values));
        }
    }

    /// Records a single value: a count, or a ratio of counts.
    pub fn put_value(&mut self, name: &str, value: f64) {
        self.rows
            .insert(Self::def(name).name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.get(name).map(|s| s.median)
    }

    /// Counts one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` returned `Err`.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Closes the record: `fail_ratio` becomes a row like any other.
    pub fn finish(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.put_value("fail_ratio", ratio);
    }

    /// Human-readable rows, one metric a line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for def in catalog::METRICS {
            let Some(s) = self.rows.get(def.name) else {
                continue;
            };
            let class = match def.class {
                Class::Contract | Class::EndToEnd => "e2e",
                Class::Layer => "layer",
            };
            let bound = match (def.class, def.exact) {
                (_, true) => "exact".to_string(),
                (Class::Layer, false) => "-".to_string(),
                _ => format!("{:.0}%", def.bound * 100.0),
            };
            writeln!(
                out,
                "  {:<36} {:>16} {:<9} q1 {:>14} q3 {:>14} n {:<3} {:<5} {} is better, bound {}",
                def.name,
                fmt(s.median),
                def.unit,
                fmt(s.q1),
                fmt(s.q3),
                s.n,
                class,
                def.better.name(),
                bound
            )
            .expect("writing to a String");
        }
        for failure in &self.failures {
            writeln!(out, "  FAILED: {failure}").expect("writing to a String");
        }
        out
    }

    /// The last line of a child's output.
    pub fn to_json(&self, emit: Emit) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String");
        let mut first = true;
        for def in catalog::METRICS {
            let row = self.rows.get(def.name);
            let contract = def.class == Class::Contract;
            let summary = match (emit, row) {
                (Emit::Measured, Some(s)) => *s,
                (Emit::Measured, None) => continue,
                (Emit::EndToEnd, _) if !contract => continue,
                (Emit::PerLayer, _) if contract => continue,
                (_, row) => row.copied().unwrap_or(Summary::exact(0.0)),
            };
            if !first {
                out.push(',');
            }
            first = false;
            write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                def.name,
                num(summary.median),
                def.unit
            )
            .expect("writing to a String");
            if emit == Emit::Measured {
                write!(
                    out,
                    ",\"q1\":{},\"q3\":{},\"n\":{}",
                    num(summary.q1),
                    num(summary.q3),
                    summary.n
                )
                .expect("writing to a String");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits; non-finite values read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A value for the eye: integers plain, the rest to five significant
/// digits.
pub fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        let digits = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Workload → metric → median, parsed back from saved or piped JSON.
pub type Medians = BTreeMap<String, BTreeMap<String, f64>>;

/// Reads the `metrics` object of one child's JSON line.
pub fn parse_metrics(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let value = Value::parse(line)?;
    metrics_of(&value)
}

fn metrics_of(value: &Value) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let Some(Value::Obj(entries)) = value.get("metrics") else {
        return Err("no `metrics` object".to_string());
    };
    for (name, entry) in entries {
        let v = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        out.insert(name.clone(), v);
    }
    Ok(out)
}

/// A report as `--out` saves it: the stamp, then
/// `{"workloads": {name: {"metrics": {metric: {"value", "unit"}}}}}`.
pub fn render_report(seed: u64, nproc: usize, cpu: &str, medians: &Medians) -> String {
    let mut out = format!(
        "{{\"seed\":{seed},\"nproc\":{nproc},\"cpu\":\"{}\",\"workloads\":{{",
        congest_obs::json::escape(cpu)
    );
    for (i, (workload, metrics)) in medians.iter().enumerate() {
        let rows: Vec<String> = catalog::METRICS
            .iter()
            .filter_map(|def| {
                let v = metrics.get(def.name)?;
                Some(format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name,
                    num(*v),
                    def.unit
                ))
            })
            .collect();
        let comma = if i > 0 { "," } else { "" };
        write!(
            out,
            "{comma}\"{workload}\":{{\"metrics\":{{{}}}}}",
            rows.join(",")
        )
        .expect("writing to a String");
    }
    out.push_str("}}\n");
    out
}

/// Reads a saved report back.
pub fn parse_report(text: &str) -> Result<Medians, String> {
    let value = Value::parse(text)?;
    let Some(Value::Obj(workloads)) = value.get("workloads") else {
        return Err("no `workloads` object".to_string());
    };
    workloads
        .iter()
        .map(|(name, child)| Ok((name.clone(), metrics_of(child)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_sides_are_complete_and_disjoint() {
        let mut rec = Record::default();
        rec.put("wall_s", &[1.0, 3.0, 2.0]);
        rec.put_value("index.effective_deltas", 42.0);
        rec.check(true, || unreachable!());
        rec.check(false, || "oracle mismatch".to_string());
        rec.tally(8, 0, "apply calls");
        rec.finish();
        assert_eq!((rec.attempted, rec.failed), (10, 1));
        assert_eq!(rec.get("fail_ratio"), Some(0.1));

        let e2e = parse_metrics(&rec.to_json(Emit::EndToEnd)).expect("parses");
        let layers = parse_metrics(&rec.to_json(Emit::PerLayer)).expect("parses");
        let contract = catalog::METRICS
            .iter()
            .filter(|m| m.class == Class::Contract)
            .count();
        assert_eq!(e2e.len(), contract);
        assert_eq!(e2e.len() + layers.len(), catalog::METRICS.len());
        assert_eq!(e2e["wall_s"], 2.0);
        assert_eq!(e2e["setup_s"], 0.0);
        assert_eq!(layers["index.effective_deltas"], 42.0);
        assert!(!layers.contains_key("wall_s"));

        let full = rec.to_json(Emit::Measured);
        assert!(full.contains("\"q1\"") && full.contains("\"correct\":false"));
        let measured = parse_metrics(&full).expect("parses");
        assert_eq!(measured.len(), 3);
        assert!(rec.render().contains("FAILED: oracle mismatch"));
    }

    #[test]
    fn saved_reports_round_trip() {
        let mut rec = Record::default();
        rec.put_value("sim_rounds_per_batch", 22.625);
        let text = format!(
            "{{\"seed\":1,\"workloads\":{{\"dist_quiet\":{}}}}}",
            rec.to_json(Emit::Measured)
        );
        let parsed = parse_report(&text).expect("parses");
        assert_eq!(parsed["dist_quiet"]["sim_rounds_per_batch"], 22.625);
        assert!(parse_report("{}").is_err());
    }

    #[test]
    fn values_print_with_sensible_digits() {
        assert_eq!(fmt(1_000_000.0), "1000000");
        assert_eq!(fmt(12345.678), "12345.7");
        assert_eq!(fmt(0.012345678), "0.012346");
        assert_eq!(fmt(7.65432109), "7.6543");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }
}
