//! `perf_report` — the repository's benchmark: eight workloads, every
//! layer measured from outside. README.md beside this file is the
//! glossary; `BENCHMARK.json` at the repository root is the contract an
//! outside referee drives it by.
//!
//! ```text
//! perf_report [--seed N] [--seconds S] [--trace] [--out FILE]
//!     every workload, each in a child process; --trace adds the traced
//!     pass; --out saves the medians (and, traced, FILE.<workload>.trace.json)
//! perf_report --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one workload in this process; the last line of standard output is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! perf_report --check-repeat [--seed N] [--seconds S]
//!     the untraced pass twice; fails if the two disagree beyond the bounds
//! perf_report --diff A.json B.json
//!     the same comparison for two files saved with --out
//! ```

mod catalog;
mod gen;
mod host;
mod probes;
mod record;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use catalog::{Better, Class, DEFAULT_SEED, WORKLOADS};
use record::{Emit, Medians, Record};

/// Measured seconds per workload when `--seconds` is not given: eight
/// workloads then fit the untraced pass in about ninety seconds.
const DEFAULT_SECONDS: f64 = 6.0;

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    workload: Option<String>,
    /// Child of a report run: emit every row measured, with quartiles.
    full: bool,
    check_repeat: bool,
    diff: Option<(PathBuf, PathBuf)>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("--seed {text:?}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = Some(parse_seed(&value(&mut it, flag)?)?),
            "--seconds" => {
                let text = value(&mut it, flag)?;
                let secs: f64 = text
                    .parse()
                    .map_err(|e| format!("--seconds {text:?}: {e}"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--seconds {text:?}: must be positive"));
                }
                args.seconds = Some(secs);
            }
            // `--trace` alone switches the traced pass on; the referee's
            // form spells the switch out as `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--full" => args.full = true,
            "--check-repeat" => args.check_repeat = true,
            "--diff" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.diff = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its rows and JSON line.
fn run_child(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = catalog::workload(name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; known: {}", names.join(", "));
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut ctx = workloads::Ctx {
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        trace_out: args.out.clone(),
        rec: Record::default(),
        setup_spans: Vec::new(),
    };
    println!(
        "{name} (seed {seed:#x}, {}, {} s): {}",
        if args.trace { "traced" } else { "untraced" },
        ctx.seconds,
        workload.why
    );
    workloads::run(name, &mut ctx).expect("the workload is in the catalogue");
    print!("{}", ctx.rec.render());
    let emit = match (args.full, args.trace) {
        (true, _) => Emit::Measured,
        (false, false) => Emit::EndToEnd,
        (false, true) => Emit::PerLayer,
    };
    println!("{}", ctx.rec.to_json(emit));
    if ctx.rec.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass over every workload, each in a child process so that its
/// peak resident set is its own. Returns the medians each child printed
/// on its last line, and whether every child succeeded.
fn run_pass(args: &Args, trace: bool) -> Result<(Medians, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut medians = Medians::new();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--full", "--trace"])
            .arg(if trace { "1" } else { "0" })
            .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
            .args([
                "--seconds",
                &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
            ]);
        if let (true, Some(out)) = (trace, &args.out) {
            let mut path = out.clone().into_os_string();
            path.push(format!(".{}.trace.json", w.name));
            cmd.arg("--out").arg(path);
        }
        let output = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let (rows, json) = match text.trim_end().rsplit_once('\n') {
            Some((rows, json)) => (rows, json),
            None => ("", text.trim_end()),
        };
        println!("{rows}");
        if !output.status.success() {
            all_ok = false;
            println!("  {} exited with {}", w.name, output.status);
        }
        match record::parse_metrics(json) {
            Ok(metrics) => {
                medians.insert(w.name.to_string(), metrics);
            }
            Err(_) => {
                all_ok = false;
                println!("  {} printed no result", w.name);
            }
        }
    }
    Ok((medians, all_ok))
}

fn stamp(seed: u64) -> String {
    format!(
        "perf_report: seed {seed:#x}, nproc {}, cpu \"{}\"",
        host::nproc(),
        host::cpu_model()
    )
}

/// A traced report takes end-to-end rows from the untraced pass and
/// every other row from the traced one.
fn merge_passes(untraced: &mut Medians, traced: Medians) {
    let is_layer = |name: &str| catalog::metric(name).is_some_and(|m| m.class == Class::Layer);
    for (workload, metrics) in traced {
        let rows = untraced.entry(workload).or_default();
        for (name, value) in metrics {
            if is_layer(&name) || !rows.contains_key(&name) {
                rows.insert(name, value);
            }
        }
    }
}

fn report(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    println!("{}", stamp(seed));
    let (mut medians, mut ok) = run_pass(args, false)?;
    if args.trace {
        println!("--- traced pass ---");
        let (traced, traced_ok) = run_pass(args, true)?;
        ok &= traced_ok;
        merge_passes(&mut medians, traced);
    }
    if let Some(path) = &args.out {
        let text = record::render_report(seed, host::nproc(), &host::cpu_model(), &medians);
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("saved {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all workloads correct: fail_ratio 0 everywhere"
        } else {
            "FAILED: a workload reported failures"
        }
    );
    Ok(ok)
}

/// Two timings closer than this cannot be told apart by one run each:
/// ten identical runs of `dist_lossy` read their 2 ms set-up anywhere
/// from 2.3 to 3.1 ms, a per-process effect no repetition inside the
/// process averages out. Only millisecond-sized set-ups are near it.
const TIMING_FLOOR_S: f64 = 0.002;

/// One row per workload × metric of `base` against `other`; returns
/// whether `other` stays inside every bound and matches every exact
/// metric. Ratios are `other / base`.
fn compare(base: &Medians, other: &Medians, base_name: &str, other_name: &str) -> bool {
    println!(
        "{:<18} {:<34} {:>16} {:>16} {:>9}  verdict   (ratio = {other_name} / {base_name})",
        "workload", "metric", base_name, other_name, "ratio"
    );
    let mut ok = true;
    for (workload, metrics) in base {
        for def in catalog::METRICS {
            let (Some(&a), b) = (
                metrics.get(def.name),
                other.get(workload).and_then(|m| m.get(def.name)),
            ) else {
                continue;
            };
            let Some(&b) = b else {
                println!("{workload:<18} {:<34} missing from {other_name}", def.name);
                ok &= def.class == Class::Layer;
                continue;
            };
            let ratio = if a == 0.0 { f64::NAN } else { b / a };
            let worse_by = match def.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if def.exact {
                if a == b {
                    "same"
                } else {
                    "DIFFERS"
                }
            } else if def.class == Class::Layer {
                "-"
            } else if worse_by > def.bound && !(def.unit == "s" && (a - b).abs() < TIMING_FLOOR_S) {
                "WORSE"
            } else {
                "within"
            };
            ok &= !matches!(verdict, "DIFFERS" | "WORSE");
            println!(
                "{workload:<18} {:<34} {:>16} {:>16} {:>9.4}  {verdict}",
                def.name,
                record::fmt(a),
                record::fmt(b),
                ratio
            );
        }
    }
    ok
}

fn check_repeat(args: &Args) -> Result<bool, String> {
    println!("{}", stamp(args.seed.unwrap_or(DEFAULT_SEED)));
    let (first, first_ok) = run_pass(args, false)?;
    println!("--- second pass ---");
    let (second, second_ok) = run_pass(args, false)?;
    // Either order may not regress: a metric outside its bound in one
    // direction is a gain in the other, and both are disagreement.
    let forward = compare(&first, &second, "first", "second");
    let backward = compare(&second, &first, "second", "first");
    let ok = first_ok && second_ok && forward && backward;
    println!(
        "{}",
        if ok {
            "repeatable: every exact metric identical, every bounded one within its bound"
        } else {
            "NOT repeatable"
        }
    );
    Ok(ok)
}

fn diff(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |path: &PathBuf| -> Result<Medians, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        record::parse_report(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(compare(&load(a)?, &load(b)?, "A", "B"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_report: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_child(name, &args);
    }
    let outcome = if let Some((a, b)) = &args.diff {
        diff(a, b)
    } else if args.check_repeat {
        check_repeat(&args)
    } else {
        report(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn both_spellings_of_the_command_line_parse() {
        let a = args(&["--seed", "0xC0FFEE", "--trace", "--out", "r.json"]).expect("parses");
        assert_eq!((a.seed, a.trace), (Some(0xC0FFEE), true));
        assert_eq!(a.out, Some(PathBuf::from("r.json")));
        let b = args(&[
            "--workload",
            "dist_quiet",
            "--seed",
            "12",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(b.workload.as_deref(), Some("dist_quiet"));
        assert_eq!((b.seed, b.seconds, b.trace), (Some(12), Some(3.0), false));
        assert!(args(&["--trace", "1"]).expect("parses").trace);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let d = args(&["--diff", "a.json", "b.json"]).expect("parses");
        assert!(d.diff.is_some());
    }

    fn medians(rows: &[(&str, f64)]) -> Medians {
        let metrics = rows.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        [("w".to_string(), metrics)].into_iter().collect()
    }

    #[test]
    fn comparison_honours_bounds_direction_and_exactness() {
        let bound = |name| catalog::metric(name).expect("in the catalogue").bound;
        let (up, down) = (bound("batch_p50_us"), bound("deltas_per_s"));
        let row = |deltas: f64, p50: f64, rounds: f64, steals: f64| {
            medians(&[
                ("deltas_per_s", deltas),
                ("batch_p50_us", p50),
                ("sim_rounds_per_batch", rounds),
                ("pool.steals", steals),
            ])
        };
        let base = row(1000.0, 10.0, 22.5, 5.0);
        // Just inside both bounds; a layer metric may move freely.
        let near = row(1000.0 * (1.01 - down), 10.0 * (0.99 + up), 22.5, 500.0);
        assert!(compare(&base, &near, "a", "b"));
        // Better is never a regression, whichever way better points.
        assert!(compare(&base, &row(5000.0, 1.0, 22.5, 5.0), "a", "b"));
        // Just outside either bound is.
        let fewer = row(1000.0 * (0.99 - down), 10.0, 22.5, 5.0);
        assert!(!compare(&base, &fewer, "a", "b"));
        let slower = row(1000.0, 10.0 * (1.01 + up), 22.5, 5.0);
        assert!(!compare(&base, &slower, "a", "b"));
        // Two millisecond set-ups cannot be told apart; two slow ones can.
        let setup = |s: f64| medians(&[("setup_s", s)]);
        assert!(compare(&setup(0.0021), &setup(0.0034), "a", "b"));
        assert!(!compare(&setup(0.21), &setup(0.34), "a", "b"));
        // An exact metric may not move at all, nor go missing.
        assert!(!compare(&base, &row(1000.0, 10.0, 22.505, 5.0), "a", "b"));
        assert!(!compare(
            &base,
            &medians(&[("deltas_per_s", 1000.0)]),
            "a",
            "b"
        ));
    }

    #[test]
    fn traced_reports_take_end_to_end_rows_from_the_untraced_pass() {
        let mut untraced = medians(&[("wall_s", 1.0), ("index.noop_ratio", 0.0)]);
        let traced = medians(&[
            ("wall_s", 9.0),
            ("index.noop_ratio", 0.5),
            ("index.kernel_share", 0.25),
        ]);
        merge_passes(&mut untraced, traced);
        assert_eq!(untraced["w"]["wall_s"], 1.0);
        assert_eq!(untraced["w"]["index.noop_ratio"], 0.5);
        assert_eq!(untraced["w"]["index.kernel_share"], 0.25);
    }
}
