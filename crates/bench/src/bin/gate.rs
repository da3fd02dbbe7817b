//! CI bench-regression gate.
//!
//! Usage: `gate <baseline.json> <current.json>`
//!
//! Compares a fresh `BENCH_stream.json`, `BENCH_dynamic.json` or
//! `BENCH_serve.json` against the committed baseline. Which bench the
//! two files come from is read from their own `"bench"` key; the
//! metrics, directions, tolerances and fingerprint keys for each live in
//! [`congest_bench::gate::TABLES`].
//!
//! Exit status: 0 when nothing regressed (or the baseline's fingerprint
//! is foreign, in which case the comparison is printed but not
//! enforced), 1 when an enforced metric moved past its tolerance, 2 when
//! the files cannot be gated at all — unreadable, malformed or truncated
//! JSON, two different benches, or a bench no table covers.

use congest_bench::gate::compare;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(current_path), None) = (args.next(), args.next(), args.next())
    else {
        eprintln!("usage: gate <baseline.json> <current.json>");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("ERROR: read {path}: {e}");
            std::process::exit(2);
        })
    };
    let outcome = compare(&read(&baseline_path), &read(&current_path)).unwrap_or_else(|e| {
        eprintln!("ERROR: {baseline_path} vs {current_path}: {e}");
        std::process::exit(2);
    });
    let bench = outcome.bench;
    println!("# gate ({bench}) — {baseline_path} vs {current_path}\n");
    print!("{}", outcome.report);
    if outcome.failed {
        eprintln!("\nERROR: {bench} bench regressed against the baseline");
        std::process::exit(1);
    }
    println!("\ngate passed");
}
