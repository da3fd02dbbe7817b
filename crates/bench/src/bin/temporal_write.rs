//! Deterministic temporal edge-list writer — the CI-side stand-in for
//! downloading a real graph.
//!
//! Renders a [`SyntheticTemporal`] stream (`src dst [w] time` lines,
//! seed embedded in the header comment so distinct seeds provably yield
//! distinct bytes) to a file, then loads it back through
//! [`TemporalLoader`] and prints the loaded timeline's fingerprint in
//! the 16-hex-digit spelling the bench JSON uses (a replay's
//! `source_fingerprint` folds this value with its batching policy), so
//! a workflow can tell two files apart without diffing them.
//!
//! Usage: `temporal_write OUT [--n N] [--events E] [--seed S]
//! [--remove-fraction F]`.

use std::path::PathBuf;

use congest_graph::temporal::{fingerprint_hex, SyntheticTemporal, TemporalLoader};

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut n = 200usize;
    let mut events = 2_000usize;
    let mut seed = 0xF11Eu64;
    let mut remove_fraction = 0.25f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--n" => n = value("--n").parse().expect("--n takes a positive integer"),
            "--events" => {
                events = value("--events")
                    .parse()
                    .expect("--events takes a positive integer");
            }
            "--seed" => seed = parse_seed(&value("--seed")),
            "--remove-fraction" => {
                remove_fraction = value("--remove-fraction")
                    .parse()
                    .expect("--remove-fraction takes a float in [0, 1]");
            }
            other if other.starts_with("--") => {
                panic!("unknown flag {other} (supported: --n, --events, --seed, --remove-fraction)")
            }
            _ => {
                assert!(
                    out.is_none(),
                    "exactly one output path, got a second: {arg}"
                );
                out = Some(arg.into());
            }
        }
    }
    let out = out.expect("usage: temporal_write OUT [--n N] [--events E] [--seed S] ...");

    let synth = SyntheticTemporal::new(n, events)
        .seeded(seed)
        .with_remove_fraction(remove_fraction);
    synth
        .write_to(&out)
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));

    // Read the file back so the printed identity describes what a
    // consumer will actually load, not what we intended to write.
    let timeline = TemporalLoader::new()
        .load_path(&out)
        .unwrap_or_else(|e| panic!("re-load {}: {e}", out.display()));
    println!(
        "wrote {} — n={} events={} seed={seed:#x} remove_fraction={remove_fraction} \
         time_span={:?} fingerprint={}",
        out.display(),
        timeline.node_count(),
        timeline.len(),
        timeline.time_span(),
        fingerprint_hex(timeline.fingerprint()),
    );
}

/// Accepts both decimal and `0x`-prefixed seeds.
fn parse_seed(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).expect("--seed takes a u64 (decimal or 0x hex)")
    } else {
        s.parse().expect("--seed takes a u64 (decimal or 0x hex)")
    }
}
