//! Drives the `gate` binary against the committed baselines: each passes
//! against itself, every gated metric moved past its tolerance in the bad
//! direction fails, and files that cannot be gated exit 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use congest_bench::gate::{Direction, TABLES};
use congest_bench::json::Value;

fn committed(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{bench}.json"))
}

/// Exit status of `gate <baseline> <current>`.
fn gate(baseline: &Path, current: &Path) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_gate"))
        .args([baseline, current])
        .output()
        .expect("gate binary runs");
    output.status.code().expect("gate exits, not signalled")
}

#[test]
fn exit_status_follows_the_comparison() {
    let scratch = std::env::temp_dir().join(format!("gate_cli_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let write = |name: &str, text: &str| {
        let path = scratch.join(name);
        std::fs::write(&path, text).expect("write scratch file");
        path
    };
    for table in &TABLES {
        let path = committed(table.bench);
        assert_eq!(gate(&path, &path), 0, "{} vs itself", table.bench);
        let text = std::fs::read_to_string(&path).expect("committed baseline");
        let baseline = Value::parse(&text).expect("committed baseline parses");
        // A copy whose new first members shadow the originals: lookups
        // take the first match.
        let copy_with = |members: &str| write("copy.json", &format!("{{{members},{}", &text[1..]));
        for &(key, direction, tolerance) in table.rows {
            let value = baseline
                .get(key)
                .and_then(Value::as_f64)
                .expect("gated key");
            let moved = match direction {
                Direction::Higher => value * (1.0 - 1.5 * tolerance),
                Direction::Lower => value * (1.0 + 1.5 * tolerance),
            };
            let regressed = format!("\"{key}\":{moved}");
            assert_eq!(gate(&path, &copy_with(&regressed)), 1, "{regressed}");
            // Measured on another source, the same move is only reported.
            let foreign = format!("\"source_fingerprint\":\"0000000000000000\",{regressed}");
            assert_eq!(gate(&path, &copy_with(&foreign)), 0, "{foreign}");
        }

        // Files that cannot be gated at all: half a file on either side,
        // another bench, no file.
        let truncated = write("truncated.json", &text[..text.len() / 2]);
        assert_eq!(gate(&path, &truncated), 2);
        assert_eq!(gate(&truncated, &path), 2);
        let other = TABLES
            .iter()
            .find(|t| t.bench != table.bench)
            .expect("three tables");
        assert_eq!(gate(&path, &committed(other.bench)), 2, "two benches");
        assert_eq!(gate(&path, &scratch.join("absent.json")), 2);
    }
    let unknown = write("unknown.json", r#"{"bench":"kernel"}"#);
    assert_eq!(gate(&unknown, &unknown), 2);
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
}
