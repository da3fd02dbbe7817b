//! What the numbers were taken on: hardware threads, CPU model, and the
//! process's own peak resident set.

/// Hardware threads available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

/// The CPU's model name (`unknown` off Linux).
pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_fields_are_present() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
