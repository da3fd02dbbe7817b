//! The process-wide counter/gauge registry.
//!
//! A deliberately small surface: monotonically increasing counters
//! ([`counter_add`]), last-write-wins gauges ([`gauge_set`]) and
//! running-maximum gauges ([`gauge_max`]), all keyed by `&'static str`
//! names (dotted, e.g. `"serve.buffer_swaps"`).
//! Updates land at batch/run granularity — never per delta — so one
//! short mutex hold per update is cheap; the lock-free discipline of the
//! span path is not needed here. Snapshots render to JSON (merged into
//! the bench files under an `"obs"` key) or a text report.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json;

struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
}

static REGISTRY: Mutex<Inner> = Mutex::new(Inner {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
});

/// Adds `delta` to the named counter (created at zero on first use).
pub fn counter_add(name: &'static str, delta: u64) {
    let mut inner = REGISTRY.lock().expect("metrics registry poisoned");
    *inner.counters.entry(name).or_insert(0) += delta;
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    let mut inner = REGISTRY.lock().expect("metrics registry poisoned");
    inner.gauges.insert(name, value);
}

/// Raises the named gauge to `value` if that is larger (a running
/// maximum; created at `value` on first use).
pub fn gauge_max(name: &'static str, value: f64) {
    let mut inner = REGISTRY.lock().expect("metrics registry poisoned");
    let gauge = inner.gauges.entry(name).or_insert(value);
    *gauge = gauge.max(value);
}

/// A point-in-time copy of the registry, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
}

impl MetricsSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...}}` (non-finite gauges spell as
    /// `null`, like every number the workspace emits).
    pub fn to_json(&self) -> String {
        let mut counters = String::from("{");
        for (name, value) in &self.counters {
            json::push_num(&mut counters, name, *value as f64);
        }
        json::finish_object(&mut counters);
        let mut gauges = String::from("{");
        for (name, value) in &self.gauges {
            json::push_num(&mut gauges, name, *value);
        }
        json::finish_object(&mut gauges);
        let mut out = String::from("{");
        json::push_raw(&mut out, "counters", &counters);
        json::push_raw(&mut out, "gauges", &gauges);
        json::finish_object(&mut out);
        out
    }
}

/// Copies the current registry contents.
pub fn snapshot() -> MetricsSnapshot {
    let inner = REGISTRY.lock().expect("metrics registry poisoned");
    MetricsSnapshot {
        counters: inner.counters.clone(),
        gauges: inner.gauges.clone(),
    }
}

/// Clears every counter and gauge (test/bench hygiene between runs).
pub fn reset() {
    let mut inner = REGISTRY.lock().expect("metrics registry poisoned");
    inner.counters.clear();
    inner.gauges.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    /// The registry is process-global; serialize the tests that touch it.
    static LOCK: TestMutex<()> = TestMutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        guard
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _x = exclusive();
        counter_add("test.hits", 2);
        counter_add("test.hits", 3);
        gauge_set("test.share", 0.25);
        gauge_set("test.share", 0.75);
        gauge_max("test.peak", 3.0);
        gauge_max("test.peak", 7.0);
        gauge_max("test.peak", 5.0);
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.hits"), Some(&5));
        assert_eq!(snap.gauges.get("test.share"), Some(&0.75));
        assert_eq!(snap.gauges.get("test.peak"), Some(&7.0));
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn snapshot_json_is_parseable_and_sorted() {
        let _x = exclusive();
        counter_add("b.second", 1);
        counter_add("a.first", 7);
        gauge_set("z.gauge", f64::INFINITY);
        let json_text = snapshot().to_json();
        let parsed = json::Value::parse(&json_text).expect("valid JSON");
        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(
            counters.get("a.first").and_then(json::Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            counters.get("b.second").and_then(json::Value::as_f64),
            Some(1.0)
        );
        // Non-finite gauges spell as null, and names sort.
        assert_eq!(
            parsed.get("gauges").and_then(|g| g.get("z.gauge")),
            Some(&json::Value::Null)
        );
        assert!(json_text.find("a.first").unwrap() < json_text.find("b.second").unwrap());
        // An empty registry still renders valid JSON.
        reset();
        assert_eq!(snapshot().to_json(), "{\"counters\":{},\"gauges\":{}}");
    }
}
