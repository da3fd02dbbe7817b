//! The names this benchmark speaks: eight workloads and every metric,
//! with unit, direction, bound and exactness. `BENCHMARK.json` at the
//! repository root lists the same names; a test below holds the two
//! together. README.md is the glossary.

/// The seed whose inputs are pinned (see `Pins`).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "replay_hub",
        why: "TriangleIndex on a parsed temporal replay with hub churn: galloping kernel arm and long-slab arena shifts",
    },
    WorkloadDef {
        name: "bigbatch_sharded",
        why: "ShardedTriangleIndex S=2 on 5000-delta uniform batches: merge kernel arm, five sharded phases, dispatch amortised",
    },
    WorkloadDef {
        name: "pool_smallbatch",
        why: "ShardedTriangleIndex S=2 on 256-delta batches: pool hand-off is nearly everything; a kernel change must not move it",
    },
    WorkloadDef {
        name: "grow_shrink",
        why: "TriangleIndex grown from empty then drained in reverse: slab promotion, then free lists and compaction",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "TriangleServer writer beside one reader on the COW store: publish cost, closed-loop and open-loop reads",
    },
    WorkloadDef {
        name: "static_drivers",
        why: "Theorem 1 finding and Theorem 2 listing on a fixed-size G(n,m): simulator, wire, hash and triangles crates only",
    },
    WorkloadDef {
        name: "dist_quiet",
        why: "DistributedTriangleEngine epochs with no faults: the round floor that protocol changes must leave bit-identical",
    },
    WorkloadDef {
        name: "dist_lossy",
        why: "same engine and stream prefix under a seeded 1% drop plan: recovery rounds and the unattributed loss penalty",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Reported by every workload with tracing off; listed under
    /// `end_to_end` in `BENCHMARK.json`, whose referee needs one set of
    /// metrics for all workloads.
    Contract,
    /// A user-visible metric of particular workloads. It carries a
    /// bound that `--check-repeat` and `--diff` enforce; the outside
    /// referee sees it among the per-layer metrics.
    EndToEnd,
    /// A single layer's number, timed or counted from the benchmark's
    /// side of a public call. No bound.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
    /// Share of the base median by which the metric may worsen before
    /// `--check-repeat` / `--diff` call it a regression (0 for layers).
    pub bound: f64,
    /// Must repeat exactly on the same seed: a simulated count, a
    /// report tally, a failure ratio.
    pub exact: bool,
}

const fn contract(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        class: Class::Contract,
        bound,
        exact: false,
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::EndToEnd,
        bound,
        exact: false,
    }
}

const fn e2e_exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        class: Class::EndToEnd,
        bound: 0.0,
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    // --- reported by every workload --------------------------------
    contract("setup_s", "s", 0.25),
    contract("wall_s", "s", 0.25),
    contract("peak_rss_mb", "MB", 0.25),
    // --- end to end, per workload ----------------------------------
    e2e("deltas_per_s", "deltas/s", Higher, 0.20),
    e2e("batch_p50_us", "us", Lower, 0.20),
    e2e("batch_p99_us", "us", Lower, 0.25),
    e2e("reads_per_s", "reads/s", Higher, 0.20),
    e2e_exact("sim_rounds_per_batch", "rounds"),
    e2e_exact("sim_bits_per_batch", "bits"),
    e2e_exact("finding_rounds", "rounds"),
    e2e_exact("listing_rounds", "rounds"),
    e2e("finding_s", "s", Lower, 0.20),
    e2e("listing_s", "s", Lower, 0.20),
    e2e_exact("fail_ratio", "ratio"),
    // --- congest-graph ---------------------------------------------
    layer("graph.temporal_parse_s", "s", Lower),
    layer("graph.temporal_events_per_s", "events/s", Higher),
    layer("graph.kernel_skewed_melems_per_s", "Melem/s", Higher),
    layer("graph.kernel_balanced_melems_per_s", "Melem/s", Higher),
    layer("graph.kernel_workload_melems_per_s", "Melem/s", Higher),
    layer("graph.oracle_list_s", "s", Lower),
    // --- stream::arena ---------------------------------------------
    layer("arena.insert_ns", "ns", Lower),
    layer("arena.remove_ns", "ns", Lower),
    count("arena.slab_bytes", "bytes", Lower),
    count("arena.live_bytes", "bytes", Lower),
    count("arena.free_bytes", "bytes", Lower),
    count("arena.fill_ratio", "ratio", Higher),
    count("arena.compactions", "count", Lower),
    // --- stream::index ---------------------------------------------
    layer("index.seed_s", "s", Lower),
    layer("index.kernel_share", "ratio", Lower),
    count("index.noop_ratio", "ratio", Lower),
    count("index.effective_deltas", "count", Higher),
    count("index.triangles_added", "count", Higher),
    count("index.triangles_removed", "count", Higher),
    layer("index.grow_deltas_per_s", "deltas/s", Higher),
    layer("index.shrink_deltas_per_s", "deltas/s", Higher),
    layer("index.oracle_check_s", "s", Lower),
    layer("index.speedup_vs_recompute", "ratio", Higher),
    // --- stream::source / stream::runner ---------------------------
    layer("source.batch_build_s", "s", Lower),
    layer("runner.overhead_ratio", "ratio", Higher),
    // --- stream::sharded / stream::pool ----------------------------
    layer("sharded.seed_s", "s", Lower),
    layer("sharded.speedup_vs_single", "ratio", Higher),
    layer("sharded.coalesce_share", "ratio", Lower),
    layer("sharded.classify_share", "ratio", Lower),
    layer("sharded.collect_share", "ratio", Lower),
    layer("sharded.record_share", "ratio", Lower),
    layer("sharded.merge_share", "ratio", Lower),
    layer("pool.wait_share", "ratio", Lower),
    layer("pool.dispatch_overhead_us", "us", Lower),
    layer("pool.busy_max_share", "ratio", Higher),
    layer("pool.busy_mean_share", "ratio", Higher),
    layer("pool.steals", "count", Higher),
    layer("pool.record_split_tasks", "count", Higher),
    layer("pool.pooled_batches", "count", Higher),
    layer("pool.split_threshold_final", "count", Lower),
    // --- stream::serve ---------------------------------------------
    layer("serve.publish_us", "us", Lower),
    layer("serve.write_ratio_attached", "ratio", Higher),
    layer("serve.lease_acquire_ns", "ns", Lower),
    layer("serve.query_count_ns", "ns", Lower),
    layer("serve.query_node_support_ns", "ns", Lower),
    layer("serve.query_edge_ns", "ns", Lower),
    layer("serve.query_topk_us", "us", Lower),
    layer("serve.achieved_rps", "reads/s", Higher),
    layer("serve.read_p50_us", "us", Lower),
    layer("serve.read_p99_us", "us", Lower),
    layer("serve.over_slo_ratio", "ratio", Lower),
    layer("serve.generator_lag_p99_us", "us", Lower),
    layer("serve.lease_lag_epochs_max", "epochs", Lower),
    layer("serve.stale_lease_warnings", "count", Lower),
    // --- stream::distributed ---------------------------------------
    count("dist.broadcast_rounds", "rounds", Lower),
    count("dist.convergecast_rounds", "rounds", Lower),
    count("dist.recovery_rounds", "rounds", Lower),
    count("dist.unattributed_rounds", "rounds", Lower),
    count("dist.messages", "count", Lower),
    count("dist.retransmit_rounds", "rounds", Lower),
    count("dist.epoch_repairs", "count", Lower),
    count("dist.degraded_epochs", "count", Lower),
    count("dist.lossy_round_ratio", "ratio", Lower),
    count("dist.received_bits_skew_max", "ratio", Lower),
    layer("dist.host_us_per_round", "us", Lower),
    layer("dist.seed_s", "s", Lower),
    // --- congest-sim -----------------------------------------------
    layer("sim.rounds_per_host_s", "rounds/s", Higher),
    layer("sim.messages_per_host_s", "msgs/s", Higher),
    layer("sim.epoch_overhead_us", "us", Lower),
    count("sim.dropped_messages", "count", Lower),
    // --- congest-triangles -----------------------------------------
    count("triangles.a1_rounds", "rounds", Lower),
    count("triangles.a3_rounds", "rounds", Lower),
    count("triangles.a2_rounds", "rounds", Lower),
    count("triangles.listing_a3_rounds", "rounds", Lower),
    layer("triangles.a1_s", "s", Lower),
    layer("triangles.a2_s", "s", Lower),
    layer("triangles.a3_s", "s", Lower),
    count("triangles.listing_coverage", "ratio", Higher),
    count("triangles.finding_found", "count", Higher),
    // --- congest-wire / congest-hash -------------------------------
    layer("wire.encode_ids_mb_per_s", "MB/s", Higher),
    layer("wire.decode_ids_mb_per_s", "MB/s", Higher),
    layer("hash.kwise_eval_mops", "Mops/s", Higher),
    layer("hash.checksum61_mb_per_s", "MB/s", Higher),
    // --- congest-obs -----------------------------------------------
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.trace_events", "count", Lower),
    layer("obs.trace_dropped", "count", Lower),
    layer("obs.hist_record_ns", "ns", Lower),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_obs::json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_their_charsets() {
        let mut seen = std::collections::BTreeSet::new();
        for name in METRICS
            .iter()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in METRICS {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            if m.class == Class::Layer || m.exact {
                assert_eq!(m.bound, 0.0, "{}", m.name);
            }
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
    }

    /// `BENCHMARK.json` is what the outside referee reads; this table is
    /// what the binary prints. They must list the same things.
    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let manifest = Value::parse(include_str!("../../../../../BENCHMARK.json")).expect("JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            manifest
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|entry| {
                    let field = |k: &str| {
                        entry
                            .get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let listed = |class_is_contract: bool| -> Vec<(String, String, String)> {
            METRICS
                .iter()
                .filter(|m| (m.class == Class::Contract) == class_is_contract)
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.name().to_string(),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(true));
        assert_eq!(names("per_layer"), listed(false));
        assert!(listed(false).len() <= 128);

        let bounds: Vec<f64> = manifest
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|e| e.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        let ours: Vec<f64> = METRICS
            .iter()
            .filter(|m| m.class == Class::Contract)
            .map(|m| m.bound)
            .collect();
        assert_eq!(bounds, ours);

        let workloads: Vec<(String, String)> = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
