//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `rexbench manifest` renders
//! `BENCHMARK.json` from these tables and a test holds the checked-in file
//! to them, so the file and the printed metric names cannot drift apart.

use crate::json::quote;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "olap_adhoc",
        why: "unique ad hoc scans, top-k and join/group-by over 200k rows on 2 connections: \
              rql/optimizer/core and row encoding do the work, the result cache and views none",
    },
    WorkloadDef {
        name: "serve_hot",
        why: "64 fully cached point reads, strict then pipelined: the server layer (socket, \
              protocol, cache, flush) does all the work and the engine none",
    },
    WorkloadDef {
        name: "ingest_views",
        why: "batched ingest under four materialized views (one recursive, recomputed) beside \
              an open-loop reader: views, storage and snapshot publish do the work",
    },
    WorkloadDef {
        name: "recursive_fixpoint",
        why: "PageRank, shortest paths and reachability to fixpoint on cluster:4, re-run as \
              edges arrive: the fixpoint operator and the cluster runtime do the work",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// Every workload reports every one of these, in this order. On this
/// shared two-core sandbox the interquartile spread of ten-seed sets runs
/// 1–10% in quiet periods and up to 21% when a neighbour slows the CPU
/// (README, "Spreads and bounds"), so every timing bound sits at the
/// contract's cap of 0.25; only peak memory, which never spread beyond
/// 9%, is held tighter.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p75_us", "us", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("write_ack_p50_us", "us", Lower, 0.25),
    e2e("write_ack_p90_us", "us", Lower, 0.25),
    e2e("ingest_rows_per_s", "rows/s", Higher, 0.25),
    e2e("server_cpu_us_per_op", "us", Lower, 0.25),
    e2e("server_peak_rss_mb", "MB", Lower, 0.20),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Higher }
}

/// Every traced run prints every one of these; a metric of a layer the
/// workload never enters reads 0. Layers are the repo's modules.
pub const PER_LAYER: &[PerLayer] = &[
    // server (crates/server)
    lower("server.parse_command_ns", "ns"),
    lower("server.encode_row_ns_per_row", "ns"),
    lower("server.decode_row_ns_per_row", "ns"),
    lower("server.rtt_floor_us", "us"),
    lower("server.wire_overhead_us", "us"),
    lower("server.wire_overhead_us.sfp_selective", "us"),
    lower("server.wire_overhead_us.topk_group", "us"),
    lower("server.wire_overhead_us.join_group", "us"),
    lower("server.wire_overhead_us.sfp_half", "us"),
    higher("server.cache_hit_ratio", "ratio"),
    lower("server.cache_evictions", "count"),
    lower("server.publish_mean_us", "us"),
    lower("server.publish_max_us", "us"),
    lower("server.publishes", "count"),
    higher("server.ops_per_publish", "ratio"),
    lower("server.query_p90_us", "us"),
    lower("server.query_p99_us", "us"),
    lower("server.write_ack_p99_us", "us"),
    // session (src/)
    lower("session.query_us", "us"),
    lower("session.query_us.sfp_selective", "us"),
    lower("session.query_us.topk_group", "us"),
    lower("session.query_us.join_group", "us"),
    lower("session.query_us.sfp_half", "us"),
    lower("session.query_us.pagerank", "us"),
    lower("session.query_us.sssp", "us"),
    lower("session.query_us.reach", "us"),
    lower("session.overhead_us", "us"),
    lower("session.snapshot_us", "us"),
    lower("session.insert_us_per_batch", "us"),
    lower("session.view_state_serve_us", "us"),
    // rql, optimizer
    lower("rql.parse_us", "us"),
    lower("rql.plan_us", "us"),
    lower("rql.lower_us", "us"),
    lower("optimizer.optimize_us", "us"),
    // core
    lower("core.execute_us", "us"),
    lower("core.ns_per_input_row.sfp_selective", "ns"),
    lower("core.ns_per_input_row.topk_group", "ns"),
    lower("core.ns_per_input_row.join_group", "ns"),
    lower("core.ns_per_input_row.sfp_half", "ns"),
    lower("core.op.scan_ns_per_row", "ns"),
    lower("core.op.filter_ns_per_row", "ns"),
    lower("core.op.project_ns_per_row", "ns"),
    lower("core.op.hash_join_ns_per_row", "ns"),
    lower("core.op.group_by_ns_per_row", "ns"),
    lower("core.op.topk_ns_per_row", "ns"),
    lower("core.op.sink_ns_per_row", "ns"),
    higher("core.lane_hit_ratio", "ratio"),
    lower("core.telemetry_overhead_ratio", "ratio"),
    lower("core.fixpoint.strata.pagerank", "count"),
    lower("core.fixpoint.strata.sssp", "count"),
    lower("core.fixpoint.strata.reach", "count"),
    lower("core.fixpoint.delta_rows.pagerank", "count"),
    lower("core.fixpoint.delta_rows.sssp", "count"),
    lower("core.fixpoint.delta_rows.reach", "count"),
    lower("core.fixpoint.ns_per_delta_row.pagerank", "ns"),
    lower("core.fixpoint.ns_per_delta_row.sssp", "ns"),
    lower("core.fixpoint.ns_per_delta_row.reach", "ns"),
    lower("core.fixpoint.us_per_stratum.pagerank", "us"),
    lower("core.fixpoint.us_per_stratum.sssp", "us"),
    lower("core.fixpoint.us_per_stratum.reach", "us"),
    // storage
    lower("storage.append_us_per_batch", "us"),
    lower("storage.append_us_per_batch_unshared", "us"),
    lower("storage.snapshot_us", "us"),
    // views
    lower("views.maint_us_per_batch.spend", "us"),
    lower("views.maint_us_per_batch.region_spend", "us"),
    lower("views.maint_us_per_batch.big", "us"),
    lower("views.maint_us_per_batch.reports", "us"),
    lower("views.maint_ns_per_delta_row.insert", "ns"),
    lower("views.maint_ns_per_delta_row.delete", "ns"),
    lower("views.recomputes", "count"),
    lower("views.sync_us", "us"),
    lower("views.state_bytes_per_base_row", "bytes"),
    // cluster
    lower("cluster.query_us.pagerank", "us"),
    lower("cluster.query_us.sssp", "us"),
    lower("cluster.query_us.reach", "us"),
    lower("cluster.us_per_stratum", "us"),
    lower("cluster.bytes_sent_per_query", "bytes"),
    lower("cluster.rows_routed_skew", "ratio"),
    lower("cluster.join_group_ns_per_row", "ns"),
    // self-time share of each layer in one operation of this workload
    lower("share.server", "ratio"),
    lower("share.session", "ratio"),
    lower("share.rql", "ratio"),
    lower("share.optimizer", "ratio"),
    lower("share.core", "ratio"),
    lower("share.storage", "ratio"),
    lower("share.views", "ratio"),
    lower("share.cluster", "ratio"),
    lower("ledger.unattributed_ratio", "ratio"),
    // load generator health
    lower("gen.late_p99_us", "us"),
    higher("gen.achieved_rate", "ratio"),
    lower("gen.driver_cpu_us_per_op", "us"),
];

/// Per-layer counts that depend only on the seeded inputs, so two runs of
/// one commit on one seed must report them bit for bit; the server's own
/// counters (`server.publishes`, …) count what fitted in the window.
pub fn repeats_exactly(name: &str) -> bool {
    const EXACT: [&str; 4] = [
        "core.fixpoint.strata.",
        "core.fixpoint.delta_rows.",
        "cluster.bytes_sent_per_query",
        "views.recomputes",
    ];
    EXACT.iter().any(|prefix| name.starts_with(prefix))
}

pub fn end_to_end_unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit)
}

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"rexbench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(w.name), quote(&why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()) && n.chars().all(ok)
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let v = json::parse(&manifest()).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let mut names = BTreeSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for m in v.get(section).and_then(Json::as_arr).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                assert!(valid_name(name), "{name}");
                assert!(names.insert(name.to_string()), "{name} used twice");
                if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
                    assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok), "{unit}");
                }
                if let Some(why) = m.get("why").and_then(Json::as_str) {
                    assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
                }
                if let Some(b) = m.get("bound").and_then(Json::as_f64) {
                    assert!(b > 0.0 && b <= 0.25);
                }
            }
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `rexbench manifest > BENCHMARK.json`");
    }

    #[test]
    fn workload_names_match_the_drivers() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
