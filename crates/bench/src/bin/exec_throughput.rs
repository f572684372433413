//! Row-at-a-time executor throughput: the dataflow hot path in rows/sec.
//!
//! Three pipeline shapes over a 200k-row base table, on both engines:
//!
//! * **scan→filter→project→sink** (selective) — the per-row dataflow tax
//!   every query pays: `SELECT k, a + 1, b * 2.0 FROM t WHERE a < 10`
//!   keeps ~10% of rows, so scan + filter delivery dominates. Insert-only
//!   end to end: the fast lane (run-length `Event::Rows` batches, append
//!   sink, one radix sort) applies in full.
//! * **scan→filter→project→sink** (half) — the same pipeline with
//!   `a < 50` (~50% pass), loading the projection / sink / sort half of
//!   the lane as heavily as the scan half.
//! * **scan→join→group** — the keyed-state lane:
//!   `SELECT dim.g, count(*), sum(t.b) FROM t, dim WHERE t.k = dim.k
//!    GROUP BY dim.g`. Every row probes a hash join and folds into group
//!   state, so per-row key costs dominate.
//!
//! Each configuration is timed over several full `Session::query` passes
//! (parse → optimize → lower → execute → sorted rows, the same path users
//! pay) and the best pass is reported as rows/sec and ns/row — the number
//! the ROADMAP's "~240 ns/row in delta wrapping and cloning" claim turns
//! into. Results land in `BENCH_exec.json`. With `--baseline <path>`,
//! naming the `BENCH_exec.json` this same file wrote when built inside an
//! older tree on the same machine, the binary also prints each config's
//! `baseline ns/row ÷ current ns/row` against its `floor` and exits 1
//! below any floor:
//!
//! ```text
//! cargo run --release -p rex-bench --bin exec_throughput -- --baseline BENCH_exec_baseline.json
//! ```
//!
//! The same passes run with per-operator tracing off and on
//! (`Session::set_telemetry`), in interleaved rounds on one session, and
//! each arm keeps its best pass. This binary is the ≤3% telemetry gate of
//! docs/OBSERVABILITY.md: it exits 1 when tracing costs more than
//! [`TELEMETRY_CAP`] on any configuration.

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;
use std::time::Instant;

/// Base-table rows (the denominator of every ns/row figure).
const ROWS: usize = 200_000;
/// Dimension-table rows for the join workload.
const DIM_ROWS: usize = 20_000;
/// Cluster engine size.
const WORKERS: usize = 4;
/// Timed passes per configuration and telemetry arm in each round.
const PASSES: usize = 5;
/// Rounds of interleaved off/on passes: single passes jitter more than
/// the cap on shared machines, so each arm reports its best pass over
/// all rounds.
const ROUNDS: usize = 3;
/// Most that tracing may cost: telemetry-on over telemetry-off ns/row.
const TELEMETRY_CAP: f64 = 1.03;

/// Per configuration: `(workload, engine, pre-PR ns/row, CI floor)`.
///
/// The ns/row anchors were measured by running this bench at the commit
/// before the hot-path rework (per-event `OpCtx`, owned-key probes,
/// clone-heavy sinks, double stable sorts), interleaved with the current
/// build on the same dev machine; the *minimum* observed ns/row was
/// recorded. They make local runs self-describing — CI does **not**
/// compare against them: the bench-smoke job re-runs this binary at the
/// pre-rework commit *on the same runner* and passes that run's output as
/// `--baseline`, so each `floor` applies to a machine-independent ratio.
/// Floors leave headroom for run-to-run noise: the gating
/// scan→filter→project configs hold ≥2x with 25–40% margin. The join
/// floors were regression guards (0.9 / 1.25) while
/// the probe loop was cache-miss bound; the columnar-batch PR's
/// integer-hash entropy fix, byte-estimated build-side selection, and
/// hash-all-then-prefetch batched probes lifted local `join_group` to
/// ~2.0x against the same pre-rework commit (interleaved rounds:
/// 765–835 pre vs 384–428 post ns/row), so local now gates at 1.8.
/// Cluster joins repartition through the network edge and keep the
/// general delta lane; interleaved rounds measure parity with the
/// pre-columnar commit there (routing dominates, probes don't), so
/// cluster keeps its ~1.4x-measured 1.25 floor from the fast-lane era.
const CONFIGS: [(&str, &str, f64, f64); 6] = [
    ("scan_filter_project", "local", 130.4, 2.0),
    ("scan_filter_project", "cluster", 449.5, 2.0),
    ("scan_filter_project_half", "local", 243.2, 1.8),
    ("scan_filter_project_half", "cluster", 590.5, 2.0),
    ("join_group", "local", 703.2, 1.8),
    ("join_group", "cluster", 1224.6, 1.25),
];

const SFPS_SELECTIVE: &str = "SELECT k, a + 1, b * 2.0 FROM t WHERE a < 10";
const SFPS_HALF: &str = "SELECT k, a + 1, b * 2.0 FROM t WHERE a < 50";
const JOIN_GROUP_QUERY: &str = "SELECT dim.g, count(*), sum(t.b) FROM t, dim \
     WHERE t.k = dim.k GROUP BY dim.g";

fn config(workload: &str, engine: &str) -> (f64, f64) {
    CONFIGS
        .iter()
        .find(|(w, e, _, _)| *w == workload && *e == engine)
        .map(|(_, _, ns, floor)| (*ns, *floor))
        .expect("baseline recorded for every configuration")
}

fn base_rows(rng: &mut StdRng) -> Vec<Tuple> {
    (0..ROWS)
        .map(|i| {
            Tuple::new(vec![
                Value::Int((i % DIM_ROWS) as i64),
                Value::Int(rng.gen_range(0..=99i64)),
                Value::Double(rng.gen_range(0..=999i64) as f64 * 0.25),
            ])
        })
        .collect()
}

fn dim_rows() -> Vec<Tuple> {
    (0..DIM_ROWS as i64)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k % 64), Value::Double(k as f64)]))
        .collect()
}

fn session(engine: &str) -> Session {
    let mut s = match engine {
        "cluster" => Session::cluster(WORKERS),
        _ => Session::local(),
    };
    s.create_table(
        "t",
        Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]),
    )
    .unwrap();
    s.create_table(
        "dim",
        Schema::of(&[("k", DataType::Int), ("g", DataType::Int), ("w", DataType::Double)]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    s.insert("t", base_rows(&mut rng)).unwrap();
    s.insert("dim", dim_rows()).unwrap();
    s
}

/// The telemetry switch of a session that predates it: no-ops. Inherent
/// methods win over trait methods, so on a `Session` that has the switch
/// these are never called; the CI floor gate builds this file inside a
/// pre-telemetry tree, where they make [`measure`] time the off arm only.
#[allow(dead_code)]
trait TelemetrySwitch {
    fn set_telemetry(&mut self, _on: bool) {}
    fn telemetry(&self) -> bool {
        false
    }
}

impl TelemetrySwitch for Session {}

struct Measurement {
    workload: &'static str,
    engine: &'static str,
    seconds: f64,
    /// Best pass with telemetry on (`None` without a switch).
    telemetry_seconds: Option<f64>,
    result_rows: usize,
}

impl Measurement {
    fn ns_per_row(&self) -> f64 {
        self.seconds * 1e9 / ROWS as f64
    }

    /// Telemetry-on over telemetry-off time.
    fn telemetry_ratio(&self) -> Option<f64> {
        self.telemetry_seconds.map(|on| on / self.seconds)
    }

    fn rows_per_sec(&self) -> f64 {
        ROWS as f64 / self.seconds
    }

    fn speedup_vs_baseline(&self) -> f64 {
        config(self.workload, self.engine).0 / self.ns_per_row()
    }

    fn json(&self) -> String {
        let (baseline, floor) = config(self.workload, self.engine);
        let telemetry = self.telemetry_ratio().map_or(String::new(), |r| {
            let ns = r * self.ns_per_row();
            format!(", \"telemetry_ns_per_row\": {ns:.1}, \"telemetry_ratio\": {r:.4}")
        });
        format!(
            "{{ \"seconds\": {:.6}, \"rows_per_sec\": {:.0}, \"ns_per_row\": {:.1}, \
             \"result_rows\": {}, \"baseline_ns_per_row\": {:.1}, \
             \"speedup_vs_baseline\": {:.2}, \"floor\": {:.2}{telemetry} }}",
            self.seconds,
            self.rows_per_sec(),
            self.ns_per_row(),
            self.result_rows,
            baseline,
            self.speedup_vs_baseline(),
            floor,
        )
    }
}

/// Time `query` on `engine`: one warmup pass, then [`ROUNDS`] rounds of
/// [`PASSES`] timed full-pipeline passes per telemetry arm, alternating
/// off and on pass by pass so both arms see the same machine; each arm
/// reports its best pass.
fn measure(
    workload: &'static str,
    engine: &'static str,
    query: &str,
    expect_rows: impl Fn(usize) -> bool,
) -> Measurement {
    let mut s = session(engine);
    let warm = s.query(query).unwrap();
    assert!(
        expect_rows(warm.rows.len()),
        "{workload}/{engine}: unexpected result cardinality {}",
        warm.rows.len()
    );
    let result_rows = warm.rows.len();
    s.set_telemetry(true);
    let arms: &[bool] = if s.telemetry() { &[false, true] } else { &[false] };
    // Best pass per arm: [off, on].
    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS * PASSES {
        for &on in arms {
            s.set_telemetry(on);
            let t = Instant::now();
            let r = s.query(query).unwrap();
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(r.rows.len(), result_rows, "{workload}/{engine}: drifting result");
            best[usize::from(on)] = best[usize::from(on)].min(secs);
        }
    }
    let telemetry_seconds = (arms.len() == 2).then_some(best[1]);
    let m = Measurement { workload, engine, seconds: best[0], telemetry_seconds, result_rows };
    let telemetry = m
        .telemetry_ratio()
        .map_or(String::new(), |r| format!(", telemetry {:+.1}%", (r - 1.0) * 100.0));
    println!(
        "{workload:>26} {engine:>8}: {:>12.0} rows/s  {:>8.1} ns/row  ({:.2}x vs pre-PR{telemetry})",
        m.rows_per_sec(),
        m.ns_per_row(),
        m.speedup_vs_baseline(),
    );
    m
}

/// `ns_per_row` of `workload`/`engine` in a `BENCH_exec.json` this binary
/// wrote.
fn baseline_ns_per_row(json: &str, workload: &str, engine: &str) -> Option<f64> {
    const KEY: &str = "\"ns_per_row\": ";
    let block = &json[json.find(&format!("\"{workload}\": {{"))?..];
    let entry = &block[block.find(&format!("\"{engine}\": {{"))?..];
    let value = &entry[entry.find(KEY)? + KEY.len()..];
    value[..value.find([',', ' ', '}'])?].parse().ok()
}

/// Print every config's speedup over the baseline run at `path` against
/// its floor; return the configs below their floor.
fn floor_misses(measurements: &[Measurement], path: &str) -> Vec<String> {
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    println!("\nspeedup over the baseline run in {path}:");
    let mut misses = Vec::new();
    for m in measurements {
        let old = baseline_ns_per_row(&json, m.workload, m.engine)
            .unwrap_or_else(|| panic!("{path}: no ns_per_row for {}/{}", m.workload, m.engine));
        let (got, floor) = (old / m.ns_per_row(), config(m.workload, m.engine).1);
        let ok = got >= floor;
        let verdict = if ok { "ok" } else { "BELOW FLOOR" };
        println!("{}/{}: {got:.2}x (floor {floor}x) {verdict}", m.workload, m.engine);
        if !ok {
            misses.push(format!(
                "{}/{}: {got:.2}x < required {floor}x over the baseline ({old} ns/row)",
                m.workload, m.engine
            ));
        }
    }
    misses
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--baseline" => Some(path.clone()),
        _ => {
            eprintln!("usage: exec_throughput [--baseline <BENCH_exec.json of the baseline tree>]");
            std::process::exit(2);
        }
    };
    println!(
        "executor throughput, {ROWS} base rows, best of {ROUNDS} rounds x {PASSES} passes \
         per telemetry arm\n"
    );
    let measurements = [
        // ~10% of rows pass: the scan/filter per-row tax dominates.
        measure("scan_filter_project", "local", SFPS_SELECTIVE, |n| n > ROWS / 30),
        measure("scan_filter_project", "cluster", SFPS_SELECTIVE, |n| n > ROWS / 30),
        // ~50% pass: projection, sink, and the final sort stay loaded.
        measure("scan_filter_project_half", "local", SFPS_HALF, |n| n > ROWS / 3),
        measure("scan_filter_project_half", "cluster", SFPS_HALF, |n| n > ROWS / 3),
        // Every t row matches exactly one dim row; 64 output groups.
        measure("join_group", "local", JOIN_GROUP_QUERY, |n| n == 64),
        measure("join_group", "cluster", JOIN_GROUP_QUERY, |n| n == 64),
    ];

    let workloads = ["scan_filter_project", "scan_filter_project_half", "join_group"];
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rows\": {ROWS},\n"));
    for (i, workload) in workloads.iter().enumerate() {
        json.push_str(&format!("  \"{workload}\": {{\n"));
        let ms: Vec<&Measurement> =
            measurements.iter().filter(|m| m.workload == *workload).collect();
        for (j, m) in ms.iter().enumerate() {
            json.push_str(&format!("    \"{}\": {}", m.engine, m.json()));
            json.push_str(if j + 1 < ms.len() { ",\n" } else { "\n" });
        }
        json.push_str(if i + 1 < workloads.len() { "  },\n" } else { "  }\n" });
    }
    json.push_str("}\n");
    std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
    println!("\nwrote BENCH_exec.json");

    let over: Vec<String> = measurements
        .iter()
        .filter_map(|m| {
            let r = m.telemetry_ratio().filter(|r| *r > TELEMETRY_CAP)?;
            Some(format!("{}/{} {:+.1}%", m.workload, m.engine, (r - 1.0) * 100.0))
        })
        .collect();
    let misses = baseline.map_or(Vec::new(), |path| floor_misses(&measurements, &path));
    if !over.is_empty() {
        eprintln!("telemetry costs more than {TELEMETRY_CAP}x: {}", over.join("; "));
    }
    for miss in &misses {
        eprintln!("{miss}");
    }
    if !over.is_empty() || !misses.is_empty() {
        std::process::exit(1);
    }
}
