//! IVM maintenance vs full recompute, on two workloads.
//!
//! **lineitem join+aggregate** — a view over TPC-H-like `lineitem` joined
//! with a small `rates` dimension:
//!
//! ```sql
//! CREATE MATERIALIZED VIEW revenue AS
//!   SELECT orderkey, count(*), sum(taxed) FROM
//!     (SELECT l.orderkey AS orderkey, l.extendedprice * r.rate AS taxed
//!      FROM lineitem l, rates r WHERE l.linenumber = r.linenumber) t
//!   GROUP BY orderkey
//! ```
//!
//! **skew-heavy few-large-groups** — `events(g, v)` with only 8 groups, so
//! every group holds thousands of rows:
//!
//! ```sql
//! CREATE MATERIALIZED VIEW by_group AS
//!   SELECT g, count(*), sum(v), min(v), max(v) FROM events GROUP BY g
//! ```
//!
//! **recursive reachability** — a 20k-node management forest rooted at
//! employee 0, fed 4-row batches of new hires:
//!
//! ```sql
//! CREATE MATERIALIZED VIEW reports AS
//!   WITH r (emp) AS (SELECT emp FROM roots) UNION UNTIL FIXPOINT BY emp
//!   (SELECT org.emp FROM org, r WHERE org.mgr = r.emp)
//! ```
//!
//! Under PR 2's dirty-group *replay*, each touched group re-derived from
//! all its rows, so the skew workload was quadratic in group size; the
//! per-delta aggregate state of rex-core's `GroupByOp` makes per-batch
//! work proportional to the batch. The recursive view's fixpoint continues
//! from its converged state, so a batch costs the strata its new rows
//! open, not a re-derivation of the forest.
//!
//! Two configurations process the same stream of small insert batches:
//!
//! * **IVM** — `Session::insert` drives the view's long-lived dataflow,
//!   which writes its output delta into the view's sorted stored table
//!   before the insert returns, and `SELECT * FROM <view>` serves the
//!   contents as a clone of those rows;
//! * **recompute** — the defining query re-runs from scratch after every
//!   batch (what `Session::query` did before views existed).
//!
//! Per workload the bench reports per-phase timings — `maintain` (the
//! insert, delta propagation and the stored-table write) and `serve` (the
//! clone of the view's stored rows) — plus `state_bytes` of maintenance
//! state, and writes everything to `BENCH_ivm.json`. The run exits
//! non-zero when a speedup floor
//! (28x lineitem, 30x skew, 10x recursive) or the state cap (1.5x the
//! recorded baseline footprint) is missed, which is the whole CI gate.

use rex::core::tuple::Tuple;
use rex::core::value::Value;
use rex::Session;
use rex_bench::{print_table, scale, Series};
use rex_core::tuple::Schema;
use rex_core::value::DataType;
use rex_data::lineitem::{generate_lineitem, lineitem_tuples, schema};
use rex_data::rng::StdRng;
use std::time::Instant;

const LINEITEM_QUERY: &str = "SELECT orderkey, count(*), sum(taxed) FROM \
     (SELECT l.orderkey AS orderkey, l.extendedprice * r.rate AS taxed \
      FROM lineitem l, rates r WHERE l.linenumber = r.linenumber) t \
     GROUP BY orderkey";

const SKEW_QUERY: &str = "SELECT g, count(*), sum(v), min(v), max(v) FROM events GROUP BY g";

/// `state_bytes` of the lineitem view measured on PR 2 (BTreeMap states,
/// replayable group multisets) at scale 1 — the memory-regression anchor
/// the state cap is relative to.
const PR2_STATE_BYTES: usize = 1_394_942;

/// Lineitem join+aggregate floor: PR 2's hot path measured 13.97x; the
/// O(1) aggregate deltas, hashed state and serving the view's sorted
/// stored rows must hold at least 2x over that.
const LINEITEM_FLOOR: f64 = 28.0;

/// Skew-heavy floor: dirty-group replay was quadratic here, so the
/// per-delta aggregate state must keep a wide margin.
const SKEW_FLOOR: f64 = 30.0;

const FOREST_QUERY: &str = "WITH r (emp) AS (SELECT emp FROM roots) \
     UNION UNTIL FIXPOINT BY emp (SELECT org.emp FROM org, r WHERE org.mgr = r.emp)";

/// Recursive floor: a batch of new hires re-enters the converged fixpoint
/// for a stratum or two instead of re-deriving the whole forest.
const RECURSIVE_FLOOR: f64 = 10.0;

struct WorkloadReport {
    name: &'static str,
    base_rows: usize,
    n_batches: usize,
    batch_rows: usize,
    view_rows: usize,
    ivm_seconds: f64,
    ivm_maintain_seconds: f64,
    ivm_serve_seconds: f64,
    recompute_seconds: f64,
    speedup: f64,
    state_bytes: usize,
}

impl WorkloadReport {
    fn json_fields(&self) -> String {
        format!(
            "\"workload\": \"{}\",\n  \"base_rows\": {},\n  \"batches\": {},\n  \
             \"batch_rows\": {},\n  \"view_rows\": {},\n  \"ivm_seconds\": {:.6},\n  \
             \"ivm_maintain_seconds\": {:.6},\n  \"ivm_serve_seconds\": {:.6},\n  \
             \"recompute_seconds\": {:.6},\n  \"speedup\": {:.2},\n  \"state_bytes\": {}",
            self.name,
            self.base_rows,
            self.n_batches,
            self.batch_rows,
            self.view_rows,
            self.ivm_seconds,
            self.ivm_maintain_seconds,
            self.ivm_serve_seconds,
            self.recompute_seconds,
            self.speedup,
            self.state_bytes,
        )
    }
}

/// Assert both strategies produced the same view contents (doubles to
/// relative tolerance: incremental sums fold in a different order).
fn assert_parity(ivm_rows: &[Tuple], rec_rows: &[Tuple], name: &str) {
    assert_eq!(ivm_rows.len(), rec_rows.len(), "{name}: IVM and recompute disagree on cardinality");
    for (a, b) in ivm_rows.iter().zip(rec_rows) {
        for (x, y) in a.values().iter().zip(b.values()) {
            match (x, y) {
                (Value::Double(x), Value::Double(y)) => assert!(
                    (x - y).abs() <= 1e-6 * y.abs().max(1.0),
                    "{name}: IVM diverged: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "{name}: IVM diverged: {a} vs {b}"),
            }
        }
    }
}

/// Drive one workload through both configurations and report.
#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &'static str,
    mut ivm: Session,
    mut rec: Session,
    table: &str,
    view_name: &str,
    view_query: &str,
    base_rows: usize,
    batches: &[Vec<Tuple>],
) -> WorkloadReport {
    let n_batches = batches.len();
    let batch_rows = batches.first().map(Vec::len).unwrap_or(0);

    // --- IVM: the view is maintained from each batch's deltas. ----------
    ivm.query(&format!("CREATE MATERIALIZED VIEW {view_name} AS {view_query}")).unwrap();
    let serve_sql = format!("SELECT * FROM {view_name}");
    let mut ivm_times = Vec::with_capacity(n_batches);
    let (mut maintain_s, mut serve_s) = (0.0f64, 0.0f64);
    let t_all = Instant::now();
    let mut ivm_rows = Vec::new();
    for b in batches {
        let t = Instant::now();
        ivm.insert(table, b.clone()).unwrap();
        let maintained = t.elapsed().as_secs_f64();
        // Serve the fresh contents too, so reading the view is inside the
        // measured window (parity with the recompute side).
        let t_serve = Instant::now();
        ivm_rows = ivm.query(&serve_sql).unwrap().rows;
        serve_s += t_serve.elapsed().as_secs_f64();
        maintain_s += maintained;
        ivm_times.push(t.elapsed().as_secs_f64());
    }
    let ivm_seconds = t_all.elapsed().as_secs_f64();
    let state_bytes = ivm.views().get(view_name).map(|v| v.state_bytes()).unwrap_or(0);

    // --- Recompute: the defining query re-runs after every batch. -------
    let mut rec_times = Vec::with_capacity(n_batches);
    let t_all = Instant::now();
    let mut rec_rows = Vec::new();
    for b in batches {
        let t = Instant::now();
        rec.insert(table, b.clone()).unwrap();
        rec_rows = rec.query(view_query).unwrap().rows;
        rec_times.push(t.elapsed().as_secs_f64());
    }
    let rec_seconds = t_all.elapsed().as_secs_f64();

    assert_parity(&ivm_rows, &rec_rows, name);

    let speedup = rec_seconds / ivm_seconds.max(1e-12);
    print_table(
        &format!(
            "IVM vs recompute — {name}, {base_rows} base rows, \
                  {n_batches} batches x {batch_rows} rows"
        ),
        "batch",
        &[
            Series::from_values("ivm_ms", &ivm_times.iter().map(|t| t * 1e3).collect::<Vec<_>>()),
            Series::from_values(
                "recompute_ms",
                &rec_times.iter().map(|t| t * 1e3).collect::<Vec<_>>(),
            ),
        ],
    );
    println!(
        "{name}: ivm {ivm_seconds:.4}s (maintain {maintain_s:.4}s, serve {serve_s:.4}s), \
         recompute {rec_seconds:.4}s, speedup {speedup:.1}x, state {state_bytes} bytes"
    );

    WorkloadReport {
        name,
        base_rows,
        n_batches,
        batch_rows,
        view_rows: ivm_rows.len(),
        ivm_seconds,
        ivm_maintain_seconds: maintain_s,
        ivm_serve_seconds: serve_s,
        recompute_seconds: rec_seconds,
        speedup,
        state_bytes,
    }
}

fn lineitem_session(base_rows: usize) -> Session {
    let mut s = Session::local();
    s.create_table("lineitem", schema()).unwrap();
    s.insert("lineitem", lineitem_tuples(&generate_lineitem(base_rows, 42))).unwrap();
    s.create_table(
        "rates",
        Schema::of(&[("linenumber", DataType::Int), ("rate", DataType::Double)]),
    )
    .unwrap();
    let rates: Vec<Tuple> = (1..=7i64)
        .map(|ln| Tuple::new(vec![Value::Int(ln), Value::Double(1.0 + ln as f64 * 0.01)]))
        .collect();
    s.insert("rates", rates).unwrap();
    s
}

fn lineitem_workload(n_batches: usize, batch_rows: usize) -> WorkloadReport {
    let base_rows = (20_000.0 * scale()) as usize;
    // Fresh rows beyond the base, so each batch adds new orders.
    let extra = lineitem_tuples(&generate_lineitem(base_rows + n_batches * batch_rows, 42));
    let batches: Vec<Vec<Tuple>> =
        extra[base_rows..].chunks(batch_rows).map(|c| c.to_vec()).collect();
    run_workload(
        "lineitem join+aggregate view maintenance",
        lineitem_session(base_rows),
        lineitem_session(base_rows),
        "lineitem",
        "revenue",
        LINEITEM_QUERY,
        base_rows,
        &batches,
    )
}

/// `events(g, v)` rows spread over only 8 groups — thousands of rows per
/// group, so PR 2's dirty-group replay did O(group) work per touched
/// group and the whole stream degenerated toward recompute cost.
fn skew_rows(n: usize, rng: &mut StdRng) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(rng.gen_range(0..=7i64)),
                Value::Double(rng.gen_range(0..=999i64) as f64 * 0.01),
            ])
        })
        .collect()
}

fn skew_session(base: Vec<Tuple>) -> Session {
    let mut s = Session::local();
    s.create_table("events", Schema::of(&[("g", DataType::Int), ("v", DataType::Double)])).unwrap();
    s.insert("events", base).unwrap();
    s
}

fn skew_workload(n_batches: usize, batch_rows: usize) -> WorkloadReport {
    let base_rows = (20_000.0 * scale()) as usize;
    let mut rng = StdRng::seed_from_u64(7);
    let base = skew_rows(base_rows, &mut rng);
    let batches: Vec<Vec<Tuple>> =
        (0..n_batches).map(|_| skew_rows(batch_rows, &mut rng)).collect();
    run_workload(
        "skew-heavy few-large-groups aggregate maintenance",
        skew_session(base.clone()),
        skew_session(base),
        "events",
        "by_group",
        SKEW_QUERY,
        base_rows,
        &batches,
    )
}

/// A management forest: everyone in `lo..hi` reports to someone hired
/// earlier (`org(emp, mgr)`), so every employee is reachable from 0.
fn org_rows(lo: i64, hi: i64, rng: &mut StdRng) -> Vec<Tuple> {
    (lo..hi)
        .map(|emp| Tuple::new(vec![Value::Int(emp), Value::Int(rng.gen_range(0..=emp - 1))]))
        .collect()
}

fn forest_session(org: Vec<Tuple>) -> Session {
    let mut s = Session::local();
    s.create_table("org", Schema::of(&[("emp", DataType::Int), ("mgr", DataType::Int)])).unwrap();
    s.create_table("roots", Schema::of(&[("emp", DataType::Int)])).unwrap();
    s.insert("org", org).unwrap();
    s.insert("roots", vec![Tuple::new(vec![Value::Int(0)])]).unwrap();
    s
}

fn recursive_workload(n_batches: usize, batch_rows: usize) -> WorkloadReport {
    let staff = (20_000.0 * scale()) as i64;
    let mut rng = StdRng::seed_from_u64(11);
    let base = org_rows(1, staff, &mut rng);
    let batches: Vec<Vec<Tuple>> = (0..n_batches as i64)
        .map(|b| {
            let lo = staff + b * batch_rows as i64;
            org_rows(lo, lo + batch_rows as i64, &mut rng)
        })
        .collect();
    run_workload(
        "recursive reachability view maintenance",
        forest_session(base.clone()),
        forest_session(base),
        "org",
        "reports",
        FOREST_QUERY,
        staff as usize,
        &batches,
    )
}

fn main() {
    let lineitem = lineitem_workload(32, 16);
    let skew = skew_workload(32, 16);
    let recursive = recursive_workload(32, 4);

    let json = format!(
        "{{\n  {},\n  \"state_bytes_pr2_baseline\": {},\n  \"skew\": {{\n    {}\n  }},\n  \
         \"recursive\": {{\n    {}\n  }}\n}}\n",
        lineitem.json_fields(),
        PR2_STATE_BYTES,
        skew.json_fields().replace("\n  ", "\n    "),
        recursive.json_fields().replace("\n  ", "\n    "),
    );
    std::fs::write("BENCH_ivm.json", json).expect("write BENCH_ivm.json");
    println!("wrote BENCH_ivm.json");

    // The gates, held here so CI only has to run the binary. The state cap
    // keeps hashed maintenance state within 1.5x of the PR 2 baseline.
    let cap = PR2_STATE_BYTES as f64 * 1.5;
    let mut misses = Vec::new();
    if lineitem.speedup < LINEITEM_FLOOR {
        misses.push(format!("lineitem speedup {:.2}x < {LINEITEM_FLOOR}x", lineitem.speedup));
    }
    if skew.speedup < SKEW_FLOOR {
        misses.push(format!("skew speedup {:.2}x < {SKEW_FLOOR}x", skew.speedup));
    }
    if recursive.speedup < RECURSIVE_FLOOR {
        misses.push(format!("recursive speedup {:.2}x < {RECURSIVE_FLOOR}x", recursive.speedup));
    }
    if lineitem.state_bytes as f64 > cap {
        misses.push(format!(
            "lineitem state {} bytes > 1.5 x {PR2_STATE_BYTES}",
            lineitem.state_bytes
        ));
    }
    if !misses.is_empty() {
        eprintln!("ivm_maintenance gates missed: {}", misses.join("; "));
        std::process::exit(1);
    }
    println!(
        "gates held: lineitem >= {LINEITEM_FLOOR}x, skew >= {SKEW_FLOOR}x, \
         recursive >= {RECURSIVE_FLOOR}x, state <= {cap:.0} bytes"
    );
}
