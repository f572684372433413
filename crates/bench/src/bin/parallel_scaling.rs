//! Morsel-parallel scan throughput: 1 thread vs N threads, same query.
//!
//! The workload is the headline scan→filter→project pipeline
//! (`SELECT k, a + 1, b * 2.0 FROM t WHERE a < 50`, ~50% selective) over
//! a base table large enough that the morsel cursor hands every worker
//! many 4096-row slices. Each thread count is timed as the best of
//! [`ROUNDS`] full `Session::query` passes, interleaved 1-thread /
//! N-thread inside every round so machine noise (thermal drift, noisy
//! neighbors on CI runners) hits both sides equally.
//!
//! Two things are checked here, not just measured:
//!
//! * **Determinism** — the parallel result must be bit-identical to the
//!   single-thread result on every pass (the engine sink contract:
//!   sorted rows, same order, same values).
//! * **Scaling** — on a machine with at least [`THREADS`] cores, the
//!   N-thread run must clear `floor`× the 1-thread throughput, or the run
//!   exits non-zero. On a host with fewer cores the gate is skipped (a
//!   1-core container cannot speed anything up) and `BENCH_parallel.json`
//!   records `gate_active: false`, so local runs stay honest instead of
//!   silently green.

use rex::core::tuple::{Schema, Tuple};
use rex::core::value::{DataType, Value};
use rex::Session;
use rex_data::rng::StdRng;
use std::time::Instant;

/// Base-table rows: 512 morsels' worth, enough for every worker to see
/// many slices and for the ~1 ms runtime floor to not dominate.
const ROWS: usize = 2_097_152;
/// Parallel thread count under test.
const THREADS: usize = 4;
/// Interleaved timed rounds per thread count (best round reported).
const ROUNDS: usize = 3;
/// Required N-thread speedup over 1 thread when the gate is active.
const FLOOR: f64 = 2.5;

const QUERY: &str = "SELECT k, a + 1, b * 2.0 FROM t WHERE a < 50";

fn session() -> Session {
    let mut s = Session::local();
    s.create_table(
        "t",
        Schema::of(&[("k", DataType::Int), ("a", DataType::Int), ("b", DataType::Double)]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..=99i64)),
                Value::Double(rng.gen_range(0..=999i64) as f64 * 0.25),
            ])
        })
        .collect();
    s.insert("t", rows).unwrap();
    s
}

/// One timed pass at `threads`; returns (seconds, result rows).
fn pass(s: &mut Session, threads: usize) -> (f64, Vec<Tuple>) {
    s.set_threads(threads);
    let t = Instant::now();
    let r = s.query(QUERY).unwrap();
    (t.elapsed().as_secs_f64(), r.rows)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gate_active = cores >= THREADS;
    println!(
        "parallel scaling, {ROWS} rows, 1 vs {THREADS} threads on {cores} cores \
         (gate {})",
        if gate_active { "active" } else { "SKIPPED: too few cores" }
    );

    let mut s = session();
    // Warm both paths (snapshot caches, allocator) before timing.
    let (_, reference) = pass(&mut s, 1);
    let (_, warm_par) = pass(&mut s, THREADS);
    assert_eq!(warm_par, reference, "parallel result diverges from single-thread");

    let (mut best1, mut bestn) = (f64::INFINITY, f64::INFINITY);
    for round in 0..ROUNDS {
        let (t1, r1) = pass(&mut s, 1);
        let (tn, rn) = pass(&mut s, THREADS);
        assert_eq!(r1, reference, "single-thread result drifted (round {round})");
        assert_eq!(rn, reference, "parallel result diverges (round {round})");
        best1 = best1.min(t1);
        bestn = bestn.min(tn);
    }

    let speedup = best1 / bestn;
    let ns1 = best1 * 1e9 / ROWS as f64;
    let nsn = bestn * 1e9 / ROWS as f64;
    println!("  1 thread : {ns1:>7.1} ns/row  ({:.0} rows/s)", ROWS as f64 / best1);
    println!("  {THREADS} threads: {nsn:>7.1} ns/row  ({:.0} rows/s)", ROWS as f64 / bestn);
    println!("  speedup  : {speedup:.2}x (floor {FLOOR}x, gate_active={gate_active})");

    let json = format!(
        "{{\n  \"rows\": {ROWS},\n  \"cores\": {cores},\n  \"threads\": {THREADS},\n  \
         \"ns_per_row_1t\": {ns1:.1},\n  \"ns_per_row_{THREADS}t\": {nsn:.1},\n  \
         \"result_rows\": {},\n  \"speedup\": {speedup:.2},\n  \"floor\": {FLOOR},\n  \
         \"gate_active\": {gate_active}\n}}\n",
        reference.len(),
    );
    std::fs::write("BENCH_parallel.json", json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");

    if gate_active {
        assert!(
            speedup >= FLOOR,
            "{THREADS}-thread scan_filter_project speedup {speedup:.2}x < {FLOOR}x \
             on a {cores}-core host"
        );
    }
}
