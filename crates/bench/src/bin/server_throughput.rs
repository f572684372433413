//! rex-server serving throughput: does snapshot serving actually scale
//! reads?
//!
//! Three phases against one server seeded with an edges table and a
//! grouped-count view:
//!
//! * **sequential** — one connection, strict request/response: send a
//!   `QUERY`, wait for the reply, repeat. This is the floor any
//!   single-threaded front-end achieves; every query pays a full
//!   round-trip of syscalls.
//! * **concurrent** — [`READERS`] connections, each pipelining the same
//!   query mix with [`WINDOW`] requests in flight. This is what the
//!   architecture is *for*: readers share immutable snapshots (no
//!   locks), the per-snapshot result cache answers repeats with a
//!   buffer write, and batch-flush amortizes syscalls across the
//!   pipeline window. The headline number is
//!   `concurrent_qps / sequential_qps`; the run asserts `floor` on it.
//! * **mixed** — the same reader fleet while a writer streams `BATCH`
//!   ingests. Reports read throughput under writes plus the writer's
//!   snapshot publish latency (mean/max) and versions published — the
//!   cost of MVCC-lite is the publish, so it gets measured.
//!
//! Results land in `BENCH_server.json`. The run exits non-zero when the
//! speedup misses its floor or the mixed phase published no snapshots.
//! The floor is deliberately conservative (4x with 8 readers): pipelining
//! alone clears it on one core, and real multi-core parallelism only adds
//! margin.

use rex::core::tuple::Tuple;
use rex::core::value::Value;
use rex::Session;
use rex_server::{Client, Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Seed rows in `edges` (distinct dst per row, src in 0..SRCS).
const SEED_ROWS: usize = 20_000;
const SRCS: i64 = 200;
/// Concurrent reader connections (the acceptance criterion's 8).
const READERS: usize = 8;
/// Pipeline window per reader connection.
const WINDOW: usize = 64;
/// Queries per connection in the sequential phase.
const SEQ_QUERIES: usize = 4_000;
/// Queries per reader connection in the concurrent phases.
const CONC_QUERIES: usize = 4_000;
/// Timed passes per phase; the best pass is reported (same idiom as the
/// exec/IVM benches — filters scheduler noise on busy machines).
const PASSES: usize = 3;
/// Writer stream in the mixed phase: batches × rows.
const MIX_BATCHES: usize = 50;
const MIX_ROWS_PER_BATCH: usize = 200;
/// Floor on concurrent_qps / sequential_qps.
const SPEEDUP_FLOOR: f64 = 4.0;

fn seeded_server() -> Server {
    let mut s = Session::local();
    s.query("CREATE TABLE edges (src INT, dst INT)").unwrap();
    s.query("CREATE MATERIALIZED VIEW deg AS SELECT src, count(*) FROM edges GROUP BY src")
        .unwrap();
    let rows: Vec<Tuple> = (0..SEED_ROWS)
        .map(|i| Tuple::new(vec![Value::Int(i as i64 % SRCS), Value::Int(i as i64)]))
        .collect();
    s.insert("edges", rows).unwrap();
    Server::start(s, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

/// The query mix: point lookups on the view plus selective counts on the
/// base table — small results, so the bench measures serving, not row
/// encoding volume.
fn query_mix() -> Vec<String> {
    (0..32)
        .map(|i| {
            if i % 4 == 3 {
                format!("SELECT count(*) FROM edges WHERE src = {}", (i * 7) % SRCS)
            } else {
                format!("SELECT * FROM deg WHERE src = {}", (i * 13) % SRCS)
            }
        })
        .collect()
}

/// One reader connection running `n` queries from the mix with `window`
/// requests in flight (1 = strict request/response). Uses the skim
/// reply path in every phase so the comparison isolates the serving
/// architecture, not client-side row decoding.
fn run_reader(addr: std::net::SocketAddr, n: usize, offset: usize, window: usize) -> usize {
    let (mut c, _) = Client::connect(addr).unwrap();
    let mix = query_mix();
    let queries: Vec<String> = (0..n).map(|i| mix[(i + offset) % mix.len()].clone()).collect();
    let (rows, _version) = c.query_pipelined_skim(&queries, window).unwrap();
    c.quit().unwrap();
    rows
}

fn phase_sequential(addr: std::net::SocketAddr) -> f64 {
    let (mut c, _) = Client::connect(addr).unwrap();
    let mix = query_mix();
    // Warm the snapshot cache so both phases serve from the same state.
    for q in &mix {
        c.query(q).unwrap();
    }
    c.quit().unwrap();
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let t = Instant::now();
        run_reader(addr, SEQ_QUERIES, 0, 1);
        let secs = t.elapsed().as_secs_f64();
        best = best.max(SEQ_QUERIES as f64 / secs);
    }
    best
}

fn phase_concurrent(addr: std::net::SocketAddr) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let barrier = Arc::new(Barrier::new(READERS + 1));
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    run_reader(addr, CONC_QUERIES, r * 5, WINDOW)
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        let secs = t.elapsed().as_secs_f64();
        best = best.max((READERS * CONC_QUERIES) as f64 / secs);
    }
    best
}

struct Mixed {
    read_qps: f64,
    publish_mean_us: f64,
    publish_max_us: f64,
    publishes: u64,
    final_version: u64,
}

fn phase_mixed(server: &Server) -> Mixed {
    let addr = server.local_addr();
    let publishes_before = server.stats().publishes.load(Ordering::Relaxed);
    let barrier = Arc::new(Barrier::new(READERS + 2));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run_reader(addr, CONC_QUERIES, r * 3, WINDOW)
            })
        })
        .collect();
    let writer = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let (mut c, _) = Client::connect(addr).unwrap();
            barrier.wait();
            for k in 0..MIX_BATCHES {
                let rows: Vec<Tuple> = (0..MIX_ROWS_PER_BATCH)
                    .map(|i| {
                        let dst = (SEED_ROWS + k * MIX_ROWS_PER_BATCH + i) as i64;
                        Tuple::new(vec![Value::Int(dst % SRCS), Value::Int(dst)])
                    })
                    .collect();
                c.batch("edges", &rows).unwrap();
            }
            c.quit().unwrap();
        })
    };
    barrier.wait();
    let t = Instant::now();
    for h in readers {
        h.join().unwrap();
    }
    let read_secs = t.elapsed().as_secs_f64();
    writer.join().unwrap();

    let stats = server.stats();
    Mixed {
        read_qps: (READERS * CONC_QUERIES) as f64 / read_secs,
        publish_mean_us: stats.publish_mean_us(),
        publish_max_us: stats.publish_max_ns.load(Ordering::Relaxed) as f64 / 1_000.0,
        publishes: stats.publishes.load(Ordering::Relaxed) - publishes_before,
        final_version: server.published_version(),
    }
}

fn main() {
    let server = seeded_server();
    let addr = server.local_addr();
    println!(
        "server throughput, {SEED_ROWS} seed rows, {READERS} readers, window {WINDOW}, at {addr}\n"
    );

    let sequential_qps = phase_sequential(addr);
    println!(
        "{:>12}: {sequential_qps:>10.0} q/s  (1 connection, strict request/response)",
        "sequential"
    );

    let concurrent_qps = phase_concurrent(addr);
    let speedup = concurrent_qps / sequential_qps;
    println!(
        "{:>12}: {concurrent_qps:>10.0} q/s  ({READERS} connections, pipelined) — {speedup:.2}x",
        "concurrent"
    );

    let mixed = phase_mixed(&server);
    println!(
        "{:>12}: {:>10.0} q/s under a write stream; {} publishes, mean {:.1} us, max {:.1} us, final version {}",
        "mixed",
        mixed.read_qps,
        mixed.publishes,
        mixed.publish_mean_us,
        mixed.publish_max_us,
        mixed.final_version,
    );

    let cache_hits = server.stats().cache_hits.load(Ordering::Relaxed);
    let queries = server.stats().queries.load(Ordering::Relaxed);
    server.shutdown().unwrap();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"seed_rows\": {SEED_ROWS},\n"));
    json.push_str(&format!("  \"readers\": {READERS},\n"));
    json.push_str(&format!("  \"window\": {WINDOW},\n"));
    json.push_str(&format!(
        "  \"sequential\": {{ \"queries\": {SEQ_QUERIES}, \"qps\": {sequential_qps:.0} }},\n"
    ));
    json.push_str(&format!(
        "  \"concurrent\": {{ \"queries\": {}, \"qps\": {concurrent_qps:.0}, \
         \"speedup_vs_sequential\": {speedup:.2}, \"floor\": {SPEEDUP_FLOOR:.2} }},\n",
        READERS * CONC_QUERIES,
    ));
    json.push_str(&format!(
        "  \"mixed\": {{ \"read_qps\": {:.0}, \"batches\": {MIX_BATCHES}, \
         \"rows_per_batch\": {MIX_ROWS_PER_BATCH}, \"publishes\": {}, \
         \"publish_mean_us\": {:.1}, \"publish_max_us\": {:.1}, \"final_version\": {} }},\n",
        mixed.read_qps,
        mixed.publishes,
        mixed.publish_mean_us,
        mixed.publish_max_us,
        mixed.final_version,
    ));
    json.push_str(&format!(
        "  \"cache_hit_rate\": {:.3}\n}}\n",
        cache_hits as f64 / queries.max(1) as f64
    ));
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("\nwrote BENCH_server.json");

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "concurrent serving speedup {speedup:.2}x is below the {SPEEDUP_FLOOR:.1}x floor"
    );
    assert!(mixed.publishes > 0, "mixed phase published no snapshots");
}
