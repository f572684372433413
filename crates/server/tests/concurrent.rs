//! Concurrent-correctness: snapshot isolation under a live write stream.
//!
//! One writer connection streams insert batches while N reader
//! connections hammer queries. The protocol tags every query reply with
//! the snapshot version it executed against, and the write path bumps
//! the version exactly once per ingest op — so version `v0 + k` *is*
//! the database state after the first `k` batches. That gives a strict
//! oracle: every observed result must equal a full recompute over that
//! prefix (no torn reads, no half-applied batches, no stale view rows),
//! and versions must be monotone per connection.

use rex::Session;
use rex_core::tuple;
use rex_core::tuple::Tuple;
use rex_server::{Client, Server, ServerConfig};
use rex_testkit::{canon, XorShift};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const READERS: usize = 8;
const BATCHES: usize = 30; // write ops; each bumps the version once
const ROWS_PER_BATCH: usize = 20;

/// The deterministic write stream: batch `k` inserts rows
/// `(i % 10, k * ROWS_PER_BATCH + i)`.
fn batch(k: usize) -> Vec<Tuple> {
    (0..ROWS_PER_BATCH)
        .map(|i| {
            let dst = (k * ROWS_PER_BATCH + i) as i64;
            tuple![(i % 10) as i64, dst]
        })
        .collect()
}

/// Full recompute of `SELECT * FROM edges` after `k` batches.
fn expected_edges(k: usize) -> Vec<Tuple> {
    canon((0..k).flat_map(batch).collect())
}

/// Full recompute of the `deg` view (count per src) after `k` batches.
fn expected_deg(k: usize) -> Vec<Tuple> {
    let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
    for t in (0..k).flat_map(batch) {
        let src = match t.values()[0] {
            rex_core::value::Value::Int(i) => i,
            ref v => panic!("unexpected src {v:?}"),
        };
        *counts.entry(src).or_insert(0) += 1;
    }
    canon(counts.into_iter().map(|(src, n)| tuple![src, n]).collect())
}

fn run_scenario(session: Session) {
    let server = Server::start(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let v0 = server.published_version();

    // Oracle: the exact expected answer at every publishable version.
    let edges_at: Arc<Vec<Vec<Tuple>>> = Arc::new((0..=BATCHES).map(expected_edges).collect());
    let deg_at: Arc<Vec<Vec<Tuple>>> = Arc::new((0..=BATCHES).map(expected_deg).collect());
    let v_final = v0 + BATCHES as u64;
    // The newest version any reader has observed. The writer pauses
    // halfway until a reader has seen its version, so an intermediate
    // snapshot is observed however fast the writes finish.
    let seen = Arc::new(AtomicU64::new(0));

    let writer_seen = Arc::clone(&seen);
    let writer = std::thread::spawn(move || {
        let (mut c, _) = Client::connect(addr).unwrap();
        for k in 0..BATCHES {
            let ack = c.batch("edges", &batch(k)).unwrap();
            assert_eq!(ack.rows, ROWS_PER_BATCH);
            assert_eq!(ack.version, v0 + k as u64 + 1, "one version bump per ingest op");
            // Read-your-writes: the covering snapshot is already live.
            let reply = c.query("SELECT * FROM deg").unwrap();
            assert!(reply.version >= ack.version, "ack before publish");
            if k == BATCHES / 2 {
                let deadline = Instant::now() + Duration::from_secs(60);
                while writer_seen.load(Ordering::Acquire) < ack.version {
                    assert!(Instant::now() < deadline, "no reader saw version {}", ack.version);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        c.quit().unwrap();
    });

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let edges_at = Arc::clone(&edges_at);
            let deg_at = Arc::clone(&deg_at);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let (mut c, _) = Client::connect(addr).unwrap();
                let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (r as u64 + 1));
                let mut last_version = 0u64;
                let mut distinct = 0usize;
                let mut iters = 0usize;
                // Keep querying until this connection has observed the
                // final version, so readers provably overlap the writes.
                while last_version < v_final {
                    iters += 1;
                    assert!(iters < 50_000, "reader {r} never saw final version {v_final}");
                    let (rql, oracle): (&str, &Vec<Vec<Tuple>>) =
                        if rng.next_u64().is_multiple_of(2) {
                            ("SELECT * FROM deg", &deg_at)
                        } else {
                            ("SELECT * FROM edges", &edges_at)
                        };
                    let reply = c.query(rql).unwrap();
                    assert!(
                        reply.version >= last_version,
                        "reader {r}: version went backwards: {} then {}",
                        last_version,
                        reply.version
                    );
                    if reply.version > last_version {
                        distinct += 1;
                    }
                    let k = (reply.version - v0) as usize;
                    assert!(k <= BATCHES, "reader {r}: impossible version {}", reply.version);
                    assert_eq!(
                        canon(reply.rows),
                        oracle[k],
                        "reader {r}: {rql} at version {} diverged from full recompute",
                        reply.version
                    );
                    seen.fetch_max(reply.version, Ordering::Release);
                    last_version = reply.version;
                }
                c.quit().unwrap();
                distinct
            })
        })
        .collect();

    writer.join().unwrap();
    let mut total_distinct = 0usize;
    for h in readers {
        total_distinct += h.join().unwrap();
    }
    // Every reader saw at least the initial and the final snapshot;
    // collectively they observed genuinely intermediate versions too.
    assert!(total_distinct > READERS, "readers saw too few versions: {total_distinct}");

    let stats = server.stats();
    assert_eq!(
        stats.rows_inserted.load(std::sync::atomic::Ordering::Relaxed),
        (BATCHES * ROWS_PER_BATCH) as u64
    );
    server.shutdown().unwrap();
}

fn seeded_session(mut s: Session) -> Session {
    s.query("CREATE TABLE edges (src INT, dst INT)").unwrap();
    s.query("CREATE MATERIALIZED VIEW deg AS SELECT src, count(*) FROM edges GROUP BY src")
        .unwrap();
    s
}

#[test]
fn readers_always_see_a_published_prefix_local_engine() {
    run_scenario(seeded_session(Session::local()));
}

#[test]
fn readers_always_see_a_published_prefix_cluster_engine() {
    run_scenario(seeded_session(Session::cluster(2)));
}
