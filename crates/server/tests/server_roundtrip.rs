//! End-to-end protocol round-trips over real TCP.

use rex::Session;
use rex_core::tuple;
use rex_core::value::Value;
use rex_server::protocol::MAX_LINE_BYTES;
use rex_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn server_with_edges() -> Server {
    let mut s = Session::local();
    s.query("CREATE TABLE edges (src INT, dst INT)").unwrap();
    s.query("CREATE MATERIALIZED VIEW deg AS SELECT src, count(*) FROM edges GROUP BY src")
        .unwrap();
    Server::start(s, "127.0.0.1:0", ServerConfig::default()).unwrap()
}

#[test]
fn hello_insert_query_quit() {
    let server = server_with_edges();
    let (mut c, hello) = Client::connect(server.local_addr()).unwrap();
    assert!(hello.starts_with("rex-server"), "{hello}");
    assert!(hello.contains("engine=local"), "{hello}");

    let ack = c.insert("edges", &[tuple![1i64, 2i64], tuple![1i64, 3i64]]).unwrap();
    assert_eq!(ack.rows, 2);

    // Read-your-writes: the very next query sees the covering snapshot.
    let reply = c.query("SELECT * FROM deg").unwrap();
    assert!(reply.version >= ack.version);
    assert_eq!(reply.rows, vec![tuple![1i64, 2i64]]); // src 1, count 2
                                                      // A bare view scan is served from the view's stored rows.
    assert_eq!(reply.engine, "view-state");

    let ordered = c.query("SELECT dst FROM edges ORDER BY dst DESC").unwrap();
    assert_eq!(ordered.rows, vec![tuple![3i64], tuple![2i64]]);
    assert_eq!(ordered.engine, "local");
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn batch_streams_values_of_every_type() {
    let mut s = Session::local();
    s.query("CREATE TABLE things (id INT, label STRING, score DOUBLE)").unwrap();
    let server = Server::start(s, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();

    let rows = vec![
        tuple![1i64, "tabs\tand;semis", 0.5f64],
        tuple![2i64, "plain", -1.25f64],
        Tuple::new(vec![Value::Int(3), Value::Null, Value::Double(f64::INFINITY)]),
    ];
    let ack = c.batch("things", &rows).unwrap();
    assert_eq!(ack.rows, 3);
    let reply = c.query("SELECT * FROM things ORDER BY id").unwrap();
    assert_eq!(reply.rows, rows);
    c.quit().unwrap();
    server.shutdown().unwrap();
}
use rex_core::tuple::Tuple;

#[test]
fn insert_and_batch_keep_trailing_whitespace_alike() {
    let mut s = Session::local();
    s.query("CREATE TABLE via_insert (id INT, label STRING)").unwrap();
    s.query("CREATE TABLE via_batch (id INT, label STRING)").unwrap();
    let server = Server::start(s, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();

    let rows = vec![
        tuple![1i64, "abc  "],
        tuple![2i64, "ideographic\u{3000}"],
        tuple![3i64, " \u{3000} "],
    ];
    // One row per INSERT puts each string last on its line.
    for row in &rows {
        c.insert("via_insert", std::slice::from_ref(row)).unwrap();
    }
    c.batch("via_batch", &rows).unwrap();
    let inserted = c.query("SELECT * FROM via_insert ORDER BY id").unwrap();
    let batched = c.query("SELECT * FROM via_batch ORDER BY id").unwrap();
    assert_eq!(inserted.rows, batched.rows);
    assert_eq!(inserted.rows, rows);
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn script_runs_ddl_and_reports_per_statement_errors() {
    let server = Server::start(Session::local(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();

    // RQL has no INSERT statement — rows travel over the protocol's
    // INSERT/BATCH commands — so SCRIPT is the DDL + query channel.
    let (results, _) = c
        .script(&[
            "CREATE TABLE t (x INT)",
            "CREATE MATERIALIZED VIEW total AS SELECT sum(x) FROM t",
            "SELECT * FROM nope",
            "SELECT count(*) FROM t",
        ])
        .unwrap();
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    assert!(results[2].as_ref().unwrap_err().contains("nope"), "{results:?}");
    assert!(results[3].is_ok(), "script keeps going after a failed statement");

    c.insert("t", &[tuple![1i64], tuple![2i64], tuple![3i64], tuple![4i64]]).unwrap();
    let reply = c.query("SELECT * FROM total").unwrap();
    assert_eq!(reply.rows, vec![tuple![10i64]], "script-created view maintained by inserts");
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn query_errors_are_lines_not_disconnects() {
    let server = server_with_edges();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();
    let err = c.query("SELECT * FROM missing").unwrap_err().to_string();
    assert!(err.contains("missing"), "{err}");
    // DDL through QUERY is refused — snapshots are read-only.
    let err = c.query("CREATE TABLE sneaky (x INT)").unwrap_err().to_string();
    assert!(err.contains("read-only"), "{err}");
    // The connection survives both errors.
    c.insert("edges", &[tuple![5i64, 6i64]]).unwrap();
    assert_eq!(c.query("SELECT * FROM edges").unwrap().rows, vec![tuple![5i64, 6i64]]);
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn malformed_commands_get_err_lines_on_the_raw_socket() {
    let server = server_with_edges();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let mut line = String::new();
    // One edge, so the diverging recursion below has a counter to run.
    w.write_all(b"INSERT edges i:1\ti:1\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK 1 "), "{line:?}");

    for (bad, expect) in [
        ("NOPE 1\n", "unknown command"),
        ("QUERY\n", "QUERY needs"),
        ("BATCH edges many\n", "row count"),
        ("INSERT edges q:wat\n", "unknown value tag"),
        (
            "QUERY WITH R (k, v) AS (SELECT src AS k, 0 AS v FROM edges) \
             UNION UNTIL FIXPOINT BY k \
             (SELECT R.k, R.v + 1 FROM R, edges WHERE R.k = edges.src)\n",
            "10000 strata without converging",
        ),
    ] {
        w.write_all(bad.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR "), "{bad:?} -> {line:?}");
        assert!(line.contains(expect), "{bad:?} -> {line:?}");
    }
    // Still healthy afterwards.
    w.write_all(b"HELLO raw\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK rex-server"), "{line:?}");
    server.shutdown().unwrap();
}

#[test]
fn oversize_lines_are_refused_without_desynchronizing_the_connection() {
    let server = server_with_edges();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    let mut reply = |w: &mut TcpStream, send: &[u8]| {
        w.write_all(send).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let huge = "x".repeat(2 * MAX_LINE_BYTES);
    let refused = format!("ERR line exceeds {MAX_LINE_BYTES} bytes\n");
    assert_eq!(reply(&mut w, format!("QUERY {huge}\n").as_bytes()), refused);
    // Inside BATCH and SCRIPT the oversize line is that line's error: the
    // rest of the announced lines are still consumed, nothing is applied.
    let batch = format!("BATCH edges 3\ni:1\ti:2\n{huge}\ni:1\ti:3\n");
    assert_eq!(reply(&mut w, batch.as_bytes()), refused);
    let script = format!("SCRIPT 2\nCREATE TABLE t (x INT)\nSELECT {huge}\n");
    assert_eq!(reply(&mut w, script.as_bytes()), refused);
    assert!(reply(&mut w, b"INSERT edges i:1\ti:2\n").starts_with("OK 1 "));
    // The next command on the same connection gets its right answer.
    assert!(reply(&mut w, b"QUERY SELECT * FROM deg\n").starts_with("OK 1 "));
    assert_eq!(reply(&mut w, b""), "i:1\ti:1\n");
    assert_eq!(reply(&mut w, b""), ".\n");
    assert!(reply(&mut w, b"QUERY SELECT * FROM t\n").starts_with("ERR "), "script never ran");
    server.shutdown().unwrap();
}

#[test]
fn stats_report_traffic_and_snapshot_state() {
    let server = server_with_edges();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();
    c.insert("edges", &[tuple![1i64, 2i64]]).unwrap();
    let q = "SELECT * FROM deg";
    c.query(q).unwrap();
    c.query(q).unwrap(); // second hit comes from the snapshot cache

    let stats = c.stats().unwrap();
    let get = |key: &str| -> f64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(key).map(|v| v.trim().parse().unwrap()))
            .unwrap_or_else(|| panic!("missing {key} in:\n{stats}"))
    };
    assert!(get("server.queries ") >= 2.0);
    assert!(get("server.cache_hits ") >= 1.0);
    assert_eq!(get("server.rows_inserted "), 1.0);
    assert!(get("server.publishes ") >= 1.0);
    assert_eq!(get("table.edges.rows "), 1.0);
    assert_eq!(get("view.deg.rows "), 1.0);
    assert!(get("snapshot.version ") >= 1.0);
    assert!(stats.contains("view.deg.strategy "), "{stats}");
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn metrics_serve_prometheus_exposition() {
    let server = server_with_edges();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();
    c.insert("edges", &[tuple![1i64, 2i64]]).unwrap();
    let q = "SELECT * FROM deg";
    c.query(q).unwrap(); // miss
    c.query(q).unwrap(); // hit

    let metrics = c.metrics().unwrap();
    let get = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")).map(|v| v.parse().unwrap()))
            .unwrap_or_else(|| panic!("missing {name} in:\n{metrics}"))
    };
    assert!(get("rex_queries_total") >= 2);
    assert!(get("rex_cache_hits_total") >= 1);
    assert!(get("rex_cache_misses_total") >= 1);
    assert_eq!(get("rex_cache_evictions_total"), 0);
    assert_eq!(get("rex_rows_inserted_total"), 1);
    assert!(get("rex_snapshot_version") >= 1);
    assert!(get("rex_open_connections") >= 1);
    // The publish histogram is well-formed: every publish lands in +Inf's
    // cumulative count and the count line agrees with the counter.
    assert!(metrics.contains("# TYPE rex_publish_latency_us histogram"), "{metrics}");
    assert_eq!(
        get("rex_publish_latency_us_bucket{le=\"+Inf\"}"),
        get("rex_publishes_total"),
        "{metrics}"
    );
    assert_eq!(get("rex_publish_latency_us_count"), get("rex_publishes_total"));
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn result_cache_evicts_fifo_under_capacity_cap() {
    let mut s = Session::local();
    s.query("CREATE TABLE edges (src INT, dst INT)").unwrap();
    let cfg = ServerConfig { cache_entries: 4, ..ServerConfig::default() };
    let server = Server::start(s, "127.0.0.1:0", cfg).unwrap();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();
    c.insert("edges", &[tuple![1i64, 2i64]]).unwrap();
    // 8 distinct queries through a 4-entry cache force 4 evictions…
    for i in 0..8 {
        c.query(&format!("SELECT src FROM edges WHERE dst > {i}")).unwrap();
    }
    // …and the newest entry survives while the oldest was dropped.
    c.query("SELECT src FROM edges WHERE dst > 7").unwrap(); // hit
    c.query("SELECT src FROM edges WHERE dst > 0").unwrap(); // re-miss
    let metrics = c.metrics().unwrap();
    let get = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")).map(|v| v.parse().unwrap()))
            .unwrap_or_else(|| panic!("missing {name} in:\n{metrics}"))
    };
    assert!(get("rex_cache_evictions_total") >= 5, "{metrics}");
    assert!(get("rex_cache_hits_total") >= 1, "{metrics}");
    assert_eq!(
        get("rex_cache_misses_total") + get("rex_cache_hits_total"),
        get("rex_queries_total")
    );
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn pipelined_queries_return_in_order() {
    let server = server_with_edges();
    let (mut c, _) = Client::connect(server.local_addr()).unwrap();
    c.insert("edges", &[tuple![1i64, 2i64], tuple![2i64, 3i64]]).unwrap();
    let queries: Vec<String> =
        (0..40).map(|i| format!("SELECT src FROM edges WHERE dst > {}", i % 3)).collect();
    let replies = c.query_pipelined(&queries, 16).unwrap();
    assert_eq!(replies.len(), 40);
    for (i, r) in replies.iter().enumerate() {
        let cutoff = (i % 3) as i64;
        let expect: Vec<Tuple> = [(1i64, 2i64), (2, 3)]
            .iter()
            .filter(|(_, d)| *d > cutoff)
            .map(|(s, _)| tuple![*s])
            .collect();
        let mut got = r.rows.clone();
        got.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(got, expect, "pipelined reply {i}");
    }
    c.quit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn shutdown_command_unwinds_other_connections() {
    let server = server_with_edges();
    let (mut other, _) = Client::connect(server.local_addr()).unwrap();
    other.query("SELECT * FROM edges").unwrap();

    let (admin, _) = Client::connect(server.local_addr()).unwrap();
    admin.shutdown_server().unwrap();
    assert!(!server.running());
    server.shutdown().unwrap(); // joins every thread, including `other`'s
}

/// The real daemon, started with telemetry and two threads, serves
/// well-formed Prometheus exposition carrying every metric name
/// docs/OBSERVABILITY.md promises.
#[test]
fn daemon_metrics_expose_every_documented_name() {
    use std::process::{Child, Command, Stdio};
    /// Reaps the daemon even when an assertion fails first.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_rex-serverd"))
            .args(["--addr", "127.0.0.1:0", "--telemetry", "--threads", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut out = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(out.read_line(&mut line).unwrap() > 0, "daemon exited before LISTENING");
        if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    let (mut c, _) = Client::connect(addr.as_str()).unwrap();
    let metrics = c.metrics().unwrap();
    for name in [
        "rex_connections_total",
        "rex_queries_total",
        "rex_cache_hits_total",
        "rex_cache_misses_total",
        "rex_cache_evictions_total",
        "rex_rows_inserted_total",
        "rex_write_ops_total",
        "rex_publishes_total",
        "rex_open_connections",
        "rex_snapshot_version",
        "rex_thread_budget_available",
        "# TYPE rex_publish_latency_us histogram",
        "rex_publish_latency_us_bucket{le=\"+Inf\"}",
        "rex_publish_latency_us_sum",
        "rex_publish_latency_us_count",
    ] {
        assert!(metrics.contains(name), "missing {name:?} in METRICS:\n{metrics}");
    }
    c.shutdown_server().unwrap();
    assert!(daemon.0.wait().unwrap().success(), "daemon must exit cleanly after SHUTDOWN");
}
