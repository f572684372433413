//! The server: one listener, one thread per connection, one writer.
//!
//! ```text
//!                    ┌────────────── reader threads ──────────────┐
//!  TCP conn ──► thread: QUERY ──► clone Arc<SnapshotView> ──► execute (lock-free)
//!  TCP conn ──► thread: QUERY ──► clone Arc<SnapshotView> ──► execute
//!                    └────────────────────────────────────────────┘
//!  TCP conn ──► thread: INSERT/BATCH/SCRIPT ─► bounded channel ─► writer thread
//!                                                                   │ owns Session
//!                                                                   │ apply + IVM
//!                                                                   ▼
//!                                               publish new Arc<SnapshotView> (version++)
//! ```
//!
//! Reads never block writes and writes never block reads: readers grab
//! the current snapshot `Arc` (a briefly-held `RwLock` read of one
//! pointer) and execute against that immutable version; the writer
//! applies mutations to its own copy-on-write catalog, runs incremental
//! view maintenance, and swaps in the next version. Backpressure is the
//! bounded write channel: when the writer falls behind, connection
//! threads block in `send`, which stops them draining their sockets,
//! which fills the kernel TCP window back to the client.
//!
//! Because a published snapshot is immutable, query results are cached
//! per snapshot keyed by query text — a hit costs a hash lookup and a
//! buffer write. The cache dies with its snapshot on the next publish,
//! so it can never serve stale rows.

use crate::protocol::{self, Command};
use crate::stats::ServerStats;
use rex::snapshot::SnapshotView;
use rex::Session;
use rex_core::error::{Result, RexError};
use rex_core::tuple::Tuple;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic fault injection for chaos tests: once the writer has
/// applied `after_writes` write ops, it kills `worker`'s view-maintenance
/// shards on its session and recovers them under `strategy` (see
/// `docs/FAULT.md`). Readers never notice — published snapshots are
/// immutable — and the next write maintains against the recovered shards.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjection {
    /// Fire after this many write ops have been applied.
    pub after_writes: u64,
    /// The worker whose shards die.
    pub worker: usize,
    /// How the surviving workers recover the lost shards.
    pub strategy: rex::cluster::RecoveryStrategy,
}

/// Tunables for [`Server::start`]. The defaults serve tests, the bench,
/// and the daemon; `rex-serverd` exposes the interesting ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Depth of the bounded write channel — the backpressure knob: how
    /// many write ops may queue before writers block at the socket.
    pub write_queue: usize,
    /// How many queued write ops the writer may coalesce under one
    /// snapshot publish (1 = publish after every op).
    pub coalesce: usize,
    /// Poll interval for shutdown checks on blocking reads/accepts.
    pub poll: Duration,
    /// Per-snapshot result-cache capacity (entries); 0 disables caching.
    pub cache_entries: usize,
    /// Largest encoded response the cache will hold, in bytes.
    pub cache_max_bytes: usize,
    /// Worker-thread ceiling for query execution:
    /// sets the session's per-query thread count AND caps the
    /// process-wide [`thread_budget`](rex::core::thread_budget) so
    /// concurrent reader connections share one pool instead of each
    /// bringing their own. 0 (the default) inherits the session's
    /// configuration (`REX_THREADS` or all cores, unlimited budget).
    pub threads: usize,
    /// Optional one-shot fault injected by the writer thread (chaos
    /// tests); `None` in production.
    pub fault: Option<FaultInjection>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            write_queue: 64,
            coalesce: 16,
            poll: Duration::from_millis(25),
            cache_entries: 128,
            cache_max_bytes: 256 * 1024,
            threads: 0,
            fault: None,
        }
    }
}

/// One published version: the immutable snapshot plus its result cache.
struct Published {
    view: Arc<SnapshotView>,
    /// Query text → full encoded response. Valid exactly as long as this
    /// snapshot is current; dropped wholesale on the next publish.
    cache: Mutex<ResultCache>,
}

impl Published {
    fn new(view: Arc<SnapshotView>) -> Published {
        Published { view, cache: Mutex::new(ResultCache::default()) }
    }
}

/// A capacity-capped per-snapshot result cache: FIFO eviction, so a
/// snapshot that lives through more distinct queries than `cache_entries`
/// keeps serving the *newest* ones instead of freezing on whatever
/// arrived first and refusing the rest.
#[derive(Default)]
struct ResultCache {
    map: HashMap<String, Arc<str>>,
    /// Insertion order — the eviction queue.
    order: VecDeque<String>,
}

impl ResultCache {
    fn get(&self, rql: &str) -> Option<Arc<str>> {
        self.map.get(rql).cloned()
    }

    /// Insert under the capacity cap, evicting oldest-first. Returns how
    /// many entries were evicted.
    fn insert(&mut self, rql: &str, response: Arc<str>, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() >= capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                    evicted += 1;
                }
                None => break,
            }
        }
        // Two threads can race the same miss; only the first insert may
        // enqueue the key, or eviction would pop it twice.
        if self.map.insert(rql.to_string(), response).is_none() {
            self.order.push_back(rql.to_string());
        }
        evicted
    }
}

/// State shared by the listener, every connection thread, and the writer.
struct Shared {
    published: RwLock<Arc<Published>>,
    stats: ServerStats,
    shutdown: AtomicBool,
    cfg: ServerConfig,
}

impl Shared {
    fn current(&self) -> Arc<Published> {
        self.published.read().unwrap().clone()
    }
}

/// A write operation travelling from a connection thread to the writer.
enum WriteOp {
    /// INSERT/BATCH: a stream of row batches into one table.
    Ingest { table: String, batches: Vec<Vec<Tuple>> },
    /// SCRIPT: statements (queries *or* DDL) run serialized on the
    /// writer's session.
    Script { stmts: Vec<String> },
}

struct WriteReq {
    op: WriteOp,
    reply: SyncSender<WriteReply>,
}

enum WriteReply {
    Ingest { rows: usize, version: u64 },
    Script { results: Vec<std::result::Result<usize, String>>, version: u64 },
    Failed(String),
}

/// A handle that can trigger graceful shutdown from outside the server
/// (signal handlers, admin tooling).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Begin graceful shutdown: stop accepting, let in-flight commands
    /// finish, then unwind all threads.
    pub fn trigger(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.shutdown.load(Ordering::SeqCst)
    }
}

/// A running rex server. Dropping it shuts it down gracefully (prefer
/// calling [`shutdown`](Server::shutdown) to observe errors).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Move `session` behind a TCP front-end bound to `addr` (use port 0
    /// for an ephemeral port; [`local_addr`](Server::local_addr) reports
    /// the bound address). The session becomes the single writer; its
    /// current state is published as snapshot version
    /// [`Session::version`] immediately, so readers can connect before
    /// the first write.
    pub fn start(mut session: Session, addr: &str, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| RexError::Exec(format!("server: cannot bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RexError::Exec(format!("server: no local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RexError::Exec(format!("server: nonblocking accept: {e}")))?;
        if cfg.threads > 0 {
            // Every query already runs on its connection's own thread, so
            // the process-wide budget counts *extra* workers: a --threads N
            // server lends out at most N-1 on top of the calling threads.
            session.set_threads(cfg.threads);
            rex::core::thread_budget::set_budget(cfg.threads.saturating_sub(1));
        }
        let initial = session.snapshot()?;
        let shared = Arc::new(Shared {
            published: RwLock::new(Arc::new(Published::new(initial))),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
        });
        let (write_tx, write_rx) = mpsc::sync_channel::<WriteReq>(cfg.write_queue.max(1));
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("rex-writer".into())
                .spawn(move || writer_loop(session, write_rx, shared))
                .map_err(|e| RexError::Exec(format!("server: spawn writer: {e}")))?
        };
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rex-accept".into())
                .spawn(move || accept_loop(listener, shared, conns, write_tx))
                .map_err(|e| RexError::Exec(format!("server: spawn accept loop: {e}")))?
        };
        Ok(Server { addr, shared, accept: Some(accept), writer: Some(writer), conns })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Traffic counters (live; shared with all threads).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The currently published snapshot version.
    pub fn published_version(&self) -> u64 {
        self.shared.current().view.version()
    }

    /// A cloneable handle that can request shutdown from other threads
    /// (the daemon wires SIGTERM/SIGINT to this).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Whether the server is still accepting work (i.e. no shutdown has
    /// been requested by `SHUTDOWN`, a signal, or a handle).
    pub fn running(&self) -> bool {
        !self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested (client `SHUTDOWN`, a signal
    /// handler's [`ShutdownHandle`], …), then unwind gracefully.
    pub fn wait(mut self) -> Result<()> {
        let poll = self.shared.cfg.poll;
        while self.running() {
            std::thread::sleep(poll);
        }
        self.unwind()
    }

    /// Graceful shutdown: stop accepting, finish in-flight commands,
    /// join every thread.
    pub fn shutdown(mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.unwind()
    }

    fn unwind(&mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            h.join().map_err(|_| RexError::Exec("server: accept thread panicked".into()))?;
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in conns {
            h.join().map_err(|_| RexError::Exec("server: connection thread panicked".into()))?;
        }
        // All write senders are gone once accept + connections exited;
        // the writer drains the channel and returns.
        if let Some(h) = self.writer.take() {
            h.join().map_err(|_| RexError::Exec("server: writer thread panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() || self.writer.is_some() {
            let _ = self.unwind();
        }
    }
}

// ---- writer --------------------------------------------------------------

fn writer_loop(mut session: Session, rx: Receiver<WriteReq>, shared: Arc<Shared>) {
    let mut fault = shared.cfg.fault;
    while let Ok(first) = rx.recv() {
        // Coalesce a burst of queued ops under one snapshot publish; every
        // reply still waits for the publish covering its op, so a client
        // that saw `OK version=v` immediately reads its own write.
        let mut reqs = vec![first];
        while reqs.len() < shared.cfg.coalesce.max(1) {
            match rx.try_recv() {
                Ok(r) => reqs.push(r),
                Err(_) => break,
            }
        }
        let mut replies = Vec::with_capacity(reqs.len());
        for req in reqs {
            let reply = apply_write(&mut session, req.op, &shared.stats);
            replies.push((req.reply, reply));
            // One-shot chaos hook: kill a worker's view shards between
            // write ops. Recovery runs inside inject_failure; readers
            // keep the published snapshot either way.
            if let Some(f) = fault {
                if shared.stats.write_ops.load(Ordering::Relaxed) >= f.after_writes {
                    let _ = session.inject_failure(f.worker, f.strategy);
                    fault = None;
                }
            }
        }
        let t0 = Instant::now();
        match session.snapshot() {
            Ok(view) => {
                *shared.published.write().unwrap() = Arc::new(Published::new(view));
                shared.stats.record_publish(t0.elapsed());
            }
            Err(e) => {
                // The ops committed but the new version could not be
                // built; readers keep the previous consistent snapshot.
                // Tell the writers rather than claiming success.
                for (_, r) in &mut replies {
                    *r = WriteReply::Failed(format!(
                        "write applied but snapshot publish failed: {e}"
                    ));
                }
            }
        }
        for (tx, reply) in replies {
            let _ = tx.send(reply); // receiver may have hung up: its loss
        }
    }
}

fn apply_write(session: &mut Session, op: WriteOp, stats: &ServerStats) -> WriteReply {
    stats.write_ops.fetch_add(1, Ordering::Relaxed);
    match op {
        WriteOp::Ingest { table, batches } => match session.insert_stream(&table, batches) {
            Ok(rows) => {
                stats.rows_inserted.fetch_add(rows as u64, Ordering::Relaxed);
                WriteReply::Ingest { rows, version: session.version() }
            }
            Err(e) => WriteReply::Failed(e.to_string()),
        },
        WriteOp::Script { stmts } => {
            let results = stmts
                .iter()
                .map(|s| session.query(s).map(|r| r.rows.len()).map_err(|e| e.to_string()))
                .collect();
            WriteReply::Script { results, version: session.version() }
        }
    }
}

// ---- accept + connections ------------------------------------------------

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    write_tx: SyncSender<WriteReq>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                let tx = write_tx.clone();
                let spawned =
                    std::thread::Builder::new().name("rex-conn".into()).spawn(move || {
                        let _ = serve_connection(stream, &shared, tx);
                        shared.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
                    });
                if let Ok(h) = spawned {
                    let mut guard = conns.lock().unwrap();
                    guard.retain(|h| !h.is_finished()); // reap quietly
                    guard.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll.min(Duration::from_millis(10)));
            }
            Err(_) => std::thread::sleep(shared.cfg.poll),
        }
    }
    // write_tx drops here; once connections unwind, the writer sees a
    // closed channel and exits.
}

/// What [`read_line_interruptible`] read.
enum Line {
    /// EOF, or shutdown while waiting.
    End,
    /// A line (its newline included, unless the stream ended first).
    Read,
    /// A line longer than [`protocol::MAX_LINE_BYTES`], discarded through
    /// its newline.
    Oversize,
}

/// Read one line of at most [`protocol::MAX_LINE_BYTES`] bytes into `buf`,
/// waking every `cfg.poll` to honor shutdown. A longer line is skipped
/// through its newline without being buffered, so no client can make the
/// server allocate without bound. Partial reads accumulate across
/// timeouts, so no bytes are lost.
fn read_line_interruptible(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    shared: &Shared,
) -> std::io::Result<Line> {
    let limit = protocol::MAX_LINE_BYTES as u64;
    let mut bytes = std::mem::take(buf).into_bytes();
    let read = retry(shared, || {
        let room = limit - bytes.len() as u64;
        reader.by_ref().take(room).read_until(b'\n', &mut bytes)
    })?;
    if read.is_none() {
        return Ok(Line::End);
    }
    if bytes.len() as u64 == limit && bytes.last() != Some(&b'\n') {
        return Ok(match retry(shared, || reader.skip_until(b'\n'))? {
            Some(_) => Line::Oversize,
            None => Line::End,
        });
    }
    if bytes.is_empty() {
        return Ok(Line::End);
    }
    *buf = String::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Line::Read)
}

/// Run a blocking socket read, retrying when it times out (every
/// `cfg.poll`) or is interrupted. `None` when shutdown began meanwhile.
fn retry<T>(
    shared: &Shared,
    mut read: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<Option<T>> {
    loop {
        match read() {
            Ok(v) => return Ok(Some(v)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    write_tx: SyncSender<WriteReq>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.cfg.poll))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let quit = match read_line_interruptible(&mut reader, &mut line, shared)? {
            Line::End => return Ok(()), // EOF or shutdown
            Line::Oversize => {
                writeln!(writer, "{}", protocol::oversize_line())?;
                false
            }
            Line::Read if line.trim().is_empty() => continue,
            // Hot path: QUERY skips the command parser entirely — no verb
            // uppercasing, no argument allocation; the line's tail is the
            // cache key. (Lower-case `query` still works via the parser.)
            Line::Read => match line.strip_prefix("QUERY ") {
                Some(rql) => {
                    handle_query(rql.trim_end_matches(['\r', '\n']), shared, &mut writer)?;
                    false
                }
                None => match protocol::parse_command(&line) {
                    Ok(cmd) => handle_command(cmd, shared, &write_tx, &mut reader, &mut writer)?,
                    Err(e) => {
                        writeln!(writer, "{}", protocol::err_line(&e))?;
                        false
                    }
                },
            },
        };
        // Batch-flush: while more complete requests are already buffered
        // (a pipelining client), keep processing and amortize the flush;
        // otherwise flush now so a synchronous client gets its answer.
        if quit {
            writer.flush()?;
            return Ok(());
        }
        if !reader.buffer().contains(&b'\n') {
            writer.flush()?;
        }
    }
}

/// Handle one parsed command; returns `true` when the connection should
/// close (QUIT/SHUTDOWN).
fn handle_command(
    cmd: Command,
    shared: &Shared,
    write_tx: &SyncSender<WriteReq>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<bool> {
    match cmd {
        Command::Hello(_) => {
            let p = shared.current();
            writeln!(
                writer,
                "OK rex-server {} engine={} version={}",
                env!("CARGO_PKG_VERSION"),
                p.view.engine_name(),
                p.view.version()
            )?;
        }
        Command::Query(rql) => handle_query(&rql, shared, writer)?,
        Command::Insert { table, rows } => {
            let reply = send_write(write_tx, WriteOp::Ingest { table, batches: vec![rows] });
            write_ingest_reply(writer, reply)?;
        }
        Command::Batch { table, count } => {
            // Consume all announced row lines even if one fails to
            // decode — otherwise the protocol desynchronizes and row
            // data gets parsed as commands.
            let mut rows = Vec::with_capacity(count.min(65_536));
            let mut decode_err = None;
            let mut line = String::new();
            let mut scratch = Vec::new();
            for _ in 0..count {
                line.clear();
                match read_line_interruptible(reader, &mut line, shared)? {
                    Line::End => {
                        writeln!(writer, "ERR batch truncated by EOF/shutdown")?;
                        return Ok(true);
                    }
                    Line::Oversize => decode_err = Some(protocol::oversize_line()),
                    Line::Read => match protocol::decode_row_with(&line, &mut scratch) {
                        Ok(t) => rows.push(t),
                        Err(e) => decode_err = Some(protocol::err_line(&e)),
                    },
                }
            }
            if let Some(e) = decode_err {
                writeln!(writer, "{e}")?;
                return Ok(false);
            }
            let reply = send_write(write_tx, WriteOp::Ingest { table, batches: vec![rows] });
            write_ingest_reply(writer, reply)?;
        }
        Command::Script { count } => {
            let mut stmts = Vec::with_capacity(count.min(4_096));
            let mut oversize = false;
            let mut line = String::new();
            for _ in 0..count {
                line.clear();
                match read_line_interruptible(reader, &mut line, shared)? {
                    Line::End => {
                        writeln!(writer, "ERR script truncated by EOF/shutdown")?;
                        return Ok(true);
                    }
                    Line::Oversize => oversize = true,
                    Line::Read => stmts.push(line.trim_end_matches(['\r', '\n']).to_string()),
                }
            }
            if oversize {
                writeln!(writer, "{}", protocol::oversize_line())?;
                return Ok(false);
            }
            match send_write(write_tx, WriteOp::Script { stmts }) {
                Ok(WriteReply::Script { results, version }) => {
                    writeln!(writer, "OK {} version={version}", results.len())?;
                    for r in results {
                        match r {
                            Ok(rows) => writeln!(writer, "OK {rows}")?,
                            Err(e) => writeln!(writer, "ERR {}", e.replace('\n', "; "))?,
                        }
                    }
                    writeln!(writer, ".")?;
                }
                Ok(WriteReply::Failed(e)) | Err(e) => {
                    writeln!(writer, "ERR {}", e.replace('\n', "; "))?
                }
                Ok(WriteReply::Ingest { .. }) => writeln!(writer, "ERR writer protocol mixup")?,
            }
        }
        Command::Stats => {
            let p = shared.current();
            writeln!(writer, "OK")?;
            writer.write_all(shared.stats.render().as_bytes())?;
            writer.write_all(p.view.stats_text().as_bytes())?;
            writeln!(writer, ".")?;
        }
        Command::Metrics => {
            let p = shared.current();
            writeln!(writer, "OK")?;
            writer.write_all(shared.stats.render_prometheus(p.view.version()).as_bytes())?;
            writeln!(writer, ".")?;
        }
        Command::Quit => {
            writeln!(writer, "OK bye")?;
            return Ok(true);
        }
        Command::Shutdown => {
            writeln!(writer, "OK shutting down")?;
            shared.shutdown.store(true, Ordering::SeqCst);
            return Ok(true);
        }
    }
    Ok(false)
}

/// Answer one `QUERY`: snapshot-cache hit or execute-and-cache.
fn handle_query(
    rql: &str,
    shared: &Shared,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    shared.stats.queries.fetch_add(1, Ordering::Relaxed);
    let p = shared.current();
    if let Some(hit) = p.cache.lock().unwrap().get(rql) {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        return writer.write_all(hit.as_bytes());
    }
    shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    let response = run_query(&p.view, rql);
    if shared.cfg.cache_entries > 0 && response.len() <= shared.cfg.cache_max_bytes {
        let evicted = p.cache.lock().unwrap().insert(
            rql,
            Arc::from(response.as_str()),
            shared.cfg.cache_entries,
        );
        if evicted > 0 {
            shared.stats.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
    writer.write_all(response.as_bytes())
}

/// Execute a query on a snapshot and encode the full response: every
/// row is appended straight to the one reply buffer.
fn run_query(view: &SnapshotView, rql: &str) -> String {
    match view.query(rql) {
        Ok(r) => {
            let mut out = String::with_capacity(64 + r.rows.len() * 24);
            out.push_str(&format!(
                "OK {} version={} engine={}\n",
                r.rows.len(),
                view.version(),
                r.engine
            ));
            for row in &r.rows {
                protocol::encode_row_into(row, &mut out);
                out.push('\n');
            }
            out.push_str(".\n");
            out
        }
        Err(e) => format!("{}\n", protocol::err_line(&e)),
    }
}

/// Ship a write op to the writer thread and wait for its reply. The send
/// blocks when the bounded queue is full — that is the backpressure.
fn send_write(
    write_tx: &SyncSender<WriteReq>,
    op: WriteOp,
) -> std::result::Result<WriteReply, String> {
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    write_tx
        .send(WriteReq { op, reply: reply_tx })
        .map_err(|_| "writer is shut down".to_string())?;
    reply_rx.recv().map_err(|_| "writer hung up before replying".to_string())
}

fn write_ingest_reply(
    writer: &mut BufWriter<TcpStream>,
    reply: std::result::Result<WriteReply, String>,
) -> std::io::Result<()> {
    match reply {
        Ok(WriteReply::Ingest { rows, version }) => writeln!(writer, "OK {rows} version={version}"),
        Ok(WriteReply::Failed(e)) | Err(e) => writeln!(writer, "ERR {}", e.replace('\n', "; ")),
        Ok(WriteReply::Script { .. }) => writeln!(writer, "ERR writer protocol mixup"),
    }
}
