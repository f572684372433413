//! The traced run: where one operation's time goes, layer by layer.
//!
//! Three passes over a workload, all with the workload's own seeded
//! inputs: (1) a short served run of the end-to-end driver, for what only
//! the live server can report (its `STATS` counters, tail latencies,
//! generator health); (2) a sample of the workload's operations replayed
//! strictly over one connection against a fresh server child, one
//! `server.roundtrip` span each; (3) the same sample replayed in process
//! through each layer's public functions, the spans linked under the
//! round trip they explain (see [`crate::trace`]). Every answer in (2) and
//! (3) must match, and match the reference where one is defined. Layer
//! probes that are not per-operation (storage copy-on-write, per-view
//! maintenance, operator counters, fixpoint and cluster accounting) follow
//! for the workloads that enter those layers.

use crate::api::e2e::{protocol, Client, Session, Tuple};
use crate::api::layers::{
    logical, lower, parse, set_thread_budget, Catalog, CatalogProvider, ClusterEngine, DataType,
    Delta, Engine, EngineContext, ExecTrace, LocalEngine, LocalRuntime, MaterializedView,
    Optimizer, QueryResult, Registry, Schema, SchemaCatalog, Statement, StoredTable, ViewCatalog,
};
use crate::gen::Op;
use crate::metrics::{per_layer_unit, PER_LAYER};
use crate::reference::Digest;
use crate::report::Metrics;
use crate::server::{self, Result, ServerProc};
use crate::stats::{median, sorted};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, digest_rows, Kind, Target, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of the traced run's `--seconds` given to the served pass.
const SERVED_SHARE: f64 = 0.25;
/// Strict round trips of one cached query that establish the floor.
const FLOOR_TRIPS: usize = 400;
/// Above this share of sampled end-to-end time left unexplained by
/// measured steps, the traced run's account is not closed.
pub const LEDGER_LIMIT: f64 = 0.15;

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// The ledger went over [`LEDGER_LIMIT`]. No operation answered
    /// wrongly, so this is not counted in `failed`: it is a comparison of
    /// timings, which a busy neighbour can move, and the caller decides
    /// what a breach means (the all-workloads command fails on it, a
    /// single run warns).
    pub ledger_breach: Option<String>,
    pub metrics: Metrics,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn median_of(v: Vec<f64>) -> f64 {
    median(&sorted(v))
}

/// The session's write path rebuilt from the storage and views layers'
/// public calls: what `Session::insert_stream` and `Session::snapshot` do
/// inside, so their steps can be timed apart. `only_view` keeps one view
/// of the workload's DDL, for per-view maintenance cost.
struct Mirror {
    store: Catalog,
    schemas: SchemaCatalog,
    reg: Registry,
    views: ViewCatalog,
    only_view: Option<&'static str>,
}

impl Mirror {
    /// `only_view` that matches no view: base tables only.
    const NO_VIEWS: Option<&'static str> = Some("");

    fn loaded(w: &dyn Workload, only_view: Option<&'static str>) -> Result<Mirror> {
        let mut m = Mirror {
            store: Catalog::new(),
            schemas: SchemaCatalog::new(),
            reg: Registry::with_builtins(),
            views: ViewCatalog::new(),
            only_view,
        };
        w.load(&mut m)?;
        w.warm_up(&mut m)?;
        Ok(m)
    }

    fn deltas(rows: &[Tuple], delete: bool) -> Vec<Delta> {
        let make = if delete { Delta::delete } else { Delta::insert };
        rows.iter().cloned().map(make).collect()
    }
}

impl Target for Mirror {
    fn script(&mut self, stmts: &[&str]) -> Result<()> {
        for text in stmts {
            match parse(text).map_err(err)? {
                Statement::CreateTable { name, columns } => {
                    let cols: Vec<(&str, DataType)> =
                        columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                    let schema = Schema::of(&cols);
                    self.schemas.register(&name, schema.clone());
                    self.store.register(StoredTable::new(name, schema, vec![0]));
                }
                Statement::CreateView { name, query } => {
                    if self.only_view.is_some_and(|v| v != name) {
                        continue;
                    }
                    let plan = logical::plan(&Statement::Query(query), &self.schemas, &self.reg)
                        .map_err(err)?;
                    let view = MaterializedView::define(name.as_str(), *text, plan, &self.reg);
                    let schema = view.schema().clone();
                    self.views.create(view, &self.store, &self.reg).map_err(err)?;
                    self.schemas.register(&name, schema);
                }
                other => return Err(format!("mirror: unsupported statement {other:?}")),
            }
        }
        Ok(())
    }

    fn batch(&mut self, table: &str, rows: &[Tuple]) -> Result<u64> {
        self.store.append(table, rows.to_vec()).map_err(err)?;
        if self.views.reads(table) {
            let deltas = Mirror::deltas(rows, false);
            self.views.on_base_change(table, &deltas, &self.store, &self.reg).map_err(err)?;
        }
        Ok(0)
    }

    /// Warm-up reads have nothing to warm here.
    fn query(&mut self, _text: &str) -> Result<Vec<Tuple>> {
        Ok(Vec::new())
    }
}

/// The read path's inner steps over a session's own tables, for replay.
struct ReadParts {
    schemas: SchemaCatalog,
    store: Catalog,
    reg: Registry,
    optimizer: Optimizer,
    engine: Box<dyn Engine>,
    local: bool,
}

impl ReadParts {
    fn of(session: &Session, engine: &str) -> Result<ReadParts> {
        let store = session.store().snapshot();
        let mut schemas = SchemaCatalog::new();
        let mut optimizer = Optimizer::new(1);
        for name in store.table_names() {
            let t = store.get(&name).map_err(err)?;
            schemas.register(&name, t.schema().clone());
            optimizer.stats.set_table_rows(name, t.len() as u64);
        }
        let (engine, local): (Box<dyn Engine>, bool) = match engine.strip_prefix("cluster:") {
            Some(n) => (Box::new(ClusterEngine::new(n.parse().map_err(err)?)), false),
            None => (Box::new(LocalEngine::new()), true),
        };
        Ok(ReadParts { schemas, store, reg: session.registry().clone(), optimizer, engine, local })
    }

    /// Replay one read's inner steps as children of `whole`; returns the
    /// rows the replayed execution produced.
    fn replay(&self, tr: &mut Tracer, whole: SpanId, op: u64, text: &str) -> Result<Vec<Tuple>> {
        let (stmt, _) = tr.time("rql.parse", Some(whole), op, || parse(text));
        let stmt = stmt.map_err(err)?;
        let (plan, _) =
            tr.time("rql.plan", Some(whole), op, || logical::plan(&stmt, &self.schemas, &self.reg));
        let (optimized, _) = tr.time("optimizer.optimize", Some(whole), op, || {
            self.optimizer.optimize(plan.map_err(err)?).map_err(err)
        });
        let (optimized, _) = optimized?;
        let ctx = EngineContext {
            store: &self.store,
            registry: &self.reg,
            telemetry: false,
            threads: threads(),
        };
        let (out, exec) =
            tr.time("engine.execute", Some(whole), op, || self.engine.execute(&optimized, &ctx));
        let rows = out.map_err(err)?.rows;
        if self.local {
            // The same plan once more on one thread, split at the
            // rql/core boundary.
            let provider = CatalogProvider::new(self.store.clone());
            let (graph, _) =
                tr.time("rql.lower", Some(exec), op, || lower(&optimized, &provider, &self.reg));
            let rt = LocalRuntime::with_registry(self.reg.clone());
            let (ran, _) = tr.time("core.run", Some(exec), op, || {
                rt.run_traced(graph.map_err(err)?).map_err(err)
            });
            ran?;
        }
        Ok(rows)
    }

    /// One single-threaded execution with telemetry on: the operator
    /// counters, and the input rows the scans delivered.
    fn operator_trace(&self, text: &str) -> Result<ExecTrace> {
        let plan =
            logical::plan(&parse(text).map_err(err)?, &self.schemas, &self.reg).map_err(err)?;
        let (optimized, _) = self.optimizer.optimize(plan).map_err(err)?;
        let provider = CatalogProvider::new(self.store.clone());
        let graph = lower(&optimized, &provider, &self.reg).map_err(err)?;
        let rt = LocalRuntime::with_registry(self.reg.clone()).with_telemetry(true);
        let (_, _, trace) = rt.run_traced(graph).map_err(err)?;
        trace.ok_or_else(|| "telemetry on but no trace returned".to_string())
    }
}

/// Everything the passes collect, turned into the metric list at the end.
struct Ledger {
    tr: Tracer,
    /// Kind index of each sampled operation.
    kinds: Vec<usize>,
    rows: Vec<usize>,
    /// Spans of steps the served operation skipped (a cache hit runs and
    /// encodes nothing): kept for their medians, left out of the account.
    off_path: Vec<SpanId>,
    values: BTreeMap<&'static str, f64>,
    failed: u64,
    attempted: u64,
    first_failure: Option<String>,
    breach: Option<String>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(per_layer_unit(name).is_some(), "{name} is not a per-layer metric");
        self.values.insert(name, value);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Median microseconds of span `name` over sampled operations of `kind`
    /// (all kinds if `None`).
    fn span_us(&self, name: &str, kind: Option<usize>) -> f64 {
        median_of(
            self.tr.durations_us(name, |op| kind.is_none_or(|k| self.kinds[op as usize] == k)),
        )
    }
}

pub fn run(w: &dyn Workload, seconds: f64) -> Result<Traced> {
    // Pass 1: the live server's own view of the workload.
    let served = workloads::run(w, seconds * SERVED_SHARE, 1)?;
    let mut lg = Ledger {
        tr: Tracer::default(),
        kinds: Vec::new(),
        rows: Vec::new(),
        off_path: Vec::new(),
        values: BTreeMap::new(),
        failed: served.failed,
        attempted: served.attempted,
        first_failure: served.first_failure,
        breach: None,
    };
    for (name, value) in served.side {
        lg.set(name, value);
    }

    let sample = w.sample();
    let kinds = w.kinds();
    lg.kinds = sample
        .iter()
        .map(|op| match op {
            Op::Query { kind, .. } | Op::Batch { kind, .. } => *kind,
        })
        .collect();
    lg.attempted += sample.len() as u64;

    let served = served_replay(w, &sample, &mut lg)?;
    layered_replay(w, &sample, &served, &mut lg)?;

    per_operation_metrics(kinds, &mut lg);
    match w.name() {
        "olap_adhoc" => olap_probes(w, &sample, &mut lg)?,
        "serve_hot" => view_serve_probe(w, "deg", &mut lg)?,
        "ingest_views" => {
            view_serve_probe(w, "spend", &mut lg)?;
            storage_probes(w, &mut lg)?;
            view_probes(w, &sample, &mut lg)?;
        }
        "recursive_fixpoint" => fixpoint_probes(w, &sample, &mut lg)?,
        _ => {}
    }
    shares_and_ledger(&mut lg);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{}.jsonl", w.name());
    std::fs::write(&path, lg.tr.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, lg.values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Ok(Traced {
        attempted: lg.attempted,
        failed: lg.failed,
        first_failure: lg.first_failure,
        ledger_breach: lg.breach,
        metrics,
    })
}

/// What pass 2 learned about one sampled operation.
struct Served {
    root: SpanId,
    /// Digest of a read's reply.
    digest: Option<Digest>,
    /// The server answered from its result cache (its own counter moved).
    cache_hit: bool,
}

/// Pass 2: strict round trips over one connection to a fresh child.
fn served_replay(w: &dyn Workload, sample: &[Op], lg: &mut Ledger) -> Result<Vec<Served>> {
    let child = ServerProc::spawn(w.engine())?;
    let mut c = child.connect()?;
    w.load(&mut c)?;
    w.warm_up(&mut c)?;

    // The floor: a cached one-row reply, strict, on an otherwise idle
    // server — socket, line framing, cache lookup and flush, nothing else.
    let floor_text = w.probe_text();
    let mut trips = Vec::with_capacity(FLOOR_TRIPS);
    for _ in 0..FLOOR_TRIPS {
        let t0 = Instant::now();
        Client::query(&mut c, &floor_text).map_err(err)?;
        trips.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    lg.set("server.rtt_floor_us", median_of(trips.split_off(FLOOR_TRIPS / 2)));

    let hits = |c: &mut Client| -> Result<f64> {
        let stats = workloads::server_counters(c)?;
        Ok(stats.iter().find(|(k, _)| k == "cache_hits").map_or(0.0, |(_, v)| *v))
    };
    let mut served = Vec::with_capacity(sample.len());
    for (i, op) in sample.iter().enumerate() {
        match op {
            Op::Query { text, .. } => {
                let before = hits(&mut c)?;
                let (reply, root) =
                    lg.tr.time("server.roundtrip", None, i as u64, || Client::query(&mut c, text));
                let rows = reply.map_err(err)?.rows;
                lg.rows.push(rows.len());
                let cache_hit = hits(&mut c)? > before;
                served.push(Served { root, digest: Some(digest_rows(&rows)), cache_hit });
            }
            Op::Batch { table, rows, .. } => {
                let (ack, root) = lg.tr.time("server.roundtrip", None, i as u64, || {
                    Client::batch(&mut c, table, rows)
                });
                ack.map_err(err)?;
                lg.rows.push(rows.len());
                served.push(Served { root, digest: None, cache_hit: false });
            }
        }
    }
    drop(c);
    child.shutdown()?;
    Ok(served)
}

/// Pass 3: the same operations through the layers, in process.
fn layered_replay(
    w: &dyn Workload,
    sample: &[Op],
    served: &[Served],
    lg: &mut Ledger,
) -> Result<()> {
    let mut session = server::session(w.engine())?;
    // As `Server::start` configures it for `ServerConfig::threads`.
    session.set_threads(threads());
    set_thread_budget(threads() - 1);
    w.load(&mut session)?;
    w.warm_up(&mut session)?;
    let mut parts = ReadParts::of(&session, w.engine())?;
    // A read that follows a write replays over the tables as written.
    let mut parts_stale = false;
    let mut mirror = Mirror::loaded(w, None)?;
    // The server always holds its published snapshot; so do these, which
    // is what makes the next append copy the table it touches. Publishing
    // syncs the views, here as there, before the first timed write.
    let mut published = session.snapshot().map_err(err)?;
    mirror.views.sync(&mirror.store).map_err(err)?;
    let mut mirror_published = mirror.store.snapshot();

    for (i, op) in sample.iter().enumerate() {
        let (op_id, root) = (i as u64, served[i].root);
        match op {
            Op::Query { text, .. } => {
                if parts_stale {
                    parts = ReadParts::of(&session, w.engine())?;
                    parts_stale = false;
                }
                let (result, whole) =
                    lg.tr.time("session.query", Some(root), op_id, || published.query(text));
                let result: QueryResult = result.map_err(err)?;
                let replayed = parts.replay(&mut lg.tr, whole, op_id, text)?;
                let (lines, encode) = lg.tr.time("server.encode_rows", Some(root), op_id, || {
                    result.rows.iter().map(protocol::encode_row).collect::<Vec<String>>()
                });
                let (decoded, _) = lg.tr.time("server.decode_rows", Some(root), op_id, || {
                    lines
                        .iter()
                        .map(|l| protocol::decode_row(l))
                        .collect::<std::result::Result<Vec<_>, _>>()
                });
                decoded.map_err(err)?;
                if served[i].cache_hit {
                    // The server neither ran nor encoded this one: its
                    // spans stay in the trace for their medians but leave
                    // the round trip's account.
                    lg.off_path.extend([whole, encode]);
                }
                let got = Some(digest_rows(&result.rows));
                let want = w.expected(op);
                if got != served[i].digest
                    || got != Some(digest_rows(&replayed))
                    || want.is_some_and(|d| Some(d) != got)
                {
                    lg.fail(format!(
                        "served, in-process, replayed and reference answers differ: {text}"
                    ));
                }
            }
            Op::Batch { table, rows, .. } => {
                let header = format!("BATCH {table} {}", rows.len());
                let (cmd, _) = lg.tr.time("server.parse_command", Some(root), op_id, || {
                    protocol::parse_command(&header)
                });
                cmd.map_err(err)?;
                let lines: Vec<String> = rows.iter().map(protocol::encode_row).collect();
                let (decoded, _) = lg.tr.time("server.decode_rows", Some(root), op_id, || {
                    lines
                        .iter()
                        .map(|l| protocol::decode_row(l))
                        .collect::<std::result::Result<Vec<_>, _>>()
                });
                decoded.map_err(err)?;
                let (n, whole) = lg.tr.time("session.insert_stream", Some(root), op_id, || {
                    session.insert_stream(table, [rows.clone()])
                });
                n.map_err(err)?;
                let (appended, _) = lg.tr.time("storage.append", Some(whole), op_id, || {
                    mirror.store.append(table, rows.clone())
                });
                appended.map_err(err)?;
                if mirror.views.reads(table) {
                    let deltas = Mirror::deltas(rows, false);
                    let (done, _) = lg.tr.time("views.on_base_change", Some(whole), op_id, || {
                        mirror.views.on_base_change(table, &deltas, &mirror.store, &mirror.reg)
                    });
                    done.map_err(err)?;
                }
                let (snap, publish) =
                    lg.tr.time("session.snapshot", Some(root), op_id, || session.snapshot());
                published = snap.map_err(err)?;
                let (synced, _) = lg
                    .tr
                    .time("views.sync", Some(publish), op_id, || mirror.views.sync(&mirror.store));
                synced.map_err(err)?;
                let (snap, _) = lg
                    .tr
                    .time("storage.snapshot", Some(publish), op_id, || mirror.store.snapshot());
                mirror_published = snap;
                parts_stale = true;
            }
        }
    }
    drop((published, mirror_published));
    let recomputes: u64 = mirror.views.metrics().iter().map(|m| m.recomputes).sum();
    lg.set("views.recomputes", recomputes as f64);
    Ok(())
}

/// Metrics that are medians of the replay's spans.
fn per_operation_metrics(kinds: &[Kind], lg: &mut Ledger) {
    let read_kind = |op: u64| !kinds[lg.kinds[op as usize]].write;
    let per_row = |lg: &Ledger, name: &str| {
        // ns per row over operations that moved at least a few rows.
        let ratios = lg
            .tr
            .spans
            .iter()
            .filter(|s| s.name == name && lg.rows[s.op_id as usize] >= 8)
            .map(|s| s.ns() as f64 / lg.rows[s.op_id as usize] as f64)
            .collect();
        median_of(ratios)
    };
    let reads = |lg: &Ledger, name: &str| median_of(lg.tr.durations_us(name, read_kind));
    let all = |lg: &Ledger, name: &str| median_of(lg.tr.durations_us(name, |_| true));

    let set: Vec<(&'static str, f64)> = vec![
        ("server.parse_command_ns", all(lg, "server.parse_command") * 1e3),
        ("server.encode_row_ns_per_row", per_row(lg, "server.encode_rows")),
        ("server.decode_row_ns_per_row", per_row(lg, "server.decode_rows")),
        ("session.query_us", reads(lg, "session.query")),
        ("session.snapshot_us", all(lg, "session.snapshot")),
        ("session.insert_us_per_batch", all(lg, "session.insert_stream")),
        ("rql.parse_us", reads(lg, "rql.parse")),
        ("rql.plan_us", reads(lg, "rql.plan")),
        ("rql.lower_us", reads(lg, "rql.lower")),
        ("optimizer.optimize_us", reads(lg, "optimizer.optimize")),
        ("core.execute_us", reads(lg, "core.run")),
        ("views.sync_us", all(lg, "views.sync")),
    ];
    for (name, value) in set {
        lg.set(name, value);
    }

    // Paired differences: the same operation served and in process.
    let mut overhead_by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut session_overhead = Vec::new();
    for (id, s) in lg.tr.spans.iter().enumerate().filter(|(_, s)| s.name == "session.query") {
        let root = &lg.tr.spans[s.parent.expect("session.query hangs under a round trip")];
        let ran = if lg.off_path.contains(&id) { 0.0 } else { s.ns() as f64 };
        let wire = (root.ns() as f64 - ran) / 1e3;
        overhead_by_kind.entry(lg.kinds[s.op_id as usize]).or_default().push(wire);
        session_overhead.push(lg.tr.self_ns(id) as f64 / 1e3);
    }
    lg.set("session.overhead_us", median_of(session_overhead));
    lg.set(
        "server.wire_overhead_us",
        median_of(overhead_by_kind.values().flatten().copied().collect()),
    );
    for (kind, wires) in overhead_by_kind {
        let per_kind = format!("server.wire_overhead_us.{}", kinds[kind].name);
        let query = format!("session.query_us.{}", kinds[kind].name);
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == per_kind) {
            lg.set(m.name, median_of(wires));
        }
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == query) {
            let v = lg.span_us("session.query", Some(kind));
            lg.set(m.name, v);
        }
    }
}

/// Each layer's share of the sampled operations' end-to-end time, and the
/// share spent inside the session facade that no inner layer's public call
/// reproduces — its own work (view sync, statistics refresh, presentation
/// sort), or a replay that no longer matches what the facade does.
fn shares_and_ledger(lg: &mut Ledger) {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Signed sums per whole call, so that noise between a call and its
    // replayed steps cancels instead of piling up.
    let mut facade: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0f64;
    for (id, s) in lg.tr.spans.iter().enumerate() {
        let skipped = |span: SpanId| lg.off_path.contains(&span);
        if skipped(id) || s.parent.is_some_and(skipped) {
            continue;
        }
        let children: u64 = (lg.tr.spans.iter().enumerate())
            .filter(|(c, span)| span.parent == Some(id) && !skipped(*c))
            .map(|(_, span)| span.ns())
            .sum();
        let own = s.ns() as f64 - children as f64;
        let layer = match s.name {
            "server.roundtrip" => {
                total += s.ns() as f64;
                "share.server"
            }
            "session.query" | "session.insert_stream" | "session.snapshot" => {
                *facade.entry(s.name).or_default() += own;
                "share.session"
            }
            "engine.execute" if children > 0 => "share.core",
            "engine.execute" => "share.cluster",
            // The single-threaded split of a possibly parallel execution
            // informs rql.lower_us and core.execute_us, not the shares.
            "rql.lower" | "core.run" => continue,
            n if n.starts_with("server.") => "share.server",
            n if n.starts_with("rql.") => "share.rql",
            n if n.starts_with("optimizer.") => "share.optimizer",
            n if n.starts_with("storage.") => "share.storage",
            n if n.starts_with("views.") => "share.views",
            other => unreachable!("span {other} has no layer"),
        };
        let time = if s.name == "engine.execute" { s.ns() as f64 } else { own.max(0.0) };
        *by_layer.entry(layer).or_default() += time;
    }
    if total > 0.0 {
        for (layer, ns) in by_layer {
            lg.set(layer, ns / total);
        }
        let ratio = facade.values().map(|own| own.abs()).sum::<f64>() / total;
        lg.set("ledger.unattributed_ratio", ratio);
        if ratio > LEDGER_LIMIT {
            lg.breach = Some(format!(
                "ledger: {ratio:.3} of sampled time is unattributed (limit {LEDGER_LIMIT}): {facade:?}"
            ));
        }
    }
}

/// `session.view_state_serve_us`: a bare `SELECT * FROM view`, which the
/// session answers from view state without an engine pass.
fn view_serve_probe(w: &dyn Workload, view: &str, lg: &mut Ledger) -> Result<()> {
    let mut session = server::session(w.engine())?;
    w.load(&mut session)?;
    let text = format!("SELECT * FROM {view}");
    let times = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            let r = Session::query(&mut session, &text).map_err(err)?;
            std::hint::black_box(r.rows.len());
            Ok(t0.elapsed().as_nanos() as f64 / 1e3)
        })
        .collect::<Result<Vec<f64>>>()?;
    lg.set("session.view_state_serve_us", median_of(times));
    Ok(())
}

/// Operator counters of each OLAP shape from the executor's own trace,
/// what telemetry costs, and the join on the cluster engine.
fn olap_probes(w: &dyn Workload, sample: &[Op], lg: &mut Ledger) -> Result<()> {
    let mut session = server::session("local")?;
    w.load(&mut session)?;
    let parts = ReadParts::of(&session, "local")?;
    let kinds = w.kinds();
    // The first sampled text of each shape.
    let mut texts: BTreeMap<usize, &str> = BTreeMap::new();
    for op in sample {
        if let Op::Query { kind, text, .. } = op {
            texts.entry(*kind).or_insert(text);
        }
    }
    let (mut lane_hits, mut batches) = (0u64, 0u64);
    let mut op_ns: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (kind, text) in &texts {
        let trace = parts.operator_trace(text)?;
        let input: u64 =
            trace.ops.iter().filter(|o| o.name.starts_with("Scan")).map(|o| o.rows_out).sum();
        let name = format!("core.ns_per_input_row.{}", kinds[*kind].name);
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            let run_us = lg.span_us("core.run", Some(*kind));
            lg.set(m.name, run_us * 1e3 / input.max(1) as f64);
        }
        for o in &trace.ops {
            lane_hits += o.lane_hits;
            batches += o.batches;
            let metric = [
                ("Scan", "core.op.scan_ns_per_row"),
                ("Filter", "core.op.filter_ns_per_row"),
                ("Project", "core.op.project_ns_per_row"),
                ("HashJoin", "core.op.hash_join_ns_per_row"),
                ("GroupBy", "core.op.group_by_ns_per_row"),
                ("TopK", "core.op.topk_ns_per_row"),
                ("Sink", "core.op.sink_ns_per_row"),
            ]
            .iter()
            .find(|(prefix, _)| o.name.starts_with(prefix));
            if let Some((_, metric)) = metric {
                let e = op_ns.entry(metric).or_default();
                e.0 += o.wall_ns;
                // A scan has no input; it is costed per row it emits.
                e.1 += if o.rows_in > 0 { o.rows_in } else { o.rows_out };
            }
        }
    }
    for (metric, (ns, rows)) in op_ns {
        lg.set(metric, ns as f64 / rows.max(1) as f64);
    }
    lg.set("core.lane_hit_ratio", lane_hits as f64 / batches.max(1) as f64);

    // Telemetry on against off over the sampled reads, the order swapped
    // from one read to the next so neither side always runs on warm caches.
    let (mut on, mut off) = (0.0f64, 0.0f64);
    let reads = sample.iter().filter_map(|op| match op {
        Op::Query { text, .. } => Some(text),
        Op::Batch { .. } => None,
    });
    for (i, text) in reads.take(24).enumerate() {
        for telemetry in [i % 2 == 0, i % 2 != 0] {
            session.set_telemetry(telemetry);
            let t0 = Instant::now();
            Session::query(&mut session, text).map_err(err)?;
            *(if telemetry { &mut on } else { &mut off }) += t0.elapsed().as_secs_f64();
        }
    }
    lg.set("core.telemetry_overhead_ratio", on / off - 1.0);

    // ROADMAP's parity-floor number: the join shape on a 4-worker cluster.
    if let Some(text) = texts.iter().find(|(k, _)| kinds[**k].name == "join_group").map(|(_, t)| *t)
    {
        let mut cluster = server::session("cluster:4")?;
        w.load(&mut cluster)?;
        let input = cluster.table_rows("t").map_err(err)? as f64;
        let times = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                Session::query(&mut cluster, text).map_err(err)?;
                Ok(t0.elapsed().as_nanos() as f64)
            })
            .collect::<Result<Vec<f64>>>()?;
        lg.set("cluster.join_group_ns_per_row", median_of(times) / input);
    }
    Ok(())
}

/// Copy-on-write cost of an append: 64 rows into the seeded `orders`
/// table with a snapshot held (the server's steady state) and without.
fn storage_probes(w: &dyn Workload, lg: &mut Ledger) -> Result<()> {
    let m = Mirror::loaded(w, Mirror::NO_VIEWS)?;
    let rows: Vec<Tuple> = m.store.get("orders").map_err(err)?.rows()[..64].to_vec();
    let (mut shared, mut unshared, mut snaps) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..31 {
        let t0 = Instant::now();
        let held = m.store.snapshot();
        snaps.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        m.store.append("orders", rows.clone()).map_err(err)?;
        shared.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop(held);
        let t0 = Instant::now();
        m.store.append("orders", rows.clone()).map_err(err)?;
        unshared.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    lg.set("storage.append_us_per_batch", median_of(shared));
    lg.set("storage.append_us_per_batch_unshared", median_of(unshared));
    lg.set("storage.snapshot_us", median_of(snaps));
    Ok(())
}

/// Maintenance cost view by view: the sampled write batches through a
/// view catalog that holds only that view; inserts against deletes of
/// the same rows for the incremental ones.
fn view_probes(w: &dyn Workload, sample: &[Op], lg: &mut Ledger) -> Result<()> {
    let (mut insert_ns_per_row, mut delete_ns_per_row) = (Vec::new(), Vec::new());
    for view in ["spend", "region_spend", "big", "reports"] {
        let mut m = Mirror::loaded(w, Some(view))?;
        let mut per_batch = Vec::new();
        for op in sample {
            let Op::Batch { table, rows, .. } = op else { continue };
            m.store.append(table, rows.clone()).map_err(err)?;
            if !m.views.reads(table) {
                continue;
            }
            let t0 = Instant::now();
            m.views
                .on_base_change(table, &Mirror::deltas(rows, false), &m.store, &m.reg)
                .map_err(err)?;
            let took = t0.elapsed().as_nanos() as f64;
            per_batch.push(took / 1e3);
            if view == "reports" {
                continue; // recomputed, not delta-maintained
            }
            insert_ns_per_row.push(took / rows.len() as f64);
            // The same layer used the other way: take the rows out again
            // (and put them back, so the mirror stays on the stream).
            m.store.remove(table, rows).map_err(err)?;
            let t0 = Instant::now();
            m.views
                .on_base_change(table, &Mirror::deltas(rows, true), &m.store, &m.reg)
                .map_err(err)?;
            delete_ns_per_row.push(t0.elapsed().as_nanos() as f64 / rows.len() as f64);
            m.batch(table, rows)?;
        }
        let name = format!("views.maint_us_per_batch.{view}");
        let metric = PER_LAYER.iter().find(|p| p.name == name).expect("per-view metric is listed");
        lg.set(metric.name, median_of(per_batch));
    }
    lg.set("views.maint_ns_per_delta_row.insert", median_of(insert_ns_per_row));
    lg.set("views.maint_ns_per_delta_row.delete", median_of(delete_ns_per_row));

    let all = Mirror::loaded(w, None)?;
    let state: usize = all.views.metrics().iter().map(|v| v.state_bytes).sum();
    let base: usize = ["orders", "cust", "org", "roots"]
        .iter()
        .map(|t| all.store.get(t).map(|t| t.len()).unwrap_or(0))
        .sum();
    lg.set("views.state_bytes_per_base_row", state as f64 / base.max(1) as f64);
    Ok(())
}

/// Fixpoint accounting per recursive query on the local engine, and the
/// cluster engine's own accounting of the same queries.
fn fixpoint_probes(w: &dyn Workload, sample: &[Op], lg: &mut Ledger) -> Result<()> {
    let mut local = server::session("local")?;
    let mut cluster = server::session(w.engine())?;
    for s in [&mut local, &mut cluster] {
        s.set_threads(threads());
        w.load(s)?;
    }
    let kinds = w.kinds();
    let mut strata_us = Vec::new();
    let (mut bytes, mut skew) = (Vec::new(), Vec::new());
    struct Run {
        local_us: f64,
        cluster_us: f64,
        strata: f64,
        deltas: f64,
    }
    let mut by_kind: BTreeMap<usize, Vec<Run>> = BTreeMap::new();
    for op in sample {
        let Op::Query { kind, text, .. } = op else { continue };
        let t0 = Instant::now();
        let r = Session::query(&mut local, text).map_err(err)?;
        let local_us = t0.elapsed().as_nanos() as f64 / 1e3;
        let t0 = Instant::now();
        let c = Session::query(&mut cluster, text).map_err(err)?;
        let cluster_us = t0.elapsed().as_nanos() as f64 / 1e3;
        if digest_rows(&r.rows).rows != digest_rows(&c.rows).rows {
            lg.fail(format!("local and cluster row counts differ: {text}"));
        }
        let strata = r.iterations() as f64;
        let deltas = r.delta_sizes().iter().sum::<u64>() as f64;
        by_kind.entry(*kind).or_default().push(Run { local_us, cluster_us, strata, deltas });
        strata_us.push(cluster_us / c.iterations().max(1) as f64);
        bytes.push(c.report.totals.bytes_sent as f64);
        if let Some(stats) = &c.cluster {
            let routed: Vec<f64> = stats.rows_routed.iter().map(|r| *r as f64).collect();
            let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
            if mean > 0.0 {
                skew.push(routed.iter().copied().fold(0.0, f64::max) / mean);
            }
        }
    }
    for (kind, runs) in by_kind {
        let col = |f: fn(&Run) -> f64| median_of(runs.iter().map(f).collect());
        let (local_us, cluster_us) = (col(|r| r.local_us), col(|r| r.cluster_us));
        let (strata, deltas) = (col(|r| r.strata), col(|r| r.deltas));
        let k = kinds[kind].name;
        for (prefix, value) in [
            ("session.query_us", local_us),
            ("cluster.query_us", cluster_us),
            ("core.fixpoint.strata", strata),
            ("core.fixpoint.delta_rows", deltas),
            ("core.fixpoint.ns_per_delta_row", local_us * 1e3 / deltas.max(1.0)),
            ("core.fixpoint.us_per_stratum", local_us / strata.max(1.0)),
        ] {
            let name = format!("{prefix}.{k}");
            let metric =
                PER_LAYER.iter().find(|p| p.name == name).expect("per-kind metric is listed");
            lg.set(metric.name, value);
        }
    }
    lg.set("cluster.us_per_stratum", median_of(strata_us));
    lg.set("cluster.bytes_sent_per_query", median_of(bytes));
    lg.set("cluster.rows_routed_skew", median_of(skew));
    Ok(())
}
