//! The end-to-end harness: set a workload up against a fresh server child
//! over the wire, drive its measured window, verify what came back, and
//! turn the recorded samples into the end-to-end metrics.

pub mod ingest_views;
pub mod olap_adhoc;
pub mod recursive_fixpoint;
pub mod serve_hot;

use crate::api::e2e::{Client, Session, Tuple, Value};
use crate::gen::Op;
use crate::reference::{Digest, V};
use crate::server::{self_cpu_seconds, Result, ServerProc};
use crate::stats::{median, percentile, sorted, tail_supported};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Names of the four workloads, in reporting order.
pub const NAMES: [&str; 4] = ["olap_adhoc", "serve_hot", "ingest_views", "recursive_fixpoint"];

/// Fresh-server set-ups timed per run; the run reports their median.
pub const SETUP_REPS: usize = 5;

/// A phase's rate is counted in this many equal slots and reported as the
/// median slot, so a burst of interference in one slot does not move it.
pub const SLOTS: usize = 5;

/// Completions per slot of one phase of one lane.
pub struct SlotCounter {
    start: Instant,
    slot: Duration,
    counts: [u64; SLOTS],
}

impl SlotCounter {
    pub fn start(run_for: Duration) -> SlotCounter {
        SlotCounter { start: Instant::now(), slot: run_for / SLOTS as u32, counts: [0; SLOTS] }
    }

    pub fn running(&self) -> bool {
        self.start.elapsed() < self.slot * SLOTS as u32
    }

    /// Count `n` completions now; one that lands after the phase's end
    /// belongs to no slot.
    pub fn add(&mut self, n: u64) {
        let k = (self.start.elapsed().as_nanos() / self.slot.as_nanos().max(1)) as usize;
        if let Some(c) = self.counts.get_mut(k) {
            *c += n;
        }
    }

    pub fn rates(&self) -> [f64; SLOTS] {
        self.counts.map(|c| c as f64 / self.slot.as_secs_f64())
    }
}

/// Rows per `BATCH` when bulk-loading a table during set-up.
const LOAD_CHUNK: usize = 10_000;

/// One kind of operation in a workload's mix.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    pub write: bool,
}

pub const fn read(name: &'static str) -> Kind {
    Kind { name, write: false }
}

pub const fn write(name: &'static str) -> Kind {
    Kind { name, write: true }
}

/// Where a workload's DDL, rows and queries go: the wire client for the
/// end-to-end run, an in-process session for the per-layer probes.
pub trait Target {
    fn script(&mut self, stmts: &[&str]) -> Result<()>;
    /// Append `rows`; returns the version the write is visible at.
    fn batch(&mut self, table: &str, rows: &[Tuple]) -> Result<u64>;
    fn query(&mut self, text: &str) -> Result<Vec<Tuple>>;
}

impl Target for Client {
    fn script(&mut self, stmts: &[&str]) -> Result<()> {
        let (results, _) = Client::script(self, stmts).map_err(|e| e.to_string())?;
        match results.into_iter().zip(stmts).find_map(|(r, s)| r.err().map(|e| (e, s))) {
            Some((e, stmt)) => Err(format!("{stmt}: {e}")),
            None => Ok(()),
        }
    }

    fn batch(&mut self, table: &str, rows: &[Tuple]) -> Result<u64> {
        let ack = Client::batch(self, table, rows).map_err(|e| e.to_string())?;
        if ack.rows == rows.len() {
            Ok(ack.version)
        } else {
            Err(format!("BATCH {table}: sent {} rows, {} acknowledged", rows.len(), ack.rows))
        }
    }

    fn query(&mut self, text: &str) -> Result<Vec<Tuple>> {
        Client::query(self, text).map(|r| r.rows).map_err(|e| e.to_string())
    }
}

impl Target for Session {
    fn script(&mut self, stmts: &[&str]) -> Result<()> {
        for s in stmts {
            Session::query(self, s).map_err(|e| format!("{s}: {e}"))?;
        }
        Ok(())
    }

    fn batch(&mut self, table: &str, rows: &[Tuple]) -> Result<u64> {
        self.insert_stream(table, [rows.to_vec()]).map_err(|e| e.to_string())?;
        Ok(self.version())
    }

    fn query(&mut self, text: &str) -> Result<Vec<Tuple>> {
        Session::query(self, text).map(|r| r.rows).map_err(|e| e.to_string())
    }
}

/// Bulk-load `rows` in set-up sized batches.
pub fn load_table(t: &mut dyn Target, table: &str, rows: &[Tuple]) -> Result<()> {
    for chunk in rows.chunks(LOAD_CHUNK) {
        t.batch(table, chunk)?;
    }
    Ok(())
}

/// One workload: its seeded inputs, how to set it up, how to drive it,
/// and how to check what it returned.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;
    /// `local` or `cluster:N` — the engine the server child runs.
    fn engine(&self) -> &'static str;
    fn kinds(&self) -> &'static [Kind];
    /// DDL, rows and views, in the order a user would issue them.
    fn load(&self, t: &mut dyn Target) -> Result<()>;
    /// A few operations of every kind, so caches and lazy set-up are done
    /// before timing starts.
    fn warm_up(&self, t: &mut dyn Target) -> Result<()>;
    /// Drive the measured window (about `seconds` long) against `addr`.
    fn measure(&self, addr: SocketAddr, seconds: f64) -> Result<Recorder>;
    /// Check recorded replies and the server's final state against the
    /// reference; failures are counted into `rec.failed`.
    fn verify(&self, c: &mut Client, rec: &mut Recorder) -> Result<()>;
    /// Operation `i` of `lane`, for the probes' sample and the
    /// determinism test.
    fn op(&self, lane: u64, i: u64) -> Op;
    /// The reference answer to a read operation, where it does not depend
    /// on concurrent or earlier writes.
    fn expected(&self, op: &Op) -> Option<Digest>;
    /// The operations the traced run replays layer by layer, in order:
    /// reads in the workload's own mix against the warmed-up state, then
    /// the writes that follow warm-up in the write stream; or, where every
    /// read follows a write, the head of that stream.
    fn sample(&self) -> Vec<Op>;
    /// A one-row read whose cached round trip is the wire's floor.
    fn probe_text(&self) -> String;
}

/// Generate `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "olap_adhoc" => Box::new(olap_adhoc::OlapAdhoc::generate(seed)),
        "serve_hot" => Box::new(serve_hot::ServeHot::generate(seed)),
        "ingest_views" => Box::new(ingest_views::IngestViews::generate(seed)),
        "recursive_fixpoint" => Box::new(recursive_fixpoint::RecursiveFixpoint::generate(seed)),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    })
}

/// A reply kept for checking after the window closes, so the reference
/// evaluator's time never sits inside a measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    pub lane: u64,
    pub index: u64,
    pub got: Digest,
}

/// Everything a measured window records. Threads fill their own and the
/// harness merges them.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency samples in nanoseconds, per kind (index into `kinds()`).
    pub lat_ns: Vec<Vec<u32>>,
    /// Operations sent, and those that errored, were refused, came late
    /// in the open loop, or returned a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Reads completed per second in each fifth of the read phase, summed
    /// over its connections; `queries_per_s` is the median fifth.
    pub read_slots: [f64; SLOTS],
    /// Rows acknowledged per second in each fifth of the write phase.
    pub write_slots: [f64; SLOTS],
    /// Rows acknowledged in total.
    pub rows_acked: u64,
    /// All operations completed, for CPU per operation.
    pub ops: u64,
    /// Replies awaiting the reference check.
    pub pending: Vec<Pending>,
    /// Whole replies by stream position, where the check needs the rows
    /// themselves and the order they were produced in.
    pub kept: Vec<(u64, Vec<Tuple>)>,
    /// Open-loop generator health: how late each send was, and the rate
    /// achieved against the rate scheduled.
    pub late_ns: Vec<u32>,
    pub scheduled_rate: f64,
    pub achieved_rate: f64,
    /// First failure seen, for the error message.
    pub first_failure: Option<String>,
}

impl Recorder {
    pub fn new(kinds: usize) -> Recorder {
        Recorder { lat_ns: vec![Vec::new(); kinds], ..Recorder::default() }
    }

    pub fn sample(&mut self, kind: usize, took: Duration) {
        self.lat_ns[kind].push(u32::try_from(took.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for k in 0..SLOTS {
            self.read_slots[k] += other.read_slots[k];
            self.write_slots[k] += other.write_slots[k];
        }
        self.rows_acked += other.rows_acked;
        self.ops += other.ops;
        self.pending.extend(other.pending);
        self.kept.extend(other.kept);
        self.late_ns.extend(other.late_ns);
        self.scheduled_rate += other.scheduled_rate;
        self.achieved_rate += other.achieved_rate;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// Sorted microsecond latencies of every read (or every write) kind.
    pub fn latencies_us(&self, kinds: &[Kind], writes: bool) -> Vec<f64> {
        let mut all = Vec::new();
        for (k, samples) in kinds.iter().zip(&self.lat_ns) {
            if k.write == writes {
                all.extend(samples.iter().map(|ns| f64::from(*ns) / 1e3));
            }
        }
        sorted(all)
    }

    /// Check every pending reply against `expected`.
    pub fn check_pending(&mut self, w: &dyn Workload) {
        for p in std::mem::take(&mut self.pending) {
            let op = w.op(p.lane, p.index);
            if w.expected(&op) != Some(p.got) {
                self.fail(|| format!("wrong answer to lane {} op {}: {op:?}", p.lane, p.index));
            }
        }
    }
}

/// Digest of reply rows, comparable with the reference evaluators'.
pub fn digest_rows(rows: &[Tuple]) -> Digest {
    let mut d = Digest::default();
    let mut buf = Vec::new();
    for row in rows {
        buf.clear();
        buf.extend(row.values().iter().map(|v| match v {
            Value::Int(i) => V::I(*i),
            Value::Double(x) => V::D(*x),
            // No workload selects other types; a marker value makes any
            // such reply mismatch instead of passing silently.
            _ => V::I(i64::MIN),
        }));
        d.add(&buf);
    }
    d
}

/// What one end-to-end run produced.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value)` in `metrics::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Measurements of the same run that are reported per layer (tail
    /// percentiles without enough samples on every workload, generator
    /// health, the server's own counters).
    pub side: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// `server.<key> <value>` lines of a `STATS` reply.
pub fn server_counters(c: &mut Client) -> Result<Vec<(String, f64)>> {
    let text = c.stats().map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter_map(|l| l.strip_prefix("server."))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| v.trim().parse().ok().map(|v| (k.to_string(), v)))
        .collect())
}

fn counter(stats: &[(String, f64)], key: &str) -> f64 {
    stats.iter().find(|(k, _)| k == key).map_or(0.0, |(_, v)| *v)
}

/// Set up, measure and verify one workload over the wire.
pub fn run(w: &dyn Workload, seconds: f64, setup_reps: usize) -> Result<Outcome> {
    let mut setups = Vec::new();
    let mut live = None;
    let setup_reps = setup_reps.max(1);
    for rep in 0..setup_reps {
        let t0 = Instant::now();
        let server = ServerProc::spawn(w.engine())?;
        let mut c = server.connect()?;
        w.load(&mut c)?;
        w.warm_up(&mut c)?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            drop(c);
            server.shutdown()?;
        } else {
            live = Some((server, c));
        }
    }
    let (server, mut c) = live.expect("at least one set-up ran");

    let stats0 = server_counters(&mut c)?;
    let (cpu0, drv0) = (server.cpu_seconds()?, self_cpu_seconds()?);
    let mut rec = w.measure(server.addr, seconds)?;
    let (cpu1, drv1) = (server.cpu_seconds()?, self_cpu_seconds()?);
    let stats1 = server_counters(&mut c)?;
    let delta = |key: &str| counter(&stats1, key) - counter(&stats0, key);

    w.verify(&mut c, &mut rec)?;
    let rss = server.peak_rss_mb()?;
    drop(c);
    server.shutdown()?;

    let kinds = w.kinds();
    let reads = rec.latencies_us(kinds, false);
    let writes = rec.latencies_us(kinds, true);
    let rate = |slots: [f64; SLOTS]| median(&sorted(slots.to_vec()));
    let ops = rec.ops.max(1) as f64;
    let end_to_end = vec![
        ("setup_s", median(&sorted(setups))),
        ("query_p50_us", percentile(&reads, 0.50)),
        ("query_p75_us", percentile(&reads, 0.75)),
        ("queries_per_s", rate(rec.read_slots)),
        ("write_ack_p50_us", percentile(&writes, 0.50)),
        ("write_ack_p90_us", percentile(&writes, 0.90)),
        ("ingest_rows_per_s", rate(rec.write_slots)),
        ("server_cpu_us_per_op", (cpu1 - cpu0) * 1e6 / ops),
        ("server_peak_rss_mb", rss),
    ];
    // A tail percentile is reported only where ten samples lie beyond it.
    let tail = |s: &[f64], p: f64| if tail_supported(s.len(), p) { percentile(s, p) } else { 0.0 };
    let late = sorted(rec.late_ns.iter().map(|ns| f64::from(*ns) / 1e3).collect());
    let queries = delta("queries").max(1.0);
    let publishes = delta("publishes");
    let side = vec![
        ("server.query_p90_us", tail(&reads, 0.90)),
        ("server.query_p99_us", tail(&reads, 0.99)),
        ("server.write_ack_p99_us", tail(&writes, 0.99)),
        ("server.cache_hit_ratio", delta("cache_hits") / queries),
        ("server.cache_evictions", delta("cache_evictions")),
        ("server.publishes", publishes),
        (
            "server.ops_per_publish",
            if publishes > 0.0 { delta("write_ops") / publishes } else { 0.0 },
        ),
        // Mean and max are lifetime values of the child, set-up included.
        ("server.publish_mean_us", counter(&stats1, "publish_mean_us")),
        ("server.publish_max_us", counter(&stats1, "publish_max_us")),
        ("gen.late_p99_us", percentile(&late, 0.99)),
        (
            "gen.achieved_rate",
            if rec.scheduled_rate > 0.0 { rec.achieved_rate / rec.scheduled_rate } else { 1.0 },
        ),
        ("gen.driver_cpu_us_per_op", (drv1 - drv0) * 1e6 / ops),
    ];
    Ok(Outcome {
        end_to_end,
        side,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        first_failure: rec.first_failure,
    })
}

/// Run `threads` closures on their own OS threads and merge what they
/// recorded; the first error wins.
pub fn run_lanes<F>(kinds: usize, lanes: Vec<F>) -> Result<Recorder>
where
    F: FnOnce() -> Result<Recorder> + Send,
{
    let results: Vec<Result<Recorder>> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes.into_iter().map(|f| s.spawn(f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a driver thread panicked".into())))
            .collect()
    });
    let mut all = Recorder::new(kinds);
    for r in results {
        all.merge(r?);
    }
    Ok(all)
}

/// One closed-loop writer: send `next(i)`'s batch, wait for the ack, repeat
/// from `first` until `run_for` has passed or `stop` is raised. Acks must
/// cover every row and carry strictly rising versions. It stops at the
/// first failure, so the acknowledged batches are always a prefix of the
/// stream and `verify` can replay them. Returns the recorder and the index
/// after the last acknowledged batch.
pub fn write_loop(
    addr: SocketAddr,
    kinds: usize,
    first: u64,
    run_for: Duration,
    mut next: impl FnMut(u64) -> Option<(usize, &'static str, Vec<Tuple>)>,
) -> Result<(Recorder, u64)> {
    let mut c = connect(addr)?;
    let mut rec = Recorder::new(kinds);
    let mut slots = SlotCounter::start(run_for);
    let (mut i, mut version) = (first, 0u64);
    while slots.running() {
        let Some((kind, table, rows)) = next(i) else { break };
        rec.attempted += 1;
        let t0 = Instant::now();
        match c.batch(table, &rows) {
            Ok(ack) if ack.rows == rows.len() && ack.version > version => {
                rec.sample(kind, t0.elapsed());
                slots.add(ack.rows as u64);
                rec.rows_acked += ack.rows as u64;
                version = ack.version;
            }
            other => {
                rec.fail(|| format!("BATCH {table} #{i}: {other:?}"));
                break;
            }
        }
        i += 1;
    }
    rec.write_slots = slots.rates();
    rec.ops += i - first;
    Ok((rec, i))
}

/// Connect one more client to the server under test.
pub fn connect(addr: SocketAddr) -> Result<Client> {
    Client::connect(addr).map(|(c, _)| c).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::op_list_hash;

    /// The first operations of every lane a workload drives.
    fn op_list(name: &str, seed: u64) -> Vec<Op> {
        let w = build(name, seed).unwrap();
        [0u64, 1, 100].iter().flat_map(|lane| (0..40).map(|i| w.op(*lane, i))).collect()
    }

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        for name in NAMES {
            let a = op_list_hash(&op_list(name, 11));
            assert_eq!(a, op_list_hash(&op_list(name, 11)), "{name}");
            assert_ne!(a, op_list_hash(&op_list(name, 12)), "{name}");
        }
    }

    #[test]
    fn olap_texts_are_unique_and_weighted_3_4_2_1() {
        let w = build("olap_adhoc", 11).unwrap();
        let mut texts = std::collections::BTreeSet::new();
        let mut per_kind = [0usize; 4];
        for lane in 0..2 {
            for i in 0..1000 {
                let Op::Query { kind, text, .. } = w.op(lane, i) else { panic!("reads only") };
                assert!(texts.insert(text), "lane {lane} op {i} repeats a text");
                per_kind[kind] += 1;
            }
        }
        assert_eq!(per_kind, [600, 800, 400, 200]);
    }

    #[test]
    fn references_answer_the_sampled_reads() {
        // Where a read's answer does not depend on writes, the workload
        // must be able to say what it is.
        for name in ["olap_adhoc", "serve_hot"] {
            let w = build(name, 11).unwrap();
            for op in w.sample().iter().filter(|op| matches!(op, Op::Query { .. })) {
                assert!(w.expected(op).is_some(), "{name}: {op:?}");
            }
        }
    }

    #[test]
    fn slot_counter_drops_completions_after_the_phase() {
        let mut s = SlotCounter::start(Duration::from_millis(50));
        s.add(3);
        assert!(s.running());
        std::thread::sleep(Duration::from_millis(60));
        assert!(!s.running());
        s.add(5);
        let rates = s.rates();
        assert_eq!(rates.iter().sum::<f64>(), 3.0 / 0.010);
    }
}
