//! `serve_hot`: a fully cached read mix on the local engine.
//!
//! `edges` (20k rows) and the grouped-count view `deg`; 64 query texts
//! (three view point-lookups to one base-table count) that all sit in the
//! result cache after warm-up. The server layer — socket, protocol,
//! cache lookup, flush — does all the work and the engine none: the
//! mirror image of `olap_adhoc`. Strict request/response on two
//! connections shows the per-round-trip cost (latencies), one connection
//! pipelined 256 deep shows the per-request software cost (throughput),
//! and a short write phase shows what a publish costs when it also drops
//! a hot cache.

use super::{
    connect, digest_rows, load_table, read, run_lanes, write, write_loop, Kind, Recorder,
    SlotCounter, Target, Workload,
};
use crate::api::e2e::{Client, Tuple, Value};
use crate::gen::{Op, Rng, DATA_SEED};
use crate::reference::{self, Digest, V};
use crate::server::Result;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const EDGES: usize = 20_000;
const SRCS: i64 = 200;
const TEXTS: usize = 64;
/// Strict connections: each has its client or its server thread
/// runnable, never both, so two fit the box's two cores.
const STRICT_READERS: u64 = 2;
/// A pipelined connection keeps its client thread and its server thread
/// busy at once, so one fills both cores. Two of them at window 32 (four
/// runnable threads, a wake-up every few requests) read 2.0–2.3 M/s run to
/// run and 1.4 M/s beside a busy neighbour; one at this window streams on
/// both sides and read 3.04–3.08 M/s.
const PIPELINED_READERS: u64 = 1;
const WINDOW: usize = 256;
/// Queries per pipelined call; the deadline is checked between calls.
const PIPELINE_CHUNK: usize = 8_192;
/// One strict reply in this many is decoded row by row and compared.
const CHECK_EVERY: u64 = 64;
const WRITE_BATCH: usize = 64;
const WRITE_LANE: u64 = 100;
/// Shares of the window: strict reads, pipelined reads, then writes.
const STRICT_SHARE: f64 = 0.4;
const PIPELINED_SHARE: f64 = 0.4;

const VIEW_LOOKUP: usize = 0;
const BASE_COUNT: usize = 1;
const EDGE_BATCH: usize = 2;
static KINDS: [Kind; 3] = [read("view_lookup"), read("base_count"), write("edge_batch")];

pub struct ServeHot {
    seed: u64,
    edges: Vec<(i64, i64)>,
    deg: BTreeMap<i64, i64>,
    /// The 64 texts with their kind and `src` literal.
    mix: Vec<(usize, String, i64)>,
}

impl ServeHot {
    pub fn generate(seed: u64) -> ServeHot {
        let mut rng = Rng::new(DATA_SEED);
        let edges: Vec<(i64, i64)> =
            (0..EDGES as i64).map(|i| (rng.between(0, SRCS - 1), i)).collect();
        let mut rng = Rng::new(seed);
        // Distinct literals per kind, so the 64 texts are 64 cache entries.
        let mut srcs: Vec<i64> = (0..SRCS).collect();
        for i in (1..srcs.len()).rev() {
            srcs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mix = (0..TEXTS)
            .map(|i| {
                let src = srcs[i];
                if i % 4 == 3 {
                    (BASE_COUNT, format!("SELECT count(*) FROM edges WHERE src = {src}"), src)
                } else {
                    (VIEW_LOOKUP, format!("SELECT * FROM deg WHERE src = {src}"), src)
                }
            })
            .collect();
        let deg = reference::degrees(&edges);
        ServeHot { seed, edges, deg, mix }
    }

    /// Each lane walks the 64 texts from its own offset.
    fn text_at(&self, lane: u64, i: u64) -> &(usize, String, i64) {
        &self.mix[(i as usize + lane as usize * 17) % TEXTS]
    }

    fn new_edges(&self, i: u64) -> Vec<(i64, i64)> {
        let mut rng = Rng::stream(self.seed, WRITE_LANE, i);
        (0..WRITE_BATCH)
            .map(|j| (rng.between(0, SRCS - 1), (EDGES + i as usize * WRITE_BATCH + j) as i64))
            .collect()
    }
}

fn edge_tuples(edges: &[(i64, i64)]) -> Vec<Tuple> {
    edges.iter().map(|(s, d)| Tuple::from_slice(&[Value::Int(*s), Value::Int(*d)])).collect()
}

impl Workload for ServeHot {
    fn name(&self) -> &'static str {
        "serve_hot"
    }

    fn engine(&self) -> &'static str {
        "local"
    }

    fn kinds(&self) -> &'static [Kind] {
        &KINDS
    }

    fn load(&self, t: &mut dyn Target) -> Result<()> {
        t.script(&[
            "CREATE TABLE edges (src INT, dst INT)",
            "CREATE MATERIALIZED VIEW deg AS SELECT src, count(*) FROM edges GROUP BY src",
        ])?;
        load_table(t, "edges", &edge_tuples(&self.edges))
    }

    fn warm_up(&self, t: &mut dyn Target) -> Result<()> {
        // Twice: the first pass fills the cache, the second hits it.
        for _ in 0..2 {
            for (_, text, _) in &self.mix {
                t.query(text)?;
            }
        }
        Ok(())
    }

    fn op(&self, lane: u64, i: u64) -> Op {
        if lane == WRITE_LANE {
            let rows = edge_tuples(&self.new_edges(i));
            return Op::Batch { kind: EDGE_BATCH, table: "edges", rows };
        }
        let (kind, text, src) = self.text_at(lane, i);
        Op::Query { kind: *kind, text: text.clone(), args: [*src, 0] }
    }

    fn expected(&self, op: &Op) -> Option<Digest> {
        let Op::Query { kind, args: [src, _], .. } = op else { return None };
        let n = self.deg.get(src).copied().unwrap_or(0);
        Some(match *kind {
            // A source without edges has no view row but a zero count.
            VIEW_LOOKUP if n == 0 => Digest::default(),
            VIEW_LOOKUP => Digest::of([&[V::I(*src), V::I(n)][..]]),
            _ => Digest::of([&[V::I(n)][..]]),
        })
    }

    fn sample(&self) -> Vec<Op> {
        (0..TEXTS as u64)
            .map(|i| self.op(0, i))
            .chain((0..16).map(|i| self.op(WRITE_LANE, i)))
            .collect()
    }

    fn probe_text(&self) -> String {
        self.mix[0].1.clone()
    }

    fn measure(&self, addr: SocketAddr, seconds: f64) -> Result<Recorder> {
        let strict_for = Duration::from_secs_f64(seconds * STRICT_SHARE);
        let piped_for = Duration::from_secs_f64(seconds * PIPELINED_SHARE);
        let write_for = Duration::from_secs_f64(seconds * (1.0 - STRICT_SHARE - PIPELINED_SHARE));
        let strict: Vec<_> = (0..STRICT_READERS)
            .map(|lane| move || self.strict_lane(addr, lane, strict_for))
            .collect();
        let mut rec = run_lanes(KINDS.len(), strict)?;
        let piped: Vec<_> = (0..PIPELINED_READERS)
            .map(|lane| move || self.pipelined_lane(addr, lane, piped_for))
            .collect();
        rec.merge(run_lanes(KINDS.len(), piped)?);
        let (writes, _) = write_loop(addr, KINDS.len(), 0, write_for, |i| {
            Some((EDGE_BATCH, "edges", edge_tuples(&self.new_edges(i))))
        })?;
        rec.merge(writes);
        Ok(rec)
    }

    fn verify(&self, c: &mut Client, rec: &mut Recorder) -> Result<()> {
        rec.check_pending(self);
        // The view must equal the grouped count over seed plus written edges.
        let batches = rec.lat_ns[EDGE_BATCH].len() as u64;
        let mut edges = self.edges.clone();
        for i in 0..batches {
            edges.extend(self.new_edges(i));
        }
        let mut want = Digest::default();
        for (s, n) in reference::degrees(&edges) {
            want.add(&[V::I(s), V::I(n)]);
        }
        rec.attempted += 1;
        let got = digest_rows(&Target::query(c, "SELECT * FROM deg")?);
        if got != want {
            rec.fail(|| format!("view deg after {batches} batches: got {got:?}, want {want:?}"));
        }
        Ok(())
    }
}

impl ServeHot {
    fn strict_lane(&self, addr: SocketAddr, lane: u64, run_for: Duration) -> Result<Recorder> {
        let mut c = connect(addr)?;
        let mut rec = Recorder::new(KINDS.len());
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < run_for {
            let (kind, text, _) = self.text_at(lane, i);
            let t0 = Instant::now();
            match c.query(text) {
                Ok(reply) => {
                    rec.sample(*kind, t0.elapsed());
                    if i.is_multiple_of(CHECK_EVERY) {
                        let got = digest_rows(&reply.rows);
                        rec.pending.push(super::Pending { lane, index: i, got });
                    }
                }
                Err(e) => rec.fail(|| format!("{text}: {e}")),
            }
            i += 1;
        }
        rec.attempted += i;
        rec.ops += i;
        Ok(rec)
    }

    /// Pipelined reads are checked by framing and row count (every text
    /// returns exactly one row); values are checked in the strict phase.
    fn pipelined_lane(&self, addr: SocketAddr, lane: u64, run_for: Duration) -> Result<Recorder> {
        let mut c = connect(addr)?;
        let mut rec = Recorder::new(KINDS.len());
        let queries: Vec<String> =
            (0..PIPELINE_CHUNK).map(|i| self.text_at(lane, i as u64).1.clone()).collect();
        let expect_rows = queries.len();
        let mut slots = SlotCounter::start(run_for);
        let mut done = 0u64;
        while slots.running() {
            rec.attempted += queries.len() as u64;
            match c.query_pipelined_skim(&queries, WINDOW) {
                Ok((rows, _)) if rows == expect_rows => {
                    done += queries.len() as u64;
                    slots.add(queries.len() as u64);
                }
                other => {
                    rec.failed += queries.len() as u64 - 1;
                    rec.fail(|| format!("pipelined chunk: {other:?}, want {expect_rows} rows"));
                }
            }
        }
        rec.read_slots = slots.rates();
        rec.ops += done;
        Ok(rec)
    }
}
