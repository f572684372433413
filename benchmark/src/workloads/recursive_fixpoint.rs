//! `recursive_fixpoint`: the paper's headline on the cluster engine —
//! iterate deltas to a fixpoint, and run again as the graph changes.
//!
//! `graph` is `GraphSpec::twitter(2000, DATA_SEED)` (66 845 edges) served by a
//! `cluster:4` engine. One closed-loop connection alternates a write and a
//! read: `BATCH` 8 new edges (a new version, so nothing is cached), then
//! in turn PageRank (Listing 1, `PRAgg` δ = 0.01, `UNION UNTIL FIXPOINT`),
//! shortest paths (Listing 2, `SPAgg`, `UNION ALL`) and plain-RQL
//! reachability from a seeded root. `core`'s fixpoint operator and the
//! cluster runtime and router do the work; views and the cache none.

use super::{
    connect, digest_rows, load_table, read, write, Kind, Recorder, SlotCounter, Target, Workload,
};
use crate::api::e2e::{generate_graph, Client, GraphSpec, Tuple, Value};
use crate::gen::{Op, Rng, DATA_SEED};
use crate::reference::{self, Digest};
use crate::server::{Result, PAGERANK_DELTA};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const VERTICES: usize = 2_000;
const EDGES_PER_BATCH: usize = 8;
/// Write batches generated up front; a window that outruns them ends
/// early instead of repeating an edge.
const MAX_BATCHES: usize = 6_000;
const LANE: u64 = 0;

const PAGERANK: usize = 0;
const SSSP: usize = 1;
const REACH: usize = 2;
const EDGE_BATCH: usize = 3;
static KINDS: [Kind; 4] = [read("pagerank"), read("sssp"), read("reach"), write("edge_batch")];

pub const PAGERANK_RQL: &str = "WITH PR (srcId, pr) AS (SELECT srcId, 1.0 AS pr FROM graph) \
     UNION UNTIL FIXPOINT BY srcId (\
     SELECT nbr, 0.15 + 0.85 * sum(prDiff) \
     FROM (SELECT PRAgg(srcId, pr).{nbr, prDiff} FROM graph, PR WHERE graph.srcId = PR.srcId) \
     GROUP BY nbr)";
pub const SSSP_RQL: &str = "WITH SP (srcId, dist) AS (SELECT srcId, dist FROM start) \
     UNION ALL UNTIL FIXPOINT BY srcId (\
     SELECT nbr, min(distOut) \
     FROM (SELECT SPAgg(nbrId, dist).{nbr, distOut} FROM graph, SP WHERE graph.srcId = SP.srcId) \
     GROUP BY nbr)";

/// The delta-propagating PageRank absorbs rank changes of at most δ at
/// every vertex instead of forwarding them, so it stops near, not at, the
/// fixpoint, and the gap grows with a vertex's in-degree and so with its
/// rank. Over `twitter(2000, seed)` for seeds 1–20 on `cluster:4` the worst
/// gap to the converged ranks was 0.52 on a rank of 45; beyond one δ it
/// never exceeded 1.2% of the rank. The check allows 5% of the rank plus
/// one δ — four times that, and far below what a lost edge or a dropped
/// delta batch would show.
fn pagerank_close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 0.05 * want + PAGERANK_DELTA
}

pub struct RecursiveFixpoint {
    seed: u64,
    edges: Vec<(u32, u32)>,
    source: u32,
    /// Write stream: `batches[b]` are the edges of the `b`-th write, none
    /// already in the graph.
    batches: Vec<Vec<(u32, u32)>>,
}

impl RecursiveFixpoint {
    pub fn generate(seed: u64) -> RecursiveFixpoint {
        let edges = generate_graph(GraphSpec::twitter(VERTICES, DATA_SEED)).edges;
        // Late vertices link to recent ones, so a late source reaches far.
        let source = Rng::new(DATA_SEED).between(VERTICES as i64 / 2, VERTICES as i64 - 1) as u32;
        let mut rng = Rng::new(seed);
        let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
        let batches = (0..MAX_BATCHES)
            .map(|_| {
                let mut batch = Vec::with_capacity(EDGES_PER_BATCH);
                while batch.len() < EDGES_PER_BATCH {
                    let e = (rng.below(VERTICES as u64) as u32, rng.below(VERTICES as u64) as u32);
                    if e.0 != e.1 && present.insert(e) {
                        batch.push(e);
                    }
                }
                batch
            })
            .collect();
        RecursiveFixpoint { seed, edges, source, batches }
    }

    fn adjacency(edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); VERTICES];
        for (s, t) in edges {
            adj[*s as usize].push(*t);
        }
        adj
    }

    /// The read at stream position `i` (odd positions are reads).
    fn read_at(&self, i: u64) -> (usize, String, i64) {
        match (i / 2) % 3 {
            0 => (PAGERANK, PAGERANK_RQL.to_string(), 0),
            1 => (SSSP, SSSP_RQL.to_string(), i64::from(self.source)),
            _ => {
                // Every vertex but the first few has out-edges; the
                // reference handles one that has none.
                let root = Rng::stream(self.seed, LANE, i).between(0, VERTICES as i64 - 1);
                let text = format!(
                    "WITH reach (id) AS (SELECT srcId FROM graph WHERE srcId = {root}) \
                     UNION UNTIL FIXPOINT BY id (\
                     SELECT graph.destId FROM graph, reach WHERE graph.srcId = reach.id)"
                );
                (REACH, text, root)
            }
        }
    }
}

fn edge_tuples(edges: &[(u32, u32)]) -> Vec<Tuple> {
    edges
        .iter()
        .map(|(s, t)| Tuple::from_slice(&[Value::Int(i64::from(*s)), Value::Int(i64::from(*t))]))
        .collect()
}

impl Workload for RecursiveFixpoint {
    fn name(&self) -> &'static str {
        "recursive_fixpoint"
    }

    fn engine(&self) -> &'static str {
        "cluster:4"
    }

    fn kinds(&self) -> &'static [Kind] {
        &KINDS
    }

    fn load(&self, t: &mut dyn Target) -> Result<()> {
        t.script(&[
            "CREATE TABLE graph (srcId INT, destId INT)",
            "CREATE TABLE start (srcId INT, dist DOUBLE)",
        ])?;
        load_table(t, "graph", &edge_tuples(&self.edges))?;
        load_table(
            t,
            "start",
            &[Tuple::from_slice(&[Value::Int(i64::from(self.source)), Value::Double(0.0)])],
        )
    }

    fn warm_up(&self, t: &mut dyn Target) -> Result<()> {
        // One read of each kind; the first measured write publishes a new
        // version, so nothing cached here is served later.
        for i in [1, 3, 5] {
            t.query(&self.read_at(i).1)?;
        }
        Ok(())
    }

    /// Even positions write, odd positions read.
    fn op(&self, _lane: u64, i: u64) -> Op {
        if i.is_multiple_of(2) {
            let rows = edge_tuples(&self.batches[(i / 2) as usize % MAX_BATCHES]);
            Op::Batch { kind: EDGE_BATCH, table: "graph", rows }
        } else {
            let (kind, text, arg) = self.read_at(i);
            Op::Query { kind, text, args: [arg, 0] }
        }
    }

    /// A read's answer depends on every write before it; `verify` replays
    /// the stream in order instead.
    fn expected(&self, _op: &Op) -> Option<Digest> {
        None
    }

    fn sample(&self) -> Vec<Op> {
        // The head of the stream itself, twelve writes each followed by a
        // read, four of each kind: as in the measured window, every read
        // meets a new version and so is computed, never served from cache.
        (0..24).map(|i| self.op(LANE, i)).collect()
    }

    fn probe_text(&self) -> String {
        "SELECT dist FROM start".to_string()
    }

    fn measure(&self, addr: SocketAddr, seconds: f64) -> Result<Recorder> {
        let run_for = Duration::from_secs_f64(seconds);
        let mut c = connect(addr)?;
        let mut rec = Recorder::new(KINDS.len());
        let mut read_slots = SlotCounter::start(run_for);
        let mut write_slots = SlotCounter::start(run_for);
        let (mut i, mut version) = (0u64, 0u64);
        while read_slots.running() && (i / 2) < MAX_BATCHES as u64 {
            rec.attempted += 1;
            match self.op(LANE, i) {
                Op::Batch { kind, table, rows } => {
                    let t0 = Instant::now();
                    match c.batch(table, &rows) {
                        Ok(ack) if ack.rows == rows.len() && ack.version > version => {
                            rec.sample(kind, t0.elapsed());
                            write_slots.add(ack.rows as u64);
                            rec.rows_acked += ack.rows as u64;
                            version = ack.version;
                        }
                        other => {
                            // The replay in verify() needs every write.
                            rec.fail(|| format!("BATCH graph #{i}: {other:?}"));
                            break;
                        }
                    }
                }
                Op::Query { kind, text, .. } => {
                    let t0 = Instant::now();
                    match c.query(&text) {
                        Ok(reply) if reply.version == version => {
                            rec.sample(kind, t0.elapsed());
                            rec.kept.push((i, reply.rows));
                            read_slots.add(1);
                        }
                        Ok(reply) => rec.fail(|| {
                            format!("read #{i} ran at version {}, wrote {version}", reply.version)
                        }),
                        Err(e) => rec.fail(|| format!("read #{i}: {e}")),
                    }
                }
            }
            i += 1;
        }
        rec.read_slots = read_slots.rates();
        rec.write_slots = write_slots.rates();
        rec.ops += i;
        Ok(rec)
    }

    fn verify(&self, _c: &mut Client, rec: &mut Recorder) -> Result<()> {
        let mut edges = self.edges.clone();
        let mut applied = 0usize;
        for (i, rows) in std::mem::take(&mut rec.kept) {
            // Writes at positions 0, 2, .., i-1 precede the read at i.
            let writes = (i as usize).div_ceil(2);
            for b in applied..writes {
                edges.extend(&self.batches[b]);
            }
            applied = writes;
            let (kind, _, arg) = self.read_at(i);
            let ok = match kind {
                PAGERANK => {
                    let want = reference::pagerank(&Self::adjacency(&edges), 1e-10);
                    let mut got = vec![0.15; VERTICES];
                    for r in &rows {
                        if let (Some(v), Some(x)) = (r.get(0).as_int(), r.get(1).as_double()) {
                            if let Some(slot) = got.get_mut(v as usize) {
                                *slot = x;
                            }
                        }
                    }
                    rows.len() <= VERTICES
                        && got.iter().zip(&want).all(|(g, w)| pagerank_close(*g, *w))
                }
                SSSP => {
                    digest_rows(&rows) == reference::shortest_paths(&edges, VERTICES, arg as u32)
                }
                _ => {
                    digest_rows(&rows) == reference::reachable(&Self::adjacency(&edges), arg as u32)
                }
            };
            if !ok {
                rec.fail(|| format!("wrong answer to {} at stream position {i}", KINDS[kind].name));
            }
        }
        Ok(())
    }
}
