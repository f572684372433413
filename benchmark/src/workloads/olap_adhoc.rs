//! `olap_adhoc`: ad hoc analytical reads on the local engine.
//!
//! Tables `t` (200k × (k, a, b)) and `dim` (20k) are the repo's
//! `exec_throughput` tables. Two closed-loop strict connections replay a
//! stream in which every query text is unique, so the result cache
//! misses; four shapes weighted 3:4:2:1 put the median inside the two
//! cheap shapes and the tail inside the two heavy ones. A short write
//! phase then appends 256-row batches to the view-less fact table — the
//! write path with no maintenance in it.

use super::{
    connect, digest_rows, load_table, read, run_lanes, write, write_loop, Kind, Pending, Recorder,
    SlotCounter, Target, Workload,
};
use crate::api::e2e::{Client, Tuple, Value};
use crate::gen::{Op, Rng, DATA_SEED};
use crate::reference::{self, Digest, TRow};
use crate::server::Result;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const T_ROWS: usize = 200_000;
const DIM_ROWS: usize = 20_000;
/// Closed-loop reader connections: one per core of the 2-core box.
const READERS: u64 = 2;
/// Lane of the writer's stream.
const WRITE_LANE: u64 = 100;
const WRITE_BATCH: usize = 256;
/// Share of the window spent reading; the rest appends.
const READ_SHARE: f64 = 0.7;

const SFP_SELECTIVE: usize = 0;
const TOPK_GROUP: usize = 1;
const JOIN_GROUP: usize = 2;
const SFP_HALF: usize = 3;
const APPEND: usize = 4;
static KINDS: [Kind; 5] = [
    read("sfp_selective"),
    read("topk_group"),
    read("join_group"),
    read("sfp_half"),
    write("append"),
];

/// Ten operations in the 3:4:2:1 weights, heavy shapes spread out.
const MIX: [usize; 10] = [
    TOPK_GROUP,
    SFP_SELECTIVE,
    JOIN_GROUP,
    TOPK_GROUP,
    SFP_SELECTIVE,
    TOPK_GROUP,
    SFP_HALF,
    SFP_SELECTIVE,
    TOPK_GROUP,
    JOIN_GROUP,
];

pub struct OlapAdhoc {
    seed: u64,
    t: Vec<TRow>,
    dim: BTreeMap<i64, i64>,
}

impl OlapAdhoc {
    pub fn generate(seed: u64) -> OlapAdhoc {
        let mut rng = Rng::new(DATA_SEED);
        let t = (0..T_ROWS)
            .map(|i| TRow { k: (i % DIM_ROWS) as i64, a: rng.between(0, 99), b: rng.dyadic(999) })
            .collect();
        let dim = (0..DIM_ROWS as i64).map(|k| (k, k % 64)).collect();
        OlapAdhoc { seed, t, dim }
    }

    fn append_rows(&self, i: u64) -> Vec<Tuple> {
        let mut rng = Rng::stream(self.seed, WRITE_LANE, i);
        (0..WRITE_BATCH)
            .map(|_| {
                Tuple::from_slice(&[
                    Value::Int(rng.between(0, DIM_ROWS as i64 - 1)),
                    Value::Int(rng.between(0, 99)),
                    Value::Double(rng.dyadic(999)),
                ])
            })
            .collect()
    }
}

fn t_tuple(r: &TRow) -> Tuple {
    Tuple::from_slice(&[Value::Int(r.k), Value::Int(r.a), Value::Double(r.b)])
}

impl Workload for OlapAdhoc {
    fn name(&self) -> &'static str {
        "olap_adhoc"
    }

    fn engine(&self) -> &'static str {
        "local"
    }

    fn kinds(&self) -> &'static [Kind] {
        &KINDS
    }

    fn load(&self, t: &mut dyn Target) -> Result<()> {
        t.script(&[
            "CREATE TABLE t (k INT, a INT, b DOUBLE)",
            "CREATE TABLE dim (k INT, g INT, w DOUBLE)",
        ])?;
        let rows: Vec<Tuple> = self.t.iter().map(t_tuple).collect();
        load_table(t, "t", &rows)?;
        let dim: Vec<Tuple> = self
            .dim
            .iter()
            .map(|(k, g)| {
                Tuple::from_slice(&[Value::Int(*k), Value::Int(*g), Value::Double(*k as f64)])
            })
            .collect();
        load_table(t, "dim", &dim)
    }

    fn warm_up(&self, t: &mut dyn Target) -> Result<()> {
        // Lane READERS is never measured, so these texts stay unique.
        for i in 0..8 {
            if let Op::Query { text, .. } = self.op(READERS, i) {
                t.query(&text)?;
            }
        }
        Ok(())
    }

    fn op(&self, lane: u64, i: u64) -> Op {
        if lane == WRITE_LANE {
            return Op::Batch { kind: APPEND, table: "t", rows: self.append_rows(i) };
        }
        let mut rng = Rng::stream(self.seed, lane, i);
        // A permutation of 0..4000 over (lane, i): no `lo` literal repeats
        // within 2000 operations of a lane, so no text does either.
        let lo = ((i * (READERS + 1) + lane) * 1237 % 4000) as i64;
        // The 3:4:2:1 weights hold exactly over every ten operations, so
        // no two runs differ in their mix; lanes start at different points.
        let kind = MIX[((i + lane * 5) % MIX.len() as u64) as usize];
        let thr = match kind {
            SFP_SELECTIVE => rng.between(8, 12),
            TOPK_GROUP => 0,
            JOIN_GROUP => rng.between(86, 95),
            _ => rng.between(48, 52),
        };
        let text = match kind {
            SFP_SELECTIVE | SFP_HALF => {
                format!("SELECT k, a + 1, b * 2.0 FROM t WHERE a < {thr} AND k >= {lo}")
            }
            TOPK_GROUP => format!(
                "SELECT a, count(*), sum(b) FROM t WHERE k >= {lo} GROUP BY a \
                 HAVING count(*) > 10 ORDER BY 2 DESC LIMIT 10"
            ),
            _ => format!(
                "SELECT dim.g, count(*), sum(t.b) FROM t, dim \
                 WHERE t.k = dim.k AND t.a < {thr} AND t.k >= {lo} GROUP BY dim.g"
            ),
        };
        Op::Query { kind, text, args: [thr, lo] }
    }

    fn expected(&self, op: &Op) -> Option<Digest> {
        let Op::Query { kind, args: [thr, lo], .. } = op else { return None };
        Some(match *kind {
            SFP_SELECTIVE | SFP_HALF => reference::scan_filter_project(&self.t, *thr, *lo),
            TOPK_GROUP => reference::topk_group(&self.t, *lo),
            _ => reference::join_group(&self.t, &self.dim, *thr, *lo),
        })
    }

    fn sample(&self) -> Vec<Op> {
        // Lane READERS + 1 is unmeasured and not used by warm-up.
        (0..40)
            .map(|i| self.op(READERS + 1, i))
            .chain((0..8).map(|i| self.op(WRITE_LANE, i)))
            .collect()
    }

    fn probe_text(&self) -> String {
        "SELECT g FROM dim WHERE k = 1".to_string()
    }

    fn measure(&self, addr: SocketAddr, seconds: f64) -> Result<Recorder> {
        let read_for = Duration::from_secs_f64(seconds * READ_SHARE);
        let lanes: Vec<_> =
            (0..READERS).map(|lane| move || self.read_lane(addr, lane, read_for)).collect();
        let mut rec = run_lanes(KINDS.len(), lanes)?;
        let write_for = Duration::from_secs_f64(seconds * (1.0 - READ_SHARE));
        let (writes, _) = write_loop(addr, KINDS.len(), 0, write_for, |i| {
            Some((APPEND, "t", self.append_rows(i)))
        })?;
        rec.merge(writes);
        Ok(rec)
    }

    fn verify(&self, c: &mut Client, rec: &mut Recorder) -> Result<()> {
        rec.check_pending(self);
        // Every acknowledged row must be in the table.
        let acked = rec.rows_acked;
        let rows = Target::query(c, "SELECT count(*) FROM t")?;
        rec.attempted += 1;
        if rows.first().and_then(|r| r.get(0).as_int()) != Some((T_ROWS as u64 + acked) as i64) {
            rec.fail(|| format!("t holds {rows:?} rows, expected {}", T_ROWS as u64 + acked));
        }
        Ok(())
    }
}

impl OlapAdhoc {
    fn read_lane(&self, addr: SocketAddr, lane: u64, run_for: Duration) -> Result<Recorder> {
        let mut c = connect(addr)?;
        let mut rec = Recorder::new(KINDS.len());
        let mut slots = SlotCounter::start(run_for);
        let mut i = 0;
        while slots.running() {
            let Op::Query { kind, text, .. } = self.op(lane, i) else { unreachable!() };
            rec.attempted += 1;
            let t0 = Instant::now();
            match c.query(&text) {
                Ok(reply) => {
                    rec.sample(kind, t0.elapsed());
                    slots.add(1);
                    rec.pending.push(Pending { lane, index: i, got: digest_rows(&reply.rows) });
                }
                Err(e) => rec.fail(|| format!("{text}: {e}")),
            }
            i += 1;
        }
        rec.read_slots = slots.rates();
        rec.ops += i;
        Ok(rec)
    }
}
