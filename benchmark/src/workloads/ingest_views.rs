//! `ingest_views`: streamed ingest with four materialized views, read
//! beside the writes on the same versions.
//!
//! One closed-loop writer sends 64-row batches into `orders` — three
//! incrementally maintained views read it (`spend` group-by, `region_spend`
//! join + group-by with max, `big` filter/project) — and every eighth
//! operation a 4-row batch into `org`, which the recursive view `reports`
//! reads and which costs a full recompute: the median ack lands on
//! incremental maintenance, the tail and the row rate on the recompute.
//! One open-loop reader issues point reads of the views at a fixed rate,
//! timed from each read's due time; every publish drops the result cache,
//! so most reads miss it — the opposite use of the cache from `serve_hot`.

use super::{
    connect, digest_rows, load_table, read, run_lanes, write, write_loop, Kind, Recorder, Target,
    Workload, SLOTS,
};
use crate::api::e2e::{Client, Tuple, Value};
use crate::gen::{Op, Rng, DATA_SEED};
use crate::reference::{self, Digest, Order};
use crate::server::Result;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const ORDERS: usize = 100_000;
const CUSTOMERS: i64 = 5_000;
const REGIONS: i64 = 16;
const STAFF: i64 = 20_000;
/// `amt` is a multiple of 0.25 up to 999.75; `big` keeps the top tenth.
const AMT_QUARTERS: u64 = 3_999;
const BIG_FLOOR: f64 = 900.0;
const ORDER_BATCH: usize = 64;
const ORG_BATCH: usize = 4;
/// Every this-many-th write goes to `org`.
const ORG_EVERY: u64 = 8;
/// Writes issued by warm-up; the measured stream continues after them.
const WARM_WRITES: u64 = 8;
const WRITE_LANE: u64 = 100;
const READ_LANE: u64 = 0;
/// Open-loop read rate: a fifth of one core at ~1 ms per cache-missing
/// read, so the reader loads the server without saturating it.
const READS_PER_S: f64 = 200.0;
/// Sending fewer than this share of the scheduled reads means the
/// generator could not keep up: the run is invalid, not slow.
const MIN_ACHIEVED: f64 = 0.95;

const VIEWS: [&str; 4] = ["spend", "region_spend", "big", "reports"];
const ORDERS_BATCH: usize = 4;
const ORG_BATCH_KIND: usize = 5;
static KINDS: [Kind; 6] = [
    read("spend"),
    read("region_spend"),
    read("big"),
    read("reports"),
    write("orders_batch"),
    write("org_batch"),
];

pub struct IngestViews {
    seed: u64,
    orders: Vec<Order>,
    region_of: BTreeMap<i64, i64>,
    org: Vec<(i64, i64)>,
}

impl IngestViews {
    pub fn generate(seed: u64) -> IngestViews {
        let mut rng = Rng::new(DATA_SEED);
        let orders = (0..ORDERS as i64)
            .map(|oid| Order {
                oid,
                cust: rng.between(0, CUSTOMERS - 1),
                amt: rng.dyadic(AMT_QUARTERS),
            })
            .collect();
        let region_of = (0..CUSTOMERS).map(|c| (c, c % REGIONS)).collect();
        // A management forest rooted at employee 0: everyone reports to
        // someone hired earlier.
        let org = (1..STAFF).map(|emp| (emp, rng.between(0, emp - 1))).collect();
        IngestViews { seed, orders, region_of, org }
    }

    fn is_org_write(i: u64) -> bool {
        i % ORG_EVERY == ORG_EVERY - 1
    }

    fn new_orders(&self, i: u64) -> Vec<Order> {
        let mut rng = Rng::stream(self.seed, WRITE_LANE, i);
        (0..ORDER_BATCH as i64)
            .map(|j| Order {
                oid: ORDERS as i64 + i as i64 * ORDER_BATCH as i64 + j,
                cust: rng.between(0, CUSTOMERS - 1),
                amt: rng.dyadic(AMT_QUARTERS),
            })
            .collect()
    }

    fn new_staff(&self, i: u64) -> Vec<(i64, i64)> {
        let mut rng = Rng::stream(self.seed, WRITE_LANE, i);
        (0..ORG_BATCH as i64)
            .map(|j| {
                let emp = STAFF + (i / ORG_EVERY) as i64 * ORG_BATCH as i64 + j;
                (emp, rng.between(0, emp - 1))
            })
            .collect()
    }

    fn write_op(&self, i: u64) -> (usize, &'static str, Vec<Tuple>) {
        if Self::is_org_write(i) {
            (ORG_BATCH_KIND, "org", pair_tuples(&self.new_staff(i)))
        } else {
            (ORDERS_BATCH, "orders", order_tuples(&self.new_orders(i)))
        }
    }
}

fn order_tuples(orders: &[Order]) -> Vec<Tuple> {
    orders
        .iter()
        .map(|o| Tuple::from_slice(&[Value::Int(o.oid), Value::Int(o.cust), Value::Double(o.amt)]))
        .collect()
}

fn pair_tuples(pairs: &[(i64, i64)]) -> Vec<Tuple> {
    pairs.iter().map(|(a, b)| Tuple::from_slice(&[Value::Int(*a), Value::Int(*b)])).collect()
}

impl Workload for IngestViews {
    fn name(&self) -> &'static str {
        "ingest_views"
    }

    fn engine(&self) -> &'static str {
        "local"
    }

    fn kinds(&self) -> &'static [Kind] {
        &KINDS
    }

    fn load(&self, t: &mut dyn Target) -> Result<()> {
        t.script(&[
            "CREATE TABLE orders (oid INT, cust INT, amt DOUBLE)",
            "CREATE TABLE cust (cust INT, region INT)",
            "CREATE TABLE org (emp INT, mgr INT)",
            "CREATE TABLE roots (emp INT)",
        ])?;
        load_table(t, "orders", &order_tuples(&self.orders))?;
        let cust: Vec<(i64, i64)> = self.region_of.iter().map(|(c, r)| (*c, *r)).collect();
        load_table(t, "cust", &pair_tuples(&cust))?;
        load_table(t, "org", &pair_tuples(&self.org))?;
        load_table(t, "roots", &[Tuple::from_slice(&[Value::Int(0)])])?;
        t.script(&[
            "CREATE MATERIALIZED VIEW spend AS \
             SELECT cust, count(*), sum(amt) FROM orders GROUP BY cust",
            "CREATE MATERIALIZED VIEW region_spend AS \
             SELECT cust.region, count(*), sum(orders.amt), max(orders.amt) \
             FROM orders, cust WHERE orders.cust = cust.cust GROUP BY cust.region",
            "CREATE MATERIALIZED VIEW big AS \
             SELECT oid, cust, amt * 2.0 FROM orders WHERE amt > 900.0",
            "CREATE MATERIALIZED VIEW reports AS \
             WITH r (emp) AS (SELECT emp FROM roots) UNION UNTIL FIXPOINT BY emp \
             (SELECT org.emp FROM org, r WHERE org.mgr = r.emp)",
        ])
    }

    fn warm_up(&self, t: &mut dyn Target) -> Result<()> {
        for i in 0..WARM_WRITES {
            let (_, table, rows) = self.write_op(i);
            t.batch(table, &rows)?;
        }
        // Lane 1 is never measured.
        for i in 0..8 {
            if let Op::Query { text, .. } = self.op(READ_LANE + 1, i) {
                t.query(&text)?;
            }
        }
        Ok(())
    }

    fn op(&self, lane: u64, i: u64) -> Op {
        if lane == WRITE_LANE {
            let (kind, table, rows) = self.write_op(i);
            return Op::Batch { kind, table, rows };
        }
        let mut rng = Rng::stream(self.seed, lane, i);
        let kind = (i % VIEWS.len() as u64) as usize;
        let (col, key) = match kind {
            0 | 2 => ("cust", rng.between(0, CUSTOMERS - 1)),
            1 => ("region", rng.between(0, REGIONS - 1)),
            _ => ("emp", rng.between(0, STAFF - 1)),
        };
        let text = format!("SELECT * FROM {} WHERE {col} = {key}", VIEWS[kind]);
        Op::Query { kind, text, args: [key, 0] }
    }

    /// Reads race the writer, so their answers depend on the version they
    /// ran at; they are checked for monotone versions during the run and
    /// the views are checked in full afterwards.
    fn expected(&self, _op: &Op) -> Option<Digest> {
        None
    }

    fn sample(&self) -> Vec<Op> {
        // Four org batches fall among 32 writes.
        let writes = (WARM_WRITES..WARM_WRITES + 32).map(|i| self.op(WRITE_LANE, i));
        (0..64).map(|i| self.op(READ_LANE, i)).chain(writes).collect()
    }

    fn probe_text(&self) -> String {
        "SELECT * FROM region_spend WHERE region = 0".to_string()
    }

    fn measure(&self, addr: SocketAddr, seconds: f64) -> Result<Recorder> {
        let run_for = Duration::from_secs_f64(seconds);
        type Lane<'a> = Box<dyn FnOnce() -> Result<Recorder> + Send + 'a>;
        let lanes: Vec<Lane> = vec![
            Box::new(move || {
                write_loop(addr, KINDS.len(), WARM_WRITES, run_for, |i| Some(self.write_op(i)))
                    .map(|(rec, _)| rec)
            }),
            Box::new(move || self.open_loop_reader(addr, run_for)),
        ];
        run_lanes(KINDS.len(), lanes)
    }

    fn verify(&self, c: &mut Client, rec: &mut Recorder) -> Result<()> {
        // Replay the acknowledged prefix of the write stream.
        let acked = WARM_WRITES
            + (rec.lat_ns[ORDERS_BATCH].len() + rec.lat_ns[ORG_BATCH_KIND].len()) as u64;
        let mut orders = self.orders.clone();
        let mut org = self.org.clone();
        for i in 0..acked {
            if Self::is_org_write(i) {
                org.extend(self.new_staff(i));
            } else {
                orders.extend(self.new_orders(i));
            }
        }
        let want = [
            reference::spend(&orders),
            reference::region_spend(&orders, &self.region_of),
            reference::big(&orders, BIG_FLOOR),
            reference::reports(&org, &[0]),
        ];
        for (view, want) in VIEWS.iter().zip(want) {
            rec.attempted += 1;
            let got = digest_rows(&Target::query(c, &format!("SELECT * FROM {view}"))?);
            if got != want {
                rec.fail(|| {
                    format!("view {view} after {acked} writes: got {got:?}, want {want:?}")
                });
            }
        }
        Ok(())
    }
}

impl IngestViews {
    /// Reads are due every `1/READS_PER_S` seconds whatever the server
    /// does. One strict connection sends them, so a slow reply delays the
    /// next send; latency runs from the due time and therefore includes
    /// that wait.
    fn open_loop_reader(&self, addr: SocketAddr, run_for: Duration) -> Result<Recorder> {
        let mut c = connect(addr)?;
        let mut rec = Recorder::new(KINDS.len());
        let interval = Duration::from_secs_f64(1.0 / READS_PER_S);
        let scheduled = (run_for.as_secs_f64() * READS_PER_S) as u64;
        let start = Instant::now();
        let mut version = 0u64;
        let mut sent = 0u64;
        for i in 0..scheduled {
            let due = start + interval * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late = due.elapsed();
            if due + late > start + run_for {
                break; // the window closed with this read still queued
            }
            let Op::Query { kind, text, .. } = self.op(READ_LANE, i) else { unreachable!() };
            sent += 1;
            rec.late_ns.push(u32::try_from(late.as_nanos()).unwrap_or(u32::MAX));
            match c.query(&text) {
                Ok(reply) if reply.version >= version => {
                    rec.sample(kind, due.elapsed());
                    version = reply.version;
                }
                Ok(reply) => {
                    rec.fail(|| format!("{text}: version {} after {version}", reply.version))
                }
                Err(e) => rec.fail(|| format!("{text}: {e}")),
            }
        }
        // A stall delays the reads queued behind it and their latency,
        // timed from the due time, shows it; only a backlog that is still
        // there when the window closes makes the unsent reads failures.
        rec.attempted += sent;
        if (sent as f64) < MIN_ACHIEVED * scheduled as f64 {
            rec.attempted += scheduled - sent;
            rec.failed += scheduled - sent - 1;
            rec.fail(|| format!("open-loop reader sent {sent} of {scheduled} scheduled reads"));
        }
        rec.ops += sent;
        rec.scheduled_rate = READS_PER_S;
        rec.achieved_rate = sent as f64 / run_for.as_secs_f64();
        // The schedule fixes the rate, so every slot reads the same: reads
        // completed over the time the last one took to come back.
        rec.read_slots = [sent as f64 / start.elapsed().as_secs_f64(); SLOTS];
        Ok(rec)
    }
}
