//! Network routing between workers.
//!
//! "Communication is achieved via TCP with destinations chosen by
//! partitions ... query processing passes batched messages" (§4.1). The
//! router partitions each rehash emission by key under the query's
//! partition snapshot, accounts the bytes that cross worker boundaries
//! (self-delivery is local and free), and aligns punctuation: a downstream
//! input sees a stratum punctuation only after *every* live worker's rehash
//! instance has punctuated that stratum.

use rex_core::delta::{Annotation, Delta, Punctuation};
use rex_core::exec::{Executor, NetEmission, NetKey, NodeId};
use rex_core::operators::{hash_key, hash_key_cols, Event};
use rex_storage::partition::PartitionSnapshot;
use std::collections::{HashMap, HashSet};

/// One routed batch: everything needed to deliver an event into a worker
/// without touching that worker's executor from the routing thread — the
/// unit the threaded cluster scheduler sends over worker-thread channels.
#[derive(Debug)]
pub struct Delivery {
    /// Receiving worker.
    pub target: usize,
    /// Network-boundary node (delivery re-enters downstream of it).
    pub node: NodeId,
    /// Output port of the boundary node.
    pub port: usize,
    /// The routed event.
    pub event: Event,
    /// Bytes this delivery moved across worker boundaries (0 for
    /// self-delivery) — credited to the target's `bytes_received`.
    pub bytes: u64,
}

/// Where a routed batch came from: sender, boundary node/port, and the
/// cluster width (bucket-table size for hash routing).
#[derive(Clone, Copy)]
struct BatchCtx {
    from_worker: usize,
    node: NodeId,
    port: usize,
    n_workers: usize,
}

/// Routes rehash traffic among a set of worker executors.
#[derive(Default)]
pub struct Router {
    /// Punctuation arrivals: (rehash node, port, punct) → workers heard.
    punct_counts: HashMap<(NodeId, usize, Punctuation), HashSet<usize>>,
    /// Total bytes that crossed worker boundaries.
    pub bytes_crossed: u64,
    /// Messages delivered across worker boundaries.
    pub messages_crossed: u64,
    /// Boundary-crossing bytes by routing mode: key-partitioned rehash.
    pub rehash_bytes: u64,
    /// Boundary-crossing bytes replicated by broadcast boundaries.
    pub broadcast_bytes: u64,
    /// Boundary-crossing bytes funneled through gather boundaries.
    pub gather_bytes: u64,
    /// Rows (deltas) delivered *into* each worker, self-delivery included
    /// — the router's view of per-worker load. Indexed by worker id;
    /// grown on demand.
    pub rows_routed: Vec<u64>,
}

impl Router {
    /// Fresh router (one per query attempt).
    pub fn new() -> Router {
        Router::default()
    }

    /// Count `rows` delivered into `worker`.
    #[inline]
    fn tally_rows(&mut self, worker: usize, rows: u64) {
        if self.rows_routed.len() <= worker {
            self.rows_routed.resize(worker + 1, 0);
        }
        self.rows_routed[worker] += rows;
    }

    /// Deliver an outbox of rehash emissions from `from_worker` into the
    /// executors of all live workers. Returns the number of injections made
    /// (used by the scheduler's quiescence check).
    pub fn route(
        &mut self,
        from_worker: usize,
        outbox: Vec<NetEmission>,
        executors: &mut [Executor],
        live: &[usize],
        snap: &PartitionSnapshot,
    ) -> usize {
        let n_workers = executors.len();
        let (deliveries, sent) = {
            let ex: &[Executor] = executors;
            let net_key = move |node: NodeId| {
                ex[from_worker]
                    .network_key(node)
                    .expect("outbox emission from a non-network node")
                    .clone()
            };
            self.route_batches(from_worker, outbox, &net_key, live, snap, n_workers)
        };
        executors[from_worker].metrics.bytes_sent += sent;
        let injected = deliveries.len();
        for d in deliveries {
            executors[d.target].metrics.bytes_received += d.bytes;
            executors[d.target].inject_downstream(d.node, d.port, d.event);
        }
        injected
    }

    /// The routing decision itself, with no executor access: partition an
    /// outbox into per-target [`Delivery`]s (in deterministic emission
    /// order) and account every router-side counter. Returns the
    /// deliveries plus the sender's total `bytes_sent` credit. [`Router::route`]
    /// is exactly this plus local injection, and the threaded cluster
    /// scheduler sends the same deliveries over worker-thread channels —
    /// so inline and threaded execution route identically by
    /// construction.
    pub fn route_batches(
        &mut self,
        from_worker: usize,
        outbox: Vec<NetEmission>,
        net_key: &dyn Fn(NodeId) -> NetKey,
        live: &[usize],
        snap: &PartitionSnapshot,
        n_workers: usize,
    ) -> (Vec<Delivery>, u64) {
        let mut deliveries = Vec::new();
        let mut sent = 0u64;
        for em in outbox {
            // Every data form crosses the boundary as deltas: partition
            // routing is per-row and must split cross-partition
            // replacements, so bare and columnar batches route as the
            // insertions they are.
            let deltas = match em.event {
                Event::Data(deltas) => deltas,
                Event::Rows(rows) => rows.into_iter().map(Delta::insert).collect(),
                Event::Cols(batch) => batch.to_rows().into_iter().map(Delta::insert).collect(),
                Event::Punct(p) => {
                    self.batch_punct(
                        from_worker,
                        em.node,
                        em.port,
                        p,
                        live,
                        &mut deliveries,
                        &mut sent,
                    );
                    continue;
                }
            };
            self.batch_data(
                BatchCtx { from_worker, node: em.node, port: em.port, n_workers },
                deltas,
                net_key,
                live,
                snap,
                &mut deliveries,
                &mut sent,
            );
        }
        (deliveries, sent)
    }

    #[allow(clippy::too_many_arguments)]
    fn batch_data(
        &mut self,
        ctx: BatchCtx,
        deltas: Vec<Delta>,
        net_key: &dyn Fn(NodeId) -> NetKey,
        live: &[usize],
        snap: &PartitionSnapshot,
        out: &mut Vec<Delivery>,
        sent: &mut u64,
    ) {
        let BatchCtx { from_worker, node, port, n_workers } = ctx;
        let key_cols: Vec<usize> = match net_key(node) {
            // A broadcast boundary replicates the full batch to every live
            // worker (small relations joined against everything, e.g.
            // K-means centroids against the point partitions).
            NetKey::Broadcast => {
                let n_rows = deltas.len() as u64;
                let event = Event::Data(deltas);
                let bytes = event.byte_size() as u64;
                for &target in live {
                    let crossed = target != from_worker;
                    if crossed {
                        *sent += bytes;
                        self.bytes_crossed += bytes;
                        self.broadcast_bytes += bytes;
                        self.messages_crossed += 1;
                    }
                    self.tally_rows(target, n_rows);
                    out.push(Delivery {
                        target,
                        node,
                        port,
                        event: event.clone(),
                        bytes: if crossed { bytes } else { 0 },
                    });
                }
                return;
            }
            // A gather boundary funnels everything to one deterministic
            // worker — the owner of the empty key (global aggregates).
            NetKey::Gather => {
                let target = snap.owner_of_hash(hash_key(&[]));
                let n_rows = deltas.len() as u64;
                let event = Event::Data(deltas);
                let crossed = target != from_worker;
                let bytes = if crossed { event.byte_size() as u64 } else { 0 };
                if crossed {
                    *sent += bytes;
                    self.bytes_crossed += bytes;
                    self.gather_bytes += bytes;
                    self.messages_crossed += 1;
                }
                self.tally_rows(target, n_rows);
                out.push(Delivery { target, node, port, event, bytes });
                return;
            }
            NetKey::Hash(cols) => cols,
        };
        // Bucket by owner with a worker-indexed table — no hashing to pick
        // the bucket a routed delta lands in.
        let mut per_target: Vec<Vec<Delta>> = vec![Vec::new(); n_workers];
        for d in deltas {
            // A replacement whose old tuple lives in a different partition
            // must be split into a routed delete plus a routed insert.
            if let Annotation::Replace(old) = &d.ann {
                let old_owner = snap.owner_of_hash(hash_key_cols(old, &key_cols));
                let new_owner = snap.owner_of_hash(hash_key_cols(&d.tuple, &key_cols));
                if old_owner != new_owner {
                    per_target[old_owner].push(Delta::delete(old.clone()));
                    per_target[new_owner].push(Delta::insert(d.tuple.clone()));
                    continue;
                }
            }
            let owner = snap.owner_of_hash(hash_key_cols(&d.tuple, &key_cols));
            per_target[owner].push(d);
        }
        for (target, batch) in per_target.into_iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            let n_rows = batch.len() as u64;
            let event = Event::Data(batch);
            let crossed = target != from_worker;
            let bytes = if crossed { event.byte_size() as u64 } else { 0 };
            if crossed {
                *sent += bytes;
                self.bytes_crossed += bytes;
                self.rehash_bytes += bytes;
                self.messages_crossed += 1;
            }
            self.tally_rows(target, n_rows);
            out.push(Delivery { target, node, port, event, bytes });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn batch_punct(
        &mut self,
        from_worker: usize,
        node: NodeId,
        port: usize,
        p: Punctuation,
        live: &[usize],
        out: &mut Vec<Delivery>,
        sent: &mut u64,
    ) {
        // Broadcast cost: one tiny message to every other live worker.
        let bcast = Event::Punct(p).byte_size() as u64 * (live.len().saturating_sub(1)) as u64;
        *sent += bcast;
        self.bytes_crossed += bcast;

        let heard = self.punct_counts.entry((node, port, p)).or_default();
        heard.insert(from_worker);
        if heard.len() >= live.len() {
            self.punct_counts.remove(&(node, port, p));
            for &w in live {
                out.push(Delivery { target: w, node, port, event: Event::Punct(p), bytes: 0 });
            }
        }
    }

    /// Forget a worker's pending punctuation contributions (on failure).
    pub fn forget_worker(&mut self, worker: usize) {
        for heard in self.punct_counts.values_mut() {
            heard.remove(&worker);
        }
    }

    /// Drop all routing state.
    pub fn clear(&mut self) {
        self.punct_counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::exec::PlanGraph;
    use rex_core::operators::{SinkOp, UnionOp};
    use rex_core::tuple;

    /// Build a minimal 2-worker setup: rehash(0) -> union -> sink.
    fn setup(n: usize) -> (Vec<Executor>, PartitionSnapshot) {
        let mut executors = Vec::new();
        for w in 0..n {
            let mut g = PlanGraph::new();
            let rh = g.add_rehash(vec![0]);
            let un = g.add(Box::new(UnionOp::new(1)));
            let sink = g.add(Box::new(SinkOp::new()));
            g.pipe(rh, un);
            g.pipe(un, sink);
            executors.push(Executor::new(g, w, true));
        }
        (executors, PartitionSnapshot::new(n, 1))
    }

    #[test]
    fn data_routes_by_key_owner() {
        let (mut ex, snap) = setup(2);
        let live = vec![0, 1];
        let mut router = Router::new();
        // Find keys owned by each worker.
        let mut k0 = None;
        let mut k1 = None;
        for i in 0..100i64 {
            match snap.owner_of_key(&[rex_core::value::Value::Int(i)]) {
                0 if k0.is_none() => k0 = Some(i),
                1 if k1.is_none() => k1 = Some(i),
                _ => {}
            }
        }
        let (k0, k1) = (k0.unwrap(), k1.unwrap());
        let out = vec![NetEmission {
            node: 0,
            port: 0,
            event: Event::Data(vec![Delta::insert(tuple![k0]), Delta::insert(tuple![k1])]),
        }];
        router.route(0, out, &mut ex, &live, &snap);
        // Worker 0 self-delivered k0 (no bytes), shipped k1 to worker 1.
        assert!(router.bytes_crossed > 0);
        assert_eq!(ex[1].metrics.bytes_received, router.bytes_crossed);
        assert_eq!(router.rehash_bytes, router.bytes_crossed);
        assert_eq!(router.broadcast_bytes + router.gather_bytes, 0);
        assert_eq!(router.rows_routed, vec![1, 1]);
        let reg = rex_core::udf::Registry::new();
        let cost = rex_core::metrics::CostModel::default();
        let mut outbox = Vec::new();
        ex[0].drain(&reg, &cost, &mut outbox).unwrap();
        ex[1].drain(&reg, &cost, &mut outbox).unwrap();
        assert_eq!(ex[0].sink_results().unwrap(), vec![tuple![k0]]);
        assert_eq!(ex[1].sink_results().unwrap(), vec![tuple![k1]]);
    }

    #[test]
    fn punct_waits_for_all_workers() {
        let (mut ex, snap) = setup(3);
        let live = vec![0, 1, 2];
        let mut router = Router::new();
        let punct_em = |_w: usize| {
            vec![NetEmission {
                node: 0,
                port: 0,
                event: Event::Punct(Punctuation::EndOfStratum(0)),
            }]
        };
        assert_eq!(router.route(0, punct_em(0), &mut ex, &live, &snap), 0);
        assert_eq!(router.route(1, punct_em(1), &mut ex, &live, &snap), 0);
        // Third arrival releases the punct to all three workers.
        assert_eq!(router.route(2, punct_em(2), &mut ex, &live, &snap), 3);
    }

    #[test]
    fn empty_key_rehash_broadcasts_to_all_workers() {
        let mut executors = Vec::new();
        for w in 0..3 {
            let mut g = PlanGraph::new();
            let rh = g.add_rehash(vec![]); // broadcast
            let sink = g.add(Box::new(SinkOp::new()));
            g.pipe(rh, sink);
            executors.push(Executor::new(g, w, true));
        }
        let snap = PartitionSnapshot::new(3, 1);
        let live = vec![0, 1, 2];
        let mut router = Router::new();
        let out = vec![NetEmission {
            node: 0,
            port: 0,
            event: Event::Data(vec![Delta::insert(tuple![42i64])]),
        }];
        router.route(1, out, &mut executors, &live, &snap);
        let reg = rex_core::udf::Registry::new();
        let cost = rex_core::metrics::CostModel::default();
        for ex in &mut executors {
            ex.drain(&reg, &cost, &mut Vec::new()).unwrap();
        }
        for ex in &mut executors {
            assert_eq!(ex.sink_results().unwrap(), vec![tuple![42i64]]);
        }
        // Two cross-worker copies (self-delivery is free).
        assert_eq!(router.messages_crossed, 2);
        assert_eq!(executors[1].metrics.bytes_sent, router.bytes_crossed);
        assert_eq!(router.broadcast_bytes, router.bytes_crossed);
        assert_eq!(router.rows_routed, vec![1, 1, 1]);
    }

    #[test]
    fn cross_partition_replace_splits() {
        let (mut ex, snap) = setup(2);
        let live = vec![0, 1];
        let mut router = Router::new();
        // Find a pair of keys with different owners.
        let mut a = None;
        let mut b = None;
        for i in 0..100i64 {
            match snap.owner_of_key(&[rex_core::value::Value::Int(i)]) {
                0 if a.is_none() => a = Some(i),
                1 if b.is_none() => b = Some(i),
                _ => {}
            }
        }
        let (a, b) = (a.unwrap(), b.unwrap());
        let out = vec![NetEmission {
            node: 0,
            port: 0,
            event: Event::Data(vec![Delta::replace(tuple![a], tuple![b])]),
        }];
        router.route(0, out, &mut ex, &live, &snap);
        let reg = rex_core::udf::Registry::new();
        let cost = rex_core::metrics::CostModel::default();
        let mut outbox = Vec::new();
        ex[0].drain(&reg, &cost, &mut outbox).unwrap();
        ex[1].drain(&reg, &cost, &mut outbox).unwrap();
        // Worker 0 saw a delete (nothing in sink), worker 1 the insert.
        assert!(ex[0].sink_results().unwrap().is_empty());
        assert_eq!(ex[1].sink_results().unwrap(), vec![tuple![b]]);
    }
}
