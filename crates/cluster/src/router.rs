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
use rex_core::exec::{NetEmission, NetKey, NodeId};
use rex_core::operators::{hash_key, hash_key_cols, Event};
use rex_storage::partition::PartitionSnapshot;
use std::collections::{HashMap, HashSet};

/// One routed batch: everything needed to deliver an event into a worker
/// without touching that worker's executor from the routing thread — the
/// unit the cluster scheduler hands to the share that owns the target.
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

    /// Route one worker's outbox, with no executor access: partition it
    /// into per-target [`Delivery`]s (in deterministic emission order) and
    /// account every router-side counter. Returns the deliveries plus the
    /// sender's total `bytes_sent` credit; the cluster scheduler hands both
    /// to the share that owns each worker.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::tuple::Tuple;
    use rex_core::value::Value;

    /// The first key in 0..100 each of `n` workers owns.
    fn key_per_owner(snap: &PartitionSnapshot, n: usize) -> Vec<i64> {
        (0..n)
            .map(|w| (0..100i64).find(|&i| snap.owner_of_key(&[Value::Int(i)]) == w).unwrap())
            .collect()
    }

    fn data(deltas: Vec<Delta>) -> Vec<NetEmission> {
        vec![NetEmission { node: 0, port: 0, event: Event::Data(deltas) }]
    }

    /// Route `outbox` from `from` through a boundary keyed by `key`.
    fn route_via(
        router: &mut Router,
        from: usize,
        outbox: Vec<NetEmission>,
        key: NetKey,
        snap: &PartitionSnapshot,
    ) -> (Vec<Delivery>, u64) {
        let live: Vec<usize> = (0..snap.n_nodes()).collect();
        router.route_batches(from, outbox, &|_| key.clone(), &live, snap, live.len())
    }

    fn rows(d: &Delivery) -> Vec<Delta> {
        match &d.event {
            Event::Data(deltas) => deltas.clone(),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn data_routes_by_key_owner() {
        let snap = PartitionSnapshot::new(2, 1);
        let k = key_per_owner(&snap, 2);
        let mut router = Router::new();
        let out = data(vec![Delta::insert(tuple![k[0]]), Delta::insert(tuple![k[1]])]);
        let (ds, sent) = route_via(&mut router, 0, out, NetKey::Hash(vec![0]), &snap);
        // Worker 0 self-delivered k0 (no bytes), shipped k1 to worker 1.
        assert_eq!(ds.iter().map(|d| d.target).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(rows(&ds[0]), vec![Delta::insert(tuple![k[0]])]);
        assert_eq!(rows(&ds[1]), vec![Delta::insert(tuple![k[1]])]);
        assert_eq!(ds[0].bytes, 0);
        assert!(ds[1].bytes > 0);
        assert_eq!(sent, ds[1].bytes);
        assert_eq!(router.bytes_crossed, sent);
        assert_eq!(router.rehash_bytes, router.bytes_crossed);
        assert_eq!(router.broadcast_bytes + router.gather_bytes, 0);
        assert_eq!(router.rows_routed, vec![1, 1]);
    }

    #[test]
    fn punct_waits_for_all_workers() {
        let snap = PartitionSnapshot::new(3, 1);
        let mut router = Router::new();
        let p = Punctuation::EndOfStratum(0);
        let punct = || vec![NetEmission { node: 0, port: 0, event: Event::Punct(p) }];
        let key = NetKey::Hash(vec![0]);
        let bcast = Event::Punct(p).byte_size() as u64 * 2;
        for from in 0..2 {
            let (ds, sent) = route_via(&mut router, from, punct(), key.clone(), &snap);
            assert!(ds.is_empty(), "released before worker 2 punctuated");
            assert_eq!(sent, bcast);
        }
        // Third arrival releases the punct to all three workers.
        let (ds, sent) = route_via(&mut router, 2, punct(), key, &snap);
        assert_eq!(sent, bcast);
        assert_eq!(ds.iter().map(|d| d.target).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ds.iter().all(|d| matches!(d.event, Event::Punct(q) if q == p) && d.bytes == 0));
    }

    #[test]
    fn broadcast_boundary_replicates_to_all_workers() {
        let snap = PartitionSnapshot::new(3, 1);
        let mut router = Router::new();
        let out = data(vec![Delta::insert(tuple![42i64])]);
        let (ds, sent) = route_via(&mut router, 1, out, NetKey::Broadcast, &snap);
        assert_eq!(ds.iter().map(|d| d.target).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(ds.iter().all(|d| rows(d) == vec![Delta::insert(tuple![42i64])]));
        // Two cross-worker copies (self-delivery is free).
        assert_eq!(ds.iter().filter(|d| d.bytes > 0).count(), 2);
        assert_eq!(ds[1].bytes, 0);
        assert_eq!(sent, router.bytes_crossed);
        assert_eq!(router.broadcast_bytes, router.bytes_crossed);
        assert_eq!(router.rows_routed, vec![1, 1, 1]);
    }

    #[test]
    fn cross_partition_replace_splits() {
        let snap = PartitionSnapshot::new(2, 1);
        let k = key_per_owner(&snap, 2);
        let (a, b): (Tuple, Tuple) = (tuple![k[0]], tuple![k[1]]);
        let mut router = Router::new();
        let out = data(vec![Delta::replace(a.clone(), b.clone())]);
        let (ds, sent) = route_via(&mut router, 0, out, NetKey::Hash(vec![0]), &snap);
        // Worker 0 gets the delete of the old tuple, worker 1 the insert.
        assert_eq!(ds.iter().map(|d| d.target).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(rows(&ds[0]), vec![Delta::delete(a)]);
        assert_eq!(rows(&ds[1]), vec![Delta::insert(b)]);
        assert_eq!(sent, ds[1].bytes);
    }
}
