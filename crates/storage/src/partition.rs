//! Consistent hashing and partition snapshots.
//!
//! "Data partitioning is based on keys rather than pages, and partitions are
//! chosen using a consistent hashing and data replication scheme known to
//! all nodes. ... every query in REX is distributed along with a snapshot of
//! the data partitions across the machines as seen by the query requestor.
//! All data will be routed according to this set of partitions, guaranteeing
//! that even as the network changes, data will be delivered to the same
//! place." (§4.1)

use rex_core::operators::hash_key;
use rex_core::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Number of virtual nodes per physical node on the ring; smooths the key
/// distribution across a small cluster.
pub const VNODES_PER_NODE: usize = 64;

/// A consistent-hash ring over physical node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Sorted (hash, node) pairs — the ring's virtual nodes.
    vnodes: Vec<(u64, usize)>,
    /// The physical nodes present on the ring, sorted.
    nodes: Vec<usize>,
}

fn vnode_hash(node: usize, replica: usize) -> u64 {
    let mut h = DefaultHasher::new();
    (node as u64, replica as u64, 0x5eed_u64).hash(&mut h);
    h.finish()
}

impl Ring {
    /// Build a ring over the given physical nodes.
    pub fn new(nodes: &[usize]) -> Ring {
        let mut sorted: Vec<usize> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut vnodes = Vec::with_capacity(sorted.len() * VNODES_PER_NODE);
        for &n in &sorted {
            for r in 0..VNODES_PER_NODE {
                vnodes.push((vnode_hash(n, r), n));
            }
        }
        vnodes.sort_unstable();
        Ring { vnodes, nodes: sorted }
    }

    /// The live physical nodes.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes remain.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The primary owner of a key hash.
    pub fn primary(&self, key_hash: u64) -> usize {
        debug_assert!(!self.vnodes.is_empty(), "ring has no nodes");
        let idx = match self.vnodes.binary_search_by(|(h, _)| h.cmp(&key_hash)) {
            Ok(i) => i,
            Err(i) => i % self.vnodes.len(),
        };
        self.vnodes[idx % self.vnodes.len()].1
    }

    /// The first `r` *distinct* nodes clockwise from the key hash: the
    /// primary followed by its replicas.
    pub fn owners(&self, key_hash: u64, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r.min(self.nodes.len()));
        if self.vnodes.is_empty() {
            return out;
        }
        let start = match self.vnodes.binary_search_by(|(h, _)| h.cmp(&key_hash)) {
            Ok(i) => i,
            Err(i) => i,
        };
        let n = self.vnodes.len();
        for off in 0..n {
            let node = self.vnodes[(start + off) % n].1;
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r.min(self.nodes.len()) {
                    break;
                }
            }
        }
        out
    }

    /// A new ring with `node` removed (node failure).
    pub fn without(&self, node: usize) -> Ring {
        let remaining: Vec<usize> = self.nodes.iter().copied().filter(|&n| n != node).collect();
        Ring::new(&remaining)
    }
}

/// The partition map a query is distributed with: a ring plus the query's
/// replication factor. Frozen at query start; recovery derives an updated
/// snapshot via [`PartitionSnapshot::without_node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSnapshot {
    ring: Ring,
    replication: usize,
}

impl PartitionSnapshot {
    /// Snapshot over `n` nodes (ids `0..n`) with replication factor `r`.
    pub fn new(n: usize, replication: usize) -> PartitionSnapshot {
        let nodes: Vec<usize> = (0..n).collect();
        PartitionSnapshot { ring: Ring::new(&nodes), replication: replication.max(1) }
    }

    /// Snapshot over explicit node ids.
    pub fn over(nodes: &[usize], replication: usize) -> PartitionSnapshot {
        PartitionSnapshot { ring: Ring::new(nodes), replication: replication.max(1) }
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Live nodes in this snapshot.
    pub fn nodes(&self) -> &[usize] {
        self.ring.nodes()
    }

    /// Number of live nodes.
    pub fn n_nodes(&self) -> usize {
        self.ring.len()
    }

    /// Primary owner of a key.
    pub fn owner_of_key(&self, key: &[Value]) -> usize {
        self.ring.primary(hash_key(key))
    }

    /// Primary owner of a pre-hashed key.
    pub fn owner_of_hash(&self, h: u64) -> usize {
        self.ring.primary(h)
    }

    /// Primary plus replicas for a key.
    pub fn owners_of_key(&self, key: &[Value]) -> Vec<usize> {
        self.ring.owners(hash_key(key), self.replication)
    }

    /// The snapshot after a node failure: "during each recovery process,
    /// the data partition snapshot gets updated to reflect the new set of
    /// nodes" (§4.1).
    pub fn without_node(&self, node: usize) -> PartitionSnapshot {
        PartitionSnapshot { ring: self.ring.without(node), replication: self.replication }
    }

    /// Whether `node` is live in this snapshot.
    pub fn contains(&self, node: usize) -> bool {
        self.ring.nodes().contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::value::Value;

    #[test]
    fn primary_is_deterministic() {
        let snap = PartitionSnapshot::new(4, 2);
        let k = vec![Value::Int(42)];
        assert_eq!(snap.owner_of_key(&k), snap.owner_of_key(&k));
    }

    #[test]
    fn owners_are_distinct_and_led_by_primary() {
        let snap = PartitionSnapshot::new(5, 3);
        for i in 0..100i64 {
            let k = vec![Value::Int(i)];
            let owners = snap.owners_of_key(&k);
            assert_eq!(owners.len(), 3);
            assert_eq!(owners[0], snap.owner_of_key(&k));
            let mut sorted = owners.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "owners must be distinct nodes");
        }
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let snap = PartitionSnapshot::new(2, 5);
        let owners = snap.owners_of_key(&[Value::Int(1)]);
        assert_eq!(owners.len(), 2);
    }

    #[test]
    fn keys_spread_across_nodes() {
        let snap = PartitionSnapshot::new(8, 1);
        let mut counts = [0usize; 8];
        for i in 0..8000i64 {
            counts[snap.owner_of_key(&[Value::Int(i)])] += 1;
        }
        // Every node owns something; no node owns more than half.
        for (n, &c) in counts.iter().enumerate() {
            assert!(c > 0, "node {n} owns nothing");
            assert!(c < 4000, "node {n} owns {c} of 8000 keys");
        }
    }

    #[test]
    fn failure_only_moves_failed_nodes_keys() {
        let snap = PartitionSnapshot::new(6, 1);
        let after = snap.without_node(3);
        let mut moved = 0;
        let mut total = 0;
        for i in 0..2000i64 {
            let k = vec![Value::Int(i)];
            let before_owner = snap.owner_of_key(&k);
            let after_owner = after.owner_of_key(&k);
            total += 1;
            if before_owner != after_owner {
                moved += 1;
                assert_eq!(before_owner, 3, "key moved although its owner did not fail");
            }
        }
        // Roughly 1/6 of the keys should move.
        assert!(moved > 0 && moved < total / 3);
    }

    #[test]
    fn failed_nodes_keys_fall_to_their_replicas() {
        let snap = PartitionSnapshot::new(5, 2);
        let after = snap.without_node(2);
        for i in 0..500i64 {
            let k = vec![Value::Int(i)];
            if snap.owner_of_key(&k) == 2 {
                let new_owner = after.owner_of_key(&k);
                let old_owners = snap.owners_of_key(&k);
                assert!(
                    old_owners.contains(&new_owner),
                    "takeover node {new_owner} held no replica ({old_owners:?})"
                );
            }
        }
    }

    #[test]
    fn ring_without_removes_node() {
        let r = Ring::new(&[0, 1, 2]);
        let r2 = r.without(1);
        assert_eq!(r2.nodes(), &[0, 2]);
        assert!(!r2.is_empty());
    }
}
