//! Stored tables: schema + rows, partitionable by key columns.

use rex_core::error::{Result, RexError};
use rex_core::operators::hash_key_cols;
use rex_core::tuple::{Schema, Tuple};
use rex_core::value::Value;
use std::collections::HashMap;

use crate::partition::PartitionSnapshot;

/// An in-memory stored table. Rows are validated against the schema on
/// insertion; the table knows which columns it is partitioned on.
#[derive(Debug, Clone)]
pub struct StoredTable {
    name: String,
    schema: Schema,
    /// Partitioning key columns (indices into the schema).
    partition_cols: Vec<usize>,
    rows: Vec<Tuple>,
    /// Cached total byte size of `rows`, maintained by every mutation so
    /// scan cost accounting is O(1) instead of a pass over the table.
    bytes: u64,
}

impl StoredTable {
    /// Create an empty table partitioned on `partition_cols`.
    pub fn new(name: impl Into<String>, schema: Schema, partition_cols: Vec<usize>) -> StoredTable {
        StoredTable { name: name.into(), schema, partition_cols, rows: Vec::new(), bytes: 0 }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partition key columns.
    pub fn partition_cols(&self) -> &[usize] {
        &self.partition_cols
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Validate and append a row.
    pub fn insert(&mut self, row: Tuple) -> Result<()> {
        self.schema.check(&row)?;
        self.bytes += row.byte_size() as u64;
        self.rows.push(row);
        Ok(())
    }

    /// Bulk load rows (validated).
    pub fn load(&mut self, rows: Vec<Tuple>) -> Result<()> {
        for r in rows {
            self.insert(r)?;
        }
        Ok(())
    }

    /// Bulk load without per-row validation (trusted generators).
    pub fn load_unchecked(&mut self, mut rows: Vec<Tuple>) {
        self.bytes += rows.iter().map(|t| t.byte_size() as u64).sum::<u64>();
        self.rows.append(&mut rows);
    }

    /// Remove one occurrence of each given row without validating presence
    /// (the catalog validates the whole batch first). Rows not found are
    /// ignored; returns the number actually removed. One pass over the
    /// table: O(stored + batch), not O(stored × batch).
    pub fn remove_unchecked(&mut self, rows: &[Tuple]) -> usize {
        let mut pending: HashMap<&Tuple, usize> = HashMap::new();
        for r in rows {
            *pending.entry(r).or_insert(0) += 1;
        }
        self.remove_counted(pending)
    }

    /// Remove tuples by pre-counted multiplicity (a caller that already
    /// built the count map — the catalog's validated delete — hands it
    /// over instead of recounting the batch).
    pub fn remove_counted(&mut self, mut pending: HashMap<&Tuple, usize>) -> usize {
        let before = self.rows.len();
        let mut removed_bytes = 0u64;
        self.rows.retain(|r| match pending.get_mut(r) {
            Some(n) if *n > 0 => {
                *n -= 1;
                removed_bytes += r.byte_size() as u64;
                false
            }
            _ => true,
        });
        self.bytes -= removed_bytes;
        before - self.rows.len()
    }

    /// Replace the table's entire contents (used when a materialized view
    /// syncs its maintained state into the catalog).
    pub fn replace_rows(&mut self, rows: Vec<Tuple>) {
        self.bytes = rows.iter().map(|t| t.byte_size() as u64).sum();
        self.rows = rows;
    }

    /// Apply a signed-multiplicity delta: remove `removes` (pre-counted,
    /// like [`remove_counted`](Self::remove_counted)) and append
    /// `inserts`, in one pass each — the table-level half of
    /// delta-granular view synchronization. Returns the number of rows
    /// actually removed so the caller can detect divergence between the
    /// delta and the stored contents.
    pub fn apply_delta(&mut self, removes: HashMap<&Tuple, usize>, inserts: Vec<Tuple>) -> usize {
        let removed = if removes.is_empty() { 0 } else { self.remove_counted(removes) };
        self.load_unchecked(inserts);
        removed
    }

    /// [`apply_delta`](Self::apply_delta) on a copy, built at its exact
    /// size in one pass: the copy-on-write path for a table a snapshot
    /// still shares, which would otherwise clone every row and then regrow
    /// the clone to append. Returns the copy and the rows removed.
    pub fn with_delta(
        &self,
        mut removes: HashMap<&Tuple, usize>,
        inserts: Vec<Tuple>,
    ) -> (StoredTable, usize) {
        let want: usize = removes.values().sum();
        let len = self.rows.len() - want.min(self.rows.len()) + inserts.len();
        let mut rows = Vec::with_capacity(len);
        let mut removed_bytes = 0u64;
        if removes.is_empty() {
            rows.extend_from_slice(&self.rows);
        } else {
            for r in &self.rows {
                match removes.get_mut(r) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        removed_bytes += r.byte_size() as u64;
                    }
                    _ => rows.push(r.clone()),
                }
            }
        }
        let removed = self.rows.len() - rows.len();
        let mut copy = StoredTable { rows, bytes: self.bytes - removed_bytes, ..self.empty_like() };
        copy.load_unchecked(inserts);
        (copy, removed)
    }

    /// This table's name, schema and partitioning, with no rows.
    pub fn empty_like(&self) -> StoredTable {
        StoredTable::new(self.name.clone(), self.schema.clone(), self.partition_cols.clone())
    }

    /// The partition key of a row.
    pub fn partition_key(&self, row: &Tuple) -> Vec<Value> {
        row.key(&self.partition_cols)
    }

    /// The rows owned by `node` under `snap` (primary ownership).
    pub fn partition_for(&self, snap: &PartitionSnapshot, node: usize) -> Vec<Tuple> {
        // Hash each row's partition columns in place: per-worker lowering
        // calls this for every worker, so an owned key per row would be
        // `workers × rows` allocations per query.
        self.rows
            .iter()
            .filter(|r| snap.owner_of_hash(hash_key_cols(r, &self.partition_cols)) == node)
            .cloned()
            .collect()
    }

    /// All nodes' primary partitions in one pass: each row's partition key
    /// is hashed exactly once, against `workers × rows` hashes when every
    /// worker calls [`partition_for`](Self::partition_for) separately.
    /// The result is indexed by node id (nodes absent from the snapshot
    /// get empty partitions).
    pub fn partition_all(&self, snap: &PartitionSnapshot) -> Vec<Vec<Tuple>> {
        let slots = snap.nodes().iter().copied().max().map_or(0, |m| m + 1);
        let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); slots];
        for r in &self.rows {
            let owner = snap.owner_of_hash(hash_key_cols(r, &self.partition_cols));
            parts[owner].push(r.clone());
        }
        parts
    }

    /// The rows for which `node` is primary *or* replica — the replicated
    /// local storage a node can serve during recovery (§4.1).
    pub fn replica_partition_for(&self, snap: &PartitionSnapshot, node: usize) -> Vec<Tuple> {
        self.rows
            .iter()
            .filter(|r| snap.owners_of_key(&self.partition_key(r)).contains(&node))
            .cloned()
            .collect()
    }

    /// Total bytes of the table (for scan cost accounting), maintained
    /// incrementally — O(1).
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Resolve a column name.
    pub fn column(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| RexError::Storage(format!("table {}: no column {name}", self.name)))
    }
}

impl AsRef<[Tuple]> for StoredTable {
    fn as_ref(&self) -> &[Tuple] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::value::DataType;

    fn table() -> StoredTable {
        let schema = Schema::of(&[("srcId", DataType::Int), ("destId", DataType::Int)]);
        StoredTable::new("graph", schema, vec![0])
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = table();
        assert!(t.insert(tuple![1i64, 2i64]).is_ok());
        assert!(t.insert(tuple![1i64]).is_err());
        assert!(t.insert(tuple!["x", 2i64]).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn partitions_cover_table_disjointly() {
        let mut t = table();
        for i in 0..200i64 {
            t.insert(tuple![i, i + 1]).unwrap();
        }
        let snap = PartitionSnapshot::new(4, 1);
        let mut total = 0;
        for node in 0..4 {
            total += t.partition_for(&snap, node).len();
        }
        assert_eq!(total, 200);
    }

    #[test]
    fn replica_partitions_overlap_by_replication_factor() {
        let mut t = table();
        for i in 0..100i64 {
            t.insert(tuple![i, i + 1]).unwrap();
        }
        let snap = PartitionSnapshot::new(4, 2);
        let total: usize = (0..4).map(|n| t.replica_partition_for(&snap, n).len()).sum();
        assert_eq!(total, 200, "each row stored at 2 nodes");
    }

    /// The copy-on-write path builds exactly what the in-place path
    /// leaves behind: same rows in the same order, same byte count.
    #[test]
    fn with_delta_matches_apply_delta() {
        let mut t = table();
        t.load((0..6i64).map(|i| tuple![i % 3, i]).collect()).unwrap();
        t.insert(tuple![1i64, 1i64]).unwrap();
        let (gone, inserts) = (tuple![1i64, 1i64], vec![tuple![9i64, 9i64]]);
        let removes = || HashMap::from([(&gone, 1usize)]);
        let (copy, removed) = t.with_delta(removes(), inserts.clone());
        let mut in_place = t.clone();
        assert_eq!(in_place.apply_delta(removes(), inserts), removed);
        assert_eq!((copy.rows(), copy.byte_size()), (in_place.rows(), in_place.byte_size()));
        assert_eq!(copy.rows().len(), copy.rows.capacity(), "sized exactly");
    }

    #[test]
    fn column_resolution() {
        let t = table();
        assert_eq!(t.column("srcid").unwrap(), 0);
        assert_eq!(t.column("destId").unwrap(), 1);
        assert!(t.column("bogus").is_err());
    }
}
