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

    /// Remove one occurrence per count in `pending` without validating
    /// presence (the catalog's delete validates the whole batch first and
    /// hands its count map over). Rows not found are ignored; returns the
    /// number actually removed. One pass over the table: O(stored + batch),
    /// not O(stored × batch).
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

    /// Replace the table's entire contents (trusted rows, not validated).
    pub fn replace_rows(&mut self, rows: Vec<Tuple>) {
        self.bytes = rows.iter().map(|t| t.byte_size() as u64).sum();
        self.rows = rows;
    }

    /// A copy with `rows` appended, built at its exact size in one pass:
    /// the copy-on-write append for a table a snapshot still shares, which
    /// would otherwise clone every row and then regrow the clone.
    pub fn with_appended(&self, rows: Vec<Tuple>) -> StoredTable {
        let mut all = Vec::with_capacity(self.rows.len() + rows.len());
        all.extend_from_slice(&self.rows);
        let mut copy = StoredTable { rows: all, bytes: self.bytes, ..self.empty_like() };
        copy.load_unchecked(rows);
        copy
    }

    /// Apply a signed-multiplicity delta to this table, which must be in
    /// tuple order (a materialized view's) and stays so: each `(tuple, n)`
    /// in `removes` drops `n` occurrences and every insert lands at its
    /// sorted position. Both are found by binary search, so a pass costs
    /// O(delta · log rows) comparisons plus one move of every row, with no
    /// row hashed or cloned. A removal the table does not hold refuses the
    /// whole delta before anything changes: `Err` carries how many of the
    /// asked rows are stored.
    pub fn apply_delta(
        &mut self,
        mut removes: Vec<(Tuple, usize)>,
        mut inserts: Vec<Tuple>,
    ) -> std::result::Result<(), usize> {
        debug_assert!(self.rows.is_sorted(), "table {} is not in tuple order", self.name);
        inserts.sort_unstable();
        removes.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        removes.dedup_by(|later, kept| {
            later.0 == kept.0 && {
                kept.1 += later.1;
                true
            }
        });
        // Every edit at the row index it applies to, in order. Inserts go
        // first so that at an index both touch, the insert lands before the
        // dropped rows.
        let inserted = inserts.len();
        let mut edits: Vec<(usize, Edit)> = inserts
            .into_iter()
            .map(|t| (self.rows.partition_point(|r| *r < t), Edit::Insert(t)))
            .collect();
        let (mut want, mut stored) = (0, 0);
        for (t, n) in removes {
            let at = self.rows.partition_point(|r| *r < t);
            want += n;
            stored += self.rows[at..].iter().take(n).take_while(|r| **r == t).count();
            edits.push((at, Edit::Drop(n)));
        }
        if stored < want {
            return Err(stored);
        }
        edits.sort_by_key(|(at, _)| *at);
        let mut old = std::mem::take(&mut self.rows).into_iter();
        self.rows.reserve_exact(old.len() - want + inserted);
        let mut next = 0;
        for (at, edit) in edits {
            self.rows.extend(old.by_ref().take(at - next));
            next = at;
            match edit {
                Edit::Insert(t) => {
                    self.bytes += t.byte_size() as u64;
                    self.rows.push(t);
                }
                Edit::Drop(n) => {
                    self.bytes -= old.by_ref().take(n).map(|r| r.byte_size() as u64).sum::<u64>();
                    next += n;
                }
            }
        }
        self.rows.extend(old);
        Ok(())
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

/// One change of [`StoredTable::apply_delta`], at a row index.
enum Edit {
    Insert(Tuple),
    /// Drop the `n` rows starting at the index.
    Drop(usize),
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

    /// A delta keeps a sorted table sorted: removals drop their
    /// occurrences, inserts land at their sorted position (one equal to a
    /// removed row too), and the byte count follows.
    #[test]
    fn apply_delta_keeps_a_sorted_table_sorted() {
        let mut t = table();
        t.load((0..6i64).map(|i| tuple![i / 2, i % 2]).collect()).unwrap();
        let mut want = t.rows().to_vec();
        let removes = vec![(tuple![1i64, 0i64], 1), (tuple![2i64, 1i64], 1)];
        let inserts = vec![tuple![9i64, 9i64], tuple![0i64, 5i64], tuple![1i64, 0i64]];
        t.apply_delta(removes, inserts).unwrap();
        want.retain(|r| *r != tuple![2i64, 1i64]);
        want.extend([tuple![9i64, 9i64], tuple![0i64, 5i64]]);
        want.sort_unstable();
        assert_eq!(t.rows(), want);
        let bytes: u64 = want.iter().map(|r| r.byte_size() as u64).sum();
        assert_eq!(t.byte_size(), bytes);
        // Asking for more copies than stored refuses the whole delta and
        // names how many are there.
        let removes = vec![(tuple![0i64, 0i64], 1), (tuple![0i64, 5i64], 2)];
        assert_eq!(t.apply_delta(removes, vec![tuple![4i64, 4i64]]), Err(2));
        assert_eq!(t.rows(), want, "untouched");
    }

    #[test]
    fn with_appended_keeps_insertion_order() {
        let mut t = table();
        t.load(vec![tuple![5i64, 0i64], tuple![1i64, 0i64]]).unwrap();
        let copy = t.with_appended(vec![tuple![3i64, 0i64]]);
        assert_eq!(copy.rows(), &[tuple![5i64, 0i64], tuple![1i64, 0i64], tuple![3i64, 0i64]]);
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
