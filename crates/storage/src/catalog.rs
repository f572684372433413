//! The catalog: named tables shared by all workers of a simulated cluster.

use crate::table::StoredTable;
use rex_core::error::{Result, RexError};
use rex_core::tuple::Tuple;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::RwLock;

/// A thread-safe catalog of stored tables.
#[derive(Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<HashMap<String, Arc<StoredTable>>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// An isolated point-in-time snapshot of the catalog: a *new* catalog
    /// whose map holds the same `Arc<StoredTable>`s — O(tables) `Arc`
    /// bumps, no row is copied. Every mutation path is copy-on-write: a
    /// later `append`/`remove`/`apply_delta`/`replace_rows` on either
    /// catalog changes a table in place only while nothing else holds it,
    /// and otherwise builds the changed table as a new copy (`remove` and
    /// `apply_delta` clone it first), so the snapshot keeps serving exactly the
    /// rows it captured: readers never block writers, writers never
    /// disturb readers. This is the storage half of MVCC-lite snapshot
    /// serving.
    pub fn snapshot(&self) -> Catalog {
        Catalog { inner: Arc::new(RwLock::new(self.inner.read().unwrap().clone())) }
    }

    /// Register (or replace) a table.
    pub fn register(&self, table: StoredTable) {
        self.inner.write().unwrap().insert(table.name().to_ascii_lowercase(), Arc::new(table));
    }

    /// Look up a table by name (case-insensitive).
    pub fn get(&self, name: &str) -> Result<Arc<StoredTable>> {
        self.inner
            .read()
            .unwrap()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))
    }

    /// Append rows to an existing table in place, validating every row
    /// against the schema *before* mutating so a bad batch leaves the
    /// table untouched. Returns the number of rows appended.
    ///
    /// The stored table is copy-on-write: if no query currently holds a
    /// snapshot of it, the append mutates in place (no full-table copy);
    /// otherwise it builds the appended copy at its exact size.
    pub fn append(&self, name: &str, rows: Vec<Tuple>) -> Result<usize> {
        let mut map = self.inner.write().unwrap();
        let entry = map
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))?;
        for r in &rows {
            entry.schema().check(r)?;
        }
        let n = rows.len();
        match Arc::get_mut(entry) {
            Some(table) => table.load_unchecked(rows),
            None => *entry = Arc::new(entry.with_appended(rows)),
        }
        Ok(n)
    }

    /// Remove one occurrence of each given row from an existing table,
    /// mirroring [`append`](Self::append): the whole batch is validated
    /// *before* mutating — every row must match the schema and be present
    /// with sufficient multiplicity — so a bad batch leaves the table
    /// untouched. Returns the number of rows removed.
    pub fn remove(&self, name: &str, rows: &[Tuple]) -> Result<usize> {
        let mut map = self.inner.write().unwrap();
        let entry = map
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))?;
        for r in rows {
            entry.schema().check(r)?;
        }
        // Presence check with multiplicity: deleting two copies of a row
        // requires the table to hold at least two. One counting pass over
        // the table keeps large deletes O(stored + batch).
        let mut need: HashMap<&Tuple, usize> = HashMap::new();
        for r in rows {
            *need.entry(r).or_insert(0) += 1;
        }
        let mut have: HashMap<&Tuple, usize> = need.keys().map(|r| (*r, 0)).collect();
        for r in entry.rows() {
            if let Some(n) = have.get_mut(r) {
                *n += 1;
            }
        }
        for (r, n) in &need {
            let got = have[r];
            if got < *n {
                return Err(RexError::Storage(format!(
                    "table {name}: cannot delete {n} copies of {r}: only {got} stored"
                )));
            }
        }
        drop(have);
        Ok(Arc::make_mut(entry).remove_counted(need))
    }

    /// Apply a signed-multiplicity delta to a table: each `(tuple, n)`
    /// change inserts `n` copies when positive and removes `-n` copies
    /// when negative (trusted caller: rows are assumed schema-valid, as
    /// with [`replace_rows`](Self::replace_rows)). The table must be in
    /// tuple order, as a materialized view's is, and stays so
    /// ([`StoredTable::apply_delta`]): this is how a view's maintenance
    /// pass writes its output delta. Returns `(inserted, removed)` row
    /// counts. A delta that asks to remove rows the table does not hold is
    /// an error naming the divergence, and the table's rows are left
    /// untouched.
    pub fn apply_delta<I>(&self, name: &str, changes: I) -> Result<(usize, usize)>
    where
        I: IntoIterator<Item = (Tuple, i64)>,
    {
        let mut inserts: Vec<Tuple> = Vec::new();
        let mut removes: Vec<(Tuple, usize)> = Vec::new();
        for (t, n) in changes {
            match n.cmp(&0) {
                std::cmp::Ordering::Greater => {
                    for _ in 1..n {
                        inserts.push(t.clone());
                    }
                    inserts.push(t);
                }
                std::cmp::Ordering::Less => removes.push((t, (-n) as usize)),
                std::cmp::Ordering::Equal => {}
            }
        }
        let mut map = self.inner.write().unwrap();
        let entry = map
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))?;
        let want: usize = removes.iter().map(|(_, n)| n).sum();
        let inserted = inserts.len();
        Arc::make_mut(entry).apply_delta(removes, inserts).map_err(|stored| {
            RexError::Storage(format!(
                "table {name}: delta asked to remove {want} rows but only {stored} are \
                 stored; stored copy has diverged"
            ))
        })?;
        Ok((inserted, want))
    }

    /// Replace a table's entire contents (trusted caller: rows are assumed
    /// schema-valid).
    pub fn replace_rows(&self, name: &str, rows: Vec<Tuple>) -> Result<()> {
        let mut map = self.inner.write().unwrap();
        let entry = map
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))?;
        match Arc::get_mut(entry) {
            Some(table) => table.replace_rows(rows),
            None => {
                let mut fresh = entry.empty_like();
                fresh.replace_rows(rows);
                *entry = Arc::new(fresh);
            }
        }
        Ok(())
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().unwrap().contains_key(&name.to_ascii_lowercase())
    }

    /// Drop a table. Dropping a missing table is a typed error so callers
    /// can distinguish "dropped" from "never existed".
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.inner
            .write()
            .unwrap()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| RexError::Storage(format!("unknown table: {name}")))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;

    #[test]
    fn append_validates_whole_batch_before_mutating() {
        let cat = Catalog::new();
        let mut t = StoredTable::new("t", Schema::of(&[("a", DataType::Int)]), vec![0]);
        t.insert(rex_core::tuple![1i64]).unwrap();
        cat.register(t);
        assert_eq!(cat.append("t", vec![rex_core::tuple![2i64]]).unwrap(), 1);
        assert_eq!(cat.get("t").unwrap().len(), 2);
        // One bad row rejects the whole batch and leaves the table as-is.
        let err = cat.append("t", vec![rex_core::tuple![3i64], rex_core::tuple!["x"]]);
        assert!(err.is_err());
        assert_eq!(cat.get("t").unwrap().len(), 2);
        assert!(cat.append("missing", vec![]).is_err());
    }

    #[test]
    fn register_lookup_drop() {
        let cat = Catalog::new();
        let t = StoredTable::new("Edges", Schema::of(&[("a", DataType::Int)]), vec![0]);
        cat.register(t);
        assert!(cat.contains("edges"));
        assert!(cat.get("EDGES").is_ok());
        assert_eq!(cat.table_names(), vec!["edges".to_string()]);
        assert!(cat.drop_table("edges").is_ok());
        assert!(cat.get("edges").is_err());
        let err = cat.drop_table("edges").unwrap_err();
        assert!(err.to_string().contains("unknown table"));
    }

    #[test]
    fn apply_delta_inserts_and_removes_by_signed_multiplicity() {
        let cat = Catalog::new();
        let mut t = StoredTable::new("t", Schema::of(&[("a", DataType::Int)]), vec![0]);
        t.load(vec![rex_core::tuple![1i64], rex_core::tuple![1i64], rex_core::tuple![2i64]])
            .unwrap();
        cat.register(t);
        let (ins, rem) = cat
            .apply_delta(
                "t",
                vec![
                    (rex_core::tuple![1i64], -1),
                    (rex_core::tuple![3i64], 2),
                    (rex_core::tuple![4i64], 0),
                ],
            )
            .unwrap();
        assert_eq!((ins, rem), (2, 1));
        let mut rows = cat.get("t").unwrap().rows().to_vec();
        rows.sort_unstable();
        assert_eq!(
            rows,
            vec![
                rex_core::tuple![1i64],
                rex_core::tuple![2i64],
                rex_core::tuple![3i64],
                rex_core::tuple![3i64]
            ]
        );
        // Removing more copies than stored names the divergence — and the
        // failure is atomic: neither the removal nor the piggy-backing
        // insert touches the table, so a retry cannot compound damage.
        let err = cat
            .apply_delta("t", vec![(rex_core::tuple![2i64], -5), (rex_core::tuple![9i64], 1)])
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        let mut after = cat.get("t").unwrap().rows().to_vec();
        after.sort_unstable();
        assert_eq!(after, rows, "failed delta left the table untouched");
        assert!(cat.apply_delta("missing", vec![]).is_err());
    }

    #[test]
    fn snapshots_are_isolated_from_every_mutation_path() {
        let cat = Catalog::new();
        let mut t = StoredTable::new("t", Schema::of(&[("a", DataType::Int)]), vec![0]);
        t.load(vec![rex_core::tuple![1i64], rex_core::tuple![2i64]]).unwrap();
        cat.register(t);
        let snap = cat.snapshot();
        // Every mutation path on the live catalog copies-on-write.
        cat.append("t", vec![rex_core::tuple![3i64]]).unwrap();
        cat.remove("t", &[rex_core::tuple![1i64]]).unwrap();
        cat.apply_delta("t", vec![(rex_core::tuple![4i64], 2)]).unwrap();
        cat.replace_rows("t", vec![rex_core::tuple![9i64]]).unwrap();
        cat.register(StoredTable::new("u", Schema::of(&[("b", DataType::Int)]), vec![0]));
        cat.drop_table("t").unwrap();
        // The snapshot still serves exactly what it captured.
        assert_eq!(
            snap.get("t").unwrap().rows(),
            &[rex_core::tuple![1i64], rex_core::tuple![2i64]]
        );
        assert!(!snap.contains("u"));
        // And the snapshot is itself mutable without touching the live
        // catalog (each version owns its map of Arc'd tables).
        snap.append("t", vec![rex_core::tuple![7i64]]).unwrap();
        assert!(!cat.contains("t"));
    }

    #[test]
    fn failed_apply_delta_leaves_live_catalog_and_published_snapshot_untouched() {
        // The atomicity contract under snapshotting: a divergent delta
        // arriving mid-publish (a snapshot is already out, the writer is
        // applying the next version) must fail *before* any mutation, so
        // both the published snapshot and the writer's catalog keep
        // serving consistent contents — including the delta's insert
        // half, which must not land when the removal half is refused.
        let cat = Catalog::new();
        let mut t = StoredTable::new("t", Schema::of(&[("a", DataType::Int)]), vec![0]);
        t.load(vec![rex_core::tuple![1i64], rex_core::tuple![2i64]]).unwrap();
        cat.register(t);
        let published = cat.snapshot();
        // Divergent: asks to remove a row the table holds zero copies of,
        // piggy-backing an insert that must not survive the failure.
        let err = cat
            .apply_delta("t", vec![(rex_core::tuple![5i64], 1), (rex_core::tuple![42i64], -1)])
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        let expect = [rex_core::tuple![1i64], rex_core::tuple![2i64]];
        assert_eq!(cat.get("t").unwrap().rows(), &expect, "writer copy untouched");
        assert_eq!(published.get("t").unwrap().rows(), &expect, "published snapshot untouched");
        // A valid retry then applies cleanly to the writer's copy only.
        cat.apply_delta("t", vec![(rex_core::tuple![5i64], 1), (rex_core::tuple![1i64], -1)])
            .unwrap();
        assert_eq!(cat.get("t").unwrap().rows(), &[rex_core::tuple![2i64], rex_core::tuple![5i64]]);
        assert_eq!(published.get("t").unwrap().rows(), &expect);
    }

    #[test]
    fn remove_validates_whole_batch_before_mutating() {
        let cat = Catalog::new();
        let mut t = StoredTable::new("t", Schema::of(&[("a", DataType::Int)]), vec![0]);
        t.load(vec![rex_core::tuple![1i64], rex_core::tuple![1i64], rex_core::tuple![2i64]])
            .unwrap();
        cat.register(t);
        // Deleting more copies than stored rejects the whole batch.
        let err = cat.remove("t", &[rex_core::tuple![2i64], rex_core::tuple![2i64]]);
        assert!(err.unwrap_err().to_string().contains("only 1 stored"));
        assert_eq!(cat.get("t").unwrap().len(), 3);
        // A schema-invalid row rejects the whole batch.
        assert!(cat.remove("t", &[rex_core::tuple![1i64], rex_core::tuple!["x"]]).is_err());
        assert_eq!(cat.get("t").unwrap().len(), 3);
        // A valid batch removes exactly one occurrence per row.
        assert_eq!(cat.remove("t", &[rex_core::tuple![1i64], rex_core::tuple![2i64]]).unwrap(), 2);
        assert_eq!(cat.get("t").unwrap().rows(), &[rex_core::tuple![1i64]]);
        assert!(cat.remove("missing", &[]).is_err());
    }
}
