//! Table scan: the source of a dataflow, reading a local partition.

use crate::col::ColumnBatch;
use crate::delta::{Delta, Punctuation};
use crate::error::Result;
use crate::operators::{OpCtx, Operator};
use crate::tuple::Tuple;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Batch size for scan emissions; matches the engine's message batching.
const SCAN_BATCH: usize = 1024;

/// Rows per morsel when a scan runs in morsel-parallel mode. Small enough
/// that threads finishing early keep stealing work (good balance under
/// skewed filter selectivity), large enough that the shared-cursor
/// `fetch_add` is amortized over thousands of rows.
pub const MORSEL_ROWS: usize = 4096;

/// Where a scan's rows come from.
///
/// `Owned` rows are *moved* into the dataflow (no per-row clone at all);
/// `Shared` rows stay where they are stored and each emitted tuple is an
/// `Arc` bump — no upfront deep copy of the table into the plan. Storage
/// backends hand out `Shared` sources (`rex-storage`'s catalog provider);
/// hand-built plans and per-worker partitions use `Owned`.
#[derive(Clone)]
pub enum ScanRows {
    /// Rows owned by the scan, moved out on emission.
    Owned(Vec<Tuple>),
    /// A shared snapshot of stored rows, cloned (`Arc` bump) on emission.
    Shared(Arc<dyn AsRef<[Tuple]> + Send + Sync>),
}

impl From<Vec<Tuple>> for ScanRows {
    fn from(v: Vec<Tuple>) -> ScanRows {
        ScanRows::Owned(v)
    }
}

/// Scans a vector of tuples (the worker's local partition of a stored
/// table) and emits them followed by end-of-stream. A stored row is an
/// insertion by definition, so batches go out bare — run-length
/// [`Event::Rows`](crate::operators::Event::Rows), no per-row delta
/// wrapping — and whichever operator first needs annotations receives
/// them as `+()` deltas through the [`Operator`] defaults.
#[derive(Clone)]
pub struct ScanOp {
    table: String,
    source: ScanRows,
    /// Transpose each batch into an
    /// [`Event::Cols`](crate::operators::Event::Cols) columnar batch.
    /// Ragged batches fall back to `Event::Rows` per batch.
    columnar: bool,
    /// Total byte size of the source, when the storage layer already
    /// knows it — skips the per-row size accounting.
    known_bytes: Option<u64>,
    /// Morsel-parallel mode: a cursor shared with the sibling scans of the
    /// other worker threads, and the morsel size. Each thread's scan pulls
    /// `[start, start+size)` slices off the shared snapshot until the
    /// cursor passes the end — work-stealing over one table with one
    /// atomic, no row is emitted twice.
    morsel: Option<(Arc<AtomicUsize>, usize)>,
    /// Morsels this scan pulled (telemetry).
    morsels_pulled: u64,
}

impl ScanOp {
    /// Scan over the given local tuples (owned or shared; see
    /// [`ScanRows`]).
    pub fn new(table: impl Into<String>, tuples: impl Into<ScanRows>) -> ScanOp {
        ScanOp {
            table: table.into(),
            source: tuples.into(),
            columnar: false,
            known_bytes: None,
            morsel: None,
            morsels_pulled: 0,
        }
    }

    /// Run morsel-parallel: pull `size`-row morsels through `cursor`,
    /// which is shared with the equivalent scans in the other threads'
    /// plan copies. Only meaningful over a [`ScanRows::Shared`] source
    /// (owned sources are already per-thread partitions).
    pub fn morsel_cursor(mut self, cursor: Arc<AtomicUsize>, size: usize) -> ScanOp {
        debug_assert!(size > 0);
        self.morsel = Some((cursor, size));
        self
    }

    /// Emit columnar insert batches (`Event::Cols`) instead of row
    /// batches: each `SCAN_BATCH` chunk (one morsel slice at a time in
    /// morsel mode) is transposed into a [`ColumnBatch`] so downstream
    /// filters and projections run vectorized kernels. Pays only when
    /// nothing downstream materializes the rows again before the sink,
    /// so lowering asks for it on stateless scan→filter/project chains.
    pub fn columnar(mut self, on: bool) -> ScanOp {
        self.columnar = on;
        self
    }

    /// Provide the source's total byte size (storage keeps it cached), so
    /// disk-read accounting needs no per-row size computation.
    pub fn known_bytes(mut self, bytes: Option<u64>) -> ScanOp {
        self.known_bytes = bytes;
        self
    }

    /// The table name this scan reads.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Emit every row in [`SCAN_BATCH`]-sized batches, charging input
    /// metrics. Returns the summed row bytes when the source's total size
    /// is not already known (callers charge disk-read from whichever is
    /// available).
    fn emit_all(&self, mut it: impl Iterator<Item = Tuple>, ctx: &mut OpCtx<'_>) -> u64 {
        let mut bytes = 0u64;
        let count = self.known_bytes.is_none();
        let mut size = |t: &Tuple| {
            if count {
                bytes += t.byte_size() as u64;
            }
        };
        loop {
            let batch: Vec<Tuple> = it.by_ref().take(SCAN_BATCH).inspect(&mut size).collect();
            if batch.is_empty() {
                break;
            }
            ctx.charge_input(batch.len());
            if self.columnar {
                match ColumnBatch::try_from_rows(batch) {
                    Ok(cols) => ctx.emit_cols(0, cols),
                    // Ragged batch: stay on rows for this batch.
                    Err(rows) => ctx.emit_rows(0, rows),
                }
            } else {
                ctx.emit_rows(0, batch);
            }
        }
        bytes
    }

    /// Emit stored rows batch by batch, like [`emit_all`](Self::emit_all).
    /// A columnar batch is transposed straight out of the stored slice, so
    /// no row is cloned (an `Arc` bump and drop each) on that lane.
    fn emit_shared(&self, rows: &[Tuple], ctx: &mut OpCtx<'_>) -> u64 {
        if !self.columnar {
            return self.emit_all(rows.iter().cloned(), ctx);
        }
        let mut bytes = 0u64;
        for batch in rows.chunks(SCAN_BATCH) {
            if self.known_bytes.is_none() {
                bytes += batch.iter().map(|t| t.byte_size() as u64).sum::<u64>();
            }
            ctx.charge_input(batch.len());
            match ColumnBatch::from_row_slice(batch) {
                Some(cols) => ctx.emit_cols(0, cols),
                // Ragged batch: stay on rows for this batch.
                None => ctx.emit_rows(0, batch.to_vec()),
            }
        }
        bytes
    }
}

impl Operator for ScanOp {
    fn name(&self) -> String {
        format!("Scan({})", self.table)
    }

    fn n_inputs(&self) -> usize {
        0
    }

    fn is_source(&self) -> bool {
        true
    }

    fn run_source(&mut self, ctx: &mut OpCtx<'_>) -> Result<()> {
        // Owned rows are *moved* straight into batches: each tuple is
        // handed on exactly once, with no per-row clone (not even an
        // `Arc` bump) between storage and the first operator. Shared rows
        // are emitted as `Arc` bumps off the stored snapshot — no upfront
        // deep copy.
        match std::mem::replace(&mut self.source, ScanRows::Owned(Vec::new())) {
            ScanRows::Owned(v) => {
                let counted = self.emit_all(v.into_iter(), ctx);
                ctx.charge_disk_read(self.known_bytes.unwrap_or(counted));
            }
            ScanRows::Shared(s) => {
                let rows: &[Tuple] = (*s).as_ref();
                if let Some((cursor, size)) = self.morsel.take() {
                    let mut emitted = 0usize;
                    let mut counted = 0u64;
                    loop {
                        let start = cursor.fetch_add(size, Ordering::Relaxed);
                        if start >= rows.len() {
                            break;
                        }
                        let end = (start + size).min(rows.len());
                        self.morsels_pulled += 1;
                        emitted += end - start;
                        counted += self.emit_shared(&rows[start..end], ctx);
                    }
                    // Each thread charges disk for the slice it actually
                    // read; with a known total, proportionally.
                    let bytes = match self.known_bytes {
                        Some(kb) if !rows.is_empty() => kb * emitted as u64 / rows.len() as u64,
                        Some(kb) => kb,
                        None => counted,
                    };
                    ctx.charge_disk_read(bytes);
                } else {
                    let counted = self.emit_shared(rows, ctx);
                    ctx.charge_disk_read(self.known_bytes.unwrap_or(counted));
                }
            }
        }
        ctx.punct(0, Punctuation::EndOfStream);
        Ok(())
    }

    fn on_deltas(&mut self, _port: usize, _deltas: Vec<Delta>, _ctx: &mut OpCtx<'_>) -> Result<()> {
        Err(crate::error::RexError::Exec("scan has no inputs".into()))
    }

    fn on_punct(&mut self, _port: usize, _p: Punctuation, _ctx: &mut OpCtx<'_>) -> Result<()> {
        Err(crate::error::RexError::Exec("scan has no inputs".into()))
    }

    fn reset(&mut self) {
        // Tuples were consumed by run_source; a reset scan re-reads storage
        // via the runtime, which re-creates scan operators. Nothing to do.
    }

    fn boxed_clone(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn stats_detail(&self) -> Vec<(String, u64)> {
        if self.morsels_pulled > 0 {
            vec![("morsels".into(), self.morsels_pulled)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CostModel, ExecMetrics};
    use crate::operators::Event;
    use crate::tuple;
    use crate::udf::Registry;

    #[test]
    fn scan_emits_inserts_then_eos() {
        let mut op = ScanOp::new("t", vec![tuple![1i64], tuple![2i64]]);
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.run_source(&mut ctx).unwrap();
        let out = ctx.take_output();
        assert_eq!(out.len(), 2);
        match &out[0].1 {
            Event::Rows(rows) => assert_eq!(rows, &[tuple![1i64], tuple![2i64]]),
            _ => panic!("expected bare rows"),
        }
        assert!(matches!(out[1].1, Event::Punct(Punctuation::EndOfStream)));
        assert!(m.disk_read > 0);
    }

    #[test]
    fn morsel_scans_cover_table_exactly_once() {
        let tuples: Vec<_> = (0..10_000i64).map(|i| tuple![i]).collect();
        let shared: Arc<dyn AsRef<[Tuple]> + Send + Sync> = Arc::new(tuples.clone());
        let cursor = Arc::new(AtomicUsize::new(0));
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut got = Vec::new();
        let mut morsels = 0;
        // Two sibling scans off one cursor: together they must emit every
        // row exactly once, however the morsels interleave.
        for _ in 0..2 {
            let mut op = ScanOp::new("t", ScanRows::Shared(shared.clone()))
                .morsel_cursor(cursor.clone(), 512);
            let mut m = ExecMetrics::default();
            let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
            op.run_source(&mut ctx).unwrap();
            for (_, ev) in ctx.take_output() {
                if let Event::Rows(rows) = ev {
                    got.extend(rows);
                }
            }
            morsels += op.stats_detail().iter().map(|(_, v)| v).sum::<u64>();
        }
        got.sort();
        assert_eq!(got, tuples);
        assert_eq!(morsels, 10_000_u64.div_ceil(512));
    }

    #[test]
    fn scan_batches_large_inputs() {
        let tuples: Vec<_> = (0..2500i64).map(|i| tuple![i]).collect();
        let mut op = ScanOp::new("big", tuples);
        let reg = Registry::new();
        let cost = CostModel::default();
        let mut m = ExecMetrics::default();
        let mut ctx = OpCtx::new(0, 0, &reg, &cost, &mut m);
        op.run_source(&mut ctx).unwrap();
        let out = ctx.take_output();
        // 3 data batches (1024+1024+452) + punct
        assert_eq!(out.len(), 4);
    }
}
