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

/// A snapshot of stored rows shared across plan copies.
type SharedRows = Arc<dyn AsRef<[Tuple]> + Send + Sync>;

/// Scans a vector of tuples (the worker's local partition of a stored
/// table) and emits them followed by end-of-stream, one batch per
/// [`pull_source`](Operator::pull_source) (one morsel per pull in morsel
/// mode). A stored row is an insertion by definition, so batches go out
/// bare — run-length [`Event::Rows`](crate::operators::Event::Rows), no
/// per-row delta wrapping — or as columns, and whichever operator first
/// needs annotations receives them as `+()` deltas through the
/// [`Operator`] defaults.
#[derive(Clone)]
pub struct ScanOp {
    table: String,
    rows: Unread,
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
    /// Rows emitted so far, and their summed bytes when `known_bytes` is
    /// not given.
    emitted: usize,
    counted: u64,
}

/// The rows a scan has yet to emit.
#[derive(Clone)]
enum Unread {
    /// Owned rows, *moved* into batches: each tuple is handed on exactly
    /// once, with no per-row clone (not even an `Arc` bump) between
    /// storage and the first operator.
    Owned(std::vec::IntoIter<Tuple>),
    /// A shared snapshot, emitted as `Arc` bumps (no upfront deep copy),
    /// and the next row to read — in morsel mode the shared cursor says
    /// instead.
    Shared(SharedRows, usize),
}

impl ScanOp {
    /// Scan over the given local tuples (owned or shared; see
    /// [`ScanRows`]).
    pub fn new(table: impl Into<String>, tuples: impl Into<ScanRows>) -> ScanOp {
        let rows = match tuples.into() {
            ScanRows::Owned(v) => Unread::Owned(v.into_iter()),
            ScanRows::Shared(s) => Unread::Shared(s, 0),
        };
        ScanOp {
            table: table.into(),
            rows,
            columnar: false,
            known_bytes: None,
            morsel: None,
            morsels_pulled: 0,
            emitted: 0,
            counted: 0,
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
    /// batches: each `SCAN_BATCH` chunk is transposed into a
    /// [`ColumnBatch`] so downstream operators run vectorized kernels.
    /// Pays only when the operators the batches reach consume columns
    /// natively, so lowering asks for it per scan (the column lane).
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

    /// Count `rows` as read: their number, and their bytes when the
    /// source's total is not known.
    fn count(&mut self, rows: &[Tuple]) {
        self.emitted += rows.len();
        if self.known_bytes.is_none() {
            self.counted += rows.iter().map(|t| t.byte_size() as u64).sum::<u64>();
        }
    }

    /// Emit borrowed `rows` in [`SCAN_BATCH`]-sized batches, charging
    /// input metrics. A columnar batch is transposed straight out of the
    /// slice, so no row is cloned (an `Arc` bump and drop each) on that
    /// lane.
    fn emit(&mut self, rows: &[Tuple], ctx: &mut OpCtx<'_>) {
        self.count(rows);
        for batch in rows.chunks(SCAN_BATCH) {
            ctx.charge_input(batch.len());
            match self.columnar.then(|| ColumnBatch::from_row_slice(batch)).flatten() {
                Some(cols) => ctx.emit_cols(0, cols),
                // Row lane, or a ragged batch that stays on rows.
                None => ctx.emit_rows(0, batch.to_vec()),
            }
        }
    }

    /// Bytes read, for disk accounting: the known total (a morsel scan's
    /// proportional share of it), else the bytes counted while emitting.
    fn bytes_read(&self) -> u64 {
        match (self.known_bytes, &self.rows, &self.morsel) {
            (Some(kb), Unread::Shared(rows, _), Some(_)) => {
                let total = (**rows).as_ref().len();
                if total == 0 {
                    kb
                } else {
                    kb * self.emitted as u64 / total as u64
                }
            }
            (Some(kb), ..) => kb,
            (None, ..) => self.counted,
        }
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

    fn pull_source(&mut self, ctx: &mut OpCtx<'_>) -> Result<bool> {
        let more = match &mut self.rows {
            Unread::Owned(it) => {
                let batch: Vec<Tuple> = it.by_ref().take(SCAN_BATCH).collect();
                let more = !batch.is_empty();
                if !more {
                    // Free the drained partition's buffer now, not with the plan.
                    self.rows = Unread::Owned(Vec::new().into_iter());
                } else if self.columnar {
                    self.emit(&batch, ctx);
                } else {
                    // Rows are moved on, not cloned.
                    self.count(&batch);
                    ctx.charge_input(batch.len());
                    ctx.emit_rows(0, batch);
                }
                more
            }
            Unread::Shared(rows, next) => {
                let rows = rows.clone();
                let all: &[Tuple] = (*rows).as_ref();
                let (start, size) = match &self.morsel {
                    Some((cursor, size)) => (cursor.fetch_add(*size, Ordering::Relaxed), *size),
                    None => (std::mem::replace(next, *next + SCAN_BATCH), SCAN_BATCH),
                };
                let more = start < all.len();
                if more {
                    self.morsels_pulled += self.morsel.is_some() as u64;
                    self.emit(&all[start..(start + size).min(all.len())], ctx);
                }
                more
            }
        };
        if !more {
            ctx.charge_disk_read(self.bytes_read());
            ctx.punct(0, Punctuation::EndOfStream);
        }
        Ok(more)
    }

    fn on_deltas(&mut self, _port: usize, _deltas: Vec<Delta>, _ctx: &mut OpCtx<'_>) -> Result<()> {
        Err(crate::error::RexError::Exec("scan has no inputs".into()))
    }

    fn on_punct(&mut self, _port: usize, _p: Punctuation, _ctx: &mut OpCtx<'_>) -> Result<()> {
        Err(crate::error::RexError::Exec("scan has no inputs".into()))
    }

    fn reset(&mut self) {
        // Tuples were consumed by pull_source; a reset scan re-reads
        // storage via the runtime, which re-creates scan operators.
        // Nothing to do.
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
        while op.pull_source(&mut ctx).unwrap() {}
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
            while op.pull_source(&mut ctx).unwrap() {}
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
        while op.pull_source(&mut ctx).unwrap() {}
        let out = ctx.take_output();
        // 3 data batches (1024+1024+452) + punct
        assert_eq!(out.len(), 4);
    }
}
