//! Cost model and execution metrics.
//!
//! The experiments report both wall-clock time and a deterministic
//! *simulated* time derived from this cost model. The model mirrors the
//! optimizer's view of the world (§5): operators consume CPU, scans consume
//! disk, rehash consumes network, and pipelined subplans overlap resources.
//! The same constants drive the Hadoop/HaLoop simulator so that REX-vs-
//! Hadoop comparisons are apples-to-apples.

/// Tunable cost constants, in abstract "cost units" (1 unit ≈ 1 µs of the
/// paper's 2.4 GHz Xeon). Defaults are calibrated so that the figure
/// reproductions land in the paper's reported ratio ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU cost for an operator to process one delta.
    pub cpu_per_tuple: f64,
    /// Extra dispatch cost per UDF/UDA invocation (the "Java reflection"
    /// overhead of §4; amortized by input batching).
    pub udf_call_overhead: f64,
    /// Number of tuples per UDF batch (input batching, §4.2).
    pub udf_batch_size: usize,
    /// Cost of one hash-table probe/insert.
    pub hash_cost: f64,
    /// Network bandwidth in bytes per cost unit per node.
    pub network_bandwidth: f64,
    /// Disk bandwidth in bytes per cost unit (scans, spills, checkpoints).
    pub disk_bandwidth: f64,
    /// Per-tuple cost of converting to/from Hadoop text format ("wrap").
    pub wrap_format_cost: f64,
    /// Fraction of network/disk time hidden behind CPU by pipelining
    /// (§5 "Accounting for CPU-I/O overlap").
    pub overlap: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            cpu_per_tuple: 1.0,
            udf_call_overhead: 0.4,
            udf_batch_size: 8,
            hash_cost: 0.5,
            network_bandwidth: 200.0,
            disk_bandwidth: 400.0,
            wrap_format_cost: 6.0,
            overlap: 0.7,
        }
    }
}

impl CostModel {
    /// Effective per-call UDF overhead after input batching.
    pub fn amortized_udf_overhead(&self) -> f64 {
        self.udf_call_overhead / self.udf_batch_size.max(1) as f64
    }

    /// Time to ship `bytes` over the network from one node.
    pub fn net_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.network_bandwidth
    }

    /// Time to read/write `bytes` from/to local disk.
    pub fn disk_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.disk_bandwidth
    }

    /// Combine CPU time with I/O time under pipelined overlap: the I/O that
    /// cannot be hidden behind CPU is added (§5's utilization-vector
    /// combination, collapsed to a scalar for runtime accounting).
    pub fn combine(&self, cpu: f64, io: f64) -> f64 {
        let hidden = (io * self.overlap).min(cpu);
        cpu + (io - hidden)
    }
}

/// Counters accumulated during execution, per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecMetrics {
    /// Deltas processed by operators.
    pub tuples_processed: u64,
    /// Deltas emitted by operators.
    pub deltas_emitted: u64,
    /// UDF/UDA invocations.
    pub udf_calls: u64,
    /// CPU cost units consumed.
    pub cpu_units: f64,
    /// Bytes sent over (simulated) network links.
    pub bytes_sent: u64,
    /// Bytes received over network links.
    pub bytes_received: u64,
    /// Bytes read from local storage.
    pub disk_read: u64,
    /// Bytes written to local storage (spills, checkpoints).
    pub disk_written: u64,
    /// Number of punctuation markers handled.
    pub punctuations: u64,
}

impl ExecMetrics {
    /// Merge another metrics record into this one.
    pub fn merge(&mut self, other: &ExecMetrics) {
        self.tuples_processed += other.tuples_processed;
        self.deltas_emitted += other.deltas_emitted;
        self.udf_calls += other.udf_calls;
        self.cpu_units += other.cpu_units;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.disk_read += other.disk_read;
        self.disk_written += other.disk_written;
        self.punctuations += other.punctuations;
    }

    /// The counters accumulated since the `earlier` snapshot of this
    /// record (one stratum's share of a running total).
    pub fn since(&self, earlier: &ExecMetrics) -> ExecMetrics {
        ExecMetrics {
            tuples_processed: self.tuples_processed - earlier.tuples_processed,
            deltas_emitted: self.deltas_emitted - earlier.deltas_emitted,
            udf_calls: self.udf_calls - earlier.udf_calls,
            cpu_units: self.cpu_units - earlier.cpu_units,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            disk_read: self.disk_read - earlier.disk_read,
            disk_written: self.disk_written - earlier.disk_written,
            punctuations: self.punctuations - earlier.punctuations,
        }
    }

    /// Simulated completion time for this worker's share of a stratum.
    pub fn simulated_time(&self, model: &CostModel) -> f64 {
        let io = model.net_time(self.bytes_sent + self.bytes_received)
            + model.disk_time(self.disk_read + self.disk_written);
        model.combine(self.cpu_units, io)
    }
}

/// A per-stratum record of work, used to reproduce the per-iteration plots
/// (Figures 6–9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StratumReport {
    /// Stratum number (0 = base case).
    pub stratum: u64,
    /// Deltas that crossed the fixpoint in this stratum (the Δᵢ set size).
    pub delta_set_size: u64,
    /// Max-over-workers simulated time for the stratum.
    pub simulated_time: f64,
    /// Wall-clock seconds for the stratum.
    pub wall_seconds: f64,
    /// Total bytes shipped between workers during the stratum.
    pub bytes_shipped: u64,
    /// Merged metrics across workers.
    pub metrics: ExecMetrics,
}

/// A full query execution trace: per-stratum reports plus totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// One report per stratum, in order.
    pub strata: Vec<StratumReport>,
    /// Aggregate metrics.
    pub totals: ExecMetrics,
    /// Total simulated time.
    pub simulated_time: f64,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
}

impl QueryReport {
    /// Number of strata executed (including the base case).
    pub fn iterations(&self) -> usize {
        self.strata.len()
    }

    /// Cumulative simulated time after each stratum — the series the
    /// paper's cumulative-runtime plots show.
    pub fn cumulative_times(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.strata
            .iter()
            .map(|s| {
                acc += s.simulated_time;
                acc
            })
            .collect()
    }

    /// Average bandwidth per node in bytes per simulated time unit
    /// (Figure 11's metric).
    pub fn avg_bandwidth_per_node(&self, nodes: usize) -> f64 {
        if self.simulated_time <= 0.0 || nodes == 0 {
            return 0.0;
        }
        self.totals.bytes_sent as f64 / nodes as f64 / self.simulated_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_overlaps_io_with_cpu() {
        let m = CostModel { overlap: 1.0, ..CostModel::default() };
        // Fully-overlappable IO smaller than CPU disappears.
        assert_eq!(m.combine(10.0, 5.0), 10.0);
        // IO beyond CPU cannot be hidden.
        assert_eq!(m.combine(10.0, 25.0), 25.0);
        let none = CostModel { overlap: 0.0, ..CostModel::default() };
        assert_eq!(none.combine(10.0, 5.0), 15.0);
    }

    #[test]
    fn amortized_udf_overhead_divides_by_batch() {
        let m = CostModel { udf_call_overhead: 64.0, udf_batch_size: 64, ..CostModel::default() };
        assert_eq!(m.amortized_udf_overhead(), 1.0);
        let m0 = CostModel { udf_batch_size: 0, udf_call_overhead: 3.0, ..CostModel::default() };
        assert_eq!(m0.amortized_udf_overhead(), 3.0);
    }

    #[test]
    fn metrics_merge_adds_fields() {
        let mut a = ExecMetrics { tuples_processed: 1, cpu_units: 2.0, ..Default::default() };
        let b = ExecMetrics {
            tuples_processed: 3,
            cpu_units: 4.0,
            bytes_sent: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tuples_processed, 4);
        assert_eq!(a.cpu_units, 6.0);
        assert_eq!(a.bytes_sent, 7);
    }

    #[test]
    fn cumulative_times_accumulate() {
        let mut q = QueryReport::default();
        for (i, t) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            q.strata.push(StratumReport {
                stratum: i as u64,
                simulated_time: t,
                ..Default::default()
            });
        }
        assert_eq!(q.cumulative_times(), vec![1.0, 3.0, 6.0]);
        assert_eq!(q.iterations(), 3);
    }

    #[test]
    fn bandwidth_per_node() {
        let q = QueryReport {
            totals: ExecMetrics { bytes_sent: 1000, ..Default::default() },
            simulated_time: 10.0,
            ..Default::default()
        };
        assert_eq!(q.avg_bandwidth_per_node(10), 10.0);
        assert_eq!(q.avg_bandwidth_per_node(0), 0.0);
    }
}
