//! Single MapReduce job execution: map → combine → sort-merge shuffle →
//! reduce, with full cost accounting.
//!
//! The simulator executes the user functions *for real* (results are exact)
//! while accounting costs according to the configured
//! [`EmulationMode`]: computation on immutable
//! inputs still happens — "the actual computation is still performed
//! repeatedly" — but HaLoop-mode charges zero for the cached portion.

use crate::api::{record_bytes, Mapper, Record, Reducer};
use crate::cost::{EmulationMode, HadoopCost};
use rex_core::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A job input: a bag of records, tagged mutable or immutable.
///
/// Immutable inputs (e.g. the graph edge relation) never change across
/// iterations; HaLoop's reducer-input cache exploits exactly this (§6
/// "recursive MapReduce stages involving immutable data" run free).
#[derive(Debug, Clone)]
pub struct JobInput {
    /// The records.
    pub records: Vec<Record>,
    /// Whether this input is immutable across iterations.
    pub immutable: bool,
}

impl JobInput {
    /// A mutable input.
    pub fn mutable(records: Vec<Record>) -> JobInput {
        JobInput { records, immutable: false }
    }

    /// An immutable input.
    pub fn immutable(records: Vec<Record>) -> JobInput {
        JobInput { records, immutable: true }
    }
}

/// A MapReduce job definition.
#[derive(Clone)]
pub struct MapReduceJob {
    /// Job name (for reports).
    pub name: String,
    /// The map class.
    pub mapper: Arc<dyn Mapper>,
    /// Optional map-side combiner.
    pub combiner: Option<Arc<dyn Reducer>>,
    /// The reduce class.
    pub reducer: Arc<dyn Reducer>,
}

impl MapReduceJob {
    /// A job without a combiner.
    pub fn new(
        name: impl Into<String>,
        mapper: Arc<dyn Mapper>,
        reducer: Arc<dyn Reducer>,
    ) -> MapReduceJob {
        MapReduceJob { name: name.into(), mapper, combiner: None, reducer }
    }

    /// Attach a combiner.
    pub fn with_combiner(mut self, c: Arc<dyn Reducer>) -> MapReduceJob {
        self.combiner = Some(c);
        self
    }
}

/// Per-job execution metrics (inputs → shuffle → output volumes plus the
/// derived simulated completion time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobMetrics {
    /// Records consumed by map tasks.
    pub map_input_records: u64,
    /// Records emitted by map tasks (pre-combine).
    pub map_output_records: u64,
    /// Records shipped through the shuffle (post-combine).
    pub shuffle_records: u64,
    /// Bytes shipped through the shuffle (post-combine). This is the
    /// quantity Figure 11 plots for Hadoop/HaLoop.
    pub shuffle_bytes: u64,
    /// Records consumed by reduce tasks.
    pub reduce_input_records: u64,
    /// Records produced by reduce tasks.
    pub output_records: u64,
    /// Bytes written to the DFS (output × replication).
    pub checkpoint_bytes: u64,
    /// Replica bytes that crossed the network for DFS output replication.
    pub dfs_network_bytes: u64,
    /// CPU cost units across the cluster.
    pub cpu_units: f64,
    /// Simulated completion time (per-node parallel share + startup).
    pub sim_time: f64,
}

impl JobMetrics {
    /// Merge another job's metrics (for chained jobs).
    pub fn merge(&mut self, o: &JobMetrics) {
        self.map_input_records += o.map_input_records;
        self.map_output_records += o.map_output_records;
        self.shuffle_records += o.shuffle_records;
        self.shuffle_bytes += o.shuffle_bytes;
        self.reduce_input_records += o.reduce_input_records;
        self.output_records += o.output_records;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.dfs_network_bytes += o.dfs_network_bytes;
        self.cpu_units += o.cpu_units;
        self.sim_time += o.sim_time;
    }
}

/// The simulated cluster a job runs on.
#[derive(Debug, Clone, Copy)]
pub struct HadoopCluster {
    /// Number of worker nodes.
    pub n_nodes: usize,
    /// Cost constants.
    pub cost: HadoopCost,
    /// Which lower-bound emulation (if any) applies.
    pub mode: EmulationMode,
}

impl HadoopCluster {
    /// A cluster of `n` nodes in plain-Hadoop mode.
    pub fn new(n: usize) -> HadoopCluster {
        HadoopCluster {
            n_nodes: n.max(1),
            cost: HadoopCost::default(),
            mode: EmulationMode::Hadoop,
        }
    }

    /// Switch emulation mode.
    pub fn with_mode(mut self, mode: EmulationMode) -> HadoopCluster {
        self.mode = mode;
        self
    }

    /// Execute one MapReduce job over the given inputs.
    ///
    /// `iteration` is the 0-based position within an iterative driver: in
    /// HaLoop mode, immutable inputs are free to map and shuffle for
    /// `iteration > 0` (they hit the reducer input cache, whose
    /// construction at iteration 0 is itself costed as zero per the paper).
    pub fn run_job(
        &self,
        job: &MapReduceJob,
        inputs: &[JobInput],
        iteration: usize,
    ) -> (Vec<Record>, JobMetrics) {
        let cost = &self.cost;
        let mut m = JobMetrics::default();
        let mut charged_cpu = 0.0f64;
        let mut charged_net_bytes = 0u64;
        let mut charged_disk_bytes = 0u64;

        // --- Map stage (per input, so immutable inputs can be discounted).
        // Map output partitioned by key hash into reduce groups.
        let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        for input in inputs {
            let cached = self.mode.caches_immutable() && input.immutable && iteration > 0;
            let mut map_out: Vec<Record> = Vec::new();
            for (k, v) in &input.records {
                job.mapper.map(k, v, &mut |ok, ov| map_out.push((ok, ov)));
            }
            m.map_input_records += input.records.len() as u64;
            m.map_output_records += map_out.len() as u64;
            if !cached {
                // read input from local disk + map CPU
                let in_bytes: u64 = input.records.iter().map(record_bytes).sum();
                charged_disk_bytes += in_bytes;
                charged_cpu += input.records.len() as f64 * cost.base.cpu_per_tuple;
                if !self.mode.zero_overheads() {
                    charged_cpu += input.records.len() as f64 * cost.format_cost;
                }
                // The map-side sort runs on the raw map output (combiners
                // operate on sorted runs in Hadoop), and the output spills
                // to local disk before and after combining.
                let out_bytes: u64 = map_out.iter().map(record_bytes).sum();
                charged_cpu += cost.sort_time(map_out.len() as u64);
                charged_disk_bytes += 2 * out_bytes;
            }

            // --- Combine stage (map-side pre-aggregation), charged only
            // for non-cached inputs.
            let shuffled: Vec<Record> = if let Some(c) = &job.combiner {
                let mut per_key: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
                for (k, v) in map_out {
                    per_key.entry(k).or_default().push(v);
                }
                let mut combined = Vec::new();
                for (k, vs) in per_key {
                    if !cached {
                        charged_cpu += vs.len() as f64 * cost.base.cpu_per_tuple;
                    }
                    c.reduce(&k, &vs, &mut |ok, ov| combined.push((ok, ov)));
                }
                combined
            } else {
                map_out
            };

            // --- Shuffle: sort-merge + network + spill-to-disk.
            let bytes: u64 = shuffled.iter().map(record_bytes).sum();
            m.shuffle_records += shuffled.len() as u64;
            if !cached {
                m.shuffle_bytes += bytes;
                charged_net_bytes += bytes;
                // Reduce-side external merge of the fetched runs (§6.3: REX
                // "avoids the relatively expensive disk-based external merge
                // sort required by the shuffle").
                charged_disk_bytes += 2 * bytes;
            }
            for (k, v) in shuffled {
                groups.entry(k).or_default().push(v);
            }
        }

        // --- Reduce stage.
        let mut output = Vec::new();
        for (k, vs) in &groups {
            m.reduce_input_records += vs.len() as u64;
            charged_cpu += vs.len() as f64 * cost.base.cpu_per_tuple;
            job.reducer.reduce(k, vs, &mut |ok, ov| output.push((ok, ov)));
        }
        m.output_records = output.len() as u64;

        // --- Output: checkpoint to DFS with replication. The replica
        // copies cross the network (HDFS pipeline replication).
        let out_bytes: u64 = output.iter().map(record_bytes).sum();
        m.checkpoint_bytes = out_bytes * cost.dfs_replication as u64;
        charged_disk_bytes += m.checkpoint_bytes;
        let replica_net = out_bytes * (cost.dfs_replication.saturating_sub(1)) as u64;
        m.dfs_network_bytes = replica_net;
        charged_net_bytes += replica_net;
        if !self.mode.zero_overheads() {
            charged_cpu += output.len() as f64 * cost.format_cost;
        }

        // --- Completion time: work divides across nodes; startup does not.
        m.cpu_units = charged_cpu;
        let per_node_cpu = charged_cpu / self.n_nodes as f64;
        let per_node_io = cost.base.net_time(charged_net_bytes / self.n_nodes as u64)
            + cost.base.disk_time(charged_disk_bytes / self.n_nodes as u64);
        // MapReduce is staged, not pipelined: map/shuffle/reduce barriers
        // prevent the CPU/IO overlap REX enjoys (§5), so times add.
        m.sim_time = cost.job_startup + per_node_cpu + per_node_io;

        (output, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FnMapper, FnReducer, IdentityMapper};

    fn wordcount_job() -> MapReduceJob {
        let mapper = FnMapper::new("tokenize", |_k, v, out| {
            for w in v.as_str().unwrap_or("").split_whitespace() {
                out(Value::str(w), Value::Int(1));
            }
        });
        let reducer = FnReducer::new("sum", |k, vs, out| {
            out(k.clone(), Value::Int(vs.iter().filter_map(Value::as_int).sum()));
        });
        MapReduceJob::new("wordcount", mapper, reducer)
    }

    fn lines(ls: &[&str]) -> Vec<Record> {
        ls.iter().enumerate().map(|(i, l)| (Value::Int(i as i64), Value::str(*l))).collect()
    }

    #[test]
    fn wordcount_produces_exact_counts() {
        let cluster = HadoopCluster::new(4);
        let input = JobInput::mutable(lines(&["a b a", "b c"]));
        let (out, m) = cluster.run_job(&wordcount_job(), &[input], 0);
        assert_eq!(
            out,
            vec![
                (Value::str("a"), Value::Int(2)),
                (Value::str("b"), Value::Int(2)),
                (Value::str("c"), Value::Int(1)),
            ]
        );
        assert_eq!(m.map_input_records, 2);
        assert_eq!(m.map_output_records, 5);
        assert_eq!(m.output_records, 3);
        assert!(m.sim_time > cluster.cost.job_startup);
    }

    #[test]
    fn combiner_shrinks_shuffle() {
        let job = wordcount_job();
        let with = job.clone().with_combiner(FnReducer::new("combine", |k, vs, out| {
            out(k.clone(), Value::Int(vs.iter().filter_map(Value::as_int).sum()));
        }));
        let input = JobInput::mutable(lines(&["a a a a a a b"]));
        let cluster = HadoopCluster::new(1);
        let (out1, m1) = cluster.run_job(&job, std::slice::from_ref(&input), 0);
        let (out2, m2) = cluster.run_job(&with, &[input], 0);
        assert_eq!(out1, out2, "combiner must not change results");
        assert!(m2.shuffle_records < m1.shuffle_records);
        assert!(m2.shuffle_bytes < m1.shuffle_bytes);
    }

    #[test]
    fn haloop_mode_discounts_immutable_after_first_iteration() {
        let job = MapReduceJob::new(
            "pass",
            Arc::new(IdentityMapper),
            FnReducer::new("first", |k, vs, out| out(k.clone(), vs[0].clone())),
        );
        let imm = JobInput::immutable(lines(&["x", "y", "z"]));
        let hadoop = HadoopCluster::new(1).with_mode(EmulationMode::HadoopLowerBound);
        let haloop = HadoopCluster::new(1).with_mode(EmulationMode::HaLoopLowerBound);

        // Iteration 0: identical (cache construction is free but mapping is
        // still charged for HaLoop's first pass in our model — the cache
        // must be built from a full scan; its *construction* is free).
        let (_, h0) = hadoop.run_job(&job, std::slice::from_ref(&imm), 0);
        let (_, l0) = haloop.run_job(&job, std::slice::from_ref(&imm), 0);
        assert_eq!(h0.sim_time, l0.sim_time);

        // Iteration 1: HaLoop pays almost nothing beyond startup + reduce.
        let (_, h1) = hadoop.run_job(&job, std::slice::from_ref(&imm), 1);
        let (out, l1) = haloop.run_job(&job, &[imm], 1);
        assert_eq!(out.len(), 3, "results identical regardless of caching");
        assert!(l1.sim_time < h1.sim_time);
        assert_eq!(l1.shuffle_bytes, 0, "cached input does not re-shuffle");
        assert!(h1.shuffle_bytes > 0);
    }

    #[test]
    fn mutable_inputs_always_charged_in_haloop() {
        let job = MapReduceJob::new(
            "pass",
            Arc::new(IdentityMapper),
            FnReducer::new("first", |k, vs, out| out(k.clone(), vs[0].clone())),
        );
        let mu = JobInput::mutable(lines(&["x", "y"]));
        let haloop = HadoopCluster::new(1).with_mode(EmulationMode::HaLoopLowerBound);
        let (_, m) = haloop.run_job(&job, &[mu], 5);
        assert!(m.shuffle_bytes > 0);
    }

    #[test]
    fn more_nodes_reduce_completion_time() {
        let input = JobInput::mutable(lines(&["a b c d e f g h"; 64]));
        let (_, m1) =
            HadoopCluster::new(1).run_job(&wordcount_job(), std::slice::from_ref(&input), 0);
        let (_, m8) = HadoopCluster::new(8).run_job(&wordcount_job(), &[input], 0);
        assert!(m8.sim_time < m1.sim_time);
        assert!(m8.sim_time > m8.cpu_units / 8.0, "startup is not parallelized");
    }

    #[test]
    fn lower_bound_mode_skips_format_cost() {
        let input = JobInput::mutable(lines(&["a b c"; 32]));
        let plain = HadoopCluster::new(1);
        let lb = HadoopCluster::new(1).with_mode(EmulationMode::HadoopLowerBound);
        let (_, mp) = plain.run_job(&wordcount_job(), std::slice::from_ref(&input), 0);
        let (_, ml) = lb.run_job(&wordcount_job(), &[input], 0);
        assert!(ml.cpu_units < mp.cpu_units);
        assert!(ml.sim_time < mp.sim_time);
    }

    #[test]
    fn metrics_merge_adds() {
        let mut a = JobMetrics { map_input_records: 1, sim_time: 2.0, ..Default::default() };
        let b = JobMetrics { map_input_records: 3, sim_time: 4.0, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.map_input_records, 4);
        assert_eq!(a.sim_time, 6.0);
    }
}
