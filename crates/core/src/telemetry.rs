//! Execution telemetry: ground-truth counters for what the executor
//! actually did, as opposed to what the cost model predicted.
//!
//! The paper's evaluation hinges on knowing where time goes — per-iteration
//! delta volumes, operator costs, network traffic.
//! [`ExecMetrics`](crate::metrics::ExecMetrics) and the
//! [`CostModel`](crate::metrics::CostModel) *simulate* those costs;
//! telemetry *measures* them. When an [`Executor`](crate::exec::Executor)
//! runs with telemetry enabled it keeps one [`OpStats`] record per plan
//! node (rows in/out, batches, fast-lane batches, wall time) and the
//! runtime assembles them into an [`ExecTrace`] — the per-operator tree
//! plus per-iteration delta volumes that `EXPLAIN ANALYZE` renders.
//!
//! The design constraint is that the hot path stays allocation-free:
//! enabling telemetry allocates the per-node stats vector **once**, and
//! each event then costs two `Instant` reads and a handful of counter
//! increments; disabled, the only cost is an `Option` discriminant check
//! per event. The sub-operator detail counters (hash probes, collisions)
//! live as [`Cell`](std::cell::Cell)s inside
//! [`KeyedTable`](crate::hash::KeyedTable) and are harvested once per
//! query, not per row.

/// Measured counters for one plan node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Operator name as rendered by plans (`Scan(t)`, `HashJoin(...)`).
    pub name: String,
    /// Rows (deltas or bare fast-lane tuples) delivered to the operator.
    pub rows_in: u64,
    /// Rows the operator emitted downstream.
    pub rows_out: u64,
    /// Event batches delivered (data + punctuation).
    pub batches: u64,
    /// Batches that arrived as bare rows or columns
    /// ([`Event::Rows`](crate::operators::Event::Rows) or
    /// [`Event::Cols`](crate::operators::Event::Cols)), not as deltas.
    pub lane_hits: u64,
    /// Of those, the batches that arrived as columns — whether the
    /// operator ran on the column lane.
    pub cols: u64,
    /// Wall-clock nanoseconds spent inside the operator's handlers.
    pub wall_ns: u64,
    /// High-water mark of the executor event queue observed when events
    /// for this node were popped — how much work was stacked up behind
    /// the operator. Merging takes the max across workers/threads.
    pub queue_depth: u64,
    /// Morsels pulled from the shared scan cursor (parallel scans only;
    /// 0 when the node ran a whole snapshot).
    pub morsels: u64,
    /// How many worker threads' records were folded into this one (1 for
    /// a single-threaded run; merging sums).
    pub threads: u64,
    /// Operator-specific detail counters (hash probes/collisions, state
    /// sizes), harvested from
    /// [`Operator::stats_detail`](crate::operators::Operator::stats_detail)
    /// when the trace is taken.
    pub detail: Vec<(String, u64)>,
}

impl OpStats {
    /// Fold another worker's record for the same node into this one
    /// (cluster workers run copies of the same graph).
    pub fn merge(&mut self, other: &OpStats) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.lane_hits += other.lane_hits;
        self.cols += other.cols;
        self.wall_ns += other.wall_ns;
        self.queue_depth = self.queue_depth.max(other.queue_depth);
        self.morsels += other.morsels;
        self.threads += other.threads;
        for (k, v) in &other.detail {
            match self.detail.iter_mut().find(|(n, _)| n == k) {
                Some((_, mine)) => *mine += v,
                None => self.detail.push((k.clone(), *v)),
            }
        }
    }
}

/// A query-level execution trace: the annotated operator tree plus, for
/// recursive queries, per-iteration delta volumes.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// One record per plan node, indexed by
    /// [`NodeId`](crate::exec::NodeId).
    pub ops: Vec<OpStats>,
    /// Plan topology for rendering: `edges[node]` lists
    /// `(out_port, dst_node, dst_port)`.
    pub edges: Vec<Vec<(usize, usize, usize)>>,
    /// Which nodes are network boundaries.
    pub network: Vec<bool>,
    /// Per-iteration delta-set sizes (empty for non-recursive queries).
    pub iteration_deltas: Vec<u64>,
    /// Total wall-clock seconds of the traced run.
    pub wall_seconds: f64,
}

impl ExecTrace {
    /// Total rows delivered into sink nodes — the measured result
    /// cardinality (summed across workers for cluster traces).
    pub fn sink_rows(&self) -> u64 {
        self.ops.iter().filter(|o| o.name.starts_with("Sink")).map(|o| o.rows_in).sum()
    }

    /// Fold another worker's trace over the same plan into this one.
    /// Panics only via indexing if the plans differ in shape, which would
    /// be a runtime bug — every worker lowers the same logical plan.
    pub fn merge(&mut self, other: &ExecTrace) {
        for (mine, theirs) in self.ops.iter_mut().zip(&other.ops) {
            mine.merge(theirs);
        }
        for (i, d) in other.iteration_deltas.iter().enumerate() {
            match self.iteration_deltas.get_mut(i) {
                Some(mine) => *mine += d,
                None => self.iteration_deltas.push(*d),
            }
        }
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
    }

    /// Render the annotated operator tree, one node per line with its
    /// measured counters, followed by the per-iteration delta volumes.
    /// This is the body of `EXPLAIN ANALYZE` output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let net = if self.network.get(i).copied().unwrap_or(false) { " [network]" } else { "" };
            s.push_str(&format!(
                "#{i} {}{}  rows_in={} rows_out={} batches={} time={}\n",
                op.name,
                net,
                op.rows_in,
                op.rows_out,
                op.batches,
                fmt_ns(op.wall_ns),
            ));
            if op.lane_hits > 0 {
                s.push_str(&format!("   lane_hits={}\n", op.lane_hits));
            }
            if op.cols > 0 {
                s.push_str(&format!("   cols={}\n", op.cols));
            }
            if op.threads > 1 {
                s.push_str(&format!("   threads={}\n", op.threads));
            }
            if op.morsels > 0 {
                s.push_str(&format!("   morsels={}\n", op.morsels));
            }
            if op.queue_depth > 0 {
                s.push_str(&format!("   queue_depth={}\n", op.queue_depth));
            }
            for (k, v) in &op.detail {
                s.push_str(&format!("   {k}={v}\n"));
            }
            if let Some(edges) = self.edges.get(i) {
                for (port, dst, dport) in edges {
                    s.push_str(&format!("   out{port} -> #{dst}.in{dport}\n"));
                }
            }
        }
        if !self.iteration_deltas.is_empty() {
            s.push_str("iterations:\n");
            for (i, d) in self.iteration_deltas.iter().enumerate() {
                s.push_str(&format!("   stratum {i}: delta_set_size={d}\n"));
            }
        }
        s
    }
}

/// Human-scale duration: `842ns`, `13.4µs`, `2.1ms`, `1.73s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, rows_in: u64, rows_out: u64) -> OpStats {
        OpStats { name: name.into(), rows_in, rows_out, batches: 1, ..Default::default() }
    }

    #[test]
    fn merge_sums_counters_and_details() {
        let mut a = stats("HashJoin", 10, 4);
        a.detail.push(("probes".into(), 7));
        let mut b = stats("HashJoin", 5, 2);
        b.detail.push(("probes".into(), 3));
        b.detail.push(("collisions".into(), 1));
        a.merge(&b);
        assert_eq!(a.rows_in, 15);
        assert_eq!(a.rows_out, 6);
        assert_eq!(a.batches, 2);
        assert_eq!(a.detail, vec![("probes".into(), 10), ("collisions".into(), 1)]);
    }

    #[test]
    fn merge_thread_counters() {
        let mut a = stats("Scan(t)", 0, 8);
        a.queue_depth = 3;
        a.morsels = 5;
        a.threads = 1;
        let mut b = stats("Scan(t)", 0, 6);
        b.queue_depth = 7;
        b.morsels = 4;
        b.threads = 1;
        a.merge(&b);
        assert_eq!(a.queue_depth, 7, "queue depth is a high-water mark");
        assert_eq!(a.morsels, 9);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn trace_merge_aligns_iterations_and_sums_sinks() {
        let mut a = ExecTrace {
            ops: vec![stats("Scan(t)", 0, 8), stats("Sink", 8, 0)],
            iteration_deltas: vec![8, 2],
            wall_seconds: 0.5,
            ..Default::default()
        };
        let b = ExecTrace {
            ops: vec![stats("Scan(t)", 0, 6), stats("Sink", 6, 0)],
            iteration_deltas: vec![6, 1, 1],
            wall_seconds: 0.75,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sink_rows(), 14);
        assert_eq!(a.iteration_deltas, vec![14, 3, 1]);
        assert_eq!(a.wall_seconds, 0.75);
    }

    #[test]
    fn render_includes_counters_topology_and_iterations() {
        let mut tr = ExecTrace {
            ops: vec![stats("Scan(t)", 0, 8), stats("Sink", 8, 0)],
            edges: vec![vec![(0, 1, 0)], vec![]],
            network: vec![false, false],
            iteration_deltas: vec![8, 0],
            wall_seconds: 0.0,
        };
        tr.ops[0].detail.push(("probes".into(), 42));
        tr.ops[1].lane_hits = 3;
        tr.ops[1].cols = 2;
        let txt = tr.render();
        assert!(txt.contains("lane_hits=3\n   cols=2\n"), "{txt}");
        assert!(txt.contains("#0 Scan(t)  rows_in=0 rows_out=8"));
        assert!(txt.contains("out0 -> #1.in0"));
        assert!(txt.contains("probes=42"));
        assert!(txt.contains("stratum 1: delta_set_size=0"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(900), "900ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_100_000), "2.1ms");
        assert_eq!(fmt_ns(1_730_000_000), "1.73s");
    }
}
