//! Deterministic fault-injection sweeps: the paper's Figure 12 experiment
//! as a CI-gated property.
//!
//! A [`ChaosSweep`] runs a query once without failures to fix the
//! baseline, then replays it once per (worker × kill-point × strategy)
//! case with a [`FailurePlan`] injected at that stratum boundary, and
//! compares every recovered result **bit-identically** against the
//! baseline. Because the cluster is a deterministic simulation (round
//! scheduler, seeded partitioning, ordered delivery), any divergence is a
//! recovery bug, not noise — the harness never needs tolerances or
//! retries.
//!
//! ```text
//! baseline = run(plan)                       // no failure
//! for worker in kill_workers:
//!   for stratum in kill_strata:              // default: every boundary
//!     for strategy in {Restart, Incremental}:
//!       got = run(plan, kill worker @ stratum, strategy)
//!       got == baseline, bit for bit — or the case is recorded divergent
//! ```
//!
//! [`ChaosReport::assert_clean`] is the single call test suites gate on.

use crate::engine::ClusterError;
use crate::failure::{FailureEvent, FailurePlan, RecoveryStrategy};
use crate::runtime::{ClusterConfig, ClusterRuntime};
use rex_core::tuple::Tuple;
use rex_core::udf::Registry;
use rex_rql::logical::LogicalPlan;
use rex_storage::catalog::Catalog;

/// One fault-injection case: kill `worker` at the end of `stratum` and
/// recover under `strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosCase {
    /// The worker to kill.
    pub worker: usize,
    /// The stratum boundary at which to kill it.
    pub stratum: u64,
    /// The recovery strategy under test.
    pub strategy: RecoveryStrategy,
}

/// What one case produced, compared against the failure-free baseline.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The injected case.
    pub case: ChaosCase,
    /// Failure events the runtime recorded (empty means the kill point
    /// was past the query's last boundary, so nothing was injected).
    pub failures: Vec<FailureEvent>,
    /// Whether the run's rows matched the baseline bit for bit.
    pub identical: bool,
    /// Human-readable mismatch description when not identical.
    pub divergence: Option<String>,
    /// Simulated completion time of the recovered run.
    pub simulated_time: f64,
}

/// The sweep's verdict: baseline shape plus every case outcome.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Rows the failure-free run produced (the oracle).
    pub baseline: Vec<Tuple>,
    /// Strata the failure-free run executed.
    pub baseline_strata: u64,
    /// Simulated completion time of the failure-free run.
    pub baseline_time: f64,
    /// One outcome per injected case.
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// Cases whose results diverged from the baseline.
    pub fn divergent(&self) -> Vec<&ChaosOutcome> {
        self.outcomes.iter().filter(|o| !o.identical).collect()
    }

    /// Cases where the kill actually fired (failure events recorded).
    pub fn injected(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.failures.is_empty()).count()
    }

    /// Panic with a per-case summary if any case diverged, or if no case
    /// actually injected a failure (a vacuous sweep is a harness bug).
    pub fn assert_clean(&self) {
        assert!(
            self.injected() > 0,
            "chaos sweep injected no failures over {} cases ({} baseline strata) — \
             kill points never fired",
            self.outcomes.len(),
            self.baseline_strata,
        );
        let bad = self.divergent();
        assert!(
            bad.is_empty(),
            "{} of {} chaos cases diverged from the failure-free baseline:\n{}",
            bad.len(),
            self.outcomes.len(),
            bad.iter()
                .map(|o| {
                    format!(
                        "  kill w{} @ stratum {} under {:?}: {}",
                        o.case.worker,
                        o.case.stratum,
                        o.case.strategy,
                        o.divergence.as_deref().unwrap_or("?"),
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// Builder for a deterministic kill-point sweep over one query.
#[derive(Clone)]
pub struct ChaosSweep {
    n_workers: usize,
    threads: usize,
    strategies: Vec<RecoveryStrategy>,
    kill_workers: Option<Vec<usize>>,
    kill_strata: Option<Vec<u64>>,
}

impl ChaosSweep {
    /// Sweep over a cluster of `n` workers, killing every worker at every
    /// stratum boundary under both recovery strategies.
    pub fn new(n: usize) -> ChaosSweep {
        ChaosSweep {
            n_workers: n.max(1),
            threads: 1,
            strategies: vec![RecoveryStrategy::Incremental, RecoveryStrategy::Restart],
            kill_workers: None,
            kill_strata: None,
        }
    }

    /// Thread ceiling for every run in the sweep (default 1: the
    /// requestor drains every worker itself). Results are bit-identical at
    /// every thread count; sweeping more than one proves it under faults.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Restrict the strategies swept (default: both).
    pub fn strategies(mut self, s: &[RecoveryStrategy]) -> Self {
        self.strategies = s.to_vec();
        self
    }

    /// Restrict which workers get killed (default: all of them).
    pub fn kill_workers(mut self, w: &[usize]) -> Self {
        self.kill_workers = Some(w.to_vec());
        self
    }

    /// Restrict which stratum boundaries get a kill (default: every
    /// boundary the failure-free run crossed).
    pub fn kill_strata(mut self, s: &[u64]) -> Self {
        self.kill_strata = Some(s.to_vec());
        self
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig::new(self.n_workers).with_threads(self.threads)
    }

    /// Run the sweep: one failure-free baseline, then every case.
    pub fn run(
        &self,
        catalog: &Catalog,
        plan: &LogicalPlan,
        reg: &Registry,
    ) -> Result<ChaosReport, ClusterError> {
        let rt = ClusterRuntime::new(self.config(), catalog.clone());
        let (baseline, base_report) = rt.run_logical(plan, reg)?;
        let strata = base_report.query.strata.len() as u64;
        let workers: Vec<usize> =
            self.kill_workers.clone().unwrap_or_else(|| (0..self.n_workers).collect());
        let boundaries: Vec<u64> =
            self.kill_strata.clone().unwrap_or_else(|| (0..strata).collect());
        let mut outcomes = Vec::new();
        for &w in &workers {
            for &s in &boundaries {
                for &strategy in &self.strategies {
                    let case = ChaosCase { worker: w, stratum: s, strategy };
                    let cfg = self.config().with_failure(FailurePlan::kill_at(w, s), strategy);
                    let rt = ClusterRuntime::new(cfg, catalog.clone());
                    let outcome = match rt.run_logical(plan, reg) {
                        Ok((rows, report)) => {
                            let identical = rows == baseline;
                            let divergence = (!identical).then(|| {
                                format!("{} rows vs baseline {}", rows.len(), baseline.len())
                            });
                            ChaosOutcome {
                                case,
                                failures: report.failures,
                                identical,
                                divergence,
                                simulated_time: report.query.simulated_time,
                            }
                        }
                        Err(e) => ChaosOutcome {
                            case,
                            failures: Vec::new(),
                            identical: false,
                            divergence: Some(format!("run failed: {e}")),
                            simulated_time: 0.0,
                        },
                    };
                    outcomes.push(outcome);
                }
            }
        }
        Ok(ChaosReport {
            baseline,
            baseline_strata: strata,
            baseline_time: base_report.query.simulated_time,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_core::tuple;
    use rex_core::tuple::Schema;
    use rex_core::value::DataType;
    use rex_rql::SchemaCatalog;
    use rex_storage::table::StoredTable;

    fn graph(n: i64) -> (Catalog, SchemaCatalog) {
        let schema = Schema::of(&[("src", DataType::Int), ("dst", DataType::Int)]);
        let mut edges = StoredTable::new("edges", schema.clone(), vec![0]);
        for i in 0..n - 1 {
            edges.insert(tuple![i, i + 1]).unwrap();
        }
        let mut seed = StoredTable::new("seed", Schema::of(&[("id", DataType::Int)]), vec![0]);
        seed.insert(tuple![0i64]).unwrap();
        let cat = Catalog::new();
        cat.register(edges);
        cat.register(seed);
        let mut sc = SchemaCatalog::new();
        sc.register("edges", schema);
        sc.register("seed", Schema::of(&[("id", DataType::Int)]));
        (cat, sc)
    }

    #[test]
    fn recursive_sweep_is_clean_at_every_boundary() {
        let (cat, sc) = graph(12);
        let reg = Registry::with_builtins();
        let src = "
            WITH reach (id) AS (
              SELECT id FROM seed
            ) UNION UNTIL FIXPOINT BY id (
              SELECT edges.dst FROM edges, reach WHERE edges.src = reach.id
            )";
        let plan = rex_rql::plan_rql(src, &sc, &reg).unwrap();
        for threads in [1, 4] {
            let report = ChaosSweep::new(3).threads(threads).run(&cat, &plan, &reg).unwrap();
            assert_eq!(report.baseline.len(), 12);
            let strata = report.baseline_strata;
            assert!(strata > 3, "want a real fixpoint, got {strata} at {threads} threads");
            assert!(report.injected() > 0);
            report.assert_clean();
        }
    }

    #[test]
    fn divergence_is_reported_not_swallowed() {
        // A sweep whose kill points all lie past the final boundary
        // injects nothing; assert_clean must flag the vacuous sweep.
        let (cat, sc) = graph(6);
        let reg = Registry::with_builtins();
        let plan =
            rex_rql::plan_rql("SELECT src, count(*) FROM edges GROUP BY src", &sc, &reg).unwrap();
        for threads in [1, 4] {
            let sweep = ChaosSweep::new(2).threads(threads).kill_strata(&[999]);
            let report = sweep.run(&cat, &plan, &reg).unwrap();
            assert_eq!(report.injected(), 0);
            let r = std::panic::catch_unwind(|| report.assert_clean());
            assert!(r.is_err(), "vacuous sweep must not pass");
        }
    }
}
