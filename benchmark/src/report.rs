//! Output: the contract's result line, the human table, the result file
//! one line per run, and `compare` over two such files.

use crate::json::{self, quote, Json};
use crate::metrics::{repeats_exactly, Better, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run's metrics as `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one run reports, whichever mode it ran in.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`; values print with all their digits.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The same with the run's identity, one line of a result file.
    pub fn file_line(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            quote(&self.workload),
            self.seed,
            u8::from(self.traced),
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut s = format!(
            "== {} seed {} ({}) — {} attempted, {} failed, fail_ratio {} ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end to end" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted as f64,
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<44} {value:>16.3} {unit}");
        }
        s
    }
}

/// `values[(workload, metric)]` = one value per run in a result file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = v.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: no metrics object", n + 1))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.clone(), name.clone())).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// Verdict for one (metric, workload) pair: B against A's median under the
/// metric's bound. `unresolved` when either side's own spread exceeds the
/// bound — unless every run of B is better than every run of A.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let worse_by = |base: f64, x: f64| match better {
        Better::Lower => (x - base) / base.abs(),
        Better::Higher => (base - x) / base.abs(),
    };
    let (stat_a, stat_b) = (Summary::of(a), Summary::of(b));
    let b_always_better = b.iter().all(|y| a.iter().all(|x| worse_by(*x, *y) < 0.0));
    if stat_a.median == 0.0 && stat_b.median == 0.0 {
        "within"
    } else if (stat_a.spread > bound || stat_b.spread > bound) && !b_always_better {
        "unresolved"
    } else if worse_by(stat_a.median, stat_b.median) > bound {
        "regressed"
    } else {
        "within"
    }
}

struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
    spread: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = match values {
            [] => (0.0, 0.0, 0.0),
            [x] => (*x, *x, *x),
            many => quartiles(many),
        };
        let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() };
        Summary { q1, median, q3, spread }
    }
}

/// Compare result file B against A: one row per (metric, workload) with
/// each side's median, quartiles and spread, the ratio with its base, the
/// bound and a verdict. Counts must repeat exactly. Returns the table and
/// how many pairs regressed, are unresolved, or differ. Comparing a file
/// with itself shows its own spreads.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, usize), String> {
    let (a, b) = (read_runs(path_a)?, read_runs(path_b)?);
    let mut out = format!("A = {path_a}\nB = {path_b}\n");
    let _ = writeln!(
        out,
        "{:<20} {:<40} {:>12} {:>12} {:>12} {:>7} | {:>12} {:>7} | {:>14} {:>6}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "A iqr%",
        "B median",
        "B iqr%",
        "B/A",
        "bound"
    );
    let mut bad = 0;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else { continue };
        let (sa, sb) = (Summary::of(va), Summary::of(vb));
        let e2e = END_TO_END.iter().find(|m| m.name == metric);
        let layer = PER_LAYER.iter().find(|m| m.name == metric);
        let (bound, word) = match (e2e, layer) {
            (Some(m), _) => {
                (format!("{:.0}%", m.bound * 100.0), verdict(va, vb, m.better, m.bound))
            }
            // Counts must repeat exactly, run for run: the files hold the
            // same seeds in the same order.
            (None, Some(m)) if repeats_exactly(m.name) => {
                ("exact".to_string(), if va == vb { "identical" } else { "differs" })
            }
            _ => ("-".to_string(), "-"),
        };
        if matches!(word, "regressed" | "unresolved" | "differs") {
            bad += 1;
        }
        let ratio = if sa.median != 0.0 {
            format!("{:.3}x of {:.4}", sb.median / sa.median, sa.median)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{workload:<20} {metric:<40} {:>12.3} {:>12.3} {:>12.3} {:>6.1}% | {:>12.3} {:>6.1}% | {ratio:>14} {bound:>6}  {word}",
            sa.q1,
            sa.median,
            sa.q3,
            sa.spread * 100.0,
            sb.median,
            sb.spread * 100.0,
        );
    }
    let _ = writeln!(out, "{bad} pair(s) regressed, unresolved or differing");
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [80.0, 100.0, 125.0, 90.0, 140.0];
        assert_eq!(verdict(&steady, &steady, Better::Lower, 0.05), "within");
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.05), "regressed");
        // For a higher-is-better metric the same move is an improvement.
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.05), "within");
        assert_eq!(verdict(&slower, &steady, Better::Higher, 0.05), "regressed");
        assert_eq!(verdict(&steady, &noisy, Better::Lower, 0.05), "unresolved");
        // Wide spread, but every B run beats every A run: resolved.
        let fast_noisy = [10.0, 30.0, 20.0, 50.0, 15.0];
        assert_eq!(verdict(&steady, &fast_noisy, Better::Lower, 0.05), "within");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "w".into(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s")],
        };
        let v = json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert!(json::parse(&r.file_line()).unwrap().get("workload").is_some());
    }
}
