//! `rexbench` command line.
//!
//! ```text
//! rexbench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! rexbench [--seed N] [--seconds S] [--quick] [--repeat N] [--out FILE]
//!                                                         every workload, end to end then traced
//! rexbench compare A.json B.json                           two result files, pair by pair
//! rexbench manifest                                        the text of BENCHMARK.json
//! rexbench serve --engine local|cluster:N                  the server child (internal)
//! ```

use rexbench::metrics::{self, RUN_SECONDS};
use rexbench::report::{self, RunResult};
use rexbench::workloads::{self, SETUP_REPS};
use rexbench::{probes, server};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: rexbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--repeat N] [--out FILE] | compare A B | manifest";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One run of one workload, end to end or traced, and whether a traced
/// run closed its ledger.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<(RunResult, bool), String> {
    let w = workloads::build(name, seed)?;
    let (attempted, failed, first_failure, ledger_breach, metrics) = if traced {
        let t = probes::run(w.as_ref(), seconds)?;
        (t.attempted, t.failed, t.first_failure, t.ledger_breach, t.metrics)
    } else {
        let o = workloads::run(w.as_ref(), seconds, setups)?;
        let unit = |n| metrics::end_to_end_unit(n).expect("metric is in the table");
        let m = o.end_to_end.iter().map(|(n, v)| (*n, *v, unit(n))).collect();
        (o.attempted, o.failed, o.first_failure, None, m)
    };
    if let Some(f) = &first_failure {
        eprintln!("rexbench: {name}: {failed} of {attempted} operations failed; first: {f}");
    }
    if let Some(b) = &ledger_breach {
        eprintln!("rexbench: {name}: {b}");
    }
    let result = RunResult {
        workload: name.to_string(),
        seed,
        traced,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    Ok((result, ledger_breach.is_none()))
}

fn full_sets(a: &Args) -> Result<bool, String> {
    // --quick: a twentieth of the length and one set-up, to see that
    // everything runs; its numbers are not comparable with full runs.
    let (seconds, setups) = if a.quick { (a.seconds / 20.0, 1) } else { (a.seconds, SETUP_REPS) };
    let mut out = match &a.out {
        Some(p) => Some(std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    let mut all_correct = true;
    for set in 0..a.repeat {
        for name in workloads::NAMES {
            for traced in [false, true] {
                let (r, ledger_closed) = run_one(name, a.seed + set, seconds, traced, setups)?;
                print!("{}", r.table());
                if let Some(f) = out.as_mut() {
                    writeln!(f, "{}", r.file_line()).map_err(|e| e.to_string())?;
                }
                all_correct &= r.correct && ledger_closed;
            }
        }
    }
    if let (Some(p), true) = (&a.out, a.repeat > 1) {
        print!("{}", report::compare(p, p)?.0);
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = match argv.peek().map(String::as_str) {
        Some("serve") => match (argv.nth(1).as_deref(), argv.next()) {
            (Some("--engine"), Some(engine)) => server::serve(&engine).map(|()| true),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => match (argv.nth(1), argv.next()) {
            (Some(a), Some(b)) => report::compare(&a, &b).map(|(table, bad)| {
                print!("{table}");
                bad == 0
            }),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_args(argv).and_then(|a| match &a.workload {
            Some(name) => {
                // One run under the driver's contract: `correct` is about
                // the answers. A ledger over its limit is a timing
                // comparison a busy host can move; it is warned about and
                // reported as `ledger.unattributed_ratio`, and fails only
                // the all-workloads command.
                let (r, _) =
                    run_one(name, a.seed, a.seconds, a.trace.unwrap_or(false), SETUP_REPS)?;
                eprint!("{}", r.table());
                println!("{}", r.contract_line());
                Ok(r.correct)
            }
            None => full_sets(&a),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rexbench: {e}");
            ExitCode::from(2)
        }
    }
}
