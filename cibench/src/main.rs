//! `cibench` — run one benchmark workload against `easeml-ci serve`.
//!
//! ```text
//! cibench --server PATH --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Prints a short report, then, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero without that line when the run cannot be carried out.

use cibench::gen::Workload;
use cibench::run::{self, Config};
use easeml_serve::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cibench --server PATH --workload NAME --seed N --seconds S \
                     --trace 0|1 [--work-dir DIR]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut server = None;
    let mut work_dir = PathBuf::from(".bench_build/cibench");
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Config {
        server: server.ok_or_else(|| missing("--server"))?,
        work_dir,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("cibench: {e}");
            return ExitCode::from(2);
        }
    };
    if !cfg.server.is_file() {
        eprintln!("cibench: server binary {} not found", cfg.server.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("cibench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let outcome = match run::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cibench: {} run failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };

    let mut problems = outcome.problems;
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite", m.name));
            continue;
        }
        metrics.push((
            m.name.clone(),
            Value::object([
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ]),
        ));
    }
    let correct = problems.is_empty() && outcome.failed == 0;
    for line in &outcome.report {
        println!("# {line}");
    }
    for m in &outcome.metrics {
        println!("# {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    println!("# environment: {}", outcome.environment.encode());
    let result = Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    let report_path = cfg.work_dir.join(format!(
        "report-{}-s{}-t{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let full = Value::object([
        ("environment", outcome.environment),
        (
            "problems",
            Value::array(problems.into_iter().map(Value::from)),
        ),
        ("result", result.clone()),
    ]);
    if let Err(e) = std::fs::write(&report_path, full.pretty()) {
        eprintln!("cibench: cannot write {}: {e}", report_path.display());
    }
    println!("{}", result.encode());
    ExitCode::SUCCESS
}
