//! `sweepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on stdout, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics.  The line before it
//! is the ledger record, ready to append to a ledger file with `>>`.
//! The traced run writes its spans as JSON lines to
//! `.bench_out/spans-<workload>-<seed>.jsonl`.  Exits 1 when an op was
//! wrong or the run could not set up, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use sweepbench::grids::{Scale, Workload};
use sweepbench::output::{ledger_record, result_line};
use sweepbench::run::{run, Options};

const USAGE: &str = "usage: sweepbench --workload kernel-grid|fleet-wide-universe \
--seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        // The traced run's scratch caches and spans live here; run from
        // the repository root, it is inside the checkout.
        work_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&raw) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("sweepbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&options) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("sweepbench: {err}");
            return ExitCode::from(1);
        }
    };
    eprint!("{}", outcome.report);
    for failure in &outcome.failures {
        eprintln!("sweepbench: wrong op: {failure}");
    }
    for metric in &outcome.metrics {
        eprintln!("{:<36} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(spans) = &outcome.spans {
        let path = options.work_dir.join(format!(
            "spans-{}-{}.jsonl",
            options.workload.name(),
            options.seed
        ));
        if let Err(err) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!(
                "sweepbench: cannot write spans to {}: {err}",
                path.display()
            );
            return ExitCode::from(1);
        }
    }
    println!("{}", ledger_record(&options, &outcome));
    println!("{}", result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
