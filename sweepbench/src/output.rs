//! The result line the benchmark prints last, and the ledger record
//! that stamps it with where and how it was measured.

use crate::run::{Metric, Options, Outcome};

/// The final stdout line: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// One ledger record: the result stamped with the source revision,
/// `nproc`, last-level cache size, build profile and workload seed, so
/// repeated runs stack into an append-only trajectory.
pub fn ledger_record(options: &Options, outcome: &Outcome) -> String {
    let host = Host::detect();
    format!(
        "{{\"record\":{{\"rev\":{},\"nproc\":{},\"llc_bytes\":{},\"profile\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}}}",
        json_string(&host.rev),
        host.nproc,
        host.llc_bytes,
        host.profile,
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Every digit `f64`'s shortest round-trip rendering gives; JSON has no
/// non-finite numbers, so those render as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(text: &str) -> String {
    let escaped: String = text
        .chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Where the run was measured.
struct Host {
    /// The source revision (`SWEEPBENCH_REV`, set by `run.sh`).
    rev: String,
    nproc: usize,
    /// Size of the largest-level CPU cache, 0 when unknown.
    llc_bytes: u64,
    profile: &'static str,
}

impl Host {
    fn detect() -> Self {
        Self {
            rev: std::env::var("SWEEPBENCH_REV").unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes: last_level_cache_bytes(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The size of CPU 0's highest-level cache from sysfs.
fn last_level_cache_bytes() -> u64 {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return 0;
    };
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).ok();
    entries
        .flatten()
        .filter_map(|entry| {
            let level: u32 = read(entry.path().join("level"))?.trim().parse().ok()?;
            let size = read(entry.path().join("size"))?;
            let size = size.trim();
            let bytes = match size.strip_suffix('K') {
                Some(kib) => kib.parse::<u64>().ok()? * 1024,
                None => match size.strip_suffix('M') {
                    Some(mib) => mib.parse::<u64>().ok()? * 1024 * 1024,
                    None => size.parse().ok()?,
                },
            };
            Some((level, bytes))
        })
        .max()
        .map_or(0, |(_, bytes)| bytes)
}
