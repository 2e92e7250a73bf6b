//! Self-tests of the benchmark: its percentile helper, its grid seeds,
//! its check against the serial reference, and a tiny-size smoke of
//! every workload that checks each metric `BENCHMARK.json` names is
//! emitted.
//!
//! The smoke needs the `crp_experiments` worker binary next to the test
//! binary's target directory; `bash sweepbench/run.sh test` builds it
//! first.  A missing worker fails the test.

use std::path::PathBuf;

use crp_sim::SerialBackend;
use sweepbench::grids::{self, GridKey, Scale, Workload};
use sweepbench::percentile::{median, nearest_rank, tail, MIN_BEYOND};
use sweepbench::run::{digest, mismatch, reference, run, Options};

#[test]
fn median_takes_the_middle_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_the_percentile() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&samples, 50), Some(50.0));
    assert_eq!(nearest_rank(&samples, 95), Some(95.0));
    assert_eq!(nearest_rank(&samples, 100), Some(100.0));
    assert_eq!(nearest_rank(&[7.0], 1), Some(7.0));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples = |n: u32| -> Vec<f64> { (1..=n).rev().map(f64::from).collect() };
    assert_eq!(tail(&samples(19)), None, "too few samples for a tail");
    assert_eq!(tail(&samples(20)), Some((50, 10.0)));
    assert_eq!(tail(&samples(100)), Some((90, 90.0)));
    assert_eq!(tail(&samples(200)), Some((95, 190.0)));
    assert_eq!(tail(&samples(1000)), Some((99, 990.0)));
    assert_eq!(tail(&samples(5000)), Some((99, 4950.0)), "capped at p99");
    for n in 20..400u32 {
        let (pct, value) = tail(&samples(n)).expect("enough samples");
        let beyond = samples(n).iter().filter(|&&v| v > value).count();
        assert!(beyond >= MIN_BEYOND, "n={n}: p{pct} leaves {beyond}");
        if pct < 99 {
            let next = nearest_rank(&samples(n), pct + 1).expect("samples");
            let beyond_next = samples(n).iter().filter(|&&v| v > next).count();
            assert!(
                beyond_next < MIN_BEYOND,
                "n={n}: p{} would also do",
                pct + 1
            );
        }
    }
}

#[test]
fn grid_seeds_are_a_function_of_the_workload_seed() {
    let keys = [
        GridKey::Op(0),
        GridKey::Op(1),
        GridKey::Warmup(0),
        GridKey::Warmup(1),
        GridKey::Replay,
    ];
    let seeds: Vec<u64> = keys.iter().map(|key| key.seed(7)).collect();
    assert_eq!(
        seeds,
        keys.iter().map(|key| key.seed(7)).collect::<Vec<_>>()
    );
    let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
    assert_eq!(distinct.len(), keys.len(), "no two grids share a seed");
    assert_ne!(GridKey::Op(0).seed(7), GridKey::Op(0).seed(8));
}

#[test]
fn the_check_passes_the_default_kernel_and_fails_a_different_table() {
    let scenarios = grids::scenarios(Workload::KernelGrid, Scale::Tiny).expect("scenarios");
    let grid = |seed| grids::matrix(Workload::KernelGrid, Scale::Tiny, &scenarios, seed);
    let timed = grid(5)
        .expect("grid")
        .run_on(&SerialBackend)
        .expect("timed run");
    let same = digest(&reference(grid(5).expect("grid")).expect("reference"));
    let other = digest(&reference(grid(6).expect("grid")).expect("reference"));
    assert_ne!(same, other, "two seeds give two tables");
    assert_eq!(mismatch(&Ok(digest(&timed)), &same), None);
    assert!(mismatch(&Ok(digest(&timed)), &other).is_some());
    assert!(mismatch(&Err("worker lost".to_string()), &same).is_some());
}

/// The metric names one section of `BENCHMARK.json` lists.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section's list ends")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let value = entry.split('"').nth(1).expect("a quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweepbench-smoke");
    for trace in [false, true] {
        let expected = declared(if trace { "per_layer" } else { "end_to_end" });
        assert!(!expected.is_empty());
        for workload in Workload::ALL {
            let options = Options {
                workload,
                seed: 3,
                seconds: 0.2,
                trace,
                scale: Scale::Tiny,
                work_dir: work_dir.clone(),
            };
            let outcome = run(&options)
                .unwrap_or_else(|err| panic!("{} failed to run: {err}", workload.name()));
            assert!(
                outcome.correct(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                outcome.failures
            );
            assert!(outcome.attempted >= 1);
            let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(emitted, expected, "{} (trace {trace})", workload.name());
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(
                    outcome.metrics.iter().all(|m| m.value > 0.0),
                    "{}: end-to-end metrics are never 0: {:?}",
                    workload.name(),
                    outcome.metrics
                );
            }
            if trace && workload == Workload::FleetWideUniverse {
                assert_eq!(outcome.metric("cache.hit_ratio"), Some(0.5));
            }
        }
    }
}
