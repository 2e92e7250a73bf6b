//! Bench F-FLEET: persistent fleet workers versus one-subprocess-per-job
//! process dispatch.
//!
//! The workload is the shape the long-lived worker mode exists for: a
//! grid of small shard jobs whose compute is cheap enough that process
//! lifecycle dominates.  The legacy `ProcessBackend` pays a fresh spawn
//! (binary load, allocator warm-up, pipe setup) for every one of the
//! jobs; the `FleetBackend` pays it once per pool worker and then
//! streams the same `ShardSpec` messages to the already-running
//! processes over framed stdio.
//!
//! The bench times both over a few repetitions (taking the minimum,
//! robust against scheduling noise), verifies both produce statistics
//! bit-identical to the serial reference, and asserts the persistent
//! pool is no slower than per-job spawning — the property that justifies
//! making it the default for `--backend process` runs.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crp_protocols::ProtocolSpec;
use crp_sim::{
    FleetBackend, ProcessBackend, RunnerConfig, SerialBackend, SweepMatrix, SweepProtocol,
};

/// Grid scale: 2 columns × 1 scenario × 2048 trials = 16 shard jobs of
/// 256 trials each.
const COLUMNS: usize = 2;
const TRIALS_PER_CELL: usize = 2048;
const UNIVERSE: usize = 1 << 8;
const WORKERS: usize = 2;
const REPETITIONS: usize = 5;

/// Per-job spawning may be up to this factor faster before the assertion
/// fires; it absorbs timer jitter without masking a real regression of
/// the persistent pool.
const TOLERANCE: f64 = 1.15;

fn grid() -> SweepMatrix {
    let library = crp_predict::ScenarioLibrary::new(UNIVERSE).expect("bench universe is valid");
    let mut matrix = SweepMatrix::new()
        .scenario(library.bimodal())
        .trials(TRIALS_PER_CELL)
        .runner(RunnerConfig::with_trials(TRIALS_PER_CELL).seeded(23));
    for column in 0..COLUMNS {
        matrix = matrix.protocol(
            SweepProtocol::from_scenario(format!("decay-{column}"), |s| {
                ProtocolSpec::new("decay").universe(s.distribution().max_size())
            })
            .max_rounds_with(|s| Some(64 * s.distribution().max_size())),
        );
    }
    matrix
}

fn time_min<T>(mut body: impl FnMut() -> T) -> Duration {
    black_box(body());
    (0..REPETITIONS)
        .map(|_| {
            let start = Instant::now();
            black_box(body());
            start.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

fn dispatch_comparison() {
    // The worker binary is resolved next to the bench executable; a
    // missing one fails the bench rather than skipping the comparison
    // (CI builds it first).
    let fleet = FleetBackend::local(WORKERS)
        .unwrap_or_else(|err| panic!("fleet_dispatch comparison cannot start its fleet: {err}"));
    let per_job_spawn = ProcessBackend::new(WORKERS);
    let matrix = grid();

    // Same statistics on every backend — dispatch only changes wall
    // clock.
    let reference = matrix.run_on(&SerialBackend).expect("serial reference");
    for results in [
        matrix.run_on(&per_job_spawn).expect("process backend runs"),
        matrix.run_on(&fleet).expect("fleet backend runs"),
    ] {
        assert_eq!(reference, results, "out-of-process dispatch changed stats");
    }

    let spawn_time = time_min(|| matrix.run_on(&per_job_spawn).expect("process backend runs"));
    let fleet_time = time_min(|| matrix.run_on(&fleet).expect("fleet backend runs"));
    let ratio = fleet_time.as_secs_f64() / spawn_time.as_secs_f64().max(1e-12);
    println!(
        "\n=== Fleet dispatch ({} jobs, {WORKERS} workers) ===\n\
         per-job spawn: {spawn_time:?}   persistent workers: {fleet_time:?}   \
         fleet/spawn: {ratio:.2}x",
        COLUMNS * TRIALS_PER_CELL.div_ceil(256),
    );
    assert!(
        ratio <= TOLERANCE,
        "persistent fleet workers must be no slower than per-job spawning \
         (ratio {ratio:.2}x > tolerance {TOLERANCE}x)"
    );
}

fn fleet_dispatch(c: &mut Criterion) {
    dispatch_comparison();
    let matrix = grid();
    let mut group = c.benchmark_group("fleet_dispatch");
    group.sample_size(5);
    if let Ok(fleet) = FleetBackend::local(WORKERS) {
        group.bench_with_input(
            criterion::BenchmarkId::new("per-job-spawn", WORKERS),
            &matrix,
            |b, m| b.iter(|| m.run_on(&ProcessBackend::new(WORKERS)).unwrap()),
        );
        group.bench_with_input(
            criterion::BenchmarkId::new("persistent-workers", WORKERS),
            &matrix,
            |b, m| b.iter(|| m.run_on(&fleet).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, fleet_dispatch);
criterion_main!(benches);
