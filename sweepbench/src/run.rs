//! One benchmark run: set-up, the timed closed loop, the check against
//! the serial reference, and the metrics.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crp_predict::Scenario;
use crp_sim::{KernelChoice, SerialBackend, SweepMatrix, SweepResults};

use crate::grids::{self, GridKey, Scale, Workload};
use crate::layers::{self, ratio};
use crate::percentile::{median, tail};
use crate::spans::Recorder;
use crate::system::{OpResult, Served, System, WORKERS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every grid seed derives from.
    pub seed: u64,
    /// How long the timed loop runs (it stops after the op that crosses
    /// this).
    pub seconds: f64,
    /// False: the end-to-end metrics.  True: the per-layer metrics.
    pub trace: bool,
    /// Grid sizes.
    pub scale: Scale,
    /// Where the traced run's scratch result caches live while it lasts.
    pub work_dir: PathBuf,
}

/// One named, measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed, errored, or differed from the reference.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: reconciliation and span tables.
    pub report: String,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
}

impl Outcome {
    /// True when every op matched the reference bit for bit.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (a missing worker binary, a warm-up op that fails)
/// or a reference that cannot be computed.  Failures of timed ops are
/// counted in the outcome instead.
pub fn run(options: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", options.work_dir.display()))?;
    if options.trace {
        run_traced(options)
    } else {
        run_untraced(options)
    }
}

/// Builds the workload's grids from its scenarios and seed.  Grids are
/// rebuilt on every use, so the benchmark's own memory stays flat
/// however many ops a run makes.
struct Grids {
    workload: Workload,
    scale: Scale,
    seed: u64,
    scenarios: Vec<Scenario>,
}

impl Grids {
    fn build(&self, key: GridKey) -> Result<SweepMatrix, String> {
        grids::matrix(
            self.workload,
            self.scale,
            &self.scenarios,
            key.seed(self.seed),
        )
    }
}

/// One finished op.
struct Record {
    grid: GridKey,
    /// True unless the op resubmits a grid an earlier op of the same
    /// daemon submitted (the serve replay's second submission).
    fresh: bool,
    latency_s: f64,
    /// Hash of the table's full `Debug` rendering, or the op's error.
    digest: Result<String, String>,
    served: Option<Served>,
    /// The daemon's own time for the submission (traced serve ops).
    server_us: Option<f64>,
    /// The process's peak resident memory during the op (untraced ops).
    peak_rss_mib: Option<f64>,
}

impl Record {
    fn new(
        grid: GridKey,
        fresh: bool,
        latency_s: f64,
        result: Result<OpResult, String>,
        server_us: Option<f64>,
    ) -> Self {
        let served = result.as_ref().ok().and_then(|op| op.served);
        Self {
            grid,
            fresh,
            latency_s,
            digest: result.map(|op| digest(&op.results)),
            served,
            server_us,
            peak_rss_mib: None,
        }
    }
}

/// A bit-exact fingerprint of a table: `Debug` renders every float in
/// its shortest round-trip form, so equal digests mean equal bits.
pub fn digest(results: &SweepResults) -> String {
    crp_fleet::content_hash(format!("{results:?}").as_bytes())
}

/// The serial reference table of `matrix`: `SerialBackend` with the
/// scalar trial-at-a-time executor.  Timed ops run the default kernel
/// choice, which selects the batched kernels, so a change to those
/// kernels cannot also change what it is checked against.
///
/// # Errors
///
/// The grid's compile or run error, rendered.
pub fn reference(matrix: SweepMatrix) -> Result<SweepResults, String> {
    matrix
        .kernel(KernelChoice::Scalar)
        .run_on(&SerialBackend)
        .map_err(|e| format!("the serial reference failed: {e}"))
}

/// Checks one op's table digest, or its error, against the digest of
/// its grid's [`reference`]: `None` when they are equal bit for bit,
/// else what went wrong.
pub fn mismatch(op: &Result<String, String>, reference: &str) -> Option<String> {
    match op {
        Err(error) => Some(error.clone()),
        Ok(digest) if digest != reference => Some("differs from the serial reference".to_string()),
        Ok(_) => None,
    }
}

struct SetUp {
    system: System,
    grids: Grids,
    seconds: f64,
    library_ms: f64,
    warmup: Record,
}

/// Program set-up before the first timed op: scenario build, system
/// start (worker spawn and handshake) and one warm-up op.
fn set_up(options: &Options, rep: u64) -> Result<SetUp, String> {
    let started = Instant::now();
    let scenarios = grids::scenarios(options.workload, options.scale)?;
    let library_ms = started.elapsed().as_secs_f64() * 1e3;
    let system = System::start(options.workload)?;
    let grids = Grids {
        workload: options.workload,
        scale: options.scale,
        seed: options.seed,
        scenarios,
    };
    let key = GridKey::Warmup(rep);
    let matrix = grids.build(key)?;
    let op_started = Instant::now();
    let result = system
        .run(&matrix)
        .map_err(|e| format!("the warm-up op failed: {e}"))?;
    let latency_s = op_started.elapsed().as_secs_f64();
    Ok(SetUp {
        system,
        grids,
        seconds: started.elapsed().as_secs_f64(),
        library_ms,
        warmup: Record::new(key, true, latency_s, Ok(result), None),
    })
}

/// The daemon's summed `serve.submit_micros`.
fn server_micros() -> f64 {
    crp_obs::global()
        .snapshot()
        .histogram("serve.submit_micros")
        .map_or(0.0, |h| h.sum as f64)
}

/// Runs one fresh grid per op, ops `first_op..`, until `seconds` have
/// passed; with `spans`, each op records its layer spans under an `op`
/// span.
fn timed_loop(
    system: &System,
    grids: &Grids,
    seconds: f64,
    mut spans: Option<&mut Recorder>,
    first_op: u64,
) -> Result<Vec<Record>, String> {
    let started = Instant::now();
    let mut records = Vec::new();
    loop {
        let id = first_op + records.len() as u64;
        let grid = GridKey::Op(id);
        let matrix = grids.build(grid)?;
        records.push(match spans.as_deref_mut() {
            None => {
                reset_peak_rss();
                let op_started = Instant::now();
                let result = system.run(&matrix);
                let latency = op_started.elapsed().as_secs_f64();
                Record {
                    peak_rss_mib: peak_rss_mib(),
                    ..Record::new(grid, true, latency, result, None)
                }
            }
            Some(recorder) => traced_op(system, &matrix, grid, true, id, recorder),
        });
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(records);
        }
    }
}

/// Runs `matrix` as traced op `id` under an `op` span.
fn traced_op(
    system: &System,
    matrix: &SweepMatrix,
    grid: GridKey,
    fresh: bool,
    id: u64,
    spans: &mut Recorder,
) -> Record {
    let before = server_micros();
    let span = spans.start(id, "op");
    let result = system.run_traced(matrix, id, spans);
    let latency = spans.end(span) as f64 / 1e9;
    let server_us = matches!(system, System::Serve(_)).then(|| server_micros() - before);
    Record::new(grid, fresh, latency, result, server_us)
}

/// What checking the ops against the serial reference found.
struct Verdict {
    failed: u64,
    failures: Vec<String>,
    /// Simulated trial-rounds of each grid.
    rounds: BTreeMap<GridKey, f64>,
}

/// Checks every record bit for bit against its grid's [`reference`],
/// and on the serve path that a resubmission was fully cached and a
/// fresh grid fully computed.
fn verify<'a>(
    grids: &Grids,
    records: impl IntoIterator<Item = &'a Record>,
) -> Result<Verdict, String> {
    // The reference table's digest and trial-rounds, per grid.
    let mut references: BTreeMap<GridKey, (String, f64)> = BTreeMap::new();
    let mut failed = 0;
    let mut failures = Vec::new();
    for record in records {
        let (reference, _) = match references.entry(record.grid) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let table = reference(grids.build(record.grid)?)?;
                let rounds = table
                    .cells()
                    .iter()
                    .map(|cell| layers::trial_rounds(&cell.stats))
                    .sum();
                entry.insert((digest(&table), rounds))
            }
        };
        let problem = match (mismatch(&record.digest, reference), record.served) {
            (Some(problem), _) => Some(format!("{:?}: {problem}", record.grid)),
            (None, Some(served)) if record.fresh && served.computed != served.jobs => {
                Some(format!(
                    "{:?}: a fresh grid computed {} of {} jobs",
                    record.grid, served.computed, served.jobs
                ))
            }
            (None, Some(served)) if !record.fresh && served.cache_hits != served.jobs => {
                Some(format!(
                    "{:?}: a repeated grid hit the cache on {} of {} jobs",
                    record.grid, served.cache_hits, served.jobs
                ))
            }
            _ => None,
        };
        if let Some(problem) = problem {
            failed += 1;
            if failures.len() < 5 {
                failures.push(problem);
            }
        }
    }
    Ok(Verdict {
        failed,
        failures,
        rounds: references
            .into_iter()
            .map(|(grid, (_, rounds))| (grid, rounds))
            .collect(),
    })
}

fn run_untraced(options: &Options) -> Result<Outcome, String> {
    let mut setup_seconds = Vec::new();
    let mut last: Option<SetUp> = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous set-up's workers before timing the next.
        drop(last.take());
        let setup = set_up(options, rep)?;
        setup_seconds.push(setup.seconds);
        last = Some(setup);
    }
    let SetUp {
        system,
        grids,
        warmup,
        ..
    } = last.expect("at least one set-up");
    let records = timed_loop(&system, &grids, options.seconds, None, 0)?;
    drop(system);
    let verdict = verify(&grids, std::iter::once(&warmup).chain(&records))?;

    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    let rounds: f64 = records.iter().map(|r| verdict.rounds[&r.grid]).sum();
    let mut report = String::new();
    let _ = writeln!(report, "set-up times (s): {setup_seconds:.4?}");
    let _ = writeln!(report, "op latencies (s): {latencies:.4?}");
    let peaks: Vec<f64> = records.iter().filter_map(|r| r.peak_rss_mib).collect();
    let _ = writeln!(report, "op peak resident memory (MiB): {peaks:.1?}");
    if let Some((pct, value)) = tail(&latencies) {
        let _ = writeln!(
            report,
            "op latency p{pct}: {:.3} ms over {} ops",
            value * 1e3,
            latencies.len()
        );
    }
    let metrics = vec![
        metric("setup_s", median(&setup_seconds), "s"),
        metric("sweep_s", median(&latencies), "s"),
        metric(
            "trial_rounds_per_s",
            Some(rounds / latencies.iter().sum::<f64>()),
            "1/s",
        ),
        metric(
            "peak_rss_mib",
            median(
                &records
                    .iter()
                    .filter_map(|r| r.peak_rss_mib)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
    ];
    Ok(Outcome {
        attempted: records.len() as u64,
        failed: verdict.failed,
        failures: verdict.failures,
        metrics,
        report,
        spans: None,
    })
}

fn median_or_0(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name,
        value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
        unit,
    }
}

/// Peak resident memory of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next reading is
/// the peak of one op.  The process-lifetime peak depends on which op
/// the allocator happened to fragment; the per-op peak repeats.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Span op id of the serve replay's first submission (timed ops count
/// up from zero).
const SERVE_REPLAY_OP: u64 = 1 << 62;

/// What the serve path's layers did over the serve replay's submissions.
struct ServePhase {
    submissions: f64,
    /// Per submission: the client's `compile_submission`, ms.
    compile_ms: Vec<f64>,
    /// Per submission: the client's `results_from_outcome`, us.
    results_us: Vec<f64>,
    /// Per submission: the daemon's own time (`serve.submit_micros`), us.
    server_us: Vec<f64>,
    /// Per submission: client latency − daemon time − compile, ms.
    client_overhead_ms: Vec<f64>,
    hit_ratio: f64,
    /// The hit ratio the submissions imply: every resubmission hits in
    /// full, no fresh grid hits at all.
    expected_hit_ratio: f64,
    read_bytes: f64,
    write_bytes: f64,
    heals: f64,
    entries: usize,
}

/// Submits the replay grid to a scratch daemon caching in `dir` twice,
/// fresh and then from the cache, as traced ops under `spans`, and
/// reads the serve layers' numbers.  The workloads never reach the
/// serve path; this is where its layers are measured.
fn serve_replay(
    grids: &Grids,
    dir: &std::path::Path,
    spans: &mut Recorder,
) -> Result<(Vec<Record>, ServePhase), String> {
    let daemon = System::serve(dir)?;
    let matrix = grids.build(GridKey::Replay)?;
    let before = crp_obs::global().snapshot();
    let records: Vec<Record> = [true, false]
        .into_iter()
        .enumerate()
        .map(|(index, fresh)| {
            let id = SERVE_REPLAY_OP + index as u64;
            traced_op(&daemon, &matrix, GridKey::Replay, fresh, id, spans)
        })
        .collect();
    let after = crp_obs::global().snapshot();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let ops = SERVE_REPLAY_OP..SERVE_REPLAY_OP + records.len() as u64;
    let by_op = |name: &str| -> BTreeMap<u64, f64> {
        spans
            .spans()
            .iter()
            .filter(|s| ops.contains(&s.op) && s.name == name)
            .map(|s| (s.op, s.duration_ns() as f64 / 1e6))
            .collect()
    };
    let compile = by_op("service.compile_submission");
    let mut server_us = Vec::new();
    let mut client_overhead_ms = Vec::new();
    for (record, op) in records.iter().zip(ops.clone()) {
        if let (Some(server), Some(compile_ms)) = (record.server_us, compile.get(&op)) {
            server_us.push(server);
            client_overhead_ms.push(record.latency_s * 1e3 - server / 1e3 - compile_ms);
        }
    }
    let submissions = records.len() as f64;
    let resubmissions = records.iter().filter(|r| !r.fresh).count() as f64;
    let phase = ServePhase {
        submissions,
        compile_ms: compile.into_values().collect(),
        results_us: by_op("service.results_from_outcome")
            .into_values()
            .map(|ms| ms * 1e3)
            .collect(),
        server_us,
        client_overhead_ms,
        hit_ratio: ratio(delta("serve.submit.hits"), delta("serve.submit.jobs")),
        expected_hit_ratio: resubmissions / submissions,
        read_bytes: ratio(delta("serve.cache.read_bytes"), submissions),
        write_bytes: ratio(delta("serve.cache.write_bytes"), submissions),
        heals: delta("serve.cache.heal"),
        entries: crp_serve::ResultCache::open(dir)
            .and_then(|cache| cache.len())
            .map_err(|e| e.to_string())?,
    };
    Ok((records, phase))
}

fn run_traced(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let SetUp {
        system,
        grids,
        library_ms,
        warmup,
        ..
    } = set_up(options, 0)?;
    let half = options.seconds / 2.0;
    // Phase A runs untraced, phase B traced: the ratio of their median
    // op latencies prices the tracing.
    let untraced = timed_loop(&system, &grids, half, None, 0)?;
    let first_traced = untraced.len() as u64;
    let mut spans = Recorder::new();
    let before = crp_obs::global().snapshot();
    let traced = timed_loop(&system, &grids, half, Some(&mut spans), first_traced)?;
    // Counters and histogram quantiles are read here, before any replay
    // or reference run adds the benchmark's own work to them.
    let after = crp_obs::global().snapshot();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let worker_rollup = match &system {
        System::Fleet(fleet) => fleet.dispatcher().worker_metrics().rollup(),
        _ => crp_obs::MetricsSnapshot::default(),
    };
    drop(system);

    let replay_matrix = grids.build(GridKey::Replay)?;
    let kernel = layers::replay_kernel(&replay_matrix, &mut spans)?;
    let on_wire = workload == Workload::FleetWideUniverse;
    let (wire, cache, serve_replay, serve_phase) = if on_wire {
        let (wire, inputs) = layers::replay_wire(&replay_matrix, &mut spans)?;
        let scratch = |name: &str| {
            options
                .work_dir
                .join(format!("{name}-{}", std::process::id()))
        };
        let cache = layers::replay_cache(&inputs, &scratch("replay-cache"), &mut spans)?;
        let (records, phase) = serve_replay(&grids, &scratch("serve-replay"), &mut spans)?;
        (wire, cache, records, Some(phase))
    } else {
        Default::default()
    };
    let verdict = verify(
        &grids,
        std::iter::once(&warmup)
            .chain(&untraced)
            .chain(&traced)
            .chain(&serve_replay),
    )?;

    let quantile = |snapshot: &crp_obs::MetricsSnapshot, name: &str, q: f64| {
        snapshot
            .histogram(name)
            .and_then(|h| h.quantile(q))
            .map_or(0.0, |v| v as f64)
    };
    let traced_ms: Vec<f64> = traced.iter().map(|r| r.latency_s * 1e3).collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(|r| r.latency_s * 1e3).collect();
    let all_ms: Vec<f64> = untraced_ms.iter().chain(&traced_ms).copied().collect();
    let ops = traced.len() as f64;

    // Each fleet job re-hashes its blobs.
    let hash_bytes = wire.blob_hash_bytes;
    let hash_us = wire.blob_hash_us;
    let needed = if on_wire {
        ops * kernel.jobs as f64
    } else {
        0.0
    };
    let execute_ms = if on_wire {
        median(&traced_ms).map_or(0.0, |ms| ms - kernel.compile_ms)
    } else {
        0.0
    };
    let trace_overhead = match (median(&traced_ms), median(&untraced_ms)) {
        (Some(traced), Some(untraced)) => traced / untraced - 1.0,
        _ => 0.0,
    };
    let attempted = untraced.len() + traced.len() + serve_replay.len();
    let tail = tail(&all_ms);

    let recon = reconcile(workload, ops, &kernel, &wire);
    let wall_ms: f64 = traced_ms.iter().sum();
    let unattributed = ratio(
        wall_ms - recon.iter().map(|(_, ms)| ms).sum::<f64>(),
        wall_ms,
    );

    // Layers off a workload's path report 0.
    let wire_only = |value: f64| if on_wire { value } else { 0.0 };
    let sp = serve_phase.as_ref();
    let serve_median =
        |samples: fn(&ServePhase) -> &[f64]| sp.map_or(0.0, |p| median_or_0(samples(p)));
    let serve_value = |value: fn(&ServePhase) -> f64| sp.map_or(0.0, value);
    let m = |name, value, unit| metric(name, Some(value), unit);
    let metrics = vec![
        m("sweep.compile_ms", kernel.compile_ms, "ms"),
        m("sweep.cells", kernel.cells as f64, "count"),
        m("sweep.jobs", kernel.jobs as f64, "count"),
        m("kernel.trial_rounds", kernel.trial_rounds, "count"),
        m(
            "kernel.batched.ns_per_trial_round",
            kernel.batched_ns_per_round,
            "ns",
        ),
        m(
            "kernel.per_node.ns_per_trial_round",
            kernel.per_node_ns_per_round,
            "ns",
        ),
        m("kernel.batched_share", kernel.batched_share, "ratio"),
        m(
            "kernel.shard_us_p50",
            quantile(&after, "sim.shard_micros", 0.5),
            "us",
        ),
        m(
            "codec.inline_bytes_per_job",
            wire_only(wire.inline_bytes),
            "B",
        ),
        m(
            "codec.compact_bytes_per_job",
            wire_only(wire.compact_bytes),
            "B",
        ),
        m(
            "codec.encode_inline_us_per_job",
            wire_only(wire.encode_inline_us),
            "us",
        ),
        m(
            "codec.encode_compact_us_per_job",
            wire_only(wire.encode_compact_us),
            "us",
        ),
        m("codec.decode_us_per_job", wire_only(wire.decode_us), "us"),
        m("hash.bytes_per_job", wire_only(hash_bytes), "B"),
        m("hash.us_per_job", wire_only(hash_us), "us"),
        m(
            "hash.mb_per_s",
            wire_only(ratio(hash_bytes, hash_us)),
            "MB/s",
        ),
        m(
            "dispatch.jobs",
            ratio(delta("fleet.dispatch"), ops),
            "count",
        ),
        m("dispatch.requeues", delta("fleet.requeue"), "count"),
        m(
            "dispatch.useful_ratio",
            ratio(needed, delta("fleet.dispatch")),
            "ratio",
        ),
        m(
            "dispatch.job_us_p50",
            quantile(&after, "fleet.job_micros", 0.5),
            "us",
        ),
        m(
            "dispatch.job_us_p90",
            quantile(&after, "fleet.job_micros", 0.9),
            "us",
        ),
        m("dispatch.execute_ms", execute_ms, "ms"),
        m("frame.bytes_per_job", wire_only(wire.frame_bytes), "B"),
        m("frame.roundtrip_us_per_job", wire_only(wire.frame_us), "us"),
        m("worker.job_us", wire_only(wire.worker_us), "us"),
        m(
            "worker.decode_share",
            wire_only(ratio(wire.decode_us, wire.worker_us)),
            "ratio",
        ),
        m(
            "worker.shard_us_p50",
            quantile(&worker_rollup, "sim.shard_micros", 0.5),
            "us",
        ),
        m(
            "stats.answer_decode_us",
            wire_only(wire.answer_decode_us),
            "us",
        ),
        m(
            "stats.merge_us_per_cell",
            wire_only(wire.merge_us_per_cell),
            "us",
        ),
        m(
            "service.compile_submission_ms",
            serve_median(|p| &p.compile_ms),
            "ms",
        ),
        m(
            "service.results_from_outcome_us",
            serve_median(|p| &p.results_us),
            "us",
        ),
        m("cache.get_us", cache.get_us, "us"),
        m("cache.put_us", cache.put_us, "us"),
        m("cache.hit_ratio", serve_value(|p| p.hit_ratio), "ratio"),
        m("cache.read_bytes", serve_value(|p| p.read_bytes), "B"),
        m("cache.write_bytes", serve_value(|p| p.write_bytes), "B"),
        m("cache.heals", serve_value(|p| p.heals), "count"),
        m("cache.entries", serve_value(|p| p.entries as f64), "count"),
        m(
            "serve.server_submit_us_p50",
            serve_median(|p| &p.server_us),
            "us",
        ),
        m(
            "serve.client_overhead_ms",
            serve_median(|p| &p.client_overhead_ms),
            "ms",
        ),
        m(
            "op.tail_pct",
            tail.map_or(0.0, |(pct, _)| f64::from(pct)),
            "%",
        ),
        m("op.tail_ms", tail.map_or(0.0, |(_, ms)| ms), "ms"),
        m("predict.library_build_ms", library_ms, "ms"),
        m("obs.trace_overhead_ratio", trace_overhead, "ratio"),
        m("trace.unattributed_ratio", unattributed, "ratio"),
        m(
            "error_ratio",
            ratio(verdict.failed as f64, attempted as f64),
            "ratio",
        ),
    ];

    let mut failed = verdict.failed;
    let mut failures = verdict.failures;
    if let Some(phase) = sp.filter(|p| p.hit_ratio != p.expected_hit_ratio) {
        failed += 1;
        failures.push(format!(
            "cache.hit_ratio is {} over {} submissions, expected {}",
            phase.hit_ratio, phase.submissions, phase.expected_hit_ratio
        ));
    }

    let mut report = String::new();
    let _ = writeln!(report, "span self times, traced ops and replays:");
    for (name, totals) in spans.totals() {
        let _ = writeln!(
            report,
            "  {name:<32} {:>6} spans  total {:>11.3} ms  self {:>11.3} ms",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    let _ = writeln!(
        report,
        "kernel replay: {:.3} ms per grid, {:.3} ms of it in per-node cells",
        kernel.kernel_ms, kernel.per_node_ms
    );
    let _ = writeln!(
        report,
        "op latencies, untraced then traced (ms): {all_ms:.3?}"
    );
    let _ = writeln!(
        report,
        "reconciliation over the {} traced ops:",
        traced.len()
    );
    for (layer, ms) in &recon {
        let _ = writeln!(
            report,
            "  {layer:<44} {ms:>11.3} ms  {:>6.1}%",
            100.0 * ratio(*ms, wall_ms)
        );
    }
    let _ = writeln!(
        report,
        "  {:<44} {wall_ms:>11.3} ms",
        "end-to-end wall (sum of op latencies)"
    );
    let _ = writeln!(
        report,
        "  {:<44} {unattributed:>11.4}",
        "trace.unattributed_ratio"
    );

    Ok(Outcome {
        attempted: attempted as u64,
        failed,
        failures,
        metrics,
        report,
        spans: Some(spans),
    })
}

/// The layer costs of `ops` traced ops, in milliseconds: replayed
/// per-grid and per-job costs scaled by the ops and the jobs each op
/// ran.  Work two workers share is divided by [`WORKERS`].
fn reconcile(
    workload: Workload,
    ops: f64,
    kernel: &layers::KernelReplay,
    wire: &layers::WireReplay,
) -> Vec<(String, f64)> {
    let jobs = kernel.jobs as f64;
    let workers = WORKERS as f64;
    match workload {
        Workload::KernelGrid => vec![
            (
                "sweep.compile (replay × ops)".into(),
                kernel.compile_ms * ops,
            ),
            (
                "kernel, every cell (replay × ops)".into(),
                kernel.kernel_ms * ops,
            ),
        ],
        Workload::FleetWideUniverse => vec![
            (
                "sweep.compile (replay × ops)".into(),
                kernel.compile_ms * ops,
            ),
            (
                "codec.encode inline+compact (× jobs)".into(),
                ops * jobs * (wire.encode_inline_us + wire.encode_compact_us) / 1e3,
            ),
            (
                "frame.roundtrip (× jobs)".into(),
                ops * jobs * wire.frame_us / 1e3,
            ),
            (
                "worker.run_shard (× jobs ÷ workers)".into(),
                ops * jobs * wire.worker_us / workers / 1e3,
            ),
            (
                "stats.answer_decode (× 2 × jobs)".into(),
                ops * jobs * 2.0 * wire.answer_decode_us / 1e3,
            ),
        ],
    }
}
