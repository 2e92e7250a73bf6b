//! Layer replays for the traced run.
//!
//! Where a layer runs inside a call the benchmark cannot split, the
//! traced run replays that call's real inputs through the layer's public
//! function: the payloads and blobs `compile_submission` produces and the
//! answers the workers return.  Per-job costs are then scaled by job
//! counts in the reconciliation.

use std::collections::HashMap;
use std::io::{BufReader, Cursor};
use std::path::Path;

use crp_fleet::{content_hash, read_frame, write_frame, BlobSet, JobSpan, Message};
use crp_serve::{ResultCache, Submission};
use crp_sim::service::{compile_submission, merge_cell_answers};
use crp_sim::{
    run_shard_worker_with, SerialBackend, ShardPlan, ShardSpec, SweepMatrix, TrialAccumulator,
    TrialStats,
};

use crate::spans::Recorder;

/// How many jobs the per-job replays sample: whole cells in grid order
/// until at least this many jobs are collected.
const SAMPLE_JOBS: usize = 16;

/// Span op id of replay spans (timed ops count up from zero).
pub const REPLAY_OP: u64 = u64::MAX;

/// What the kernel replay measured on one grid.
#[derive(Clone, Debug, Default)]
pub struct KernelReplay {
    /// `SweepMatrix::compile`, milliseconds (median of three).
    pub compile_ms: f64,
    /// Cells in the grid.
    pub cells: usize,
    /// Shard jobs in the grid.
    pub jobs: usize,
    /// Simulated trial-rounds of the grid.
    pub trial_rounds: f64,
    /// Summed wall time of every cell run alone on `SerialBackend`, ms.
    pub kernel_ms: f64,
    /// The part of `kernel_ms` spent in per-node §3 cells.
    pub per_node_ms: f64,
    /// Nanoseconds per trial-round over the uniform-kernel cells.
    pub batched_ns_per_round: f64,
    /// Nanoseconds per trial-round over the per-node §3 cells.
    pub per_node_ns_per_round: f64,
    /// Share of cells whose simulation selected a batched kernel, from
    /// the `sim.kernel.batched` / `sim.kernel.scalar` counters.
    pub batched_share: f64,
}

/// Compiles `matrix` and runs each cell alone on `SerialBackend`.
///
/// # Errors
///
/// The grid's compile or run error.
pub fn replay_kernel(matrix: &SweepMatrix, spans: &mut Recorder) -> Result<KernelReplay, String> {
    let mut compile_us = Vec::new();
    for _ in 0..3 {
        let (cells, us) = spans.timed(REPLAY_OP, "sweep.compile", || matrix.compile());
        cells.map_err(|e| e.to_string())?;
        compile_us.push(us);
    }
    let cells = matrix.compile().map_err(|e| e.to_string())?;
    let before = crp_obs::global().snapshot();
    let mut replay = KernelReplay {
        compile_ms: crate::percentile::median(&compile_us).unwrap_or(0.0) / 1e3,
        cells: cells.len(),
        ..KernelReplay::default()
    };
    // (nanoseconds, trial-rounds) of each kernel family.
    let (mut batched, mut per_node) = ((0.0, 0.0), (0.0, 0.0));
    for cell in &cells {
        replay.jobs += ShardPlan::new(cell.trials).num_shards();
        let (stats, us) = spans.timed(REPLAY_OP, "kernel.cell", || {
            cell.simulation.run_on(&SerialBackend)
        });
        let rounds = trial_rounds(&stats.map_err(|e| e.to_string())?);
        replay.kernel_ms += us / 1e3;
        replay.trial_rounds += rounds;
        let family = match cell.simulation.kernel_name() {
            Some("deterministic") | None => &mut per_node,
            Some(_) => &mut batched,
        };
        family.0 += us * 1e3;
        family.1 += rounds;
    }
    let after = crp_obs::global().snapshot();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    replay.batched_share = ratio(
        delta("sim.kernel.batched"),
        delta("sim.kernel.batched") + delta("sim.kernel.scalar"),
    );
    replay.per_node_ms = per_node.0 / 1e6;
    replay.batched_ns_per_round = ratio(batched.0, batched.1);
    replay.per_node_ns_per_round = ratio(per_node.0, per_node.1);
    Ok(replay)
}

/// What the wire-layer replays measured, per job unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct WireReplay {
    /// Cells whose jobs were sampled.
    pub sampled_cells: usize,
    /// Canonical inline `ShardSpec::to_wire` bytes.
    pub inline_bytes: f64,
    /// Compact `ShardSpec::to_wire_compact` bytes.
    pub compact_bytes: f64,
    /// `ShardSpec::to_wire`, microseconds.
    pub encode_inline_us: f64,
    /// `ShardSpec::to_wire_compact` into a fresh `BlobSet` (which hashes
    /// the job's blobs), microseconds.
    pub encode_compact_us: f64,
    /// `ShardSpec::from_wire_with` of the shipped payload, microseconds.
    pub decode_us: f64,
    /// Bytes of the blobs `to_wire_compact` hashes into its `BlobSet`.
    pub blob_hash_bytes: f64,
    /// `content_hash` of those blobs, microseconds.
    pub blob_hash_us: f64,
    /// Job frame plus answer frame bytes.
    pub frame_bytes: f64,
    /// `write_frame` + `read_frame` + message codec of the job and its
    /// answer, microseconds.
    pub frame_us: f64,
    /// `run_shard_worker_with` on the shipped payload, microseconds.
    pub worker_us: f64,
    /// `TrialAccumulator::from_wire` of a worker answer, microseconds.
    pub answer_decode_us: f64,
    /// `merge_cell_answers` of one cell's answers, microseconds.
    pub merge_us_per_cell: f64,
}

/// The grid's submission, blob table and sampled worker answers: the
/// real inputs the replays feed to each layer.
pub struct WireInputs {
    submission: Submission,
    blobs: HashMap<String, String>,
    /// `(cell, job, answer)` of every sampled job.
    answers: Vec<(usize, usize, String)>,
}

impl WireInputs {
    fn resolve(&self, hash: &str) -> Option<String> {
        self.blobs.get(hash).cloned()
    }

    fn payload(&self, cell: usize, job: usize) -> &str {
        let job = &self.submission.cells[cell].jobs[job];
        job.compact
            .as_deref()
            .or(job.inline.as_deref())
            .expect("compile_submission gives every job a payload")
    }
}

/// Replays the job codec, hashing, framing, worker and accumulator
/// layers on the grid's real payloads.
///
/// # Errors
///
/// The first layer error.
pub fn replay_wire(
    matrix: &SweepMatrix,
    spans: &mut Recorder,
) -> Result<(WireReplay, WireInputs), String> {
    let (submission, _) = spans
        .time(REPLAY_OP, "service.compile_submission", || {
            compile_submission(matrix)
        })
        .map_err(|e| e.to_string())?;
    let mut replay = WireReplay::default();
    let mut inputs = WireInputs {
        blobs: submission.blobs.iter().cloned().collect(),
        submission,
        answers: Vec::new(),
    };
    let mut sampled = Vec::new();
    for (cell_index, cell) in inputs.submission.cells.iter().enumerate() {
        if sampled.len() >= SAMPLE_JOBS {
            break;
        }
        replay.sampled_cells += 1;
        sampled.extend((0..cell.jobs.len()).map(|job| (cell_index, job)));
    }
    let resolve = |hash: &str| inputs.resolve(hash);
    let mut answers = Vec::new();
    for &(cell, job) in &sampled {
        let payload = inputs.payload(cell, job);
        let hash = &inputs.submission.cells[cell].jobs[job].hash;

        let (decoded, us) = spans.timed(REPLAY_OP, "codec.decode", || {
            ShardSpec::from_wire_with(payload, &resolve)
        });
        replay.decode_us += us;
        let (spec, plan, seed, shard) = decoded.map_err(|e| e.to_string())?;

        let (inline, us) = spans.timed(REPLAY_OP, "codec.encode_inline", || {
            spec.to_wire(plan, seed, shard)
        });
        replay.encode_inline_us += us;
        replay.inline_bytes += inline.len() as f64;

        let mut blob_set = BlobSet::new();
        let (compact, us) = spans.timed(REPLAY_OP, "codec.encode_compact", || {
            spec.to_wire_compact(plan, seed, shard, &mut blob_set)
        });
        replay.encode_compact_us += us;
        replay.compact_bytes += compact
            .as_ref()
            .map_or(inline.len(), |(compact, _)| compact.len())
            as f64;

        let identity = content_hash(inline.as_bytes());
        if &identity != hash {
            return Err(format!(
                "job {hash} re-encodes to another identity {identity}"
            ));
        }
        let blobs: Vec<&str> = blob_set.iter().map(|(_, blob)| blob).collect();
        let ((), us) = spans.timed(REPLAY_OP, "hash.blobs", || {
            for blob in &blobs {
                std::hint::black_box(content_hash(blob.as_bytes()));
            }
        });
        replay.blob_hash_us += us;
        replay.blob_hash_bytes += blobs.iter().map(|blob| blob.len()).sum::<usize>() as f64;

        let (answer, us) = spans.timed(REPLAY_OP, "worker.run_shard", || {
            run_shard_worker_with(payload, &resolve)
        });
        replay.worker_us += us;
        let answer = answer.map_err(|e| e.to_string())?;

        let (bytes, us) = spans.timed(REPLAY_OP, "frame.roundtrip", || {
            frame_roundtrip(payload, hash, &answer)
        });
        replay.frame_us += us;
        replay.frame_bytes += bytes? as f64;

        let (decoded, us) = spans.timed(REPLAY_OP, "stats.answer_decode", || {
            TrialAccumulator::from_wire(&answer)
        });
        replay.answer_decode_us += us;
        decoded.map_err(|e| format!("a worker answer does not decode: {e}"))?;
        answers.push((cell, job, answer));
    }
    for cell in 0..replay.sampled_cells {
        let cell_answers: Vec<String> = answers
            .iter()
            .filter(|(c, _, _)| *c == cell)
            .map(|(_, _, answer)| answer.clone())
            .collect();
        let (merged, us) = spans.timed(REPLAY_OP, "stats.merge_cell", || {
            merge_cell_answers(&cell_answers)
        });
        replay.merge_us_per_cell += us;
        merged.map_err(|e| format!("cell answers do not merge: {e}"))?;
    }
    let jobs = sampled.len().max(1) as f64;
    for per_job in [
        &mut replay.inline_bytes,
        &mut replay.compact_bytes,
        &mut replay.encode_inline_us,
        &mut replay.encode_compact_us,
        &mut replay.decode_us,
        &mut replay.blob_hash_bytes,
        &mut replay.blob_hash_us,
        &mut replay.frame_bytes,
        &mut replay.frame_us,
        &mut replay.worker_us,
        &mut replay.answer_decode_us,
    ] {
        *per_job /= jobs;
    }
    replay.merge_us_per_cell /= replay.sampled_cells.max(1) as f64;
    inputs.answers = answers;
    Ok((replay, inputs))
}

/// Frames a job and its answer the way dispatcher and worker exchange
/// them, reads both back, and returns the bytes on the wire.
fn frame_roundtrip(payload: &str, hash: &str, answer: &str) -> Result<usize, String> {
    let job = Message::Job {
        id: 1,
        payload: payload.to_string(),
        span: Some(JobSpan {
            id: crp_obs::span_from_hash(hash),
            parent: None,
        }),
    };
    let done = Message::Done {
        id: 1,
        payload: answer.to_string(),
    };
    let mut wire = Vec::new();
    for message in [&job, &done] {
        write_frame(&mut wire, &message.encode()).map_err(|e| e.to_string())?;
    }
    let bytes = wire.len();
    let mut reader = BufReader::new(Cursor::new(wire));
    for expected in [&job, &done] {
        let frame = read_frame(&mut reader)
            .map_err(|e| e.to_string())?
            .ok_or("a written frame did not read back")?;
        if &Message::decode(&frame).map_err(|e| e.to_string())? != expected {
            return Err("a framed message did not round-trip".to_string());
        }
    }
    Ok(bytes)
}

/// What the cache replay measured, per call.
#[derive(Clone, Debug, Default)]
pub struct CacheReplay {
    /// `ResultCache::get` of a present entry, microseconds.
    pub get_us: f64,
    /// `ResultCache::put`, microseconds.
    pub put_us: f64,
}

/// Replays the sampled worker answers through a scratch `ResultCache`
/// under `dir`, which it removes afterwards.
///
/// # Errors
///
/// A cache I/O error, or a read that does not return what was written.
pub fn replay_cache(
    inputs: &WireInputs,
    dir: &Path,
    spans: &mut Recorder,
) -> Result<CacheReplay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let mut replay = CacheReplay::default();
    for (cell, job, answer) in &inputs.answers {
        let key = &inputs.submission.cells[*cell].jobs[*job].hash;
        let (written, us) = spans.timed(REPLAY_OP, "cache.put", || cache.put(key, answer));
        replay.put_us += us;
        let (read, us) = spans.timed(REPLAY_OP, "cache.get", || cache.get(key));
        replay.get_us += us;
        written.map_err(|e| e.to_string())?;
        if read.map_err(|e| e.to_string())?.as_deref() != Some(answer.as_str()) {
            return Err("the scratch cache did not return what was written".to_string());
        }
    }
    let calls = inputs.answers.len().max(1) as f64;
    replay.get_us /= calls;
    replay.put_us /= calls;
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok(replay)
}

/// Simulated trial-rounds behind one cell's statistics: every trial's
/// rounds, unresolved trials counted at their budget.
pub fn trial_rounds(stats: &TrialStats) -> f64 {
    stats
        .rounds_overall
        .as_ref()
        .map_or(0.0, |rounds| rounds.mean * rounds.count as f64)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
