//! The system under test: the serial backend or a warm local fleet on
//! the workloads, and an in-process sweep daemon with its own fleet for
//! the traced run's serve replay.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use crp_serve::{ResultCache, ServeClient, ServeError, SweepServer};
use crp_sim::service::{compile_submission, results_from_outcome, submit_matrix, sweep_hooks};
use crp_sim::{FleetBackend, SerialBackend, SweepMatrix, SweepResults};

use crate::grids::Workload;
use crate::spans::Recorder;

/// Local fleet workers on the fleet and serve paths: two, so with the
/// client the load fits a 2-core machine.
pub const WORKERS: usize = 2;

/// What one op returned.
pub struct OpResult {
    /// The grid's table.
    pub results: SweepResults,
    /// The daemon's account of the submission (serve path only).
    pub served: Option<Served>,
}

/// How the daemon settled one submission.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    /// Jobs settled from the cache.
    pub cache_hits: usize,
    /// Jobs computed on the fleet.
    pub computed: usize,
    /// Jobs in the submission.
    pub jobs: usize,
}

impl Served {
    fn from_outcome(outcome: &crp_serve::SubmissionOutcome) -> Self {
        Self {
            cache_hits: outcome.job_hits,
            computed: outcome.computed,
            jobs: outcome.jobs_total,
        }
    }
}

/// The system one workload drives.
pub enum System {
    /// `SerialBackend`, in process.
    Serial,
    /// A warm `FleetBackend::local(WORKERS)`.
    Fleet(FleetBackend),
    /// A `SweepServer` on loopback with a fresh `ResultCache`.
    Serve(Service),
}

impl System {
    /// Starts the workload's system.
    ///
    /// # Errors
    ///
    /// A missing `crp_experiments` worker binary.
    pub fn start(workload: Workload) -> Result<Self, String> {
        Ok(match workload {
            Workload::KernelGrid => System::Serial,
            Workload::FleetWideUniverse => {
                System::Fleet(FleetBackend::local(WORKERS).map_err(|e| e.to_string())?)
            }
        })
    }

    /// Starts an in-process sweep daemon with a fresh `ResultCache` in
    /// `cache_dir` and its own local fleet.
    ///
    /// # Errors
    ///
    /// A missing `crp_experiments` worker binary, an unbindable
    /// loopback port, or an unopenable cache directory.
    pub fn serve(cache_dir: &Path) -> Result<Self, String> {
        Ok(System::Serve(Service::start(cache_dir)?))
    }

    /// Runs one grid through the system's public entry point.
    ///
    /// # Errors
    ///
    /// The system's error, rendered.
    pub fn run(&self, matrix: &SweepMatrix) -> Result<OpResult, String> {
        match self {
            System::Serial => local(matrix.run_on(&SerialBackend)),
            System::Fleet(fleet) => local(matrix.run_on(fleet)),
            System::Serve(service) => {
                let (results, outcome) = submit_matrix(&service.addr, matrix, |_, _, _| {})
                    .map_err(|e| e.to_string())?;
                Ok(OpResult {
                    results,
                    served: Some(Served::from_outcome(&outcome)),
                })
            }
        }
    }

    /// Like [`System::run`], recording a span around each layer call the
    /// benchmark can separate.  On the serve path that splits
    /// `submit_matrix` into its public steps.
    ///
    /// # Errors
    ///
    /// As [`System::run`].
    pub fn run_traced(
        &self,
        matrix: &SweepMatrix,
        op: u64,
        spans: &mut Recorder,
    ) -> Result<OpResult, String> {
        match self {
            System::Serial => {
                spans.time(op, "sweep.run_on", || local(matrix.run_on(&SerialBackend)))
            }
            System::Fleet(fleet) => spans.time(op, "sweep.run_on", || local(matrix.run_on(fleet))),
            System::Serve(service) => {
                let (submission, tickets) = spans
                    .time(op, "service.compile_submission", || {
                        compile_submission(matrix)
                    })
                    .map_err(|e| e.to_string())?;
                let mut client = spans
                    .time(op, "serve.connect", || {
                        ServeClient::connect(service.addr.as_str())
                    })
                    .map_err(|e| e.to_string())?;
                let outcome = spans
                    .time(op, "serve.submit", || {
                        client.submit(&submission, |_, _, _| {})
                    })
                    .map_err(|e| e.to_string())?;
                let results = spans
                    .time(op, "service.results_from_outcome", || {
                        results_from_outcome(tickets, &outcome)
                    })
                    .map_err(|e| e.to_string())?;
                spans.time(op, "serve.disconnect", || drop(client));
                Ok(OpResult {
                    results,
                    served: Some(Served::from_outcome(&outcome)),
                })
            }
        }
    }
}

fn local(results: Result<SweepResults, crp_sim::SimError>) -> Result<OpResult, String> {
    Ok(OpResult {
        results: results.map_err(|e| e.to_string())?,
        served: None,
    })
}

/// An in-process sweep daemon serving on a loopback port.
pub struct Service {
    addr: String,
    daemon: Option<JoinHandle<Result<(), ServeError>>>,
    cache_dir: PathBuf,
}

impl Service {
    fn start(cache_dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let cache = ResultCache::open(cache_dir).map_err(|e| e.to_string())?;
        let endpoints = FleetBackend::local(WORKERS)
            .map_err(|e| e.to_string())?
            .endpoints()
            .to_vec();
        let server =
            SweepServer::bind("127.0.0.1:0", endpoints, Some(cache)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let daemon = std::thread::spawn(move || server.serve(sweep_hooks()));
        Ok(Self {
            addr,
            daemon: Some(daemon),
            cache_dir: cache_dir.to_path_buf(),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(client) = ServeClient::connect(self.addr.as_str()) {
            let _ = client.shutdown_server();
        }
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}
